"""Each output check passes on the program's real outputs and fails on a
corrupted copy: a forecast perturbed by 1e-6, a shifted window, a grad or
an update that is off, a member trained on another seed."""

from dataclasses import replace

import numpy as np
import pytest

import checks
import workload
from dmidas import data, engine, model, params, training
from dmidas.blocks import BlockConfig

L, H = 24, 8


def tiny_config(n_blocks=2):
    template = BlockConfig(basis="midas", input_size=L, horizon=H, mlp_widths=(8, 8))
    return model.ModelConfig(stacks=(model.StackConfig(n_blocks, template),),
                             input_size=L, horizon=H, base_ratio=0.5)


@pytest.fixture
def members(tmp_path):
    paths = []
    for seed in (3, 4):
        path = tmp_path / f"member_{seed}.npz"
        model.save_checkpoint(model.build_model(tiny_config(), seed), path)
        paths.append(path)
    return paths


def test_reference_forward_reproduces_and_rejects_perturbed_forecast(members):
    x = np.random.default_rng(0).normal(size=(5, L))
    served = [model.load_checkpoint(p) for p in members]
    fc = np.stack([training.ensemble_forecast(served, row) for row in x])
    ckpts = [checks.read_checkpoint(p) for p in members]
    ok, detail = checks.check_reference_forward(ckpts, x, fc, n_mlp=2)
    assert ok, detail
    ok, _ = checks.check_reference_forward(ckpts, x, fc * (1 + 1e-6), n_mlp=2)
    assert not ok


def test_reference_forward_rejects_an_undocumented_schedule(members):
    meta, arrays = checks.read_checkpoint(members[0])
    meta["config"]["base_ratio"] = 0.25
    x = np.zeros((1, L))
    ok, detail = checks.check_reference_forward([(meta, arrays)], x, np.zeros((1, H)), 2)
    assert not ok and "knots" in detail


def test_interpolation_matches_the_program_matrix():
    theta = np.random.default_rng(1).normal(size=(3, 5))
    for n in (5, 8, 13):
        want = theta @ engine.interpolation_matrix(5, n).T
        assert checks.rel_error(checks.interpolate(theta, n), want) < 1e-14
    assert np.array_equal(checks.interpolate(theta[:, :1], 4), np.repeat(theta[:, :1], 4, 1))


def split_windows(values):
    dataset = data.TimeSeriesDataset([data.Series("a", values)])
    split = training.split_tail(dataset, val_len=H, test_len=H)
    scales = training.median_abs_scales(split)
    windows, _ = training.normalize(split.train_windows(L, H), "per-series-median", scales)
    return split, windows, scales


def test_windows_check_accepts_program_windows_and_rejects_a_shift():
    values = np.random.default_rng(2).normal(size=120) + 3.0
    split, windows, scales = split_windows(values)
    train_end = {"a": split.splits[0].train_end}
    ok, detail = checks.check_windows(windows, {"a": values}, train_end, scales, L, H)
    assert ok, detail
    shifted = windows[:3] + [replace(w, input=windows[i + 1].input)
                             for i, w in enumerate(windows[3:-1], start=3)] + windows[-1:]
    assert not checks.check_windows(shifted, {"a": values}, train_end, scales, L, H)[0]
    assert not checks.check_windows(windows[:-1], {"a": values}, train_end, scales, L, H)[0]


def test_reload_check_is_bit_exact(tmp_path):
    generated = data.generate_synthetic(replace(data.multifreq_v1(), length=300, seed=5))
    path = tmp_path / "s.csv"
    data.save_dataset_csv(generated, path)
    loaded = data.load_csv(path)
    values = {s.id: s.values for s in generated}
    assert checks.check_reload(values, loaded)[0]
    nudged = {k: np.nextafter(v, np.inf) for k, v in values.items()}
    assert not checks.check_reload(nudged, loaded)[0]


def test_gradient_check_accepts_tape_and_rejects_perturbed_grad():
    m = model.build_model(tiny_config(), 7)
    rng = np.random.default_rng(3)
    xb, yb = rng.normal(size=(4, L)), rng.normal(size=(4, H))
    grads = workload.tape_gradients(m, xb, yb)
    raw = {name: p.value.copy() for name, p in m.params.items()}
    coords = [(name, 0) for name in raw if name.endswith("weight")]
    prefixes = checks.block_layout(raw)
    ok, detail = checks.check_gradients(raw, prefixes, 2, xb, yb, grads, coords)
    assert ok, detail
    name = "s0.b0.theta_f.weight"
    bad = dict(grads, **{name: grads[name] * (1 + 1e-3) + 1e-6})
    assert not checks.check_gradients(raw, prefixes, 2, xb, yb, bad, [(name, 0)])[0]


def test_adam_check_accepts_adam_step_and_rejects_other_grads():
    m = model.build_model(tiny_config(1), 8)
    rng = np.random.default_rng(4)
    state = params.OptimizerState.for_store(m.params)
    before = {n: (p.value.copy(), state.m[n].copy(), state.v[n].copy())
              for n, p in m.params.items()}
    grads = {n: rng.normal(size=p.value.shape) for n, p in m.params.items()}
    for n, p in m.params.items():
        p.grad = grads[n]
    params.adam_step(m.params, state, lr=1e-3)
    after = {n: (p.value, state.m[n], state.v[n]) for n, p in m.params.items()}
    assert checks.check_adam(before, grads, after, 1, 1e-3, 0.9, 0.999, 1e-8)[0]
    off = {n: g * (1 + 1e-6) for n, g in grads.items()}
    assert not checks.check_adam(before, off, after, 1, 1e-3, 0.9, 0.999, 1e-8)[0]


def test_history_row_check_rejects_a_member_trained_on_another_seed():
    values = data.generate_synthetic(replace(data.multifreq_v1(), length=200)).series[0].values
    _, windows, _ = split_windows(values)
    cfg = training.TrainConfig(iterations=3, batch_size=8, eval_every=3)
    rows = []
    for seed in (0, 0, 1):
        m = model.build_model(tiny_config(), seed)
        rows.append(training.train(m, windows, windows[:2], replace(cfg, seed=seed)).history[0])
    assert checks.check_same_row(rows[0], rows[1])[0]
    assert not checks.check_same_row(rows[0], rows[2])[0]


def test_cli_forecast_file_comparison(tmp_path):
    path = tmp_path / "f.csv"
    fc = np.random.default_rng(5).normal(size=H)
    path.write_text("t,forecast\n" + "".join(f"{t},{float(v)!r}\n" for t, v in enumerate(fc)))
    assert checks.same_bits(checks.read_forecast_csv(path), fc)
    assert not checks.same_bits(checks.read_forecast_csv(path), fc * (1 + 1e-6))


def test_seasonal_naive_and_skill():
    x = np.arange(20.0).reshape(2, 10)
    assert np.array_equal(checks.seasonal_naive(x, 5, 3), x[:, [7, 8, 9, 7, 8]])
    assert checks.check_skill(0.9, 1.0, 0.05)[0]
    assert not checks.check_skill(0.97, 1.0, 0.05)[0]
