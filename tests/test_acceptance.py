"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 6 trains a real
ensemble on the bundled synthetic preset and takes a few minutes of CPU.
"""

import json
import time

import numpy as np

import dmidas as dm
from dmidas import engine
from dmidas.blocks import Block, BlockConfig, PoolSpec
from dmidas.cli import main
from dmidas.engine import GradientTape, Tensor, grad_check
from dmidas.metrics import mae as mae_fn
from dmidas.metrics import rmse as rmse_fn
from dmidas.metrics import seasonal_naive_forecast
from dmidas.model import ModelConfig, StackConfig, build_model, count_parameters, generic_twin
from dmidas.params import ParameterStore, fan_in_init, l1_penalty
from dmidas.training import (EnsembleConfig, TrainConfig, denormalize_forecast,
                             ensemble_forecast, ensemble_forecast_batch,
                             median_abs_scales, normalize, split_tail, train_ensemble)

KINK_MARGIN = 1e-3


def report_pass(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def sample_kink_free(build, rng, attempts=50):
    """Draw (tensors, f) whose forward stays KINK_MARGIN away from every kink."""
    for _ in range(attempts):
        tensors, f = build(rng)
        tape = GradientTape()
        out = f(*tensors, tape=tape)
        if not isinstance(out, Tensor) or out.value.shape != ():
            raise AssertionError("builder must produce a traced scalar")
        if tape.min_kink_margin() > KINK_MARGIN:
            return tensors, f
    raise AssertionError("could not find a kink-free sample point")


def count_slope_changes(values, threshold=1e-9):
    d2 = values[2:] - 2 * values[1:-1] + values[:-2]
    return int(np.sum(np.abs(d2) > threshold))


def test_criterion_1_gradient_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checks = 0
    worst = 0.0

    def check(build, n_points=20):
        nonlocal checks, worst
        for _ in range(n_points):
            tensors, f = sample_kink_free(build, rng)
            report = grad_check(f, tensors, eps=1e-6, tol=1e-4)
            assert report.passed, str(report)
            worst = max(worst, report.max_rel_error)
            checks += 1

    def build_affine(rng):
        x = rng.normal(size=(3, 4))
        w = Tensor(rng.normal(size=(4, 2)))
        b = Tensor(rng.normal(size=2))
        return [w, b], lambda w_, b_, tape=None: engine.tsum(
            engine.affine(x, w_, b_, tape), tape)

    def build_relu(rng):
        x = Tensor(rng.uniform(0.5, 2.0, size=6) * rng.choice([-1, 1], size=6))
        return [x], lambda x_, tape=None: engine.tsum(engine.relu(x_, tape), tape)

    def pool_builder(mode):
        def build(rng):
            x = Tensor(rng.permutation(np.linspace(-4, 4, 10)))
            return [x], lambda x_, tape=None: engine.tsum(
                engine.pool1d(x_, 3, 2, mode, tape), tape)
        return build

    def build_interp(rng):
        theta = Tensor(rng.normal(size=5))
        return [theta], lambda t_, tape=None: engine.tsum(
            engine.interp_upsample(t_, 13, tape), tape)

    def build_project(rng):
        basis = rng.normal(size=(7, 4))
        theta = Tensor(rng.normal(size=4))
        return [theta], lambda t_, tape=None: engine.tsum(
            engine.project(t_, basis, tape), tape)

    def loss_builder(kind):
        def build(rng):
            y = rng.normal(size=8)
            yhat = Tensor(y + rng.uniform(0.5, 1.5, size=8) * rng.choice([-1, 1], size=8))
            return [yhat], lambda h_, tape=None: engine.loss(y, h_, kind, tape)
        return build

    def build_l1(rng):
        store = ParameterStore()
        w = store.add("w", rng.uniform(0.5, 1.5, size=(3, 2)) * rng.choice([-1, 1], size=(3, 2)))
        return [w], lambda w_, tape=None: l1_penalty(store, 0.7, tape)

    def build_addsub(rng):
        a = Tensor(rng.normal(size=5))
        b = Tensor(rng.normal(size=5))

        def half(b_, tape):
            return engine.affine(b_, 0.5 * np.eye(5), np.zeros(5), tape)

        return [a, b], lambda a_, b_, tape=None: engine.tsum(
            engine.sub(engine.add(a_, b_, tape), half(b_, tape), tape), tape)

    for build in (build_affine, build_relu, pool_builder("avg"), pool_builder("max"),
                  pool_builder("stride"), build_interp, build_project,
                  loss_builder("mae"), loss_builder("mse"), build_l1, build_addsub):
        check(build)

    # full block loss: pooled input, ReLU MLP, two heads, interpolation, MAE
    config = BlockConfig(basis="midas", input_size=16, horizon=8, mlp_widths=(8, 8),
                         expressivity_ratio=0.5, pooling=PoolSpec(kernel=2))

    def build_block_loss(rng):
        store = ParameterStore()
        block = Block(config, "b")
        block.register(store, fan_in_init(rng))
        x = rng.normal(size=16)
        target = rng.normal(size=8)
        params = list(store.params())

        def f(*tensors, tape=None):
            out = block.forward(store, x, tape)
            return engine.loss(target, out.forecast, "mae", tape)

        return params, f

    check(build_block_loss)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient fidelity took {elapsed:.1f}s"
    report_pass(1, f"{checks} kink-free gradient checks, max relative error "
                   f"{worst:.2e} < 1e-4, {elapsed:.1f}s < 30s")


def test_criterion_2_interpolation_oracle():
    fixture = engine.interp_upsample(np.array([0.0, 6.0]), 4)
    assert np.array_equal(fixture, [0.0, 3.0, 6.0, 9.0])

    rng = np.random.default_rng(202)
    for h in (1, 3, 8, 24):
        theta = rng.normal(size=h)
        assert np.array_equal(engine.interp_upsample(theta, h), theta)

    horizon, input_size = 96, 288
    template = BlockConfig(basis="midas", input_size=input_size, horizon=horizon,
                           mlp_widths=(16,))
    config = ModelConfig(stacks=(StackConfig(3, template),), input_size=input_size,
                         horizon=horizon, base_ratio=0.5)
    checked = 0
    for draw in range(100):
        model = build_model(config, seed=draw)
        bundle = model.forward(rng.normal(size=input_size))
        for block, component in zip(model.blocks, bundle.components):
            knots = block.config.theta_sizes()[0]
            changes = count_slope_changes(component)
            assert changes <= knots - 1, (draw, block.prefix, changes, knots)
            checked += 1
    report_pass(2, f"fixture and identity exact; {checked} block forecasts within "
                   f"their knot slope-change bounds")


def test_criterion_3_decomposition_additivity():
    rng = np.random.default_rng(303)
    worst_sum = 0.0
    worst_tel = 0.0
    for _ in range(100):
        basis = str(rng.choice(["generic", "polynomial", "harmonic", "midas"]))
        horizon = int(rng.integers(2, 16))
        input_size = int(rng.integers(4, 32))
        template = BlockConfig(basis=basis, input_size=input_size, horizon=horizon,
                               mlp_widths=(int(rng.integers(4, 12)),))
        config = ModelConfig(stacks=(StackConfig(int(rng.integers(1, 4)), template),),
                             input_size=input_size, horizon=horizon,
                             base_ratio=float(rng.uniform(0.3, 1.0)))
        model = build_model(config, seed=int(rng.integers(0, 10 ** 6)))
        y = rng.normal(size=input_size) * float(rng.uniform(0.5, 20.0))
        bundle = model.forward(y)
        gap = np.max(np.abs(np.sum(bundle.components, axis=0) - bundle.forecast))
        worst_sum = max(worst_sum, float(gap))

        residual = y
        backcasts = []
        for block in model.blocks:
            out = block.forward(model.params, residual)
            backcasts.append(engine.value_of(out.backcast))
            residual = residual - backcasts[-1]
        tel = np.max(np.abs(bundle.residual_trace[-1] - (y - np.sum(backcasts, axis=0))))
        worst_tel = max(worst_tel, float(tel))
    assert worst_sum < 1e-9
    assert worst_tel < 1e-9
    report_pass(3, f"100 random models: component-sum gap {worst_sum:.1e} and "
                   f"residual telescoping gap {worst_tel:.1e}, both < 1e-9")


def test_criterion_4_parameter_scaling():
    horizon, ratio, blocks = 96, 0.5, 3
    template = BlockConfig(basis="midas", input_size=288, horizon=horizon,
                           mlp_widths=(512, 512))
    config = ModelConfig(stacks=(StackConfig(blocks, template),), input_size=288,
                         horizon=horizon, base_ratio=ratio)
    model = build_model(config, seed=0)
    report = count_parameters(model)

    ceiling_sum = sum(int(np.ceil(ratio ** l * horizon)) for l in range(1, blocks + 1))
    assert report.forecast_theta_total == 84 == ceiling_sum
    closed_form = horizon * ratio * (1 - ratio ** blocks) / (1 - ratio)
    assert report.geometric_closed_form == closed_form == 84.0

    twin = count_parameters(build_model(generic_twin(config), seed=0))
    assert twin.forecast_theta_total == 288
    reduction = 100.0 * (1 - report.forecast_theta_total / twin.forecast_theta_total)
    assert round(reduction, 1) == 70.8
    whole_model = 100.0 * (1 - report.total / twin.total)
    report_pass(4, f"knot totals 84 vs 288 (70.8% fewer forecast outputs), geometric "
                   f"closed form 84 agrees; whole-model reduction {whole_model:.1f}% "
                   f"(reported, width-dependent)")


def test_criterion_5_degenerate_equivalence():
    input_size, horizon = 32, 16
    midas_template = BlockConfig(basis="midas", input_size=input_size, horizon=horizon,
                                 mlp_widths=(16, 16))
    midas_config = ModelConfig(stacks=(StackConfig(2, midas_template),),
                               input_size=input_size, horizon=horizon,
                               base_ratio=1.0, pooling_schedule=1)
    generic_template = BlockConfig(basis="generic", input_size=input_size,
                                   horizon=horizon, mlp_widths=(16, 16))
    generic_config = ModelConfig(stacks=(StackConfig(2, generic_template),),
                                 input_size=input_size, horizon=horizon)
    midas = build_model(midas_config, seed=55)
    generic = build_model(generic_config, seed=0)
    for name in midas.params.names():
        generic.params[name].value[...] = midas.params[name].value

    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(50):
        y = rng.normal(size=input_size) * float(rng.uniform(0.1, 10.0))
        diff = np.max(np.abs(midas.forward(y).forecast - generic.forward(y).forecast))
        worst = max(worst, float(diff))
    assert worst < 1e-12
    report_pass(5, f"degenerate model matches its generic twin over 50 inputs, "
                   f"max abs diff {worst:.1e} < 1e-12")


def test_criterion_6_synthetic_forecasting_skill():
    start = time.perf_counter()
    horizon, input_size = 96, 288
    dataset = dm.generate_synthetic(dm.multifreq_v1())
    split = split_tail(dataset, val_len=480, test_len=960)
    scales = median_abs_scales(split)
    mode = "per-series-median"
    train_n, _ = normalize(split.train_windows(input_size, horizon), mode, scales)
    val_n, _ = normalize(split.val_windows(input_size, horizon), mode, scales)
    test_n, _ = normalize(split.test_windows(input_size, horizon), mode, scales)
    raw_test = split.test_windows(input_size, horizon)

    # midpoint of the default search space: lr 1e-3, width 256, 2 blocks,
    # base ratio 0.5, no L1
    template = BlockConfig(basis="midas", input_size=input_size, horizon=horizon,
                           mlp_widths=(256, 256))
    config = ModelConfig(stacks=(StackConfig(2, template),), input_size=input_size,
                         horizon=horizon, base_ratio=0.5)
    train_cfg = TrainConfig(lr=1e-3, iterations=2000, batch_size=128, eval_every=100,
                            early_stop_patience=10, seed=0, loss_kind="mae",
                            normalization=mode)
    members = train_ensemble(config, train_n, val_n, train_cfg,
                             EnsembleConfig(n_members=4))

    x_test = np.stack([w.input for w in test_n])
    fc = ensemble_forecast_batch(members, x_test)
    model_mae = float(np.mean([
        mae_fn(denormalize_forecast(w, w.target), denormalize_forecast(w, fc[i]))
        for i, w in enumerate(test_n)]))
    naive_mae = float(np.mean([
        mae_fn(w.target, seasonal_naive_forecast(w.input, horizon, 168))
        for w in raw_test]))
    untrained = [build_model(config, seed=9000 + k) for k in range(4)]
    fc_u = ensemble_forecast_batch(untrained, x_test)
    untrained_mae = float(np.mean([
        mae_fn(denormalize_forecast(w, w.target), denormalize_forecast(w, fc_u[i]))
        for i, w in enumerate(test_n)]))

    elapsed = time.perf_counter() - start
    improvement = 100.0 * (1 - model_mae / naive_mae)
    assert model_mae < naive_mae
    assert model_mae < untrained_mae
    assert improvement >= 25.0, f"only {improvement:.1f}% better than seasonal naive"
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    report_pass(6, f"ensemble MAE {model_mae:.4f} vs naive {naive_mae:.4f} "
                   f"({improvement:.1f}% >= 25%) and untrained {untrained_mae:.4f}; "
                   f"{elapsed:.0f}s < 600s")


def test_criterion_7_ensemble_protocol():
    input_size, horizon = 24, 8
    template = BlockConfig(basis="midas", input_size=input_size, horizon=horizon,
                           mlp_widths=(8,))
    config = ModelConfig(stacks=(StackConfig(1, template),), input_size=input_size,
                         horizon=horizon, base_ratio=0.5)
    members = [build_model(config, seed=s) for s in range(4)]
    rng = np.random.default_rng(707)
    for _ in range(10):
        y = rng.normal(size=input_size)
        fc = ensemble_forecast(members, y)
        acc = members[0].forward(y).forecast.copy()
        for m in members[1:]:
            acc = acc + m.forward(y).forecast
        assert np.array_equal(fc, acc / 4)
        single = ensemble_forecast(members[:1], y)
        assert np.array_equal(single, members[0].forward(y).forecast)
    assert EnsembleConfig().n_members == 4
    report_pass(7, "mean ensemble equals brute-force member mean exactly; "
                   "n=1 equals its member; default size 4")


def test_criterion_8_reproducibility(tmp_path):
    spec = {"name": "repro", "length": 300, "seed": 3,
            "components": [{"kind": "sinusoid", "period": 12, "amplitude": 3.0},
                           {"kind": "noise", "sigma": 0.2}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    config_path = tmp_path / "run.ini"
    config_path.write_text(
        "[model]\nkind = dmidas\ninput_size = 24\nhorizon = 8\nblocks_per_stack = 2\n"
        "mlp_widths = 16,16\nbase_ratio = 0.5\n"
        "[training]\niterations = 60\nbatch_size = 16\neval_every = 20\n"
        "[ensemble]\nn_members = 2\n"
        "[evaluation]\nhorizons = 8\nval_len = 32\ntest_len = 32\n"
        "models = dmidas,seasonal-naive\nnaive_period = 12\n")

    def run(tag, jobs):
        root = tmp_path / tag
        data = root / "data.csv"
        assert main(["generate", str(spec_path), "--out", str(data)]) == 0
        assert main(["train", str(data), "--config", str(config_path),
                     "--out", str(root / "train"), "--seed", "21",
                     "--jobs", str(jobs)]) == 0
        assert main(["evaluate", str(data), "--config", str(config_path),
                     "--out", str(root / "eval"), "--seed", "21",
                     "--jobs", str(jobs)]) == 0
        return (data.read_bytes(),
                (root / "train" / "checkpoints" / "member_0.npz").read_bytes(),
                (root / "eval" / "metrics.json").read_bytes())

    a = run("a", jobs=1)
    b = run("b", jobs=1)
    c = run("c", jobs=2)
    assert a[0] == b[0] == c[0]
    assert a[1] == b[1] == c[1]
    assert a[2] == b[2] == c[2]
    report_pass(8, "two identical-seed end-to-end runs byte-identical; "
                   "--jobs 2 output byte-identical to --jobs 1")


def test_criterion_9_metric_oracles():
    rng = np.random.default_rng(909)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        y = rng.normal(size=n) * float(rng.uniform(0.1, 100))
        yhat = rng.normal(size=n) * float(rng.uniform(0.1, 100))
        abs_sum = 0.0
        sq_sum = 0.0
        for a, b in zip(y, yhat):
            abs_sum += abs(a - b)
            sq_sum += (a - b) ** 2
        brute_mae = abs_sum / n
        brute_rmse = (sq_sum / n) ** 0.5
        m, r = mae_fn(y, yhat), rmse_fn(y, yhat)
        assert abs(m - brute_mae) < 1e-12 * max(1.0, brute_mae)
        assert abs(r - brute_rmse) < 1e-12 * max(1.0, brute_rmse)
        assert r >= m - 1e-12
    report_pass(9, "1000 random pairs match brute-force MAE/RMSE to 1e-12 "
                   "with rmse >= mae throughout")


def test_criterion_10_leakage_guard():
    rng = np.random.default_rng(1010)
    violations = 0
    scanned = 0
    for _ in range(50):
        length = int(rng.integers(80, 400))
        val_len = int(rng.integers(6, 40))
        test_len = int(rng.integers(6, 40))
        input_size = int(rng.integers(2, 16))
        horizon = int(rng.integers(1, min(6, val_len, test_len) + 1))
        stride = int(rng.integers(1, 5))
        values = rng.normal(size=length)
        dataset = dm.TimeSeriesDataset(series=[dm.Series(id="s", values=values)])
        split = split_tail(dataset, val_len, test_len)
        train_end = split.splits[0].train_end
        val_end = split.splits[0].val_end
        for w in split.train_windows(input_size, horizon, stride):
            scanned += 1
            if w.target_end > train_end or w.t_start + input_size > train_end:
                violations += 1
        for w in split.val_windows(input_size, horizon):
            scanned += 1
            if w.target_start < train_end or w.target_end > val_end:
                violations += 1
        for w in split.test_windows(input_size, horizon):
            scanned += 1
            if w.target_start < val_end:
                violations += 1
    assert violations == 0
    report_pass(10, f"{scanned} windows scanned across 50 randomized splits, "
                    f"zero leakage violations")
