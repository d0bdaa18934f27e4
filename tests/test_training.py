"""Windowing, splits, normalization, the training loop and ensembles."""

import copy
import ctypes
import os
import pickle
import resource
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from dmidas.blocks import BlockConfig
from dmidas.data import Series, Sinusoid, SyntheticSpec, TimeSeriesDataset, generate_synthetic
from dmidas import engine
from dmidas.engine import affine
from dmidas.errors import ConfigError, DataError, NumericsError, TrainingError
from dmidas.model import ModelConfig, StackConfig, build_model
from dmidas import training
from dmidas.params import OptimizerState, ParameterStore, adam_step
from dmidas.training import (NORMALIZATION_MODES, EnsembleConfig, TrainConfig, Window,
                             ensemble_forecast, ensemble_forecast_batch, make_windows,
                             median_abs_scales, normalize, parallel_map,
                             prepared_windows, split_tail, train, train_ensemble,
                             write_history_csv)


def dataset(length=200, seed=0, ids=("a",), period=12, amplitude=2.0):
    series = []
    for i, sid in enumerate(ids):
        spec = SyntheticSpec(length=length, components=(Sinusoid(period=period,
                                                                 amplitude=amplitude),),
                             seed=seed + i, name=sid)
        series.append(Series(id=sid, values=generate_synthetic(spec).series[0].values
                             + i * 5.0))
    return TimeSeriesDataset(series=series, name="fixture")


class LinearModel:
    """Minimal model implementing the training surface: yhat = x @ w + b."""

    def __init__(self, input_size=1, horizon=1, seed=0):
        self.input_size = input_size
        self.horizon = horizon
        self.params = ParameterStore()
        rng = np.random.default_rng(seed)
        self.params.add("w", rng.normal(size=(input_size, horizon)) * 0.1, kind="weight")
        self.params.add("b", np.zeros(horizon), kind="bias")

    def forward_batch(self, x, tape=None, collect=False):
        out = affine(x, self.params["w"], self.params["b"], tape)
        return out, [], []


class TestMakeWindows:
    def test_count_formula(self):
        windows = make_windows(np.arange(10.0), 3, 2, stride=1)
        assert len(windows) == 6

    def test_exact_fit_single_window(self):
        windows = make_windows(np.arange(5.0), 3, 2)
        assert len(windows) == 1
        np.testing.assert_array_equal(windows[0].input, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(windows[0].target, [3.0, 4.0])

    def test_large_stride_single_window(self):
        assert len(make_windows(np.arange(10.0), 3, 2, stride=10)) == 1

    def test_too_short_names_series(self):
        with pytest.raises(DataError, match="'pulse'"):
            make_windows(np.arange(4.0), 3, 2, series_id="pulse")

    def test_targets_follow_inputs(self):
        for w in make_windows(np.arange(20.0), 4, 3, stride=2):
            assert w.target[0] == w.input[-1] + 1
            assert w.target_start == w.t_start + 4


class TestSplitTail:
    def test_training_region_length(self):
        ds = dataset(length=100)
        split = split_tail(ds, 10, 10)
        assert split.splits[0].train_end == 80
        assert split.splits[0].val_end == 90

    def test_zero_test_is_validation_only(self):
        split = split_tail(dataset(length=100), 10, 0)
        assert split.splits[0].val_end == 100
        assert split.test_windows(8, 4) == []

    def test_too_short_series_named(self):
        ds = TimeSeriesDataset(series=[Series(id="tiny", values=np.ones(5))])
        with pytest.raises(DataError, match="'tiny'"):
            split_tail(ds, 3, 3)

    def test_no_leakage_exhaustive_index_scan(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            length = int(rng.integers(60, 200))
            val_len = int(rng.integers(5, 25))
            test_len = int(rng.integers(5, 25))
            input_size = int(rng.integers(2, 12))
            horizon = int(rng.integers(1, min(6, val_len, test_len) + 1))
            ds = dataset(length=length)
            split = split_tail(ds, val_len, test_len)
            train_end = split.splits[0].train_end
            val_end = split.splits[0].val_end
            train_w = split.train_windows(input_size, horizon,
                                          stride=int(rng.integers(1, 4)))
            val_w = split.val_windows(input_size, horizon)
            test_w = split.test_windows(input_size, horizon)
            assert train_w and val_w and test_w
            max_train_target = max(w.target_end for w in train_w)
            assert max_train_target <= train_end
            assert min(w.target_start for w in val_w) >= train_end
            assert max(w.target_end for w in val_w) <= val_end
            assert min(w.target_start for w in test_w) >= val_end
            assert max_train_target - 1 < min(w.target_start for w in val_w) \
                < min(w.target_start for w in test_w)


class TestHoldoutWindows:
    def test_match_direct_slicing(self):
        ds = dataset(length=100, ids=("a", "b"))
        split = split_tail(ds, 20, 15)
        for part, lo, hi in (("val", 65, 85), ("test", 85, 100)):
            windows = getattr(split, f"{part}_windows")(10, 4, stride=3)
            starts = list(range(lo, hi - 4 + 1, 3))
            assert len(windows) == 2 * len(starts)
            for w, t0 in zip(windows, starts * 2):
                v = {s.id: s.values for s in ds}[w.series_id]
                assert w.t_start == t0 - 10
                np.testing.assert_array_equal(w.input, v[t0 - 10:t0])
                np.testing.assert_array_equal(w.target, v[t0:t0 + 4])

    def test_horizon_longer_than_region_gives_no_windows(self):
        split = split_tail(dataset(length=100), 20, 15)
        assert split.test_windows(10, 16) == []

    def test_too_little_history_names_series(self):
        split = split_tail(dataset(length=100, ids=("short",)), 20, 15)
        with pytest.raises(DataError, match="'short' has too little history"):
            split.val_windows(70, 4)


class TestPreparedWindows:
    @pytest.mark.parametrize("mode", NORMALIZATION_MODES)
    @pytest.mark.parametrize("part", ["train", "val", "test"])
    def test_matches_split_scale_normalize(self, mode, part):
        split = split_tail(dataset(length=150, ids=("a", "b")), 20, 20)
        want, _ = normalize(getattr(split, f"{part}_windows")(12, 4), mode,
                            median_abs_scales(split))
        got = prepared_windows(split, part, 12, 4, mode)
        assert len(got) == len(want) > 0
        for g, w in zip(got, want):
            assert (g.series_id, g.t_start, g.scale, g.offset) == \
                (w.series_id, w.t_start, w.scale, w.offset)
            assert g.input.tobytes() == w.input.tobytes()
            assert g.target.tobytes() == w.target.tobytes()

    def test_unknown_part_rejected(self):
        split = split_tail(dataset(length=150), 20, 20)
        with pytest.raises(ConfigError, match="holdout"):
            prepared_windows(split, "holdout", 12, 4, "none")


class TestParallelMap:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_keeps_item_order(self, jobs):
        assert parallel_map(lambda x: x * x, range(7), jobs) == [x * x for x in range(7)]

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            parallel_map(abs, [1], 0)


USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count())


@pytest.fixture
def blas():
    """The getter ``parallel_map`` reads, with the count set to every usable core."""
    controls = training._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded in this process")
    get, set_ = controls[0]
    original = get()
    set_(USABLE_CPUS)
    yield get
    set_(original)


class TestBlasThreadCap:
    """While workers run, OpenBLAS gets the cores each worker owns."""

    @pytest.mark.parametrize("jobs, n_items", [(2, 4), (4, 2)])
    def test_workers_read_the_cap_and_it_is_restored(self, blas, jobs, n_items):
        seen = parallel_map(lambda _: blas(), range(n_items), jobs)
        assert seen == [max(1, USABLE_CPUS // 2)] * n_items
        assert blas() == USABLE_CPUS

    def test_count_restored_after_fn_raises(self, blas):
        def fail_on_one(x):
            if x == 1:
                raise RuntimeError("boom")
            return x

        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(fail_on_one, range(4), 2)
        assert blas() == USABLE_CPUS

    @pytest.mark.parametrize("jobs, n_items", [(1, 3), (2, 1)])
    def test_single_worker_never_changes_the_count(self, blas, monkeypatch, jobs, n_items):
        monkeypatch.setattr(training, "_openblas_thread_controls",
                            lambda: pytest.fail("looked up BLAS for one worker"))
        assert parallel_map(lambda _: blas(), range(n_items), jobs) == [USABLE_CPUS] * n_items

    def test_no_openblas_gives_the_same_results(self, blas, monkeypatch):
        rng = np.random.default_rng(0)
        mats = [rng.normal(size=(64, 64)) for _ in range(4)]

        def work(m):
            return blas(), m @ m.T

        capped = parallel_map(work, mats, 2)
        monkeypatch.setattr(training, "_openblas_thread_controls", lambda: [])
        uncapped = parallel_map(work, mats, 2)
        assert [n for n, _ in uncapped] == [USABLE_CPUS] * 4
        for (_, a), (_, b) in zip(capped, uncapped):
            np.testing.assert_array_equal(a, b)


class TestBatchBlocks:
    """A batch forecast runs in blocks of ``BATCH_ROWS`` rows on every usable CPU
    with OpenBLAS at one thread, so its bytes do not depend on the CPU count."""

    N = 2 * training.BATCH_ROWS + 7  # two full blocks and a tail block of 7 rows

    @pytest.fixture(scope="class")
    def config(self):
        # The first block pools 800 lags to 400, so its first affine has a fan-in
        # at which OpenBLAS rounds differently at one and at two threads.
        template = BlockConfig(basis="midas", input_size=800, horizon=32, mlp_widths=(16, 16))
        return ModelConfig(stacks=(StackConfig(2, template),), input_size=800, horizon=32,
                           base_ratio=0.5)

    @pytest.fixture(scope="class")
    def members(self, config):
        return [build_model(config, seed) for seed in (0, 1)]

    @pytest.fixture(scope="class")
    def x(self):
        assert self.N % training.BATCH_ROWS == 7
        t = np.arange(800 + self.N)
        return np.stack([np.sin(2 * np.pi * t[i:i + 800] / 96) + 0.01 * i
                         for i in range(self.N)])

    @staticmethod
    def spy(monkeypatch, member, get) -> list:
        """The OpenBLAS thread counts that ``member``'s batch forwards see."""
        seen = []
        real = member.forward_batch

        def forward_batch(*args, **kwargs):
            seen.append(get())
            return real(*args, **kwargs)

        monkeypatch.setattr(member, "forward_batch", forward_batch)
        return seen

    def test_bytes_do_not_depend_on_the_cpu_count(self, members, x, monkeypatch):
        out = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
            out[cpus] = ensemble_forecast_batch(members, x).tobytes()
        assert out[1] == out[2] == out[3]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_openblas_runs_at_one_thread_and_is_restored(self, blas, members, x,
                                                         monkeypatch, cpus):
        monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
        seen = self.spy(monkeypatch, members[1], blas)
        ensemble_forecast_batch(members, x)
        assert seen == [1] * 3
        assert blas() == USABLE_CPUS

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_count_restored_after_a_member_raises(self, blas, config, members, x,
                                                  monkeypatch, cpus):
        monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
        broken = build_model(config, 2)
        broken.params["s0.b0.mlp0.weight"].value[0, 0] = np.nan
        with pytest.raises(NumericsError):
            ensemble_forecast_batch([members[0], broken], x)
        assert blas() == USABLE_CPUS
        seen = self.spy(monkeypatch, members[1], blas)
        ensemble_forecast_batch(members, x[:40])
        assert seen == [1]

    def test_inside_a_capped_fan_out_the_count_stays(self, blas, members, x, monkeypatch):
        # Two workers on twice the usable CPUs keep OpenBLAS at every usable core.
        # Moving that process-wide count would change how the sibling worker's
        # products round midway.
        monkeypatch.setattr(training, "_usable_cpus", lambda: 2 * USABLE_CPUS)
        seen = self.spy(monkeypatch, members[1], blas)
        fcs = parallel_map(lambda _: ensemble_forecast_batch(members, x), range(2), 2)
        assert seen == [USABLE_CPUS] * 6
        assert blas() == USABLE_CPUS
        assert fcs[0].tobytes() == fcs[1].tobytes()

    def test_rows_match_single_windows_across_block_boundaries(self, members, x):
        batch = ensemble_forecast_batch(members, x)
        rows = [0, 1] + [b + d for b in (training.BATCH_ROWS, 2 * training.BATCH_ROWS)
                         for d in (-2, -1, 0, 1)] + [self.N - 1]
        singles = np.stack([ensemble_forecast(members, x[r]) for r in rows])
        assert np.max(np.abs(batch[rows] - singles)) <= 1e-12 * np.max(np.abs(singles))

    @pytest.mark.parametrize("n", [1, 5, 31, 32, training.BATCH_ROWS - 1])
    def test_fewer_rows_than_a_block(self, members, x, n):
        batch = ensemble_forecast_batch(members, x[:n])
        assert batch.shape == (n, 32)
        singles = np.stack([ensemble_forecast(members, row) for row in x[:n]])
        assert np.max(np.abs(batch - singles)) <= 1e-12 * np.max(np.abs(singles))

    def test_inputs_callers_pass_give_the_same_bytes(self, members, x):
        want = ensemble_forecast_batch(members, x[:300]).tobytes()
        read_only = x[:300].copy()
        read_only.flags.writeable = False
        for given in (read_only, np.asfortranarray(x[:300]), x[:300].tolist(),
                      np.stack([row for row in x[:300]])):
            assert ensemble_forecast_batch(members, given).tobytes() == want

    @pytest.mark.parametrize("shape", [(800,), (3, 799), (2, 3, 800)])
    def test_other_shapes_rejected(self, members, shape):
        with pytest.raises(ConfigError, match="expected an input batch of shape"):
            ensemble_forecast_batch(members, np.zeros(shape))


def plain_copy(w: Window) -> Window:
    """``w`` as a hand-built window that owns writable copies of its arrays."""
    return Window(w.series_id, w.input.copy(), w.target.copy(), w.t_start, w.scale, w.offset)


class TestWindowViews:
    """Builder windows are read-only views into one float64 buffer per series."""

    def split(self):
        return split_tail(dataset(length=120, ids=("a", "b")), 20, 20)

    @pytest.mark.parametrize("part", ["make_windows", "train", "val", "test"])
    def test_one_read_only_buffer_per_series(self, part):
        split = self.split()
        values = {sp.series.id: sp.series.values for sp in split.splits}
        if part == "make_windows":
            values = {"series": np.arange(50.0)}
            windows = make_windows(values["series"], 6, 3, stride=2)
        else:
            windows = getattr(split, f"{part}_windows")(12, 4, stride=2)
        buffers = {}
        for w in windows:
            buf = buffers.setdefault(w.series_id, w.input.base)
            assert buf is not None and buf.size <= len(values[w.series_id])
            assert w.input.base is buf and w.target.base is buf
            assert np.shares_memory(w.input, buf) and np.shares_memory(w.target, buf)
            # t_start is absolute for every part, holdouts included
            np.testing.assert_array_equal(w.input, values[w.series_id][w.t_start:w.target_start])
            with pytest.raises(ValueError, match="read-only"):
                w.input[0] = 0.0
        assert sorted(buffers) == sorted(values)

    def test_fields_cannot_be_reassigned(self):
        w = make_windows(np.arange(10.0), 3, 2)[0]
        with pytest.raises(FrozenInstanceError):
            w.input = np.zeros(3)

    @pytest.mark.parametrize("mode", ["per-series-median", "none"])
    def test_views_hand_built_and_replaced_windows_normalize_alike(self, mode):
        split = self.split()
        scales = median_abs_scales(split)
        # two buffers per series: the train and the validation region
        windows = split.train_windows(12, 4) + split.val_windows(12, 4)
        variants = {"views": windows,
                    "hand-built": [plain_copy(w) for w in windows],
                    "replaced": [replace(w, t_start=w.t_start) for w in windows]}
        for name, ws in variants.items():
            normalized, _ = normalize(ws, mode, scales)
            for w, n in zip(windows, normalized):
                s = scales[w.series_id] if mode == "per-series-median" else 1.0
                assert n.input.tobytes() == (w.input / s).tobytes(), name
                assert n.target.tobytes() == (w.target / s).tobytes(), name
                assert (n.series_id, n.t_start, n.scale, n.offset) == \
                    (w.series_id, w.t_start, s, 0.0), name

    def test_replaced_input_is_the_one_normalized(self):
        windows = make_windows(np.arange(1.0, 60.0), 6, 3, series_id="c")
        moved = replace(windows[0], input=windows[5].input)
        (n,), _ = normalize([moved], "per-series-median", {"c": 4.0})
        assert n.input.tobytes() == (windows[5].input / 4.0).tobytes()
        assert n.target.tobytes() == (windows[0].target / 4.0).tobytes()

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w))])
    def test_a_copy_normalizes_its_own_arrays(self, clone):
        w = clone(make_windows(np.arange(10.0), 3, 2, series_id="c")[0])
        w.input[:] = 8.0
        (n,), _ = normalize([w], "per-series-median", {"c": 2.0})
        np.testing.assert_array_equal(n.input, [4.0, 4.0, 4.0])

    def test_training_on_views_equals_training_on_plain_copies(self):
        split = split_tail(dataset(length=150, ids=("a", "b")), 20, 20)
        tn = prepared_windows(split, "train", 12, 4, "per-series-median")
        vn = prepared_windows(split, "val", 12, 4, "per-series-median")
        template = BlockConfig(basis="midas", input_size=12, horizon=4, mlp_widths=(8,))
        config = ModelConfig(stacks=(StackConfig(2, template),), input_size=12, horizon=4,
                             base_ratio=0.5)

        def run(train_w, val_w):
            model = build_model(config, 4)
            result = train(model, train_w, val_w,
                           TrainConfig(iterations=40, batch_size=16, eval_every=10, seed=3))
            rows = [(h.iteration, repr(h.train_loss), repr(h.val_mae)) for h in result.history]
            return rows, {name: p.value.tobytes() for name, p in model.params.items()}

        assert run(tn, vn) == run([plain_copy(w) for w in tn], [plain_copy(w) for w in vn])


class TestWindowMemory:
    def test_prepared_windows_hold_no_per_window_copies(self):
        """At the paper's horizon the train part is 12,164 windows of 2,160 points:
        a copy per window is ~200 MiB, the series themselves 219 KiB. What may grow
        per window is the list of window objects (~0.5 KiB each, two lists alive)."""
        rng = np.random.default_rng(0)
        ds = TimeSeriesDataset(series=[Series(id=f"s{k}", values=rng.normal(size=7000))
                                       for k in range(4)])
        split = split_tail(ds, 720, 1080)
        series_bytes = sum(s.values.nbytes for s in ds)
        tracemalloc.start()
        try:
            windows = prepared_windows(split, "train", 1440, 720, "per-series-median")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(windows) == 12164
        assert peak < 10 * series_bytes + 2048 * len(windows)


class TestTrainingMemory:
    """What ``train`` holds besides the parameters: Adam's two moments, one set of
    grads, one checkpoint copy and the step's activations, and nothing after it."""

    def test_peak_and_what_stays_after_training(self, monkeypatch):
        template = BlockConfig(basis="midas", input_size=64, horizon=8, mlp_widths=(256, 256))
        cfg = ModelConfig(stacks=(StackConfig(3, template),), input_size=64, horizon=8,
                          base_ratio=0.5)
        model = build_model(cfg, 0)
        values = np.sin(np.arange(400) / 5.0) + 2.0
        windows_train = make_windows(values[:300], 64, 8)
        windows_val = make_windows(values[300:], 64, 8, stride=8)
        param_bytes = sum(p.value.nbytes for p in model.params.params())
        # the evals at iterations 2 and 6 improve, so the checkpoint is taken twice
        scripted = iter([1.0, 2.0, 0.5])
        val_mae = training._val_mae

        def scripted_val_mae(*args):
            val_mae(*args)
            return next(scripted)

        monkeypatch.setattr(training, "_val_mae", scripted_val_mae)
        config = TrainConfig(iterations=6, batch_size=4, eval_every=2, seed=0)
        tracemalloc.start()
        try:
            result = train(model, windows_train, windows_val, config)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [h.iteration for h in result.history] == [2, 4, 6]
        assert result.best_iteration == 6
        assert peak < 4.8 * param_bytes
        assert after < 0.1 * param_bytes
        assert all(p.grad is None for p in model.params.params())

    def test_checkpoint_restores_the_best_parameters(self, monkeypatch):
        model = LinearModel(input_size=2, horizon=1, seed=6)
        windows = [Window(series_id="r", input=np.array([x, 1.0]), target=np.array([3 * x]),
                          t_start=0) for x in np.linspace(-1, 1, 16)]
        seen = []
        scripted = iter([2.0, 1.0, 3.0, 4.0])

        def scripted_val_mae(m, *args):
            seen.append(m.params["w"].value.copy())
            return next(scripted)

        monkeypatch.setattr(training, "_val_mae", scripted_val_mae)
        result = train(model, windows, windows[:4],
                       TrainConfig(iterations=8, batch_size=4, eval_every=2, lr=0.1))
        assert result.best_iteration == 4
        assert model.params["w"].value.tobytes() == seen[1].tobytes()
        assert not np.array_equal(seen[1], seen[3])


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not has_mallopt(), reason="libc has no mallopt")
class TestSteadyStateFaults:
    """Once warm, a step or a batch forecast reuses the heap pages it freed: without
    the malloc settings a 512x3 step faults ~4,400 pages in again."""

    MAX_FAULTS = 200  # over all measured calls together

    def model(self, seed):
        template = BlockConfig(basis="midas", input_size=288, horizon=96,
                               mlp_widths=(512, 512))
        cfg = ModelConfig(stacks=(StackConfig(3, template),), input_size=288, horizon=96,
                          base_ratio=0.5)
        return build_model(cfg, seed)

    def test_training_steps(self):
        model = self.model(0)
        rng = np.random.default_rng(0)
        xb, yb = rng.normal(size=(128, 288)), rng.normal(size=(128, 96))
        state = OptimizerState.for_store(model.params)

        def step():
            tape = engine.GradientTape()
            model.params.zero_grad()
            objective = engine.loss(yb, model.forward_batch(xb, tape)[0], "mae", tape)
            tape.backward(objective)
            adam_step(model.params, state)

        for _ in range(3):
            step()
        before = minor_faults()
        for _ in range(5):
            step()
        assert minor_faults() - before <= self.MAX_FAULTS

    def test_batch_forecast(self):
        members = [self.model(seed) for seed in (1, 2)]
        x = np.random.default_rng(3).normal(size=(865, 288))
        for _ in range(2):
            ensemble_forecast_batch(members, x)
        before = minor_faults()
        for _ in range(3):
            ensemble_forecast_batch(members, x)
        assert minor_faults() - before <= self.MAX_FAULTS


class TestNormalize:
    def windows(self):
        return make_windows(np.arange(1.0, 40.0), 6, 3)

    def test_none_is_identity(self):
        normalized, inverse = normalize(self.windows(), "none")
        for w, n in zip(self.windows(), normalized):
            np.testing.assert_array_equal(w.input, n.input)
        restored = inverse(normalized)
        for w, r in zip(self.windows(), restored):
            np.testing.assert_array_equal(w.target, r.target)

    def test_constant_series_becomes_ones(self):
        windows = make_windows(np.full(20, 7.0), 4, 2, series_id="c")
        normalized, _ = normalize(windows, "per-series-median", {"c": 7.0})
        np.testing.assert_array_equal(normalized[0].input, np.ones(4))

    def test_roundtrip_tolerance(self):
        for mode in ("none", "per-series-median", "per-window-last"):
            original = self.windows()
            normalized, inverse = normalize(original, mode, {"series": 7.0})
            restored = inverse(normalized)
            for w, r in zip(original, restored):
                assert np.max(np.abs(w.input - r.input)) < 1e-12
                assert np.max(np.abs(w.target - r.target)) < 1e-12

    def test_per_window_last_zeroes_final_lag(self):
        normalized, _ = normalize(self.windows(), "per-window-last")
        for w in normalized:
            assert w.input[-1] == 0.0

    def test_median_scales_fall_back_to_one(self):
        ds = TimeSeriesDataset(series=[Series(id="z", values=np.zeros(30))])
        split = split_tail(ds, 5, 5)
        assert median_abs_scales(split) == {"z": 1.0}

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            normalize(self.windows(), "zscore")

    def test_per_series_median_needs_scales(self):
        with pytest.raises(ConfigError, match="scales"):
            normalize(self.windows(), "per-series-median")


class TestTrainLoop:
    def regression_windows(self, slope=2.0, n=64, seed=0):
        rng = np.random.default_rng(seed)
        windows = []
        for i in range(n):
            x = rng.uniform(-2, 2)
            windows.append(Window(series_id="r", input=np.array([x]),
                                  target=np.array([slope * x]), t_start=i))
        return windows

    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(iterations=0)

    def test_single_iteration_takes_one_step(self):
        model = LinearModel(seed=1)
        before = model.params["w"].value.copy()
        windows = self.regression_windows()
        result = train(model, windows, windows[:8],
                       TrainConfig(iterations=1, batch_size=8, eval_every=1))
        assert len(result.history) == 1
        assert result.history[0].iteration == 1
        assert not np.array_equal(model.params["w"].value, before) or \
            result.best_iteration == 0

    def test_linear_regression_converges_to_slope(self):
        model = LinearModel(seed=3)
        windows = self.regression_windows(slope=2.0)
        train(model, windows, windows[:16],
              TrainConfig(iterations=1500, batch_size=16, lr=1e-2, eval_every=100,
                          loss_kind="mse", seed=0))
        assert abs(float(model.params["w"].value[0, 0]) - 2.0) < 1e-2

    def test_large_l1_shrinks_weights(self):
        def median_weight(lam):
            template = BlockConfig(basis="midas", input_size=12, horizon=4,
                                   mlp_widths=(8,))
            cfg = ModelConfig(stacks=(StackConfig(1, template),), input_size=12,
                              horizon=4, base_ratio=0.5)
            model = build_model(cfg, 5)
            ds = dataset(length=120)
            split = split_tail(ds, 16, 0)
            tw = split.train_windows(12, 4)
            vw = split.val_windows(12, 4)
            train(model, tw, vw, TrainConfig(iterations=300, batch_size=16,
                                             eval_every=300, l1_lambda=lam, seed=2))
            weights = np.concatenate([p.value.ravel() for p in model.params.weights()])
            return float(np.median(np.abs(weights)))

        assert median_weight(1e3) < median_weight(0.0)

    def test_checkpoint_is_best_seen_validation(self):
        model = LinearModel(seed=4)
        windows = self.regression_windows()
        result = train(model, windows, windows[:16],
                       TrainConfig(iterations=400, batch_size=16, eval_every=50))
        assert result.best_val_mae <= min(h.val_mae for h in result.history)

    def test_empty_windows_rejected(self):
        model = LinearModel()
        with pytest.raises(DataError):
            train(model, [], [], TrainConfig(iterations=1))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_loss_reports_iteration(self):
        model = LinearModel(seed=0)
        model.params["w"].value[...] = 1e300
        windows = [Window(series_id="x", input=np.array([1e10]),
                          target=np.array([0.0]), t_start=0)]
        with pytest.raises(TrainingError, match="iteration 1"):
            train(model, windows, windows,
                  TrainConfig(iterations=3, batch_size=1, loss_kind="mse"))

    def test_full_pipeline_deterministic(self):
        def run():
            template = BlockConfig(basis="midas", input_size=12, horizon=4,
                                   mlp_widths=(8,))
            cfg = ModelConfig(stacks=(StackConfig(2, template),), input_size=12,
                              horizon=4, base_ratio=0.5)
            model = build_model(cfg, 9)
            ds = dataset(length=150)
            split = split_tail(ds, 20, 20)
            scales = median_abs_scales(split)
            tn, _ = normalize(split.train_windows(12, 4), "per-series-median", scales)
            vn, _ = normalize(split.val_windows(12, 4), "per-series-median", scales)
            train(model, tn, vn, TrainConfig(iterations=120, batch_size=16,
                                             eval_every=40, seed=9))
            return model.forward(tn[0].input).forecast

        assert np.array_equal(run(), run())

    def test_history_csv_format(self, tmp_path):
        model = LinearModel(seed=5)
        windows = self.regression_windows()
        result = train(model, windows, windows[:8],
                       TrainConfig(iterations=60, batch_size=8, eval_every=20))
        path = tmp_path / "history.csv"
        write_history_csv(result.history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,train_loss,val_mae"
        assert len(lines) == len(result.history) + 1
        it, loss, mae = lines[1].split(",")
        assert int(it) == 20 and float(loss) > 0 and float(mae) >= 0


class TestEnsembles:
    def setup_data(self):
        ds = dataset(length=150)
        split = split_tail(ds, 20, 20)
        scales = median_abs_scales(split)
        tn, _ = normalize(split.train_windows(12, 4), "per-series-median", scales)
        vn, _ = normalize(split.val_windows(12, 4), "per-series-median", scales)
        return tn, vn

    def model_config(self):
        template = BlockConfig(basis="midas", input_size=12, horizon=4, mlp_widths=(8,))
        return ModelConfig(stacks=(StackConfig(1, template),), input_size=12,
                           horizon=4, base_ratio=0.5)

    def train_cfg(self):
        return TrainConfig(iterations=60, batch_size=16, eval_every=20, seed=1)

    def test_default_member_count_is_four(self):
        assert EnsembleConfig().n_members == 4

    def test_single_member_equals_ensemble(self):
        tn, vn = self.setup_data()
        members = train_ensemble(self.model_config(), tn, vn, self.train_cfg(),
                                 EnsembleConfig(n_members=1))
        fc = ensemble_forecast(members, tn[0].input)
        np.testing.assert_array_equal(fc, members[0].model.forward(tn[0].input).forecast)

    def test_forced_identical_seeds_identical_members(self):
        tn, vn = self.setup_data()
        members = train_ensemble(self.model_config(), tn, vn, self.train_cfg(),
                                 EnsembleConfig(n_members=2, member_seeds=[7, 7]))
        a, b = members
        for name in a.model.params.names():
            assert np.array_equal(a.model.params[name].value, b.model.params[name].value)

    def test_elementwise_mean(self):
        class Fixed:
            def __init__(self, fc):
                self.fc = np.array(fc)
                self.input_size, self.horizon = 2, 2

            def forward_batch(self, x, tape=None, collect=False):
                return self.fc.copy(), [], []

        fc = ensemble_forecast([Fixed([0.0, 2.0]), Fixed([2.0, 4.0])], np.zeros(2))
        np.testing.assert_array_equal(fc, [1.0, 3.0])

    def test_mean_of_copies_is_idempotent(self):
        tn, vn = self.setup_data()
        members = train_ensemble(self.model_config(), tn, vn, self.train_cfg(),
                                 EnsembleConfig(n_members=1))
        single = ensemble_forecast(members, tn[0].input)
        tripled = ensemble_forecast(members * 3, tn[0].input)
        np.testing.assert_allclose(tripled, single, atol=1e-15)

    def test_matches_bruteforce_mean_exactly(self):
        tn, vn = self.setup_data()
        members = train_ensemble(self.model_config(), tn, vn, self.train_cfg(),
                                 EnsembleConfig(n_members=3))
        fc = ensemble_forecast(members, tn[0].input)
        acc = members[0].model.forward(tn[0].input).forecast.copy()
        for m in members[1:]:
            acc = acc + m.model.forward(tn[0].input).forecast
        assert np.array_equal(fc, acc / 3)

    def test_parallel_training_matches_serial(self):
        tn, vn = self.setup_data()
        serial = train_ensemble(self.model_config(), tn, vn, self.train_cfg(),
                                EnsembleConfig(n_members=2), jobs=1)
        parallel = train_ensemble(self.model_config(), tn, vn, self.train_cfg(),
                                  EnsembleConfig(n_members=2), jobs=2)
        for a, b in zip(serial, parallel):
            for name in a.model.params.names():
                assert np.array_equal(a.model.params[name].value,
                                      b.model.params[name].value)

    def test_member_failure_is_wrapped_with_its_seed(self, monkeypatch):
        tn, vn = self.setup_data()
        cause = RuntimeError("boom")

        def fail(*args):
            raise cause

        monkeypatch.setattr(training, "train", fail)
        with pytest.raises(TrainingError,
                           match=r"^ensemble member \(seed=7\) failed: boom$") as info:
            train_ensemble(self.model_config(), tn, vn, self.train_cfg(),
                           EnsembleConfig(n_members=1, member_seeds=[7]))
        assert info.value.__cause__ is cause

    @pytest.mark.parametrize("error", [ConfigError("bad key"), DataError("bad data")])
    def test_member_config_and_data_errors_pass_through(self, monkeypatch, error):
        tn, vn = self.setup_data()

        def fail(*args):
            raise error

        monkeypatch.setattr(training, "train", fail)
        with pytest.raises(type(error)) as info:
            train_ensemble(self.model_config(), tn, vn, self.train_cfg(),
                           EnsembleConfig(n_members=2), jobs=2)
        assert info.value is error

    def test_parallel_training_without_openblas_cap_matches(self, monkeypatch):
        tn, vn = self.setup_data()
        capped = train_ensemble(self.model_config(), tn, vn, self.train_cfg(),
                                EnsembleConfig(n_members=2), jobs=2)
        monkeypatch.setattr(training, "_openblas_thread_controls", lambda: [])
        uncapped = train_ensemble(self.model_config(), tn, vn, self.train_cfg(),
                                  EnsembleConfig(n_members=2), jobs=2)
        for a, b in zip(capped, uncapped):
            for name in a.model.params.names():
                assert np.array_equal(a.model.params[name].value,
                                      b.model.params[name].value)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_member_failure_names_seed(self):
        tn, vn = self.setup_data()
        bad_cfg = TrainConfig(iterations=60, batch_size=16, eval_every=20, seed=1,
                              lr=1e280)
        with pytest.raises(TrainingError, match="seed=1"):
            train_ensemble(self.model_config(), tn, vn, bad_cfg,
                           EnsembleConfig(n_members=2))

    def test_batch_forecast_checks_members(self):
        x = np.zeros((3, 12))
        with pytest.raises(ConfigError, match="at least one member"):
            ensemble_forecast_batch([], x)
        template = BlockConfig(basis="midas", input_size=12, horizon=8, mlp_widths=(8,))
        longer = ModelConfig(stacks=(StackConfig(1, template),), input_size=12,
                             horizon=8, base_ratio=0.5)
        members = [build_model(self.model_config(), 0), build_model(longer, 0)]
        with pytest.raises(ConfigError, match="disagree"):
            ensemble_forecast_batch(members, x)

    def test_batch_rows_match_single_windows_at_long_horizon(self):
        # Single windows interpolate by a two-tap gather. Batches of any row
        # count (4 here) multiply by the band of the matrix through BLAS. The
        # gather rounds differently, within 1e-12.
        template = BlockConfig(basis="midas", input_size=1440, horizon=720, mlp_widths=(16, 16))
        config = ModelConfig(stacks=(StackConfig(3, template),), input_size=1440,
                             horizon=720, base_ratio=0.5)
        members = [build_model(config, seed) for seed in (0, 1)]
        t = np.arange(1440 + 4)
        x = np.stack([np.sin(2 * np.pi * t[i:i + 1440] / 144) for i in range(4)])
        batch = ensemble_forecast_batch(members, x)
        singles = np.stack([ensemble_forecast(members, row) for row in x])
        assert np.max(np.abs(batch - singles)) <= 1e-12 * np.max(np.abs(singles))

    def test_training_and_serving_never_build_the_dense_interpolation_matrix(self, monkeypatch):
        # H = 128 is two chunks of the band, and L = 256 pools to a 128-step
        # backcast: every interpolation, forward and backward, at every batch
        # size (mini-batches, the trailing row, validation) takes the band.
        template = BlockConfig(basis="midas", input_size=256, horizon=128, mlp_widths=(16,))
        config = ModelConfig(stacks=(StackConfig(2, template),), input_size=256,
                             horizon=128, base_ratio=0.5)
        ds = dataset(length=1400, period=48)
        split = split_tail(ds, val_len=128 + 256, test_len=128 + 256)
        tw = prepared_windows(split, "train", 256, 128, "per-series-median")
        vw = prepared_windows(split, "val", 256, 128, "per-series-median")

        def forbidden(*args):
            raise AssertionError("the dense interpolation matrix was built")

        monkeypatch.setattr(engine, "interpolation_matrix", forbidden)
        engine.interpolation_band.cache_clear()
        model = build_model(config, 0)
        train(model, tw, vw, TrainConfig(iterations=4, batch_size=len(tw) - 1, eval_every=2))
        x = np.stack([w.input for w in vw[:3]])
        batch = ensemble_forecast_batch([model], x)
        single = ensemble_forecast([model], x[0])
        assert batch.shape == (3, 128) and single.shape == (128,)

    def test_shape_disagreement_rejected(self):
        tn, vn = self.setup_data()
        members = train_ensemble(self.model_config(), tn, vn, self.train_cfg(),
                                 EnsembleConfig(n_members=1))
        other = LinearModel(input_size=3, horizon=4)
        with pytest.raises(ConfigError):
            ensemble_forecast([members[0].model, other], tn[0].input)
