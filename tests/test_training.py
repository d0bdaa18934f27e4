"""Windowing, splits, normalization, the training loop and ensembles."""

import os

import numpy as np
import pytest

from dmidas.blocks import BlockConfig
from dmidas.data import Series, Sinusoid, SyntheticSpec, TimeSeriesDataset, generate_synthetic
from dmidas.engine import affine
from dmidas.errors import ConfigError, DataError, TrainingError
from dmidas.model import ModelConfig, StackConfig, build_model
from dmidas import training
from dmidas.params import ParameterStore
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
                v = ds.get(w.series_id).values
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


class TestBlasThreadCap:
    """While workers run, OpenBLAS gets the cores each worker owns."""

    @pytest.fixture
    def blas(self):
        """The getter ``parallel_map`` reads, with the count set to every usable core."""
        controls = training._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS loaded in this process")
        get, set_ = controls[0]
        original = get()
        set_(USABLE_CPUS)
        yield get
        set_(original)

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
            normalized, inverse = normalize(original, mode)
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

            def forward(self, y_in):
                from dmidas.model import ForecastBundle
                return ForecastBundle(forecast=self.fc.copy(), components=[],
                                      residual_trace=[], block_labels=[])

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
        # Single windows interpolate by a two-tap gather, batches by the dense
        # matrix through BLAS: the two round differently, within 1e-12.
        template = BlockConfig(basis="midas", input_size=1440, horizon=720, mlp_widths=(16, 16))
        config = ModelConfig(stacks=(StackConfig(3, template),), input_size=1440,
                             horizon=720, base_ratio=0.5)
        members = [build_model(config, seed) for seed in (0, 1)]
        t = np.arange(1440 + 4)
        x = np.stack([np.sin(2 * np.pi * t[i:i + 1440] / 144) for i in range(4)])
        batch = ensemble_forecast_batch(members, x)
        singles = np.stack([ensemble_forecast(members, row) for row in x])
        assert np.max(np.abs(batch - singles)) <= 1e-12 * np.max(np.abs(singles))

    def test_shape_disagreement_rejected(self):
        tn, vn = self.setup_data()
        members = train_ensemble(self.model_config(), tn, vn, self.train_cfg(),
                                 EnsembleConfig(n_members=1))
        other = LinearModel(input_size=3, horizon=4)
        with pytest.raises(ConfigError):
            ensemble_forecast([members[0].model, other], tn[0].input)
