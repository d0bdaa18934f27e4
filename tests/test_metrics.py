"""Metric oracles, the naive baseline and the benchmark harness."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmidas.data import LinearTrend, Series, Sinusoid, SyntheticSpec, TimeSeriesDataset, generate_synthetic
from dmidas.errors import ConfigError, DataError, ShapeError
from dmidas.metrics import (BenchmarkProtocol, MetricEntry, MetricsReport, ModelSpec,
                            mae, relative_improvement, render_table, rmse,
                            run_benchmark, score_windows, seasonal_naive_forecast)
from dmidas.training import EnsembleConfig, TrainConfig, split_tail

vectors = st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=32)


class TestMae:
    def test_perfect(self):
        assert mae(np.ones(4), np.ones(4)) == 0.0

    def test_hand_value(self):
        assert mae([0.0, 0.0], [3.0, 4.0]) == 3.5

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(0)
        y, yhat = rng.normal(size=(2, 16))
        perm = rng.permutation(16)
        assert mae(y, yhat) == pytest.approx(mae(y[perm], yhat[perm]), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mae(np.ones(3), np.ones(4))


class TestRmse:
    def test_perfect(self):
        assert rmse(np.ones(4), np.ones(4)) == 0.0

    def test_hand_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            rmse(np.ones(3), np.ones(4))

    @settings(deadline=None, max_examples=100)
    @given(vectors, st.data())
    def test_rmse_at_least_mae_and_mean_error(self, y, data):
        yhat = data.draw(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                                  min_size=len(y), max_size=len(y)))
        r = rmse(y, yhat)
        assert r >= mae(y, yhat) - 1e-9
        assert r >= abs(float(np.mean(np.asarray(y) - np.asarray(yhat)))) - 1e-9

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        y, yhat = rng.normal(size=(2, 12))
        for c in (-5.0, 3.25):
            assert mae(y + c, yhat + c) == pytest.approx(mae(y, yhat), abs=1e-12)
            assert rmse(y + c, yhat + c) == pytest.approx(rmse(y, yhat), abs=1e-12)


class TestSeasonalNaive:
    def test_period_one_repeats_last(self):
        np.testing.assert_array_equal(
            seasonal_naive_forecast(np.array([1.0, 2.0, 5.0]), 4, 1),
            [5.0, 5.0, 5.0, 5.0])

    def test_hand_example(self):
        np.testing.assert_array_equal(
            seasonal_naive_forecast(np.array([1.0, 2.0, 3.0, 4.0]), 4, 2),
            [3.0, 4.0, 3.0, 4.0])

    def test_perfectly_periodic_input_scores_zero(self):
        period = 6
        values = np.tile(np.arange(period, dtype=float), 8)
        y_in, target = values[:36], values[36:42]
        yhat = seasonal_naive_forecast(y_in, 6, period)
        assert mae(target, yhat) == 0.0

    def test_period_exceeding_input(self):
        with pytest.raises(ConfigError):
            seasonal_naive_forecast(np.ones(3), 2, 5)


class TestReport:
    def entries(self):
        return [MetricEntry("ds", 8, "a", 10.0, 12.0),
                MetricEntry("ds", 8, "b", 9.0, 10.8)]

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ConfigError):
            MetricsReport(entries=self.entries() + [MetricEntry("ds", 8, "a", 1.0, 1.0)])

    def test_relative_improvement_zero_for_baseline(self):
        report = MetricsReport(entries=self.entries())
        imp = relative_improvement(report, "a")
        assert imp[("ds", 8, "a")]["mae"] == 0.0

    def test_relative_improvement_hand_value(self):
        report = MetricsReport(entries=self.entries())
        imp = relative_improvement(report, "a")
        assert imp[("ds", 8, "b")]["rmse"] == pytest.approx(10.0)
        assert imp[("ds", 8, "b")]["mae"] == pytest.approx(10.0)

    def test_missing_baseline_names_group(self):
        report = MetricsReport(entries=self.entries())
        with pytest.raises(ConfigError, match=r"\(ds, 8\)"):
            relative_improvement(report, "zzz")

    def test_render_marks_row_minimum(self):
        table = render_table(MetricsReport(entries=self.entries()))
        lines = table.splitlines()
        mae_line = next(l for l in lines if "MAE" in l)
        assert "9.0000*" in mae_line and "10.0000*" not in mae_line


class TestModelSpecs:
    def test_all_kinds_materialize_and_run(self):
        from dmidas.metrics import model_config_for
        from dmidas.model import build_any

        for kind in ("dmidas", "nbeats-g", "nbeats-i", "mlp"):
            spec = ModelSpec(kind, kind, blocks_per_stack=1, mlp_widths=(8,))
            config = model_config_for(spec, input_size=24, horizon=8)
            model = build_any(config, seed=0)
            bundle = model.forward(np.zeros(24))
            assert bundle.forecast.shape == (8,)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown model 'transformer'"):
            ModelSpec("x", "transformer")

    def test_naive_kind_has_no_trained_config(self):
        from dmidas.metrics import model_config_for

        with pytest.raises(ConfigError, match="'seasonal-naive' is not trained"):
            model_config_for(ModelSpec("n", "seasonal-naive"), 8, 4)

    def test_unknown_param_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'block_per_stack'"):
            ModelSpec("d", "dmidas", block_per_stack=1)

    @pytest.mark.parametrize("fields, message", [
        ({"stacks": 0}, "stacks must be >= 1, got 0"),
        ({"blocks_per_stack": 0}, "blocks_per_stack must be >= 1, got 0"),
        ({"poly_degree": -1}, "poly_degree must be >= 0, got -1"),
        ({"n_harmonics": 0}, "n_harmonics must be >= 1, got 0"),
        ({"input_size": 0}, "input_size must be >= 1, got 0"),
        ({"period": 0}, "period must be >= 1, got 0"),
        ({"mlp_widths": (8, 0)}, r"mlp_widths must be positive ints, got \(8, 0\)"),
        ({"mlp_widths": ()}, "mlp_widths must be positive ints"),
        ({"base_ratio": float("nan")}, r"base_ratio must lie in \(0, 1\], got nan"),
        ({"pooling_mode": "bogus"}, "unknown pooling_mode 'bogus'"),
    ])
    def test_out_of_range_field_named(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            ModelSpec("d", **{"kind": "dmidas", **fields})

    def test_defaults_materialize_the_cli_default_model(self):
        from dmidas.metrics import model_config_for

        config = model_config_for(ModelSpec("d", "dmidas"), input_size=288, horizon=96)
        assert config.total_blocks == 3 and config.base_ratio == 0.5
        assert config.stacks[0].block_template.mlp_widths == (512, 512)

    def test_two_by_two_table_shape(self):
        entries = [MetricEntry("ds", h, m, 1.0 + i, 2.0 + i)
                   for i, (h, m) in enumerate((h, m) for h in (8, 16)
                                              for m in ("a", "b"))]
        table = render_table(MetricsReport(entries=entries))
        lines = table.splitlines()
        assert sum("MAE" in l for l in lines) == 2
        assert sum("RMSE" in l for l in lines) == 2
        assert "a" in lines[0] and "b" in lines[0]


class TestRunBenchmark:
    def protocol(self, iterations=40, members=1):
        return BenchmarkProtocol(val_len=24, test_len=24,
                                 train=TrainConfig(iterations=iterations, batch_size=16,
                                                   eval_every=20),
                                 ensemble=EnsembleConfig(n_members=members))

    def data(self, length=240):
        spec = SyntheticSpec(length=length,
                             components=(Sinusoid(period=12, amplitude=3.0),),
                             seed=2, name="bench")
        return generate_synthetic(spec)

    def test_single_cell_report(self):
        specs = [ModelSpec("naive", "seasonal-naive", period=12)]
        report = run_benchmark(self.data(), specs, [6], self.protocol())
        assert len(report.entries) == 1
        assert report.entries[0].model == "naive"
        assert not report.incomplete

    def test_constant_series_naive_scores_zero(self):
        ds = TimeSeriesDataset(series=[Series(id="c", values=np.full(200, 3.0))],
                               name="const")
        specs = [ModelSpec("naive", "seasonal-naive", period=1)]
        report = run_benchmark(ds, specs, [6], self.protocol())
        assert report.entries[0].mae == 0.0
        assert report.entries[0].rmse == 0.0

    def test_equal_seeds_identical_reports(self):
        specs = [ModelSpec("dmidas", "dmidas", blocks_per_stack=1, mlp_widths=(8,)),
                 ModelSpec("naive", "seasonal-naive", period=12)]
        a = run_benchmark(self.data(), specs, [6], self.protocol(), seed=3)
        b = run_benchmark(self.data(), specs, [6], self.protocol(), seed=3)
        for ea, eb in zip(a.entries, b.entries):
            assert ea.mae == eb.mae and ea.rmse == eb.rmse

    def test_aggregation_matches_bruteforce(self):
        specs = [ModelSpec("naive", "seasonal-naive", period=12)]
        report = run_benchmark(self.data(), specs, [6], self.protocol())
        entry = report.entries[0]
        split = split_tail(self.data(), 24, 24)
        by_series = {}
        for w in split.test_windows(18, 6):  # input size defaults to 3 x horizon
            fc = seasonal_naive_forecast(w.input, 6, 12)
            by_series.setdefault(w.series_id, []).append(mae(w.target, fc))
        manual_mae = float(np.mean([np.mean(maes) for maes in by_series.values()]))
        assert entry.mae == pytest.approx(manual_mae, abs=1e-15)

    def test_no_test_windows_is_data_error(self):
        with pytest.raises(DataError, match="'naive' at horizon 6 on dataset 'bench'"):
            score_windows([], [], "bench", 6, "naive")

    @pytest.mark.parametrize("kind", ["seasonal-naive", "dmidas"])
    def test_no_test_windows_flags_the_cell(self, kind):
        specs = [ModelSpec("m", kind, period=12, blocks_per_stack=1, mlp_widths=(8,))]
        protocol = replace(self.protocol(), test_len=0)
        entry = run_benchmark(self.data(), specs, [6], protocol).entries[0]
        assert entry.mae is None and entry.rmse is None
        assert "no test windows" in entry.error

    def test_failed_cell_is_flagged_and_run_continues(self):
        specs = [ModelSpec("naive", "seasonal-naive", period=999),
                 ModelSpec("ok", "seasonal-naive", period=12)]
        report = run_benchmark(self.data(), specs, [6], self.protocol())
        assert ("bench", 6, "naive") in report.incomplete
        assert report.get("bench", 6, "ok").mae is not None

    @pytest.mark.parametrize("names, horizons, message", [
        ([], [6], r"models must be a non-empty list without repeats, got \[\]"),
        (["naive"], [], r"horizons must be a non-empty list without repeats, got \[\]"),
        (["naive", "ok", "naive"], [6], "models .* without repeats, got .'naive', 'ok', 'naive'."),
        (["naive"], [6, 6], r"horizons .* without repeats, got \[6, 6\]"),
    ])
    def test_empty_or_repeated_lists_raise(self, names, horizons, message):
        specs = [ModelSpec(name, "seasonal-naive", period=12) for name in names]
        with pytest.raises(ConfigError, match=message):
            run_benchmark(self.data(), specs, horizons, self.protocol())

    def test_shared_model_config_error_raises_before_any_cell(self, monkeypatch):
        from dmidas import metrics

        calls = []
        monkeypatch.setattr(metrics, "train_ensemble", lambda *a, **k: calls.append(a))
        specs = [ModelSpec("d", "dmidas", blocks_per_stack=2, mlp_widths=(8,),
                           ratio_schedule=(0.5,))]
        with pytest.raises(ConfigError, match="ratio_schedule lists 1 values for 2 blocks"):
            run_benchmark(self.data(), specs, [6], self.protocol())
        assert calls == []

    def test_pooling_kernel_above_one_input_flags_that_cell(self):
        specs = [ModelSpec("d", "dmidas", blocks_per_stack=1, mlp_widths=(8,),
                           pooling_schedule=24)]
        report = run_benchmark(self.data(), specs, [6, 12], self.protocol(iterations=2))
        assert "pooling kernel 24 exceeds input length 18" in report.get("bench", 6, "d").error
        assert report.get("bench", 12, "d").mae is not None

    def test_error_that_is_not_the_package_s_propagates(self, monkeypatch):
        from dmidas import metrics

        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(metrics, "seasonal_naive_forecast", boom)
        specs = [ModelSpec("naive", "seasonal-naive", period=12)]
        with pytest.raises(RuntimeError, match="boom"):
            run_benchmark(self.data(), specs, [6], self.protocol())

    def test_trained_model_beats_untrained_on_clean_sine(self):
        specs = [ModelSpec("dmidas", "dmidas", blocks_per_stack=1, mlp_widths=(16,))]
        trained = run_benchmark(self.data(length=400), specs, [6],
                                self.protocol(iterations=400), seed=4)
        untrained = run_benchmark(self.data(length=400), specs, [6],
                                  self.protocol(iterations=1), seed=4)
        assert trained.entries[0].mae < untrained.entries[0].mae

    def test_per_series_scope(self):
        spec_a = SyntheticSpec(length=240, components=(Sinusoid(period=12, amplitude=3.0),),
                               seed=5, name="a")
        spec_b = SyntheticSpec(length=240, components=(LinearTrend(slope=0.1),),
                               seed=6, name="b")
        ds = TimeSeriesDataset(series=[generate_synthetic(spec_a).series[0],
                                       generate_synthetic(spec_b).series[0]],
                               name="two")
        protocol = BenchmarkProtocol(val_len=24, test_len=24,
                                     train=TrainConfig(iterations=30, batch_size=16,
                                                       eval_every=15),
                                     ensemble=EnsembleConfig(n_members=1),
                                     scope="per-series")
        specs = [ModelSpec("dmidas", "dmidas", blocks_per_stack=1, mlp_widths=(8,))]
        report = run_benchmark(ds, specs, [6], protocol, seed=7)
        assert not report.incomplete
        assert report.entries[0].n_windows == 8

    def test_jobs_do_not_change_results(self):
        specs = [ModelSpec("dmidas", "dmidas", blocks_per_stack=1, mlp_widths=(8,)),
                 ModelSpec("naive", "seasonal-naive", period=12)]
        serial = run_benchmark(self.data(), specs, [6, 12], self.protocol(), seed=8, jobs=1)
        parallel = run_benchmark(self.data(), specs, [6, 12], self.protocol(), seed=8, jobs=3)
        for ea, eb in zip(serial.entries, parallel.entries):
            assert ea.mae == eb.mae and ea.rmse == eb.rmse
