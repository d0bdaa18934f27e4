"""Synthetic generation, CSV ingestion and result export."""

import json
import math

import numpy as np
import pytest

from dmidas.data import (CsvSchema, GaussianNoise, LinearTrend, Series, Sinusoid,
                         SyntheticSpec, TimeSeriesDataset, export_results,
                         gaussian_noise, generate_synthetic, load_csv,
                         load_decomposition_csv, multifreq_v1, save_dataset_csv)
from dmidas.errors import ConfigError, DataError, NumericsError
from dmidas.model import ForecastBundle


class TestDatasetInvariants:
    def test_duplicate_ids_rejected(self):
        s = Series(id="a", values=np.ones(3))
        with pytest.raises(DataError, match="duplicate"):
            TimeSeriesDataset(series=[s, Series(id="a", values=np.ones(2))])

    def test_empty_series_rejected(self):
        with pytest.raises(DataError):
            Series(id="a", values=np.array([]))

    def test_nonfinite_values_rejected(self):
        with pytest.raises(DataError):
            Series(id="a", values=np.array([1.0, np.inf]))


class TestSyntheticGeneration:
    def test_pure_sinusoid_matches_closed_form(self):
        spec = SyntheticSpec(length=100, components=(Sinusoid(period=24, amplitude=3.0,
                                                              phase=0.5),), seed=9)
        values = generate_synthetic(spec).series[0].values
        t = np.arange(100)
        expected = 3.0 * np.sin(2 * np.pi * t / 24 + 0.5)
        assert np.max(np.abs(values - expected)) < 1e-12

    def test_trend_only(self):
        spec = SyntheticSpec(length=5, components=(LinearTrend(slope=1.0),))
        np.testing.assert_array_equal(generate_synthetic(spec).series[0].values,
                                      [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_same_spec_and_seed_identical(self):
        spec = SyntheticSpec(length=64, components=(GaussianNoise(sigma=1.0),), seed=4)
        a = generate_synthetic(spec).series[0].values
        b = generate_synthetic(spec).series[0].values
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        base = SyntheticSpec(length=64, components=(GaussianNoise(sigma=1.0),), seed=4)
        other = SyntheticSpec(length=64, components=(GaussianNoise(sigma=1.0),), seed=5)
        assert not np.array_equal(generate_synthetic(base).series[0].values,
                                  generate_synthetic(other).series[0].values)

    def test_multifreq_preset_shape(self):
        ds = generate_synthetic(multifreq_v1())
        assert ds.name == "multifreq-v1"
        assert len(ds.series[0].values) == 4000

    def test_counterbased_noise_moments(self):
        z = gaussian_noise(seed=0, n=20000)
        assert abs(float(np.mean(z))) < 0.03
        assert abs(float(np.std(z)) - 1.0) < 0.03

    def test_noise_streams_independent(self):
        a = gaussian_noise(seed=0, n=32, stream=0)
        b = gaussian_noise(seed=0, n=32, stream=1)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("n", [0, 1, 7, 4000])
    @pytest.mark.parametrize("stream", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_noise_matches_per_draw_loop_bit_for_bit(self, seed, stream, n):
        got = gaussian_noise(seed=seed, n=n, stream=stream)
        want = noise_loop_reference(seed, n, stream)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == want.tobytes()


def noise_loop_reference(seed, n, stream):
    """gaussian_noise as its documented algorithm, one draw at a time in Python ints."""
    m64, golden = (1 << 64) - 1, 0x9E3779B97F4A7C15

    def mix(x):
        x &= m64
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & m64
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & m64
        return x ^ (x >> 31)

    def unit(x):
        return ((x >> 11) + 1) * (2.0 ** -53)

    base = mix((seed + stream * golden) & m64)
    out = np.empty(n, dtype=np.float64)
    for t in range(n):
        u1 = unit(mix((base + (2 * t + 1) * golden) & m64))
        u2 = unit(mix((base + (2 * t + 2) * golden) & m64))
        out[t] = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return out


class TestCsvLoading:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_two_rows_one_series(self, tmp_path):
        path = self.write(tmp_path, "id,time,value\na,0,1.5\na,1,2.5\n")
        ds = load_csv(path)
        assert ds.ids() == ["a"]
        np.testing.assert_array_equal(ds.series[0].values, [1.5, 2.5])

    def test_interleaved_ids_stay_in_temporal_order(self, tmp_path):
        path = self.write(tmp_path,
                          "id,time,value\na,0,1\nb,0,10\na,1,2\nb,1,20\na,2,3\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.get("a").values, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ds.get("b").values, [10.0, 20.0])

    def test_time_column_sorts_numerically(self, tmp_path):
        path = self.write(tmp_path, "id,time,value\na,10,3\na,2,1\na,5,2\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.get("a").values, [1.0, 2.0, 3.0])

    def test_nan_time_is_rejected_with_its_line(self, tmp_path):
        path = self.write(tmp_path, "id,time,value\na,2,20\na,nan,99\na,1,10\na,0,0\n")
        with pytest.raises(DataError, match=r"^line 3: non-finite time 'nan'$"):
            load_csv(path)

    def test_infinite_times_sort_numerically(self, tmp_path):
        path = self.write(tmp_path, "id,time,value\na,inf,3\na,-inf,1\na,0,2\n")
        np.testing.assert_array_equal(load_csv(path).get("a").values, [1.0, 2.0, 3.0])

    def test_text_times_sort_as_text(self, tmp_path):
        path = self.write(tmp_path, "id,time,value\na,2024-01-03,3\na,2024-01-01,1\n"
                                    "a,2024-01-02,2\nb,10,2\nb,9,1\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.get("a").values, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ds.get("b").values, [1.0, 2.0])

    def test_unparseable_value_cites_line(self, tmp_path):
        rows = "id,time,value\n" + "".join(f"a,{t},{t}\n" for t in range(5))
        rows += "a,5,abc\n"  # line 7 of the file
        path = self.write(tmp_path, rows)
        with pytest.raises(DataError, match="line 7"):
            load_csv(path)

    def test_duplicate_id_time_rejected(self, tmp_path):
        path = self.write(tmp_path, "id,time,value\na,0,1\na,0,2\n")
        with pytest.raises(DataError, match="duplicate"):
            load_csv(path)

    def test_missing_value_column(self, tmp_path):
        path = self.write(tmp_path, "id,time,price\na,0,1\n")
        with pytest.raises(DataError, match="value"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "nope.csv")

    def test_no_time_column_uses_row_order(self, tmp_path):
        path = self.write(tmp_path, "id,value\na,3\na,1\na,2\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.get("a").values, [3.0, 1.0, 2.0])

    def test_custom_schema(self, tmp_path):
        path = self.write(tmp_path, "series;price\nx;1.25\nx;2.5\n")
        ds = load_csv(path, CsvSchema(id_column="series", value_column="price",
                                      time_column=None, delimiter=";"))
        np.testing.assert_array_equal(ds.get("x").values, [1.25, 2.5])

    def test_save_load_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        original = TimeSeriesDataset(series=[
            Series(id="a", values=rng.normal(size=50) * 1e6),
            Series(id="b", values=rng.normal(size=20) * 1e-9),
        ])
        path = tmp_path / "round.csv"
        save_dataset_csv(original, path)
        loaded = load_csv(path)
        for s in original:
            assert np.array_equal(loaded.get(s.id).values, s.values)

    def test_double_roundtrip_is_exact(self, tmp_path):
        ds = generate_synthetic(multifreq_v1())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset_csv(ds, p1)
        once = load_csv(p1)
        save_dataset_csv(once, p2)
        twice = load_csv(p2)
        assert np.array_equal(once.series[0].values, twice.series[0].values)


class TestExport:
    def bundle(self):
        comps = [np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.5, 0.5, 0.5, 0.5])]
        return ForecastBundle(forecast=comps[0] + comps[1], components=comps,
                              residual_trace=[], block_labels=["b0", "b1"])

    def test_decomposition_csv_shape(self, tmp_path):
        path = tmp_path / "dec.csv"
        export_results(self.bundle(), path, "csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,forecast,component_1,component_2"
        assert len(lines) == 5

    def test_decomposition_roundtrip_additivity(self, tmp_path):
        path = tmp_path / "dec.csv"
        export_results(self.bundle(), path, "csv")
        forecast, comps = load_decomposition_csv(path)
        assert np.max(np.abs(np.sum(comps, axis=0) - forecast)) < 1e-9

    def test_metrics_json_shape(self, tmp_path):
        from dmidas.metrics import MetricEntry, MetricsReport

        report = MetricsReport(entries=[
            MetricEntry("ds", 4, "m1", 1.0, 2.0),
            MetricEntry("ds", 4, "m2", 1.5, 2.5),
        ])
        path = tmp_path / "metrics.json"
        export_results(report, path, "json")
        payload = json.loads(path.read_text())
        leaves = payload["ds"]["4"]
        assert set(leaves) == {"m1", "m2"}
        assert leaves["m1"] == {"mae": 1.0, "rmse": 2.0}

    def test_non_finite_metric_is_not_written(self, tmp_path):
        from dmidas.metrics import MetricEntry, MetricsReport

        report = MetricsReport(entries=[MetricEntry("ds", 4, "m1", float("nan"), 2.0)])
        path = tmp_path / "metrics.json"
        with pytest.raises(NumericsError, match="metrics.json"):
            export_results(report, path, "json")
        assert not path.exists()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            export_results(self.bundle(), tmp_path / "x", "xml")

    def test_unwritable_path_is_io_error(self, tmp_path):
        with pytest.raises(DataError):
            export_results(self.bundle(), tmp_path / "no" / "dir" / "x.csv", "csv")
