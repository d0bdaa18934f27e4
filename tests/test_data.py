"""Synthetic generation, CSV ingestion and result export."""

import codecs
import csv
import io
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmidas import data
from dmidas.data import (CsvSchema, GaussianNoise, LinearTrend, Series, Sinusoid,
                         SyntheticSpec, TimeSeriesDataset, gaussian_noise,
                         generate_synthetic, load_csv, multifreq_v1,
                         save_dataset_csv, write_decomposition_csv,
                         write_metrics_json)
from dmidas.errors import DataError, NumericsError
from dmidas.model import ForecastBundle


def by_id(dataset):
    """Series values keyed by series id."""
    return {s.id: s.values for s in dataset}


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
        assert [s.id for s in ds] == ["a"]
        np.testing.assert_array_equal(ds.series[0].values, [1.5, 2.5])

    def test_interleaved_ids_stay_in_temporal_order(self, tmp_path):
        path = self.write(tmp_path,
                          "id,time,value\na,0,1\nb,0,10\na,1,2\nb,1,20\na,2,3\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(by_id(ds)["a"], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(by_id(ds)["b"], [10.0, 20.0])

    def test_time_column_sorts_numerically(self, tmp_path):
        path = self.write(tmp_path, "id,time,value\na,10,3\na,2,1\na,5,2\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(by_id(ds)["a"], [1.0, 2.0, 3.0])

    def test_nan_time_is_rejected_with_its_line(self, tmp_path):
        path = self.write(tmp_path, "id,time,value\na,2,20\na,nan,99\na,1,10\na,0,0\n")
        with pytest.raises(DataError, match=r"^line 3: non-finite time 'nan'$"):
            load_csv(path)

    def test_infinite_times_sort_numerically(self, tmp_path):
        path = self.write(tmp_path, "id,time,value\na,inf,3\na,-inf,1\na,0,2\n")
        np.testing.assert_array_equal(by_id(load_csv(path))["a"], [1.0, 2.0, 3.0])

    def test_text_times_sort_as_text(self, tmp_path):
        path = self.write(tmp_path, "id,time,value\na,2024-01-03,3\na,2024-01-01,1\n"
                                    "a,2024-01-02,2\nb,10,2\nb,9,1\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(by_id(ds)["a"], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(by_id(ds)["b"], [1.0, 2.0])

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

    def test_line_numbers_count_the_lines_of_a_quoted_field(self, tmp_path):
        path = self.write(tmp_path, 'id,time,value\n"a\nb",0,1\na,1,x\n')
        with pytest.raises(DataError, match=r"^line 4: unparseable value 'x'$"):
            load_csv(path)

    def test_line_numbers_count_blank_and_quoted_lines(self, tmp_path):
        path = self.write(tmp_path, 'id,time,value\n"a\nb",0,1\n\na,1\n')
        with pytest.raises(DataError, match=r"^line 5: expected 3 fields, got 2$"):
            load_csv(path)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"id,time,value\na,1,2.5\na,0,1.5\nb,0,3\n")
        with mock.patch.object(data, "_row_loop", side_effect=AssertionError("row loop ran")):
            ds = load_csv(path)
        assert [s.id for s in ds] == ["a", "b"]
        np.testing.assert_array_equal(by_id(ds)["a"], [1.5, 2.5])
        assert parse_outcome(path, CsvSchema(), True) == parse_outcome(path, CsvSchema(), False)

    def test_missing_value_column(self, tmp_path):
        path = self.write(tmp_path, "id,time,price\na,0,1\n")
        with pytest.raises(DataError, match="value"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "nope.csv")

    def test_non_utf8_file_names_file_and_line(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"id,time,value\na,0,1.0\na,1,\xff\xfe\n")
        with pytest.raises(DataError, match=r"latin\.csv' line 3: not UTF-8"):
            load_csv(path)

    def test_no_time_column_uses_row_order(self, tmp_path):
        path = self.write(tmp_path, "id,value\na,3\na,1\na,2\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(by_id(ds)["a"], [3.0, 1.0, 2.0])

    def test_custom_schema(self, tmp_path):
        path = self.write(tmp_path, "series;price\nx;1.25\nx;2.5\n")
        ds = load_csv(path, CsvSchema(id_column="series", value_column="price",
                                      time_column=None, delimiter=";"))
        np.testing.assert_array_equal(by_id(ds)["x"], [1.25, 2.5])

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
            assert np.array_equal(by_id(loaded)[s.id], s.values)

    def test_double_roundtrip_is_exact(self, tmp_path):
        ds = generate_synthetic(multifreq_v1())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset_csv(ds, p1)
        once = load_csv(p1)
        save_dataset_csv(once, p2)
        twice = load_csv(p2)
        assert np.array_equal(once.series[0].values, twice.series[0].values)

    def test_field_over_the_csv_limit_names_file_and_line(self, tmp_path):
        path = self.write(tmp_path, "id,time,value\na,0,1\n" + "x" * 200_000 + ",1,2\n",
                          name="wide.csv")
        with pytest.raises(DataError, match=r"wide\.csv' line 3: field larger than field limit"):
            load_csv(path)

    def test_multi_series_roundtrip_takes_the_column_pass(self, tmp_path):
        rng = np.random.default_rng(21)
        original = TimeSeriesDataset(series=[Series(id=f"s{k}", values=rng.normal(size=40 + k))
                                             for k in range(3)])
        path = tmp_path / "round.csv"
        save_dataset_csv(original, path)
        with mock.patch.object(data, "_row_loop", side_effect=AssertionError("row loop ran")):
            loaded = load_csv(path)
        assert [s.id for s in loaded] == [s.id for s in original]
        for s in original:
            assert by_id(loaded)[s.id].tobytes() == s.values.tobytes()


def parse_outcome(path, schema, row_loop_only):
    """What load_csv gives: ids with value bits, or the DataError message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if row_loop_only:
                with mock.patch.object(data, "_column_pass", return_value=None):
                    ds = load_csv(path, schema)
            else:
                ds = load_csv(path, schema)
        except DataError as exc:
            outcome = "error", str(exc)
        else:
            outcome = "ok", [(s.id, s.values.tobytes()) for s in ds]
    assert [str(w.message) for w in caught] == []
    return outcome


def assert_same_as_row_loop(path, schema=CsvSchema()):
    assert parse_outcome(path, schema, False) == parse_outcome(path, schema, True)


HEADER = "id,time,value\n"

# Spellings float() takes; the column pass must decline the last four.
SPELLINGS = ["0", "-0", "+0.0", "1.", ".5", " 1e3", "1e3 ", "1E-2", "inf", "-inf", "Infinity",
             "1e999", "\x852", "nan", "1_0", "\u0661", "\u0660.5"]


@st.composite
def csv_texts(draw):
    """A multi-series CSV with numbers in spellings float() takes, rows in any order."""
    number = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.floats(-1e6, 1e6).map(lambda v: f"{v:.6e}"),
                       st.integers(-10 ** 6, 10 ** 6).map(str),
                       st.sampled_from(SPELLINGS))
    rows = draw(st.lists(st.tuples(st.sampled_from(["a", "b", " a", "b ", "c1", "\x85d"]),
                                   number, number), max_size=25))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(["id,time,value"] + [",".join(r) for r in rows]) + newline

EDGE_TEXTS = {
    "crlf": "id,time,value\r\na,1,2\r\na,0,1\r\nb,0,3\r\n",
    "lone_cr": "id,time,value\ra,1,2\ra,0,1\r",
    "cr_inside_a_line": HEADER + "a,0,1\rb,0,2\n",
    "cr_ending_the_header": "id,time,value\ra,0,1\nb,0,2\n",
    "extra_trailing_field": HEADER + "a,0,1,x\na,1,2\n",
    "short_row": HEADER + "a,0,1\na,1\n",
    "blank_line": HEADER + "a,0,1\n\na,1,2\n",
    "only_blank_lines": HEADER + "\n\n",
    "whitespace_only_line": HEADER + "a,0,1\n   \na,1,2\n",
    "empty_fields_line": HEADER + "a,0,1\n,,\na,1,2\n",
    "padded_id_beside_plain": HEADER + " a ,0,1\na,1,2\n",
    "ids_padded_alike": HEADER + " a,0,1\nb,0,5\n a,1,2\n",
    "one_and_one_point_zero": HEADER + "a,1,1\na,1.0,2\na,0,3\n",
    "duplicate_time_text": HEADER + "a,0,1\na,0,2\n",
    "minus_zero_and_zero_times": HEADER + "a,-0,1\na,0,2\n",
    "infinite_times": HEADER + "a,inf,3\na,-inf,1\na,0,2\n",
    "nan_time": HEADER + "a,1,1\na,nan,2\n",
    "nan_value": HEADER + "a,0,nan\n",
    "infinite_value": HEADER + "a,0,1e999\n",
    "nul_in_id": HEADER + "a\x00,0,1\na,1,2\n",
    "nul_in_value": HEADER + "a,0,1\x00\n",
    "next_line_char": HEADER + "a\x85,0,1\na,1,\x852\n",
    "form_feed": HEADER + "a,0,1\x0c\nb\x0c,0,2\n",
    "space_before_exponent_value": HEADER + "a,0, 1e3\na,1,2 \n",
    "underscore_digits": HEADER + "a,0,1_0\na,1_1,2\n",
    "arabic_digits": HEADER + "a,0,\u0661\na,\u0662,2\n",
    "minus_zero_value": HEADER + "a,0,-0\na,1,+0.0\n",
    "spelled_floats": HEADER + "a,1.,infinity\n",
    "spelled_finite": HEADER + "a,.5,1.\na,+2,-.25\na,1E1,3e-2\n",
    "hex_value": HEADER + "a,0,0x10\n",
    "text_times": HEADER + "a,2024-01-02,2\na,2024-01-01,1\nb,1,1\n",
    "comment_char": HEADER + "#a,0,1\n#a,1,2\n",
    "header_only": HEADER,
    "empty_file": "",
    "long_id": HEADER + "a" * 300 + ",0,1\nb,0,2\n",
    "many_series_interleaved": HEADER + "".join(f"s{k % 3},{9 - k},{k}\n" for k in range(10)),
    "quoted_id": 'id,time,value\n"a",1,2\nb,0,1\n',
    "quoted_id_holding_delimiter": 'id,time,value\n"a,b",1,2\n"a,b",0,1\n',
    "quoted_last_id_holding_delimiter": 'value,id\n1,"a,b"\n2,a\n',
    "quoted_value": 'id,time,value\na,0,"1.5"\n',
    "time_last_in_header": "value,id,time\n1,a,1\n2,a,0\n",
    "byte_order_mark": "\ufeff" + HEADER + "a,1,2\na,0,1\n",
}


class TestColumnPassMatchesRowLoop:
    @pytest.mark.parametrize("name", sorted(EDGE_TEXTS))
    def test_edge_text(self, tmp_path, name):
        path = tmp_path / "edge.csv"
        path.write_bytes(EDGE_TEXTS[name].encode("utf-8"))
        assert_same_as_row_loop(path)

    @pytest.mark.parametrize("text, schema", [
        ("id;time;value\na;1;1.5\nb;0;2\na;0;3\n", CsvSchema(delimiter=";")),
        ("id\ttime\tvalue\na\t1\t1.5\na\t0\t 2\n", CsvSchema(delimiter="\t")),
        ("id time value\na 1 1.5\na 0 2\n", CsvSchema(delimiter=" ")),
        ("id,value\na,3\nb,1\na,2\n", CsvSchema()),
        ("id,value\na,3\nb,1\na,2\n", CsvSchema(time_column=None)),
        ("id,value\n" + "".join(f"s{k % 3},{k}\n" for k in range(200)), CsvSchema()),
        ("id,t,value,time\na,2,1,0\na,1,2,0\n", CsvSchema(time_column="t")),
        ("id,time,value\na,1,1\n", CsvSchema(time_column="t")),
        ("id,time,value\n1,1,1\n2,0,2\n", CsvSchema(id_column="id", value_column="id")),
    ], ids=["semicolon", "tab", "space", "no_time_column", "time_column_none",
            "no_time_many_rows", "custom_time_column", "missing_custom_time_column",
            "id_column_is_value_column"])
    def test_schema(self, tmp_path, text, schema):
        path = tmp_path / "schema.csv"
        path.write_text(text, encoding="utf-8")
        assert_same_as_row_loop(path, schema)

    @settings(max_examples=200, deadline=None)
    @given(text=csv_texts())
    def test_random_files(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("prop") / "random.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_same_as_row_loop(path)



def row_loop_csv_bytes(dataset) -> bytes:
    """What ``save_dataset_csv`` wrote when it ran ``csv.writer`` row by row."""
    sink = io.StringIO(newline="")
    writer = csv.writer(sink)
    writer.writerow(["id", "time", "value"])
    for s in dataset:
        for t, v in enumerate(s.values):
            writer.writerow([s.id, t, repr(float(v))])
    return sink.getvalue().encode("utf-8")


class TestSaveMatchesRowLoop:
    IDS = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", " leading", "trailing ",
           "", "näive-ü-日本", '"', ",", "\r\n", "tab\there", "'single'"]

    def test_edge_ids(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = TimeSeriesDataset(series=[
            Series(id=sid, values=rng.normal(size=3 + k) * 10.0 ** (k - 7))
            for k, sid in enumerate(self.IDS)])
        path = tmp_path / "edge.csv"
        save_dataset_csv(ds, path)
        assert path.read_bytes() == row_loop_csv_bytes(ds)

    def test_special_values(self, tmp_path):
        ds = TimeSeriesDataset(series=[Series(id="v", values=np.array(
            [0.0, -0.0, 1e-310, 5e-324, 1.7976931348623157e308, -2.5, 1 / 3, 1e16, 123.0]))])
        path = tmp_path / "values.csv"
        save_dataset_csv(ds, path)
        assert path.read_bytes() == row_loop_csv_bytes(ds)

    @settings(max_examples=100, deadline=None)
    @given(ids=st.lists(st.text(max_size=6), min_size=1, max_size=4, unique=True),
           values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=5))
    def test_random_ids_and_values(self, tmp_path_factory, ids, values):
        ds = TimeSeriesDataset(series=[Series(id=sid, values=np.array(values) + k)
                                       for k, sid in enumerate(ids)])
        path = tmp_path_factory.mktemp("save") / "random.csv"
        save_dataset_csv(ds, path)
        assert path.read_bytes() == row_loop_csv_bytes(ds)


class TestExport:
    def bundle(self):
        comps = [np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.5, 0.5, 0.5, 0.5])]
        return ForecastBundle(forecast=comps[0] + comps[1], components=comps,
                              residual_trace=[], block_labels=["b0", "b1"])

    def test_decomposition_csv_shape(self, tmp_path):
        path = tmp_path / "dec.csv"
        write_decomposition_csv(self.bundle(), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,forecast,component_1,component_2"
        assert len(lines) == 5

    def test_decomposition_roundtrip_additivity(self, tmp_path):
        path = tmp_path / "dec.csv"
        write_decomposition_csv(self.bundle(), path)
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        forecast, comps = table[:, 1], table[:, 2:].T
        assert np.max(np.abs(np.sum(comps, axis=0) - forecast)) < 1e-9

    def test_metrics_json_shape(self, tmp_path):
        from dmidas.metrics import MetricEntry, MetricsReport

        report = MetricsReport(entries=[
            MetricEntry("ds", 4, "m1", 1.0, 2.0),
            MetricEntry("ds", 4, "m2", 1.5, 2.5),
        ])
        path = tmp_path / "metrics.json"
        write_metrics_json(report, path)
        payload = json.loads(path.read_text())
        leaves = payload["ds"]["4"]
        assert set(leaves) == {"m1", "m2"}
        assert leaves["m1"] == {"mae": 1.0, "rmse": 2.0}

    def test_non_finite_metric_is_not_written(self, tmp_path):
        from dmidas.metrics import MetricEntry, MetricsReport

        report = MetricsReport(entries=[MetricEntry("ds", 4, "m1", float("nan"), 2.0)])
        path = tmp_path / "metrics.json"
        with pytest.raises(NumericsError, match="metrics.json"):
            write_metrics_json(report, path)
        assert not path.exists()

    def test_unwritable_path_is_io_error(self, tmp_path):
        with pytest.raises(DataError):
            write_decomposition_csv(self.bundle(), tmp_path / "no" / "dir" / "x.csv")
