"""Dataset ingestion, synthetic signal generation and result export.

Synthetic Gaussian noise comes from a counter-based 64-bit generator
(SplitMix64 mixing) fed through the Box-Muller transform, so fixtures are
bit-reproducible from the documented algorithm alone, independent of any
library RNG.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericsError

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


@dataclass
class Series:
    """One named time series."""

    id: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise DataError(f"series '{self.id}' must be a non-empty vector")
        if not np.all(np.isfinite(self.values)):
            raise DataError(f"series '{self.id}' contains non-finite values")


@dataclass
class TimeSeriesDataset:
    """A named collection of series with unique ids."""

    series: list[Series]
    name: str = "dataset"

    def __post_init__(self):
        if not self.series:
            raise DataError("dataset holds no series")
        ids = [s.id for s in self.series]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise DataError(f"duplicate series ids: {dupes}")

    def __iter__(self):
        return iter(self.series)


# ---------------------------------------------------------------------------
# Synthetic signals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sinusoid:
    period: float
    amplitude: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        if self.period < 2:
            raise ConfigError(f"sinusoid period must be >= 2, got {self.period}")

    def sample(self, t: np.ndarray) -> np.ndarray:
        return self.amplitude * np.sin(2.0 * np.pi * t / self.period + self.phase)


@dataclass(frozen=True)
class LinearTrend:
    slope: float

    def sample(self, t: np.ndarray) -> np.ndarray:
        return self.slope * t


@dataclass(frozen=True)
class GaussianNoise:
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ConfigError(f"noise sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic synthetic series."""

    length: int
    components: tuple = ()
    seed: int = 0
    name: str = "synthetic"

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if self.length < 1:
            raise ConfigError(f"synthetic length must be >= 1, got {self.length}")


def _mix64(x):
    """SplitMix64 finalizer: a bijective 64-bit mix of an int or a uint64 array.

    uint64 arithmetic wraps modulo 2**64, so the masks only matter for ints.
    """
    x &= _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x


def gaussian_noise(seed: int, n: int, stream: int = 0) -> np.ndarray:
    """n standard normal draws from counter k: Box-Muller over SplitMix64 output.

    Draw t consumes counters 2t and 2t+1 of the stream, where counter k yields
    _mix64(seed' + (k+1)*GOLDEN) with seed' = _mix64(seed + stream*GOLDEN).
    z_t = sqrt(-2 ln u1) * cos(2 pi u2) with u1, u2 in (0, 1], where 64 bits x
    map to ((x >> 11) + 1) * 2**-53.
    """
    base = np.uint64(_mix64((seed + stream * _GOLDEN) & _M64))
    counters = np.arange(1, 2 * n + 1, dtype=np.uint64)
    bits = _mix64(base + counters * np.uint64(_GOLDEN))
    u = ((bits >> 11) + 1).astype(np.float64) * (2.0 ** -53)
    # math's log and cos per draw, not numpy's: they fix the bits of every draw.
    return np.fromiter((math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
                        for u1, u2 in zip(u[0::2].tolist(), u[1::2].tolist())),
                       dtype=np.float64, count=n)


def generate_synthetic(spec: SyntheticSpec) -> TimeSeriesDataset:
    """Sum the spec's components over t = 0..length-1; deterministic per seed."""
    t = np.arange(spec.length, dtype=np.float64)
    values = np.zeros(spec.length, dtype=np.float64)
    noise_stream = 0
    for comp in spec.components:
        if isinstance(comp, GaussianNoise):
            if comp.sigma > 0:
                values += comp.sigma * gaussian_noise(spec.seed, spec.length, noise_stream)
            noise_stream += 1
        elif isinstance(comp, (Sinusoid, LinearTrend)):
            values += comp.sample(t)
        else:
            raise ConfigError(f"unknown synthetic component {type(comp).__name__}")
    series = Series(id=spec.name, values=values)
    return TimeSeriesDataset(series=[series], name=spec.name)


def multifreq_v1() -> SyntheticSpec:
    """The fixed benchmark preset: two sinusoids, a slow trend and mild noise."""
    return SyntheticSpec(
        length=4000,
        components=(
            Sinusoid(period=24, amplitude=10.0),
            Sinusoid(period=168, amplitude=5.0),
            LinearTrend(slope=0.001),
            GaussianNoise(sigma=0.5),
        ),
        seed=1,
        name="multifreq-v1",
    )


PRESETS = {"multifreq-v1": multifreq_v1}


# ---------------------------------------------------------------------------
# CSV ingestion and export
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CsvSchema:
    id_column: str = "id"
    value_column: str = "value"
    time_column: str | None = "time"
    delimiter: str = ","

    def __post_init__(self):
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise ConfigError(f"delimiter must be exactly one character, got {self.delimiter!r}")


def load_csv(path, schema: CsvSchema = CsvSchema(), name: str | None = None) -> TimeSeriesDataset:
    """Strictly parse one series per distinct id; ordered by time when present.

    The default time column ("time") is optional and falls back to row order;
    a schema naming any other time column requires it to exist. Values must
    parse as finite floats and times must not parse as NaN, with errors
    reported by line number. A series sorts by numeric time when every one of
    its times parses as a float, and by the time text otherwise. A plain file
    takes one numpy pass (``_column_pass``); ``_row_loop`` decides the rest.
    """
    try:
        with open(path, "rb") as raw_handle:
            # A byte-order mark, as Excel's "CSV UTF-8" writes, is not part of the header.
            raw = raw_handle.read().removeprefix(codecs.BOM_UTF8)
        text = raw.decode("utf-8")
    except OSError as exc:
        raise DataError(f"cannot open '{path}': {exc}") from None
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"'{path}' line {line_no}: not UTF-8 text ({exc.reason})") from None
    with io.StringIO(text, newline="") as handle:
        rows = _csv_rows(csv.reader(handle, delimiter=schema.delimiter), path)
        _, header = next(rows, (0, None))
        if header is None:
            raise DataError(f"'{path}' is empty (header row required)")
        cols = {c.strip(): i for i, c in enumerate(header)}
        for col in (schema.id_column, schema.value_column):
            if col not in cols:
                raise DataError(f"'{path}' has no column '{col}' (header: {header})")
        has_time = schema.time_column is not None and schema.time_column in cols
        if schema.time_column is not None and schema.time_column not in cols and schema.time_column != "time":
            raise DataError(f"'{path}' has no column '{schema.time_column}' (header: {header})")
        columns = (cols[schema.id_column], cols[schema.value_column],
                   cols[schema.time_column] if has_time else None)
        series = _column_pass(raw, text, columns, schema.delimiter)
        if series is None:
            series = _row_loop(rows, columns, len(header), path)
    return TimeSeriesDataset(series=series, name=name or str(path))


def _csv_rows(reader, path):
    """(line number, row) for each of the reader's rows, numbered by the line the
    row ends on; a malformed row is raised as a DataError naming its line."""
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise DataError(f"'{path}' line {reader.line_num}: {exc}") from None


# The column pass sizes its id field by the longest line; longer lines take the row loop.
_COLUMN_PASS_MAX_LINE = 256


def _column_pass(raw: bytes, text: str, columns: tuple, delimiter: str) -> list[Series] | None:
    """The data rows after the header in one ``np.loadtxt`` pass, or None.

    It returns only what ``_row_loop`` returns for the same text, bit for bit:
    loadtxt converts floats as ``float()`` does. It returns None, and leaves
    every decision and message to the loop, for text with a quote, a NUL or a
    lone CR; a line longer than the id field may hold; any row loadtxt
    rejects or warns about (short, whitespace-only, ``,,``, a value or time
    that is not a plain float); no rows; a non-finite value; a NaN time; two
    equal times in one series (the loop judges duplicates by their text); and
    two raw ids that strip to the same id.
    """
    id_i, val_i, time_i = columns
    used = (id_i, val_i) if time_i is None else (id_i, val_i, time_i)
    if (len(set(used)) < len(used) or delimiter in "\r\n" or '"' in text or "\x00" in text
            or ("\r" in text and text.count("\r") != text.count("\r\n"))):
        return None
    # Bytes per line bound characters per line, so no id is cut to the field width.
    breaks = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("\n"))
    width = int(np.diff(breaks, prepend=-1, append=len(raw)).max())
    if width > min(_COLUMN_PASS_MAX_LINE, csv.field_size_limit()):
        return None
    fields = [("id", f"U{width}"), ("value", np.float64)]
    if time_i is not None:
        fields.append(("time", np.float64))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(io.StringIO(text), dtype=fields, delimiter=delimiter,
                              comments=None, quotechar=None, skiprows=1, usecols=used,
                              ndmin=1)
    except (ValueError, Warning):
        return None
    if rows.size == 0 or not np.all(np.isfinite(rows["value"])):
        return None
    raw_ids, first, inverse = np.unique(rows["id"], return_index=True, return_inverse=True)
    order = np.argsort(first)  # distinct ids by first appearance
    names = raw_ids.tolist()
    ids = [names[j].strip() for j in order]
    if len(set(ids)) < len(ids):
        return None
    which = np.argsort(order)[inverse]  # each row's series, numbered by first appearance
    if time_i is None:
        perm = np.argsort(which, kind="stable")
    else:
        times = rows["time"]
        if np.any(np.isnan(times)):
            return None
        perm = np.lexsort((times, which))
        sorted_times, sorted_which = times[perm], which[perm]
        if np.any((sorted_times[1:] == sorted_times[:-1]) & (sorted_which[1:] == sorted_which[:-1])):
            return None
    bounds = np.cumsum(np.bincount(which, minlength=len(ids)))[:-1]
    chunks = np.split(rows["value"][perm], bounds)
    return [Series(id=sid, values=chunk) for sid, chunk in zip(ids, chunks)]


def _row_loop(records, columns: tuple, n_fields: int, path) -> list[Series]:
    """Parse the remaining (line number, row) records one at a time: the
    definition of what load_csv accepts."""
    id_i, val_i, time_i = columns
    has_time = time_i is not None
    rows_by_id: dict[str, list[tuple[str | None, float | None, float]]] = {}
    textual: set[str] = set()
    for line_no, row in records:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) <= max(id_i, val_i, time_i or 0):
            raise DataError(f"line {line_no}: expected {n_fields} fields, got {len(row)}")
        raw = row[val_i].strip()
        try:
            value = float(raw)
        except ValueError:
            raise DataError(f"line {line_no}: unparseable value '{raw}'") from None
        if not math.isfinite(value):
            raise DataError(f"line {line_no}: non-finite value '{raw}'")
        key = row[id_i].strip()
        tkey = stamp = None
        if has_time:
            tkey = row[time_i].strip()
            try:
                stamp = float(tkey)
            except ValueError:
                textual.add(key)  # a non-numeric time: the series sorts by text
            else:
                if math.isnan(stamp):
                    raise DataError(f"line {line_no}: non-finite time '{tkey}'")
        rows_by_id.setdefault(key, []).append((tkey, stamp, value))

    if not rows_by_id:
        raise DataError(f"'{path}' holds no data rows")
    series = []
    for sid, rows in rows_by_id.items():
        if has_time:
            times = [t for t, _, _ in rows]
            if len(set(times)) != len(times):
                dup = next(t for t in times if times.count(t) > 1)
                raise DataError(f"duplicate (id, time) pair ('{sid}', '{dup}')")
            keyed = sorted(rows, key=(lambda r: r[0]) if sid in textual else (lambda r: r[1]))
            values = [v for _, _, v in keyed]
        else:
            values = [v for _, _, v in rows]
        series.append(Series(id=sid, values=np.array(values, dtype=np.float64)))
    return series


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row of several fields."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def save_dataset_csv(dataset: TimeSeriesDataset, path) -> None:
    """Write id,time,value rows; floats as shortest round-trip decimals.

    The bytes are those of ``csv.writer`` writing one row at a time, but each
    series goes out as one string.
    """
    try:
        handle = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write '{path}': {exc}") from None
    with handle:
        handle.write("id,time,value\r\n")
        for s in dataset:
            sid = _csv_field(str(s.id))
            handle.write("".join([f"{sid},{t},{v!r}\r\n"
                                  for t, v in enumerate(s.values.tolist())]))


def write_decomposition_csv(bundle, path) -> None:
    """Write a forecast decomposition: t, forecast, component_1..component_K.

    One row per horizon step; values round-trip at full float64 precision.
    """
    try:
        handle = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write '{path}': {exc}") from None
    with handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "forecast"]
                        + [f"component_{i + 1}" for i in range(len(bundle.components))])
        for t in range(len(bundle.forecast)):
            row = [t, repr(float(bundle.forecast[t]))]
            row += [repr(float(c[t])) for c in bundle.components]
            writer.writerow(row)


def write_metrics_json(report, path) -> None:
    """Write a metrics report nested dataset -> horizon -> model -> {mae, rmse}.

    Strict JSON only: a NaN or infinite value raises before the file is opened.
    """
    try:
        text = json.dumps(report.to_nested(), indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericsError(f"cannot write '{path}': {exc}") from None
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise DataError(f"cannot write '{path}': {exc}") from None
