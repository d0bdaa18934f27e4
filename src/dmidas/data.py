"""Dataset ingestion, synthetic signal generation and result export.

Synthetic Gaussian noise comes from a counter-based 64-bit generator
(SplitMix64 mixing) fed through the Box-Muller transform, so fixtures are
bit-reproducible from the documented algorithm alone, independent of any
library RNG.
"""

from __future__ import annotations

import csv
import json
import math
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
    start_timestamp: object = None
    frequency: str = ""

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

    def ids(self) -> list[str]:
        return [s.id for s in self.series]

    def get(self, series_id: str) -> Series:
        for s in self.series:
            if s.id == series_id:
                return s
        raise DataError(f"no series with id '{series_id}'")

    def __iter__(self):
        return iter(self.series)

    def __len__(self) -> int:
        return len(self.series)


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
    series = Series(id=spec.name, values=values, frequency="synthetic")
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


def load_csv(path, schema: CsvSchema = CsvSchema(), name: str | None = None) -> TimeSeriesDataset:
    """Strictly parse one series per distinct id; ordered by time when present.

    The default time column ("time") is optional and falls back to row order;
    a schema naming any other time column requires it to exist. Values must
    parse as finite floats and times must not parse as NaN, with errors
    reported by line number. A series sorts by numeric time when every one of
    its times parses as a float, and by the time text otherwise.
    """
    rows_by_id: dict[str, list[tuple[str | None, float | None, float]]] = {}
    textual: set[str] = set()
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open '{path}': {exc}") from None
    with handle:
        reader = csv.reader(handle, delimiter=schema.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"'{path}' is empty (header row required)") from None
        cols = {c.strip(): i for i, c in enumerate(header)}
        for col in (schema.id_column, schema.value_column):
            if col not in cols:
                raise DataError(f"'{path}' has no column '{col}' (header: {header})")
        has_time = schema.time_column is not None and schema.time_column in cols
        if schema.time_column is not None and schema.time_column not in cols and schema.time_column != "time":
            raise DataError(f"'{path}' has no column '{schema.time_column}' (header: {header})")
        id_i = cols[schema.id_column]
        val_i = cols[schema.value_column]
        time_i = cols[schema.time_column] if has_time else None
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) <= max(id_i, val_i, time_i or 0):
                raise DataError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")
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
    return TimeSeriesDataset(series=series, name=name or str(path))


def save_dataset_csv(dataset: TimeSeriesDataset, path, delimiter: str = ",") -> None:
    """Write id,time,value rows; floats as shortest round-trip decimals."""
    try:
        handle = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write '{path}': {exc}") from None
    with handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(["id", "time", "value"])
        for s in dataset:
            for t, v in enumerate(s.values):
                writer.writerow([s.id, t, repr(float(v))])


def export_results(obj, path, format: str = "csv") -> None:
    """Write a forecast decomposition (csv/json) or a metrics report (json/csv).

    Decomposition CSV columns are t, forecast, component_1..component_K with
    one row per horizon step; metrics JSON nests dataset -> horizon -> model
    -> {mae, rmse}. Values round-trip at full float64 precision.
    """
    if hasattr(obj, "components") and hasattr(obj, "forecast"):
        _export_bundle(obj, path, format)
    elif hasattr(obj, "entries"):
        _export_report(obj, path, format)
    else:
        raise ConfigError(f"cannot export object of type {type(obj).__name__}")


def _export_bundle(bundle, path, format: str) -> None:
    k = len(bundle.components)
    if format == "csv":
        try:
            handle = open(path, "w", newline="", encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot write '{path}': {exc}") from None
        with handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "forecast"] + [f"component_{i + 1}" for i in range(k)])
            for t in range(len(bundle.forecast)):
                row = [t, repr(float(bundle.forecast[t]))]
                row += [repr(float(c[t])) for c in bundle.components]
                writer.writerow(row)
    elif format == "json":
        payload = {"forecast": [float(v) for v in bundle.forecast],
                   "components": [[float(v) for v in c] for c in bundle.components],
                   "block_labels": list(bundle.block_labels)}
        _write_json(payload, path)
    else:
        raise ConfigError(f"unknown export format '{format}'")


def _export_report(report, path, format: str) -> None:
    if format == "json":
        _write_json(report.to_nested(), path)
    elif format == "csv":
        try:
            handle = open(path, "w", newline="", encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot write '{path}': {exc}") from None
        with handle:
            writer = csv.writer(handle)
            writer.writerow(["dataset", "horizon", "model", "mae", "rmse"])
            for e in report.entries:
                writer.writerow([e.dataset, e.horizon, e.model,
                                 "" if e.mae is None else repr(float(e.mae)),
                                 "" if e.rmse is None else repr(float(e.rmse))])
    else:
        raise ConfigError(f"unknown export format '{format}'")


def _write_json(payload, path) -> None:
    """Strict JSON only: a NaN or infinite value raises before the file is opened."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericsError(f"cannot write '{path}': {exc}") from None
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise DataError(f"cannot write '{path}': {exc}") from None


def load_decomposition_csv(path) -> tuple[np.ndarray, list[np.ndarray]]:
    """Read back an exported decomposition: (forecast, components)."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        k = len(header) - 2
        fc = []
        comps: list[list[float]] = [[] for _ in range(k)]
        for row in reader:
            fc.append(float(row[1]))
            for i in range(k):
                comps[i].append(float(row[2 + i]))
    return np.array(fc), [np.array(c) for c in comps]
