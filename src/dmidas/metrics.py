"""Accuracy metrics, the naive baseline and the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .blocks import BlockConfig, PoolSpec
from .data import TimeSeriesDataset
from .engine import POOL_MODES
from .errors import ConfigError, DataError, DmidasError, ShapeError
from .model import MlpConfig, ModelConfig, StackConfig
from .training import (EnsembleConfig, TrainConfig, child_seed, denormalize_forecast,
                       ensemble_forecast_batch, parallel_map, prepared_windows,
                       split_tail, train_ensemble)


def _error(name: str, y, yhat) -> np.ndarray:
    """``y - yhat`` as float64, for same-shaped non-empty inputs of ``name``."""
    yv = np.asarray(y, dtype=np.float64)
    hv = np.asarray(yhat, dtype=np.float64)
    if yv.shape != hv.shape:
        raise ShapeError(f"{name} length mismatch: {yv.shape} vs {hv.shape}")
    if yv.size == 0:
        raise ShapeError(f"{name} of empty vectors is undefined")
    return yv - hv


def mae(y, yhat) -> float:
    """Mean absolute error."""
    return float(np.mean(np.abs(_error("mae", y, yhat))))


def rmse(y, yhat) -> float:
    """Root mean squared error."""
    return float(np.sqrt(np.mean(_error("rmse", y, yhat) ** 2)))


def seasonal_naive_forecast(y_in, horizon: int, period: int) -> np.ndarray:
    """Repeat the last observed period across the horizon."""
    v = np.asarray(y_in, dtype=np.float64)
    if period < 1:
        raise ConfigError(f"period must be >= 1, got {period}")
    if period > v.shape[-1]:
        raise ConfigError(f"period {period} exceeds input length {v.shape[-1]}")
    idx = v.shape[-1] - period + (np.arange(horizon) % period)
    return v[..., idx]


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------

KINDS = ("dmidas", "nbeats-g", "nbeats-i", "mlp", "seasonal-naive")

# ModelSpec fields with a lower bound; input_size None is 3 x horizon
_LEAST = {"stacks": 1, "blocks_per_stack": 1, "poly_degree": 0, "n_harmonics": 1,
          "input_size": 1, "period": 1}


@dataclass(frozen=True)
class ModelSpec:
    """One column of the benchmark: a named model family plus its knobs.

    Kinds: dmidas, nbeats-g, nbeats-i, mlp, seasonal-naive (which reads only
    ``input_size`` and ``period``). Every field is checked whatever the kind,
    and an error names the field. ``input_size`` None means 3 x horizon.
    """

    name: str
    kind: str
    stacks: int = 1
    blocks_per_stack: int = 3
    mlp_widths: tuple[int, ...] = (512, 512)
    shared_weights: bool = False
    base_ratio: float = 0.5
    ratio_schedule: str | tuple[float, ...] = "exponential"
    pooling_schedule: str | int | tuple[int, ...] = "auto"
    pooling_mode: str = "avg"
    poly_degree: int = 2
    n_harmonics: int = 4
    input_size: int | None = None
    period: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown model '{self.kind}', expected one of {KINDS}")
        for key, least in _LEAST.items():
            value = getattr(self, key)
            if value is not None and value < least:
                raise ConfigError(f"model '{self.name}': {key} must be >= {least}, got {value}")
        if not self.mlp_widths or min(self.mlp_widths) < 1:
            raise ConfigError(f"model '{self.name}': mlp_widths must be positive ints, "
                              f"got {self.mlp_widths}")
        if not 0.0 < self.base_ratio <= 1.0:
            raise ConfigError(f"model '{self.name}': base_ratio must lie in (0, 1], "
                              f"got {self.base_ratio}")
        if self.pooling_mode not in POOL_MODES:
            raise ConfigError(f"model '{self.name}': unknown pooling_mode "
                              f"'{self.pooling_mode}', expected one of {POOL_MODES}")


@dataclass
class BenchmarkProtocol:
    """Split sizes, training knobs and scope shared by every benchmark cell."""

    val_len: int
    test_len: int
    train: TrainConfig = field(default_factory=TrainConfig)
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    scope: str = "global"

    def __post_init__(self):
        if self.scope not in ("global", "per-series"):
            raise ConfigError(f"unknown scope '{self.scope}'")


@dataclass
class MetricEntry:
    dataset: str
    horizon: int
    model: str
    mae: float | None
    rmse: float | None
    n_windows: int = 0
    error: str | None = None


@dataclass
class MetricsReport:
    """Table-shaped accuracy results keyed by (dataset, horizon, model)."""

    entries: list[MetricEntry]

    def __post_init__(self):
        keys = [(e.dataset, e.horizon, e.model) for e in self.entries]
        if len(set(keys)) != len(keys):
            raise ConfigError("duplicate (dataset, horizon, model) entries in report")

    @property
    def incomplete(self) -> list[tuple[str, int, str]]:
        return [(e.dataset, e.horizon, e.model) for e in self.entries if e.error]

    def to_nested(self) -> dict:
        """dataset -> horizon -> model -> {mae, rmse} (incomplete cells carry errors)."""
        nested: dict = {}
        for e in self.entries:
            cell = nested.setdefault(e.dataset, {}).setdefault(str(e.horizon), {})
            if e.error:
                cell[e.model] = {"error": e.error}
            else:
                cell[e.model] = {"mae": e.mae, "rmse": e.rmse}
        return nested


def relative_improvement(report: MetricsReport, baseline_model: str) -> dict:
    """Percent improvement over the baseline per (dataset, horizon, model).

    100 * (metric_baseline - metric_model) / metric_baseline per metric.
    Note the formula is not antisymmetric in magnitude under swapping model
    and baseline, only in sign direction.
    """
    groups: dict = {}
    for e in report.entries:
        groups.setdefault((e.dataset, e.horizon), []).append(e)
    improvements = {}
    for (ds, h), entries in groups.items():
        base = next((e for e in entries if e.model == baseline_model), None)
        if base is None or base.error:
            raise ConfigError(f"baseline '{baseline_model}' missing for ({ds}, {h})")
        for e in entries:
            if e.error:
                continue
            improvements[(ds, h, e.model)] = {
                "mae": 100.0 * (base.mae - e.mae) / base.mae if base.mae else 0.0,
                "rmse": 100.0 * (base.rmse - e.rmse) / base.rmse if base.rmse else 0.0,
            }
    return improvements


def model_config_for(spec: ModelSpec, input_size: int, horizon: int):
    """Materialize a buildable config for one trained benchmark column."""
    if spec.kind == "mlp":
        return MlpConfig(input_size, horizon, spec.mlp_widths)
    block = partial(BlockConfig, input_size=input_size, horizon=horizon,
                    mlp_widths=spec.mlp_widths)
    schedules = {}
    if spec.kind == "dmidas":
        templates = [block(basis="midas", pooling=PoolSpec(mode=spec.pooling_mode))] * spec.stacks
        schedules = dict(base_ratio=spec.base_ratio, ratio_schedule=spec.ratio_schedule,
                         pooling_schedule=spec.pooling_schedule)
    elif spec.kind == "nbeats-g":
        templates = [block(basis="generic")] * spec.stacks
    elif spec.kind == "nbeats-i":
        templates = [block(basis="polynomial", poly_degree=spec.poly_degree),
                     block(basis="harmonic", n_harmonics=spec.n_harmonics)]
    else:
        raise ConfigError(f"model '{spec.name}' of kind '{spec.kind}' is not trained")
    stacks = tuple(StackConfig(spec.blocks_per_stack, t, spec.shared_weights) for t in templates)
    return ModelConfig(stacks=stacks, input_size=input_size, horizon=horizon, **schedules)


def score_windows(windows, forecasts, dataset: str, horizon: int, model: str) -> MetricEntry:
    """Score forecasts against their windows' targets, both in original units.

    ``forecasts[i]`` is in the normalized units of ``windows[i]``. Per-window
    MAE and RMSE are averaged without weights within each series, then across
    series. No windows is a ``DataError``: there is nothing to average.
    """
    if not windows:
        raise DataError(f"no test windows to score for model '{model}' at horizon "
                        f"{horizon} on dataset '{dataset}'")
    by_series: dict[str, list[tuple[float, float]]] = {}
    for w, fc in zip(windows, forecasts):
        yhat = denormalize_forecast(w, fc)
        truth = denormalize_forecast(w, w.target)
        by_series.setdefault(w.series_id, []).append((mae(truth, yhat), rmse(truth, yhat)))
    maes = [float(np.mean([m for m, _ in recs])) for recs in by_series.values()]
    rmses = [float(np.mean([r for _, r in recs])) for recs in by_series.values()]
    return MetricEntry(dataset=dataset, horizon=horizon, model=model,
                       mae=float(np.mean(maes)), rmse=float(np.mean(rmses)),
                       n_windows=len(windows))


def _forecast_trained(config, split, protocol, seed):
    """Train one ensemble per scope group; returns (test windows, forecasts)."""
    windows, forecasts = [], []
    groups = [split.splits] if protocol.scope == "global" else [[sp] for sp in split.splits]
    shape = config.input_size, config.horizon
    mode = protocol.train.normalization
    for g_idx, group in enumerate(groups):
        sub = replace(split, splits=list(group))
        test_n = prepared_windows(sub, "test", *shape, mode)
        if not test_n:
            continue  # nothing to forecast; score_windows reports the empty cell
        train_n = prepared_windows(sub, "train", *shape, mode)
        val_n = prepared_windows(sub, "val", *shape, mode)

        train_cfg = replace(protocol.train, seed=seed + g_idx)
        members = train_ensemble(config, train_n, val_n, train_cfg, protocol.ensemble)
        windows.extend(test_n)
        forecasts.extend(ensemble_forecast_batch(members, np.stack([w.input for w in test_n])))
    return windows, forecasts


def run_benchmark(dataset: TimeSeriesDataset, model_specs: list[ModelSpec],
                  horizons: list[int], protocol: BenchmarkProtocol, seed: int = 0,
                  jobs: int = 1) -> MetricsReport:
    """Train and score every (model, horizon) cell.

    What the cells share is checked before any of them runs, and an error in
    it raises: the split, a validation region for the trained cells, the
    model and horizon lists (non-empty, no repeats) and every trained cell's
    model config. A ``DmidasError`` that belongs to one cell flags that cell
    only: a horizon the test region cannot hold, a naive period longer than
    the input, an explicit pooling kernel longer than the input. Test
    windows roll over the holdout region with stride = horizon, so their
    targets never overlap; they are scored by ``score_windows``.
    """
    split = split_tail(dataset, protocol.val_len, protocol.test_len)
    for key, values in (("models", [s.name for s in model_specs]), ("horizons", list(horizons))):
        if not values or len(set(values)) != len(values):
            raise ConfigError(f"{key} must be a non-empty list without repeats, got {values}")
    if min(horizons) < 1:
        raise ConfigError(f"horizons must be >= 1, got {min(horizons)}")
    cells = [(spec, h, None if spec.kind == "seasonal-naive"
              else model_config_for(spec, spec.input_size or 3 * h, h))
             for spec in model_specs for h in horizons]
    if protocol.val_len == 0 and any(config is not None for _, _, config in cells):
        raise DataError("val_len = 0 leaves no validation windows to train on")

    def run_cell(args) -> MetricEntry:
        (spec, horizon, config), index = args
        try:
            if config is None:
                windows = split.test_windows(spec.input_size or 3 * horizon, horizon)
                forecasts = [seasonal_naive_forecast(w.input, horizon, spec.period)
                             for w in windows]
            else:
                windows, forecasts = _forecast_trained(config, split, protocol,
                                                       child_seed(seed, index))
            return score_windows(windows, forecasts, dataset.name, horizon, spec.name)
        except DmidasError as exc:
            return MetricEntry(dataset=dataset.name, horizon=horizon, model=spec.name,
                               mae=None, rmse=None, error=str(exc))

    entries = parallel_map(run_cell, list(zip(cells, range(len(cells)))), jobs)
    return MetricsReport(entries=entries)


def render_table(report: MetricsReport) -> str:
    """Aligned text table: (dataset, horizon) rows with MAE/RMSE sub-rows,
    one column per model; the row minimum is marked with '*'."""
    models: list[str] = []
    for e in report.entries:
        if e.model not in models:
            models.append(e.model)
    groups: dict = {}
    for e in report.entries:
        groups.setdefault((e.dataset, e.horizon), {})[e.model] = e

    def fmt(entry: MetricEntry | None, metric: str, best: float | None) -> str:
        if entry is None:
            return "-"
        if entry.error:
            return "ERR"
        value = getattr(entry, metric)
        text = f"{value:.4f}"
        if best is not None and value == best:
            text += "*"
        return text

    width = max([len(m) for m in models] + [10]) + 2
    header = f"{'Data':<16}{'H':>6}  {'Metric':<8}" + "".join(f"{m:>{width}}" for m in models)
    lines = [header, "-" * len(header)]
    for (ds, h), cells in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        for metric in ("mae", "rmse"):
            ok = [getattr(cells[m], metric) for m in models
                  if m in cells and not cells[m].error]
            best = min(ok) if ok else None
            row = (f"{ds if metric == 'mae' else '':<16}{h if metric == 'mae' else '':>6}  "
                   f"{metric.upper():<8}")
            row += "".join(f"{fmt(cells.get(m), metric, best):>{width}}" for m in models)
            lines.append(row)
    if report.incomplete:
        lines.append("")
        lines.append(f"incomplete cells: {report.incomplete}")
    return "\n".join(lines)
