"""Accuracy metrics, the naive baseline and the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .blocks import BlockConfig, PoolSpec
from .data import TimeSeriesDataset
from .errors import ConfigError, ShapeError
from .model import MlpConfig, ModelConfig, StackConfig
from .training import (EnsembleConfig, TrainConfig, denormalize_forecast,
                       ensemble_forecast_batch, parallel_map, prepared_windows,
                       split_tail, train_ensemble)


def mae(y, yhat) -> float:
    """Mean absolute error."""
    yv = np.asarray(y, dtype=np.float64)
    hv = np.asarray(yhat, dtype=np.float64)
    if yv.shape != hv.shape:
        raise ShapeError(f"mae length mismatch: {yv.shape} vs {hv.shape}")
    if yv.size == 0:
        raise ShapeError("mae of empty vectors is undefined")
    return float(np.mean(np.abs(yv - hv)))


def rmse(y, yhat) -> float:
    """Root mean squared error."""
    yv = np.asarray(y, dtype=np.float64)
    hv = np.asarray(yhat, dtype=np.float64)
    if yv.shape != hv.shape:
        raise ShapeError(f"rmse length mismatch: {yv.shape} vs {hv.shape}")
    if yv.size == 0:
        raise ShapeError("rmse of empty vectors is undefined")
    return float(np.sqrt(np.mean((yv - hv) ** 2)))


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

@dataclass
class ModelSpec:
    """One column of the benchmark: a named model family plus its knobs.

    Kinds: dmidas, nbeats-g, nbeats-i, mlp, seasonal-naive. ``params`` may
    carry stacks, blocks_per_stack, mlp_widths, base_ratio, pooling_mode,
    poly_degree, n_harmonics, period (naive), input_multiple.
    """

    name: str
    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class BenchmarkProtocol:
    """Split sizes, training knobs and scope shared by every benchmark cell."""

    val_len: int
    test_len: int
    train: TrainConfig = field(default_factory=TrainConfig)
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    input_multiple: int = 3
    scope: str = "global"

    def __post_init__(self):
        if self.scope not in ("global", "per-series"):
            raise ConfigError(f"unknown scope '{self.scope}'")
        if self.input_multiple < 1:
            raise ConfigError("input_multiple must be >= 1")


@dataclass
class MetricEntry:
    dataset: str
    horizon: int
    model: str
    mae: float | None
    rmse: float | None
    n_windows: int = 0
    error: str | None = None
    window_records: list = field(default_factory=list)


@dataclass
class MetricsReport:
    """Table-shaped accuracy results keyed by (dataset, horizon, model)."""

    entries: list[MetricEntry]
    relative_improvements: dict = field(default_factory=dict)

    def __post_init__(self):
        keys = [(e.dataset, e.horizon, e.model) for e in self.entries]
        if len(set(keys)) != len(keys):
            raise ConfigError("duplicate (dataset, horizon, model) entries in report")

    @property
    def incomplete(self) -> list[tuple[str, int, str]]:
        return [(e.dataset, e.horizon, e.model) for e in self.entries if e.error]

    def get(self, dataset: str, horizon: int, model: str) -> MetricEntry:
        for e in self.entries:
            if (e.dataset, e.horizon, e.model) == (dataset, horizon, model):
                return e
        raise ConfigError(f"no entry for ({dataset}, {horizon}, {model})")

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
    report.relative_improvements = improvements
    return improvements


def _cell_seed(root_seed: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=root_seed, spawn_key=(index,))
               .generate_state(1, dtype=np.uint64)[0] % (2 ** 63))


def model_config_for(spec: ModelSpec, input_size: int, horizon: int):
    """Materialize a buildable config for one benchmark column."""
    p = spec.params
    widths = tuple(p.get("mlp_widths", (512, 512)))
    if spec.kind == "mlp":
        return MlpConfig(input_size, horizon, widths)
    shared = bool(p.get("shared_weights", False))
    if spec.kind == "dmidas":
        template = BlockConfig(basis="midas", input_size=input_size, horizon=horizon,
                               mlp_widths=widths,
                               pooling=PoolSpec(mode=p.get("pooling_mode", "avg")))
        stacks = tuple(StackConfig(p.get("blocks_per_stack", 3), template, shared)
                       for _ in range(p.get("stacks", 1)))
        return ModelConfig(stacks=stacks, input_size=input_size, horizon=horizon,
                           base_ratio=p.get("base_ratio", 0.5),
                           ratio_schedule=p.get("ratio_schedule", "exponential"),
                           pooling_schedule=p.get("pooling_schedule", "auto"))
    if spec.kind == "nbeats-g":
        template = BlockConfig(basis="generic", input_size=input_size, horizon=horizon,
                               mlp_widths=widths)
        stacks = tuple(StackConfig(p.get("blocks_per_stack", 3), template, shared)
                       for _ in range(p.get("stacks", 1)))
        return ModelConfig(stacks=stacks, input_size=input_size, horizon=horizon)
    if spec.kind == "nbeats-i":
        trend = BlockConfig(basis="polynomial", input_size=input_size, horizon=horizon,
                            mlp_widths=widths, poly_degree=p.get("poly_degree", 2))
        seasonal = BlockConfig(basis="harmonic", input_size=input_size, horizon=horizon,
                               mlp_widths=widths, n_harmonics=p.get("n_harmonics", 4))
        stacks = (StackConfig(p.get("blocks_per_stack", 3), trend, shared),
                  StackConfig(p.get("blocks_per_stack", 3), seasonal, shared))
        return ModelConfig(stacks=stacks, input_size=input_size, horizon=horizon)
    raise ConfigError(f"unknown model kind '{spec.kind}'")


def score_windows(windows, forecasts, dataset: str, horizon: int, model: str,
                  keep_records: bool = False) -> MetricEntry:
    """Score forecasts against their windows' targets, both in original units.

    ``forecasts[i]`` is in the normalized units of ``windows[i]``. Per-window
    MAE and RMSE are averaged without weights within each series, then across
    series.
    """
    records = []
    by_series: dict[str, list[tuple[float, float]]] = {}
    for w, fc in zip(windows, forecasts):
        yhat = denormalize_forecast(w, fc)
        truth = denormalize_forecast(w, w.target)
        rec = (w.series_id, mae(truth, yhat), rmse(truth, yhat))
        records.append(rec)
        by_series.setdefault(w.series_id, []).append(rec[1:])
    maes = [float(np.mean([m for m, _ in recs])) for recs in by_series.values()]
    rmses = [float(np.mean([r for _, r in recs])) for recs in by_series.values()]
    return MetricEntry(dataset=dataset, horizon=horizon, model=model,
                       mae=float(np.mean(maes)), rmse=float(np.mean(rmses)),
                       n_windows=len(records),
                       window_records=records if keep_records else [])


def _forecast_trained(spec, horizon, input_size, split, protocol, seed):
    """Train one ensemble per scope group; returns (test windows, forecasts)."""
    windows, forecasts = [], []
    groups = [split.splits] if protocol.scope == "global" else [[sp] for sp in split.splits]
    mode = protocol.train.normalization
    for g_idx, group in enumerate(groups):
        sub = replace(split, splits=list(group))
        train_n = prepared_windows(sub, "train", input_size, horizon, mode)
        val_n = prepared_windows(sub, "val", input_size, horizon, mode)
        test_n = prepared_windows(sub, "test", input_size, horizon, mode)

        config = model_config_for(spec, input_size, horizon)
        train_cfg = replace(protocol.train, seed=seed + g_idx)
        members = train_ensemble(config, train_n, val_n, train_cfg, protocol.ensemble)
        windows.extend(test_n)
        forecasts.extend(ensemble_forecast_batch(members, np.stack([w.input for w in test_n])))
    return windows, forecasts


def run_benchmark(dataset: TimeSeriesDataset, model_specs: list[ModelSpec],
                  horizons: list[int], protocol: BenchmarkProtocol, seed: int = 0,
                  jobs: int = 1, keep_forecasts: bool = False) -> MetricsReport:
    """Train and score every (model, horizon) cell; failures flag the cell only.

    Test windows roll over the holdout region with stride = horizon, so their
    targets never overlap; they are scored by ``score_windows``.
    """
    cells = [(spec, h) for spec in model_specs for h in horizons]

    def run_cell(args) -> MetricEntry:
        (spec, horizon), index = args
        cell_seed = _cell_seed(seed, index)
        try:
            input_size = int(spec.params.get("input_size",
                                             protocol.input_multiple * horizon))
            split = split_tail(dataset, protocol.val_len, protocol.test_len)
            if spec.kind == "seasonal-naive":
                period = int(spec.params.get("period", 1))
                windows = split.test_windows(input_size, horizon)
                forecasts = [seasonal_naive_forecast(w.input, horizon, period)
                             for w in windows]
            else:
                windows, forecasts = _forecast_trained(spec, horizon, input_size, split,
                                                       protocol, cell_seed)
            return score_windows(windows, forecasts, dataset.name, horizon, spec.name,
                                 keep_records=keep_forecasts)
        except Exception as exc:
            return MetricEntry(dataset=dataset.name, horizon=horizon, model=spec.name,
                               mae=None, rmse=None, error=str(exc))

    entries = parallel_map(run_cell, list(zip(cells, range(len(cells)))), jobs)
    return MetricsReport(entries=entries)


def render_table(report: MetricsReport, mark_best: bool = True) -> str:
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
        if mark_best and best is not None and value == best:
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
