"""Windowing, tail splits, normalization, the optimization loop and ensembles."""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .data import Series, TimeSeriesDataset
from .errors import ConfigError, DataError, NumericsError, TrainingError
from .model import build_any
from .params import OptimizerState, adam_step, l1_penalty

NORMALIZATION_MODES = ("none", "per-series-median", "per-window-last")


@dataclass
class Window:
    """One training example: L input lags and the H-step target that follows them.

    ``scale`` and ``offset`` record the affine map back to original units:
    original = normalized * scale + offset.
    """

    series_id: str
    input: np.ndarray
    target: np.ndarray
    t_start: int
    scale: float = 1.0
    offset: float = 0.0

    @property
    def target_start(self) -> int:
        return self.t_start + len(self.input)

    @property
    def target_end(self) -> int:
        return self.target_start + len(self.target)


@dataclass
class TrainConfig:
    """Knobs for one optimization run."""

    lr: float = 1e-3
    iterations: int = 1000
    batch_size: int = 128
    l1_lambda: float = 0.0
    early_stop_patience: int = 10
    eval_every: int = 100
    seed: int = 0
    loss_kind: str = "mae"
    normalization: str = "per-series-median"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.l1_lambda < 0:
            raise ConfigError(f"l1 lambda must be >= 0, got {self.l1_lambda}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.early_stop_patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.early_stop_patience}")
        if self.loss_kind not in engine.LOSS_KINDS:
            raise ConfigError(f"unknown loss kind '{self.loss_kind}'")
        if self.normalization not in NORMALIZATION_MODES:
            raise ConfigError(f"unknown normalization '{self.normalization}', "
                              f"expected one of {NORMALIZATION_MODES}")


# ---------------------------------------------------------------------------
# Windowing and splits
# ---------------------------------------------------------------------------

def make_windows(values, input_size: int, horizon: int, stride: int = 1,
                 series_id: str = "series") -> list[Window]:
    """All windows starting at 0, stride, 2*stride, ... that fit in the series."""
    v = np.asarray(values, dtype=np.float64)
    total = v.shape[0]
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    if total < input_size + horizon:
        raise DataError(f"series '{series_id}' too short for windows: "
                        f"length {total} < {input_size + horizon}")
    windows = []
    for t in range(0, total - input_size - horizon + 1, stride):
        windows.append(Window(series_id=series_id,
                              input=v[t:t + input_size].copy(),
                              target=v[t + input_size:t + input_size + horizon].copy(),
                              t_start=t))
    return windows


@dataclass
class SeriesSplit:
    """Tail holdout boundaries for one series: [0, train_end) trains,
    targets in [train_end, val_end) validate, targets in [val_end, len) test."""

    series: Series
    train_end: int
    val_end: int


@dataclass
class SplitDataset:
    """Per-series tail splits plus window builders that respect the boundaries."""

    splits: list[SeriesSplit]
    val_len: int
    test_len: int

    def train_windows(self, input_size: int, horizon: int, stride: int = 1) -> list[Window]:
        out = []
        for sp in self.splits:
            out.extend(make_windows(sp.series.values[:sp.train_end], input_size, horizon,
                                    stride, series_id=sp.series.id))
        return out

    def _holdout_windows(self, input_size, horizon, stride, lo_attr) -> list[Window]:
        out = []
        for sp in self.splits:
            lo = sp.train_end if lo_attr == "val" else sp.val_end
            hi = sp.val_end if lo_attr == "val" else len(sp.series.values)
            if lo + horizon > hi:
                continue
            if lo < input_size:
                raise DataError(f"series '{sp.series.id}' has too little history "
                                f"before its {lo_attr} region for {input_size} lags")
            windows = make_windows(sp.series.values[lo - input_size:hi], input_size,
                                   horizon, stride, series_id=sp.series.id)
            for w in windows:
                w.t_start += lo - input_size
            out.extend(windows)
        return out

    def val_windows(self, input_size: int, horizon: int, stride: int | None = None) -> list[Window]:
        return self._holdout_windows(input_size, horizon, stride or horizon, "val")

    def test_windows(self, input_size: int, horizon: int, stride: int | None = None) -> list[Window]:
        return self._holdout_windows(input_size, horizon, stride or horizon, "test")


def split_tail(dataset: TimeSeriesDataset, val_len: int, test_len: int) -> SplitDataset:
    """Hold out the last test_len points, then val_len points before them, per series."""
    if val_len < 0 or test_len < 0:
        raise ConfigError("val_len and test_len must be >= 0")
    splits = []
    for s in dataset:
        total = len(s.values)
        if total <= val_len + test_len:
            raise DataError(f"series '{s.id}' of length {total} cannot hold out "
                            f"{val_len} validation + {test_len} test points")
        splits.append(SeriesSplit(series=s, train_end=total - val_len - test_len,
                                  val_end=total - test_len))
    return SplitDataset(splits=splits, val_len=val_len, test_len=test_len)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def median_abs_scales(split: SplitDataset) -> dict[str, float]:
    """Per-series median absolute value over the training region (fallback 1.0)."""
    scales = {}
    for sp in split.splits:
        med = float(np.median(np.abs(sp.series.values[:sp.train_end])))
        scales[sp.series.id] = med if med > 0 else 1.0
    return scales


def normalize(windows: list[Window], mode: str,
              scales: dict[str, float] | None = None):
    """Rescale windows; returns (normalized windows, exact inverse transform).

    per-series-median divides by the series scale (supply ``scales`` computed
    from the training region; otherwise they are estimated from the given
    windows). per-window-last subtracts the last input value. The inverse
    restores original units via original = normalized * scale + offset.
    """
    if mode not in NORMALIZATION_MODES:
        raise ConfigError(f"unknown normalization '{mode}'")
    if mode == "per-series-median" and scales is None:
        scales = {}
        by_id: dict[str, list[np.ndarray]] = {}
        for w in windows:
            by_id.setdefault(w.series_id, []).extend([w.input, w.target])
        for sid, chunks in by_id.items():
            med = float(np.median(np.abs(np.concatenate(chunks))))
            scales[sid] = med if med > 0 else 1.0

    normalized = []
    for w in windows:
        if mode == "none":
            normalized.append(replace(w, input=w.input.copy(), target=w.target.copy()))
        elif mode == "per-series-median":
            s = scales[w.series_id]
            normalized.append(replace(w, input=w.input / s, target=w.target / s,
                                      scale=s, offset=0.0))
        else:
            last = float(w.input[-1])
            normalized.append(replace(w, input=w.input - last, target=w.target - last,
                                      scale=1.0, offset=last))

    def inverse(ws: list[Window]) -> list[Window]:
        return [replace(w, input=w.input * w.scale + w.offset,
                        target=w.target * w.scale + w.offset,
                        scale=1.0, offset=0.0) for w in ws]

    return normalized, inverse


def denormalize_forecast(window: Window, yhat: np.ndarray) -> np.ndarray:
    """Map a forecast in the window's normalized units back to original units."""
    return yhat * window.scale + window.offset


def prepared_windows(split: SplitDataset, part: str, input_size: int, horizon: int,
                     mode: str) -> list[Window]:
    """Cut only ``part`` ("train", "val" or "test") of ``split`` into windows and
    normalize them with the training-region scales of ``split``."""
    if part not in ("train", "val", "test"):
        raise ConfigError(f"unknown window part '{part}'")
    windows = getattr(split, f"{part}_windows")(input_size, horizon)
    normalized, _ = normalize(windows, mode, median_abs_scales(split))
    return normalized


# ---------------------------------------------------------------------------
# The optimization loop
# ---------------------------------------------------------------------------

@dataclass
class HistoryPoint:
    iteration: int
    train_loss: float
    val_mae: float


@dataclass
class TrainResult:
    history: list[HistoryPoint]
    best_val_mae: float
    best_iteration: int


def _stack_windows(windows: list[Window]):
    x = np.stack([w.input for w in windows])
    y = np.stack([w.target for w in windows])
    scales = np.array([w.scale for w in windows])
    offsets = np.array([w.offset for w in windows])
    return x, y, scales, offsets


def _val_mae(model, xv, yv, scales, offsets) -> float:
    fc = engine.value_of(model.forward_batch(xv, tape=None)[0])
    fc = fc * scales[:, None] + offsets[:, None]
    truth = yv * scales[:, None] + offsets[:, None]
    return float(np.mean(np.abs(truth - fc)))


def train(model, windows_train: list[Window], windows_val: list[Window],
          config: TrainConfig) -> TrainResult:
    """Minimize loss + L1 with Adam over shuffled mini-batches.

    Parameters are checkpointed at the best validation MAE (computed on
    denormalized values) and restored before returning; the loop stops early
    after ``early_stop_patience`` evaluations without improvement.
    """
    if not windows_train or not windows_val:
        raise DataError("training requires non-empty train and validation window sets")
    x, y, _, _ = _stack_windows(windows_train)
    xv, yv, v_scales, v_offsets = _stack_windows(windows_val)

    rng = np.random.default_rng(config.seed)
    state = OptimizerState.for_store(model.params)
    n = x.shape[0]
    order = rng.permutation(n)
    cursor = 0

    history: list[HistoryPoint] = []
    best_val = np.inf
    best_iter = 0
    best_snapshot = model.params.snapshot()
    evals_since_best = 0
    running: list[float] = []

    for it in range(1, config.iterations + 1):
        if cursor >= n:
            order = rng.permutation(n)
            cursor = 0
        batch = order[cursor:cursor + config.batch_size]
        cursor += config.batch_size

        tape = engine.GradientTape()
        model.params.zero_grad()
        try:
            forecast = model.forward_batch(x[batch], tape)[0]
            objective = engine.loss(y[batch], forecast, config.loss_kind, tape)
            if config.l1_lambda > 0:
                objective = engine.add(objective, l1_penalty(model.params, config.l1_lambda, tape), tape)
        except NumericsError as exc:
            raise TrainingError(f"non-finite loss at iteration {it}, "
                                f"batch starting at window {int(batch[0])}: {exc}") from exc
        tape.backward(objective)
        try:
            adam_step(model.params, state, lr=config.lr, beta1=config.beta1,
                      beta2=config.beta2, eps=config.eps)
        except TrainingError as exc:
            raise TrainingError(f"iteration {it}: {exc}") from exc
        running.append(float(objective))

        if it % config.eval_every == 0 or it == config.iterations:
            val_mae = _val_mae(model, xv, yv, v_scales, v_offsets)
            history.append(HistoryPoint(iteration=it,
                                        train_loss=float(np.mean(running)),
                                        val_mae=val_mae))
            running = []
            if val_mae < best_val:
                best_val = val_mae
                best_iter = it
                best_snapshot = model.params.snapshot()
                evals_since_best = 0
            else:
                evals_since_best += 1
                if evals_since_best >= config.early_stop_patience:
                    break

    model.params.restore(best_snapshot)
    return TrainResult(history=history, best_val_mae=float(best_val), best_iteration=best_iter)


def write_history_csv(history: list[HistoryPoint], path) -> None:
    """Rows of (iteration, train_loss, val_mae)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("iteration,train_loss,val_mae\n")
        for h in history:
            handle.write(f"{h.iteration},{repr(h.train_loss)},{repr(h.val_mae)}\n")


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

@dataclass
class EnsembleConfig:
    """Independently initialized members averaged into one forecast."""

    n_members: int = 4
    member_seeds: list[int] | None = None

    def __post_init__(self):
        if self.n_members < 1:
            raise ConfigError(f"an ensemble needs at least one member, got {self.n_members}")
        if self.member_seeds is not None and len(self.member_seeds) != self.n_members:
            raise ConfigError(f"{len(self.member_seeds)} seeds given for "
                              f"{self.n_members} members")

    def resolved_seeds(self, base_seed: int) -> list[int]:
        if self.member_seeds is not None:
            return list(self.member_seeds)
        return [base_seed + k for k in range(self.n_members)]


@dataclass
class TrainedMember:
    model: object
    result: TrainResult
    seed: int


def parallel_map(fn, items, jobs: int) -> list:
    """``[fn(x) for x in items]`` in item order, on ``jobs`` threads when jobs > 1.

    This is the one fan-out behind every ``--jobs`` option.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return [fn(x) for x in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def train_ensemble(model_config, windows_train: list[Window], windows_val: list[Window],
                   train_config: TrainConfig, ensemble: EnsembleConfig,
                   jobs: int = 1) -> list[TrainedMember]:
    """Build and train n independent members differing only in their seed."""
    seeds = ensemble.resolved_seeds(train_config.seed)

    def run_member(seed: int) -> TrainedMember:
        try:
            member = build_any(model_config, seed)
            cfg = replace(train_config, seed=seed)
            result = train(member, windows_train, windows_val, cfg)
        except Exception as exc:
            raise TrainingError(f"ensemble member (seed={seed}) failed: {exc}") from exc
        return TrainedMember(model=member, result=result, seed=seed)

    return parallel_map(run_member, seeds, jobs)


def _member_models(members):
    """The members' models; at least one, all with the same (input_size, horizon)."""
    models = [m.model if isinstance(m, TrainedMember) else m for m in members]
    if not models:
        raise ConfigError("an ensemble forecast needs at least one member")
    first = models[0]
    for m in models[1:]:
        if m.input_size != first.input_size or m.horizon != first.horizon:
            raise ConfigError("ensemble members disagree on (input_size, horizon)")
    return models


def ensemble_forecast(members, y_in) -> np.ndarray:
    """Elementwise arithmetic mean of the member forecasts, in list order."""
    models = _member_models(members)
    acc = None
    for m in models:
        fc = m.forward(y_in).forecast
        acc = fc.copy() if acc is None else acc + fc
    return acc / len(models)


def ensemble_forecast_batch(members, x) -> np.ndarray:
    """Mean member forecast over a (N, L) batch."""
    models = _member_models(members)
    acc = None
    for m in models:
        fc = engine.value_of(m.forward_batch(x, tape=None)[0])
        acc = fc.copy() if acc is None else acc + fc
    return acc / len(models)
