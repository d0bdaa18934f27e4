"""Windowing, tail splits, normalization, the optimization loop and ensembles."""

from __future__ import annotations

import concurrent.futures
import ctypes
import itertools
import os
import threading
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from . import engine
from .data import Series, TimeSeriesDataset
from .errors import ConfigError, DataError, NumericsError, TrainingError
from .model import build_any, input_vector
from .params import OptimizerState, adam_step, l1_penalty

NORMALIZATION_MODES = ("none", "per-series-median", "per-window-last")
# Rows per block of a batch forecast (``ensemble_forecast_batch``).
BATCH_ROWS = 256


@dataclass(frozen=True)
class Window:
    """One training example: L input lags and the H-step target that follows them.

    ``scale`` and ``offset`` record the affine map back to original units:
    original = normalized * scale + offset. The builders' windows are read-only
    views into one buffer per series: copy an array before you modify it.
    """

    series_id: str
    input: np.ndarray
    target: np.ndarray
    t_start: int
    scale: float = 1.0
    offset: float = 0.0
    # (buffer, input start in it), set by _view_window only; ``replace`` drops it
    _view: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __getstate__(self):
        # a copy or unpickled window owns writable arrays, so it must not keep the buffer
        return {k: v for k, v in self.__dict__.items() if k != "_view"}

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
    # Adam's constants (Kingma & Ba's defaults); no run sets them.
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8

    def __post_init__(self):
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if not (np.isfinite(self.l1_lambda) and self.l1_lambda >= 0):
            raise ConfigError(f"l1 lambda must be finite and >= 0, got {self.l1_lambda}")
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

def _view_window(buf: np.ndarray, pos: int, input_size: int, horizon: int,
                 **fields) -> Window:
    """A window whose input and target are views into ``buf`` from ``pos`` on."""
    cut = pos + input_size
    w = Window(input=buf[pos:cut], target=buf[cut:cut + horizon], **fields)
    object.__setattr__(w, "_view", (buf, pos))
    return w


def _check_window_sizes(input_size: int, horizon: int, stride: int) -> None:
    """Every window builder's first check, made whatever its series or regions hold."""
    for name, size in (("input_size", input_size), ("horizon", horizon), ("stride", stride)):
        if size < 1:
            raise ConfigError(f"{name} must be >= 1, got {size}")


def _cut_windows(values, t0: int, input_size: int, horizon: int, stride: int,
                 series_id: str) -> list[Window]:
    """Windows at t0, t0 + stride, ... of ``values`` (whose first point is time
    t0), as views into one read-only float64 copy of it."""
    buf = np.array(values, dtype=np.float64)
    buf.flags.writeable = False
    return [_view_window(buf, pos, input_size, horizon, series_id=series_id, t_start=t0 + pos)
            for pos in range(0, len(buf) - input_size - horizon + 1, stride)]


def make_windows(values, input_size: int, horizon: int, stride: int = 1,
                 series_id: str = "series") -> list[Window]:
    """All windows starting at 0, stride, 2*stride, ... that fit in the series."""
    _check_window_sizes(input_size, horizon, stride)
    if len(values) < input_size + horizon:
        raise DataError(f"series '{series_id}' too short for windows: "
                        f"length {len(values)} < {input_size + horizon}")
    return _cut_windows(values, 0, input_size, horizon, stride, series_id)


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

    def train_windows(self, input_size: int, horizon: int, stride: int = 1) -> list[Window]:
        out = []
        for sp in self.splits:
            out.extend(make_windows(sp.series.values[:sp.train_end], input_size, horizon,
                                    stride, series_id=sp.series.id))
        return out

    def _holdout_windows(self, input_size, horizon, stride, lo_attr) -> list[Window]:
        stride = horizon if stride is None else stride
        _check_window_sizes(input_size, horizon, stride)
        out = []
        for sp in self.splits:
            lo = sp.train_end if lo_attr == "val" else sp.val_end
            hi = sp.val_end if lo_attr == "val" else len(sp.series.values)
            if lo + horizon > hi:
                continue
            if lo < input_size:
                raise DataError(f"series '{sp.series.id}' has too little history "
                                f"before its {lo_attr} region for {input_size} lags")
            out.extend(_cut_windows(sp.series.values[lo - input_size:hi], lo - input_size,
                                    input_size, horizon, stride, sp.series.id))
        return out

    def val_windows(self, input_size: int, horizon: int, stride: int | None = None) -> list[Window]:
        return self._holdout_windows(input_size, horizon, stride, "val")

    def test_windows(self, input_size: int, horizon: int, stride: int | None = None) -> list[Window]:
        return self._holdout_windows(input_size, horizon, stride, "test")


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
    return SplitDataset(splits=splits)


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
    """Rescale windows; returns (normalized windows, inverse transform).

    One affine rule, original = normalized * scale + offset: each window holds
    (x - offset) / scale, with (scale, offset) = (1, 0) under none, (its series'
    training-region scale from ``scales``, see ``median_abs_scales``, 0) under
    per-series-median and (1, its last input) under per-window-last. The
    inverse maps back by ``denormalize_forecast``, exact only up to rounding.
    """
    if mode not in NORMALIZATION_MODES:
        raise ConfigError(f"unknown normalization '{mode}'")
    if mode == "per-series-median" and scales is None:
        raise ConfigError("per-series-median normalization needs per-series scales")

    normalized = []
    divided = {}  # id of a window buffer -> that buffer divided by its windows' scale
    for w in windows:
        scale = scales.get(w.series_id) if mode == "per-series-median" else 1.0
        if scale is None:
            raise ConfigError(f"no per-series scale for series '{w.series_id}'")
        offset = float(w.input[-1]) if mode == "per-window-last" else 0.0
        # by mode, not by offset: -0.0 - (-0.0) is +0.0, but -0.0 / 1.0 stays -0.0
        if w._view and mode != "per-window-last":
            buf, pos = w._view
            if id(buf) not in divided:
                divided[id(buf)] = buf / scale
                divided[id(buf)].flags.writeable = False
            normalized.append(_view_window(divided[id(buf)], pos, len(w.input),
                                           len(w.target), series_id=w.series_id,
                                           t_start=w.t_start, scale=scale, offset=offset))
        else:
            normalized.append(replace(w, input=(w.input - offset) / scale,
                                      target=(w.target - offset) / scale,
                                      scale=scale, offset=offset))

    def inverse(ws: list[Window]) -> list[Window]:
        return [replace(w, input=denormalize_forecast(w, w.input),
                        target=denormalize_forecast(w, w.target),
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
    return np.stack([w.input for w in windows]), np.stack([w.target for w in windows])


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

    Besides the parameters, a run holds Adam's two moments, one set of grads
    and one checkpoint copy, which each improvement overwrites in place. The
    last step's grads are released before returning, so the trained model
    carries none.
    """
    if not windows_train or not windows_val:
        raise DataError("training requires non-empty train and validation window sets")
    xv, yv = _stack_windows(windows_val)
    v_scales = np.array([w.scale for w in windows_val])
    v_offsets = np.array([w.offset for w in windows_val])

    rng = np.random.default_rng(config.seed)
    state = OptimizerState.for_store(model.params)
    n = len(windows_train)
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
        xb, yb = _stack_windows([windows_train[i] for i in batch])

        tape = engine.GradientTape()
        model.params.zero_grad()
        try:
            forecast = model.forward_batch(xb, tape)[0]
            objective = engine.loss(yb, forecast, config.loss_kind, tape)
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
                for name, p in model.params.items():
                    np.copyto(best_snapshot[name], p.value)
                evals_since_best = 0
            else:
                evals_since_best += 1
                if evals_since_best >= config.early_stop_patience:
                    break

    model.params.restore(best_snapshot)
    model.params.zero_grad()
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
        if self.member_seeds is not None and min(self.member_seeds) < 0:
            raise ConfigError(f"member seeds must be >= 0, got {list(self.member_seeds)}")

    def resolved_seeds(self, base_seed: int) -> list[int]:
        if self.member_seeds is not None:
            return list(self.member_seeds)
        return [base_seed + k for k in range(self.n_members)]


@dataclass
class TrainedMember:
    model: object
    result: TrainResult
    seed: int


def _openblas_thread_controls() -> list:
    """The ``set`` thread-count function of every OpenBLAS in this process.

    Libraries are found by path in ``/proc/self/maps``, so the list is empty
    where that file does not exist or numpy links another BLAS.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return []
    setters = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # scipy-openblas wheels prefix the symbols; ILP64 builds suffix them
        for prefix, suffix in itertools.product(("scipy_", ""), ("64_", "_64", "")):
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if set_ is not None:
                set_.argtypes, set_.restype = [ctypes.c_int], None
                setters.append(set_)
                break
    return setters


def _keep_freed_memory() -> None:
    """Keep freed arrays on glibc's heap instead of returning them to the kernel.

    By default glibc maps large blocks separately and unmaps them on free,
    and trims the heap top once a little of it is free (both thresholds start
    at 128 KiB), so every training step and batch forecast faults its arrays'
    pages in again. Blocks up to 32 MiB (glibc's 64-bit maximum) now come
    from the heap, which is trimmed only above 64 MiB free. Both are needed:
    setting only the trim threshold turns off glibc's dynamic mmap threshold,
    and then more blocks are mapped. All threads share one arena, so the
    blocks one worker frees serve the next, instead of each worker thread's
    arena keeping its own. Process-wide; does nothing where libc has no
    ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-8, 1)  # M_ARENA_MAX


_keep_freed_memory()
# All parallelism comes from ``parallel_map``'s threads, so every OpenBLAS runs
# at one thread for good: a product rounds alike whatever the CPU count and
# whichever thread runs it, and no call moves the process-wide count.
for _set_threads in _openblas_thread_controls():
    _set_threads(1)


def child_seed(root_seed: int, index: int) -> int:
    """The seed of task ``index`` under ``root_seed``: one independent stream per
    benchmark cell or search trial, whatever order or thread runs it."""
    return int(np.random.SeedSequence(entropy=root_seed, spawn_key=(index,))
               .generate_state(1, dtype=np.uint64)[0] % (2 ** 63))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_fan_out = threading.local()  # .cpus: a parallel_map worker's share of its caller's CPUs


def parallel_map(fn, items, jobs: int | None = None) -> list:
    """``[fn(x) for x in items]`` in item order, on ``min(jobs, len(items))`` threads.

    This is the one fan-out: of ``evaluate``'s cells (``jobs`` from
    ``--jobs``), and of ensemble members, search trials, batch forecast rows
    and checkpoint loads (``jobs`` left out: one thread per CPU of the
    calling thread). The calling thread's CPUs are every usable CPU, or,
    inside a worker, that worker's share: ``max(1, cpus // workers)`` of its
    own caller's. So a fan-out nested in workers that already fill the CPUs
    runs inline.
    OpenBLAS runs at one thread everywhere (set at import).
    """
    cpus = getattr(_fan_out, "cpus", None) or _usable_cpus()
    jobs = cpus if jobs is None else jobs
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    items = list(items)
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with concurrent.futures.ThreadPoolExecutor(
            max_workers=workers, initializer=setattr,
            initargs=(_fan_out, "cpus", max(1, cpus // workers))) as pool:
        return list(pool.map(fn, items))


def train_ensemble(model_config, windows_train: list[Window], windows_val: list[Window],
                   train_config: TrainConfig, ensemble: EnsembleConfig,
                   jobs: int = 1) -> list[TrainedMember]:
    """Build and train n independent members differing only in their seed.

    The members train at once, one per CPU of the calling thread
    (``parallel_map``), so up to that many members' working sets are held
    together; a member's bytes depend on neither the CPU count nor where it
    runs. ``jobs`` is accepted and unused.
    """
    seeds = ensemble.resolved_seeds(train_config.seed)

    def run_member(seed: int) -> TrainedMember:
        member = build_any(model_config, seed)
        try:
            result = train(member, windows_train, windows_val, replace(train_config, seed=seed))
        except (ConfigError, DataError):
            raise
        except Exception as exc:
            raise TrainingError(f"ensemble member (seed={seed}) failed: {exc}") from exc
        return TrainedMember(model=member, result=result, seed=seed)

    return parallel_map(run_member, seeds)


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


def _member_mean(models, x, out: np.ndarray) -> np.ndarray:
    """Sum the members' forecasts of ``x`` into ``out`` in list order, then divide once."""
    for k, m in enumerate(models):
        fc = engine.value_of(m.forward_batch(x, tape=None)[0])
        if k:
            out += fc
        else:
            out[...] = fc
    out /= len(models)
    return out


def ensemble_forecast(members, y_in) -> np.ndarray:
    """Elementwise arithmetic mean of the member forecasts, in list order."""
    models = _member_models(members)
    y = input_vector(models[0], y_in)
    return _member_mean(models, y, np.empty(models[0].horizon))


def ensemble_forecast_batch(members, x) -> np.ndarray:
    """Mean member forecast over a (N, L) batch.

    The rows are forecast in blocks of ``BATCH_ROWS``, one block per CPU of
    the calling thread at a time (``parallel_map``), so a row's bits depend
    on neither the CPU count nor the caller's ``--jobs``. Each block takes
    the member mean (``_member_mean``) into its rows of one output.
    """
    models = _member_models(members)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != models[0].input_size:
        raise ConfigError(f"expected an input batch of shape (N, {models[0].input_size}), "
                          f"got shape {x.shape}")
    out = np.empty((len(x), models[0].horizon))
    parallel_map(lambda lo: _member_mean(models, x[lo:lo + BATCH_ROWS], out[lo:lo + BATCH_ROWS]),
                 range(0, len(x), BATCH_ROWS))
    return out
