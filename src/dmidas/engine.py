"""Reverse-mode automatic differentiation over float64 arrays.

Values flow through traced primitives (affine, relu, pool1d, interpolation,
losses). Each primitive appends exactly one entry to a ``GradientTape``;
replaying the entries in reverse order accumulates exact adjoints into the
``grad`` slot of every participating :class:`Tensor`. Plain numpy arrays
passed to a primitive are treated as constants: no gradient is computed for
them and an all-constant call returns a plain array without recording.

All math is float64. Producing a NaN or Inf anywhere raises
:class:`~dmidas.errors.NumericsError` rather than propagating silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericsError, ShapeError

Array = np.ndarray

POOL_MODES = ("avg", "max", "stride")
LOSS_KINDS = ("mae", "mse")


class Tensor:
    """A float64 array with a gradient slot, produced and consumed by traced ops."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        v = np.asarray(value, dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise NumericsError("non-finite value entering the computation graph")
        self.value = v
        self.grad: Array | None = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self) -> int:
        return self.value.ndim

    def item(self) -> float:
        return float(self.value)

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape}, grad={'set' if self.grad is not None else 'none'})"


@dataclass
class TapeEntry:
    """One recorded primitive: output, ordered inputs and the local backward rule.

    ``backward(g)`` receives the adjoint of the output and returns one adjoint
    per input (``None`` for constants). ``kink_margin`` is the distance from
    the nearest non-differentiable point seen during the forward pass (inf for
    smooth ops); tests use it to reject sample points too close to a kink.
    """

    output: Tensor
    inputs: tuple
    backward: Callable[[Array], Sequence[Array | None]]
    name: str = ""
    kink_margin: float = math.inf


class GradientTape:
    """Ordered record of primitives; reverse replay accumulates adjoints."""

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def record(self, output: Tensor, inputs: tuple, backward, name: str = "",
               kink_margin: float = math.inf) -> None:
        self.entries.append(TapeEntry(output, inputs, backward, name, kink_margin))

    def min_kink_margin(self) -> float:
        """Smallest distance to a kink observed on this tape (inf if all smooth)."""
        return min((e.kink_margin for e in self.entries), default=math.inf)

    def backward(self, root: Tensor, seed: Array | None = None) -> None:
        """Accumulate adjoints of ``root`` into every participating tensor's grad.

        Grads of all tensors on the tape are cleared first, so repeated calls
        never accumulate across runs. ``seed`` defaults to ones.
        """
        if not isinstance(root, Tensor):
            raise ShapeError("backward root must be a Tensor")
        for entry in self.entries:
            entry.output.grad = None
            for t in entry.inputs:
                if isinstance(t, Tensor):
                    t.grad = None
        root.grad = np.ones_like(root.value) if seed is None else np.asarray(seed, dtype=np.float64)
        # Entries were appended in execution order, so reverse order is a
        # valid topological order of the graph.
        for entry in reversed(self.entries):
            g = entry.output.grad
            if g is None:
                continue
            grads = entry.backward(g)
            for t, gt in zip(entry.inputs, grads):
                if gt is None or not isinstance(t, Tensor):
                    continue
                t.grad = gt if t.grad is None else t.grad + gt


def value_of(x) -> Array:
    """The float64 array behind a Tensor or array-like constant."""
    if isinstance(x, Tensor):
        return x.value
    return np.asarray(x, dtype=np.float64)


def _emit(value, inputs: tuple, backward, tape: GradientTape | None, name: str,
          kink_margin: float = math.inf):
    """Wrap an op result: Tensor (and tape entry) if any input is traced."""
    if not any(isinstance(t, Tensor) for t in inputs):
        out = np.asarray(value, dtype=np.float64)
        if not np.all(np.isfinite(out)):
            raise NumericsError(f"non-finite result from '{name}'")
        return out
    out = Tensor(value)
    if tape is not None:
        tape.record(out, inputs, backward, name=name, kink_margin=kink_margin)
    return out


# ---------------------------------------------------------------------------
# Traced primitives
# ---------------------------------------------------------------------------

def affine(x, w, b, tape: GradientTape | None = None):
    """x @ w + b with the bias broadcast over rows; x may be a vector or a matrix."""
    xv, wv, bv = value_of(x), value_of(w), value_of(b)
    if wv.ndim != 2 or bv.ndim != 1:
        raise ShapeError(f"affine expects matrix w and vector b, got w{wv.shape} b{bv.shape}")
    if xv.ndim not in (1, 2) or xv.shape[-1] != wv.shape[0] or bv.shape[0] != wv.shape[1]:
        raise ShapeError(f"affine shape mismatch: x{xv.shape} w{wv.shape} b{bv.shape}")
    # A vector is a one-row batch: the same BLAS calls serve both ranks.
    x2 = xv.reshape(-1, wv.shape[0])
    out = (x2 @ wv + bv).reshape(xv.shape[:-1] + bv.shape)
    need_x, need_w, need_b = (isinstance(t, Tensor) for t in (x, w, b))

    def backward(g):
        g2 = g.reshape(-1, wv.shape[1])
        gx = (g2 @ wv.T).reshape(xv.shape) if need_x else None
        gw = x2.T @ g2 if need_w else None
        gb = g2.sum(axis=0) if need_b else None
        return gx, gw, gb

    return _emit(out, (x, w, b), backward, tape, "affine")


def relu(x, tape: GradientTape | None = None):
    """Elementwise max(0, x); the subgradient at 0 is 0."""
    xv = value_of(x)
    mask = xv > 0.0
    margin = float(np.min(np.abs(xv))) if xv.size else math.inf

    def backward(g):
        return (g * mask,)

    return _emit(np.where(mask, xv, 0.0), (x,), backward, tape, "relu", kink_margin=margin)


@lru_cache(maxsize=None)
def _pool_indices(length: int, kernel: int, stride: int) -> Array:
    starts = np.arange((length - kernel) // stride + 1) * stride
    idx = starts[:, None] + np.arange(kernel)[None, :]
    idx.setflags(write=False)
    return idx


def pool1d(x, kernel: int, stride: int | None = None, mode: str = "avg",
           tape: GradientTape | None = None):
    """Downsample the last axis with avg, max, or plain stride sampling.

    Window w covers indices [w*stride, w*stride + kernel). Gradients: avg
    spreads 1/kernel over the window, max routes to the first argmax, stride
    routes to the window's first element.
    """
    xv = value_of(x)
    stride = kernel if stride is None else stride
    if mode not in POOL_MODES:
        raise ConfigError(f"unknown pooling mode '{mode}', expected one of {POOL_MODES}")
    if kernel < 1 or stride < 1:
        raise ConfigError(f"pooling kernel and stride must be >= 1, got {kernel}, {stride}")
    if xv.ndim not in (1, 2):
        raise ShapeError(f"pool1d expects a vector or matrix, got shape {xv.shape}")
    length = xv.shape[-1]
    if kernel > length:
        raise ConfigError(f"pooling kernel {kernel} exceeds input length {length}")
    windows = xv[..., _pool_indices(length, kernel, stride)]
    margin = math.inf
    if mode == "avg":
        out = windows.mean(axis=-1)
    elif mode == "max":
        out = windows.max(axis=-1)
        if kernel >= 2:
            part = np.partition(windows, kernel - 2, axis=-1)
            margin = float(np.min(part[..., -1] - part[..., -2]))
    else:
        # A contiguous copy, like the gather it replaces: BLAS rounds a
        # strided operand differently in the next affine.
        out = windows[..., 0].copy()

    def backward(g):
        # Offset j of every window lands on the strided slice j, j+stride, ...
        gx = np.zeros_like(xv)
        span = stride * (out.shape[-1] - 1) + 1
        argmax = windows.argmax(axis=-1) if mode == "max" else None
        share = g / kernel if mode == "avg" else g
        for j in range(1 if mode == "stride" else kernel):
            if mode == "max":
                share = np.where(argmax == j, g, 0.0)
            gx[..., j:j + span:stride] += share
        return (gx,)

    return _emit(out, (x,), backward, tape, f"pool1d[{mode}]", kink_margin=margin)


@lru_cache(maxsize=None)
def interpolation_matrix(knots: int, horizon: int) -> Array:
    """Weights mapping ``knots`` uniformly spaced coefficients to ``horizon`` steps.

    Knot k sits at real position k * (horizon / knots). Each output step t is
    the linear blend of its surrounding knots; steps past the last knot extend
    the final segment's slope (a single knot is held constant). Row t of the
    returned (horizon, knots) matrix holds the blend weights for step t, so
    the map is ``theta @ M.T`` and its Jacobian is exactly M.
    """
    if knots < 1:
        raise ConfigError("interpolation needs at least one knot")
    if knots > horizon:
        raise ConfigError(f"knot count {knots} exceeds horizon {horizon}")
    weights = np.zeros((horizon, knots))
    if knots == 1:
        weights[:, 0] = 1.0
        weights.setflags(write=False)
        return weights
    for t in range(horizon):
        pos = t * knots / horizon
        k1 = min(int(pos), knots - 2)
        frac = pos - k1
        weights[t, k1] = 1.0 - frac
        weights[t, k1 + 1] = frac
    weights.setflags(write=False)
    return weights


def project(theta, basis: Array, tape: GradientTape | None = None):
    """theta @ basis.T for a fixed (n_out, n_coeff) basis matrix."""
    tv = value_of(theta)
    if tv.shape[-1] != basis.shape[1]:
        raise ShapeError(f"projection mismatch: theta{tv.shape} basis{basis.shape}")
    out = tv @ basis.T

    def backward(g):
        gt = g @ basis
        return (gt,)

    return _emit(out, (theta,), backward, tape, "project")


@lru_cache(maxsize=None)
def _interpolation_taps(knots: int, horizon: int) -> tuple[Array, Array, Array, Array, Array]:
    """``interpolation_matrix(knots, horizon)`` and its two taps per row.

    Row t of the matrix is zero outside columns k1[t] and k2[t], so step t is
    ``a[t] * theta[k1[t]] + b[t] * theta[k2[t]]``. k1 is the row's first
    nonzero column, capped at the last segment's start (a row can hold a zero
    weight at k1 when its step falls exactly on the last knot). A single knot
    has one tap: b is 0 and k2 stays in range at column 0.
    """
    m = interpolation_matrix(knots, horizon)
    rows = np.arange(horizon)
    k1 = np.minimum(np.argmax(m != 0.0, axis=1), max(knots - 2, 0))
    k2 = np.minimum(k1 + 1, knots - 1)
    a = m[rows, k1]
    b = m[rows, k2] if knots > 1 else np.zeros(horizon)
    for arr in (k1, k2, a, b):
        arr.setflags(write=False)
    return m, k1, k2, a, b


def interp_upsample(theta, horizon: int, tape: GradientTape | None = None):
    """Stretch coefficients over ``horizon`` steps by piecewise-linear interpolation.

    A single window (1-D ``theta``) gathers its two taps per step; a batch
    multiplies by the dense matrix, where BLAS is faster than the gather.
    """
    tv = value_of(theta)
    knots = tv.shape[-1]
    if tv.ndim != 1:
        return project(theta, interpolation_matrix(knots, horizon), tape)
    m, k1, k2, a, b = _interpolation_taps(knots, horizon)

    def backward(g):
        return (g @ m,)

    return _emit(a * tv[k1] + b * tv[k2], (theta,), backward, tape, "project")


def loss(y, yhat, kind: str = "mae", tape: GradientTape | None = None):
    """Mean absolute or mean squared error as a traced scalar."""
    if kind not in LOSS_KINDS:
        raise ConfigError(f"unknown loss kind '{kind}', expected one of {LOSS_KINDS}")
    yv, yh = value_of(y), value_of(yhat)
    if yv.shape != yh.shape:
        raise ShapeError(f"loss length mismatch: y{yv.shape} vs yhat{yh.shape}")
    if yv.size == 0:
        raise ShapeError("loss of empty vectors is undefined")
    diff = yh - yv
    n = diff.size
    margin = math.inf
    if kind == "mae":
        out = np.abs(diff).mean()
        factor = np.sign(diff) / n
        margin = float(np.min(np.abs(diff)))
    else:
        out = np.mean(diff * diff)
        factor = 2.0 * diff / n
    need_y, need_yhat = isinstance(y, Tensor), isinstance(yhat, Tensor)

    def backward(g):
        gyh = g * factor if need_yhat else None
        gy = -(g * factor) if need_y else None
        return gy, gyh

    return _emit(out, (y, yhat), backward, tape, f"loss[{kind}]", kink_margin=margin)


def add(a, b, tape: GradientTape | None = None):
    """Elementwise sum of two same-shaped values."""
    av, bv = value_of(a), value_of(b)
    if av.shape != bv.shape:
        raise ShapeError(f"add shape mismatch: {av.shape} vs {bv.shape}")

    def backward(g):
        return g, g

    return _emit(av + bv, (a, b), backward, tape, "add")


def sub(a, b, tape: GradientTape | None = None):
    """Elementwise difference of two same-shaped values."""
    av, bv = value_of(a), value_of(b)
    if av.shape != bv.shape:
        raise ShapeError(f"sub shape mismatch: {av.shape} vs {bv.shape}")

    def backward(g):
        return g, -g

    return _emit(av - bv, (a, b), backward, tape, "sub")


def tsum(x, tape: GradientTape | None = None):
    """Sum of all elements as a traced scalar."""
    xv = value_of(x)

    def backward(g):
        return (np.broadcast_to(g, xv.shape).copy(),)

    return _emit(xv.sum(), (x,), backward, tape, "tsum")


def scale(x, c: float, tape: GradientTape | None = None):
    """Multiply by a python constant."""
    xv = value_of(x)

    def backward(g):
        return (g * c,)

    return _emit(xv * c, (x,), backward, tape, "scale")


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    """Outcome of comparing tape adjoints against central finite differences."""

    max_rel_error: float
    tol: float
    n_coordinates: int
    passed: bool

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"grad check {status}: max relative error {self.max_rel_error:.3e} "
                f"over {self.n_coordinates} coordinates (tol {self.tol:.1e})")


def grad_check(f, xs: Sequence[Tensor], eps: float = 1e-6, tol: float = 1e-4) -> GradCheckReport:
    """Check the tape gradient of scalar ``f(*xs, tape=...)`` per coordinate.

    The relative error per coordinate is |analytic - numeric| divided by
    max(1, |analytic|, |numeric|), which behaves like an absolute tolerance
    for near-zero gradients. The caller is responsible for choosing points
    away from kinks (see ``GradientTape.min_kink_margin``).
    """
    xs = list(xs)
    tape = GradientTape()
    out = f(*xs, tape=tape)
    if not isinstance(out, Tensor) or out.value.shape != ():
        raise ConfigError("grad_check requires a traced scalar-valued function")
    tape.backward(out)
    analytic = [x.grad.copy() if x.grad is not None else np.zeros_like(x.value) for x in xs]

    worst = 0.0
    n_coords = 0
    for x, ana in zip(xs, analytic):
        flat_ana = ana.reshape(-1)
        for j in range(x.value.size):
            orig = float(x.value.flat[j])
            x.value.flat[j] = orig + eps
            f_plus = float(f(*xs, tape=None))
            x.value.flat[j] = orig - eps
            f_minus = float(f(*xs, tape=None))
            x.value.flat[j] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(flat_ana[j])
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, rel)
            n_coords += 1
    return GradCheckReport(max_rel_error=worst, tol=tol, n_coordinates=n_coords,
                           passed=worst < tol)
