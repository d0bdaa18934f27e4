"""Reverse-mode automatic differentiation over float64 arrays.

Values flow through traced primitives (affine, relu, pool1d, interpolation,
losses). Each primitive appends exactly one entry to a ``GradientTape``;
replaying the entries in reverse order accumulates exact adjoints into the
``grad`` slot of every leaf :class:`Tensor`: one that no entry on the tape
produced, such as a parameter or a tensor the caller made. An op output's
adjoint is dropped once its entry has passed it on, so after a backward pass
only the leaves hold grads. Plain numpy arrays passed to a primitive are
treated as constants: no gradient is computed for them and an all-constant
call returns a plain array without recording.

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
# Steps per chunk of the banded interpolation product (``interpolation_band``).
BAND_STEPS = 64


class Tensor:
    """A float64 array with a gradient slot, produced and consumed by traced ops."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        v = np.asarray(value, dtype=np.float64)
        if not np.isfinite(v).all():
            raise NumericsError("non-finite value entering the computation graph")
        self.value = v
        self.grad: Array | None = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self) -> int:
        return self.value.ndim

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
    smooth ops), or a zero-argument callable that computes it, so that only
    ``GradientTape.min_kink_margin`` pays for it; tests use it to reject
    sample points too close to a kink.
    """

    output: Tensor
    inputs: tuple
    backward: Callable[[Array], Sequence[Array | None]]
    name: str = ""
    kink_margin: float | Callable[[], float] = math.inf


class GradientTape:
    """Ordered record of primitives; reverse replay accumulates adjoints."""

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def record(self, output: Tensor, inputs: tuple, backward, name: str = "",
               kink_margin: float | Callable[[], float] = math.inf) -> None:
        self.entries.append(TapeEntry(output, inputs, backward, name, kink_margin))

    def min_kink_margin(self) -> float:
        """Smallest distance to a kink observed on this tape (inf if all smooth)."""
        return min((e.kink_margin() if callable(e.kink_margin) else e.kink_margin
                    for e in self.entries), default=math.inf)

    def backward(self, root: Tensor, seed: Array | None = None) -> None:
        """Accumulate adjoints of ``root`` into the grad of every leaf it depends on.

        Leaves are the tensors that no entry on this tape produced: parameters
        and the tensors the caller made. They keep their grads after the call.
        Each op output's adjoint is dropped as soon as its entry has passed it
        on, so afterwards every output on the tape, ``root`` included, has
        ``grad is None``. Grads of all tensors on the tape are cleared first,
        so repeated calls never accumulate across runs. ``seed`` defaults to
        ones.
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
        # valid topological order of the graph: every consumer of an entry's
        # output has run before the entry, and its adjoint is complete.
        for entry in reversed(self.entries):
            g, entry.output.grad = entry.output.grad, None
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
          kink_margin: float | Callable[[], float] = math.inf):
    """Wrap an op result: Tensor (and tape entry) if any input is traced."""
    if not any(isinstance(t, Tensor) for t in inputs):
        out = np.asarray(value, dtype=np.float64)
        if not np.isfinite(out).all():
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
    out = x2 @ wv
    out += bv
    out = out.reshape(xv.shape[:-1] + bv.shape)
    need_x, need_w, need_b = (isinstance(t, Tensor) for t in (x, w, b))

    def backward(g):
        g2 = g.reshape(-1, wv.shape[1])
        gx = (g2 @ wv.T).reshape(xv.shape) if need_x else None
        gw = x2.T @ g2 if need_w else None
        gb = g2.sum(axis=0) if need_b else None
        return gx, gw, gb

    return _emit(out, (x, w, b), backward, tape, "affine")


def relu(x, tape: GradientTape | None = None):
    """Elementwise max(0, x); the subgradient at 0 is 0.

    ``maximum`` runs branch-free and lets a NaN through to ``_emit``, which
    raises. It may return either zero for ``-0.0``; adding ``0.0`` makes that
    ``+0.0``, so the output has the bits of ``where(x > 0, x, 0.0)``.
    """
    xv = value_of(x)
    out = np.maximum(xv, 0.0)
    out += 0.0

    def margin():
        return float(np.min(np.abs(xv))) if xv.size else math.inf

    def backward(g):
        return (g * (out > 0.0),)

    return _emit(out, (x,), backward, tape, "relu", kink_margin=margin)


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
    # Offset j of every window is the strided slice j, j+stride, ...; the
    # forward reduces those slices in order, max mode stacks them into its
    # (..., n_out, kernel) windows, and the backward scatters to them.
    span = stride * ((length - kernel) // stride) + 1
    taps = [xv[..., j:j + span:stride] for j in range(kernel)]
    # A contiguous copy: BLAS rounds a strided operand differently in the next affine.
    out = taps[0].copy()
    margin = math.inf
    if mode == "avg":
        for tap in taps[1:]:
            out += tap
        out /= kernel
    elif mode == "max":
        for tap in taps[1:]:
            np.maximum(out, tap, out=out)
        if kernel >= 2:
            def margin():
                part = np.partition(np.stack(taps, axis=-1), kernel - 2, axis=-1)
                return float(np.min(part[..., -1] - part[..., -2]))

    def backward(g):
        gx = np.zeros_like(xv)
        argmax = np.stack(taps, axis=-1).argmax(axis=-1) if mode == "max" else None
        share = g / kernel if mode == "avg" else g
        for j in range(1 if mode == "stride" else kernel):
            if mode == "max":
                share = g * (argmax == j)
            gx[..., j:j + span:stride] += share
        return (gx,)

    return _emit(out, (x,), backward, tape, f"pool1d[{mode}]", kink_margin=margin)


@lru_cache(maxsize=None)
def _taps(knots: int, horizon: int) -> tuple[Array, Array, Array, Array]:
    """Two taps per step: step t blends ``a[t] * theta[k1[t]] + b[t] * theta[k2[t]]``.

    Knot k sits at real position k * (horizon / knots), and step t at
    pos = t * knots / horizon lies on the segment from k1 = min(floor(pos),
    knots - 2) to k2 = k1 + 1, with weights a = 1 - (pos - k1) and
    b = pos - k1. Steps past the last knot extend the final segment's slope.
    A single knot is held constant: k1 = k2 = 0, a = 1 and b = 0.
    """
    if knots < 1:
        raise ConfigError("interpolation needs at least one knot")
    if knots > horizon:
        raise ConfigError(f"knot count {knots} exceeds horizon {horizon}")
    if knots == 1:
        k1 = k2 = np.zeros(horizon, dtype=np.intp)
        a, b = np.ones(horizon), np.zeros(horizon)
    else:
        pos = np.arange(horizon) * knots / horizon
        k1 = np.minimum(pos.astype(np.intp), knots - 2)
        k2 = k1 + 1
        b = pos - k1
        a = 1.0 - b
    for arr in (k1, k2, a, b):
        arr.setflags(write=False)
    return k1, k2, a, b


@lru_cache(maxsize=None)
def interpolation_matrix(knots: int, horizon: int) -> Array:
    """Weights mapping ``knots`` uniformly spaced coefficients to ``horizon`` steps.

    Row t of the returned (horizon, knots) matrix holds the blend weights of
    step t (see ``_taps``), so the map is ``theta @ M.T`` and its Jacobian is
    exactly M. No op builds it: it is the dense reference for the band.
    """
    k1, k2, a, b = _taps(knots, horizon)
    rows = np.arange(horizon)
    weights = np.zeros((horizon, knots))
    weights[rows, k1] += a
    weights[rows, k2] += b
    weights.setflags(write=False)
    return weights


@lru_cache(maxsize=None)
def interpolation_band(knots: int, horizon: int) -> tuple[tuple[int, int, int, int, Array], ...]:
    """The nonzero band of ``interpolation_matrix`` in chunks of ``BAND_STEPS`` steps.

    Each chunk ``(t0, t1, lo, hi, block)`` holds ``M[t0:t1, lo:hi]``, where
    ``[lo, hi)`` spans every knot that steps ``t0..t1-1`` touch. The chunks
    tile the steps in order, and M is zero outside them.
    """
    k1, k2, a, b = _taps(knots, horizon)
    chunks = []
    for t0 in range(0, horizon, BAND_STEPS):
        t1 = min(t0 + BAND_STEPS, horizon)
        lo, hi = int(k1[t0]), int(k2[t1 - 1]) + 1
        rows, block = np.arange(t1 - t0), np.zeros((t1 - t0, hi - lo))
        block[rows, k1[t0:t1] - lo] += a[t0:t1]
        block[rows, k2[t0:t1] - lo] += b[t0:t1]
        block.setflags(write=False)
        chunks.append((t0, t1, lo, hi, block))
    return tuple(chunks)


def _band_backward(g: Array, band: tuple) -> Array:
    """``g @ M`` from the band of M: a knot that two chunks share sums two products."""
    gt = np.zeros(g.shape[:-1] + (band[-1][3],))
    for t0, t1, lo, hi, block in band:
        gt[..., lo:hi] += g[..., t0:t1] @ block
    return gt


def project(theta, basis: Array | None, tape: GradientTape | None = None,
            band: tuple | None = None):
    """theta @ basis.T for a fixed (n_out, n_coeff) basis matrix.

    With ``band`` (the chunks of ``interpolation_band``) in place of
    ``basis``, forward and backward multiply only its blocks.
    """
    tv = value_of(theta)
    n_out, n_coeff = basis.shape if band is None else (band[-1][1], band[-1][3])
    if tv.ndim not in (1, 2) or tv.shape[-1] != n_coeff:
        raise ShapeError(f"projection mismatch: theta{tv.shape} basis{(n_out, n_coeff)}")
    if band is None:
        out = tv @ basis.T
    else:
        out = np.empty(tv.shape[:-1] + (n_out,))
        for t0, t1, lo, hi, block in band:
            np.matmul(tv[..., lo:hi], block.T, out=out[..., t0:t1])

    def backward(g):
        return (g @ basis if band is None else _band_backward(g, band),)

    return _emit(out, (theta,), backward, tape, "project")


def interp_upsample(theta, horizon: int, tape: GradientTape | None = None):
    """Stretch coefficients over ``horizon`` steps by piecewise-linear interpolation.

    M has two nonzeros per row, so nothing multiplies by the dense M: a batch
    goes through ``project`` with the band of M (``interpolation_band``), and
    a single window gathers its two taps per step and takes the same banded
    backward. The band agrees with the dense product to 2 eps of
    ``|theta| @ |M|.T`` forward; backward each knot sums its steps chunk by
    chunk, as accurate as the dense order but not the same. Where one chunk
    covers the horizon (H <= ``BAND_STEPS``) both are bit for bit.
    """
    tv = value_of(theta)
    if tv.ndim not in (1, 2):
        raise ShapeError(f"interp_upsample expects a vector or matrix, got shape {tv.shape}")
    band = interpolation_band(tv.shape[-1], horizon)
    if tv.ndim == 2:
        return project(theta, None, tape, band=band)
    k1, k2, a, b = _taps(tv.shape[-1], horizon)
    return _emit(a * tv[k1] + b * tv[k2], (theta,), lambda g: (_band_backward(g, band),),
                 tape, "project")


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

        def margin():
            return float(np.min(np.abs(diff)))
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
