"""Forecasting blocks: generic, polynomial trend, harmonic seasonality and
pooled-input blocks with interpolated low-resolution coefficients.

Every block maps its input window through an optional pooling stage, a ReLU
MLP and two affine heads producing coefficient vectors; a fixed basis turns
the coefficients into a backcast over the input window and a forecast over
the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import engine
from .engine import GradientTape, interp_upsample, project
from .errors import ConfigError
from .params import ParameterStore, apply_affine, register_affine


def knot_count(ratio: float, n: int) -> int:
    """ceil(ratio * n) with a guard against float representation drift."""
    return max(1, math.ceil(ratio * n - 1e-9))


@dataclass(frozen=True)
class PoolSpec:
    """Pooling stage applied to a block's input (midas blocks only)."""

    kernel: int = 1
    stride: int | None = None
    mode: str = "avg"

    def __post_init__(self):
        if self.kernel < 1:
            raise ConfigError(f"pooling kernel must be >= 1, got {self.kernel}")
        if self.stride is not None and self.stride < 1:
            raise ConfigError(f"pooling stride must be >= 1, got {self.stride}")
        if self.mode not in engine.POOL_MODES:
            raise ConfigError(f"unknown pooling mode '{self.mode}'")

    @property
    def effective_stride(self) -> int:
        return self.kernel if self.stride is None else self.stride

    def output_size(self, length: int) -> int:
        if self.kernel > length:
            raise ConfigError(f"pooling kernel {self.kernel} exceeds input length {length}")
        return (length - self.kernel) // self.effective_stride + 1


@dataclass(frozen=True)
class BlockConfig:
    """Declarative description of a single block."""

    basis: str
    input_size: int
    horizon: int
    mlp_widths: tuple[int, ...] = (512, 512)
    pooling: PoolSpec = field(default_factory=PoolSpec)
    expressivity_ratio: float = 1.0
    poly_degree: int = 2
    n_harmonics: int = 4

    def __post_init__(self):
        if self.basis not in BASES:
            raise ConfigError(f"unknown basis kind '{self.basis}', expected one of {tuple(BASES)}")
        if self.input_size < 1 or self.horizon < 1:
            raise ConfigError(f"input_size and horizon must be >= 1, "
                              f"got {self.input_size}, {self.horizon}")
        object.__setattr__(self, "mlp_widths", tuple(int(w) for w in self.mlp_widths))
        if not self.mlp_widths or any(w < 1 for w in self.mlp_widths):
            raise ConfigError(f"mlp widths must be a non-empty list of positive ints, "
                              f"got {self.mlp_widths}")
        if not 0.0 < self.expressivity_ratio <= 1.0:
            raise ConfigError(f"expressivity ratio must lie in (0, 1], "
                              f"got {self.expressivity_ratio}")
        if self.poly_degree < 0:
            raise ConfigError(f"polynomial degree must be >= 0, got {self.poly_degree}")
        if self.n_harmonics < 1:
            raise ConfigError(f"n_harmonics must be >= 1, got {self.n_harmonics}")
        if self.basis == "midas":
            self.pooling.output_size(self.input_size)  # validates kernel <= L

    def theta_sizes(self) -> tuple[int, int]:
        """(forecast, backcast) coefficient counts for this basis."""
        if self.basis == "generic":
            return self.horizon, self.input_size
        if self.basis == "polynomial":
            return self.poly_degree + 1, self.poly_degree + 1
        if self.basis == "harmonic":
            return 2 * self.n_harmonics, 2 * self.n_harmonics
        r = self.expressivity_ratio
        return knot_count(r, self.horizon), knot_count(r, self.input_size)

    def mlp_input_size(self) -> int:
        if self.basis == "midas":
            return self.pooling.output_size(self.input_size)
        return self.input_size


@dataclass
class BlockOutput:
    """What a block emits for one input: its backcast (None when not asked
    for) and its forecast."""

    backcast: object
    forecast: object


# ---------------------------------------------------------------------------
# Fixed basis matrices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def polynomial_matrix(degree: int, n: int) -> np.ndarray:
    """(n, degree+1) matrix with columns (t/n)^p sampled at t = 0..n-1."""
    t = np.arange(n) / n
    m = np.power.outer(t, np.arange(degree + 1)).astype(np.float64)
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def harmonic_matrix(n_harmonics: int, n: int) -> np.ndarray:
    """(n, 2*n_harmonics) matrix of cos/sin pairs at integer multiples of 1/n."""
    t = np.arange(n)
    cols = []
    for k in range(1, n_harmonics + 1):
        phase = 2.0 * np.pi * k * t / n
        cols.append(np.cos(phase))
        cols.append(np.sin(phase))
    m = np.stack(cols, axis=1)
    m.setflags(write=False)
    return m


def generic_basis(theta, n: int, tape: GradientTape | None = None):
    """Pass-through: the n coefficients are the series themselves."""
    return theta


def polynomial_basis(theta, n: int, tape: GradientTape | None = None):
    """Evaluate sum_p theta[p] * (t/n)^p at t = 0..n-1."""
    degree = engine.value_of(theta).shape[-1] - 1
    return project(theta, polynomial_matrix(degree, n), tape)


def harmonic_basis(theta, n: int, tape: GradientTape | None = None):
    """Evaluate paired cos/sin harmonics weighted by theta at t = 0..n-1."""
    size = engine.value_of(theta).shape[-1]
    if size % 2 != 0 or size < 2:
        raise ConfigError(f"harmonic basis needs an even coefficient count, got {size}")
    return project(theta, harmonic_matrix(size // 2, n), tape)


# Every basis maps (theta, n, tape) to n steps: the horizon for theta_f, the
# input window for theta_b.
BASES = {"generic": generic_basis, "polynomial": polynomial_basis,
         "harmonic": harmonic_basis, "midas": interp_upsample}


# ---------------------------------------------------------------------------
# The block itself
# ---------------------------------------------------------------------------

class Block:
    """A configured block bound to a parameter-name prefix."""

    def __init__(self, config: BlockConfig, prefix: str):
        self.config = config
        self.prefix = prefix

    def layer_sizes(self) -> list[tuple[str, int, int]]:
        """(name, fan_in, fan_out) for every affine layer, in forward order."""
        sizes = []
        fan_in = self.config.mlp_input_size()
        for i, width in enumerate(self.config.mlp_widths):
            sizes.append((f"{self.prefix}.mlp{i}", fan_in, width))
            fan_in = width
        kf, kb = self.config.theta_sizes()
        sizes.append((f"{self.prefix}.theta_f", fan_in, kf))
        sizes.append((f"{self.prefix}.theta_b", fan_in, kb))
        return sizes

    def register(self, store: ParameterStore, init) -> None:
        """Add this block's parameters; ``init`` as in ``params.register_affine``."""
        register_affine(store, self.layer_sizes(), init)

    def forward(self, store: ParameterStore, y_in, tape: GradientTape | None = None,
                backcast: bool = True) -> BlockOutput:
        """The block's forecast and, if ``backcast`` is set, its backcast; without
        it the backcast head and basis are not computed."""
        cfg = self.config
        h = y_in
        if cfg.basis == "midas":
            pool = cfg.pooling
            h = engine.pool1d(h, pool.kernel, pool.effective_stride, pool.mode, tape)
        for i in range(len(cfg.mlp_widths)):
            h = engine.relu(apply_affine(store, f"{self.prefix}.mlp{i}", h, tape), tape)
        theta_f = apply_affine(store, f"{self.prefix}.theta_f", h, tape)
        theta_b = apply_affine(store, f"{self.prefix}.theta_b", h, tape) if backcast else None
        basis = BASES[cfg.basis]
        forecast = basis(theta_f, cfg.horizon, tape)  # theta_f first: the tape's order
        return BlockOutput(backcast=basis(theta_b, cfg.input_size, tape) if backcast else None,
                           forecast=forecast)

    def label(self) -> str:
        if self.config.basis == "midas":
            return f"{self.prefix}:midas(r={self.config.expressivity_ratio:g})"
        return f"{self.prefix}:{self.config.basis}"
