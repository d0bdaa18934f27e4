"""Named parameter registry, initialization, L1 penalty and the Adam update."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import GradientTape, Tensor, _emit, affine
from .errors import ConfigError, TrainingError

PARAM_KINDS = ("weight", "bias")


class Param(Tensor):
    """Learnable tensor with its registry name and kind (weight or bias)."""

    __slots__ = ("name", "kind")

    def __init__(self, name: str, value, kind: str = "weight"):
        super().__init__(np.array(value, dtype=np.float64))
        if kind not in PARAM_KINDS:
            raise ConfigError(f"unknown parameter kind '{kind}'")
        self.name = name
        self.kind = kind

    def __repr__(self) -> str:
        return f"Param({self.name!r}, shape={self.value.shape}, kind={self.kind!r})"


class ParameterStore:
    """Flat registry of named learnable tensors with gradient slots."""

    def __init__(self):
        self._params: dict[str, Param] = {}

    def add(self, name: str, value, kind: str = "weight") -> Param:
        if name in self._params:
            raise ConfigError(f"parameter '{name}' registered twice")
        p = Param(name, value, kind)
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Param:
        try:
            return self._params[name]
        except KeyError:
            raise ConfigError(f"missing parameter '{name}'") from None

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def params(self):
        return self._params.values()

    def items(self):
        return self._params.items()

    def weights(self):
        """Weight-kind parameters only (biases excluded)."""
        return [p for p in self._params.values() if p.kind == "weight"]

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self._params.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, arr in snap.items():
            self[name].value[...] = arr


def uniform_fan_in(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / math.sqrt(max(1, fan_in))
    return rng.uniform(-bound, bound, size=shape)


def fan_in_init(rng: np.random.Generator):
    """An initializer for ``register_affine`` that draws ``uniform_fan_in`` values."""
    return lambda name, fan_in, shape: uniform_fan_in(rng, fan_in, shape)


def register_affine(store: ParameterStore, layers, init) -> None:
    """Add a weight and a bias per (name, fan_in, fan_out) layer, in order.

    ``init(param_name, fan_in, shape)`` gives each parameter's initial value.
    """
    for name, fan_in, fan_out in layers:
        store.add(f"{name}.weight", init(f"{name}.weight", fan_in, (fan_in, fan_out)),
                  kind="weight")
        store.add(f"{name}.bias", init(f"{name}.bias", fan_in, (fan_out,)), kind="bias")


def apply_affine(store: ParameterStore, name: str, x, tape: GradientTape | None = None):
    """``x @ weight + bias`` through the layer that ``register_affine`` added as ``name``."""
    return affine(x, store[f"{name}.weight"], store[f"{name}.bias"], tape)


def l1_penalty(store: ParameterStore, lam: float, tape: GradientTape | None = None):
    """lam times the summed absolute value of all weight matrices (biases excluded)."""
    if lam < 0:
        raise ConfigError(f"l1 lambda must be non-negative, got {lam}")
    weights = store.weights()
    if not weights:
        return np.float64(0.0)
    total = lam * sum(float(np.abs(p.value).sum()) for p in weights)

    def margin():
        return min(float(np.min(np.abs(p.value))) for p in weights)

    def backward(g):
        return [g * lam * np.sign(p.value) for p in weights]

    return _emit(total, tuple(weights), backward, tape, "l1_penalty", kink_margin=margin)


@dataclass
class OptimizerState:
    """Per-parameter Adam moment accumulators and the step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_store(cls, store: ParameterStore) -> "OptimizerState":
        return cls(m={n: np.zeros_like(p.value) for n, p in store.items()},
                   v={n: np.zeros_like(p.value) for n, p in store.items()})


def _moment(moments: dict, name: str, like: np.ndarray) -> np.ndarray:
    """``moments[name]``, created at zero only the first time ``name`` is seen."""
    if name not in moments:
        moments[name] = np.zeros_like(like)
    return moments[name]


def adam_step(store: ParameterStore, state: OptimizerState, lr: float = 1e-3,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> OptimizerState:
    """One bias-corrected Adam update in place; missing grads count as zero.

    Kingma & Ba's efficient form (arXiv:1412.6980, section 2): the bias
    corrections fold into the step size lr * sqrt(1 - beta2^t) / (1 - beta1^t)
    and into eps * sqrt(1 - beta2^t), so every pass runs in place through one
    scratch array. Every grad is checked before anything changes, so a
    non-finite grad leaves the params and ``state`` as they were.
    """
    for name, p in store.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise TrainingError(f"non-finite gradient for parameter '{name}'")
    state.step += 1
    t = state.step
    root_bc2 = math.sqrt(1.0 - beta2 ** t)
    step_size = lr * root_bc2 / (1.0 - beta1 ** t)
    eps_hat = eps * root_bc2
    scratch = np.empty(max((p.value.size for p in store.params()), default=0))
    for name, p in store.items():
        s = scratch[:p.value.size].reshape(p.value.shape)
        m, v = _moment(state.m, name, p.value), _moment(state.v, name, p.value)
        m *= beta1
        v *= beta2
        if p.grad is not None:
            np.multiply(p.grad, 1.0 - beta1, out=s)
            m += s
            np.multiply(p.grad, p.grad, out=s)
            s *= 1.0 - beta2
            v += s
        np.sqrt(v, out=s)
        s += eps_hat
        np.divide(m, s, out=s)
        s *= step_size
        p.value -= s
    return state
