"""Named parameter registry, initialization, L1 penalty and the Adam update."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import GradientTape, Tensor, _emit
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

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def params(self):
        return self._params.values()

    def items(self):
        return self._params.items()

    def weights(self):
        """Weight-kind parameters only (biases excluded)."""
        return [p for p in self._params.values() if p.kind == "weight"]

    def n_parameters(self) -> int:
        return sum(p.value.size for p in self._params.values())

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


def l1_penalty(store: ParameterStore, lam: float, tape: GradientTape | None = None):
    """lam times the summed absolute value of all weight matrices (biases excluded)."""
    if lam < 0:
        raise ConfigError(f"l1 lambda must be non-negative, got {lam}")
    weights = store.weights()
    if not weights:
        return np.float64(0.0)
    total = lam * sum(float(np.abs(p.value).sum()) for p in weights)
    margin = min(float(np.min(np.abs(p.value))) for p in weights)

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


def adam_step(store: ParameterStore, state: OptimizerState, lr: float = 1e-3,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> OptimizerState:
    """One bias-corrected Adam update in place; missing grads count as zero.

    Every grad is checked before anything changes, so a non-finite grad
    leaves the params and ``state`` as they were.
    """
    for name, p in store.items():
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise TrainingError(f"non-finite gradient for parameter '{name}'")
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in store.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.value)
        m = state.m.setdefault(name, np.zeros_like(p.value))
        v = state.v.setdefault(name, np.zeros_like(p.value))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return state
