"""Seeded random search over a declared hyperparameter space."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TrainingError
from .training import parallel_map


@dataclass(frozen=True)
class Choice:
    name: str
    options: tuple

    def __post_init__(self):
        object.__setattr__(self, "options", tuple(self.options))
        if not self.options:
            raise ConfigError(f"choice dimension '{self.name}' has no options")

    def sample(self, rng: np.random.Generator):
        return self.options[int(rng.integers(0, len(self.options)))]


@dataclass(frozen=True)
class LogUniform:
    name: str
    lo: float
    hi: float

    def __post_init__(self):
        if not (0 < self.lo < self.hi):
            raise ConfigError(f"loguniform '{self.name}' needs 0 < lo < hi, "
                              f"got ({self.lo}, {self.hi})")

    def sample(self, rng: np.random.Generator) -> float:
        return float(math.exp(rng.uniform(math.log(self.lo), math.log(self.hi))))


@dataclass(frozen=True)
class IntRange:
    name: str
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ConfigError(f"int_range '{self.name}' needs lo < hi, "
                              f"got ({self.lo}, {self.hi})")

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.lo, self.hi + 1))


@dataclass(frozen=True)
class SearchSpace:
    dimensions: tuple

    def __post_init__(self):
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        names = [d.name for d in self.dimensions]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate dimension names in search space: {names}")


def default_search_space() -> SearchSpace:
    """Learning rate, expressivity base, width, depth and L1 strength.

    The L1 axis pairs a magnitude with an on/off switch so that exactly-zero
    regularization stays reachable; resolve with l1_lambda * l1_enabled.
    """
    return SearchSpace(dimensions=(
        LogUniform("lr", 1e-4, 1e-2),
        Choice("base_ratio", (0.25, 0.5, 0.75)),
        Choice("mlp_width", (128, 256, 512)),
        IntRange("blocks_per_stack", 1, 3),
        LogUniform("l1_lambda", 1e-6, 1e-2),
        Choice("l1_enabled", (0, 1)),
    ))


def sample_config(space: SearchSpace, rng: np.random.Generator) -> dict:
    """One independent draw per dimension."""
    return {dim.name: dim.sample(rng) for dim in space.dimensions}


@dataclass
class Trial:
    index: int
    config: dict
    val_mae: float | None
    seed: int
    status: str
    wall_time: float

    def to_json(self) -> str:
        return json.dumps({"index": self.index, "config": self.config,
                           "val_mae": self.val_mae, "seed": self.seed,
                           "status": self.status, "wall_time": self.wall_time},
                          sort_keys=True)


@dataclass
class SearchResult:
    best: Trial
    trials: list[Trial]


def random_search(space: SearchSpace, budget: int, objective, seed: int = 0,
                  jobs: int = 1) -> SearchResult:
    """Evaluate ``budget`` sampled configs; return the lowest validation MAE.

    ``objective(config, trial_seed)`` returns the validation MAE for one
    config; the per-trial seed is derived deterministically from the search
    seed. Objective failures mark the trial failed and the search continues;
    ties go to the earliest trial.
    """
    if budget < 1:
        raise ConfigError(f"search budget must be >= 1, got {budget}")
    rng = np.random.default_rng(seed)
    drawn = []
    for index in range(budget):
        config = sample_config(space, rng)
        trial_seed = int(np.random.SeedSequence(entropy=seed, spawn_key=(index,))
                         .generate_state(1, dtype=np.uint64)[0] % (2 ** 63))
        drawn.append((index, config, trial_seed))

    def run_trial(args) -> Trial:
        index, config, trial_seed = args
        start = time.perf_counter()
        try:
            val = float(objective(config, trial_seed))
            status = "ok"
        except Exception as exc:
            val = None
            status = f"failed: {exc}"
        return Trial(index=index, config=config, val_mae=val, seed=trial_seed,
                     status=status, wall_time=time.perf_counter() - start)

    trials = parallel_map(run_trial, drawn, jobs)

    best = None
    for t in trials:
        if t.status == "ok" and (best is None or t.val_mae < best.val_mae):
            best = t
    if best is None:
        raise TrainingError("all search trials failed")
    return SearchResult(best=best, trials=trials)


def write_trial_log(trials: list[Trial], path) -> None:
    """One JSON object per line, in trial order."""
    with open(path, "w", encoding="utf-8") as handle:
        for t in trials:
            handle.write(t.to_json() + "\n")
