"""Seeded random search over a fixed hyperparameter draw."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DmidasError, TrainingError
from .training import child_seed, parallel_map


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _choice(rng: np.random.Generator, options: tuple):
    return options[int(rng.integers(0, len(options)))]


def sample_config(rng: np.random.Generator) -> dict:
    """One draw of learning rate, expressivity base, width, depth and L1 strength.

    The L1 axis pairs a magnitude with an on/off switch so that exactly-zero
    regularization stays reachable; resolve with l1_lambda * l1_enabled.
    """
    return {"lr": _log_uniform(rng, 1e-4, 1e-2),
            "base_ratio": _choice(rng, (0.25, 0.5, 0.75)),
            "mlp_width": _choice(rng, (128, 256, 512)),
            "blocks_per_stack": int(rng.integers(1, 4)),
            "l1_lambda": _log_uniform(rng, 1e-6, 1e-2),
            "l1_enabled": _choice(rng, (0, 1))}


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


def random_search(budget: int, objective, seed: int = 0) -> SearchResult:
    """Evaluate ``budget`` configs from ``sample_config``; return the lowest validation MAE.

    ``objective(config, trial_seed)`` returns the validation MAE for one
    config; the per-trial seed is derived deterministically from the search
    seed. An objective's ``DmidasError`` marks the trial failed and the search
    continues; any other exception propagates. Ties go to the earliest trial.
    If every trial fails, the search raises ``ConfigError`` when every failure
    was one, ``DataError`` likewise, and ``TrainingError`` otherwise. Trials
    run at once, one per CPU of the calling thread (``parallel_map``).
    """
    if budget < 1:
        raise ConfigError(f"search budget must be >= 1, got {budget}")
    rng = np.random.default_rng(seed)
    drawn = []
    for index in range(budget):
        config = sample_config(rng)
        drawn.append((index, config, child_seed(seed, index)))

    def run_trial(args) -> tuple[Trial, type | None]:
        """The trial and the class of the error that failed it (None if it ran)."""
        index, config, trial_seed = args
        start = time.perf_counter()
        try:
            val = float(objective(config, trial_seed))
            status, cause = "ok", None
        except DmidasError as exc:
            val = None
            status, cause = f"failed: {exc}", type(exc)
        return (Trial(index=index, config=config, val_mae=val, seed=trial_seed,
                      status=status, wall_time=time.perf_counter() - start), cause)

    outcomes = parallel_map(run_trial, drawn)
    trials = [t for t, _ in outcomes]

    best = None
    for t in trials:
        if t.status == "ok" and (best is None or t.val_mae < best.val_mae):
            best = t
    if best is None:
        shared = next((c for c in (ConfigError, DataError)
                       if all(issubclass(cause, c) for _, cause in outcomes)), TrainingError)
        raise shared(f"all {len(trials)} search trials failed; trial 0 {trials[0].status}")
    return SearchResult(best=best, trials=trials)


def write_trial_log(trials: list[Trial], path) -> None:
    """One JSON object per line, in trial order."""
    with open(path, "w", encoding="utf-8") as handle:
        for t in trials:
            handle.write(t.to_json() + "\n")
