"""Random search: sampling distributions, selection rule, trial log."""

import json
import math

import numpy as np
import pytest

from dmidas.errors import ConfigError, DataError, TrainingError
from dmidas.search import (Choice, IntRange, LogUniform, SearchSpace,
                           default_search_space, random_search, sample_config,
                           write_trial_log)


class TestSampling:
    def test_single_choice_always_selected(self):
        space = SearchSpace(dimensions=(Choice("x", ("a",)),))
        rng = np.random.default_rng(0)
        assert all(sample_config(space, rng)["x"] == "a" for _ in range(100))

    def test_int_range_covers_all_values(self):
        space = SearchSpace(dimensions=(IntRange("n", 1, 4),))
        rng = np.random.default_rng(1)
        counts = {1: 0, 2: 0, 3: 0, 4: 0}
        for _ in range(10_000):
            counts[sample_config(space, rng)["n"]] += 1
        assert all(c > 2000 for c in counts.values())

    def test_loguniform_in_bounds_and_log_spread(self):
        space = SearchSpace(dimensions=(LogUniform("lr", 1e-4, 1e-2),))
        rng = np.random.default_rng(2)
        draws = [sample_config(space, rng)["lr"] for _ in range(5000)]
        assert all(1e-4 <= d <= 1e-2 for d in draws)
        logs = np.log10(draws)
        # thirds of the log range should be roughly equally occupied
        lo = np.mean(logs < -3.3333)
        hi = np.mean(logs > -2.6667)
        assert 0.25 < lo < 0.42 and 0.25 < hi < 0.42

    def test_same_seed_same_sequence(self):
        space = default_search_space()
        a = [sample_config(space, np.random.default_rng(5)) for _ in range(1)]
        b = [sample_config(space, np.random.default_rng(5)) for _ in range(1)]
        assert a == b

    def test_duplicate_dimension_names_rejected(self):
        with pytest.raises(ConfigError):
            SearchSpace(dimensions=(Choice("x", (1,)), IntRange("x", 0, 2)))

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigError):
            LogUniform("lr", 1e-2, 1e-4)
        with pytest.raises(ConfigError):
            IntRange("n", 4, 4)
        with pytest.raises(ConfigError):
            Choice("c", ())


class TestRandomSearch:
    def space(self):
        return SearchSpace(dimensions=(LogUniform("x", 1e-3, 1e3),))

    def test_budget_one_returns_only_trial(self):
        result = random_search(self.space(), 1, lambda cfg, seed: cfg["x"], seed=0)
        assert result.best.index == 0
        assert len(result.trials) == 1

    def test_convex_objective_lands_near_minimizer(self):
        # objective (log10 x - 0)^2 has its minimum at x = 1
        def objective(cfg, seed):
            return (math.log10(cfg["x"])) ** 2

        result = random_search(self.space(), 50, objective, seed=3)
        assert 0.1 <= result.best.config["x"] <= 10.0

    def test_tie_goes_to_earliest_trial(self):
        result = random_search(self.space(), 5, lambda cfg, seed: 1.0, seed=4)
        assert result.best.index == 0

    def test_failed_trials_continue_and_log(self):
        calls = {"n": 0}

        def objective(cfg, seed):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TrainingError("boom")
            return float(calls["n"])

        result = random_search(self.space(), 3, objective, seed=5)
        assert len(result.trials) == 3
        assert result.trials[0].status.startswith("failed")
        assert result.best.index == 1

    def test_all_failed_raises(self):
        def objective(cfg, seed):
            raise DataError("always")

        with pytest.raises(TrainingError, match=r"^all 3 search trials failed; "
                                                r"trial 0 failed: always$"):
            random_search(self.space(), 3, objective, seed=6)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_outside_the_package_propagates(self, jobs):
        def objective(cfg, seed):
            raise ValueError("a bug")

        with pytest.raises(ValueError, match="a bug"):
            random_search(self.space(), 3, objective, seed=6, jobs=jobs)

    def test_best_is_min_over_completed(self):
        result = random_search(self.space(), 20, lambda cfg, seed: cfg["x"], seed=7)
        completed = [t.val_mae for t in result.trials if t.status == "ok"]
        assert result.best.val_mae == min(completed)

    def test_budget_zero_rejected(self):
        with pytest.raises(ConfigError):
            random_search(self.space(), 0, lambda cfg, seed: 0.0)

    def test_deterministic_under_seed(self):
        a = random_search(self.space(), 8, lambda cfg, seed: cfg["x"], seed=9)
        b = random_search(self.space(), 8, lambda cfg, seed: cfg["x"], seed=9)
        assert [t.config for t in a.trials] == [t.config for t in b.trials]
        assert [t.seed for t in a.trials] == [t.seed for t in b.trials]

    def test_jobs_do_not_change_selection(self):
        a = random_search(self.space(), 6, lambda cfg, seed: cfg["x"], seed=10, jobs=1)
        b = random_search(self.space(), 6, lambda cfg, seed: cfg["x"], seed=10, jobs=3)
        assert a.best.config == b.best.config
        assert [t.val_mae for t in a.trials] == [t.val_mae for t in b.trials]

    def test_trial_log_roundtrip(self, tmp_path):
        result = random_search(self.space(), 4, lambda cfg, seed: cfg["x"], seed=11)
        path = tmp_path / "trials.jsonl"
        write_trial_log(result.trials, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        parsed = [json.loads(line) for line in lines]
        assert [p["index"] for p in parsed] == [0, 1, 2, 3]
        assert all("config" in p and "val_mae" in p and "status" in p for p in parsed)
