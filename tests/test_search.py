"""Random search: the fixed draw, selection rule, trial log."""

import json
import math

import numpy as np
import pytest

from dmidas import training
from dmidas.errors import ConfigError, DataError, TrainingError
from dmidas.search import random_search, sample_config, write_trial_log

# The first two draws for three seeds, as the search drew them before its draw
# became one fixed function: a reordered or retyped draw changes every trial.
FIRST_DRAWS = {
    0: [{"lr": 0.0018789852661499496, "base_ratio": 0.5, "mlp_width": 128,
         "blocks_per_stack": 1, "l1_lambda": 1.1644223751767876e-06, "l1_enabled": 0},
        {"lr": 0.004231949517477536, "base_ratio": 0.5, "mlp_width": 512,
         "blocks_per_stack": 2, "l1_lambda": 0.000827915939467036, "l1_enabled": 1}],
    1: [{"lr": 0.0010559497443981645, "base_ratio": 0.75, "mlp_width": 512,
         "blocks_per_stack": 1, "l1_lambda": 0.006231574457862897, "l1_enabled": 0},
        {"lr": 0.000420400190372869, "base_ratio": 0.75, "mlp_width": 256,
         "blocks_per_stack": 1, "l1_lambda": 4.333078385228662e-05, "l1_enabled": 1}],
    13: [{"lr": 0.005365314374424761, "base_ratio": 0.75, "mlp_width": 512,
          "blocks_per_stack": 1, "l1_lambda": 1.1111826345336753e-05, "l1_enabled": 1},
         {"lr": 0.00014269176681349103, "base_ratio": 0.75, "mlp_width": 512,
          "blocks_per_stack": 2, "l1_lambda": 1.0245260714350284e-06, "l1_enabled": 1}],
}


def draws(seed, n):
    rng = np.random.default_rng(seed)
    return [sample_config(rng) for _ in range(n)]


class TestSampling:
    @pytest.mark.parametrize("seed", sorted(FIRST_DRAWS))
    def test_first_draws_are_pinned(self, seed):
        got = draws(seed, 2)
        assert got == FIRST_DRAWS[seed]
        for drawn, pinned in zip(got, FIRST_DRAWS[seed]):
            assert list(drawn) == list(pinned)
            assert [type(v) for v in drawn.values()] == [type(v) for v in pinned.values()]

    def test_choices_draw_only_their_options(self):
        configs = draws(0, 2000)
        for key, options in (("base_ratio", {0.25, 0.5, 0.75}),
                             ("mlp_width", {128, 256, 512}), ("l1_enabled", {0, 1})):
            assert {c[key] for c in configs} == options

    def test_int_range_covers_all_values(self):
        counts = {1: 0, 2: 0, 3: 0}
        for config in draws(1, 10_000):
            counts[config["blocks_per_stack"]] += 1
        assert all(c > 2000 for c in counts.values())

    def test_loguniform_in_bounds_and_log_spread(self):
        configs = draws(2, 5000)
        for key, lo, hi in (("lr", 1e-4, 1e-2), ("l1_lambda", 1e-6, 1e-2)):
            values = [c[key] for c in configs]
            assert all(lo <= v <= hi for v in values)
            # thirds of the log range should be roughly equally occupied
            logs = (np.log10(values) - math.log10(lo)) / (math.log10(hi) - math.log10(lo))
            assert 0.25 < np.mean(logs < 1 / 3) < 0.42 and 0.25 < np.mean(logs > 2 / 3) < 0.42

    def test_same_seed_same_sequence(self):
        assert draws(5, 3) == draws(5, 3)


class TestRandomSearch:
    def test_budget_one_returns_only_trial(self):
        result = random_search(1, lambda cfg, seed: cfg["lr"], seed=0)
        assert result.best.index == 0
        assert len(result.trials) == 1

    def test_convex_objective_lands_near_minimizer(self):
        # objective (log10 lr + 3)^2 has its minimum at lr = 1e-3, mid-range in log
        def objective(cfg, seed):
            return (math.log10(cfg["lr"]) + 3) ** 2

        result = random_search(50, objective, seed=3)
        assert abs(math.log10(result.best.config["lr"]) + 3) <= 1 / 3

    def test_tie_goes_to_earliest_trial(self):
        result = random_search(5, lambda cfg, seed: 1.0, seed=4)
        assert result.best.index == 0

    def test_failed_trials_continue_and_log(self):
        calls = {"n": 0}

        def objective(cfg, seed):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TrainingError("boom")
            return float(calls["n"])

        result = random_search(3, objective, seed=5)
        assert len(result.trials) == 3
        assert result.trials[0].status.startswith("failed")
        assert result.best.index == 1

    @pytest.mark.parametrize("error", [ConfigError, DataError, TrainingError])
    def test_all_failed_with_one_cause_raises_it(self, error):
        def objective(cfg, seed):
            raise error("always")

        with pytest.raises(error, match=r"^all 3 search trials failed; "
                                        r"trial 0 failed: always$") as raised:
            random_search(3, objective, seed=6)
        assert type(raised.value) is error

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_all_failed_with_mixed_causes_is_a_training_error(self, monkeypatch, cpus):
        monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)

        def objective(cfg, seed):
            raise (ConfigError if cfg["l1_enabled"] else DataError)("differs")

        with pytest.raises(TrainingError, match=r"^all 4 search trials failed; ") as raised:
            random_search(4, objective, seed=0)
        assert type(raised.value) is TrainingError

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_error_outside_the_package_propagates(self, monkeypatch, cpus):
        monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)

        def objective(cfg, seed):
            raise ValueError("a bug")

        with pytest.raises(ValueError, match="a bug"):
            random_search(3, objective, seed=6)

    def test_best_is_min_over_completed(self):
        result = random_search(20, lambda cfg, seed: cfg["lr"], seed=7)
        completed = [t.val_mae for t in result.trials if t.status == "ok"]
        assert result.best.val_mae == min(completed)

    def test_budget_zero_rejected(self):
        with pytest.raises(ConfigError):
            random_search(0, lambda cfg, seed: 0.0)

    def test_deterministic_under_seed(self):
        a = random_search(8, lambda cfg, seed: cfg["lr"], seed=9)
        b = random_search(8, lambda cfg, seed: cfg["lr"], seed=9)
        assert [t.config for t in a.trials] == [t.config for t in b.trials]
        assert [t.seed for t in a.trials] == [t.seed for t in b.trials]

    def test_cpu_count_does_not_change_selection(self, monkeypatch):
        monkeypatch.setattr(training, "_usable_cpus", lambda: 1)
        a = random_search(6, lambda cfg, seed: cfg["lr"], seed=10)
        monkeypatch.setattr(training, "_usable_cpus", lambda: 3)
        b = random_search(6, lambda cfg, seed: cfg["lr"], seed=10)
        assert a.best.config == b.best.config
        assert [t.val_mae for t in a.trials] == [t.val_mae for t in b.trials]

    def test_trial_log_roundtrip(self, tmp_path):
        result = random_search(4, lambda cfg, seed: cfg["lr"], seed=11)
        path = tmp_path / "trials.jsonl"
        write_trial_log(result.trials, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        parsed = [json.loads(line) for line in lines]
        assert [p["index"] for p in parsed] == [0, 1, 2, 3]
        assert all("config" in p and "val_mae" in p and "status" in p for p in parsed)
