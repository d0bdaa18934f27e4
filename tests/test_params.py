"""Parameter store, L1 penalty and Adam behavior."""

import numpy as np
import pytest

from dmidas.engine import GradientTape, grad_check
from dmidas.errors import ConfigError, TrainingError
from dmidas.params import (OptimizerState, ParameterStore, adam_step, l1_penalty,
                           uniform_fan_in)


def make_store(values):
    store = ParameterStore()
    for name, (val, kind) in values.items():
        store.add(name, val, kind)
    return store


class TestParameterStore:
    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.add("w", np.ones(2))
        with pytest.raises(ConfigError):
            store.add("w", np.ones(2))

    def test_missing_name_is_config_error(self):
        store = ParameterStore()
        with pytest.raises(ConfigError, match="missing parameter 'nope'"):
            store["nope"]

    def test_snapshot_restore_roundtrip(self):
        store = make_store({"w": (np.array([1.0, 2.0]), "weight")})
        snap = store.snapshot()
        store["w"].value[...] = 99.0
        store.restore(snap)
        np.testing.assert_array_equal(store["w"].value, [1.0, 2.0])

    def test_weights_excludes_biases(self):
        store = make_store({"w": (np.ones(2), "weight"), "b": (np.ones(2), "bias")})
        assert [p.name for p in store.weights()] == ["w"]

    def test_n_parameters(self):
        store = make_store({"w": (np.ones((2, 3)), "weight"), "b": (np.ones(3), "bias")})
        assert store.n_parameters() == 9

    def test_uniform_fan_in_bounds(self):
        rng = np.random.default_rng(0)
        vals = uniform_fan_in(rng, 16, (1000,))
        assert np.all(np.abs(vals) <= 0.25)


class TestL1Penalty:
    def test_all_zero_parameters(self):
        store = make_store({"w": (np.zeros(3), "weight")})
        assert float(l1_penalty(store, 0.1)) == 0.0

    def test_hand_value(self):
        store = make_store({"w": (np.array([1.0, -2.0, 3.0]), "weight")})
        assert float(l1_penalty(store, 0.1)) == pytest.approx(0.6)

    def test_lambda_zero(self):
        store = make_store({"w": (np.array([5.0, -7.0]), "weight")})
        assert float(l1_penalty(store, 0.0)) == 0.0

    def test_negative_lambda_rejected(self):
        store = make_store({"w": (np.ones(1), "weight")})
        with pytest.raises(ConfigError):
            l1_penalty(store, -0.1)

    def test_biases_excluded(self):
        store = make_store({"w": (np.array([1.0]), "weight"),
                            "b": (np.array([100.0]), "bias")})
        assert float(l1_penalty(store, 1.0)) == 1.0

    def test_grad_matches_finite_differences_away_from_zero(self):
        store = make_store({"w": (np.array([1.0, -2.0, 0.5]), "weight")})

        def f(w, tape=None):
            return l1_penalty(store, 0.3, tape)

        report = grad_check(f, [store["w"]])
        assert report.passed, str(report)

    def test_subgradient_zero_at_zero_entries(self):
        store = make_store({"w": (np.array([0.0, 2.0]), "weight")})
        tape = GradientTape()
        out = l1_penalty(store, 1.0, tape)
        tape.backward(out)
        np.testing.assert_array_equal(store["w"].grad, [0.0, 1.0])


class TestAdam:
    def test_zero_gradient_is_noop_on_fresh_state(self):
        store = make_store({"w": (np.array([1.0, -2.0]), "weight")})
        state = OptimizerState.for_store(store)
        store["w"].grad = np.zeros(2)
        adam_step(store, state, lr=0.1)
        np.testing.assert_array_equal(store["w"].value, [1.0, -2.0])
        assert state.step == 1

    def test_zero_gradient_noop_with_decayed_second_moment(self):
        store = make_store({"w": (np.array([3.0]), "weight")})
        state = OptimizerState(m={"w": np.zeros(1)}, v={"w": np.array([0.5])}, step=4)
        store["w"].grad = np.zeros(1)
        adam_step(store, state, lr=0.1)
        np.testing.assert_array_equal(store["w"].value, [3.0])

    def test_single_step_hand_evaluation(self):
        store = make_store({"w": (np.array([0.0]), "weight")})
        state = OptimizerState.for_store(store)
        store["w"].grad = np.array([1.0])
        adam_step(store, state, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        assert abs(float(store["w"].value[0]) - (-0.1)) < 1e-8

    def test_two_runs_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(77)
            store = make_store({"w": (rng.normal(size=4), "weight")})
            state = OptimizerState.for_store(store)
            for _ in range(25):
                store["w"].grad = np.sin(store["w"].value)
                adam_step(store, state, lr=0.01)
            return store["w"].value

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_nonfinite_gradient_names_parameter(self):
        store = make_store({"bad_layer": (np.zeros(2), "weight")})
        state = OptimizerState.for_store(store)
        store["bad_layer"].grad = np.array([1.0, np.nan])
        with pytest.raises(TrainingError, match="bad_layer"):
            adam_step(store, state)

    def test_nonfinite_gradient_changes_nothing(self):
        store = make_store({"a": (np.ones(2), "weight"), "b": (np.ones(2), "weight")})
        state = OptimizerState.for_store(store)
        store["a"].grad = np.array([1.0, 2.0])
        store["b"].grad = np.array([1.0, np.nan])
        with pytest.raises(TrainingError, match="'b'"):
            adam_step(store, state)
        np.testing.assert_array_equal(store["a"].value, [1.0, 1.0])
        assert state.step == 0
        assert not state.m["a"].any() and not state.v["a"].any()

    def test_accumulator_shapes_mirror_parameters(self):
        store = make_store({"w": (np.ones((3, 2)), "weight"), "b": (np.ones(2), "bias")})
        state = OptimizerState.for_store(store)
        for name, p in store.items():
            assert state.m[name].shape == p.value.shape
            assert state.v[name].shape == p.value.shape

    def test_step_counter_strictly_increases(self):
        store = make_store({"w": (np.zeros(1), "weight")})
        state = OptimizerState.for_store(store)
        seen = []
        for _ in range(3):
            adam_step(store, state)
            seen.append(state.step)
        assert seen == [1, 2, 3]

    def test_missing_grad_counts_as_zero(self):
        store = make_store({"w": (np.array([2.0]), "weight")})
        state = OptimizerState.for_store(store)
        adam_step(store, state, lr=0.5)
        np.testing.assert_array_equal(store["w"].value, [2.0])
