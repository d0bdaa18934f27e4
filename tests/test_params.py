"""Parameter store, L1 penalty and Adam behavior."""

import numpy as np
import pytest

from dmidas.engine import GradientTape, affine, grad_check
from dmidas.errors import ConfigError, TrainingError
from dmidas.params import (OptimizerState, ParameterStore, adam_step, apply_affine,
                           fan_in_init, l1_penalty, register_affine, uniform_fan_in)


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

    def test_uniform_fan_in_bounds(self):
        rng = np.random.default_rng(0)
        vals = uniform_fan_in(rng, 16, (1000,))
        assert np.all(np.abs(vals) <= 0.25)


class TestAffineLayers:
    def store(self):
        store = ParameterStore()
        register_affine(store, [("s0.mlp0", 3, 5), ("out", 5, 2)],
                        fan_in_init(np.random.default_rng(0)))
        return store

    def test_registers_a_weight_and_a_bias_per_layer(self):
        store = self.store()
        assert store.names() == ["s0.mlp0.weight", "s0.mlp0.bias", "out.weight", "out.bias"]
        assert [p.kind for p in store.params()] == ["weight", "bias"] * 2
        assert store["s0.mlp0.weight"].shape == (3, 5) and store["out.bias"].shape == (2,)

    def test_apply_is_the_affine_of_the_named_layer(self):
        store = self.store()
        x = np.random.default_rng(1).normal(size=(4, 3))
        tape = GradientTape()
        out = apply_affine(store, "s0.mlp0", x, tape)
        want = affine(x, store["s0.mlp0.weight"].value, store["s0.mlp0.bias"].value)
        assert np.array_equal(out.value, want)
        assert [e.name for e in tape.entries] == ["affine"]
        tape.backward(out)
        assert store["s0.mlp0.weight"].grad is not None and store["out.weight"].grad is None

    def test_missing_layer_names_its_weight(self):
        with pytest.raises(ConfigError, match=r"missing parameter 'mlp9\.weight'"):
            apply_affine(self.store(), "mlp9", np.ones(3))


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

    def test_matches_the_textbook_bias_corrected_update(self):
        rng = np.random.default_rng(11)
        shapes = {"none": (3,), "zero": (2, 2), "w": (5, 4), "b": (4,)}
        store = make_store({n: (rng.normal(size=s), "weight") for n, s in shapes.items()})
        state = OptimizerState.for_store(store)
        ref = {n: (p.value.copy(), np.zeros(p.shape), np.zeros(p.shape))
               for n, p in store.items()}
        lr, beta1, beta2, eps = 1e-2, 0.9, 0.999, 1e-8
        for t in range(1, 51):
            grads = {"none": None, "zero": np.zeros(shapes["zero"]),
                     "w": rng.normal(size=shapes["w"]), "b": rng.normal(size=shapes["b"])}
            for name, g in grads.items():
                store[name].grad = g
            adam_step(store, state, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
            for name, (p, m, v) in ref.items():
                g = np.zeros_like(p) if grads[name] is None else grads[name]
                m = beta1 * m + (1.0 - beta1) * g
                v = beta2 * v + (1.0 - beta2) * g * g
                m_hat = m / (1.0 - beta1 ** t)
                v_hat = v / (1.0 - beta2 ** t)
                ref[name] = (p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v)
        assert state.step == 50
        for name, (p, m, v) in ref.items():
            got = (store[name].value, state.m[name], state.v[name])
            for g, want in zip(got, (p, m, v)):
                np.testing.assert_allclose(g, want, rtol=0,
                                           atol=1e-12 * float(np.max(np.abs(want))))
        np.testing.assert_array_equal(state.m["none"], 0.0)
        np.testing.assert_array_equal(store["zero"].value, ref["zero"][0])

    def test_steps_after_for_store_allocate_no_moments(self, monkeypatch):
        rng = np.random.default_rng(3)
        store = make_store({"w": (rng.normal(size=(4, 3)), "weight"),
                            "b": (rng.normal(size=3), "bias")})
        state = OptimizerState.for_store(store)
        calls = []
        zeros_like = np.zeros_like
        monkeypatch.setattr(np, "zeros_like",
                            lambda *args, **kw: calls.append(args) or zeros_like(*args, **kw))
        for _ in range(2):
            store["w"].grad = rng.normal(size=(4, 3))
            store["b"].grad = rng.normal(size=3)
            adam_step(store, state, lr=0.1)
        assert calls == []

    def test_a_name_missing_from_the_state_starts_at_zero(self):
        values = {"w": (np.array([1.0, -2.0]), "weight"), "b": (np.array([0.5]), "bias")}
        grads = {"w": np.array([0.3, -0.1]), "b": np.array([2.0])}
        fresh, partial = make_store(values), make_store(values)
        fresh_state = OptimizerState.for_store(fresh)
        partial_state = OptimizerState(m={"w": np.zeros(2)}, v={"w": np.zeros(2)})
        for _ in range(2):
            for store, state in ((fresh, fresh_state), (partial, partial_state)):
                for name, g in grads.items():
                    store[name].grad = g
                adam_step(store, state, lr=0.1)
        for name in values:
            np.testing.assert_array_equal(partial[name].value, fresh[name].value)
            np.testing.assert_array_equal(partial_state.m[name], fresh_state.m[name])
            np.testing.assert_array_equal(partial_state.v[name], fresh_state.v[name])
