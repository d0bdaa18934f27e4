"""Block kinds: basis oracles, dimension contracts, smoothness bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmidas import engine
from dmidas.blocks import (Block, BlockConfig, PoolSpec, generic_basis,
                           harmonic_basis, knot_count, polynomial_basis)
from dmidas.engine import GradientTape, Tensor, grad_check, interp_upsample
from dmidas.errors import ConfigError
from dmidas.params import ParameterStore, fan_in_init


def build_block(config, prefix="block0", seed=0):
    store = ParameterStore()
    Block(config, prefix).register(store, fan_in_init(np.random.default_rng(seed)))
    return store


def zero_params(store):
    for p in store.params():
        p.value[...] = 0.0


def count_slope_changes(values, threshold=1e-9):
    d2 = values[2:] - 2 * values[1:-1] + values[:-2]
    return int(np.sum(np.abs(d2) > threshold))


class TestBases:
    def test_generic_is_identity(self):
        f = generic_basis(np.array([1.0, 2.0, 3.0]), 3)
        b = generic_basis(np.array([4.0, 5.0]), 2)
        np.testing.assert_array_equal(f, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(b, [4.0, 5.0])

    def test_generic_zero_theta(self):
        f, b = generic_basis(np.zeros(3), 3), generic_basis(np.zeros(2), 2)
        assert not f.any() and not b.any()

    def test_generic_gradient_is_identity(self):
        theta = Tensor(np.array([1.0, -2.0, 0.3]))
        tape = GradientTape()
        f = generic_basis(theta, 3, tape)
        out = engine.tsum(f, tape)
        tape.backward(out)
        np.testing.assert_array_equal(theta.grad, np.ones(3))

    def test_polynomial_constant(self):
        np.testing.assert_array_equal(polynomial_basis(np.array([2.5]), 4),
                                      np.full(4, 2.5))

    def test_polynomial_linear_ramp(self):
        out = polynomial_basis(np.array([0.0, 1.0]), 4)
        np.testing.assert_allclose(out, [0.0, 0.25, 0.5, 0.75], atol=1e-15)

    def test_polynomial_zero_padding_changes_nothing(self):
        short = polynomial_basis(np.array([1.0]), 5)
        padded = polynomial_basis(np.array([1.0, 0.0, 0.0]), 5)
        np.testing.assert_array_equal(short, padded)

    def test_harmonic_pure_cosine(self):
        n = 12
        out = harmonic_basis(np.array([1.0, 0.0]), n)
        np.testing.assert_allclose(out, np.cos(2 * np.pi * np.arange(n) / n), atol=1e-15)

    def test_harmonic_zero_theta(self):
        assert not engine.value_of(harmonic_basis(np.zeros(4), 10)).any()

    def test_harmonic_mean_over_period_vanishes(self):
        for k in range(1, 5):
            theta = np.zeros(8)
            theta[2 * (k - 1)] = 1.0
            out = harmonic_basis(theta[:2 * k], 24)
            assert abs(float(np.mean(engine.value_of(out)))) < 1e-9

    def test_midas_ratio_one_is_identity(self):
        tf, tb = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0])
        f, b = interp_upsample(tf, 3), interp_upsample(tb, 2)
        np.testing.assert_array_equal(f, tf)
        np.testing.assert_array_equal(b, tb)

    def test_midas_fixture(self):
        f = interp_upsample(np.array([0.0, 6.0]), 4)
        np.testing.assert_array_equal(f, [0.0, 3.0, 6.0, 9.0])

    def test_knot_count_half_of_96(self):
        assert knot_count(0.5, 96) == 48

    def test_knot_count_uses_ceiling(self):
        assert knot_count(0.3, 10) == 3
        assert knot_count(0.35, 10) == 4
        assert knot_count(0.01, 10) == 1


class TestBlockConfig:
    def test_invalid_basis(self):
        with pytest.raises(ConfigError):
            BlockConfig(basis="wavelet", input_size=8, horizon=4)

    def test_ratio_bounds(self):
        with pytest.raises(ConfigError):
            BlockConfig(basis="midas", input_size=8, horizon=4, expressivity_ratio=0.0)
        with pytest.raises(ConfigError):
            BlockConfig(basis="midas", input_size=8, horizon=4, expressivity_ratio=1.5)

    def test_empty_widths(self):
        with pytest.raises(ConfigError):
            BlockConfig(basis="generic", input_size=8, horizon=4, mlp_widths=())

    def test_kernel_larger_than_input(self):
        with pytest.raises(ConfigError):
            BlockConfig(basis="midas", input_size=4, horizon=4,
                        pooling=PoolSpec(kernel=5))

    def test_theta_sizes_midas_ceiling(self):
        cfg = BlockConfig(basis="midas", input_size=20, horizon=96,
                          expressivity_ratio=0.5)
        assert cfg.theta_sizes() == (48, 10)


class TestBlockForward:
    def small_config(self, basis="midas", **kw):
        defaults = dict(input_size=12, horizon=6, mlp_widths=(8, 8))
        defaults.update(kw)
        return BlockConfig(basis=basis, **defaults)

    def test_zero_parameters_zero_outputs(self):
        cfg = self.small_config("generic")
        store = build_block(cfg)
        zero_params(store)
        out = Block(cfg, "block0").forward(store, np.random.default_rng(0).normal(size=12))
        assert not engine.value_of(out.forecast).any()
        assert not engine.value_of(out.backcast).any()

    def test_output_lengths(self):
        for basis in ("generic", "polynomial", "harmonic", "midas"):
            cfg = self.small_config(basis, expressivity_ratio=0.5)
            store = build_block(cfg)
            out = Block(cfg, "block0").forward(store, np.zeros(12))
            assert engine.value_of(out.forecast).shape == (6,)
            assert engine.value_of(out.backcast).shape == (12,)

    def test_deterministic(self):
        cfg = self.small_config("midas", expressivity_ratio=0.5)
        store = build_block(cfg, seed=4)
        x = np.random.default_rng(5).normal(size=12)
        a = engine.value_of(Block(cfg, "block0").forward(store, x).forecast)
        b = engine.value_of(Block(cfg, "block0").forward(store, x).forecast)
        assert np.array_equal(a, b)

    def test_degenerate_midas_equals_generic(self):
        # identical parameters: ratio 1 and kernel 1 must reproduce generic exactly
        generic = self.small_config("generic")
        midas = self.small_config("midas", expressivity_ratio=1.0,
                                  pooling=PoolSpec(kernel=1, stride=1))
        store = build_block(generic, seed=9)
        x = np.random.default_rng(10).normal(size=12)
        out_g = Block(generic, "block0").forward(store, x)
        out_m = Block(midas, "block0").forward(store, x)
        assert np.array_equal(engine.value_of(out_g.forecast), engine.value_of(out_m.forecast))
        assert np.array_equal(engine.value_of(out_g.backcast), engine.value_of(out_m.backcast))

    def test_missing_parameter_is_config_error(self):
        cfg = self.small_config("generic")
        with pytest.raises(ConfigError, match="missing parameter"):
            Block(cfg, "block0").forward(ParameterStore(), np.zeros(12))

    def test_midas_forecast_slope_change_bound(self):
        # knots divide the horizon evenly here, so interior slope changes of
        # the sampled forecast stay below the knot count
        cfg = BlockConfig(basis="midas", input_size=32, horizon=16,
                          mlp_widths=(8,), expressivity_ratio=0.25,
                          pooling=PoolSpec(kernel=4))
        knots = cfg.theta_sizes()[0]
        rng = np.random.default_rng(11)
        for seed in range(20):
            store = build_block(cfg, seed=seed)
            out = Block(cfg, "block0").forward(store, rng.normal(size=32))
            changes = count_slope_changes(engine.value_of(out.forecast))
            assert changes <= knots - 1

    @settings(deadline=None, max_examples=25)
    @given(st.sampled_from(["generic", "polynomial", "harmonic", "midas"]),
           st.integers(min_value=1, max_value=20), st.integers(min_value=2, max_value=24),
           st.floats(min_value=0.05, max_value=1.0))
    def test_lengths_hold_for_random_configs(self, basis, horizon, input_size, ratio):
        cfg = BlockConfig(basis=basis, input_size=input_size, horizon=horizon,
                          mlp_widths=(4,), expressivity_ratio=ratio,
                          pooling=PoolSpec(kernel=min(2, input_size)))
        store = build_block(cfg)
        out = Block(cfg, "block0").forward(store, np.zeros(input_size))
        assert engine.value_of(out.forecast).shape == (horizon,)
        assert engine.value_of(out.backcast).shape == (input_size,)

    def test_full_block_gradient_end_to_end(self):
        cfg = BlockConfig(basis="midas", input_size=10, horizon=5,
                          mlp_widths=(6,), expressivity_ratio=0.5,
                          pooling=PoolSpec(kernel=2))
        store = build_block(cfg, seed=3)
        x = np.random.default_rng(4).normal(size=10)
        target = np.random.default_rng(5).normal(size=5)
        params = list(store.params())

        def f(*tensors, tape=None):
            out = Block(cfg, "block0").forward(store, x, tape)
            return engine.loss(target, out.forecast, "mse", tape)

        report = grad_check(f, params)
        assert report.passed, str(report)
