"""Primitive ops: value oracles, finite-difference gradients, tape mechanics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmidas import engine
from dmidas.engine import (GradientTape, Tensor, affine, grad_check,
                           interp_upsample, interpolation_matrix, loss, pool1d,
                           project, relu)
from dmidas.errors import ConfigError, NumericsError, ShapeError


def scalar_fn(op, *extra, **kw):
    """Wrap an op as sum(op(x)) for grad_check."""
    def f(x, tape=None):
        return engine.tsum(op(x, *extra, tape=tape, **kw), tape)
    return f


class TestTensor:
    def test_rejects_nan(self):
        with pytest.raises(NumericsError):
            Tensor([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(NumericsError):
            Tensor([float("inf")])

    def test_float64(self):
        assert Tensor([1, 2]).value.dtype == np.float64


class TestAffine:
    def test_identity_weights(self):
        out = affine(np.array([[1.0, 2.0]]), np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_hand_evaluation(self):
        out = affine(np.array([[1.0, 2.0]]), np.array([[1.0], [1.0]]), np.array([3.0]))
        np.testing.assert_array_equal(out, [[6.0]])

    def test_vector_input(self):
        out = affine(np.array([1.0, 2.0]), np.array([[1.0], [1.0]]), np.array([3.0]))
        np.testing.assert_array_equal(out, [6.0])

    def test_shape_mismatch_reports_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\)"):
            affine(np.ones((1, 2)), np.ones((2, 3)), np.ones(2))

    def test_grad_wrt_weights_is_column_sums(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3))
        w = Tensor(rng.normal(size=(3, 2)))
        b = Tensor(rng.normal(size=2))
        tape = GradientTape()
        out = engine.tsum(affine(x, w, b, tape), tape)
        tape.backward(out)
        expected = np.tile(x.sum(axis=0)[:, None], (1, 2))
        np.testing.assert_allclose(w.grad, expected, atol=1e-12)
        np.testing.assert_allclose(b.grad, np.full(2, 5.0), atol=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3))
        w = Tensor(rng.normal(size=(3, 2)))
        b = Tensor(rng.normal(size=2))

        def f(wt, bt, tape=None):
            return engine.tsum(affine(x, wt, bt, tape), tape)

        report = grad_check(f, [w, b])
        assert report.passed, str(report)

    def test_vector_matches_one_row_batch_bit_for_bit(self):
        rng = np.random.default_rng(2)
        xv, wv, bv = rng.normal(size=7), rng.normal(size=(7, 5)), rng.normal(size=5)
        seed = rng.normal(size=5)
        results = []
        for x_in, g in ((xv, seed), (xv[None, :], seed[None, :])):
            x, w, b = Tensor(x_in.copy()), Tensor(wv.copy()), Tensor(bv.copy())
            tape = GradientTape()
            out = affine(x, w, b, tape)
            tape.backward(out, seed=g)
            results.append((out.value, x.grad, w.grad, b.grad))
        (out1, gx1, gw1, gb1), (out2, gx2, gw2, gb2) = results
        assert out1.shape == (5,) and gx1.shape == (7,)
        np.testing.assert_array_equal(out1, out2[0])
        np.testing.assert_array_equal(gx1, gx2[0])
        np.testing.assert_array_equal(gw1, gw2)
        np.testing.assert_array_equal(gb1, gb2)


def pool_backward_reference(x, g, kernel, stride, mode):
    """The pool1d input adjoint as an np.add.at scatter, one row at a time."""
    gx = np.zeros_like(x)
    starts = np.arange(g.shape[-1]) * stride
    idx = starts[:, None] + np.arange(kernel)[None, :]
    for xr, gr, gxr in zip(x.reshape(-1, x.shape[-1]), g.reshape(-1, g.shape[-1]),
                           gx.reshape(-1, x.shape[-1])):
        if mode == "avg":
            np.add.at(gxr, idx, np.broadcast_to(gr[:, None] / kernel, idx.shape))
        elif mode == "max":
            np.add.at(gxr, starts + xr[idx].argmax(axis=1), gr)
        else:
            np.add.at(gxr, starts, gr)
    return gx


class TestRelu:
    def test_sign_cases(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_all_negative_is_zero_matrix(self):
        np.testing.assert_array_equal(relu(-np.ones((2, 3))), np.zeros((2, 3)))

    def test_backward_passes_or_blocks_adjoint(self):
        x = Tensor([2.0, -2.0])
        tape = GradientTape()
        out = relu(x, tape)
        tape.backward(out)
        np.testing.assert_array_equal(x.grad, [1.0, 0.0])

    def test_grad_matches_finite_differences_away_from_zero(self):
        x = Tensor([2.0, -2.0, 0.7, -0.3])
        report = grad_check(scalar_fn(relu), [x])
        assert report.passed, str(report)


class TestPool1d:
    def test_avg_example(self):
        np.testing.assert_array_equal(pool1d(np.array([1.0, 2, 3, 4]), 2, 2, "avg"),
                                      [1.5, 3.5])

    def test_max_example(self):
        np.testing.assert_array_equal(pool1d(np.array([1.0, 2, 3, 4]), 2, 2, "max"),
                                      [2.0, 4.0])

    def test_stride_mode(self):
        np.testing.assert_array_equal(pool1d(np.array([1.0, 2, 3, 4]), 2, 2, "stride"),
                                      [1.0, 3.0])

    @pytest.mark.parametrize("mode", ["avg", "max", "stride"])
    def test_kernel_one_is_identity(self, mode):
        x = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(pool1d(x, 1, 1, mode), x)

    def test_kernel_exceeding_length_rejected(self):
        with pytest.raises(ConfigError, match="kernel"):
            pool1d(np.ones(3), 4, 1, "avg")

    def test_constant_input_avg_is_constant(self):
        out = pool1d(np.full(12, 7.5), 3, 2, "avg")
        np.testing.assert_array_equal(out, np.full(5, 7.5))

    @pytest.mark.parametrize("mode", ["avg", "max", "stride"])
    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 1), (4, 2)])
    def test_grad_matches_finite_differences(self, mode, kernel, stride):
        rng = np.random.default_rng(42)
        # well-separated values keep max pooling away from argmax ties
        x = Tensor(rng.permutation(np.linspace(-3.0, 3.0, 9)))
        report = grad_check(scalar_fn(pool1d, kernel, stride, mode), [x])
        assert report.passed, f"{mode} k={kernel} s={stride}: {report}"

    @pytest.mark.parametrize("mode", ["avg", "max", "stride"])
    def test_batched_matches_per_row(self, mode):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 10))
        batched = pool1d(x, 3, 2, mode)
        rows = np.stack([engine.value_of(pool1d(r, 3, 2, mode)) for r in x])
        np.testing.assert_array_equal(batched, rows)

    @pytest.mark.parametrize("mode", ["avg", "max", "stride"])
    def test_batched_backward_matches_per_row(self, mode):
        rng = np.random.default_rng(9)
        values = rng.permutation(np.linspace(-4.0, 4.0, 20)).reshape(2, 10)
        batched = Tensor(values.copy())
        tape = GradientTape()
        out = engine.tsum(pool1d(batched, 3, 2, mode, tape), tape)
        tape.backward(out)
        for i in range(2):
            row = Tensor(values[i].copy())
            row_tape = GradientTape()
            row_out = engine.tsum(pool1d(row, 3, 2, mode, row_tape), row_tape)
            row_tape.backward(row_out)
            np.testing.assert_array_equal(batched.grad[i], row.grad)

    @pytest.mark.parametrize("mode", ["avg", "max", "stride"])
    @pytest.mark.parametrize("shape", [(17,), (3, 17)])
    @pytest.mark.parametrize("kernel,stride", [(1, 1), (2, 2), (4, 4), (8, 8), (3, 2)])
    def test_backward_matches_scatter_reference_bit_for_bit(self, mode, shape, kernel, stride):
        rng = np.random.default_rng(kernel * 10 + stride)
        x = Tensor(rng.normal(size=shape))
        tape = GradientTape()
        out = pool1d(x, kernel, stride, mode, tape)
        g = rng.normal(size=out.shape)
        tape.backward(out, seed=g)
        expected = pool_backward_reference(x.value, g, kernel, stride, mode)
        np.testing.assert_array_equal(x.grad, expected)

    @pytest.mark.parametrize("shape", [(24,), (3, 24)])
    def test_stride_output_is_contiguous(self, shape):
        # a strided view would change how the next affine's BLAS call rounds
        out = pool1d(np.arange(float(np.prod(shape))).reshape(shape), 4, 4, "stride")
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, np.arange(float(np.prod(shape))).reshape(shape)[..., ::4])

    def test_max_tie_routes_to_lowest_index(self):
        x = Tensor([2.0, 2.0, 1.0])
        tape = GradientTape()
        out = pool1d(x, 3, 3, "max", tape)
        tape.backward(out)
        np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])


class TestInterpUpsample:
    def test_hand_evaluated_fixture(self):
        out = interp_upsample(np.array([0.0, 6.0]), 4)
        np.testing.assert_array_equal(out, [0.0, 3.0, 6.0, 9.0])

    def test_equal_knots_is_identity_exactly(self):
        rng = np.random.default_rng(5)
        for h in (1, 2, 3, 7, 16):
            theta = rng.normal(size=h)
            out = interp_upsample(theta, h)
            assert np.array_equal(out, theta)

    def test_constant_knots_give_constant_output(self):
        out = interp_upsample(np.full(3, 4.5), 11)
        np.testing.assert_allclose(out, np.full(11, 4.5), atol=1e-12)

    def test_knot_count_errors(self):
        with pytest.raises(ConfigError):
            interp_upsample(np.ones(5), 4)
        with pytest.raises(ConfigError):
            interpolation_matrix(0, 4)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(min_value=1, max_value=24), st.data())
    def test_piecewise_linear_between_knots(self, horizon, data):
        knots = data.draw(st.integers(min_value=1, max_value=horizon))
        theta = np.array(data.draw(st.lists(
            st.floats(min_value=-10, max_value=10), min_size=knots, max_size=knots)))
        out = engine.value_of(interp_upsample(theta, horizon))
        delta = horizon / knots
        knot_positions = [k * delta for k in range(knots)]
        for t in range(1, horizon - 1):
            # second difference must vanish unless a knot lies in (t-1, t+1)
            if any(t - 1 < kp < t + 1 for kp in knot_positions):
                continue
            d2 = out[t + 1] - 2 * out[t] + out[t - 1]
            assert abs(d2) < 1e-9

    def test_gradient_is_matrix_transpose(self):
        theta = Tensor(np.array([1.0, -2.0, 0.5]))
        tape = GradientTape()
        out = interp_upsample(theta, 7, tape)
        tape.backward(out)
        m = interpolation_matrix(3, 7)
        np.testing.assert_allclose(theta.grad, m.T @ np.ones(7), atol=1e-12)

    def test_grad_matches_finite_differences(self):
        theta = Tensor(np.random.default_rng(8).normal(size=5))
        report = grad_check(scalar_fn(interp_upsample, 12), [theta])
        assert report.passed, str(report)

    def test_taps_are_the_matrix_nonzeros_exactly(self):
        for horizon in range(1, 41):
            for knots in range(1, horizon + 1):
                m, k1, k2, a, b = engine._interpolation_taps(knots, horizon)
                rebuilt = np.zeros_like(m)
                rows = np.arange(horizon)
                rebuilt[rows, k1] += a
                rebuilt[rows, k2] += b
                assert np.array_equal(rebuilt, m), (knots, horizon)

    @settings(deadline=None, max_examples=150)
    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(360, 720, 1)
    @example(720, 1440, 2)
    def test_vector_matches_dense_product(self, n1, n2, seed):
        knots, horizon = min(n1, n2), max(n1, n2)
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=knots) * 10.0 ** rng.uniform(-3, 3)
        out = interp_upsample(theta, horizon)
        want = theta @ interpolation_matrix(knots, horizon).T
        tol = 4 * np.finfo(np.float64).eps * np.max(np.abs(theta))
        assert out.shape == (horizon,)
        assert np.max(np.abs(out - want)) <= tol

    @pytest.mark.parametrize("knots,horizon", [(1, 9), (3, 7), (48, 96), (360, 720)])
    def test_batch_is_the_dense_product_bit_for_bit(self, knots, horizon):
        m = interpolation_matrix(knots, horizon)
        theta = Tensor(np.random.default_rng(knots).normal(size=(4, knots)))
        g = np.random.default_rng(horizon).normal(size=(4, horizon))
        tape = GradientTape()
        out = interp_upsample(theta, horizon, tape)
        assert np.array_equal(out.value, theta.value @ m.T)
        tape.backward(out, seed=g)
        assert np.array_equal(theta.grad, g @ m)

    @pytest.mark.parametrize("knots,horizon", [(1, 9), (2, 4), (3, 7), (48, 96), (720, 1440)])
    def test_vector_backward_is_g_times_matrix_bit_for_bit(self, knots, horizon):
        theta = Tensor(np.random.default_rng(knots).normal(size=knots))
        g = np.random.default_rng(horizon).normal(size=horizon)
        tape = GradientTape()
        out = interp_upsample(theta, horizon, tape)
        assert [e.name for e in tape.entries] == ["project"]
        tape.backward(out, seed=g)
        assert np.array_equal(theta.grad, g @ interpolation_matrix(knots, horizon))

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_vector_rejects_non_finite_results(self):
        with pytest.raises(NumericsError):
            interp_upsample(np.array([1.0, np.inf]), 4)
        # Extrapolating past the last knot overflows float64 here.
        with pytest.raises(NumericsError):
            interp_upsample(Tensor([-1.5e308, 1.5e308]), 3, GradientTape())


class TestProject:
    def test_matches_matmul(self):
        rng = np.random.default_rng(11)
        theta = rng.normal(size=(3, 4))
        basis = rng.normal(size=(6, 4))
        np.testing.assert_allclose(project(theta, basis), theta @ basis.T)

    def test_grad_matches_finite_differences(self):
        basis = np.random.default_rng(12).normal(size=(6, 4))
        theta = Tensor(np.random.default_rng(13).normal(size=4))
        report = grad_check(scalar_fn(project, basis), [theta])
        assert report.passed, str(report)


class TestLoss:
    def test_perfect_forecast_is_zero(self):
        y = np.array([1.0, -2.0, 3.0])
        assert float(loss(y, y, "mae")) == 0.0
        assert float(loss(y, y, "mse")) == 0.0

    def test_mae_hand_value(self):
        assert float(loss(np.zeros(2), np.array([3.0, 4.0]), "mae")) == 3.5

    def test_mse_hand_value(self):
        assert float(loss(np.zeros(2), np.array([3.0, 4.0]), "mse")) == 12.5

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            loss(np.zeros(2), np.zeros(3), "mae")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            loss(np.zeros(2), np.zeros(2), "huber")

    @pytest.mark.parametrize("kind", ["mae", "mse"])
    def test_nonnegative_on_random_pairs(self, kind):
        rng = np.random.default_rng(21)
        for _ in range(50):
            y, yhat = rng.normal(size=(2, 8))
            assert float(loss(y, yhat, kind)) >= 0.0

    @pytest.mark.parametrize("kind", ["mae", "mse"])
    def test_grad_matches_finite_differences(self, kind):
        rng = np.random.default_rng(22)
        y = rng.normal(size=6)
        yhat = Tensor(y + rng.uniform(0.5, 1.5, size=6) * rng.choice([-1, 1], size=6))

        def f(h, tape=None):
            return loss(y, h, kind, tape)

        report = grad_check(f, [yhat])
        assert report.passed, str(report)

    def test_mae_subgradient_zero_at_ties(self):
        y = np.array([1.0, 2.0])
        yhat = Tensor(y.copy())
        tape = GradientTape()
        out = loss(y, yhat, "mae", tape)
        tape.backward(out)
        np.testing.assert_array_equal(yhat.grad, [0.0, 0.0])


class TestTapeMechanics:
    def test_entry_count_matches_op_count(self):
        x = Tensor(np.random.default_rng(30).normal(size=(2, 4)))
        w1, b1 = Tensor(np.ones((4, 3))), Tensor(np.zeros(3))
        w2, b2 = Tensor(np.ones((3, 2))), Tensor(np.zeros(2))
        tape = GradientTape()
        h = relu(affine(x, w1, b1, tape), tape)
        out = loss(np.zeros((2, 2)), affine(h, w2, b2, tape), "mse", tape)
        assert len(tape) == 4
        assert isinstance(out, Tensor)

    def test_constant_only_ops_do_not_record(self):
        tape = GradientTape()
        out = relu(np.array([-1.0, 2.0]), tape)
        assert isinstance(out, np.ndarray)
        assert len(tape) == 0

    def test_repeated_backward_does_not_accumulate(self):
        x = Tensor([1.0, 2.0])
        tape = GradientTape()
        out = engine.tsum(engine.scale(x, 3.0, tape), tape)
        tape.backward(out)
        first = x.grad.copy()
        tape.backward(out)
        np.testing.assert_array_equal(x.grad, first)

    def test_fanout_accumulates_adjoints(self):
        x = Tensor([1.5])
        tape = GradientTape()
        a = engine.scale(x, 2.0, tape)
        b = engine.scale(x, 3.0, tape)
        out = engine.tsum(engine.add(a, b, tape), tape)
        tape.backward(out)
        np.testing.assert_allclose(x.grad, [5.0])

    def test_min_kink_margin_tracks_relu(self):
        x = Tensor([0.01, -5.0])
        tape = GradientTape()
        relu(x, tape)
        assert tape.min_kink_margin() == pytest.approx(0.01)


class TestGradCheck:
    def test_sum_has_zero_relative_error(self):
        # integer points and a power-of-two step keep the finite differences
        # exact, so the all-ones analytic gradient matches with zero error
        x = Tensor(np.arange(1.0, 8.0))
        report = grad_check(lambda t, tape=None: engine.tsum(t, tape), [x], eps=2.0 ** -20)
        assert report.max_rel_error == 0.0
        assert report.passed

    def test_sum_passes_at_arbitrary_points(self):
        x = Tensor(np.random.default_rng(31).normal(size=7))
        report = grad_check(lambda t, tape=None: engine.tsum(t, tape), [x])
        assert report.passed and report.max_rel_error < 1e-8

    def test_corrupted_backward_rule_fails(self):
        def bad(x, tape=None):
            out = Tensor(x.value.sum())
            if tape is not None:
                # deliberately wrong rule: claims zero gradient
                tape.record(out, (x,), lambda g: (np.zeros_like(x.value),), name="bad")
            return out

        x = Tensor(np.array([1.0, 2.0, 3.0]))
        report = grad_check(bad, [x])
        assert not report.passed

    def test_requires_scalar_output(self):
        x = Tensor(np.ones(3))
        with pytest.raises(ConfigError):
            grad_check(lambda t, tape=None: relu(t, tape), [x])
