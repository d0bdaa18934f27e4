"""Primitive ops: value oracles, finite-difference gradients, tape mechanics."""

import ctypes

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmidas import engine
from dmidas.blocks import harmonic_matrix, polynomial_matrix
from dmidas.engine import (BAND_STEPS, GradientTape, Tensor, affine, grad_check,
                           interp_upsample, interpolation_band, interpolation_matrix,
                           loss, pool1d, project, relu)
from dmidas.errors import ConfigError, NumericsError, ShapeError
from dmidas.params import ParameterStore, l1_penalty

EPS = np.finfo(np.float64).eps


def grad_tol(g, m):
    """How far two summation orders of ``g @ m`` may differ: each column is a
    sum of c terms (its nonzeros), within c eps of ``|g| @ |m|`` of the exact
    sum whatever the order."""
    return 2 * EPS * np.count_nonzero(m, axis=0) * (np.abs(g) @ np.abs(m))


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


def assert_same_bits(actual, expected):
    """Equal shapes and identical float64 bit patterns (so -0.0 != +0.0)."""
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


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

    def test_nan_constant_raises(self):
        with pytest.raises(NumericsError, match="relu"):
            relu(np.array([1.0, np.nan, -1.0]))

    def test_bits_match_where_form(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        edge = np.array([0.0, -0.0, tiny, -tiny, 1e308, -1e308, 1.0, -1.0])
        batch = np.random.default_rng(5).normal(size=(865, 512))
        for x in (Tensor(edge), np.append(edge, -np.inf), Tensor(batch)):
            xv = engine.value_of(x)
            assert_same_bits(engine.value_of(relu(x)), np.where(xv > 0, xv, 0.0))


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
        # every rank rounds alike: a vector and a one-row batch sum a window
        # in the same order as a row of a larger batch
        rng = np.random.default_rng(3)
        for shape, kernel, stride in [((4, 10), 3, 2), ((4, 64), 3, 2), ((4, 64), 8, 8),
                                      ((4, 64), 16, 16)]:
            x = rng.normal(size=shape)
            batched = pool1d(x, kernel, stride, mode)
            for i, r in enumerate(x):
                assert_same_bits(pool1d(r, kernel, stride, mode), batched[i])
                assert_same_bits(pool1d(x[i:i + 1], kernel, stride, mode), batched[i:i + 1])

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
        xv = rng.normal(size=shape)
        # rounded to integers, many windows share their maximum
        for x in (Tensor(xv), Tensor(np.round(xv))):
            tape = GradientTape()
            out = pool1d(x, kernel, stride, mode, tape)
            g = rng.normal(size=out.shape)
            tape.backward(out, seed=g)
            # the scatter leaves every position it does not reach at +0.0, as
            # adding a where(argmax == j, g, 0.0) share would
            expected = pool_backward_reference(x.value, g, kernel, stride, mode)
            assert_same_bits(x.grad, expected)

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
                m = interpolation_matrix(knots, horizon)
                k1, k2, a, b = engine._taps(knots, horizon)
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

    @pytest.mark.parametrize("knots,horizon", [(1, 9), (3, 7), (24, 48), (1, 64), (32, 64),
                                               (64, 64)])
    def test_batch_is_the_dense_product_bit_for_bit(self, knots, horizon):
        # One chunk covers these horizons, so the band is M itself. Longer
        # horizons agree within rounding (TestInterpolationBand).
        m = interpolation_matrix(knots, horizon)
        theta = Tensor(np.random.default_rng(knots).normal(size=(4, knots)))
        g = np.random.default_rng(horizon).normal(size=(4, horizon))
        tape = GradientTape()
        out = interp_upsample(theta, horizon, tape)
        assert np.array_equal(out.value, theta.value @ m.T)
        tape.backward(out, seed=g)
        assert np.array_equal(theta.grad, g @ m)

    @pytest.mark.parametrize("knots,horizon", [(1, 9), (2, 4), (3, 7), (32, 64), (48, 96),
                                               (90, 720), (720, 1440)])
    def test_vector_backward_is_g_times_matrix(self, knots, horizon):
        # Bit for bit where one chunk covers the horizon; beyond it each knot
        # sums its steps chunk by chunk, a different order.
        m = interpolation_matrix(knots, horizon)
        theta = Tensor(np.random.default_rng(knots).normal(size=knots))
        g = np.random.default_rng(horizon).normal(size=horizon)
        tape = GradientTape()
        out = interp_upsample(theta, horizon, tape)
        assert [e.name for e in tape.entries] == ["project"]
        tape.backward(out, seed=g)
        assert np.all(np.abs(theta.grad - g @ m) <= grad_tol(g, m))
        if horizon <= BAND_STEPS:
            assert np.array_equal(theta.grad, g @ m)

    @pytest.mark.parametrize("op", [lambda x: interp_upsample(x, 4),
                                    lambda x: project(x, np.ones((4, 1))),
                                    lambda x: project(x, interpolation_band(1, 4))],
                             ids=["interp_upsample", "project", "project_band"])
    @pytest.mark.parametrize("shape", [(), (2, 2, 1)])
    def test_scalars_and_3d_arrays_are_shape_errors(self, op, shape):
        # As in pool1d and affine: theta is a vector or a matrix.
        for theta in (np.full(shape, 1.0), Tensor(np.full(shape, 1.0))):
            with pytest.raises(ShapeError):
                op(theta)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_vector_rejects_non_finite_results(self):
        with pytest.raises(NumericsError):
            interp_upsample(np.array([1.0, np.inf]), 4)
        # Extrapolating past the last knot overflows float64 here.
        with pytest.raises(NumericsError):
            interp_upsample(Tensor([-1.5e308, 1.5e308]), 3, GradientTape())


# (rows, knots, horizon): the long-horizon-serve shapes (serving and training
# batch), the acceptance shapes (serving), then edges: K = 1, K = 2, K = H,
# H below one chunk, H = 97 and batches of 32 rows.
BAND_SHAPES = ([(n, k, h) for n in (1444, 128)
                for k, h in [(360, 720), (180, 720), (90, 720), (720, 1440), (360, 1440)]]
               + [(865, k, h) for k, h in [(48, 96), (24, 96), (12, 96), (144, 288), (72, 288)]]
               + [(128, 1, 200), (128, 2, 200), (128, 97, 97), (128, 720, 720), (128, 24, 48),
                  (128, 13, 97), (128, 48, 97), (32, 48, 96), (32, 360, 720)])


def openblas_kernels() -> str:
    """The kernel set OpenBLAS picked for this CPU ('' where it cannot be read)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return ""
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return ""


def band_case(rows, knots, horizon):
    m = interpolation_matrix(knots, horizon)
    rng = np.random.default_rng(rows * 7919 + knots)
    theta = rng.normal(size=(rows, knots)) * 10.0 ** rng.uniform(-3, 3)
    return m, theta, project(theta, interpolation_band(knots, horizon))


def banded_vjp(g, knots, horizon):
    """The banded backward written out: each chunk adds g[:, t0:t1] @ block."""
    want = np.zeros(g.shape[:-1] + (knots,))
    for t0, t1, lo, hi, block in interpolation_band(knots, horizon):
        want[..., lo:hi] += g[..., t0:t1] @ block
    return want


def dense_matrix_forbidden(*args):
    raise AssertionError("the dense interpolation matrix was built")


class TestInterpolationBand:
    @pytest.mark.parametrize("knots,horizon", sorted({(k, h) for _, k, h in BAND_SHAPES}
                                                     | {(1, 1), (1, 64), (2, 65), (64, 64)}))
    def test_chunks_tile_the_matrix(self, knots, horizon):
        m = interpolation_matrix(knots, horizon)
        band = interpolation_band(knots, horizon)
        assert [c[0] for c in band] == list(range(0, horizon, engine.BAND_STEPS))
        assert [c[1] for c in band] == [c[0] for c in band[1:]] + [horizon]
        rebuilt = np.zeros_like(m)
        for t0, t1, lo, hi, block in band:
            assert 0 <= lo < hi <= knots
            assert np.array_equal(block, m[t0:t1, lo:hi])
            rebuilt[t0:t1, lo:hi] = block
        # Every nonzero of M lies inside its chunk's [lo, hi).
        assert np.array_equal(rebuilt, m)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=1500),
           st.floats(min_value=0.0, max_value=1.0))
    @example(128, 1440, 0.25)
    @example(865, 96, 0.125)
    @example(4, 96, 0.5)
    @example(4, 720, 0.125)
    @example(4, 720, 0.5)
    @example(4, 1440, 0.5)
    @example(31, 64, 0.5)
    @example(277, 182, 0.0625)
    @example(64, 720, 0.007)
    def test_batch_is_the_dense_product_within_rounding(self, rows, horizon, share):
        # Each output is a two-tap sum that BLAS may round fused or not, so
        # band and dense agree to 2 eps of |theta| @ |M|.T forward at any row
        # count. Backward, each knot sums its steps chunk by chunk, and BLAS
        # blocks each call by its size, so the two orders agree to the bound
        # of grad_tol (up to 2.4 eps of |g| @ |M| measured at K = 5, H = 720).
        # Where one chunk covers the horizon, the band is M: bit for bit.
        knots = max(1, round(share * horizon))
        m, theta_v, _ = band_case(rows, knots, horizon)
        theta = Tensor(theta_v)
        g = np.random.default_rng(rows + horizon).normal(size=(rows, horizon))
        tape = GradientTape()
        out = interp_upsample(theta, horizon, tape)
        tape.backward(out, seed=g)
        tol = 2 * EPS * (np.abs(theta_v) @ np.abs(m).T)
        assert np.all(np.abs(out.value - theta_v @ m.T) <= tol)
        assert np.all(np.abs(theta.grad - g @ m) <= grad_tol(g, m))
        if horizon <= BAND_STEPS:
            assert np.array_equal(out.value, theta_v @ m.T)
            assert np.array_equal(theta.grad, g @ m)

    @pytest.mark.skipif(openblas_kernels() not in ("SkylakeX", "Sandybridge", "Nehalem", "Katmai"),
                        reason="bit equality measured on OpenBLAS's SkylakeX, Sandybridge, "
                               "Nehalem and Katmai kernels; its Haswell kernels split some "
                               "dense products in K and round differently")
    @pytest.mark.parametrize("rows,knots,horizon", BAND_SHAPES)
    def test_forward_is_the_dense_product_bit_for_bit(self, rows, knots, horizon):
        m, theta, out = band_case(rows, knots, horizon)
        assert np.array_equal(out, theta @ m.T)
        assert np.array_equal(interp_upsample(theta, horizon), out)

    @pytest.mark.parametrize("knots,horizon", [(48, 96), (12, 96), (144, 288), (180, 720),
                                               (360, 1440), (13, 97)])
    def test_small_batches_take_the_band(self, knots, horizon):
        # Small batches (train's trailing one-row mini-batch, a short
        # validation set) take the same banded product as large ones, forward
        # and backward; on OpenBLAS's SkylakeX kernels a few rows round
        # differently from the dense matrix here, within rounding.
        m = interpolation_matrix(knots, horizon)
        for rows in (1, 2, 3, 5, 12, 18, 31):
            theta = Tensor(np.random.default_rng(rows).normal(size=(rows, knots)))
            g = np.random.default_rng(rows + 1).normal(size=(rows, horizon))
            tape = GradientTape()
            out = interp_upsample(theta, horizon, tape)
            tape.backward(out, seed=g)
            assert np.array_equal(out.value, project(theta.value,
                                                     interpolation_band(knots, horizon)))
            assert np.array_equal(theta.grad, banded_vjp(g, knots, horizon)), rows
            tol = 2 * EPS * (np.abs(theta.value) @ np.abs(m).T)
            assert np.all(np.abs(out.value - theta.value @ m.T) <= tol), rows
            assert np.all(np.abs(theta.grad - g @ m) <= grad_tol(g, m)), rows

    @pytest.mark.parametrize("rows", [1, 31, 32, 1444])
    def test_every_batch_records_project_with_the_banded_backward(self, rows, monkeypatch):
        # Two chunks: the boundary knot sums a partial product from each.
        knots, horizon = 64, 128
        monkeypatch.setattr(engine, "interpolation_matrix", dense_matrix_forbidden)
        engine.interpolation_band.cache_clear()
        theta = Tensor(np.random.default_rng(3).normal(size=(rows, knots)))
        g = np.random.default_rng(4).normal(size=(rows, horizon))
        tape = GradientTape()
        out = interp_upsample(theta, horizon, tape)
        assert [e.name for e in tape.entries] == ["project"]
        assert np.array_equal(out.value, project(theta.value,
                                                 interpolation_band(knots, horizon)))
        tape.backward(out, seed=g)
        assert np.array_equal(theta.grad, banded_vjp(g, knots, horizon))


# The N-BEATS-I bases at forecast and backcast lengths of the acceptance and
# long-horizon-serve shapes.
DENSE_BASES = [(kind, size, n) for kind, size in [("polynomial", 2), ("polynomial", 3),
                                                  ("harmonic", 4)]
               for n in (96, 720, 1440)]


def dense_basis(kind, size, n):
    return polynomial_matrix(size, n) if kind == "polynomial" else harmonic_matrix(size, n)


class TestProject:
    def test_matches_matmul(self):
        rng = np.random.default_rng(11)
        theta = rng.normal(size=(3, 4))
        basis = rng.normal(size=(6, 4))
        np.testing.assert_allclose(project(theta, basis), theta @ basis.T)

    @pytest.mark.parametrize("kind,size,n", DENSE_BASES)
    @pytest.mark.parametrize("rows", [None, 1, 7, 128, 865])
    def test_dense_basis_is_the_dense_product_bit_for_bit(self, kind, size, n, rows):
        # A matrix is its own one-chunk band: one matmul forward, one backward.
        basis = dense_basis(kind, size, n)
        shape = (basis.shape[1],) if rows is None else (rows, basis.shape[1])
        rng = np.random.default_rng(n + size)
        theta = Tensor(rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3))
        g = rng.normal(size=shape[:-1] + (n,))
        tape = GradientTape()
        out = project(theta, basis, tape)
        tape.backward(out, seed=g)
        assert np.array_equal(out.value, theta.value @ basis.T)
        assert np.array_equal(theta.grad, g @ basis)

    @pytest.mark.parametrize("kind,size,n", DENSE_BASES)
    @pytest.mark.parametrize("rows", [None, 7])
    def test_dense_basis_and_its_one_chunk_band_agree(self, kind, size, n, rows):
        basis = dense_basis(kind, size, n)
        shape = (basis.shape[1],) if rows is None else (rows, basis.shape[1])
        theta_v = np.random.default_rng(size).normal(size=shape)
        g = np.random.default_rng(n).normal(size=shape[:-1] + (n,))
        results = []
        for b in (basis, ((0, n, 0, basis.shape[1], basis),)):
            theta, tape = Tensor(theta_v), GradientTape()
            out = project(theta, b, tape)
            assert [e.name for e in tape.entries] == ["project"]
            tape.backward(out, seed=g)
            results.append((out.value.tobytes(), theta.grad.tobytes()))
        assert results[0] == results[1]

    def test_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"theta\(3,\) basis\(6, 4\)"):
            project(np.ones(3), np.ones((6, 4)))
        with pytest.raises(ShapeError, match=r"theta\(2, 5\) basis\(8, 4\)"):
            project(np.ones((2, 5)), interpolation_band(4, 8))

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


class TestAddSub:
    @pytest.mark.parametrize("op,name,sign", [(engine.add, "add", 1.0),
                                              (engine.sub, "sub", -1.0)])
    def test_value_entry_and_adjoints(self, op, name, sign):
        a, b = Tensor([1.0, -2.0, 0.5]), Tensor([0.25, 4.0, -3.0])
        tape = GradientTape()
        out = op(a, b, tape)
        assert [e.name for e in tape.entries] == [name]
        assert np.array_equal(out.value, a.value + sign * b.value)
        g = np.array([1.0, -0.5, 2.0])
        tape.backward(out, seed=g)
        assert np.array_equal(a.grad, g)
        assert np.array_equal(b.grad, sign * g)

    @pytest.mark.parametrize("op,name", [(engine.add, "add"), (engine.sub, "sub")])
    def test_shape_mismatch_names_the_op(self, op, name):
        with pytest.raises(ShapeError, match=rf"^{name} shape mismatch: \(2,\) vs \(3,\)$"):
            op(Tensor(np.ones(2)), np.ones(3))

    @pytest.mark.parametrize("op", [engine.add, engine.sub])
    def test_constants_do_not_record(self, op):
        tape = GradientTape()
        assert isinstance(op(np.ones(2), np.ones(2), tape), np.ndarray)
        assert len(tape) == 0


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
        out = engine.tsum(engine.add(x, x, tape), tape)
        tape.backward(out)
        first = x.grad.copy()
        tape.backward(out)
        np.testing.assert_array_equal(x.grad, first)

    def test_fanout_accumulates_adjoints(self):
        x = Tensor([1.5])
        tape = GradientTape()
        a = affine(x, np.array([[2.0]]), np.zeros(1), tape)
        b = affine(x, np.array([[3.0]]), np.zeros(1), tape)
        out = engine.tsum(engine.add(a, b, tape), tape)
        tape.backward(out)
        np.testing.assert_allclose(x.grad, [5.0])

    def test_min_kink_margin_tracks_relu(self):
        x = Tensor([0.01, -5.0])
        tape = GradientTape()
        relu(x, tape)
        assert tape.min_kink_margin() == pytest.approx(0.01)

    def test_kink_margins_are_computed_only_when_asked(self):
        rng = np.random.default_rng(4)
        xv, yv, wv = rng.normal(size=(3, 8)), rng.normal(size=(3, 8)), rng.normal(size=(4, 3))
        store = ParameterStore()
        store.add("w", wv)
        store.add("b", np.zeros(3), kind="bias")
        windows = xv.reshape(3, 4, 2)
        expected = {
            "relu": np.min(np.abs(xv)),
            "loss[mae]": np.min(np.abs(xv - yv)),
            "pool1d[max]": np.min(np.abs(windows[..., 0] - windows[..., 1])),
            "l1_penalty": np.min(np.abs(wv)),
        }
        tape = GradientTape()
        relu(Tensor(xv), tape)
        loss(yv, Tensor(xv), "mae", tape)
        pool1d(Tensor(xv), 2, mode="max", tape=tape)
        l1_penalty(store, 0.5, tape)
        for entry in tape.entries:
            assert callable(entry.kink_margin)
            assert entry.kink_margin() == expected[entry.name]
        assert tape.min_kink_margin() == min(expected.values())


def kept_adjoints(tape, root) -> dict:
    """The reverse replay with every adjoint kept, keyed by ``id`` of its tensor."""
    adjoint = {id(root): np.ones_like(root.value)}
    for entry in reversed(tape.entries):
        g = adjoint.get(id(entry.output))
        if g is None:
            continue
        for t, gt in zip(entry.inputs, entry.backward(g)):
            if gt is not None and isinstance(t, Tensor):
                adjoint[id(t)] = gt if id(t) not in adjoint else adjoint[id(t)] + gt
    return adjoint


class TestLeafGrads:
    """After ``backward`` only leaves hold grads: op outputs drop their adjoints."""

    def graph(self):
        rng = np.random.default_rng(40)
        store = ParameterStore()
        store.add("w1", rng.normal(size=(4, 6)))
        store.add("b1", rng.normal(size=6), kind="bias")
        store.add("w2", rng.normal(size=(6, 3)))
        store.add("b2", rng.normal(size=3), kind="bias")
        x = Tensor(rng.normal(size=(5, 8)))
        tape = GradientTape()
        h = relu(affine(pool1d(x, 2, tape=tape), store["w1"], store["b1"], tape), tape)
        theta = affine(h, store["w2"], store["b2"], tape)
        # x feeds the pooling and the residual, so its adjoint sums two paths
        residual = engine.sub(x, interp_upsample(theta, 8, tape), tape)
        fit = loss(rng.normal(size=(5, 8)), residual, "mae", tape)
        root = engine.add(fit, l1_penalty(store, 0.01, tape), tape)
        return tape, root, [x] + [store[n] for n in store.names()]

    def test_outputs_drop_their_adjoints_and_leaves_keep_exact_grads(self):
        tape, root, leaves = self.graph()
        expected = kept_adjoints(tape, root)
        tape.backward(root)
        assert all(entry.output.grad is None for entry in tape.entries)
        assert root.grad is None
        for leaf in leaves:
            assert leaf.grad is not None
            assert_same_bits(leaf.grad, expected[id(leaf)])


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
