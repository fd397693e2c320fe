import math

import numpy as np
import pytest

from pestab.errors import ShapeError
from pestab.matkit import expm, min_sv, one_norm, quad_roots

A_DI = np.array([[0.0, 1.0], [0.0, 0.0]])
ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def taylor_expm(m, t, terms=30):
    """Independent truncated-series oracle."""
    a = t * np.asarray(m, dtype=float)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for i in range(1, terms + 1):
        term = term @ a / i
        out = out + term
    return out


class TestExpm:
    def test_zero_matrix_is_identity(self):
        assert np.array_equal(expm(np.zeros((3, 3)), 5.0), np.eye(3))

    def test_nilpotent_is_affine_in_t(self):
        for t in (0.3, 1.0, 7.5):
            assert np.allclose(expm(A_DI, t), np.eye(2) + t * A_DI,
                               rtol=0, atol=1e-14)

    def test_rotation_pi_vs_taylor_oracle(self):
        got = expm(ROT, math.pi)
        assert np.max(np.abs(got + np.eye(2))) < 1e-12
        assert np.max(np.abs(got - taylor_expm(ROT, math.pi))) < 1e-12

    def test_semigroup(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = rng.integers(1, 5)
            m = rng.standard_normal((n, n))
            m *= min(1.0, 10.0 / max(one_norm(m), 1e-6))
            s, t = rng.uniform(-10, 10, size=2)
            lhs = expm(m, s) @ expm(m, t)
            rhs = expm(m, s + t)
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, one_norm(rhs))

    def test_determinant_is_exp_trace(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rng.standard_normal((3, 3))
            t = rng.uniform(-2, 2)
            assert np.linalg.det(expm(m, t)) == pytest.approx(
                math.exp(t * np.trace(m)), rel=1e-10)

    def test_skew_gives_orthogonal(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = rng.standard_normal((4, 4))
            m = g - g.T
            q = expm(m, rng.uniform(-5, 5))
            assert np.max(np.abs(q.T @ q - np.eye(4))) < 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            expm(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ShapeError):
            expm(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, t):
        # a Python float, a numpy scalar and a 0-d array alike, for one
        # matrix and for a stack
        for time in (t, np.float64(t), np.array(t)):
            with pytest.raises(ShapeError, match="time"):
                expm(ROT, time)
            with pytest.raises(ShapeError, match="time"):
                expm(np.stack([ROT, ROT]), time)

    @pytest.mark.parametrize("kind", [np.float64, np.array])
    def test_numpy_time_keeps_the_float_bits(self, kind):
        assert expm(ROT, kind(0.3)).tobytes() == expm(ROT, 0.3).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_stack_slices_equal_their_own_calls(self, n):
        # every slice of a stacked call has the bits of its own 2-d call,
        # at step sizes that need no scaling and ones that need squarings
        rng = np.random.default_rng(n)
        stack = rng.standard_normal((7, n, n)) * \
            np.array([1e-3, 0.01, 0.1, 1.0, 3.0, 10.0, 40.0])[:, None, None]
        stack[2] = np.triu(stack[2])  # triangular: scipy's own branch
        stack[3] = np.diag(np.diag(stack[3]))  # diagonal: another branch
        got = expm(stack)
        assert got.shape == stack.shape
        for m, e in zip(stack, got):
            assert e.tobytes() == expm(m).tobytes()
        for t in (0.5, 2.0):
            for m, e in zip(stack, expm(stack, t)):
                assert e.tobytes() == expm(m, t).tobytes()

    def test_stack_of_one_and_empty_stack(self):
        assert expm(ROT[np.newaxis], 0.3)[0].tobytes() == \
            expm(ROT, 0.3).tobytes()
        assert expm(np.zeros((0, 2, 2))).shape == (0, 2, 2)

    @pytest.mark.parametrize("shape", [(2, 2, 3), (3, 1, 2), (2, 2, 2, 2)])
    def test_rejects_non_square_stack(self, shape):
        with pytest.raises(ShapeError):
            expm(np.zeros(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_stack(self, bad):
        stack = np.zeros((3, 2, 2))
        stack[2, 1, 0] = bad
        with pytest.raises(ShapeError, match="non-finite"):
            expm(stack)
        with pytest.raises(ShapeError, match="non-finite"):
            expm(stack, 0.5)


class TestQuadRoots:
    def test_double_zero(self):
        assert quad_roots(0.0, 0.0) == (0.0, 0.0)

    def test_closed_form_instance(self):
        lo, hi = quad_roots(1.0, 0.1)
        assert lo == pytest.approx(-0.887298334621, abs=1e-9)
        assert hi == pytest.approx(-0.112701665379, abs=1e-9)

    def test_complex_pair_flag(self):
        assert quad_roots(0.0, 1.0) is None

    def test_vieta(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a1, a0 = rng.uniform(-5, 5, size=2)
            roots = quad_roots(a1, a0)
            if roots is None:
                assert a1 * a1 - 4 * a0 < 0
                continue
            lo, hi = roots
            assert lo <= hi
            assert lo + hi == pytest.approx(-a1, abs=1e-12 * max(1, abs(a1)))
            assert lo * hi == pytest.approx(a0, abs=1e-12 * max(1, abs(a0)))


class TestMinSv:
    def test_identity(self):
        assert min_sv(np.eye(2)) == pytest.approx(1.0)

    def test_rank_deficient(self):
        assert min_sv(np.array([[1.0, 0.0], [0.0, 0.0]])) == pytest.approx(0.0)

    def test_symmetric_2x2_eigen_oracle(self):
        m = np.array([[1 / 3, 1 / 2], [1 / 2, 1.0]])
        tr, det = np.trace(m), np.linalg.det(m)
        smaller_eig = (tr - math.sqrt(tr * tr - 4 * det)) / 2.0
        assert min_sv(m) == pytest.approx(smaller_eig, rel=1e-10)
