import itertools
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from pestab.errors import ShapeError
from pestab.gains import di_gain
from pestab.matkit import _gramian2, expm, min_sv, one_norm, quad_roots
from pestab.signals import PeClass

A_DI = np.array([[0.0, 1.0], [0.0, 0.0]])
B_DI = np.array([[0.0], [1.0]])
ROT = np.array([[0.0, -1.0], [1.0, 0.0]])
EPS = np.finfo(float).eps
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


def taylor_expm(m, t, terms=30):
    """Independent truncated-series oracle."""
    a = t * np.asarray(m, dtype=float)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for i in range(1, terms + 1):
        term = term @ a / i
        out = out + term
    return out


def oracle_error(m, t: float = 1.0) -> float:
    """The normwise 1-norm error of expm(m, t) against the exponential of
    the exact t m at 50 digits, in units of eps (1 + ||t m||_1)."""
    got = expm(m, t)
    with mpmath.workdps(50):
        want = mpmath.expm(mpmath.mpf(t) * mpmath.matrix(np.asarray(
            m, dtype=float).tolist()))
        cols = range(want.cols)
        err = max(sum(abs(mpmath.mpf(got[i, j]) - want[i, j]) for i in cols)
                  for j in cols)
        size = max(sum(abs(want[i, j]) for i in cols) for j in cols)
        return float(err / size) / (EPS * (1.0 + t * one_norm(m)))


def _di_loops():
    # the double-integrator loops of the benchmark's gains at its gate
    # levels: the tuned di_gain cells and the destabilizer's (k1, k2)
    gains = [di_gain(PeClass(1.0, mu), 0.4 * mu, k, lk * k).K
             for mu, k, lk in itertools.product((0.3, 0.5, 0.7), (1.0, 2.0),
                                                (1.0, 2.0))]
    gains += [np.array([[-k1, -k2]]) for k1, k2 in (
        (0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0), (2.0, 1.0),
        (2.0, 1.5), (3.0, 1.0), (3.0, 2.0))]
    return [A_DI + a * B_DI @ K for K in gains for a in (0.03, 0.5, 1.0)]


def _oracle_cases():
    rng = np.random.default_rng(20261019)
    steps = np.geomspace(1e-3, 3.0, 7)
    cases = [(m, h) for m in _di_loops() for h in steps]
    # rotation loops x' = (R - a r B B^T) x
    cases += [(ROT - a * r * B_DI @ B_DI.T, h) for a in (0.25, 1.0)
              for r in (0.5, 1.0, 8.0) for h in steps]
    # random matrices from 1e-4 to 1e2.5, of exponentials within the
    # doubles
    cases += [(m, 1.0) for m in (
        rng.standard_normal((2, 2)) * scale
        for scale in np.geomspace(1e-4, 10 ** 2.5, 14) for _ in range(20))
        if np.linalg.eigvals(m).real.max() < 700.0]
    # similar copies of stiff diagonals
    for lo, hi in itertools.product((-1e3, -1e2, -30.0), (-1.0, 0.0, 0.5)):
        for _ in range(6):
            p = rng.standard_normal((2, 2))
            cases.append((p @ np.diag([lo, hi]) @ np.linalg.inv(p), 1.0))
    # near-defective triangular matrices, and their transposes
    for lam, b, d in itertools.product((-2.0, 0.0, 1.0), (1.0, 1e3),
                                       (1e-12, 1e-8, 1e-4)):
        tri = np.array([[lam, b], [0.0, lam + d]])
        cases += [(tri, 1.0), (tri.T, 1.0)]
    # fast rotations, decaying and not
    cases += [(np.array([[tau, -w], [w, tau]]), 1.0)
              for w in (10.0, 1e2, 1e3, 1e4) for tau in (0.0, -3.0)]
    # delta = n_00^2 + m01 m10 cancels: N nearly nilpotent
    for h, x, eta in itertools.product((0.5, 3.0, 40.0), (0.1, 7.0),
                                       (1e-15, 1e-9, 1e-4)):
        sign = rng.choice((-1.0, 1.0))
        cases.append((np.array([[1.0 + h, x],
                                [-h * h * (1.0 + sign * eta) / x, 1.0 - h]]),
                       1.0))
    return cases


def gramian_oracle(a, q, h):
    """(e^{ah}, int_0^h e^{as} q e^{a^T s} ds) at 50 digits, independent of
    the closed form: a Van Loan block exponential at u = h / 2^k, with
    ||a u||_1 <= 2^-8 so that its blocks cannot cancel, then k doublings
    G(2u) = G(u) + e^{au} G(u) e^{a^T u}, sums of semidefinite terms.  The
    block's corner is linear in q, so it takes q / max|q| in place of q u
    and is scaled back after: entries of any size keep their 50 digits."""
    scale = float(np.max(np.abs(q)))
    with mpmath.workdps(50):
        A = mpmath.matrix(np.asarray(a).tolist())
        Q = mpmath.matrix(np.asarray(q).tolist()) / (scale or 1.0)
        norm = max(abs(A[0, j]) + abs(A[1, j]) for j in range(2))
        k = 0
        while norm * h > 2.0 ** (k - 8):
            k += 1
        u = mpmath.mpf(h) / 2 ** k
        C = mpmath.zeros(4, 4)
        for i, j in itertools.product(range(2), range(2)):
            C[i, j], C[i, 2 + j], C[2 + i, 2 + j] = (
                -A[i, j] * u, Q[i, j], A[j, i] * u)
        E = mpmath.expm(C)
        phi = E[2:4, 2:4].T
        G = phi * E[0:2, 2:4] * (u * scale)
        for _ in range(k):
            G, phi = G + phi * G * phi.T, phi * phi
        return phi, G


def gramian_errors(a, b, h):
    """_gramian2's normwise 1-norm errors against the 50-digit oracle:
    e^{ah}'s in units of eps (1 + ||h a||_1), below the normal doubles
    measured against the smallest normal, and the Gramian's in units of
    eps ||G||_1."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    q = b @ b.T
    got = _gramian2(a, q, h)
    want = gramian_oracle(a, q, h)
    with mpmath.workdps(50):
        errs = []
        for g, w in zip(got, want):
            size = max(abs(w[0, j]) + abs(w[1, j]) for j in range(2))
            err = max(sum(abs(mpmath.mpf(g[i, j]) - w[i, j]) for i in range(2))
                      for j in range(2))
            errs.append(float(err / max(size, 2.0 ** -1022)) / EPS)
    return errs[0] / (1.0 + h * one_norm(a)), errs[1]


def _gramian_cases():
    """(a, b, h): every distinct matrix of _oracle_cases at one width, the
    widths 1e-8 to 10 taken in turn, and both presets and the stiff
    near-defective block at every width; only where the Gramian, about
    e^{2 h max Re eig a}, stays within the doubles."""
    widths = np.geomspace(1e-8, 10.0, 10)
    inputs = [B_DI, np.array([[1.0], [0.0]]), np.array([[1.0], [-0.5]])]
    mats = {np.asarray(m, dtype=float).tobytes(): np.asarray(m, dtype=float)
            for m, _ in _oracle_cases()}
    cases = [(m, inputs[i % 3], widths[i % 10])
             for i, m in enumerate(mats.values())]
    stiff = np.array([[-2.0, 1000.0], [0.0, -2.0 + 1e-12]])
    for h in widths:
        cases += [(A_DI, B_DI, h), (ROT, B_DI, h), (stiff, inputs[0], h),
                  (stiff, inputs[2], h), (stiff.T, inputs[1], h)]
    return [(m, b, h) for m, b, h in cases
            if 2.0 * h * np.linalg.eigvals(m).real.max() <= 700.0]


class TestPlanarClosedForm:
    def test_matches_a_50_digit_oracle(self):
        # within 32 eps (1 + ||t m||_1) normwise on every family; scipy's
        # triangular branch reads 8.2e-5 relative on the last
        # near-defective entry, 3.7e8 on this yardstick
        worst = max(oracle_error(m, t) for m, t in _oracle_cases())
        assert worst <= 32.0

    def test_near_defective_triangular_entry(self):
        a = np.array([[-2.0, 1000.0], [0.0, -2.0 + 1e-12]])
        with mpmath.workdps(50):
            want = mpmath.expm(mpmath.matrix(a.tolist()))[0, 1]
            assert abs(expm(a)[0, 1] / want - 1) <= 4 * EPS

    def test_zero_matrix_is_identity(self):
        assert expm(np.zeros((2, 2)), 5.0).tobytes() == np.eye(2).tobytes()

    @pytest.mark.parametrize("d", [(0.3, -2.5), (-800.0, 1e-300),
                                   (710.0, -0.0), (709.7, -745.2)])
    def test_diagonal_is_exp_of_the_diagonal(self, d):
        # math.exp of each entry, bit for bit: 0 below the subnormals, inf
        # past the largest double, with no OverflowError
        want = np.array([[math.exp(d[0]) if d[0] < 709.78 else math.inf, 0.0],
                         [0.0, math.exp(d[1])]])
        assert expm(np.diag(d)).tobytes() == want.tobytes()

    def test_finite_entry_past_an_overflowing_scale(self):
        # e^{tau + r} = e^1000 overflows, but e^1000 1e-300 is 2e134
        a = np.array([[1000.0, 1e-300], [0.0, 999.0]])
        got = expm(a)
        with mpmath.workdps(50):
            want = mpmath.expm(mpmath.matrix(a.tolist()))[0, 1]
            assert abs(got[0, 1] / want - 1) <= 1e-12
        assert got[0, 0] == got[1, 1] == math.inf and got[1, 0] == 0.0

    def test_overflowing_entries_are_signed_infinities(self):
        # e^800 times a rotation by one radian
        got = expm(np.array([[800.0, 1.0], [-1.0, 800.0]]))
        assert got.tolist() == [[math.inf, math.inf], [-math.inf, math.inf]]

    @PROPERTY
    @given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=4, max_size=4), min_size=1, max_size=4),
           st.sampled_from((1.0, 0.5, -1.0)))
    @example([[1e308, 1e308, 1e308, 1e308]], 1.0)
    @example([[0.0, 1e308, -1e308, 0.0], [1e308, -1e308, 1e308, -1e308]], 1.0)
    @example([[-1e200, 1e200, 1e200, -1e200], [0.0, 1e305, 0.0, 0.0]], 1.0)
    @example([[709.0, 1.0, 0.0, 709.9], [1000.0, 1e-300, 0.0, 999.0]], 1.0)
    @example([[5e-324, -5e-324, 5e-324, 0.0]], -1.0)
    def test_any_finite_stack_has_no_nan_and_its_slices_bits(self, rows, t):
        # no OverflowError, no nan; entries past the doubles read +-inf;
        # each slice has the bits of its own call
        stack = np.reshape(rows, (-1, 2, 2))
        got = expm(stack, t)
        assert not np.isnan(got).any()
        for m, e in zip(stack, got):
            assert e.tobytes() == expm(m, t).tobytes()

    def test_overflowing_t_times_m_is_refused(self):
        # e^{2 m} of this rotation is bounded, but 2 m is not a double:
        # no wrong rotation and no untyped fsum error
        with np.errstate(over="ignore"), \
                pytest.raises(ShapeError, match="overflows"):
            expm(np.array([[0.0, 1e308], [-1e308, 0.0]]), 2.0)
        # a diagonal t m past the doubles reads e^{+-inf}
        with np.errstate(over="ignore"):
            got = expm(np.diag([1e308, -1e308]), 2.0)
        assert got.tolist() == [[math.inf, 0.0], [0.0, 0.0]]

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_other_sizes_are_scipys_bits(self, n):
        rng = np.random.default_rng(n)
        stack = rng.standard_normal((5, n, n)) * \
            np.array([1e-3, 0.1, 1.0, 3.0, 40.0])[:, None, None]
        for t in (1.0, 0.7):
            assert expm(stack, t).tobytes() == \
                scipy.linalg.expm(t * stack).tobytes()
            for m in stack:
                assert expm(m, t).tobytes() == \
                    scipy.linalg.expm(t * m).tobytes()


@st.composite
def planar_gramian_cases(draw):
    """(a, b, h): entries of a of magnitude up to 1e3, a width from 1e-8 to
    10, with the Gramian within the doubles.  b's entries are multiples of
    2^-10, so q = b b^T is exact and of rank one: the oracle's Gramian is
    then b's, not that of a rounded q whose second, rounding-sized
    eigenvalue a fast mode can amplify past the bound."""
    entry = st.tuples(st.floats(-1.0, 1.0), st.integers(-3, 2)).map(
        lambda p: p[0] * 10.0 ** p[1])
    a = np.array(draw(st.lists(entry, min_size=4, max_size=4))).reshape(2, 2)
    b = np.array(draw(st.lists(st.integers(-1024, 1024), min_size=2,
                               max_size=2))).reshape(2, 1) / 1024.0
    h = 10.0 ** draw(st.floats(-8.0, 1.0))
    assume(2.0 * h * np.linalg.eigvals(a).real.max() <= 700.0)
    assume(np.any(b != 0.0))
    return a, b, h


class TestPlanarGramian:
    def test_matches_a_50_digit_oracle(self):
        # e^{ah} within 32 eps (1 + ||h a||_1) and G within 1024 eps
        # ||G||_1, normwise, on 507 cases; the worst G reads 555 eps, at
        # 2 h max Re eig a = 663.  A scipy Van Loan block, whose e^{-ah}
        # grows with the most negative eigenvalue, reads more than 1024 eps
        # on 44 of these cases, up to 4.9e128 eps, and is not finite on 8
        cases = _gramian_cases()
        assert len(cases) >= 500
        errs = [gramian_errors(a, b, h) for a, b, h in cases]
        assert max(e for e, _ in errs) <= 32.0
        assert max(e for _, e in errs) <= 1024.0

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(planar_gramian_cases())
    # delta = 0 exactly, on the series side of the switch at |c| + 2
    # sqrt|y| = 1 (c = 2 tau h, y = delta h^2) and past it
    @example(([[0.25, 1.0], [0.0, 0.25]], B_DI, 2.0))
    @example(([[0.25, 1.0], [0.0, 0.25]], B_DI, 2.0000001))
    # tau = 0: a rotation and a saddle on either side of the switch
    @example((ROT, B_DI, 0.5))
    @example((ROT, B_DI, 0.5000001))
    @example(([[0.0, 1.0], [1.0, 0.0]], [[1.0], [0.3]], 0.5))
    @example(([[0.0, 1.0], [1.0, 0.0]], [[1.0], [0.3]], 0.5000001))
    # delta < 0 with sqrt(-delta) h at and near pi
    @example((ROT, B_DI, math.pi))
    @example(([[-0.1, -1.0], [1.0, -0.1]], [[1.0], [0.3]],
              math.pi * (1.0 - 1e-9)))
    # a zero eigenvalue, a node at 0 far from the other
    @example(([[0.0, 1.0], [0.0, -1.0]], B_DI, 5.0))
    # e^{2 tau h} near the largest double, delta = 0 and delta > 0
    @example(([[354.0, 1.0], [0.0, 354.0]], B_DI, 1.0))
    @example(([[350.0, 1.0], [1.0, 350.0]], [[1.0], [0.3]], 1.01))
    def test_regime_edges_match_the_oracle(self, case):
        # both within 32 eps (1 + ||h a||_1), the yardstick of expm: the
        # Gramian's rounding grows with the exponent, e^{2 h max Re eig a}
        a, _, h = case
        e_phi, e_g = gramian_errors(*case)
        assert e_phi <= 32.0
        assert e_g <= 32.0 * (1.0 + h * one_norm(a))

    @PROPERTY
    @given(planar_gramian_cases(),
           st.lists(st.floats(-8.0, 1.0).map(lambda e: 10.0 ** e),
                    min_size=1, max_size=8))
    @example(([[0.0, 1.0], [0.0, 0.0]], B_DI, 1.0), [0.0, 1e-8, 3.0])
    @example((ROT, B_DI, 1.0), [0.5, 0.5000001, math.pi])
    def test_each_width_keeps_its_bits(self, case, widths):
        # alone, as a scalar, and inside any stack: the battery's Gramians
        # keep each gate's own bits
        a, b, _ = case
        a, q = np.asarray(a, dtype=float), np.asarray(b) @ np.asarray(b).T
        stacks = [_gramian2(a, q, np.array(widths)),
                  _gramian2(a, q, np.array(widths[::-1]))]
        for i, h in enumerate(widths):
            one = [x.tobytes() for x in _gramian2(a, q, h)]
            assert one == [x[0].tobytes() for x in _gramian2(a, q, [h])]
            for k, (phis, gs) in zip((i, len(widths) - 1 - i), stacks):
                assert one == [phis[k].tobytes(), gs[k].tobytes()]


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
