"""Property tests of the closed-form crossing `simcore._first_zero` and its
public form `simcore.crossing_time`.

Random 2x2 flows (rotating, real-eigenvalue, defective) meet a line c . x
= 0 through the origin that the flow crosses at a chosen time inside the
interval.  The interval is short enough that this crossing is the only
one, so the bisection and the ITP search that crossing_time ran before,
kept here inline, must agree with the closed form to their 1e-12
tolerance: the bisection on `scipy.linalg.expm`, the ITP search on c . x
summed exactly, whose final bracket the closed form must meet to a few
ulps.  The dense output used to check signs and residuals is an
independent `scipy.linalg.expm`.  Finding a crossing takes
no exponential; find_nu and run_destabilizer take one per crossing for its
state.
"""

import decimal
import math
import warnings
from unittest import mock

import numpy as np
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from pestab import adversary, simcore
from pestab.gains import A_DI, B_DI, di_gain
from pestab.matkit import one_norm
from pestab.signals import PeClass, make_battery
from pestab.simcore import ClosedLoop, _first_zero, crossing_time, propagate

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

# the tolerance of the searches crossing_time ran before, relative to the
# interval
_SEARCH_REL_TOL = 1e-12
_EPS = float(np.finfo(float).eps)


def value_at(case, t):
    """c . x(t) on the oracle's dense output, t clamped to the interval."""
    m, x_lo, t_lo, t_hi, c = case
    t = min(max(t, t_lo), t_hi)
    return float(c @ scipy.linalg.expm((t - t_lo) * m) @ x_lo)


def reference_crossing_time(case):
    """The bisection crossing_time ran before the ITP search."""
    m, x_lo, t_lo, t_hi, c = case
    f_lo = value_at(case, t_lo)
    tol = _SEARCH_REL_TOL * (t_hi - t_lo)
    lo, hi = t_lo, t_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = value_at(case, mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exact_value_at(case, t):
    """c . x(t), t clamped to the interval, rounded once from the Taylor
    series of e^{(t - t_lo) m} x_lo summed in 50-digit decimal arithmetic on
    the exact values of the doubles.  Near the root the oracle's dense
    output can read the wrong sign: its rounding, of order eps |c| |x|,
    exceeds the functional there."""
    m, x_lo, t_lo, t_hi, c = case
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal
        s = D(min(max(t, t_lo), t_hi)) - D(t_lo)
        M = [[D(v) for v in row] for row in m.tolist()]
        term = [D(v) for v in x_lo.tolist()]
        total = list(term)
        k = 0
        while k < 20 or max(abs(v) for v in term) > D(10) ** -60:
            k += 1
            term = [s * (M[i][0] * term[0] + M[i][1] * term[1]) / k
                    for i in range(2)]
            total = [a + b for a, b in zip(total, term)]
        return float(D(c[0]) * total[0] + D(c[1]) * total[1])


def reference_itp_bracket(case):
    """The final bracket (t_lo + lo, t_lo + hi) of the ITP search that
    crossing_time ran before the closed form, inline: kappa1 = 0.02 / span
    and the truncation floored at 0.45 tol, on exact_value_at, whose signs
    are exact; an evaluation that is exactly zero at t gives (t, t)."""
    m, x_lo, t_lo, t_hi, c = case
    span = t_hi - t_lo
    f_lo, f_hi = exact_value_at(case, t_lo), exact_value_at(case, t_hi)
    tol = _SEARCH_REL_TOL * span
    n_bis = math.ceil(-math.log2(_SEARCH_REL_TOL))
    lo, hi = 0.0, span
    for j in range(n_bis + 1):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        s_f = lo + (hi - lo) * f_lo / (f_lo - f_hi)
        sigma = math.copysign(1.0, mid - s_f)
        delta = max(0.02 * (hi - lo) ** 2 / span, 0.45 * tol)
        s_t = s_f + sigma * delta if delta <= abs(mid - s_f) else mid
        r = span / 2.0 ** j - 0.5 * (hi - lo)
        s = s_t if abs(s_t - mid) <= r else mid - sigma * r
        if not lo < s < hi:
            s = mid
        f = exact_value_at(case, t_lo + s)
        if f == 0.0:
            return t_lo + s, t_lo + s
        if (f > 0.0) == (f_lo > 0.0):
            lo, f_lo = s, f
        else:
            hi, f_hi = s, f
    return t_lo + lo, t_lo + hi


def flow_matrix(kind, a, b, p, q):
    """A 2x2 matrix with the given eigen-structure in skewed coordinates."""
    P = np.array([[1.0, p], [q, 1.0]])
    if kind == "rotating":
        core = np.array([[a, -b], [b, a]])
    elif kind == "real":
        core = np.diag([a, a + b])
    else:
        core = np.array([[a, 1.0], [0.0, a]])
    return P @ core @ np.linalg.inv(P)


@st.composite
def flows(draw, kinds=("rotating", "real", "defective")):
    kind = draw(st.sampled_from(kinds))
    a = draw(st.floats(-1.0, 1.0))
    b = draw(st.floats(0.5, 3.0))
    p, q = draw(st.floats(-0.6, 0.6)), draw(st.floats(-0.6, 0.6))
    return kind, b, flow_matrix(kind, a, b, p, q)


def unit(draw):
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    return np.array([math.cos(angle), math.sin(angle)])


@st.composite
def crossings(draw):
    """(m, x_lo, t_lo, t_hi, c) and the time where c . x vanishes inside."""
    kind, b, m = draw(flows())
    x_lo = unit(draw)
    t_lo = draw(st.sampled_from((0.0, 1.0 / 3.0, 2.5, 1000.0)))
    # a rotating flow meets a line again after pi/b; a real or defective
    # flow meets it at most once
    longest = 0.9 * math.pi / b if kind == "rotating" else 2.0
    span = longest * 10.0 ** draw(st.floats(-3.0, 0.0))
    t_hi = t_lo + span
    # the searches' tolerance must be resolvable in absolute time, or no
    # time they can return lies within it (and bisection loops forever)
    assume(_SEARCH_REL_TOL * span > 4.0 * np.spacing(t_hi))
    u = span * draw(st.floats(0.05, 0.95))
    x_root = scipy.linalg.expm(u * m) @ x_lo
    c = np.array([-x_root[1], x_root[0]])
    return (m, x_lo, t_lo, t_hi, c), t_lo + u


def well_posed(case, root):
    """c . x changes sign across the interval, and within the searches'
    tolerance of the root it moves by far more than the rounding of the
    dense output, so the sign of c . x there is not noise."""
    m, x_lo, t_lo, t_hi, c = case
    if value_at(case, t_lo) * value_at(case, t_hi) >= 0.0:
        return False
    tol = _SEARCH_REL_TOL * (t_hi - t_lo)
    h = 1e-6 * (t_hi - t_lo)
    slope = abs(value_at(case, root + h) - value_at(case, root - h)) / (2 * h)
    x = scipy.linalg.expm((root - t_lo) * m) @ x_lo
    return slope * tol > 100.0 * _EPS * np.linalg.norm(c) * np.linalg.norm(x)


def residual(m, x, c, s):
    """|c . e^{s m} x| / (|c| ||e^{s m}|| |x|), the line's functional at the
    state relative to the rounding scale an exponential gives it, on the
    oracle's exponential of the traceless part of m: the factor
    e^{s tr(m)/2} cancels, and would overflow at a large offset."""
    e = scipy.linalg.expm(s * (m - 0.5 * np.trace(m) * np.eye(2)))
    return abs(c @ e @ x) / (np.linalg.norm(c) * np.linalg.norm(e, 2)
                             * np.linalg.norm(x))


@PROPERTY
@given(crossings())
def test_root_matches_bisection_reference(drawn):
    case, root = drawn
    assume(well_posed(case, root))
    m, x_lo, t_lo, t_hi, c = case
    tol = _SEARCH_REL_TOL * (t_hi - t_lo)
    assert abs(crossing_time(*case) - reference_crossing_time(case)) <= tol


@PROPERTY
@given(crossings())
def test_bit_identical_to_inline_itp_reference(drawn):
    # crossing_time is t_lo + _first_zero, bit for bit, clamped to t_hi,
    # also where c . x near the root is rounding noise; where it is not,
    # it lies within the tolerance of the ITP search it replaced
    case, root = drawn
    m, x_lo, t_lo, t_hi, c = case
    s = _first_zero(m, x_lo, c)
    got = crossing_time(*case)
    assert got == (t_hi if s is None else min(t_hi, t_lo + s))
    if well_posed(case, root):
        lo, hi = reference_itp_bracket(case)
        tol = _SEARCH_REL_TOL * (t_hi - t_lo)
        assert abs(got - 0.5 * (lo + hi)) <= tol


@PROPERTY
@given(crossings())
def test_wide_interval_searches_on_expm(drawn):
    # beyond ||m||_1 span = 1, where the ITP search took one expm per
    # evaluation, the closed form takes none and agrees with the expm
    # bisection to its tolerance
    case, root = drawn
    m, x_lo, t_lo, t_hi, c = case
    assume(one_norm(m) * (t_hi - t_lo) > 1.0)
    assume(well_posed(case, root))
    with mock.patch.object(simcore, "expm") as no_expm:
        got = crossing_time(*case)
    assert no_expm.call_count == 0
    tol = _SEARCH_REL_TOL * (t_hi - t_lo)
    assert abs(got - reference_crossing_time(case)) <= tol


@st.composite
def scaled_crossings(draw):
    """(m, x_lo, c, s): a random 2x2 flow with ||m||_1 scaled to 1e-6 to 1e6,
    a start of norm 1e-150 to 1e150, and the unit normal c of the line
    through the state at s, where r = ||m||_1 s lies in (0, 1]: no
    rotating flow turns by pi within that, so s is the first crossing."""
    m = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4,
                               max_size=4))).reshape(2, 2)
    assume(one_norm(m) > 1e-3)
    m *= 10.0 ** draw(st.floats(-6.0, 6.0)) / one_norm(m)
    s = draw(st.floats(1e-9, 1.0)) / one_norm(m)
    x_lo = unit(draw) * 10.0 ** draw(st.floats(-150.0, 150.0))
    y = scipy.linalg.expm(s * m) @ x_lo
    c = np.array([-y[1], y[0]]) / np.linalg.norm(y)
    # the flow turns the start off the line by s: an eigenvector, or a
    # flow that barely turns it, leaves the root ill-posed
    assume(abs(c @ x_lo) > 1e-6 * np.linalg.norm(x_lo))
    return m, x_lo, c, s


@PROPERTY
@given(scaled_crossings())
def test_taylor_dense_output_matches_expm(drawn):
    # on the brackets the Taylor dense output covered (||m||_1 span <= 1),
    # at any scale of the flow and of the start: the closed form takes no
    # exponential, warns of no overflow, underflow or invalid operation,
    # and at its root c . x is within a few ulps of |c| ||e^{s m}|| |x|
    m, x_lo, c, s = drawn
    with warnings.catch_warnings(), \
            mock.patch.object(simcore, "expm") as no_expm:
        warnings.simplefilter("error")
        got = _first_zero(m, x_lo, c)
    assert no_expm.call_count == 0
    # the rounding of c . x_lo, relative to it, moves the root about as much
    assert abs(got - s) <= 1e-8 * s
    assert residual(m, x_lo, c, got) <= 8 * _EPS


@PROPERTY
@given(crossings(), st.integers(-498, 498))
def test_root_of_a_scaled_state_is_the_same(drawn, e):
    # states from about 1e-150 to 1e150, scaled exactly by 2^e: u and v
    # scale together, so the root keeps its bits, and nothing overflows or
    # underflows
    (m, x_lo, t_lo, t_hi, c), root = drawn
    s = _first_zero(m, x_lo, c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = _first_zero(m, np.ldexp(x_lo, e), c)
    assert scaled == s


@PROPERTY
@given(crossings())
def test_root_residual_within_ulps_of_expm_oracle(drawn):
    (m, x_lo, t_lo, t_hi, c), root = drawn
    s = _first_zero(m, x_lo, c)
    assert residual(m, x_lo, c, s) <= 8 * _EPS


@st.composite
def free_crossings(draw):
    """(m, x, c): a flow of any kind with a start and a line in general
    position, the line's normal drawn apart from the start's own normal."""
    _, _, m = draw(flows())
    x, c = unit(draw), unit(draw)
    assume(abs(c @ x) > 1e-3)
    return m, x, c


def signs_on_grid(m, x, c, offsets):
    """sign(c . e^{s m} x) at the offsets, on the oracle's exponential of
    the traceless part of m: e^{s tr(m)/2} > 0 drops out of the sign and
    would overflow on long grids."""
    n = m - 0.5 * np.trace(m) * np.eye(2)
    return np.sign(scipy.linalg.expm(offsets[:, None, None] * n) @ x @ c)


@PROPERTY
@given(free_crossings())
def test_no_earlier_zero(drawn):
    # c . e^{s m} x keeps the sign of c . x on a fine grid of (0, s), and
    # changes it across s
    m, x, c = drawn
    s = _first_zero(m, x, c)
    # a nearly defective flow can turn so slowly that the first zero lies
    # beyond what the oracle resolves
    assume(s is not None and s * one_norm(m) <= 20.0)
    grid = s * np.arange(1, 1000) / 1000.0
    assert np.all(signs_on_grid(m, x, c, grid) == np.sign(c @ x))
    assert residual(m, x, c, s) <= 64 * _EPS
    ends = signs_on_grid(m, x, c, s * np.array([1.0 - 1e-6, 1.0 + 1e-6]))
    assert ends[0] * ends[1] < 0.0


@PROPERTY
@given(free_crossings())
def test_rotating_flows_always_cross_and_real_ones_may_not(drawn):
    # a rotating flow meets every line within half a turn; a real-eigenvalue
    # flow that never meets the line keeps one sign out to 100 time units
    m, x, c = drawn
    tau = 0.5 * np.trace(m)
    delta = tau * tau - np.linalg.det(m)
    s = _first_zero(m, x, c)
    if delta < -1e-9:
        assert s is not None and s <= math.pi / math.sqrt(-delta) * (1 + 1e-9)
    if s is None:
        assert delta > -1e-9
        grid = np.concatenate(([0.0], np.geomspace(1e-6, 100.0, 2000)))
        assert len(set(signs_on_grid(m, x, c, grid).tolist())) == 1


def test_real_flows_that_never_cross_return_none():
    # x' = diag(-1, -2) x from (1, 1): x2 / x1 = e^{-t} falls from 1 to 0,
    # so the flow meets x2 = 2 x1 never, x2 = x1 / 2 at log 2 and the axes
    # never; a defective flow from (1, 0) stays on the axis x2 = 0, and
    # from (1, 1e-3) never reaches it; the zero flow stands still
    m = np.diag([-1.0, -2.0])
    x = np.array([1.0, 1.0])
    assert _first_zero(m, x, np.array([-2.0, 1.0])) is None
    assert _first_zero(m, x, np.array([1.0, 0.0])) is None
    assert _first_zero(m, x, np.array([0.0, 1.0])) is None
    half = _first_zero(m, x, np.array([-0.5, 1.0]))
    assert abs(half - math.log(2.0)) <= 4 * _EPS
    jordan = np.array([[-1.0, 1.0], [0.0, -1.0]])
    assert _first_zero(jordan, np.array([1.0, 0.0]),
                       np.array([0.0, 1.0])) == 0.0
    assert _first_zero(jordan, np.array([1.0, 1e-3]),
                       np.array([0.0, 1.0])) is None
    assert _first_zero(np.zeros((2, 2)), x, np.array([0.0, 1.0])) is None


def test_rotation_with_v_zero_is_a_quarter_turn():
    # x' = (-x2, x1) from (1, 0) meets x1 = 0 after a quarter turn: c . N x
    # = 0 there, and the closed form reads pi / (2 omega)
    rot = np.array([[0.0, -2.0], [2.0, 0.0]])
    s = _first_zero(rot, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert s == math.pi / 4.0


def test_delta_within_1e_12_of_zero_on_both_sides():
    # m = tau I + N with N = [[0, 1], [delta, 0]], N^2 = delta I: the flow
    # rotates for delta < 0, is defective at 0 and real above
    for tau in (0.0, -0.3, 0.7):
        for delta in (-1e-12, -1e-14, -1e-16, 0.0, 1e-16, 1e-14, 1e-12):
            m = np.array([[tau, 1.0], [delta, tau]])
            # from (-1, 2) to x1 = 0: u = -1, v = 2, w = 1/2, and the first
            # zero moves continuously through delta = 0 like w (1 + w^2
            # delta / 3); the series branch keeps it exact
            x, c = np.array([-1.0, 2.0]), np.array([1.0, 0.0])
            s = _first_zero(m, x, c)
            want = 0.5 * (1.0 + 0.25 * delta / 3.0)
            assert abs(s - want) <= 2 * _EPS * want
            assert residual(m, x, c, s) <= 8 * _EPS
            # from (1, -1) to x2 = 0: u = -1, v = delta, w = 1 / delta; the
            # rotating flow crosses after more than a quarter turn, the
            # defective and real flows never
            x, c = np.array([1.0, -1.0]), np.array([0.0, 1.0])
            s = _first_zero(m, x, c)
            if delta < 0.0:
                omega = math.sqrt(-delta)
                assert math.pi / 2.0 < s * omega < math.pi
                assert residual(m, x, c, s) <= 8 * _EPS
            else:
                assert s is None


@PROPERTY
@given(crossings())
def test_sign_changes_across_root(drawn):
    case, root = drawn
    assume(well_posed(case, root))
    m, x_lo, t_lo, t_hi, c = case
    tol = _SEARCH_REL_TOL * (t_hi - t_lo)
    t = crossing_time(*case)
    assert t_lo <= t <= t_hi
    assert value_at(case, t - tol) * value_at(case, t + tol) <= 0.0


def midpoint_root_case():
    """A defective flow whose line is drawn through the oracle's state at
    the midpoint 0.1 of [0, 0.2], where the ITP search evaluates first.
    The line is nearly perpendicular to the state there (|c . x| = 0.038
    against |c| |x| = 1.06), so dot products that round each term lose
    digits to cancellation: they put the time 11 ulps below the exact root
    of these doubles, 0.1000000000000000483 (300-bit arithmetic), and 7
    ulps below the search's final bracket, which starts at 0.1."""
    m = np.array([[-0.023958333333333328, 1.0666666666666667],
                  [-0.016666666666666666, 0.24270833333333333]])
    x_lo = np.array([math.cos(0.75), math.sin(0.75)])
    x_root = scipy.linalg.expm(0.1 * m) @ x_lo
    return (m, x_lo, 0.0, 0.2, np.array([-x_root[1], x_root[0]])), 0.1


def sign_flip_case():
    """A flow whose line is drawn through the oracle's state at the
    midpoint of [0, 0.63]: there the oracle's dense output reads c . x =
    +6.2e-17 where the exact value is -6.9e-17, so a search on it ends 4.7
    ulps past the exact root of these doubles, 0.31622776601683762656
    (60-digit arithmetic), which the closed form meets within 0.33 ulp."""
    m = np.array([[0.779296875, 1.0], [-0.048709869384765625, 1.220703125]])
    x_lo = np.array([0.8288484876093257, 0.5594731312473669])
    c = np.array([-0.8036196077273532, 1.3004947444381738])
    return (m, x_lo, 0.0, 0.6324555320336759, c), 0.31622776601683794


@PROPERTY
@given(crossings())
@example(midpoint_root_case())
@example(sign_flip_case())
def test_returns_midpoint_of_final_bracket(drawn):
    # no bracket is searched any more: the closed-form time lies inside the
    # final bracket of the ITP search it replaced, widened by the rounding
    # of a time near t_hi
    case, root = drawn
    assume(well_posed(case, root))
    m, x_lo, t_lo, t_hi, c = case
    lo, hi = reference_itp_bracket(case)
    t = crossing_time(*case)
    assert lo - 2 * np.spacing(t_hi) <= t <= hi + 2 * np.spacing(t_hi)


@PROPERTY
@given(crossings())
def test_expm_calls_bounded_per_root(drawn):
    # also where c . x near the root is rounding noise: no exponential,
    # where the ITP search took up to 42 evaluations of a dense output
    case, root = drawn
    with mock.patch.object(simcore, "expm") as no_expm:
        crossing_time(*case)
    assert no_expm.call_count == 0


def test_find_nu_roots_take_few_evaluations():
    # each crossing the nu threshold search finds costs one expm, for its
    # state, and finding it none: the ITP search took about 7.7
    # evaluations of a dense output per root, and the march before it
    # many more steps
    roots = []
    real = adversary._first_zero

    def counting(*args):
        roots.append(real(*args))
        return roots[-1]

    with mock.patch.object(adversary, "_first_zero", counting), \
            mock.patch.object(adversary, "expm",
                              wraps=adversary.expm) as counted, \
            mock.patch.object(simcore, "expm") as no_expm:
        for k1, k2 in ((1.0, 1.0), (0.5, 0.5), (3.0, 2.0)):
            adversary.find_nu(np.array([[-k1, -k2]]))
    assert len(roots) >= 30
    assert counted.call_count == sum(s is not None for s in roots)
    assert no_expm.call_count == 0


def test_fixed_crossings_take_few_exponentials():
    # the destabilizer's sector crossings take one exponential each, for
    # the state, and the axis crossings of double-integrator runs (the
    # roots the chain certificate reads when it needs a visit's time, all
    # found here) none: the ITP search took about 7.8 evaluations of a
    # dense output per root
    gains = ((0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0),
             (2.0, 1.0), (2.0, 1.5), (3.0, 1.0), (3.0, 2.0))
    with mock.patch.object(adversary, "expm",
                           wraps=adversary.expm) as counted:
        for k1, k2 in gains:
            adversary.run_destabilizer(np.array([[-k1, -k2]]),
                                       PeClass(1.0, 0.03))
    assert counted.call_count == 4 * len(gains)
    cls = PeClass(1.0, 0.5)
    K = di_gain(cls, 0.2, 4.0, 8.0).K
    roots = 0
    for sig in make_battery(cls, 6, seed=3).signals:
        traj = propagate(ClosedLoop(A_DI, B_DI, K, sig), 0.0, [-1.0, 0.3],
                         10.0)
        x2 = traj.states[:, 1]
        with mock.patch.object(simcore, "expm") as no_expm:
            for j in np.flatnonzero(x2[:-1] * x2[1:] < 0.0):
                t = crossing_time(*traj.segment_flow(j), (0.0, 1.0))
                assert traj.times[j] <= t <= traj.times[j + 1]
                roots += 1
        assert no_expm.call_count == 0
    assert roots >= 30
