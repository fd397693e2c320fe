"""Property tests of the crossing root-finder `simcore.crossing_time`.

Random 2x2 flows (rotating, real-eigenvalue, defective) with linear and
quadratic functionals that vanish at a chosen time inside the interval.  The
interval is short enough that the sign change there is the only root, so the
ITP search and the plain bisection it replaced, kept here as the reference,
must agree to the tolerance; the ITP loop crossing_time runs through
simcore._itp, written out inline on the same dense output, is a bit-for-bit
reference, and on an interval wider than the Taylor dense output covers it
is the expm search crossing_time ran before.  The dense output used to
check signs is an independent `scipy.linalg.expm`, and the Taylor dense
output is checked against `matkit.expm` on random flows.
"""

import math
import warnings
from unittest import mock

import numpy as np
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from pestab import adversary, simcore
from pestab.gains import A_DI, B_DI, di_gain
from pestab.matkit import one_norm
from pestab.signals import PeClass, make_battery
from pestab.simcore import ClosedLoop, crossing_time, propagate

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

# bisection to _CROSSING_REL_TOL of the interval takes 40 evaluations; ITP
# with n0 = 1 adds at most one, and one more is spent at t_hi
_MAX_EVALS_PER_ROOT = 42


def counted_dense_outputs():
    """Patch simcore._dense_output so that every evaluation of a dense
    output appends its offset s to the returned list."""
    offsets = []
    real = simcore._dense_output

    def recording(m, x_lo, span):
        x_at = real(m, x_lo, span)

        def recorded(s):
            offsets.append(s)
            return x_at(s)
        return recorded
    return mock.patch.object(simcore, "_dense_output", recording), offsets


def reference_crossing_time(m, x_lo, t_lo, t_hi, fn):
    """The bisection crossing_time ran before the ITP search."""
    f_lo = fn(x_lo)
    tol = simcore._CROSSING_REL_TOL * (t_hi - t_lo)
    lo, hi = t_lo, t_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = fn(simcore.expm(m, mid - t_lo) @ x_lo)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_itp_crossing_time(m, x_lo, t_lo, t_hi, fn, x_at=None):
    """The ITP loop crossing_time runs through simcore._itp, inline:
    kappa1 = 0.02 / span, and the truncation floored at 0.45 tol, on the
    dense output x_at(s) = x(t_lo + s), by default simcore._dense_output."""
    span = t_hi - t_lo
    if x_at is None:
        x_at = simcore._dense_output(m, x_lo, span)
    f_lo = fn(x_lo)
    if f_lo == 0.0:
        return t_lo
    f_hi = fn(x_at(span))
    if f_hi == 0.0 or (f_hi > 0.0) == (f_lo > 0.0):
        return t_hi
    tol = simcore._CROSSING_REL_TOL * span
    n_bis = math.ceil(-math.log2(simcore._CROSSING_REL_TOL))
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
        f = fn(x_at(s))
        if f == 0.0:
            return t_lo + s
        if (f > 0.0) == (f_lo > 0.0):
            lo, f_lo = s, f
        else:
            hi, f_hi = s, f
    return t_lo + 0.5 * (lo + hi)


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
def crossings(draw):
    """(m, x_lo, t_lo, t_hi, fn) and the time where fn vanishes inside."""
    kind = draw(st.sampled_from(("rotating", "real", "defective")))
    a = draw(st.floats(-1.0, 1.0))
    b = draw(st.floats(0.5, 3.0))
    p, q = draw(st.floats(-0.6, 0.6)), draw(st.floats(-0.6, 0.6))
    m = flow_matrix(kind, a, b, p, q)
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    x_lo = np.array([math.cos(angle), math.sin(angle)])
    t_lo = draw(st.sampled_from((0.0, 1.0 / 3.0, 2.5, 1000.0)))
    # a rotating flow revisits a direction after pi/b; within a shorter
    # interval a linear or quadratic functional has one sign-change root
    longest = 0.9 * math.pi / b if kind == "rotating" else 2.0
    span = longest * 10.0 ** draw(st.floats(-3.0, 0.0))
    t_hi = t_lo + span
    # the tolerance must be resolvable in absolute time, or no time the
    # root-finder can return lies within it (and the bisection reference
    # would loop forever)
    assume(simcore._CROSSING_REL_TOL * span > 4.0 * np.spacing(t_hi))
    u = span * draw(st.floats(0.05, 0.95))
    x_root = scipy.linalg.expm(u * m) @ x_lo
    if draw(st.booleans()):
        def g(x):
            return float(x_root[0] * x[1] - x_root[1] * x[0])
    else:
        Q = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3,
                                   max_size=3)))
        Q = np.array([[Q[0], Q[1]], [Q[1], Q[2]]])
        Q -= (x_root @ Q @ x_root) / (x_root @ x_root) * np.eye(2)

        def g(x):
            return float(x @ Q @ x)
    # odd powers keep the root but make fn flat or steep there, which
    # defeats plain interpolation
    power = draw(st.sampled_from((1.0, 1.0, 3.0, 9.0, 1.0 / 3.0)))

    def fn(x):
        v = g(x)
        return math.copysign(abs(v) ** power, v)
    return (m, x_lo, t_lo, t_hi, fn), t_lo + u


def value_at(case, t):
    m, x_lo, t_lo, t_hi, fn = case
    t = min(max(t, t_lo), t_hi)
    return fn(scipy.linalg.expm((t - t_lo) * m) @ x_lo)


def well_posed(case, root):
    """fn changes sign across the interval, and within tol of the root it
    moves by far more than the rounding of the dense output (a few ulps of
    |x|^2), so the sign of fn there is not noise."""
    m, x_lo, t_lo, t_hi, fn = case
    if value_at(case, t_lo) * value_at(case, t_hi) >= 0.0:
        return False
    tol = simcore._CROSSING_REL_TOL * (t_hi - t_lo)
    h = 1e-6 * (t_hi - t_lo)
    slope = abs(value_at(case, root + h) - value_at(case, root - h)) / (2 * h)
    x = scipy.linalg.expm((root - t_lo) * m) @ x_lo
    return slope * tol > 100.0 * np.finfo(float).eps * (x @ x)


@PROPERTY
@given(crossings())
def test_root_matches_bisection_reference(drawn):
    case, root = drawn
    assume(well_posed(case, root))
    m, x_lo, t_lo, t_hi, fn = case
    tol = simcore._CROSSING_REL_TOL * (t_hi - t_lo)
    assert abs(crossing_time(*case) - reference_crossing_time(*case)) <= tol


@PROPERTY
@given(crossings())
def test_bit_identical_to_inline_itp_reference(drawn):
    # also where fn near the root is rounding noise
    case, root = drawn
    m, x_lo, t_lo, t_hi, fn = case
    got = crossing_time(*case)
    assert got == reference_itp_crossing_time(*case)
    for digits in (1, 3, 6):
        # rounded, fn is exactly zero on a whole interval around the root,
        # so the search can stop at an evaluation inside the bracket
        def rounded(x, digits=digits):
            return round(fn(x), digits)
        assert crossing_time(m, x_lo, t_lo, t_hi, rounded) == \
            reference_itp_crossing_time(m, x_lo, t_lo, t_hi, rounded)


@PROPERTY
@given(crossings())
def test_wide_interval_searches_on_expm(drawn):
    # beyond ||m||_1 span = 1 every evaluation is expm(m, s) @ x_lo, so the
    # root is bit for bit the one the expm search found
    case, root = drawn
    m, x_lo, t_lo, t_hi, fn = case
    assume(one_norm(m) * (t_hi - t_lo) > simcore._TAYLOR_MAX_R)
    assert crossing_time(*case) == reference_itp_crossing_time(
        *case, lambda s: scipy.linalg.expm(s * m) @ x_lo)


def taylor_order(r):
    """The least K with r^(K+1) e^(2r) / (K+1)! <= 2^-53."""
    k = 0
    while r ** (k + 1) * math.exp(2.0 * r) / math.factorial(k + 1) \
            > 2.0 ** -53:
        k += 1
    return k


@st.composite
def taylor_brackets(draw):
    """(m, x_lo, span, s): a random 2x2 or 3x3 flow over an interval with
    r = ||m||_1 span in (0, 1], a start of norm 1e-150 to 1e150, and an
    offset inside the interval."""
    n = draw(st.sampled_from((2, 3)))
    m = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n,
                               max_size=n * n))).reshape(n, n)
    assume(one_norm(m) > 0.0)
    m *= 10.0 ** draw(st.floats(-6.0, 6.0))
    r = draw(st.floats(1e-9, 1.0))
    span = r / one_norm(m)
    assume(0.0 < one_norm(m) * span <= simcore._TAYLOR_MAX_R)
    x_lo = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                                  max_size=n)))
    assume(one_norm(x_lo) > 0.0)
    x_lo *= 10.0 ** draw(st.floats(-150.0, 150.0)) / one_norm(x_lo)
    s = span * draw(st.floats(0.0, 1.0))
    return m, x_lo, span, s


@PROPERTY
@given(taylor_brackets())
def test_taylor_dense_output_matches_expm(drawn):
    # exact to rounding: within (K + 2) e^(2r) 2^-50 ||x_lo||_1 of the
    # exponential, no expm taken, and no overflow, underflow or invalid
    # operation warned of at any scale of the start
    m, x_lo, span, s = drawn
    r = one_norm(m) * span
    with warnings.catch_warnings(), \
            mock.patch.object(simcore, "expm") as no_expm:
        warnings.simplefilter("error")
        got = simcore._dense_output(m, x_lo, span)(s)
    assert no_expm.call_count == 0
    want = simcore.expm(m, s) @ x_lo
    bound = (taylor_order(r) + 2) * math.exp(2.0 * r) * 2.0 ** -50 \
        * one_norm(x_lo)
    assert one_norm(got - want) <= bound


@PROPERTY
@given(crossings())
def test_sign_changes_across_root(drawn):
    case, root = drawn
    assume(well_posed(case, root))
    m, x_lo, t_lo, t_hi, fn = case
    tol = simcore._CROSSING_REL_TOL * (t_hi - t_lo)
    t = crossing_time(*case)
    assert t_lo <= t <= t_hi
    assert value_at(case, t - tol) * value_at(case, t + tol) <= 0.0


@PROPERTY
@given(crossings())
def test_returns_midpoint_of_final_bracket(drawn):
    # read from the evaluations alone: the last points on either side of
    # the sign change are at most tol apart and the result is their
    # midpoint, or the result is an evaluation where fn is exactly zero
    case, root = drawn
    m, x_lo, t_lo, t_hi, fn = case
    assume(value_at(case, t_lo) * value_at(case, t_hi) < 0.0)
    values = []

    def recording_fn(x):
        values.append(fn(x))
        return values[-1]

    patch, evaluated = counted_dense_outputs()
    with patch:
        t = crossing_time(m, x_lo, t_lo, t_hi, recording_fn)
    offsets = [0.0] + evaluated
    tol = simcore._CROSSING_REL_TOL * (t_hi - t_lo)
    if 0.0 in values:
        zero_at = t_lo + offsets[values.index(0.0)]
        assert abs(t - zero_at) <= np.spacing(t_hi)
        return
    side = [(v > 0.0) == (values[0] > 0.0) for v in values]
    lo = max(s for s, same in zip(offsets, side) if same)
    hi = min(s for s, same in zip(offsets, side) if not same)
    assert 0.0 < hi - lo <= tol
    assert t == t_lo + 0.5 * (lo + hi)


@PROPERTY
@given(crossings())
def test_expm_calls_bounded_per_root(drawn):
    # also where fn near the root is rounding noise: the dense output is
    # evaluated no more often than bisection plus two, and where ||m||_1
    # span <= 1 no evaluation takes an exponential
    case, root = drawn
    m, x_lo, t_lo, t_hi, fn = case
    patch, evaluated = counted_dense_outputs()
    with patch, mock.patch.object(simcore, "expm",
                                  wraps=simcore.expm) as counted:
        crossing_time(*case)
    assert len(evaluated) <= _MAX_EVALS_PER_ROOT
    if 0.0 < one_norm(m) * (t_hi - t_lo) <= simcore._TAYLOR_MAX_R:
        assert counted.call_count == 0
    else:
        assert counted.call_count == len(evaluated)


def test_find_nu_roots_take_few_evaluations():
    # the point of the ITP search: about 7.7 evaluations per root of the
    # nu threshold search where bisection takes 40, also once fn is down at
    # rounding level near the root (an interpolation step that lands on an
    # end of the bracket there took about 19, and a truncation below
    # rounding that never closed the far end about 12.7)
    roots = []
    real = adversary._crossing

    def counting(*args):
        roots.append(args)
        return real(*args)

    patch, evaluated = counted_dense_outputs()
    with mock.patch.object(adversary, "_crossing", counting), patch:
        for k1, k2 in ((1.0, 1.0), (0.5, 0.5), (3.0, 2.0)):
            adversary.find_nu(np.array([[-k1, -k2]]))
    assert len(evaluated) <= 10 * len(roots)


def test_fixed_crossings_take_few_exponentials():
    # the destabilizer's sector crossings and the axis crossings of
    # double-integrator runs (the roots the chain certificate reads when
    # it needs a visit's time, all found here): the interpolation has the
    # root after 6-7 steps, and the truncation floored under half the
    # stopping width then closes the far end of the bracket, about 7.8
    # evaluations of the dense output per root; a truncation of 0.2 w^2 /
    # span alone fell below rounding and took about 12.5 here
    counts = []
    patch, evaluated = counted_dense_outputs()

    def counted(real):
        def counting(*args):
            before = len(evaluated)
            out = real(*args)
            counts.append(len(evaluated) - before)
            return out
        return counting

    cls = PeClass(1.0, 0.5)
    with mock.patch.object(adversary, "_crossing",
                           counted(adversary._crossing)), patch:
        for k1, k2 in ((0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0),
                       (2.0, 1.0), (2.0, 1.5), (3.0, 1.0), (3.0, 2.0)):
            adversary.run_destabilizer(np.array([[-k1, -k2]]),
                                       PeClass(1.0, 0.03))
        K = di_gain(cls, 0.2, 4.0, 8.0).K
        for sig in make_battery(cls, 6, seed=3).signals:
            traj = propagate(ClosedLoop(A_DI, B_DI, K, sig), 0.0,
                             [-1.0, 0.3], 10.0)
            x2 = traj.states[:, 1]
            for j in np.flatnonzero(x2[:-1] * x2[1:] < 0.0):
                counted(crossing_time)(*traj.segment_flow(j),
                                       lambda x: float(x[1]))
    assert len(counts) >= 60
    assert max(counts) <= _MAX_EVALS_PER_ROOT
    assert sum(counts) <= 8 * len(counts)
