"""Property tests of the crossing root-finder `simcore.crossing_time`.

Random 2x2 flows (rotating, real-eigenvalue, defective) with linear and
quadratic functionals that vanish at a chosen time inside the interval.  The
interval is short enough that the sign change there is the only root, so the
ITP search and the plain bisection it replaced, kept here as the reference,
must agree to the tolerance; the ITP loop crossing_time runs through
simcore._itp, written out inline, is a bit-for-bit reference.  The dense
output used to check signs is an independent `scipy.linalg.expm`.
"""

import math
from unittest import mock

import numpy as np
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from pestab import adversary, simcore
from pestab.gains import A_DI, B_DI, di_gain
from pestab.signals import PeClass, make_battery
from pestab.simcore import ClosedLoop, crossing_time, propagate

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

# bisection to _CROSSING_REL_TOL of the interval takes 40 evaluations; ITP
# with n0 = 1 adds at most one, and one more is spent at t_hi
_MAX_EXPM_PER_ROOT = 42


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


def reference_itp_crossing_time(m, x_lo, t_lo, t_hi, fn):
    """The ITP loop crossing_time runs through simcore._itp, inline:
    kappa1 = 0.02 / span, and the truncation floored at 0.45 tol."""
    f_lo = fn(x_lo)
    if f_lo == 0.0:
        return t_lo
    f_hi = fn(simcore.expm(m, t_hi - t_lo) @ x_lo)
    if f_hi == 0.0 or (f_hi > 0.0) == (f_lo > 0.0):
        return t_hi
    span = t_hi - t_lo
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
        f = fn(simcore.expm(m, s) @ x_lo)
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
    offsets, values = [0.0], []

    def recording_expm(m, t):
        offsets.append(t)
        return scipy.linalg.expm(t * m)

    def recording_fn(x):
        values.append(fn(x))
        return values[-1]

    with mock.patch.object(simcore, "expm", recording_expm):
        t = crossing_time(m, x_lo, t_lo, t_hi, recording_fn)
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
    # also where fn near the root is rounding noise
    case, root = drawn
    with mock.patch.object(simcore, "expm", wraps=simcore.expm) as counted:
        crossing_time(*case)
    assert counted.call_count <= _MAX_EXPM_PER_ROOT


def test_find_nu_roots_take_few_evaluations():
    # the point of the ITP search: about 7.7 evaluations per root of the
    # nu threshold search where bisection takes 40, also once fn is down at
    # rounding level near the root (an interpolation step that lands on an
    # end of the bracket there took about 19, and a truncation below
    # rounding that never closed the far end about 12.7)
    roots = []
    real = adversary.crossing_time

    def counting(*args):
        roots.append(args)
        return real(*args)

    with mock.patch.object(adversary, "crossing_time", counting), \
            mock.patch.object(simcore, "expm", wraps=simcore.expm) as counted:
        for k1, k2 in ((1.0, 1.0), (0.5, 0.5), (3.0, 2.0)):
            adversary.find_nu(np.array([[-k1, -k2]]))
    assert counted.call_count <= 10 * len(roots)


def test_fixed_crossings_take_few_exponentials():
    # the destabilizer's sector crossings and the axis crossings of
    # double-integrator runs (the roots the chain certificate reads when
    # it needs a visit's time, all found here): the interpolation has the root after 6-7 steps, and the
    # truncation floored under half the stopping width then closes the far
    # end of the bracket, about 7.8 exponentials per root; a truncation of
    # 0.2 w^2 / span alone fell below rounding and took about 12.5 here
    counts = []
    real = simcore.crossing_time

    def counting(*args):
        before = counted.call_count
        t = real(*args)
        counts.append(counted.call_count - before)
        return t

    cls = PeClass(1.0, 0.5)
    with mock.patch.object(adversary, "crossing_time", counting), \
            mock.patch.object(simcore, "expm", wraps=simcore.expm) as counted:
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
                counting(*traj.segment_flow(j), lambda x: float(x[1]))
    assert len(counts) >= 60
    assert max(counts) <= _MAX_EXPM_PER_ROOT
    assert sum(counts) <= 8 * len(counts)
