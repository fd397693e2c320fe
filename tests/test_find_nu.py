"""The nu threshold search `adversary.find_nu` against the bisection it
replaced.

find_nu runs the ITP search on log xi over log nu.  The reference below is
the bisection on xi(nu) = 1 over [1e-12, 1] that find_nu ran before, with
the same xi: the constant-nu flow from the full-strength flow's first
meeting with the collinearity line, to its crossing of the horizontal axis.
"""

import math
from unittest import mock

import numpy as np
import pytest

from pestab import adversary
from pestab.adversary import _phase_crossing, _rotation_step, find_nu
from pestab.errors import DomainError
from pestab.gains import A_DI, B_DI

# the destabilize gain cells of the benchmark's cli-mix workload
BENCH_GAINS = ((0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0),
               (2.0, 1.0), (2.0, 1.5), (3.0, 1.0), (3.0, 2.0))
# large nu, and small nu where the flow stops crossing the axis (xi = 0)
# over much of [1e-12, 1]
OTHER_GAINS = ((5.0, 0.5), (0.3, 0.2), (10.0, 0.1), (0.2, 3.0), (0.1, 10.0))
TOLS = (1e-6, 1e-10, 1e-13)


def gain(k1, k2):
    return np.array([[-k1, -k2]])


def xi_of(K):
    """xi(nu): where the constant-nu flow from the collinearity line meets
    the horizontal axis, 0 when it never does."""
    k1, k2 = -K[0, 0], -K[0, 1]
    bk = B_DI @ K
    m1 = A_DI + bk
    _, x_bar = _phase_crossing(m1, np.array([-1.0, 0.0]),
                               lambda y: float(y[1] + (k1 / k2) * y[0]),
                               _rotation_step(m1))

    def xi(nu):
        m = A_DI + nu * bk
        res = _phase_crossing(m, x_bar, lambda y: float(y[1]),
                              _rotation_step(m))
        return 0.0 if res is None else float(res[1][0])
    return xi


def reference_find_nu(K, tol=1e-10):
    """The bisection find_nu ran before the log-log ITP search; returns
    (nu, number of xi evaluations)."""
    xi = xi_of(K)
    lo, hi = 1e-12, 1.0
    assert xi(lo) > 1.0
    if xi(hi) > 1.0:
        return 1.0, 2
    evals = 2
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        evals += 1
        if xi(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return lo, evals


def counted_find_nu(K, tol):
    """find_nu's result and its number of xi evaluations (every
    _phase_crossing call after the one that finds the collinearity
    point)."""
    with mock.patch.object(adversary, "_phase_crossing",
                           wraps=adversary._phase_crossing) as marched:
        nu = find_nu(K, tol)
    return nu, marched.call_count - 1


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("k1,k2", BENCH_GAINS + OTHER_GAINS)
def test_matches_bisection_and_brackets_the_threshold(k1, k2, tol):
    K = gain(k1, k2)
    nu, evals = counted_find_nu(K, tol)
    ref, ref_evals = reference_find_nu(K, tol)
    assert abs(nu - ref) <= tol
    xi = xi_of(K)
    assert xi(nu) > 1.0 >= xi(nu + tol)
    # bisection takes 36 evaluations at 1e-10 and 46 at 1e-13
    assert evals <= min(37, ref_evals)
    if (k1, k2) in BENCH_GAINS and tol >= 1e-10:
        # measured 9-12 at 1e-6 and 10-13 at 1e-10; at 1e-13 (not bounded
        # here) the bracket ends within a few ulps of xi = 1, where log xi
        # is rounding noise, and up to 14 are taken
        assert evals <= 13


def test_returns_a_level_xi_was_evaluated_at():
    levels = []
    real = adversary._phase_crossing

    def recording(m, x0, fn, dt, phi=None):
        # m = A + nu B K, and for K = (-1, -1) its entry (1, 0) is -nu
        levels.append(-m[1, 0])
        return real(m, x0, fn, dt, phi)

    with mock.patch.object(adversary, "_phase_crossing", recording):
        nu = find_nu(gain(1.0, 1.0))
    assert nu in levels[1:]


@pytest.mark.parametrize("tol", [0.0, -1.0, -0.0, math.nan, math.inf,
                                 -math.inf])
def test_tol_must_be_finite_and_positive(tol):
    with pytest.raises(DomainError, match="tol"):
        find_nu(gain(1.0, 1.0), tol)


@pytest.mark.parametrize("tol", [1e-300, 5e-324])
def test_tol_below_float_spacing_ends(tol):
    # no bracket in log nu can be that narrow in nu: the search stops when
    # no float lies between its ends, still on the right side of xi = 1
    K = gain(1.0, 1.0)
    nu, evals = counted_find_nu(K, tol)
    assert evals <= 37
    xi = xi_of(K)
    assert xi(nu) > 1.0 >= xi(nu + 1e-13)
    assert abs(nu - find_nu(K, 1e-13)) <= 1e-13


def test_large_tol_returns_the_floor():
    # the bracket [1e-12, 1] is already narrower than tol
    nu, evals = counted_find_nu(gain(1.0, 1.0), 2.0)
    assert nu == pytest.approx(1e-12, rel=1e-15)
    assert evals == 2
