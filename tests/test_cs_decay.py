"""The central-cone decay checks at their edges.

`check_cs_decay` takes any run and refuses one that leaves the central
cone or touches the horizontal axis.  `cs_decay_battery` cuts its stays
from the cone quadratic, so only the axis is left to refuse: a sample with
x2 == 0 gets in when its quadratic underflows to zero.  Both report w's
extremes, w = 1 + (rho k / 2) x1/x2, which must be np.min and np.max of the
per-sample w bit for bit, nan and infinite ratios included.  Stays of
fewer than ten samples are checked but not fitted; a battery with such
stays beside fitted ones must still equal the one-stay reference loop of
test_battery_reduction.py.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import test_battery_reduction as tbr
from dwell_oracle import _runs
from pestab import certify
from pestab.certify import check_cs_decay, unit_circle_grid
from pestab.errors import PreconditionError
from pestab.gains import A_DI, B_DI, cone_geometry, di_base_gain
from pestab.signals import PeClass, PwcSignal, make_battery
from pestab.simcore import ClosedLoop, Trajectory, propagate

CLS = PeClass(1.0, 0.5)
RHO, K, LAM = 0.2, 4.0, 8.0
GEOM = cone_geometry(RHO, K, CLS.ratio)
LOOP = ClosedLoop(A_DI, B_DI, di_base_gain(RHO, K),
                  PwcSignal.constant(CLS.ratio))
# a slope strictly inside the central cone, and one in the outer cones
INNER = 0.5 * (GEOM.xi_r_plus + GEOM.xi_r_minus)
OUTER = 0.5


def synthetic(states, h=0.01) -> Trajectory:
    """A run through the given states, one every h time units."""
    states = np.array(states, dtype=float).reshape(-1, 2)
    n = len(states)
    return Trajectory(LOOP, h * np.arange(n), states,
                      np.full(max(n - 1, 0), CLS.ratio))


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def wedge_run(horizon=1.0) -> Trajectory:
    """A constant-gate run from a start strictly inside the central cone,
    where it stays."""
    return propagate(LOOP, 0.0, [-1.0, -INNER], horizon)


# ---------------------------------------------------------------------------
# preconditions
# ---------------------------------------------------------------------------

def test_check_refuses_a_run_that_leaves_the_cone():
    tr = propagate(LOOP, 0.0, [1.0, OUTER], 1.0)
    with pytest.raises(PreconditionError, match="leaves the central cone"):
        check_cs_decay(tr, RHO, K, CLS)


def test_check_refuses_a_sample_on_the_horizontal_axis():
    tr = wedge_run()
    states = tr.states.copy()
    # the cone quadratic of (1e-200, 0) underflows to zero, which passes
    # the cone test; only the axis test is left to refuse it
    states[5] = (1e-200, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(PreconditionError, match="horizontal axis"):
            check_cs_decay(synthetic(states), RHO, K, CLS)


def test_battery_refuses_an_axis_sample_before_dividing():
    tr = wedge_run()
    states = tr.states.copy()
    states[5] = (1e-200, 0.0)
    assert GEOM.cs_quadratic(*states[5]) == 0.0
    crafted = Trajectory(tr.loop, tr.times, states, tr.seg_alpha)
    with mock.patch.object(certify, "di_runs", return_value=[crafted]), \
            warnings.catch_warnings(), \
            np.errstate(divide="warn", invalid="warn"):
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(PreconditionError,
                           match="central cone excludes the horizontal axis"):
            certify.cs_decay_battery(CLS, RHO, K, LAM,
                                     [PwcSignal.constant(CLS.ratio)],
                                     np.array([[-1.0], [-INNER]]), 1.0)


# ---------------------------------------------------------------------------
# w's extremes
# ---------------------------------------------------------------------------

def per_sample_w(x1, x2):
    with np.errstate(all="ignore"):
        return 1.0 + 0.5 * RHO * K * (x1 / x2)


@pytest.mark.parametrize("seed", (7, 23, 101))
def test_battery_extremes_are_the_per_sample_extremes(seed):
    bat = make_battery(CLS, 4, seed=seed).signals
    grid = unit_circle_grid(4)
    cert = certify.cs_decay_battery(CLS, RHO, K, LAM, bat, grid, 5.0)
    w = []
    for tr in certify.di_runs(CLS, RHO, K, LAM, bat, grid, 5.0):
        x1, x2 = tr.states[:, 0], tr.states[:, 1]
        for i0, i1 in _runs(GEOM.cs_quadratic(x1, x2) <= 0.0):
            if i1 - i0 >= 3:
                w.append(per_sample_w(x1[i0:i1 + 1], x2[i0:i1 + 1]))
    w = np.concatenate(w)
    assert bits(cert.measured["w_min"]) == bits(np.min(w))
    assert bits(cert.measured["w_max"]) == bits(np.max(w))


# states whose ratio x1/x2 is nan, +-inf or -0.0 and that pass the cone
# test: an infinite x1 gives an infinite quadratic, which is not above
# 1e-9 |x|^2 = inf, and (-0.0, 1e-200) underflows it to zero
EDGE_STATES = [(math.nan, 1.0), (1.0, math.nan), (math.inf, math.inf),
               (math.inf, 1.0), (-math.inf, 1.0), (1.0, -math.inf),
               (-0.0, 1e-200), (0.0, 1e-200)]


@st.composite
def edge_runs(draw):
    pick = st.one_of(st.sampled_from(EDGE_STATES), st.builds(
        lambda r, s, sign: (sign * r, sign * r * s),
        st.floats(1e-100, 1e100), st.floats(GEOM.xi_s_plus, GEOM.xi_s_minus),
        st.sampled_from((-1.0, 1.0))))
    return draw(st.lists(pick, min_size=1, max_size=9))


@settings(max_examples=60, deadline=None)
@given(edge_runs())
@example([(math.nan, 1.0), (-1.0, -INNER)])
@example([(-1.0, -INNER), (math.inf, 1.0), (1.0, -math.inf)])
@example([(-math.inf, 1.0), (-0.0, 1e-200)])
@example([(-0.0, 1e-200), (0.0, 1e-200)])
@example([(1.0, -math.inf), (-0.0, 1e-200)])
@example([(math.inf, math.inf)])
def test_check_extremes_are_the_per_sample_extremes(states):
    tr = synthetic(states)
    with np.errstate(all="ignore"):
        cert = check_cs_decay(tr, RHO, K, CLS)
    w = per_sample_w(tr.states[:, 0], tr.states[:, 1])
    assert bits(cert.measured["w_min"]) == bits(np.min(w))
    assert bits(cert.measured["w_max"]) == bits(np.max(w))
    if np.isnan(w).any():
        assert not cert.passed


# ---------------------------------------------------------------------------
# short stays beside fitted ones
# ---------------------------------------------------------------------------

def stay_run(lens, gap, jitter) -> Trajectory:
    """A decaying run that alternates gap samples in the outer cones with
    central-cone stays of the given lengths, its slopes jittered within
    each set, on the 0.01 grid."""
    rng = np.random.default_rng(jitter)
    slopes = [np.full(gap, OUTER)]
    for n in lens:
        slopes.append(INNER * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, n)))
        slopes.append(OUTER * (1.0 + 0.5 * rng.uniform(0.0, 1.0, gap)))
    slope = np.concatenate(slopes)
    r = np.exp(-0.5 * 0.01 * np.arange(len(slope))
               + 0.01 * rng.standard_normal(len(slope)))
    return synthetic(np.column_stack((-r, -r * slope)))


def crafted_battery(lens_per_member, gap, jitter):
    """Each member's two runs share one time grid; the members' grids are
    distinct arrays, as di_runs gives them."""
    runs = []
    for m, lens in enumerate(lens_per_member):
        tr = stay_run(lens, gap, jitter + m)
        flipped = Trajectory(tr.loop, tr.times, -tr.states, tr.seg_alpha)
        runs.extend((tr, flipped))
    return runs


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.integers(4, 24), min_size=1, max_size=4),
                min_size=1, max_size=3),
       st.integers(1, 5), st.integers(0, 2**16))
@example([[4, 12]], 1, 0)
@example([[9, 10, 5]], 3, 1)
@example([[4], [30, 6]], 2, 2)
@example([[9, 4]], 1, 3)
def test_short_stays_beside_long_ones_match_the_loop(lens_per_member, gap,
                                                     jitter):
    runs = crafted_battery(lens_per_member, gap, jitter)
    bat = [PwcSignal.constant(CLS.ratio)] * len(lens_per_member)
    fake = mock.Mock(return_value=runs)
    with mock.patch.object(certify, "di_runs", fake), \
            mock.patch.object(tbr, "di_runs", fake):
        want = tbr.ref_cs_decay_battery(CLS, RHO, K, LAM, bat, None, 1.0)
        got = certify.cs_decay_battery(CLS, RHO, K, LAM, bat, None, 1.0)
    assert want.measured["stays_checked"] == 2 * sum(map(len,
                                                         lens_per_member))
    assert tbr.cert_text(got) == tbr.cert_text(want)
    assert list(got.measured) == list(want.measured)
