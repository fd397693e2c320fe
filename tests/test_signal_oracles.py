"""Signal-layer oracles: the exact PE window scan against a brute-force dense
scan, and time shifts and rescalings against the integral they transform.

The dense scan evaluates the window integral at evenly spaced starts from a
cumulative integral built with numpy from the raw breakpoints, without
`integrate_signal` or the candidate starts `verify_pe` scans.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pestab.signals import (PeClass, PwcSignal, integrate_signal,
                            rescale_time, shift, verify_pe)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
# with breakpoints, periods, T and horizons on a grid of UNIT, every start
# verify_pe scans is a multiple of UNIT, so a dense scan at a quarter of
# that spacing contains the start of the exact minimum
UNIT = 1.0 / 16.0
DENSE = UNIT / 4.0


def cumulative(sig, t):
    """Integral of the signal over [0, t], vectorized over t."""
    bp = np.asarray(sig.breakpoints, dtype=float)
    vals = np.asarray(sig.values, dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(vals * np.diff(bp))])
    if sig.period is not None:
        p = sig.period
        k = np.floor(t / p)
        return k * cum[-1] + np.interp(t - k * p, bp, cum)
    inside = np.interp(np.minimum(t, bp[-1]), bp, cum)
    return inside + sig.hold * np.maximum(t - bp[-1], 0.0)


def dense_window_min(sig, T, horizon, spacing):
    """Smallest length-T window integral over starts spaced `spacing` apart:
    one period for a periodic signal, [0, horizon - T] for a held one."""
    hi = sig.period if sig.period is not None else horizon - T
    starts = np.arange(int(math.floor(hi / spacing)) + 1) * spacing
    return float(np.min(cumulative(sig, starts + T) - cumulative(sig, starts)))


@st.composite
def signals(draw, dyadic=True):
    widths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    if dyadic:
        bp = np.concatenate([[0.0], np.cumsum(widths) * UNIT])
    else:
        cuts = draw(st.lists(st.floats(0.01, 0.9), min_size=len(widths),
                             max_size=len(widths)))
        bp = np.concatenate([[0.0], np.cumsum(cuts)])
    values = draw(st.lists(
        st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0)),
        min_size=len(widths), max_size=len(widths)))
    if draw(st.booleans()):
        return PwcSignal.periodic(bp, values)
    return PwcSignal.held(bp, values, hold=draw(st.floats(0.0, 1.0)))


@st.composite
def windows(draw):
    """(T, horizon) on the UNIT grid, with T from below the shortest
    period to above the longest and the horizon at least T."""
    T = draw(st.integers(1, 60)) * UNIT
    horizon = T + draw(st.integers(0, 60)) * UNIT
    return T, horizon


@PROPERTY
@given(st.data())
def test_verify_pe_equals_dense_scan_on_grid(data):
    sig = data.draw(signals())
    T, horizon = data.draw(windows())
    dense = dense_window_min(sig, T, horizon, DENSE)
    rep = verify_pe(sig, PeClass(T, 0.5 * T), horizon)
    assert abs(rep.worst_integral - dense) <= 1e-12 * max(1.0, T)
    # the reported start attains the reported minimum
    assert abs(integrate_signal(sig, rep.worst_window_start,
                                rep.worst_window_start + T)
               - rep.worst_integral) <= 1e-12 * max(1.0, T)
    # the verdict flips at the dense minimum
    for mu, ok in ((dense - 1e-9, True), (dense + 1e-9, False)):
        if 0.0 < mu <= T:
            assert verify_pe(sig, PeClass(T, mu), horizon).ok == ok


@PROPERTY
@given(st.data())
def test_verify_pe_within_one_step_of_dense_scan(data):
    # off-grid breakpoints: the window integral is 1-Lipschitz in its start,
    # so the exact minimum lies at most one dense step below the scan's
    sig = data.draw(signals(dyadic=False))
    T = data.draw(st.floats(0.05, 3.0))
    horizon = T + data.draw(st.floats(0.0, 4.0))
    spacing = 1e-3
    dense = dense_window_min(sig, T, horizon, spacing)
    worst = verify_pe(sig, PeClass(T, 0.5 * T), horizon).worst_integral
    assert worst <= dense + 1e-12 * max(1.0, T)
    assert dense <= worst + spacing + 1e-12 * max(1.0, T)


@pytest.mark.parametrize("sig, T, want", [
    # the window start sits inside a constant piece while the window's end
    # meets a rise: the minimum is at a breakpoint minus T and nowhere else
    (PwcSignal.periodic((0.0, 0.5, 0.75, 1.0), (0.5, 0.2, 0.8)), 0.5, 0.175),
    (PwcSignal.held((0.0, 2.0, 3.0, 4.0), (0.5, 0.2, 0.8), hold=0.5), 2.5,
     0.95),
])
def test_minimum_where_the_window_end_meets_a_breakpoint(sig, T, want):
    rep = verify_pe(sig, PeClass(T, 0.1), 6.0)
    assert abs(rep.worst_integral - want) <= 1e-12
    assert abs(dense_window_min(sig, T, 6.0, DENSE) - want) <= 1e-12


def test_period_shorter_than_window():
    # period 0.25 against T = 1: every window holds four whole periods
    sig = PwcSignal.periodic((0.0, 0.1, 0.25), (1.0, 0.0))
    rep = verify_pe(sig, PeClass(1.0, 0.4), 3.0)
    assert rep.ok
    assert abs(rep.worst_integral - 0.4) <= 1e-12
    assert abs(dense_window_min(sig, 1.0, 3.0, DENSE) - 0.4) <= 1e-12


@PROPERTY
@given(signals(dyadic=False), st.floats(0.0, 5.0), st.floats(0.0, 5.0),
       st.floats(0.0, 3.0))
def test_shift_commutes_with_integral(sig, t0, a, width):
    # integral of alpha(t0 + s) over [a, b] is that of alpha over
    # [t0 + a, t0 + b]
    got = integrate_signal(shift(sig, t0), a, a + width)
    want = integrate_signal(sig, t0 + a, t0 + a + width)
    assert abs(got - want) <= 1e-12 * max(1.0, t0 + a + width)


@PROPERTY
@given(signals(dyadic=False), st.floats(0.1, 20.0), st.floats(0.0, 5.0),
       st.floats(0.0, 3.0))
def test_rescale_time_commutes_with_integral(sig, lam, a, width):
    # integral of alpha(lam s) over [a, b] is 1/lam times that of alpha
    # over [lam a, lam b]
    got = integrate_signal(rescale_time(sig, lam), a, a + width)
    want = integrate_signal(sig, lam * a, lam * (a + width)) / lam
    assert abs(got - want) <= 1e-12 * max(1.0, lam * (a + width))
