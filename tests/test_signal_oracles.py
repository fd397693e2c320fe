"""Signal-layer oracles: the exact PE window scan against a brute-force dense
scan, time shifts and rescalings against the integral they transform, and
`PwcSignal.segments` against the per-cut loop it replaced.

The dense scan evaluates the window integral at evenly spaced starts from a
cumulative integral built with numpy from the raw breakpoints, without
`integrate_signal` or the candidate starts `verify_pe` scans.
"""

import math
from bisect import bisect_right

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


def reference_value_at(sig, t):
    """The scalar lookup segments used to read once per cut interval."""
    bp = sig.breakpoints
    if sig.period is not None:
        p = sig.period
        tau = t - math.floor(t / p) * p
        if tau >= p:
            tau = 0.0
    else:
        if t >= bp[-1]:
            return sig.hold
        tau = t
    idx = min(bisect_right(bp, tau) - 1, len(sig.values) - 1)
    return sig.values[idx]


def reference_segments(sig, t0, t1):
    """The per-cut loop segments replaced, with its switch_times loop."""
    out = []
    bp = sig.breakpoints
    if sig.period is not None:
        p = sig.period
        j = math.floor(t0 / p)
        while j * p < t1:
            for b in bp[:-1]:
                s = j * p + b
                if t0 < s < t1:
                    out.append(s)
            j += 1
    else:
        out.extend(b for b in bp if t0 < b < t1)
    cuts = [t0] + sorted(set(out)) + [t1]
    run_start = cuts[0]
    run_val = reference_value_at(sig, 0.5 * (cuts[0] + cuts[1]))
    for s, e in zip(cuts, cuts[1:]):
        v = reference_value_at(sig, 0.5 * (s + e))
        if v != run_val:
            yield (run_start, s, run_val)
            run_start, run_val = s, v
    yield (run_start, cuts[-1], run_val)


def same_pieces(got, want):
    # repr tells 0.0 from -0.0 and checks every float to the bit
    assert [tuple(map(repr, g)) for g in got] == \
        [tuple(map(repr, w)) for w in want]
    assert all(type(v) is float for g in got for v in g)


@PROPERTY
@given(st.one_of(signals(), signals(dyadic=False)), st.floats(0.0, 7.0),
       st.floats(1e-3, 9.0))
def test_segments_equal_the_per_cut_loop(sig, t0, width):
    # t0 anywhere, also inside a later cycle of a periodic signal, where
    # regenerated cuts land ulps off the breakpoints
    same_pieces(list(sig.segments(t0, t0 + width)),
                list(reference_segments(sig, t0, t0 + width)))


@PROPERTY
@given(st.sampled_from((1e-3, 0.1 / 3.0, 1.0 / 64.0)), st.floats(0.05, 0.95),
       st.floats(0.0, 2.0))
def test_segments_of_many_short_pieces(period, duty, t0):
    sig = PwcSignal.periodic((0.0, duty * period, period), (1.0, 0.0))
    got = list(sig.segments(t0, t0 + 3.0))
    assert len(got) >= 2 * math.floor(3.0 / period) - 1
    same_pieces(got, list(reference_segments(sig, t0, t0 + 3.0)))


@pytest.mark.parametrize("tail", [0, 10**9])
def test_segments_merge_equal_neighbours_and_signed_zeros(tail):
    # the hold merges with the last equal piece however far the range runs
    sig = PwcSignal.held((0.0, 0.5, 1.0, 1.5, 2.0), (-0.0, 0.0, 1.0, 1.0),
                         hold=1.0)
    t1 = 3.0 + tail
    got = list(sig.segments(0.0, t1))
    assert [tuple(map(repr, g)) for g in got] == \
        [("0.0", "1.0", "-0.0"), ("1.0", repr(t1), "1.0")]
    same_pieces(got, list(reference_segments(sig, 0.0, t1)))


@pytest.mark.parametrize("cycles", [0, 10**9])
@pytest.mark.parametrize("t0, t1", [(0.0, 0.5), (0.15, 0.35), (0.0, 3.0)])
def test_segments_where_two_cycles_cut_at_one_float(cycles, t0, t1):
    # the last piece is one ulp wide, so 1 * 0.1 + its start rounds to
    # 2 * 0.1: the cut 0.2 comes from two cycles and must be taken once;
    # `cycles` periods later the regenerated cuts round far coarser
    sig = PwcSignal.periodic((0.0, 0.05, np.nextafter(0.1, 0.0), 0.1),
                             (0.2, 0.6, 1.0))
    assert 1 * 0.1 + sig.breakpoints[2] == 2 * 0.1
    t0, t1 = cycles * 0.1 + t0, cycles * 0.1 + t1
    same_pieces(list(sig.segments(t0, t1)),
                list(reference_segments(sig, t0, t1)))


@pytest.mark.parametrize("t", [1.7, 3.4, 3.9])
def test_value_at_where_the_fold_rounds_below_zero(t):
    # t / 0.1 rounds up to a whole number of periods, so the folded time
    # is a rounding below 0, which reads the last piece
    sig = PwcSignal.periodic((0.0, 0.05, 0.1), (0.25, 0.75))
    assert t - math.floor(t / 0.1) * 0.1 < 0.0
    assert sig.value_at(t) == reference_value_at(sig, t) == 0.75
    assert list(sig.segments(t - 0.01, t + 0.001))[-1][2] == \
        list(reference_segments(sig, t - 0.01, t + 0.001))[-1][2]


@PROPERTY
@given(st.one_of(signals(), signals(dyadic=False)), st.floats(0.0, 20.0))
def test_value_at_equals_the_scalar_lookup(sig, t):
    for u in (t, *(b for b in sig.breakpoints)):
        assert repr(sig.value_at(u)) == repr(reference_value_at(sig, u))


def test_shift_of_a_hold_signal_keeps_a_piece_an_ulp_off():
    # t0 + (1.76 - t0) rounds one ulp below the breakpoint 1.76, so a value
    # read there finds the 0 piece and drops the 0.5 piece after it
    sig = PwcSignal((0.0, 0.5, 1.0, 1.75, 1.76, 2.26),
                    (0.0, 0.0, 0.0, 0.0, 0.5), hold=0.0)
    t0 = 0.5144361930836366
    assert t0 + (1.76 - t0) < 1.76
    got = shift(sig, t0)
    assert abs(integrate_signal(got, 0.0, 2.0) - 0.25) <= 1e-12
    assert abs(integrate_signal(got, 0.0, 2.0)
               - integrate_signal(sig, t0, t0 + 2.0)) <= 1e-12
