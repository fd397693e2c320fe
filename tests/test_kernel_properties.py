"""Property tests of the piece-list propagation kernel.

Random periodic and held piecewise-constant signals drive random loops;
`propagate` and `propagate_batch` are compared with a sequential product of
`scipy.linalg.expm` factors, with `solve_ivp`, with the sample grid of a
plain per-sample loop, and with the per-piece loop the kernel replaced:
bit for bit on held gates, and within the sequential product's bound on
periodic gates, whose piece ends come from monodromy powers.  The full run
ends every piece at the state of its one chain, over the grid's tables for
a held gate and over the period plan's sub-pieces for a periodic one,
whose pieces are those `PwcSignal.segments` lists.  The endpoint path, which reads the piece ends
without filling a sample, is compared bit for bit with the last sample of
the full run and with the rate the test-side `kl_oracle.fitted_rate` reads
from it, and its fallback fills from the tables it built, or for a
periodic gate runs the full run.  A periodic run of many pieces fills the
repeats of one period's unit of pieces from one unit table: its samples
are held to the per-piece loop's bound, and its piece ends, first sample,
grid and stacked slice count to those of the per-piece fill.
"""

import bisect
import contextlib
import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from kl_oracle import fitted_rate
from pestab import simcore
from pestab.gains import A_DI, B_DI
from pestab.signals import PwcSignal
from pestab.simcore import ClosedLoop, propagate, propagate_batch

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

# Dyadic cut units make breakpoint differences exact, so equal pieces in
# different cycles share one (alpha, h) key; 0.1 makes them differ by ulps.
_UNITS = (1.0 / 16.0, 0.1)
_LEVELS = (0.0, 0.5, 1.0)


@st.composite
def signals(draw):
    unit = draw(st.sampled_from(_UNITS))
    widths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    bp = np.concatenate([[0.0], np.cumsum(widths) * unit])
    values = draw(st.lists(
        st.one_of(st.sampled_from(_LEVELS), st.floats(0.0, 1.0)),
        min_size=len(widths), max_size=len(widths)))
    if draw(st.booleans()):
        return PwcSignal.periodic(bp, values)
    return PwcSignal.held(bp, values, hold=draw(st.sampled_from(_LEVELS)))


@st.composite
def cases(draw):
    """(loop, t0, x0 columns, t1, max_step) with at most about 750 samples."""
    n = draw(st.sampled_from((2, 3)))
    entries = st.floats(-1.0, 1.0)
    A = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)))
    B = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    K = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    loop = ClosedLoop(A.reshape(n, n), B.reshape(n, 1), K.reshape(1, n),
                      draw(signals()))
    t0 = draw(st.sampled_from((0.0, 0.3, 1.0 / 3.0, 1.25)))
    t1 = t0 + draw(st.floats(0.05, 3.0))
    # from one step per piece (nsub = 1) down to a few hundred per piece
    max_step = draw(st.sampled_from((10.0, 0.25, 0.07, 1.0 / 32.0,
                                     (t1 - t0) / 700.0)))
    width = draw(st.sampled_from((1, 4)))
    cols = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * width,
                                  max_size=n * width))).reshape(n, width)
    cols[0] += 2.0  # keep every column away from zero
    return loop, t0, cols, t1, max_step


@st.composite
def short_piece_cases(draw):
    """Like cases, on a two-level square wave of period 1/64 to 0.1, so
    hundreds of pieces, most of one or two steps."""
    loop, t0, cols, t1, max_step = draw(cases())
    period = draw(st.sampled_from((1.0 / 64.0, 0.1 / 3.0, 0.1)))
    duty = draw(st.floats(0.05, 0.95))
    sig = PwcSignal.periodic((0.0, duty * period, period),
                             (draw(st.sampled_from(_LEVELS)), 0.25))
    loop = ClosedLoop(loop.A, loop.B, loop.K, sig)
    max_step = draw(st.sampled_from((10.0, period / 3.0, 0.01)))
    return loop, t0, cols, t1, max_step


def reference_segment(powers, a, m, x, s, e, h, nsub):
    """The per-piece step the kernel replaced: samples of x' = m x over
    [s, e] in nsub steps of h from a doubling table of exp(h m) kept in
    powers[(a, h)] and grown when a piece needs more steps.  exp(h m) is
    the kernel's own exponential, simcore.expm, so the comparison pins the
    kernel's assembly; its agreement with scipy.linalg.expm is held to
    1e-12 by test_matches_sequential_expm_product."""
    if (a, h) not in powers:
        powers[(a, h)] = simcore.expm(m, h).astype(
            np.longdouble)[np.newaxis], None
    ext, p = powers[(a, h)]
    n = m.shape[0]
    if p is None or len(p) < nsub:
        while len(ext) < nsub:
            top = (ext.reshape(-1, n) @ ext[-1]).reshape(ext.shape)
            ext = np.concatenate((ext, top))
        p = ext.astype(float)
        powers[(a, h)] = ext, p
    states = (p[:nsub].reshape(-1, n) @ x).reshape((nsub,) + x.shape)
    times = s + np.arange(1, nsub + 1) * h
    times[-1] = e
    return times, states


def reference_propagate(loop, t0, cols, t1, max_step):
    """The per-piece loop the kernel replaced: times, states (N, n, m) and
    seg_alpha."""
    times, states = [np.array([t0])], [cols[np.newaxis]]
    levels, counts = [], []
    powers, x = {}, cols
    for (s, e, a) in loop.alpha.segments(t0, t1):
        seg_len = e - s
        nsub = max(1, int(math.ceil(seg_len / max_step - 1e-12)))
        ts, xs = reference_segment(powers, a, loop.matrix(a), x, s, e,
                                   seg_len / nsub, nsub)
        x = xs[-1]
        times.append(ts)
        states.append(xs)
        levels.append(a)
        counts.append(nsub)
    return (np.concatenate(times), np.concatenate(states),
            np.repeat(levels, counts))


def assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)
        assert g.tobytes() == w.tobytes()


def run(loop, t0, cols, t1, max_step):
    """States (N, n, width), times and seg_alpha through the public API."""
    if cols.shape[1] == 1:
        tr = propagate(loop, t0, cols[:, 0], t1, max_step)
        return tr.times, tr.states[:, :, np.newaxis], tr.seg_alpha
    trs = propagate_batch(loop, t0, cols, t1, max_step)
    return (trs[0].times, np.stack([tr.states for tr in trs], axis=2),
            trs[0].seg_alpha)


def per_sample_grid(loop, t0, t1, max_step):
    """The sample grid of a per-sample loop: times, seg_alpha, pieces."""
    times, seg_alpha, pieces = [t0], [], []
    for (s, e, a) in loop.alpha.segments(t0, t1):
        seg_len = e - s
        nsub = max(1, int(math.ceil(seg_len / max_step - 1e-12)))
        h = seg_len / nsub
        for i in range(nsub):
            times.append(e if i == nsub - 1 else s + (i + 1) * h)
            seg_alpha.append(a)
        pieces.append((a, h, nsub))
    return np.asarray(times), np.asarray(seg_alpha), pieces


@contextlib.contextmanager
def counting_expm():
    """Record the (matrix or stack, step) of every expm call the kernel
    makes."""
    calls = []
    real = simcore.expm
    simcore.expm = lambda m, t=1.0: calls.append((m, t)) or real(m, t)
    try:
        yield calls
    finally:
        simcore.expm = real


def relative_deviation(states, ref):
    err = np.linalg.norm(states - ref, axis=1)
    return float(np.max(err / np.linalg.norm(ref, axis=1)))


@PROPERTY
@given(cases())
def test_matches_sequential_expm_product(case):
    loop, t0, cols, t1, max_step = case
    _, states, _ = run(*case)
    _, _, pieces = per_sample_grid(loop, t0, t1, max_step)
    ref, x = [cols], cols
    for a, h, nsub in pieces:
        phi = scipy.linalg.expm(h * (loop.A + a * loop.B @ loop.K))
        for _ in range(nsub):
            x = phi @ x
            ref.append(x)
    assert relative_deviation(states, np.stack(ref)) <= 1e-12


@PROPERTY
@given(cases())
def test_matches_solve_ivp(case):
    loop, t0, cols, t1, _ = case
    times, states, _ = run(*case)
    n, width = cols.shape
    x = cols
    for (s, e, a) in loop.alpha.segments(t0, t1):
        m = loop.A + a * loop.B @ loop.K
        sol = solve_ivp(lambda t, y: (m @ y.reshape(n, width)).ravel(),
                        (s, e), x.ravel(), method="DOP853", rtol=1e-13,
                        atol=1e-15 * np.abs(x).max())
        x = sol.y[:, -1].reshape(n, width)
        got = states[int(np.flatnonzero(times == e)[0])]
        np.testing.assert_allclose(got, x, rtol=1e-10,
                                   atol=1e-10 * np.abs(x).max())


@PROPERTY
@given(cases())
def test_sample_grid_is_bit_identical(case):
    times, _, seg_alpha = run(*case)
    loop, t0, _, t1, max_step = case
    ref_times, ref_alpha, _ = per_sample_grid(loop, t0, t1, max_step)
    assert times.tobytes() == ref_times.tobytes()
    assert seg_alpha.tobytes() == ref_alpha.tobytes()


@PROPERTY
@given(cases())
def test_seg_alpha_matches_per_segment_fill(case):
    # the kernel repeats each level once over all segments; it used to fill
    # one array per segment and concatenate them
    _, _, seg_alpha = run(*case)
    loop, t0, _, t1, max_step = case
    _, _, pieces = per_sample_grid(loop, t0, t1, max_step)
    ref = np.concatenate([np.full(nsub, a) for a, _, nsub in pieces])
    assert seg_alpha.dtype == ref.dtype
    assert seg_alpha.tobytes() == ref.tobytes()


def period_sub_pieces(sig, t0, t1):
    """The distinct (alpha, w) of a periodic gate's pieces on [t0, t1] cut
    at every breakpoint j p + b: the first and the last at their widths
    in the run, every other one at its breakpoints' width."""
    p, bp = sig.period, sig.breakpoints
    cuts = sorted({j * p + b for j in range(math.floor(t0 / p),
                                            math.floor(t1 / p) + 2)
                   for b in bp[:-1] if t0 < j * p + b < t1})
    edges = [t0] + cuts + [t1]
    out = set()
    for k, (s, e) in enumerate(zip(edges, edges[1:])):
        i = bisect.bisect_right(bp, (0.5 * (s + e)) % p) - 1
        w = e - s if k in (0, len(edges) - 2) else bp[i + 1] - bp[i]
        out.add((sig.values[i], w))
    return out


@PROPERTY
@given(cases())
def test_one_expm_per_distinct_piece(case):
    # one stacked call per propagation: one slice per distinct (alpha, h)
    # of the sample grid and, for a periodic gate, per distinct (alpha, w)
    # of the period's pieces that the grid does not hold already
    loop, t0, _, t1, max_step = case
    _, _, pieces = per_sample_grid(loop, t0, t1, max_step)
    keys = {(a, h) for a, h, _ in pieces}
    if loop.alpha.period is not None:
        keys |= period_sub_pieces(loop.alpha, t0, t1)
    with counting_expm() as calls:
        run(*case)
    assert len(calls) == 1
    stack, t = calls[0]
    assert t == 1.0
    assert len(stack) == len(keys)


def test_power_table_grows_for_a_longer_segment():
    # pieces [0, .25) and [.5, 1.25) at alpha 1 share h = 1/8, with 2 and 6
    # steps, and [.25, .5) at alpha 0.5 has h = 1/8 too: one stacked expm
    # holds 0.125 M(1) and 0.125 M(0.5), and the alpha 1 table is long
    # enough for the second piece
    sig = PwcSignal.held((0.0, 0.25, 0.5, 1.25), (1.0, 0.5, 1.0), hold=0.5)
    loop = ClosedLoop([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]],
                      [[-0.4, -0.9]], sig)
    with counting_expm() as calls:
        tr = propagate(loop, 0.0, [1.0, 0.0], 1.25, max_step=0.125)
    assert len(tr.times) == 11
    assert len(calls) == 1
    stack, t = calls[0]
    assert t == 1.0
    np.testing.assert_array_equal(
        stack, [0.125 * loop.matrix(1.0), 0.125 * loop.matrix(0.5)])
    m1 = loop.matrix(1.0)
    phi = scipy.linalg.expm(0.125 * m1)
    x = tr.states[4]
    for j in range(5, 11):
        x = phi @ x
        assert np.linalg.norm(tr.states[j] - x) <= 1e-14


@pytest.mark.parametrize("width", [1, 4])
def test_long_segment_matches_sequential_product(width):
    # 2.4e4 steps of one piece: the doubling table against the plain loop.
    # Float64 squarings would deviate by 1.7e-12 on this loop; the extended
    # precision table keeps the deviation near 2e-14.
    loop = ClosedLoop([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                      [[-0.16, -0.8]], PwcSignal.constant(0.7))
    cols = np.vstack([np.cos(np.arange(width)), np.sin(np.arange(width))])
    case = (loop, 0.0, cols, 24.0, 1e-3)
    _, states, _ = run(*case)
    phi = simcore.expm(loop.matrix(0.7), 1e-3)
    ref, x = [cols], cols
    for _ in range(len(states) - 1):
        x = phi @ x
        ref.append(x)
    assert len(states) == 24_001
    assert relative_deviation(states, np.stack(ref)) <= 1e-12


@PROPERTY
@given(st.one_of(cases(), short_piece_cases()))
def test_equals_the_per_piece_loop(case):
    # bit for bit on held gates; a periodic gate's piece ends come from its
    # monodromy powers, so its states are held to the bound of the
    # sequential product, and its grid stays bit for bit
    times, states, seg_alpha = run(*case)
    ref_times, ref_states, ref_alpha = reference_propagate(*case)
    if case[0].alpha.period is None:
        assert_same_bits((states,), (ref_states,))
    else:
        assert relative_deviation(states, ref_states) <= 1e-12
    assert_same_bits((times, seg_alpha), (ref_times, ref_alpha))


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("t0", [0.0, 0.25])
def test_repeated_piece_with_different_step_counts(width, t0):
    # (0.5, 1/8) comes with 2 steps, then with 6 in the hold, and from
    # t0 = 0, (1, 1/8) with 2 then 6: one table per key serves both
    sig = PwcSignal.held((0.0, 0.25, 0.5, 1.25), (1.0, 0.5, 1.0), hold=0.5)
    loop = ClosedLoop([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]],
                      [[-0.4, -0.9]], sig)
    cols = np.vstack([1.0 + np.arange(width), -np.arange(width) / 3.0])
    case = (loop, t0, cols, 2.0, 0.125)
    with counting_expm() as calls:
        got = run(*case)
    assert len(calls) == 1 and len(calls[0][0]) == 2
    assert_same_bits(got, reference_propagate(*case))


@PROPERTY
@given(st.one_of(cases(), short_piece_cases()))
def test_pieces_end_at_the_chained_states(case):
    # the fill ends each piece at the chain's state, whatever its own
    # product would round to: a one-ulp nudge of the chain shows up there
    loop, t0, cols, t1, max_step = case
    chain, nudged = simcore._chain, []

    def nudge(*args):
        nudged.append(np.nextafter(chain(*args), np.inf))
        return nudged[-1]

    with mock.patch.object(simcore, "_chain", nudge):
        runs = propagate_batch(*case)
    *_, nsub, period = simcore._plan(loop, t0, t1, max_step)
    ends, = nudged
    if period is not None:
        ends = ends[period.last]
    states = np.stack([tr.states for tr in runs], axis=2)
    assert_same_bits((states[np.cumsum(nsub)],), (ends,))


@st.composite
def end_cases(draw):
    """(loop, x0 columns, horizon) from cases and short_piece_cases, with
    1 to 4 columns: _end_rate runs from 0 at the loop's default step."""
    loop, _, _, t1, _ = draw(st.one_of(cases(), short_piece_cases()))
    n, width = loop.n, draw(st.integers(1, 4))
    cols = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * width,
                                  max_size=n * width))).reshape(n, width)
    cols[0] += 2.0
    return loop, cols, t1


def end_rate_seen(loop, cols, horizon):
    """_end_rate(loop, cols, horizon), the end states it hands the rate
    rule as columns, and its calls of _keyed_tables and _fill."""
    rule, seen = simcore._ends_rate, []

    def spy(pairs, horizon):
        pairs = list(pairs)
        seen.extend(x1 for _, x1 in pairs)
        return rule(pairs, horizon)

    with mock.patch.object(simcore, "_ends_rate", spy), \
            mock.patch.object(simcore, "_keyed_tables",
                              wraps=simcore._keyed_tables) as tables, \
            mock.patch.object(simcore, "_fill", wraps=simcore._fill) as fill:
        rate = simcore._end_rate(loop, cols, horizon)
    ends = np.stack(seen, axis=1) if seen else None
    return rate, ends, tables.call_count, fill.call_count


@PROPERTY
@given(end_cases())
def test_end_state_is_the_last_sample(case):
    # no fill: these loops grow far too little to trip the overflow bound;
    # a periodic gate's end state comes from its period plan, with no
    # power table of the sample step
    loop, cols, t1 = case
    want = np.stack([tr.states[-1]
                     for tr in propagate_batch(loop, 0.0, cols, t1)], axis=1)
    _, ends, tables, fills = end_rate_seen(*case)
    assert (tables, fills) == (int(loop.alpha.period is None), 0)
    assert_same_bits((ends,), (want,))


def test_end_rate_of_an_overflowing_piece_exponential():
    # each 750-long piece's exponential is e^750 times a rotation: the
    # closed form's entries read +-inf, not an OverflowError, and the
    # run's rate reads -inf
    m = np.array([[1.0, 1.0], [-1.0, 1.0]])
    assert np.isinf(simcore.expm(m, 750.0)).all()
    loop = ClosedLoop(m, [[0.0], [1.0]], [[0.0, 0.0]],
                      PwcSignal.periodic((0.0, 750.0, 1500.0), (1.0, 0.5)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert simcore._end_rate(loop, [[1.0], [0.0]], 1600.0) == -math.inf


@PROPERTY
@given(end_cases())
def test_end_rate_is_the_fitted_rate(case):
    loop, cols, t1 = case
    want = fitted_rate(propagate_batch(loop, 0.0, cols, t1), t1)
    assert repr(simcore._end_rate(*case)) == repr(want)


_ROTOR = ([[0.0, 20.0], [-0.05, 0.0]], [[0.0], [1.0]], [[0.0, 0.0]])


@pytest.mark.parametrize("loop, x0, t1, overflows", [
    # ends beyond the largest double
    (([[1.0]], [[1.0]], [[0.0]]), [[1e306]], 10.0, True),
    # x1 peaks at 20 x2(0) = 2e308 a quarter turn in, and the run ends near
    # where it started: only interior samples overflow
    (_ROTOR, [[0.0], [1e307]], 2.0 * math.pi, True),
    # finite throughout, but 36 |M|_inf = 720 is too much growth to vouch
    # for
    (_ROTOR, [[0.0], [1.0]], 36.0, False),
], ids=["end-overflows", "interior-overflows", "finite"])
def test_end_rate_falls_back_to_the_full_run(loop, x0, t1, overflows):
    # the fallback fills the samples from the tables it already built
    loop = ClosedLoop(*loop, PwcSignal.constant(1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        want = fitted_rate(propagate_batch(loop, 0.0, x0, t1), t1)
        got, _, tables, fills = end_rate_seen(loop, x0, t1)
    assert (tables, fills) == (1, 1)
    assert repr(got) == repr(want)
    assert (want == -math.inf) == overflows


@pytest.mark.parametrize("x0, overflows", [
    ([[0.0], [1e307]], True),
    # x1 peaks at 2e291; a piece of 1.6 at |M|_inf = 20 cannot be vouched
    # for from 1e290
    ([[0.0], [1e290]], False),
], ids=["interior-overflows", "finite"])
def test_periodic_end_rate_falls_back_to_the_full_run(x0, overflows):
    # a periodic gate's fallback is the full run itself, which fills 42 of
    # these 45 pieces from a unit table (widths off a whole number of the
    # default step, so every period's pieces take the same step count)
    sig = PwcSignal.periodic((0.0, 1.6001, 3.2002), (1.0, 0.25))
    loop, t1 = ClosedLoop(*_ROTOR, sig), 70.41
    with np.errstate(over="ignore", invalid="ignore"):
        want = fitted_rate(propagate_batch(loop, 0.0, x0, t1), t1)
        got, _, tables, fills = end_rate_seen(loop, x0, t1)
        filled = filled_by_piece((loop, 0.0, np.array(x0), t1, None))
    assert (tables, fills, filled) == (1, 1, 3)
    assert repr(got) == repr(want)
    assert (want == -math.inf) == overflows


@PROPERTY
@given(st.one_of(cases(), short_piece_cases()))
def test_periodic_pieces_end_at_the_period_states(case):
    # a periodic gate's one chain runs over its period plan's sub-pieces,
    # never over the grid's tables, and the fill ends each piece at the
    # chain's state for the piece's end time: a one-ulp nudge of those
    # states shows up there
    loop, t0, cols, t1, max_step = case
    if loop.alpha.period is None:
        return
    chain, seen = simcore._chain, []

    def nudge(exps, x0, *plan):
        seen.append((len(exps), plan,
                     np.nextafter(chain(exps, x0, *plan), np.inf)))
        return seen[-1][2]

    with mock.patch.object(simcore, "_chain", nudge):
        runs = propagate_batch(*case)
    (count, plan, nudged), = seen
    _, cuts, _, nsub, period = simcore._plan(loop, t0, t1, max_step)
    assert (count, plan) == (len(period.levels),
                             (period.J, period.head, period.periods))
    at = [np.flatnonzero(period.times == c)[-1] for c in cuts[1:].tolist()]
    states = np.stack([tr.states for tr in runs], axis=2)
    assert_same_bits((states[np.cumsum(nsub)],), (nudged[at],))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_monodromy_power_takes_the_chain():
    # M = e^2 over each period of 2: M^399 = e^798 is beyond the largest
    # double, but the state from 1e-300 stays finite (about e^109), so both
    # paths chain every sub-piece one by one and the rate is finite
    sig = PwcSignal.periodic((0.0, 0.5, 2.0), (1.0, 0.25))
    loop = ClosedLoop([[1.0]], [[1.0]], [[0.0]], sig)
    x0 = np.array([[1e-300, -3e-300]])
    chain, seen = simcore._chain, []

    def spy(exps, x0, *plan):
        seen.append((exps, x0, plan, chain(exps, x0, *plan)))
        return seen[-1][3]

    with mock.patch.object(simcore, "_chain", spy):
        runs = propagate_batch(loop, 0.0, x0, 800.0)
        got = simcore._end_rate(loop, x0, 800.0)
    assert len(seen) == 2
    for exps, x, plan, ends in seen:
        assert plan == (2, 0, 399)
        for e, end in zip(exps, ends):
            x = e @ x
            assert end.tobytes() == x.tobytes()
    assert all(np.isfinite(tr.states).all() for tr in runs)
    want = fitted_rate(runs, 800.0)
    assert repr(got) == repr(want)
    assert got == pytest.approx(-1.0, rel=1e-12)


# The cut 3 * 0.1 = 0.30000000000000004 leaves a first sub-piece 4e-17
# long from 0.3, whose midpoint reads the next cycle's level 0.0.  When
# the last piece starts one ulp short of 0.7, the cut 5 * 0.7 + its start
# rounds to 4.2, past the next cycle's first cut 6 * 0.7 =
# 4.199999999999999; two ulps short, 2 * 0.7 + its start rounds to 3 * 0.7,
# so two cycles cut at one float.
_ULP_P = (np.nextafter(0.7, 0.0), np.nextafter(np.nextafter(0.7, 0.0), 0.0))
_ULP_GATES = [
    (PwcSignal.periodic((0.0, 0.05, 0.1), (0.0, 0.25)), 0.3, 0.72),
    (PwcSignal.periodic((0.0, 0.35, _ULP_P[0], 0.7), (0.5, 0.25, 0.5)),
     1.25, 4.25),
    (PwcSignal.periodic((0.0, _ULP_P[1], 0.7), (0.25, 0.0)), 1.25, 4.25),
]


@st.composite
def plan_cases(draw):
    """(gate, t0, t1) from cases and short_piece_cases, periodic gates
    only, or a gate whose cuts land an ulp off its breakpoints."""
    loop, t0, _, t1, _ = draw(st.one_of(cases(), short_piece_cases()))
    if loop.alpha.period is None:
        return draw(st.sampled_from(_ULP_GATES))
    return loop.alpha, t0, t1


@PROPERTY
@given(plan_cases())
def test_periodic_plan_is_the_segments(case):
    # a periodic gate's plan lists the pieces segments lists, bit for bit,
    # from 0 and from t0; no run and no end rate asks segments for them
    sig, t0, t1 = case
    for start in (0.0, t0):
        levels, cuts, widths, _, _ = simcore._plan(
            ClosedLoop([[0.0]], [[1.0]], [[1.0]], sig), start, t1, 10.0)
        got = list(zip(cuts[:-1].tolist(), cuts[1:].tolist(),
                       levels.tolist()))
        want = list(sig.segments(start, t1))
        assert [tuple(map(repr, g)) for g in got] == \
            [tuple(map(repr, w)) for w in want]
        assert widths.tolist() == [e - s for s, e, _ in want]
    loop = ClosedLoop([[-0.5, 1.0], [0.0, -1.0]], [[0.0], [1.0]],
                      [[0.3, -0.2]], sig)
    with mock.patch.object(PwcSignal, "segments") as segments:
        propagate(loop, t0, [1.0, -0.5], t1)
        simcore._end_rate(loop, [[1.0], [-0.5]], t1)
    assert segments.call_count == 0


_ROTOR_LOOP = ([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[-0.4, -0.9]])


def unit_case(loop, J, periods, head, tail, max_step, width=1, unit=1 / 64):
    """(loop, t0, x0 columns, t1, max_step) on a periodic gate of J levels,
    1 and 0.25 in turn, over widths of 1 to 3 units, so an odd J runs its
    last level on into the next period's first: from 0, or with a head
    from three periods and half the first level in; over `periods`
    periods and then `tail` times the first level's width."""
    bp = np.concatenate(([0.0], np.cumsum([1 + j % 3 for j in range(J)])))
    bp *= unit
    sig = PwcSignal.periodic(bp, [(1.0, 0.25)[j % 2] for j in range(J)])
    t0 = 3.0 * bp[-1] + 0.5 * bp[1] if head else 0.0
    cols = np.vstack([2.0 + np.arange(width), -np.arange(width) / 3.0])
    return (ClosedLoop(*loop, sig), t0, cols,
            t0 + periods * bp[-1] + tail * bp[1], max_step)


@st.composite
def unit_cases(draw):
    """unit_case of a random loop, with entries small enough that a run of
    up to 60 periods stays well inside the doubles."""
    entries = st.lists(st.floats(-0.5, 0.5), min_size=8, max_size=8)
    A, B, K = np.split(np.array(draw(entries)), [4, 6])
    return unit_case(
        (A.reshape(2, 2), B.reshape(2, 1), K.reshape(1, 2)),
        draw(st.integers(2, 26)), draw(st.integers(2, 60)),
        draw(st.booleans()), draw(st.sampled_from((0.0, 0.5, 1.5))),
        draw(st.sampled_from((10.0, 1.0 / 128.0, 1.0 / 200.0))),
        draw(st.sampled_from((1, 4))))


# Hypothesis mixes constants of the loaded modules into its draws, so the
# edges of the unit are pinned as examples: a level that goes on across
# the period boundary (odd J), a head, a one-sub-piece tail, a unit that
# repeats twice, runs at the break-even piece count and one piece short
# of it, and 240 periods.
_HALF = (simcore._UNIT_PIECES - 2) // 2
_UNIT_EDGES = {
    "merged-boundary": ((3, 40, False, 0.5, 10.0), 3),
    "head": ((4, 40, True, 0.25, 10.0), 5),
    "two-sub-piece-tail": ((6, 12, True, 1.5, 1.0 / 128.0, 4), 8),
    "twice": ((26, 3, False, 0.5, 10.0), 27),
    "break-even": ((3, _HALF, False, 1.5, 10.0), 4),
    "short-of-break-even": ((3, _HALF, False, 0.5, 10.0), 2 * _HALF + 1),
    "240-periods": ((5, 240, True, 0.25, 1.0 / 128.0), 9),
}


def filled_by_piece(case):
    """The number of pieces a run fills piece by piece, outside the unit
    and its repeats."""
    with mock.patch.object(simcore, "_fill", wraps=simcore._fill) as fill:
        run(*case)
    (_, steps, _, _), _ = fill.call_args
    return len(steps)


@pytest.mark.parametrize("args, filled", _UNIT_EDGES.values(),
                         ids=_UNIT_EDGES.keys())
def test_unit_covers_the_whole_periods(args, filled):
    # pieces before the unit (the first piece, a head, a level across the
    # boundary) and after its last repeat (the tail) are filled one by
    # one, every other piece from the unit table
    case = unit_case(_ROTOR_LOOP, *args)
    *_, nsub, _ = simcore._plan(*case[:2], *case[3:])
    assert filled_by_piece(case) == filled
    if args[1] == _HALF:
        assert len(nsub) == simcore._UNIT_PIECES - (args[3] == 0.5)


@settings(PROPERTY, max_examples=25)
@given(unit_cases())
@example(unit_case(_ROTOR_LOOP, *_UNIT_EDGES["merged-boundary"][0]))
@example(unit_case(_ROTOR_LOOP, *_UNIT_EDGES["head"][0]))
@example(unit_case(_ROTOR_LOOP, *_UNIT_EDGES["two-sub-piece-tail"][0]))
@example(unit_case(_ROTOR_LOOP, *_UNIT_EDGES["twice"][0]))
@example(unit_case(_ROTOR_LOOP, *_UNIT_EDGES["break-even"][0]))
@example(unit_case(_ROTOR_LOOP, *_UNIT_EDGES["short-of-break-even"][0]))
@example(unit_case(_ROTOR_LOOP, *_UNIT_EDGES["240-periods"][0]))
def test_unit_table_matches_the_per_piece_fill(case):
    # the unit moves samples inside whole periods at rounding level, and
    # leaves the piece ends, the first sample and the grid bit for bit as
    # the per-piece fill below the break-even leaves them; its one stacked
    # expm holds the same slices however many periods the run has
    loop, t0, cols, t1, max_step = case
    with counting_expm() as calls:
        times, states, seg_alpha = run(*case)
    with mock.patch.object(simcore, "_UNIT_PIECES", math.inf):
        want_times, want_states, want_alpha = run(*case)
    *_, nsub, _ = simcore._plan(loop, t0, t1, max_step)
    at = np.concatenate(([0], np.cumsum(nsub)))
    assert_same_bits((times, seg_alpha, states[at]),
                     (want_times, want_alpha, want_states[at]))
    _, ref, _ = reference_propagate(*case)
    assert relative_deviation(states, ref) <= 1e-12
    longer = (loop, t0, cols, t1 + 57 * loop.alpha.period, max_step)
    with counting_expm() as more:
        run(*longer)
    assert [len(s) for s, _ in more] == [len(s) for s, _ in calls]


@pytest.mark.parametrize("head, max_step", [(False, 10.0), (True, 0.07)])
def test_unit_keys_do_not_grow_with_the_periods(head, max_step):
    # breakpoints at multiples of 0.1 put the cuts of each period an ulp
    # or so apart, so keying every piece keys each period's pieces anew;
    # the unit is keyed once, over the breakpoints' own widths
    def slices(periods):
        case = unit_case(_ROTOR_LOOP, 4, periods, head, 0.5, max_step,
                         unit=0.1)
        with counting_expm() as calls:
            run(*case)
        with mock.patch.object(simcore, "_UNIT_PIECES", math.inf), \
                counting_expm() as today:
            run(*case)
        (stack, _), = calls
        (today_stack, _), = today
        return len(stack), len(today_stack)

    (short, short_today), (long_, long_today) = slices(20), slices(240)
    assert short == long_ < long_today
    assert short_today < long_today
