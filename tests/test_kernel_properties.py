"""Property tests of the piece-list propagation kernel.

Random periodic and held piecewise-constant signals drive random loops;
`propagate` and `propagate_batch` are compared with a sequential product of
`scipy.linalg.expm` factors, with `solve_ivp`, with the sample grid of a
plain per-sample loop, and bit for bit with the per-piece loop the kernel
replaced, which also checks `run_destabilizer` and `witness_residual`.
The full run ends every piece at the chained piece-end state.  The
endpoint path, which chains the piece ends without filling a sample, is
compared bit for bit with the last sample of the full run and with the
rate `_fitted_rate` reads from it, and its fallback fills from the tables
it built.
"""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from pestab import adversary, simcore
from pestab.adversary import run_destabilizer
from pestab.gains import A_DI, B_DI
from pestab.reachability import witness_residual
from pestab.signals import PeClass, PwcSignal, make_duty
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
    powers[(a, h)] and grown when a piece needs more steps."""
    if (a, h) not in powers:
        powers[(a, h)] = scipy.linalg.expm(h * m).astype(
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


@PROPERTY
@given(cases())
def test_one_expm_per_distinct_piece(case):
    # one stacked call per propagation, one slice per distinct (alpha, h)
    loop, t0, _, t1, max_step = case
    _, _, pieces = per_sample_grid(loop, t0, t1, max_step)
    with counting_expm() as calls:
        run(*case)
    assert len(calls) == 1
    stack, t = calls[0]
    assert t == 1.0
    assert len(stack) == len({(a, h) for a, h, _ in pieces})


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
    times, states, seg_alpha = run(*case)
    assert_same_bits((times, states, seg_alpha), reference_propagate(*case))


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


@pytest.mark.parametrize("k", [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)])
def test_destabilizer_samples_equal_the_per_phase_loop(k):
    # the phases run_destabilizer hands the kernel, each re-marched from
    # its crossing state the old way and ended on the next one
    with mock.patch.object(adversary, "_flow",
                           wraps=adversary._flow) as flow:
        run_ = run_destabilizer(np.array([[-k[0], -k[1]]]),
                                PeClass(1.0, 0.03), revolutions=4)
    (matrix, levels, cuts, widths, nsub, x0, ends), _ = flow.call_args
    assert cuts.tolist() == [0.0] + [c["t"] for c in run_.crossings]
    times, states, powers = [cuts[:1]], [x0[np.newaxis, :, 0]], {}
    x = x0[:, 0]
    for a, s, e, w, q, xe in zip(levels.tolist(), cuts, cuts[1:], widths,
                                 nsub.tolist(), ends[:, :, 0]):
        ts, xs = reference_segment(powers, a, matrix(a), x, s, e, w / q, q)
        xs[-1] = xe
        times.append(ts)
        states.append(xs)
        x = xe
    assert_same_bits((run_.traj.times, run_.traj.states),
                     (np.concatenate(times), np.concatenate(states)))


@pytest.mark.parametrize("grid", [1, 3, 2000])
def test_witness_residual_equals_the_segment_table(grid):
    sig = make_duty(PeClass(1.0, 0.5), phase=0.3)
    p = np.array([0.6, -0.8])
    for t in (0.8, 1.7, 4.3):
        h = t / grid
        mids = (np.arange(grid) + 0.5) * h
        gate = np.array([sig.value_at(s) for s in mids])
        y = simcore.expm(A_DI.T, t + 0.5 * h) @ p
        _, ys = reference_segment({}, 0.0, -A_DI.T, y, 0.0, t, h, grid)
        want = float(np.max(gate * np.max(np.abs(ys @ B_DI), axis=1)))
        assert witness_residual(A_DI, B_DI, sig, t, p, grid) == want


@PROPERTY
@given(cases())
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
    last = np.cumsum(simcore._pieces(loop, t0, t1, max_step)[3])
    states = np.stack([tr.states for tr in runs], axis=2)
    assert_same_bits((states[last],), tuple(nudged))


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
    # no fill: these loops grow far too little to trip the overflow bound
    loop, cols, t1 = case
    want = np.stack([tr.states[-1]
                     for tr in propagate_batch(loop, 0.0, cols, t1)], axis=1)
    _, ends, tables, fills = end_rate_seen(*case)
    assert (tables, fills) == (1, 0)
    assert_same_bits((ends,), (want,))


@PROPERTY
@given(end_cases())
def test_end_rate_is_the_fitted_rate(case):
    loop, cols, t1 = case
    want = simcore._fitted_rate(propagate_batch(loop, 0.0, cols, t1), t1)
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
        want = simcore._fitted_rate(propagate_batch(loop, 0.0, x0, t1), t1)
        got, _, tables, fills = end_rate_seen(loop, x0, t1)
    assert (tables, fills) == (1, 1)
    assert repr(got) == repr(want)
    assert (want == -math.inf) == overflows
