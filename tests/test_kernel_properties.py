"""Property tests of the segment-power propagation kernel.

Random periodic and held piecewise-constant signals drive random loops;
`propagate` and `propagate_batch` are compared with a sequential product of
`scipy.linalg.expm` factors, with `solve_ivp`, and with the sample grid of a
plain per-sample loop.
"""

import contextlib
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from pestab import simcore
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
    """Record the step of every expm call the kernel makes."""
    calls = []
    real = simcore.expm
    simcore.expm = lambda m, t=1.0: calls.append(t) or real(m, t)
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
    loop, t0, _, t1, max_step = case
    _, _, pieces = per_sample_grid(loop, t0, t1, max_step)
    with counting_expm() as calls:
        run(*case)
    assert len(calls) <= len({(a, h) for a, h, _ in pieces})


def test_power_table_grows_for_a_longer_segment():
    # pieces [0, .25) and [.5, 1.25) at alpha 1 share h = 1/8, with 2 and 6
    # steps; the table built for the first is grown for the second
    sig = PwcSignal.held((0.0, 0.25, 0.5, 1.25), (1.0, 0.5, 1.0), hold=0.5)
    loop = ClosedLoop([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]],
                      [[-0.4, -0.9]], sig)
    with counting_expm() as calls:
        tr = propagate(loop, 0.0, [1.0, 0.0], 1.25, max_step=0.125)
    assert len(tr.times) == 11
    assert calls == [0.125, 0.125]
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
