"""Semigroup property of `propagate`: running [0, t1] in one call equals
chaining calls over [0, s1], [s1, s2], ..., [s_k, t1], each started from
the state the previous one ended at.

The chained calls cut the gate's pieces at the split times, so they sample
on other grids and take other exponentials than the one call; only the
flow itself is shared.  Splits are drawn at arbitrary times and exactly on
gate breakpoints, for periodic and held gates on both presets.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from pestab.gains import di_gain
from pestab.scenarios import PRESETS
from pestab.signals import PeClass, PwcSignal
from pestab.simcore import ClosedLoop, propagate

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
CLS = PeClass(1.0, 0.5)
GAINS = {
    "double_integrator": di_gain(CLS, 0.2, 2.0, 4.0).K,
    "rotation": -PRESETS["rotation"][1].T,
}


@st.composite
def gates(draw):
    """Periodic or held gates with dyadic or decimal cuts."""
    unit = draw(st.sampled_from((1.0 / 16.0, 0.1)))
    widths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    bp = np.concatenate([[0.0], np.cumsum(widths) * unit])
    values = draw(st.lists(
        st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0)),
        min_size=len(widths), max_size=len(widths)))
    if draw(st.booleans()):
        return PwcSignal.periodic(bp, values)
    return PwcSignal.held(bp, values, hold=draw(st.floats(0.0, 1.0)))


@st.composite
def runs(draw):
    """(loop, x0, t1, max_step, split times) with 1 to 6 splits, some on
    gate breakpoints."""
    preset = draw(st.sampled_from(sorted(PRESETS)))
    A, B = PRESETS[preset]
    sig = draw(gates())
    loop = ClosedLoop(A, B, GAINS[preset], sig)
    t1 = draw(st.floats(0.2, 4.0))
    on_breaks = [b for b, _, _ in sig.segments(0.0, t1)][1:]
    splits = set(draw(st.lists(st.floats(0.0, 1.0).map(lambda f: f * t1),
                               max_size=4)))
    if on_breaks:
        splits |= set(draw(st.lists(st.sampled_from(on_breaks),
                                    min_size=1, max_size=3)))
    splits = sorted(s for s in splits if 0.0 < s < t1)
    if not splits:
        splits = [0.5 * t1]
    max_step = draw(st.sampled_from((None, 0.3, 0.05)))
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    x0 = np.array([np.cos(angle), np.sin(angle)])
    return loop, x0, t1, max_step, splits


@PROPERTY
@given(runs())
def test_split_runs_compose_to_the_whole_run(run):
    loop, x0, t1, max_step, splits = run
    whole = propagate(loop, 0.0, x0, t1, max_step)
    x, t = x0, 0.0
    for s in splits + [t1]:
        x = propagate(loop, t, x, s, max_step).states[-1]
        t = s
        ref = whole.state_at(s)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

