"""Exact propagation of x' = (A + alpha(t) B K) x for piecewise-constant alpha.

Every maximal interval where the signal is constant is a piece, cut into
equal steps of at most max_step; signal breakpoints are mandatory samples.
_plan lists a run's pieces: a held gate's from PwcSignal.segments, a
periodic gate's from its period plan, the run cut at every breakpoint into
sub-pieces and merged while the level holds.  The one kernel, _flow, works
on arrays: one stacked expm gives phi for every distinct (alpha, step) and
sub-piece, their power tables are built together by doubling in extended
precision, and one matrix product fills the samples of all pieces with
equal (alpha, step, count).  A periodic run of many pieces keys and tables
one period's pieces, the unit, and one product of the unit's table and
the repeats' start states fills every whole period.  Each piece ends at
its piece-end state from the one chain, _chain: a held gate's pieces one
by one through phi^nsub, a periodic gate's sub-pieces with the whole
periods keyed once and started at M^k times the head's end, M the
monodromy and its powers doubled in extended precision (one by one where
a power is not finite).  So there is no integration error beyond expm
accuracy and no per-sample Python loop.  monodromy and floquet_rate give
a periodic gate's one-period flow and any gate's exact asymptotic decay.

_end_rate reads only the end rate, from the same plan and chain, so the
same end state bit for bit, with no fill (for a periodic gate no power
table of the sample step either); where the piece ends cannot rule out a
sample overflowing inside a piece, it fills the samples as the full run
does.  Every crossing the package locates is where a constant planar flow
meets a line through the origin: _first_zero gives it in closed form from
the 2x2 exponential's cosine and sine parts, with no exponential, march,
bracket or tolerance, and crossing_time is its public form on a sample
segment.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateStateError, DomainError, ShapeError)
from .matkit import as_matrix, expm, one_norm
from .signals import PwcSignal

__all__ = [
    "ClosedLoop",
    "Trajectory",
    "propagate",
    "propagate_batch",
    "monodromy",
    "floquet_rate",
    "crossing_time",
    "polar_lift",
    "fmap_F",
]

# rows formatted at a time by Trajectory.to_csv
_CSV_BLOCK = 512
# _end_rate vouches without a fill for runs whose samples all stay below
# e^700; the largest double is about e^709.78
_END_LOG_CAP = 700.0
_TINY = float(np.finfo(float).tiny)
# 2^27 + 1: splits a double into two halves whose products are exact
_SPLIT = 134217729.0
# the least norm of a state with a direction (_polar) and a decay fit (cli)
_NORM_FLOOR = 1e-300
# the fewest pieces (repeated sub-pieces) worth a unit table (shared keys)
_UNIT_PIECES = 40


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of x.  np.linalg.norm squares the
    entries, so a nonzero row can read 0 (below about 1e-154) and a finite
    row inf (above about 1.3e154); rows that read below 1e-150 or at least
    1e150 are measured again divided by their largest entry (a zero row by
    the least subnormal), and every other row, and every row with an
    infinite entry, keeps its bits."""
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(x, axis=1)
        odd = np.flatnonzero((nrm < 1e-150) | (nrm >= 1e150))
        if odd.size:
            scale = np.maximum(np.abs(x[odd]).max(axis=1), 5e-324)
            odd, scale = odd[scale < math.inf], scale[scale < math.inf]
            nrm[odd] = scale * np.linalg.norm(x[odd] / scale[:, np.newaxis],
                                              axis=1)
    return nrm


def _energy(x: np.ndarray) -> np.ndarray:
    """V = |x|^2/2 of the rows of x; a row whose sum of squares overflows
    is measured again from _row_norms, every other row keeps its bits."""
    with np.errstate(over="ignore"):
        V = 0.5 * np.sum(x ** 2, axis=1)
        odd = V == math.inf
        V[odd] = (math.sqrt(0.5) * _row_norms(x[odd])) ** 2
    return V


def _ends_rate(pairs, horizon: float) -> float:
    """The rate rule: slowest decay -log(|x1| / |x0|) / horizon over the
    (x0, x1) pairs of finite start and end states, or -inf once a norm
    overflows; a run that ends at zero decays at rate +inf.  A ratio
    beyond the normal doubles is taken as the difference of the logs."""
    rows = [x for pair in pairs for x in pair]
    nrm = _row_norms(np.array(rows)) if rows else np.zeros(0)
    if not np.isfinite(nrm).all():
        return -math.inf
    worst = math.inf
    for n0, n1 in nrm.reshape(-1, 2).tolist():
        if n1 > 0.0:
            # a Python float ratio overflows and underflows without a warning
            ratio = n1 / n0
            log_ratio = math.log(ratio) if _TINY <= ratio < math.inf else \
                math.log(n1) - math.log(n0)
            worst = min(worst, -log_ratio / horizon)
    return worst


@dataclass(eq=False)
class ClosedLoop:
    """The loop x' = (A + alpha(t) B K) x."""

    A: np.ndarray
    B: np.ndarray
    K: np.ndarray
    alpha: PwcSignal

    def __post_init__(self):
        self.A = as_matrix(self.A, square=True, name="A")
        self.B = as_matrix(self.B, name="B")
        self.K = as_matrix(self.K, name="K")
        n = self.A.shape[0]
        if self.B.shape[0] != n:
            raise ShapeError(f"B must have {n} rows, got {self.B.shape}")
        if self.K.shape != (self.B.shape[1], n):
            raise ShapeError(
                f"K must be {self.B.shape[1]}x{n}, got {self.K.shape}")
        self._bk = self.B @ self.K

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def matrix(self, a: float) -> np.ndarray:
        return self.A + a * self._bk

    def default_max_step(self) -> float:
        # 1e-2 of the characteristic time; also keeps per-step angle swings
        # far below the pi/2 that polar_lift refuses.
        return 1e-2 / max(one_norm(self.A) + one_norm(self._bk), 1e-9)


@dataclass(eq=False)
class Trajectory:
    """Sampled solution with exact in-segment dense output.

    seg_alpha[j] is the signal value on [times[j], times[j+1]); channels maps
    a name (V, r, theta, F_theta) to a per-sample array.
    """

    loop: ClosedLoop
    times: np.ndarray
    states: np.ndarray
    seg_alpha: np.ndarray
    channels: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def norms(self) -> np.ndarray:
        return _row_norms(self.states)

    def state_at(self, t: float) -> np.ndarray:
        """Exact state at any time inside the sampled range."""
        if not (self.times[0] <= t <= self.times[-1]):
            raise DomainError(f"t={t} outside sampled range")
        j = int(np.searchsorted(self.times, t, side="right") - 1)
        j = min(max(j, 0), len(self.times) - 2)
        m, x_lo, t_lo, _ = self.segment_flow(j)
        return expm(m, t - t_lo) @ x_lo

    def segment_flow(self, j: int) -> tuple:
        """(m, x_lo, t_lo, t_hi): the constant flow x' = m x on sample
        segment j, in the argument order of crossing_time."""
        return (self.loop.matrix(float(self.seg_alpha[j])), self.states[j],
                float(self.times[j]), float(self.times[j + 1]))

    def with_channels(self, **named) -> "Trajectory":
        ch = dict(self.channels)
        for k, v in named.items():
            arr = np.asarray(v, dtype=float)
            if arr.shape != self.times.shape:
                raise ShapeError(f"channel {k} must be per-sample")
            ch[k] = arr
        return Trajectory(self.loop, self.times, self.states, self.seg_alpha, ch)

    def with_energy(self) -> "Trajectory":
        return self.with_channels(V=_energy(self.states))

    def window(self, i0: int, i1: int) -> "Trajectory":
        """Sub-trajectory over sample indices [i0, i1] inclusive."""
        if not (0 <= i0 < i1 < len(self.times)):
            raise DomainError("bad sample window")
        ch = {k: v[i0:i1 + 1] for k, v in self.channels.items()}
        return Trajectory(self.loop, self.times[i0:i1 + 1],
                          self.states[i0:i1 + 1], self.seg_alpha[i0:i1], ch)

    def to_csv(self, path) -> None:
        """One row per sample: t, the states, alpha and the V, r, theta,
        F_theta channels, as repr floats, with empty cells for absent
        channels and CRLF line ends (the bytes csv.writer writes)."""
        names = ("V", "r", "theta", "F_theta")
        header = ["t"] + [f"x{i+1}" for i in range(self.n)] + ["alpha", *names]
        N = len(self.times)
        # alpha takes few levels: each is formatted once, keyed by its bits
        # so that 0.0 and -0.0 stay apart
        bits = np.asarray(self.seg_alpha, dtype=float).view(np.int64)
        levels, level_of = np.unique(bits, return_inverse=True)
        level_text = np.array([repr(a) for a in levels.view(float).tolist()],
                              dtype=object)
        # sample j reads seg_alpha[j]; the last sample repeats the last value
        alpha = level_text[level_of[np.minimum(np.arange(N), len(bits) - 1)]]
        channels = [self.channels.get(name) for name in names]

        def text(c, block):
            return itertools.repeat("") if c is None else \
                map(repr, np.asarray(c[block], dtype=float).tolist())

        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            # whole columns are formatted a block of rows at a time, which
            # bounds the string lists held at once
            for b in range(0, N, _CSV_BLOCK):
                block = slice(b, b + _CSV_BLOCK)
                cells = [text(c, block) for c in (self.times, *self.states.T)]
                cells.append(alpha[block].tolist())
                cells += [text(c, block) for c in channels]
                rows = zip(*cells)
                fh.write("".join(",".join(row) + "\r\n" for row in rows))


def _power_tables(phis: np.ndarray, sizes: list) -> list:
    """Tables [phi, phi^2, ..., phi^size] of every phi in the stack phis.

    All tables grow together by doubling in extended precision, so each
    power carries one float64 rounding instead of the rounding of every
    squaring before it; a doubling step stops at the longest size.
    """
    n = phis.shape[-1]
    order = sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True)
    ext = phis[order].astype(np.longdouble)[:, np.newaxis]
    tables = [None] * len(sizes)
    live = len(order)
    while True:
        # the longest tables come first; the ones long enough are done
        done = live
        while live and sizes[order[live - 1]] <= ext.shape[1]:
            live -= 1
        for i in range(live, done):
            tables[order[i]] = ext[i, :sizes[order[i]]].astype(float)
        if not live:
            return tables
        ext = ext[:live]
        grow = ext[:, :sizes[order[0]] - ext.shape[1]]
        top = np.matmul(grow.reshape(live, -1, n), ext[:, -1])
        ext = np.concatenate((ext, top.reshape(grow.shape)), axis=1)


def _keyed_exps(matrix, levels: np.ndarray, steps: np.ndarray) -> tuple:
    """(key, mats, phis): key[j] indexes the distinct (a, h) = (levels[j],
    steps[j]), mats[q] is key q's matrix(a) and phis[q] = exp(h
    matrix(a)), all from one stacked expm."""
    keys: dict = {}
    key = [keys.setdefault(ah, len(keys))
           for ah in zip(levels.tolist(), steps.tolist())]
    mats = np.array([matrix(a) for a, _ in keys])
    phis = expm(mats * np.array([h for _, h in keys])[:, np.newaxis,
                                                      np.newaxis])
    return key, mats, phis


def _keyed_tables(matrix, levels: np.ndarray, widths: np.ndarray,
                  nsub: np.ndarray) -> tuple:
    """(key, mats, tables) of the pieces of levels[j] held over widths[j]
    in nsub[j] steps: _keyed_exps of the steps h = widths[j] / nsub[j],
    with tables[q] key q's powers [phi, ..., phi^longest]."""
    key, mats, phis = _keyed_exps(matrix, levels, widths / nsub)
    need = [0] * len(mats)
    for q, s in zip(key, nsub.tolist()):
        need[q] = max(need[q], s)
    return key, mats, _power_tables(phis, need)


def _chain(exps, x0: np.ndarray, J: int = 0, head: int = 0,
           periods: int = 0) -> np.ndarray:
    """States (S, n, m) at the ends of S pieces that each map their start
    x, x0 for the first and the previous end after it, to exps[s] @ x.
    When the `periods` whole periods of J pieces after the first `head`
    pieces are given, period k starts at M^k x_head, with M the period's
    monodromy and its powers from _power_tables' extended-precision
    doubling, and its inner piece ends come from one product with the
    period's partial products; when a power of M is not finite, those
    pieces are chained too."""
    ends = np.empty((len(exps),) + x0.shape)
    x = x0
    for s in range(min(head, len(exps))):
        x = ends[s] = exps[s] @ x
    if periods:
        partial = _partial_products(exps[head:head + J])
        with np.errstate(over="ignore"):
            powers = _power_tables(partial[-1:], [periods])[0]
        if np.isfinite(powers).all():
            starts = np.concatenate((x[np.newaxis], powers[:-1] @ x))
            body = ends[head:head + J * periods].reshape((periods, J) + x.shape)
            body[:, :-1] = np.matmul(partial[:-1], starts[:, np.newaxis])
            body[:, -1] = powers @ x
            x = body[-1, -1]
            head += J * periods
    for s in range(min(head, len(exps)), len(exps)):
        x = ends[s] = exps[s] @ x
    return ends


def _fill(key: list, steps: list, tables: list, starts: np.ndarray) -> list:
    """The samples (steps[j], n, m) of the pieces j that start at starts[j]:
    sample i of piece j is tables[key[j]][i] @ starts[j], and pieces of
    equal (key, steps) are filled by one matrix product."""
    groups: dict = {}
    for j, qs in enumerate(zip(key, steps)):
        groups.setdefault(qs, []).append(j)
    parts = [None] * len(steps)
    n = starts.shape[1]
    for (q, s), js in groups.items():
        xs = np.matmul(tables[q][:s].reshape(-1, n), starts[js])
        for j, x in zip(js, xs.reshape((len(js), s) + starts.shape[1:])):
            parts[j] = x
    return parts


def _flow(matrix, levels: np.ndarray, cuts: np.ndarray, widths: np.ndarray,
          nsub: np.ndarray, x0: np.ndarray, ends: np.ndarray | None = None,
          period: _Period | None = None):
    """Samples of x' = matrix(a) x over consecutive constant pieces.

    Piece j holds level levels[j] from cuts[j] to cuts[j + 1] in nsub[j]
    steps of h = widths[j] / nsub[j]; its sample times are cuts[j] + i h,
    the last one exactly cuts[j + 1].  _keyed_tables gives the powers of
    phi = exp(h matrix(a)) for every distinct (a, h).  x0 (n, m) is the
    state at cuts[0]; the piece-end states ends (k, n, m) are given, or
    are the _chain of the period plan's sub-pieces when one of the same
    run is given (their exponentials ride in the same stacked expm as
    one-step pieces), or else the _chain of the phi^nsub.  _fill fills the
    samples from them and each piece ends at ends[j]; from _UNIT_PIECES
    pieces on, a unit of Q pieces that repeats over whole periods keys only
    itself: sample i of unit piece j is tables[key[j]][i] @ P[j], over the
    breakpoints' own widths, times the repeat's start, with P[j] the unit's
    sub-piece exponentials before piece j.  Returns times (N,), states
    (N, n, m) and seg_alpha (N - 1,), with N = 1 + sum(nsub).
    """
    steps = nsub.tolist()
    # the chain and the fill read one memory layout: BLAS can round a
    # product with a transposed operand differently
    x0 = np.ascontiguousarray(x0)
    b = Q = e = 0
    block = x0[np.newaxis][:0]
    if period is None:
        key, _, tables = _keyed_tables(matrix, levels, widths, nsub)
        if ends is None:
            ends = _chain([tables[q][s - 1] for q, s in zip(key, steps)], x0)
    else:
        J, first = period.J, period.first
        own, index = _shared_keys(period)
        if len(steps) >= _UNIT_PIECES and len(own) < len(index):
            # the unit: the Q pieces from the first piece b > 0 at or after
            # the head, repeated R >= 2 times over whole periods up to piece
            # e, each piece Q pieces on J sub-pieces later, with its nsub
            b = int(first.searchsorted(max(period.head, 1)))
            Q = int(first.searchsorted(first[b] + J)) - b
            e = b + (period.head + J * period.periods - first[b]) // J * Q
            if e < b + 2 * Q or e >= len(first) \
                    or (first[b + Q:e + 1] - first[b:e + 1 - Q] != J).any() \
                    or (nsub[b + Q:e] != nsub[b:e - Q]).any():
                b = Q = e = 0
        u0 = int(first[b])
        keep = np.r_[:b + Q, e:len(steps)] if Q else slice(None)
        pw = widths[keep]
        pw[b:b + Q] = np.add.reduceat(period.widths[:u0 + J], first[b:b + Q])
        key, _, tables = _keyed_tables(
            matrix, np.append(levels[keep], period.levels[own]),
            np.append(pw, period.widths[own]),
            np.append(nsub[keep], np.ones(len(own), int)))
        phis = np.array([t[0] for t in tables])
        sub = np.asarray(key[len(pw):])[index]
        ends = _chain(phis[sub], x0, J, period.head,
                      period.periods)[period.last]
    starts = np.concatenate((x0[np.newaxis], ends[:-1]))
    if Q:
        P = _partial_products(np.concatenate((
            np.eye(len(x0))[np.newaxis], phis[sub[u0:u0 + J - 1]])))
        unit = np.concatenate([tables[key[j]][:steps[j]].reshape(
            -1, len(x0)) @ P[first[j] - u0] for j in range(b, b + Q)])
        block = np.matmul(unit, starts[b:e:Q]).reshape((-1,) + x0.shape)
        key, steps = key[:b] + key[b + Q:], steps[:b] + steps[e:]
        starts = np.concatenate((starts[:b], starts[e:]))
    parts = _fill(key, steps, tables, starts)
    states = np.concatenate([x0[np.newaxis]] + parts[:b] + [block]
                            + parts[b:])
    last = np.cumsum(nsub)
    h = widths / nsub
    times = np.empty(len(states))
    times[0] = cuts[0]
    times[1:] = np.repeat(cuts[:-1], nsub) + np.repeat(h, nsub) * (
        np.arange(1, len(times)) - np.repeat(last - nsub, nsub))
    times[last] = cuts[1:]
    states[last] = ends
    return times, states, np.repeat(levels, nsub)


def _span(loop: ClosedLoop, t0: float, t1: float,
          max_step: float | None) -> float:
    """max_step, the loop's default when None, once 0 <= t0 < t1 with t1
    finite, max_step > 0, and the run's step and period counts fit in
    int64."""
    if not (0.0 <= t0 < t1 and math.isfinite(t1)):
        raise DomainError("need 0 <= t0 < t1 with t1 finite")
    if max_step is None:
        max_step = loop.default_max_step()
    if not max_step > 0.0:
        raise DomainError("max_step must be positive")
    count = (t1 - t0) / min(max_step, loop.alpha.period or math.inf)
    if not count < 2.0 ** 63:
        raise DomainError(
            f"a run to t1={t1!r} at max_step={max_step!r} takes {count:.3g} "
            "steps or periods, more than int64 counts")
    return max_step


def _plan(loop: ClosedLoop, t0: float, t1: float,
          max_step: float | None) -> tuple:
    """(levels, cuts, widths, nsub, period): the constant pieces of
    loop.alpha on [t0, t1], piece j holding levels[j] from cuts[j] to
    cuts[j + 1] in nsub[j] equal steps of at most max_step, and the gate's
    _Period of the run, or None for a held gate, whose pieces come from
    PwcSignal.segments."""
    max_step = _span(loop, t0, t1, max_step)
    period = None
    if loop.alpha.period is None:
        s, e, levels = np.array(list(loop.alpha.segments(t0, t1))).T
        cuts = np.concatenate((s, e[-1:]))
    else:
        period = _period_plan(loop.alpha, t0, t1)
        levels = period.levels[period.first]
        cuts = np.concatenate(([t0], period.times[period.last]))
    widths = cuts[1:] - cuts[:-1]
    nsub = np.maximum(1, np.ceil(widths / max_step - 1e-12)).astype(int)
    return levels, cuts, widths, nsub, period


class _Period(NamedTuple):
    """A run of a periodic gate cut at every breakpoint j p + b inside it:
    sub-piece s holds levels[s] over widths[s] and ends at times[s], the
    last at the run's end.  The first `head` sub-pieces lead up to a
    period boundary, the next J * periods are whole periods over the
    breakpoints' own widths, and the rest is the tail; the first and the
    last sub-piece are cut at the run's ends.  The run's pieces start at
    the sub-pieces `first` and end at the sub-pieces `last`."""

    levels: np.ndarray
    widths: np.ndarray
    times: np.ndarray
    first: np.ndarray
    last: np.ndarray
    J: int
    head: int
    periods: int


def _period_plan(alpha: PwcSignal, t0: float, t1: float) -> _Period:
    """The _Period of the periodic alpha on [t0, t1], with the cuts and
    levels PwcSignal.segments reads: the cut times j p + b, and each
    sub-piece's level at its midpoint."""
    bp, p, J = np.array(alpha.breakpoints), alpha.period, len(alpha.values)
    # the cuts j p + b of the cycles j from floor(t0 / p), in order; a
    # cycle's last cut can round past the next cycle's first
    cand = np.add.outer(
        np.arange(math.floor(t0 / p), math.floor(t1 / p) + 2) * p,
        bp[:-1]).ravel()
    cand.sort()
    s0 = int(cand.searchsorted(t0, "right"))
    s1 = int(cand.searchsorted(t1, "left"))
    edges = np.concatenate(([t0], cand[s0:s1], [t1]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    levels = np.asarray(alpha._table)[
        bp.searchsorted(mids - np.floor(mids / p) * p, "right")]
    # a piece ends where the level changes between sub-pieces of positive
    # length; one of no length (two cycles cut at one float) ends with the
    # one before it
    pos = (edges[1:] > edges[:-1]).nonzero()[0]
    lv = levels[pos]
    new = pos[1:][lv[1:] != lv[:-1]]
    # sub-piece s is piece (s0 - 1 + s) mod J of its cycle
    i = np.arange(s0 - 1, s1) % J
    widths = (bp[1:] - bp[:-1])[i]
    widths[0] = edges[1] - edges[0]
    widths[-1] = edges[-1] - edges[-2]
    # a run from 0 starts on a period boundary, and its first width,
    # bp[1] - 0, is the breakpoints' own: it has no head
    head = J - (s0 - 1) % J if t0 else 0
    return _Period(levels, widths, edges[1:], np.concatenate(([0], new)),
                   np.concatenate((new - 1, [len(i) - 1])), J, head,
                   max(0, (len(i) - 1 - head) // J))


def _shared_keys(period: _Period) -> tuple:
    """(own, index): the sub-pieces keyed one by one, and for each the
    position among them of the one whose key it takes.  From _UNIT_PIECES
    repeated sub-pieces on, whole periods after the first take its keys:
    they hold its widths, and its levels unless a cut an ulp off moves one."""
    J, head, periods = period.J, period.head, period.periods
    lv, index = period.levels, np.arange(len(period.levels))
    a, z = head + J, head + J * periods
    if z - a < _UNIT_PIECES or (lv[a:z] != lv[head:z - J]).any():
        return index, index
    own = np.concatenate((index[:a], index[z:]))
    index[a:z].reshape(-1, J)[:] = index[head:a]
    index[z:] -= z - a
    return own, index


def _partial_products(exps: np.ndarray) -> np.ndarray:
    """The stack [E_0, E_1 E_0, ..., E_(J-1) ... E_0] of exps (J, n, n)."""
    out = np.empty_like(exps)
    m = out[0] = exps[0]
    for j in range(1, len(exps)):
        m = out[j] = exps[j] @ m
    return out


def monodromy(loop: ClosedLoop) -> np.ndarray:
    """The monodromy matrix M = exp(w_J M(a_J)) ... exp(w_1 M(a_1)) of a
    periodic gate over one period's pieces (a_j, w_j) as its breakpoints
    give them, from one stacked expm: x((k + 1) p) = M x(k p).  A held
    gate has no period: DomainError."""
    alpha = loop.alpha
    if alpha.period is None:
        raise DomainError("a held gate has no period and no monodromy")
    key, _, phis = _keyed_exps(loop.matrix, np.array(alpha.values),
                               np.diff(alpha.breakpoints))
    return _partial_products(phis[key])[-1]


def floquet_rate(loop: ClosedLoop) -> float:
    """The loop's exact asymptotic decay rate, with no samples, horizon or
    fit: -log rho(M) / p for a periodic gate of period p and monodromy M,
    and -max Re lambda(A + hold B K) for a held gate."""
    alpha = loop.alpha
    if alpha.period is None:
        return -float(np.linalg.eigvals(loop.matrix(alpha.hold)).real.max())
    rho = float(np.abs(np.linalg.eigvals(monodromy(loop))).max())
    return -math.log(rho) / alpha.period if rho > 0.0 else math.inf


def _end_rate(loop: ClosedLoop, x0_columns, horizon: float) -> float:
    """_ends_rate of the first and last states of propagate_batch(loop,
    0.0, x0_columns, horizon), or -inf once a sample is not finite, bit
    for bit, read from the same _plan and _chain without filling a sample:
    a periodic gate's chain runs over the sub-pieces, with no power table
    of the sample step, and a held gate's over the grid's tables.  Where
    the piece ends cannot vouch that every sample of the full run is
    finite, the samples are filled as the full run fills them.  Every
    column must be nonzero: a zero state has no rate."""
    x0 = np.ascontiguousarray(_columns(loop, x0_columns))
    if x0.shape[1] == 0:
        raise ShapeError("need at least one initial state")
    if not x0.any(axis=0).all():
        raise DegenerateStateError("a zero initial state has no decay rate")
    levels, cuts, widths, nsub, period = _plan(loop, 0.0, horizon, None)
    steps = nsub.tolist()
    if period is None:
        key, mats, tables = _keyed_tables(loop.matrix, levels, widths, nsub)
        ends = _chain([tables[q][s - 1] for q, s in zip(key, steps)], x0)
    else:
        own, index = _shared_keys(period)
        key, mats, phis = _keyed_exps(loop.matrix, period.levels[own],
                                      period.widths[own])
        sub = np.asarray(key)[index]
        ends = _chain(phis[sub], x0, period.J, period.head,
                      period.periods)[period.last]
        key = sub[period.first]
    starts = np.concatenate((x0[np.newaxis], ends[:-1]))
    # |exp(t M)|_inf <= exp(t |M|_inf): on piece j every power of phi, and
    # every sum of products a fill forms from one, stays below
    # exp(width_j |M_j|_inf) times the largest entry of the start (at
    # least 1), which must stay well below the largest double
    with np.errstate(over="ignore", divide="ignore"):
        growth = np.abs(mats).sum(axis=2).max(axis=1)[key] * widths
        size = np.log(np.abs(starts).max(axis=(1, 2)))
    if not (np.isfinite(ends[-1]).all() and np.all(
            np.maximum(size, 0.0) + growth < _END_LOG_CAP)):
        if period is None:
            parts = _fill(key, steps, tables, starts)
            states = np.concatenate([x[:-1] for x in parts] + [ends])
        else:
            states = _flow(loop.matrix, levels, cuts, widths, nsub, x0,
                           period=period)[1]
        if not np.isfinite(states).all():
            return -math.inf
    return _ends_rate(zip(x0.T, ends[-1].T), horizon)


def _columns(loop: ClosedLoop, x0_columns) -> np.ndarray:
    """x0_columns as a finite float (n, m) array."""
    x0m = np.asarray(x0_columns, dtype=float)
    if x0m.ndim != 2 or x0m.shape[0] != loop.n:
        raise ShapeError(f"x0 columns must form an {loop.n} x m array")
    if not np.all(np.isfinite(x0m)):
        raise ShapeError("x0 has non-finite entries")
    return x0m


def _run(loop: ClosedLoop, t0: float, x0_columns, t1: float,
         max_step: float | None) -> tuple:
    """_flow over the _plan of [t0, t1]."""
    x0m = _columns(loop, x0_columns)
    *pieces, period = _plan(loop, t0, t1, max_step)
    return _flow(loop.matrix, *pieces, x0m, period=period)


def propagate(loop: ClosedLoop, t0: float, x0, t1: float,
              max_step: float | None = None) -> Trajectory:
    """Propagate a single initial state; exact on constant-alpha pieces."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (loop.n,):
        raise ShapeError(f"x0 must have length {loop.n}")
    times, states, seg_alpha = _run(loop, t0, x0.reshape(-1, 1), t1,
                                    max_step)
    return Trajectory(loop, times, states[:, :, 0], seg_alpha)


def propagate_batch(loop: ClosedLoop, t0: float, x0_columns, t1: float,
                    max_step: float | None = None) -> list:
    """Propagate many initial states through the same signal in one sweep.

    Returns one Trajectory per column; they share times and seg_alpha arrays.
    """
    times, states, seg_alpha = _run(loop, t0, x0_columns, t1, max_step)
    return [Trajectory(loop, times, states[:, :, j], seg_alpha)
            for j in range(states.shape[2])]


def _itp(g, lo: float, hi: float, g_lo: float, g_hi: float, n_max: int,
         k1: float, done, width) -> tuple:
    """ITP search (Oliveira & Takahashi, ACM TOMS 47(1), 2020; kappa1 =
    k1 / (hi - lo), kappa2 = 2, bisection's projection radius) on the
    sign-change bracket [lo, hi] of g, with g(lo) = g_lo and g(hi) = g_hi.

    The truncation is floored at 0.45 width(lo), just under half the width
    of a bracket from lo that done accepts.  Once the interpolation sits on the
    root, the truncated point then lands past it and the far end of the
    bracket closes in a step or two; a truncation below rounding level
    would evaluate the same point again and again.

    Returns the bracket once done(lo, hi) holds, no float lies strictly
    inside it, or n_max steps are taken; a zero of g at s returns (s, s).
    g may be -inf where it is negative if g_lo > 0; while g_hi is infinite
    the step bisects.
    """
    span = hi - lo
    for j in range(n_max):
        mid = 0.5 * (lo + hi)
        if done(lo, hi) or not lo < mid < hi:
            break
        # interpolate (regula falsi), truncate toward the midpoint, then
        # project into the ball that keeps bisection's worst case
        s_f = lo + (hi - lo) * g_lo / (g_lo - g_hi) \
            if math.isfinite(g_hi) else mid
        sigma = math.copysign(1.0, mid - s_f)
        delta = max(k1 * (hi - lo) ** 2 / span, 0.45 * width(lo))
        s_t = s_f + sigma * delta if delta <= abs(mid - s_f) else mid
        r = math.ldexp(span, -j) - 0.5 * (hi - lo)
        s = s_t if abs(s_t - mid) <= r else mid - sigma * r
        if not lo < s < hi:
            # once g is at rounding level the interpolation can fall on
            # an end of the bracket, which would not shrink it
            s = mid
        f = g(s)
        if f == 0.0:
            return s, s
        if (f > 0.0) == (g_lo > 0.0):
            lo, g_lo = s, f
        else:
            hi, g_hi = s, f
    return lo, hi


def _two_product(a: float, b: float) -> tuple:
    """(p, e) with p = a b rounded and p + e = a b exactly, by Veltkamp's
    split (Dekker, Numer. Math. 18, 1971), barring over- and underflow."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    t = _SPLIT * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _sum3(triples) -> float:
    """The sum of g a b over the triples (g, a, b), rounded once, apart
    from an error of at most eps^2 times the sum of |g a b|: a b = p + e
    and g p = q + f exactly, so only g e is rounded before math.fsum adds
    the parts."""
    parts = []
    for g, a, b in triples:
        p, e = _two_product(a, b)
        parts += _two_product(g, p)
        parts.append(g * e)
    return math.fsum(parts)


def _first_zero(m: np.ndarray, x: np.ndarray, c: np.ndarray) -> float | None:
    """The least s >= 0 with c . e^{s m} x = 0 for a 2x2 m, or None when the
    flow never meets the line c . y = 0.

    With tau = tr m / 2 and N = m - tau I, N^2 = delta I, so e^{s m} =
    e^{tau s} (C(s) I + S(s) N) (Bernstein & So, IEEE Trans. Autom. Control
    38(8), 1993) and c . e^{s m} x = e^{tau s} (u C(s) + v S(s)), with
    u = c . x and v = c . N x.  For w = -u / v > 0 and w^2 delta < 1 the
    first zero is w h(w^2 delta), h(y) = atan(sqrt(-y)) / sqrt(-y) below 0,
    atanh(sqrt(y)) / sqrt(y) above and 1 at 0, summed as its series
    sum y^k / (2k + 1) for |y| < 1e-3, so no branch divides by a small
    omega or kappa.  A rotating flow (delta = -omega^2 < 0) with w < 0
    crosses past a quarter turn, at (pi - atan(|w| omega)) / omega, and
    with v = 0 at pi / (2 omega); any other flow never crosses.

    u and v are their exact values for the given doubles, rounded once
    (apart from an error of order eps^2 |c| |m| |x|): n_00 = (m_00 - m_11)
    / 2 is carried as the rounded difference plus its exact error, and
    _sum3 splits every product error-free, so a line nearly perpendicular
    to x or to N x loses no digits to cancellation.
    """
    (m00, m01), (m10, m11) = m.tolist()
    (c0, c1), (x0, x1) = c.tolist(), x.tolist()
    d = m00 - m11
    h, hl = 0.5 * d, 0.5 * math.fsum((m00, -m11, -d))
    delta = h * h + m01 * m10
    u = _sum3(((1.0, c0, x0), (1.0, c1, x1)))
    # v = c . N x = n_00 (c0 x0 - c1 x1) + m01 c0 x1 + m10 c1 x0
    v = _sum3(((h, c0, x0), (hl, c0, x0), (-h, c1, x1), (-hl, c1, x1),
               (m01, c0, x1), (m10, c1, x0)))
    if u == 0.0:
        return 0.0
    # v = 0 reads as w = -inf: a quarter turn, or no crossing
    w = -u / v if v else -math.inf
    if w < 0.0:
        if delta >= 0.0:
            return None
        omega = math.sqrt(-delta)
        return (math.pi - math.atan(-w * omega)) / omega
    r = w * math.sqrt(abs(delta))
    y = math.copysign(r * r, delta)
    if y >= 1.0:
        return None
    if abs(y) < 1e-3:
        h = sum(y ** k / (2 * k + 1) for k in range(6))
    else:
        h = (math.atan(r) if y < 0.0 else math.atanh(r)) / r
    return w * h


def crossing_time(m: np.ndarray, x_lo: np.ndarray, t_lo: float, t_hi: float,
                  c) -> float:
    """First time in [t_lo, t_hi] where the planar flow x' = m x, x(t_lo) =
    x_lo, meets the line c . x = 0: t_lo + _first_zero(m, x_lo, c), in
    closed form, with no exponential, search or tolerance.  A zero at t_lo
    is returned as t_lo; when the flow does not meet the line by t_hi (a
    caller's samples can show a sign change that rounding put there), t_hi
    is.  A flow of any other dimension raises ShapeError."""
    m, x_lo = np.asarray(m, dtype=float), np.asarray(x_lo, dtype=float)
    if m.shape != (2, 2) or x_lo.shape != (2,):
        raise ShapeError(f"crossing_time needs a planar flow, got m of shape "
                         f"{m.shape} and x_lo of shape {x_lo.shape}")
    s = _first_zero(m, x_lo, np.asarray(c, dtype=float))
    return t_hi if s is None else min(t_hi, t_lo + s)


def polar_lift(traj: Trajectory) -> Trajectory:
    """Attach r and continuously-unwrapped theta channels (planar only).

    theta starts in (-pi, pi] and continues by nearest branch: each step
    adds the whole turns round(-diff(arctan2)/2pi), summed cumulatively.  A
    step of length h on level a swings the angle by at most ||M(a)||_2 h;
    when that bound reaches pi/2 for any level, DegenerateStateError is
    raised instead of an unwrap that may alias.  Below it every wrapped
    difference lies within a quarter turn of a whole number, so the summed
    turns are those of a sample-by-sample nearest-branch recursion and
    theta equals its floats exactly.  The lift is _polar's, which unwraps
    every run of a batch that shares the grid in one array pass and takes
    the swing bound once.
    """
    if traj.n != 2:
        raise ShapeError("polar lift requires a planar trajectory")
    r, theta = _polar(traj.loop, traj.times, traj.seg_alpha,
                      traj.states[:, 0], traj.states[:, 1])
    return traj.with_channels(r=r, theta=theta)


def _polar(loop: ClosedLoop, times: np.ndarray, seg_alpha: np.ndarray,
           x1: np.ndarray, x2: np.ndarray) -> tuple:
    """(r, theta) of the planar samples (x1, x2) of runs of loop on the
    grid times, along the last axis, one run per row: polar_lift's lift."""
    steps = np.diff(times)
    for a in np.unique(seg_alpha):
        h = steps[seg_alpha == a].max()
        if np.linalg.norm(loop.matrix(a), 2) * h >= 0.5 * np.pi:
            raise DegenerateStateError(
                f"step {h:g} at alpha={a:g} can swing the angle by pi/2 or "
                "more; propagate with a smaller max_step")
    r = np.hypot(x1, x2)
    if np.any(r < _NORM_FLOOR):
        raise DegenerateStateError("zero state has no direction")
    base = np.arctan2(x2, x1)
    two_pi = 2.0 * np.pi
    turns = np.concatenate(((base[..., :1] == -np.pi).astype(float),
                            np.round(-np.diff(base) / two_pi)), axis=-1)
    theta = base + two_pi * np.cumsum(turns, axis=-1)
    theta[..., 0] = np.where(base[..., 0] != -np.pi, base[..., 0], np.pi)
    # a zero angle keeps the sign the nearest-branch recursion would give it
    later = theta[..., 1:]
    later[(later == 0.0) & np.signbit(base[..., 1:])
          & (theta[..., :-1] < 0.0)] = -0.0
    return r, theta


def fmap_F(theta, k: float):
    """Gain-dependent reparameterization of the angle.

    On [0, pi]: arctan(tan(theta)/k), with value pi/2 at pi/2 and the branch
    on (pi/2, pi] lifted by pi; extended to all angles by F(t + pi) =
    F(t) + pi so it composes with unwrapped angles.
    """
    if k <= 0.0:
        raise DomainError("reparameterization gain must be positive")
    th = np.asarray(theta, dtype=float)
    scalar = th.ndim == 0
    th = np.atleast_1d(th)
    m = np.floor(th / np.pi)
    phi = th - m * np.pi  # in [0, pi)
    half = 0.5 * np.pi
    with np.errstate(divide="ignore"):
        out = np.arctan(np.tan(phi) / k)
    out = np.where(phi > half, out + np.pi, out)
    out = np.where(phi == half, half, out)
    out = out + m * np.pi
    return float(out[0]) if scalar else out
