"""Exact propagation of x' = (A + alpha(t) B K) x for piecewise-constant alpha.

Every maximal interval where the signal is constant is a piece, cut into
equal steps of at most max_step, and signal breakpoints are mandatory
samples.  The one kernel, _flow, lists a propagation's pieces first and
then works on arrays: one stacked expm gives phi for every distinct
(alpha, step), their power tables are built together by doubling in
extended precision, one small product per piece chains the piece-end
states, and one matrix product fills the samples of all pieces with equal
(alpha, step, count), ending each piece at its chained state.  So there
is no integration error beyond expm accuracy and no per-sample Python
loop.  A caller that reads only the end rate takes the endpoint path,
_end_rate: the same tables and chain, so the same end state bit for bit,
and no fill; where the chain cannot rule out a sample overflowing inside
a piece, it fills the samples from those tables as the full run does.
crossing_time, the one crossing root-finder, runs an ITP
bracketing search whose every evaluation is on exponential dense output,
never on interpolated samples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateStateError, DomainError, ShapeError)
from .matkit import as_matrix, expm, one_norm
from .signals import PwcSignal

__all__ = [
    "ClosedLoop",
    "Trajectory",
    "propagate",
    "propagate_batch",
    "crossing_time",
    "polar_lift",
    "fmap_F",
]

_CROSSING_REL_TOL = 1e-12
# rows formatted at a time by Trajectory.to_csv
_CSV_BLOCK = 512
# _end_rate vouches without a fill for runs whose samples all stay below
# e^700; the largest double is about e^709.78
_END_LOG_CAP = 700.0


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of x.  np.linalg.norm's squares underflow
    below about 1e-154, so a nonzero row can read 0; rows that read below
    1e-150 are measured again divided by their largest entry (a zero row
    by the least subnormal), and every other row keeps its bits."""
    nrm = np.linalg.norm(x, axis=1)
    tiny = np.flatnonzero(nrm < 1e-150)
    if tiny.size:
        scale = np.maximum(np.abs(x[tiny]).max(axis=1), 5e-324)
        nrm[tiny] = scale * np.linalg.norm(x[tiny] / scale[:, np.newaxis],
                                           axis=1)
    return nrm


def _ends_rate(pairs, horizon: float) -> float:
    """The rate rule: slowest decay -log(|x1| / |x0|) / horizon over the
    (x0, x1) pairs of finite start and end states, or -inf once a norm
    overflows; a run that ends at zero decays at rate +inf."""
    worst = math.inf
    for x0, x1 in pairs:
        with np.errstate(over="ignore"):
            nrm = _row_norms(np.array([x0, x1]))
        if not np.isfinite(nrm).all():
            return -math.inf
        if nrm[1] > 0.0:
            worst = min(worst, -math.log(nrm[1] / nrm[0]) / horizon)
    return worst


def _fitted_rate(runs, horizon: float) -> float:
    """_ends_rate of the runs' first and last states, or -inf once a run
    has a non-finite state."""
    if not all(np.isfinite(tr.states).all() for tr in runs):
        return -math.inf
    return _ends_rate(((tr.states[0], tr.states[-1]) for tr in runs),
                      horizon)


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
        return self.with_channels(V=0.5 * np.sum(self.states ** 2, axis=1))

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
        # sample j reads seg_alpha[j]; the last sample repeats the last value
        last = len(self.seg_alpha) - 1
        alpha = self.seg_alpha[np.minimum(np.arange(N), last)]
        columns = [self.times, *self.states.T, alpha] + \
            [self.channels.get(name) for name in names]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            # whole columns are formatted a block of rows at a time, which
            # bounds the string lists held at once
            for b in range(0, N, _CSV_BLOCK):
                cells = [itertools.repeat("") if c is None else
                         map(repr, np.asarray(c[b:b + _CSV_BLOCK],
                                              dtype=float).tolist())
                         for c in columns]
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


def _keyed_tables(matrix, levels: np.ndarray, widths: np.ndarray,
                  nsub: np.ndarray) -> tuple:
    """(key, mats, tables) of the pieces of levels[j] held over widths[j]
    in nsub[j] steps: key[j] indexes piece j's distinct (a, h), mats[q] is
    key q's matrix(a), and tables[q] its powers [phi, ..., phi^longest]
    of phi = exp(h matrix(a)), all from one stacked expm."""
    keys: dict = {}
    key = [keys.setdefault(ah, len(keys))
           for ah in zip(levels.tolist(), (widths / nsub).tolist())]
    need = [0] * len(keys)
    for q, s in zip(key, nsub.tolist()):
        need[q] = max(need[q], s)
    mats = np.array([matrix(a) for a, _ in keys])
    phis = expm(mats * np.array([kh for _, kh in keys])[:, np.newaxis,
                                                         np.newaxis])
    return key, mats, _power_tables(phis, need)


def _chain(key: list, steps: list, tables: list, x0: np.ndarray) -> np.ndarray:
    """Piece-end states (k, n, m) of the pieces that each map their start
    x, x0 for the first and the previous end after it, to
    tables[key[j]][steps[j] - 1] @ x."""
    ends = np.empty((len(key),) + x0.shape)
    x = x0
    for j, (q, s) in enumerate(zip(key, steps)):
        x = ends[j] = tables[q][s - 1] @ x
    return ends


def _fill(key: list, steps: list, tables: list, x0: np.ndarray,
          ends: np.ndarray) -> np.ndarray:
    """States (N, n, m), N = 1 + sum(steps), of the pieces that start at x0
    and at ends[:-1]: sample i of piece j is tables[key[j]][i] @ its start,
    pieces of equal (key, steps) are filled by one matrix product, and each
    piece's last sample is its end state ends[j]."""
    starts = np.concatenate((x0[np.newaxis], ends[:-1]))
    groups: dict = {}
    for j, qs in enumerate(zip(key, steps)):
        groups.setdefault(qs, []).append(j)
    parts = [x0[np.newaxis]] + [None] * len(key)
    n = x0.shape[0]
    for (q, s), js in groups.items():
        xs = np.matmul(tables[q][:s].reshape(-1, n), starts[js])
        for j, x in zip(js, xs.reshape((len(js), s) + x0.shape)):
            parts[j + 1] = x
    states = np.concatenate(parts)
    states[np.cumsum(steps)] = ends
    return states


def _flow(matrix, levels: np.ndarray, cuts: np.ndarray, widths: np.ndarray,
          nsub: np.ndarray, x0: np.ndarray, ends: np.ndarray | None = None):
    """Samples of x' = matrix(a) x over consecutive constant pieces.

    Piece j holds level levels[j] from cuts[j] to cuts[j + 1] in nsub[j]
    steps of h = widths[j] / nsub[j]; its sample times are cuts[j] + i h,
    the last one exactly cuts[j + 1].  _keyed_tables gives the powers of
    phi = exp(h matrix(a)) for every distinct (a, h).  x0 (n, m) is the
    state at cuts[0]; the piece-end states ends (k, n, m) are the _chain
    of phi^nsub products unless given, and _fill fills the samples from
    them, so each piece ends at ends[j] and the next starts there.
    Returns times (N,), states (N, n, m) and seg_alpha (N - 1,), with
    N = 1 + sum(nsub).
    """
    steps = nsub.tolist()
    key, _, tables = _keyed_tables(matrix, levels, widths, nsub)
    # the chain and the fill read one memory layout: BLAS can round a
    # product with a transposed operand differently
    x0 = np.ascontiguousarray(x0)
    if ends is None:
        ends = _chain(key, steps, tables, x0)
    states = _fill(key, steps, tables, x0, ends)
    last = np.cumsum(nsub)
    h = widths / nsub
    times = np.empty(len(states))
    times[0] = cuts[0]
    times[1:] = np.repeat(cuts[:-1], nsub) + np.repeat(h, nsub) * (
        np.arange(1, len(times)) - np.repeat(last - nsub, nsub))
    times[last] = cuts[1:]
    return times, states, np.repeat(levels, nsub)


def _pieces(loop: ClosedLoop, t0: float, t1: float,
            max_step: float | None) -> tuple:
    """(levels, cuts, widths, nsub): the constant pieces of loop.alpha on
    [t0, t1], each cut into nsub equal steps of at most max_step."""
    if not (0.0 <= t0 < t1 and math.isfinite(t1)):
        raise DomainError("need 0 <= t0 < t1 with t1 finite")
    if max_step is None:
        max_step = loop.default_max_step()
    if not max_step > 0.0:
        raise DomainError("max_step must be positive")
    s, e, a = np.array(list(loop.alpha.segments(t0, t1))).T
    widths = e - s
    nsub = np.maximum(1, np.ceil(widths / max_step - 1e-12)).astype(int)
    return a, np.append(s, e[-1]), widths, nsub


def _end_rate(loop: ClosedLoop, x0_columns, horizon: float) -> float:
    """_fitted_rate(propagate_batch(loop, 0.0, x0_columns, horizon),
    horizon), bit for bit, read from the piece-end chain without filling a
    sample; where the chain cannot vouch that every sample of the full run
    is finite, the samples are filled from the same tables.  Every column
    must be nonzero: a zero state has no rate."""
    x0 = np.ascontiguousarray(_columns(loop, x0_columns))
    if x0.shape[1] == 0:
        raise ShapeError("need at least one initial state")
    if not x0.any(axis=0).all():
        raise DegenerateStateError("a zero initial state has no decay rate")
    levels, _, widths, nsub = _pieces(loop, 0.0, horizon, None)
    steps = nsub.tolist()
    key, mats, tables = _keyed_tables(loop.matrix, levels, widths, nsub)
    ends = _chain(key, steps, tables, x0)
    # |exp(t M)|_inf <= exp(t |M|_inf): on piece j every power of phi, and
    # every sum of products a fill forms from one, stays below
    # exp(width_j |M_j|_inf) times the largest entry of the start (at
    # least 1), which must stay well below the largest double
    with np.errstate(over="ignore", divide="ignore"):
        growth = np.abs(mats).sum(axis=2).max(axis=1)[key] * widths
        size = np.log(np.abs(np.concatenate(
            (x0[np.newaxis], ends[:-1]))).max(axis=(1, 2)))
    if not (np.isfinite(ends[-1]).all() and np.all(
            np.maximum(size, 0.0) + growth < _END_LOG_CAP)):
        if not np.isfinite(_fill(key, steps, tables, x0, ends)).all():
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


def propagate(loop: ClosedLoop, t0: float, x0, t1: float,
              max_step: float | None = None) -> Trajectory:
    """Propagate a single initial state; exact on constant-alpha pieces."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (loop.n,):
        raise ShapeError(f"x0 must have length {loop.n}")
    x0m = _columns(loop, x0.reshape(-1, 1))
    times, states, seg_alpha = _flow(loop.matrix,
                                     *_pieces(loop, t0, t1, max_step), x0m)
    return Trajectory(loop, times, states[:, :, 0], seg_alpha)


def propagate_batch(loop: ClosedLoop, t0: float, x0_columns, t1: float,
                    max_step: float | None = None) -> list:
    """Propagate many initial states through the same signal in one sweep.

    Returns one Trajectory per column; they share times and seg_alpha arrays.
    """
    x0m = _columns(loop, x0_columns)
    times, states, seg_alpha = _flow(loop.matrix,
                                     *_pieces(loop, t0, t1, max_step), x0m)
    return [Trajectory(loop, times, states[:, :, j], seg_alpha)
            for j in range(x0m.shape[1])]


def _itp(g, lo: float, hi: float, g_lo: float, g_hi: float, n_max: int,
         done) -> tuple:
    """ITP search (Oliveira & Takahashi, ACM TOMS 47(1), 2020; kappa1 =
    0.2 / (hi - lo), kappa2 = 2, bisection's projection radius) on the
    sign-change bracket [lo, hi] of g, with g(lo) = g_lo and g(hi) = g_hi.

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
        delta = 0.2 * (hi - lo) ** 2 / span
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


def crossing_time(m: np.ndarray, x_lo: np.ndarray, t_lo: float, t_hi: float,
                  fn) -> float:
    """Zero of fn(x(t)) on [t_lo, t_hi] for the flow x' = m x, x(t_lo) = x_lo.

    fn is evaluated on the exact dense output expm(m, t - t_lo) @ x_lo and
    must change sign across the interval.  The ITP search _itp shrinks a
    sign-change bracket until it is no wider than _CROSSING_REL_TOL of the
    interval, and the midpoint of that bracket is returned (rounded to a
    float time, which near a large t_lo may be coarser): about 11
    evaluations per root, never more than bisection to the same width plus
    two.  A zero at either end is returned as that end; when the dense
    output at t_hi does not change sign (it disagrees with the caller's
    sample by rounding), t_hi is.
    """
    f_lo = fn(x_lo)
    if f_lo == 0.0:
        return t_lo
    f_hi = fn(expm(m, t_hi - t_lo) @ x_lo)
    if f_hi == 0.0 or (f_hi > 0.0) == (f_lo > 0.0):
        return t_hi
    # the search runs on offsets s = t - t_lo, whose rounding is far finer
    # than the tolerance even when t_lo is large
    span = t_hi - t_lo
    tol = _CROSSING_REL_TOL * span
    # ITP's 2 eps is bisection's final width span / 2**n_bis <= tol, so its
    # n_max = n_bis + 1 steps end below tol even after rounding
    n_bis = math.ceil(-math.log2(_CROSSING_REL_TOL))
    lo, hi = _itp(lambda s: fn(expm(m, s) @ x_lo), 0.0, span, f_lo, f_hi,
                  n_bis + 1, lambda lo, hi: hi - lo <= tol)
    return t_lo + 0.5 * (lo + hi)


def polar_lift(traj: Trajectory) -> Trajectory:
    """Attach r and continuously-unwrapped theta channels (planar only).

    theta starts in (-pi, pi] and continues by nearest branch: each step
    adds the whole turns round(-diff(arctan2)/2pi), summed cumulatively.  A
    step of length h on level a swings the angle by at most ||M(a)||_2 h;
    when that bound reaches pi/2 for any level, DegenerateStateError is
    raised instead of an unwrap that may alias.  Below it every wrapped
    difference lies within a quarter turn of a whole number, so the summed
    turns are those of a sample-by-sample nearest-branch recursion and
    theta equals its floats exactly.
    """
    if traj.n != 2:
        raise ShapeError("polar lift requires a planar trajectory")
    steps = np.diff(traj.times)
    for a in sorted(set(traj.seg_alpha.tolist())):
        h = steps[traj.seg_alpha == a].max()
        if np.linalg.norm(traj.loop.matrix(a), 2) * h >= 0.5 * np.pi:
            raise DegenerateStateError(
                f"step {h:g} at alpha={a:g} can swing the angle by pi/2 or "
                "more; propagate with a smaller max_step")
    x1 = traj.states[:, 0]
    x2 = traj.states[:, 1]
    r = np.hypot(x1, x2)
    if np.any(r < 1e-300):
        raise DegenerateStateError("zero state has no direction")
    base = np.arctan2(x2, x1)
    two_pi = 2.0 * np.pi
    turns = np.concatenate(([float(base[0] == -np.pi)],
                            np.round(-np.diff(base) / two_pi)))
    theta = base + two_pi * np.cumsum(turns)
    theta[0] = base[0] if base[0] != -np.pi else np.pi
    # a zero angle keeps the sign the nearest-branch recursion would give it
    theta[1:][(theta[1:] == 0.0) & np.signbit(base[1:]) & (theta[:-1] < 0.0)] = -0.0
    return traj.with_channels(r=r, theta=theta)


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
