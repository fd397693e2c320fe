"""Exact propagation of x' = (A + alpha(t) B K) x for piecewise-constant alpha.

Every maximal interval where the signal is constant is cut into equal steps
of at most max_step, and signal breakpoints are mandatory samples.  One
expm per distinct (alpha, step) gives phi, and a per-call table of its
powers, built by doubling in extended precision, gives all of a segment's
samples in one matrix product: no integration error beyond expm accuracy
and no per-sample Python loop.  crossing_time, the one crossing
root-finder, runs an ITP bracketing search whose every evaluation is on
exponential dense output, never on interpolated samples.
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
# ClosedLoop.matrix caches A + a BK per level; a signal with many distinct
# levels would otherwise grow the cache without bound.
_MATS_CAP = 256
# rows formatted at a time by Trajectory.to_csv
_CSV_BLOCK = 512


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
        self._mats: dict = {}

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def matrix(self, a: float) -> np.ndarray:
        m = self._mats.get(a)
        if m is None:
            if len(self._mats) >= _MATS_CAP:
                self._mats.clear()
            m = self.A + a * self._bk
            self._mats[a] = m
        return m

    def norm_scale(self) -> float:
        return max(one_norm(self.A) + one_norm(self._bk), 1e-9)

    def default_max_step(self) -> float:
        # 1e-2 of the characteristic time; also keeps per-step angle swings
        # far below the pi/2 that polar_lift refuses.
        return 1e-2 / self.norm_scale()


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
        return np.linalg.norm(self.states, axis=1)

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


def _segment(powers: dict, a: float, m: np.ndarray, x: np.ndarray,
             s: float, e: float, h: float, nsub: int):
    """Samples of the constant flow x' = m x over [s, e] in nsub steps of h.

    powers[(a, h)] holds the table [phi, phi^2, ...] for phi = exp(h m),
    grown by doubling when a segment needs more steps than it has.  The
    doubling runs in extended precision, so each power carries one float64
    rounding instead of the rounding of every squaring before it.  Returns
    the sample times (the last one exactly e) and the states
    phi^1 x ... phi^nsub x, stacked along a new leading axis.
    """
    if (a, h) not in powers:
        powers[(a, h)] = expm(m, h).astype(np.longdouble)[np.newaxis], None
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


def _propagate_states(loop: ClosedLoop, t0: float, x0: np.ndarray, t1: float,
                      max_step: float | None):
    """Shared driver; x0 has shape (n, m) and states come back (N, n, m)."""
    if not (0.0 <= t0 < t1):
        raise DomainError("need 0 <= t0 < t1")
    if max_step is None:
        max_step = loop.default_max_step()
    if max_step <= 0.0:
        raise DomainError("max_step must be positive")
    times = [np.array([t0])]
    states = [x0[np.newaxis]]
    levels, counts = [], []
    powers: dict = {}
    x = x0
    for (s, e, a) in loop.alpha.segments(t0, t1):
        seg_len = e - s
        nsub = max(1, int(math.ceil(seg_len / max_step - 1e-12)))
        ts, xs = _segment(powers, a, loop.matrix(a), x, s, e, seg_len / nsub,
                          nsub)
        x = xs[-1]
        times.append(ts)
        states.append(xs)
        levels.append(a)
        counts.append(nsub)
    return (np.concatenate(times), np.concatenate(states),
            np.repeat(levels, counts))


def propagate(loop: ClosedLoop, t0: float, x0, t1: float,
              max_step: float | None = None) -> Trajectory:
    """Propagate a single initial state; exact on constant-alpha pieces."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (loop.n,):
        raise ShapeError(f"x0 must have length {loop.n}")
    if not np.all(np.isfinite(x0)):
        raise ShapeError("x0 has non-finite entries")
    times, states, seg_alpha = _propagate_states(
        loop, t0, x0.reshape(-1, 1), t1, max_step)
    return Trajectory(loop, times, states[:, :, 0], seg_alpha)


def propagate_batch(loop: ClosedLoop, t0: float, x0_columns, t1: float,
                    max_step: float | None = None) -> list:
    """Propagate many initial states through the same signal in one sweep.

    Returns one Trajectory per column; they share times and seg_alpha arrays.
    """
    x0m = np.asarray(x0_columns, dtype=float)
    if x0m.ndim != 2 or x0m.shape[0] != loop.n:
        raise ShapeError(f"x0 columns must form an {loop.n} x m array")
    if not np.all(np.isfinite(x0m)):
        raise ShapeError("x0 has non-finite entries")
    times, states, seg_alpha = _propagate_states(loop, t0, x0m, t1, max_step)
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
