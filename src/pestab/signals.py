"""Piecewise-constant excitation signals and the (T, mu) persistence class.

A signal is a measurable alpha: [0, inf) -> [0, 1]; here it is piecewise
constant, which keeps integrals and window scans exact and covers every
construction this package needs (duty cycles, state-induced switching).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConstructionError, DomainError

__all__ = [
    "PeClass",
    "PwcSignal",
    "PeReport",
    "integrate_signal",
    "verify_pe",
    "make_duty",
    "shift",
    "rescale_time",
    "make_battery",
]

_PE_SLACK = 1e-12


@dataclass(frozen=True)
class PeClass:
    """Window length T and excitation floor mu, finite, with 0 < mu <= T."""

    T: float
    mu: float

    def __post_init__(self):
        for name in ("T", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(
                    f"{name} must be finite, got {getattr(self, name)!r}")
        if not (0.0 < self.mu <= self.T):
            raise DomainError(f"need 0 < mu <= T, got T={self.T}, mu={self.mu}")

    @property
    def ratio(self) -> float:
        return self.mu / self.T


@dataclass(frozen=True)
class PwcSignal:
    """alpha(t) = values[i] on [breakpoints[i], breakpoints[i+1]).

    breakpoints[0] == 0 and the sequence is strictly increasing.  Beyond the
    final breakpoint the signal either repeats with period == final
    breakpoint, or holds the constant `hold`.
    """

    breakpoints: tuple
    values: tuple
    period: float | None = None
    hold: float | None = None

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if not bp or bp[0] != 0.0:
            raise DomainError("breakpoints must start at 0")
        if not all(math.isfinite(b) for b in bp):
            raise DomainError("breakpoints must be finite")
        if any(b1 >= b2 for b1, b2 in zip(bp, bp[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        if len(vals) != len(bp) - 1:
            raise DomainError("need one value per segment between breakpoints")
        if any(not (0.0 <= v <= 1.0) for v in vals):
            raise DomainError("signal values must lie in [0, 1]")
        if (self.period is None) == (self.hold is None):
            raise DomainError("exactly one of period/hold must be set")
        if self.period is not None:
            if len(bp) < 2 or self.period != bp[-1]:
                raise DomainError("period must equal the final breakpoint")
        else:
            h = float(self.hold)
            if not (0.0 <= h <= 1.0):
                raise DomainError("hold value must lie in [0, 1]")
            object.__setattr__(self, "hold", h)
        # cumulative integral over the explicit part, at each breakpoint
        cum = [0.0]
        for v, b1, b2 in zip(vals, bp, bp[1:]):
            cum.append(cum[-1] + v * (b2 - b1))
        object.__setattr__(self, "_cum", tuple(cum))
        # _table[bisect_right(breakpoints, tau)] is the value at tau; the
        # ends cover a folded tau that rounds below 0 (the last piece) or
        # to the period (the first), and the hold
        ends = (vals[-1:], vals[:1]) if self.period is not None else \
            ((self.hold,), (self.hold,))
        object.__setattr__(self, "_table", ends[0] + vals + ends[1])

    # -- constructors -------------------------------------------------------

    @staticmethod
    def periodic(breakpoints, values) -> "PwcSignal":
        bp = tuple(float(b) for b in breakpoints)
        return PwcSignal(bp, tuple(values), period=bp[-1])

    @staticmethod
    def held(breakpoints, values, hold=None) -> "PwcSignal":
        vals = tuple(values)
        if hold is None:
            if not vals:
                raise DomainError("hold value required when there are no segments")
            hold = vals[-1]
        return PwcSignal(tuple(breakpoints), vals, hold=float(hold))

    @staticmethod
    def constant(value: float) -> "PwcSignal":
        return PwcSignal((0.0,), (), hold=float(value))

    # -- evaluation ---------------------------------------------------------

    def value_at(self, t: float) -> float:
        if t < 0.0:
            raise DomainError("signals are defined on [0, inf)")
        if self.period is not None:
            t = t - math.floor(t / self.period) * self.period
        return self._table[bisect_right(self.breakpoints, t)]

    def integral_from_zero(self, t: float) -> float:
        """Exact integral of alpha over [0, t]."""
        if t < 0.0:
            raise DomainError("signals are defined on [0, inf)")
        bp, cum = self.breakpoints, self._cum
        if self.period is not None:
            p = self.period
            k = math.floor(t / p)
            tau = t - k * p
            if tau >= p:
                k += 1
                tau = 0.0
            return k * cum[-1] + self._partial(tau)
        if t <= bp[-1]:
            return self._partial(t)
        return cum[-1] + self.hold * (t - bp[-1])

    def _partial(self, tau: float) -> float:
        bp, cum = self.breakpoints, self._cum
        idx = bisect_right(bp, tau) - 1
        if idx >= len(self.values):
            return cum[-1]
        return cum[idx] + self.values[idx] * (tau - bp[idx])

    def segments(self, t0: float, t1: float) -> Iterator[tuple]:
        """Maximal (start, end, value) pieces covering [t0, t1].

        The cuts are the breakpoints j p + b of every cycle j in range, and
        each piece's value is read at its midpoint: cut times regenerated
        from other cycles can land an ulp off a breakpoint, and midpoints
        are immune to that.  The propagation kernel plans a periodic gate's
        runs from the same cuts and midpoints without listing them here.
        """
        if not (0.0 <= t0 < t1):
            raise DomainError("need 0 <= t0 < t1")
        bp, p = self.breakpoints, self.period
        if p is not None and not (t1 - t0) / p < 2.0 ** 63:
            raise DomainError(
                f"[{t0!r}, {t1!r}] spans {(t1 - t0) / p:.3g} periods of the "
                "gate, more than int64 counts")
        # the cycles j with j p < t1; bp[-1] == p is the next cycle's 0
        cycles = [0] if p is None else [
            j for j in range(math.floor(t0 / p), math.floor(t1 / p) + 2)
            if j * p < t1]
        cand = bp if p is None else \
            {j * p + b for j in cycles for b in bp[:-1]}
        cuts = [t0, *sorted(c for c in cand if t0 < c < t1), t1]
        vals = [self.value_at(0.5 * (s + e)) for s, e in zip(cuts, cuts[1:])]
        run_start, run_val = cuts[0], vals[0]
        for s, v in zip(cuts[1:-1], vals[1:]):
            if v != run_val:
                yield (run_start, s, run_val)
                run_start, run_val = s, v
        yield (run_start, t1, run_val)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        ext = {"periodic": self.period} if self.period is not None else {"hold": self.hold}
        return {
            "breakpoints": list(self.breakpoints),
            "values": list(self.values),
            "extension": ext,
        }

    @staticmethod
    def from_json(obj: dict) -> "PwcSignal":
        ext = obj["extension"]
        if "periodic" in ext:
            return PwcSignal(tuple(obj["breakpoints"]), tuple(obj["values"]),
                             period=float(ext["periodic"]))
        return PwcSignal(tuple(obj["breakpoints"]), tuple(obj["values"]),
                         hold=float(ext["hold"]))


class PeReport(NamedTuple):
    ok: bool
    worst_window_start: float
    worst_integral: float


def integrate_signal(alpha: PwcSignal, t0: float, t1: float) -> float:
    """Exact integral of alpha over [t0, t1]."""
    if not (0.0 <= t0 <= t1):
        raise DomainError("need 0 <= t0 <= t1")
    return alpha.integral_from_zero(t1) - alpha.integral_from_zero(t0)


def verify_pe(alpha: PwcSignal, cls: PeClass, horizon: float) -> PeReport:
    """Check inf over window starts of the length-T integral against mu.

    The window integral of a piecewise-constant signal is piecewise linear in
    the start time, so its minimum over an interval is attained where either
    window edge meets a breakpoint; scanning those candidates is exact.
    Periodic signals are scanned over one period (the scan is then valid for
    every t >= 0); hold signals are scanned over [0, horizon - T].  The
    floor is met within _PE_SLACK * max(1, T): window integrals of size up
    to T carry rounding relative to T.
    """
    T = cls.T
    if horizon < T:
        raise DomainError("horizon must be at least the window length T")
    bp = alpha.breakpoints
    if alpha.period is not None:
        p = alpha.period
        cand = set()
        for b in bp:
            cand.add(b % p)
            cand.add((b - T) % p)
        cand.add(0.0)
        starts = sorted(cand)
    else:
        hi = horizon - T
        cand = {0.0, hi}
        for b in bp:
            if 0.0 <= b <= hi:
                cand.add(b)
            if 0.0 <= b - T <= hi:
                cand.add(b - T)
        starts = sorted(cand)
    worst_t, worst = min(
        ((t, integrate_signal(alpha, t, t + T)) for t in starts),
        key=lambda pair: (pair[1], pair[0]),
    )
    return PeReport(worst >= cls.mu - _PE_SLACK * max(1.0, T), worst_t, worst)


def make_duty(cls: PeClass, phase: float = 0.0, on_value: float = 1.0,
              pattern: str = "front", splits: int = 2) -> PwcSignal:
    """Periodic signal of period T whose per-period integral is exactly mu.

    Because the period equals the window length, every length-T window
    integrates to exactly mu, for any pattern and phase; verify_pe is still
    run post-construction.
    """
    if not (0.0 < on_value <= 1.0):
        raise DomainError("on_value must lie in (0, 1]")
    T, mu = cls.T, cls.mu
    on_time = mu / on_value
    if on_time > T * (1.0 + 1e-12):
        raise DomainError(
            f"on-time mu/on_value = {on_time} exceeds the period T = {T}")
    on_time = min(on_time, T)

    if on_time >= T * (1.0 - 1e-15):
        sig = PwcSignal.periodic((0.0, T), (mu / T,))
    elif pattern == "front":
        sig = PwcSignal.periodic((0.0, on_time, T), (on_value, 0.0))
    elif pattern == "back":
        sig = PwcSignal.periodic((0.0, T - on_time, T), (0.0, on_value))
    elif pattern == "split":
        k = int(splits)
        if k < 1:
            raise DomainError("splits must be >= 1")
        block = on_time / k
        step = T / k
        bp, vals = [], []
        for j in range(k):
            bp.extend([j * step, j * step + block])
            vals.extend([on_value, 0.0])
        bp.append(T)
        sig = PwcSignal.periodic(tuple(bp), tuple(vals))
    else:
        raise DomainError(f"unknown duty pattern {pattern!r}")

    if phase:
        sig = shift(sig, phase)
    rep = verify_pe(sig, cls, horizon=2.0 * T)
    if not rep.ok:
        raise ConstructionError(
            f"constructed duty signal misses the excitation floor: {rep}")
    return sig


def shift(alpha: PwcSignal, t0: float) -> PwcSignal:
    """The signal s -> alpha(t0 + s), read off alpha.segments."""
    if t0 < 0.0:
        raise DomainError("shift must be non-negative")
    if t0 == 0.0:
        return alpha
    p = alpha.period
    if p is None:
        end = alpha.breakpoints[-1]
        if t0 >= end:
            return PwcSignal.constant(alpha.hold)
    else:
        t0 -= math.floor(t0 / p) * p
        if t0 == 0.0 or t0 >= p:
            return alpha
        end = t0 + p
    pieces = list(alpha.segments(t0, end))
    bp = [a - t0 for a, _, _ in pieces] + [end - t0 if p is None else p]
    return PwcSignal(tuple(bp), tuple(v for _, _, v in pieces), period=p,
                     hold=alpha.hold)


def rescale_time(alpha: PwcSignal, lam: float) -> PwcSignal:
    """The signal s -> alpha(lam * s); maps class (T, mu) to (T/lam, mu/lam)."""
    if lam <= 0.0:
        raise DomainError("time-rescaling factor must be positive")
    bp = tuple(b / lam for b in alpha.breakpoints)
    if alpha.period is not None:
        return PwcSignal(bp, alpha.values, period=bp[-1])
    return PwcSignal(bp, alpha.values, hold=alpha.hold)


def _duty_floor(cls: PeClass) -> float:
    """The lowest on-level of a random duty: just above the ratio, at most 1."""
    return min(1.0, cls.ratio * (1.0 + 1e-9))


def _random_duty(cls: PeClass, rng) -> dict:
    """make_duty keywords drawn from rng in the order pattern, on-level,
    phase, splits: the on-level is uniform above the class ratio and at
    least _duty_floor, the phase uniform in [0, T), and 2 to 4 splits."""
    pattern = ("front", "back", "split")[rng.integers(0, 3)]
    ratio = cls.ratio
    on_value = ratio + (1.0 - ratio) * rng.random() if ratio < 1.0 else 1.0
    return {"pattern": pattern,
            "on_value": float(max(on_value, _duty_floor(cls))),
            "phase": float(rng.random() * cls.T),
            "splits": int(rng.integers(2, 5))}


class Battery(NamedTuple):
    signals: list
    info: dict


def make_battery(cls: PeClass, size: int, seed: int = 0) -> Battery:
    """Deterministic battery of (T, mu)-signals: constants, duty cycles over
    patterns/phases/levels, multi-level periodic profiles, and a few
    fast-period members.  Every member is verified before being returned.
    """
    if size < 1:
        raise DomainError("battery size must be >= 1")
    rng = np.random.default_rng(seed)
    T, mu, ratio = cls.T, cls.mu, cls.ratio
    front = make_duty(cls, pattern="front")
    sigs: list[PwcSignal] = [
        PwcSignal.constant(1.0),
        PwcSignal.constant(ratio),
        front,
        make_duty(cls, pattern="back"),
    ]
    # make_duty has verified its members against (cls, 2 T) already
    verified = {2, 3}
    while len(sigs) < size:
        kind = rng.integers(0, 4)
        if kind == 0:  # duty with random pattern/phase/level
            verified.add(len(sigs))
            sigs.append(make_duty(cls, **_random_duty(cls, rng)))
        elif kind == 1:  # multi-level periodic profile with integral mu
            m = int(rng.integers(2, 6))
            cuts = np.sort(rng.random(m - 1)) * T
            bp = np.concatenate([[0.0], cuts, [T]])
            if np.any(np.diff(bp) <= 1e-9 * T):
                continue
            dur = np.diff(bp)
            raw = rng.random(m)
            total = float(raw @ dur)
            if total <= 0.0:
                continue
            v = raw * (mu / total)
            if v.max() > 1.0:
                # mix toward the constant-ratio profile; preserves the integral
                excess = v[v > ratio]
                tmix = min(1.0, float(np.min((1.0 - ratio) / (excess - ratio))) * 0.999)
                v = ratio + tmix * (v - ratio)
            sigs.append(PwcSignal.periodic(tuple(bp[:-1]) + (T,), tuple(v)))
        elif kind == 2:  # fast-period duty: j periods per window
            j = int(rng.integers(2, 5))
            sub = PeClass(T / j, mu / j)
            sigs.append(make_duty(sub, phase=float(rng.random() * T / j),
                                  on_value=1.0, pattern="front"))
        else:  # shifted copy of a duty signal
            sigs.append(shift(front, float(rng.random() * 3.0 * T)))
    sigs = sigs[:size]
    for i, s in enumerate(sigs):
        if i in verified:
            continue
        rep = verify_pe(s, cls, horizon=2.0 * T)
        if not rep.ok:
            raise ConstructionError(f"battery member fails verification: {rep}")
    info = {"seed": seed, "size": size, "T": T, "mu": mu,
            "spec": "constants + duty patterns + multilevel + fast-period mix"}
    return Battery(sigs, info)
