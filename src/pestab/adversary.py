"""Destabilizing state feedback for the double integrator, adversarial
signal search, and the gain-scale search that it hardens.

The feedback gates the loop at full strength where excitation hurts and at
the class floor where it would help; for a small enough floor the resulting
trajectory grows by a fixed factor every revolution, and the induced gate is
itself an admissible excitation signal.  The crossings of one revolution
are searched; by homogeneity the later revolutions replay it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateStateError, DomainError,
                     InternalConsistencyError, ShapeError, SimulationError)
from .certify import unit_circle_grid
from .gains import A_DI, B_DI, di_gain
from .matkit import as_matrix, expm
from .signals import (PeClass, PwcSignal, _duty_floor, _random_duty,
                      make_duty, verify_pe)
from .simcore import (ClosedLoop, Trajectory, _end_rate, _flow, _itp,
                      crossing_time)

__all__ = [
    "QPartition",
    "run_destabilizer",
    "find_nu",
    "worst_case_search",
    "tune",
    "DestabilizerRun",
]

_MIN_DWELL = 1e-12
# march steps _phase_crossing takes before it gives up on a crossing
_MAX_MARCH_STEPS = 4000
# duty phases per pattern in tune_adversarial's starting battery
_TUNE_PHASES = 8
# tune: runs last this many windows; k and lam double up to the cap
_TUNE_HORIZON_PERIODS = 12.0
_TUNE_CAP = 2.0 ** 16


@dataclass(frozen=True)
class QPartition:
    """The four half-open sectors cut by the horizontal axis and the line
    where the gated and ungated vector fields are collinear."""

    k1: float
    k2: float

    def __post_init__(self):
        if self.k1 <= 0.0 or self.k2 <= 0.0:
            raise DomainError("both gain entries must be positive")

    def region(self, x) -> int:
        x1, x2 = float(x[0]), float(x[1])
        if x1 == 0.0 and x2 == 0.0:
            raise DegenerateStateError("the origin belongs to no sector")
        s = x2 + (self.k1 / self.k2) * x1
        if s >= 0.0 and x2 > 0.0:
            return 1
        if s > 0.0 and x2 <= 0.0:
            return 2
        if s <= 0.0 and x2 < 0.0:
            return 3
        return 4


def _phase_crossing(m: np.ndarray, x0: np.ndarray, fn, dt: float,
                    phi: np.ndarray | None = None):
    """March a constant planar flow in steps of dt until fn(x) changes sign,
    then locate the crossing with crossing_time.

    phi is the step's expm(m, dt); a caller that marches the same flow
    many times computes it once.  Returns (t_cross, x_cross), or None when
    no crossing appears within _MAX_MARCH_STEPS (the flow converges to an
    eigendirection instead).  The march stops at the first marched state
    that is not finite and returns it with its time."""
    f_prev = fn(x0)
    t_prev, x_prev = 0.0, x0
    if phi is None:
        phi = expm(m, dt)
    for i in range(1, _MAX_MARCH_STEPS + 1):
        t = i * dt
        x = phi @ x_prev
        # two scalar tests cost a tenth of np.isfinite(x).all() per step
        if not (math.isfinite(x[0]) and math.isfinite(x[1])):
            return t, x
        f = fn(x)
        if f == 0.0 or (f > 0.0) != (f_prev > 0.0):
            tc = crossing_time(m, x_prev, t_prev, t, fn)
            return tc, expm(m, tc - t_prev) @ x_prev
        t_prev, x_prev, f_prev = t, x, f
    return None


def _rotation_step(m: np.ndarray) -> float:
    """Step small enough to never skip a sector while a constant flow turns."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = 0.25 * tr * tr - det
    if disc < 0.0:
        omega = math.sqrt(-disc)
        return (math.pi / omega) / 32.0
    scale = max(abs(m).max(), 1e-12)
    return 0.05 / scale


@dataclass(eq=False)
class DestabilizerRun:
    traj: Trajectory
    induced_signal: PwcSignal
    growth_per_rev: float
    factors: list
    pe_ok: bool
    crossings: list

    def to_json(self) -> dict:
        return {
            "growth_per_rev": self.growth_per_rev,
            "revolution_factors": [float(f) for f in self.factors],
            "pe_ok": bool(self.pe_ok),
            "induced_signal": self.induced_signal.to_json(),
        }


def _unpack_gain(K) -> tuple:
    arr = np.asarray(K, dtype=float).reshape(-1)
    if arr.size != 2:
        raise DomainError("gain must have exactly two entries")
    if not np.isfinite(arr).all():
        raise DomainError(f"gain K must be finite, got {arr.tolist()}")
    k1, k2 = -arr[0], -arr[1]
    if k1 <= 0.0 or k2 <= 0.0:
        raise DomainError("A+bK is not Hurwitz: gain entries must make "
                          "k1, k2 positive")
    return k1, k2


def run_destabilizer(K, cls: PeClass, x0=(-1.0, 0.0),
                     revolutions: int = 10) -> DestabilizerRun:
    """Simulate the sector feedback loop exactly, sector by sector.

    Inside a sector the dynamics is one constant matrix, so propagation is
    pure matrix exponentials, and crossing_time locates each sector
    crossing on their dense output; committing to the entered sector until
    the next crossing (minimum dwell 1e-12) rules out chattering artifacts.

    Crossings are searched through the first revolution from the negative
    axis; by homogeneity each later one repeats its switch times and is
    replayed, phase j through its flow expm(m_j, tc_j).  A state whose norm
    overflows raises SimulationError naming its revolution.
    """
    if revolutions < 1:
        raise DomainError("need at least one revolution")
    k1, k2 = _unpack_gain(K)
    ratio = cls.ratio
    part = QPartition(k1, k2)
    Kmat = np.array([[-k1, -k2]])
    bk = B_DI @ Kmat
    mats = {1.0: A_DI + bk, ratio: A_DI + ratio * bk}
    # every phase on a level marches the same step
    steps = {a: _rotation_step(m) for a, m in mats.items()}
    phis = {a: expm(mats[a], dt) for a, dt in steps.items()}

    x = np.asarray(x0, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError(f"x0 must be finite, got {x0!r}")
    if not x.any():
        raise DegenerateStateError("cannot start at the origin")
    region = part.region(x)
    # (level, duration, steps, end state, sector left) of each phase
    phases = []
    on_neg_axis = x[1] == 0.0 and x[0] < 0.0
    rev_norms = [math.hypot(*x)] if on_neg_axis else []

    def axis_fn(y):
        return float(y[1])

    def dline_fn(y):
        return float(y[1] + (k1 / k2) * y[0])

    with np.errstate(over="ignore", invalid="ignore"):
        # search the crossings up to the end of the first revolution that
        # starts on the negative axis
        while len(rev_norms) < 2:
            a = 1.0 if region in (2, 4) else ratio
            fn = dline_fn if region in (2, 4) else axis_fn
            dt = steps[a]
            res = _phase_crossing(mats[a], x, fn, dt, phis[a])
            if res is None:
                raise SimulationError(
                    "trajectory converges to an eigendirection and stops "
                    "revolving; the sector feedback cannot destabilize here")
            tc, x = res
            if not np.isfinite(x).all():
                # rev_norms holds one norm per negative-axis arrival
                raise SimulationError("the state overflows in revolution "
                                      f"{len(rev_norms)}")
            if tc < _MIN_DWELL:
                raise InternalConsistencyError(
                    "two sector crossings within 1e-12: chattering detected")
            # in-phase samples, re-marched on an exact uniform sub-grid below
            phases.append((a, tc, max(1, int(math.ceil(tc / dt))), x,
                           region))
            # committed sector cycle: 4 -> 1 -> 2 -> 3 -> 4 ...
            region = region % 4 + 1
            if region == 4:
                # back on the negative axis: one full revolution
                rev_norms.append(math.hypot(*x))
        rev = phases[-4:]
        flows = [expm(mats[a], tc) for a, tc, *_ in rev]
        for _ in range(2, revolutions + 1):
            for (a, tc, n, _, r), flow in zip(rev, flows):
                x = flow @ x
                phases.append((a, tc, n, x, r))
            rev_norms.append(math.hypot(*x))
        vals, widths, counts, ends, regions = zip(*phases)
        bp = np.concatenate(([0.0], np.cumsum(widths)))
        times, states, seg_alpha = _flow(
            mats.__getitem__, np.array(vals), bp, np.array(widths),
            np.array(counts), np.asarray(x0, dtype=float)[:, np.newaxis],
            np.array(ends)[:, :, np.newaxis])
        bad = ~np.isfinite(np.hypot(*states[:, :, 0].T))
    if bad.any():
        # the phase of the first sample whose norm overflows
        p = np.searchsorted(np.cumsum(counts), bad.argmax())
        raise SimulationError("the state overflows in revolution "
                              f"{on_neg_axis + regions[:p].count(3)}")
    induced = PwcSignal.held(tuple(bp.tolist()), vals, hold=vals[-1])
    horizon = bp[-1]
    pe_ok = (verify_pe(induced, cls, horizon).ok
             if horizon >= cls.T else False)
    factors = [b / a for a, b in zip(rev_norms, rev_norms[1:])]
    growth = factors[-1] if factors else math.nan
    crossings = [{"t": t, "region_from": r}
                 for t, r in zip(bp[1:].tolist(), regions)]
    loop = ClosedLoop(A_DI, B_DI, Kmat, induced)
    traj = Trajectory(loop, times, states[:, :, 0], seg_alpha)
    return DestabilizerRun(traj, induced, growth, factors, pe_ok, crossings)


def find_nu(K, tol: float = 1e-10) -> float:
    """Largest constant gate level for which the post-collinearity sweep
    still lands beyond the starting abscissa.

    The full-strength flow from (-1, 0) is followed to its first meeting
    with the collinearity line; from there the constant-nu flow crosses the
    horizontal axis at some abscissa xi(nu), which grows without bound as nu
    shrinks and shrinks as nu grows.  Classes with ratio at most the
    returned value are destabilized by the sector feedback.

    xi behaves like C / sqrt(nu): an interpolating search on xi over nu
    falls back to bisection, but log xi is nearly linear in log nu.  So
    simcore._itp runs on g(u) = log xi(e^u) over [log 1e-12, 0], in 9-14
    evaluations for moderate gains where bisection took 36.  It stops when
    e^u_hi - e^u_lo <= tol (finite, positive, absolute in nu) or no float
    lies between u_lo and u_hi, and returns e^u_lo, a level xi was
    evaluated at: xi(nu) > 1 >= xi(nu + tol).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol!r}")
    k1, k2 = _unpack_gain(K)
    Kmat = np.array([[-k1, -k2]])
    bk = B_DI @ Kmat
    m1 = A_DI + bk
    x_start = np.array([-1.0, 0.0])

    def dline_fn(y):
        return float(y[1] + (k1 / k2) * y[0])

    res = _phase_crossing(m1, x_start, dline_fn, _rotation_step(m1))
    if res is None:
        raise SimulationError("full-strength flow never meets the "
                              "collinearity line")
    _, x_bar = res

    def g(u: float) -> float:
        m = A_DI + math.exp(u) * bk
        res = _phase_crossing(m, x_bar, lambda y: float(y[1]),
                              _rotation_step(m))
        # no crossing (the flow converges to an eigendirection above the
        # axis) is certainly not landing beyond the unit abscissa, and
        # xi = 1 belongs to the upper end of the bracket: both read -inf
        xi = 0.0 if res is None else float(res[1][0])
        return math.log(xi) if xi > 0.0 and xi != 1.0 else -math.inf

    lo, hi = math.log(1e-12), 0.0
    g_lo = g(lo)
    if g_lo <= 0.0:
        raise InternalConsistencyError(
            "no destabilizing gate level found down to 1e-12; this should "
            "not happen for positive gain entries")
    g_hi = g(hi)
    if g_hi > 0.0:
        return 1.0
    # a bracket no wider than tol in u is no wider than tol in nu <= 1
    n_bis = math.ceil(math.log2(hi - lo) - math.log2(tol))
    # kappa1 = 0.2 / (hi - lo): crossing_time's 0.02 took up to 18
    # evaluations of xi at 1e-10 here; the stop accepts brackets up to
    # hi - lo = log1p(tol e^-lo) wide, the width that floors the truncation
    lo, _ = _itp(g, lo, hi, g_lo, g_hi, n_bis + 1, 0.2,
                 lambda lo, hi: math.exp(hi) - math.exp(lo) <= tol,
                 lambda lo: math.log1p(tol * math.exp(-lo)))
    return math.exp(lo)


def tune(cls: PeClass, rho: float, battery, x0_columns) -> dict:
    """Doubling search for gain parameters that contract every battery run.

    Outer loop doubles k from 1, inner loop doubles lam starting at
    max(1, k), both up to 2^16; the first passing pair is returned with a 2x
    safety margin.  A pair passes when the lam-scaled gain at the target
    class gives every battery member a positive simcore._end_rate on runs
    of 12 windows: every run is finite and ends below its start.  Every
    column of x0_columns must be a nonzero state, and an empty battery is
    refused: no gain would be tested.
    """
    if not battery:
        raise DomainError("the battery is empty: no gain can be tested")
    horizon = _TUNE_HORIZON_PERIODS * cls.T
    trace = []
    k = 1.0
    while k <= _TUNE_CAP:
        lam = max(1.0, k)
        while lam <= _TUNE_CAP:
            K = di_gain(cls, rho, k, lam).K
            ok = all(_end_rate(ClosedLoop(A_DI, B_DI, K, sig), x0_columns,
                               horizon) > 0.0 for sig in battery)
            trace.append({"k": k, "lam": lam, "pass": ok})
            if ok:
                return {"k_star_hat": 2.0 * k, "lambda_star_hat": 2.0 * lam,
                        "first_pass": {"k": k, "lam": lam},
                        "trace": trace}
            lam *= 2.0
        k *= 2.0
    raise SimulationError(
        f"tuning search exhausted the cap {_TUNE_CAP}; trace: {trace}")


def tune_adversarial(cls: PeClass, rho: float, seed: int = 0,
                     budget: int = 24) -> dict:
    """Gain-scale search hardened by the adversarial signal search.

    The doubling search runs over a duty battery covering all phases; the
    winner is then stressed with the worst signal the search can find, and
    if that signal breaks it, it joins the battery and the search repeats.
    """
    battery = [make_duty(cls, phase=j * cls.T / _TUNE_PHASES, on_value=1.0,
                         pattern=p)
               for j in range(_TUNE_PHASES) for p in ("front", "back")]
    battery.append(make_duty(cls, pattern="split", splits=3))
    battery.append(PwcSignal.constant(cls.ratio))
    spec = f"duty at {_TUNE_PHASES} phases + split + constant ratio"
    x0s = unit_circle_grid(4)
    horizon = _TUNE_HORIZON_PERIODS * cls.T

    for _ in range(3):
        result = tune(cls, rho, battery, x0s)
        result["battery"] = {"seed": seed, "size": len(battery), "spec": spec}
        K = di_gain(cls, rho, result["k_star_hat"],
                    result["lambda_star_hat"]).K
        sig, rep = worst_case_search(A_DI, B_DI, K, cls, list(x0s.T), budget,
                                     horizon, seed)
        if rep["decay"] > 0.0:
            result["worst_case"] = rep
            return result
        battery.append(sig)
    raise SimulationError(
        "adversarial search kept defeating the tuned gain after 3 rounds")


def worst_case_search(A, B, K, cls: PeClass, x0_list, budget: int,
                      horizon: float, seed: int = 0):
    """Search duty-cycle space for the signal with the slowest fitted decay.

    Random candidates over (pattern, on-level, phase, splits) followed by
    coordinate refinement around the best; deterministic under the seed, and
    every candidate is verified to belong to the class.  A candidate's
    decay is simcore._end_rate over the nonzero states x0_list, read from
    each run's end state.  budget is an int >= 1.  Returns (signal,
    report) with the measured decay of the winner.
    """
    if (isinstance(budget, bool) or not isinstance(budget, (int, np.integer))
            or budget < 1):
        raise DomainError(f"budget must be an int >= 1, got {budget!r}")
    if len(x0_list) == 0:
        raise ShapeError("need at least one initial state")
    A = as_matrix(A, square=True)
    B = as_matrix(B)
    K = as_matrix(K)
    rng = np.random.default_rng(seed)
    T, floor = cls.T, _duty_floor(cls)
    x0_columns = np.column_stack(x0_list)

    def rate_of(params: dict) -> tuple:
        sig = make_duty(cls, **params)
        return _end_rate(ClosedLoop(A, B, K, sig), x0_columns, horizon), sig

    best = {"pattern": "front", "on_value": 1.0, "phase": 0.0, "splits": 2}
    best_rate, best_sig = rate_of(best)
    n_random = max(0, int(0.7 * (budget - 1)))
    for _ in range(n_random):
        params = _random_duty(cls, rng)
        rate, sig = rate_of(params)
        if rate < best_rate:
            best_rate, best, best_sig = rate, params, sig
    # coordinate refinement on phase and on-level
    remaining = budget - 1 - n_random
    step_phase, step_on = T / 8.0, 0.1
    while remaining > 0:
        improved = False
        base = best
        for change in ({"phase": (base["phase"] + step_phase) % T},
                       {"phase": (base["phase"] - step_phase) % T},
                       {"on_value": min(1.0, base["on_value"] + step_on)},
                       {"on_value": max(floor, base["on_value"] - step_on)}):
            if remaining <= 0:
                break
            cand = dict(base, **change)
            rate, sig = rate_of(cand)
            remaining -= 1
            if rate < best_rate:
                best_rate, best, best_sig = rate, cand, sig
                improved = True
        if not improved:
            step_phase *= 0.5
            step_on *= 0.5
            if step_phase < T / 256.0:
                break
    return best_sig, {
        "decay": best_rate, "params": best,
        "seed": seed, "budget": budget, "evaluations": budget - remaining,
        "pe_ok": verify_pe(best_sig, cls, horizon=2.0 * T).ok,
    }
