"""Destabilizing state feedback for the double integrator, adversarial
signal search, and the gain-scale search that it hardens.

The feedback gates the loop at full strength where excitation hurts and at
the class floor where it would help; for a small enough floor the resulting
trajectory grows by a fixed factor every revolution, and the induced gate is
itself an admissible excitation signal.  The crossings of one revolution
are searched; by homogeneity the later revolutions replay it.  A run
reports the gate, the state at every switch and the growth of each
revolution, and samples nothing between switches.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, InternalConsistencyError, ShapeError,
                     SimulationError)
from .certify import unit_circle_grid
from .gains import A_DI, B_DI, di_gain
from .matkit import as_matrix, expm
from .signals import (PeClass, PwcSignal, _duty_floor, _random_duty,
                      make_duty, verify_pe)
from .simcore import ClosedLoop, _end_rate, _first_zero, _itp

__all__ = [
    "run_destabilizer",
    "find_nu",
    "worst_case_search",
    "tune",
    "DestabilizerRun",
]

_MIN_DWELL = 1e-12
# duty phases per pattern in tune_adversarial's starting battery
_TUNE_PHASES = 8
# tune: runs last this many windows; k and lam double up to the cap
_TUNE_HORIZON_PERIODS = 12.0
_TUNE_CAP = 2.0 ** 16


def _sweep_start(k1: float, k2: float) -> tuple:
    """(-1, 0), where run_destabilizer and find_nu start, and the normal
    (k1/k2, 1) of the collinearity line x2 + (k1/k2) x1 = 0, where gated
    and ungated fields are collinear."""
    return np.array([-1.0, 0.0]), np.array([k1 / k2, 1.0])


@dataclass(eq=False)
class DestabilizerRun:
    # the start and the state at every crossing, (4 revolutions + 1, 2)
    states: np.ndarray
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


def run_destabilizer(K, cls: PeClass,
                     revolutions: int = 10) -> DestabilizerRun:
    """Run the sector feedback loop exactly from (-1, 0), find_nu's start
    too, one sector at a time.

    The horizontal axis and the collinearity line x2 + (k1/k2) x1 = 0 cut
    the plane into sectors 4, 1, 2, 3, entered in that order from the
    negative axis: 2 and 4 are gated at full strength and left across the
    line, 1 and 3 at the class floor and left across the axis.  In a
    sector the dynamics is one constant matrix m, so simcore._first_zero
    gives the time tc of the next crossing in closed form, and expm(m, tc)
    carries the state to it; committing to the entered sector until the
    next crossing (minimum dwell 1e-12) rules out chattering artifacts.

    The four crossings of the first revolution are searched; by
    homogeneity each later one repeats its switch times and is replayed
    through the same flow expm(m_j, tc_j).  The run keeps the state at
    every crossing, not samples between them: propagating the induced
    gate from (-1, 0) gives those.  A crossing state that is not finite,
    or a revolution whose norm overflows or falls below the normal
    doubles, raises SimulationError naming its revolution.
    """
    if revolutions < 1:
        raise DomainError("need at least one revolution")
    k1, k2 = _unpack_gain(K)
    ratio = cls.ratio
    bk = B_DI @ np.array([[-k1, -k2]])
    mats = {1.0: A_DI + bk, ratio: A_DI + ratio * bk}
    x, line = _sweep_start(k1, k2)
    states = [x]
    # (level, duration, sector left, flow) of each searched phase
    phases = []
    # the start has norm 1; one norm per negative-axis arrival follows
    rev_norms = [1.0]
    with np.errstate(over="ignore", invalid="ignore"):
        for rev in range(1, revolutions + 1):
            for j, region in enumerate((4, 1, 2, 3)):
                if rev == 1:
                    full = region in (2, 4)
                    a, c = ((1.0, line) if full
                            else (ratio, np.array([0.0, 1.0])))
                    tc = _first_zero(mats[a], x, c)
                    if tc is None:
                        raise SimulationError(
                            "trajectory converges to an eigendirection and "
                            "stops revolving; the sector feedback cannot "
                            "destabilize here")
                    if tc < _MIN_DWELL:
                        raise InternalConsistencyError(
                            "two sector crossings within 1e-12: chattering "
                            "detected")
                    phases.append((a, tc, region, expm(mats[a], tc)))
                x = phases[j][3] @ x
                norm = math.hypot(*x)
                # an entry that is not finite reads inf or nan here
                if not norm < math.inf:
                    raise SimulationError(
                        f"the state overflows in revolution {rev}")
                if rev == 1 and norm == 0.0:
                    # a flow that barely turns (delta just below 0) can
                    # reach the zero state before it crosses, and the zero
                    # state meets every line at once
                    raise SimulationError(
                        "trajectory decays to the zero state and stops "
                        "revolving; the sector feedback cannot destabilize "
                        "here")
                states.append(x)
            if norm < sys.float_info.min:
                # below the normal doubles each product loses digits, and
                # the factors drift to 1 as the state stalls
                raise SimulationError(
                    "the state decays below the normal doubles in "
                    f"revolution {rev}")
            rev_norms.append(norm)
    vals, widths, regions, _ = zip(*phases)
    vals, regions = vals * revolutions, regions * revolutions
    bp = np.concatenate(([0.0], np.cumsum(widths * revolutions)))
    induced = PwcSignal.held(tuple(bp.tolist()), vals, hold=vals[-1])
    horizon = bp[-1]
    pe_ok = (verify_pe(induced, cls, horizon).ok
             if horizon >= cls.T else False)
    factors = [b / a for a, b in zip(rev_norms, rev_norms[1:])]
    crossings = [{"t": t, "region_from": r}
                 for t, r in zip(bp[1:].tolist(), regions)]
    return DestabilizerRun(np.array(states), induced, factors[-1], factors,
                           pe_ok, crossings)


def find_nu(K, tol: float = 1e-10) -> float:
    """Largest constant gate level for which the post-collinearity sweep
    still lands beyond the starting abscissa.

    The full-strength flow from (-1, 0), run_destabilizer's start too, is
    followed to its first meeting with the collinearity line; from there
    the constant-nu flow crosses the horizontal axis at some abscissa
    xi(nu), which grows without bound as nu shrinks and shrinks as nu
    grows.  Classes with ratio at most the returned value are destabilized
    by the sector feedback.  Each crossing time is simcore._first_zero's
    closed form, and its state one expm.

    xi behaves like C / sqrt(nu): an interpolating search on xi over nu
    falls back to bisection, but log xi is nearly linear in log nu.  So
    simcore._itp runs on g(u) = log xi(e^u) over [log floor, 0], in 9-14
    evaluations for moderate gains where bisection took 36.  It stops when
    e^u_hi - e^u_lo <= min(tol, 1e-8 e^u_lo), tol finite and positive and
    absolute in nu, or no float lies between u_lo and u_hi, and returns
    e^u_lo, a level xi was evaluated at: xi(nu) > 1 >= xi(nu + width).  The
    relative term keeps eight digits of a small nu_hat and binds only
    below nu = tol / 1e-8 (0.01 at the default tol).  nu_hat is about
    0.33 k1/k2^2 for small k1/k2^2, so the floor is min(1e-12, 1e-3
    k1/k2^2); a search it exhausts raises SimulationError.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol!r}")
    k1, k2 = _unpack_gain(K)
    bk = B_DI @ np.array([[-k1, -k2]])
    m1 = A_DI + bk
    x0, line = _sweep_start(k1, k2)
    s = _first_zero(m1, x0, line)
    if s is None:
        raise SimulationError("full-strength flow never meets the "
                              "collinearity line")
    x_bar = expm(m1, s) @ x0
    axis = np.array([0.0, 1.0])

    def g(u: float) -> float:
        m = A_DI + math.exp(u) * bk
        s = _first_zero(m, x_bar, axis)
        # no crossing (the flow converges to an eigendirection above the
        # axis) is certainly not landing beyond the unit abscissa, and
        # xi = 1 belongs to the upper end of the bracket: both read -inf
        xi = 0.0 if s is None else float((expm(m, s) @ x_bar)[0])
        return math.log(xi) if xi > 0.0 and xi != 1.0 else -math.inf

    # three decades below k1/k2^2, and at the least positive double where
    # that underflows
    ratio = k1 / k2 / k2
    floor = max(min(1e-12, 1e-3 * ratio), 5e-324)
    lo, hi = math.log(floor), 0.0
    g_lo = g(lo)
    if g_lo <= 0.0:
        raise SimulationError(
            "no destabilizing gate level found down to the search floor "
            f"{floor:.3g}: k1/k2^2 = {ratio:.3g}, and nu_hat is about "
            "0.33 k1/k2^2 when that is small")
    g_hi = g(hi)
    if g_hi > 0.0:
        return 1.0
    # a bracket no wider than min(tol, 1e-8) / 2 in u is accepted: in nu
    # <= 1 it is no wider than tol, and no wider than 1e-8 nu_lo
    n_bis = math.ceil(math.log2(hi - lo) - math.log2(min(tol, 5e-9)))
    # kappa1 = 0.2 / (hi - lo): 0.02 took up to 18 evaluations of xi at
    # 1e-10 here; the stop accepts brackets up to hi - lo = log1p(min(tol
    # e^-lo, 1e-8)) wide, the width that floors the truncation
    lo, _ = _itp(g, lo, hi, g_lo, g_hi, n_bis + 1, 0.2,
                 lambda lo, hi: math.exp(hi) - math.exp(lo)
                 <= min(tol, 1e-8 * math.exp(lo)),
                 lambda lo: math.log1p(min(tol * math.exp(-lo), 1e-8)))
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
