"""Trajectory-level certification of the decay estimates and inequalities.

Every "there exists a constant" statement is certified as a measured
constant over a declared battery, except the outer-cone dwell bound, which
dwell_bound states in closed form; certificates record what was measured,
the tolerances used and the size of the battery that produced them, and
are reproducible bit-for-bit from (seed, tolerance) configuration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (DomainError, InsufficientDataError, PreconditionError,
                     SimulationError)
from .gains import (A_DI, B_DI, ConeGeometry, cone_geometry, di_base_gain,
                    multi_input_gain)
from .matkit import as_matrix, one_norm
from .reachability import kalman_rank
from .signals import PeClass, PwcSignal, make_duty, rescale_time
from .simcore import (ClosedLoop, Trajectory, _energy, _polar, _sum_squares,
                      crossing_time, fmap_F, propagate, propagate_batch)

__all__ = [
    "Certificate",
    "decay_rate",
    "check_V_neutral",
    "estimate_eta",
    "check_F_monotone",
    "dwell_bound",
    "check_quadrant_V",
    "check_cs_decay",
    "comparison_final0",
    "comparison_c2",
    "chain_contraction",
    "weak_star_demo",
    "rescaling_identity",
    "multi_input_identity",
    "f_monotone_battery",
    "quadrant_battery",
    "cs_decay_battery",
    "chain_battery",
    "di_runs",
    "neutral_runs",
    "unit_circle_grid",
    "c_rho_closed_form",
]

_ENERGY_SLACK = 1e-10
_F_SLACK = 1e-9
_ETA_MARGIN = 1e-5
# chain_contraction: the shortest gap between axis visits that is checked
_MIN_EXCURSION = 1.0
# weak_star_demo: the largest sup-distance allowed at the largest i
_WEAK_STAR_FINAL_TOL = 1e-2
# rescaling_identity: the time scales checked
_RESCALING_LAMS = (0.5, 2.0, 8.0)
# (key, runs) of the last di_runs call; see di_runs
_last_runs = None


@dataclass
class Certificate:
    """Pass/fail verdict with the constants that were actually measured."""

    name: str
    passed: bool
    measured: dict
    tolerance: object
    battery: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "measured": {k: float(v) for k, v in self.measured.items()},
            "tolerance": self.tolerance,
            "battery": self.battery,
            "notes": list(self.notes),
        }


def _battery_certificate(name: str, passed: bool, measured: dict, tolerance,
                         battery, notes=()) -> Certificate:
    """A certificate over a battery, which it records by size; measured
    entries that no stay or run produced (None) are left out."""
    return Certificate(name, passed,
                       {k: v for k, v in measured.items() if v is not None},
                       tolerance, {"size": len(battery)}, list(notes))


# ---------------------------------------------------------------------------
# grids and run builders
# ---------------------------------------------------------------------------

def unit_circle_grid(m: int) -> np.ndarray:
    """m unit vectors in the plane, as columns; m must be at least 1."""
    if m < 1:
        raise DomainError(f"a grid needs at least one initial state, got {m}")
    phi = 2.0 * np.pi * np.arange(m) / m
    return np.vstack([np.cos(phi), np.sin(phi)])


def neutral_runs(A, B, battery, x0_columns, horizon: float,
                 max_step: float | None = None) -> list:
    """Closed-loop runs of the transpose-feedback loop over a battery."""
    A = as_matrix(A, square=True)
    B = as_matrix(B)
    runs = []
    for sig in battery:
        loop = ClosedLoop(A, B, -B.T, sig)
        runs.extend(propagate_batch(loop, 0.0, x0_columns, horizon, max_step))
    return runs


def di_runs(cls: PeClass, rho: float, k: float, lam: float, battery,
            x0_columns, horizon: float) -> list:
    """Double-integrator runs in base-gain coordinates.

    The base gain (-rho k^2/2, -k) is driven by the lam-times-faster copies
    of the battery signals (class (T/lam, mu/lam)); this is the frame in
    which the cone estimates are stated, and it maps onto the user-facing
    lam-scaled gain at class (T, mu) by the exact rescaling identity.

    The runs of the last call are kept, with read-only arrays, and
    returned again in a new list when the next call has the same inputs to
    the bit, so consecutive cone certificates on one battery propagate it
    once.  They carry no channels; a caller that needs the angle lifts
    them with polar_lift, or a member's runs at once with its _polar.  A
    grid with no initial state certifies nothing and is refused
    (InsufficientDataError) before any propagation.
    """
    global _last_runs
    battery = list(battery)
    x0m = np.asarray(x0_columns, dtype=float)
    if x0m.ndim == 2 and x0m.shape[1] == 0:
        raise InsufficientDataError("no initial state")
    # repr tells -0.0 from 0.0 and round-trips every float
    key = (repr([float(v) for v in (rho, k, lam, horizon)]),
           x0m.shape, x0m.tobytes(),
           repr([(s.breakpoints, s.values, s.period, s.hold)
                 for s in battery]))
    memo = _last_runs
    if memo is not None and memo[0] == key:
        runs = memo[1]
    else:
        _last_runs = None
        K = di_base_gain(rho, k)
        runs = []
        for sig in battery:
            loop = ClosedLoop(A_DI, B_DI, K, rescale_time(sig, lam))
            runs.extend(propagate_batch(loop, 0.0, x0m, horizon))
        for tr in runs:
            for arr in (tr.times, tr.states, tr.seg_alpha):
                arr.flags.writeable = False
            tr.channels = MappingProxyType(tr.channels)
        _last_runs = (key, runs)
    return list(runs)


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------

def _line_fits(x: np.ndarray, y: np.ndarray, lens) -> tuple:
    """(slope, intercept) arrays of the least-squares lines y ~ intercept +
    slope x, one over each of the consecutive segments of x and y with
    lengths lens, in closed form from centred sums: slope = sum dx dy /
    sum dx^2, with dx = x - mean x and dy = y - mean y over the segment.
    Each segment needs two distinct abscissae."""
    starts = np.cumsum(lens) - lens
    xm = np.add.reduceat(x, starts) / lens
    ym = np.add.reduceat(y, starts) / lens
    dx = x - np.repeat(xm, lens)
    slope = np.add.reduceat(dx * (y - np.repeat(ym, lens)), starts) \
        / np.add.reduceat(dx * dx, starts)
    return slope, ym - slope * xm


def decay_rate(traj: Trajectory, t_start: float) -> dict:
    """Least-squares fit of log||x|| ~ log C - gamma (t - t_start), in
    closed form from centred sums (_line_fits), with the largest residual
    of the fitted line."""
    mask = traj.times >= t_start
    if int(mask.sum()) < 10:
        raise InsufficientDataError("need at least 10 samples after t_start")
    t = traj.times[mask] - t_start
    nrm = traj.norms()[mask]
    if np.any(nrm <= 0.0):
        raise DomainError("trajectory reaches zero norm; nothing to fit")
    y = np.log(nrm)
    (slope,), (intercept,) = _line_fits(t, y, np.array([len(t)]))
    residual = float(np.max(np.abs(intercept + slope * t - y)))
    return {"gamma_hat": float(-slope), "C_hat": float(math.exp(intercept)),
            "residual": residual}


# ---------------------------------------------------------------------------
# neutral case
# ---------------------------------------------------------------------------

def check_V_neutral(traj: Trajectory, B, r: float = 1.0) -> Certificate:
    """V = ||x||^2/2 must never increase, and on constant-gate stretches its
    centered difference must match -r alpha ||B^T x||^2 to O(h^2).

    The derivative check covers every interior sample j whose two adjacent
    steps share one gate value and one length (within 1e-12), all at once;
    the tolerance 2 h^2 (||M(a)||_1 + 1)^3 2V takes one matrix norm per
    distinct level.  A FAIL names the first sample whose error exceeds its
    tolerance.  The check is of degree 2 in x: a run beyond 2^480 is checked
    at the exact scale 2^-e that brings its largest entry below 2^480, and
    its magnitudes read 4^e times larger, inf past the largest double.  It
    reads one contiguous copy of the states, and |B^T x|^2 and V are
    simcore's column sums."""
    B = as_matrix(B)
    x = np.ascontiguousarray(traj.states)
    e = max(0, math.frexp(np.max(np.abs(x), initial=0.0))[1] - 480)
    x = np.ldexp(x, -e) if e else x
    V = _energy(x)
    # dV > slack exactly where dV - slack > 0: a difference of doubles is
    # zero only between equal ones
    rise = np.diff(V) - (_ENERGY_SLACK * V[:-1] + 1e-300)
    mono_viol = int(np.count_nonzero(rise > 0.0))
    worst_mono = float(rise.max()) if len(rise) else 0.0

    bn2 = _sum_squares(x @ B)
    a = traj.seg_alpha
    t = traj.times
    h1, h2 = t[1:-1] - t[:-2], t[2:] - t[1:-1]
    ok = (a[:-1] == a[1:]) & (np.abs(h1 - h2) <= 1e-12 * np.maximum(h1, h2))
    j = np.flatnonzero(ok) + 1
    h1, h2, aj = h1[ok], h2[ok], a[j]
    cd = (V[j + 1] - V[j - 1]) / (h1 + h2)
    model = -r * aj * bn2[j]
    growth = np.empty_like(aj)
    for lvl in np.unique(aj).tolist():
        growth[aj == lvl] = (one_norm(traj.loop.matrix(lvl)) + 1.0) ** 3
    tol = 2.0 * h1 * h1 * (growth * (2.0 * V[j])) + 1e-300
    err = np.abs(cd - model)
    bad = np.flatnonzero(err > tol)
    if e:
        with np.errstate(over="ignore"):
            err, tol, worst_mono = (np.ldexp(v, 2 * e)
                                    for v in (err, tol, worst_mono))
    if len(bad):
        i = bad[0]
        return Certificate(
            "energy_identity", False,
            {"worst_derivative_error": err[i], "tolerance_at_worst": tol[i],
             "monotonicity_violations": mono_viol},
            _ENERGY_SLACK, {}, [f"derivative mismatch at sample {j[i]}"])
    passed = mono_viol == 0
    return Certificate(
        "energy_identity", passed,
        {"monotonicity_violations": mono_viol, "worst_increase": worst_mono,
         "max_derivative_error": float(np.max(err, initial=0.0)),
         "max_derivative_tol": float(np.max(tol, initial=0.0))},
        _ENERGY_SLACK, {}, [])


def estimate_eta(A, B, cls: PeClass, battery) -> Certificate:
    """Battery minimum of the one-window excitation floor of the transpose
    loop x' = (A - alpha B B^T) x, over every initial state.

    For skew A, d/dt log|x|^2 = -2 alpha |B^T x|^2 / |x|^2 exactly, so over
    a window [0, T] the energy v = |x|^2/2 falls by the factor
    e^{-eta(alpha)} or more from every initial state, where
    eta(alpha) = -2 log sigma_max(Phi_alpha(0, T)) is attained at the top
    right singular vector of the window's transition matrix.  Each member's
    Phi is the end state of the identity's columns, chained from exact
    piece exponentials, and one batched SVD gives every sigma_max.

    A finite battery under-approximates the infimum over all admissible
    signals; the certificate records a battery value, not a bound on the
    class constant.  It names the member behind eta_hat, the first on ties.
    """
    if len(battery) == 0:
        raise InsufficientDataError("empty battery")
    A = as_matrix(A, square=True)
    B = as_matrix(B)
    n = A.shape[0]
    if one_norm(A + A.T) > 1e-10 * max(one_norm(A), 1.0):
        raise PreconditionError("drift matrix must be skew-symmetric")
    if kalman_rank(A, B) != n:
        raise PreconditionError("(A, B) must be controllable")
    runs = neutral_runs(A, B, battery, np.eye(n), cls.T, max_step=cls.T)
    # row j of member i is Phi_i e_j, so each block is Phi_i^T, whose
    # singular values are Phi_i's
    phis = np.array([tr.states[-1] for tr in runs]).reshape(-1, n, n)
    eta = -2.0 * np.log(np.linalg.svd(phis, compute_uv=False)[:, 0])
    worst = int(np.argmin(eta))
    eta_hat = float(eta[worst])
    return _battery_certificate(
        "excitation_energy_floor", eta_hat > _ETA_MARGIN,
        {"eta_hat": eta_hat, "positivity_margin": eta_hat - _ETA_MARGIN,
         "worst_member": worst},
        {"eta_margin": _ETA_MARGIN}, battery)


# ---------------------------------------------------------------------------
# cone machinery (double integrator, base-gain coordinates)
# ---------------------------------------------------------------------------

def _stays(inside: np.ndarray, min_steps: int) -> tuple:
    """(idx, lens) of every maximal run of True along the rows of inside
    (m, N) that lasts at least min_steps steps: the flat sample indices of
    those stays, concatenated row by row, and the length of each.  The
    rows are laid end to end, each behind one False and the last followed
    by one, and the changes of that line are the runs' ends."""
    m, N = inside.shape
    pad = np.zeros(m * (N + 1) + 1, dtype=bool)
    pad[:-1].reshape(m, N + 1)[:, 1:] = inside
    # a run's first sample and the one past its last, less one pad per row
    # up to and including its own
    ends = np.flatnonzero(pad[:-1] != pad[1:])
    ends -= ends // (N + 1)
    first, lens = ends[::2], ends[1::2] - ends[::2]
    keep = lens > min_steps
    first, lens = first[keep], lens[keep]
    starts = np.cumsum(lens) - lens
    return np.arange(lens.sum()) + np.repeat(first - starts, lens), lens


def _stay_samples(runs, min_steps: int, sample) -> tuple:
    """(arrays, lens): the samples of every maximal stay of at least
    min_steps steps in a set, over a battery's runs, and the length of
    each stay.  A member's runs share one time grid array and are taken
    together: sample(run, x1, x2) gets its first run and the state
    components of all its runs, each a contiguous (m, N) array with one
    run per row, and returns the set's mask (m, N) and the per-sample
    arrays to keep, each (m, N), or (N,) on the shared grid, which is read
    at the stays' sample indices modulo N."""
    parts, lens = [], [np.zeros(0, dtype=int)]
    for _, group in itertools.groupby(runs, key=lambda tr: id(tr.times)):
        group = list(group)
        x1 = np.array([tr.states[:, 0] for tr in group])
        x2 = np.array([tr.states[:, 1] for tr in group])
        inside, arrays = sample(group[0], x1, x2)
        idx, n = _stays(inside, min_steps)
        parts.append([a[idx % len(a)] if a.ndim == 1 else a.ravel()[idx]
                      for a in arrays])
        lens.append(n)
    return [np.concatenate(a) for a in zip(*parts)], np.concatenate(lens)


def _values(certs, key: str) -> list:
    """The measured `key` of every certificate that reports it."""
    return [c.measured[key] for c in certs if key in c.measured]


def _in_stays(steps: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The entries of steps, one per pair of consecutive samples of stays
    of lengths lens concatenated, whose two samples lie in one stay."""
    return np.delete(steps, np.cumsum(lens)[:-1] - 1)


def _f_drops(theta: np.ndarray, ahead: np.ndarray, lens: np.ndarray,
             lam: float, mu: float, k: float) -> tuple:
    """(violations, worst step, n_windows, c_hat) of the reparameterized
    angle F = fmap_F(theta, k) over stays of lengths lens concatenated.
    Within a stay F must not rise by more than _F_SLACK from sample to
    sample, and over every window from sample i to sample i + ahead[i]
    (the first at least T/lam later) that ends inside the stay it must
    drop; c_hat is the least drop in units of mu k / lam, inf without a
    window."""
    F = fmap_F(theta, k)
    dF = _in_stays(np.diff(F), lens)
    last = np.repeat(np.cumsum(lens) - 1, lens)
    i = np.flatnonzero(np.arange(len(F)) + ahead <= last)
    c_hat = np.min((F[i] - F[i + ahead[i]]) * lam / (mu * k),
                   initial=math.inf)
    return (int(np.sum(dF > _F_SLACK)), float(np.max(dF)) if len(dF) else 0.0,
            len(i), c_hat)


def _ahead(t: np.ndarray, W: float) -> np.ndarray:
    """For each sample of the grid t, the steps to the first sample at
    least W later (past the end when there is none)."""
    return np.searchsorted(t, t + W, side="left") - np.arange(len(t))


def check_F_monotone(traj: Trajectory, rho: float, k: float, cls: PeClass,
                     lam: float) -> Certificate:
    """On a stay inside the outer cones, the reparameterized angle must be
    non-increasing sample-to-sample, and over every sub-window of length
    T/lam it must drop by a definite amount; the largest constant making all
    window drops pass is reported.  The check is f_monotone_battery's on
    one stay, the whole trajectory."""
    if "theta" not in traj.channels:
        raise PreconditionError("trajectory must be polar-lifted")
    geom = cone_geometry(rho, k, cls.ratio)
    x1, x2 = traj.states[:, 0], traj.states[:, 1]
    q = geom.cs_quadratic(x1, x2)
    r2 = x1 * x1 + x2 * x2
    if np.any(q < -1e-9 * r2):
        raise PreconditionError("segment leaves the outer-cone union")
    W = cls.T / lam
    viol, worst, n_windows, c_hat = _f_drops(
        traj.channels["theta"], _ahead(traj.times, W),
        np.array([len(traj.times)]), lam, cls.mu, k)
    measured = {"max_F_step_increase": worst,
                "monotonicity_violations": viol,
                "n_windows": n_windows}
    if n_windows:
        measured["c_hat_window"] = c_hat
    passed = viol == 0 and (n_windows == 0 or c_hat > 0.0)
    return Certificate("angle_reparam_monotone", passed, measured,
                       {"f_slack": _F_SLACK, "window": W}, {}, [])


def f_monotone_battery(cls: PeClass, rho: float, k: float, lam: float,
                       battery, x0_columns, horizon: float) -> Certificate:
    """Run a battery and apply the monotonicity/window-drop check on every
    stay in the outer cones; fails when no run has such a stay to check.
    Each member's runs are lifted in one array pass, and the check reduces
    the stays of all of them at once."""
    runs = di_runs(cls, rho, k, lam, battery, x0_columns, horizon)
    geom = cone_geometry(rho, k, cls.ratio)

    def sample(tr, x1, x2):
        theta = _polar(tr.loop, tr.times, tr.seg_alpha, x1, x2)
        return (geom.cs_quadratic(x1, x2) >= 0.0,
                (theta, _ahead(tr.times, cls.T / lam)))

    arrays, lens = _stay_samples(runs, 2, sample)
    viol, worst, n_windows, c_hat = _f_drops(
        *arrays, lens, lam, cls.mu, k) if len(lens) else (0, None, 0, None)
    notes = [] if len(lens) else [
        "vacuous: no run stayed in the outer cones for three samples"]
    return _battery_certificate(
        "angle_reparam_monotone_battery",
        bool(len(lens)) and viol == 0 and (n_windows == 0 or c_hat > 0.0),
        {"violations": viol, "worst_step": worst,
         "n_sojourns": len(lens), "n_windows": n_windows,
         "c_hat": c_hat if n_windows else None,
         "c_closed_form": c_rho_closed_form(rho) if n_windows else None},
        {"f_slack": _F_SLACK}, battery, notes)


def dwell_bound(cls: PeClass, rho: float, k: float,
                lam_over_k: float) -> Certificate:
    """The bound dF T/(c k mu) + T/lam, lam = lam_over_k k, on every
    outer-cone sojourn of the base-gain loop under the lam-times-faster
    gate, at k and at 2k.  Outside the central band dF/dt <= -c k alpha,
    c = c_rho_closed_form(rho), for all alpha in [0, 1] (the field is
    affine in alpha); a stretch of length tau holds at least
    mu (tau/T - 1/lam) of the gate; and a sojourn spans at most the outer
    arc's F-width dF.  In (x1, x2/k) and time k t the loop has no k: the
    residual compares diag(1, 1/k) M_k(a) diag(1, k)/k at k and 2k."""
    if not lam_over_k > 0.0:
        raise DomainError(f"lam/k must be positive, got {lam_over_k!r}")
    c = c_rho_closed_form(rho)
    geom = cone_geometry(rho, k, cls.ratio)
    d_F = math.pi + math.atan(geom.xi_s_plus / k) \
        - math.atan(geom.xi_s_minus / k)
    ks = np.array([k, 2.0 * k])
    # a k whose field or bound leaves the floats fails, without a warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bound = d_F * cls.T / (c * ks * cls.mu) + cls.T / (lam_over_k * ks)
        scaled = [np.diag([1.0, 1.0 / kk])
                  @ np.array([A_DI, A_DI + B_DI @ di_base_gain(rho, kk)])
                  @ np.diag([1.0, kk]) / kk for kk in ks]
        residual = float(np.max(np.abs(scaled[0] - scaled[1])))
        ratio = float(bound[1] / bound[0])
    tol = 8.0 * math.ulp(1.0)
    return Certificate(
        "outer_cone_dwell_bound",
        bool(np.isfinite(bound).all()) and residual <= tol,
        {"dwell_bound_at_k": bound[0], "dwell_bound_at_2k": bound[1],
         "ratio": ratio, "c": c, "delta_F": d_F,
         "scaling_residual": residual},
        {"scaling_abs": tol}, {}, [])


def _quadrant_rises(x1: np.ndarray, x2: np.ndarray, lens: np.ndarray,
                    rho: float, k: float) -> tuple:
    """(violations, worst increase) of V = x1^2 + 2 x2^2/(rho k^2) over
    stays of lengths lens concatenated: within a stay V must not rise by
    more than _ENERGY_SLACK of itself per step."""
    V = x1 ** 2 + 2.0 * x2 ** 2 / (rho * k * k)
    # dV > slack exactly where dV - slack > 0, as in check_V_neutral
    rise = _in_stays(np.diff(V) - (_ENERGY_SLACK * V[:-1] + 1e-300), lens)
    return int(np.count_nonzero(rise > 0.0)), float(rise.max())


def check_quadrant_V(traj: Trajectory, rho: float, k: float) -> Certificate:
    """V = x1^2 + 2 x2^2/(rho k^2) must be non-increasing while the state
    stays in {x1 <= 0, x2 >= 0}; the check clips to the maximal prefix of
    the trajectory inside that set, and is quadrant_battery's on that one
    stay."""
    x1, x2 = traj.states[:, 0], traj.states[:, 1]
    exits = np.flatnonzero(~((x1 <= 0.0) & (x2 >= 0.0)))
    n_prefix = int(exits[0]) if len(exits) else len(x1)
    if n_prefix < 2:
        return Certificate("quadrant_energy", True,
                           {"prefix_samples": n_prefix, "worst_increase": 0.0},
                           _ENERGY_SLACK, {},
                           ["prefix too short; vacuous"])
    viol, worst = _quadrant_rises(x1[:n_prefix], x2[:n_prefix],
                                  np.array([n_prefix]), rho, k)
    return Certificate("quadrant_energy", viol == 0,
                       {"prefix_samples": n_prefix, "violations": viol,
                        "worst_increase": worst},
                       _ENERGY_SLACK, {}, [])


def quadrant_battery(cls: PeClass, rho: float, k: float, lam: float, battery,
                     x0_columns, horizon: float) -> Certificate:
    """Apply the quadrant-energy check to every maximal stay of every run in
    {x1 <= 0, x2 >= 0}; fails when no run has such a stay to check.  The
    check reduces the stays of all runs at once."""
    runs = di_runs(cls, rho, k, lam, battery, x0_columns, horizon)
    arrays, lens = _stay_samples(
        runs, 1, lambda tr, x1, x2: ((x1 <= 0.0) & (x2 >= 0.0), (x1, x2)))
    viol, worst = _quadrant_rises(*arrays, lens, rho, k) if len(lens) \
        else (0, None)
    notes = [] if len(lens) else [
        "vacuous: no run stayed in {x1 <= 0, x2 >= 0} for two samples"]
    return _battery_certificate(
        "quadrant_energy_battery", viol == 0 and bool(len(lens)),
        {"violations": viol, "worst_increase": worst,
         "stays_checked": len(lens)},
        _ENERGY_SLACK, battery, notes)


def _cs_decay(t: np.ndarray, x1: np.ndarray, x2: np.ndarray, q: np.ndarray,
              lens: np.ndarray, rho: float, k: float,
              geom: ConeGeometry) -> tuple:
    """(w_ok, measured, tol, gamma_hat, C2_hat) of the central-cone decay
    check over stays of lengths lens concatenated, sampled at times t, with
    q geom's cone quadratic of the samples.  w_ok tells whether every sample
    keeps w within its bounds widened by tol, and measured holds w_min,
    w_max and the bounds; every stay of at least ten samples gets a decay
    rate gamma_hat from the line fit of log|x2| over its own elapsed time,
    and the envelope constant C2_hat of that rate."""
    r2 = x1 * x1 + x2 * x2
    if np.any(q > 1e-9 * r2):
        raise PreconditionError("segment leaves the central cone")
    if np.any(x2 == 0.0):
        raise PreconditionError("central cone excludes the horizontal axis")
    w = 1.0 + 0.5 * rho * k * (x1 / x2)
    lo = 1.0 + 0.5 * rho * k / geom.xi_s_minus
    hi = 1.0 + 0.5 * rho * k / geom.xi_s_plus
    tol = 1e-9 * max(1.0, abs(lo), abs(hi))
    # a nan in w reads as both extremes and fails both bounds
    w_min, w_max = float(np.min(w)), float(np.max(w))
    w_ok = w_min >= lo - tol and w_max <= hi + tol
    measured = {"w_min": w_min, "w_max": w_max,
                "w_lower_bound": lo, "w_upper_bound": hi}
    fit = lens >= 10
    if not fit.any():
        return w_ok, measured, tol, np.zeros(0), np.zeros(0)
    sel = np.repeat(fit, lens)
    n = lens[fit]
    first = np.cumsum(n) - n
    t, nrm = t[sel], np.sqrt(r2[sel])
    dt = t - np.repeat(t[first], n)
    slope, _ = _line_fits(dt, np.log(np.abs(x2[sel])), n)
    gamma_hat = -slope / k
    env = nrm / np.repeat(nrm[first], n) * np.exp(np.repeat(k * gamma_hat, n)
                                                  * dt)
    return w_ok, measured, tol, gamma_hat, np.maximum.reduceat(env, first)


def check_cs_decay(traj: Trajectory, rho: float, k: float,
                   cls: PeClass) -> Certificate:
    """Inside the central cone the vertical component obeys a gated scalar
    law x2' = -k alpha w x2 with w confined to gain-independent bounds; check
    the bounds per sample and, over ten samples or more, fit the decay rate
    of log|x2| by least squares in closed form (_line_fits) and report the
    envelope constant of that rate.  The check is cs_decay_battery's on one
    stay, the whole trajectory."""
    geom = cone_geometry(rho, k, cls.ratio)
    x1, x2 = traj.states[:, 0], traj.states[:, 1]
    w_ok, measured, tol, gamma_hat, c2_hat = _cs_decay(
        traj.times, x1, x2, geom.cs_quadratic(x1, x2),
        np.array([len(traj.times)]), rho, k, geom)
    if len(gamma_hat):
        measured["gamma_hat"] = float(gamma_hat[0])
        measured["C2_hat"] = float(c2_hat[0])
    return Certificate("central_cone_decay", w_ok, measured, {"w_tol": tol},
                       {}, [])


def cs_decay_battery(cls: PeClass, rho: float, k: float, lam: float, battery,
                     x0_columns, horizon: float) -> Certificate:
    """Apply the central-cone decay check to every stay of every run in the
    central cone; fails when no run has such a stay to check.  The check
    reduces and fits the stays of all runs at once."""
    runs = di_runs(cls, rho, k, lam, battery, x0_columns, horizon)
    geom = cone_geometry(rho, k, cls.ratio)

    def sample(tr, x1, x2):
        q = geom.cs_quadratic(x1, x2)
        return q <= 0.0, (tr.times, x1, x2, q)

    arrays, lens = _stay_samples(runs, 3, sample)
    if not len(lens):
        return _battery_certificate(
            "central_cone_decay_battery", False, {"stays_checked": 0}, None,
            battery,
            ["vacuous: no run stayed in the central cone for four samples"])
    w_ok, measured, _, gamma_hat, c2_hat = _cs_decay(*arrays, lens, rho, k,
                                                     geom)
    return _battery_certificate(
        "central_cone_decay_battery", w_ok,
        {"stays_checked": len(lens), "w_min": measured["w_min"],
         "w_max": measured["w_max"],
         "gamma_hat_min": min(gamma_hat.tolist(), default=None),
         "C2_hat_max": max(c2_hat.tolist(), default=None)},
        None, battery)


# ---------------------------------------------------------------------------
# constant-gate comparison computations
# ---------------------------------------------------------------------------

def comparison_final0(rho: float, k: float, ratio: float) -> Certificate:
    """Constant-gate flow started on the shallow central-cone edge must stay
    between that edge and the slow eigendirection and decay to nothing.

    Confinement is verified on at least [0, 50/k]; the horizon is extended
    as needed for the terminal norm to fall below 1e-6 of the start."""
    geom = cone_geometry(rho, k, ratio)
    slow = abs(geom.xi_r_minus)
    need = (math.log(1e6) + 2.0) / slow + 5.0 / k
    H = max(50.0 / k, need)
    x0 = np.array([-1.0, -geom.xi_s_minus])
    x0 = x0 / np.linalg.norm(x0)
    loop = ClosedLoop(A_DI, B_DI, di_base_gain(rho, k),
                      PwcSignal.constant(ratio))
    tr = propagate(loop, 0.0, x0, H)
    x1, x2 = tr.states[:, 0], tr.states[:, 1]
    slopes = x2 / x1
    tol = 1e-9 * k
    confined = bool(np.all(slopes >= geom.xi_r_minus - tol)
                    and np.all(slopes <= geom.xi_s_minus + tol)
                    and np.all(x1 < 0.0))
    final_ratio = float(tr.norms()[-1] / tr.norms()[0])
    passed = confined and final_ratio <= 1e-6
    return Certificate(
        "edge_flow_confinement", passed,
        {"final_norm_ratio": final_ratio,
         "slope_min": float(np.min(slopes)), "slope_max": float(np.max(slopes)),
         "horizon": H, "confinement_horizon": 50.0 / k},
        {"slope_tol": tol, "final_ratio_bound": 1e-6}, {}, [])


def comparison_c2(rho: float, k: float, ratio: float) -> Certificate:
    """Constant-gate flow started on the steep central-cone edge must sweep
    the outer cone, reach the positive horizontal axis in finite time and
    arrive with less norm than it started with."""
    geom = cone_geometry(rho, k, ratio)
    x0 = np.array([-1.0, -geom.xi_s_plus])
    x0 = x0 / np.linalg.norm(x0)
    loop = ClosedLoop(A_DI, B_DI, di_base_gain(rho, k),
                      PwcSignal.constant(ratio))
    H = 60.0 / k
    tr = propagate(loop, 0.0, x0, H)
    x2 = tr.states[:, 1]
    x1 = tr.states[:, 0]
    hits = np.flatnonzero((x2[:-1] > 0.0) & (x2[1:] <= 0.0))
    if not len(hits):
        return Certificate("outer_sweep_contraction", False,
                           {"horizon": H}, None, {},
                           ["no axis crossing within the horizon"])
    cross_seg = int(hits[0])
    tc = crossing_time(*tr.segment_flow(cross_seg), (0.0, 1.0))
    xc = tr.state_at(tc)
    contraction = float(np.linalg.norm(xc))
    # staying inside the sweeping cone until the crossing means the mod-pi
    # direction never enters the central cone before tc
    qs = geom.cs_quadratic(x1[:cross_seg + 1], x2[:cross_seg + 1])
    swept_ok = bool(np.all(qs >= -1e-9 * (x1[:cross_seg + 1] ** 2
                                          + x2[:cross_seg + 1] ** 2)))
    passed = contraction < 1.0 and xc[0] > 0.0 and swept_ok
    return Certificate(
        "outer_sweep_contraction", passed,
        {"contraction": contraction, "t_cross": tc,
         "crossing_abscissa": float(xc[0]),
         # the scale-equivalent quantity: invariant under k -> 2k
         "abscissa_ratio": float(abs(xc[0] / x0[0]))},
        {"contraction_bound": 1.0}, {}, [])


# ---------------------------------------------------------------------------
# crossing-chain contraction and tuning
# ---------------------------------------------------------------------------

def _axis_times(traj: Trajectory) -> list:
    """The sorted times at which the trajectory visits the horizontal axis:
    every sample with x2 == 0.0, and every sign change of x2 over a sample
    segment, timed in closed form by crossing_time.  A time within 1e-9 of
    the span after the last time kept is the same visit and is dropped."""
    t = traj.times
    x2 = traj.states[:, 1]
    times = t[x2 == 0.0].tolist()
    times += [crossing_time(*traj.segment_flow(j), (0.0, 1.0))
              for j in np.flatnonzero(x2[:-1] * x2[1:] < 0.0).tolist()]
    merge = 1e-9 * (t[-1] - t[0])
    kept = []
    for time in sorted(times):
        if not kept or time - kept[-1] > merge:
            kept.append(time)
    return kept


def chain_contraction(traj: Trajectory, k: float) -> Certificate:
    """Between consecutive axis visits that are at least one time unit apart
    the norm must at least halve, with the surplus decaying exponentially in
    k; the largest such exponential rate and the global envelope constant
    are reported.  Every visit is timed in closed form (_axis_times)."""
    times = _axis_times(traj)
    notes = []
    if len(times) < 2:
        notes.append("fewer than two axis visits; prefix-only certificate")
    gamma = math.inf
    ratios = []
    for t_prev, t_next in zip(times, times[1:]):
        dt = t_next - t_prev
        if dt < _MIN_EXCURSION:
            continue
        n_prev = float(np.linalg.norm(traj.state_at(t_prev)))
        n_next = float(np.linalg.norm(traj.state_at(t_next)))
        ratios.append(n_next / n_prev)
        if ratios[-1] > 0.0:
            gamma = min(gamma, -math.log(2.0 * ratios[-1]) / (k * dt))
    measured = {"n_axis_visits": len(times), "n_qualifying": len(ratios)}
    g_env = 0.0
    if ratios:
        measured["gamma_star_hat"] = gamma
        measured["worst_halving_ratio"] = max(ratios)
        g_env = max(gamma, 0.0) if math.isfinite(gamma) else 0.0
    nrm = traj.norms()
    env = nrm / nrm[0]
    if g_env:
        env *= np.exp(k * g_env * (traj.times - traj.times[0]))
    measured["C3_sq_hat"] = float(np.max(env))
    passed = not ratios or gamma > 0.0
    return Certificate("axis_chain_contraction", passed, measured,
                       {"min_excursion": _MIN_EXCURSION}, {}, notes)


def chain_battery(cls: PeClass, rho: float, k: float, lam: float, battery,
                  x0_columns, horizon: float) -> Certificate:
    """Chain certificate over a battery.

    In the well-tuned regime trajectories are captured by the central cone
    after at most a couple of axis visits, so runs without qualifying
    excursions are the expected outcome; they pass vacuously and are
    counted, matching the prefix-only semantics of the per-run check."""
    if len(battery) == 0:
        raise InsufficientDataError("empty battery")
    runs = di_runs(cls, rho, k, lam, battery, x0_columns, horizon)
    certs = [chain_contraction(tr, k) for tr in runs]
    n_qual = sum(_values(certs, "n_qualifying"))
    notes = [] if n_qual else \
        ["no excursion lasted past the threshold; prefix-only certificate"]
    return _battery_certificate(
        "axis_chain_contraction_battery", all(c.passed for c in certs),
        {"n_qualifying": n_qual,
         "n_axis_visits": sum(_values(certs, "n_axis_visits")),
         "C3_sq_hat": max(_values(certs, "C3_sq_hat"), default=0.0),
         "gamma_star_hat": min(_values(certs, "gamma_star_hat"),
                               default=None)},
        {"min_excursion": _MIN_EXCURSION}, battery, notes)


# ---------------------------------------------------------------------------
# identities and limits
# ---------------------------------------------------------------------------

def rescaling_identity(k1: float, k2: float, alpha: PwcSignal, x0,
                       horizon: float) -> Certificate:
    """Exact anisotropic rescaling: Diag(1, lam) x(lam t; K) must equal the
    trajectory of the lam-scaled gain driven by the lam-fast signal, at all
    shared samples (steps of at most 1e-2 in the fast frame)."""
    x0 = np.asarray(x0, dtype=float)
    K = np.array([[-k1, -k2]])
    base_loop = ClosedLoop(A_DI, B_DI, K, alpha)
    worst = 0.0
    for lam in _RESCALING_LAMS:
        base = propagate(base_loop, 0.0, x0, lam * horizon,
                         max_step=lam * 1e-2)
        K_lam = np.array([[-lam * lam * k1, -lam * k2]])
        d = np.array([1.0, lam])
        scaled_loop = ClosedLoop(A_DI, B_DI, K_lam, rescale_time(alpha, lam))
        scaled = propagate(scaled_loop, 0.0, d * x0, horizon, max_step=1e-2)
        if len(base.times) != len(scaled.times):
            raise SimulationError("rescaled grids failed to align")
        lhs = base.states * d
        err = np.abs(lhs - scaled.states)
        scale = np.maximum(np.abs(scaled.states), 1.0)
        worst = max(worst, float(np.max(err / scale)))
    return Certificate("anisotropic_rescaling", worst <= 1e-9,
                       {"max_rel_error": worst},
                       {"bound": 1e-9, "lams": list(_RESCALING_LAMS)}, {}, [])


def multi_input_identity(B, k: float, battery, x0_list,
                         horizon: float) -> Certificate:
    """For a full-rank planar input matrix, the drift-stripped state must
    contract exactly like exp(-k int alpha), and the raw state must obey the
    induced envelope ||x|| <= ||e^{At}|| exp(-k int alpha) ||x0||."""
    if len(battery) == 0:
        raise InsufficientDataError("empty battery")
    if len(x0_list) == 0:
        raise InsufficientDataError("no initial state")
    B = as_matrix(B)
    K = multi_input_gain(B, k)
    worst_identity = 0.0
    worst_bound = -math.inf
    for sig in battery:
        loop = ClosedLoop(A_DI, B, K, sig)
        for x0 in x0_list:
            tr = propagate(loop, 0.0, x0, horizon)
            t = tr.times
            x = tr.states
            # e^{-At} x with the nilpotent drift: (x1 - t x2, x2)
            y = np.column_stack([x[:, 0] - t * x[:, 1], x[:, 1]])
            ynorm = np.linalg.norm(y, axis=1)
            ints = np.concatenate(([0.0],
                                   np.cumsum(tr.seg_alpha * np.diff(t))))
            target = ynorm[0] * np.exp(-k * ints)
            worst_identity = max(worst_identity, float(
                np.max(np.abs(ynorm - target) / np.maximum(target, 1e-300))))
            # ||e^{At}||_2 for the nilpotent drift, closed form
            t2 = t * t
            smax = np.sqrt((2.0 + t2 + t * np.sqrt(t2 + 4.0)) / 2.0)
            bound = smax * np.exp(-k * ints) * np.linalg.norm(x[0])
            gap = np.linalg.norm(x, axis=1) - bound * (1.0 + 1e-9)
            worst_bound = max(worst_bound, float(np.max(gap)))
    passed = worst_identity <= 1e-9 and worst_bound <= 0.0
    return _battery_certificate("gated_contraction_identity", passed,
                                {"max_identity_rel_error": worst_identity,
                                 "worst_envelope_gap": worst_bound},
                                {"identity_bound": 1e-9}, battery)


def weak_star_demo(A, B, K, x0, duty: float = 0.5, exponents=range(11),
                   horizon: float = 10.0) -> Certificate:
    """Fast square waves against their averaged limit.

    Square waves of period 1/i and on-fraction `duty` converge (in the
    averaged sense) to the constant `duty`; the closed-loop trajectories must
    converge uniformly on [0, horizon], with the sup-distance decreasing
    along i and below 1e-2 at the largest i.  An x0 that no gate
    value moves (A x0 = B K x0 = 0) fails as vacuous."""
    A = as_matrix(A, square=True)
    B = as_matrix(B)
    K = as_matrix(K)
    x0 = np.asarray(x0, dtype=float)
    i_values = [2 ** e for e in exponents]
    tolerance = {"final_tol": _WEAK_STAR_FINAL_TOL, "horizon": horizon}
    info = {"duty": duty, "i_max": i_values[-1]}
    if not np.any(A @ x0) and not np.any(B @ (K @ x0)):
        return Certificate(
            "averaged_limit_convergence", False, {}, tolerance, info,
            ["vacuous: x0 is an equilibrium for every gate value"])
    m_star = ClosedLoop(A, B, K, PwcSignal.constant(duty)).matrix(duty)
    dists = []
    for i in i_values:
        period = 1.0 / i
        sub = PeClass(period, duty * period)
        sig = make_duty(sub, on_value=1.0, pattern="front")
        max_step = min(period / 4.0, horizon / 2000.0)
        tr = propagate(ClosedLoop(A, B, K, sig), 0.0, x0, horizon, max_step)
        # the exact limit on the same sample grid: the averaged matrix with
        # no feedback, cut at the square wave's own switches
        star = propagate(ClosedLoop(m_star, B, np.zeros_like(K), sig), 0.0,
                         x0, horizon, max_step)
        dists.append(float(np.max(np.linalg.norm(tr.states - star.states,
                                                  axis=1))))
    # a constant sequence (every member equal to the limit) is flat at zero
    all_zero = max(dists) <= 1e-12
    decreasing = all_zero or all(b < a for a, b in zip(dists, dists[1:]))
    final_ok = dists[-1] <= _WEAK_STAR_FINAL_TOL
    (slope,), _ = _line_fits(np.log(i_values),
                             np.log(np.maximum(dists, 1e-300)),
                             np.array([len(dists)]))
    measured = {f"sup_dist_i_{i}": d for i, d in zip(i_values, dists)}
    measured["rate_hat"] = float(-slope)
    measured["final_dist"] = dists[-1]
    return Certificate("averaged_limit_convergence",
                       decreasing and final_ok, measured, tolerance, info, [])


def c_rho_closed_form(rho: float) -> float:
    """Optimal constant c with s^2 + s + rho/2 >= c (s^2 + 1) outside the
    central-cone slope band; endpoint/critical-point analysis of the ratio
    (s^2 + s + rho/2)/(s^2 + 1)."""
    if not (0.0 < rho < 1.0):
        raise DomainError("rho must lie in (0, 1)")
    lo = -(1.0 + math.sqrt(1.0 - rho)) / 2.0
    hi = -(1.0 - math.sqrt(1.0 - (2.0 - rho / 2.0) * rho)) / 2.0

    def g(s: float) -> float:
        return (s * s + s + rho / 2.0) / (s * s + 1.0)

    cands = [lo, hi]
    disc = math.sqrt((2.0 - rho) ** 2 + 4.0)
    for s in ((2.0 - rho - disc) / 2.0, (2.0 - rho + disc) / 2.0):
        if not (lo < s < hi):
            cands.append(s)
    return min(g(s) for s in cands)
