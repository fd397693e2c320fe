"""Test-side oracle: the measured outer-cone sojourns of the base-gain
double-integrator loop.

`c12_sojourns`, `dwell_times` and `dwell_scaling` measure every sojourn of
a battery's runs in the outer-cone union, timing both ends with
`crossing_time` on the cone edge crossed there, and compare the worst
closed dwell at k and at 2k.  `certify.dwell_bound` states the same lemma
in closed form; these functions are kept as the measurement it must bound,
and acceptance criterion 8 still reads `dwell_scaling`.
"""

import math

import numpy as np

from pestab.certify import Certificate, _battery_certificate, _runs, di_runs
from pestab.gains import ConeGeometry, cone_geometry
from pestab.signals import PeClass
from pestab.simcore import Trajectory, crossing_time

# dwell_scaling: the doubled-gain dwell over the base dwell, 1/2 plus 10%
_DWELL_RATIO_BOUND = 0.55


def c12_sojourns(traj: Trajectory, geom: ConeGeometry) -> list:
    """Maximal stays in the outer-cone union, with refined boundary times.

    The union of the two outer cones is one connected mod-pi arc around the
    horizontal axis, so a stay is a maximal run where the antipodal-invariant
    quadratic is non-negative.
    """
    x1 = traj.states[:, 0]
    x2 = traj.states[:, 1]
    q = geom.cs_quadratic(x1, x2)
    N = len(q)
    # q is the product of the cone edges' functionals x2 - xi x1, whose
    # normals are (-xi, 1); a sign change of q over a segment is a sign
    # change of exactly one of them
    edges = [np.array([-xi, 1.0])
             for xi in (geom.xi_s_plus, geom.xi_s_minus)]

    def edge_crossing(j):
        x_lo, x_hi = traj.states[j], traj.states[j + 1]
        c = next(c for c in edges if (c @ x_lo) * (c @ x_hi) <= 0.0)
        return crossing_time(*traj.segment_flow(j), c)

    out = []
    for i0, i1 in _runs(q >= 0.0):
        if i0 > 0:
            t_enter = edge_crossing(i0 - 1)
            left_censored = False
        else:
            t_enter = float(traj.times[0])
            left_censored = True
        if i1 < N - 1:
            t_exit = edge_crossing(i1)
            right_censored = False
        else:
            t_exit = float(traj.times[-1])
            right_censored = True
        out.append({"i0": i0, "i1": i1, "t_enter": t_enter, "t_exit": t_exit,
                    "left_censored": left_censored,
                    "right_censored": right_censored})
    return out


def dwell_times(traj: Trajectory, geom: ConeGeometry) -> Certificate:
    """Maximal sojourn lengths in the outer-cone union.

    Sojourns truncated by the end of the horizon cannot certify their own
    finiteness and are reported separately."""
    sojourns = c12_sojourns(traj, geom)
    closed = [s["t_exit"] - s["t_enter"] for s in sojourns
              if not s["right_censored"]]
    censored = [s["t_exit"] - s["t_enter"] for s in sojourns
                if s["right_censored"]]
    max_closed = max(closed) if closed else 0.0
    measured = {"max_dwell": max_closed, "n_sojourns": len(sojourns),
                "n_censored": len(censored)}
    notes = []
    passed = True
    if censored and not closed:
        passed = False
        notes.append("only a horizon-truncated sojourn was observed")
    if censored:
        measured["max_censored"] = max(censored)
    return Certificate("outer_cone_dwell", passed, measured, None, {}, notes)


def dwell_scaling(cls: PeClass, rho: float, k: float, lam_over_k: float,
                  battery, x0_columns) -> Certificate:
    """Doubling the gain scale k (at fixed lam/k) must at least halve the
    worst outer-cone dwell, within a 10% allowance; each run lasts 40/k."""

    def max_dwell(kk: float) -> float:
        lam = lam_over_k * kk
        geom = cone_geometry(rho, kk, cls.ratio)
        runs = di_runs(cls, rho, kk, lam, battery, x0_columns, 40.0 / kk)
        return max((dwell_times(tr, geom).measured["max_dwell"]
                    for tr in runs), default=0.0)

    d1 = max_dwell(k)
    d2 = max_dwell(2.0 * k)
    ratio = d2 / d1 if d1 > 0.0 else math.inf
    passed = ratio <= _DWELL_RATIO_BOUND
    return _battery_certificate(
        "dwell_scaling", passed,
        {"max_dwell_at_k": d1, "max_dwell_at_2k": d2, "ratio": ratio},
        {"ratio_bound": _DWELL_RATIO_BOUND}, battery)


def worst_sojourns(cls: PeClass, rho: float, kk: float, lam_over_k: float,
                   battery, x0_columns) -> tuple:
    """(max_dwell, max_censored) over dwell_scaling's runs at gain scale
    kk: the longest closed and the longest horizon-truncated sojourn, 0.0
    when there is none."""
    geom = cone_geometry(rho, kk, cls.ratio)
    certs = [dwell_times(tr, geom) for tr in
             di_runs(cls, rho, kk, lam_over_k * kk, battery, x0_columns,
                     40.0 / kk)]
    return tuple(max((c.measured.get(key, 0.0) for c in certs), default=0.0)
                 for key in ("max_dwell", "max_censored"))
