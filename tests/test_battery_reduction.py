"""Battery certificates against their hand-kept accumulator loops and
references.

`f_monotone_battery`, `cs_decay_battery` and `quadrant_battery` check the
stays of each member's runs in one array pass, `chain_battery` reduces one
certificate per run, and the test-side `dwell_scaling` oracle reduces its
runs the same way.
Loops that apply the public one-stay checks (`check_F_monotone`,
`check_cs_decay`, `check_quadrant_V`) window by window, and
`chain_contraction` run by run, are kept below as references, and on every
case here, none of them vacuous, the certificates must agree to the byte.

`estimate_eta` reads each member's floor over every initial state exactly,
as -2 log sigma_max(Phi(0, T)).  It is checked against the same formula on
a fine-step propagation, and against the trapezoid loop over a grid of
initial states that it replaced, which is kept as an oracle: on any grid
that loop never reads below the exact floor by more than its own
log-energy residual, and at the worst member's top right singular vector it
reproduces the floor.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dwell_oracle import _runs, dwell_scaling, dwell_times
from pestab import certify
from pestab.certify import (Certificate, c_rho_closed_form,
                            chain_contraction, check_cs_decay,
                            check_F_monotone, check_quadrant_V, di_runs,
                            unit_circle_grid)
from pestab.gains import A_ROTATION, cone_geometry
from pestab.signals import PeClass, PwcSignal, make_battery
from pestab.simcore import ClosedLoop, polar_lift, propagate_batch

CLS = PeClass(1.0, 0.5)
B_ROT = np.array([[0.0], [1.0]])
RHO, K, LAM = 0.2, 4.0, 8.0
SEEDS = (3, 11, 29)
_GEOM = cone_geometry(RHO, K, CLS.ratio)
GRIDS = {"circle4": unit_circle_grid(4),
         "off_grid": np.array([[0.6, -0.9], [0.8, 0.2]]),
         # starts exactly on the two central-cone edges, where the cone
         # quadratic is 0.0 and the closed cones meet
         "cone_edges": np.array([[-1.0, -1.0],
                                 [-_GEOM.xi_s_plus, -_GEOM.xi_s_minus]])}
# the benchmark horizon, then the CLI's ff00/ff01 (30/k) and ouf0 (20)
HORIZONS = (5.0, 30.0 / K, 20.0)
# a battery's first four members are fixed; the seed draws the rest
SIZE = 8
# a slow on-off gate whose sweeps reach the axis more than a time unit
# apart, so that chain excursions qualify
SLOW_GATE = PwcSignal.periodic((0.0, 0.5, 2.0), (1.0, 0.0))


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------

def ref_f_monotone_battery(cls, rho, k, lam, battery, x0_columns, horizon):
    runs = [polar_lift(tr) for tr in
            di_runs(cls, rho, k, lam, battery, x0_columns, horizon)]
    geom = cone_geometry(rho, k, cls.ratio)
    total_viol = 0
    worst_step = -math.inf
    c_hat = math.inf
    n_windows = 0
    n_sojourns = 0
    for tr in runs:
        for i0, i1 in _runs(geom.cs_quadratic(*tr.states.T) >= 0.0):
            if i1 - i0 < 2:
                continue
            sub = tr.window(i0, i1)
            cert = check_F_monotone(sub, rho, k, cls, lam)
            n_sojourns += 1
            total_viol += int(cert.measured["monotonicity_violations"])
            worst_step = max(worst_step, cert.measured["max_F_step_increase"])
            if "c_hat_window" in cert.measured:
                c_hat = min(c_hat, cert.measured["c_hat_window"])
                n_windows += int(cert.measured["n_windows"])
    measured = {"violations": total_viol, "worst_step": worst_step,
                "n_sojourns": n_sojourns, "n_windows": n_windows}
    if n_windows:
        measured["c_hat"] = c_hat
        measured["c_closed_form"] = c_rho_closed_form(rho)
    passed = total_viol == 0 and (n_windows == 0 or c_hat > 0.0)
    return Certificate("angle_reparam_monotone_battery", passed, measured,
                       {"f_slack": certify._F_SLACK},
                       {"size": len(battery)}, [])


def ref_cs_decay_battery(cls, rho, k, lam, battery, x0_columns, horizon):
    runs = di_runs(cls, rho, k, lam, battery, x0_columns, horizon)
    geom = cone_geometry(rho, k, cls.ratio)
    all_ok = True
    w_min, w_max = math.inf, -math.inf
    gammas = []
    c2s = []
    n_checked = 0
    for tr in runs:
        q = geom.cs_quadratic(tr.states[:, 0], tr.states[:, 1])
        for i0, i1 in _runs(q <= 0.0):
            if i1 - i0 < 3:
                continue
            cert = check_cs_decay(tr.window(i0, i1), rho, k, cls)
            all_ok = all_ok and cert.passed
            w_min = min(w_min, cert.measured["w_min"])
            w_max = max(w_max, cert.measured["w_max"])
            if "gamma_hat" in cert.measured:
                gammas.append(cert.measured["gamma_hat"])
                c2s.append(cert.measured["C2_hat"])
            n_checked += 1
    measured = {"stays_checked": n_checked, "w_min": w_min, "w_max": w_max}
    if gammas:
        measured["gamma_hat_min"] = float(min(gammas))
        measured["C2_hat_max"] = float(max(c2s))
    return Certificate("central_cone_decay_battery", all_ok and n_checked > 0,
                       measured, None, {"size": len(battery)}, [])


def ref_quadrant_battery(cls, rho, k, lam, battery, x0_columns, horizon):
    runs = di_runs(cls, rho, k, lam, battery, x0_columns, horizon)
    viol = 0
    worst = -math.inf
    n_checked = 0
    for tr in runs:
        x1, x2 = tr.states[:, 0], tr.states[:, 1]
        for i0, i1 in _runs((x1 <= 0.0) & (x2 >= 0.0)):
            if i1 > i0:
                cert = check_quadrant_V(tr.window(i0, i1), rho, k)
                viol += int(cert.measured.get("violations", 0))
                worst = max(worst, cert.measured["worst_increase"])
                n_checked += 1
    notes = [] if n_checked else [
        "vacuous: no run stayed in {x1 <= 0, x2 >= 0} for two samples"]
    return Certificate("quadrant_energy_battery", viol == 0 and n_checked > 0,
                       {"violations": viol, "worst_increase": worst,
                        "stays_checked": n_checked},
                       certify._ENERGY_SLACK, {"size": len(battery)}, notes)


def ref_chain_battery(cls, rho, k, lam, battery, x0_columns, horizon):
    runs = di_runs(cls, rho, k, lam, battery, x0_columns, horizon)
    gamma = math.inf
    c3 = 0.0
    n_qual = 0
    n_visits = 0
    all_pass = True
    for tr in runs:
        cert = chain_contraction(tr, k)
        all_pass = all_pass and cert.passed
        n_qual += int(cert.measured["n_qualifying"])
        n_visits += int(cert.measured["n_axis_visits"])
        if "gamma_star_hat" in cert.measured:
            gamma = min(gamma, cert.measured["gamma_star_hat"])
        c3 = max(c3, cert.measured["C3_sq_hat"])
    measured = {"n_qualifying": n_qual, "n_axis_visits": n_visits,
                "C3_sq_hat": c3}
    if n_qual:
        measured["gamma_star_hat"] = gamma
    notes = [] if n_qual else \
        ["no excursion lasted past the threshold; prefix-only certificate"]
    return Certificate("axis_chain_contraction_battery", all_pass, measured,
                       {"min_excursion": 1.0},
                       {"size": len(battery)}, notes)


def ref_max_dwell(cls, rho, kk, lam_over_k, battery, x0_columns,
                  horizon_factor=40.0):
    """dwell_scaling's worst outer-cone dwell at one gain scale."""
    geom = cone_geometry(rho, kk, cls.ratio)
    runs = di_runs(cls, rho, kk, lam_over_k * kk, battery, x0_columns,
                   horizon_factor / kk)
    worst = 0.0
    for tr in runs:
        cert = dwell_times(tr, geom)
        worst = max(worst, cert.measured["max_dwell"])
    return worst


def ref_phis(A, B, cls, battery):
    """Each member's window transition matrix Phi(0, T), as the end states
    of the identity's columns under steps of at most 1e-3 T."""
    phis = []
    for sig in battery:
        loop = ClosedLoop(A, B, -B.T, sig)
        runs = propagate_batch(loop, 0.0, np.eye(len(A)), cls.T,
                               max_step=1e-3 * cls.T)
        phis.append(np.column_stack([tr.states[-1] for tr in runs]))
    return phis


def ref_eta(A, B, cls, battery):
    """Each member's exact floor -2 log sigma_max(Phi(0, T))."""
    return np.array([-2.0 * math.log(np.linalg.norm(phi, 2))
                     for phi in ref_phis(A, B, cls, battery)])


def ref_eta_measured(A, B, cls, battery, x0, step_frac=1e-3):
    """The trapezoid loop estimate_eta ran before it read the floor
    exactly: the least one-window integral of alpha |B^T x|^2 / v over the
    initial states x0 (columns) and the battery, and the largest gap
    between an integral and the drop of log v it should equal."""
    step = step_frac * cls.T
    eta_hat = math.inf
    worst_vint = 0.0
    for sig in battery:
        loop = ClosedLoop(A, B, -B.T, sig)
        runs = propagate_batch(loop, 0.0, x0, cls.T, max_step=step)
        for tr in runs:
            v = 0.5 * np.sum(tr.states ** 2, axis=1)
            g = np.sum((tr.states @ B) ** 2, axis=1) / v
            dt = np.diff(tr.times)
            integral = float(np.sum(tr.seg_alpha * 0.5 * (g[:-1] + g[1:]) * dt))
            eta_hat = min(eta_hat, integral)
            resid = abs(math.log(v[-1] / v[0]) + integral)
            worst_vint = max(worst_vint, resid)
    return eta_hat, worst_vint


def cert_text(cert):
    return json.dumps(cert.to_json(), sort_keys=True)


# ---------------------------------------------------------------------------
# the reductions agree with the loops
# ---------------------------------------------------------------------------

REFERENCES = (
    (certify.f_monotone_battery, ref_f_monotone_battery, "n_sojourns"),
    (certify.cs_decay_battery, ref_cs_decay_battery, "stays_checked"),
    (certify.quadrant_battery, ref_quadrant_battery, "stays_checked"),
    (certify.chain_battery, ref_chain_battery, "n_axis_visits"),
)


@pytest.mark.parametrize("horizon", HORIZONS)
@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_battery_certificates_match_loops(seed, grid, horizon):
    bat = make_battery(CLS, SIZE, seed).signals
    x0 = GRIDS[grid]
    for fn, ref, count in REFERENCES:
        want = ref(CLS, RHO, K, LAM, bat, x0, horizon)
        assert want.measured[count] > 0, (fn.__name__, "vacuous case")
        got = fn(CLS, RHO, K, LAM, bat, x0, horizon)
        assert cert_text(got) == cert_text(want), fn.__name__
        assert list(got.measured) == list(want.measured), fn.__name__


def _dwell_case(seed, grid):
    if seed is None:
        # one run, whose dwell is then the battery maximum
        return [PwcSignal.constant(CLS.ratio)], np.array([[-1.0], [1e-3]])
    return make_battery(CLS, SIZE, seed).signals, GRIDS[grid]


@pytest.mark.parametrize("seed,grid", [(seed, grid) for seed in SEEDS
                                       for grid in sorted(GRIDS)]
                         + [(None, "one_run")])
def test_dwell_scaling_matches_loop(seed, grid):
    bat, x0 = _dwell_case(seed, grid)
    cert = dwell_scaling(CLS, RHO, K, 2.0, bat, x0)
    d1 = ref_max_dwell(CLS, RHO, K, 2.0, bat, x0)
    d2 = ref_max_dwell(CLS, RHO, 2.0 * K, 2.0, bat, x0)
    assert d1 > 0.0 and d2 > 0.0
    assert cert.tolerance == {"ratio_bound": 0.55}
    assert cert.measured["max_dwell_at_k"] == d1
    assert cert.measured["max_dwell_at_2k"] == d2


@pytest.mark.parametrize("seed", SEEDS)
def test_estimate_eta_matches_member_loop(seed):
    bat = make_battery(CLS, SIZE, seed).signals
    cert = certify.estimate_eta(A_ROTATION, B_ROT, CLS, bat)
    eta = ref_eta(A_ROTATION, B_ROT, CLS, bat)
    eta_hat = cert.measured["eta_hat"]
    assert abs(eta_hat - eta.min()) <= 1e-12
    assert abs(eta[cert.measured["worst_member"]] - eta_hat) <= 1e-12
    assert cert.measured["positivity_margin"] == eta_hat - certify._ETA_MARGIN
    assert cert.tolerance == {"eta_margin": certify._ETA_MARGIN}


def test_estimate_eta_on_the_acceptance_battery():
    # the battery of acceptance criterion 4; its single-block duties tie
    # exactly, since e^{tA} is orthogonal, so only the value of the named
    # member is fixed, not its index
    bat = make_battery(CLS, 200, seed=4).signals
    cert = certify.estimate_eta(A_ROTATION, B_ROT, CLS, bat)
    eta = ref_eta(A_ROTATION, B_ROT, CLS, bat)
    eta_hat = cert.measured["eta_hat"]
    assert abs(eta_hat - eta.min()) <= 1e-12
    assert abs(eta[cert.measured["worst_member"]] - eta_hat) <= 1e-12
    assert eta_hat == pytest.approx(0.0200976, abs=1e-7)


def test_estimate_eta_matches_reference_in_four_dimensions():
    rng = np.random.default_rng(17)
    S = rng.standard_normal((4, 4))
    A, B = S - S.T, rng.standard_normal((4, 2))
    bat = make_battery(CLS, SIZE, seed=17).signals
    cert = certify.estimate_eta(A, B, CLS, bat)
    eta = ref_eta(A, B, CLS, bat)
    assert abs(cert.measured["eta_hat"] - eta.min()) <= 1e-12
    assert abs(eta[cert.measured["worst_member"]] - eta.min()) <= 1e-12


ETA_CLASSES = (CLS, PeClass(2.0, 0.5), PeClass(4.0, 1.0), PeClass(4.0, 2.0))


@pytest.mark.parametrize("cls", ETA_CLASSES, ids=lambda c: f"{c.T}-{c.mu}")
@pytest.mark.parametrize("seed", SEEDS)
def test_quadrature_never_undercuts_the_exact_eta(seed, cls):
    bat = make_battery(cls, SIZE, seed).signals
    eta = ref_eta(A_ROTATION, B_ROT, cls, bat)
    phi = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 6)
    grids = (unit_circle_grid(6), np.vstack([np.cos(phi), np.sin(phi)]))
    for x0 in grids:
        for sig, exact in zip(bat, eta):
            quad, resid = ref_eta_measured(A_ROTATION, B_ROT, cls, [sig], x0)
            assert quad >= exact - resid


@pytest.mark.parametrize("cls", ETA_CLASSES, ids=lambda c: f"{c.T}-{c.mu}")
@pytest.mark.parametrize("seed", SEEDS)
def test_quadrature_reproduces_eta_at_the_top_singular_vector(seed, cls):
    bat = make_battery(cls, SIZE, seed).signals
    cert = certify.estimate_eta(A_ROTATION, B_ROT, cls, bat)
    eta_hat = cert.measured["eta_hat"]
    worst = cert.measured["worst_member"]
    phi, = ref_phis(A_ROTATION, B_ROT, cls, [bat[worst]])
    v = np.linalg.svd(phi)[2][0]
    quad, resid = ref_eta_measured(A_ROTATION, B_ROT, cls, [bat[worst]],
                                   v[:, None])
    # the old loop's budget, and the gap is that run's own residual: from
    # the top singular vector, log v falls by exactly eta_hat
    assert abs(quad - eta_hat) <= 2e-5 * (1.0 + eta_hat)
    assert abs(abs(quad - eta_hat) - resid) <= 1e-10


# ---------------------------------------------------------------------------
# stays, vacuous batteries and the chain
# ---------------------------------------------------------------------------

def test_f_monotone_battery_finds_no_roots():
    bat = make_battery(CLS, SIZE, SEEDS[0]).signals
    x0 = GRIDS["circle4"]
    with mock.patch.object(certify, "crossing_time",
                           wraps=certify.crossing_time) as spy:
        cert = certify.f_monotone_battery(CLS, RHO, K, LAM, bat, x0, 5.0)
        assert cert.passed and cert.measured["n_sojourns"] > 0
        assert spy.call_count == 0


def test_stays_keep_runs_of_at_least_min_steps():
    # stays of 0, 1, 2 and 3 steps in the set {x1 <= 0}, along two rows
    x1 = np.array([[-1.0, 1.0, 0.0, -1.0, 1.0, -1.0, -2.0, -3.0, 1.0],
                   [0.0, -1.0, -2.0, -3.0, 1.0, 1.0, 1.0, 1.0, -1.0]])

    def stays(min_steps):
        # (row, first, last) of each stay, from its flat sample indices
        idx, lens = certify._stays(x1 <= 0.0, min_steps)
        out = []
        for seg in np.split(idx, np.cumsum(lens)[:-1]):
            assert np.array_equal(seg, np.arange(seg[0], seg[-1] + 1))
            out.append((int(seg[0] // 9), int(seg[0] % 9),
                        int(seg[-1] % 9)))
        return out

    assert stays(0) == [(0, 0, 0), (0, 2, 3), (0, 5, 7), (1, 0, 3),
                        (1, 8, 8)]
    assert stays(1) == [(0, 2, 3), (0, 5, 7), (1, 0, 3)]
    assert stays(2) == [(0, 5, 7), (1, 0, 3)]
    assert stays(3) == [(1, 0, 3)]


def ref_stays(inside, min_steps):
    """_stays by _runs, row by row: the flat sample indices and the length
    of each run of True that lasts at least min_steps steps."""
    N = inside.shape[1]
    idx, lens = [], []
    for r, row in enumerate(inside):
        for i0, i1 in _runs(row):
            if i1 - i0 >= min_steps:
                idx += range(r * N + i0, r * N + i1 + 1)
                lens.append(i1 - i0 + 1)
    return idx, lens


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 9).flatmap(lambda N: st.lists(
           st.lists(st.booleans(), min_size=N, max_size=N),
           min_size=1, max_size=4)),
       st.integers(1, 3))
# all-True and all-False rows
@example([[True] * 6, [False] * 6, [True] * 6], 1)
@example([[True] * 4, [False] * 4], 3)
@example([[True] * 3, [True] * 3], 3)
# stays touching both row ends, and runs that meet across a row boundary
@example([[True, True, False, True, True], [True, False, False, False, True]],
         1)
@example([[False, True, True], [True, True, False]], 1)
@example([[False, True, True, True], [True, True, True, False]], 2)
# one sample per row: no step
@example([[True], [True]], 1)
def test_stays_match_runs_row_by_row(rows, min_steps):
    inside = np.array(rows, dtype=bool)
    idx, lens = certify._stays(inside, min_steps)
    want_idx, want_lens = ref_stays(inside, min_steps)
    assert idx.tolist() == want_idx
    assert lens.tolist() == want_lens


def _wedge_start():
    """A start inside the flow-invariant wedge between the constant-gate
    eigendirections, which lies strictly inside the central cone."""
    return np.array([[-1.0], [-0.5 * (_GEOM.xi_r_plus + _GEOM.xi_r_minus)]])


def test_f_monotone_battery_without_stays_is_vacuous():
    cert = certify.f_monotone_battery(CLS, RHO, K, LAM,
                                      [PwcSignal.constant(0.5)],
                                      _wedge_start(), 3.0)
    assert not cert.passed
    assert cert.measured["n_sojourns"] == 0
    assert "worst_step" not in cert.measured
    assert cert.notes[0].startswith("vacuous: ")
    json.dumps(cert.to_json(), allow_nan=False)


def test_cs_decay_battery_without_stays_is_vacuous():
    # with the gate off, a start on the horizontal axis never moves, and
    # the axis lies in the outer cones
    cert = certify.cs_decay_battery(CLS, RHO, K, LAM,
                                    [PwcSignal.constant(0.0)],
                                    np.array([[1.0], [0.0]]), 3.0)
    assert not cert.passed
    assert cert.measured == {"stays_checked": 0}
    assert cert.notes[0].startswith("vacuous: ")
    json.dumps(cert.to_json(), allow_nan=False)


@pytest.mark.parametrize("slow", (False, True))
@pytest.mark.parametrize("seed", SEEDS)
def test_chain_battery(seed, slow):
    bat = make_battery(CLS, SIZE, seed).signals + [SLOW_GATE] * slow
    lam = 1.0 if slow else LAM
    cert = certify.chain_battery(CLS, RHO, K, lam, bat, GRIDS["circle4"],
                                 20.0)
    assert cert.passed
    assert cert.measured["n_axis_visits"] > 0
    assert (cert.measured["n_qualifying"] > 0) == slow
    assert ("gamma_star_hat" in cert.measured) == slow
    want = ref_chain_battery(CLS, RHO, K, lam, bat, GRIDS["circle4"], 20.0)
    assert cert_text(cert) == cert_text(want)
