"""Certificate post-processing against per-sample reference loops.

`polar_lift`, `check_V_neutral`, `check_F_monotone`, `check_quadrant_V`
and `comparison_c2` scan their samples with array operations.  The scalar
loops they replace are kept below as reference implementations, and every
output is compared with them bit for bit on random periodic and held
signals.

`chain_contraction` and `chain_battery` time every axis crossing in
closed form.  The per-segment loop that times the visits and then tests
each gap is kept as a reference, and their certificates must agree with it
to the byte: on random runs, on batteries, on a slow gate whose excursions
qualify, on exact-zero stalls and on crossings in adjacent segments.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unittest import mock

from pestab import certify, simcore
from pestab.certify import (Certificate, _runs, chain_battery,
                            chain_contraction, check_F_monotone,
                            check_quadrant_V, check_V_neutral, comparison_c2,
                            unit_circle_grid)
from pestab.gains import (A_DI, A_ROTATION, B_DI, cone_geometry,
                          di_base_gain)
from pestab.matkit import one_norm
from pestab.signals import PeClass, PwcSignal, make_battery
from pestab.simcore import (ClosedLoop, Trajectory, crossing_time, fmap_F,
                            polar_lift, propagate, propagate_batch)

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)

CLS = PeClass(1.0, 0.5)
_UNITS = (1.0 / 16.0, 0.1)
_LEVELS = (0.0, 0.5, 1.0)
B_ROT = np.array([[0.0], [1.0]])


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------

def ref_theta(traj):
    """Nearest-branch unwrap, one sample at a time."""
    base = np.arctan2(traj.states[:, 1], traj.states[:, 0])
    theta = np.empty_like(base)
    theta[0] = base[0] if base[0] != -np.pi else np.pi
    two_pi = 2.0 * np.pi
    for j in range(1, len(base)):
        theta[j] = base[j] + two_pi * np.round((theta[j - 1] - base[j]) / two_pi)
    return theta


def ref_check_V_neutral(traj, B, r=1.0):
    """The energy-identity check with one matrix norm per sample."""
    V = 0.5 * np.sum(traj.states ** 2, axis=1)
    dV = np.diff(V)
    slack = certify._ENERGY_SLACK * V[:-1] + 1e-300
    mono_viol = int(np.sum(dV > slack))
    worst_mono = float(np.max(dV - slack)) if len(dV) else 0.0
    bn2 = np.sum((traj.states @ B) ** 2, axis=1)
    a = traj.seg_alpha
    max_err = 0.0
    max_tol = 0.0
    for j in range(1, len(traj.times) - 1):
        if a[j - 1] != a[j]:
            continue
        h1 = traj.times[j] - traj.times[j - 1]
        h2 = traj.times[j + 1] - traj.times[j]
        if abs(h1 - h2) > 1e-12 * max(h1, h2):
            continue
        cd = (V[j + 1] - V[j - 1]) / (h1 + h2)
        model = -r * a[j] * bn2[j]
        m = traj.loop.matrix(float(a[j]))
        scale = (one_norm(m) + 1.0) ** 3 * (2.0 * V[j])
        tol = 2.0 * h1 * h1 * scale + 1e-300
        err = abs(cd - model)
        max_err = max(max_err, err)
        max_tol = max(max_tol, tol)
        if err > tol:
            return Certificate(
                "energy_identity", False,
                {"worst_derivative_error": err, "tolerance_at_worst": tol,
                 "monotonicity_violations": mono_viol},
                certify._ENERGY_SLACK, {},
                [f"derivative mismatch at sample {j}"])
    return Certificate(
        "energy_identity", mono_viol == 0,
        {"monotonicity_violations": mono_viol, "worst_increase": worst_mono,
         "max_derivative_error": max_err, "max_derivative_tol": max_tol},
        certify._ENERGY_SLACK, {}, [])


def ref_windows(traj, k, cls, lam):
    """(c_hat, n_windows) of the window-drop scan."""
    F = fmap_F(traj.channels["theta"], k)
    t = traj.times
    c_hat = math.inf
    n_windows = 0
    ends = np.searchsorted(t, t + cls.T / lam, side="left")
    for i in range(len(t)):
        j = ends[i]
        if j >= len(t):
            break
        c_hat = min(c_hat, (F[i] - F[j]) * lam / (cls.mu * k))
        n_windows += 1
    return c_hat, n_windows


def ref_axis_representatives(traj):
    x2 = traj.states[:, 1]
    times = []
    span = traj.times[-1] - traj.times[0]
    for j in range(len(x2) - 1):
        if x2[j] == 0.0:
            times.append(float(traj.times[j]))
        elif x2[j] * x2[j + 1] < 0.0:
            times.append(crossing_time(*traj.segment_flow(j), (0.0, 1.0)))
    if len(x2) and x2[-1] == 0.0:
        times.append(float(traj.times[-1]))
    merged = []
    for t in sorted(times):
        if not merged or t - merged[-1] > 1e-9 * span:
            merged.append(t)
    return merged


def ref_chain_contraction(traj, k):
    """chain_contraction as it ran when it root-found every axis crossing
    (ref_axis_representatives) before any gap test."""
    reps = ref_axis_representatives(traj)
    gamma = math.inf
    ratios = []
    for t_prev, t_next in zip(reps, reps[1:]):
        dt = t_next - t_prev
        if dt < 1.0:
            continue
        n_prev = float(np.linalg.norm(traj.state_at(t_prev)))
        n_next = float(np.linalg.norm(traj.state_at(t_next)))
        ratios.append(n_next / n_prev)
        if ratios[-1] > 0.0:
            gamma = min(gamma, -math.log(2.0 * ratios[-1]) / (k * dt))
    measured = {"n_axis_visits": len(reps), "n_qualifying": len(ratios)}
    g_env = 0.0
    if ratios:
        measured["gamma_star_hat"] = gamma
        measured["worst_halving_ratio"] = max(ratios)
        g_env = max(gamma, 0.0) if math.isfinite(gamma) else 0.0
    nrm = traj.norms()
    env = nrm / nrm[0] * np.exp(k * g_env * (traj.times - traj.times[0]))
    measured["C3_sq_hat"] = float(np.max(env))
    notes = [] if len(reps) >= 2 else [
        "fewer than two axis visits; prefix-only certificate"]
    return Certificate("axis_chain_contraction", not ratios or gamma > 0.0,
                       measured, {"min_excursion": 1.0}, {}, notes)


def ref_chain_battery(cls, rho, k, lam, battery, x0_columns, horizon):
    certs = [ref_chain_contraction(tr, k) for tr in certify.di_runs(
        cls, rho, k, lam, battery, x0_columns, horizon)]
    n_qual = sum(c.measured["n_qualifying"] for c in certs)
    gammas = [c.measured["gamma_star_hat"] for c in certs
              if "gamma_star_hat" in c.measured]
    measured = {"n_qualifying": n_qual,
                "n_axis_visits": sum(c.measured["n_axis_visits"]
                                     for c in certs),
                "C3_sq_hat": max(c.measured["C3_sq_hat"] for c in certs)}
    if gammas:
        measured["gamma_star_hat"] = min(gammas)
    notes = [] if n_qual else [
        "no excursion lasted past the threshold; prefix-only certificate"]
    return Certificate("axis_chain_contraction_battery",
                       all(c.passed for c in certs), measured,
                       {"min_excursion": 1.0}, {"size": len(battery)}, notes)


def ref_quadrant_prefix(traj):
    n_prefix = 0
    for x1, x2 in traj.states:
        if not (x1 <= 0.0 and x2 >= 0.0):
            break
        n_prefix += 1
    return n_prefix


def ref_c2_t_cross(rho, k, ratio):
    """t_cross of comparison_c2 by a scan for the first downward crossing,
    or None without one."""
    geom = cone_geometry(rho, k, ratio)
    x0 = np.array([-1.0, -geom.xi_s_plus])
    loop = ClosedLoop(A_DI, B_DI, di_base_gain(rho, k),
                      PwcSignal.constant(ratio))
    tr = propagate(loop, 0.0, x0 / np.linalg.norm(x0), 60.0 / k)
    x2 = tr.states[:, 1]
    for j in range(len(x2) - 1):
        if x2[j] > 0.0 and x2[j + 1] <= 0.0:
            return crossing_time(*tr.segment_flow(j), (0.0, 1.0))
    return None


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def cert_text(cert):
    return json.dumps(cert.to_json(), sort_keys=True)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def signals(draw):
    unit = draw(st.sampled_from(_UNITS))
    widths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    bp = np.concatenate([[0.0], np.cumsum(widths) * unit])
    values = draw(st.lists(
        st.one_of(st.sampled_from(_LEVELS), st.floats(0.0, 1.0)),
        min_size=len(widths), max_size=len(widths)))
    if draw(st.booleans()):
        return PwcSignal.periodic(bp, values)
    return PwcSignal.held(bp, values, hold=draw(st.sampled_from(_LEVELS)))


# x0 on the negative axis with x2 = -0.0 starts exactly at -pi
_SPECIAL_STARTS = ((-1.0, -0.0), (1.0, -0.0), (1.0, 0.0), (-1.0, 0.0),
                   (0.0, 1.0))


@st.composite
def planar_starts(draw):
    if draw(st.booleans()):
        return np.array(draw(st.sampled_from(_SPECIAL_STARTS)))
    phi = draw(st.floats(-math.pi, math.pi))
    return np.array([math.cos(phi), math.sin(phi)])


@st.composite
def planar_runs(draw):
    """Runs of a random rotating planar loop; ||M(a)||_2 <= 6 and steps of
    at most 0.25 keep every swing below the pi/2 polar_lift refuses."""
    entries = st.floats(-1.0, 1.0)
    w = draw(st.sampled_from((-3.0, -1.0, 0.0, 0.4, 2.5)))
    E = 0.5 * np.array(draw(st.lists(entries, min_size=4, max_size=4)))
    A = w * np.array([[0.0, 1.0], [-1.0, 0.0]]) + E.reshape(2, 2)
    B = np.array(draw(st.lists(entries, min_size=2, max_size=2)))
    K = np.array(draw(st.lists(entries, min_size=2, max_size=2)))
    loop = ClosedLoop(A, B.reshape(2, 1), K.reshape(1, 2), draw(signals()))
    horizon = draw(st.sampled_from((0.5, 4.0, 15.0)))
    max_step = draw(st.sampled_from((0.25, 0.05, 0.01)))
    return propagate(loop, 0.0, draw(planar_starts()), horizon, max_step)


@st.composite
def neutral_runs(draw):
    """Transpose-feedback runs of a skew drift, n = 2 or 3."""
    n = draw(st.sampled_from((2, 3)))
    entries = st.floats(-1.0, 1.0)
    S = 2.0 * np.array(draw(st.lists(entries, min_size=n * n,
                                     max_size=n * n))).reshape(n, n)
    A = S - S.T
    B = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    B[0] += 2.0
    B = B.reshape(n, 1)
    r = draw(st.sampled_from((1.0, 3.0)))
    loop = ClosedLoop(A, B, -r * B.T, draw(signals()))
    x0 = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    x0[0] += 2.0
    tr = propagate(loop, 0.0, x0, draw(st.floats(0.2, 6.0)),
                   draw(st.sampled_from((0.1, 0.013, 0.004))))
    return tr, B, r


@st.composite
def di_runs(draw):
    """Base-gain double-integrator runs, polar-lifted, with their gain."""
    rho = draw(st.sampled_from((0.05, 0.2, 0.24)))
    k = draw(st.sampled_from((1.0, 2.0, 4.0)))
    loop = ClosedLoop(A_DI, B_DI, di_base_gain(rho, k), draw(signals()))
    tr = propagate(loop, 0.0, draw(planar_starts()), draw(st.floats(0.5, 6.0)))
    return polar_lift(tr), rho, k


# ---------------------------------------------------------------------------
# polar unwrap
# ---------------------------------------------------------------------------

@PROPERTY
@given(planar_runs())
def test_polar_theta_matches_nearest_branch_loop(tr):
    lifted = polar_lift(tr)
    assert same_bits(lifted.channels["theta"], ref_theta(tr))
    assert same_bits(lifted.channels["r"], np.hypot(tr.states[:, 0],
                                                    tr.states[:, 1]))


@PROPERTY
@given(di_runs())
def test_polar_theta_matches_on_double_integrator(case):
    tr, _, _ = case
    assert same_bits(tr.channels["theta"], ref_theta(tr))


def test_polar_start_at_minus_pi():
    loop = ClosedLoop(A_ROTATION, B_ROT, -B_ROT.T, PwcSignal.constant(0.5))
    for x0 in ([-1.0, -0.0], [-1.0, 0.0]):
        tr = propagate(loop, 0.0, x0, 20.0)
        theta = polar_lift(tr).channels["theta"]
        assert theta[0] == np.pi
        assert same_bits(theta, ref_theta(tr))


@pytest.mark.parametrize("prev", [-0.1, 0.1, 0.0, -0.0])
def test_polar_signed_zero_follows_recursion(prev):
    # a sample at exactly -0.0 after a negative angle stays -0.0 in the
    # recursion; after a non-negative one it becomes +0.0
    loop = ClosedLoop(A_ROTATION, B_ROT, -B_ROT.T, PwcSignal.constant(0.0))
    states = np.array([[1.0, prev], [1.0, -0.0], [1.0, 0.1], [1.0, -0.0]])
    tr = Trajectory(loop, np.array([0.0, 0.1, 0.2, 0.3]), states,
                    np.zeros(3))
    assert same_bits(polar_lift(tr).channels["theta"], ref_theta(tr))


# ---------------------------------------------------------------------------
# energy identity
# ---------------------------------------------------------------------------

@PROPERTY
@given(neutral_runs())
def test_energy_identity_matches_loop(case):
    tr, B, r = case
    assert cert_text(check_V_neutral(tr, B, r)) == \
        cert_text(ref_check_V_neutral(tr, B, r))


@PROPERTY
@given(neutral_runs(), st.floats(0.0, 1.0),
       st.sampled_from((1e-2, -1e-3, 1e-7)))
def test_energy_identity_fail_matches_loop(case, where, rel):
    tr, B, r = case
    states = tr.states.copy()
    states[int(where * (len(states) - 1))] *= 1.0 + rel
    bent = Trajectory(tr.loop, tr.times, states, tr.seg_alpha)
    assert cert_text(check_V_neutral(bent, B, r)) == \
        cert_text(ref_check_V_neutral(bent, B, r))


def test_energy_identity_fail_names_first_sample():
    loop = ClosedLoop(A_ROTATION, B_ROT, -B_ROT.T, PwcSignal.constant(0.5))
    tr = propagate(loop, 0.0, [1.0, 0.0], 2.0, max_step=0.01)
    states = tr.states.copy()
    states[50] *= 1.0 + 1e-3
    bent = Trajectory(loop, tr.times, states, tr.seg_alpha)
    cert = check_V_neutral(bent, B_ROT)
    ref = ref_check_V_neutral(bent, B_ROT)
    assert not cert.passed
    assert cert.notes == ["derivative mismatch at sample 49"] == ref.notes
    assert cert_text(cert) == cert_text(ref)
    assert cert.measured["worst_derivative_error"] > \
        cert.measured["tolerance_at_worst"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("top", [1e150, 1e153])
def test_energy_identity_keeps_the_loop_arithmetic_below_overflow(top):
    # a run beyond 2^480 is checked at a power-of-two scale, which is
    # exact: where the loop's squares and tolerances stay finite, every
    # bit of the certificate is the loop's
    loop = ClosedLoop(A_ROTATION, B_ROT, -B_ROT.T, PwcSignal.constant(0.5))
    for bend in (0.0, 1e-3):
        tr = propagate(loop, 0.0, [top, 0.0], 2.0, max_step=0.01)
        states = tr.states.copy()
        states[50] *= 1.0 + bend
        bent = Trajectory(loop, tr.times, states, tr.seg_alpha)
        assert cert_text(check_V_neutral(bent, B_ROT)) == \
            cert_text(ref_check_V_neutral(bent, B_ROT))


def test_energy_identity_one_norm_per_level(monkeypatch):
    # one matrix norm per distinct gate level, not one per sample
    sig = PwcSignal.periodic((0.0, 0.25, 0.5, 1.0), (0.0, 0.5, 1.0))
    loop = ClosedLoop(A_ROTATION, B_ROT, -B_ROT.T, sig)
    tr = propagate(loop, 0.0, [1.0, 0.0], 3.0, max_step=0.01)
    calls = []
    real = certify.one_norm
    monkeypatch.setattr(certify, "one_norm",
                        lambda m: calls.append(1) or real(m))
    assert check_V_neutral(tr, B_ROT).passed
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# window drops, axis visits, quadrant prefix, first crossing
# ---------------------------------------------------------------------------

@PROPERTY
@given(di_runs(), st.sampled_from((0.5, 1.0)), st.sampled_from((1.0, 4.0, 8.0)))
def test_window_scan_matches_loop(case, T, lam):
    tr, rho, k = case
    cls = PeClass(T, 0.5 * T)
    geom = cone_geometry(rho, k, cls.ratio)
    for i0, i1 in _runs(geom.cs_quadratic(*tr.states.T) >= 0.0):
        if i1 - i0 < 2:
            continue
        sub = tr.window(i0, i1)
        got = check_F_monotone(sub, rho, k, cls, lam).measured
        c_hat, n_windows = ref_windows(sub, k, cls, lam)
        assert got["n_windows"] == n_windows
        if n_windows:
            assert same_bits(got["c_hat_window"], c_hat)
        else:
            assert "c_hat_window" not in got


@PROPERTY
@given(di_runs())
def test_axis_representatives_match_loop(case):
    # the certificate counts the visits the loop root-finds and reads the
    # same times wherever a gap needs them
    tr, _, k = case
    cert = chain_contraction(tr, k)
    assert cert.measured["n_axis_visits"] == len(ref_axis_representatives(tr))
    assert cert_text(cert) == cert_text(ref_chain_contraction(tr, k))


def _axis_run(times, x2):
    """A hand-made base-gain run with the given x2 samples and x1 = 1."""
    loop = ClosedLoop(A_DI, B_DI, di_base_gain(0.2, 1.0),
                      PwcSignal.constant(1.0))
    states = np.column_stack([np.ones(len(x2)), x2])
    return Trajectory(loop, np.array(times), states,
                      np.ones(len(times) - 1))


def test_axis_representatives_exact_zeros():
    # exact zeros at the first, an interior and the last sample, plus two
    # sign changes
    loop = ClosedLoop(A_DI, B_DI, di_base_gain(0.2, 4.0),
                      PwcSignal.constant(0.5))
    states = np.array([[1.0, 0.0], [0.5, 0.2], [0.4, -0.1], [0.3, 0.0],
                       [0.2, 0.1], [0.1, -0.1], [0.0, 0.0]])
    tr = Trajectory(loop, np.linspace(0.0, 0.6, 7), states, np.full(6, 0.5))
    assert len(ref_axis_representatives(tr)) == 5
    cert = chain_contraction(tr, 4.0)
    assert cert.measured["n_axis_visits"] == 5
    assert cert_text(cert) == cert_text(ref_chain_contraction(tr, 4.0))


# (times, x2): crossings in adjacent segments whose roots merge (1e-12
# apart) and start a qualifying gap, adjacent crossings that stay apart,
# two exact zeros 1e-12 apart, a zero and a crossing 1e-12 after it, and a
# long exact stall on the axis
AXIS_CASES = {
    "adjacent_merge": ([0.0, 0.5, 0.5 + 1e-12, 1.5, 3.0],
                       [1.0, -1.0, 1.0, 1.0, -1.0]),
    "adjacent_apart": ([0.0, 1.0, 2.5, 4.0], [1.0, -1.0, 1.0, 1.0]),
    "zeros_merge": ([0.0, 1.0, 1.0 + 1e-12, 2.5, 4.0],
                    [1.0, 0.0, 0.0, 1.0, -1.0]),
    "zero_then_crossing": ([0.0, 1.0, 1.0 + 1e-12, 1.0 + 2e-12, 3.5, 5.0],
                           [1.0, 0.0, 1.0, -1.0, -1.0, 1.0]),
    "stall": (np.linspace(0.0, 3.0, 31).tolist(),
              [0.0] * 20 + [-0.5, 0.5] + [0.0] * 9),
}


@pytest.mark.parametrize("name", sorted(AXIS_CASES))
def test_chain_matches_root_every_crossing_on_hand_made_runs(name):
    tr = _axis_run(*AXIS_CASES[name])
    cert = chain_contraction(tr, 1.0)
    assert cert_text(cert) == cert_text(ref_chain_contraction(tr, 1.0))
    if name in ("adjacent_merge", "zeros_merge", "zero_then_crossing"):
        assert cert.measured["n_qualifying"] == 1


SLOW_GATE = PwcSignal.periodic((0.0, 0.5, 2.0), (1.0, 0.0))


@pytest.mark.parametrize("horizon", (5.0, 20.0))
@pytest.mark.parametrize("seed", (3, 11, 29))
def test_chain_battery_matches_root_every_crossing(seed, horizon):
    # a battery, the slow gate at lam = 1 (excursions that qualify), and a
    # closed gate, under which the start (1, 0) of the grid stalls on the
    # axis at every sample
    bat = make_battery(CLS, 6, seed).signals
    for lam, extra in ((8.0, []), (1.0, [SLOW_GATE]),
                       (8.0, [PwcSignal.constant(0.0)])):
        for x0 in (unit_circle_grid(4), np.array([[0.6, -0.9], [0.8, 0.2]])):
            args = (CLS, 0.2, 4.0, lam, bat + extra, x0, horizon)
            cert = chain_battery(*args)
            assert cert_text(cert) == cert_text(ref_chain_battery(*args))
            if extra == [SLOW_GATE] and horizon == 20.0:
                assert cert.measured["n_qualifying"] > 0


def test_chain_battery_on_the_benchmark_setting_times_each_sign_change(
        monkeypatch):
    # (rho, k, lam) = (0.2, 4, 8) over horizon 5: every run is captured by
    # the central cone and no gap reaches one time unit, so the certificate
    # times each sign change once and takes no exponential beyond the
    # propagations'
    x0 = unit_circle_grid(4)
    args = (CLS, 0.2, 4.0, 8.0)
    for seed in (1, 3, 11, 29):
        bat = make_battery(CLS, 20, seed).signals
        monkeypatch.setattr(certify, "_last_runs", None)
        with mock.patch.object(simcore, "expm", wraps=simcore.expm) as fills:
            runs = certify.di_runs(*args, bat, x0, 5.0)
        n_sign_changes = sum(
            int(np.count_nonzero(tr.states[:-1, 1] * tr.states[1:, 1] < 0.0))
            for tr in runs)
        monkeypatch.setattr(certify, "_last_runs", None)
        with mock.patch.object(simcore, "expm",
                               wraps=simcore.expm) as exps, \
                mock.patch.object(certify, "crossing_time",
                                  wraps=certify.crossing_time) as spy:
            cert = chain_battery(*args, bat, x0, 5.0)
        assert n_sign_changes > 0
        assert spy.call_count == n_sign_changes
        assert cert.measured["n_qualifying"] == 0
        assert exps.call_count == fills.call_count
        assert cert.passed and cert.measured["n_axis_visits"] > 0
        assert cert_text(cert) == cert_text(
            ref_chain_battery(*args, bat, x0, 5.0))


def test_batch_polar_matches_each_run():
    # the battery lifts a member's runs in one pass, row by row
    loop = ClosedLoop(A_DI, B_DI, di_base_gain(0.2, 4.0),
                      PwcSignal.periodic((0.0, 0.3, 1.0), (1.0, 0.25)))
    runs = propagate_batch(loop, 0.0, unit_circle_grid(7), 6.0)
    x = np.array([tr.states for tr in runs])
    r, theta = simcore._polar(loop, runs[0].times, runs[0].seg_alpha,
                              x[:, :, 0], x[:, :, 1])
    for j, tr in enumerate(runs):
        lifted = polar_lift(tr)
        assert same_bits(theta[j], lifted.channels["theta"])
        assert same_bits(r[j], lifted.channels["r"])


@PROPERTY
@given(di_runs())
def test_quadrant_prefix_matches_loop(case):
    tr, rho, k = case
    cert = check_quadrant_V(tr, rho, k)
    n_prefix = ref_quadrant_prefix(tr)
    assert cert.measured["prefix_samples"] == n_prefix
    assert (n_prefix < 2) == (cert.notes == ["prefix too short; vacuous"])


@pytest.mark.parametrize("rho,k,ratio", [(0.2, 4.0, 0.5), (0.2, 1.0, 0.5),
                                         (0.01, 4.0, 0.05),
                                         (1e-3, 4.0, 0.01)])
def test_first_crossing_matches_loop(rho, k, ratio):
    cert = comparison_c2(rho, k, ratio)
    t_ref = ref_c2_t_cross(rho, k, ratio)
    if t_ref is None:
        assert not cert.passed
        assert cert.notes == ["no axis crossing within the horizon"]
    else:
        assert same_bits(cert.measured["t_cross"], t_ref)
