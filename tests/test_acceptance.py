"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured constants.
"""

import math
import time

import numpy as np
import pytest

from dwell_oracle import dwell_scaling
from kl_oracle import envelope_holds, kl_envelope
from pestab import certify
from pestab.adversary import (find_nu, run_destabilizer, tune_adversarial,
                              worst_case_search)
from pestab.certify import (comparison_c2, comparison_final0, estimate_eta,
                            multi_input_identity, rescaling_identity,
                            unit_circle_grid, weak_star_demo)
from pestab.gains import (A_DI, A_ROTATION, B_DI, cone_geometry,
                          di_gain)
from pestab.matkit import quad_roots
from pestab.reachability import adversarial_signal, gramian
from pestab.signals import PeClass, make_battery, make_duty, verify_pe
from pestab.simcore import ClosedLoop, propagate, propagate_batch

CLS = PeClass(1.0, 0.5)
B_ROT = np.array([[0.0], [1.0]])


def report(tag: str, ok: bool, detail: str, budget: float, elapsed: float):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{tag}] {verdict}  {detail}  ({elapsed:.2f}s / budget {budget:g}s)")
    assert ok, f"{tag}: {detail}"
    assert elapsed < budget, f"{tag}: exceeded runtime budget"


@pytest.fixture(scope="module")
def tuned():
    t0 = time.perf_counter()
    result = tune_adversarial(CLS, 0.2, seed=0)
    result["elapsed"] = time.perf_counter() - t0
    return result


def test_criterion_01_scalar_closed_form():
    t0 = time.perf_counter()
    lam, k = 1.0, -3.0
    worst = 0.0
    for cls, pattern, on_value, phase in (
            (PeClass(1.0, 0.5), "front", 1.0, 0.0),
            (PeClass(1.0, 0.5), "back", 0.7, 0.3),
            (PeClass(1.0, 0.3), "split", 0.9, 0.55)):
        sig = make_duty(cls, phase=phase, on_value=on_value, pattern=pattern,
                        splits=3)
        loop = ClosedLoop([[lam]], [[1.0]], [[k]], sig)
        tr = propagate(loop, 0.0, [1.0], 6.0, max_step=0.02)
        predicted = lam + cls.ratio * k
        for t in (0.0, 0.4, 1.1, 2.7, 4.3):
            ratio = tr.state_at(t + cls.T)[0] / tr.state_at(t)[0]
            worst = max(worst, abs(math.log(ratio) / cls.T - predicted))
    report("A1 scalar-closed-form", worst <= 1e-8,
           f"max |log-ratio - (lam + <a>k)| = {worst:.3g}",
           1.0, time.perf_counter() - t0)


def test_criterion_02_controllability_threshold():
    t0 = time.perf_counter()
    battery = make_battery(CLS, 50, seed=2).signals
    adv = adversarial_signal(CLS)
    ok = True
    for t in np.arange(0.1, 0.5001, 0.1):
        rep = gramian(A_DI, B_DI, adv, float(t))
        scale = np.trace(rep.W) / 2.0
        ok = ok and rep.min_sv <= 1e-12 * scale + 1e-300
    worst_rel = math.inf
    for t in np.arange(0.55, 1.5001, 0.05):
        for sig in battery:
            rep = gramian(A_DI, B_DI, sig, float(t))
            rel = rep.min_sv / (np.trace(rep.W) / 2.0)
            worst_rel = min(worst_rel, rel)
    ok = ok and worst_rel >= 1e-6
    report("A2 controllability-threshold", ok,
           f"adversarial singular below T-mu; battery worst rel min_sv = "
           f"{worst_rel:.3g}", 10.0, time.perf_counter() - t0)


def test_criterion_03_energy_identity():
    t0 = time.perf_counter()
    battery = make_battery(CLS, 25, seed=3).signals
    grid = unit_circle_grid(4)
    n_runs = 0
    all_ok = True
    worst = -math.inf
    for sig in battery:
        loop = ClosedLoop(A_ROTATION, B_ROT, -B_ROT.T, sig)
        for tr in propagate_batch(loop, 0.0, grid, 8.0):
            cert = certify.check_V_neutral(tr, B_ROT)
            all_ok = all_ok and cert.passed
            worst = max(worst, cert.measured.get("worst_increase", 0.0))
            n_runs += 1
    report("A3 energy-identity", all_ok and n_runs == 100,
           f"{n_runs} runs, V monotone with slack 1e-10, derivative matches",
           10.0, time.perf_counter() - t0)


def test_criterion_04_neutral_uniform_decay():
    t0 = time.perf_counter()
    battery = make_battery(CLS, 200, seed=4)
    eta_cert = estimate_eta(A_ROTATION, B_ROT, CLS, battery.signals)
    grid = unit_circle_grid(2)
    runs = certify.neutral_runs(A_ROTATION, B_ROT, battery.signals, grid,
                                horizon=30.0, max_step=0.01)
    kl = kl_envelope(runs)
    fresh = make_battery(CLS, 200, seed=104)
    fresh_runs = certify.neutral_runs(A_ROTATION, B_ROT, fresh.signals, grid,
                                      horizon=30.0, max_step=0.01)
    holds, margin = envelope_holds(fresh_runs, kl.measured["C_hat"],
                                   kl.measured["gamma_hat"])
    ok = eta_cert.passed and kl.passed and holds
    report("A4 neutral-uniform-decay", ok,
           f"eta_hat = {eta_cert.measured['eta_hat']:.4g} > 0, gamma_hat = "
           f"{kl.measured['gamma_hat']:.4g}, fresh-battery margin = "
           f"{margin:.3g}", 60.0, time.perf_counter() - t0)


def test_criterion_05_cone_slope_ordering():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(1000):
        ratio = rng.uniform(0.05, 1.0)
        rho = rng.uniform(0.02, 0.98) * ratio / 2.0
        k = 10.0 ** rng.uniform(-1.0, 1.5)
        geom = cone_geometry(rho, k, ratio)  # raises on ordering violation
        chain = geom.ordered_slopes + (0.0,)
        ok = ok and all(a < b for a, b in zip(chain, chain[1:]))
    frozen = cone_geometry(0.2, 1.0, 0.5)
    expected = {
        "xi_s_plus": -0.5 * (1.0 + math.sqrt(0.8)),
        "xi_1_plus": quad_roots(1.0, 0.1)[0],
        "xi_r_plus": quad_roots(0.5, 0.05)[0],
        "xi_r_minus": quad_roots(0.5, 0.05)[1],
        "xi_1_minus": quad_roots(1.0, 0.1)[1],
        "xi_s_minus": -0.5 * (1.0 - math.sqrt(0.62)),
    }
    for name, want in expected.items():
        ok = ok and abs(getattr(frozen, name) - want) <= 1e-9
    report("A5 cone-slope-ordering", ok,
           "strict ordering on 1000 random triples; frozen instance to 1e-9",
           1.0, time.perf_counter() - t0)


def test_criterion_06_rescaling_identity():
    t0 = time.perf_counter()
    sig = make_duty(CLS, phase=0.25, on_value=0.8, pattern="split", splits=2)
    cert = rescaling_identity(0.16, 0.8, sig, [1.0, 0.4], horizon=3.0)
    report("A6 rescaling-identity", cert.passed,
           f"max relative error = {cert.measured['max_rel_error']:.3g} "
           "over lam in {0.5, 2, 8}", 5.0, time.perf_counter() - t0)


def test_criterion_07_f_monotonicity(tuned):
    t0 = time.perf_counter()
    k = tuned["k_star_hat"]
    lam = max(tuned["lambda_star_hat"], k)
    battery = make_battery(CLS, 25, seed=7)
    cert = certify.f_monotone_battery(CLS, 0.2, k, lam, battery.signals,
                                      unit_circle_grid(4),
                                      horizon=30.0 / k)
    ok = cert.passed and cert.measured["violations"] == 0 \
        and cert.measured.get("c_hat", 0.0) > 0.0
    report("A7 angle-reparam-monotone", ok,
           f"0 violations over 100 runs at tuned (k={k:g}, lam={lam:g}); "
           f"c_hat = {cert.measured.get('c_hat', float('nan')):.4g} "
           f"(closed form {cert.measured.get('c_closed_form', 0):.4g})",
           30.0, time.perf_counter() - t0)


def test_criterion_08_dwell_scaling():
    t0 = time.perf_counter()
    battery = make_battery(CLS, 25, seed=8)
    cert = dwell_scaling(CLS, 0.2, 4.0, 4.0, battery.signals,
                         unit_circle_grid(4))
    report("A8 dwell-scaling", cert.passed,
           f"max dwell {cert.measured['max_dwell_at_k']:.4g} -> "
           f"{cert.measured['max_dwell_at_2k']:.4g}, ratio = "
           f"{cert.measured['ratio']:.4g} <= 0.55",
           30.0, time.perf_counter() - t0)


def test_criterion_09_comparison_computations():
    t0 = time.perf_counter()
    c2 = comparison_c2(0.2, 4.0, 0.5)
    f0 = comparison_final0(0.2, 4.0, 0.5)
    ok = c2.passed and f0.passed and c2.measured["contraction"] < 1.0 \
        and f0.measured["horizon"] >= 50.0 / 4.0
    report("A9 comparison-computations", ok,
           f"sweep contraction = {c2.measured['contraction']:.4g} < 1; "
           f"confined to slope band with final ratio "
           f"{f0.measured['final_norm_ratio']:.2g}",
           5.0, time.perf_counter() - t0)


def test_criterion_10_end_to_end_tuning(tuned):
    t0 = time.perf_counter()
    k, lam = tuned["k_star_hat"], tuned["lambda_star_hat"]
    assert tuned["battery"]["spec"] == \
        "duty at 8 phases + split + constant ratio"
    gain = di_gain(CLS, 0.2, k, lam)
    fresh = make_battery(CLS, 30, seed=110)
    signals = list(fresh.signals)
    x0s = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    worst_sig, worst_rep = worst_case_search(A_DI, B_DI, gain.K, CLS, x0s,
                                             budget=24, horizon=12.0,
                                             seed=42)
    signals.append(worst_sig)
    runs = []
    grid = unit_circle_grid(3)
    for sig in signals:
        loop = ClosedLoop(A_DI, B_DI, gain.K, sig)
        runs.extend(propagate_batch(loop, 0.0, grid, 12.0))
    kl = kl_envelope(runs)
    ok = k <= 2.0 ** 16 and lam <= 2.0 ** 16 and kl.passed
    elapsed = time.perf_counter() - t0 + tuned["elapsed"]
    report("A10 end-to-end-tuning", ok,
           f"tuned (k*, lam*) = ({k:g}, {lam:g}); fresh-battery gamma_hat = "
           f"{kl.measured['gamma_hat']:.4g}; worst-case decay = "
           f"{worst_rep['decay']:.4g}", 300.0, elapsed)


def test_criterion_11_destabilizer():
    t0 = time.perf_counter()
    K = np.array([[-1.0, -1.0]])
    nu = find_nu(K)
    cls = PeClass(1.0, nu / 2.0)
    run = run_destabilizer(K, cls, revolutions=10)
    n0 = np.linalg.norm(run.traj.states[0])
    nT = np.linalg.norm(run.traj.states[-1])
    growth_ok = nT / n0 >= run.growth_per_rev ** 10 * (1.0 - 1e-6)
    ok = nu > 0.0 and run.pe_ok and run.growth_per_rev > 1.0 and growth_ok
    report("A11 destabilizer", ok,
           f"nu_hat = {nu:.6g}; growth/rev = {run.growth_per_rev:.4g}; "
           f"10-rev growth = {nT / n0:.4g}", 5.0, time.perf_counter() - t0)


def test_criterion_12_multi_input():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    battery = make_battery(CLS, 25, seed=12)
    ok = True
    worst_id = 0.0
    for m in (2, 3):
        B = rng.standard_normal((2, m))
        B = B + np.hstack([2.0 * np.eye(2), np.zeros((2, m - 2))])
        cert = multi_input_identity(B, 1.2, battery.signals,
                                    [np.array([1.0, 0.0])], horizon=6.0)
        ok = ok and cert.passed
        worst_id = max(worst_id, cert.measured["max_identity_rel_error"])
    report("A12 multi-input", ok,
           f"50 runs; drift-stripped identity error = {worst_id:.3g} <= 1e-9; "
           "envelope bound holds", 10.0, time.perf_counter() - t0)


def test_criterion_13_averaged_limit():
    t0 = time.perf_counter()
    cert = weak_star_demo(A_ROTATION, B_ROT, -B_ROT.T, [1.0, 0.0],
                          duty=0.5, exponents=range(0, 11), horizon=10.0)
    report("A13 averaged-limit", cert.passed,
           f"sup-distance decreasing over i = 1..1024; final = "
           f"{cert.measured['final_dist']:.3g} <= 1e-2 "
           f"(rate ~ i^-{cert.measured['rate_hat']:.2f})",
           30.0, time.perf_counter() - t0)
