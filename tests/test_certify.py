import math
from unittest import mock

import numpy as np
import pytest

import dwell_oracle
from dwell_oracle import _runs, dwell_times
from kl_oracle import envelope_holds, kl_envelope
from pestab import certify, simcore
from pestab.adversary import tune
from pestab.certify import (c_rho_closed_form, chain_contraction,
                            check_cs_decay, check_F_monotone,
                            check_quadrant_V, check_V_neutral,
                            comparison_c2, comparison_final0, decay_rate,
                            estimate_eta, multi_input_identity, neutral_runs,
                            rescaling_identity, unit_circle_grid,
                            weak_star_demo)
from pestab.errors import (DomainError, InsufficientDataError,
                           PreconditionError)
from pestab.gains import (A_DI, A_ROTATION, B_DI, cone_geometry,
                          di_base_gain, multi_input_gain)
from pestab.matkit import expm
from pestab.signals import (PeClass, PwcSignal, integrate_signal,
                            make_battery, make_duty)
from pestab.simcore import ClosedLoop, Trajectory, polar_lift, propagate

CLS = PeClass(1.0, 0.5)
B_ROT = np.array([[0.0], [1.0]])


def rotation_loop(sig):
    return ClosedLoop(A_ROTATION, B_ROT, -B_ROT.T, sig)


class TestDecayRate:
    def test_scalar_closed_form(self):
        loop = ClosedLoop([[1.0]], [[1.0]], [[-3.0]], PwcSignal.constant(0.5))
        tr = propagate(loop, 0.0, [2.0], 6.0)
        fit = decay_rate(tr, 0.0)
        assert fit["gamma_hat"] == pytest.approx(0.5, abs=1e-8)
        assert fit["residual"] <= 1e-8

    def test_norm_conserving_flow(self):
        loop = rotation_loop(PwcSignal.constant(0.0))
        tr = propagate(loop, 0.0, [1.0, 0.0], 12.0)
        fit = decay_rate(tr, 0.0)
        assert abs(fit["gamma_hat"]) < 1e-10

    def test_linear_growth_is_rejected_by_residual(self):
        loop = ClosedLoop(A_DI, B_DI, di_base_gain(0.2, 1.0),
                          PwcSignal.constant(0.0))
        tr = propagate(loop, 0.0, [0.0, 1.0], 20.0, max_step=0.05)
        fit = decay_rate(tr, 0.0)
        assert fit["gamma_hat"] <= 0.0
        assert fit["residual"] > 1e-2

    def test_needs_ten_samples(self):
        loop = rotation_loop(PwcSignal.constant(0.0))
        tr = propagate(loop, 0.0, [1.0, 0.0], 1.0)
        with pytest.raises(InsufficientDataError):
            decay_rate(tr, tr.times[-2])


class TestLineFit:
    """certify._line_fits, the closed-form least-squares line of
    decay_rate, check_cs_decay and weak_star_demo, against np.polyfit."""

    @staticmethod
    def fit(x, y):
        (slope,), (intercept,) = certify._line_fits(x, y,
                                                    np.array([len(x)]))
        return slope, intercept

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_cs_stays(self, seed):
        # every central-cone stay the battery fits, one at a time and all
        # at once
        bat = make_battery(CLS, 8, seed=seed).signals
        runs = certify.di_runs(CLS, 0.2, 4.0, 8.0, bat, unit_circle_grid(4),
                               20.0)
        geom = cone_geometry(0.2, 4.0, CLS.ratio)
        ts, ys, want = [], [], []
        for tr in runs:
            x1, x2 = tr.states[:, 0], tr.states[:, 1]
            for i0, i1 in _runs(geom.cs_quadratic(x1, x2) <= 0.0):
                if i1 - i0 >= 9:
                    ts.append(tr.times[i0:i1 + 1] - tr.times[i0])
                    ys.append(np.log(np.abs(x2[i0:i1 + 1])))
                    want.append(np.polyfit(ts[-1], ys[-1], 1)[0])
        assert len(want) >= 10
        got, _ = certify._line_fits(np.concatenate(ts), np.concatenate(ys),
                                    np.array([len(t) for t in ts]))
        want = np.array(want)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        cert = certify.cs_decay_battery(CLS, 0.2, 4.0, 8.0, bat,
                                        unit_circle_grid(4), 20.0)
        assert cert.measured["gamma_hat_min"] == pytest.approx(
            float(np.min(-want / 4.0)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("loop", [
        ClosedLoop(A_DI, B_DI, di_base_gain(0.2, 4.0), PwcSignal.periodic(
            (0.0, 0.5, 1.0), (1.0, 0.0))),
        ClosedLoop(A_ROTATION, B_ROT, -B_ROT.T, PwcSignal.periodic(
            (0.0, 0.3, 1.0), (0.0, 0.8))),
    ], ids=["double_integrator", "rotation"])
    def test_decay_rate_on_simulate_runs(self, loop):
        # simulate's default horizon, ten class periods
        tr = propagate(loop, 0.0, [1.0, 0.0], 10.0)
        fit = decay_rate(tr, 0.0)
        slope, intercept = np.polyfit(tr.times, np.log(tr.norms()), 1)
        assert abs(fit["gamma_hat"] + slope) <= 1e-12 * abs(slope)
        assert fit["C_hat"] == pytest.approx(math.exp(intercept), rel=1e-12)

    def test_linear_and_constant_data(self):
        x = np.linspace(0.0, 7.0, 50)
        slope, intercept = self.fit(x, 3.0 - 0.25 * x)
        want = np.polyfit(x, 3.0 - 0.25 * x, 1)
        assert abs(slope + 0.25) <= 1e-12 * 0.25
        assert abs(slope - want[0]) <= 1e-12 * abs(want[0])
        assert intercept == pytest.approx(3.0, rel=1e-12)
        # a flat line has no slope to compare relatively: both fits read 0
        # within 1e-12 of the data's scale over the span
        y = np.full(50, -2.7)
        slope, intercept = self.fit(x, y)
        for s in (slope, np.polyfit(x, y, 1)[0]):
            assert abs(s) <= 1e-12 * 2.7 / 7.0
        assert intercept == pytest.approx(-2.7, rel=1e-12)


class TestEnergyIdentity:
    def test_zero_gate_conserves(self):
        tr = propagate(rotation_loop(PwcSignal.constant(0.0)), 0.0,
                       [0.6, -1.1], 8.0)
        cert = check_V_neutral(tr, B_ROT)
        assert cert.passed
        V = 0.5 * np.sum(tr.states ** 2, axis=1)
        assert np.max(np.abs(V - V[0])) < 1e-10

    def test_full_gate_strictly_dissipates(self):
        tr = propagate(rotation_loop(PwcSignal.constant(1.0)), 0.0,
                       [1.0, 0.0], 6.0)
        cert = check_V_neutral(tr, B_ROT)
        assert cert.passed
        assert tr.norms()[-1] < 0.5 * tr.norms()[0]

    def test_duty_battery(self):
        bat = make_battery(CLS, 10, seed=21).signals
        for sig in bat:
            tr = propagate(rotation_loop(sig), 0.0, [0.3, 0.9], 5.0)
            assert check_V_neutral(tr, B_ROT).passed

    def test_gain_scale_enters_model(self):
        loop = ClosedLoop(A_ROTATION, B_ROT, -3.0 * B_ROT.T,
                          PwcSignal.constant(0.8))
        tr = propagate(loop, 0.0, [1.0, 0.2], 4.0)
        assert check_V_neutral(tr, B_ROT, r=3.0).passed

    def test_reads_the_one_energy(self):
        # V has one definition, simcore's, which with_energy reads too
        tr = propagate(rotation_loop(PwcSignal.constant(0.5)), 0.0,
                       [1.0, 0.2], 2.0)
        with mock.patch.object(certify, "_energy",
                               wraps=certify._energy) as energy:
            assert check_V_neutral(tr, B_ROT).passed
        assert energy.call_count == 1
        assert energy.call_args.args[0] is tr.states

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("top", [1.5e154, 1e200])
    def test_run_near_the_top_of_the_doubles(self, top):
        # 1.5e154 overflowed the tolerance's product and the squares of
        # B^T x; 1e200 overflowed V and took inf - inf in its differences
        tr = propagate(rotation_loop(PwcSignal.constant(0.5)), 0.0,
                       [top, 0.0], 2.0)
        cert = check_V_neutral(tr, B_ROT)
        assert cert.passed
        assert cert.measured["monotonicity_violations"] == 0
        # the tolerance is about 1e-3 V: beyond the doubles at 1e200
        assert cert.measured["max_derivative_tol"] == \
            (math.inf if top == 1e200 else pytest.approx(1.76e305, rel=1e-2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("top, shift", [(1.5e154, 100), (1e200, 100),
                                            (1e200, 600), (1e300, 1000)])
    @pytest.mark.parametrize("bend", [0.0, 1e-3])
    def test_power_of_two_scale_keeps_the_certificate(self, top, shift,
                                                      bend):
        # scaling a run by 2^-shift keeps the verdict, the counts and the
        # failing sample, and scales every magnitude by 4^-shift exactly;
        # the magnitudes of the larger run read inf past the largest double
        loop = rotation_loop(PwcSignal.constant(0.5))
        tr = propagate(loop, 0.0, [top, 0.0], 2.0, max_step=0.01)
        states = tr.states.copy()
        states[50] *= 1.0 + bend
        big, small = (check_V_neutral(
            Trajectory(loop, tr.times, np.ldexp(states, -s), tr.seg_alpha),
            B_ROT) for s in (0, shift))
        assert big.passed == small.passed == (bend == 0.0)
        assert big.notes == small.notes
        assert big.measured.keys() == small.measured.keys()
        for key, v in small.measured.items():
            if key == "monotonicity_violations":
                assert big.measured[key] == v == (bend > 0.0)
                continue
            with np.errstate(over="ignore"):
                assert big.measured[key] == np.ldexp(v, 2 * shift)


class TestEta:
    def test_full_excitation_positive(self):
        cert = estimate_eta(A_ROTATION, B_ROT, CLS, [PwcSignal.constant(1.0)])
        assert cert.passed
        assert cert.measured["eta_hat"] > 0.1

    def test_identity_input_exact_value(self):
        # B = c*I makes the integrand exactly 2 c^2 alpha
        c = 0.7
        cert = estimate_eta(A_ROTATION, c * np.eye(2), CLS,
                            [PwcSignal.constant(1.0)])
        assert cert.measured["eta_hat"] == pytest.approx(
            2.0 * c * c * CLS.T, rel=1e-12)

    def test_kernel_start_front_loaded_signal(self):
        # excitation only early: a state that starts in the unexcited
        # direction rotates into the excited one, so the floor over every
        # initial state stays positive
        sig = make_duty(CLS, on_value=1.0, pattern="front")
        cert = estimate_eta(A_ROTATION, B_ROT, CLS, [sig])
        assert cert.measured["eta_hat"] > 1e-3
        assert cert.measured["worst_member"] == 0

    def test_liouville_bound(self):
        # for skew A, det Phi = exp(-||B||_F^2 int_0^T alpha), and
        # sigma_max^n >= det Phi, so eta <= (2/n) ||B||_F^2 int_0^T alpha
        rng = np.random.default_rng(8)
        n = 4
        S = rng.standard_normal((n, n))
        A = S - S.T
        B = rng.standard_normal((n, 2))
        for cls in (CLS, PeClass(4.0, 1.0)):
            for sig in make_battery(cls, 6, seed=2).signals:
                eta = estimate_eta(A, B, cls, [sig]).measured["eta_hat"]
                bound = (2.0 / n) * np.sum(B * B) * integrate_signal(
                    sig, 0.0, cls.T)
                assert 0.0 < eta <= bound * (1.0 + 1e-12)

    def test_shift_covariance_identity(self):
        # a zero-gate prefix of length s followed by the shifted signal
        # reproduces the rotated initial state exactly
        s = 0.37
        sig = make_duty(CLS, on_value=0.8, pattern="back")
        x0 = np.array([0.3, -0.95])
        x0 = x0 / np.linalg.norm(x0)

        prefixed = PwcSignal.held(
            (0.0, s) + tuple(b + s for b in sig.breakpoints[1:]),
            (0.0, sig.value_at(0.0)) + sig.values[1:], hold=None) \
            if sig.hold is not None else None
        # simpler: simulate the prefix directly
        loop = rotation_loop(PwcSignal.constant(0.0))
        tr = propagate(loop, 0.0, x0, s)
        rotated = tr.states[-1]
        assert np.max(np.abs(rotated - expm(A_ROTATION, s) @ x0)) < 1e-12

        def window_integral(x_init, alpha):
            lp = rotation_loop(alpha)
            run = propagate(lp, 0.0, x_init, CLS.T, max_step=1e-3 * CLS.T)
            v = 0.5 * np.sum(run.states ** 2, axis=1)
            g = np.sum((run.states @ B_ROT) ** 2, axis=1) / v
            dt = np.diff(run.times)
            return float(np.sum(run.seg_alpha * 0.5 * (g[:-1] + g[1:]) * dt))

        assert window_integral(rotated, sig) == pytest.approx(
            window_integral(expm(A_ROTATION, s) @ x0, sig), abs=1e-12)

    def test_non_skew_rejected(self):
        with pytest.raises(PreconditionError):
            estimate_eta(A_DI, B_DI, CLS, [PwcSignal.constant(1.0)])


class TestFMonotone:
    def test_free_flow_in_outer_cone(self):
        # with the gate off the angle still never increases
        loop = ClosedLoop(A_DI, B_DI, di_base_gain(0.2, 4.0),
                          PwcSignal.constant(0.0))
        tr = polar_lift(propagate(loop, 0.0, [-1.0, 0.05], 2.0))
        cert = check_F_monotone(tr, 0.2, 4.0, CLS, 4.0)
        assert cert.passed
        assert cert.measured["monotonicity_violations"] == 0

    def test_precondition_enforced(self):
        geom = cone_geometry(0.2, 4.0, 0.5)
        mid = 0.5 * (geom.xi_s_plus + geom.xi_s_minus)
        loop = ClosedLoop(A_DI, B_DI, di_base_gain(0.2, 4.0),
                          PwcSignal.constant(0.5))
        tr = polar_lift(propagate(loop, 0.0, [-1.0, -mid], 1.0))
        with pytest.raises(PreconditionError):
            check_F_monotone(tr, 0.2, 4.0, CLS, 4.0)

    def test_empirical_constant_dominates_closed_form(self):
        bat = make_battery(CLS, 8, seed=13).signals
        cert = certify.f_monotone_battery(CLS, 0.2, 4.0, 8.0, bat,
                                          unit_circle_grid(4), horizon=4.0)
        assert cert.passed
        assert cert.measured["c_hat"] >= c_rho_closed_form(0.2)


class TestDwell:
    def test_central_cone_resident_has_zero_dwell(self):
        # the wedge between the two constant-gate eigendirections is flow
        # invariant and sits strictly inside the central cone
        geom = cone_geometry(0.2, 4.0, 0.5)
        mid = 0.5 * (geom.xi_r_plus + geom.xi_r_minus)
        loop = ClosedLoop(A_DI, B_DI, di_base_gain(0.2, 4.0),
                          PwcSignal.constant(0.5))
        tr = propagate(loop, 0.0, [-1.0, -mid], 3.0)
        cert = dwell_times(tr, geom)
        assert cert.passed
        assert cert.measured["max_dwell"] == 0.0
        assert cert.measured["n_sojourns"] == 0

    def test_constant_gate_dwell_matches_eigen_oracle(self):
        # from the horizontal axis, the constant-gate dwell in the first
        # outer cone ends where the slope reaches the shallow central edge;
        # the eigen-decomposition gives that time in closed form
        rho, k, ratio = 0.2, 4.0, 0.5
        geom = cone_geometry(rho, k, ratio)
        loop = ClosedLoop(A_DI, B_DI, di_base_gain(rho, k),
                          PwcSignal.constant(ratio))
        x0 = np.array([-1.0, 1e-3])
        tr = propagate(loop, 0.0, x0, 5.0)
        cert = dwell_times(tr, geom)
        xi_p, xi_m = geom.xi_r_plus, geom.xi_r_minus
        vp = np.array([1.0, xi_p])
        vm = np.array([1.0, xi_m])
        coeffs = np.linalg.solve(np.column_stack([vp, vm]), x0)
        target = geom.xi_s_minus
        ratio_log = (-coeffs[1] * (xi_m - target)) / (coeffs[0] * (xi_p - target))
        t_star = math.log(ratio_log) / (xi_p - xi_m)
        assert cert.measured["max_dwell"] == pytest.approx(t_star, abs=1e-9)

    def test_scaling_small(self):
        bat = make_battery(CLS, 6, seed=17).signals
        cert = dwell_oracle.dwell_scaling(CLS, 0.2, 4.0, 4.0, bat,
                                          unit_circle_grid(4))
        assert cert.passed
        assert cert.measured["ratio"] <= 0.55


class TestQuadrant:
    def test_free_flow_sign_argument(self):
        loop = ClosedLoop(A_DI, B_DI, di_base_gain(0.2, 4.0),
                          PwcSignal.constant(0.0))
        tr = propagate(loop, 0.0, [-1.0, 0.5], 1.5)
        cert = check_quadrant_V(tr, 0.2, 4.0)
        assert cert.passed

    def test_boundary_start_vacuous(self):
        loop = ClosedLoop(A_DI, B_DI, di_base_gain(0.2, 4.0),
                          PwcSignal.constant(1.0))
        tr = propagate(loop, 0.0, [0.0, 1.0], 1.0)
        cert = check_quadrant_V(tr, 0.2, 4.0)
        assert cert.passed
        assert cert.measured["prefix_samples"] <= 1

    def test_battery(self):
        bat = make_battery(CLS, 6, seed=19).signals
        cert = certify.quadrant_battery(CLS, 0.2, 4.0, 8.0, bat,
                                        unit_circle_grid(4), horizon=5.0)
        assert cert.passed
        assert cert.measured["violations"] == 0

    def test_battery_without_stays_is_vacuous(self):
        # these off-grid states decay without entering {x1 <= 0, x2 >= 0}
        bat = make_battery(CLS, 6, seed=19).signals
        x0 = np.array([[1.0, 2.0], [-0.5, -1.0]])
        for tr in certify.di_runs(CLS, 0.2, 4.0, 8.0, bat, x0, 5.0):
            x1, x2 = tr.states[:, 0], tr.states[:, 1]
            assert not np.any((x1 <= 0.0) & (x2 >= 0.0))
        cert = certify.quadrant_battery(CLS, 0.2, 4.0, 8.0, bat, x0,
                                        horizon=5.0)
        assert not cert.passed
        assert cert.measured["stays_checked"] == 0
        assert "worst_increase" not in cert.measured
        assert "vacuous" in cert.notes[0]


class TestCentralConeDecay:
    def test_w_bounds_are_k_independent(self):
        for rho in (0.1, 0.2, 0.4):
            bounds = []
            for k in (1.0, 4.0, 32.0):
                xi_p = -0.5 * k * (1 + math.sqrt(1 - rho))
                xi_m = -0.5 * k * (1 - math.sqrt(1 - (2 - rho / 2) * rho))
                bounds.append((1 + rho * k / (2 * xi_m),
                               1 + rho * k / (2 * xi_p)))
            for lo, hi in bounds[1:]:
                assert lo == pytest.approx(bounds[0][0], rel=1e-12)
                assert hi == pytest.approx(bounds[0][1], rel=1e-12)
            assert bounds[0][0] > 0.0

    def test_constant_gate_rate_between_bounds(self):
        rho, k, ratio = 0.2, 4.0, 0.5
        geom = cone_geometry(rho, k, ratio)
        mid = 0.5 * (geom.xi_r_plus + geom.xi_r_minus)
        loop = ClosedLoop(A_DI, B_DI, di_base_gain(rho, k),
                          PwcSignal.constant(ratio))
        tr = propagate(loop, 0.0, [-1.0, -mid], 1.0)
        cert = check_cs_decay(tr, rho, k, CLS)
        assert cert.passed
        lo = cert.measured["w_lower_bound"]
        hi = cert.measured["w_upper_bound"]
        # |x2| decays at instantaneous rate k*alpha*w; the fitted average
        # must land inside the closed w-range
        rate = cert.measured["gamma_hat"] * k
        assert k * ratio * lo - 1e-6 <= rate <= k * ratio * hi + 1e-6

    def test_battery(self):
        bat = make_battery(CLS, 6, seed=23).signals
        cert = certify.cs_decay_battery(CLS, 0.2, 4.0, 8.0, bat,
                                        unit_circle_grid(4), horizon=5.0)
        assert cert.passed


class TestComparisons:
    def test_edge_flow_instance(self):
        cert = comparison_final0(0.2, 4.0, 0.5)
        assert cert.passed
        assert cert.measured["final_norm_ratio"] <= 1e-6

    def test_eigendirection_start_is_straight(self):
        geom = cone_geometry(0.2, 4.0, 0.5)
        x0 = np.array([-1.0, -geom.xi_r_minus])
        loop = ClosedLoop(A_DI, B_DI, di_base_gain(0.2, 4.0),
                          PwcSignal.constant(0.5))
        tr = propagate(loop, 0.0, x0, 3.0)
        slopes = tr.states[:, 1] / tr.states[:, 0]
        assert np.max(np.abs(slopes - geom.xi_r_minus)) < 1e-9
        assert tr.norms()[-1] == pytest.approx(
            tr.norms()[0] * math.exp(geom.xi_r_minus * 3.0), rel=1e-9)

    def test_tight_ratio_still_confined(self):
        cert = comparison_final0(0.2, 4.0, 0.9)
        assert cert.passed

    def test_sweep_contraction_instance(self):
        cert = comparison_c2(0.2, 4.0, 0.5)
        assert cert.passed
        assert cert.measured["contraction"] < 1.0

    def test_sweep_scale_equivalence(self):
        a = comparison_c2(0.2, 4.0, 0.5)
        b = comparison_c2(0.2, 8.0, 0.5)
        # time rescales by 1/2; the axis-abscissa ratio is the invariant
        assert b.measured["t_cross"] == pytest.approx(
            a.measured["t_cross"] / 2.0, rel=1e-9)
        assert b.measured["abscissa_ratio"] == pytest.approx(
            a.measured["abscissa_ratio"], rel=1e-9)

    def test_stronger_gate_contracts_harder(self):
        weak = comparison_c2(0.2, 4.0, 0.5)
        strong = comparison_c2(0.2, 4.0, 1.0)
        assert strong.measured["contraction"] < weak.measured["contraction"]


class TestChain:
    def test_mirror_symmetry(self):
        sig = make_duty(CLS, phase=0.3)
        loop = ClosedLoop(A_DI, B_DI, di_base_gain(0.2, 2.0), sig)
        a = propagate(loop, 0.0, [1.0, 0.4], 10.0)
        b = propagate(loop, 0.0, [-1.0, -0.4], 10.0)
        assert np.array_equal(a.states, -b.states)

    def test_full_gate_node_behavior(self):
        # the fully-excited loop is an overdamped node: at most one axis
        # visit beyond the start, then capture
        loop = ClosedLoop(A_DI, B_DI, di_base_gain(0.2, 2.0),
                          PwcSignal.constant(1.0))
        tr = propagate(loop, 0.0, [0.0, 1.0], 30.0)
        cert = chain_contraction(tr, 2.0)
        assert cert.passed
        assert cert.measured["n_axis_visits"] <= 2

    def test_growth_is_caught(self):
        from pestab.adversary import find_nu, run_destabilizer
        K = np.array([[-1.0, -1.0]])
        nu = find_nu(K)
        run = run_destabilizer(K, PeClass(1.0, nu / 2.0), revolutions=5)
        tr = propagate(ClosedLoop(A_DI, B_DI, K, run.induced_signal), 0.0,
                       [-1.0, 0.0], run.crossings[-1]["t"])
        cert = chain_contraction(tr, 1.0)
        assert not cert.passed
        assert cert.measured["worst_halving_ratio"] > 0.5


class TestKlEnvelope:
    def test_neutral_battery(self):
        bat = make_battery(CLS, 12, seed=29).signals
        runs = neutral_runs(A_ROTATION, B_ROT, bat, unit_circle_grid(3), 25.0)
        cert = kl_envelope(runs)
        assert cert.passed
        ok, margin = envelope_holds(runs, cert.measured["C_hat"],
                                    cert.measured["gamma_hat"])
        assert ok and margin > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_norm_meets_any_envelope(self):
        # x' = -x from 1 reaches an exactly zero state before t = 800; its
        # log-ratio warned of a division by zero
        loop = ClosedLoop([[-1.0]], [[1.0]], [[0.0]], PwcSignal.constant(1.0))
        tr = propagate(loop, 0.0, [1.0], 800.0)
        assert tr.norms()[-1] == 0.0
        ok, margin = envelope_holds([tr], 1.0, 0.5)
        assert ok and margin == 0.0
        assert not envelope_holds([tr], 1.0, 1.5)[0]

    def test_unbounded_culprit_named(self):
        from pestab.adversary import find_nu, run_destabilizer
        K = np.array([[-1.0, -1.0]])
        nu = find_nu(K)
        run = run_destabilizer(K, PeClass(1.0, nu / 2.0), revolutions=12)
        bat = make_battery(CLS, 3, seed=1).signals
        runs = neutral_runs(A_ROTATION, B_ROT, bat, unit_circle_grid(2), 10.0)
        runs.append(propagate(ClosedLoop(A_DI, B_DI, K, run.induced_signal),
                              0.0, [-1.0, 0.0], run.crossings[-1]["t"]))
        cert = kl_envelope(runs)
        assert not cert.passed
        assert any(str(len(runs) - 1) in note for note in cert.notes)

    def test_single_hurwitz_rate_bound(self):
        loop = ClosedLoop(A_DI, B_DI, di_base_gain(0.2, 1.0),
                          PwcSignal.constant(1.0))
        tr = propagate(loop, 0.0, [0.0, 1.0], 400.0, max_step=0.05)
        cert = kl_envelope([tr])
        slowest = 0.5 * (1.0 - math.sqrt(1.0 - 2.0 * 0.2))  # |max Re eig|
        assert cert.measured["gamma_hat"] >= 0.9 * slowest


    def test_end_state_below_square_underflow(self):
        # the end state is about 3.9e-183, whose square is 0.0: the end
        # rate is the duty's average 10.5, not a log of zero
        loop = ClosedLoop([[-10.0]], [[1.0]], [[-1.0]], make_duty(CLS))
        tr = propagate(loop, 0.0, [1.0], 40.0)
        cert = kl_envelope([tr])
        assert cert.passed
        assert cert.measured["min_end_rate"] == pytest.approx(10.5,
                                                              rel=1e-12)

    @staticmethod
    def scalar_run(a):
        loop = ClosedLoop([[a]], [[1.0]], [[-1.0]], make_duty(CLS))
        return propagate(loop, 0.0, [1.0], 40.0)

    def test_run_ending_at_zero_alone_is_refused(self):
        # every entry of the end state underflows to 0.0: the end rate is
        # +inf, which bounds nothing; the log of zero raised ValueError
        tr = self.scalar_run(-30.0)
        assert tr.states[-1, 0] == 0.0
        with pytest.raises(InsufficientDataError, match="no run bounds"):
            kl_envelope([tr])

    def test_run_ending_at_zero_bounds_no_rate(self):
        zero, slow = self.scalar_run(-30.0), self.scalar_run(-1.0)
        cert = kl_envelope([zero, slow])
        alone = kl_envelope([slow])
        assert cert.passed and alone.passed
        assert cert.measured["worst_index"] == 1
        for key in ("gamma_hat", "C_hat", "C_tight", "min_end_rate"):
            assert cert.measured[key] == alone.measured[key]
        assert cert.measured["min_end_rate"] == pytest.approx(1.5,
                                                              rel=1e-12)


class TestTune:
    def test_finds_finite_pair(self):
        bat = [make_duty(CLS, phase=j / 4.0) for j in range(4)]
        result = tune(CLS, 0.2, bat, unit_circle_grid(3))
        assert result["k_star_hat"] <= 2.0 ** 16
        assert result["lambda_star_hat"] >= result["k_star_hat"]
        assert result["first_pass"]["k"] > 0


def reference_weak_star_dists(A, B, K, x0, duty, exponents, horizon):
    """The loop weak_star_demo replaced: the averaged loop stepped sample
    by sample over the square wave's sample times, with a cache of
    expm(m_star, dt)."""
    m_star = ClosedLoop(A, B, K, PwcSignal.constant(duty)).matrix(duty)
    x0 = np.asarray(x0, dtype=float)
    dists = {}
    for i in (2 ** e for e in exponents):
        period = 1.0 / i
        sig = make_duty(PeClass(period, duty * period), on_value=1.0,
                        pattern="front")
        tr = propagate(ClosedLoop(A, B, K, sig), 0.0, x0, horizon,
                       max_step=min(period / 4.0, horizon / 2000.0))
        cache = {}
        xs = x0.copy()
        prev_t = 0.0
        worst = 0.0
        for t, xi in zip(tr.times, tr.states):
            dt = t - prev_t
            if dt:
                phi = cache.get(dt)
                if phi is None:
                    phi = expm(m_star, dt)
                    cache[dt] = phi
                xs = phi @ xs
            prev_t = t
            worst = max(worst, float(np.linalg.norm(xi - xs)))
        dists[f"sup_dist_i_{i}"] = worst
    return dists


def reference_multi_input_measured(B, k, battery, x0_list, horizon):
    """The loop multi_input_identity replaced: int alpha from one
    integral_from_zero call per sample."""
    K = multi_input_gain(np.asarray(B, dtype=float), k)
    worst_identity = 0.0
    worst_bound = -math.inf
    for sig in battery:
        loop = ClosedLoop(A_DI, B, K, sig)
        for x0 in x0_list:
            tr = propagate(loop, 0.0, x0, horizon)
            t = tr.times
            x = tr.states
            y = np.column_stack([x[:, 0] - t * x[:, 1], x[:, 1]])
            ynorm = np.linalg.norm(y, axis=1)
            ints = np.array([sig.integral_from_zero(tt) for tt in t])
            target = ynorm[0] * np.exp(-k * ints)
            worst_identity = max(worst_identity, float(
                np.max(np.abs(ynorm - target) / np.maximum(target, 1e-300))))
            t2 = t * t
            smax = np.sqrt((2.0 + t2 + t * np.sqrt(t2 + 4.0)) / 2.0)
            bound = smax * np.exp(-k * ints) * np.linalg.norm(x[0])
            gap = np.linalg.norm(x, axis=1) - bound * (1.0 + 1e-9)
            worst_bound = max(worst_bound, float(np.max(gap)))
    return {"max_identity_rel_error": worst_identity,
            "worst_envelope_gap": worst_bound}


class TestWeakStar:
    def test_constant_sequence_is_flat_zero(self):
        cert = weak_star_demo(A_ROTATION, B_ROT, -B_ROT.T, [1.0, 0.0],
                              duty=1.0, exponents=range(0, 4), horizon=5.0)
        assert cert.passed
        assert cert.measured["final_dist"] <= 1e-12

    def test_equilibrium_x0_is_vacuous(self):
        # A x0 = 0 and B K x0 = 0: the state never moves under any gate
        cert = weak_star_demo(A_DI, B_DI, [[0.0, -1.0]], [1.0, 0.0],
                              exponents=range(0, 4), horizon=5.0)
        assert not cert.passed
        assert cert.notes == [
            "vacuous: x0 is an equilibrium for every gate value"]
        # with feedback through x1 the same x0 moves, and is checked
        cert = weak_star_demo(A_DI, B_DI, [[-1.0, -1.0]], [1.0, 0.0],
                              exponents=range(0, 4), horizon=5.0)
        assert cert.measured["sup_dist_i_1"] > 0.0
        assert not cert.notes

    def test_square_wave_convergence_short(self):
        cert = weak_star_demo(A_ROTATION, B_ROT, -B_ROT.T, [1.0, 0.0],
                              duty=0.5, exponents=range(0, 7), horizon=5.0)
        assert cert.passed
        assert cert.measured["rate_hat"] > 0.5
        assert cert.tolerance["final_tol"] == 0.01

    @pytest.mark.parametrize("duty, exponents, horizon", [
        (0.5, range(0, 11), 10.0),   # the acceptance case A13
        (0.3, range(0, 7), 5.0),
    ])
    def test_matches_reference_loop(self, duty, exponents, horizon):
        args = (A_ROTATION, B_ROT, -B_ROT.T, [1.0, 0.0])
        cert = weak_star_demo(*args, duty=duty, exponents=exponents,
                              horizon=horizon)
        ref = reference_weak_star_dists(*args, duty, exponents, horizon)
        assert len(ref) == len(exponents)
        for key, d in ref.items():
            assert abs(cert.measured[key] - d) <= 1e-12

    @pytest.mark.parametrize("duty, slices", [(0.5, 4), (0.3, 10)])
    def test_exponentials_do_not_grow_with_i(self, duty, slices):
        # the acceptance case's 22 propagations take one stacked expm each,
        # and square waves of period 1/i up to i = 1024 key one period's
        # pieces, so the stacks hold at most as many slices at i = 1024 as
        # at i = 1; at duty 0.3, whose cuts land ulps apart from period to
        # period, keying every piece grew them from 10 to 20 slices
        real, stacks = simcore.expm, []

        def count(m, t=1.0):
            stacks.append(len(m))
            return real(m, t)

        with mock.patch.object(simcore, "expm", count):
            weak_star_demo(A_ROTATION, B_ROT, -B_ROT.T, [1.0, 0.0],
                           duty=duty, exponents=range(0, 11), horizon=10.0)
        assert len(stacks) == 22
        assert max(stacks) <= slices and sum(stacks) <= 22 * slices

    def test_initial_condition_perturbation_bound(self):
        # with the signal fixed, the deviation is the propagated difference;
        # bound it by the worst fundamental-matrix gain over the horizon
        sig = make_duty(CLS, phase=0.1)
        loop = rotation_loop(sig)
        x0 = np.array([1.0, 0.0])
        delta = np.array([1e-3, -2e-3])
        a = propagate(loop, 0.0, x0, 8.0)
        b = propagate(loop, 0.0, x0 + delta, 8.0)
        from pestab.simcore import propagate_batch
        e1, e2 = propagate_batch(loop, 0.0, np.eye(2), 8.0)
        # Frobenius norm dominates the operator norm
        fund_gain = np.sqrt(np.sum(e1.states ** 2, axis=1)
                            + np.sum(e2.states ** 2, axis=1))
        dev = np.linalg.norm(b.states - a.states, axis=1)
        assert np.all(dev <= fund_gain * np.linalg.norm(delta) * (1 + 1e-9))


class TestBatteryRecord:
    """A certificate over a battery records it by size; the caller that
    built the battery records the rest."""

    BAT = tuple(make_battery(CLS, 3, seed=5).signals)
    GRID = unit_circle_grid(4)

    @pytest.mark.parametrize("certify_battery", [
        lambda bat, grid: estimate_eta(A_ROTATION, B_ROT, CLS, bat),
        lambda bat, grid: certify.f_monotone_battery(CLS, 0.2, 4.0, 8.0, bat,
                                                     grid, 7.5),
        lambda bat, grid: dwell_oracle.dwell_scaling(CLS, 0.2, 4.0, 2.0,
                                                     bat, grid),
        lambda bat, grid: certify.quadrant_battery(CLS, 0.2, 4.0, 8.0, bat,
                                                   grid, 7.5),
        lambda bat, grid: certify.cs_decay_battery(CLS, 0.2, 4.0, 8.0, bat,
                                                   grid, 7.5),
        lambda bat, grid: certify.chain_battery(CLS, 0.2, 4.0, 8.0, bat,
                                                grid, 7.5),
        lambda bat, grid: multi_input_identity(np.eye(2), 1.0, bat,
                                               list(grid.T), 5.0),
    ], ids=["estimate_eta", "f_monotone_battery", "dwell_scaling",
            "quadrant_battery", "cs_decay_battery", "chain_battery",
            "multi_input_identity"])
    def test_records_the_battery_size(self, certify_battery):
        cert = certify_battery(self.BAT, self.GRID)
        assert cert.to_json()["battery"] == {"size": len(self.BAT)}

    @pytest.mark.parametrize("certify_battery", [
        lambda: estimate_eta(A_ROTATION, B_ROT, CLS, []),
        lambda: certify.chain_battery(CLS, 0.2, 4.0, 8.0, [],
                                      unit_circle_grid(4), 7.5),
        lambda: multi_input_identity(np.eye(2), 1.0, [],
                                     [np.array([1.0, 0.0])], 5.0),
    ], ids=["estimate_eta", "chain_battery", "multi_input_identity"])
    def test_empty_battery_refused(self, certify_battery):
        # a certificate over no signal certifies nothing, so it is refused
        # before any run is propagated
        with mock.patch.object(certify, "propagate_batch") as batch, \
                mock.patch.object(certify, "propagate") as single:
            with pytest.raises(InsufficientDataError, match="empty battery"):
                certify_battery()
        assert not batch.called and not single.called

    NO_STATE = np.zeros((2, 0))

    @pytest.mark.parametrize("certify_battery", [
        lambda bat: certify.f_monotone_battery(CLS, 0.2, 4.0, 8.0, bat,
                                               TestBatteryRecord.NO_STATE,
                                               7.5),
        lambda bat: certify.cs_decay_battery(CLS, 0.2, 4.0, 8.0, bat,
                                             TestBatteryRecord.NO_STATE, 7.5),
        lambda bat: certify.quadrant_battery(CLS, 0.2, 4.0, 8.0, bat,
                                             TestBatteryRecord.NO_STATE, 7.5),
        lambda bat: certify.chain_battery(CLS, 0.2, 4.0, 8.0, bat,
                                          TestBatteryRecord.NO_STATE, 7.5),
        lambda bat: dwell_oracle.dwell_scaling(CLS, 0.2, 4.0, 2.0, bat,
                                               TestBatteryRecord.NO_STATE),
        lambda bat: multi_input_identity(np.eye(2), 1.0, bat, [], 5.0),
    ], ids=["f_monotone_battery", "cs_decay_battery", "quadrant_battery",
            "chain_battery", "dwell_scaling", "multi_input_identity"])
    def test_no_initial_state_refused(self, certify_battery):
        # a battery over no initial state certifies nothing either (it used
        # to pass, or write -Infinity), so it is refused before any run
        with mock.patch.object(certify, "propagate_batch") as batch, \
                mock.patch.object(certify, "propagate") as single:
            with pytest.raises(InsufficientDataError,
                               match="no initial state"):
                certify_battery(self.BAT)
        assert not batch.called and not single.called

    @pytest.mark.parametrize("m", [0, -2])
    def test_empty_grid_refused(self, m):
        with pytest.raises(DomainError, match="at least one initial state"):
            unit_circle_grid(m)


class TestIdentities:
    def test_rescaling_certificate(self):
        sig = make_duty(CLS, phase=0.25, on_value=0.8)
        cert = rescaling_identity(0.16, 0.8, sig, [1.0, 0.4], horizon=3.0)
        assert cert.passed
        assert cert.measured["max_rel_error"] <= 1e-9

    def test_multi_input_certificate(self):
        rng = np.random.default_rng(31)
        B = rng.standard_normal((2, 3)) + np.hstack([2 * np.eye(2),
                                                     np.zeros((2, 1))])
        bat = make_battery(CLS, 5, seed=3).signals
        cert = multi_input_identity(B, 1.5, bat,
                                    [np.array([1.0, 0.0]),
                                     np.array([-0.4, 0.8])], horizon=4.0)
        assert cert.passed
        assert cert.measured["max_identity_rel_error"] <= 1e-9

    def test_multi_input_matches_reference_loop(self):
        rng = np.random.default_rng(12)
        bat = make_battery(CLS, 6, seed=12).signals
        x0s = [np.array([1.0, 0.0]), np.array([-0.4, 0.8])]
        for m in (2, 3):
            B = rng.standard_normal((2, m)) + np.hstack(
                [2.0 * np.eye(2), np.zeros((2, m - 2))])
            cert = multi_input_identity(B, 1.2, bat, x0s, horizon=6.0)
            ref = reference_multi_input_measured(B, 1.2, bat, x0s, 6.0)
            assert cert.measured.keys() == ref.keys()
            for key, v in ref.items():
                assert abs(cert.measured[key] - v) <= 1e-12

    def test_c_rho_closed_form_is_the_grid_minimum(self):
        for rho in (0.05, 0.2, 0.45):
            lo = -(1.0 + math.sqrt(1.0 - rho)) / 2.0
            hi = -(1.0 - math.sqrt(1.0 - (2.0 - rho / 2.0) * rho)) / 2.0
            s = np.linspace(-50.0, 50.0, 2_000_001)
            s = np.concatenate([s[(s <= lo) | (s >= hi)], [lo, hi]])
            g = (s * s + s + rho / 2.0) / (s * s + 1.0)
            got = c_rho_closed_form(rho)
            assert got == pytest.approx(float(np.min(g)), abs=1e-9)
            assert got > 0.0
