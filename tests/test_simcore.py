import csv
import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

from kl_oracle import fitted_rate
from pestab import simcore
from pestab.adversary import run_destabilizer
from pestab.errors import DegenerateStateError, DomainError, ShapeError
from pestab.gains import A_DI, A_ROTATION, B_DI, di_base_gain, di_gain
from pestab.matkit import expm
from pestab.signals import (PeClass, PwcSignal, integrate_signal,
                            make_battery, make_duty, rescale_time)
from pestab.simcore import (ClosedLoop, crossing_time, fmap_F, polar_lift,
                            propagate, propagate_batch)

CLS = PeClass(1.0, 0.5)


def di_loop(alpha, rho=0.2, k=1.0):
    return ClosedLoop(A_DI, B_DI, di_base_gain(rho, k), alpha)


class TestPropagate:
    def test_free_double_integrator(self):
        tr = propagate(di_loop(PwcSignal.constant(0.0)), 0.0, [0.0, 1.0], 3.0)
        expected = np.column_stack([tr.times, np.ones_like(tr.times)])
        assert np.max(np.abs(tr.states - expected)) < 1e-12

    def test_scalar_closed_form_rate(self):
        # x' = x + 0.5*(-3)x: every window contracts at rate 0.5
        loop = ClosedLoop([[1.0]], [[1.0]], [[-3.0]], PwcSignal.constant(0.5))
        tr = propagate(loop, 0.0, [2.0], 4.0)
        for dt in (0.5, 1.0, 2.5):
            x_t = tr.state_at(1.0)[0]
            x_next = tr.state_at(1.0 + dt)[0]
            assert math.log(x_next / x_t) / dt == pytest.approx(-0.5, abs=1e-12)

    def test_neutral_norm_nonincreasing_two_resolutions(self):
        loop = ClosedLoop(A_ROTATION, B_DI, -B_DI.T, PwcSignal.constant(1.0))
        coarse = propagate(loop, 0.0, [1.0, 0.0], 10.0, max_step=1e-3)
        fine = propagate(loop, 0.0, [1.0, 0.0], 10.0, max_step=1e-4)
        for tr in (coarse, fine):
            d = np.diff(tr.norms())
            assert np.all(d <= 1e-12)
        # the two resolutions agree where they share samples
        assert np.max(np.abs(coarse.state_at(7.0) - fine.state_at(7.0))) < 1e-11

    def test_semigroup_consistency(self):
        sig = make_duty(CLS, phase=0.2, on_value=0.8)
        loop = di_loop(sig, k=2.0)
        full = propagate(loop, 0.0, [1.0, -0.3], 3.0)
        first = propagate(loop, 0.0, [1.0, -0.3], 1.7)
        second = propagate(loop, 1.7, first.states[-1], 3.0)
        for t in (0.9, 1.7, 2.2, 3.0):
            direct = full.state_at(t)
            split = (first if t <= 1.7 else second).state_at(t)
            assert np.max(np.abs(direct - split)) < 1e-10

    def test_constant_alpha_exact_independent_of_step(self):
        loop = di_loop(PwcSignal.constant(0.7), k=3.0)
        m = loop.matrix(0.7)
        for step in (0.5, 0.05, 0.003):
            tr = propagate(loop, 0.0, [1.0, 1.0], 2.0, max_step=step)
            for j in (len(tr.times) // 2, len(tr.times) - 1):
                exact = expm(m, tr.times[j]) @ np.array([1.0, 1.0])
                assert np.max(np.abs(tr.states[j] - exact)) < 1e-10

    def test_homogeneity(self):
        sig = make_duty(CLS, phase=0.4)
        loop = di_loop(sig, k=2.0)
        base = propagate(loop, 0.0, [0.3, -1.1], 5.0)
        scaled = propagate(loop, 0.0, [3.0, -11.0], 5.0)
        assert np.max(np.abs(10.0 * base.states - scaled.states)) < \
            1e-10 * np.max(np.abs(scaled.states))

    def test_breakpoints_are_samples(self):
        sig = make_duty(CLS, on_value=0.8, pattern="split", splits=3)
        tr = propagate(di_loop(sig), 0.0, [1.0, 0.0], 2.0)
        for b in np.arange(0.0, 2.0, 1.0 / 3.0):
            assert np.min(np.abs(tr.times - b)) < 1e-12

    def test_batch_matches_single(self):
        sig = make_duty(CLS)
        loop = di_loop(sig, k=2.0)
        cols = np.array([[1.0, 0.0], [0.0, 1.0]])
        batch = propagate_batch(loop, 0.0, cols, 3.0)
        for j in range(2):
            single = propagate(loop, 0.0, cols[:, j], 3.0)
            # gemm vs gemv BLAS kernels may round an ulp apart
            assert np.allclose(batch[j].states, single.states,
                               rtol=1e-13, atol=1e-15)

    def test_level_matrix_is_fresh_and_exact(self):
        loop = di_loop(PwcSignal.constant(0.7))
        for a in np.linspace(-1.0, 2.0, 769):
            np.testing.assert_array_equal(loop.matrix(float(a)),
                                          loop.A + a * loop.B @ loop.K)
        before = propagate(loop, 0.0, [1.0, 0.0], 2.0).states
        # a caller that edits a level's matrix in place leaves the loop as
        # it was
        loop.matrix(0.7)[:] = 0.0
        np.testing.assert_array_equal(
            propagate(loop, 0.0, [1.0, 0.0], 2.0).states, before)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            ClosedLoop(A_DI, B_DI, np.zeros((1, 3)), PwcSignal.constant(1.0))
        with pytest.raises(ShapeError):
            propagate(di_loop(PwcSignal.constant(1.0)), 0.0, [1.0], 1.0)
        with pytest.raises(DomainError):
            propagate(di_loop(PwcSignal.constant(1.0)), 1.0, [1.0, 0.0], 1.0)
        with pytest.raises(ShapeError):
            propagate_batch(di_loop(PwcSignal.constant(1.0)), 0.0,
                            [[1.0, np.nan], [0.0, 1.0]], 1.0)

    @pytest.mark.parametrize("step", [0.0, -1e-3, math.nan])
    def test_max_step_must_be_positive(self, step):
        # a NaN step was a ValueError from math.ceil
        with pytest.raises(DomainError, match="max_step"):
            propagate(di_loop(PwcSignal.constant(1.0)), 0.0, [1.0, 0.0], 1.0,
                      max_step=step)

    @pytest.mark.parametrize("sig", [PwcSignal.constant(1.0),
                                     make_duty(PeClass(1.0, 0.5))],
                             ids=["constant", "duty"])
    def test_infinite_horizon_refused(self, sig):
        # the constant gate raised ShapeError from expm, after two
        # RuntimeWarnings, and the duty gate an untyped OverflowError
        loop = di_loop(sig)
        with pytest.raises(DomainError, match="finite"):
            propagate(loop, 0.0, [1.0, 0.0], math.inf)
        with pytest.raises(DomainError, match="finite"):
            propagate_batch(loop, 0.0, np.eye(2), math.inf)


class TestStepCounts:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sig", [PwcSignal.constant(1.0),
                                     make_duty(PeClass(1.0, 0.5))],
                             ids=["constant", "duty"])
    def test_horizon_beyond_int64_steps_refused(self, sig):
        # the step count of a 1e300 horizon overflowed its int64 cast: a
        # RuntimeWarning, then an untyped IndexError
        loop = di_loop(sig)
        step = repr(loop.default_max_step())
        for call in (lambda: propagate(loop, 0.0, [1.0, 0.0], 1e300),
                     lambda: propagate_batch(loop, 0.0, np.eye(2), 1e300),
                     lambda: simcore._end_rate(loop, np.eye(2), 1e300)):
            with pytest.raises(DomainError,
                               match=f"t1=1e\\+300 at max_step={step}"):
                call()

    def test_period_count_beyond_int64_refused(self):
        # steps of 1 but periods of 1e-20: the period count is the larger
        loop = di_loop(PwcSignal.periodic((0.0, 5e-21, 1e-20), (1.0, 0.0)))
        with pytest.raises(DomainError, match="steps or periods"):
            propagate(loop, 0.0, [1.0, 0.0], 1e3, max_step=1.0)
        propagate(loop, 0.0, [1.0, 0.0], 1e-18, max_step=1.0)


class TestFloquet:
    """The monodromy of a periodic gate and the exact decay rates read from
    it, against independent oracles."""

    GATES = [make_duty(CLS, phase=0.3, on_value=0.8),
             make_duty(CLS, on_value=0.7, pattern="split", splits=3),
             PwcSignal.periodic((0.0, 0.1, 0.35, 0.6, 1.3),
                                (0.2, 1.0, 0.0, 0.55))]

    @pytest.mark.parametrize("sig", GATES)
    @pytest.mark.parametrize("k", [1.0, 4.0])
    def test_monodromy_is_the_sequential_expm_product(self, sig, k):
        loop = di_loop(sig, k=k)
        want = np.eye(2)
        bp = sig.breakpoints
        for a, s, e in zip(sig.values, bp, bp[1:]):
            want = scipy.linalg.expm((e - s) * loop.matrix(a)) @ want
        got = simcore.monodromy(loop)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("sig", GATES)
    @pytest.mark.parametrize("periods", [1, 7, 20])
    def test_monodromy_powers_match_solve_ivp(self, sig, periods):
        # x(N p) = M^N x0, at the bounds of the kernel's solve_ivp oracle
        loop = di_loop(sig, k=2.0)
        x = np.array([1.0, -0.4])
        want = np.linalg.matrix_power(simcore.monodromy(loop), periods) @ x
        for j in range(periods):
            for a, s, e in zip(sig.values, sig.breakpoints,
                               sig.breakpoints[1:]):
                m = loop.matrix(a)
                x = solve_ivp(lambda t, y: m @ y, (s, e), x, method="DOP853",
                              rtol=1e-13, atol=1e-15 * np.abs(x).max()
                              ).y[:, -1]
        np.testing.assert_allclose(want, x, rtol=1e-10,
                                   atol=1e-10 * np.abs(x).max())
        # the run's state at N p is read from the same powers
        end = propagate(loop, 0.0, [1.0, -0.4], periods * sig.period)
        np.testing.assert_allclose(end.states[-1], want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("a", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("k", [0.5, 2.0])
    def test_constant_gate_rate_is_the_spectral_abscissa(self, a, k):
        loop = di_loop(PwcSignal.constant(a), k=k)
        want = -np.linalg.eigvals(loop.A + a * loop.B @ loop.K).real.max()
        assert simcore.floquet_rate(loop) == want
        periodic = di_loop(PwcSignal.periodic((0.0, 0.7), (a,)), k=k)
        assert simcore.floquet_rate(periodic) == pytest.approx(
            want, rel=1e-9, abs=1e-9)

    def test_monodromy_determinant_is_liouville(self):
        # det M = exp(p tr A + tr(BK) int_0^p alpha), with no exponential
        cls = PeClass(1.0, 0.5)
        K = np.asarray(di_gain(cls, 0.2, 2.0, 4.0).K)
        members = [sig for sig in make_battery(cls, 200, 0).signals
                   if sig.period is not None]
        assert len(members) > 150
        for sig in members:
            loop = ClosedLoop(A_DI, B_DI, K, sig)
            want = math.exp(sig.period * np.trace(A_DI) + np.trace(B_DI @ K)
                            * integrate_signal(sig, 0.0, sig.period))
            got = np.linalg.det(simcore.monodromy(loop))
            assert got == pytest.approx(want, rel=1e-12)

    def test_held_gate_has_no_monodromy(self):
        for sig in (PwcSignal.constant(0.5),
                    PwcSignal.held((0.0, 1.0, 2.0), (1.0, 0.0))):
            with pytest.raises(DomainError, match="no period"):
                simcore.monodromy(di_loop(sig))

    @pytest.mark.parametrize("k1, k2, mu", [(1.0, 1.0, 0.05),
                                            (2.0, 1.0, 0.03),
                                            (1.0, 3.0, 0.02)])
    def test_destabilizer_revolution_monodromy_is_growth(self, k1, k2, mu):
        # the gate the destabilizer induces repeats its last four phases;
        # the monodromy of that period has spectral radius growth_per_rev
        cls = PeClass(1.0, mu)
        K = np.array([[-k1, -k2]])
        run = run_destabilizer(K, cls, revolutions=10)
        ts = np.array([c["t"] for c in run.crossings[-5:]])
        levels = [1.0 if c["region_from"] in (2, 4) else cls.ratio
                  for c in run.crossings[-4:]]
        sig = PwcSignal.periodic(ts - ts[0], levels)
        M = simcore.monodromy(ClosedLoop(A_DI, B_DI, K, sig))
        rho = np.max(np.abs(np.linalg.eigvals(M)))
        assert run.growth_per_rev > 1.0
        assert rho == pytest.approx(run.growth_per_rev, rel=1e-12)
        assert simcore.floquet_rate(ClosedLoop(A_DI, B_DI, K, sig)) == \
            pytest.approx(-math.log(rho) / sig.period, rel=1e-15)


class TestRescalingIdentity:
    def test_trajectory_identity(self):
        # Diag(1, lam) x(lam t; K, alpha) == x(t; K_lam, alpha(lam .))
        k1, k2 = 0.16, 0.8
        sig = make_duty(CLS, phase=0.1, on_value=0.9)
        K = np.array([[-k1, -k2]])
        base_loop = ClosedLoop(A_DI, B_DI, K, sig)
        for lam in (0.5, 2.0, 8.0):
            base = propagate(base_loop, 0.0, [1.0, 0.4], lam * 3.0,
                             max_step=lam * 0.01)
            K_lam = np.array([[-lam * lam * k1, -lam * k2]])
            loop = ClosedLoop(A_DI, B_DI, K_lam, rescale_time(sig, lam))
            scaled = propagate(loop, 0.0, [1.0, lam * 0.4], 3.0,
                               max_step=0.01)
            assert len(base.times) == len(scaled.times)
            assert np.max(np.abs(base.times - lam * scaled.times)) < 1e-12
            lhs = base.states * np.array([1.0, lam])
            denom = np.maximum(np.abs(scaled.states), 1.0)
            assert np.max(np.abs(lhs - scaled.states) / denom) < 1e-9


def first_crossing(tr, c):
    """crossing_time on the first sample segment where c . x changes sign."""
    f = tr.states @ np.asarray(c, dtype=float)
    j = int(np.flatnonzero(f[:-1] * f[1:] < 0.0)[0])
    return crossing_time(*tr.segment_flow(j), c)


class TestDetectCrossing:
    def test_free_flow_vertical_line(self):
        # x' = (x2, 0) from (-1, 1) crosses x1 = 0 at t = 1
        tr = propagate(di_loop(PwcSignal.constant(0.0)), 0.0, [-1.0, 1.0], 2.0,
                       max_step=0.4)
        hit = first_crossing(tr, (1.0, 0.0))
        assert hit == pytest.approx(1.0, abs=1e-12)

    def test_rotation_quarter_turn(self):
        loop = ClosedLoop(A_ROTATION, B_DI, np.zeros((1, 2)),
                          PwcSignal.constant(0.0))
        tr = propagate(loop, 0.0, [1.0, 0.0], 2.0, max_step=0.05)
        hit = first_crossing(tr, (1.0, 0.0))
        assert hit == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_zero_at_left_end_returns_left_end(self):
        # x2 = sin t is 0 at t_lo and positive after it
        x_lo = np.array([1.0, 0.0])
        assert crossing_time(A_ROTATION, x_lo, 0.0, 0.1, (0.0, 1.0)) == 0.0
        assert crossing_time(A_ROTATION, x_lo, 2.0, 2.1, (0.0, -1.0)) == 2.0

    def test_zero_at_right_end_returns_right_end(self):
        # free flow from (-1, 1): x1 = -1 + t is exactly 0.0 at t = 1
        assert crossing_time(A_DI, np.array([-1.0, 1.0]), 0.0, 1.0,
                             (1.0, 0.0)) == 1.0

    def test_no_sign_change_in_dense_output_returns_right_end(self):
        # the caller saw a sign change in its samples that the exact flow
        # does not show by t_hi (rounding): t_hi comes back, whether the
        # flow meets the line later or never
        x_lo = np.array([1.0, 0.0])
        assert crossing_time(A_ROTATION, x_lo, 0.5, 0.6, (1.0, 0.0)) == 0.6
        assert crossing_time(-np.eye(2), x_lo, 0.5, 0.6, (1.0, 0.0)) == 0.6

    def test_interval_finer_than_time_rounding(self):
        # the root lies within a few float spacings of t = 1000; the offset
        # from t_lo is found in closed form, with no exponential, and the
        # nearest float time is returned
        x_lo = np.array([1.0, -1e-4])
        with mock.patch.object(simcore, "expm", wraps=simcore.expm) as counted:
            t = crossing_time(A_ROTATION, x_lo, 1000.0, 1000.001, (0.0, 1.0))
        assert abs(t - (1000.0 + math.atan(1e-4))) <= np.spacing(1000.0)
        assert counted.call_count == 0

    @pytest.mark.parametrize("m, x_lo", [
        (np.eye(3), np.ones(3)), (np.eye(2), np.ones(3)),
        (np.eye(1), np.ones(1))], ids=["3x3", "mixed", "1x1"])
    def test_non_planar_flow_refused(self, m, x_lo):
        with pytest.raises(ShapeError, match="planar"):
            crossing_time(m, x_lo, 0.0, 1.0, np.ones(len(x_lo)))


class TestPolarLift:
    def test_point_values(self):
        loop = di_loop(PwcSignal.constant(0.0))
        tr = propagate(loop, 0.0, [1.0, 1.0], 0.5)
        lifted = polar_lift(tr)
        assert lifted.channels["r"][0] == pytest.approx(math.sqrt(2.0))
        assert lifted.channels["theta"][0] == pytest.approx(math.pi / 4.0)

    def test_rotation_angle_is_time(self):
        loop = ClosedLoop(A_ROTATION, B_DI, np.zeros((1, 2)),
                          PwcSignal.constant(0.0))
        tr = polar_lift(propagate(loop, 0.0, [1.0, 0.0], 9.0))
        assert np.max(np.abs(tr.channels["theta"] - tr.times)) < 1e-12

    def test_unwrap_two_clockwise_turns(self):
        loop = ClosedLoop(-A_ROTATION, B_DI, np.zeros((1, 2)),
                          PwcSignal.constant(0.0))
        horizon = 4.0 * math.pi
        tr = polar_lift(propagate(loop, 0.0, [1.0, 0.0], horizon))
        th = tr.channels["theta"]
        assert th[-1] == pytest.approx(-4.0 * math.pi, abs=1e-10)
        assert np.max(np.abs(np.diff(th))) < math.pi / 4.0

    def test_coarse_step_aliasing_rejected(self):
        # steps of 4 on a unit-speed rotation: nearest-branch unwrapping
        # would end at theta = -6.85 instead of 12
        loop = ClosedLoop(A_ROTATION, B_DI, np.zeros((1, 2)),
                          PwcSignal.constant(0.0))
        with pytest.raises(DegenerateStateError):
            polar_lift(propagate(loop, 0.0, [1.0, 0.0], 12.0, max_step=4.0))
        tr = polar_lift(propagate(loop, 0.0, [1.0, 0.0], 12.0, max_step=1.5))
        assert tr.channels["theta"][-1] == pytest.approx(12.0, abs=1e-12)

    def test_guard_reads_each_level(self):
        # 0.3 steps are safe at level 0 (norm 1) but not at level 1, where
        # the feedback raises the norm above 6; the last level-1 piece has
        # a safe 0.05 step, so the guard must read the longest step
        sig = PwcSignal.periodic((0.0, 3.0, 3.3), (0.0, 1.0))
        loop = ClosedLoop(A_ROTATION, B_DI, [[0.0, -6.0]], sig)
        tr = propagate(loop, 0.0, [1.0, 0.0], 6.35, max_step=0.3)
        with pytest.raises(DegenerateStateError, match="alpha=1"):
            polar_lift(tr)
        polar_lift(tr.window(0, 10))

    def test_zero_state_rejected(self):
        loop = di_loop(PwcSignal.constant(0.0))
        tr = propagate(loop, 0.0, [1.0, 0.0], 1.0)
        tr.states[0] = 0.0
        with pytest.raises(DegenerateStateError):
            polar_lift(tr)


class TestFmap:
    def test_branch_values(self):
        assert fmap_F(math.pi / 2.0, 3.0) == math.pi / 2.0
        assert fmap_F(0.0, 3.0) == 0.0
        assert fmap_F(math.pi, 3.0) == pytest.approx(math.pi)

    def test_strictly_increasing_on_grid(self):
        th = np.linspace(0.0, math.pi, 10_000)
        vals = fmap_F(th, 4.0)
        assert np.all(np.diff(vals) > 0.0)

    def test_period_shift(self):
        th = np.linspace(-2.0, 2.0, 101)
        assert np.allclose(fmap_F(th + math.pi, 4.0),
                           fmap_F(th, 4.0) + math.pi, atol=1e-12)

    def test_polar_rate_law(self):
        # on constant-alpha pieces the centered difference of theta matches
        # -sin^2(th) - a cos(th) (k1 cos(th) + k2 sin(th)) to O(h^2)
        rho, k, a = 0.2, 4.0, 0.7
        k1, k2 = rho * k * k / 2.0, k
        loop = di_loop(PwcSignal.constant(a), rho=rho, k=k)
        h = 1e-4
        tr = polar_lift(propagate(loop, 0.0, [-1.0, 0.3], 1.0, max_step=h))
        th = tr.channels["theta"]
        t = tr.times
        cd = (th[2:] - th[:-2]) / (t[2:] - t[:-2])
        model = -np.sin(th) ** 2 - a * np.cos(th) * (
            k1 * np.cos(th) + k2 * np.sin(th))
        assert np.max(np.abs(cd - model[1:-1])) < 100.0 * h * h * (k1 + k2) ** 2


class TestCsv:
    def test_column_contract(self, tmp_path):
        sig = make_duty(CLS)
        tr = polar_lift(propagate(di_loop(sig, k=2.0), 0.0, [1.0, 0.0], 1.0))
        tr = tr.with_energy()
        tr = tr.with_channels(F_theta=fmap_F(tr.channels["theta"], 2.0))
        path = tmp_path / "traj.csv"
        tr.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x1", "x2", "alpha", "V", "r", "theta",
                           "F_theta"]
        assert len(rows) == len(tr.times) + 1
        assert float(rows[1][0]) == 0.0
        assert float(rows[1][3]) == 1.0  # duty signal starts on

    def test_missing_channels_are_empty(self, tmp_path):
        tr = propagate(di_loop(PwcSignal.constant(1.0)), 0.0, [1.0, 0.0], 0.5)
        path = tmp_path / "bare.csv"
        tr.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[1][4:] == ["", "", "", ""]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("names", [(), ("V",), ("V", "r", "theta",
                                                      "F_theta")])
    def test_bytes_match_csv_writer_reference(self, tmp_path, n, names):
        # more rows than two write blocks, with signed zeros and non-finite
        # channel values; the second gate's levels include 0.0, -0.0 and
        # one that takes 17 digits, each formatted once for all its samples
        signed = PwcSignal.periodic((0.0, 0.25, 0.5, 0.75, 1.0),
                                    (0.0, 0.1 + 0.2, -0.0, 1.0))
        for sig in (make_duty(CLS), signed):
            rng = np.random.default_rng(n)
            loop = ClosedLoop(rng.normal(size=(n, n)), np.ones((n, 1)),
                              np.zeros((1, n)), sig)
            tr = propagate(loop, 0.0, rng.normal(size=n), 3.0,
                           max_step=0.0025)
            assert len(tr.times) > 2 * simcore._CSV_BLOCK
            special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300]
            tr = tr.with_channels(**{
                name: np.concatenate((special, rng.normal(
                    size=len(tr.times) - len(special))))
                for name in names})
            tr.to_csv(tmp_path / "fast.csv")
            reference_to_csv(tr, tmp_path / "ref.csv")
            assert (tmp_path / "fast.csv").read_bytes() == \
                (tmp_path / "ref.csv").read_bytes()
        with open(tmp_path / "fast.csv") as fh:
            alpha = {row[n + 1] for row in list(csv.reader(fh))[1:]}
        assert alpha == {"0.0", "-0.0", "0.30000000000000004", "1.0"}


def reference_to_csv(tr, path):
    """The per-row csv.writer export Trajectory.to_csv replaced."""
    header = ["t"] + [f"x{i+1}" for i in range(tr.n)] + \
        ["alpha", "V", "r", "theta", "F_theta"]
    chans = tr.channels
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for j, t in enumerate(tr.times):
            a = tr.seg_alpha[min(j, len(tr.seg_alpha) - 1)]
            row = [repr(float(t))] + [repr(float(x)) for x in tr.states[j]]
            row.append(repr(float(a)))
            for name in ("V", "r", "theta", "F_theta"):
                row.append(repr(float(chans[name][j])) if name in chans else "")
            w.writerow(row)


class TestRowNorms:
    def test_rows_below_square_underflow(self):
        # squares of entries below about 1e-154 underflow; the norms here
        # are what the rescaled rows give
        x = np.array([[3e-200, 4e-200], [0.0, 0.0], [1e-160, 0.0],
                      [5e-324, 0.0], [-3e-170, 4e-170]])
        nrm = simcore._row_norms(x)
        assert np.linalg.norm(x[0]) == 0.0
        assert nrm[0] == pytest.approx(5e-200, rel=1e-15)
        assert nrm[1] == 0.0
        assert nrm[2] == 1e-160
        assert nrm[3] == 5e-324
        assert nrm[4] == pytest.approx(5e-170, rel=1e-15)

    def test_other_rows_keep_their_bits(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(
            -140, 140, (200, 1))
        x[::7] = np.nan
        want = np.linalg.norm(x, axis=1)
        assert simcore._row_norms(x).tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rows_above_square_overflow(self):
        # squares of entries above about 1.3e154 overflow; a row with an
        # infinite entry, or a norm beyond the largest double, reads inf
        x = np.array([[3e200, 4e200], [1e300, 1e300], [1e150, 0.0],
                      [-3e170, 4e170], [np.inf, 1.0], [1.5e308, 1.5e308]])
        nrm = simcore._row_norms(x)
        assert nrm[0] == pytest.approx(5e200, rel=1e-15)
        assert nrm[1] == pytest.approx(math.sqrt(2.0) * 1e300, rel=1e-15)
        assert nrm[2] == 1e150
        assert nrm[3] == pytest.approx(5e170, rel=1e-15)
        assert nrm[4] == math.inf and nrm[5] == math.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_run_beyond_square_overflow_keeps_its_rate(self):
        # x' = x ends at e^400, about 5e173: its norm read inf, so the
        # rate read -inf, and norms() warned of an overflow
        loop = ClosedLoop([[1.0]], [[1.0]], [[0.0]], PwcSignal.constant(1.0))
        runs = propagate_batch(loop, 0.0, [[1.0]], 400.0)
        assert runs[0].norms()[-1] == runs[0].states[-1, 0] > 5e173
        for rate in (simcore._end_rate(loop, [[1.0]], 400.0),
                     fitted_rate(runs, 400.0)):
            assert rate == pytest.approx(-1.0, rel=1e-12)


class TestEnergy:
    def test_rows_with_a_finite_sum_keep_their_bits(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(
            -200, 150, (200, 1))
        x[::9] = np.nan
        want = 0.5 * np.sum(x ** 2, axis=1)
        assert simcore._energy(x).tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rows_above_square_overflow(self):
        # |x|^2 overflows from about 1.34e154, |x|^2/2 from about 1.9e154
        x = np.array([[1.5e154, 0.0], [-1.2e154, 1.2e154], [1.9e154, 0.0],
                      [2e154, 0.0], [np.inf, 0.0], [1e300, 1e300]])
        V = simcore._energy(x)
        assert V[0] == pytest.approx(1.125e308, rel=1e-15)
        assert V[1] == pytest.approx(1.44e308, rel=1e-15)
        assert V[2] == pytest.approx(1.805e308, rel=1e-15)
        assert np.all(V[3:] == math.inf)

    def test_with_energy_reads_it(self):
        loop = ClosedLoop([[1.0]], [[1.0]], [[0.0]], PwcSignal.constant(1.0))
        tr = propagate(loop, 0.0, [1e150], 12.0)
        assert tr.with_energy().channels["V"].tobytes() == \
            simcore._energy(tr.states).tobytes()


class TestRateRule:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x0, x1", [(1e-300, 1e100), (1e100, 1e-300),
                                        (1e-300, 1e10), (5e-324, 1.0)])
    def test_ratio_beyond_the_doubles(self, x0, x1):
        # |x1| / |x0| overflowed (a RuntimeWarning, then rate -inf) or
        # underflowed to 0 (a ValueError from math.log) on finite states
        got = simcore._ends_rate([(np.array([x0, 0.0]), np.array([0.0, x1]))],
                                 2.0)
        assert got == pytest.approx(-(math.log(x1) - math.log(x0)) / 2.0,
                                    rel=1e-15)

    def test_normal_ratios_keep_their_bits(self):
        rng = np.random.default_rng(5)
        for x0, x1 in rng.standard_normal((200, 2, 3)) * 10.0 ** rng.uniform(
                -100, 100, (200, 2, 1)):
            want = -math.log(np.linalg.norm(x1) / np.linalg.norm(x0)) / 3.0
            assert simcore._ends_rate([(x0, x1)], 3.0) == want
