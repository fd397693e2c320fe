import math
from unittest import mock

import numpy as np
import pytest

from pestab import adversary, cli, simcore
from pestab.adversary import (QPartition, _phase_crossing, _rotation_step,
                              find_nu, run_destabilizer, worst_case_search)
from pestab.errors import (DegenerateStateError, DomainError, ShapeError,
                           SimulationError)
from pestab.gains import A_DI, A_ROTATION, B_DI, di_base_gain
from pestab.matkit import expm
from pestab.signals import PeClass, PwcSignal, make_duty, verify_pe
from pestab.simcore import ClosedLoop, propagate

K11 = np.array([[-1.0, -1.0]])

# (k1, k2, mu) of destabilized classes
REPLAY_CASES = [(1.0, 1.0, 0.05), (2.0, 1.0, 0.03), (1.0, 3.0, 0.02)]


def _search_every_phase(k1, k2, mu, x0, revolutions):
    """Crossing times and end states of the sector march with a crossing
    search at every phase, up to the revolutions-th return to the negative
    axis."""
    bk = B_DI @ np.array([[-k1, -k2]])
    x = np.asarray(x0, dtype=float)
    region = QPartition(k1, k2).region(x)
    arrivals = int(x[1] == 0.0 and x[0] < 0.0)
    t, times, ends = 0.0, [], []
    while arrivals <= revolutions:
        full = region in (2, 4)
        m = A_DI + (1.0 if full else mu) * bk
        fn = (lambda y: float(y[1] + (k1 / k2) * y[0])) if full else (
            lambda y: float(y[1]))
        tc, x = _phase_crossing(m, x, fn, _rotation_step(m))
        t += tc
        times.append(t)
        ends.append(x)
        region = region % 4 + 1
        arrivals += region == 4
    return np.array(times), np.array(ends)


class TestRegions:
    def test_spec_points(self):
        # the destabilizer gates sectors 1 and 3 at the class floor and
        # sectors 2 and 4 at full strength
        part = QPartition(1.0, 1.0)
        # x2 > 0 on the closed side of the collinearity line: floor sector
        assert part.region([0.0, 1.0]) == 1
        # below the axis but above the line: full-gate sector
        assert part.region([1.0, -0.5]) == 2
        # on the line with x2 > 0: the closed side belongs to sector 1
        assert part.region([-1.0, 1.0]) == 1

    def test_partition_covers_plane(self):
        part = QPartition(2.0, 3.0)
        rng = np.random.default_rng(0)
        for _ in range(500):
            x = rng.standard_normal(2)
            if np.linalg.norm(x) == 0.0:
                continue
            r = part.region(x)
            assert r in (1, 2, 3, 4)
        # each boundary point lands in exactly one sector
        s = 2.0 / 3.0
        assert part.region([-1.0, s]) == 1     # on D, x2 > 0
        assert part.region([1.0, -s]) == 3     # on D, x2 < 0
        assert part.region([1.0, 0.0]) == 2    # positive axis
        assert part.region([-1.0, 0.0]) == 4   # negative axis

    def test_origin_rejected(self):
        with pytest.raises(DegenerateStateError):
            QPartition(1.0, 1.0).region([0.0, 0.0])

    def test_gain_signs_enforced(self):
        with pytest.raises(DomainError):
            QPartition(-1.0, 1.0)


class TestFindNu:
    def test_positive_for_unit_gain(self):
        nu = find_nu(K11)
        assert 0.0 < nu < 1.0

    def test_bracket_is_genuine(self):
        # just inside the returned level the sweep lands beyond 1; just
        # outside it does not (bisection to 1e-10)
        from pestab.adversary import _phase_crossing, _rotation_step
        nu = find_nu(K11)
        bk = B_DI @ K11
        m1 = A_DI + bk
        res = _phase_crossing(m1, np.array([-1.0, 0.0]),
                              lambda y: float(y[1] + y[0]),
                              _rotation_step(m1))
        x_bar = res[1]

        def xi(nu_val):
            m = A_DI + nu_val * bk
            r = _phase_crossing(m, x_bar, lambda y: float(y[1]),
                                _rotation_step(m))
            return float(r[1][0])

        assert xi(nu * (1.0 - 1e-6)) > 1.0
        assert xi(nu + 1e-6) < 1.0

    def test_sampled_monotonicity(self):
        from pestab.adversary import _phase_crossing, _rotation_step
        bk = B_DI @ K11
        m1 = A_DI + bk
        res = _phase_crossing(m1, np.array([-1.0, 0.0]),
                              lambda y: float(y[1] + y[0]),
                              _rotation_step(m1))
        x_bar = res[1]
        values = []
        for nu in (1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.3, 0.8):
            m = A_DI + nu * bk
            r = _phase_crossing(m, x_bar, lambda y: float(y[1]),
                                _rotation_step(m))
            values.append(float(r[1][0]))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_deterministic(self):
        assert find_nu(K11) == find_nu(K11)


class TestDestabilizer:
    def test_growth_run(self):
        nu = find_nu(K11)
        cls = PeClass(1.0, nu / 2.0)
        run = run_destabilizer(K11, cls, revolutions=10)
        assert run.growth_per_rev > 1.0
        assert run.pe_ok
        n0 = np.linalg.norm(run.traj.states[0])
        nT = np.linalg.norm(run.traj.states[-1])
        assert nT / n0 >= run.growth_per_rev ** 10 * (1.0 - 1e-6)

    def test_factors_multiply(self):
        nu = find_nu(K11)
        run = run_destabilizer(K11, PeClass(1.0, nu / 2.0), revolutions=8)
        f = np.array(run.factors)
        assert np.max(np.abs(f / f[0] - 1.0)) < 1e-9

    def test_half_turn_symmetry(self):
        # successive negative-axis crossings are positive rescalings of the
        # same direction: the second revolution replays the first
        nu = find_nu(K11)
        run = run_destabilizer(K11, PeClass(1.0, nu / 2.0), revolutions=3)
        axis_states = []
        for c in run.crossings:
            x = run.traj.state_at(c["t"])
            if abs(x[1]) < 1e-9 * np.linalg.norm(x) and x[0] < 0.0:
                axis_states.append(x)
        assert len(axis_states) >= 2
        a, b = axis_states[0], axis_states[1]
        assert b[0] / a[0] == pytest.approx(run.growth_per_rev, rel=1e-9)

    def test_scaling_invariance(self):
        nu = find_nu(K11)
        cls = PeClass(1.0, nu / 2.0)
        base = run_destabilizer(K11, cls, x0=(-1.0, 0.0), revolutions=4)
        scaled = run_destabilizer(K11, cls, x0=(-3.0, 0.0), revolutions=4)
        assert scaled.growth_per_rev == pytest.approx(base.growth_per_rev,
                                                      rel=1e-9)

    def test_saturated_class_decays(self):
        run = run_destabilizer(K11, PeClass(1.0, 1.0), revolutions=3)
        assert run.growth_per_rev < 1.0

    def test_induced_signal_values(self):
        nu = find_nu(K11)
        cls = PeClass(1.0, nu / 2.0)
        run = run_destabilizer(K11, cls, revolutions=3)
        assert set(run.induced_signal.values) == {1.0, cls.ratio}
        assert verify_pe(run.induced_signal, cls,
                         run.traj.times[-1]).ok

    def test_seg_alpha_matches_per_phase_fill(self):
        # seg_alpha repeats each phase level once over all phases; it used
        # to fill one array per phase (its samples in (start, end]) and
        # concatenate them
        nu = find_nu(K11)
        run = run_destabilizer(K11, PeClass(1.0, nu / 2.0), revolutions=3)
        sig, times = run.induced_signal, run.traj.times
        bp = sig.breakpoints
        ref = np.concatenate([
            np.full(np.count_nonzero((times > s) & (times <= e)), a)
            for s, e, a in zip(bp, bp[1:], sig.values)])
        assert len(ref) == len(times) - 1
        assert run.traj.seg_alpha.dtype == ref.dtype
        assert run.traj.seg_alpha.tobytes() == ref.tobytes()

    def test_one_step_exponential_per_gate_level(self):
        # every phase on a level marches the same step, so its exponential
        # is taken once per level; each searched phase takes one more for
        # its end state, and the replayed revolutions share one flow per
        # phase of the searched revolution: the count does not grow with
        # the revolutions
        steps = {_rotation_step(A_DI + a * B_DI @ K11) for a in (1.0, 0.03)}
        real = adversary.expm
        calls = []

        def counting(m, t=1.0):
            calls.append(t)
            return real(m, t)

        for revolutions in (3, 10):
            calls.clear()
            with mock.patch.object(adversary, "expm", counting):
                run = run_destabilizer(K11, PeClass(1.0, 0.03),
                                       revolutions=revolutions)
            # from the negative axis one revolution, 4 phases, is searched
            assert len(calls) == 2 + 4 + 4
            assert len(run.crossings) == 4 * revolutions
            assert sorted(calls[:2]) == sorted(steps)
            durations = np.diff([0.0] + [c["t"] for c in run.crossings[:4]])
            np.testing.assert_allclose(calls[-4:], durations, rtol=1e-15)

    def test_bad_gain_rejected(self):
        with pytest.raises(DomainError, match="Hurwitz"):
            run_destabilizer(np.array([[1.0, -1.0]]), PeClass(1.0, 0.5))

    @pytest.mark.parametrize("entry", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("run", [
        adversary.find_nu,
        lambda K: run_destabilizer(K, PeClass(1.0, 0.5), revolutions=1)],
        ids=["find_nu", "run_destabilizer"])
    def test_non_finite_gain_rejected(self, run, bad, entry):
        # NaN passed the k1, k2 > 0 test and stopped in expm with "expm
        # argument has non-finite entries"; an infinite k1 or k2 (entry
        # -inf) raised a RuntimeWarning on B K first
        K = np.array([[-1.0, -1.0]])
        K[0, entry] = bad
        with pytest.raises(DomainError, match="^gain K must be finite"):
            run(K)

    def test_crossings_bisected_to_reported_tolerance(self, monkeypatch):
        # each sector switch lies within crossing_rel of its march step of
        # the true zero of the switching functional, and coarsening the
        # module constant coarsens the switches: the run uses that constant
        # over 10 revolutions, so the replayed switches are checked too
        cls = PeClass(1.0, 0.05)
        tol = cli.TOLERANCES["crossing_rel"]
        run = run_destabilizer(K11, cls, revolutions=10)
        bk = B_DI @ K11
        x_at = dict(zip(run.traj.times.tolist(), run.traj.states))
        for c in run.crossings:
            full = c["region_from"] in (2, 4)
            m = A_DI + (1.0 if full else cls.ratio) * bk
            fn = (lambda y: y[1] + y[0]) if full else (lambda y: y[1])
            delta = tol * _rotation_step(m)
            before = fn(expm(m, -delta) @ x_at[c["t"]])
            after = fn(expm(m, delta) @ x_at[c["t"]])
            assert before * after < 0.0
        monkeypatch.setattr(simcore, "_CROSSING_REL_TOL", 1e-4)
        coarse = run_destabilizer(K11, cls, revolutions=10)
        shift = max(abs(a["t"] - b["t"])
                    for a, b in zip(run.crossings, coarse.crossings))
        assert 1e-9 < shift < 1e-3


    @pytest.mark.parametrize("k1, k2, mu", REPLAY_CASES)
    @pytest.mark.parametrize("x0", [(-1.0, 0.0), (0.3, 0.8)])
    def test_replay_matches_a_search_at_every_phase(self, k1, k2, mu, x0):
        # the replayed revolutions agree with a crossing search run at
        # every phase, from the axis and from a state off it
        K = np.array([[-k1, -k2]])
        run = run_destabilizer(K, PeClass(1.0, mu), x0=x0, revolutions=10)
        ref_t, ref_x = _search_every_phase(k1, k2, mu, x0, 10)
        got_t = np.array([c["t"] for c in run.crossings])
        np.testing.assert_allclose(got_t, ref_t, rtol=1e-12, atol=0.0)
        x_at = dict(zip(run.traj.times.tolist(), run.traj.states))
        got_x = np.array([x_at[t] for t in got_t.tolist()])
        gap = np.abs(got_x - ref_x).max(axis=1)
        assert np.all(gap <= 1e-12 * np.abs(ref_x).max(axis=1))

    @pytest.mark.parametrize("k1, k2, mu", REPLAY_CASES)
    def test_monodromy_of_last_revolution_is_growth(self, k1, k2, mu):
        # the product of the last revolution's four phase flows, taken from
        # the reported crossings and the induced levels, has spectral
        # radius growth_per_rev
        cls = PeClass(1.0, mu)
        K = np.array([[-k1, -k2]])
        run = run_destabilizer(K, cls, revolutions=10)
        bk = B_DI @ K
        ts = [c["t"] for c in run.crossings[-5:]]
        mono = np.eye(2)
        for c, t0, t1 in zip(run.crossings[-4:], ts, ts[1:]):
            a = 1.0 if c["region_from"] in (2, 4) else cls.ratio
            mono = expm(A_DI + a * bk, t1 - t0) @ mono
        rho = np.max(np.abs(np.linalg.eigvals(mono)))
        assert run.growth_per_rev > 1.0
        assert rho == pytest.approx(run.growth_per_rev, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_many_revolutions_keep_finite_factors(self):
        # the norms squared overflowed above about 1e154, so the factors
        # of a 200-revolution run read inf / inf = nan
        run = run_destabilizer(K11, PeClass(1.0, 0.03), revolutions=200)
        assert np.isfinite(run.factors).all()
        assert run.growth_per_rev == pytest.approx(run.factors[0], rel=1e-9)
        # the end state's squares overflow
        assert np.abs(run.traj.states[-1]).max() > 1e155
        assert np.isfinite(run.traj.states).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x0, rev", [((-1.0, 0.0), 354),
                                         ((0.3, 0.8), 353)])
    def test_overflow_names_its_revolution(self, x0, rev):
        # growth 7.46 per revolution overflows the largest double in
        # revolution 354 from (-1, 0); the search used to stop there with
        # "converges to an eigendirection"
        with pytest.raises(SimulationError,
                           match=f"overflows in revolution {rev}$"):
            run_destabilizer(K11, PeClass(1.0, 0.03), x0=x0,
                             revolutions=400)
        run_destabilizer(K11, PeClass(1.0, 0.03), x0=x0,
                         revolutions=rev - 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x0, rev", [((-1e308, 0.0), 1),
                                         ((0.0, 1e308), 0)])
    def test_overflow_in_searched_revolution(self, x0, rev):
        # the march of the searched revolution overflows; it used to warn
        # and stop with "converges to an eigendirection"
        with pytest.raises(SimulationError,
                           match=f"overflows in revolution {rev}$"):
            run_destabilizer(K11, PeClass(1.0, 0.03), x0=x0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x0", [(math.nan, 0.0), (-math.inf, 0.0),
                                    (-1.0, math.nan)])
    def test_non_finite_start_refused(self, x0):
        # a non-finite start is an input fault, not an overflow of the run
        with pytest.raises(DomainError, match="x0 must be finite"):
            run_destabilizer(K11, PeClass(1.0, 0.03), x0=x0)


class TestWorstCase:
    def test_budget_one_is_seeded_candidate(self):
        cls = PeClass(1.0, 0.5)
        x0s = [np.array([1.0, 0.0])]
        K = di_base_gain(0.2, 2.0)
        sig, rep = worst_case_search(A_DI, B_DI, K, cls, x0s, budget=1,
                                     horizon=8.0, seed=0)
        assert rep["evaluations"] == 1
        baseline = make_duty(cls, pattern="front")
        assert sig.to_json() == baseline.to_json()

    def test_decay_is_worst_single_state_rate(self):
        # the batched sweep reports what one propagate per state gives
        cls = PeClass(1.0, 0.5)
        x0s = [np.array([1.0, 0.0]), np.array([0.3, -0.8])]
        K = di_base_gain(0.2, 2.0)
        sig, rep = worst_case_search(A_DI, B_DI, K, cls, x0s, budget=1,
                                     horizon=8.0, seed=0)
        rates = []
        for x0 in x0s:
            nrm = propagate(ClosedLoop(A_DI, B_DI, K, sig), 0.0, x0,
                            8.0).norms()
            rates.append(-math.log(nrm[-1] / nrm[0]) / 8.0)
        assert rep["decay"] == pytest.approx(min(rates), rel=1e-12)

    def test_neutral_case_always_decays(self):
        cls = PeClass(1.0, 0.5)
        B = np.array([[0.0], [1.0]])
        x0s = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        sig, rep = worst_case_search(A_ROTATION, B, -B.T, cls, x0s,
                                     budget=20, horizon=25.0, seed=2)
        assert rep["decay"] > 0.0
        assert rep["pe_ok"]

    def test_untuned_gain_is_defeated(self):
        # a weakly excited class: plain duty cycling already defeats the
        # unscaled gain
        cls = PeClass(1.0, 0.08)
        x0s = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        sig, rep = worst_case_search(A_DI, B_DI, K11, cls, x0s,
                                     budget=30, horizon=20.0, seed=0)
        assert rep["decay"] <= 0.0

    def test_on_level_floor_stays_at_most_one(self):
        # mu/T within 1e-9 of 1 puts ratio * (1 + 1e-9) above 1; the floor
        # of the random and refined on-levels is capped at 1
        cls = PeClass(1.0, 1.0 - 1e-10)
        x0s = [np.array([1.0, 0.0])]
        sig, rep = worst_case_search(A_DI, B_DI, di_base_gain(0.2, 2.0), cls,
                                     x0s, budget=4, horizon=8.0, seed=0)
        assert rep["evaluations"] == 4
        assert cls.ratio < rep["params"]["on_value"] <= 1.0
        assert rep["pe_ok"]

    def test_decay_below_square_underflow(self):
        # the end state is about 3.9e-183, whose square is 0.0
        cls = PeClass(1.0, 0.5)
        sig, rep = worst_case_search([[-10.0]], [[1.0]], [[-1.0]], cls,
                                     [np.array([1.0])], budget=1,
                                     horizon=40.0)
        assert rep["decay"] == pytest.approx(10.5, rel=1e-12)

    def test_infinite_horizon_refused(self):
        # the duty gate's segments raised an untyped OverflowError
        with pytest.raises(DomainError, match="finite"):
            worst_case_search(A_DI, B_DI, K11, PeClass(1.0, 0.5),
                              [np.array([1.0, 0.0])], budget=1,
                              horizon=math.inf)

    def test_no_initial_state_refused(self):
        # the search raised an untyped ValueError from np.column_stack, and
        # tune passed the first gain it tried
        cls = PeClass(1.0, 0.5)
        with pytest.raises(ShapeError, match="initial state"):
            worst_case_search(A_DI, B_DI, K11, cls, [], budget=1,
                              horizon=8.0)
        with pytest.raises(ShapeError, match="initial state"):
            adversary.tune(cls, 0.2, [make_duty(cls)], np.zeros((2, 0)))

    def test_zero_initial_state_refused(self):
        # a zero state reported decay = inf, and tune passed the first gain
        # it tried
        cls = PeClass(1.0, 0.5)
        with pytest.raises(DegenerateStateError):
            worst_case_search(A_DI, B_DI, K11, cls, [np.zeros(2)], budget=1,
                              horizon=8.0)
        with pytest.raises(DegenerateStateError):
            worst_case_search(A_DI, B_DI, K11, cls,
                              [np.array([1.0, 0.0]), np.zeros(2)], budget=1,
                              horizon=8.0)
        with pytest.raises(DegenerateStateError):
            adversary.tune(cls, 0.2, [make_duty(cls)], np.zeros((2, 1)))

    def test_empty_battery_refused(self):
        # all() over no members passed the first gain, (k, lam) = (1, 1),
        # with nothing run
        with pytest.raises(DomainError, match="battery is empty"):
            adversary.tune(PeClass(1.0, 0.5), 0.2, [], np.eye(2))

    @pytest.mark.parametrize("budget", [1.5, 2.0, True])
    def test_budget_must_be_an_int(self, budget):
        # 1.5 ran and reported 2.0 evaluations; True ran as 1
        with pytest.raises(DomainError, match="budget"):
            worst_case_search(A_DI, B_DI, K11, PeClass(1.0, 0.5),
                              [np.array([1.0, 0.0])], budget=budget,
                              horizon=8.0)

    def test_deterministic_under_seed(self):
        cls = PeClass(1.0, 0.5)
        x0s = [np.array([1.0, 0.0])]
        K = di_base_gain(0.2, 2.0)
        a = worst_case_search(A_DI, B_DI, K, cls, x0s, 12, 8.0, seed=5)
        b = worst_case_search(A_DI, B_DI, K, cls, x0s, 12, 8.0, seed=5)
        assert a[0].to_json() == b[0].to_json()
        assert a[1] == b[1]


def reference_fitted_rate(runs, horizon):
    """The rate worst_case_search used to fit from every sample's norm."""
    worst = math.inf
    for tr in runs:
        nrm = tr.norms()
        if not np.all(np.isfinite(nrm)) or nrm[-1] <= 0.0:
            return -math.inf
        worst = min(worst, -math.log(nrm[-1] / nrm[0]) / horizon)
    return worst


class TestFittedRate:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_search_equals_the_full_norm_rate(self, seed):
        # every candidate's rate, and so the whole report, is the one
        # fitted from every sample's norm of full propagate_batch runs
        cls = PeClass(1.0, 0.3)
        x0s = [np.array([1.0, 0.0]), np.array([0.3, -0.8])]
        K = di_base_gain(0.2, 2.0)
        evaluated = []

        def full_run_rate(loop, x0_columns, horizon):
            evaluated.append(loop.alpha)
            runs = simcore.propagate_batch(loop, 0.0, x0_columns, horizon)
            return reference_fitted_rate(runs, horizon)

        got = worst_case_search(A_DI, B_DI, K, cls, x0s, 10, 9.0, seed=seed)
        with mock.patch.object(adversary, "_end_rate", full_run_rate):
            want = worst_case_search(A_DI, B_DI, K, cls, x0s, 10, 9.0,
                                     seed=seed)
        assert len(evaluated) == want[1]["evaluations"] == 10
        assert got[0].to_json() == want[0].to_json()
        assert got[1] == want[1]

    def test_rates_of_growing_and_decaying_runs(self):
        cls = PeClass(1.0, 0.08)
        cols = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, -0.8]])
        for K in (K11, di_base_gain(0.2, 2.0)):
            for sig in (make_duty(cls), make_duty(cls, pattern="back")):
                runs = simcore.propagate_batch(
                    ClosedLoop(A_DI, B_DI, K, sig), 0.0, cols, 20.0)
                got = simcore._fitted_rate(runs, 20.0)
                assert repr(got) == repr(reference_fitted_rate(runs, 20.0))
                assert math.isfinite(got)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, 1e300])
    def test_non_finite_or_vanishing_runs(self, bad):
        # a non-finite state anywhere and norms that overflow at the end
        # give -inf, as the full-norm version did; a finite run that ends at
        # zero has decayed, at rate +inf, as tune has always judged it
        tr = propagate(ClosedLoop(A_DI, B_DI, K11, PwcSignal.constant(0.5)),
                       0.0, [1.0, 0.0], 2.0)
        states = tr.states.copy()
        if bad == 0.0:
            states[-1] = 0.0
        elif bad == 1e300:
            states[-1] = bad
        else:
            states[len(states) // 2, 1] = bad
        bent = simcore.Trajectory(tr.loop, tr.times, states, tr.seg_alpha)
        got = simcore._fitted_rate([tr, bent], 2.0)
        if bad == 0.0:
            assert simcore._fitted_rate([bent], 2.0) == math.inf
            assert got == simcore._fitted_rate([tr], 2.0)
            assert math.isfinite(got)
            return
        with np.errstate(over="ignore"):
            want = reference_fitted_rate([tr, bent], 2.0)
        assert want == -math.inf
        assert got == -math.inf
