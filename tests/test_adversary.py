import math
from unittest import mock

import numpy as np
import pytest

from kl_oracle import fitted_rate
from pestab import adversary, cli, simcore
from pestab.adversary import find_nu, run_destabilizer, worst_case_search
from pestab.errors import (DegenerateStateError, DomainError, ShapeError,
                           SimulationError)
from pestab.gains import A_DI, A_ROTATION, B_DI, di_base_gain
from pestab.matkit import expm
from pestab.signals import PeClass, PwcSignal, make_duty, verify_pe
from pestab.simcore import ClosedLoop, _first_zero, propagate

K11 = np.array([[-1.0, -1.0]])

# (k1, k2, mu) of destabilized classes
REPLAY_CASES = [(1.0, 1.0, 0.05), (2.0, 1.0, 0.03), (1.0, 3.0, 0.02)]


def _switching_line(k1, k2, mu, region):
    """(m, c): the flow of a sector and the normal of the line it leaves
    across, the collinearity line from sectors 2 and 4, the axis from 1
    and 3."""
    full = region in (2, 4)
    m = A_DI + (1.0 if full else mu) * B_DI @ np.array([[-k1, -k2]])
    return m, np.array([k1 / k2, 1.0] if full else [0.0, 1.0])


def _search_every_phase(k1, k2, mu, revolutions):
    """Crossing times and end states of the sector sweep from (-1, 0) with a
    crossing search at every phase, over the given number of revolutions."""
    x = np.array([-1.0, 0.0])
    t, times, ends = 0.0, [], []
    for region in (4, 1, 2, 3) * revolutions:
        m, c = _switching_line(k1, k2, mu, region)
        tc = _first_zero(m, x, c)
        x = expm(m, tc) @ x
        t += tc
        times.append(t)
        ends.append(x)
    return np.array(times), np.array(ends)


def _collinearity_point(bk):
    """The full-strength flow's first meeting with the collinearity line
    x2 + x1 = 0 from (-1, 0), for k1 = k2."""
    m1 = A_DI + bk
    x0 = np.array([-1.0, 0.0])
    return expm(m1, _first_zero(m1, x0, np.array([1.0, 1.0]))) @ x0


def _xi(bk, x_bar, nu):
    """Where the constant-nu flow from x_bar meets the horizontal axis."""
    m = A_DI + nu * bk
    return float((expm(m, _first_zero(m, x_bar, np.array([0.0, 1.0])))
                  @ x_bar)[0])


class TestFindNu:
    def test_positive_for_unit_gain(self):
        nu = find_nu(K11)
        assert 0.0 < nu < 1.0

    def test_bracket_is_genuine(self):
        # just inside the returned level the sweep lands beyond 1; just
        # outside it does not (bisection to 1e-10)
        nu = find_nu(K11)
        bk = B_DI @ K11
        x_bar = _collinearity_point(bk)
        assert _xi(bk, x_bar, nu * (1.0 - 1e-6)) > 1.0
        assert _xi(bk, x_bar, nu + 1e-6) < 1.0

    def test_sampled_monotonicity(self):
        bk = B_DI @ K11
        x_bar = _collinearity_point(bk)
        values = [_xi(bk, x_bar, nu)
                  for nu in (1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.3, 0.8)]
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
        # no step exponential is left: each searched phase takes one
        # exponential, expm(m, tc), which carries the state to its crossing
        # and is the flow every replayed revolution repeats, so the count
        # does not grow with the revolutions; the crossing times come from
        # simcore._first_zero, which takes none, and the fill takes one
        # stacked exponential
        calls = []
        real = adversary.expm

        def counting(m, t=1.0):
            calls.append(t)
            return real(m, t)

        for revolutions in (3, 10):
            del calls[:]
            with mock.patch.object(adversary, "expm", counting), \
                    mock.patch.object(simcore, "expm",
                                      wraps=simcore.expm) as stacked:
                run = run_destabilizer(K11, PeClass(1.0, 0.03),
                                       revolutions=revolutions)
            # from the negative axis one revolution, 4 phases, is searched
            assert len(run.crossings) == 4 * revolutions
            assert len(calls) == 4
            durations = np.diff([0.0] + [c["t"] for c in run.crossings[:4]])
            np.testing.assert_allclose(calls, durations, rtol=1e-15)
            assert stacked.call_count == 1

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

    def test_crossings_bisected_to_reported_tolerance(self):
        # no tolerance is left to report: each sector switch is the first
        # zero of its switching line, in closed form, over 10 revolutions
        # (the replayed switches too): the line's functional is at rounding
        # level there, keeps one sign over the phase before it, and
        # changes sign across it
        cls = PeClass(1.0, 0.05)
        run = run_destabilizer(K11, cls, revolutions=10)
        assert "crossing_rel" not in cli.TOLERANCES
        x_at = dict(zip(run.traj.times.tolist(), run.traj.states))
        t_prev, x_prev = 0.0, run.traj.states[0]
        for c in run.crossings:
            m, n = _switching_line(1.0, 1.0, cls.ratio, c["region_from"])
            x = x_at[c["t"]]
            assert abs(n @ x) <= 8 * np.finfo(float).eps * np.abs(x).max()
            tc = c["t"] - t_prev
            f = [n @ expm(m, s) @ x_prev
                 for s in np.linspace(0.0, tc, 201)[1:-1]]
            assert min(f) > 0.0 or max(f) < 0.0
            delta = 1e-6 * tc
            assert (n @ expm(m, -delta) @ x) * (n @ expm(m, delta) @ x) < 0.0
            t_prev, x_prev = c["t"], x


    @pytest.mark.parametrize("k1, k2, mu", REPLAY_CASES)
    def test_replay_matches_a_search_at_every_phase(self, k1, k2, mu):
        # the replayed revolutions agree with a crossing search run at
        # every phase
        K = np.array([[-k1, -k2]])
        run = run_destabilizer(K, PeClass(1.0, mu), revolutions=10)
        ref_t, ref_x = _search_every_phase(k1, k2, mu, 10)
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
    def test_overflow_names_its_revolution(self):
        # growth 7.46 per revolution overflows the largest double in
        # revolution 354; the search used to stop there with "converges to
        # an eigendirection"
        with pytest.raises(SimulationError,
                           match="overflows in revolution 354$"):
            run_destabilizer(K11, PeClass(1.0, 0.03), revolutions=400)
        run_destabilizer(K11, PeClass(1.0, 0.03), revolutions=353)

    def test_overflow_in_searched_revolution(self, monkeypatch):
        # a searched phase that ends beyond the doubles stops the run
        # before its replay
        monkeypatch.setattr(adversary, "expm",
                            lambda m, t: np.full((2, 2), math.inf))
        with pytest.raises(SimulationError,
                           match="overflows in revolution 1$"):
            run_destabilizer(K11, PeClass(1.0, 0.03))

    def test_crossings_leave_sectors_in_order(self):
        # from (-1, 0) the first four crossings leave sectors 4, 1, 2, 3,
        # and every replayed revolution repeats the order
        run = run_destabilizer(K11, PeClass(1.0, 0.03), revolutions=3)
        assert [c["region_from"] for c in run.crossings] == [4, 1, 2, 3] * 3


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
                got = fitted_rate(runs, 20.0)
                assert repr(got) == repr(reference_fitted_rate(runs, 20.0))
                assert math.isfinite(got)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, 1e300,
                                     1.5e308])
    def test_non_finite_or_vanishing_runs(self, bad):
        # a non-finite state anywhere and norms that overflow at the end
        # give -inf, as the full-norm version did; a finite run that ends at
        # zero has decayed, at rate +inf, as tune has always judged it; an
        # end state of 1e300 has a finite norm, whose squares overflow, and
        # so a finite rate
        tr = propagate(ClosedLoop(A_DI, B_DI, K11, PwcSignal.constant(0.5)),
                       0.0, [1.0, 0.0], 2.0)
        states = tr.states.copy()
        if bad == 0.0:
            states[-1] = 0.0
        elif bad >= 1e300:
            states[-1] = bad
        else:
            states[len(states) // 2, 1] = bad
        bent = simcore.Trajectory(tr.loop, tr.times, states, tr.seg_alpha)
        got = fitted_rate([tr, bent], 2.0)
        if bad == 0.0:
            assert fitted_rate([bent], 2.0) == math.inf
            assert got == fitted_rate([tr], 2.0)
            assert math.isfinite(got)
            return
        if bad == 1e300:
            assert got == reference_fitted_rate([tr, bent], 2.0)
            assert got == pytest.approx(-math.log(math.sqrt(2.0) * 1e300)
                                        / 2.0, rel=1e-15)
            return
        with np.errstate(over="ignore"):
            want = reference_fitted_rate([tr, bent], 2.0)
        assert want == -math.inf
        assert got == -math.inf
