import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad_vec

from pestab import reachability, simcore
from pestab.errors import DomainError, PreconditionError
from pestab.gains import A_DI, A_ROTATION, B_DI
from pestab.matkit import expm
from pestab.reachability import (adversarial_signal, gramian, kalman_rank,
                                 threshold_check, witness_residual)
from pestab.scenarios import PRESETS
from pestab.signals import (PeClass, PwcSignal, make_battery, make_duty,
                            verify_pe)

CLS = PeClass(1.0, 0.5)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


def brute_gramian(A, B, alpha, t, n_steps=3000):
    """Independent oracle: the same block quadrature applied on a fine
    uniform splitting that ignores the signal's own segmentation.  Exact
    whenever the gate is constant within each fine step."""
    from pestab.reachability import _segment_gramian
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    h = t / n_steps
    phi, H = _segment_gramian(A, B @ B.T, h)
    W = np.zeros((n, n))
    for i in range(n_steps):
        a = alpha.value_at((i + 0.5) * h)
        W = phi @ W @ phi.T + (a * a) * H
    return W


def quad_vec_gramian(A, B, alpha, t):
    """Independent oracle: adaptive quadrature of the Gramian integrand
    alpha(s)^2 e^{A(t-s)} B B^T e^{A^T(t-s)}, with the gate's switches as
    break points."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = B @ B.T

    def integrand(s):
        E = scipy.linalg.expm(A * (t - s))
        return alpha.value_at(s) ** 2 * (E @ Q @ E.T)

    points = [s for s, _, _ in alpha.segments(0.0, t)][1:]
    W, _ = quad_vec(integrand, 0.0, t, epsabs=1e-14, epsrel=1e-12,
                    points=points or None)
    return W


def reference_witness_residual(A, B, alpha, t, p, grid=2000):
    """The loop witness_residual replaced: one value_at call and one
    matrix-vector step of e^{-A^T h} per grid midpoint."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    h = t / grid
    step = expm(A.T, -h)
    y = expm(A.T, t - 0.5 * h) @ p  # y(s) = e^{A^T (t-s)} p at s = h/2
    worst = 0.0
    for i in range(grid):
        s = (i + 0.5) * h
        val = alpha.value_at(s) * np.max(np.abs(B.T @ y))
        worst = max(worst, float(val))
        y = step @ y
    return worst


def reference_gramian(A, B, alpha, t):
    """The per-gate recursion gramian ran before one call served a whole
    battery: one stacked exponential over this gate's own piece widths."""
    n = A.shape[0]
    pieces = [(e - s, a) for s, e, a in alpha.segments(0.0, t)]
    widths = list(dict.fromkeys(h for h, _ in pieces))
    phis, Hs = reachability._segment_gramian(A, B @ B.T, np.array(widths))
    flows = dict(zip(widths, zip(phis, Hs)))
    W = np.zeros((n, n))
    for h, a in pieces:
        phi, H = flows[h]
        W = phi @ W @ phi.T + (a * a) * H
    return 0.5 * (W + W.T)


def reference_battery_check(A, B, t, battery):
    """The per-member gramian loop threshold_check ran above T - mu:
    (claim, worst_relative_min_sv)."""
    n = A.shape[0]
    worst, all_ok = math.inf, True
    for sig in battery:
        rep = gramian(A, B, sig, t)
        worst = min(worst, rep.min_sv / max(float(np.trace(rep.W)) / n, 1e-300))
        all_ok = all_ok and rep.controllable
    return all_ok, worst


@st.composite
def battery_horizons(draw):
    """(class, battery, horizon): make_battery members over seeds and sizes,
    some of them repeated, at a horizon on either side of T - mu."""
    cls = draw(st.sampled_from((CLS, PeClass(2.0, 0.3), PeClass(1.0, 0.9))))
    size = draw(st.integers(1, 12))
    sigs = make_battery(cls, size, draw(st.integers(0, 30))).signals
    repeats = draw(st.lists(st.integers(0, size - 1), max_size=4))
    t = draw(st.one_of(
        st.sampled_from((cls.T - cls.mu, cls.T - cls.mu + 2e-12, cls.T)),
        st.floats(0.02, 3.0).map(lambda x: x * cls.T)))
    return cls, sigs + [sigs[i] for i in repeats], t


@st.composite
def gated_horizons(draw):
    """(periodic or held gate, horizon) with up to five pieces per cycle;
    dyadic and decimal cut units, levels that include 0 and 1."""
    unit = draw(st.sampled_from((1.0 / 16.0, 0.1)))
    widths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    bp = np.concatenate([[0.0], np.cumsum(widths) * unit])
    values = draw(st.lists(
        st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0)),
        min_size=len(widths), max_size=len(widths)))
    if draw(st.booleans()):
        sig = PwcSignal.periodic(bp, values)
    else:
        sig = PwcSignal.held(bp, values, hold=draw(st.floats(0.0, 1.0)))
    return sig, draw(st.floats(0.05, 3.0))


class TestGramian:
    def test_closed_form_full_excitation(self):
        rep = gramian(A_DI, B_DI, PwcSignal.constant(1.0), 1.0)
        exact = np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])
        assert np.max(np.abs(rep.W - exact)) < 1e-13
        assert np.linalg.det(rep.W) == pytest.approx(1.0 / 12.0, rel=1e-10)
        assert rep.controllable

    def test_zero_signal(self):
        rep = gramian(A_DI, B_DI, PwcSignal.constant(0.0), 0.8)
        assert np.all(rep.W == 0.0)
        assert not rep.controllable
        assert rep.witness is not None
        assert np.linalg.norm(rep.witness) == pytest.approx(1.0)

    def test_zero_block_then_on_dichotomy(self):
        sig = PwcSignal.held((0.0, 0.4), (0.0,), hold=1.0)
        singular = gramian(A_DI, B_DI, sig, 0.4)
        regular = gramian(A_DI, B_DI, sig, 0.6)
        assert not singular.controllable
        assert singular.min_sv <= 1e-14
        assert regular.controllable
        # cross-check against the fine uniform-splitting oracle (3000 steps
        # put the switch at 0.4 exactly on a step boundary, so it is exact)
        oracle = brute_gramian(A_DI, B_DI, sig, 0.6)
        assert np.max(np.abs(regular.W - oracle)) < 1e-12

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(DomainError):
            gramian(A_DI, B_DI, PwcSignal.constant(1.0), 0.0)

    def test_signal_monotonicity(self):
        lo = PwcSignal.periodic((0.0, 0.5, 1.0), (0.6, 0.1))
        hi = PwcSignal.periodic((0.0, 0.5, 1.0), (0.9, 0.4))
        W_lo = gramian(A_DI, B_DI, lo, 1.7).W
        W_hi = gramian(A_DI, B_DI, hi, 1.7).W
        assert np.min(np.linalg.eigvalsh(W_hi - W_lo)) >= -1e-10

    def test_composition_identity(self):
        sig = adversarial_signal(CLS)
        t, h = 1.3, 0.45
        whole = gramian(A_DI, B_DI, sig, t).W
        head = gramian(A_DI, B_DI, sig, t - h).W
        # tail piece evaluated on the shifted clock
        from pestab.signals import shift
        tail = gramian(A_DI, B_DI, shift(sig, t - h), h).W
        phi = expm(A_DI, h)
        assert np.max(np.abs(whole - (phi @ head @ phi.T + tail))) < 1e-9

    def test_witness_validity(self):
        sig = adversarial_signal(CLS)
        rep = gramian(A_DI, B_DI, sig, 0.5)
        assert not rep.controllable
        resid = witness_residual(A_DI, B_DI, sig, 0.5, rep.witness)
        assert resid <= 1e-8 * np.max(np.abs(B_DI))


    @PROPERTY
    @given(gated_horizons(), st.integers(0, 30))
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_matches_quad_vec(self, preset, case, seed):
        A, B = PRESETS[preset]
        sig, t = case
        members = make_battery(CLS, 7, seed).signals[4:]  # the drawn ones
        batched = reachability._gramians(A, B, members, t)
        for gate, got in [(sig, gramian(A, B, sig, t).W),
                          *zip(members, batched)]:
            W = quad_vec_gramian(A, B, gate, t)
            assert np.max(np.abs(got - W)) <= 1e-11 * np.max(np.abs(W)) + 1e-15

    @PROPERTY
    @given(battery_horizons())
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_battery_gramians_keep_the_per_gate_bits(self, preset, case):
        A, B = PRESETS[preset]
        cls, battery, t = case
        Ws = reachability._gramians(A, B, battery, t)
        for W, sig in zip(Ws, battery):
            assert W.tobytes() == reference_gramian(A, B, sig, t).tobytes()
        assert gramian(A, B, battery[0], t).W.tobytes() == Ws[0].tobytes()
        if not reachability._below_threshold(cls, t):
            rep = threshold_check(A, B, cls, t, battery)
            claim, worst = reference_battery_check(A, B, t, battery)
            assert rep.claim == claim
            assert repr(rep.evidence["worst_relative_min_sv"]) == repr(worst)

    @pytest.mark.parametrize("call", [
        lambda A, B: gramian(A, B, PwcSignal.constant(1.0), 100.0),
        lambda A, B: threshold_check(A, B, PeClass(200.0, 100.0), 100.0, []),
        lambda A, B: threshold_check(A, B, CLS, 100.0,
                                     make_battery(CLS, 5).signals)],
        ids=["gramian", "adversarial", "battery"])
    def test_overflow_refused(self, call):
        # e^{10 t} overflows: the Gramian printed RuntimeWarnings and was
        # refused as min_sv's argument, and the batched SVD of its inf
        # entries reads nan, which compares as a verdict
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=r"the Gramian over "
                               r"\[0, 100.0\] is not finite"):
                call([[5.0]], [[1.0]])


class TestWitnessResidual:
    def test_zero_gate_needs_no_exponential(self):
        sig = adversarial_signal(CLS)
        for t in (0.1, 0.3, CLS.T - CLS.mu):
            p = gramian(A_DI, B_DI, sig, t).witness
            with mock.patch.object(reachability, "expm",
                                   wraps=reachability.expm) as e1, \
                    mock.patch.object(simcore, "expm",
                                      wraps=simcore.expm) as e2:
                assert witness_residual(A_DI, B_DI, sig, t, p) == 0.0
            assert e1.call_count + e2.call_count == 0

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_matches_reference_loop_on_nonzero_gates(self, preset):
        A, B = PRESETS[preset]
        gates = [adversarial_signal(CLS), make_duty(CLS, phase=0.3),
                 PwcSignal.held((0.0, 0.2, 0.7, 1.1), (0.3, 0.0, 0.9),
                                hold=0.6)] + make_battery(CLS, 3, seed=2).signals
        rng = np.random.default_rng(5)
        for sig in gates:
            for t in (0.8, 1.7, 4.3):
                p = rng.standard_normal(2)
                p /= np.linalg.norm(p)
                ref = reference_witness_residual(A, B, sig, t, p)
                assert ref > 0.0
                got = witness_residual(A, B, sig, t, p)
                assert abs(got - ref) <= 1e-12 * ref

    def test_short_grid(self):
        sig = make_duty(CLS, phase=0.3)
        p = np.array([0.6, 0.8])
        for grid in (1, 2, 3):
            ref = reference_witness_residual(A_DI, B_DI, sig, 1.3, p, grid)
            got = witness_residual(A_DI, B_DI, sig, 1.3, p, grid)
            assert abs(got - ref) <= 1e-12 * ref


class TestKalmanRank:
    def test_brunovsky_pair(self):
        assert kalman_rank(A_DI, B_DI) == 2

    def test_zero_input(self):
        assert kalman_rank(A_DI, np.zeros((2, 1))) == 0

    def test_repeated_mode_single_column(self):
        assert kalman_rank(np.eye(2), np.array([[1.0], [1.0]])) == 1


class TestThreshold:
    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, -0.0, math.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        # nan reported every Gramian singular and -1 every one
        # controllable; 0 and inf read min_sv against 0 or infinity
        sig = PwcSignal.constant(1.0)
        with pytest.raises(DomainError, match="tol must be finite"):
            gramian(A_DI, B_DI, sig, 1.0, tol=tol)
        for t in (0.3, 0.8):  # adversarial branch, then the battery one
            with pytest.raises(DomainError, match="tol must be finite"):
                threshold_check(A_DI, B_DI, CLS, t, [sig], tol=tol)
        with pytest.raises(DomainError, match="tol must be finite"):
            threshold_check(A_DI, B_DI, CLS, 0.8, [], tol=tol)

    def test_tiny_and_huge_finite_tol_accepted(self):
        sig = PwcSignal.constant(1.0)
        assert gramian(A_DI, B_DI, sig, 1.0, tol=5e-324).controllable
        assert not gramian(A_DI, B_DI, sig, 1.0, tol=1e300).controllable

    def test_below_boundary_adversarial(self):
        for t in (0.1, 0.3, 0.5):
            rep = threshold_check(A_DI, B_DI, CLS, t, [])
            assert rep.claim
            assert rep.evidence["kind"] == "adversarial"
            assert rep.evidence["min_sv"] <= 1e-14
            assert rep.evidence["pe_ok"]
            # the gate is zero on [0, t], so the residual is 0 by construction
            assert rep.evidence["witness_residual"] == 0.0

    def test_boundary_included(self):
        rep = threshold_check(A_DI, B_DI, CLS, CLS.T - CLS.mu, [])
        assert rep.evidence["kind"] == "adversarial"
        assert rep.claim

    def test_above_boundary_battery(self):
        bat = make_battery(CLS, 20, seed=11).signals
        for t in (0.55, 0.8, 1.2):
            rep = threshold_check(A_DI, B_DI, CLS, t, bat)
            assert rep.claim
            assert rep.evidence["worst_relative_min_sv"] > 1e-9

    @pytest.mark.parametrize("t", [0.5 + 2e-12, 0.8])
    def test_empty_battery_above_boundary_refused(self, t):
        # the battery branch over no signal claimed controllability with
        # worst_relative_min_sv = inf
        with pytest.raises(DomainError, match="battery is empty"):
            threshold_check(A_DI, B_DI, CLS, t, [])

    def test_battery_takes_one_stacked_exponential(self):
        bat = make_battery(CLS, 20, seed=11).signals
        with mock.patch.object(reachability, "_segment_gramian",
                               wraps=reachability._segment_gramian) as seg, \
                mock.patch.object(reachability, "gramian",
                                  wraps=reachability.gramian) as one:
            assert threshold_check(A_DI, B_DI, CLS, 0.8, bat).claim
        assert seg.call_count == 1
        assert one.call_count == 0

    def test_constant_one_always_controllable(self):
        for t in (0.05, 0.2, 1.0):
            rep = gramian(A_DI, B_DI, PwcSignal.constant(1.0), t)
            assert rep.controllable

    def test_uncontrollable_pair_rejected(self):
        with pytest.raises(PreconditionError):
            threshold_check(np.eye(2), np.array([[1.0], [1.0]]), CLS, 1.0, [])

    def test_adversarial_signal_is_admissible(self):
        sig = adversarial_signal(CLS)
        assert verify_pe(sig, CLS, 3.0).ok
        assert sig.value_at(0.25) == 0.0

    def test_forward_direction_over_battery(self):
        bat = make_battery(CLS, 10, seed=3).signals
        for sig in bat:
            assert gramian(A_DI, B_DI, sig, 0.75).controllable

    def test_rotation_system(self):
        bat = make_battery(CLS, 8, seed=5).signals
        B = np.array([[0.0], [1.0]])
        rep = threshold_check(A_ROTATION, B, CLS, 0.9, bat)
        assert rep.claim
