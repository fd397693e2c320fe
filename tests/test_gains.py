import math

import numpy as np
import pytest

from pestab.errors import DomainError, NotNeutrallyStable, ShapeError
from pestab.gains import (A_DI, A_ROTATION, B_DI, cone_geometry,
                          di_base_gain, di_gain, multi_input_gain,
                          neutral_decompose, neutral_gain)
from pestab.matkit import eig, one_norm, quad_roots
from pestab.signals import PeClass

CLS = PeClass(1.0, 0.5)


def block_diag(*mats):
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n))
    i = 0
    for m in mats:
        out[i:i + m.shape[0], i:i + m.shape[0]] = m
        i += m.shape[0]
    return out


def check_decomposition(A, dec):
    n1 = dec.n_stable
    rebuilt = np.block([
        [dec.A1, dec.A2],
        [np.zeros((dec.A3.shape[0], n1)), dec.A3],
    ])
    err = one_norm(dec.S @ A @ dec.S_inv - rebuilt)
    assert err < 1e-8 * max(one_norm(A), 1.0)
    if dec.A3.size:
        assert one_norm(dec.A3 + dec.A3.T) < 1e-8 * max(one_norm(A), 1.0)
    if dec.A1.size:
        assert all(v.real < 0 for v in eig(dec.A1))


class TestNeutralDecompose:
    def test_skew_symmetric_passthrough(self):
        dec = neutral_decompose(A_ROTATION, B_DI)
        assert dec.n_stable == 0
        check_decomposition(A_ROTATION, dec)
        # the realized block is similar to A itself
        assert sorted(v.imag for v in eig(dec.A3)) == \
            pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_hurwitz_plus_rotation_split(self):
        A = block_diag(np.array([[-1.0]]), A_ROTATION)
        B = np.array([[0.0], [0.0], [1.0]])
        dec = neutral_decompose(A, B)
        assert dec.n_stable == 1
        assert dec.A1.shape == (1, 1) and dec.A1[0, 0] == pytest.approx(-1.0)
        check_decomposition(A, dec)

    def test_nilpotent_jordan_block_rejected(self):
        with pytest.raises(NotNeutrallyStable):
            neutral_decompose(A_DI, B_DI)

    def test_positive_real_part_rejected(self):
        with pytest.raises(NotNeutrallyStable):
            neutral_decompose(np.diag([0.1, -1.0]), np.ones((2, 1)))

    def test_defective_imaginary_pair_rejected(self):
        # two stacked rotation blocks coupled by a nilpotent off-diagonal:
        # the +-i pair has algebraic multiplicity 2, geometric 1
        A = np.zeros((4, 4))
        A[:2, :2] = A_ROTATION
        A[2:, 2:] = A_ROTATION
        A[0, 2] = 1.0
        A[1, 3] = 1.0
        with pytest.raises(NotNeutrallyStable):
            neutral_decompose(A, np.ones((4, 1)))

    def test_semisimple_repeated_pair_accepted(self):
        A = block_diag(A_ROTATION, A_ROTATION)
        dec = neutral_decompose(A, np.eye(4))
        check_decomposition(A, dec)

    def test_mixed_spectrum(self):
        rng = np.random.default_rng(4)
        core = block_diag(np.array([[-2.0, 1.0], [0.0, -0.5]]),
                          3.0 * A_ROTATION, np.zeros((1, 1)))
        P = rng.standard_normal((5, 5)) + 2 * np.eye(5)
        A = P @ core @ np.linalg.inv(P)
        dec = neutral_decompose(A, rng.standard_normal((5, 2)))
        assert dec.n_stable == 2
        check_decomposition(A, dec)


class TestNeutralGain:
    def test_skew_case_is_transpose(self):
        K = neutral_gain(A_ROTATION, B_DI, 1.0)
        assert np.max(np.abs(K - (-B_DI.T))) < 1e-12

    def test_scale_r(self):
        K1 = neutral_gain(A_ROTATION, B_DI, 1.0)
        K7 = neutral_gain(A_ROTATION, B_DI, 7.0)
        assert np.max(np.abs(K7 - 7.0 * K1)) < 1e-12

    def test_zero_input_hurwitz(self):
        A = np.array([[-1.0, 0.3], [0.0, -2.0]])
        K = neutral_gain(A, np.zeros((2, 1)))
        assert K.shape == (1, 2)
        assert np.all(K == 0.0)

    def test_block_example(self):
        A = block_diag(np.array([[-1.0]]), A_ROTATION)
        B = np.array([[0.0], [0.0], [1.0]])
        K = neutral_gain(A, B, 1.0)
        assert np.max(np.abs(K - np.array([[0.0, 0.0, -1.0]]))) < 1e-10

    def test_closed_loop_decays(self):
        from pestab.signals import make_duty
        from pestab.simcore import ClosedLoop, propagate
        A = block_diag(np.array([[-1.0]]), A_ROTATION)
        B = np.array([[0.2], [0.0], [1.0]])
        K = neutral_gain(A, B, 1.0)
        sig = make_duty(CLS, phase=0.2)
        tr = propagate(ClosedLoop(A, B, K, sig), 0.0, [1.0, 1.0, 1.0], 40.0)
        assert tr.norms()[-1] < 1e-2 * tr.norms()[0]

    def test_skew_block_energy_identity(self):
        # in decomposed coordinates the skew-block energy dissipates exactly
        # like the gated transpose loop: its own dynamics never sees the
        # Hurwitz part
        from pestab.signals import make_duty
        from pestab.simcore import ClosedLoop, propagate
        A = block_diag(np.array([[-1.0, 0.4], [0.0, -2.0]]), 2.0 * A_ROTATION)
        B = np.array([[0.2], [-0.1], [0.3], [1.0]])
        dec = neutral_decompose(A, B)
        K = neutral_gain(A, B, 1.0)
        sig = make_duty(CLS, phase=0.4, on_value=0.8)
        tr = propagate(ClosedLoop(A, B, K, sig), 0.0, [1.0, -0.5, 0.7, 0.2],
                       6.0)
        x3 = (dec.S @ tr.states.T)[dec.n_stable:, :].T
        V3 = 0.5 * np.sum(x3 ** 2, axis=1)
        assert np.all(np.diff(V3) <= 1e-10 * V3[:-1] + 1e-300)
        # centered difference matches -alpha ||B3^T x3||^2 on uniform
        # constant-gate stretches
        bn2 = np.sum((x3 @ dec.B3) ** 2, axis=1)
        a = tr.seg_alpha
        t = tr.times
        checked = 0
        for j in range(1, len(t) - 1):
            h1, h2 = t[j] - t[j - 1], t[j + 1] - t[j]
            if a[j - 1] != a[j] or abs(h1 - h2) > 1e-12 * h1:
                continue
            cd = (V3[j + 1] - V3[j - 1]) / (h1 + h2)
            assert abs(cd + a[j] * bn2[j]) < 1e-8 + 1e3 * h1 * h1
            checked += 1
        assert checked > 100

    def test_bad_scale_rejected(self):
        with pytest.raises(DomainError):
            neutral_gain(A_ROTATION, B_DI, 0.0)


class TestDIGain:
    def test_gain_formula(self):
        g = di_gain(CLS, 0.2, 4.0, 1.0)
        assert np.allclose(g.K, [[-1.6, -4.0]])

    def test_lam_scaling_arithmetic(self):
        g = di_gain(CLS, 0.2, 4.0, 2.0)
        assert np.allclose(g.K, [[-6.4, -8.0]])

    def test_rho_bound_enforced(self):
        with pytest.raises(DomainError):
            di_gain(CLS, 0.3, 4.0)
        with pytest.raises(DomainError):
            di_gain(CLS, 0.25, 4.0)  # boundary excluded

    def test_real_negative_eigenvalues_across_gate_range(self):
        g = di_gain(CLS, 0.2, 4.0, 8.0)
        for a in (CLS.ratio, 0.7, 1.0):
            roots = quad_roots(a * g.k2, a * g.k1)
            assert roots is not None and roots[1] < 0.0

    def test_round_trip_scaling(self):
        g = di_gain(CLS, 0.2, 4.0, 8.0)
        K = g.K
        lam = g.lam
        back = np.array([[K[0, 0] / lam ** 2, K[0, 1] / lam]])
        assert np.array_equal(back, di_base_gain(0.2, 4.0))


class TestConeGeometry:
    def test_frozen_instance(self):
        g = cone_geometry(0.2, 1.0, 0.5)
        expected = (-0.947214, -0.887298, -0.361803,
                    -0.138197, -0.112702, -0.106300)
        for got, want in zip(g.ordered_slopes, expected):
            assert got == pytest.approx(want, abs=1e-6)
        # tighter pins from the closed forms
        assert g.xi_s_plus == pytest.approx(-0.5 * (1 + math.sqrt(0.8)),
                                            abs=1e-12)
        assert g.xi_1_plus == pytest.approx(-0.5 * (1 + math.sqrt(0.6)),
                                            abs=1e-12)

    def test_ordering_random_sample(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            ratio = rng.uniform(0.05, 1.0)
            rho = rng.uniform(0.02, 0.98) * ratio / 2.0
            k = 10.0 ** rng.uniform(-1.0, 1.5)
            g = cone_geometry(rho, k, ratio)
            chain = g.ordered_slopes + (0.0,)
            assert all(a < b for a, b in zip(chain, chain[1:]))

    def test_k_homogeneity(self):
        g1 = cone_geometry(0.2, 1.0, 0.5)
        g5 = cone_geometry(0.2, 5.0, 0.5)
        assert np.allclose(np.array(g5.ordered_slopes),
                           5.0 * np.array(g1.ordered_slopes), rtol=1e-12)

    def test_small_rho_limits(self):
        g = cone_geometry(1e-4, 1.0, 0.5)
        assert g.xi_s_plus == pytest.approx(-1.0, abs=1e-4)
        assert -2e-4 < g.xi_s_minus < 0.0

    def test_membership(self):
        g = cone_geometry(0.2, 4.0, 0.5)
        # vertical direction is in the sweeping cones (q >= 0), the slopes
        # between the s-edges are central (q <= 0)
        assert g.cs_quadratic(0.0, 1.0) >= 0.0
        mid_slope = 0.5 * (g.xi_s_plus + g.xi_s_minus)
        assert g.cs_quadratic(-1.0, -mid_slope) <= 0.0
        assert g.cs_quadratic(-1.0, 0.0) >= 0.0
        assert g.cs_quadratic(1.0, 0.0) >= 0.0
        # antipodal invariance
        assert g.cs_quadratic(1.0, mid_slope) <= 0.0

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            cone_geometry(0.3, 1.0, 0.5)
        with pytest.raises(DomainError):
            cone_geometry(0.2, -1.0, 0.5)


class TestMultiInputGain:
    def test_identity_block(self):
        B = np.hstack([np.eye(2), np.zeros((2, 1))])
        K = multi_input_gain(B, 3.0)
        assert np.max(np.abs(K - np.vstack([-3.0 * np.eye(2),
                                            np.zeros((1, 2))]))) < 1e-12

    def test_invertible_square(self):
        rng = np.random.default_rng(8)
        B = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        K = multi_input_gain(B, 2.5)
        assert np.max(np.abs(K + 2.5 * np.linalg.inv(B))) < 1e-10

    def test_bk_is_scaled_identity(self):
        rng = np.random.default_rng(9)
        for m in (2, 3, 5):
            B = rng.standard_normal((2, m))
            K = multi_input_gain(B, 1.7)
            assert np.max(np.abs(B @ K + 1.7 * np.eye(2))) < 1e-10

    def test_rank_deficient_redirects(self):
        B = np.array([[1.0, 2.0], [0.5, 1.0]])
        with pytest.raises(DomainError, match="planar gain"):
            multi_input_gain(B, 1.0)
        # a single column has one nonzero singular value but rank 1
        with pytest.raises(DomainError, match="planar gain"):
            multi_input_gain(B_DI, 1.0)

    def test_wrong_row_count(self):
        with pytest.raises(ShapeError):
            multi_input_gain(np.eye(3), 1.0)
