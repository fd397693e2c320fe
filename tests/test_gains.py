import math

import numpy as np
import pytest
import scipy.linalg

from pestab.errors import (DomainError, InternalConsistencyError,
                           NotNeutrallyStable, PestabError, ShapeError)
from pestab.gains import (A_DI, A_ROTATION, B_DI, NeutralDecomposition,
                          cone_geometry, di_base_gain, di_gain,
                          multi_input_gain, neutral_decompose, neutral_gain)
from pestab.matkit import one_norm, quad_roots
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


def eig(m):
    """Eigenvalues with algebraic multiplicity, sorted by (real, imag)."""
    vals = np.linalg.eigvals(m).astype(complex)
    return vals[np.lexsort((vals.imag, vals.real))]


def semisimple_on_axis(A: np.ndarray, axis_tol: float) -> None:
    """The reference's own semisimplicity check: raise unless every
    eigenvalue within axis_tol of the imaginary axis is semisimple.  Pairs
    +-i*omega are tested through the real kernel of A^2 + omega^2 I; the
    zero eigenvalue through the kernel of A itself."""
    n = A.shape[0]
    vals = eig(A)
    center = [v for v in vals if abs(v.real) <= axis_tol]
    if not center:
        return
    scale = max(one_norm(A), 1.0)
    omegas = sorted(abs(v.imag) for v in center)
    clusters: list[list[float]] = []
    for w in omegas:
        if clusters and w - clusters[-1][-1] <= 1e-7 * scale:
            clusters[-1].append(w)
        else:
            clusters.append([w])
    for group in clusters:
        w = float(np.mean(group))
        count = len(group)
        if w <= 1e-7 * scale:
            M = A
            rank_tol = 1e-8 * scale
        else:
            M = A @ A + (w * w) * np.eye(n)
            rank_tol = 1e-8 * scale * scale
        sv = np.linalg.svd(M, compute_uv=False)
        kdim = int(np.sum(sv <= rank_tol)) if sv.size else n
        if kdim != count:
            raise NotNeutrallyStable(
                f"imaginary-axis eigenvalue (omega={w:.6g}) has a nontrivial "
                f"Jordan block: kernel dim {kdim}, multiplicity {count}")


def reference_neutral_decompose(A, B) -> NeutralDecomposition:
    """The conjugate-pairing construction: over the unit eigenvectors v of
    the trailing Schur block, columns sqrt(2) Re v, sqrt(2) Im v for each
    eigenvalue in the upper half plane (matched to a conjugate partner
    within 1e-6 relative) and v for each real one.  The input checks are
    neutral_decompose's; raises InternalConsistencyError when a complex
    eigenvalue finds no partner."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    axis_tol = 1e-10 * max(one_norm(A), 1.0)
    if any(v.real > axis_tol for v in eig(A)):
        raise NotNeutrallyStable("eigenvalue with positive real part")
    semisimple_on_axis(A, axis_tol)
    R, Z, n1 = scipy.linalg.schur(
        A, output="real", sort=lambda re, im: re < -axis_tol)
    nc = n - n1
    R22 = R[n1:, n1:]
    w, V = np.linalg.eig(R22)
    cols = []
    used = np.zeros(nc, dtype=bool)
    order = np.argsort(-w.imag, kind="stable")
    pair_tol = 1e-9 * max(one_norm(R22), 1.0)
    for i in order:
        if used[i]:
            continue
        if w[i].imag > pair_tol:
            j = None
            for cand in range(nc):
                if not used[cand] and cand != i and \
                        abs(w[cand] - w[i].conjugate()) <= 1e-6 * max(abs(w[i]), 1.0):
                    j = cand
                    break
            if j is None:
                raise InternalConsistencyError("unpaired complex eigenvalue")
            used[i] = used[j] = True
            v = V[:, i]
            scale = math.sqrt(2.0) / np.linalg.norm(v)
            cols.append(v.real * scale)
            cols.append(v.imag * scale)
        elif abs(w[i].imag) <= pair_tol:
            used[i] = True
            v = V[:, i].real
            cols.append(v / np.linalg.norm(v))
    P3 = np.column_stack(cols) if cols else np.zeros((0, 0))
    if P3.shape != (nc, nc):
        raise InternalConsistencyError("center basis has wrong size")
    P3_inv = np.linalg.inv(P3)
    S = block_diag(np.eye(n1), P3_inv) @ Z.T
    S_inv = Z @ block_diag(np.eye(n1), P3)
    return NeutralDecomposition(S, S_inv, n1, R[:n1, :n1], R[:n1, n1:] @ P3,
                                P3_inv @ R22 @ P3, (S @ B)[n1:])


def decomposition_gain(dec, r):
    """neutral_gain's formula on a given decomposition."""
    return np.hstack([np.zeros((dec.B3.shape[1], dec.n_stable)),
                      -r * dec.B3.T]) @ dec.S


def seeded_neutral_system(seed):
    """A Hurwitz block of size 1-3, a center with a repeated pair, a second
    pair and a zero eigenvalue, under a random similarity; 1 or 2 inputs."""
    rng = np.random.default_rng(seed)
    nh = int(rng.integers(1, 4))
    H = rng.standard_normal((nh, nh))
    H -= (max(np.linalg.eigvals(H).real) + rng.uniform(0.1, 2.0)) * np.eye(nh)
    w1, w2 = rng.uniform(0.2, 5.0, 2)
    core = block_diag(H, w1 * A_ROTATION, w1 * A_ROTATION, w2 * A_ROTATION,
                      np.zeros((1, 1)))
    n = core.shape[0]
    P = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    A = P @ core @ np.linalg.inv(P)
    return A, rng.standard_normal((n, int(rng.integers(1, 3))))


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

    # defective centers: a Jordan pair at several frequencies, a nilpotent
    # 2-block beside a Hurwitz block and a rotation, the double integrator,
    # a nilpotent 3-block
    DEFECTIVE = {
        **{f"jordan-{w}": np.block([[w * A_ROTATION, np.eye(2)],
                                    [np.zeros((2, 2)), w * A_ROTATION]])
           for w in (0.01, 1.0, 50.0, 500.0, 5000.0)},
        "hurwitz-nilpotent-rotation": block_diag(
            np.array([[-1.0, 0.5], [0.0, -2.0]]), A_DI, 2.0 * A_ROTATION),
        "double-integrator": A_DI,
        "nilpotent-3": np.diag([1.0, 1.0], 1),
    }

    @pytest.mark.parametrize("name", DEFECTIVE)
    def test_defective_center_refused_under_similarities(self, name):
        # the Jordan pair at omega = 5000 reaches a basis singular value
        # ratio of about 1e-6, a decade under _BASIS_TOL; on some of the
        # Hurwitz-nilpotent similarities the Schur reordering itself fails
        core = self.DEFECTIVE[name]
        n = core.shape[0]
        for seed in range(200):
            rng = np.random.default_rng(seed)
            P = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            A = P @ core @ np.linalg.inv(P)
            with pytest.raises(NotNeutrallyStable):
                neutral_decompose(A, np.ones((n, 1)))

    @pytest.mark.parametrize("name, hinted", [("jordan-0.01", 193),
                                              ("double-integrator", 94)])
    def test_split_defective_center_named_in_refusal(self, name, hinted):
        # most similar copies split the defective eigenvalue by about the
        # square root of the rounding error, which read only as "positive
        # real part"; those refusals now name the defective center too,
        # and the rest fail the basis test
        core = self.DEFECTIVE[name]
        n = core.shape[0]
        messages = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            P = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            with pytest.raises(NotNeutrallyStable) as exc:
                neutral_decompose(P @ core @ np.linalg.inv(P), np.ones((n, 1)))
            messages.append(str(exc.value))
        split = [m for m in messages if "positive real part" in m]
        assert len(split) == hinted
        assert all("defective imaginary-axis eigenvalue" in m for m in split)
        assert all("not semisimple" in m for m in messages if m not in split)

    def test_unstable_eigenvalue_has_no_defective_hint(self):
        with pytest.raises(NotNeutrallyStable) as exc:
            neutral_decompose(np.diag([1e-6, -1.0]), np.ones((2, 1)))
        assert str(exc.value) == "eigenvalue 1e-06 has positive real part"

    def test_schur_reordering_failure_refused(self, monkeypatch):
        # scipy's sorted Schur form raises LinAlgError when reordering
        # cannot separate close eigenvalues, as on a defective center
        def failing_schur(*args, **kwargs):
            raise np.linalg.LinAlgError("reordering failed")
        monkeypatch.setattr(scipy.linalg, "schur", failing_schur)
        with pytest.raises(NotNeutrallyStable, match="reordering failed"):
            neutral_decompose(A_ROTATION, B_DI)

    @pytest.mark.parametrize("seed", [84, 834, 1217])
    def test_seeded_systems_the_kernel_count_refused(self, seed):
        # semisimple by construction; the pairing reference's kernel count
        # refuses them, and seed 1217 has the smallest basis singular value
        # ratio of seeds 0-1999 (6.2e-5)
        A, B = seeded_neutral_system(seed)
        with pytest.raises(NotNeutrallyStable, match="Jordan block"):
            reference_neutral_decompose(A, B)
        dec = neutral_decompose(A, B)
        assert dec.n_stable == A.shape[0] - 7
        check_decomposition(A, dec)

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

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_nonfinite_scale_rejected(self, r):
        # both used to return [[nan, nan]]
        with pytest.raises(DomainError, match="gain scale r"):
            neutral_gain(A_ROTATION, B_DI, r)

    def test_close_frequencies_give_transpose(self):
        # the pairing construction could not match +-i with +-1.000001i
        # within its 1e-6 partner tolerance and refused this skew A
        A = block_diag(A_ROTATION, 1.000001 * A_ROTATION)
        B = np.ones((4, 1))
        with pytest.raises(InternalConsistencyError):
            reference_neutral_decompose(A, B)
        assert np.max(np.abs(neutral_gain(A, B) + B.T)) < 1e-12
        dec = neutral_decompose(A, B)
        assert one_norm(dec.A3 + dec.A3.T) < 1e-12
        check_decomposition(A, dec)

    @pytest.mark.parametrize("g", [1e-7, 3e-8])
    def test_frequencies_inside_the_cluster_gap_give_transpose(self, g):
        # the kernel count clustered 1 and 1 + g at 1e-7 ||A||_1 and found
        # no kernel at its rank tolerance: "kernel dim 0, multiplicity 4"
        A = block_diag(A_ROTATION, (1.0 + g) * A_ROTATION)
        B = np.ones((4, 1))
        with pytest.raises(NotNeutrallyStable, match="kernel dim 0"):
            semisimple_on_axis(A, 1e-10 * one_norm(A))
        assert np.max(np.abs(neutral_gain(A, B) + B.T)) < 1e-12

    def test_matches_pairing_reference_on_seeded_systems(self):
        # where the pairing construction succeeds, the gains agree up to
        # rounding: both equal -r B^T Z2 G^-1 Z2^T with G = V V*
        compared = 0
        for seed in range(200):
            A, B = seeded_neutral_system(seed)
            try:
                ref = reference_neutral_decompose(A, B)
            except PestabError:
                continue
            dec = neutral_decompose(A, B)
            K_ref = decomposition_gain(ref, 2.5)
            K = neutral_gain(A, B, 2.5)
            assert one_norm(K - K_ref) <= 1e-12 * one_norm(K_ref), seed
            assert dec.n_stable == ref.n_stable == A.shape[0] - 7
            assert one_norm(dec.A3 + dec.A3.T) <= \
                1e-12 * max(one_norm(A), 1.0), seed
            check_decomposition(A, dec)
            compared += 1
        assert compared >= 190


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

    @pytest.mark.parametrize("name, value", [
        ("k", math.nan), ("k", math.inf), ("lam", math.nan),
        ("lam", math.inf)])
    def test_nonfinite_scale_rejected(self, name, value):
        # used to return a NaN or infinite K
        args = {"k": 4.0, "lam": 1.0, name: value}
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            di_gain(CLS, 0.2, args["k"], args["lam"])

    @pytest.mark.parametrize("k, lam", [(1e200, 1.0), (1.0, 1e200),
                                        (1e100, 1e100)])
    def test_overflowing_k1_rejected(self, k, lam):
        # k ** 2 or lam ** 2 raised an untyped OverflowError; a product
        # that overflows to inf read as "rho bound breached"
        with pytest.raises(DomainError, match="^k1 = lam"):
            di_gain(CLS, 0.2, k, lam)

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


    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_nonfinite_k_rejected(self, k):
        # both used to surface as InternalConsistencyError
        with pytest.raises(DomainError, match="^k must be finite"):
            cone_geometry(0.2, k, 0.5)


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

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_nonfinite_k_rejected(self, k):
        # used to return a NaN or infinite K
        with pytest.raises(DomainError, match="^k must be finite"):
            multi_input_gain(np.eye(2), k)
