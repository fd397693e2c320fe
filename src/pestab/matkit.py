"""Dense linear algebra for small real matrices (n <= 8).

Matrix exponential (of one matrix or a stack: a planar one in closed form,
any other size by scipy's), the planar segment Gramian in closed form,
smallest singular value and quadratic roots.  Everything operates on plain
float64 numpy arrays; validation helpers turn loose input into checked
arrays.  _planar splits a 2x2 matrix into the parts that the planar closed
forms read, expm's, _gramian2's and simcore._first_zero's.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ShapeError

__all__ = [
    "as_matrix",
    "one_norm",
    "expm",
    "quad_roots",
    "min_sv",
]


def as_matrix(a, square: bool = False, name: str = "matrix",
              stack: bool = False) -> np.ndarray:
    """Validate `a` as a finite 2-d float array (optionally square), or as
    a 3-d stack of them."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 1 and not stack:
        m = m.reshape(1, -1)
    if m.ndim != 2 + stack:
        raise ShapeError(
            f"{name} must be {2 + stack}-dimensional, got shape {m.shape}")
    if square and m.shape[-2] != m.shape[-1]:
        raise ShapeError(f"{name} must be square, got shape {m.shape}")
    if np.count_nonzero(np.isfinite(m)) < m.size:
        raise ShapeError(f"{name} has non-finite entries")
    return m


def one_norm(m) -> float:
    a = np.asarray(m, dtype=float)
    if a.size == 0:
        return 0.0
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return float(np.max(np.sum(np.abs(a), axis=0)))


# 2^27 + 1: splits a double into two halves whose products are exact
_SPLIT = 134217729.0


def _two_product(a: float, b: float) -> tuple:
    """(p, e) with p = a b rounded and p + e = a b exactly, by Veltkamp's
    split (Dekker, Numer. Math. 18, 1971), barring over- and underflow."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    t = _SPLIT * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _planar(m00: float, m01: float, m10: float, m11: float) -> tuple:
    """(tau, h, hl, delta) of the 2x2 matrix m: tau = tr m / 2, and N = m -
    tau I has n_00 = (m00 - m11) / 2 = h + hl exactly (h rounded, hl its
    error) and N^2 = delta I, delta = n_00^2 + m01 m10 rounded once apart
    from an error of order eps^2 (h^2 + |m01 m10|): both products are split
    error-free, so delta loses no digits where the two cancel.  Entries up
    to 2^500 in magnitude keep every part finite."""
    d = m00 - m11
    h, hl = 0.5 * d, 0.5 * math.fsum((m00, -m11, -d))
    p, e = _two_product(h, h)
    q, f = _two_product(m01, m10)
    return 0.5 * m00 + 0.5 * m11, h, hl, math.fsum((p, q, e, f, 2.0 * h * hl))


def _spectral(G, basis, nm, q, root, sig, w, f0) -> np.ndarray:
    """_gramian2's Gramians for real eigenvalues tau + sig root (the far
    node) and tau - sig root, summed over the spectral projectors P_f and
    P_n of e^{as} = e^{..} P_f + e^{..} P_n where that sum's rounding,
    estimated from its terms' norms, is the smaller: G = h (F[0, far] M_ff
    + F[0, c] (M_fn + M_fn^T) + F[0, near] M_nn), M_ij = (P_i L)(P_j L)^T
    for q = L L^T.  A gate whose input lies along one eigenvector then
    keeps a slow mode's Gramian, where the sum over (q, N q + q N^T,
    N q N^T) cancels terms of the fast mode's size."""
    # L from the larger diagonal entry, its second pivot det q / q_ii from
    # error-free products: a q of rank one has a rank-one L
    (q00, q01), (_, q11) = q.tolist()
    i = int(q11 > q00)
    qii, qjj = (q11, q00) if i else (q00, q11)
    fac = np.zeros((2, 2))
    if qii > 0.0:
        p, e = _two_product(qii, qjj)
        s, f = _two_product(q01, q01)
        fac[i, 0] = math.sqrt(qii)
        fac[1 - i, 0] = q01 / fac[i, 0]
        fac[1 - i, 1] = math.sqrt(max(math.fsum((p, -s, e, -f)), 0.0) / qii)
    # root I +- N, whose diagonals root +- n_00 multiply to m01 m10: the
    # one that would cancel is taken as that product over the other
    (n00, a01), (a10, _) = nm.tolist()
    big = root + abs(n00)
    d = [big, a01 * a10 / big]
    if sig * n00 < 0.0:
        d.reverse()
    pf = np.array([[d[0], sig * a01], [sig * a10, d[1]]]) / (2.0 * root)
    pn = np.array([[d[1], -sig * a01], [-sig * a10, d[0]]]) / (2.0 * root)
    uf, un = pf @ fac, pn @ fac
    mfn = uf @ un.T
    ms = (uf @ uf.T, mfn + mfn.T, un @ un.T)
    spec = sum((w * f)[:, None, None] * m for f, m in zip(f0, ms))
    nn, nl = np.linalg.norm(nm), np.linalg.norm(fac)
    npf, npn, nuf, nun = map(np.linalg.norm, (pf, pn, uf, un))
    icc, ics, iss = map(np.abs, basis)
    err_basis = nl * nl * (icc + 2.0 * nn * ics + nn * nn * iss)
    err_spec = 2.0 * w * nl * (np.abs(f0[0]) * npf * nuf
                               + np.abs(f0[1]) * (npf * nun + nuf * npn)
                               + np.abs(f0[2]) * npn * nun)
    return np.where((err_spec < err_basis)[:, None, None], spec, G)


def _gramian2(a: np.ndarray, q: np.ndarray, h) -> tuple:
    """(e^{ah}, int_0^h e^{as} q e^{a^T s} ds) of a 2x2 a, entries up to
    2^500, and a symmetric q, for a width h or an array of widths; each
    width's pair has the bits of its own call.

    With tau, N and delta of _planar, e^{as} = e^{tau s}(C I + S N), so the
    integral is I_cc q + I_cs (N q + q N^T) + I_ss N q N^T, the integrals of
    e^{2 tau s} C^2, C S and S^2.  In units of the width, with c = 2 tau h,
    y = delta h^2 and the nodes mu = c +- 2 sqrt(y), twice h times the
    eigenvalues of a, these are divided differences F of e^z:
    I_cs / h^2 = F[0, mu+, mu-], I_ss / h^3 = 2 F[0, mu+, c, mu-] and
    I_cc / h = F[0, c] + y I_ss / h^3.  Where every node lies within 1 of
    0 they are summed as power series in the nodes (McCurdy, Ng & Parlett,
    Math. Comp. 43, 1984); elsewhere they solve the Lyapunov identity
    a G + G a^T = e^{ah} q e^{a^T h} - q in the same basis, except that a
    real node within 1/2 of 0 takes I_cs from F[0, z] = expm1(z)/z at the
    two nodes.  The nodes' product is 4 h^2 det a, from error-free
    products, and e^{ah} grows with h times the larger real eigenvalue,
    det a / (tau - sqrt delta) for tau < 0, so neither cancels.
    """
    (a00, a01), (a10, a11) = a.tolist()
    tau, n00, nl, delta = _planar(a00, a01, a10, a11)
    p, e = _two_product(a00, a11)
    s, f = _two_product(a01, a10)
    det = math.fsum((p, -s, e, -f))
    root = math.sqrt(abs(delta))
    nm = np.array([[n00, a01], [a10, -n00]])
    q = 0.5 * (q + q.T)
    nq = nm @ q
    nqn = nq @ nm.T
    q_cs, q_ss = nq + nq.T, 0.5 * (nqn + nqn.T)
    w = np.ascontiguousarray(h, dtype=float).reshape(-1)

    def f0(z):          # F[0, z] = expm1(z) / z
        return np.where(z == 0.0, 1.0, np.expm1(z) / z)

    with np.errstate(all="ignore"):
        # the branches not taken may divide by zero or overflow
        r = root * w
        if delta > 0.0:
            lam = tau + root if tau >= 0.0 else det / (tau - root)
            g = lam * w
            cw = 0.5 + 0.5 * np.exp(-2.0 * r)
            sw = np.where(r == 0.0, 1.0, -0.5 * np.expm1(-2.0 * r) / r)
            y = r * r
        elif delta < 0.0:
            g = tau * w
            cw = np.cos(r)
            sw = np.where(r == 0.0, 1.0, np.sin(r) / r)
            y = -(r * r)
        else:
            g, cw, sw, y = tau * w, 1.0, 1.0, np.zeros_like(w)
        # e^{tau h} C and e^{tau h} S / h
        eg, e2 = np.exp(g), np.exp(2.0 * g)
        ec, es = eg * cw, eg * sw
        hn = es * (w * n00) + es * (w * nl)
        phi = np.empty(w.shape + (2, 2))
        phi[:, 0, 0], phi[:, 0, 1] = ec + hn, es * (w * a01)
        phi[:, 1, 0], phi[:, 1, 1] = es * (w * a10), ec - hn
        # e^{2 tau h} C S and S^2 / h^2, finite where e^{2 tau h} is
        cs, ss = e2 * (cw * sw), e2 * (sw * sw)
        c = 2.0 * tau * w
        prod = 4.0 * det * w * w
        f0c = f0(c)
        jcs = 1.0 / prod + e2 * ((c * (cw * sw) - cw * cw - y * (sw * sw))
                                 / prod)
        if delta > 0.0:
            sig = math.copysign(1.0, tau)
            far = c + sig * (2.0 * r)
            near = prod / far
            f0far, f0near = f0(far), f0(near)
            jcs = np.where(np.abs(near) < 0.5,
                           (f0far - f0near) / (far - near), jcs)
        jss = np.where(np.abs(c) >= 2.0 * r, (ss - 2.0 * jcs) / c,
                       (cs - f0c - c * jcs) / (2.0 * y))
        series = np.abs(c) + 2.0 * r <= 1.0
        if series.any():
            # complete symmetric polynomials of the nodes: a_m of (mu+,
            # mu-), b_m of (mu+, c, mu-); a nilpotent a has none past m = 0
            a_prev, a_m, b_m = np.zeros_like(w), np.ones_like(w), 1.0
            scs, sss = 0.5, 1.0 / 6.0
            fact = 6.0
            for m in range(1, 21 if c.any() or prod.any() else 1):
                a_prev, a_m = a_m, 2.0 * c * a_m - prod * a_prev
                b_m = c * b_m + a_m
                scs = scs + a_m / fact
                fact *= m + 3
                sss = sss + b_m / fact
            jcs = np.where(series, scs, jcs)
            jss = np.where(series, 2.0 * sss, jss)
        jcc = f0c + y * jss
        icc, ics, iss = jcc * w, (jcs * w) * w, ((jss * w) * w) * w
        G = (icc[:, None, None] * q + ics[:, None, None] * q_cs
             + iss[:, None, None] * q_ss)
        if delta > 0.0:
            G = _spectral(G, (icc, ics, iss), nm, q, root, sig, w,
                          (f0far, f0c, f0near))
    shape = np.shape(h) + (2, 2)
    return phi.reshape(shape), G.reshape(shape)


def _times_exp(c: float, g: float) -> float:
    """c e^g in log space, so a product that is a double comes back finite
    where e^g alone is not, one past the largest double comes back +-inf,
    with no OverflowError, and 1 e^g is math.exp(g)."""
    if c == 0.0:
        return c
    try:
        return math.copysign(math.exp(g + math.log(abs(c))), c)
    except OverflowError:
        return math.copysign(math.inf, c)


def _expm2(m00: float, m01: float, m10: float, m11: float) -> list:
    """e^m of a 2x2 m, entries in row order: e^tau (C I + S N), with N =
    m - tau I, N^2 = delta I (Bernstein & So, IEEE Trans. Autom. Control
    38(8), 1993), C = cosh r and S = sinh r / r for delta = r^2 > 0, cos w
    and sin w / w for delta = -w^2 < 0, and C = S = 1 at 0.  For delta > 0,
    e^tau C and e^tau S are e^{tau + r} (1 + e^{-2r}) / 2 and -e^{tau + r}
    expm1(-2r) / 2r, which neither overflow where cosh r would nor cancel
    at small r.  A diagonal m gives e^{m_ii} exactly."""
    if m01 == 0.0 == m10:
        return [_times_exp(1.0, m00), 0.0, 0.0, _times_exp(1.0, m11)]
    if m00 * m00 + m01 * m01 + m10 * m10 + m11 * m11 <= 2.0 ** 1000:
        # every entry is at most 2^500 in magnitude
        tau, h, hl, delta = _planar(m00, m01, m10, m11)
        root = math.sqrt(abs(delta))
    else:
        if not all(map(math.isfinite, (m00, m01, m10, m11))):
            raise ShapeError("expm argument t * m overflows")
        # delta's products would overflow: the parts of m / 2^600, scaled
        # back, with the root at most the largest double
        k = 2.0 ** 600
        tau, h, hl, delta = _planar(m00 / k, m01 / k, m10 / k, m11 / k)
        tau, h, hl = tau * k, h * k, hl * k
        root = min(math.sqrt(abs(delta)) * k, sys.float_info.max)
    if delta > 0.0:
        g = tau + root
        c = 0.5 + 0.5 * math.exp(-2.0 * root)
        s = -0.5 * math.expm1(-2.0 * root) / root
    elif delta < 0.0:
        g, c, s = tau, math.cos(root), math.sin(root) / root
    else:
        g, c, s = tau, 1.0, 1.0
    n = s * h + s * hl
    if -708.0 < g < 709.0:
        # e^g is a normal double
        e = math.exp(g)
        return [e * (c + n), e * (s * m01), e * (s * m10), e * (c - n)]
    return [_times_exp(x, g) for x in (c + n, s * m01, s * m10, c - n)]


def expm(m, t: float = 1.0) -> np.ndarray:
    """exp(t*m), after validating m and t.

    A 2x2 t*m is exponentiated in closed form by _expm2, on Python floats
    with the math module: within 32 eps (1 + ||t m||_1) normwise of a
    50-digit oracle, an entry past the largest double reading +-inf.  Any
    other size goes to scipy.linalg.expm, imported at its first use, so
    importing the package loads no scipy.  m may also be a stack (k, n, n),
    exponentiated slice by slice in one call, each slice with the bits of
    its own call.
    """
    a = as_matrix(m, square=True, name="expm argument",
                  stack=np.ndim(m) == 3)
    if not math.isfinite(t):
        raise ShapeError("expm time must be finite")
    if t != 1.0:
        a = t * a
    if a.shape[-1] != 2:
        import scipy.linalg
        return scipy.linalg.expm(a)
    if a.ndim == 2:
        return np.array(_expm2(*a.ravel().tolist())).reshape(2, 2)
    return np.array([_expm2(*s) for s in a.reshape(-1, 4).tolist()],
                    dtype=float).reshape(a.shape)


def quad_roots(a1: float, a0: float):
    """Real roots of xi^2 + a1*xi + a0 = 0, ascending; None for a complex pair.

    Uses the subtraction-safe formulation so that xi_plus + xi_minus == -a1
    and xi_plus * xi_minus == a0 hold to rounding.
    """
    disc = a1 * a1 - 4.0 * a0
    if disc < 0.0:
        return None
    rt = math.sqrt(disc)
    q = -0.5 * (a1 + rt) if a1 >= 0.0 else -0.5 * (a1 - rt)
    if q == 0.0:
        # a1 == 0 and a0 == 0
        r1, r2 = 0.0, 0.0
    else:
        r1, r2 = q, a0 / q
    return (r1, r2) if r1 <= r2 else (r2, r1)


def min_sv(m) -> float:
    """Smallest singular value (0 for empty input)."""
    a = as_matrix(m, name="min_sv argument")
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[-1])
