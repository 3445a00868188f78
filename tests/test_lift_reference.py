"""The factored lift (Q, rho) against the dense A^{1/2} path.

The extension modules work in the range coordinates of a weight
A = Q diag(rho)^2 Q* through Q and rho alone.  The reference below builds
the same quantities the long way, through dense A^{1/2} and (A^{1/2})^+
from a plain eigendecomposition of A: the range coordinates U = Q* A^{1/2} D
and W = Q* (A^{1/2})^+ V, the bound ||W U^+||, the extension endpoints
mapped back through J = A^{1/2} Q, the bound (A^{1/2})^+ S (A^{1/2})^+ of a
total operator, and the two-corner completion read off the stacked operator
lifted as a whole.  Near the rank cutoff, both endpoints built from the one
spectrum of P* Y are checked against one eigh per shifted form alpha +/- P* Y.
"""

import numpy as np
import pytest

from opext import sa_ext
from opext.kvn import _block_diag, hilbert_lift
from opext.numkit import PsdMatrix, Tolerances, _smax, pinv
from opext.parrott import ParrottInstance, parrott_complete
from opext.sa_ext import SymmetricPartialOperator, alpha_of_total, extend_symmetric, lift_symmetric

TOL = Tolerances()
REL = 1e-10
KINDS = ("zero", "identity", "full", "deficient")


def cgauss(gen, rows, cols):
    return (gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))) / np.sqrt(2)


def weight_case(seed):
    """Seeded weight of size n <= 40: zero, identity, full rank or rank-deficient."""
    gen = np.random.default_rng([seed, 59])
    kind = KINDS[seed % len(KINDS)]
    n = int(gen.integers(2, 41))
    if kind == "zero":
        return gen, np.zeros((n, n), dtype=complex)
    if kind == "identity":
        return gen, np.eye(n, dtype=complex)
    r = n if kind == "full" else int(gen.integers(1, n))
    f = cgauss(gen, n, r)
    return gen, f @ f.conj().T


def dense_roots(a, rank):
    """A^{1/2} and (A^{1/2})^+ from the top ``rank`` eigenpairs of a plain eigh."""
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    w, v = w[::-1][:rank], v[:, ::-1][:, :rank]
    root = np.sqrt(w)
    return (v * root) @ v.conj().T, (v / root) @ v.conj().T


def ref_coordinates(d, v, sqrt_dom, q_dom, pinv_ran, q_ran):
    u = q_dom.conj().T @ (sqrt_dom @ d)
    w = q_ran.conj().T @ (pinv_ran @ v)
    return u, w, _smax(w @ pinv(u, TOL).a)


def _extend_from_span(d, g, tol):
    """Minimal positive extension in the closed form ``G (D* G)^+ G*`` of a spanning set D."""
    return g @ pinv(d.conj().T @ g, tol).a @ g.conj().T


def ref_endpoints(u, w, alpha, sqrt, q):
    eye = np.eye(q.shape[1])
    low = _extend_from_span(u, alpha * u + w, TOL)
    high = _extend_from_span(u, alpha * u - w, TOL)
    j = sqrt @ q
    return j @ (low - alpha * eye) @ j.conj().T, j @ (alpha * eye - high) @ j.conj().T


def ref_parrott(inst):
    """Corners of the stacked operator's minimal and maximal extensions, lifted as a whole."""
    lifts = [hilbert_lift(a) for a in (inst.weight1, inst.weight2)]
    roots = [dense_roots(lift.weight.a, lift.rank) for lift in lifts]
    sqrt = _block_diag(roots[0][0], roots[1][0])
    inv = _block_diag(roots[0][1], roots[1][1])
    q = _block_diag(*(lift.range_basis.a for lift in lifts))
    n1, k1 = inst.dim1, inst.domain1.cols
    d = _block_diag(inst.domain1.a, inst.domain2.a)
    v = np.zeros_like(d)
    v[n1:, :k1] = inst.values1.a
    v[:n1, k1:] = inst.values2.a
    u, w, alpha = ref_coordinates(d, v, sqrt, q, inv, q)
    s_min, s_max = ref_endpoints(u, w, alpha, sqrt, q)
    return s_min[n1:, :n1], s_max[n1:, :n1]


def close(got, want):
    return np.linalg.norm(got - want) <= REL * (1 + np.linalg.norm(want))


def planted_symmetric(gen, a):
    """Domain, values and total S = A^{1/2} H A^{1/2} with a Hermitian H."""
    n = a.shape[0]
    sqrt, _ = dense_roots(a, hilbert_lift(PsdMatrix(a)).rank)
    h = cgauss(gen, n, n)
    h = (h + h.conj().T) / 2
    s = sqrt @ h @ sqrt
    d = cgauss(gen, n, int(gen.integers(1, n + 1)))
    return d, s @ d, (s + s.conj().T) / 2


@pytest.mark.parametrize("seed", range(20))
class TestAgainstDenseRoots:
    def test_lift_symmetric(self, seed):
        gen, a = weight_case(seed)
        d, v, _ = planted_symmetric(gen, a)
        lifted = lift_symmetric(SymmetricPartialOperator(d, v), PsdMatrix(a))
        q = lifted.lift.range_basis.a
        sqrt, inv = dense_roots(a, lifted.lift.rank)
        u, w, alpha = ref_coordinates(d, v, sqrt, q, inv, q)
        assert close(lifted.domain.a, u)
        assert close(lifted.values.a, w)
        assert abs(lifted.alpha - alpha) <= REL * (1 + alpha)

    def test_extend_symmetric(self, seed):
        gen, a = weight_case(seed)
        d, v, _ = planted_symmetric(gen, a)
        interval = extend_symmetric(SymmetricPartialOperator(d, v), PsdMatrix(a))
        lift = hilbert_lift(PsdMatrix(a))
        q = lift.range_basis.a
        sqrt, inv = dense_roots(a, lift.rank)
        u, w, alpha = ref_coordinates(d, v, sqrt, q, inv, q)
        s_min, s_max = ref_endpoints(u, w, alpha, sqrt, q)
        assert abs(interval.alpha - alpha) <= REL * (1 + alpha)
        assert close(interval.s_min.a, s_min)
        assert close(interval.s_max.a, s_max)

    def test_alpha_of_total(self, seed):
        gen, a = weight_case(seed)
        _, _, s = planted_symmetric(gen, a)
        _, inv = dense_roots(a, hilbert_lift(PsdMatrix(a)).rank)
        want = _smax(inv @ s @ inv)
        assert abs(alpha_of_total(s, PsdMatrix(a)) - want) <= REL * (1 + want)

    def test_parrott_complete(self, seed):
        gen, a1 = weight_case(seed)
        _, a2 = weight_case(seed + 1)
        n1, n2 = a1.shape[0], a2.shape[0]
        sqrt1, _ = dense_roots(a1, hilbert_lift(PsdMatrix(a1)).rank)
        sqrt2, _ = dense_roots(a2, hilbert_lift(PsdMatrix(a2)).rank)
        core = cgauss(gen, n2, n1)
        hidden = sqrt2 @ (0.9 * core / np.linalg.norm(core, 2)) @ sqrt1
        d1 = cgauss(gen, n1, int(gen.integers(1, n1 + 1)))
        d2 = cgauss(gen, n2, int(gen.integers(1, n2 + 1)))
        inst = ParrottInstance(d1, hidden @ d1, d2, hidden.conj().T @ d2, a1, a2, 1.0, 1.0)
        x = parrott_complete(inst).a
        for corner in ref_parrott(inst):
            assert close(x, corner)


def ref_shifted_endpoints(p, y, alpha, j, tol):
    """(s_min, s_max) and the dropped counts of the two-eigh route: one eigh per shifted Gram form.

    Each endpoint takes the eigenpairs of the Hermitian part of
    M = P* G = alpha I +/- P* Y for G = alpha P +/- Y, the psd rule and rank
    cutoff of ``psd_eig`` on them, the existence residual of G on the
    dropped directions and C = G Q W^{-1/2}, mapped back through J.
    """
    ends, dropped = [], []
    for sign in (1.0, -1.0):
        g = alpha * p + sign * y
        m = p.conj().T @ g
        w, q = np.linalg.eigh((m + m.conj().T) / 2)
        hi = w[-1] if w.size else 0.0
        assert not w.size or w[0] >= -tol.psd * (1 + hi)
        keep = w > tol.rank_cutoff(w.size, w.size) * max(hi, 0.0)
        q, w = q[:, keep], w[keep]
        assert np.linalg.norm(g - (g @ q) @ q.conj().T) <= tol.eq * (1 + np.linalg.norm(g))
        c = (g @ q) / np.sqrt(w)
        ends.append(sign * (j @ (c @ c.conj().T - alpha * np.eye(p.shape[0])) @ j.conj().T))
        dropped.append(int(np.count_nonzero(~keep)))
    return ends, dropped


def near_cutoff_pair(gen, r, k, f):
    """Orthonormal P (r x k) and Y = P H, no leak out of ran P, with ||H|| = 1.

    H has the eigenvalues 1 and -1, where one shifted form 1 +/- H vanishes,
    and 1 - f kappa and -1 + f kappa, where each sits at f times its rank
    cutoff kappa (both forms have the largest eigenvalue 2).
    """
    kappa = 2.0 * TOL.rank_cutoff(k, k)
    lam = np.concatenate([[1.0, 1.0 - f * kappa, -1.0, -1.0 + f * kappa], gen.uniform(-0.5, 0.5, k - 4)])
    u = np.linalg.qr(cgauss(gen, k, k))[0]
    p = np.linalg.qr(cgauss(gen, r, k))[0]
    return p, p @ ((u * lam) @ u.conj().T)


def one_spectrum_endpoints(monkeypatch, p, y, alpha, lift):
    """``sa_ext._extend_lifted`` and the number of eigenvalues each endpoint's Gram factor drops."""
    dropped = []

    def spied(w, *args):
        c, resid = gram_factor(w, *args)
        dropped.append(w.size - c.shape[1])
        return c, resid

    gram_factor = sa_ext._gram_factor
    monkeypatch.setattr(sa_ext, "_gram_factor", spied)
    return sa_ext._extend_lifted(p, y, alpha, lift, TOL), dropped


def near_cutoff_weight(kind, r):
    """The identity on C^r, or a weight on C^(r + 3) of rank r."""
    if kind == "identity":
        return np.eye(r, dtype=complex)
    f = cgauss(np.random.default_rng([r, 61]), r + 3, r)
    return f @ f.conj().T


@pytest.mark.parametrize("kind", ["identity", "deficient"])
@pytest.mark.parametrize("f, dropped", [(0.5, 2), (2.0, 1)])
def test_endpoints_near_the_rank_cutoff_match_the_two_eigh_route(monkeypatch, kind, f, dropped):
    # alpha +/- lambda at 0.5x its cutoff drops with the exact zero, at 2x it is kept
    lift = hilbert_lift(PsdMatrix(near_cutoff_weight(kind, 8)))
    p, y = near_cutoff_pair(np.random.default_rng([int(4 * f), 67]), lift.rank, 6, f)
    alpha = _smax(y)
    got, counts = one_spectrum_endpoints(monkeypatch, p, y, alpha, lift)
    want, ref_counts = ref_shifted_endpoints(p, y, alpha, lift.embedding(), TOL)
    assert counts == ref_counts == [dropped, dropped]
    for s, ref in zip(got, want):
        assert np.linalg.norm(s - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("kind", ["identity", "deficient"])
@pytest.mark.parametrize("k", [0, 3])
def test_empty_domain_and_zero_bound_match_the_two_eigh_route(monkeypatch, kind, k):
    # k = 0: no spectrum at all; k = 3 with Y = 0: alpha = 0 and every eigenvalue drops
    lift = hilbert_lift(PsdMatrix(near_cutoff_weight(kind, 8)))
    p = np.linalg.qr(cgauss(np.random.default_rng(71), lift.rank, k))[0]
    y = np.zeros_like(p)
    got, counts = one_spectrum_endpoints(monkeypatch, p, y, 0.0, lift)
    want, ref_counts = ref_shifted_endpoints(p, y, 0.0, lift.embedding(), TOL)
    assert counts == ref_counts == [k, k]
    for s, ref in zip(got, want):
        assert not ref.any() and not s.any()
