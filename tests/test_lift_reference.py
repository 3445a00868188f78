"""The factored lift (Q, rho) against the dense A^{1/2} path.

The extension modules work in the range coordinates of a weight
A = Q diag(rho)^2 Q* through Q and rho alone.  The reference below builds
the same quantities the long way, through dense A^{1/2} and (A^{1/2})^+
from a plain eigendecomposition of A: the range coordinates U = Q* A^{1/2} D
and W = Q* (A^{1/2})^+ V, the bound ||W U^+||, the extension endpoints
mapped back through J = A^{1/2} Q, the bound (A^{1/2})^+ S (A^{1/2})^+ of a
total operator, and the two-corner completion read off the stacked operator
lifted as a whole.  Near the rank cutoff, both endpoints built from the one
spectrum of P* Y are checked against one eigh per shifted form alpha +/- P* Y,
and the existence residual each Gram factor reads off G V (kvn's, kept in
``op._factor``, and both endpoints', handed to ``numkit._lifted_keep`` as
``lost``) against ||G - G Q Q*||: equal within rounding where directions
drop, exactly 0 where none do.
"""

import numpy as np
import pytest

from opext import kvn, sa_ext
from opext.kvn import hilbert_lift
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


def block_diag(*blocks):
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)), dtype=complex)
    i = j = 0
    for b in blocks:
        out[i : i + b.shape[0], j : j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    return out


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
    sqrt = block_diag(roots[0][0], roots[1][0])
    inv = block_diag(roots[0][1], roots[1][1])
    q = block_diag(*(lift.range_basis.a for lift in lifts))
    n1, k1 = inst.dim1, inst.domain1.cols
    d = block_diag(inst.domain1.a, inst.domain2.a)
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


def ref_gram_factor(p, g, tol):
    """C = G Q W^{-1/2}, the dropped count and ||G - G Q Q*||_F from one plain eigh of P* G.

    (W, Q) are the eigenpairs of the Hermitian part of M = P* G that the psd
    rule and rank cutoff of ``psd_eig`` keep.
    """
    m = p.conj().T @ g
    w, q = np.linalg.eigh((m + m.conj().T) / 2)
    hi = w[-1] if w.size else 0.0
    assert not w.size or w[0] >= -tol.psd * (1 + hi)
    keep = w > tol.rank_cutoff(w.size, w.size) * max(hi, 0.0)
    q, w = q[:, keep], w[keep]
    return (g @ q) / np.sqrt(w), int(np.count_nonzero(~keep)), np.linalg.norm(g - (g @ q) @ q.conj().T)


def ref_shifted_endpoints(p, y, alpha, j, tol):
    """(s_min, s_max), the dropped counts and residuals of the two-eigh route: one eigh per shifted Gram form.

    Each endpoint takes :func:`ref_gram_factor` of G = alpha P +/- Y, whose
    Gram form is M = alpha I +/- P* Y, requires the existence residual of G
    on the dropped directions to vanish and maps C C* back through J.
    """
    ends, dropped, resids = [], [], []
    for sign in (1.0, -1.0):
        g = alpha * p + sign * y
        c, drop, resid = ref_gram_factor(p, g, tol)
        assert resid <= tol.eq * (1 + np.linalg.norm(g))
        ends.append(sign * (j @ (c @ c.conj().T - alpha * np.eye(p.shape[0])) @ j.conj().T))
        dropped.append(drop)
        resids.append(resid)
    return ends, dropped, resids


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


def spy_lifted_keep(monkeypatch):
    """Record (dropped count, ``lost`` of the dropped mask) of each ``_lifted_keep`` call made through sa_ext."""
    calls = []
    lifted_keep = sa_ext._lifted_keep

    def spied(w, lost, scale, tol):
        keep = lifted_keep(w, lost, scale, tol)
        calls.append((int(np.count_nonzero(~keep)), lost(~keep)))
        return keep

    monkeypatch.setattr(sa_ext, "_lifted_keep", spied)
    return calls


def kvn_factor(op):
    """(dropped count, existence residual) of a PartialPositiveOperator's kept factor."""
    c, resid = op._factor
    return op.domain_dim - c.shape[1], resid


def one_spectrum_endpoints(monkeypatch, p, y, alpha, lift):
    """``sa_ext._extend_lifted``, and the dropped count and residual of each endpoint's Gram form."""
    calls = spy_lifted_keep(monkeypatch)
    ends = sa_ext._extend_lifted(p, y, alpha, lift, TOL)
    return ends, [drop for drop, _ in calls], [resid for _, resid in calls]


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
    got, counts, resids = one_spectrum_endpoints(monkeypatch, p, y, alpha, lift)
    want, ref_counts, ref_resids = ref_shifted_endpoints(p, y, alpha, lift.embedding(), TOL)
    assert counts == ref_counts == [dropped, dropped]
    for s, ref in zip(got, want):
        assert np.linalg.norm(s - ref) <= 1e-12 * np.linalg.norm(ref)
    # G vanishes on the dropped directions: both residuals are rounding of the size of G
    for resid, ref, sign in zip(resids, ref_resids, (1.0, -1.0)):
        assert abs(resid - ref) <= 1e-14 * (1 + np.linalg.norm(alpha * p + sign * y))


@pytest.mark.parametrize("kind", ["identity", "deficient"])
@pytest.mark.parametrize("k", [0, 3])
def test_empty_domain_and_zero_bound_match_the_two_eigh_route(monkeypatch, kind, k):
    # k = 0: no spectrum at all; k = 3 with Y = 0: alpha = 0 and every eigenvalue drops
    lift = hilbert_lift(PsdMatrix(near_cutoff_weight(kind, 8)))
    p = np.linalg.qr(cgauss(np.random.default_rng(71), lift.rank, k))[0]
    y = np.zeros_like(p)
    got, counts, resids = one_spectrum_endpoints(monkeypatch, p, y, 0.0, lift)
    want, ref_counts, ref_resids = ref_shifted_endpoints(p, y, 0.0, lift.embedding(), TOL)
    assert counts == ref_counts == [k, k]
    assert resids == ref_resids == [0.0, 0.0]
    for s, ref in zip(got, want):
        assert not ref.any() and not s.any()


@pytest.mark.parametrize("kind", ["identity", "deficient"])
def test_endpoints_drop_nothing_below_a_loose_bound_and_their_residual_is_exactly_zero(monkeypatch, kind):
    # alpha = 2 ||Y|| keeps every alpha +/- lambda well above the cutoff
    lift = hilbert_lift(PsdMatrix(near_cutoff_weight(kind, 8)))
    p, y = near_cutoff_pair(np.random.default_rng(73), lift.rank, 6, 1.0)
    alpha = 2.0 * _smax(y)
    got, counts, resids = one_spectrum_endpoints(monkeypatch, p, y, alpha, lift)
    want, ref_counts, ref_resids = ref_shifted_endpoints(p, y, alpha, lift.embedding(), TOL)
    assert counts == ref_counts == [0, 0]
    assert resids == [0.0, 0.0]
    for s, ref in zip(got, want):
        assert np.linalg.norm(s - ref) <= 1e-12 * np.linalg.norm(ref)


def kvn_pair(gen, n, k, kernel):
    """Orthonormal P (n x k) and Y = P M + Z with M >= 0 Hermitian.

    M vanishes on ``kernel`` orthonormal directions N, and Z = L N* leaks out of ran P along them.
    """
    p = np.linalg.qr(cgauss(gen, n, k))[0]
    u = np.linalg.qr(cgauss(gen, k, k))[0]
    lam = np.concatenate([gen.uniform(0.5, 2.0, k - kernel), np.zeros(kernel)])
    leak = cgauss(gen, n, kernel)
    leak -= p @ (p.conj().T @ leak)
    return p, p @ ((u * lam) @ u.conj().T) + leak @ u[:, k - kernel:].conj().T


@pytest.mark.parametrize("kernel", [1, 2])
def test_kvn_residual_on_dropped_directions_matches_the_reference(kernel):
    # the leak is the part of the values on ker M: the residual is its size, not rounding
    p, y = kvn_pair(np.random.default_rng([kernel, 75]), 8, 4, kernel)
    op = kvn.PartialPositiveOperator(p, y)
    _, ref_drop, ref_resid = ref_gram_factor(p, y, TOL)
    drop, resid = kvn_factor(op)
    assert drop == ref_drop == kernel
    assert ref_resid > 0.1
    assert abs(resid - ref_resid) <= 1e-14 * (1 + np.linalg.norm(y))
    assert not kvn.check_restriction(op)


def test_kvn_residual_of_a_generic_full_rank_form_is_exactly_zero():
    gen = np.random.default_rng(77)
    f = cgauss(gen, 8, 8)
    d = cgauss(gen, 8, 3)
    op = kvn.PartialPositiveOperator(d, (f @ f.conj().T) @ d)
    assert kvn_factor(op) == (0, 0.0)
    assert kvn.check_restriction(op)
