"""The factored lift (Q, rho) against the dense A^{1/2} path.

The extension modules work in the range coordinates of a weight
A = Q diag(rho)^2 Q* through Q and rho alone.  The reference below builds
the same quantities the long way, through dense A^{1/2} and (A^{1/2})^+
from a plain eigendecomposition of A: the range coordinates U = Q* A^{1/2} D
and W = Q* (A^{1/2})^+ V, the bound ||W U^+||, the extension endpoints
mapped back through J = A^{1/2} Q, the bound (A^{1/2})^+ S (A^{1/2})^+ of a
total operator, and the two-corner completion read off the stacked operator
lifted as a whole.
"""

import numpy as np
import pytest

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
