"""Minimal positive extensions of partially defined positive operators.

A partial positive operator on C^n is prescribed by a domain basis D
(columns spanning the domain) and values G (column j is the image of
column j of D).  When the data admits any positive-semidefinite extension
at all, it admits a smallest one in the Loewner order -- classically the
Krein-von Neumann extension -- and in finite dimensions that extension has
the closed form A_N = G (D* G)^+ G*, which depends only on the span of D:
on the thin SVD D = P diag(s) V* and Y = G V diag(1/s) (no Gram matrix of D,
which would square its condition) it is computed in factored form

    A_N = C C*,    C = Y Q W^{-1/2},    P* Y = Q W Q* (eigenvalues above the rank cutoff),

which is positive semidefinite by construction.  C is
:func:`~opext.numkit._gram_factor` on the spectrum of P* Y, which also builds
both interval endpoints of :mod:`opext.sa_ext` from that spectrum shifted by
+/- alpha.  Its one positivity and rank decision also settles existence
(:func:`check_restriction`): the values must vanish where the Gram form
does, tested as ||Y - (Y Q) Q*|| ~ 0: the norm of the dropped columns of
Y V, V all of P* Y's eigenvectors.  A :class:`PartialPositiveOperator`
decomposes P* Y once and keeps C and that residual.

:func:`hilbert_lift` packages the auxiliary inner-product space attached
to a positive weight A: the weighted pairing <x, y>_A = y* A x descends to
an r-dimensional Hilbert space (r = rank A), realized through the class map
x -> diag(rho) Q* x of the eigenpairs A = Q diag(rho)^2 Q* above the rank
cutoff; that spectrum is also A's only positivity check.  The extension
modules use these coordinates for every spectral computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotPsd
from .numkit import (
    ComplexMatrix,
    HermitianMatrix,
    PsdMatrix,
    Tolerances,
    _checked_hermitian,
    _fro,
    _gram_factor,
    _hermitian_part,
    _limit,
    _orth_factor,
    _require_vanishing,
    _tol,
    eigh_desc,
    psd_eig,
)

__all__ = [
    "PartialPositiveOperator",
    "HilbertLift",
    "check_restriction",
    "kvn_extend",
    "hilbert_lift",
]


class PartialPositiveOperator:
    """Positive operator data prescribed on a subspace of C^n.

    Parameters
    ----------
    domain_basis : n-by-k matrix whose columns are linearly independent
        and span the domain.
    values : n-by-k matrix; column j is the prescribed image of domain
        column j.

    Construction validates independence of the domain columns (all k
    singular values of D = P diag(s) V* above the rank cutoff, kept as the
    pair (P, Y = G V diag(1/s))) and that M = D* G is Hermitian, and keeps
    the factor C of the minimal extension C C* and the existence residual
    of P* Y, decided under the ``tol`` it is built with; a later call's
    ``tol`` supplies only its own ``eq`` check.  Positivity is decided once,
    by the spectrum of P* Y that the factor takes anyway: P* Y is M in the
    orthonormal basis P of the domain, so the decision depends on the span
    of D, not on its basis or its scale.  The existence condition -- values
    vanishing on the kernel of P* Y -- is checked by
    :func:`check_restriction`, so that infeasible but well-formed data can
    still be diagnosed.
    """

    __slots__ = ("domain_basis", "values", "_span", "_factor")

    def __init__(self, domain_basis, values, tol: Tolerances | None = None):
        d = ComplexMatrix.coerce(domain_basis)
        g = ComplexMatrix.coerce(values)
        if d.rows != g.rows or d.cols != g.cols:
            raise DimensionMismatch(
                f"domain basis is {d.rows}x{d.cols} but values are {g.rows}x{g.cols}"
            )
        t = _tol(tol)
        p, s, v = _orth_factor(d.a, t)
        if s.size != d.cols:
            raise ValueError("domain basis columns are dependent; supply an independent set")
        try:
            _checked_hermitian(d.a.conj().T @ g.a, t)
        except NotHermitian as exc:
            raise NotHermitian(f"induced Gram matrix is not Hermitian: {exc}") from exc
        y = (g.a @ v) / s
        w, u = eigh_desc(p.conj().T @ y)
        try:
            self._factor = _gram_factor(w, y @ u, t)
        except NotPsd as exc:
            raise NotPsd(f"induced Gram matrix is not positive: {exc}") from exc
        self.domain_basis = d
        self.values = g
        self._span = (p, y)

    @property
    def ambient_dim(self) -> int:
        return self.domain_basis.rows

    @property
    def domain_dim(self) -> int:
        return self.domain_basis.cols

    def __repr__(self):
        return f"PartialPositiveOperator(n={self.ambient_dim}, k={self.domain_dim})"


def check_restriction(op: PartialPositiveOperator, tol: Tolerances | None = None) -> bool:
    """Whether the data is the restriction of some positive operator.

    Tests on the operator's orthonormal pair (P, Y) that the values vanish
    on the kernel of P* Y = Q W Q* (eigenvalues above the rank cutoff: the
    one decision, made at construction) as ``||Y - (Y Q) Q*||_F <=
    eq * (1 + ||Y||_F)``.  For restrictions of positive matrices this holds.
    """
    return bool(op._factor[1] <= _limit(_tol(tol).eq, _fro(op._span[1])))


def kvn_extend(op: PartialPositiveOperator, tol: Tolerances | None = None) -> PsdMatrix:
    """Smallest positive extension of a partial positive operator.

    Returns ``G (D* G)^+ G*`` as ``C C*``, ``C = Y Q W^{-1/2}`` for P* Y = Q W Q*
    on the operator's pair (P, Y): positive by construction, so not
    re-validated.  It agrees with the prescribed values on the domain and
    sits below every other positive extension in the Loewner order.

    Raises
    ------
    RestrictionConditionFailed
        If no positive extension exists (see :func:`check_restriction`).
    """
    c, resid = op._factor
    _require_vanishing(resid, _fro(op._span[1]), _tol(tol))
    return PsdMatrix._adopt(_hermitian_part(c @ c.conj().T))


@dataclass(frozen=True, eq=False)
class HilbertLift:
    """Hilbert-space coordinates for the weighted pairing of a weight A.

    The sesquilinear form <x, y>_A = y* A x is an inner product on the
    quotient of C^n by ker A.  With the eigenpairs A = Q diag(rho)^2 Q*
    above the rank cutoff (r = rank A), the class map x -> diag(rho) Q* x
    identifies that quotient with C^r carrying the standard inner product.
    Only this spectral factor (Q, rho) is stored.

    Attributes
    ----------
    weight : the validated weight A.
    rank : r = rank A.
    range_basis : n-by-r matrix Q with orthonormal columns spanning ran A.
    roots : read-only array rho of the r kept eigenvalues' square roots,
        descending.
    """

    weight: PsdMatrix
    rank: int
    range_basis: ComplexMatrix
    roots: np.ndarray

    def __post_init__(self):
        self.roots.setflags(write=False)

    def embedding(self) -> np.ndarray:
        """Matrix Q diag(rho) of the isometric embedding C^r -> C^n.

        Composing with its adjoint recovers the weight: J J* = A.
        """
        return self.range_basis.a * self.roots

    def coembedding(self) -> np.ndarray:
        """Adjoint of :meth:`embedding`: x -> diag(rho) Q* x, the class map."""
        return self.embedding().conj().T


def hilbert_lift(weight, tol: Tolerances | None = None) -> HilbertLift:
    """Build the range-coordinate realization of a positive weight.

    A single eigendecomposition produces the orthonormal range basis Q and
    the roots rho, so every map derived from them agrees exactly on what
    the kernel is.  Eigenvalues below the relative rank cutoff are treated
    as zero.  A weight that is not already a :class:`PsdMatrix` is checked
    Hermitian and then decided positive by this spectrum alone, under the
    rule and with the NotPsd message of :class:`PsdMatrix`.
    """
    t = _tol(tol)
    h = HermitianMatrix.coerce(weight, t)
    w, q = psd_eig(h, t)
    a = h if isinstance(h, PsdMatrix) else PsdMatrix._adopt(h.a)
    return HilbertLift(weight=a, rank=int(w.size), range_basis=ComplexMatrix._adopt(q), roots=np.sqrt(w))


def _block_diag(*blocks: np.ndarray) -> np.ndarray:
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)), dtype=np.complex128)
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _antidiag(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """[[0, upper], [lower, 0]]: diag(upper, lower) with lower's columns moved to the front."""
    return np.roll(_block_diag(upper, lower), lower.shape[1], axis=1)
