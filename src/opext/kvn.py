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

which is positive semidefinite by construction.  C is Y V over sqrt(w) on
the columns :func:`~opext.numkit._psd_keep` keeps of P* Y = V diag(w) V*, as
both interval endpoints of :mod:`opext.sa_ext` read theirs off that spectrum
shifted by +/- alpha.  That one decision also settles existence
(:func:`check_restriction`): the values must vanish where the Gram form does,
tested as ||Y - (Y Q) Q*|| ~ 0, the norm of the dropped columns of Y V.  A
:class:`PartialPositiveOperator` decomposes P* Y once and keeps C and that
residual; its rejections are structural, the endpoints' numerical.

:func:`hilbert_lift` packages the auxiliary inner-product space attached
to a positive weight A: the weighted pairing <x, y>_A = y* A x descends to
an r-dimensional Hilbert space (r = rank A), realized through x -> J* x for
J = Q diag(rho), A's eigenpairs A = Q diag(rho)^2 Q* above the rank cutoff.
A lift is built from A's decided spectrum (its only positivity check) and
holds J; its pullback J^+ carries the range rule.  Only kvn reads Q and rho.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotABounded, NotHermitian, NotPsd
from .numkit import (
    ComplexMatrix,
    HermitianMatrix,
    PsdMatrix,
    Tolerances,
    _checked_hermitian,
    _fro,
    _hermitian_part,
    _limit,
    _orth_factor,
    _psd_keep,
    _require_independent,
    _require_vanishing,
    _tol,
    eigh_desc,
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
        _require_independent(d.a, t, s.size)
        try:
            _checked_hermitian(d.a.conj().T @ g.a, t)
        except NotHermitian as exc:
            raise NotHermitian(f"induced Gram matrix is not Hermitian: {exc}") from exc
        y = (g.a @ v) / s
        w, u = eigh_desc(p.conj().T @ y)
        try:
            keep = _psd_keep(w, t)
        except NotPsd as exc:
            raise NotPsd(f"induced Gram matrix is not positive: {exc}") from exc
        yu = y @ u
        self._factor = (np.compress(keep, yu, axis=1) / np.sqrt(w[keep]), _fro(np.compress(~keep, yu, axis=1)))
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
    above the rank cutoff (r = rank A), the class map x -> J* x of the held,
    read-only J = Q diag(rho) identifies that quotient with standard C^r.

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
    _j: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.roots.setflags(write=False)
        object.__setattr__(self, "_j", self.range_basis.a * self.roots)
        self._j.setflags(write=False)

    def embedding(self) -> np.ndarray:
        """The held J = Q diag(rho), the isometric embedding C^r -> C^n: J J* = A."""
        return self._j

    def coembedding(self) -> np.ndarray:
        """Adjoint of :meth:`embedding`: x -> diag(rho) Q* x, the class map."""
        return self._j.conj().T

    def pullback(self, v: np.ndarray, tol: Tolerances, dom: HilbertLift | None = None) -> np.ndarray:
        """J^+ v = diag(1/rho) Q* v, or with ``dom`` J^+ v (J_dom^+)* = (Q* v Q_dom) / outer(rho, rho_dom).  The range
        rule: NotABounded unless v lies in ran A (and v* in ran A_dom), as ||x - Q Q* x||_F <= eq (1 + ||x||_F)."""
        coords = []
        for lift, x in ((self, v),) if dom is None else ((self, v), (dom, v.conj().T)):
            q = lift.range_basis.a
            coords.append(q.conj().T @ x)
            resid = _fro(x - q @ coords[-1])
            if resid > _limit(tol.eq, _fro(x)):
                raise NotABounded(f"values escape the range of the weight (residual {resid:.3e}); no finite weighted bound exists")
        if dom is None:
            return coords[0] / self.roots[:, None]
        return (coords[0] @ dom.range_basis.a) / np.outer(self.roots, dom.roots)


def _lift(weight: PsdMatrix, w: np.ndarray, v: np.ndarray, tol: Tolerances) -> HilbertLift:
    """The lift of ``weight`` from its whole spectrum (w descending, v its eigenvectors): :func:`_psd_keep` decides it."""
    keep = _psd_keep(w, tol)
    return HilbertLift(weight, int(np.count_nonzero(keep)), ComplexMatrix._adopt(np.compress(keep, v, axis=1)), np.sqrt(w[keep]))


def hilbert_lift(weight, tol: Tolerances | None = None) -> HilbertLift:
    """Build the range-coordinate realization of a positive weight.

    One eigendecomposition produces the orthonormal range basis Q and the
    roots rho, so every map derived from them agrees exactly on what the
    kernel is.  Eigenvalues below the relative rank cutoff are treated as
    zero.  A weight that is not already a :class:`PsdMatrix` is checked
    Hermitian and then decided positive by this spectrum alone, under the
    rule and with the NotPsd message of :class:`PsdMatrix`.
    """
    t = _tol(tol)
    h = HermitianMatrix.coerce(weight, t)
    return _lift(h if isinstance(h, PsdMatrix) else PsdMatrix._adopt(h.a), *eigh_desc(h), t)
