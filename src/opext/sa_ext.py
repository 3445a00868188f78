"""Bound-preserving self-adjoint extensions of symmetric partial operators.

A symmetric partial operator S_0 on C^n is prescribed by a domain basis D
and values V with D* V Hermitian.  Relative to a positive weight A, the
operator is A-bounded with constant alpha when

    |<S_0 x, y>|^2 <= alpha^2 <A x, x> <A y, y>

for all x in the domain and all y; the smallest such alpha is the bound
computed by :func:`a_bound`.  Every A-bounded symmetric partial operator
admits self-adjoint extensions with the same bound, and they form an
operator interval: there are extremal extensions S_min and S_max such
that the bound-preserving self-adjoint extensions are exactly the
Hermitian S with S_min <= S <= S_max in the Loewner order.

The construction works in the range coordinates supplied by
:func:`~opext.kvn.hilbert_lift`.  There the partial operator becomes an
ordinary bounded symmetric operator S0_hat with norm alpha, the shifted
operators alpha +/- S0_hat are positive, and their minimal positive
extensions (via the closed form in :mod:`opext.kvn`) produce the interval
endpoints:

    S_min = minimal_ext(alpha + S0_hat) - alpha,
    S_max = alpha - minimal_ext(alpha - S0_hat),

mapped back to C^n through the lift, both from one spectrum of P* Y
(:func:`_extend_lifted`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, HypothesisViolated, NotABounded
from .kvn import HilbertLift, hilbert_lift
from .numkit import (
    ComplexMatrix,
    HermitianMatrix,
    PsdMatrix,
    Tolerances,
    _checked_hermitian,
    _fro,
    _hermitian_part,
    _lifted_keep,
    _limit,
    _require_independent,
    _restrict,
    _smax,
    _tol,
    eigh_desc,
    loewner_leq,
    pinv,
)

__all__ = [
    "SymmetricPartialOperator",
    "LiftedSymmetric",
    "ExtensionInterval",
    "ExtensionProblem",
    "a_bound",
    "lift_symmetric",
    "extend_symmetric",
    "alpha_of_total",
    "in_interval",
    "check_commutation",
]


class SymmetricPartialOperator:
    """Symmetric operator data prescribed on a subspace of C^n.

    domain_basis: n-by-k matrix with independent columns.
    values: n-by-k matrix, column j the image of domain column j.
    Symmetry of the data is the Hermitian-ness of D* V, validated here.
    """

    __slots__ = ("domain_basis", "values")

    def __init__(self, domain_basis, values, tol: Tolerances | None = None):
        d = ComplexMatrix.coerce(domain_basis)
        v = ComplexMatrix.coerce(values)
        if d.rows != v.rows or d.cols != v.cols:
            raise DimensionMismatch(
                f"domain basis is {d.rows}x{d.cols} but values are {v.rows}x{v.cols}"
            )
        t = _tol(tol)
        _require_independent(d.a, t)
        _checked_hermitian(d.a.conj().T @ v.a, t)  # raises NotHermitian on asymmetric data
        self.domain_basis = d
        self.values = v

    @classmethod
    def _adopt(cls, d: np.ndarray, v: np.ndarray):
        """Wrap, as :meth:`ComplexMatrix._adopt` does, an independent symmetric pair the library built."""
        op = cls.__new__(cls)
        op.domain_basis, op.values = ComplexMatrix._adopt(d), ComplexMatrix._adopt(v)
        return op

    @property
    def ambient_dim(self) -> int:
        return self.domain_basis.rows

    @property
    def domain_dim(self) -> int:
        return self.domain_basis.cols

    def __repr__(self):
        return f"SymmetricPartialOperator(n={self.ambient_dim}, k={self.domain_dim})"


@dataclass(frozen=True)
class LiftedSymmetric:
    """A symmetric partial operator rewritten in range coordinates.

    domain (U) and values (W) are r-by-k: column j of U is the class of
    domain column j in the weighted space, column j of W the class
    representing the corresponding value functional.  alpha is the
    operator's weighted bound alpha = ||W U^+|| = ||Y||, Y = W V diag(1/s)
    for the thin SVD U = P diag(s) V*.
    """

    lift: HilbertLift
    domain: ComplexMatrix
    values: ComplexMatrix
    alpha: float


@dataclass(frozen=True)
class ExtensionInterval:
    """Extremal bound-preserving self-adjoint extensions.

    Every Hermitian matrix between s_min and s_max in the Loewner order
    is a self-adjoint extension with the same weighted bound alpha, and
    conversely.
    """

    alpha: float
    s_min: HermitianMatrix
    s_max: HermitianMatrix


@dataclass(frozen=True)
class ExtensionProblem:
    """A symmetric partial operator paired with its positive weight."""

    operator: SymmetricPartialOperator
    weight: PsdMatrix


def _weighted_lift(
    d: np.ndarray, v: np.ndarray, dom: HilbertLift, ran: HilbertLift, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Range coordinates (U, W) of T: D -> V, its orthonormal pair (P, Y), and its weighted bound.

    From the thin SVD U = P diag(s) V*: T on P is Y = W V diag(1/s), and the
    bound ||W U^+|| = ||Y|| is the smallest beta with |<T x, y>|^2 <= beta^2
    <A_dom x, x> <A_ran y, y>; a symmetric operator passes the same lift
    twice.  Raises :class:`NotABounded` when no finite bound exists: some
    value sticks out of ran A_ran, or W - W V V* does not vanish.
    """
    if d.shape[0] != dom.weight.rows:
        raise DimensionMismatch(f"operator lives on C^{d.shape[0]} but weight is {dom.weight.rows}x{dom.weight.rows}")
    w = ran.pullback(v, tol)  # values must lie in ran A_ran
    u = dom.coembedding() @ d
    # kernel condition: where the domain collapses, the values must too
    p, y, collapse = _restrict(u, w, tol)
    if collapse > _limit(tol.eq, _fro(w)):
        raise NotABounded(
            f"domain directions collapse in the weighted seminorm while their values do not "
            f"(residual {collapse:.3e}); no finite weighted bound exists"
        )
    return u, w, p, y, _smax(y)


def _symmetric_lift(
    d: np.ndarray, v: np.ndarray, lift: HilbertLift, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """:func:`_weighted_lift` of symmetric data; NotHermitian unless U* W is Hermitian.

    A leak out of ran A within tolerance can keep D* V Hermitian while U* W
    is not, and extensions built from such data miss the prescribed values.
    """
    lifted = _weighted_lift(d, v, lift, lift, tol)
    _checked_hermitian(lifted[0].conj().T @ lifted[1], tol)
    return lifted


def lift_symmetric(
    op: SymmetricPartialOperator, weight, tol: Tolerances | None = None
) -> LiftedSymmetric:
    """Rewrite a symmetric partial operator in the weight's range coordinates.

    Raises :class:`NotABounded` when no finite weighted bound exists:
    either some value sticks out of ran A, or the domain degenerates in
    the weighted seminorm where the values do not; NotHermitian when the
    lifted data is not symmetric.
    """
    t = _tol(tol)
    lift = hilbert_lift(weight, t)
    u, w, _, _, alpha = _symmetric_lift(op.domain_basis.a, op.values.a, lift, t)
    return LiftedSymmetric(lift=lift, domain=ComplexMatrix._adopt(u), values=ComplexMatrix._adopt(w), alpha=alpha)


def a_bound(op: SymmetricPartialOperator, weight, tol: Tolerances | None = None) -> float:
    """Smallest weighted bound of the partial operator (see module docs)."""
    return lift_symmetric(op, weight, tol).alpha


def extend_symmetric(
    op: SymmetricPartialOperator, weight, tol: Tolerances | None = None
) -> ExtensionInterval:
    """Extremal bound-preserving self-adjoint extensions of S_0.

    Lifts to range coordinates, forms the positive partial operators
    alpha +/- S0_hat, takes their minimal positive extensions, and shifts
    back.  Both endpoints are Hermitian extensions of S_0 with weighted
    bound exactly alpha, and they bracket every other bound-preserving
    self-adjoint extension.
    """
    t = _tol(tol)
    return _extend_on_lift(op, hilbert_lift(weight, t), t)


def _extend_on_lift(op: SymmetricPartialOperator, lift: HilbertLift, tol: Tolerances) -> ExtensionInterval:
    """:func:`extend_symmetric` on an already computed lift of the weight."""
    _, _, p, y, alpha = _symmetric_lift(op.domain_basis.a, op.values.a, lift, tol)
    return ExtensionInterval(alpha, *(HermitianMatrix._adopt(s) for s in _extend_lifted(p, y, alpha, lift, tol)))


def _extend_lifted(p: np.ndarray, y: np.ndarray, alpha: float, lift: HilbertLift, tol: Tolerances):
    """Extremal extensions (s_min, s_max) from the orthonormal pair (P, Y) and bound of :func:`_symmetric_lift`.

    One eigh P* Y = V diag(lambda) V* serves both: the Gram form P* G of G = alpha P +/- Y has the eigenvectors V
    and its own values w = Re colsum(conj(P V) o G V) (alpha +/- lambda, kept consistent with G under rounding).
    :func:`~opext.numkit._lifted_keep` decides w, with ||G V|| on the dropped columns as G's existence residual,
    and C is G V on the kept ones over sqrt w.  Returned as ``_hermitian_part``, not checked again.
    """
    _, v = eigh_desc(p.conj().T @ y)
    pv, j = p @ v, lift.embedding()
    ends = []
    for sign in (1.0, -1.0):
        g = alpha * p + sign * y
        gv = g @ v
        w = np.einsum("ij,ij->j", pv.conj(), gv).real
        keep = _lifted_keep(w, lambda drop: _fro(np.compress(drop, gv, axis=1)), _fro(g), tol)
        c = np.compress(keep, gv, axis=1) / np.sqrt(w[keep])
        ends.append(_hermitian_part(j @ (sign * (c @ c.conj().T - alpha * np.eye(lift.rank))) @ j.conj().T))
    return tuple(ends)


def alpha_of_total(total, weight, tol: Tolerances | None = None) -> float:
    """Weighted bound of an everywhere-defined Hermitian matrix.

    Requires ran S inside ran A (equivalently ker A inside ker S); then
    the bound is ||diag(1/rho) Q* S Q diag(1/rho)|| for A = Q diag(rho)^2 Q*.

    Raises :class:`NotABounded` when the range condition fails.
    """
    t = _tol(tol)
    s = HermitianMatrix.coerce(total, t)
    lift = hilbert_lift(weight, t)
    return _alpha_on_lift(s.a, lift, lift, t)


def _alpha_on_lift(s: np.ndarray, ran: HilbertLift, dom: HilbertLift, tol: Tolerances) -> float:
    """||J_ran^+ S (J_dom^+)*||, the bound of S on two weights' lifts; NotABounded unless ran S lies in ran A_ran
    and ker A_dom in ker S (:meth:`~opext.kvn.HilbertLift.pullback`)."""
    if s.shape != (ran.weight.rows, dom.weight.rows):
        raise DimensionMismatch(f"operator shape {s.shape} does not match the weights ({ran.weight.rows}, {dom.weight.rows})")
    return _smax(ran.pullback(s, tol, dom))


def in_interval(candidate, interval: ExtensionInterval, tol: Tolerances | None = None) -> bool:
    """Whether a Hermitian matrix lies between the interval endpoints."""
    t = _tol(tol)
    s = HermitianMatrix.coerce(candidate, t)
    if s.rows != interval.s_min.rows:
        raise DimensionMismatch(f"candidate is {s.rows}x{s.rows}, interval lives on {interval.s_min.rows}")
    return loewner_leq(interval.s_min, s, t) and loewner_leq(s, interval.s_max, t)


def check_commutation(
    b, op: SymmetricPartialOperator, weight, tol: Tolerances | None = None
) -> bool:
    """Extremal extensions inherit commutation in the unweighted case.

    For weight = identity: if a Hermitian B maps the domain into itself
    and intertwines with the prescribed values (S_0 B x = B S_0 x on the
    domain), then both extremal extensions commute with B.  Returns True
    when that conclusion holds numerically.

    Raises
    ------
    HypothesisViolated
        If the weight is not the identity, if B does not leave the domain
        invariant, or if B fails to intertwine with the data.
    """
    t = _tol(tol)
    bm = HermitianMatrix.coerce(b, t)
    lift = hilbert_lift(weight, t)
    n = bm.rows
    if lift.weight.rows != n or op.ambient_dim != n:
        raise DimensionMismatch("operator, weight, and commutant candidate must share a dimension")
    if _fro(lift.weight.a - np.eye(n)) > _limit(t.eq, _fro(lift.weight.a)):
        raise HypothesisViolated("commutation transport requires the identity weight")
    d = op.domain_basis.a
    v = op.values.a
    # invariance: B maps the domain into itself
    coeff = pinv(d, t).a @ (bm.a @ d)
    inv_resid = _fro(bm.a @ d - d @ coeff)
    if inv_resid > _limit(t.eq, _fro(bm.a @ d)):
        raise HypothesisViolated(
            f"candidate does not leave the domain invariant (residual {inv_resid:.3e})"
        )
    # intertwining on the domain: S_0 (B d_j) = B (S_0 d_j)
    twist_resid = _fro(v @ coeff - bm.a @ v)
    if twist_resid > _limit(t.eq, _fro(bm.a @ v)):
        raise HypothesisViolated(
            f"candidate does not intertwine with the prescribed values (residual {twist_resid:.3e})"
        )
    interval = _extend_on_lift(op, lift, t)
    ok = True
    for s in (interval.s_min.a, interval.s_max.a):
        resid = _fro(s @ bm.a - bm.a @ s)
        ok = ok and resid <= _limit(t.eq, _smax(bm.a) * _smax(s))
    return bool(ok)
