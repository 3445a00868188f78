"""Hermitian extensions of symmetric functionals on left ideals of M_m(C).

Linear functionals on the full matrix algebra are represented as trace
forms g(x) = trace(Phi x); g is hermitian (g(x*) = conj g(x)) iff Phi is
Hermitian and positive (g(x*x) >= 0) iff Phi is positive semidefinite.
Left ideals are the column-kernel ideals I = { a : a = a P } of an
orthogonal projection P, and a partial functional is a functional given
only on such an ideal.

A partial functional g_0 is symmetric when g_0(b* a) = conj g_0(a* b) on
the ideal, and f-bounded relative to a positive functional f when

    |g_0(x* a)|^2 <= alpha^2 f(x* x) f(a* a)    for all x, a (a in I).

Such a g_0 extends to hermitian functionals on the whole algebra with the
same bound, and the extensions with extremal densities come from the
operator-interval machinery: run the GNS construction for f, realize g_0
as a symmetric partial operator on the GNS space, take its extremal
norm-preserving self-adjoint extensions, and read the extended
functionals off the cyclic vector.  The GNS inner product f(y* x) pairs
x and y row by row, so the rows of x live in (C^m, F^T) and the induced
operator is I_m (x) s_0 for an m-by-m partial operator s_0 there.  The
GNS space itself is I_m (x) (the lift of F^T), with rep(x) = x (x) I_r, and
the ideal's basis is the range of P by the rule that validated P, so every
computation is on m-by-m matrices.  In finite dimensions a symmetric
partial functional is always trace-bounded, so symmetry alone already
guarantees a hermitian extension; :func:`cstar_extendibility` packages
that decision together with the quantitative converse (any hermitian
extension g makes g_0 bounded relative to f = g_+ + g_- with a universal
constant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    NotABounded,
    NotFBounded,
    NotSymmetric,
)
from .kvn import HilbertLift, _lift, hilbert_lift
from .numkit import (
    ComplexMatrix,
    HermitianMatrix,
    PsdMatrix,
    Tolerances,
    _fro,
    _hermitian_part,
    _limit,
    _projector,
    _range_basis,
    _tol,
    eigh_desc,
    hermitize,
    loewner_leq,
)
from .sa_ext import SymmetricPartialOperator, _extend_lifted, _symmetric_lift

__all__ = [
    "FunctionalMatrix",
    "LeftIdeal",
    "PartialFunctional",
    "GnsSpace",
    "ExtendibilityDecision",
    "FunctionalInstance",
    "is_symmetric_on_ideal",
    "gns",
    "gns_realization",
    "f_bound",
    "extend_functional",
    "functional_interval_member",
    "hahn_jordan",
    "cstar_extendibility",
]


class FunctionalMatrix:
    """Linear functional on M_m(C) in trace form: g(x) = trace(density @ x)."""

    __slots__ = ("density",)

    def __init__(self, density):
        d = ComplexMatrix.coerce(density)
        if d.rows != d.cols:
            raise DimensionMismatch(f"density must be square, got {d.rows}x{d.cols}")
        self.density = d

    @property
    def size(self) -> int:
        return self.density.rows

    def __call__(self, x) -> complex:
        xa = ComplexMatrix.coerce(x).a
        if xa.shape != self.density.a.shape:
            raise DimensionMismatch(f"argument must be {self.size}x{self.size}, got {xa.shape}")
        return complex(np.trace(self.density.a @ xa))

    def is_hermitian(self, tol: Tolerances | None = None) -> bool:
        t = _tol(tol)
        d = self.density.a
        return bool(_fro(d - d.conj().T) <= _limit(t.herm, _fro(d)))

    def is_positive(self, tol: Tolerances | None = None) -> bool:
        t = _tol(tol)
        if not self.is_hermitian(t):
            return False
        return loewner_leq(np.zeros_like(self.density.a), self.density.a, t)

    def __repr__(self):
        return f"FunctionalMatrix(m={self.size})"


def _as_functional(g) -> FunctionalMatrix:
    return g if isinstance(g, FunctionalMatrix) else FunctionalMatrix(g)


def _density_array(density):
    return density.density if isinstance(density, FunctionalMatrix) else density


class LeftIdeal:
    """Left ideal of M_m(C) cut out by an orthogonal projection P.

    The ideal is I = { a : a = a P }, the matrices supported on the
    columns that P keeps.  Every left ideal of the matrix algebra has
    this form for exactly one orthogonal projection.  Construction
    validates P and decides its range once: the orthonormal basis B of
    P's eigenvectors above 1/2 (:func:`~opext.numkit._range_basis`), so an
    eigenvalue the idempotency check took for zero is not in the ideal's
    range.  The GNS realization and the agreement of an extension with
    g_0 are measured on B; the symmetry test and the stored gamma use P.
    """

    __slots__ = ("projection", "_range")

    def __init__(self, projection, tol: Tolerances | None = None):
        self.projection = _projector(projection, _tol(tol), None)
        self._range = _range_basis(self.projection)

    @property
    def size(self) -> int:
        return self.projection.rows

    def contains(self, a, tol: Tolerances | None = None) -> bool:
        t = _tol(tol)
        am = ComplexMatrix.coerce(a).a
        if am.shape != self.projection.a.shape:
            raise DimensionMismatch(f"argument must be {self.size}x{self.size}")
        return bool(_fro(am @ self.projection.a - am) <= _limit(t.eq, _fro(am)))

    def basis(self) -> list[np.ndarray]:
        """Spanning family E_ij P, i, j = 0..m-1 (row-major order).

        Spans the ideal; entries with P e_j = 0 are zero matrices, so the
        family is spanning rather than independent.
        """
        m = self.size
        p = self.projection.a
        out = []
        for i in range(m):
            for j in range(m):
                e = np.zeros((m, m), dtype=np.complex128)
                e[i, :] = p[j, :]
                out.append(e)
        return out

    def __repr__(self):
        return f"LeftIdeal(m={self.size})"


class PartialFunctional:
    """Functional prescribed on a left ideal: g_0(a) = trace(gamma @ a).

    Two densities induce the same functional on the ideal iff their
    products with P from the left agree, so the stored gamma is the
    canonical representative satisfying gamma = P gamma.
    """

    __slots__ = ("ideal", "gamma")

    def __init__(self, ideal: LeftIdeal, gamma):
        if not isinstance(ideal, LeftIdeal):
            ideal = LeftIdeal(ideal)
        g = ComplexMatrix.coerce(gamma)
        if g.rows != ideal.size or g.cols != ideal.size:
            raise DimensionMismatch(f"gamma must be {ideal.size}x{ideal.size}, got {g.rows}x{g.cols}")
        self.ideal = ideal
        self.gamma = ComplexMatrix._adopt(ideal.projection.a @ g.a)

    @property
    def size(self) -> int:
        return self.ideal.size

    def __call__(self, a) -> complex:
        am = ComplexMatrix.coerce(a).a
        if am.shape != self.gamma.a.shape:
            raise DimensionMismatch(f"argument must be {self.size}x{self.size}, got {am.shape}")
        return complex(np.trace(self.gamma.a @ am))

    def __repr__(self):
        return f"PartialFunctional(m={self.size})"


def is_symmetric_on_ideal(pf: PartialFunctional, tol: Tolerances | None = None) -> bool:
    """Whether g_0(b* a) = conj g_0(a* b) holds across the ideal.

    Equivalent to the matrix identity P Gamma P = P Gamma* P: on the
    spanning family E_ij P, the pair a = E_ij P, b = E_il P gives exactly
    entry (j, l) of P (Gamma - Gamma*) P, and pairs with different row
    indices give 0 = 0.  Tested as
    ``max |P (Gamma - Gamma*) P| <= eq * (1 + ||Gamma||_F)``.
    """
    t = _tol(tol)
    p = pf.ideal.projection.a
    gamma = pf.gamma.a
    asym = p @ (gamma - gamma.conj().T) @ p
    return bool(np.max(np.abs(asym), initial=0.0) <= _limit(t.eq, _fro(gamma)))


def _ideal_agreement(pf: PartialFunctional, density: np.ndarray) -> float:
    """Largest disagreement of trace(density x) with g_0 on the ideal.

    ``max_ij |g(E_ij Q) - g_0(E_ij Q)|`` for g(x) = trace(Phi x) and the
    projector Q = B B* onto the ideal's decided range B; since
    g(E_ij Q) = (Q Phi)_ji, it is the largest absolute entry of
    B (B* (Phi - Gamma)).
    """
    b = pf.ideal._range
    return float(np.max(np.abs(b @ (b.conj().T @ (density - pf.gamma.a))), initial=0.0))


@dataclass(frozen=True)
class GnsSpace:
    """Concrete GNS data for a positive trace-form functional on M_m(C).

    <x, y>_f = f(y* x) = sum_c y_c* F^T x_c over the rows x_c of x, so the
    rows live in (C^m, F^T) and the GNS space is I_m (x) (the row lift):
    with the row lift's embedding J (J J* = F^T, rank r), the class of x
    is the row-major vectorization of x conj(J), an m-by-r matrix whose
    row c is the class J* x_c of row c, in a space of dimension m r.  Left
    multiplication acts on those rows, so rep(x) = x (x) I_r is exactly a
    *-representation, and the class of the identity is the cyclic vector.
    Only the density (adopted: the lift's exactly Hermitian weight, transposed)
    and the row lift are stored; nothing m^2-sized is formed.
    """

    density: PsdMatrix
    row: HilbertLift            # lift of F^T

    @property
    def algebra_size(self) -> int:
        return self.density.rows

    @property
    def dim(self) -> int:
        return self.algebra_size * self.row.rank

    def _element(self, x) -> np.ndarray:
        xa = ComplexMatrix.coerce(x).a
        m = self.algebra_size
        if xa.shape != (m, m):
            raise DimensionMismatch(f"element must be {m}x{m}, got {xa.shape}")
        return xa

    def vector(self, x) -> np.ndarray:
        """Class of the algebra element x in the GNS space: the rows of x conj(J), row-major."""
        return (self._element(x) @ self.row.embedding().conj()).reshape(-1)

    @property
    def cyclic(self) -> ComplexMatrix:
        """The class of the identity, as a dim-by-1 matrix."""
        return ComplexMatrix._adopt(self.vector(np.eye(self.algebra_size, dtype=np.complex128)).reshape(-1, 1))

    def rep(self, x) -> np.ndarray:
        """Matrix x (x) I_r of the GNS representation of x (left multiplication)."""
        return np.kron(self._element(x), np.eye(self.row.rank, dtype=np.complex128))

    def functional_value(self, x) -> complex:
        """f(x) recovered as <rep(x) cyclic, cyclic>."""
        xi = self.cyclic.a[:, 0]
        return complex(xi.conj() @ (self.rep(x) @ xi))


def _row_lift(density, tol: Tolerances | None) -> HilbertLift:
    """Lift of F^T, the rows' weight in the GNS space; a raw F is checked Hermitian here, positive by the lift."""
    f = HermitianMatrix.coerce(_density_array(density), tol)
    return hilbert_lift(HermitianMatrix._adopt(f.a.T.copy()), tol)


def _gns_space(row: HilbertLift) -> GnsSpace:
    return GnsSpace(density=PsdMatrix._adopt(row.weight.a.T.copy()), row=row)


def gns(density, tol: Tolerances | None = None) -> GnsSpace:
    """Run the GNS construction for f(x) = trace(F x), F positive.

    The rows of x live in (C^m, F^T), so the space is I_m (x) lift(F^T),
    from one m-by-m eigendecomposition.
    """
    return _gns_space(_row_lift(density, tol))


def _row_operator(
    pf: PartialFunctional, row: HilbertLift, tol: Tolerances, symmetric: bool = False
) -> tuple[np.ndarray, np.ndarray, float]:
    """The orthonormal pair (P, Y) of s_0 in the range coordinates of ``row``, the lift of F^T, and its bound alpha.

    g_0(x* a) = sum_c x_c* Gamma^T a_c over the rows, and the rows of
    a = a P span ran P^T, so g_0 is realized on the GNS space by I_m (x) s_0
    for the m-by-m partial operator s_0 on (C^m, F^T) with values Gamma^T D
    on the domain basis D of ran P^T.  D = conj(B) for the range basis B
    the ideal decided at construction, so an eigenvalue its idempotency
    check took for zero never enters the domain and no call decomposes P
    again.  Raises :class:`NotSymmetric` unless the caller decided
    ``symmetric``, :class:`NotFBounded`, and NotHermitian when U* W is not
    Hermitian (a leak out of ran F^T within tolerance can do that to symmetric data).
    """
    if pf.size != row.weight.rows:
        raise DimensionMismatch("functional and positive functional live on different algebra sizes")
    if not (symmetric or is_symmetric_on_ideal(pf, tol)):
        raise NotSymmetric("functional is not symmetric on its ideal")
    d = pf.ideal._range.conj()
    try:
        _, _, p, y, alpha = _symmetric_lift(d, pf.gamma.a.T @ d, row, tol)
    except NotABounded as exc:
        raise NotFBounded(f"not bounded relative to this positive functional: {exc}") from exc
    return p, y, alpha


def gns_realization(
    pf: PartialFunctional, density, tol: Tolerances | None = None
) -> tuple[GnsSpace, SymmetricPartialOperator]:
    """GNS space of f together with the partial operator realizing g_0.

    The returned operator has domain spanned by the classes of the ideal
    elements and satisfies <S [a], [x]> = g_0(x* a); its self-adjoint
    extensions on the GNS space correspond to the hermitian extensions
    of g_0.  It is I_m (x) s_0 for the partial operator s_0 on the rows
    (C^m, F^T): its domain basis is I_m (x) P, an orthonormal basis of the
    span of the lifted ideal, and its values I_m (x) Y, from the thin SVD
    of s_0's lifted domain; the pair is adopted, as its m-by-m factors
    were already decided.  Raises :class:`NotSymmetric` /
    :class:`NotFBounded` when the realization does not exist.
    """
    row = _row_lift(density, tol)
    p, y, _ = _row_operator(pf, row, _tol(tol))
    eye = np.eye(pf.size, dtype=np.complex128)
    return _gns_space(row), SymmetricPartialOperator._adopt(np.kron(eye, p), np.kron(eye, y))


def f_bound(pf: PartialFunctional, density, tol: Tolerances | None = None) -> float:
    """Smallest alpha with |g_0(x* a)|^2 <= alpha^2 f(x* x) f(a* a).

    Computed as the bound of the partial operator s_0 on the rows
    (C^m, F^T), the norm of its GNS realization I_m (x) s_0.  Raises
    :class:`NotFBounded` when no finite alpha exists and
    :class:`NotSymmetric` when g_0 is not symmetric.
    """
    return _row_operator(pf, _row_lift(density, tol), _tol(tol))[2]


def extend_functional(
    pf: PartialFunctional, density, tol: Tolerances | None = None
) -> tuple[FunctionalMatrix, FunctionalMatrix, float]:
    """Extremal hermitian extensions of g_0 with the same f-bound.

    Returns ``(g_min, g_max, alpha)``: two hermitian functionals on the
    whole algebra agreeing with g_0 on the ideal, each with f-bound equal
    to alpha (the bound of g_0 itself), and extremal in the sense that
    any hermitian extension with that bound has density between theirs.
    The rows of x live in (C^m, F^T) and g_0 is realized on the GNS space
    by I_m (x) s_0, so the extremal extensions are I_m (x) s for those s
    of s_0 against the weight F^T; read off the cyclic vector, that is
    g(x) = trace(s^T x): the densities are s_min^T and s_max^T.
    """
    return _extend_functional(pf, _row_lift(density, tol), _tol(tol))


def _extend_functional(pf: PartialFunctional, row: HilbertLift, tol: Tolerances, symmetric: bool = False):
    """:func:`extend_functional` on the lift ``row`` of F^T; the symmetry test is skipped when the caller decided ``symmetric``."""
    p, y, alpha = _row_operator(pf, row, tol, symmetric)
    # s is exactly Hermitian, so s^T is too: a C-ordered copy is wrapped unchecked
    g_min, g_max = (FunctionalMatrix(HermitianMatrix._adopt(s.T.copy())) for s in _extend_lifted(p, y, alpha, row, tol))
    return g_min, g_max, alpha


def functional_interval_member(
    candidate: FunctionalMatrix,
    lower: FunctionalMatrix,
    upper: FunctionalMatrix,
    tol: Tolerances | None = None,
) -> bool:
    """Whether a hermitian functional sits between two others.

    Order of functionals is the Loewner order of their densities
    (difference positive semidefinite iff the difference functional is
    positive).
    """
    t = _tol(tol)
    c = hermitize(_as_functional(candidate).density, t).a
    lo = hermitize(_as_functional(lower).density, t).a
    hi = hermitize(_as_functional(upper).density, t).a
    if c.shape != lo.shape or c.shape != hi.shape:
        raise DimensionMismatch("functionals must share the algebra size")
    return loewner_leq(lo, c, t) and loewner_leq(c, hi, t)


def hahn_jordan(g: FunctionalMatrix, tol: Tolerances | None = None) -> tuple[FunctionalMatrix, FunctionalMatrix]:
    """Decompose a hermitian functional as a difference of positive ones.

    Returns (g_plus, g_minus) with g = g_plus - g_minus and mutually
    singular densities (their product vanishes): the spectral split of
    the density into its positive and negative parts.
    """
    t = _tol(tol)
    w, v = eigh_desc(hermitize(_as_functional(g).density, t))
    pos = (v * np.clip(w, 0.0, None)) @ v.conj().T
    neg = (v * np.clip(-w, 0.0, None)) @ v.conj().T
    return tuple(FunctionalMatrix(HermitianMatrix._adopt(_hermitian_part(x))) for x in (pos, neg))


@dataclass(frozen=True)
class ExtendibilityDecision:
    """Decision record for hermitian extendibility of a partial functional.

    extendible : always True when the symmetry test passes (symmetry is
        also necessary, and the construction then produces witnesses).
    density : the positive functional used for the quantitative bound.
    alpha : f-bound of g_0 relative to that functional.
    g_min / g_max : extremal hermitian extensions witnessing extendibility.
    constant4_ok : for a supplied hermitian extension g, whether the bound
        |g_0(x* a)|^2 <= 16 f(x* x) f(a* a) with f = g_+ + g_- holds,
        decided from ``exact_bound`` (None when no extension was supplied).
    measured_bound : the ratio |g_0(x* a)| / sqrt(f(x* x) f(a* a)) on the
        closed-form pair of the polar decomposition Phi = U |Phi|, which
        attains ``exact_bound``: a lower certificate of ``exact_bound``
        computed without it (0.0 when the pair is degenerate).
    violations : 1 if that pair violates the constant-4 bound, else 0.
    exact_bound : the sharp constant, the f-bound of g_0 relative to
        f = g_+ + g_- (:func:`f_bound`); it equals ``alpha`` when no
        ``density`` overrides f.
    """

    extendible: bool
    density: FunctionalMatrix
    alpha: float
    g_min: FunctionalMatrix
    g_max: FunctionalMatrix
    constant4_ok: bool | None = None
    measured_bound: float | None = None
    violations: int | None = None
    exact_bound: float | None = None


@dataclass(frozen=True)
class FunctionalInstance:
    """A partial functional with a positive weight functional attached.

    ``source`` optionally records a hermitian functional on the whole
    algebra whose restriction produced the partial data; when present it
    doubles as a known-good extension for the quantitative converse.
    """

    ideal: LeftIdeal
    partial: PartialFunctional
    density: PsdMatrix
    source: FunctionalMatrix | None = None


def _witness_constant(
    pf: PartialFunctional, w: np.ndarray, v: np.ndarray, root: np.ndarray, tol: Tolerances
) -> tuple[float, int]:
    """Ratio |g_0(x* a)| / sqrt(f(x* x) f(a* a)) of the pair that attains the sharp constant, and its violation count.

    The pair is a = P, x = a U, with U = V sign(w) V* the phase of the
    extension's density, Phi = U |Phi|, and U |Phi| U* = |Phi|.  Where g
    extends g_0, g_0(x* a) = tr(P Phi U* P) = tr(P |Phi| P), and
    f(x* x) = f(a* a) = tr(P |Phi| P) for f = |Phi|, so the ratio is 1
    whenever P |Phi| P != 0: the supremum, since the sharp constant
    relative to f = g_+ + g_- is at most 1.  For the positive functional
    with density F = L L*, L = ``root``, each quantity is an m-by-m product:

        f(x* x)   = tr(x F x*) = ||x L||_F^2
        f(a* a)   = ||P L||_F^2
        g_0(x* a) = tr(Gamma x* P) = sum conj(x) o (P Gamma)

    The pair is degenerate when its denominator is at most
    eq ||L||_F^2 ||x||_F ||P||_F: that product bounds the denominator from
    above and sets the size of its rounding, so the cutoff scales with F.
    Returns the ratio (0.0 for a degenerate pair) and 1 if it is above 4,
    violating the constant-4 inequality, else 0.  It costs a few m-by-m
    products and no decomposition.
    """
    p = pf.ideal.projection.a
    x = p @ ((v * np.sign(w)) @ v.conj().T)
    denom = _fro(x @ root) * _fro(p @ root)
    if denom <= tol.eq * np.vdot(root, root).real * _fro(x) * _fro(p):
        return 0.0, 0
    ratio = float(abs(np.vdot(x, p @ pf.gamma.a)) / denom)
    return ratio, int(ratio > 4.0 + tol.eq)


def cstar_extendibility(
    pf: PartialFunctional,
    tol: Tolerances | None = None,
    density=None,
    extension: FunctionalMatrix | None = None,
    rng=None,
) -> ExtendibilityDecision:
    """Decide hermitian extendibility of a partial functional, with witnesses.

    Sufficiency: if g_0 is symmetric on its ideal it is bounded relative
    to some positive functional (the plain trace always works on a matrix
    algebra), and the construction yields extremal hermitian extensions.
    ``density`` overrides the positive functional used; by default the
    trace is taken unless an ``extension`` is supplied, in which case
    f = g_+ + g_- from its decomposition is used.

    Necessity (quantitative): when a hermitian extension g of g_0 is
    supplied, the sharp constant of |g_0(x* a)|^2 <= C^2 f(x* x) f(a* a)
    with f = g_+ + g_- (density |Phi|) is computed exactly as
    ``exact_bound`` = f_bound(g_0, f), which is ``alpha`` itself unless
    ``density`` overrides f, and the constant-4 bound is decided from it.
    The same inequality is evaluated, without f_bound, on the pair
    a = P, x = a U of the polar decomposition Phi = U |Phi|, whose ratio
    attains the sharp constant (1 whenever P |Phi| P != 0), so random
    pairs could only match it up to rounding: ``measured_bound`` is that
    ratio, a lower certificate of ``exact_bound``, and ``violations`` is 1
    if it is above 4, else 0.  f = V |w| V*, its factor V |w|^(1/2), the lift
    of f^T (eigenpairs |w| and conj V) and U = V sign(w) V* all come from one
    eigendecomposition of Phi = V w V*.
    ``rng`` is accepted and ignored; nothing is drawn.

    The supplied functional must agree with g_0 on the ideal:
    ``max |P (Phi - Gamma)| <= eq ||Gamma||_F``, relative to the
    prescribed values, else :class:`HypothesisViolated`.

    Raises :class:`NotSymmetric` when g_0 is not symmetric on its ideal
    (then no hermitian extension exists, since restrictions of hermitian
    functionals are symmetric).
    """
    t = _tol(tol)
    if not is_symmetric_on_ideal(pf, t):
        raise NotSymmetric(
            "functional is not symmetric on its ideal; hermitian extensions cannot exist"
        )
    abs_density = abs_row = root = None
    if extension is not None:
        phi = hermitize(_as_functional(extension).density, t)
        # the supplied functional must actually extend g_0
        worst = _ideal_agreement(pf, phi.a)
        if worst > t.eq * _fro(pf.gamma.a):
            raise HypothesisViolated(
                f"supplied functional does not extend the partial data (residual {worst:.3e})"
            )
        w, v = eigh_desc(phi)
        abs_density = PsdMatrix._adopt(_hermitian_part((v * np.abs(w)) @ v.conj().T))
        order = np.argsort(-np.abs(w), kind="stable")  # |Phi|^T = conj(V) |w| V^T, lifted from these eigenpairs
        abs_row = _lift(PsdMatrix._adopt(abs_density.a.T.copy()), np.abs(w)[order], np.take(v.conj(), order, axis=1), t)
        root = v * np.sqrt(np.abs(w))
    if density is not None:
        f_mat = HermitianMatrix.coerce(_density_array(density), t)
        row = _row_lift(f_mat, t)
    elif abs_density is not None:
        f_mat, row = abs_density, abs_row
    else:  # the trace: f = I is its own transpose, with eigenpairs (ones, I)
        f_mat = PsdMatrix._adopt(np.eye(pf.size, dtype=np.complex128))
        row = _lift(f_mat, np.ones(pf.size), f_mat.a, t)
    g_min, g_max, alpha = _extend_functional(pf, row, t, symmetric=True)
    exact = measured = violations = None
    if root is not None:
        exact = alpha if density is None else _row_operator(pf, abs_row, t, symmetric=True)[2]
        measured, violations = _witness_constant(pf, w, v, root, t)
    return ExtendibilityDecision(
        extendible=True,
        density=FunctionalMatrix(f_mat),
        alpha=alpha,
        g_min=g_min,
        g_max=g_max,
        constant4_ok=None if exact is None else bool(exact <= 4.0 * (1.0 + t.eq)),
        measured_bound=measured,
        violations=violations,
        exact_bound=exact,
    )
