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
operator-interval machinery.  The GNS inner product f(y* x) pairs x and y
row by row, <x_c, y_c>_F = x_c F y_c*, so the class of x is x J for the
lift J of F, the GNS space is I_m (x) (the lift of F), with
rep(x) = x (x) I_r, and g_0 is realized there by I_m (x) conj(s_0) for the
symmetric partial operator s_0 : B -> Gamma* B on (C^m, F), B the ideal's
range basis decided by the rule that validated P.  A Hermitian density Phi
with P Phi = Gamma satisfies Phi B = Gamma* B, and the f-bound of
g(x) = trace(Phi x) is the F-weighted bound of Phi, so the hermitian
extensions of g_0 with its f-bound are the bound-preserving self-adjoint
extensions of s_0: the extremal densities are s_0's interval endpoints,
and every computation is on m-by-m matrices.  In finite dimensions a
symmetric partial functional is always trace-bounded, so symmetry alone
already guarantees a hermitian extension; :func:`cstar_extendibility`
packages that decision together with the quantitative converse (any
hermitian extension g makes g_0 bounded relative to f = g_+ + g_- with a
universal constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    NotABounded,
    NotFBounded,
    NotSymmetric,
)
from .kvn import HilbertLift, hilbert_lift
from .numkit import (
    DEFAULT_TOLERANCES,
    ComplexMatrix,
    HermitianMatrix,
    PsdMatrix,
    Tolerances,
    _as_array,
    _excess,
    _fro,
    _hermitian_part,
    _limit,
    _projector,
    eigh_desc,
    loewner_leq,
)
from .sa_ext import SymmetricPartialOperator, _extend_lifted, _symmetric_lift

__all__ = [
    "FunctionalMatrix",
    "LeftIdeal",
    "PartialFunctional",
    "GnsSpace",
    "ExtendibilityDecision",
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
        if d.a.shape[0] != d.a.shape[1]:
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
    validates P and decides its range on one eigendecomposition
    (:func:`~opext.numkit._projector`): the orthonormal basis B of P's
    eigenvectors above 1/2, so an eigenvalue the idempotency check took for
    zero is not in the ideal's range.  The GNS realization and the
    agreement of an extension with g_0 are measured on B; the symmetry test
    and the stored gamma use P.
    """

    __slots__ = ("projection", "_range")

    def __init__(self, projection, tol: Tolerances = DEFAULT_TOLERANCES):
        self.projection, self._range = _projector(projection, tol, None)

    @property
    def size(self) -> int:
        return self.projection.rows

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
        g = _as_array(gamma)
        if g.shape != ideal.projection.a.shape:
            raise DimensionMismatch(f"gamma must be {ideal.size}x{ideal.size}, got {g.shape[0]}x{g.shape[1]}")
        self.ideal = ideal
        self.gamma = ComplexMatrix._adopt(ideal.projection.a @ g)  # a non-finite entry of g stays one in P g

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


def is_symmetric_on_ideal(pf: PartialFunctional, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Whether g_0(b* a) = conj g_0(a* b) holds across the ideal.

    Equivalent to the matrix identity P Gamma P = P Gamma* P: on the
    spanning family E_ij P, the pair a = E_ij P, b = E_il P gives exactly
    entry (j, l) of P (Gamma - Gamma*) P, and pairs with different row
    indices give 0 = 0.  Tested as
    ``max |P (Gamma - Gamma*) P| <= eq * (1 + ||Gamma||_F)``: compared
    directly while both are finite, and at any finite scale of Gamma by
    :func:`~opext.numkit._excess` when one overflows.
    """
    return _symmetric_scale(pf, tol.eq) is not None


def _symmetric_scale(pf: PartialFunctional, eq: float) -> float | None:
    """The ||Gamma||_F that :func:`is_symmetric_on_ideal` measures when g_0 is symmetric on its ideal, else None."""
    p = pf.ideal.projection.a

    def measure(gamma):
        return float(np.maximum.reduce(np.abs(p @ (gamma - gamma.conj().T) @ p), axis=None, initial=0.0)), _fro(gamma)

    resid, scale = measure(pf.gamma.a)
    if resid < math.inf and scale < math.inf:
        asymmetric = resid > _limit(eq, scale)
    else:  # a norm overflowed: decide on the prescaled Gamma
        asymmetric = _excess(measure, (pf.gamma.a,), eq)
    return None if asymmetric else scale


def _ideal_agreement(pf: PartialFunctional, density: np.ndarray) -> float:
    """Largest disagreement of trace(density x) with g_0 on the ideal.

    ``max_ij |g(E_ij Q) - g_0(E_ij Q)|`` for g(x) = trace(Phi x) and the
    projector Q = B B* onto the ideal's decided range B; since
    g(E_ij Q) = (Q Phi)_ji, it is the largest absolute entry of
    B (B* (Phi - Gamma)).
    """
    b = pf.ideal._range
    return float(np.maximum.reduce(np.abs(b @ (b.conj().T @ (density - pf.gamma.a))), axis=None, initial=0.0))


@dataclass(frozen=True)
class GnsSpace:
    """Concrete GNS data for a positive trace-form functional on M_m(C).

    <x, y>_f = f(y* x) = sum_c x_c F y_c* over the rows x_c of x, so the
    rows carry F's weighted pairing and the GNS space is I_m (x) (the lift
    of F): with the lift's embedding J (J J* = F, rank r), the class of x
    is the row-major vectorization of x J, an m-by-r matrix whose row c is
    the class x_c J of row c, in a space of dimension m r.  Left
    multiplication acts on those rows, so rep(x) = x (x) I_r is exactly a
    *-representation, and the class of the identity is the cyclic vector.
    Only the density (the lift's own weight) and the lift are stored;
    nothing m^2-sized is formed.
    """

    density: PsdMatrix
    row: HilbertLift            # lift of F

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
        """Class of the algebra element x in the GNS space: the rows of x J, row-major."""
        return (self._element(x) @ self.row.embedding()).reshape(-1)

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


def gns(density, tol: Tolerances = DEFAULT_TOLERANCES) -> GnsSpace:
    """Run the GNS construction for f(x) = trace(F x), F positive.

    The rows of x carry F's weighted pairing, so the space is
    I_m (x) lift(F), from F's one m-by-m eigendecomposition.
    """
    lift = hilbert_lift(_density_array(density), tol)
    return GnsSpace(density=lift.weight, row=lift)


def _row_operator(
    pf: PartialFunctional, lift: HilbertLift, tol: Tolerances, symmetric: bool = False
) -> tuple[np.ndarray, np.ndarray, float]:
    """The orthonormal pair (P, Y) of s_0 in the range coordinates of ``lift``, the lift of F, and its bound alpha.

    s_0 is the symmetric partial operator on (C^m, F) with domain basis
    the range basis B of the ideal and values Gamma* B: g_0(x* a) =
    sum_c a_c Gamma x_c* over the rows, and the conjugate rows a_c* of
    a = a P lie in ran P = span B.  B was decided at the ideal's
    construction, so an eigenvalue its idempotency check took for zero
    never enters the domain and no call decomposes P again.  Raises
    :class:`NotSymmetric` unless the caller decided ``symmetric``,
    :class:`NotFBounded`, and NotHermitian when U* W is not Hermitian (a
    leak out of ran F within tolerance can do that to symmetric data).
    """
    if pf.gamma.a.shape != lift.weight.a.shape:
        raise DimensionMismatch("functional and positive functional live on different algebra sizes")
    if not (symmetric or is_symmetric_on_ideal(pf, tol)):
        raise NotSymmetric("functional is not symmetric on its ideal")
    d = pf.ideal._range
    try:
        _, _, p, y, alpha = _symmetric_lift(d, pf.gamma.a.conj().T @ d, lift, tol)
    except NotABounded as exc:
        raise NotFBounded(f"not bounded relative to this positive functional: {exc}") from exc
    return p, y, alpha


def gns_realization(
    pf: PartialFunctional, density, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[GnsSpace, SymmetricPartialOperator]:
    """GNS space of f together with the partial operator realizing g_0.

    The returned operator has domain spanned by the classes of the ideal
    elements and satisfies <S [a], [x]> = g_0(x* a); its self-adjoint
    extensions on the GNS space correspond to the hermitian extensions
    of g_0.  A row's class x_c J is the conjugate of the class J* x_c* of
    its conjugate column, so S is I_m (x) conj(s_0) for the partial
    operator s_0 on (C^m, F): its domain basis is I_m (x) conj(P), an
    orthonormal basis of the span of the lifted ideal, and its values
    I_m (x) conj(Y), from the thin SVD of s_0's lifted domain; the pair is
    adopted, as its m-by-m factors were already decided.  Raises
    :class:`NotSymmetric` / :class:`NotFBounded` when the realization does
    not exist.
    """
    space = gns(density, tol)
    p, y, _ = _row_operator(pf, space.row, tol)
    eye = np.eye(pf.size, dtype=np.complex128)
    return space, SymmetricPartialOperator._adopt(np.kron(eye, p.conj()), np.kron(eye, y.conj()))


def f_bound(pf: PartialFunctional, density, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Smallest alpha with |g_0(x* a)|^2 <= alpha^2 f(x* x) f(a* a).

    Computed as the F-weighted bound of the partial operator s_0 on
    (C^m, F), the norm of its GNS realization.  Raises
    :class:`NotFBounded` when no finite alpha exists and
    :class:`NotSymmetric` when g_0 is not symmetric.
    """
    return _row_operator(pf, hilbert_lift(_density_array(density), tol), tol)[2]


def extend_functional(
    pf: PartialFunctional, density, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[FunctionalMatrix, FunctionalMatrix, float]:
    """Extremal hermitian extensions of g_0 with the same f-bound.

    Returns ``(g_min, g_max, alpha)``: two hermitian functionals on the
    whole algebra agreeing with g_0 on the ideal, each with f-bound equal
    to alpha (the bound of g_0 itself), and extremal in the sense that
    any hermitian extension with that bound has density between theirs.
    A Hermitian density Phi extends g_0 iff Phi B = Gamma* B, and its
    f-bound is its F-weighted bound, so the extensions are the
    bound-preserving self-adjoint extensions of s_0 : B -> Gamma* B on
    (C^m, F), and the densities are s_0's interval endpoints s_min, s_max.
    """
    return _extend_functional(pf, hilbert_lift(_density_array(density), tol), tol)


def _extend_functional(pf: PartialFunctional, lift: HilbertLift, tol: Tolerances, symmetric: bool = False):
    """:func:`extend_functional` on the lift of F; the symmetry test is skipped when the caller decided ``symmetric``."""
    p, y, alpha = _row_operator(pf, lift, tol, symmetric)
    s_min, s_max = _extend_lifted(p, y, alpha, lift, tol)
    return FunctionalMatrix(HermitianMatrix._adopt(s_min)), FunctionalMatrix(HermitianMatrix._adopt(s_max)), alpha


def functional_interval_member(
    candidate: FunctionalMatrix,
    lower: FunctionalMatrix,
    upper: FunctionalMatrix,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> bool:
    """Whether a hermitian functional sits between two others.

    Order of functionals is the Loewner order of their densities
    (difference positive semidefinite iff the difference functional is
    positive).
    """
    c = HermitianMatrix(_as_functional(candidate).density, tol).a
    lo = HermitianMatrix(_as_functional(lower).density, tol).a
    hi = HermitianMatrix(_as_functional(upper).density, tol).a
    if c.shape != lo.shape or c.shape != hi.shape:
        raise DimensionMismatch("functionals must share the algebra size")
    return loewner_leq(lo, c, tol) and loewner_leq(c, hi, tol)


def hahn_jordan(g: FunctionalMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[FunctionalMatrix, FunctionalMatrix]:
    """Decompose a hermitian functional as a difference of positive ones.

    Returns (g_plus, g_minus) with g = g_plus - g_minus and mutually
    singular densities (their product vanishes): the spectral split of
    the density into its positive and negative parts.
    """
    w, v = eigh_desc(HermitianMatrix(_as_functional(g).density, tol))
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
    tol: Tolerances = DEFAULT_TOLERANCES,
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
    if it is above 4, else 0.  f = V |w| V*, its factor V |w|^(1/2) and
    U = V sign(w) V* all come from one eigendecomposition of Phi = V w V*:
    f is adopted with the eigenpairs (|w|, V), and the trace with (ones, I),
    so :func:`~opext.kvn.hilbert_lift` lifts either density without decomposing it.
    ``rng`` is accepted and ignored; nothing is drawn.

    The supplied functional must agree with g_0 on the ideal:
    ``max |P (Phi - Gamma)| <= eq ||Gamma||_F``, relative to the
    prescribed values, else :class:`HypothesisViolated`.

    Raises :class:`NotSymmetric` when g_0 is not symmetric on its ideal
    (then no hermitian extension exists, since restrictions of hermitian
    functionals are symmetric).
    """
    gamma_norm = _symmetric_scale(pf, tol.eq)
    if gamma_norm is None:
        raise NotSymmetric(
            "functional is not symmetric on its ideal; hermitian extensions cannot exist"
        )
    abs_lift = root = None
    if extension is not None:
        phi = HermitianMatrix(_as_functional(extension).density, tol)
        # the supplied functional must actually extend g_0
        worst = _ideal_agreement(pf, phi.a)
        if worst > tol.eq * gamma_norm:
            raise HypothesisViolated(
                f"supplied functional does not extend the partial data (residual {worst:.3e})"
            )
        w, v = eigh_desc(phi)
        mag = np.abs(w)
        order = np.argsort(-mag, kind="stable")  # |Phi| = V |w| V*, adopted with these eigenpairs
        abs_density = PsdMatrix._adopt(_hermitian_part((v * mag) @ v.conj().T), (mag[order], v.take(order, axis=1)))
        abs_lift = hilbert_lift(abs_density, tol)
        root = v * np.sqrt(mag)
    if density is not None:
        lift = hilbert_lift(_density_array(density), tol)
    elif abs_lift is not None:
        lift = abs_lift
    else:  # the trace: f = I, with eigenpairs (ones, I)
        eye = np.eye(pf.size, dtype=np.complex128)
        lift = hilbert_lift(PsdMatrix._adopt(eye, (np.ones(pf.size), eye)), tol)
    g_min, g_max, alpha = _extend_functional(pf, lift, tol, symmetric=True)
    exact = measured = violations = None
    if root is not None:
        exact = alpha if density is None else _row_operator(pf, abs_lift, tol, symmetric=True)[2]
        measured, violations = _witness_constant(pf, w, v, root, tol)
    return ExtendibilityDecision(
        extendible=True,
        density=FunctionalMatrix(lift.weight),
        alpha=alpha,
        g_min=g_min,
        g_max=g_max,
        constant4_ok=None if exact is None else bool(exact <= 4.0 * (1.0 + tol.eq)),
        measured_bound=measured,
        violations=violations,
        exact_bound=exact,
    )
