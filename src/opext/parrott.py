"""Two-corner operator completions in weighted and unweighted settings.

The generic problem: two partially defined operators point at each other,

    T1 defined on a subspace of C^{n1}, taking values in C^{n2},
    T2 defined on a subspace of C^{n2}, taking values in C^{n1},

subject to the compatibility identity <T1 x1, x2> = conj(<T2 x2, x1>) and
to cross-weighted bounds

    |<T1 x1, y2>|^2 <= alpha1 <A1 x1, x1> <A2 y2, y2>,
    |<T2 x2, y1>|^2 <= alpha2 <A2 x2, x2> <A1 y1, y1>.

Then a single matrix T exists extending T1, with adjoint extending T2,
and with cross-weighted bound at most max(alpha1, alpha2).  The
construction stacks the two partial operators into one symmetric partial
operator S_0 (x1, x2) = (T2 x2, T1 x1) on C^{n1+n2} with block-diagonal
weight and reads the completion off the off-diagonal corner of a
bound-preserving self-adjoint extension (the corner form of Davis, Kahan
and Weinberger).  In range coordinates the stacked operator is assembled
from the two corners' cross lifts, and with J_i the weights' embeddings,
r1 = rank A1 and L, H the minimal positive extensions of the shifted
operators alpha +/- S0_hat, the completions are

    X_min = J2 L[r1:, :r1] J1*,    X_max = -J2 H[r1:, :r1] J1*.

The shift -alpha I has no off-diagonal block, so neither the stacked weight
nor an (n1+n2)-square endpoint is formed, and each endpoint needs only its
own side: L for X_min, H for X_max.  One private core, :func:`_corner`,
computes that corner from the corners' orthonormal pairs.

Specializations: :func:`strong_parrott` completes an intertwining pair of
factorizations (X S1 = S2, T2 X = T1, ||X|| <= 1), and
:func:`classical_parrott` extends a contraction prescribed on a subspace
whose compression to another subspace is also prescribed.  Both already
hold orthonormal domains and their values with identity weights and unit
bounds, so they call :func:`_corner` directly: no identity weight is formed
or lifted, and no :class:`ParrottInstance` is built.  They decide
feasibility by their own hypotheses, the reduced bound and their own output
equations, and raise :class:`HypothesisViolated` when any of them fails.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    IncompatibleInstance,
    NotABounded,
    NotHermitian,
)
from .kvn import _antidiag, _block_diag, hilbert_lift
from .numkit import (
    ComplexMatrix,
    PsdMatrix,
    Tolerances,
    _checked_hermitian,
    _fro,
    _limit,
    _projector,
    _range_basis,
    _restrict,
    _smax,
    _tol,
    loewner_leq,
    numerical_rank,
)
from .sa_ext import SymmetricPartialOperator, _shifted_extension, _weighted_lift

__all__ = [
    "ParrottInstance",
    "StrongParrottInstance",
    "check_compatibility",
    "assemble_symmetric",
    "parrott_complete",
    "strong_parrott",
    "classical_parrott",
]


class ParrottInstance:
    """Data of the generic two-corner completion problem.

    domain1 (n1 x k1) and values1 (n2 x k1) prescribe T1; domain2
    (n2 x k2) and values2 (n1 x k2) prescribe T2.  weight1/weight2 are the
    positive weights on the two spaces, alpha1/alpha2 the declared bound
    constants (entering unsquared, as in the displayed inequalities of the
    module docstring).  Each weight is lifted, and so decided positive, once
    at construction under the ``tol`` the instance is built with; a later
    call's ``tol`` supplies only that call's own ``eq`` and ``herm`` checks.
    """

    __slots__ = ("domain1", "values1", "domain2", "values2", "weight1", "weight2", "alpha1", "alpha2", "_lifts")

    def __init__(self, domain1, values1, domain2, values2, weight1, weight2,
                 alpha1: float, alpha2: float, tol: Tolerances | None = None):
        t = _tol(tol)
        d1 = ComplexMatrix.coerce(domain1)
        v1 = ComplexMatrix.coerce(values1)
        d2 = ComplexMatrix.coerce(domain2)
        v2 = ComplexMatrix.coerce(values2)
        lifts = (hilbert_lift(weight1, t), hilbert_lift(weight2, t))
        n1, n2 = (lift.weight.rows for lift in lifts)
        if d1.rows != n1 or v1.rows != n2 or d1.cols != v1.cols:
            raise DimensionMismatch("first partial operator has inconsistent shapes")
        if d2.rows != n2 or v2.rows != n1 or d2.cols != v2.cols:
            raise DimensionMismatch("second partial operator has inconsistent shapes")
        if not (alpha1 >= 0 and alpha2 >= 0 and np.isfinite(alpha1) and np.isfinite(alpha2)):
            raise ValueError("declared bound constants must be finite and nonnegative")
        self.domain1, self.values1 = d1, v1
        self.domain2, self.values2 = d2, v2
        self.alpha1, self.alpha2 = float(alpha1), float(alpha2)
        self.weight1, self.weight2 = (lift.weight for lift in lifts)
        self._lifts = lifts

    @property
    def dim1(self) -> int:
        return self.weight1.rows

    @property
    def dim2(self) -> int:
        return self.weight2.rows

    def __repr__(self):
        return f"ParrottInstance(n1={self.dim1}, n2={self.dim2}, k1={self.domain1.cols}, k2={self.domain2.cols})"


def _corner_lifts(inst: ParrottInstance, tol: Tolerances):
    """Orthonormal pairs and bounds (P_i, Y_i, beta_i) of the two corners, from :func:`_weighted_lift` on the instance's lifts.

    The pairing is decided here, once, on the lifted corners: the stacked
    U* W = [[0, U1* W2], [U2* W1, 0]] must be Hermitian at ``tol.herm``.
    None when it is not, when a corner has no finite bound, or when a bound
    exceeds its declared constant.
    """
    lift1, lift2 = inst._lifts
    try:
        (u1, w1, *corner1), (u2, w2, *corner2) = (
            _weighted_lift(inst.domain1.a, inst.values1.a, lift1, lift2, tol),
            _weighted_lift(inst.domain2.a, inst.values2.a, lift2, lift1, tol),
        )
        _checked_hermitian(_antidiag(u1.conj().T @ w2, u2.conj().T @ w1), tol)
    except (NotABounded, NotHermitian):
        return None
    for (*_, beta), alpha in zip((corner1, corner2), (inst.alpha1, inst.alpha2)):
        if beta * beta > alpha + _limit(tol.eq, alpha):
            return None
    return corner1, corner2


def check_compatibility(inst: ParrottInstance, tol: Tolerances | None = None) -> bool:
    """Whether the instance satisfies compatibility and its declared bounds.

    Checks the pairing <T1 x1, x2> = conj(<T2 x2, x1>) on the lifted
    corners at ``tol.herm`` -- the one decision :func:`parrott_complete`
    also relies on -- and that each partial operator's cross-weighted
    bound (computed spectrally) stays within the declared constant.
    """
    return _corner_lifts(inst, _tol(tol)) is not None


def assemble_symmetric(
    inst: ParrottInstance, tol: Tolerances | None = None
) -> tuple[SymmetricPartialOperator, PsdMatrix]:
    """Stack the two corners into one symmetric partial operator.

    On C^{n1+n2} with block-diagonal weight diag(A1, A2), the operator
    S_0 (x1, x2) = (T2 x2, T1 x1) is symmetric exactly when the instance
    is compatible.  Its bound-preserving self-adjoint extensions carry the
    completions in their off-diagonal corner.

    Raises :class:`IncompatibleInstance` when compatibility fails.
    """
    t = _tol(tol)
    if not check_compatibility(inst, t):
        raise IncompatibleInstance("instance fails compatibility or exceeds its declared bound constants")
    domain = _block_diag(inst.domain1.a, inst.domain2.a)
    op = SymmetricPartialOperator(domain, _antidiag(inst.values2.a, inst.values1.a), t)
    return op, PsdMatrix._adopt(_block_diag(inst.weight1.a, inst.weight2.a))


def parrott_complete(
    inst: ParrottInstance, tol: Tolerances | None = None, endpoint: str = "min"
) -> ComplexMatrix:
    """Complete the two corners to a single bounded operator.

    Returns an n2-by-n1 matrix T with T extending T1, T* extending T2,
    and cross-weighted bound squared at most max(alpha1, alpha2).  The
    ``endpoint`` selects which extension of the stacked operator supplies
    the corner: "min" (default, the canonical choice), "max", or "mid"
    (their average, also a valid completion by convexity).  It runs on
    the lifts the instance took of its weights, where :func:`_corner_lifts`
    decides the pairing.  The stacked operator has P = diag(P1, P2),
    Y = [[0, Y2], [Y1, 0]] and bound max(beta1, beta2); of its shifted
    extensions L, H only the n2-by-n1 corners J2 L[r1:, :r1] J1* and
    -J2 H[r1:, :r1] J1* are mapped back.
    """
    t = _tol(tol)
    if endpoint not in ("min", "max", "mid"):
        raise ValueError(f"endpoint must be 'min', 'max', or 'mid', got {endpoint!r}")
    corners = _corner_lifts(inst, t)
    if corners is None:
        raise IncompatibleInstance("instance fails compatibility or exceeds its declared bound constants")
    (p1, y1, beta1), (p2, y2, beta2) = corners
    domain = _block_diag(inst.domain1.a, inst.domain2.a)
    if numerical_rank(domain, t) != domain.shape[1]:
        raise ValueError("domain basis columns are dependent; supply an independent set")
    corner = _corner(p1, y1, p2, y2, max(beta1, beta2), endpoint, t)
    return ComplexMatrix._adopt(inst._lifts[1].embedding() @ corner @ inst._lifts[0].coembedding())


def _corner(p1, y1, p2, y2, beta: float, endpoint: str, tol: Tolerances) -> np.ndarray:
    """r2-by-r1 corner of the ``endpoint`` extension of the stacked pair.

    The stacked operator has the orthonormal domain P = diag(P1, P2), the
    values Y = [[0, Y2], [Y1, 0]] and the bound beta; with L = C C*, H = K K*
    the minimal positive extensions of beta P + Y and beta P - Y, the corner
    is L[r1:, :r1] = C[r1:] C[:r1]* for "min", -H[r1:, :r1] = -K[r1:] K[:r1]*
    for "max", and their average for "mid".  Only the sides the endpoint
    needs are extended, and only their corner block is multiplied out.
    """
    r1 = p1.shape[0]
    p, y = _block_diag(p1, p2), _antidiag(y2, y1)
    signs = {"min": (1.0,), "max": (-1.0,), "mid": (1.0, -1.0)}[endpoint]
    corners = []
    for sign in signs:
        c = _shifted_extension(p, sign * y, beta, tol)
        corners.append(sign * (c[r1:] @ c[:r1].conj().T))
    return corners[0] if len(corners) == 1 else (corners[0] + corners[1]) / 2.0


def _unit_corner(p1, y1, p2, y2, bounds, equations, tol: Tolerances) -> ComplexMatrix:
    """Minimal corner of unit-bound data on identity weights, checked against the caller's equations.

    ``bounds`` gives, for Y1 and then Y2, the hypothesis its norm decides
    and that norm, as ``(name, ||Y_i||)``.  Raises :class:`HypothesisViolated`
    naming each side whose norm beta has beta^2 above 1 + 2 eq (the bound
    :func:`_corner_lifts` allows at alpha = 1), or when the corner X misses
    one of ``equations``, each ``(name, residual of X, scale)`` and allowed
    eq (1 + scale) in the Frobenius norm.
    """
    excess = [
        f"{name} fails: the reduced data has norm {beta:.6f} > 1; no contraction extends it"
        for name, beta in bounds
        if beta * beta > 1.0 + _limit(tol.eq, 1.0)
    ]
    if excess:
        raise HypothesisViolated("; ".join(excess))
    x = _corner(p1, y1, p2, y2, max(beta for _, beta in bounds), "min", tol)
    failures = []
    for name, residual, scale in equations:
        resid = _fro(residual(x))
        if resid > _limit(tol.eq, scale):
            failures.append(f"{name} fails on the completion (residual {resid:.3e})")
    if failures:
        raise HypothesisViolated("; ".join(failures))
    return ComplexMatrix._adopt(x)


class StrongParrottInstance:
    """Intertwined factorization data: find X with X S1 = S2, T2 X = T1.

    s1 : dimH x p, s2 : dimK x p  (same column space pairing),
    t1 : q x dimH, t2 : q x dimK  (same row space pairing).
    A contractive solution X : C^{dimH} -> C^{dimK} exists when
    T1 S1 = T2 S2, S2* S2 <= S1* S1, and T1 T1* <= T2 T2*.
    """

    __slots__ = ("s1", "s2", "t1", "t2")

    def __init__(self, s1, s2, t1, t2):
        self.s1 = ComplexMatrix.coerce(s1)
        self.s2 = ComplexMatrix.coerce(s2)
        self.t1 = ComplexMatrix.coerce(t1)
        self.t2 = ComplexMatrix.coerce(t2)
        if self.s1.cols != self.s2.cols:
            raise DimensionMismatch("s1 and s2 must share their column count")
        if self.t1.rows != self.t2.rows:
            raise DimensionMismatch("t1 and t2 must share their row count")
        if self.t1.cols != self.s1.rows:
            raise DimensionMismatch("t1 acts on the space s1 maps into")
        if self.t2.cols != self.s2.rows:
            raise DimensionMismatch("t2 acts on the space s2 maps into")

    @property
    def dim_h(self) -> int:
        return self.s1.rows

    @property
    def dim_k(self) -> int:
        return self.s2.rows

    def __repr__(self):
        return f"StrongParrottInstance(dimH={self.dim_h}, dimK={self.dim_k}, p={self.s1.cols}, q={self.t1.rows})"


def strong_parrott(inst: StrongParrottInstance, tol: Tolerances | None = None) -> ComplexMatrix:
    """Contractive solution of X S1 = S2, T2 X = T1.

    Verifies the three hypotheses (intertwining equality and the two
    Loewner comparisons) and reduces to two orthonormal pairs -- one
    prescribes X on ran S1, the other X* on ran T2* -- whose corner is X.

    Raises :class:`HypothesisViolated` naming the failed condition(s):
    a hypothesis, a reduced bound above 1 (named as the Loewner hypothesis
    of its side, which it decides along every singular direction, where
    the Gram comparison's slack hides small ones), or X S1 = S2 or
    T2 X = T1 missed by more than eq (1 + ||S1||) or eq (1 + ||T2||) on
    the completion.
    """
    t = _tol(tol)
    s1, s2 = inst.s1.a, inst.s2.a
    t1, t2 = inst.t1.a, inst.t2.a
    failures = []
    eq_resid = _fro(t1 @ s1 - t2 @ s2)
    if eq_resid > _limit(t.eq, _fro(t1 @ s1)):
        failures.append(f"T1 S1 = T2 S2 fails (residual {eq_resid:.3e})")
    if not loewner_leq(s2.conj().T @ s2, s1.conj().T @ s1, t):
        failures.append("S2* S2 <= S1* S1 fails")
    if not loewner_leq(t1 @ t1.conj().T, t2 @ t2.conj().T, t):
        failures.append("T1 T1* <= T2 T2* fails")
    if failures:
        raise HypothesisViolated("; ".join(failures))
    pairs = []
    for what, domain, values in (("left", s1, s2), ("right", t2.conj().T, t1.conj().T)):
        p, y, resid = _restrict(domain, values, t)  # values vanish where dependent columns do
        if resid > _limit(t.eq, _fro(values)):
            raise HypothesisViolated(
                f"{what} factorization: dependent domain columns carry inconsistent values (residual {resid:.3e})"
            )
        pairs.append((p, y))
    (p1, y1), (p2, y2) = pairs
    equations = (
        ("X S1 = S2", lambda x: x @ s1 - s2, _fro(s1)),
        ("T2 X = T1", lambda x: t2 @ x - t1, _fro(t2)),
    )
    bounds = (("S2* S2 <= S1* S1", _smax(y1)), ("T1 T1* <= T2 T2*", _smax(y2)))
    return _unit_corner(p1, y1, p2, y2, bounds, equations, t)


def classical_parrott(
    p_h1, p_k1, t1_on_h1, t1_prime, tol: Tolerances | None = None
) -> ComplexMatrix:
    """Contraction extending a sub-block and matching a prescribed compression.

    Given orthogonal projectors P_H1 on C^{dimH} and P_K1 on C^{dimK}, a
    contraction T1 defined on ran P_H1 with values in C^{dimK} (matrix
    ``t1_on_h1``, columns indexed by the canonical orthonormal basis of
    ran P_H1), and a contraction T1' from C^{dimH} into ran P_K1 (matrix
    ``t1_prime`` in the canonical basis of ran P_K1), such that the
    compression of T1 to ran P_K1 agrees with T1' on ran P_H1, returns a
    contraction T on all of C^{dimH} with

        T restricted to ran P_H1 = T1   and   P_K1 T = T1'.

    The canonical bases are the phase-fixed eigenvectors of the
    projectors with eigenvalues above 1/2, so the column/row conventions
    are reproducible from the projectors alone.

    Raises :class:`HypothesisViolated` when a prescribed operator is not a
    contraction, when the compressions disagree, or when T misses its
    restriction or its compression by more than eq (1 + the prescribed
    norm).
    """
    t = _tol(tol)
    b_h1 = _range_basis(_projector(p_h1, t, "first projector"))
    b_k1 = _range_basis(_projector(p_k1, t, "second projector"))
    t1m = ComplexMatrix.coerce(t1_on_h1).a
    t1p = ComplexMatrix.coerce(t1_prime).a
    dim_h = b_h1.shape[0]
    dim_k = b_k1.shape[0]
    if t1m.shape != (dim_k, b_h1.shape[1]):
        raise DimensionMismatch(
            f"restricted contraction must be {dim_k}x{b_h1.shape[1]}, got {t1m.shape}"
        )
    if t1p.shape != (b_k1.shape[1], dim_h):
        raise DimensionMismatch(
            f"compressed contraction must be {b_k1.shape[1]}x{dim_h}, got {t1p.shape}"
        )
    failures = []
    norm_m, norm_p = _smax(t1m), _smax(t1p)
    if norm_m > 1.0 + t.eq:
        failures.append(f"restricted operator is not a contraction (norm {norm_m:.6f})")
    if norm_p > 1.0 + t.eq:
        failures.append(f"compressed operator is not a contraction (norm {norm_p:.6f})")
    match = _fro(b_k1.conj().T @ t1m - t1p @ b_h1)
    if match > _limit(t.eq, _fro(t1m)):
        failures.append(f"compression of the restriction disagrees with the prescribed compression (residual {match:.3e})")
    if failures:
        raise HypothesisViolated("; ".join(failures))
    equations = (
        ("the restriction to ran P_H1", lambda x: x @ b_h1 - t1m, _fro(t1m)),
        ("the compression P_K1 T = T1'", lambda x: b_k1.conj().T @ x - t1p, _fro(t1p)),
    )
    bounds = (("||T1|| <= 1", norm_m), ("||T1'|| <= 1", norm_p))
    return _unit_corner(b_h1, t1m, b_k1, t1p.conj().T, bounds, equations, t)
