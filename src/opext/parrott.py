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
and Weinberger).  There is one completion, because the sign similarity
diag(I, -I) maps alpha + S_0 onto alpha - S_0 and so the minimal shifted
extension onto the maximal one, with the same corner.  Neither the stacked
weight nor an (n1+n2)-square extension is formed, and the corner itself is
not read off a stacked problem: one private core, :func:`_corner`,
computes it in closed form from the corners' orthonormal pairs (P1, Y1)
and (P2, Y2).  The stacked Gram form is [[alpha I, B*], [B, alpha I]],
whose eigenvalues are alpha +/- sigma_i for the singular values of the
k2-by-k1 coupling block B = (P2* Y1 + (P1* Y2)*) / 2, so one thin SVD of
B replaces the eigh of the (k1 + k2)-square form, with the same
positivity, rank and existence decision as the interval endpoints'.  Each
domain D_i is decided on its own side: its range coordinates U_i = J_i* D_i,
factored by the lift anyway, prove it independent when they have full rank,
and only a collapsed U_i has D_i's own rank decided.

Specializations: :func:`strong_parrott` completes an intertwining pair of
factorizations (X S1 = S2, T2 X = T1, ||X|| <= 1).  It reduces its data
to orthonormal domains and their values, with identity weights and unit
bounds, so it calls :func:`_corner` directly: no identity weight is formed
or lifted, and no :class:`ParrottInstance` is built.  It decides each norm
hypothesis once, on the reduced pairs the corner is built from, checks the
intertwining equality and its own output equations, and raises
:class:`HypothesisViolated` when any of them fails.  Parrott's classical
problem is that one on basis-free data: :func:`classical_parrott` takes T1
and T1' as dimK x dimH matrices and solves the strong instance
(B_H, T1 B_H, B_K* T1', B_K*) on the projectors' decided range bases B.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    IncompatibleInstance,
    NotABounded,
    NotHermitian,
)
from .kvn import hilbert_lift
from .numkit import (
    DEFAULT_TOLERANCES,
    ComplexMatrix,
    PsdMatrix,
    Tolerances,
    _checked_hermitian,
    _fro,
    _lifted_keep,
    _limit,
    _projector,
    _range_basis,
    _require_independent,
    _restrict,
    _smax,
)
from .sa_ext import SymmetricPartialOperator, _weighted_lift

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
    module docstring).  Each weight is lifted, and so decided positive and
    given its rank, once at construction under the ``tol`` the instance is
    built with; those two lifts are all that tol decides.  A later call's
    ``tol`` decides the rest: its own ``eq`` and ``herm`` checks, each
    domain's rank, and the positivity and rank of the corner's Gram form.
    """

    __slots__ = ("domain1", "values1", "domain2", "values2", "weight1", "weight2", "alpha1", "alpha2", "_lifts")

    def __init__(self, domain1, values1, domain2, values2, weight1, weight2,
                 alpha1: float, alpha2: float, tol: Tolerances = DEFAULT_TOLERANCES):
        d1 = ComplexMatrix.coerce(domain1)
        v1 = ComplexMatrix.coerce(values1)
        d2 = ComplexMatrix.coerce(domain2)
        v2 = ComplexMatrix.coerce(values2)
        lifts = (hilbert_lift(weight1, tol), hilbert_lift(weight2, tol))
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

    The pairing is decided here, once, by the one Hermitian rule on the assembled
    stacked U* W = [[0, U1* W2], [U2* W1, 0]], whose Hermitian part is discarded.
    None when it is not Hermitian at ``tol.herm``, when a corner has no finite
    bound, or when a bound exceeds its declared constant.
    """
    lift1, lift2 = inst._lifts
    try:
        (u1, w1, *corner1), (u2, w2, *corner2) = (
            _weighted_lift(inst.domain1.a, inst.values1.a, lift1, lift2, tol),
            _weighted_lift(inst.domain2.a, inst.values2.a, lift2, lift1, tol),
        )
        k1, k2 = u1.shape[1], u2.shape[1]
        pairing = np.zeros((k1 + k2, k1 + k2), dtype=np.complex128)
        pairing[:k1, k1:] = u1.conj().T @ w2
        pairing[k1:, :k1] = u2.conj().T @ w1
        _checked_hermitian(pairing, tol)
    except (NotABounded, NotHermitian):
        return None
    for (*_, beta), alpha in zip((corner1, corner2), (inst.alpha1, inst.alpha2)):
        if beta * beta > alpha + _limit(tol.eq, alpha):
            return None
    return corner1, corner2


def check_compatibility(inst: ParrottInstance, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Whether the instance satisfies compatibility and its declared bounds.

    Checks the pairing <T1 x1, x2> = conj(<T2 x2, x1>) on the lifted
    corners at ``tol.herm`` -- the one decision :func:`parrott_complete`
    also relies on -- and that each partial operator's cross-weighted
    bound (computed spectrally) stays within the declared constant.
    """
    return _corner_lifts(inst, tol) is not None


def assemble_symmetric(
    inst: ParrottInstance, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[SymmetricPartialOperator, PsdMatrix]:
    """Stack the two corners into one symmetric partial operator.

    On C^{n1+n2} with block-diagonal weight diag(A1, A2), the operator
    S_0 (x1, x2) = (T2 x2, T1 x1) is symmetric exactly when the pairing
    identity holds.  Its bound-preserving self-adjoint extensions carry the
    completions in their off-diagonal corner.

    Raises :class:`IncompatibleInstance` when compatibility fails.
    """
    if not check_compatibility(inst, tol):
        raise IncompatibleInstance("instance fails compatibility or exceeds its declared bound constants")
    n1, n2, k1, k2 = inst.dim1, inst.dim2, inst.domain1.cols, inst.domain2.cols
    domain = np.block([[inst.domain1.a, np.zeros((n1, k2))], [np.zeros((n2, k1)), inst.domain2.a]])
    values = np.block([[np.zeros((n1, k1)), inst.values2.a], [inst.values1.a, np.zeros((n2, k2))]])
    weight = np.block([[inst.weight1.a, np.zeros((n1, n2))], [np.zeros((n2, n1)), inst.weight2.a]])
    return SymmetricPartialOperator(domain, values, tol), PsdMatrix._adopt(weight)


def parrott_complete(inst: ParrottInstance, tol: Tolerances = DEFAULT_TOLERANCES) -> ComplexMatrix:
    """Complete the two corners to a single bounded operator.

    Returns an n2-by-n1 matrix T with T extending T1, T* extending T2,
    and cross-weighted bound squared at most max(alpha1, alpha2).  It runs
    on the lifts the instance took of its weights, where
    :func:`_corner_lifts` decides the pairing; a domain D_i is independent
    when its range coordinates U_i = J_i* D_i are, and only a collapsed U_i
    has D_i's own rank decided.  The corner is mapped back as J2 X J1*.
    """
    corners = _corner_lifts(inst, tol)
    if corners is None:
        raise IncompatibleInstance("instance fails compatibility or exceeds its declared bound constants")
    (p1, y1, beta1), (p2, y2, beta2) = corners
    for d, p in ((inst.domain1.a, p1), (inst.domain2.a, p2)):
        _require_independent(d, tol, p.shape[1])
    corner = _corner(p1, y1, p2, y2, max(beta1, beta2), tol)
    return ComplexMatrix._adopt(inst._lifts[1].embedding() @ corner @ inst._lifts[0].coembedding())


def _corner(p1, y1, p2, y2, beta: float, tol: Tolerances) -> np.ndarray:
    """r2-by-r1 corner X = G2 M^+ G1* of the minimal positive extension of the stacked pair, in closed form.

    The stacked pair has P = diag(P1, P2), Y = [[0, Y2], [Y1, 0]] and the
    bound beta, so G = beta P + Y has the row blocks G1 = [beta P1, Y2] and
    G2 = [Y1, beta P2], and its Gram form M = [[beta I, B*], [B, beta I]]
    has the k2-by-k1 coupling block B = (P2* Y1 + (P1* Y2)*) / 2.  M is beta
    off the pairs e+/- = (v, +/-u) / sqrt 2 of the thin SVD
    B = U diag(sigma) V*, where it has the eigenvalues beta +/- sigma, so
    X = Y1 P1* + P2 Y2* plus, per pair, with
    sqrt 2 G1 e+/- = beta P1 v +/- Y2 u and sqrt 2 G2 e+/- = Y1 v +/- beta P2 u,

        G2 e+ (G1 e+)* (1 / (beta + sigma) - 1 / beta) + G2 e- (G1 e-)* (1 / (beta - sigma) - 1 / beta),

    so a small beta - sigma divides only G e-, which is small where the
    extension exists.  M's whole spectrum, beta +/- sigma and beta on the
    |k1 - k2| directions E outside the pairs, is decided by
    :func:`~opext.numkit._lifted_keep`.  A dropped e loses its term
    -G2 e (G1 e)* / beta, on E -(Y1 - (Y1 V) V*) P1* - P2 (Y2 - (Y2 U) U*)*,
    and G must vanish on all of them to eq (1 + ||G||_F).  P1 and P2 are
    isometries, so ||G||_F^2 on E is beta^2 |k1 - k2| + ||Y1||_F^2 - ||Y1 V||_F^2
    + ||Y2||_F^2 - ||Y2 U||_F^2, with no projector onto E formed.
    beta = 0 gives the zero corner.
    """
    x = y1 @ p1.conj().T + p2 @ y2.conj().T
    if beta == 0.0:
        return np.zeros_like(x)
    b = p2.conj().T @ y1
    b += y2.conj().T @ p1
    b /= 2.0
    u, sigma, vh = np.linalg.svd(b, full_matrices=False) if b.size else (b[:, :0], np.zeros(0), b[:0])
    v, m, unpaired = vh.conj().T, sigma.size, sum(b.shape) - 2 * sigma.size
    bv, yu = beta * (p1 @ v), y2 @ u  # beta P1 v and Y2 u
    yv, bu = y1 @ v, beta * (p2 @ u)  # Y1 v and beta P2 u
    plus1, minus1 = bv + yu, bv - yu
    plus2, minus2 = yv + bu, yv - bu

    def lost(drop):  # ||G||_F on the dropped directions (sqrt 2 G e on the pairs, the isometries on E) and on all
        dp, dm = drop[:m], drop[m:2 * m]
        sq = sum(_fro(ge) ** 2 for ge in (plus1[:, dp], plus2[:, dp], minus1[:, dm], minus2[:, dm])) / 2.0
        y1sq, y2sq = _fro(y1) ** 2, _fro(y2) ** 2
        if np.logical_or.reduce(drop[2 * m:]):
            sq += beta * beta * unpaired + y1sq - _fro(yv) ** 2 + y2sq - _fro(yu) ** 2
        return math.sqrt(sq), math.sqrt(beta * beta * (_fro(p1) ** 2 + _fro(p2) ** 2) + y1sq + y2sq)

    keep = _lifted_keep(np.concatenate([beta + sigma, beta - sigma, np.full(unpaired, beta)]), lost, tol)
    kp, km = keep[:m], keep[m:2 * m]
    if not np.logical_and.reduce(keep[2 * m:]):
        x -= (y1 - yv @ vh) @ p1.conj().T + p2 @ (y2 - yu @ u.conj().T).conj().T
    minus = np.divide(sigma, 2.0 * beta * (beta - sigma), out=np.full_like(sigma, -0.5 / beta), where=km)
    plus = np.where(kp, -sigma / (2.0 * beta * (beta + sigma)), -0.5 / beta)
    x += (plus2 * plus) @ plus1.conj().T
    x += (minus2 * minus) @ minus1.conj().T
    return x


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


def strong_parrott(inst: StrongParrottInstance, tol: Tolerances = DEFAULT_TOLERANCES) -> ComplexMatrix:
    """Contractive solution of X S1 = S2, T2 X = T1.

    Checks the intertwining equality and reduces to two orthonormal pairs
    -- one prescribes X on ran S1, the other X* on ran T2* -- whose corner
    is X.  The two Loewner hypotheses are decided on those reduced pairs
    only: S2* S2 <= S1* S1 holds exactly when S2 vanishes on ker S1 and
    the reduced values Y1 = S2 S1^+ on ran S1 have norm at most 1, and
    likewise T1 T1* <= T2 T2* for the adjoint pair.  Both tests are
    relative to the data, so the decision does not change with its scale.

    Raises :class:`HypothesisViolated` naming the failed condition(s):
    the intertwining equality, a Loewner hypothesis (with its reason: S2
    not vanishing on ker S1, or T1* on ker T2*, or a reduced bound above 1),
    or X S1 = S2 or T2 X = T1 missed by more than eq (1 + ||S1||) or
    eq (1 + ||T2||) on the completion.
    """
    s1, s2 = inst.s1.a, inst.s2.a
    t1, t2 = inst.t1.a, inst.t2.a
    ts = t1 @ s1
    eq_resid = _fro(ts - t2 @ s2)
    if eq_resid > _limit(tol.eq, _fro(ts)):
        raise HypothesisViolated(f"T1 S1 = T2 S2 fails (residual {eq_resid:.3e})")
    pairs, excess = [], []
    for name, kernel, domain, values in (
        ("S2* S2 <= S1* S1", "S2 does not vanish on ker S1", s1, s2),
        ("T1 T1* <= T2 T2*", "T1* does not vanish on ker T2*", t2.conj().T, t1.conj().T),
    ):
        p, y, resid = _restrict(domain, values, tol)
        if resid > _limit(tol.eq, _fro(values)):
            raise HypothesisViolated(f"{name} fails: {kernel} (residual {resid:.3e})")
        beta = _smax(y)
        if beta * beta > 1.0 + _limit(tol.eq, 1.0):
            excess.append(f"{name} fails: the reduced data has norm {beta:.6f} > 1; no contraction extends it")
        pairs.append((p, y, beta))
    if excess:
        raise HypothesisViolated("; ".join(excess))
    (p1, y1, beta1), (p2, y2, beta2) = pairs
    x = _corner(p1, y1, p2, y2, max(beta1, beta2), tol)
    failures = [
        f"{name} fails on the completion (residual {resid:.3e})"
        for name, resid, scale in (
            ("X S1 = S2", _fro(x @ s1 - s2), _fro(s1)),
            ("T2 X = T1", _fro(t2 @ x - t1), _fro(t2)),
        )
        if resid > _limit(tol.eq, scale)
    ]
    if failures:
        raise HypothesisViolated("; ".join(failures))
    return ComplexMatrix._adopt(x)


# strong_parrott's names for the classical hypotheses, as classical_parrott reports them
_CLASSICAL_NAMES = {
    "T1 S1 = T2 S2 fails": "compression of the restriction disagrees with the prescribed compression",
    "S2* S2 <= S1* S1": "||T1|| <= 1",
    "T1 T1* <= T2 T2*": "||T1'|| <= 1",
    "X S1 = S2": "the restriction to ran P_H1",
    "T2 X = T1": "the compression P_K1 T = T1'",
}


def classical_parrott(p_h1, p_k1, t1, t1_prime, tol: Tolerances = DEFAULT_TOLERANCES) -> ComplexMatrix:
    """Contraction extending a sub-block and matching a prescribed compression.

    Given orthogonal projectors P_H1 on C^{dimH} and P_K1 on C^{dimK}, a
    contraction T1 on ran P_H1 and a contraction T1' into ran P_K1, both
    dimK x dimH matrices (T1 = T1 P_H1 and P_K1 T1' = T1'), whose
    compressions agree, P_K1 T1 = T1' P_H1, returns a contraction T on all
    of C^{dimH} with

        T P_H1 = T1   and   P_K1 T = T1'.

    The result does not depend on which range bases are used: it is the
    strong Parrott instance (s1, s2, t1, t2) = (B_H, T1 B_H, B_K* T1', B_K*)
    on the orthonormal bases B of the projectors' eigenvectors above 1/2
    (:func:`~opext.numkit._range_basis`), so an eigenvalue the idempotency
    check took for zero stays out of the range.  t1 s1 = t2 s2 is the
    compressions' agreement, s2* s2 <= s1* s1 says ||T1|| <= 1 and
    t1 t1* <= t2 t2* says ||T1'|| <= 1; B has no kernel, so T1 = T1 Q_H and
    Q_K T1' = T1' (Q = B B*) are tested here, to eq (1 + ||T1||_F) and eq (1 + ||T1'||_F).

    Raises :class:`HypothesisViolated` with the message of
    :func:`strong_parrott` in these classical names: the compressions
    disagree, T1 or T1' is not a contraction on its subspace, or T misses
    its restriction or its compression by more than eq (1 + ||B||_F).
    """
    b_h = _range_basis(_projector(p_h1, tol, "first projector"))
    b_k = _range_basis(_projector(p_k1, tol, "second projector"))
    t1m, t1p = ComplexMatrix.coerce(t1), ComplexMatrix.coerce(t1_prime)
    shape = (len(b_k), len(b_h))
    if t1m.a.shape != shape or t1p.a.shape != shape:
        raise DimensionMismatch(f"T1 and T1' must be {shape[0]}x{shape[1]}, got {t1m.a.shape} and {t1p.a.shape}")
    for name, kernel, x, resid in (
        ("||T1|| <= 1", "T1 does not vanish off ran P_H1", t1m.a, _fro(t1m.a - (t1m.a @ b_h) @ b_h.conj().T)),
        ("||T1'|| <= 1", "T1' does not map into ran P_K1", t1p.a, _fro(t1p.a - b_k @ (b_k.conj().T @ t1p.a))),
    ):
        if resid > _limit(tol.eq, _fro(x)):
            raise HypothesisViolated(f"{name} fails: {kernel} (residual {resid:.3e})")
    try:
        return strong_parrott(StrongParrottInstance(b_h, t1m.a @ b_h, b_k.conj().T @ t1p.a, b_k.conj().T), tol)
    except HypothesisViolated as exc:
        message = str(exc)
        for strong, classical in _CLASSICAL_NAMES.items():
            message = message.replace(strong, classical)
        raise HypothesisViolated(message) from exc
