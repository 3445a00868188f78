"""Dense complex matrix primitives with explicit tolerance handling.

Everything downstream (minimal positive extensions, completion problems,
functional extensions) is built on the handful of operations here:
pseudoinverse with a relative rank cutoff, positive-semidefinite
eigenpairs, Loewner-order comparison, numerical rank, and hermitization.  All
tolerances travel in a single :class:`Tolerances` value passed explicitly;
there is no mutable global configuration.

Eigendecompositions and singular value decompositions are made
reproducible: eigenvalues are returned in descending order (stable sort)
and each eigenvector's first sizable component is rotated to be real and
positive.  For a fixed input the results are bit-identical across runs.
:func:`eigh_desc` is the one Hermitian eigendecomposition; every other
spectrum (:func:`psd_eig`, a projector's range basis, the Gram factors) is
a mask on its output.

Cost rule: a primitive is its LAPACK call plus the fewest numpy passes.  The
wrapper classes validate caller data, once, at the public boundary; an array
the library just built is adopted (``_adopt``, after ``_hermitian_part`` if it
is Hermitian only up to rounding): never copied, and checked only finite; a
HermitianMatrix is not symmetrized again; :func:`_fro` is the one Frobenius norm.
:func:`_lifted_keep` decides every Gram form built positive, and alone raises NumericalFailure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotPsd, NumericalFailure, RestrictionConditionFailed

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "ComplexMatrix",
    "HermitianMatrix",
    "PsdMatrix",
    "pinv",
    "psd_eig",
    "loewner_leq",
    "numerical_rank",
    "hermitize",
    "independent_columns",
    "eigh_desc",
]

# Relative factor applied per matrix dimension when no explicit rank
# cutoff is supplied: sigma <= 1e-10 * max(rows, cols) * sigma_max is noise.
_RANK_FACTOR = 1e-10

# Magnitude below which an eigenvector component is never used as the
# phase anchor.  Eigenvectors are unit vectors, so the anchor exists.
_PHASE_FLOOR = 1e-8

# Smallest size at which a Cholesky certificate costs less than eigvalsh
# (measured crossover: 11 against 16 microseconds at n = 8, 16 against 11
# at n = 4); smaller matrices always take the exact spectrum.
_CERTIFY_MIN = 8


@dataclass(frozen=True)
class Tolerances:
    """Bundle of the four tolerances used throughout the package.

    rank : float or None
        Relative singular-value cutoff.  ``None`` selects the default
        ``1e-10 * max(rows, cols)``, which scales with the dimension.
    psd : float
        Positivity slack: an eigenvalue above ``-_limit(psd, lambda_max)``
        counts as nonnegative (PsdMatrix, psd_eig, loewner_leq).
    herm : float
        Asymmetry ``||M - M*||_F`` allowed by :func:`hermitize` (and
        ``FunctionalMatrix.is_hermitian``): ``_limit(herm, ||M||_F)``.
    eq : float
        Every other decision residual (restriction, range, collapse,
        idempotency, commutation, completion equations, bounds against
        declared constants, verify's invariants): ``_limit(eq, scale)``.

    One rule makes these thresholds, the floored limit :func:`_limit`,
    ``rel * (1 + scale)`` for the size ``scale`` of what a residual is
    measured against.  Comparisons with no unit floor stay as written:
    verify's contraction invariants ``norm <= 1 + eq`` and
    ``exact_bound <= 1 + eq``, cstar's ``4 (1 + eq)``, ``4 + eq`` and
    ``exact (1 + eq)``, the supplied extension's agreement
    ``eq ||Gamma||_F`` and the degenerate-pair cutoff of its witness ratio.
    The Parrott contraction hypotheses are floored: a reduced norm beta
    passes when ``beta^2 <= 1 + _limit(eq, 1)``.
    """

    rank: float | None = None
    psd: float = 1e-8
    herm: float = 1e-10
    eq: float = 1e-8

    def __post_init__(self):
        for name in ("rank", "psd", "herm", "eq"):
            value = getattr(self, name)
            if name == "rank" and value is None:
                continue
            if not (isinstance(value, (int, float)) and math.isfinite(value)) or value < 0:
                raise ValueError(f"tolerance {name!r} must be a finite nonnegative real, got {value!r}")

    def rank_cutoff(self, rows: int, cols: int) -> float:
        """Relative cutoff for singular values of a rows-by-cols matrix."""
        if self.rank is not None:
            return self.rank
        return _RANK_FACTOR * max(rows, cols, 1)


DEFAULT_TOLERANCES = Tolerances()


def _tol(tol: Tolerances | None) -> Tolerances:
    return DEFAULT_TOLERANCES if tol is None else tol


def _limit(rel: float, scale: float) -> float:
    """The floored threshold ``rel * (1 + scale)`` of a residual measured against something of size scale."""
    return rel * (1.0 + scale)


def _as_array(value) -> np.ndarray:
    if isinstance(value, ComplexMatrix):
        return value.a
    a = np.asarray(value, dtype=np.complex128)
    if a.ndim == 1:
        # column vector convenience
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    return a


class ComplexMatrix:
    """Immutable dense complex matrix.

    Thin wrapper around a read-only complex128 ndarray.  Rows/cols may be
    zero; degenerate shapes show up naturally as empty domains and
    rank-zero weights and are fully supported.
    """

    __slots__ = ("_a",)

    def __init__(self, data):
        self._own(_finite(np.array(_as_array(data), dtype=np.complex128, order="C", copy=True)))

    def _own(self, a: np.ndarray):
        a.setflags(write=False)
        object.__setattr__(self, "_a", a)
        return self

    @classmethod
    def _adopt(cls, a: np.ndarray):
        """Wrap, uncopied and checked only finite, a fresh C-contiguous complex128 array the library built."""
        return cls.__new__(cls)._own(_finite(a))

    @property
    def a(self) -> np.ndarray:
        """The underlying read-only ndarray."""
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @classmethod
    def coerce(cls, value, tol: Tolerances | None = None):
        """``value`` if it already is a ``cls``, else ``cls(value)``, under ``tol`` for the Hermitian classes."""
        return value if isinstance(value, cls) else cls(value) if tol is None else cls(value, tol)

    def __repr__(self):
        return f"{type(self).__name__}({self.rows}x{self.cols})"


def _finite(a: np.ndarray) -> np.ndarray:
    """``a`` itself; ValueError unless every entry is finite."""
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _checked_hermitian(a: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The Hermitian rule on an array: a fresh C-contiguous ``(a + a*) / 2.0``, else an error.

    DimensionMismatch unless square, ValueError unless finite (before any arithmetic), NotHermitian
    when ``||a - a*||_F`` exceeds ``_limit(herm, ||a||_F)``, ValueError when the half-sum overflows;
    a check whose result is not kept calls it directly.
    """
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"Hermitian matrix must be square, got {a.shape}")
    c = np.conjugate(_finite(a).T, order="C")
    asym = _fro(a - c)
    if asym > _limit(tol.herm, _fro(a)):
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds tolerance")
    c += a  # (a + a*) / 2.0 as in _hermitian_part
    c /= 2.0
    return _finite(c)


def _checked_pairing(a: np.ndarray, b: np.ndarray, tol: Tolerances) -> None:
    """The Hermitian rule on [[0, a], [b, 0]] from its blocks, unformed: ValueError unless both blocks are finite,
    else NotHermitian when sqrt(2) ||a - b*||_F exceeds ``_limit(herm, sqrt(||a||_F^2 + ||b||_F^2))``."""
    asym = math.sqrt(2.0) * _fro(_finite(a) - _finite(b).conj().T)
    if asym > _limit(tol.herm, math.hypot(_fro(a), _fro(b))):
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds tolerance")


class HermitianMatrix(ComplexMatrix):
    """Complex matrix validated and stored in exactly Hermitian form (:func:`_checked_hermitian`)."""

    __slots__ = ()

    def __init__(self, data, tol: Tolerances | None = None):
        self._own(_checked_hermitian(_as_array(data), _tol(tol)))

    @property
    def size(self) -> int:
        return self.rows


def _certified_above(h: np.ndarray, psd: float, scale: float) -> bool:
    """Whether a Cholesky of ``h + tau I`` proves ``lambda_min(h) >= -psd * (1 + S)``.

    ``h`` is exactly Hermitian; ``scale`` is a lower bound on S, which must
    also bound lambda_max(h) from above, and ``tau = psd * (1 + scale) / 2``.
    Cholesky is backward stable (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, Thm 10.5): success means ``h + tau I + E``
    is positive definite with ``||E|| <= ~n^2 eps / 2 * (S + tau)``, so with
    ``n^2 eps <= min(psd, 1) / 4`` the smallest eigenvalue of h is above
    ``-tau - ||E|| > -psd * (1 + S)``.  False (no proof either way) when the
    factorization fails, when n is below the measured crossover, or when
    the margin does not hold; psd = 0 never certifies.
    """
    n = h.shape[0]
    if n < _CERTIFY_MIN or n * n * np.finfo(np.float64).eps > min(psd, 1.0) / 4.0:
        return False
    shifted = h.copy()
    shifted.flat[:: n + 1] += _limit(0.5 * psd, scale)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _require_psd(lo: float, hi: float, psd: float) -> None:
    """The positivity rule: NotPsd when the smallest eigenvalue lo is below ``-psd * (1 + hi)``."""
    if lo < -_limit(psd, hi):
        raise NotPsd(f"eigenvalue {lo:.3e} is genuinely negative (largest {hi:.3e})")


def _psd_keep(w: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The positivity and rank rule on the whole spectrum w, in any order, of a Hermitian form of size n = w.size.

    NotPsd (:func:`_require_psd`), else the mask of w above ``rank_cutoff(n, n) * max(lambda_max, 0)``.
    """
    if w.size == 0:
        return np.zeros(0, dtype=bool)
    hi = float(w.max())
    _require_psd(float(w.min()), hi, tol.psd)
    return w > tol.rank_cutoff(w.size, w.size) * max(hi, 0.0)


def _require_vanishing(resid: float, scale: float, tol: Tolerances) -> None:
    """The existence rule: RestrictionConditionFailed when G's residual on its Gram kernel exceeds ``eq * (1 + scale)``."""
    if resid > _limit(tol.eq, scale):
        raise RestrictionConditionFailed(
            "restriction condition violated: the prescribed values do not vanish "
            f"on the kernel of the domain Gram matrix (residual {resid:.3e})"
        )


def _lifted_keep(w: np.ndarray, lost, scale: float, tol: Tolerances) -> np.ndarray:
    """:func:`_psd_keep` on the whole spectrum w of a Gram form M = P* G built positive with a finite bound, once
    :func:`_require_vanishing` passes ``lost(drop)``, ||G||_F on the dropped eigenvectors (asked only if any drop),
    at ``scale`` = ||G||_F.  A rejection of such a form is numerical: NumericalFailure."""
    try:
        keep = _psd_keep(w, tol)
        if not keep.all():
            _require_vanishing(lost(~keep), scale, tol)
    except (NotPsd, RestrictionConditionFailed) as exc:
        raise NumericalFailure(f"positive lift rejected unexpectedly: {exc}") from exc
    return keep


class PsdMatrix(HermitianMatrix):
    """Hermitian matrix validated positive semidefinite.

    Construction rejects matrices whose smallest eigenvalue falls below
    ``-psd * (1 + lambda_max)``; anything closer to zero is accepted and
    treated as nonnegative by downstream consumers.  From n = 8 on, one
    Cholesky of the matrix shifted by half that slack (scaled by its
    largest diagonal entry, at most lambda_max) proves the rule without a
    spectrum; only when it fails does the exact ``eigvalsh`` decide, so
    the decision and the NotPsd message are those of the spectrum.  A
    weight passed raw to :func:`~opext.kvn.hilbert_lift` is instead decided
    by the lift's own spectrum, and the kvn Gram form by its factor's
    (:func:`_psd_keep`, the same rule).  Results
    positive by construction (minimal extensions, |Phi|, block-diagonal
    weights) are adopted, never constructed: this class validates caller data.
    """

    __slots__ = ()

    def __init__(self, data, tol: Tolerances | None = None):
        super().__init__(data, tol)
        t = _tol(tol)
        if self.rows > 0 and not _certified_above(self.a, t.psd, float(np.max(self.a.diagonal().real))):
            _psd_keep(np.linalg.eigvalsh(self.a), t)  # raises NotPsd


def eigh_desc(a) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition in canonical form: the library's one ``np.linalg.eigh``.

    Eigenvalues are sorted descending (stable, so degenerate blocks keep
    LAPACK's order) and each eigenvector is rotated so that its first
    component of magnitude above a fixed floor is real and positive.  An
    empty input makes no LAPACK call.

    Parameters
    ----------
    a : ndarray or HermitianMatrix
        Square matrix; symmetrized before the call (unless a
        HermitianMatrix) so that the input to LAPACK is exactly Hermitian.

    Returns
    -------
    (w, v) : eigenvalues descending, eigenvectors as the C-contiguous columns of v.
    """
    h = a.a if isinstance(a, HermitianMatrix) else _hermitian_part(a)
    if h.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=np.complex128)
    w, v = np.linalg.eigh(h)
    order = np.argsort(-w, kind="stable")
    v = np.take(v, order, axis=1)
    pivot = v[:1].copy()
    mag = np.abs(pivot)
    if mag.min() <= _PHASE_FLOOR:  # search below row 0 in those columns only
        low = np.flatnonzero(mag <= _PHASE_FLOOR)
        pivot[0, low] = v[np.argmax(np.abs(v[:, low]) > _PHASE_FLOOR, axis=0), low]
        mag = np.abs(pivot)
    v *= pivot.conj() / mag
    return w[order], v


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """A fresh C-contiguous ``(a + a*) / 2.0``, bit for bit (a product with 0.5 differs on signed zeros)."""
    h = np.conjugate(a.T, order="C")
    h += a
    h /= 2.0
    return h


def _fro(a: np.ndarray) -> float:
    """The one Frobenius norm: ``np.linalg.norm(a)`` of a float or complex array, bit for bit, minus its dispatch."""
    x = a.ravel(order="K")
    re, im = x.real, x.imag  # a real x has zero imag, and x . x + 0.0 is x . x
    return math.sqrt(re.dot(re) + im.dot(im))


def _smax(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _orth_factor(a: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``a ~ P diag(s) V*`` on the singular values above the rank cutoff (as :func:`numerical_rank`)."""
    if a.size == 0:
        return a[:, :0], np.zeros(0), a[:0].conj().T
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = s > tol.rank_cutoff(*a.shape) * s[0]
    return u[:, keep], s[keep], vh[keep].conj().T


def _restrict(d: np.ndarray, v: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray, float]:
    """D -> V on span D from its thin SVD D ~ P diag(s) V_f*: (P, Y = V V_f diag(1/s), ||V - V V_f V_f*||_F)."""
    p, s, vf = _orth_factor(d, tol)
    vv = v @ vf
    return p, vv / s, _fro(v - vv @ vf.conj().T)


def pinv(m, tol: Tolerances | None = None) -> ComplexMatrix:
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff.

    Singular values at or below ``cutoff * sigma_max`` are treated as zero,
    where ``cutoff`` comes from ``tol.rank_cutoff``.  The zero matrix (and
    any empty matrix) maps to the zero matrix of transposed shape.
    """
    p, s, v = _orth_factor(_as_array(m), _tol(tol))
    return ComplexMatrix._adopt((v / s) @ p.conj().T)


def numerical_rank(m, tol: Tolerances | None = None) -> int:
    """Number of singular values above the relative cutoff."""
    a = _as_array(m)
    if a.size == 0:
        return 0
    t = _tol(tol)
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    cut = t.rank_cutoff(*a.shape) * s[0]
    return int(np.count_nonzero(s > cut))


def _require_independent(d: np.ndarray, tol: Tolerances, kept: int | None = None) -> None:
    """ValueError unless the columns of the domain basis ``d`` are independent: a full ``kept`` count, from a
    thin SVD the caller took of d or of an injective image of it, proves it; else d's :func:`numerical_rank` decides."""
    if kept != d.shape[1] and numerical_rank(d, tol) != d.shape[1]:
        raise ValueError("domain basis columns are dependent; supply an independent set")


def psd_eig(a, tol: Tolerances | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a positive semidefinite matrix with noise removed.

    Returns ``(w, q)`` where ``w`` holds the eigenvalues above the
    relative rank cutoff (descending) and the columns of ``q`` are the
    matching orthonormal eigenvectors.  Eigenvalues below the cutoff are
    discarded outright; an eigenvalue below ``-psd * (1 + lambda_max)``
    raises :class:`NotPsd` with the rule and message of :class:`PsdMatrix`.
    Both decisions are :func:`_psd_keep`, as for every Gram form and the Parrott corner.

    Dropping the sub-cutoff eigenvalues (instead of clamping them) keeps
    the square root, its pseudoinverse, and the range basis mutually
    consistent: they all see exactly the same kernel.
    """
    if not isinstance(a, HermitianMatrix):
        a = _as_array(a)
        if a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got {a.shape}")
    w, v = eigh_desc(a)
    keep = _psd_keep(w, _tol(tol))
    return w[keep], np.compress(keep, v, axis=1)


def loewner_leq(a, b, tol: Tolerances | None = None) -> bool:
    """Loewner-order comparison ``a <= b`` up to the positivity slack.

    True iff the smallest eigenvalue of ``b - a`` is at least
    ``-psd * (1 + ||b - a||_2)``.  From n = 8 on, one Cholesky of
    ``b - a`` shifted by half that slack (scaled by its largest absolute
    diagonal entry, at most ``||b - a||_2``) proves True without a
    spectrum; the exact ``eigvalsh`` decides whenever it does not.
    """
    x = _as_array(a)
    y = _as_array(b)
    if x.shape != y.shape or x.shape[0] != x.shape[1]:
        raise DimensionMismatch(f"operands must be square and same shape, got {x.shape} vs {y.shape}")
    t = _tol(tol)
    if x.shape[0] == 0:
        return True
    d = _hermitian_part(y - x)
    if _certified_above(d, t.psd, float(np.max(np.abs(d.diagonal().real)))):
        return True
    w = np.linalg.eigvalsh(d)
    spread = float(np.max(np.abs(w)))
    return float(w[0]) >= -_limit(t.psd, spread)


def hermitize(m, tol: Tolerances | None = None) -> HermitianMatrix:
    """Symmetrize a nearly-Hermitian matrix, rejecting genuine asymmetry.

    Returns ``(M + M*) / 2`` when the asymmetry is within
    ``herm * (1 + ||M||_F)``, else raises :class:`NotHermitian`.
    """
    return HermitianMatrix(m, tol)


def _projector(p, tol: Tolerances, what: str | None) -> HermitianMatrix:
    """The hermitized orthogonal projector p, kept as the HermitianMatrix :func:`eigh_desc` takes as it is.

    ValueError naming ``what`` unless idempotent within eq.
    """
    h = hermitize(p, tol)
    pm = h.a
    idem = _fro(pm @ pm - pm)
    if idem > _limit(tol.eq, _fro(pm)):
        subject = "not" if what is None else f"{what} is not"
        raise ValueError(f"{subject} an orthogonal projector (idempotency residual {idem:.3e})")
    return h


def _range_basis(pm: HermitianMatrix) -> np.ndarray:
    """Orthonormal basis of ran pm for a validated projector: its phase-fixed eigenvectors above 1/2.

    A projector's eigenvalues sit near 0 or 1, so 1/2 separates them for
    anything :func:`_projector` accepts; a rank cutoff would keep the small
    ones its idempotency check took for zero.  From rank 2 on the eigenvalue
    1 repeats, and LAPACK may return any basis of its eigenspace, so only
    what a unitary change of basis keeps (such as B B*) is a function of pm.
    """
    w, v = eigh_desc(pm)
    return np.compress(w > 0.5, v, axis=1)


def independent_columns(m, tol: Tolerances | None = None) -> list[int]:
    """Indices of a maximal independent subset of columns.

    Pivoted modified Gram-Schmidt: at each step the column with the
    largest residual against the span of the selected set is taken, until
    every residual drops to the rank cutoff relative to the largest
    singular value.  Output indices are sorted ascending; for a fixed
    input the selection is deterministic (ties break on the lowest index).
    No library path calls it; it stays public, and the benchmark traces it.
    """
    a = np.array(_as_array(m), dtype=np.complex128, copy=True)
    t = _tol(tol)
    if a.size == 0:
        return []
    scale = _smax(a)
    if scale == 0.0:
        return []
    cut = t.rank_cutoff(*a.shape) * scale
    chosen: list[int] = []
    residual = a
    norms = np.linalg.norm(residual, axis=0)
    for _ in range(min(a.shape)):
        k = int(np.argmax(norms))
        if norms[k] <= cut:
            break
        chosen.append(k)
        q = residual[:, k] / norms[k]
        residual = residual - np.outer(q, q.conj() @ residual)
        norms = np.linalg.norm(residual, axis=0)
        norms[chosen] = 0.0
    return sorted(chosen)
