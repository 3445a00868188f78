"""Dense complex matrix primitives with explicit tolerance handling.

Everything downstream (minimal positive extensions, completion problems,
functional extensions) is built on the handful of operations here:
pseudoinverse with a relative rank cutoff, positive-semidefinite
eigenpairs, Loewner-order comparison, numerical rank, and the Hermitian rule.  All
tolerances travel in a single :class:`Tolerances` value passed explicitly;
there is no mutable global configuration.  Every ``tol`` parameter defaults
to :data:`DEFAULT_TOLERANCES`; ``None`` is not a Tolerances.

Eigenvalues are returned in descending order (stable sort).  Eigenvectors
are LAPACK's: every consumer reads eigenvalues, masks, or products such as
``Q diag(w) Q*`` that a unitary change of eigenbasis keeps, so no phase
convention is imposed.  :func:`eigh_desc` is the one
Hermitian eigendecomposition; every other spectrum (:func:`psd_eig`, a
projector's range basis, the Gram factors) is a mask on its output.

Cost rule: a primitive is its LAPACK call plus the fewest numpy passes.  The
wrapper classes validate caller data, once, at the public boundary; an array
the library computed is adopted (``_adopt``): never copied, and checked only
finite.  An array derived from checked data without arithmetic -- a column
mask, LAPACK's eigenvectors -- is not checked again, and a HermitianMatrix is
not symmetrized again.  The Hermitian half-sum is formed only where it is
kept, by :class:`HermitianMatrix`; a check that discards it applies the rule
:func:`_checked_hermitian` alone.  :func:`_fro` is the one
Frobenius norm, and a reduction on a small array calls the ufunc's own reduce
or the array's method, not numpy's Python-level wrapper around it.
A :class:`PsdMatrix` is decided positive on one :func:`eigh_desc` and keeps
those eigenpairs and the mask that decision kept, which every lift of it under
the same Tolerances reads, so a weight is decomposed and decided once.
:func:`_lifted_keep` decides every Gram form built positive, and alone raises NumericalFailure.
"""

from __future__ import annotations

import math
import numbers
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
    "independent_columns",
    "eigh_desc",
]

# Relative factor applied per matrix dimension when no explicit rank
# cutoff is supplied: sigma <= 1e-10 * max(rows, cols) * sigma_max is noise.
_RANK_FACTOR = 1e-10

@dataclass(frozen=True)
class Tolerances:
    """Bundle of the four tolerances used throughout the package.

    ``DEFAULT_TOLERANCES = Tolerances()`` is the default value of every
    ``tol`` parameter; a caller passes a Tolerances, never ``None``.

    rank : float or None
        Relative singular-value cutoff.  ``None`` selects the default
        ``1e-10 * max(rows, cols)``, which scales with the dimension.
    psd : float
        Positivity slack: an eigenvalue above ``-_limit(psd, lambda_max)``
        counts as nonnegative (PsdMatrix, psd_eig, loewner_leq).
    herm : float
        Asymmetry ``||M - M*||_F`` allowed by :class:`HermitianMatrix`:
        ``_limit(herm, ||M||_F)``.
    eq : float
        Every other decision residual (restriction, range, collapse,
        idempotency, completion equations, bounds against
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
            try:
                number = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
            except OverflowError:  # an int or Fraction beyond the float range
                number = math.nan
            if not (number >= 0 and math.isfinite(number)):
                raise ValueError(f"tolerance {name!r} must be a finite nonnegative real, got {value!r}")
            # stored as float: a float32 would stay float32 through every _limit product, and overflow above 3.4e38
            object.__setattr__(self, name, number)

    def rank_cutoff(self, rows: int, cols: int) -> float:
        """Relative cutoff for singular values of a rows-by-cols matrix."""
        if self.rank is not None:
            return self.rank
        return _RANK_FACTOR * max(rows, cols, 1)


DEFAULT_TOLERANCES = Tolerances()


def _limit(rel: float, scale: float, unit: float = 1.0) -> float:
    """The floored threshold ``rel * (1 + scale)`` of a residual measured against something of size scale.

    ``unit`` is that floor of 1 in the units of a residual and a scale both taken times ``unit``.
    """
    return rel * (unit + scale)


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

    Thin wrapper around a read-only complex128 ndarray, held in the slot ``a``
    (reading it is a plain attribute load; setting any attribute raises).
    Rows/cols may be zero; degenerate shapes show up naturally as empty
    domains and rank-zero weights and are fully supported.
    """

    __slots__ = {"a": "The underlying read-only ndarray."}

    def __init__(self, data):
        self._own(_finite(np.array(_as_array(data), dtype=np.complex128, order="C", copy=True)))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):  # copy and pickle restore the slots past __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def _own(self, a: np.ndarray):
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        return self

    @classmethod
    def _adopt(cls, a: np.ndarray):
        """Wrap, uncopied and checked only finite, a fresh C-contiguous complex128 array the library computed."""
        return cls.__new__(cls)._own(_finite(a))

    @classmethod
    def _wrap(cls, a: np.ndarray):
        """Wrap, uncopied and unchecked, a fresh C-contiguous complex128 array derived from checked data without
        arithmetic: a column mask of it, or LAPACK's eigenvectors of a checked matrix."""
        return cls.__new__(cls)._own(a)

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @classmethod
    def coerce(cls, value, *tol):
        """``value`` if it already is a ``cls``, else ``cls(value, *tol)``: a Hermitian class takes its Tolerances."""
        return value if isinstance(value, cls) else cls(value, *tol)

    def __repr__(self):
        return f"{type(self).__name__}({self.rows}x{self.cols})"


def _finite(a: np.ndarray) -> np.ndarray:
    """``a`` itself; ValueError unless every entry (real and imaginary part) is finite."""
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise ValueError("matrix entries must be finite")
    return a


def _checked_hermitian(a: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, float]:
    """The Hermitian rule on an array: ``(a*, ||a||_F)``, a* fresh and C-contiguous, else an error.

    DimensionMismatch unless square, ValueError unless finite (before any arithmetic), NotHermitian when
    ``||a - a*||_F`` exceeds ``_limit(herm, ||a||_F)``: compared directly while both norms are finite, and by
    :func:`_excess` when one overflows.  No half-sum is formed here.  :class:`HermitianMatrix`, which keeps
    the Hermitian part, forms ``(a + a*) / 2.0`` from the returned ``a*`` and rejects it when it overflows;
    a check of a product (D* V, U* W, the Parrott pairing) discards both, so a finite product passes at
    any scale.
    """
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"Hermitian matrix must be square, got {a.shape}")
    c = np.conjugate(_finite(a).T, order="C")
    asym, scale = _fro(a - c), _fro(a)
    if not (asym < math.inf and scale < math.inf):  # a norm overflowed: decide on the prescaled blocks
        asym = _excess(lambda x, y: (_fro(x - y), _fro(x)), (a, c), tol.herm)
    elif not asym > _limit(tol.herm, scale):
        asym = 0.0
    if asym:
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds tolerance")
    return c, scale


def _excess(measure, blocks: tuple[np.ndarray, ...], rel: float) -> float:
    """``resid`` if above ``_limit(rel, scale)`` for ``(resid, scale) = measure(*blocks)`` of finite blocks, else 0.0.

    ``measure`` is degree-1 homogeneous in the blocks.  A caller compares the norms it measured directly
    while they are finite and calls this only when one overflowed (entries from about 1.3e154 on), where
    inf > inf would pass anything.  So the same inequality divided by 2^e, ``resid' > _limit(rel, scale', 2^-e)``,
    decides on the blocks times 2^-e, where 2^e bounds their largest real or imaginary part: a product with a
    power of two is exact.
    """
    top = max(float(np.max(np.abs(part), initial=0.0)) for x in blocks for part in (x.real, x.imag))
    unit = math.ldexp(1.0, -math.frexp(top)[1])
    resid, scale = measure(*(x * unit for x in blocks))
    return resid / unit if resid > _limit(rel, scale, unit) else 0.0


class HermitianMatrix(ComplexMatrix):
    """Complex matrix validated (:func:`_checked_hermitian`) and stored in exactly Hermitian form ``(a + a*) / 2.0``.

    The half-sum of finite entries can still overflow (entries from about 9e307 on): ValueError then.
    """

    __slots__ = ()

    def __init__(self, data, tol: Tolerances = DEFAULT_TOLERANCES):
        a = _as_array(data)
        h, scale = _checked_hermitian(a, tol)
        h += a  # (a + a*) / 2.0 as in _hermitian_part
        h /= 2.0
        # a finite ||a||_F bounds every entry by 1.4e154, so the half-sum can overflow only when it is not
        self._own(h if scale < math.inf else _finite(h))

    @property
    def size(self) -> int:
        return self.a.shape[0]


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
    hi = float(np.maximum.reduce(w))
    _require_psd(float(np.minimum.reduce(w)), hi, tol.psd)
    return w > tol.rank_cutoff(w.size, w.size) * max(hi, 0.0)


def _require_vanishing(resid: float, scale: float, tol: Tolerances) -> None:
    """The existence rule: RestrictionConditionFailed when G's residual on its Gram kernel exceeds ``eq * (1 + scale)``."""
    if resid > _limit(tol.eq, scale):
        raise RestrictionConditionFailed(
            "restriction condition violated: the prescribed values do not vanish "
            f"on the kernel of the domain Gram matrix (residual {resid:.3e})"
        )


def _lifted_keep(w: np.ndarray, lost, tol: Tolerances) -> np.ndarray:
    """:func:`_psd_keep` on the whole spectrum w of a Gram form M = P* G built positive with a finite bound, once
    :func:`_require_vanishing` passes ``(resid, scale) = lost(drop)``: ||G||_F on the dropped eigenvectors and
    ||G||_F, both asked only if any drop.  A rejection of such a form is numerical: NumericalFailure."""
    try:
        keep = _psd_keep(w, tol)
        if not np.logical_and.reduce(keep):
            _require_vanishing(*lost(~keep), tol)
    except (NotPsd, RestrictionConditionFailed) as exc:
        raise NumericalFailure(f"positive lift rejected unexpectedly: {exc}") from exc
    return keep


class PsdMatrix(HermitianMatrix):
    """Hermitian matrix validated positive semidefinite, holding the spectrum that decided it.

    Construction takes one :func:`eigh_desc` and rejects the matrix, with
    :func:`_psd_keep`'s NotPsd, when its smallest eigenvalue falls below
    ``-psd * (1 + lambda_max)``; anything closer to zero is accepted and
    treated as nonnegative by downstream consumers.  The eigenpairs are
    kept, and so is the mask of the eigenvalues above the rank cutoff that
    the same decision returned, with the Tolerances that decided it: a lift
    of the weight (:func:`~opext.kvn.hilbert_lift`) under those Tolerances
    reads both instead of decomposing or deciding it again, and under any
    other Tolerances decides the kept spectrum again (:meth:`_keep`).
    Results positive by construction (minimal extensions, |Phi|,
    block-diagonal weights) are adopted, never constructed (:meth:`_adopt`,
    with their eigenpairs when the caller has them, else decomposed on first
    use): this class validates caller data.
    """

    __slots__ = ("_eig", "_kept_by", "_kept")

    def __init__(self, data, tol: Tolerances = DEFAULT_TOLERANCES):
        super().__init__(data, tol)
        eig = _read_only(eigh_desc(self))
        self._hold(eig, tol, _psd_keep(eig[0], tol))  # raises NotPsd

    def _hold(self, eig, kept_by: Tolerances | None, kept: np.ndarray | None):
        object.__setattr__(self, "_eig", eig)
        object.__setattr__(self, "_kept_by", kept_by)
        object.__setattr__(self, "_kept", kept)
        return self

    @classmethod
    def _adopt(cls, a: np.ndarray, eig: tuple[np.ndarray, np.ndarray] | None = None):
        """:meth:`ComplexMatrix._adopt`, keeping ``eig`` = (w descending, eigenvectors as columns) if given."""
        return super()._adopt(a)._hold(None if eig is None else _read_only(eig), None, None)

    @property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """The whole spectrum ``(w, v)``, read-only, as :func:`eigh_desc` returns it: decomposed once, then kept."""
        if self._eig is None:
            object.__setattr__(self, "_eig", _read_only(eigh_desc(self)))
        return self._eig

    def _keep(self, tol: Tolerances) -> np.ndarray:
        """:func:`_psd_keep` of the spectrum under ``tol``: the mask kept at construction if ``tol`` decided it."""
        return self._kept if self._kept_by is tol else _psd_keep(self._spectrum[0], tol)


def _read_only(arrays: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    for x in arrays:
        x.setflags(write=False)
    return arrays


def eigh_desc(a) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition in canonical form: the library's one ``np.linalg.eigh``.

    Eigenvalues are sorted descending (stable, so degenerate blocks keep
    LAPACK's order) and the eigenvectors are LAPACK's, in that order: their
    phases carry no convention, since every consumer reads only what a
    unitary change of eigenbasis keeps.  LAPACK returns them ascending, so
    without an exact tie the stable descending order is the reversal, taken
    as copies; a tie takes the stable sort.  An empty input makes no LAPACK call.

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
    if np.logical_and.reduce(w[:-1] < w[1:]):
        return w[::-1].copy(), v[:, ::-1].copy()
    order = np.argsort(-w, kind="stable")
    return w[order], v.take(order, axis=1)


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


def pinv(m, tol: Tolerances = DEFAULT_TOLERANCES) -> ComplexMatrix:
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff.

    Singular values at or below ``cutoff * sigma_max`` are treated as zero,
    where ``cutoff`` comes from ``tol.rank_cutoff``.  The zero matrix (and
    any empty matrix) maps to the zero matrix of transposed shape.
    """
    p, s, v = _orth_factor(_as_array(m), tol)
    return ComplexMatrix._adopt((v / s) @ p.conj().T)


def numerical_rank(m, tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Number of singular values above the relative cutoff."""
    a = _as_array(m)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    cut = tol.rank_cutoff(*a.shape) * s[0]
    return int(np.count_nonzero(s > cut))


def _require_independent(d: np.ndarray, tol: Tolerances, kept: int) -> None:
    """ValueError unless the columns of the domain basis ``d`` are independent: a full ``kept`` count, from a
    thin SVD the caller took of d or of its lifted image J* d, proves it; else d's :func:`numerical_rank` decides."""
    if kept != d.shape[1] and numerical_rank(d, tol) != d.shape[1]:
        raise ValueError("domain basis columns are dependent; supply an independent set")


def psd_eig(a, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[np.ndarray, np.ndarray]:
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
    keep = _psd_keep(w, tol)
    return w[keep], v.compress(keep, axis=1)


def loewner_leq(a, b, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Loewner-order comparison ``a <= b`` up to the positivity slack.

    True iff the smallest eigenvalue of ``b - a`` is at least
    ``-psd * (1 + ||b - a||_2)``, decided on the exact ``eigvalsh``.
    """
    x = _as_array(a)
    y = _as_array(b)
    if x.shape != y.shape or x.shape[0] != x.shape[1]:
        raise DimensionMismatch(f"operands must be square and same shape, got {x.shape} vs {y.shape}")
    if x.shape[0] == 0:
        return True
    w = np.linalg.eigvalsh(_hermitian_part(y - x))
    return float(w[0]) >= -_limit(tol.psd, float(np.max(np.abs(w))))


def _projector(p, tol: Tolerances, what: str | None) -> tuple[HermitianMatrix, np.ndarray]:
    """The orthogonal projector p as a HermitianMatrix, and the orthonormal basis of its range, from one
    :func:`eigh_desc`.

    ValueError naming ``what`` unless idempotent within eq.  For a Hermitian p with eigenvalues w,
    ``||p^2 - p||_F = ||w (w - 1)||`` and ``||p||_F = ||w||``, so the spectrum decides it.  A projector's
    eigenvalues are at most 1, so an idempotency residual or limit that is not finite rejects p too.

    The range basis is the eigenvectors above 1/2: a projector's eigenvalues sit near 0 or 1, so 1/2
    separates them for anything accepted here, and a rank cutoff would keep the small ones the
    idempotency check took for zero.  From rank 2 on the eigenvalue 1 repeats, and LAPACK may return any
    basis of its eigenspace, so only what a unitary change of basis keeps (such as B B*) is a function of p.
    """
    h = HermitianMatrix(p, tol)
    w, v = eigh_desc(h)
    idem = _fro(w * (w - 1.0))
    if not idem <= _limit(tol.eq, _fro(w)) < math.inf:
        subject = "not" if what is None else f"{what} is not"
        raise ValueError(f"{subject} an orthogonal projector (idempotency residual {idem:.3e})")
    return h, v.compress(w > 0.5, axis=1)


def independent_columns(m, tol: Tolerances = DEFAULT_TOLERANCES) -> list[int]:
    """Indices of a maximal independent subset of columns.

    Pivoted modified Gram-Schmidt: at each step the column with the
    largest residual against the span of the selected set is taken, until
    every residual drops to the rank cutoff relative to the largest
    singular value.  Output indices are sorted ascending; for a fixed
    input the selection is deterministic (ties break on the lowest index).
    No library path calls it; it stays public, and the benchmark traces it.
    """
    a = np.array(_as_array(m), dtype=np.complex128, copy=True)
    if a.size == 0:
        return []
    scale = _smax(a)
    if scale == 0.0:
        return []
    cut = tol.rank_cutoff(*a.shape) * scale
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
