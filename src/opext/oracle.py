"""Independent validation oracles and reproducible instance generators.

Nothing here calls the construction pipelines it is meant to validate:
sampled bounds and grid searches use numpy's linear algebra directly, so
agreement between an oracle and a construction is evidence for both.
The generators build no library object either.  Each planted instance is
a dict of plain arrays and scalars under its instance-file payload keys,
with a witness dict of the hidden data beside it:

    kvn             n, domain_basis, values                   witness: total
    sa_ext          n, domain_basis, values, weight           witness: total
    parrott         n1, n2, domain1, values1, domain2,        witness: total
                    values2, weight1, weight2, alpha1, alpha2
    strong_parrott  s1, s2, t1, t2                            witness: solution
    functional      m, projection, gamma, density, extension  witness: source

Randomness is counter-based (Philox keyed through SeedSequence), so a
seed determines the byte-exact stream on every platform, and child
streams split off deterministically for per-instance reproducibility.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, InvalidDims
from .numkit import DEFAULT_TOLERANCES, HermitianMatrix, PsdMatrix, Tolerances, _fro

__all__ = [
    "Rng",
    "sampled_bound",
    "min_completion_search",
    "random_instance_with_witness",
    "complex_gaussian",
    "random_unitary",
    "random_psd",
    "random_hermitian",
    "random_projection",
    "random_contraction",
    "endpoint_range_miss",
]

MAX_DIM = 16
MAX_ALGEBRA = 16


@dataclass(frozen=True)
class Rng:
    """Splittable deterministic randomness root.

    ``Rng(seed)`` names a stream; ``split(i)`` names child stream i.  The
    same (seed, path) always reproduces the identical stream, across runs
    and platforms, via Philox keyed with a SeedSequence.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        # numbers.Integral takes numpy integers; a float, str or bool would alias an integer's stream
        for value in (self.seed, *self.path):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 0 <= value < 2**64:
                raise ValueError("seed must fit in 64 unsigned bits")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "path", tuple(int(i) for i in self.path))

    def split(self, index: int) -> "Rng":
        return Rng(self.seed, self.path + (index,))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=int(self.seed), spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))


def _gen(rng) -> np.random.Generator:
    if isinstance(rng, Rng):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    return Rng(rng).generator()


def complex_gaussian(gen: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Standard complex Gaussian matrix (unit-variance complex entries)."""
    return (gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_unitary(gen: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary (QR of a complex Gaussian, phases fixed)."""
    q, r = np.linalg.qr(complex_gaussian(gen, n, n))
    d = np.diagonal(r).copy()
    d = np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * d.conj()


def random_psd(gen: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    """Random positive semidefinite matrix of the given rank (default full)."""
    r = n if rank is None else int(rank)
    x = complex_gaussian(gen, n, r)
    a = x @ x.conj().T
    return (a + a.conj().T) / 2.0


def random_hermitian(gen: np.random.Generator, n: int) -> np.ndarray:
    x = complex_gaussian(gen, n, n)
    return (x + x.conj().T) / 2.0


def random_projection(gen: np.random.Generator, n: int, rank: int) -> np.ndarray:
    u = random_unitary(gen, n)
    p = u[:, :rank] @ u[:, :rank].conj().T
    return (p + p.conj().T) / 2.0


def random_contraction(gen: np.random.Generator, rows: int, cols: int, norm: float | None = None) -> np.ndarray:
    """Random matrix scaled to a target largest singular value <= 1."""
    x = complex_gaussian(gen, rows, cols)
    if x.size == 0:
        return x
    top = np.linalg.svd(x, compute_uv=False)[0]
    target = float(gen.uniform(0.2, 1.0)) if norm is None else float(norm)
    return x * (target / top) if top > 0 else x


def _relative_cutoff(rank: float | None, rows: int, cols: int) -> float:
    """The relative singular-value cutoff ``rank``, or ``1e-10 * max(rows, cols)`` when it is None."""
    return 1e-10 * max(rows, cols, 1) if rank is None else rank


def _clean_psd_split(a: np.ndarray, rank: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a PSD matrix with the eigenvalues at or below the relative cutoff (:func:`_relative_cutoff`)
    removed.

    Oracle-local equivalent of the construction modules' spectral
    cleanup, kept separate on purpose.
    """
    n = a.shape[0]
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    top = max(float(w[-1]), 0.0) if n else 0.0
    keep = w > _relative_cutoff(rank, n, n) * top
    return w[keep], v[:, keep]


def sampled_bound(operator, weight, samples: int, rng, tol: Tolerances = DEFAULT_TOLERANCES,
                  refine: int = 32) -> float:
    """Empirical weighted bound from randomized pair search.

    Estimates sup |<S x, y>| / (<A x, x>^{1/2} <A y, y>^{1/2}) from below.
    Each of ``samples`` complex Gaussian pairs (x, y) contributes its
    ratio; every pair is then improved by ``refine`` rounds of alternating
    analytic maximization (optimal y for fixed x, optimal x for fixed y),
    and every intermediate pair contributes its ratio as well.  All
    reported values are ratios attained by concrete pairs, so the
    estimate never exceeds the true bound (up to roundoff), and it is
    monotone nondecreasing in ``samples``.

    ``operator`` is a :class:`~opext.sa_ext.SymmetricPartialOperator` (read
    through its ``domain_basis`` and ``values``) or a Hermitian matrix
    (treated as everywhere defined).  Pairs whose weighted denominators
    fall below the equality tolerance are skipped.
    """
    if hasattr(operator, "domain_basis"):
        d = operator.domain_basis.a
        v = operator.values.a
    else:
        h = HermitianMatrix.coerce(operator, tol)
        d = np.eye(h.rows, dtype=np.complex128)
        v = h.a
    a = PsdMatrix.coerce(weight, tol).a
    n, k = d.shape
    if samples <= 0 or k == 0 or n == 0:
        return 0.0
    gen = _gen(rng)
    draws = gen.standard_normal((samples, 2 * (k + n)))
    cs = (draws[:, :k] + 1j * draws[:, k : 2 * k]) / np.sqrt(2.0)
    ys = (draws[:, 2 * k : 2 * k + n] + 1j * draws[:, 2 * k + n :]) / np.sqrt(2.0)

    gram_dom = d.conj().T @ (a @ d)
    gram_dom = (gram_dom + gram_dom.conj().T) / 2.0
    wd, vd = _clean_psd_split(gram_dom)
    dom_pinv = (vd / wd) @ vd.conj().T if wd.size else np.zeros((k, k), dtype=np.complex128)
    wa, va = _clean_psd_split(a)
    a_pinv = (va / wa) @ va.conj().T if wa.size else np.zeros((n, n), dtype=np.complex128)

    def ratios(c_batch, y_batch):
        num = np.abs(np.einsum("bn,bn->b", y_batch.conj(), c_batch @ v.T))
        dx = np.einsum("bi,bi->b", c_batch.conj(), c_batch @ gram_dom.T).real
        dy = np.einsum("bi,bi->b", y_batch.conj(), y_batch @ a.T).real
        den = np.sqrt(np.clip(dx, 0.0, None) * np.clip(dy, 0.0, None))
        ok = den > tol.eq
        return (num[ok] / den[ok]) if np.any(ok) else np.zeros(0)

    best = 0.0
    r = ratios(cs, ys)
    if r.size:
        best = max(best, float(r.max()))
    for _ in range(max(0, refine)):
        ys = (cs @ v.T) @ a_pinv.T          # optimal y given x = D c
        r = ratios(cs, ys)
        if r.size:
            best = max(best, float(r.max()))
        cs = (ys @ v.conj()) @ dom_pinv.T   # optimal c given y
        r = ratios(cs, ys)
        if r.size:
            best = max(best, float(r.max()))
    return best


def endpoint_range_miss(weight, domain_basis, values, alpha: float, s_min, s_max,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """How far the interval endpoints are from Krein-von Neumann minimal, in the weight's range coordinates.

    With A = J J* on the eigenvalues of A above the rank cutoff, J = Q diag(rho), each S reads
    S^ = J^+ S (J^+)* and the data U = J* D, W = J^+ V.  alpha - S^_max is the minimal positive extension
    of U -> alpha U - W, so its range lies in ran(alpha U - W), and alpha + S^_min has its range in
    ran(alpha U + W).  Together with the extension property and the bound, this pins each endpoint, so
    an interval collapsed onto either endpoint misses unless it is one point.  Returns the larger
    Frobenius norm of the part of alpha -/+ S^ outside ran(alpha U -/+ W), that range taken on the
    singular values above the cutoff.  Both cutoffs are the oracle's own :func:`_relative_cutoff` of
    ``tol.rank``, and A is decomposed by its own :func:`_clean_psd_split`.
    """
    a, d, v = (np.asarray(x, dtype=np.complex128) for x in (weight, domain_basis, values))
    w, q = _clean_psd_split(a, tol.rank)
    rho = np.sqrt(w)
    u, pulled = (q * rho).conj().T @ d, (q.conj().T @ v) / rho[:, None]
    miss = 0.0
    for sign, s in ((-1.0, s_max), (1.0, s_min)):
        shifted = alpha * np.eye(rho.size) + sign * (q.conj().T @ np.asarray(s) @ q) / np.outer(rho, rho)
        g = alpha * u + sign * pulled
        if g.size:
            b, sv, _ = np.linalg.svd(g, full_matrices=False)
            b = b[:, sv > _relative_cutoff(tol.rank, *g.shape) * sv[0]]
            shifted = shifted - b @ (b.conj().T @ shifted)
        miss = max(miss, _fro(shifted))
    return miss


def _projection_range(p) -> np.ndarray:
    """The oracle's own range of a projection: the eigenvectors above 1/2 of the Hermitian part of p."""
    p = np.asarray(p, dtype=np.complex128)
    w, v = np.linalg.eigh((p + p.conj().T) / 2.0)
    return v[:, w > 0.5]


def min_completion_search(family, constraint, objective, bounds, resolution: int | None = None):
    """Two-stage grid minimization over a small parameter box.

    ``family(params) -> object``, ``constraint(object) -> bool``,
    ``objective(object) -> float``; ``bounds`` is a sequence of (lo, hi)
    pairs, at most three of them.  A coarse grid of roughly a thousand
    points is scanned, then a second grid of the same size zooms on the
    cell around the best feasible point.  Returns ``(params, value)``.

    Raises :class:`Infeasible` when no grid point satisfies the
    constraint.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    ndim = len(bounds)
    if not 1 <= ndim <= 3:
        raise ValueError("search supports one to three parameters")
    for lo, hi in bounds:
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ValueError("bounds must be finite with lo <= hi")
    if resolution is None:
        resolution = {1: 1000, 2: 31, 3: 10}[ndim]

    def scan(box):
        axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
        best = None
        for point in itertools.product(*axes):
            candidate = family(point)
            if not constraint(candidate):
                continue
            value = float(objective(candidate))
            if best is None or value < best[1]:
                best = (point, value)
        return best

    best = scan(bounds)
    if best is None:
        raise Infeasible("no feasible point on the coarse grid")
    point = best[0]
    zoom = []
    for (lo, hi), x in zip(bounds, point):
        step = (hi - lo) / max(resolution - 1, 1)
        zoom.append((max(lo, x - step), min(hi, x + step)))
    refined = scan(zoom)
    if refined is not None and refined[1] <= best[1]:
        best = refined
    return best[0], best[1]


def _check_dims(kind: str, dims: tuple[int, ...], gen: np.random.Generator) -> tuple[int, ...]:
    dims = tuple(int(x) for x in dims)
    if any(x < 1 for x in dims):
        raise InvalidDims(f"dimensions must be positive, got {dims}")
    if kind == "functional":
        if len(dims) != 1:
            raise InvalidDims("functional instances take a single dimension (algebra size)")
        if dims[0] > MAX_ALGEBRA:
            raise InvalidDims(f"algebra size capped at {MAX_ALGEBRA}, got {dims[0]}")
        return dims
    if any(x > MAX_DIM for x in dims):
        raise InvalidDims(f"dimensions capped at {MAX_DIM}, got {dims}")
    if kind in ("kvn", "sa_ext"):
        if len(dims) == 1:
            n = dims[0]
            return (n, int(gen.integers(1, n + 1)))
        if len(dims) == 2:
            if dims[1] > dims[0]:
                raise InvalidDims("domain dimension cannot exceed the ambient dimension")
            return dims
        raise InvalidDims(f"{kind} instances take (n,) or (n, k)")
    if kind == "parrott":
        if len(dims) == 2:
            n1, n2 = dims
            return (n1, n2, int(gen.integers(1, n1 + 1)), int(gen.integers(1, n2 + 1)))
        if len(dims) == 4:
            if dims[2] > dims[0] or dims[3] > dims[1]:
                raise InvalidDims("corner domain dimensions cannot exceed their spaces")
            return dims
        raise InvalidDims("parrott instances take (n1, n2) or (n1, n2, k1, k2)")
    if kind == "strong_parrott":
        if len(dims) == 3:
            return dims + (dims[2],)
        if len(dims) == 4:
            return dims
        raise InvalidDims("strong_parrott instances take (dimH, dimK, p) or (dimH, dimK, p, q)")
    raise InvalidDims(f"unknown instance kind {kind!r}")


def random_instance_with_witness(kind: str, dims, rng) -> tuple[dict, dict]:
    """Reproducible random instance, as payload fields, plus the hidden data that built it.

    Instances are constructive: each is produced by restricting or
    factoring a known total object, so the advertised hypotheses hold by
    construction.  The instance is a dict of plain arrays and scalars under
    the instance-file payload keys, and no library object is built: the
    pipelines it is meant to check decide it only when they run it.  The
    witness dict records the hidden object for tests that want to verify
    minimality or recover the planted solution.

    Kinds and dims, payload keys -> witness keys:
      kvn            (n,) or (n, k)      restriction of a random PSD matrix
                     n, domain_basis, values -> total
      sa_ext         (n,) or (n, k)      restriction of a weighted Hermitian
                     n, domain_basis, values, weight -> total
      parrott        (n1, n2[, k1, k2])  corners of a hidden weighted contraction
                     n1, n2, domain1, values1, domain2, values2, weight1,
                     weight2, alpha1, alpha2 -> total
      strong_parrott (h, k, p[, q])      factorizations through a hidden contraction
                     s1, s2, t1, t2 -> solution
      functional     (m,)                restriction of a random hermitian functional
                     m, projection, gamma = projection @ source, density,
                     extension = source -> source
    """
    kind = str(kind).replace("-", "_")
    if isinstance(dims, int):
        dims = (dims,)
    gen = _gen(rng)
    dims = _check_dims(kind, tuple(dims), gen)

    if kind == "kvn":
        n, k = dims
        b = random_psd(gen, n, rank=int(gen.integers(1, n + 1)))
        d = complex_gaussian(gen, n, k)
        return {"n": n, "domain_basis": d, "values": b @ d}, {"total": b}

    if kind == "sa_ext":
        n, k = dims
        a = random_psd(gen, n, rank=int(gen.integers(1, n + 1)))
        w, v = _clean_psd_split(a)
        sqrt_a = (v * np.sqrt(w)) @ v.conj().T
        h = random_hermitian(gen, n)
        s = sqrt_a @ h @ sqrt_a
        s = (s + s.conj().T) / 2.0
        d = complex_gaussian(gen, n, k)
        return {"n": n, "domain_basis": d, "values": s @ d, "weight": a}, {"total": s}

    if kind == "parrott":
        n1, n2, k1, k2 = dims
        a1 = random_psd(gen, n1, rank=int(gen.integers(1, n1 + 1)))
        a2 = random_psd(gen, n2, rank=int(gen.integers(1, n2 + 1)))
        w1, v1 = _clean_psd_split(a1)
        w2, v2 = _clean_psd_split(a2)
        sqrt1 = (v1 * np.sqrt(w1)) @ v1.conj().T
        sqrt2 = (v2 * np.sqrt(w2)) @ v2.conj().T
        core = random_contraction(gen, n2, n1)
        hidden = sqrt2 @ core @ sqrt1
        alpha = float(np.linalg.svd(core, compute_uv=False)[0] ** 2) if core.size else 0.0
        d1 = complex_gaussian(gen, n1, k1)
        d2 = complex_gaussian(gen, n2, k2)
        fields = {
            "n1": n1, "n2": n2, "domain1": d1, "values1": hidden @ d1, "domain2": d2,
            "values2": hidden.conj().T @ d2, "weight1": a1, "weight2": a2, "alpha1": alpha, "alpha2": alpha,
        }
        return fields, {"total": hidden}

    if kind == "strong_parrott":
        dim_h, dim_k, p, q = dims
        hidden = random_contraction(gen, dim_k, dim_h)
        s1 = complex_gaussian(gen, dim_h, p)
        t2 = complex_gaussian(gen, q, dim_k)
        return {"s1": s1, "s2": hidden @ s1, "t1": t2 @ hidden, "t2": t2}, {"solution": hidden}

    if kind == "functional":
        (m,) = dims
        phi = random_hermitian(gen, m)
        projection = random_projection(gen, m, int(gen.integers(1, m + 1)))
        density = random_psd(gen, m) + 0.25 * np.eye(m)
        fields = {
            "m": m, "projection": projection, "gamma": projection @ phi, "density": density, "extension": phi,
        }
        return fields, {"source": phi}

    raise InvalidDims(f"unknown instance kind {kind!r}")
