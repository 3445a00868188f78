"""Seeded planted inputs, the timed operation, and numpy-only output checks.

Every input is built from a known total object (a restriction or a
factorisation of it), so the expected answer is known without calling
the program.  The generators use their own numpy streams and never call
``opext.oracle``, so a change there cannot change the inputs.  The checks
use plain numpy only; each returns ``(name, relative residual, limit)``
records, and an op fails when any residual exceeds its limit.

Sizes that an op's cost depends on (domain dimension, weight rank, split
of the ambient space) come from a seeded low-discrepancy sweep: any run
of ops covers their ranges evenly and jointly, so per-kind medians
compare across seeds instead of following the luck of a few draws.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

opext = None  # bound by load_program(); every call goes through the package namespace

# Residual limits for the checks.  Equalities are backward errors
# ||X D - G|| / (||X|| ||D|| + ||G||); orderings are the most negative
# eigenvalue over the largest one.
EQ_LIMIT = 1e-6
ORDER_LIMIT = 1e-8
BOUND_LIMIT = 1e-6
DIGITS_CAP = 16.0
CLI_SAMPLES = 1000



def load_program(src_dir: str, with_cli: bool):
    """Import opext from the checkout's source tree (and its CLI if asked)."""
    global opext
    import sys

    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)
    import opext as package

    location = os.path.realpath(package.__file__)
    if not location.startswith(os.path.realpath(src_dir) + os.sep):
        raise ImportError(f"opext was imported from {location}, not from {src_dir}")
    if with_cli:
        import opext.cli  # noqa: F401  (its import cost belongs to set-up)
    opext = package
    return package


# --------------------------------------------------------------------------
# seeded draws


def op_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def sweep(seed: int, stream: int, j: int, dims: int) -> list[float]:
    """j-th point of an evenly spread sequence in the unit cube [0, 1)^dims.

    The additive recurrence with the generalised golden ratio, shifted by
    a seeded offset: every prefix covers the cube evenly in all
    coordinates jointly, so the mix of sizes (and with it the cost of a
    run) hardly depends on the seed.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    shift = np.random.default_rng([seed, 7919, stream]).random(dims)
    return [float((s + j * phi ** -(i + 1)) % 1.0) for i, s in enumerate(shift)]


def pick(u: float, lo: int, hi: int) -> int:
    """Map u in [0, 1) evenly onto the integers lo..hi."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo) if hi > lo else lo


def cgauss(g, rows, cols):
    return (g.standard_normal((rows, cols)) + 1j * g.standard_normal((rows, cols))) / math.sqrt(2.0)


def herm(a):
    return (a + a.conj().T) / 2.0


def wishart(g, n, r):
    x = cgauss(g, n, r)
    return herm(x @ x.conj().T)


def clean_eig(a):
    """Eigenpairs of a PSD matrix with noise-level eigenvalues dropped.

    Forming a square root from the raw spectrum would keep ~1e-14
    eigenvalues, and a planted value built from it would leave ran A by
    about 1e-7 -- enough for the program to call it unbounded.
    """
    w, v = np.linalg.eigh(herm(a))
    top = max(float(w[-1]), 0.0) if w.size else 0.0
    keep = w > 1e-10 * max(a.shape[0], 1) * top
    return w[keep], v[:, keep]


def orth(a):
    """Orthonormal basis of ran a, rank decided at the program's default cutoff."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, s > 1e-10 * max(a.shape) * s[0]]


def fro(a):
    return float(np.linalg.norm(a))


def spec(a):
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def backward(resid, *scales):
    den = sum(scales)
    return resid / den if den > 0 else resid


def order_violation(lower, upper):
    """How far ``lower <= upper`` fails, relative to the operands' size."""
    w = np.linalg.eigvalsh(herm(upper - lower))
    if w.size == 0:
        return 0.0
    scale = max(spec(lower), spec(upper), 1e-300)
    return max(0.0, -float(w[0])) / scale


def digits(resid: float) -> float:
    return min(DIGITS_CAP, -math.log10(resid)) if resid > 0 else DIGITS_CAP


# --------------------------------------------------------------------------
# operators: closed forms at ambient dimension n


def make_kvn(g, n, k, r):
    b = wishart(g, n, r)
    d = cgauss(g, n, k)
    return {"total": b, "d": d, "v": b @ d}


def run_kvn(x):
    op = opext.PartialPositiveOperator(x["d"], x["v"])
    return opext.kvn_extend(op).a


def check_kvn(x, ext):
    d, v, b = x["d"], x["v"], x["total"]
    return [
        ("kvn.values", backward(fro(ext @ d - v), fro(ext) * fro(d), fro(v)), EQ_LIMIT),
        ("kvn.psd", order_violation(np.zeros_like(ext), ext), ORDER_LIMIT),
        ("kvn.below_total", order_violation(ext, b), ORDER_LIMIT),
    ]


def _planted_weight(g, n, r):
    a = wishart(g, n, r)
    w, q = clean_eig(a)
    return a, w, q, (q * np.sqrt(w)) @ q.conj().T


def make_sa(g, n, k, r):
    a, w, q, root = _planted_weight(g, n, r)
    h = herm(cgauss(g, n, n))
    s = herm(root @ h @ root)
    d = cgauss(g, n, k)
    return {"weight": a, "w": w, "q": q, "root": root, "h": h, "d": d, "v": s @ d}


def run_sa(x):
    op = opext.SymmetricPartialOperator(x["d"], x["v"])
    interval = opext.extend_symmetric(op, opext.PsdMatrix(x["weight"]))
    return interval.alpha, interval.s_min.a, interval.s_max.a


def weighted_bound(s, q_out, w_out, q_in, w_in):
    """||(A_out^1/2)^+ S (A_in^1/2)^+|| from the planted eigenpairs."""
    core = (q_out.conj().T @ s @ q_in) / np.sqrt(w_out)[:, None] / np.sqrt(w_in)[None, :]
    return spec(core)


def check_sa(x, alpha, s_min, s_max):
    d, v, q, w = x["d"], x["v"], x["q"], x["w"]
    exact = spec(q.conj().T @ x["h"] @ orth(x["root"] @ d))
    out = [
        ("sa.alpha", abs(alpha - exact) / max(exact, 1e-300), BOUND_LIMIT),
        ("sa.order", order_violation(s_min, s_max), ORDER_LIMIT),
    ]
    for name, s in (("min", s_min), ("max", s_max)):
        out.append((f"sa.values_{name}", backward(fro(s @ d - v), fro(s) * fro(d), fro(v)), EQ_LIMIT))
        out.append((f"sa.range_{name}", backward(fro(s - q @ (q.conj().T @ s)), fro(s)), EQ_LIMIT))
        drift = abs(weighted_bound(s, q, w, q, w) - alpha) / max(alpha, 1e-300)
        out.append((f"sa.bound_{name}", drift, BOUND_LIMIT))
    return out


def make_parrott(g, n1, n2, k1, k2, r1, r2):
    a1, w1, q1, root1 = _planted_weight(g, n1, r1)
    a2, w2, q2, root2 = _planted_weight(g, n2, r2)
    c = float(g.uniform(0.3, 0.95))
    core = cgauss(g, n2, n1)
    core *= c / spec(core)
    hidden = root2 @ core @ root1
    d1 = cgauss(g, n1, k1)
    d2 = cgauss(g, n2, k2)
    return {
        "d1": d1, "v1": hidden @ d1, "d2": d2, "v2": hidden.conj().T @ d2,
        "a1": a1, "a2": a2, "w1": w1, "q1": q1, "w2": w2, "q2": q2, "alpha": c * c,
    }


def run_parrott(x):
    inst = opext.ParrottInstance(
        x["d1"], x["v1"], x["d2"], x["v2"], x["a1"], x["a2"], x["alpha"], x["alpha"]
    )
    return opext.parrott_complete(inst).a


def check_parrott(x, comp):
    d1, v1, d2, v2 = x["d1"], x["v1"], x["d2"], x["v2"]
    q1, q2 = x["q1"], x["q2"]
    bound = math.sqrt(x["alpha"])
    beta = weighted_bound(comp, q2, x["w2"], q1, x["w1"])
    ranged = q2 @ (q2.conj().T @ comp @ q1) @ q1.conj().T
    return [
        ("parrott.corner1", backward(fro(comp @ d1 - v1), fro(comp) * fro(d1), fro(v1)), EQ_LIMIT),
        ("parrott.corner2", backward(fro(comp.conj().T @ d2 - v2), fro(comp) * fro(d2), fro(v2)), EQ_LIMIT),
        ("parrott.range", backward(fro(comp - ranged), fro(comp)), EQ_LIMIT),
        ("parrott.bound", max(0.0, beta - bound) / bound, BOUND_LIMIT),
    ]


def make_strong(g, dim_h, dim_k, p, q, isometric=False):
    """Factorisations through a hidden contraction X0 (S2 = X0 S1, T1 = T2 X0).

    With ``isometric`` X0 is 1.5 times an isometry instead, so that
    S2* S2 <= S1* S1 fails and no contractive solution exists.
    """
    if isometric:
        x0, c = np.linalg.qr(cgauss(g, dim_k, dim_h))[0], 1.5
    else:
        x0, c = cgauss(g, dim_k, dim_h), float(g.uniform(0.3, 0.95))
    x0 = x0 * (c / spec(x0))
    s1 = cgauss(g, dim_h, p)
    t2 = cgauss(g, q, dim_k)
    return {"s1": s1, "s2": x0 @ s1, "t1": t2 @ x0, "t2": t2}


def run_strong(x):
    inst = opext.StrongParrottInstance(x["s1"], x["s2"], x["t1"], x["t2"])
    return opext.strong_parrott(inst).a


def check_strong(x, sol):
    s1, s2, t1, t2 = x["s1"], x["s2"], x["t1"], x["t2"]
    return [
        ("strong.s", backward(fro(sol @ s1 - s2), fro(sol) * fro(s1), fro(s2)), EQ_LIMIT),
        ("strong.t", backward(fro(t2 @ sol - t1), fro(t2) * fro(sol), fro(t1)), EQ_LIMIT),
        ("strong.contraction", max(0.0, spec(sol) - 1.0), BOUND_LIMIT),
    ]


# --------------------------------------------------------------------------
# functionals: matrix algebra M_m


def make_functional(g, m, rank, symmetric=True):
    phi = herm(cgauss(g, m, m))
    basis = np.linalg.qr(cgauss(g, m, m))[0][:, :rank]
    p = herm(basis @ basis.conj().T)
    f = wishart(g, m, m) + 0.25 * np.eye(m)
    gamma = phi if symmetric else phi + 0.5j * herm(cgauss(g, m, m))
    return {"phi": phi, "gamma": gamma, "p": p, "density": f}


def run_functional(x):
    pf = opext.PartialFunctional(opext.LeftIdeal(x["p"]), x["gamma"])
    g_min, g_max, alpha = opext.extend_functional(pf, opext.PsdMatrix(x["density"]))
    return alpha, g_min.density.a, g_max.density.a


def run_cstar(x):
    pf = opext.PartialFunctional(opext.LeftIdeal(x["p"]), x["gamma"])
    decision = opext.cstar_extendibility(
        pf, extension=opext.FunctionalMatrix(x["phi"]), rng=x["sampler"]
    )
    return decision


def _inverse_root(f):
    w, v = np.linalg.eigh(herm(f))
    return (v / np.sqrt(w)) @ v.conj().T, (v * np.sqrt(w)) @ v.conj().T


def check_extensions(x, alpha, g_min, g_max, density, tag):
    """Ideal agreement, order, and the f-bound of both extremal extensions.

    For f(x) = tr(F x) and a = aP, the bound of g_0 is ||Q* F^-1/2 Phi F^-1/2||
    with Q an orthonormal basis of ran(F^1/2 P); each extremal extension
    has the same bound over the whole algebra.
    """
    p, phi = x["p"], x["phi"]
    inv_root, root = _inverse_root(density)
    exact = spec(orth(root @ p).conj().T @ inv_root @ phi @ inv_root)
    out = [
        (f"{tag}.alpha", abs(alpha - exact) / max(exact, 1e-300), BOUND_LIMIT),
        (f"{tag}.order", order_violation(g_min, g_max), ORDER_LIMIT),
    ]
    for name, e in (("min", g_min), ("max", g_max)):
        out.append((f"{tag}.ideal_{name}", backward(fro(p @ (e - phi)), fro(p @ e), fro(p @ phi)), EQ_LIMIT))
        out.append((f"{tag}.hermitian_{name}", backward(fro(e - e.conj().T), fro(e)), EQ_LIMIT))
        drift = abs(spec(inv_root @ e @ inv_root) - alpha) / max(alpha, 1e-300)
        out.append((f"{tag}.bound_{name}", drift, BOUND_LIMIT))
    return out


def check_cstar_decision(x, extendible, alpha, g_min, g_max, density, ok4, violations, measured):
    out = check_extensions(x, alpha, g_min, g_max, density, "cstar")
    out.append(("cstar.extendible", 0.0 if extendible is True else 1.0, 0.5))
    # the supplied extension is hermitian, so |Phi| is the right positive functional
    w, v = np.linalg.eigh(herm(x["phi"]))
    expected = (v * np.abs(w)) @ v.conj().T
    out.append(("cstar.density", backward(fro(density - expected), fro(expected)), EQ_LIMIT))
    if measured is not None:
        # a supplied hermitian extension satisfies the constant-4 bound
        held = ok4 is True and violations == 0 and 0.0 < measured <= 4.0
        out.append(("cstar.constant4", 0.0 if held else 1.0, 0.5))
    return out


# --------------------------------------------------------------------------
# workloads


class Op:
    """One prepared op: timed callable plus the check of its result."""

    __slots__ = ("kind", "inputs", "run", "check")

    def __init__(self, kind, inputs, run, check):
        self.kind, self.inputs, self.run, self.check = kind, inputs, run, check


# Feasible planted inputs on which the program fails with one BLAS thread,
# per workload, as (label, kind, key, sizes): the input is
# MAKERS[kind][0](op_rng(*key), *sizes), key being (seed, stream, index)
# of the op that first showed the failure.  All have a domain close to or
# above the rank of the weight (for functionals: an ideal of rank m-1),
# which the timed draws leave out; each run replays its workload's inputs
# once, untimed and not counted in ``failed``, and prints whether they
# still fail.
#  - k > r: the Gram matrix inside numkit.pinv (called from
#    kvn._extend_from_span) is rank-deficient, numpy's gesdd does not
#    converge and LinAlgError escapes; with two BLAS threads it converges.
#  - k ~ r: the Gram matrix has eigenvalues near the rank cutoff, and a
#    feasible input is rejected as failing the restriction condition.
#  - rank m-1: the density extend_functional reads off the GNS extension
#    misses the hermiticity tolerance (asymmetry 2.7e-9).
KNOWN_DEFECTS = {
    "operators": (
        ("kvn k>r: LinAlgError from gesdd in numkit.pinv", "kvn", (227, 100, 148), (160, 140, 107)),
        ("kvn k=r: RestrictionConditionFailed on a feasible input", "kvn", (201, 100, 100), (160, 159, 159)),
        ("sa-ext k>r: LinAlgError from gesdd in numkit.pinv", "sa-ext", (1, 100, 245), (160, 131, 98)),
        ("sa-ext k~r: NumericalFailure in extend_symmetric", "sa-ext", (105, 100, 61), (160, 159, 160)),
        ("parrott k1>r1: LinAlgError from gesdd in numkit.pinv", "parrott", (206, 100, 102),
         (101, 59, 96, 40, 50, 34)),
    ),
    "functionals": (
        ("functional-ext rank m-1: NotHermitian from extend_functional", "functional-ext", (27, 200, 15), (6, 5)),
    ),
}
MAKERS = {
    "kvn": (make_kvn, run_kvn, check_kvn),
    "sa-ext": (make_sa, run_sa, lambda x, res: check_sa(x, *res)),
    "parrott": (make_parrott, run_parrott, check_parrott),
    "functional-ext": (make_functional, run_functional,
                       lambda x, r: check_extensions(x, r[0], r[1], r[2], x["density"], "functional")),
}


def replay_defect(defect):
    """Outcome of one recorded failing input: ``still fails: ...`` or ``passes``."""
    label, kind, key, sizes = defect
    make, run, check = MAKERS[kind]
    x = make(op_rng(*key), *sizes)
    where = f"{label} (seed {key[0]} op {key[2]}, sizes {sizes})"
    try:
        result = run(x)
    except Exception as exc:  # the recorded failure
        return f"{where}: still fails: {type(exc).__name__}: {exc}"[:300]
    bad = [name for name, resid, limit in check(x, result) if not resid <= limit]
    return f"{where}: " + (f"still fails: wrong result ({', '.join(bad)})" if bad else "passes")


class Operators:
    """Round-robin kvn / sa-ext / parrott / strong-parrott at ambient n = 160.

    Why: LAPACK-bound.  numkit, kvn, sa_ext and parrott do almost all the
    work and cli, serialize and func_ext none, so repeated lifts and
    re-validation of PSD-by-construction results show here.  One size on
    purpose: mixed sizes put per-kind medians in the gaps between size
    clusters.  Domain dimensions stay at or below half the weight's rank:
    where they come close to it or exceed it, the program fails on some
    feasible inputs (see KNOWN_DEFECTS), and a timed op must not fail.
    """

    name = "operators"
    kinds = ("kvn", "sa-ext", "parrott", "strong-parrott")
    needs_cli = False
    trace_rate = 6.0  # traced ops per second of --seconds (a fixed count, see run.py)
    cycle = 4
    batch = 1  # ops prepared at a time
    warmup = 4  # untimed ops during set-up

    def __init__(self, seed, smoke=False, workdir=None):
        self.seed = seed
        self.n = 12 if smoke else 160

    def op(self, index, stream=0):
        n, seed = self.n, self.seed
        kind = self.kinds[index % 4]
        j = index // 4 + (10_000 if stream else 0)
        g = op_rng(seed, 100 + stream, index)
        if kind in ("kvn", "sa-ext"):
            # weight (or total) rank r in [n/2, n], domain dim k in [1, r/2]
            u = sweep(seed, 1 + (kind == "sa-ext"), j, 2)
            r = pick(u[1], n // 2, n)
            k = pick(u[0], 1, max(1, r // 2))
            if kind == "kvn":
                x = make_kvn(g, n, k, r)
                return Op(kind, x, run_kvn, lambda res, x=x: check_kvn(x, res))
            x = make_sa(g, n, k, r)
            return Op(kind, x, run_sa, lambda res, x=x: check_sa(x, *res))
        if kind == "parrott":
            u = sweep(seed, 3, j, 5)
            n1 = pick(u[0], n // 4, 3 * n // 4)
            n2 = n - n1
            r1, r2 = pick(u[3], n1 // 2, n1), pick(u[4], n2 // 2, n2)
            x = make_parrott(g, n1, n2, pick(u[1], 1, max(1, r1 // 2)), pick(u[2], 1, max(1, r2 // 2)), r1, r2)
            return Op(kind, x, run_parrott, lambda res, x=x: check_parrott(x, res))
        u = sweep(seed, 4, j, 3)
        n1 = pick(u[0], n // 4, 3 * n // 4)
        n2 = n - n1
        x = make_strong(g, n1, n2, pick(u[1], 1, n1 - 1), pick(u[2], 1, n2 - 1))
        return Op(kind, x, run_strong, lambda res, x=x: check_strong(x, res))


class Functionals:
    """extend_functional, extend_functional, cstar_extendibility at algebra size m = 6.

    Why: bound by the Python loops of func_ext (m^4 trace pairs in the
    symmetry test, which the cstar path runs twice, and the m^2-column
    Gram-Schmidt) plus cstar's vectorised 10 000-sample check.  numkit
    does little and the CLI nothing, so the functional pipeline's own
    cost shows here and nowhere else.  Two extensions per cstar check,
    not one: a cstar check costs about four extensions, and at 1:1 the
    overall median would fall in the gap between the two kinds.  The ideal
    is never of rank m-1, where a timed op could fail.
    """

    name = "functionals"
    kinds = ("functional-ext", "cstar-check")
    needs_cli = False
    trace_rate = 5.0
    cycle = 3
    batch = 1
    warmup = 3

    def __init__(self, seed, smoke=False, workdir=None):
        self.seed = seed
        self.m = 3 if smoke else 6

    def op(self, index, stream=0):
        m, seed = self.m, self.seed
        cstar = index % 3 == 2
        kind = self.kinds[cstar]
        j = (index // 3 if cstar else 2 * (index // 3) + index % 3) + (10_000 if stream else 0)
        g = op_rng(seed, 200 + stream, index)
        # ideal rank in [1, m-2]: at m-1 the program fails on some inputs (see KNOWN_DEFECTS)
        x = make_functional(g, m, pick(sweep(seed, 21 + cstar, j, 1)[0], 1, max(1, m - 2)))
        if not cstar:
            return Op(kind, x, run_functional,
                      lambda r, x=x: check_extensions(x, r[0], r[1], r[2], x["density"], "functional"))
        x["sampler"] = op_rng(seed, 300 + stream, index)

        def check(d, x=x):
            return check_cstar_decision(
                x, d.extendible, d.alpha, d.g_min.density.a, d.g_max.density.a,
                d.density.density.a, d.constant4_ok, d.violations, d.measured_bound,
            )

        return Op(kind, x, run_cstar, check)


# --------------------------------------------------------------------------
# cli-small: instance files through opext.cli.main


def encode(a) -> list:
    """Matrix as rows of [re, im] pairs, the documented instance format."""
    a = np.asarray(a, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def decode(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128)


def _null_vector(g, a):
    """Random unit vector in the numerical kernel of ``a``."""
    _, s, vh = np.linalg.svd(a)
    rank = int(np.count_nonzero(s > 1e-10 * max(a.shape) * s[0])) if s.size else 0
    tail = vh[rank:].conj().T
    v = tail @ cgauss(g, tail.shape[1], 1)
    return v / fro(v)


def _cli_kvn(g, n, k, r, feasible):
    if feasible:
        x = make_kvn(g, n, k, r)
    else:
        # B of rank < k makes D*BD singular; add values that live on its
        # kernel but stay orthogonal to the domain, so D*G is unchanged
        # and PSD while the restriction condition fails.
        b = wishart(g, n, r)
        d = cgauss(g, n, k)
        kernel = _null_vector(g, b @ d)
        z = _null_vector(g, d.conj().T)
        v = b @ d + (fro(b @ d) + 1.0) * (z @ kernel.conj().T)
        x = {"total": b, "d": d, "v": v}
    payload = {"n": n, "domain_basis": encode(x["d"]), "values": encode(x["v"])}
    return x, payload


def _cli_sa(g, n, k, r, feasible):
    x = make_sa(g, n, k, r)
    if not feasible:
        # a value component in ker A that is orthogonal to the domain keeps
        # D*V Hermitian but leaves ran A: no finite weighted bound
        z = _null_vector(g, np.vstack([x["q"].conj().T, x["d"].conj().T]))
        x["v"] = x["v"] + (fro(x["v"]) + 1.0) * (z @ cgauss(g, 1, k))
    payload = {
        "n": n, "domain_basis": encode(x["d"]), "values": encode(x["v"]), "weight": encode(x["weight"]),
    }
    return x, payload


def _cli_parrott(g, n1, n2, feasible):
    k1, k2 = (int(g.integers(1, max(1, n - 1) + 1)) for n in (n1, n2))
    r1, r2 = (int(g.integers((n + 1) // 2, n + 1)) for n in (n1, n2))
    x = make_parrott(g, n1, n2, k1, k2, r1, r2)
    if not feasible:
        x["v2"] = x["v2"] + (fro(x["v2"]) + 1.0) * cgauss(g, *x["v2"].shape)
    payload = {
        "n1": n1, "n2": n2,
        "domain1": encode(x["d1"]), "values1": encode(x["v1"]),
        "domain2": encode(x["d2"]), "values2": encode(x["v2"]),
        "weight1": encode(x["a1"]), "weight2": encode(x["a2"]),
        "alpha1": x["alpha"], "alpha2": x["alpha"],
    }
    return x, payload


class CliSmall:
    """All six kinds through ``opext.cli.main`` on small instance files.

    Why: at n <= 8 and m <= 3 the cost is per-call overhead -- argparse
    tree build, JSON decode, canonical dump, validation of tiny matrices
    -- on the same numkit/kvn/sa_ext layers as ``operators``, and one
    file in six is infeasible by construction, so the typed-error paths
    run too.  A change that trades per-call overhead for large-n speed,
    or the reverse, shows against ``operators``.  Files are written with
    stdlib json before they are timed.
    """

    name = "cli-small"
    kinds = ("kvn", "sa-ext", "parrott", "strong-parrott", "functional-ext", "cstar-check")
    needs_cli = True
    trace_rate = 50.0
    cycle = 36
    batch = 36  # files are written a cycle at a time, outside any timed region
    warmup = 12
    expected_error = {
        "kvn": "RestrictionConditionFailed",
        "sa-ext": "NotABounded",
        "parrott": "IncompatibleInstance",
        "strong-parrott": "HypothesisViolated",
        "functional-ext": "NotSymmetric",
        "cstar-check": "NotSymmetric",
    }

    def __init__(self, seed, smoke=False, workdir="."):
        self.seed = seed
        self.workdir = workdir
        self.out_path = os.path.join(workdir, "result.json")

    def instance(self, index, stream=0):
        """(kind, planted data, payload, feasible) of op ``index``."""
        seed = self.seed
        kind_index = index % 6
        kind = self.kinds[kind_index]
        round_ = index // 6
        feasible = round_ % 6 != kind_index
        j = round_ + (10_000 if stream else 0)
        g = op_rng(seed, 400 + stream, index)
        u = sweep(seed, 31 + kind_index, j, 4)
        if kind == "kvn":
            n = pick(u[0], 2 if feasible else 3, 8)
            if feasible:
                k, r = pick(u[1], 1, n - 1), pick(u[2], (n + 1) // 2, n)
            else:
                k = pick(u[1], 2, n - 1)
                r = pick(u[2], 1, k - 1)
            x, payload = _cli_kvn(g, n, k, r, feasible)
        elif kind == "sa-ext":
            n = pick(u[0], 2 if feasible else 3, 8)
            if feasible:
                k, r = pick(u[1], 1, n - 1), pick(u[2], (n + 1) // 2, n)
            else:
                r = pick(u[2], 1, n - 2)
                k = pick(u[1], 1, n - r - 1)
            x, payload = _cli_sa(g, n, k, r, feasible)
        elif kind == "parrott":
            x, payload = _cli_parrott(g, pick(u[0], 1, 4), pick(u[1], 1, 4), feasible)
        elif kind == "strong-parrott":
            dim_h = pick(u[0], 1, 4)
            dim_k = pick(u[1], 1 if feasible else dim_h, 4)
            x = make_strong(g, dim_h, dim_k, pick(u[2], 1, dim_h), pick(u[3], 1, dim_k), isometric=not feasible)
            payload = {key: encode(x[key]) for key in ("s1", "s2", "t1", "t2")}
        else:
            m = pick(u[0], 2, 3)
            x = make_functional(g, m, pick(u[1], 1, m - 1), symmetric=feasible)
            payload = {"m": m, "projection": encode(x["p"]), "gamma": encode(x["gamma"])}
            if kind == "functional-ext":
                payload["density"] = encode(x["density"])
            elif round_ % 2 == 0:
                # fewer samples than the default 10 000: at the default the
                # sampling would dominate this per-call-overhead workload
                # (functionals measures it) and form its own latency cluster
                payload["extension"] = encode(x["phi"])
                payload["samples"] = CLI_SAMPLES
                x["extension"] = True
        return kind, x, payload, feasible

    def op(self, index, stream=0):
        """Write op ``index``'s instance file; returns the Op that runs it."""
        kind, x, payload, feasible = self.instance(index, stream)
        path = os.path.join(self.workdir, f"in-{stream}-{index}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"kind": kind, "payload": payload}, fh)
        argv = [kind, path, "--out", self.out_path]
        out_path = self.out_path

        def run(_x, argv=argv):
            return opext.cli.main(argv)

        def check(code, kind=kind, x=x, feasible=feasible, path=path):
            return self._check(kind, x, feasible, code, path, out_path)

        return Op(kind, x, run, check)

    def _check(self, kind, x, feasible, code, in_path, out_path):
        try:
            with open(out_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        finally:
            for p in (out_path, in_path):
                if os.path.exists(p):
                    os.remove(p)
        if not feasible:
            wrong = code != 1 or doc.get("status") != "infeasible" or (
                (doc.get("error") or {}).get("type") != self.expected_error[kind]
            )
            return [("cli.infeasible", 1.0 if wrong else 0.0, 0.5)]
        if code != 0 or doc.get("status") != "ok":
            return [("cli.status", 1.0, 0.5)]
        out = doc["outputs"]
        if kind == "kvn":
            return check_kvn(x, decode(out["extension"]))
        if kind == "sa-ext":
            return check_sa(x, out["alpha"], decode(out["s_min"]), decode(out["s_max"]))
        if kind == "parrott":
            return check_parrott(x, decode(out["completion"]))
        if kind == "strong-parrott":
            return check_strong(x, decode(out["solution"]))
        if kind == "functional-ext":
            return check_extensions(
                x, out["alpha"], decode(out["g_min"]), decode(out["g_max"]), x["density"], "functional"
            )
        if x.get("extension"):
            return check_cstar_decision(
                x, out["extendible"], out["alpha"], decode(out["g_min"]), decode(out["g_max"]),
                decode(out["density"]), out["constant4_ok"], out["violations"], out["measured_bound"],
            )
        trace = np.eye(x["p"].shape[0])
        checks = check_extensions(x, out["alpha"], decode(out["g_min"]), decode(out["g_max"]), trace, "cstar")
        checks.append(("cstar.extendible", 0.0 if out["extendible"] is True else 1.0, 0.5))
        checks.append(("cstar.density", backward(fro(decode(out["density"]) - trace), fro(trace)), EQ_LIMIT))
        return checks


WORKLOADS = {cls.name: cls for cls in (Operators, Functionals, CliSmall)}
