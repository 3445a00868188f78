"""Batch command-line front end.

Subcommands mirror the library: one per problem kind (``kvn``,
``sa-ext``, ``parrott``, ``strong-parrott``, ``functional-ext``,
``cstar-check``) reading an instance file and writing a result file,
plus ``gen`` (emit a reproducible random instance file) and ``verify``
(generate many random instances and check every module invariant).

Exit codes: 0 success, 1 infeasible (a mathematical hypothesis of the
problem fails), 2 invalid input (malformed file, wrong shapes, bad
flags), 3 numerical failure (including verify finding any violation).

Result files are canonical JSON (sorted keys, 17-significant-digit
floats), so identical inputs and flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    IncompatibleInstance,
    Infeasible,
    InvalidDims,
    NotABounded,
    NotFBounded,
    NotHermitian,
    NotPsd,
    NotSymmetric,
    NumericalFailure,
    OpExtError,
    RestrictionConditionFailed,
)
from .func_ext import (
    LeftIdeal,
    PartialFunctional,
    _ideal_agreement,
    cstar_extendibility,
    extend_functional,
    f_bound,
    functional_interval_member,
    is_symmetric_on_ideal,
)
from .kvn import HilbertLift, PartialPositiveOperator, _block_lift, check_restriction, hilbert_lift, kvn_extend
from .numkit import HermitianMatrix, PsdMatrix, Tolerances, loewner_leq
from .oracle import Rng, random_instance_with_witness
from .parrott import (
    ParrottInstance,
    StrongParrottInstance,
    _compatible,
    parrott_complete,
    strong_parrott,
)
from .sa_ext import (
    SymmetricPartialOperator,
    _alpha_on_lift,
    _extend_on_lift,
    in_interval,
)
from .serialize import decode_int, decode_matrix, decode_real, dumps_canonical, encode_matrix

__all__ = ["main", "console_main"]

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL_FAILURE = 3

RUN_KINDS = ("kvn", "sa-ext", "parrott", "strong-parrott", "functional-ext", "cstar-check")

# Failures of a mathematical hypothesis: the input parsed fine but the
# problem it describes has no solution of the requested form.
_INFEASIBLE_ERRORS = (
    NotHermitian,
    NotPsd,
    RestrictionConditionFailed,
    NotABounded,
    NotFBounded,
    NotSymmetric,
    IncompatibleInstance,
    HypothesisViolated,
    Infeasible,
)

_ORACLE_KIND = {
    "kvn": "kvn",
    "sa-ext": "sa_ext",
    "parrott": "parrott",
    "strong-parrott": "strong_parrott",
    "functional-ext": "functional",
    "cstar-check": "functional",
}

_DEFAULT_DIMS = {
    "kvn": (4,),
    "sa-ext": (4,),
    "parrott": (3, 2),
    "strong-parrott": (4, 3, 2),
    "functional-ext": (3,),
    "cstar-check": (3,),
}


class _InputError(ValueError):
    """Structural problem with the instance file or flags."""


# --------------------------------------------------------------------------
# payload parsing (shape checks only; math happens in the run phase)


def _payload_matrix(payload: dict, key: str, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    if key not in payload:
        raise _InputError(f"payload is missing {key!r}")
    m = decode_matrix(payload[key], what=key)
    if rows is not None and m.shape[0] != rows:
        raise _InputError(f"{key}: expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise _InputError(f"{key}: expected {cols} columns, got {m.shape[1]}")
    return m


def _payload_int(payload: dict, key: str, minimum: int = 1) -> int:
    if key not in payload:
        raise _InputError(f"payload is missing {key!r}")
    try:
        value = decode_int(payload[key], what=key)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if value < minimum:
        raise _InputError(f"{key}: must be at least {minimum}, got {value}")
    return value


def _parse_kvn(payload: dict) -> dict:
    n = _payload_int(payload, "n")
    d = _payload_matrix(payload, "domain_basis", rows=n)
    g = _payload_matrix(payload, "values", rows=n, cols=d.shape[1])
    if d.shape[1] < 1:
        raise _InputError("domain_basis: needs at least one column")
    return {"n": n, "domain_basis": d, "values": g}


def _parse_sa_ext(payload: dict) -> dict:
    n = _payload_int(payload, "n")
    d = _payload_matrix(payload, "domain_basis", rows=n)
    v = _payload_matrix(payload, "values", rows=n, cols=d.shape[1])
    w = _payload_matrix(payload, "weight", rows=n, cols=n)
    if d.shape[1] < 1:
        raise _InputError("domain_basis: needs at least one column")
    data = {"n": n, "domain_basis": d, "values": v, "weight": w}
    if "probe" in payload:
        data["probe"] = _payload_matrix(payload, "probe", rows=n, cols=n)
    return data


def _parse_parrott(payload: dict) -> dict:
    n1 = _payload_int(payload, "n1")
    n2 = _payload_int(payload, "n2")
    d1 = _payload_matrix(payload, "domain1", rows=n1)
    v1 = _payload_matrix(payload, "values1", rows=n2, cols=d1.shape[1])
    d2 = _payload_matrix(payload, "domain2", rows=n2)
    v2 = _payload_matrix(payload, "values2", rows=n1, cols=d2.shape[1])
    w1 = _payload_matrix(payload, "weight1", rows=n1, cols=n1)
    w2 = _payload_matrix(payload, "weight2", rows=n2, cols=n2)
    try:
        a1 = decode_real(payload.get("alpha1", 1.0), what="alpha1")
        a2 = decode_real(payload.get("alpha2", 1.0), what="alpha2")
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if a1 < 0 or a2 < 0:
        raise _InputError("alpha1 and alpha2 must be nonnegative")
    return {
        "n1": n1, "n2": n2, "domain1": d1, "values1": v1, "domain2": d2,
        "values2": v2, "weight1": w1, "weight2": w2, "alpha1": a1, "alpha2": a2,
    }


def _parse_strong_parrott(payload: dict) -> dict:
    s1 = _payload_matrix(payload, "s1")
    s2 = _payload_matrix(payload, "s2", cols=s1.shape[1])
    t2 = _payload_matrix(payload, "t2", cols=s2.shape[0])
    t1 = _payload_matrix(payload, "t1", rows=t2.shape[0], cols=s1.shape[0])
    return {"s1": s1, "s2": s2, "t1": t1, "t2": t2}


def _parse_functional(payload: dict, *, for_cstar: bool) -> dict:
    m = _payload_int(payload, "m")
    p = _payload_matrix(payload, "projection", rows=m, cols=m)
    gamma = _payload_matrix(payload, "gamma", rows=m, cols=m)
    data = {"m": m, "projection": p, "gamma": gamma}
    if "density" in payload:
        data["density"] = _payload_matrix(payload, "density", rows=m, cols=m)
    elif not for_cstar:
        raise _InputError("payload is missing 'density'")
    if for_cstar and "extension" in payload:
        data["extension"] = _payload_matrix(payload, "extension", rows=m, cols=m)
    if for_cstar and "samples" in payload:
        data["samples"] = _payload_int(payload, "samples")
    return data


_PARSERS = {
    "kvn": _parse_kvn,
    "sa-ext": _parse_sa_ext,
    "parrott": _parse_parrott,
    "strong-parrott": _parse_strong_parrott,
    "functional-ext": lambda payload: _parse_functional(payload, for_cstar=False),
    "cstar-check": lambda payload: _parse_functional(payload, for_cstar=True),
}


# --------------------------------------------------------------------------
# run phase: build typed objects and compute (math errors map to exit 1)


def _run_kvn(data: dict, tol: Tolerances, args) -> tuple[dict, dict]:
    op = PartialPositiveOperator(data["domain_basis"], data["values"], tol)
    ext = kvn_extend(op, tol)
    resid = float(np.linalg.norm(ext.a @ data["domain_basis"] - data["values"]))
    eigs = np.linalg.eigvalsh(ext.a) if ext.rows else np.zeros(0)
    return (
        {"extension": ext.a},
        {
            "value_residual": resid,
            "min_eigenvalue": float(eigs.min()) if eigs.size else 0.0,
            "restriction_ok": check_restriction(op, tol),
        },
    )


def _run_sa_ext(data: dict, tol: Tolerances, args) -> tuple[dict, dict]:
    op = SymmetricPartialOperator(data["domain_basis"], data["values"], tol)
    lift = hilbert_lift(PsdMatrix(data["weight"], tol), tol)
    interval = _extend_on_lift(op, lift, tol)
    aw, d, v = lift.weight.a, data["domain_basis"], data["values"]
    diagnostics = {}
    for name, s in (("min", interval.s_min), ("max", interval.s_max)):
        diagnostics[f"extend_residual_{name}"] = float(np.linalg.norm(aw @ (s.a @ d) - aw @ v))
        diagnostics[f"alpha_drift_{name}"] = float(abs(_alpha_on_lift(s, lift, tol) - interval.alpha))
    diagnostics["order_ok"] = loewner_leq(interval.s_min, interval.s_max, tol)
    outputs = {"alpha": interval.alpha, "s_min": interval.s_min.a, "s_max": interval.s_max.a}
    if "probe" in data:
        outputs["probe_in_interval"] = in_interval(data["probe"], interval, tol)
    return outputs, diagnostics


def _completion_norm(inst: ParrottInstance, x: np.ndarray, lift1: HilbertLift, lift2: HilbertLift,
                     tol: Tolerances) -> float:
    """Cross-weighted norm of a completion X: the bound of [[0, X*], [X, 0]] against diag(A1, A2)."""
    n1 = inst.dim1
    stacked = np.zeros((n1 + inst.dim2,) * 2, dtype=np.complex128)
    stacked[n1:, :n1] = x
    stacked[:n1, n1:] = x.conj().T
    return _alpha_on_lift(HermitianMatrix(stacked, tol), _block_lift(lift1, lift2), tol)


def _run_parrott(data: dict, tol: Tolerances, args) -> tuple[dict, dict]:
    inst = ParrottInstance(
        data["domain1"], data["values1"], data["domain2"], data["values2"],
        data["weight1"], data["weight2"], data["alpha1"], data["alpha2"], tol,
    )
    endpoint = getattr(args, "endpoint", "min")
    completion = parrott_complete(inst, tol, endpoint=endpoint).a
    lift1, lift2 = hilbert_lift(inst.weight1, tol), hilbert_lift(inst.weight2, tol)
    norm = _completion_norm(inst, completion, lift1, lift2, tol)
    bound = float(np.sqrt(max(inst.alpha1, inst.alpha2)))
    return (
        {"completion": completion, "weighted_norm": norm, "norm_bound": bound},
        {
            "corner1_residual": float(
                np.linalg.norm(inst.weight2.a @ (completion @ inst.domain1.a - inst.values1.a))
            ),
            "corner2_residual": float(
                np.linalg.norm(inst.weight1.a @ (completion.conj().T @ inst.domain2.a - inst.values2.a))
            ),
            "bound_ok": bool(norm <= bound + tol.eq * (1.0 + bound)),
            "compatible": _compatible(inst, lift1, lift2, tol),
        },
    )


def _run_strong_parrott(data: dict, tol: Tolerances, args) -> tuple[dict, dict]:
    inst = StrongParrottInstance(data["s1"], data["s2"], data["t1"], data["t2"])
    x = strong_parrott(inst, tol).a
    norm = float(np.linalg.svd(x, compute_uv=False)[0]) if x.size else 0.0
    return (
        {"solution": x, "norm": norm},
        {
            "s_residual": float(np.linalg.norm(x @ inst.s1.a - inst.s2.a)),
            "t_residual": float(np.linalg.norm(inst.t2.a @ x - inst.t1.a)),
        },
    )


def _run_functional_ext(data: dict, tol: Tolerances, args) -> tuple[dict, dict]:
    pf = PartialFunctional(LeftIdeal(data["projection"], tol), data["gamma"])
    density = PsdMatrix(data["density"], tol)
    g_min, g_max, alpha = extend_functional(pf, density, tol)
    return (
        {"alpha": alpha, "g_min": g_min.density.a, "g_max": g_max.density.a},
        {
            "ideal_agreement_min": _ideal_agreement(pf, g_min.density.a),
            "ideal_agreement_max": _ideal_agreement(pf, g_max.density.a),
            "order_ok": functional_interval_member(g_min, g_min, g_max, tol),
        },
    )


def _run_cstar_check(data: dict, tol: Tolerances, args) -> tuple[dict, dict]:
    pf = PartialFunctional(LeftIdeal(data["projection"], tol), data["gamma"])
    samples = getattr(args, "samples", None)
    if samples is None:
        samples = data.get("samples", 10_000)
    decision = cstar_extendibility(
        pf,
        tol,
        density=data.get("density"),
        extension=data.get("extension"),
        samples=int(samples),
        rng=Rng(getattr(args, "seed", 0) or 0),
    )
    outputs = {
        "extendible": decision.extendible,
        "alpha": decision.alpha,
        "g_min": decision.g_min.density.a,
        "g_max": decision.g_max.density.a,
        "density": decision.density.density.a,
    }
    if decision.measured_bound is not None:
        outputs["measured_bound"] = decision.measured_bound
        outputs["violations"] = decision.violations
        outputs["constant4_ok"] = decision.constant4_ok
    return outputs, {
        "ideal_agreement_min": _ideal_agreement(pf, decision.g_min.density.a),
        "ideal_agreement_max": _ideal_agreement(pf, decision.g_max.density.a),
        "order_ok": functional_interval_member(decision.g_min, decision.g_min, decision.g_max, tol),
    }


_RUNNERS = {
    "kvn": _run_kvn,
    "sa-ext": _run_sa_ext,
    "parrott": _run_parrott,
    "strong-parrott": _run_strong_parrott,
    "functional-ext": _run_functional_ext,
    "cstar-check": _run_cstar_check,
}


# --------------------------------------------------------------------------
# payload encoding for gen


def _encode_instance(kind: str, instance) -> dict:
    if kind == "kvn":
        return {
            "n": instance.ambient_dim,
            "domain_basis": encode_matrix(instance.domain_basis.a),
            "values": encode_matrix(instance.values.a),
        }
    if kind == "sa-ext":
        op, weight = instance.operator, instance.weight
        return {
            "n": op.domain_basis.rows,
            "domain_basis": encode_matrix(op.domain_basis.a),
            "values": encode_matrix(op.values.a),
            "weight": encode_matrix(weight.a),
        }
    if kind == "parrott":
        return {
            "n1": instance.dim1,
            "n2": instance.dim2,
            "domain1": encode_matrix(instance.domain1.a),
            "values1": encode_matrix(instance.values1.a),
            "domain2": encode_matrix(instance.domain2.a),
            "values2": encode_matrix(instance.values2.a),
            "weight1": encode_matrix(instance.weight1.a),
            "weight2": encode_matrix(instance.weight2.a),
            "alpha1": instance.alpha1,
            "alpha2": instance.alpha2,
        }
    if kind == "strong-parrott":
        return {
            "s1": encode_matrix(instance.s1.a),
            "s2": encode_matrix(instance.s2.a),
            "t1": encode_matrix(instance.t1.a),
            "t2": encode_matrix(instance.t2.a),
        }
    if kind == "functional-ext":
        return {
            "m": instance.ideal.size,
            "projection": encode_matrix(instance.ideal.projection.a),
            "gamma": encode_matrix(instance.partial.gamma.a),
            "density": encode_matrix(instance.density.a),
        }
    if kind == "cstar-check":
        return {
            "m": instance.ideal.size,
            "projection": encode_matrix(instance.ideal.projection.a),
            "gamma": encode_matrix(instance.partial.gamma.a),
            "extension": encode_matrix(instance.source.density.a),
        }
    raise _InputError(f"unknown kind {kind!r}")


# --------------------------------------------------------------------------
# verify batteries


def _verify_one(kind: str, rng: Rng, tol: Tolerances, dims: tuple[int, ...] | None) -> bool:
    gen = rng.generator()
    oracle_kind = _ORACLE_KIND[kind]
    if dims is None:
        if oracle_kind == "kvn" or oracle_kind == "sa_ext":
            n = int(gen.integers(1, 9))
            dims = (n, int(gen.integers(1, n + 1)))
        elif oracle_kind == "parrott":
            dims = (int(gen.integers(1, 6)), int(gen.integers(1, 6)))
        elif oracle_kind == "strong_parrott":
            h, k = int(gen.integers(1, 7)), int(gen.integers(1, 7))
            dims = (h, k, int(gen.integers(1, h + 1)), int(gen.integers(1, k + 1)))
        else:
            dims = (int(gen.integers(1, 5)),)
    instance, witness = random_instance_with_witness(oracle_kind, dims, rng.split(0))

    if oracle_kind == "kvn":
        if not check_restriction(instance, tol):
            return False
        ext = kvn_extend(instance, tol)
        d, g = instance.domain_basis.a, instance.values.a
        if np.linalg.norm(ext.a @ d - g) > 1e-8 * (1 + np.linalg.norm(g)):
            return False
        return loewner_leq(ext, witness["total"], tol)

    if oracle_kind == "sa_ext":
        lift = hilbert_lift(instance.weight, tol)
        interval = _extend_on_lift(instance.operator, lift, tol)
        aw = instance.weight.a
        d, v = instance.operator.domain_basis.a, instance.operator.values.a
        for s in (interval.s_min, interval.s_max):
            if np.linalg.norm(aw @ (s.a @ d) - aw @ v) > 1e-7 * (1 + np.linalg.norm(aw @ v)):
                return False
            if abs(_alpha_on_lift(s, lift, tol) - interval.alpha) > 1e-7 * (1 + interval.alpha):
                return False
        if not loewner_leq(interval.s_min, interval.s_max, tol):
            return False
        mid = (interval.s_min.a + interval.s_max.a) / 2.0
        return in_interval(mid, interval, tol)

    if oracle_kind == "parrott":
        lift1, lift2 = hilbert_lift(instance.weight1, tol), hilbert_lift(instance.weight2, tol)
        if not _compatible(instance, lift1, lift2, tol):
            return False
        bound = float(np.sqrt(max(instance.alpha1, instance.alpha2)))
        for endpoint in ("min", "max", "mid"):
            x = parrott_complete(instance, tol, endpoint=endpoint).a
            if (
                np.linalg.norm(instance.weight2.a @ (x @ instance.domain1.a - instance.values1.a))
                > 1e-7 * (1 + np.linalg.norm(instance.values1.a))
            ):
                return False
            if (
                np.linalg.norm(instance.weight1.a @ (x.conj().T @ instance.domain2.a - instance.values2.a))
                > 1e-7 * (1 + np.linalg.norm(instance.values2.a))
            ):
                return False
            if _completion_norm(instance, x, lift1, lift2, tol) > bound + 1e-7 * (1 + bound):
                return False
        return True

    if oracle_kind == "strong_parrott":
        x = strong_parrott(instance, tol).a
        s1, s2, t1, t2 = instance.s1.a, instance.s2.a, instance.t1.a, instance.t2.a
        if x.size and np.linalg.svd(x, compute_uv=False)[0] > 1 + 1e-8:
            return False
        if np.linalg.norm(x @ s1 - s2) > 1e-7 * (1 + np.linalg.norm(s1)):
            return False
        return bool(np.linalg.norm(t2 @ x - t1) <= 1e-7 * (1 + np.linalg.norm(t2)))

    # functional kinds
    pf = instance.partial
    if not is_symmetric_on_ideal(pf, tol):
        return False
    if kind == "cstar-check":
        decision = cstar_extendibility(
            pf, tol, extension=instance.source, samples=1000, rng=rng.split(1)
        )
        if not (decision.extendible and decision.constant4_ok and decision.violations == 0):
            return False
        g_min, g_max, alpha = decision.g_min, decision.g_max, decision.alpha
    else:
        g_min, g_max, alpha = extend_functional(pf, instance.density, tol)
        if abs(f_bound(pf, instance.density, tol) - alpha) > 1e-7 * (1 + alpha):
            return False
    scale = 1e-7 * (1 + np.linalg.norm(pf.gamma.a))
    if _ideal_agreement(pf, g_min.density.a) > scale:
        return False
    if _ideal_agreement(pf, g_max.density.a) > scale:
        return False
    return functional_interval_member(g_min, g_min, g_max, tol)


# --------------------------------------------------------------------------
# argument plumbing


def _add_tol_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-rank", type=float, default=None, help="relative rank cutoff override")
    parser.add_argument("--tol-psd", type=float, default=None, help="positive-semidefiniteness slack override")
    parser.add_argument("--tol-eq", type=float, default=None, help="equality-residual tolerance override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opext",
        description="Operator extension toolkit: extensions, completions, and checks on instance files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in RUN_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} pipeline on an instance file")
        p.add_argument("instance", help="path to the JSON instance file")
        p.add_argument("--out", default=None, help="write the result file here instead of stdout")
        _add_tol_flags(p)
        if kind == "parrott":
            p.add_argument("--endpoint", choices=("min", "max", "mid"), default="min",
                           help="which extremal extension supplies the completion")
        if kind == "cstar-check":
            p.add_argument("--seed", type=int, default=0, help="seed for the sampled bound check")
            p.add_argument("--samples", type=int, default=None, help="sample count override")

    g = sub.add_parser("gen", help="emit a reproducible random instance file")
    g.add_argument("--kind", required=True, choices=RUN_KINDS)
    g.add_argument("--dims", default=None, help="comma-separated dimensions, e.g. 4 or 3,2")
    g.add_argument("--n", type=int, default=None, help="shorthand for --dims N")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None, help="write the instance file here instead of stdout")

    v = sub.add_parser("verify", help="generate random instances and check all module invariants")
    v.add_argument("--kind", required=True, choices=RUN_KINDS + ("all",))
    v.add_argument("--count", type=int, default=20)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--dims", default=None, help="fix instance dimensions instead of randomizing")
    v.add_argument("--out", default=None, help="write the report here instead of stdout")
    _add_tol_flags(v)
    return parser


def _tolerances_from(args, file_overrides: dict | None) -> Tolerances:
    values = {"rank": None, "psd": 1e-8, "herm": 1e-10, "eq": 1e-8}
    if file_overrides:
        for key in values:
            if key in file_overrides:
                values[key] = decode_real(file_overrides[key], what=f"tolerances.{key}")
    if getattr(args, "tol_rank", None) is not None:
        values["rank"] = args.tol_rank
    if getattr(args, "tol_psd", None) is not None:
        values["psd"] = args.tol_psd
    if getattr(args, "tol_eq", None) is not None:
        values["eq"] = args.tol_eq
    try:
        return Tolerances(**values)
    except ValueError as exc:
        raise _InputError(f"bad tolerances: {exc}") from exc


def _tolerances_doc(tol: Tolerances) -> dict:
    return {"rank": tol.rank, "psd": tol.psd, "herm": tol.herm, "eq": tol.eq}


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _result(status: str, kind: str, outputs: dict, diagnostics: dict,
            tol: Tolerances | None, seed: int | None, error: dict | None) -> dict:
    return {
        "status": status,
        "kind": kind,
        "outputs": outputs,
        "diagnostics": diagnostics,
        "tolerances": _tolerances_doc(tol) if tol is not None else None,
        "seed": seed,
        "error": error,
    }


def _parse_dims(text: str | None, n: int | None, kind: str) -> tuple[int, ...]:
    if text is not None and n is not None:
        raise _InputError("give either --dims or --n, not both")
    if n is not None:
        return (n,)
    if text is None:
        return _DEFAULT_DIMS[kind]
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _InputError(f"--dims must be comma-separated integers, got {text!r}") from exc
    if not dims:
        raise _InputError("--dims must not be empty")
    return dims


def _cmd_run(kind: str, args) -> int:
    seed = getattr(args, "seed", None) if kind == "cstar-check" else None
    tol = None
    try:
        with open(args.instance, "r", encoding="utf-8") as fh:
            document = json.load(fh)
        if not isinstance(document, dict):
            raise _InputError("instance file must contain a JSON object")
        if document.get("kind") != kind:
            raise _InputError(
                f"instance file is for kind {document.get('kind')!r}, not {kind!r}"
            )
        payload = document.get("payload")
        if not isinstance(payload, dict):
            raise _InputError("instance file is missing its 'payload' object")
        tol = _tolerances_from(args, document.get("tolerances"))
        data = _PARSERS[kind](payload)
    except (OSError, json.JSONDecodeError, _InputError, ValueError) as exc:
        doc = _result("invalid-input", kind, {}, {}, tol, seed,
                      {"type": type(exc).__name__, "message": str(exc)})
        _emit(dumps_canonical(doc), args.out)
        return EXIT_INVALID_INPUT

    try:
        outputs, diagnostics = _RUNNERS[kind](data, tol, args)
    except _INFEASIBLE_ERRORS as exc:
        doc = _result("infeasible", kind, {}, {}, tol, seed,
                      {"type": type(exc).__name__, "message": str(exc)})
        _emit(dumps_canonical(doc), args.out)
        return EXIT_INFEASIBLE
    # LinAlgError subclasses ValueError, so the numerical clause must come first
    except (NumericalFailure, np.linalg.LinAlgError, ArithmeticError) as exc:
        doc = _result("numerical-failure", kind, {}, {}, tol, seed,
                      {"type": type(exc).__name__, "message": str(exc)})
        _emit(dumps_canonical(doc), args.out)
        return EXIT_NUMERICAL_FAILURE
    except (DimensionMismatch, InvalidDims, ValueError) as exc:
        doc = _result("invalid-input", kind, {}, {}, tol, seed,
                      {"type": type(exc).__name__, "message": str(exc)})
        _emit(dumps_canonical(doc), args.out)
        return EXIT_INVALID_INPUT

    doc = _result("ok", kind, outputs, diagnostics, tol, seed, None)
    _emit(dumps_canonical(doc), args.out)
    return EXIT_OK


def _cmd_gen(args) -> int:
    try:
        dims = _parse_dims(args.dims, args.n, args.kind)
        instance, _ = random_instance_with_witness(_ORACLE_KIND[args.kind], dims, Rng(args.seed))
        payload = _encode_instance(args.kind, instance)
    except (InvalidDims, _InputError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID_INPUT
    document = {"kind": args.kind, "payload": payload, "seed": args.seed}
    _emit(dumps_canonical(document), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        tol = _tolerances_from(args, None)
        kinds = list(RUN_KINDS) if args.kind == "all" else [args.kind]
        dims = None
        if args.dims is not None:
            if args.kind == "all":
                raise _InputError("--dims cannot be combined with --kind all")
            dims = _parse_dims(args.dims, None, kinds[0])
        if args.count < 1:
            raise _InputError("--count must be positive")
    except _InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID_INPUT

    root = Rng(args.seed)
    report = {}
    total_failed = 0
    for offset, kind in enumerate(kinds):
        passed = 0
        for index in range(args.count):
            child = root.split(offset).split(index)
            try:
                ok = _verify_one(kind, child, tol, dims)
            # a typed or numerical failure counts against the instance;
            # anything else is a programming error and propagates
            except (OpExtError, np.linalg.LinAlgError, ArithmeticError):
                ok = False
            passed += bool(ok)
        report[kind] = {"count": args.count, "passed": passed, "failed": args.count - passed}
        total_failed += args.count - passed
    status = "ok" if total_failed == 0 else "numerical-failure"
    doc = _result(status, "verify", report, {"total_failed": total_failed}, tol, args.seed, None)
    _emit(dumps_canonical(doc), args.out)
    return EXIT_OK if total_failed == 0 else EXIT_NUMERICAL_FAILURE


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID_INPUT if exc.code not in (0, None) else EXIT_OK
    if args.command in RUN_KINDS:
        return _cmd_run(args.command, args)
    if args.command == "gen":
        return _cmd_gen(args)
    return _cmd_verify(args)


def console_main() -> None:
    raise SystemExit(main())
