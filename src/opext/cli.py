"""Batch command-line front end.

Subcommands mirror the library: one per problem kind (``kvn``,
``sa-ext``, ``parrott``, ``strong-parrott``, ``functional-ext``,
``cstar-check``) reading an instance file and writing a result file,
plus ``gen`` (emit a reproducible random instance file) and ``verify``
(run many random instances through the same pipeline and check each
kind's invariant table).

Exit codes: 0 success, 1 infeasible (a mathematical hypothesis of the
problem fails), 2 invalid input (malformed file, wrong shapes, bad
flags), 3 numerical failure (including verify finding any violation).

Result files are canonical JSON (sorted keys, 17-significant-digit
floats), so identical inputs and flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from types import SimpleNamespace

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
)
from .kvn import PartialPositiveOperator, check_restriction, hilbert_lift, kvn_extend
from .numkit import DEFAULT_TOLERANCES, Tolerances, _fro, _limit, _smax, loewner_leq
from .oracle import (
    MAX_ALGEBRA,
    MAX_DIM,
    Rng,
    _check_dims,
    _projection_range,
    endpoint_range_miss,
    random_instance_with_witness,
)
from .parrott import (
    ParrottInstance,
    StrongParrottInstance,
    parrott_complete,
    strong_parrott,
)
from .sa_ext import (
    SymmetricPartialOperator,
    _alpha_on_lift,
    extend_symmetric,
    in_interval,
)
from .serialize import decode_int, decode_matrix, decode_real, dumps_canonical

__all__ = ["main", "console_main"]

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL_FAILURE = 3

# Status and exit code of a failed run by exception type; the first row that
# matches wins.  Infeasible: the input parsed fine but a mathematical
# hypothesis of the problem fails.  LinAlgError subclasses ValueError, so the
# numerical row comes before the invalid-input one.
_FAILURE_STATUS = (
    ((NotHermitian, NotPsd, RestrictionConditionFailed, NotABounded, NotFBounded, NotSymmetric,
      IncompatibleInstance, HypothesisViolated, Infeasible), "infeasible", EXIT_INFEASIBLE),
    ((NumericalFailure, np.linalg.LinAlgError, ArithmeticError), "numerical-failure", EXIT_NUMERICAL_FAILURE),
    ((DimensionMismatch, InvalidDims, OSError, ValueError), "invalid-input", EXIT_INVALID_INPUT),
)
_FAILURE_TYPES = tuple(t for types, _, _ in _FAILURE_STATUS for t in types)


# --------------------------------------------------------------------------
# payload parsing (shape checks only; math happens in the run phase)


def _payload_matrix(payload: dict, key: str, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    if key not in payload:
        raise ValueError(f"payload is missing {key!r}")
    m = decode_matrix(payload[key], what=key)
    if rows is not None and m.shape[0] != rows:
        raise ValueError(f"{key}: expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ValueError(f"{key}: expected {cols} columns, got {m.shape[1]}")
    return m


def _payload_int(payload: dict, key: str) -> int:
    if key not in payload:
        raise ValueError(f"payload is missing {key!r}")
    value = decode_int(payload[key], what=key)
    if value < 1:
        raise ValueError(f"{key}: must be at least 1, got {value}")
    return value


def _parse_kvn(payload: dict) -> dict:
    n = _payload_int(payload, "n")
    d = _payload_matrix(payload, "domain_basis", rows=n)
    g = _payload_matrix(payload, "values", rows=n, cols=d.shape[1])
    if d.shape[1] < 1:
        raise ValueError("domain_basis: needs at least one column")
    return {"n": n, "domain_basis": d, "values": g}


def _parse_sa_ext(payload: dict) -> dict:
    n = _payload_int(payload, "n")
    d = _payload_matrix(payload, "domain_basis", rows=n)
    v = _payload_matrix(payload, "values", rows=n, cols=d.shape[1])
    w = _payload_matrix(payload, "weight", rows=n, cols=n)
    if d.shape[1] < 1:
        raise ValueError("domain_basis: needs at least one column")
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
    a1 = decode_real(payload.get("alpha1", 1.0), what="alpha1")
    a2 = decode_real(payload.get("alpha2", 1.0), what="alpha2")
    if a1 < 0 or a2 < 0:
        raise ValueError("alpha1 and alpha2 must be nonnegative")
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
        raise ValueError("payload is missing 'density'")
    if for_cstar and "extension" in payload:
        data["extension"] = _payload_matrix(payload, "extension", rows=m, cols=m)
    # a cstar-check "samples" key, which set a random-pair count, is ignored
    return data


# --------------------------------------------------------------------------
# run phase: build typed objects and compute (math errors map to exit 1)


def _run_kvn(data: dict, tol: Tolerances) -> tuple[dict, dict]:
    op = PartialPositiveOperator(data["domain_basis"], data["values"], tol)
    ext = kvn_extend(op, tol)
    resid = _fro(ext.a @ data["domain_basis"] - data["values"])
    eigs = np.linalg.eigvalsh(ext.a) if ext.rows else np.zeros(0)
    return (
        {"extension": ext.a},
        {
            "value_residual": resid,
            "min_eigenvalue": float(eigs.min()) if eigs.size else 0.0,
            "restriction_ok": check_restriction(op, tol),
        },
    )


def _run_sa_ext(data: dict, tol: Tolerances) -> tuple[dict, dict]:
    op = SymmetricPartialOperator(data["domain_basis"], data["values"], tol)
    lift = hilbert_lift(data["weight"], tol)
    interval = extend_symmetric(op, lift.weight, tol)
    aw, d, v = lift.weight.a, data["domain_basis"], data["values"]
    diagnostics = {}
    for name, s in (("min", interval.s_min), ("max", interval.s_max)):
        diagnostics[f"extend_residual_{name}"] = _fro(aw @ (s.a @ d) - aw @ v)
        diagnostics[f"alpha_drift_{name}"] = float(abs(_alpha_on_lift(s.a, lift, lift, tol) - interval.alpha))
    diagnostics["order_ok"] = loewner_leq(interval.s_min, interval.s_max, tol)
    outputs = {"alpha": interval.alpha, "s_min": interval.s_min.a, "s_max": interval.s_max.a}
    if "probe" in data:
        outputs["probe_in_interval"] = in_interval(data["probe"], interval, tol)
    return outputs, diagnostics


def _run_parrott(data: dict, tol: Tolerances) -> tuple[dict, dict]:
    inst = ParrottInstance(
        data["domain1"], data["values1"], data["domain2"], data["values2"],
        data["weight1"], data["weight2"], data["alpha1"], data["alpha2"], tol,
    )
    completion = parrott_complete(inst, tol).a
    # cross-weighted norm of X: A1 on its domain, A2 on its range
    norm = _alpha_on_lift(completion, inst._lifts[1], inst._lifts[0], tol)
    bound = float(np.sqrt(max(inst.alpha1, inst.alpha2)))
    return (
        {"completion": completion, "weighted_norm": norm, "norm_bound": bound},
        {
            "corner1_residual": _fro(inst.weight2.a @ (completion @ inst.domain1.a - inst.values1.a)),
            "corner2_residual": _fro(inst.weight1.a @ (completion.conj().T @ inst.domain2.a - inst.values2.a)),
            "bound_ok": bool(norm <= bound + _limit(tol.eq, bound)),
        },
    )


def _run_strong_parrott(data: dict, tol: Tolerances) -> tuple[dict, dict]:
    inst = StrongParrottInstance(data["s1"], data["s2"], data["t1"], data["t2"])
    x = strong_parrott(inst, tol).a
    return (
        {"solution": x, "norm": _smax(x)},
        {
            "s_residual": _fro(x @ inst.s1.a - inst.s2.a),
            "t_residual": _fro(inst.t2.a @ x - inst.t1.a),
        },
    )


def _functional_diagnostics(pf: PartialFunctional, g_min, g_max, tol: Tolerances) -> dict:
    """Agreement of both extremal extensions with g_0 on the ideal, and their order."""
    return {
        "ideal_agreement_min": _ideal_agreement(pf, g_min.density.a),
        "ideal_agreement_max": _ideal_agreement(pf, g_max.density.a),
        "order_ok": loewner_leq(g_min.density, g_max.density, tol),
    }


def _run_functional_ext(data: dict, tol: Tolerances) -> tuple[dict, dict]:
    pf = PartialFunctional(LeftIdeal(data["projection"], tol), data["gamma"])
    g_min, g_max, alpha = extend_functional(pf, data["density"], tol)
    return (
        {"alpha": alpha, "g_min": g_min.density.a, "g_max": g_max.density.a},
        _functional_diagnostics(pf, g_min, g_max, tol),
    )


def _run_cstar_check(data: dict, tol: Tolerances) -> tuple[dict, dict]:
    pf = PartialFunctional(LeftIdeal(data["projection"], tol), data["gamma"])
    decision = cstar_extendibility(pf, tol, density=data.get("density"), extension=data.get("extension"))
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
        outputs["exact_bound"] = decision.exact_bound
    return outputs, _functional_diagnostics(pf, decision.g_min, decision.g_max, tol)


# --------------------------------------------------------------------------
# invariants: what a run's result must satisfy, checked by verify


_FUNCTIONAL_INVARIANTS = (
    ("ideal_agreement_min", lambda d, r, t: _limit(t.eq, _fro(d["projection"] @ d["gamma"]))),
    ("ideal_agreement_max", lambda d, r, t: _limit(t.eq, _fro(d["projection"] @ d["gamma"]))),
    ("order_ok", None),
)


# Invariants no run diagnostic carries: they need the planted witness or a
# second library call, so verify adds their keys to the result itself.
def _below_witness(data: dict, result: dict, witness: dict, tol: Tolerances) -> dict:
    """The minimal extension lies below the planted positive total."""
    return {"below_witness": loewner_leq(result["extension"], witness["total"], tol)}


def _endpoints_minimal(data: dict, result: dict, witness: dict, tol: Tolerances) -> dict:
    """Both interval endpoints are Krein-von Neumann minimal, checked by the oracle."""
    miss = endpoint_range_miss(
        data["weight"], data["domain_basis"], data["values"], result["alpha"], result["s_min"], result["s_max"], tol
    )
    return {"endpoint_range_miss": miss}


def _functional_witness(data: dict, result: dict, witness: dict, tol: Tolerances) -> dict:
    """f_bound on its own agrees with the bound extend_functional reports, and both densities are the minimal
    endpoints of s_0 : B -> Gamma* B on (C^m, F), for B the oracle's own range of P."""
    pf = PartialFunctional(LeftIdeal(data["projection"], tol), data["gamma"])
    b = _projection_range(data["projection"])
    miss = endpoint_range_miss(
        data["density"], b, data["gamma"].conj().T @ b, result["alpha"], result["g_min"], result["g_max"], tol
    )
    return {"f_bound_drift": abs(f_bound(pf, data["density"], tol) - result["alpha"]), "endpoint_range_miss": miss}


# --------------------------------------------------------------------------
# the run kinds: how verify draws their dimensions


# Dimensions of one verify instance when --dims is not given.
def _upto(gen, top: int) -> int:
    return int(gen.integers(1, top + 1))


def _draw_n_k(gen) -> tuple[int, ...]:
    n = _upto(gen, MAX_DIM)
    return (n, _upto(gen, n))


def _draw_strong_parrott(gen) -> tuple[int, ...]:
    h, k = _upto(gen, MAX_DIM), _upto(gen, MAX_DIM)
    return (h, k, _upto(gen, h), _upto(gen, k))


def _draw_m(gen) -> tuple[int, ...]:
    return (_upto(gen, MAX_ALGEBRA),)


# Everything the command line knows about each run kind, in the order it lists
# them: parse(payload) -> data, shape checks only; run(data, tol) -> (outputs,
# diagnostics); oracle, the kind's name in opext.oracle, whose planted fields
# gen writes and verify runs as they are, less the key drop (or None); default_dims
# for gen and draw_dims(generator) for verify, without --dims; invariants; and
# witness(data, result, witness, tol) -> the verify-only result keys, or None.
# The invariants are (key, threshold) rows on a run's outputs and diagnostics
# together: the value under key must be True when the threshold is None, else
# at most threshold(data, result, tol), a residual relative to the input it is
# taken against.
_KINDS = {
    "kvn": SimpleNamespace(
        parse=_parse_kvn, run=_run_kvn, oracle="kvn", drop=None, default_dims=(4,), draw_dims=_draw_n_k,
        invariants=(
            ("value_residual", lambda d, r, t: _limit(t.eq, _fro(d["values"]))),
            ("restriction_ok", None),
            ("below_witness", None),
        ),
        witness=_below_witness,
    ),
    "sa-ext": SimpleNamespace(
        parse=_parse_sa_ext, run=_run_sa_ext, oracle="sa_ext", drop=None, default_dims=(4,), draw_dims=_draw_n_k,
        invariants=(
            ("extend_residual_min", lambda d, r, t: _limit(t.eq, _fro(d["weight"] @ d["values"]))),
            ("extend_residual_max", lambda d, r, t: _limit(t.eq, _fro(d["weight"] @ d["values"]))),
            ("alpha_drift_min", lambda d, r, t: _limit(t.eq, r["alpha"])),
            ("alpha_drift_max", lambda d, r, t: _limit(t.eq, r["alpha"])),
            ("order_ok", None),
            ("endpoint_range_miss", lambda d, r, t: _limit(t.eq, r["alpha"])),
        ),
        witness=_endpoints_minimal,
    ),
    "parrott": SimpleNamespace(
        parse=_parse_parrott, run=_run_parrott, oracle="parrott", drop=None, default_dims=(3, 2),
        draw_dims=lambda gen: (_upto(gen, MAX_DIM), _upto(gen, MAX_DIM)),
        invariants=(
            ("corner1_residual", lambda d, r, t: _limit(t.eq, _fro(d["values1"]))),
            ("corner2_residual", lambda d, r, t: _limit(t.eq, _fro(d["values2"]))),
            ("bound_ok", None),
        ),

        witness=None,
    ),
    "strong-parrott": SimpleNamespace(
        parse=_parse_strong_parrott, run=_run_strong_parrott, oracle="strong_parrott", drop=None,
        default_dims=(4, 3, 2), draw_dims=_draw_strong_parrott,
        invariants=(
            ("norm", lambda d, r, t: 1.0 + t.eq),
            ("s_residual", lambda d, r, t: _limit(t.eq, _fro(d["s1"]))),
            ("t_residual", lambda d, r, t: _limit(t.eq, _fro(d["t2"]))),
        ),

        witness=None,
    ),
    "functional-ext": SimpleNamespace(
        parse=functools.partial(_parse_functional, for_cstar=False), run=_run_functional_ext,
        oracle="functional", drop="extension", default_dims=(3,), draw_dims=_draw_m,
        invariants=_FUNCTIONAL_INVARIANTS + (
            ("f_bound_drift", lambda d, r, t: _limit(t.eq, r["alpha"])),
            ("endpoint_range_miss", lambda d, r, t: _limit(t.eq, r["alpha"])),
        ),
        witness=_functional_witness,
    ),
    "cstar-check": SimpleNamespace(
        parse=functools.partial(_parse_functional, for_cstar=True), run=_run_cstar_check,
        oracle="functional", drop="density", default_dims=(3,), draw_dims=_draw_m,
        invariants=_FUNCTIONAL_INVARIANTS + (
            ("extendible", None),
            ("constant4_ok", None),
            ("violations", lambda d, r, t: 0),
            # measured_bound is a ratio the inequality attains, so it bounds the
            # sharp constant from below; its closed-form pair attains it, so a
            # low exact_bound fails here.  In M_m the sharp constant relative
            # to f = |g| is at most 1
            ("measured_bound", lambda d, r, t: r["exact_bound"] * (1.0 + t.eq)),
            ("exact_bound", lambda d, r, t: 1.0 + t.eq),
        ),

        witness=None,
    ),
}

RUN_KINDS = tuple(_KINDS)


def _verify_one(spec: SimpleNamespace, rng: Rng, dims: tuple[int, ...], tol: Tolerances) -> list[dict]:
    """Failed invariants of one generated instance, run as `opext <kind>` runs it.

    The run gets the planted fields, less the kind's ``drop`` key, as the
    arrays its parser would return for the instance file ``gen`` writes.
    """
    fields, witness = random_instance_with_witness(spec.oracle, dims, rng)
    data = {key: value for key, value in fields.items() if key != spec.drop}
    outputs, diagnostics = spec.run(data, tol)
    result = {**outputs, **diagnostics}
    if spec.witness is not None:
        result.update(spec.witness(data, result, witness, tol))
    failures = []
    for key, threshold in spec.invariants:
        value = result[key]
        limit = None if threshold is None else threshold(data, result, tol)
        if (value is True) if limit is None else (value <= limit):
            continue
        if limit is not None and not np.isfinite(value):
            value = str(value)  # nan and inf have no canonical JSON form
        failures.append({"check": key, "value": value, "threshold": limit})
    return failures


# --------------------------------------------------------------------------
# argument plumbing


def _add_tol_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-rank", type=float, default=None, help="relative rank cutoff override")
    parser.add_argument("--tol-psd", type=float, default=None, help="positive-semidefiniteness slack override")
    parser.add_argument("--tol-eq", type=float, default=None, help="equality-residual tolerance override")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opext",
        description="Operator extension toolkit: extensions, completions, and checks on instance files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in _KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} pipeline on an instance file")
        p.add_argument("instance", help="path to the JSON instance file")
        p.add_argument("--out", default=None, help="write the result file here instead of stdout")
        _add_tol_flags(p)

    g = sub.add_parser("gen", help="emit a reproducible random instance file")
    g.add_argument("--kind", required=True, choices=RUN_KINDS)
    g.add_argument("--dims", default=None, help="comma-separated dimensions, e.g. 4 or 3,2")
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


def _tolerances_dict(tol: Tolerances) -> dict:
    return {"rank": tol.rank, "psd": tol.psd, "herm": tol.herm, "eq": tol.eq}


def _tolerances_from(args, file_overrides) -> Tolerances:
    """The run's Tolerances: the file's values, then the flags', over the defaults.

    When every value is the default, this is ``DEFAULT_TOLERANCES`` itself, not a fresh copy validated again.
    """
    if file_overrides is None:
        file_overrides = {}
    elif not isinstance(file_overrides, dict):
        raise ValueError(f"tolerances: expected an object or null, got {type(file_overrides).__name__}")
    defaults = _tolerances_dict(DEFAULT_TOLERANCES)
    values = dict(defaults)
    unknown = sorted(set(file_overrides) - set(values))
    if unknown:
        raise ValueError(f"tolerances: unknown key {unknown[0]!r}")
    for key in values:
        if key in file_overrides:
            value = file_overrides[key]
            # a result file writes the default rank cutoff as null
            if not (key == "rank" and value is None):
                values[key] = decode_real(value, what=f"tolerances.{key}")
        # flags win over the file; there is no --tol-herm
        if getattr(args, f"tol_{key}", None) is not None:
            values[key] = getattr(args, f"tol_{key}")
    if values == defaults:
        return DEFAULT_TOLERANCES
    try:
        return Tolerances(**values)
    except ValueError as exc:
        raise ValueError(f"bad tolerances: {exc}") from exc


def _emit(text: str, out_path: str | None, code: int) -> int:
    """Write the document to ``out_path`` (stdout when None) and return ``code``.

    An ``out_path`` that cannot be written (a directory, a missing parent, no permission) is invalid input:
    one ``error: cannot write ...`` line on stderr and exit 2, not a traceback.
    """
    if not out_path:
        sys.stdout.write(text)
        return code
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {out_path}: {exc.strerror or exc}\n")
        return EXIT_INVALID_INPUT
    return code


def _result(status: str, kind: str, outputs: dict, diagnostics: dict,
            tol: Tolerances | None, seed: int | None, error: dict | None) -> dict:
    return {
        "status": status,
        "kind": kind,
        "outputs": outputs,
        "diagnostics": diagnostics,
        "tolerances": _tolerances_dict(tol) if tol is not None else None,
        "seed": seed,
        "error": error,
    }


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--dims must be comma-separated integers, got {text!r}") from exc
    return dims


def _cmd_run(kind: str, args) -> int:
    tol = None
    try:
        with open(args.instance, "r", encoding="utf-8") as fh:
            try:
                document = json.load(fh)
            except RecursionError as exc:  # nesting deeper than the decoder's recursion limit
                raise ValueError("instance file is nested too deeply to decode") from exc
        if not isinstance(document, dict):
            raise ValueError("instance file must contain a JSON object")
        if document.get("kind") != kind:
            raise ValueError(
                f"instance file is for kind {document.get('kind')!r}, not {kind!r}"
            )
        payload = document.get("payload")
        if not isinstance(payload, dict):
            raise ValueError("instance file is missing its 'payload' object")
        tol = _tolerances_from(args, document.get("tolerances"))
        spec = _KINDS[kind]
        outputs, diagnostics = spec.run(spec.parse(payload), tol)
    except _FAILURE_TYPES as exc:
        status, code = next((s, c) for types, s, c in _FAILURE_STATUS if isinstance(exc, types))
        doc = _result(status, kind, {}, {}, tol, None, {"type": type(exc).__name__, "message": str(exc)})
        return _emit(dumps_canonical(doc), args.out, code)
    return _emit(dumps_canonical(_result("ok", kind, outputs, diagnostics, tol, None, None)), args.out, EXIT_OK)


def _cmd_gen(args) -> int:
    try:
        spec = _KINDS[args.kind]
        dims = spec.default_dims if args.dims is None else _parse_dims(args.dims)
        fields, _ = random_instance_with_witness(spec.oracle, dims, Rng(args.seed))
        payload = {key: value for key, value in fields.items() if key != spec.drop}
    except (InvalidDims, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID_INPUT
    document = {"kind": args.kind, "payload": payload, "seed": args.seed}
    return _emit(dumps_canonical(document), args.out, EXIT_OK)


def _cmd_verify(args) -> int:
    try:
        root = Rng(args.seed)
        tol = _tolerances_from(args, None)
        kinds = list(RUN_KINDS) if args.kind == "all" else [args.kind]
        dims = None
        if args.dims is not None:
            if args.kind == "all":
                raise ValueError("--dims cannot be combined with --kind all")
            dims = _parse_dims(args.dims)
            _check_dims(_KINDS[kinds[0]].oracle, dims, root.generator())
        if args.count < 1:
            raise ValueError("--count must be positive")
    except (ValueError, InvalidDims) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID_INPUT
    # create the report file before any instance runs, so an unwritable --out costs no work
    if args.out and _emit("", args.out, EXIT_OK) != EXIT_OK:
        return EXIT_INVALID_INPUT

    report = {}
    total_failed = 0
    for offset, kind in enumerate(kinds):
        spec = _KINDS[kind]
        failures = []
        failed = 0
        for index in range(args.count):
            child = root.split(offset).split(index)
            instance_dims = dims or spec.draw_dims(child.generator())
            try:
                found = _verify_one(spec, child.split(0), instance_dims, tol)
            # a typed or numerical failure counts against the instance;
            # anything else is a programming error and propagates
            except (OpExtError, np.linalg.LinAlgError, ArithmeticError) as exc:
                found = [{"type": type(exc).__name__, "message": str(exc)}]
            failures += [{"index": index, "dims": list(instance_dims), **record} for record in found]
            failed += bool(found)
        report[kind] = {"count": args.count, "passed": args.count - failed, "failed": failed}
        if failures:
            report[kind]["failures"] = failures
        total_failed += failed
    status = "ok" if total_failed == 0 else "numerical-failure"
    doc = _result(status, "verify", report, {"total_failed": total_failed}, tol, args.seed, None)
    return _emit(dumps_canonical(doc), args.out, EXIT_OK if total_failed == 0 else EXIT_NUMERICAL_FAILURE)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID_INPUT if exc.code not in (0, None) else EXIT_OK
    if args.command in _KINDS:
        return _cmd_run(args.command, args)
    if args.command == "gen":
        return _cmd_gen(args)
    return _cmd_verify(args)


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
