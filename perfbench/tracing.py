"""Spans around the program's public functions, from outside the program.

:class:`Tracer` wraps each function listed in :data:`LAYERS` (for a class,
its ``__init__``; ``LeftIdeal.basis`` is a method) and the ``numpy.linalg``
decompositions, and rebinds each wrapper in every ``opext.*`` namespace
that holds the original, so calls between modules are seen too.  A span
is ``(name, start, end, parent, op)``; spans live in memory and are
written out once the run ends.  A span's self time is its duration minus
the time its child spans cover.

The wrappers are installed only in traced runs, and there only while an
op runs, so the benchmark's own input generation and checks never count
(see ``worker.py``).
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = {
    "numkit": ("PsdMatrix", "HermitianMatrix", "eigh_desc", "pinv", "psd_eig", "loewner_leq",
               "numerical_rank", "independent_columns"),
    "kvn": ("PartialPositiveOperator", "kvn_extend", "check_restriction", "hilbert_lift"),
    "sa_ext": ("SymmetricPartialOperator", "lift_symmetric", "extend_symmetric", "alpha_of_total",
               "in_interval"),
    "parrott": ("ParrottInstance", "check_compatibility", "assemble_symmetric", "parrott_complete",
                "strong_parrott"),
    "func_ext": ("LeftIdeal.basis", "is_symmetric_on_ideal", "gns", "gns_realization", "f_bound",
                 "extend_functional", "functional_interval_member", "hahn_jordan",
                 "cstar_extendibility"),
    "serialize": ("dumps_canonical", "decode_matrix"),
    "cli": ("main", "build_parser"),
}
LINALG = ("eigh", "eigvalsh", "svd", "qr")
OP = "op"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric this module reports, with its unit."""
    out = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            out += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_ms", "ms")]
    out += [(f"linalg.{fn}.calls", "count") for fn in LINALG]
    out += [("linalg.decomp.calls", "count"), ("linalg.self_ms", "ms")]
    for layer in (*LAYERS, "linalg", "other"):
        out.append((f"{layer}.self_share", "share"))
    out += [(f"{layer}.errors", "count") for layer in LAYERS]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class Tracer:
    """Span recorder whose wrappers can be switched on and off per op.

    The rebinding sites are found once, so :meth:`enable` and
    :meth:`disable` are a few hundred attribute stores.
    """

    def __init__(self, opext):
        self.spans: list = []
        self.layer_of: dict[str, str] = {OP: OP}
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._error_type = opext.OpExtError
        self._sites = self._find_sites()

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack.append(len(self.spans))
        self._layers.append(OP)
        self.spans.append([OP, perf_counter(), None, -1, op_id])

    def end_op(self) -> float:
        idx = self._stack.pop()
        self._layers.pop()
        span = self.spans[idx]
        span[2] = perf_counter()
        return span[2] - span[1]

    def _wrap(self, name: str, layer: str, fn):
        self.layer_of[name] = layer
        spans, stack, layers = self.spans, self._stack, self._layers
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            span = [name, 0.0, None, parent, tracer._op]
            spans.append(span)
            stack.append(idx)
            layers.append(layer)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except tracer._error_type:
                if layers[-2] != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                layers.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ------------------------------------------------------

    def _find_sites(self) -> list:
        """(owner, attribute, original, wrapper) for every rebinding."""
        import numpy.linalg as la

        modules = [m for key, m in sys.modules.items() if key == "opext" or key.startswith("opext.")]
        sites = []
        for layer, fns in LAYERS.items():
            module = sys.modules[f"opext.{layer}"]
            for fn in fns:
                owner_name, _, method = fn.partition(".")
                target = getattr(module, owner_name)
                name = f"{layer}.{fn}"
                if isinstance(target, type):
                    attr = method or "__init__"
                    original = target.__dict__[attr]
                    sites.append((target, attr, original, self._wrap(name, layer, original)))
                    continue
                wrapper = self._wrap(name, layer, target)
                for mod in modules:
                    sites += [(mod, key, target, wrapper) for key, value in vars(mod).items() if value is target]
        for fn in LINALG:
            original = getattr(la, fn)
            sites.append((la, fn, original, self._wrap(f"linalg.{fn}", "linalg", original)))
        return sites

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def per_layer(self, ops: int) -> dict[str, float]:
        """Per-op calls and self time of every wrapped function and layer."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        layer_s: defaultdict = defaultdict(float)
        total = 0.0
        for (name, start, end, parent, _), cover in zip(self.spans, covered):
            own = (end - start) - cover
            layer = self.layer_of[name]
            if name == OP:
                total += end - start
                layer_s["other"] += own
                continue
            calls[name] += 1
            self_s[name] += own
            layer_s[layer] += own
        per = 1.0 / max(ops, 1)
        out: dict[str, float] = {}
        for layer, fns in LAYERS.items():
            for fn in fns:
                key = f"{layer}.{fn}"
                out[f"{key}.calls"] = calls[key] * per
                out[f"{key}.self_ms"] = self_s[key] * 1e3 * per
        decomp = 0
        for fn in LINALG:
            decomp += calls[f"linalg.{fn}"]
            out[f"linalg.{fn}.calls"] = calls[f"linalg.{fn}"] * per
        out["linalg.decomp.calls"] = decomp * per
        out["linalg.self_ms"] = sum(self_s[f"linalg.{fn}"] for fn in LINALG) * 1e3 * per
        for layer in (*LAYERS, "linalg", "other"):
            out[f"{layer}.self_share"] = layer_s[layer] / total if total > 0 else 0.0
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer] * per
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")
