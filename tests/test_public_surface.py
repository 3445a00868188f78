"""The public surface is what something reaches.

Every function or class named in ``opext.__all__`` or in a module's
``__all__`` must be reachable, through the names each module-level function,
class and assignment of ``opext`` refers to, followed transitively, from one
of these roots: all of ``opext.cli``; every ``opext.<name>`` that
``perfbench/workloads.py`` reads; the README's code blocks; and the oracles
``sampled_bound`` and ``min_completion_search``.  A class is one node with
its methods.  The names that only ``perfbench/tracing.py``'s ``LAYERS``
reach are pinned in :data:`TRACE_ONLY`: each stays only because the
benchmark traces it, so deleting one is a benchmark change.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import opext
from test_bench_contract import load_tracing, workload_names

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(opext.__file__).resolve().parent
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem not in ("__init__", "__main__"))

TRACE_ONLY = {
    "numkit.pinv",
    "numkit.psd_eig",
    "numkit.independent_columns",
    "sa_ext.lift_symmetric",
    "sa_ext.LiftedSymmetric",
    "sa_ext.alpha_of_total",
    "parrott.check_compatibility",
    "parrott.assemble_symmetric",
    "func_ext.gns",
    "func_ext.gns_realization",
    "func_ext.GnsSpace",
    "func_ext.functional_interval_member",
    "func_ext.hahn_jordan",
}


def node_of(obj):
    """``"<module>.<top-level name>"`` of a function, class or method, else None."""
    if not (inspect.isfunction(obj) or inspect.isclass(obj)) or not obj.__module__.startswith("opext."):
        return None
    return f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__qualname__.split('.')[0]}"


def resolve(dotted, start=opext):
    target = start
    for part in dotted.split("."):
        target = getattr(target, part, None)
    return node_of(target)


def bindings(stmt):
    """The module-level names one top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def reference_graph():
    """Edges from each module-level binding of ``opext`` to the bindings its source names."""
    edges = {}
    for module in MODULES:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        scope = {}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1 and stmt.module:
                scope.update({alias.asname or alias.name: f"{stmt.module}.{alias.name}" for alias in stmt.names})
            for name in bindings(stmt):
                scope[name] = f"{module}.{name}"
        for stmt in tree.body:
            refs = {scope[n.id] for n in ast.walk(stmt) if isinstance(n, ast.Name) and n.id in scope}
            for name in bindings(stmt) or ["<module>"]:
                edges.setdefault(f"{module}.{name}", set()).update(refs)
    return edges


def reach(edges, roots):
    seen, todo = set(), list(roots)
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo += edges.get(node, ())
    return seen


def readme_names():
    """What the README's ``python`` blocks import from opext or read as ``opext.<name>``."""
    names = set()
    for block in re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.DOTALL):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "opext":
                names |= {resolve(alias.name, importlib.import_module(node.module)) for alias in node.names}
            elif isinstance(node, ast.Attribute):
                parts = []
                while isinstance(node, ast.Attribute):
                    parts.append(node.attr)
                    node = node.value
                if isinstance(node, ast.Name) and node.id == "opext":
                    names.add(resolve(".".join(reversed(parts))))
    return names - {None}


def public_names():
    modules = [opext] + [importlib.import_module(f"opext.{module}") for module in MODULES]
    return {node for m in modules for node in (node_of(getattr(m, name)) for name in getattr(m, "__all__", ())) if node}


def roots():
    edges = reference_graph()
    cli = {node for node in edges if node.startswith("cli.")}
    workloads = {resolve(name) for name in workload_names()} - {None}
    readme = readme_names()
    assert "cli.main" in cli and "numkit.PsdMatrix" in workloads and "kvn.kvn_extend" in readme
    return edges, cli | workloads | readme | {"oracle.sampled_bound", "oracle.min_completion_search"}


def traced():
    return {resolve(name, importlib.import_module(f"opext.{layer}"))
            for layer, names in load_tracing().LAYERS.items() for name in names}


def test_every_public_name_is_reached():
    edges, base = roots()
    unreached = public_names() - reach(edges, base | traced())
    assert not unreached, f"public names nothing reaches: {sorted(unreached)}"


def test_names_only_the_benchmark_traces_are_pinned():
    edges, base = roots()
    trace_only = public_names() & (reach(edges, base | traced()) - reach(edges, base))
    assert trace_only == TRACE_ONLY, f"reached only by the trace: {sorted(trace_only)}"
