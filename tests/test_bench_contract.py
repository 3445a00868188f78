"""The benchmark reads names of the program; each must exist.

``perfbench/tracing.py`` wraps every name in its ``LAYERS`` table with
``getattr`` on ``opext.<layer>``, and ``perfbench/workloads.py`` calls
``opext.<name>`` (such as ``opext.PsdMatrix`` and ``opext.cli.main``) and
reads the fields of a cstar decision and the keys of a ``cstar-check``
result; the benchmark's own tests are outside this suite.  Without these
checks, removing or renaming such a name (even a function no library path
calls any more, such as ``numkit.independent_columns``) would break only
benchmark runs.
"""

import ast
import dataclasses
import importlib
import importlib.util
import json
from pathlib import Path

import opext
import opext.cli as cli
from opext.func_ext import ExtendibilityDecision

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"

# what perfbench/workloads.py reads of a cstar decision (run_cstar) and of a
# cstar-check result file (CliSmall._check)
CSTAR_NAMES = ("extendible", "alpha", "g_min", "g_max", "density", "constant4_ok", "violations", "measured_bound")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for layer, names in load_tracing().LAYERS.items():
        module = importlib.import_module(f"opext.{layer}")
        for name in names:
            target = module
            for part in name.split("."):  # a method resolves on its class
                target = getattr(target, part, None)
            if not callable(target):
                missing.append(f"{layer}.{name}")
    assert missing == []


def workload_names() -> set[str]:
    """Every dotted ``opext.<name>`` the workloads read, prefixes included."""
    names = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "opext":
            names.add(".".join(reversed(parts)))
    return names


def test_every_workload_name_resolves():
    names = workload_names()
    assert {"PsdMatrix", "cli.main"} <= names  # the scan sees the calls
    missing = []
    for name in sorted(names):
        target = opext
        for part in name.split("."):
            target = getattr(target, part, None)
        if target is None:
            missing.append(name)
    assert missing == []


def test_cstar_decision_fields_exist():
    fields = {field.name for field in dataclasses.fields(ExtendibilityDecision)}
    assert set(CSTAR_NAMES) - fields == set()


def test_cstar_check_output_keys_exist(tmp_path):
    out = tmp_path / "result.json"
    argv = ["cstar-check", str(ROOT / "instances" / "cstar-check.json"), "--out", str(out)]
    assert cli.main(argv) == 0
    assert set(CSTAR_NAMES) - set(json.loads(out.read_text())["outputs"]) == set()
