"""The package has one Frobenius norm, ``numkit._fro``.

Every no-axis ``np.linalg.norm`` in ``src/opext`` was replaced by it, so a
later change to how Frobenius norms are taken (an overflow-safe scaling, say)
is a change to one function.  ``independent_columns`` keeps its per-column
``np.linalg.norm(..., axis=0)``, which is not a Frobenius norm.  Without this
scan a new ``np.linalg.norm`` call would pass every other test.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "opext"


def is_linalg_norm(node) -> bool:
    """``<anything>.linalg.norm`` (a ``norm`` imported from a linalg module is caught at its import)."""
    if isinstance(node, ast.Attribute):
        return node.attr == "norm" and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
    return False


def norm_uses(path: Path) -> list[tuple[str, ast.AST, str]]:
    """``(enclosing top-level function, node, kind)`` of every numpy.linalg norm reference in a module."""
    tree = ast.parse(path.read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            found += [("<import>", node, "import") for alias in node.names if alias.name == "norm"]
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        calls = {id(n.func): n for n in ast.walk(top) if isinstance(n, ast.Call)}
        for node in ast.walk(top):
            if is_linalg_norm(node):
                keywords = calls[id(node)].keywords if id(node) in calls else []
                axis0 = any(k.arg == "axis" and getattr(k.value, "value", None) == 0 for k in keywords)
                found.append((owner, node, "axis0" if axis0 else "plain"))
    return found


def test_np_linalg_norm_only_in_fro_and_column_norms():
    stray = []
    axis0 = 0
    for path in sorted(SRC.glob("*.py")):
        for owner, node, kind in norm_uses(path):
            if path.name == "numkit.py" and owner == "_fro":
                continue
            if path.name == "numkit.py" and owner == "independent_columns" and kind == "axis0":
                axis0 += 1
                continue
            stray.append(f"{path.name}:{node.lineno} in {owner} ({kind})")
    assert stray == []
    assert axis0 == 2  # the scan sees the column norms it allows


def test_scan_catches_a_plain_norm(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from numpy.linalg import norm\nimport numpy as np\n\n\n"
        "def f(a):\n    return np.linalg.norm(a) + np.linalg.norm(a, axis=0)\n"
    )
    assert sorted(kind for _, _, kind in norm_uses(probe)) == ["axis0", "import", "plain"]
