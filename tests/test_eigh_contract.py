"""The package has one eigendecomposition, ``numkit.eigh_desc``.

Every spectrum in ``src/opext`` -- ``psd_eig``, the range basis of a
projector, the kvn and interval-endpoint Gram forms, the functional
densities -- comes from ``eigh_desc``: descending, no LAPACK call on an
empty input.  The scan below parses ``src/opext`` and fails on a
call to ``eigh`` (bare, or as ``np.linalg.eigh`` or any other attribute)
outside that function.  ``oracle.py`` is exempt: it checks the pipeline and
must not share its code.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "opext"

ALLOWED = {("numkit.py", "eigh_desc")}
EXEMPT = {"oracle.py"}


def eigh_calls(path: Path) -> list[tuple[int, str]]:
    """``(line, enclosing function)`` of each call to ``eigh``; the function is ``""`` at module level."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "eigh") or (
                isinstance(func, ast.Attribute) and func.attr == "eigh"
            ):
                found.append((node.lineno, scope))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def test_eigh_is_called_in_eigh_desc_only():
    stray = [
        f"{path.name}:{line} calls eigh in {scope or 'module scope'}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in EXEMPT
        for line, scope in eigh_calls(path)
        if (path.name, scope) not in ALLOWED
    ]
    assert stray == []
    assert [scope for _, scope in eigh_calls(SRC / "numkit.py")] == ["eigh_desc"]  # the scan still sees it


def test_scan_catches_planted_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "from numpy.linalg import eigh\n"
        "w = np.linalg.eigh(np.eye(2))\n"
        "def f(a):\n"
        "    def g(b):\n"
        "        return eigh(b)\n"
        "    return np.linalg.eigh(a), linalg.eigh(a), np.linalg.eigvalsh(a), g\n"
    )
    assert sorted(eigh_calls(probe)) == [(3, ""), (6, "g"), (7, "f"), (7, "f")]
