"""The runtime is numpy-only, and the tests and benchmark add only pytest.

CI installs numpy and pytest and nothing else, so an import of any other
third-party package (scipy, hypothesis, ...) would pass on a machine that
happens to have it and fail there.  The scan parses every ``.py`` file under
``src/opext``, ``tests`` and ``perfbench`` with :mod:`ast` and checks the top
package of each absolute import, wherever in the file it stands:

* ``src/opext`` may import the standard library (``sys.stdlib_module_names``),
  ``numpy`` and ``opext`` itself (relative imports are its own);
* ``tests`` and ``perfbench`` may also import ``pytest`` and the modules that
  sit beside them in the same directory.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = {"numpy", "opext"}
HARNESS = LIBRARY | {"pytest"}
# tree -> (third-party packages it may import, whether it may import its own sibling modules)
TREES = {"src/opext": (LIBRARY, False), "tests": (HARNESS, True), "perfbench": (HARNESS, True)}


def imported_packages(source: str) -> set[str]:
    """The top package of every absolute import in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def strays(path: Path, allowed: set[str], local: bool) -> set[str]:
    """What ``path`` imports beyond the standard library and ``allowed`` (and, if ``local``, its sibling modules)."""
    siblings = {p.stem for p in path.parent.glob("*.py")} if local else set()
    return imported_packages(path.read_text()) - set(sys.stdlib_module_names) - allowed - siblings


def test_imports_are_the_standard_library_numpy_and_pytest():
    found = []
    for tree, (allowed, local) in TREES.items():
        paths = sorted((ROOT / tree).rglob("*.py"))
        assert paths, tree
        found += [f"{path.relative_to(ROOT)}: {sorted(s)}" for path in paths if (s := strays(path, allowed, local))]
    assert found == []


def test_scan_catches_planted_imports(tmp_path):
    (tmp_path / "helper.py").write_text("")
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import json, os.path\n"
        "import numpy as np\n"
        "from . import kvn\n"
        "from opext.numkit import eigh_desc\n"
        "import scipy.linalg\n"
        "def f():\n"
        "    from hypothesis import given\n"
        "    import pytest\n"
        "import helper\n"
    )
    assert strays(probe, LIBRARY, False) == {"scipy", "hypothesis", "pytest", "helper"}
    assert strays(probe, HARNESS, True) == {"scipy", "hypothesis"}
