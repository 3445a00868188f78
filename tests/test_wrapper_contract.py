"""Caller data is validated once, at the public boundary.

The wrapper classes validate what they wrap: ``ComplexMatrix(...)`` copies and
checks finiteness, ``HermitianMatrix``/``PsdMatrix`` apply the one Hermitian
rule ``numkit._checked_hermitian`` (and positivity), and ``.coerce`` builds
one of them from anything that is not one already.  An array the library
built is wrapped with ``_adopt`` and never validated again.
The scan below parses ``src/opext`` and fails on

* the removed ``PsdMatrix`` wrap that re-symmetrized the library's own results;
* a validating wrapper built and thrown away, i.e. such a call as a bare
  expression statement (a check whose result is not kept calls the rule);
* a validating wrapper built inside a private function or method that is not
  listed in :data:`CALLER_DATA` with the caller argument it validates, or one
  whose first argument does not come from that argument.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "opext"

WRAPPERS = {"HermitianMatrix", "PsdMatrix", "ComplexMatrix"}

# (module, private owner) -> the parameter holding the caller data it validates
CALLER_DATA = {
    ("numkit.py", "_projector"): "p",  # LeftIdeal's and classical_parrott's projectors, decided on one eigh_desc and returned with their range basis
    ("func_ext.py", "GnsSpace._element"): "x",  # the algebra element passed to vector and rep
}


def is_wrapper_call(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in WRAPPERS
    return isinstance(func, ast.Attribute) and (func.attr in WRAPPERS or func.attr == "coerce")


def owners(tree):
    """``(qualified name, node)`` of each top-level function and class method; other statements are ``<module>``."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{top.name}.{item.name}", item
        elif isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield top.name, top
        else:
            yield "<module>", top


def is_private(owner: str) -> bool:
    return any(part.startswith("_") and not part.startswith("__") for part in owner.split("."))


def wrapper_sites(path: Path) -> list[tuple[str, int, str]]:
    """``(owner, line, problem)`` of each wrapper call breaking the boundary rule: "discarded" or "private"."""
    tree = ast.parse(path.read_text())
    found = []
    for owner, node in owners(tree):
        params = {a.arg for a in node.args.args} if isinstance(node, ast.FunctionDef) else set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Expr) and is_wrapper_call(sub.value):
                found.append((owner, sub.lineno, "discarded"))
            if not (is_wrapper_call(sub) and is_private(owner)):
                continue
            argument = CALLER_DATA.get((path.name, owner))
            first = sub.args[0] if sub.args else None
            names = {n.id for n in ast.walk(first) if isinstance(n, ast.Name)} if first is not None else set()
            if argument is None or argument not in params or argument not in names:
                found.append((owner, sub.lineno, "private"))
    return found


REMOVED = "_" + "trusted"  # spelled apart, so that a text search for the name finds no use of it


def test_removed_wrap_stays_removed():
    assert [path.name for path in sorted(SRC.glob("*.py")) if REMOVED in path.read_text()] == []


def test_wrappers_only_validate_caller_data():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        stray += [f"{path.name}:{line} in {owner} ({problem})" for owner, line, problem in wrapper_sites(path)]
    assert stray == []


def test_caller_data_table_is_current():
    """Each listed owner still builds a wrapper from its argument, so the table does not go stale."""
    listed = set()
    for path in sorted(SRC.glob("*.py")):
        for owner, node in owners(ast.parse(path.read_text())):
            argument = CALLER_DATA.get((path.name, owner))
            if argument is None:
                continue
            for sub in ast.walk(node):
                if is_wrapper_call(sub) and sub.args and any(
                    isinstance(n, ast.Name) and n.id == argument for n in ast.walk(sub.args[0])
                ):
                    listed.add((path.name, owner))
    assert listed == set(CALLER_DATA)


def test_scan_catches_planted_sites(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def public(a, tol):\n"
        "    HermitianMatrix(a, tol)\n"  # discarded
        "    return HermitianMatrix(a, tol)\n"  # kept, public: fine
        "def _private(a, tol):\n"
        "    return ComplexMatrix._adopt(PsdMatrix.coerce(a, tol).a)\n"  # private, not listed
        "class Box:\n"
        "    def _unwrap(self, x):\n"
        "        ComplexMatrix(x)\n"  # discarded and private
        "    def __init__(self, x):\n"
        "        self.x = ComplexMatrix.coerce(x)\n"  # public constructor: fine
    )
    assert sorted(wrapper_sites(probe)) == [
        ("Box._unwrap", 8, "discarded"),
        ("Box._unwrap", 8, "private"),
        ("_private", 5, "private"),
        ("public", 2, "discarded"),
    ]
