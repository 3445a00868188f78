"""The package has one floored-threshold rule, ``numkit._limit``.

Every decision that compares a residual with a tolerance relative to the
size of its data uses ``_limit(rel, scale) = rel * (1 + scale)``, so a later
change to that rule (ROADMAP item 3) is a change to one function.  The scan
below parses ``src/opext`` and fails on

* a floored product written out by hand: a tolerance (``.eq``, ``.psd``,
  ``.herm``, or a bare ``eq``/``psd``/``herm``) multiplied by ``1.0 + ...``
  anywhere but in ``_limit`` itself;
* any other arithmetic or comparison on a tolerance outside the places
  listed in :data:`UNFLOORED`, each with the reason it has no unit floor.

Without it a new hand-written threshold would pass every other test.

The default bundle has one spelling too: a ``tol`` parameter with a default
defaults to ``DEFAULT_TOLERANCES``, never to ``None``, so no body resolves a
sentinel, and there is no ``_tol`` helper to do it.  Outside parameter
defaults, only its definition and ``cli._tolerances_from`` (which returns it
for an all-default run, keeping ``PsdMatrix``'s decided mask reusable) name
it, so no function reads the default in place of the ``tol`` it was given.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "opext"

TOLERANCE_FIELDS = {"eq", "psd", "herm"}

# (module, top-level owner) -> why its tolerance arithmetic has no unit floor
UNFLOORED = {
    ("func_ext.py", "_witness_constant"):
        "the degenerate-pair cutoff eq ||L||^2 ||x|| ||P|| already carries the pair's scale; 4 + eq is the constant 4",
    ("func_ext.py", "cstar_extendibility"):
        "agreement eq ||Gamma||_F is relative to the prescribed values; 4 (1 + eq) is relative to the constant 4",
    ("cli.py", "_KINDS"):
        "norm and exact_bound <= 1 + eq are contraction tests; measured_bound <= exact (1 + eq) is relative",
    ("oracle.py", "sampled_bound"):
        "a sampled pair whose denominator is below eq is skipped as degenerate",
}


def is_tolerance(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in TOLERANCE_FIELDS
    return isinstance(node, ast.Name) and node.id in TOLERANCE_FIELDS


def reaches_tolerance(node) -> bool:
    """Whether a tolerance is this operand, or is reached from it through unary and binary arithmetic only."""
    if is_tolerance(node):
        return True
    if isinstance(node, ast.UnaryOp):
        return reaches_tolerance(node.operand)
    if isinstance(node, ast.BinOp):
        return reaches_tolerance(node.left) or reaches_tolerance(node.right)
    return False


def is_unit_floor(node) -> bool:
    """``1.0 + ...`` or ``... + 1.0``."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and any(
        isinstance(side, ast.Constant) and side.value == 1.0 for side in (node.left, node.right)
    )


def owner_of(top) -> str:
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return top.name
    if isinstance(top, (ast.Assign, ast.AnnAssign)):
        targets = top.targets if isinstance(top, ast.Assign) else [top.target]
        return ",".join(t.id for t in targets if isinstance(t, ast.Name)) or "<module>"
    return "<module>"


def tolerance_uses(path: Path) -> list[tuple[str, int, str]]:
    """``(owner, line, kind)`` of each tolerance in arithmetic: kind "floored" or "unfloored"."""
    tree = ast.parse(path.read_text())
    found = []
    for top in tree.body:
        owner = owner_of(top)
        seen = set()
        for node in ast.walk(top):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                for side, other in ((node.left, node.right), (node.right, node.left)):
                    if is_unit_floor(other) and reaches_tolerance(side):
                        found.append((owner, node.lineno, "floored"))
                        seen.update(id(n) for n in ast.walk(node))
        for node in ast.walk(top):
            if id(node) in seen:
                continue
            operands = ()
            if isinstance(node, ast.BinOp):
                operands = (node.left, node.right)
            elif isinstance(node, ast.Compare):
                operands = (node.left, *node.comparators)
            if any(is_tolerance(op) or (isinstance(op, ast.UnaryOp) and is_tolerance(op.operand)) for op in operands):
                found.append((owner, node.lineno, "unfloored"))
    return found


def test_floored_thresholds_only_in_limit():
    stray = []
    listed = set()
    for path in sorted(SRC.glob("*.py")):
        for owner, line, kind in tolerance_uses(path):
            if path.name == "numkit.py" and owner == "_limit":
                continue
            if kind == "unfloored" and (path.name, owner) in UNFLOORED:
                listed.add((path.name, owner))
                continue
            stray.append(f"{path.name}:{line} in {owner} ({kind})")
    assert stray == []
    assert listed == set(UNFLOORED)  # every listed exception is still there, so the list does not go stale


def test_limit_is_the_floored_rule():
    from opext.numkit import _limit

    assert _limit(1e-8, 3.0) == 1e-8 * (1.0 + 3.0)
    assert _limit(0.0, 5.0) == 0.0


def test_scan_catches_a_planted_floor(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(t, x, psd):\n"
        "    a = t.eq * (1.0 + x)\n"
        "    b = -t.psd * (1.0 + x)\n"
        "    c = 0.5 * psd * (x + 1.0)\n"
        "    return a, b, c, 1.0 + 2.0 * t.eq, x > t.herm, _limit(t.eq, x)\n"
    )
    assert sorted(kind for _, _, kind in tolerance_uses(probe)) == ["floored"] * 3 + ["unfloored"] * 2


def test_cli_completes_through_parrott_complete():
    tree = ast.parse((SRC / "cli.py").read_text())
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "parrott"
        for alias in node.names
    }
    assert "parrott_complete" in names
    assert not names & {"_corner_lifts", "_complete_on_lifts"}


# (module, top-level owner) that may read DEFAULT_TOLERANCES outside a parameter default
DEFAULT_READERS = {("cli.py", "_tolerances_from")}


def default_spellings(path: Path) -> list[str]:
    """Each departure from the one spelling of the default bundle in a module, as ``file:line what``."""
    tree = ast.parse(path.read_text())
    found, defaults = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += [(arg, d) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for arg, default in pairs:
                defaults.add(id(default))
                if arg.arg == "tol" and not (isinstance(default, ast.Name) and default.id == "DEFAULT_TOLERANCES"):
                    found.append(f"{path.name}:{default.lineno} tol defaults to {ast.unparse(default)}")
        if isinstance(node, ast.FunctionDef) and node.name == "_tol":
            found.append(f"{path.name}:{node.lineno} defines _tol")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_tol":
            found.append(f"{path.name}:{node.lineno} calls _tol")
    for top in tree.body:
        if (path.name, owner_of(top)) in DEFAULT_READERS:
            continue
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == "DEFAULT_TOLERANCES" and isinstance(node.ctx, ast.Load)
                    and id(node) not in defaults):
                found.append(f"{path.name}:{node.lineno} reads DEFAULT_TOLERANCES in {owner_of(top)}")
    return found


def test_every_tol_defaults_to_the_one_default_bundle():
    found = [line for path in sorted(SRC.glob("*.py")) for line in default_spellings(path)]
    assert found == []


def test_default_scan_catches_each_other_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def _tol(tol):\n"
        "    return DEFAULT_TOLERANCES if tol is None else tol\n"
        "def f(x, tol=None):\n"
        "    return _tol(tol)\n"
        "def g(x, *, tol=DEFAULT_TOLERANCES, other=None):\n"
        "    return h(x, DEFAULT_TOLERANCES)\n"
    )
    assert [line.split(" ", 1)[1] for line in default_spellings(probe)] == [
        "defines _tol", "tol defaults to None", "calls _tol",
        "reads DEFAULT_TOLERANCES in _tol", "reads DEFAULT_TOLERANCES in g",
    ]
