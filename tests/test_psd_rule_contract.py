"""The package has one positivity and rank rule on a spectrum, in ``numkit``.

``numkit._psd_keep`` decides a Hermitian form from its eigenvalues: NotPsd
through ``_require_psd``, else the mask above the relative rank cutoff.
``psd_eig``, a lift and the kvn Gram factor call it, and the interval
endpoints and the Parrott corner through ``_lifted_keep``, so a later change to either decision (ROADMAP item 2's
leak-based rank rule) is a change to ``numkit`` alone.  The scan below
parses ``src/opext`` and fails on a call to ``_require_psd`` or to
``.rank_cutoff(`` in any other module.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "opext"

RULE_CALLS = {"_require_psd", "rank_cutoff"}


def rule_calls(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of each call to ``_require_psd`` (bare or as an attribute) or to ``.rank_cutoff``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "_require_psd":
            found.append((node.lineno, func.id))
        elif isinstance(func, ast.Attribute) and func.attr in RULE_CALLS:
            found.append((node.lineno, func.attr))
    return found


def test_rule_is_called_in_numkit_only():
    stray = [
        f"{path.name}:{line} calls {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "numkit.py"
        for line, name in rule_calls(path)
    ]
    assert stray == []
    assert {name for _, name in rule_calls(SRC / "numkit.py")} == RULE_CALLS  # the scan still sees the rule


def test_scan_catches_planted_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(t, w, k):\n"
        "    _require_psd(w[0], w[-1], t.psd)\n"
        "    numkit._require_psd(w[0], w[-1], t.psd)\n"
        "    return w > t.rank_cutoff(k, k) * w[0], t.rank_cutoff\n"
    )
    assert [name for _, name in rule_calls(probe)] == ["_require_psd", "_require_psd", "rank_cutoff"]
