"""The package turns a rejected positive lift into NumericalFailure in one place, ``numkit._lifted_keep``.

The interval endpoints and the Parrott corner decide shifted Gram forms that
are positive with a finite bound by construction, so a NotPsd or a
RestrictionConditionFailed there is numerical.  ``_lifted_keep`` is the one
kernel that runs that decision and rewraps it, so a later change to it (the
gap rule of ROADMAP item 2) lands once.  The scan below parses
``src/opext`` and fails on a ``NumericalFailure(...)`` constructed anywhere
but once in ``numkit``, and on a handler outside ``numkit`` that catches
NotPsd or RestrictionConditionFailed and raises another type (kvn's NotPsd
rephrase keeps its type: its decision is structural).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "opext"

REJECTIONS = {"NotPsd", "RestrictionConditionFailed"}


def _name(node) -> str | None:
    """The bare or attribute name of an exception class expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def failure_sites(path: Path) -> list[int]:
    """Lines of each ``NumericalFailure(...)`` call."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _name(node.func) == "NumericalFailure"
    ]


def rewraps(path: Path) -> list[tuple[int, str]]:
    """``(line, raised)`` of each raise of another type inside a handler that catches NotPsd or RestrictionConditionFailed."""
    found = []
    for handler in ast.walk(ast.parse(path.read_text())):
        if not isinstance(handler, ast.ExceptHandler) or handler.type is None:
            continue
        caught = {_name(t) for t in (handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type])}
        if not caught & REJECTIONS:
            continue
        for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = _name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
                if raised not in caught:
                    found.append((node.lineno, raised))
    return found


def test_numerical_failure_is_raised_in_numkit_only():
    sites = {path.name: failure_sites(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in sites.items() if lines and name != "numkit.py"} == {}
    assert len(sites["numkit.py"]) == 1


def test_no_other_module_rewraps_a_rejection():
    stray = [
        f"{path.name}:{line} raises {raised}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "numkit.py"
        for line, raised in rewraps(path)
    ]
    assert stray == []
    assert [raised for _, raised in rewraps(SRC / "numkit.py")] == ["NumericalFailure"]  # the scan still sees the kernel


def test_scan_catches_planted_sites(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(g):\n"
        "    try:\n"
        "        g()\n"
        "    except (errors.RestrictionConditionFailed, NotPsd) as exc:\n"
        "        raise NumericalFailure(str(exc)) from exc\n"
        "    except NotPsd as exc:\n"
        "        raise NotPsd(f'rephrased: {exc}') from exc\n"
        "    except NotPsd:\n"
        "        raise ValueError\n"
        "    except ValueError:\n"
        "        raise errors.NumericalFailure('elsewhere')\n"
    )
    assert failure_sites(probe) == [5, 11]
    assert rewraps(probe) == [(5, "NumericalFailure"), (9, "ValueError")]
