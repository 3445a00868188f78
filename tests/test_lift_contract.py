"""``kvn.HilbertLift`` is the one owner of range coordinates.

A lift holds J = Q diag(rho) and applies J* and one pullback J^+, which
carries the range rule ``||x - Q Q* x||_F <= eq (1 + ||x||_F)``.  The scan
below parses ``src/opext`` and fails when a module other than ``kvn.py``
reads a lift's ``range_basis`` (Q) or ``roots`` (rho), or when a
``NotABounded`` naming the range is raised anywhere but in
``HilbertLift.pullback``.  The pullback itself is pinned against the plain
formulas, bit for bit, and its range rule at its limit on each side.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from opext.errors import NotABounded
from opext.kvn import hilbert_lift
from opext.numkit import DEFAULT_TOLERANCES as T

SRC = Path(__file__).resolve().parent.parent / "src" / "opext"
FACTOR = {"range_basis", "roots"}


def scan(path: Path) -> tuple[list[tuple[int, str]], list[str]]:
    """``(line, attribute)`` of each read of a lift's Q or rho, and the qualified scopes raising a range NotABounded."""
    reads, raises = [], []

    def text(node) -> str:
        return "".join(part.value for part in ast.walk(node) if isinstance(part, ast.Constant) and isinstance(part.value, str))

    def visit(node, scope):
        if isinstance(node, ast.Attribute) and node.attr in FACTOR:
            reads.append((node.lineno, node.attr))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            func = node.exc.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name == "NotABounded" and "range" in text(node.exc):
                raises.append(scope)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return reads, raises


def test_only_kvn_reads_range_basis_and_roots():
    stray = [
        f"{path.name}:{line} reads .{attr}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "kvn.py"
        for line, attr in scan(path)[0]
    ]
    assert stray == []
    assert scan(SRC / "kvn.py")[0]  # the scan still sees kvn's own reads


def test_range_rule_is_written_once_in_the_pullback():
    raised = [(path.name, scope) for path in sorted(SRC.glob("*.py")) for scope in scan(path)[1]]
    assert raised == [("kvn.py", "HilbertLift.pullback")]


def test_scan_catches_planted_reads_and_rules(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(lift, v):\n"
        "    q = lift.range_basis.a\n"
        "    if v:\n"
        "        raise NotABounded(f'values escape the range (residual {v:.3e})')\n"
        "    raise errors.NotABounded('domain directions collapse')\n"
        "class C:\n"
        "    def g(self, lift):\n"
        "        raise NotABounded('escapes the range of a weight') from None\n"
        "        return lift.roots\n"
    )
    assert scan(probe) == ([(2, "range_basis"), (9, "roots")], ["f", "C.g"])


def lift_case(seed):
    """A rank-deficient 7 x 7 weight's lift, and one of rank 4 on C^5 for the two-sided pullback."""
    gen = np.random.default_rng([seed, 229])

    def weight(n, r):
        f = gen.standard_normal((n, r)) + 1j * gen.standard_normal((n, r))
        return f @ f.conj().T

    return gen, hilbert_lift(weight(7, 5)), hilbert_lift(weight(5, 4))


@pytest.mark.parametrize("seed", range(4))
def test_pullback_is_the_plain_formula(seed):
    gen, ran, dom = lift_case(seed)
    q, rho, qd, rhod = ran.range_basis.a, ran.roots, dom.range_basis.a, dom.roots
    j = ran.embedding()
    assert j is ran.embedding() and not j.flags.writeable
    assert np.array_equal(j, q * rho)
    assert np.array_equal(ran.coembedding(), (q * rho).conj().T)
    v = j @ (gen.standard_normal((ran.rank, 3)) + 1j * gen.standard_normal((ran.rank, 3)))
    assert np.array_equal(ran.pullback(v, T), (q.conj().T @ v) / rho[:, None])
    s = j @ (gen.standard_normal((ran.rank, dom.rank)) + 1j * gen.standard_normal((ran.rank, dom.rank))) @ dom.coembedding()
    assert np.array_equal(ran.pullback(s, T, dom), (q.conj().T @ s @ qd) / np.outer(rho, rhod))
    assert np.allclose(ran.pullback(j, T), np.eye(ran.rank), atol=1e-12)  # J^+ J = I_r


E = np.eye(3, dtype=np.complex128)
SIDES = [pytest.param(1.0 - 1e-6, id="below"), pytest.param(1.0 + 1e-6, id="above")]


def leak(eps):
    """S = e1 e1* + eps e3 e1*: its range leaks out of ran diag(1, 1, 0) by eps, its adjoint's does not."""
    return np.outer(E[0], E[0]) + eps * np.outer(E[2], E[0])


@pytest.mark.parametrize("f", SIDES)
@pytest.mark.parametrize("adjoint", [False, True], ids=["range", "adjoint"])
def test_range_rule_at_its_limit(f, adjoint):
    """The residual ||x - Q Q* x||_F is eps exactly, so eps = f * eq (1 + ||S||_F) puts it on f's side of the limit."""
    lift = hilbert_lift(np.diag([1.0, 1.0, 0.0]).astype(np.complex128))
    eps = T.eq
    for _ in range(50):
        eps = f * T.eq * (1.0 + np.linalg.norm(leak(eps)))
    s = leak(eps).conj().T if adjoint else leak(eps)
    message = f"values escape the range of the weight (residual {eps:.3e}); no finite weighted bound exists"
    call = (lambda: lift.pullback(s, T, lift)) if adjoint else (lambda: lift.pullback(s, T))
    if f < 1.0:
        call()
    else:
        with pytest.raises(NotABounded) as info:
            call()
        assert str(info.value) == message
