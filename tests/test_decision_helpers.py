"""The shared decision helpers at their boundaries, and what func_ext no longer re-checks.

Each pin puts a residual at its limit times (1 -/+ 1e-6) and compares the
library's decision and message with the rule written out inline as
``rel * (1.0 + scale)``: routing a check through ``numkit._limit``,
``_restrict`` or ``_projector`` must not move a decision or a message.
"""

import numpy as np
import pytest

from opext import numkit, parrott, sa_ext
from opext.errors import HypothesisViolated, NotABounded, NotHermitian, RestrictionConditionFailed
from opext.func_ext import LeftIdeal, cstar_extendibility, extend_functional
from opext.kvn import PartialPositiveOperator, check_restriction, hilbert_lift, kvn_extend
from opext.numkit import DEFAULT_TOLERANCES as T
from opext.numkit import HermitianMatrix
from opext.oracle import Rng, random_instance_with_witness
from opext.parrott import StrongParrottInstance, classical_parrott, strong_parrott
from opext.sa_ext import SymmetricPartialOperator, extend_symmetric

SIDES = [pytest.param(1.0 - 1e-6, id="below"), pytest.param(1.0 + 1e-6, id="above")]


def solve(residual_at, f):
    """x > 0 with residual(x) = f * limit(x) for ``residual_at(x) -> (residual, limit)``, residual ~ x (fixed point)."""
    x = residual_at(0.0)[1]
    for _ in range(50):
        resid, limit = residual_at(x)
        x *= f * limit / resid
    return x


def decided(call):
    """``(accepted, message)`` of a call that either returns or raises."""
    try:
        call()
    except (ValueError, NotHermitian, NotABounded, HypothesisViolated, RestrictionConditionFailed) as exc:
        return False, str(exc)
    return True, None


def assert_at_boundary(resid, limit, f):
    """The residual sits within 1e-7 of f times its limit, so on f's side of it (rounding moves it by less)."""
    assert abs(resid / limit - f) < 1e-7


@pytest.mark.parametrize("f", SIDES)
def test_hermitian_asymmetry_boundary(f):
    h = np.array([[2.0, 1.0 - 1.0j, 0.5], [1.0 + 1.0j, -1.0, 0.25j], [0.5, -0.25j, 3.0]])
    k = np.array([[0.0, 1.0, 2.0j], [-1.0, 0.0, 1.0], [2.0j, -1.0, 0.0]])  # anti-Hermitian

    def at(s):
        a = h + s * k
        return np.linalg.norm(a - a.conj().T), T.herm * (1.0 + np.linalg.norm(a))

    s = solve(at, f)
    resid, limit = at(s)
    assert_at_boundary(resid, limit, f)
    expected = (True, None) if not resid > limit else (False, f"asymmetry {resid:.3e} exceeds tolerance")
    assert expected[0] == (f < 1.0)
    assert decided(lambda: HermitianMatrix(h + s * k)) == expected


def perturbed_projector(f):
    """diag(1 + d, 0, 1) - no rotation, so the residual is exact - with idempotency residual f times its limit."""

    def build(d):
        return np.diag([1.0 + d, 0.0, 1.0]).astype(np.complex128)

    def at(d):
        p = build(d)
        pm = (p + p.conj().T) / 2.0
        return np.linalg.norm(pm @ pm - pm), T.eq * (1.0 + np.linalg.norm(pm))

    d = solve(at, f)
    resid, limit = at(d)
    assert_at_boundary(resid, limit, f)
    return build(d), resid, limit


@pytest.mark.parametrize("f", SIDES)
def test_left_ideal_projector_boundary(f):
    p, resid, limit = perturbed_projector(f)
    message = f"not an orthogonal projector (idempotency residual {resid:.3e})"
    expected = (True, None) if not resid > limit else (False, message)
    assert expected[0] == (f < 1.0)
    assert decided(lambda: LeftIdeal(p)) == expected


@pytest.mark.parametrize("f", SIDES)
def test_classical_parrott_projector_boundary(f):
    p, resid, limit = perturbed_projector(f)
    k1 = np.diag([1.0, 0.0, 0.0])
    t1 = np.zeros((3, 2))
    t1[0, 0] = 0.5
    t1p = np.zeros((1, 3))
    t1p[0, 0] = 0.5
    message = f"first projector is not an orthogonal projector (idempotency residual {resid:.3e})"
    expected = (True, None) if not resid > limit else (False, message)
    assert expected[0] == (f < 1.0)
    assert decided(lambda: classical_parrott(p, k1, t1, t1p)) == expected


def restrict_residual(domain, values):
    """The reduction written out: thin SVD above the rank cutoff, ||V - V V_f V_f*||_F, and its floored limit."""
    u, s, vh = np.linalg.svd(domain, full_matrices=False)
    vf = vh[s > T.rank_cutoff(*domain.shape) * s[0]].conj().T
    fv = values @ vf
    return np.linalg.norm(values - fv @ vf.conj().T), T.eq * (1.0 + np.linalg.norm(values))


E = np.eye(3, dtype=np.complex128)


def left_dependent(eps):
    """S1 = [e1, e1] carries S2 = [x, x + eps e3]; T2 kills e3, so the other hypotheses hold exactly."""
    s1 = np.stack([E[0], E[0]], axis=1)
    s2 = np.stack([0.5 * E[0], 0.5 * E[0] + eps * E[2]], axis=1)
    t2 = E[:2]
    t1 = 0.5 * E[:2]
    return StrongParrottInstance(s1, s2, t1, t2), s1, s2


def right_dependent(eps):
    """T2 has the equal rows e1, e1 and T1 the rows 0.5 e1 + eps e3, 0.5 e1; e3 is off ran S1."""
    s1 = E[:, :2]
    s2 = 0.5 * E[:, :2]
    t2 = np.stack([E[0], E[0]])
    t1 = np.stack([0.5 * E[0] + eps * E[2], 0.5 * E[0]])
    return StrongParrottInstance(s1, s2, t1, t2), t2.conj().T, t1.conj().T


@pytest.mark.parametrize("f", SIDES)
@pytest.mark.parametrize("side, build", [("left", left_dependent), ("right", right_dependent)])
def test_strong_parrott_dependent_columns_boundary(side, build, f):
    def at(eps):
        return restrict_residual(*build(eps)[1:])

    eps = solve(at, f)
    inst, domain, values = build(eps)
    resid, limit = restrict_residual(domain, values)
    assert_at_boundary(resid, limit, f)
    message = f"{side} factorization: dependent domain columns carry inconsistent values (residual {resid:.3e})"
    expected = (True, None) if not resid > limit else (False, message)
    assert expected[0] == (f < 1.0)  # below: the values are consistent within tolerance
    assert decided(lambda: strong_parrott(inst)) == expected


@pytest.mark.parametrize("f", SIDES)
def test_sa_ext_collapse_boundary(f):
    """D = [e1, e3] against A = diag(1, 1, 0): e3 collapses, and its value beta e2 must vanish."""
    weight = np.diag([1.0, 1.0, 0.0]).astype(np.complex128)
    lift = hilbert_lift(weight)
    d = np.stack([E[0], E[2]], axis=1)

    def values(beta):
        return np.stack([0.5 * E[0], beta * E[1]], axis=1)

    def at(beta):
        v = values(beta)
        qr = lift.range_basis.a
        u = lift.coembedding() @ d
        return restrict_residual(u, (qr.conj().T @ v) / lift.roots[:, None])

    beta = solve(at, f)
    resid, limit = at(beta)
    assert_at_boundary(resid, limit, f)
    op = SymmetricPartialOperator(d, values(beta))
    message = (
        f"domain directions collapse in the weighted seminorm while their values do not "
        f"(residual {resid:.3e}); no finite weighted bound exists"
    )
    expected = (True, None) if not resid > limit else (False, message)
    assert expected[0] == (f < 1.0)
    assert decided(lambda: extend_symmetric(op, weight)) == expected


@pytest.mark.parametrize("f", SIDES)
def test_check_restriction_boundary(f):
    """D = [e1, e2] with values [e1, eps e3]: the Gram matrix diag(1, 0) leaves eps e3 on its kernel."""
    d = E[:, :2]

    def op_at(eps):
        return PartialPositiveOperator(d, np.stack([E[0], eps * E[2]], axis=1))

    def at(eps):
        op = op_at(eps)
        return op._factor[1], T.eq * (1.0 + np.linalg.norm(op._span[1]))

    eps = solve(at, f)
    op = op_at(eps)
    resid, limit = at(eps)
    assert_at_boundary(resid, limit, f)
    accepted = bool(resid <= limit)
    assert accepted == (f < 1.0)
    assert check_restriction(op) is accepted
    message = (
        "restriction condition violated: the prescribed values do not vanish "
        f"on the kernel of the domain Gram matrix (residual {resid:.3e})"
    )
    assert decided(lambda: kvn_extend(op)) == ((True, None) if accepted else (False, message))


@pytest.fixture
def hermitian_checks(monkeypatch):
    """Counts runs of the one Hermitian rule, ``numkit._checked_hermitian``, in every module that calls it."""
    calls = []
    original = numkit._checked_hermitian

    def counted(a, tol):
        calls.append(a.shape)
        return original(a, tol)

    for module in (numkit, sa_ext, parrott):
        monkeypatch.setattr(module, "_checked_hermitian", counted)
    return calls


@pytest.mark.parametrize("m", [2, 3, 4])
def test_functional_extensions_are_not_symmetrized_again(hermitian_checks, m):
    """extend_functional checks only U* W; cstar adds only the supplied extension.

    The endpoints, their transposes and |Phi| are Hermitian by construction,
    so they are wrapped without an asymmetry check.
    """
    inst, _ = random_instance_with_witness("functional", (m,), Rng(m))
    hermitian_checks.clear()
    extend_functional(inst.partial, inst.density)
    assert len(hermitian_checks) == 1
    hermitian_checks.clear()
    decision = cstar_extendibility(inst.partial, extension=inst.source)
    assert len(hermitian_checks) == 2
    assert decision.constant4_ok
    for g in (decision.g_min, decision.g_max):
        assert isinstance(g.density, HermitianMatrix)
        assert np.array_equal(g.density.a, g.density.a.conj().T)
