"""Each feasibility hypothesis is decided once, on the data the construction uses.

* kvn positivity: by the spectrum of P* Y, the Gram form in the domain's
  orthonormal basis, so the same span gives the same decision in any basis
  and at any common scale of D and G;
* the strong-Parrott Loewner hypotheses: by the reduced pairs' kernel
  residual and norm, relative to the data, so the decision does not move
  with a common scale of S1 and S2;
* classical Parrott's contraction hypotheses: by the reduced bound of each
  side, named as that hypothesis;
* a left ideal's range: once, at construction, by the rule that accepted
  the projection, and used by the GNS realization and by the agreement of
  an extension with g_0;
* a domain basis' independence: by one rule, ``numkit._require_independent``,
  which each construction calls with the SVD it already takes: kvn that of D,
  sa-ext and Parrott that of the lifted domain U = J* D.  So data that is
  also asymmetric, or has values outside ran A, raises that error first.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from opext import cli, func_ext
from opext.errors import HypothesisViolated, NotABounded, NotHermitian, NotPsd
from opext.func_ext import LeftIdeal, PartialFunctional, cstar_extendibility, extend_functional, f_bound
from opext.kvn import PartialPositiveOperator, kvn_extend
from opext.numkit import DEFAULT_TOLERANCES as T
from opext.parrott import ParrottInstance, StrongParrottInstance, classical_parrott, parrott_complete, strong_parrott
from opext.sa_ext import SymmetricPartialOperator, extend_symmetric, lift_symmetric
from opext.serialize import dumps_canonical

I3 = np.eye(3)


def outcome(call):
    """``(accepted, error type, message prefix before the first ':')`` of a call."""
    try:
        call()
    except (NotPsd, NotHermitian, HypothesisViolated) as exc:
        return False, type(exc).__name__, str(exc).split(":")[0]
    return True, None, None


class TestKvnPositivity:
    @pytest.mark.parametrize("b", [np.diag([1.0, -5e-9, 0.0]), np.diag([1.0, -1e-3, 0.0])], ids=["inside", "outside"])
    def test_same_span_same_decision_in_any_basis(self, b):
        # diag(1e-3, 1e3) rescales the Gram matrix D* G to diag(1e-6, 1e6 * b22):
        # the span and the operator are those of the orthonormal basis
        decisions = []
        for d in (I3[:, :2], I3[:, :2] @ np.diag([1e-3, 1e3])):
            decisions.append(outcome(lambda d=d: PartialPositiveOperator(d, b @ d)))
        assert decisions[0] == decisions[1]
        assert decisions[0][0] == (b[1, 1] == -5e-9)

    def test_accepted_span_extends_alike_in_both_bases(self):
        b = np.diag([1.0, -5e-9, 0.0])
        exts = [kvn_extend(PartialPositiveOperator(d, b @ d)).a for d in (I3[:, :2], I3[:, :2] @ np.diag([1e-3, 1e3]))]
        np.testing.assert_allclose(exts[0], np.diag([1.0, 0.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(exts[1], exts[0], atol=1e-15)

    @pytest.mark.parametrize("c", [1.0, 1e-2, 1e-4, 1e-6])
    def test_scale_ladder_gives_one_error(self, c):
        # P* Y = diag(1, -1e-3) at every c: one error type and one message on every rung
        b = np.diag([1.0, -1e-3, 0.5])
        d = c * I3[:, :2]
        with pytest.raises(NotPsd, match=r"^induced Gram matrix is not positive: eigenvalue -1\.000e-03"):
            PartialPositiveOperator(d, b @ d)

    def test_asymmetric_gram_keeps_its_message(self):
        d = I3[:, :2]
        with pytest.raises(NotHermitian, match="^induced Gram matrix is not Hermitian: asymmetry"):
            PartialPositiveOperator(d, np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))


DELTAS = (1e-9, 4e-9, 7e-9, 9e-9, 2e-8, 1e-6, 1e-4)


def strong_at(c, delta):
    s1 = c * I3[:, :2]
    return StrongParrottInstance(s1, (1.0 + delta) * s1, np.zeros((1, 3)), np.zeros((1, 3)))


class TestStrongParrottBand:
    def test_decision_table_does_not_depend_on_scale(self):
        tables = {c: [outcome(lambda: strong_parrott(strong_at(c, delta))) for delta in DELTAS] for c in (1e-2, 1.0, 1e2)}
        assert tables[1e-2] == tables[1.0] == tables[1e2]
        assert [accepted for accepted, _, _ in tables[1.0]] == [delta <= 9e-9 for delta in DELTAS]
        assert {prefix for _, _, prefix in tables[1.0][4:]} == {"S2* S2 <= S1* S1 fails"}

    @pytest.mark.parametrize("c", [1e-2, 1.0, 1e2])
    @pytest.mark.parametrize("delta", [d for d in DELTAS if d <= 9e-9])
    def test_accepted_solutions_are_contractions_meeting_both_equations(self, c, delta):
        inst = strong_at(c, delta)
        x = strong_parrott(inst).a
        assert np.linalg.norm(x, 2) <= 1.0 + T.eq
        assert np.linalg.norm(x @ inst.s1.a - inst.s2.a) <= T.eq * (1.0 + np.linalg.norm(inst.s1.a))
        assert np.linalg.norm(inst.t2.a @ x - inst.t1.a) <= T.eq * (1.0 + np.linalg.norm(inst.t2.a))


class TestClassicalContraction:
    # T1 = T1 P_H1 maps ran P_H1 = span e1 to beta e2, and T1' = 0 agrees with its compression
    P = np.diag([1.0, 0.0])

    @pytest.mark.parametrize(
        "beta, accepted",
        [(1.0 + 0.9 * T.eq, True), (1.0 + 1.1 * T.eq, False), (1.5, False)],
        ids=["below", "above", "far"],
    )
    def test_restricted_norm_decided_by_the_reduced_bound(self, beta, accepted):
        decision = outcome(lambda: classical_parrott(self.P, self.P, np.array([[0.0, 0.0], [beta, 0.0]]), np.zeros((2, 2))))
        assert decision == ((True, None, None) if accepted else (False, "HypothesisViolated", "||T1|| <= 1 fails"))

    @pytest.mark.parametrize("beta", [1.0 + 1.1 * T.eq, 1.5], ids=["above", "far"])
    def test_compressed_norm_decided_by_the_reduced_bound(self, beta):
        # T1' = P_K1 T1' = beta e1 e2* into ran P_K1 = span e1, and T1 = 0 on span e1
        decision = outcome(lambda: classical_parrott(self.P, self.P, np.zeros((2, 2)), np.array([[0.0, beta], [0.0, 0.0]])))
        assert decision == (False, "HypothesisViolated", "||T1'|| <= 1 fails")


NEAR = np.diag([1.0, 5e-9, 0.0])
GAMMA = np.array([[0.01, 0.01, 0.0], [0.01, 100.0, 0.0], [0.0, 0.0, 1.0]])


class TestIdealRange:
    @pytest.mark.parametrize("p", [NEAR, np.diag([1.0, 0.0, 0.0])], ids=["near", "exact"])
    def test_extension_agrees_on_the_decided_range(self, p):
        # Gamma extends its own restriction; the near projector's 5e-9 row is
        # outside the range its idempotency check accepted
        decision = cstar_extendibility(PartialFunctional(LeftIdeal(p), GAMMA), extension=GAMMA)
        assert decision.exact_bound == pytest.approx(1.0, abs=1e-12)

    def test_extension_agrees_through_the_cli(self, tmp_path):
        docs = []
        for p in (NEAR, np.diag([1.0, 0.0, 0.0])):
            payload = {"m": 3, "projection": p, "gamma": GAMMA, "extension": GAMMA}
            path = tmp_path / "inst.json"
            path.write_text(dumps_canonical({"kind": "cstar-check", "payload": payload}))
            out = tmp_path / "result.json"
            assert cli.main(["cstar-check", str(path), "--out", str(out)]) == 0
            docs.append(json.loads(out.read_text()))
        assert docs[0]["status"] == "ok"
        assert docs[0]["outputs"]["exact_bound"] == pytest.approx(1.0, abs=1e-12)
        assert docs[0]["diagnostics"] == docs[1]["diagnostics"]

    def test_range_is_decided_once_per_ideal(self, monkeypatch):
        calls = []
        original = func_ext._projector

        def counted(p, tol, what):
            calls.append(np.shape(p))
            return original(p, tol, what)

        monkeypatch.setattr(func_ext, "_projector", counted)
        gen = np.random.default_rng(91)
        q = np.linalg.qr(gen.standard_normal((4, 2)))[0]
        x = gen.standard_normal((4, 4))
        ideal = LeftIdeal(q @ q.T)
        assert calls == [(4, 4)]
        pf = PartialFunctional(ideal, x + x.T)
        density = np.eye(4) + 0.1 * (x @ x.T)
        f_bound(pf, density)
        extend_functional(pf, density)
        cstar_extendibility(pf)
        cstar_extendibility(pf, density=density, extension=extend_functional(pf, density)[0])
        assert calls == [(4, 4)]


DEPENDENT = "domain basis columns are dependent; supply an independent set"
TWICE = np.array([[1.0, 2.0], [0.0, 0.0]])  # the second column is twice the first


@pytest.fixture
def svd_calls(monkeypatch):
    """``(input shape, compute_uv)`` of each ``np.linalg.svd`` call."""
    calls = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestDependentDomain:
    def test_message_is_written_once(self):
        src = Path(__file__).resolve().parent.parent / "src" / "opext"
        sites = [path.name for path in sorted(src.glob("*.py")) for _ in range(path.read_text().count(DEPENDENT))]
        assert sites == ["numkit.py"]

    @pytest.mark.parametrize("build", [
        lambda: PartialPositiveOperator(TWICE, TWICE),
        lambda: extend_symmetric(SymmetricPartialOperator(TWICE, TWICE), np.eye(2)),
        lambda: lift_symmetric(SymmetricPartialOperator(TWICE, TWICE), np.eye(2)),
        lambda: parrott_complete(ParrottInstance(TWICE, TWICE, I3[:2, :1], I3[:2, :1], np.eye(2), np.eye(2), 4.0, 4.0)),
    ], ids=["kvn", "sa-ext", "sa-ext-lift", "parrott"])
    def test_every_construction_raises_the_one_error(self, build):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == DEPENDENT

    def test_sa_ext_through_the_cli_is_invalid_input(self, tmp_path):
        payload = {"n": 2, "domain_basis": TWICE, "values": TWICE, "weight": np.eye(2)}
        path = tmp_path / "inst.json"
        path.write_text(dumps_canonical({"kind": "sa-ext", "payload": payload}))
        out = tmp_path / "result.json"
        assert cli.main(["sa-ext", str(path), "--out", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert doc["status"] == "invalid-input"
        assert doc["error"] == {"type": "ValueError", "message": DEPENDENT}

    def test_sa_ext_decides_on_its_lift(self, svd_calls):
        # construction decomposes nothing; the extension decides on the thin SVD of U = J* D (3 x 2 for the
        # rank-3 weight), then takes the norm of Y: D's own 4 x 2 shape is never decomposed
        d = np.eye(4)[:, :2]
        op = SymmetricPartialOperator(d, d)
        assert svd_calls == []
        extend_symmetric(op, np.diag([1.0, 1.0, 1.0, 0.0]))
        assert svd_calls == [((3, 2), True), ((3, 2), False)]

    def test_asymmetric_dependent_data_is_not_hermitian(self):
        # D* V = [[1, 0], [2, 0]]: symmetry is decided before the lift decides dependence
        with pytest.raises(NotHermitian):
            extend_symmetric(SymmetricPartialOperator(TWICE, np.eye(2)), np.eye(2))

    @pytest.mark.parametrize("call", [extend_symmetric, lift_symmetric])
    def test_dependent_data_outside_the_range_is_not_bounded(self, call):
        # D* V = [[1, 2], [2, 4]] is Hermitian, but V's second row sticks out of ran diag(1, 0)
        op = SymmetricPartialOperator(TWICE, np.array([[1.0, 2.0], [1.0, 2.0]]))
        with pytest.raises(NotABounded):
            call(op, np.diag([1.0, 0.0]))

    def test_kvn_decides_on_its_own_factor(self, svd_calls):
        PartialPositiveOperator(I3[:, :2], I3[:, :2])
        assert svd_calls == [((3, 2), True)]
        with pytest.raises(ValueError, match=DEPENDENT):
            PartialPositiveOperator(TWICE, TWICE)
        # a second svd, of singular values alone, only on the error path
        assert svd_calls[1:] == [((2, 2), True), ((2, 2), False)]

