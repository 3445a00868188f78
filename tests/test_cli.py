"""Command-line interface: exit codes, result files, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opext.cli as cli
from opext.errors import NumericalFailure
from opext.kvn import hilbert_lift
from opext.oracle import Rng, random_instance_with_witness
from opext.serialize import decode_matrix, dumps_canonical

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"


def run(tmp_path, *argv):
    """Invoke the CLI in-process, returning (exit_code, parsed result)."""
    out = tmp_path / "result.json"
    code = cli.main([*argv, "--out", str(out)])
    document = json.loads(out.read_text()) if out.exists() else None
    return code, document


def write_instance(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(dumps_canonical(document))
    return str(path)


class TestCommittedFixtures:
    def test_kvn(self, tmp_path):
        code, doc = run(tmp_path, "kvn", str(INSTANCES / "kvn.json"))
        assert code == 0
        assert doc["status"] == "ok"
        assert doc["kind"] == "kvn"
        assert doc["error"] is None
        assert set(doc) == {"status", "kind", "outputs", "diagnostics", "tolerances", "seed", "error"}
        ext = decode_matrix(doc["outputs"]["extension"])
        np.testing.assert_allclose(ext, np.ones((2, 2)), atol=1e-8)
        assert doc["diagnostics"]["restriction_ok"] is True
        assert doc["diagnostics"]["value_residual"] <= 1e-8
        assert doc["diagnostics"]["min_eigenvalue"] >= -1e-10

    def test_sa_ext(self, tmp_path):
        code, doc = run(tmp_path, "sa-ext", str(INSTANCES / "sa-ext.json"))
        assert code == 0
        assert doc["outputs"]["alpha"] == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(
            decode_matrix(doc["outputs"]["s_min"]), np.diag([1.0, -1.0]), atol=1e-8
        )
        np.testing.assert_allclose(
            decode_matrix(doc["outputs"]["s_max"]), np.diag([1.0, 1.0]), atol=1e-8
        )
        assert doc["outputs"]["probe_in_interval"] is True
        assert doc["diagnostics"]["order_ok"] is True

    def test_parrott(self, tmp_path):
        code, doc = run(tmp_path, "parrott", str(INSTANCES / "parrott.json"))
        assert code == 0
        np.testing.assert_allclose(
            decode_matrix(doc["outputs"]["completion"]),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            atol=1e-8,
        )
        assert doc["diagnostics"]["bound_ok"] is True
        assert "compatible" not in doc["diagnostics"]  # an incompatible instance raises before any diagnostic
        assert doc["outputs"]["weighted_norm"] <= doc["outputs"]["norm_bound"] + 1e-8

    def test_strong_parrott(self, tmp_path):
        code, doc = run(tmp_path, "strong-parrott", str(INSTANCES / "strong-parrott.json"))
        assert code == 0
        np.testing.assert_allclose(
            decode_matrix(doc["outputs"]["solution"]),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            atol=1e-8,
        )
        assert doc["outputs"]["norm"] <= 1.0 + 1e-8
        assert doc["diagnostics"]["s_residual"] <= 1e-8
        assert doc["diagnostics"]["t_residual"] <= 1e-8

    def test_functional_ext(self, tmp_path):
        code, doc = run(tmp_path, "functional-ext", str(INSTANCES / "functional-ext.json"))
        assert code == 0
        assert doc["outputs"]["alpha"] == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(
            decode_matrix(doc["outputs"]["g_min"]), np.diag([1.0, -1.0]), atol=1e-8
        )
        np.testing.assert_allclose(
            decode_matrix(doc["outputs"]["g_max"]), np.diag([1.0, 1.0]), atol=1e-8
        )
        assert doc["diagnostics"]["ideal_agreement_min"] <= 1e-8

    def test_cstar_check(self, tmp_path):
        code, doc = run(tmp_path, "cstar-check", str(INSTANCES / "cstar-check.json"))
        assert code == 0
        assert doc["outputs"]["extendible"] is True
        assert doc["outputs"]["violations"] == 0
        assert doc["outputs"]["constant4_ok"] is True
        assert doc["outputs"]["measured_bound"] == pytest.approx(1.0, abs=0.05)
        assert doc["outputs"]["exact_bound"] == pytest.approx(1.0, abs=1e-10)
        assert doc["outputs"]["measured_bound"] <= doc["outputs"]["exact_bound"] * (1.0 + 1e-8)
        assert doc["seed"] is None


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        for kind, name in (("kvn", "kvn.json"), ("cstar-check", "cstar-check.json")):
            out1 = tmp_path / "a.json"
            out2 = tmp_path / "b.json"
            assert cli.main([kind, str(INSTANCES / name), "--out", str(out1)]) == 0
            assert cli.main([kind, str(INSTANCES / name), "--out", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_matches_out_file(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert cli.main(["kvn", str(INSTANCES / "kvn.json"), "--out", str(out)]) == 0
        assert cli.main(["kvn", str(INSTANCES / "kvn.json")]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_gen_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert cli.main(["gen", "--kind", "sa-ext", "--dims", "4", "--seed", "9", "--out", str(a)]) == 0
        assert cli.main(["gen", "--kind", "sa-ext", "--dims", "4", "--seed", "9", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestInfeasibleExit:
    def test_kvn_restriction_violation(self, tmp_path):
        path = write_instance(tmp_path, "bad.json", {
            "kind": "kvn",
            "payload": {
                "n": 2,
                "domain_basis": [[1.0], [0.0]],
                "values": [[0.0], [1.0]],
            },
        })
        code, doc = run(tmp_path, "kvn", path)
        assert code == 1
        assert doc["status"] == "infeasible"
        assert doc["error"]["type"] == "RestrictionConditionFailed"
        assert "restriction" in doc["error"]["message"]

    def test_sa_ext_unbounded(self, tmp_path):
        path = write_instance(tmp_path, "bad.json", {
            "kind": "sa-ext",
            "payload": {
                "n": 2,
                "domain_basis": [[1.0], [0.0]],
                "values": [[0.0], [1.0]],
                "weight": [[1.0, 0.0], [0.0, 0.0]],
            },
        })
        code, doc = run(tmp_path, "sa-ext", path)
        assert code == 1
        assert doc["error"]["type"] == "NotABounded"

    def test_parrott_incompatible(self, tmp_path):
        path = write_instance(tmp_path, "bad.json", {
            "kind": "parrott",
            "payload": {
                "n1": 1, "n2": 1,
                "domain1": [[1.0]], "values1": [[1.0]],
                "domain2": [[1.0]], "values2": [[2.0]],
                "weight1": [[1.0]], "weight2": [[1.0]],
                "alpha1": 4.0, "alpha2": 4.0,
            },
        })
        code, doc = run(tmp_path, "parrott", path)
        assert code == 1
        assert doc["error"]["type"] == "IncompatibleInstance"

    def test_parrott_pairing_off_by_less_than_eq(self, tmp_path):
        # the swap fixture with values2 = e2 + 1e-9 e1: rejected by the
        # pairing decision itself, not by a later symmetry check
        path = write_instance(tmp_path, "bad.json", {
            "kind": "parrott",
            "payload": {
                "n1": 2, "n2": 2,
                "domain1": [[1.0], [0.0]], "values1": [[0.0], [1.0]],
                "domain2": [[1.0], [0.0]], "values2": [[1e-9], [1.0]],
                "weight1": [[1.0, 0.0], [0.0, 1.0]], "weight2": [[1.0, 0.0], [0.0, 1.0]],
                "alpha1": 1.0, "alpha2": 1.0,
            },
        })
        code, doc = run(tmp_path, "parrott", path)
        assert code == 1
        assert doc["status"] == "infeasible"
        assert doc["error"]["type"] == "IncompatibleInstance"

    def test_strong_parrott_hypothesis_violation(self, tmp_path):
        path = write_instance(tmp_path, "bad.json", {
            "kind": "strong-parrott",
            "payload": {
                "s1": [[1.0], [0.0]],
                "s2": [[0.0], [1.5]],
                "t1": [[0.0, 1.0]],
                "t2": [[1.0, 0.0]],
            },
        })
        code, doc = run(tmp_path, "strong-parrott", path)
        assert code == 1
        assert doc["error"]["type"] == "HypothesisViolated"

    def test_strong_parrott_reduced_bound_above_one(self, tmp_path):
        # S2* S2 <= S1* S1 holds within the positivity slack, but X S1 = S2
        # forces a norm of 1.1: a hypothesis violation, not an incompatibility
        path = write_instance(tmp_path, "bad.json", {
            "kind": "strong-parrott",
            "payload": {
                "s1": np.diag([1.0, 1e-5]),
                "s2": np.diag([1.0, 1.1e-5]),
                "t1": np.zeros((1, 2)),
                "t2": np.zeros((1, 2)),
            },
        })
        code, doc = run(tmp_path, "strong-parrott", path)
        assert code == 1
        assert doc["error"]["type"] == "HypothesisViolated"

    def test_cstar_not_symmetric(self, tmp_path):
        path = write_instance(tmp_path, "bad.json", {
            "kind": "cstar-check",
            "payload": {
                "m": 2,
                "projection": [[1.0, 0.0], [0.0, 1.0]],
                "gamma": [[0.0, 1.0], [0.0, 0.0]],
            },
        })
        code, doc = run(tmp_path, "cstar-check", path)
        assert code == 1
        assert doc["error"]["type"] == "NotSymmetric"


class TestIllConditionedInput:
    def test_strong_parrott_at_condition_1e8(self, tmp_path, conditioned_strong_parrott):
        # cond(S1) = cond(T2) = 1e8 on data a contraction solves
        inst = conditioned_strong_parrott(0, 1e8)
        path = write_instance(tmp_path, "ill.json", {
            "kind": "strong-parrott",
            "payload": {name: getattr(inst, name).a for name in ("s1", "s2", "t1", "t2")},
        })
        code, doc = run(tmp_path, "strong-parrott", path)
        assert code == 0
        assert doc["outputs"]["norm"] <= 1.0 + 1e-8
        assert doc["diagnostics"]["s_residual"] <= 1e-8 * (1.0 + np.linalg.norm(inst.s1.a))
        assert doc["diagnostics"]["t_residual"] <= 1e-8 * (1.0 + np.linalg.norm(inst.t2.a))


class TestInvalidInputExit:
    def test_kind_mismatch(self, tmp_path):
        code, doc = run(tmp_path, "sa-ext", str(INSTANCES / "kvn.json"))
        assert code == 2
        assert doc["status"] == "invalid-input"
        assert "kind" in doc["error"]["message"]

    def test_missing_file(self, tmp_path):
        code, doc = run(tmp_path, "kvn", str(tmp_path / "missing.json"))
        assert code == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, doc = run(tmp_path, "kvn", str(path))
        assert code == 2
        assert doc["error"]["type"] == "JSONDecodeError"

    def test_deeply_nested_json(self, tmp_path):
        # nesting past the decoder's recursion limit is malformed input, not an infeasible instance
        depth = 100_000
        path = tmp_path / "deep.json"
        path.write_text('{"kind": "kvn", "payload": ' + "[" * depth + "]" * depth + "}")
        code, doc = run(tmp_path, "kvn", str(path))
        assert (code, doc["status"], doc["error"]["type"]) == (2, "invalid-input", "ValueError")
        assert doc["error"]["message"] == "instance file is nested too deeply to decode"

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]\n")
        code, doc = run(tmp_path, "kvn", str(path))
        assert code == 2

    def test_missing_payload_key(self, tmp_path):
        path = write_instance(tmp_path, "bad.json", {
            "kind": "kvn",
            "payload": {"n": 2, "domain_basis": [[1.0], [0.0]]},
        })
        code, doc = run(tmp_path, "kvn", path)
        assert code == 2
        assert "values" in doc["error"]["message"]

    def test_shape_mismatch(self, tmp_path):
        path = write_instance(tmp_path, "bad.json", {
            "kind": "kvn",
            "payload": {
                "n": 2,
                "domain_basis": [[1.0], [0.0]],
                "values": [[1.0, 0.0], [0.0, 1.0]],
            },
        })
        code, doc = run(tmp_path, "kvn", path)
        assert code == 2

    @pytest.mark.parametrize("entry", [10 ** 400, [1, 10 ** 400]], ids=["number", "pair"])
    def test_matrix_integer_beyond_the_float_range(self, tmp_path, entry):
        path = write_instance(tmp_path, "bad.json", {
            "kind": "kvn",
            "payload": {"n": 1, "domain_basis": [[entry]], "values": [[1.0]]},
        })
        code, doc = run(tmp_path, "kvn", path)
        assert code == 2
        assert doc["status"] == "invalid-input"
        assert doc["error"] == {"type": "ValueError", "message": "domain_basis: entries must be finite"}

    def test_integer_beyond_the_float_range(self, tmp_path):
        path = write_instance(tmp_path, "bad.json", {
            "kind": "parrott",
            "payload": {
                "n1": 1, "n2": 1,
                "domain1": [[1.0]], "values1": [[1.0]],
                "domain2": [[1.0]], "values2": [[1.0]],
                "weight1": [[1.0]], "weight2": [[1.0]],
                "alpha1": 10 ** 400, "alpha2": 1.0,
            },
        })
        code, doc = run(tmp_path, "parrott", path)
        assert code == 2
        assert doc["status"] == "invalid-input"
        assert "alpha1" in doc["error"]["message"]

    def test_parrott_dependent_domain(self, tmp_path):
        # the fixture's T1 with its domain column repeated: compatible, but
        # the stacked domain is dependent
        path = write_instance(tmp_path, "bad.json", {
            "kind": "parrott",
            "payload": {
                "n1": 2, "n2": 2,
                "domain1": [[1.0, 1.0], [0.0, 0.0]], "values1": [[0.0, 0.0], [1.0, 1.0]],
                "domain2": [[1.0], [0.0]], "values2": [[0.0], [1.0]],
                "weight1": [[1.0, 0.0], [0.0, 1.0]], "weight2": [[1.0, 0.0], [0.0, 1.0]],
                "alpha1": 1.0, "alpha2": 1.0,
            },
        })
        code, doc = run(tmp_path, "parrott", path)
        assert code == 2
        assert doc["status"] == "invalid-input"
        assert doc["error"]["type"] == "ValueError"
        assert "dependent" in doc["error"]["message"]

    @pytest.mark.parametrize("document, message", [
        ({"kind": "kvn", "payload": {}}, "payload is missing 'n'"),
        ({"kind": "kvn", "payload": {"n": "2"}}, "n: expected an integer"),
        ({"kind": "kvn", "payload": {"n": 1, "domain_basis": [[1.0, 0.0]], "values": [[1.0]]}},
         "values: expected 2 columns, got 1"),
        ({"kind": "sa-ext"}, "instance file is for kind 'sa-ext', not 'kvn'"),
        ({"kind": "kvn"}, "instance file is missing its 'payload' object"),
        ({"kind": "kvn", "payload": {}, "tolerances": {"bogus": 1.0}}, "tolerances: unknown key 'bogus'"),
        ({"kind": "kvn", "payload": {}, "tolerances": {"eq": -1.0}},
         "bad tolerances: tolerance 'eq' must be a finite nonnegative real, got -1.0"),
    ], ids=["missing-key", "bad-int", "bad-shape", "kind", "no-payload", "tolerance-key", "tolerance-value"])
    def test_structural_errors_are_plain_value_errors(self, tmp_path, document, message):
        # a malformed file reports the public ValueError, as a malformed matrix does
        code, doc = run(tmp_path, "kvn", write_instance(tmp_path, "bad.json", document))
        assert code == 2
        assert doc["error"] == {"type": "ValueError", "message": message}

    def test_bad_tolerance_flag(self, tmp_path):
        code, doc = run(tmp_path, "kvn", str(INSTANCES / "kvn.json"), "--tol-eq", "-1")
        assert code == 2
        assert "tolerance" in doc["error"]["message"]

    def test_argparse_failures_map_to_invalid_input(self, capsys):
        assert cli.main([]) == 2
        assert cli.main(["kvn"]) == 2
        assert cli.main(["gen", "--kind", "bogus"]) == 2
        assert cli.main(["parrott", "x.json", "--endpoint", "median"]) == 2
        capsys.readouterr()

    def test_help_exits_ok(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()


class TestNumericalFailureExit:
    def test_runner_exception_maps_to_exit_three(self, tmp_path, monkeypatch):
        def boom(data, tol):
            raise NumericalFailure("synthetic breakdown")

        monkeypatch.setattr(cli._KINDS["kvn"], "run", boom)
        code, doc = run(tmp_path, "kvn", str(INSTANCES / "kvn.json"))
        assert code == 3
        assert doc["status"] == "numerical-failure"
        assert doc["error"]["type"] == "NumericalFailure"

    def test_linalg_error_maps_to_exit_three(self, tmp_path, monkeypatch):
        def boom(data, tol):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(cli._KINDS["kvn"], "run", boom)
        code, doc = run(tmp_path, "kvn", str(INSTANCES / "kvn.json"))
        assert code == 3


class TestTolerances:
    def test_file_overrides_recorded(self, tmp_path):
        path = write_instance(tmp_path, "t.json", {
            "kind": "kvn",
            "payload": {
                "n": 2,
                "domain_basis": [[1.0], [0.0]],
                "values": [[1.0], [1.0]],
            },
            "tolerances": {"eq": 0.5},
        })
        code, doc = run(tmp_path, "kvn", path)
        assert code == 0
        assert doc["tolerances"]["eq"] == 0.5
        assert doc["tolerances"]["psd"] == 1e-8

    def test_cli_flag_wins_over_file(self, tmp_path):
        path = write_instance(tmp_path, "t.json", {
            "kind": "kvn",
            "payload": {
                "n": 2,
                "domain_basis": [[1.0], [0.0]],
                "values": [[1.0], [1.0]],
            },
            "tolerances": {"eq": 0.5},
        })
        code, doc = run(tmp_path, "kvn", path, "--tol-eq", "1e-6")
        assert code == 0
        assert doc["tolerances"]["eq"] == 1e-6

    @pytest.mark.parametrize("tolerances", [5, "rankpsd", ["eq"]], ids=["number", "string", "list"])
    def test_non_object_tolerances_are_invalid_input(self, tmp_path, tolerances):
        path = write_instance(tmp_path, "t.json", {
            "kind": "kvn",
            "payload": {
                "n": 2,
                "domain_basis": [[1.0], [0.0]],
                "values": [[1.0], [1.0]],
            },
            "tolerances": tolerances,
        })
        code, doc = run(tmp_path, "kvn", path)
        assert code == 2
        assert doc["status"] == "invalid-input"
        assert doc["tolerances"] is None
        assert doc["error"]["message"].startswith("tolerances: expected an object or null")

    @pytest.mark.parametrize("tolerances, message", [
        ({"eps": 1e-6}, "tolerances: unknown key 'eps'"),
        ({"eq": 1e-6, "rnak": 1e-9}, "tolerances: unknown key 'rnak'"),
        ({"eq": None}, "tolerances.eq: expected a real number"),
        ({"psd": None}, "tolerances.psd: expected a real number"),
    ])
    def test_bad_tolerance_keys_are_invalid_input(self, tmp_path, tolerances, message):
        path = write_instance(tmp_path, "t.json", {
            "kind": "kvn",
            "payload": {
                "n": 2,
                "domain_basis": [[1.0], [0.0]],
                "values": [[1.0], [1.0]],
            },
            "tolerances": tolerances,
        })
        code, doc = run(tmp_path, "kvn", path)
        assert code == 2
        assert doc["status"] == "invalid-input"
        assert doc["error"]["message"] == message

    @pytest.mark.parametrize("kind", cli.RUN_KINDS)
    def test_result_tolerances_round_trip(self, tmp_path, kind):
        # a result's own tolerances block, fed back with its instance, changes no byte
        first = tmp_path / "first.json"
        assert cli.main([kind, str(INSTANCES / f"{kind}.json"), "--out", str(first)]) == 0
        document = json.loads((INSTANCES / f"{kind}.json").read_text())
        document["tolerances"] = json.loads(first.read_text())["tolerances"]
        second = tmp_path / "second.json"
        assert cli.main([kind, write_instance(tmp_path, "t.json", document), "--out", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()


    def test_defaults_are_the_shared_default_tolerances(self, monkeypatch):
        # no file value and no flag: the run reads DEFAULT_TOLERANCES itself, not a copy built and validated again
        args = cli.build_parser().parse_args(["kvn", "x.json"])
        built = []
        monkeypatch.setattr(cli, "Tolerances", lambda **values: built.append(values))
        assert cli._tolerances_from(args, None) is cli.DEFAULT_TOLERANCES
        assert cli._tolerances_from(args, {"rank": None, "eq": 1e-8}) is cli.DEFAULT_TOLERANCES
        assert built == []
        cli._tolerances_from(cli.build_parser().parse_args(["kvn", "x.json", "--tol-eq", "1e-6"]), None)
        assert built == [{"rank": None, "psd": 1e-8, "herm": 1e-10, "eq": 1e-6}]


class TestUnwritableOut:
    """An --out that cannot be written is invalid input for every command: exit 2, one error line, no traceback."""

    INFEASIBLE = {"kind": "kvn", "payload": {"n": 2, "domain_basis": [[1.0], [0.0]], "values": [[0.0], [1.0]]}}
    COMMANDS = {
        "run": ["kvn", str(INSTANCES / "kvn.json")],
        "run-infeasible": ["kvn", "infeasible.json"],  # exits 1 with a writable --out
        "gen": ["gen", "--kind", "kvn", "--seed", "0"],
        "verify": ["verify", "--kind", "kvn", "--count", "1"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_exit_two_with_one_error_line(self, tmp_path, capsys, command, target):
        argv = self.COMMANDS[command]
        if command == "run-infeasible":
            argv = ["kvn", write_instance(tmp_path, "infeasible.json", self.INFEASIBLE)]
            assert cli.main([*argv, "--out", str(tmp_path / "result.json")]) == 1
        out = tmp_path if target == "directory" else tmp_path / "missing" / "x.json"
        assert cli.main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_verify_generates_no_instance(self, tmp_path, capsys, monkeypatch, target):
        drawn = []
        monkeypatch.setattr(cli, "random_instance_with_witness", lambda *args: drawn.append(args))
        out = tmp_path if target == "directory" else tmp_path / "missing" / "x.json"
        assert cli.main(["verify", "--kind", "all", "--count", "200", "--out", str(out)]) == 2
        assert drawn == []
        assert capsys.readouterr().err.count("\n") == 1


class TestGenRoundTrip:
    @pytest.mark.parametrize("kind", cli.RUN_KINDS)
    def test_gen_text_parses_to_the_planted_fields(self, tmp_path, kind):
        # verify runs the planted fields as they are, in place of parsing the file gen writes: lossless only when
        # that parse gives the fields back (np.array_equal: gen writes -0.0 as 0)
        spec, out = cli._KINDS[kind], tmp_path / "instance.json"
        for seed in range(50):
            dims = spec.draw_dims(Rng(seed).generator())
            argv = ["gen", "--kind", kind, "--seed", str(seed), "--dims", ",".join(map(str, dims)), "--out", str(out)]
            assert cli.main(argv) == 0
            data = spec.parse(json.loads(out.read_text())["payload"])
            fields, _ = random_instance_with_witness(spec.oracle, dims, Rng(seed))
            fields.pop(spec.drop, None)
            where = f"{kind} seed {seed} dims {dims}"
            assert data.keys() == fields.keys(), where
            for key, value in fields.items():
                assert type(data[key]) is type(value), f"{where} key {key}"
                if isinstance(value, np.ndarray):
                    assert data[key].dtype == value.dtype and np.array_equal(data[key], value), f"{where} key {key}"
                else:
                    assert data[key] == value, f"{where} key {key}"


class TestDiagnosticsReuseLifts:
    @pytest.mark.parametrize("kind, eigh_calls", [("sa-ext", 2), ("parrott", 2)])
    def test_eigh_calls(self, tmp_path, decompositions, kind, eigh_calls):
        # each weight is lifted once, for the run and all its diagnostics
        # together, and never as the stacked (n1 + n2)-square matrix; the
        # parrott corner takes an svd, not an eigh
        payload = json.loads((INSTANCES / f"{kind}.json").read_text())["payload"]
        stacked = payload["n1"] + payload["n2"] if kind == "parrott" else None
        with decompositions:
            code, doc = run(tmp_path, kind, str(INSTANCES / f"{kind}.json"))
        shapes = decompositions.shapes("eigh")
        assert code == 0
        assert len(shapes) == eigh_calls
        assert all(shape != (stacked, stacked) for shape in shapes)

    def test_parrott_svd_calls(self, tmp_path, decompositions, corners):
        # the completion decomposes only the two corner lifts, the corner's
        # coupling block and the weighted norm of the result: each domain is
        # proven independent by its lift
        with decompositions:
            code, doc = run(tmp_path, "parrott", str(INSTANCES / "parrott.json"))
        calls = decompositions.shapes("svd")
        assert code == 0
        assert len(calls) == 6
        corners.assert_one_coupling_svd()
        # the weighted norm is taken on the r2 x r1 core, not the stacked completion
        payload = json.loads((INSTANCES / "parrott.json").read_text())["payload"]
        stacked = sum(hilbert_lift(decode_matrix(payload[w])).rank for w in ("weight1", "weight2"))
        assert all(shape != (stacked, stacked) for shape in calls)

    def test_strong_parrott_svd_calls(self, tmp_path, decompositions, corners):
        # one thin SVD per factorization, the norms of the two reduced values,
        # the corner's coupling block, and the norm of the solution
        with decompositions:
            code, doc = run(tmp_path, "strong-parrott", str(INSTANCES / "strong-parrott.json"))
        assert code == 0
        assert len(decompositions.shapes("svd")) == 6
        corners.assert_one_coupling_svd()


@pytest.mark.parametrize(
    "kind, count",
    [("kvn", 3), ("sa-ext", 9), ("parrott", 8), ("strong-parrott", 6), ("functional-ext", 6), ("cstar-check", 6)],
)
def test_decompositions_per_kind(tmp_path, decompositions, kind, count):
    # every input is decided once: a weight or density by its lift's spectrum,
    # kvn positivity by the Gram factor's spectrum once at construction, the
    # strong-Parrott hypotheses on the reduced pairs
    with decompositions:
        code, _ = run(tmp_path, kind, str(INSTANCES / f"{kind}.json"))
    assert code == 0
    assert len(decompositions) == count


@pytest.mark.parametrize("kind", ["functional-ext", "cstar-check"])
def test_near_projector_runs_like_its_projector(tmp_path, kind):
    # diag(1, 5e-9, 0) passes the idempotency check, so its ideal is that of
    # diag(1, 0, 0); symmetric data on it must extend, to the same outputs
    gen = np.random.default_rng(3)
    x = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
    gamma = (x + x.conj().T) / 2
    extra = {"density": np.eye(3)} if kind == "functional-ext" else {"extension": gamma}
    outputs = []
    for p in (np.diag([1.0, 5e-9, 0.0]), np.diag([1.0, 0.0, 0.0])):
        payload = {"m": 3, "projection": p, "gamma": gamma, **extra}
        code, doc = run(tmp_path, kind, write_instance(tmp_path, "inst.json", {"kind": kind, "payload": payload}))
        assert (code, doc["status"], doc["error"]) == (0, "ok", None)
        outputs.append(doc["outputs"])
    assert outputs[0] == outputs[1]


class TestGen:
    @pytest.mark.parametrize("kind", cli.RUN_KINDS)
    def test_gen_then_run(self, tmp_path, kind):
        inst = tmp_path / "inst.json"
        assert cli.main(["gen", "--kind", kind, "--seed", "11", "--out", str(inst)]) == 0
        document = json.loads(inst.read_text())
        assert document["kind"] == kind
        assert document["seed"] == 11
        code, doc = run(tmp_path, kind, str(inst))
        assert code == 0
        assert doc["status"] == "ok"

    def test_gen_functional_at_the_algebra_cap(self, tmp_path):
        inst = tmp_path / "inst.json"
        assert cli.main(["gen", "--kind", "functional-ext", "--dims", "16", "--out", str(inst)]) == 0
        code, doc = run(tmp_path, "functional-ext", str(inst))
        assert code == 0
        assert decode_matrix(doc["outputs"]["g_min"]).shape == (16, 16)

    def test_gen_with_dims(self, tmp_path):
        inst = tmp_path / "inst.json"
        assert cli.main(["gen", "--kind", "parrott", "--dims", "3,2", "--seed", "1",
                         "--out", str(inst)]) == 0
        payload = json.loads(inst.read_text())["payload"]
        assert payload["n1"] == 3 and payload["n2"] == 2

    def test_gen_bad_dims(self, tmp_path, capsys):
        assert cli.main(["gen", "--kind", "kvn", "--dims", "0"]) == 2
        assert cli.main(["gen", "--kind", "kvn", "--dims", "x"]) == 2
        assert cli.main(["gen", "--kind", "kvn", "--n", "4"]) == 2  # unknown flag
        assert cli.main(["gen", "--kind", "functional-ext", "--dims", "17"]) == 2
        capsys.readouterr()


class TestParrottTakesNoEndpoint:
    # there is one completion, so parrott takes no endpoint flag
    def test_endpoint_flag_is_invalid_input(self, capsys):
        assert cli.main(["parrott", str(INSTANCES / "parrott.json"), "--endpoint", "min"]) == 2
        assert "--endpoint" in capsys.readouterr().err

    def test_help_lists_no_endpoint(self, capsys):
        assert cli.main(["parrott", "--help"]) == 0
        assert "--endpoint" not in capsys.readouterr().out


class TestModuleInvocation:
    """``python -m opext`` and ``python -m opext.cli`` behave as ``opext`` does."""

    @staticmethod
    def module_run(module, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env, cwd=ROOT)

    @pytest.mark.parametrize("module", ["opext", "opext.cli"])
    def test_verify_prints_the_report(self, tmp_path, module):
        argv = ["verify", "--kind", "all", "--count", "2"]
        proc = self.module_run(module, *argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        out = tmp_path / "report.json"
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert proc.stdout == out.read_text()
        assert json.loads(proc.stdout)["status"] == "ok"

    @pytest.mark.parametrize("module", ["opext", "opext.cli"])
    def test_missing_instance_is_invalid_input(self, tmp_path, module):
        proc = self.module_run(module, "kvn", str(tmp_path / "missing.json"))
        assert proc.returncode == 2
        doc = json.loads(proc.stdout)
        assert (doc["status"], doc["error"]["type"]) == ("invalid-input", "FileNotFoundError")


def planted_sa_file(path, n=128, k=40, r=100):
    """An sa-ext instance at n = 128: a rank-r weight A = R^2, values S D of S = R H R with H Hermitian."""
    gen = np.random.default_rng(128)

    def cgauss(rows, cols):
        return (gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))) / np.sqrt(2)

    q = np.linalg.qr(cgauss(n, r))[0]
    root = (q * np.sqrt(gen.uniform(0.5, 2.0, r))) @ q.conj().T
    h = cgauss(n, n)
    s = root @ (h + h.conj().T) @ root
    d = cgauss(n, k)
    payload = {"n": n, "domain_basis": d, "values": s @ d, "weight": root @ root}
    path.write_text(dumps_canonical({"kind": "sa-ext", "payload": payload}))


def test_result_bytes_repeat_at_one_blas_thread(tmp_path):
    # the determinism contract: at a fixed BLAS build, CPU kernel and thread count (one thread is the
    # reference setting) the same file gives the same bytes; n = 128 is large enough for the thread count to matter
    instance = tmp_path / "sa-ext.json"
    planted_sa_file(instance)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    outputs = []
    for i in range(2):
        out = tmp_path / f"result-{i}.json"
        proc = subprocess.run([sys.executable, "-m", "opext", "sa-ext", str(instance), "--out", str(out)],
                              capture_output=True, text=True, env=env, cwd=ROOT)
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs.append(out.read_bytes())
    assert json.loads(outputs[0])["status"] == "ok"
    assert outputs[0] == outputs[1]


class TestCstarFlags:
    @pytest.mark.parametrize("flag", ["--samples", "--seed"])
    def test_sampler_flags_are_unknown(self, capsys, flag):
        assert cli.main(["cstar-check", str(INSTANCES / "cstar-check.json"), flag, "10"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [10_000, 0, -3, "many"])
    def test_payload_samples_key_is_ignored(self, tmp_path, samples):
        document = json.loads((INSTANCES / "cstar-check.json").read_text())
        document["payload"].pop("samples", None)
        without = tmp_path / "without.json"
        assert cli.main(["cstar-check", write_instance(tmp_path, "a.json", document), "--out", str(without)]) == 0
        document["payload"]["samples"] = samples
        ignored = tmp_path / "ignored.json"
        assert cli.main(["cstar-check", write_instance(tmp_path, "b.json", document), "--out", str(ignored)]) == 0
        assert ignored.read_bytes() == without.read_bytes()
        doc = json.loads(without.read_text())
        assert doc["outputs"]["violations"] == 0
        assert doc["outputs"]["measured_bound"] == pytest.approx(doc["outputs"]["exact_bound"], rel=1e-12, abs=0.0)


class TestVerify:
    def test_verify_single_kind(self, tmp_path):
        code, doc = run(tmp_path, "verify", "--kind", "kvn", "--count", "3", "--seed", "1")
        assert code == 0
        assert doc["status"] == "ok"
        assert doc["outputs"]["kvn"] == {"count": 3, "passed": 3, "failed": 0}
        assert doc["diagnostics"]["total_failed"] == 0

    def test_verify_fixed_dims(self, tmp_path):
        code, doc = run(tmp_path, "verify", "--kind", "strong-parrott", "--count", "2",
                        "--seed", "2", "--dims", "3,2,2")
        assert code == 0

    def test_verify_all_kinds_smoke(self, tmp_path):
        code, doc = run(tmp_path, "verify", "--kind", "all", "--count", "1", "--seed", "4")
        assert code == 0
        assert set(doc["outputs"]) == set(cli.RUN_KINDS)

    def test_verify_dims_with_all_rejected(self, capsys):
        assert cli.main(["verify", "--kind", "all", "--dims", "2"]) == 2
        capsys.readouterr()

    def test_verify_bad_count(self, capsys):
        assert cli.main(["verify", "--kind", "kvn", "--count", "0"]) == 2
        capsys.readouterr()

    def test_verify_programming_error_propagates(self, monkeypatch):
        def broken(op, tol=None):
            raise TypeError("synthetic programming error")

        monkeypatch.setattr(cli, "kvn_extend", broken)
        with pytest.raises(TypeError):
            cli.main(["verify", "--kind", "kvn", "--count", "1"])

    def test_verify_numerical_failure_counts_as_failed(self, tmp_path, monkeypatch):
        def breakdown(op, tol=None):
            raise NumericalFailure("synthetic breakdown")

        monkeypatch.setattr(cli, "kvn_extend", breakdown)
        code, doc = run(tmp_path, "verify", "--kind", "kvn", "--count", "1")
        assert code == 3
        assert doc["outputs"]["kvn"]["failed"] == 1

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "kvn", "--dims", "64,32"], "dimensions capped at 16"),
        (["--kind", "parrott", "--dims", "3,2,1"], "parrott instances take"),
        (["--kind", "kvn", "--seed", "-1"], "seed must fit"),
    ])
    def test_verify_bad_dims_or_seed_is_invalid_input(self, tmp_path, capsys, argv, message):
        code, doc = run(tmp_path, "verify", *argv, "--count", "2")
        assert code == 2
        assert doc is None
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_verify_names_the_failed_check(self, tmp_path, monkeypatch):
        runner = cli._KINDS["kvn"].run
        calls = []

        def inflated(data, tol):
            outputs, diagnostics = runner(data, tol)
            calls.append(data["domain_basis"].shape)
            if len(calls) == 2:
                diagnostics["value_residual"] = 1.0
            return outputs, diagnostics

        monkeypatch.setattr(cli._KINDS["kvn"], "run", inflated)
        code, doc = run(tmp_path, "verify", "--kind", "kvn", "--count", "3", "--seed", "1")
        assert code == 3
        assert doc["status"] == "numerical-failure"
        report = doc["outputs"]["kvn"]
        assert (report["passed"], report["failed"]) == (2, 1)
        [failure] = report["failures"]
        threshold = failure.pop("threshold")
        assert failure == {"index": 1, "dims": list(calls[1]), "check": "value_residual", "value": 1.0}
        assert 1e-8 <= threshold < 1.0

    def test_verify_names_the_exception(self, tmp_path, monkeypatch):
        def breakdown(op, tol=None):
            raise NumericalFailure("synthetic breakdown")

        monkeypatch.setattr(cli, "kvn_extend", breakdown)
        code, doc = run(tmp_path, "verify", "--kind", "kvn", "--count", "1", "--dims", "3,2")
        assert code == 3
        assert doc["outputs"]["kvn"]["failures"] == [
            {"index": 0, "dims": [3, 2], "type": "NumericalFailure", "message": "synthetic breakdown"}
        ]

    def test_verify_runs_parrott_once_per_instance(self, tmp_path, monkeypatch):
        runner = cli._KINDS["parrott"].run
        calls = []

        def broken(data, tol):
            outputs, diagnostics = runner(data, tol)
            calls.append((data["n1"], data["n2"]))
            diagnostics["bound_ok"] = False
            return outputs, diagnostics

        monkeypatch.setattr(cli._KINDS["parrott"], "run", broken)
        code, doc = run(tmp_path, "verify", "--kind", "parrott", "--count", "2", "--dims", "3,2")
        assert code == 3
        assert calls == [(3, 2), (3, 2)]
        assert doc["outputs"]["parrott"]["failures"] == [
            {"index": index, "dims": [3, 2], "check": "bound_ok", "value": False, "threshold": None}
            for index in (0, 1)
        ]

    def test_verify_checks_the_measured_bound_against_the_exact_one(self, tmp_path, monkeypatch):
        runner = cli._KINDS["cstar-check"].run
        calls = []

        def broken(data, tol):
            outputs, diagnostics = runner(data, tol)
            calls.append(data["m"])
            if len(calls) == 1:
                outputs["measured_bound"] = 1.5 * outputs["exact_bound"] + 0.1
            else:
                outputs["exact_bound"] = 2.0
            return outputs, diagnostics

        monkeypatch.setattr(cli._KINDS["cstar-check"], "run", broken)
        code, doc = run(tmp_path, "verify", "--kind", "cstar-check", "--count", "2", "--dims", "3")
        assert code == 3
        checks = [(f["index"], f["check"]) for f in doc["outputs"]["cstar-check"]["failures"]]
        assert checks == [(0, "measured_bound"), (1, "exact_bound")]

    def test_verify_catches_an_exact_bound_reported_slightly_low(self, tmp_path, monkeypatch):
        # a ratio short of the sharp constant would miss this; the closed-form pair attains it
        runner = cli._KINDS["cstar-check"].run

        def low(data, tol):
            outputs, diagnostics = runner(data, tol)
            outputs["exact_bound"] *= 1.0 - 1e-6
            return outputs, diagnostics

        monkeypatch.setattr(cli._KINDS["cstar-check"], "run", low)
        code, doc = run(tmp_path, "verify", "--kind", "cstar-check")
        report = doc["outputs"]["cstar-check"]
        assert code == 3
        assert report["failed"] == report["count"] == 20
        assert {f["check"] for f in report["failures"]} == {"measured_bound"}
