"""Each committed instance file, run again, reproduces its golden result file,
and ``opext gen`` reproduces its golden instance files.

``tests/golden/`` holds the result of every file in ``instances/``.  A run
must match its golden file on exit code, status, error type and the set of
keys at every level, and every number must agree to within
1e-12 (1 + |golden|), so output drift shows up here rather than in a
comparison made by hand.  ``tests/golden/gen/`` holds the output of
``opext gen --kind <kind> --seed <s>`` at default dims for s in {0, 1},
compared the same way: the README promises byte-identical files only for
a fixed BLAS build.  After a deliberate output change, regenerate the
files from the repository root with

    opext <kind> instances/<kind>.json --out tests/golden/<kind>.json
    opext gen --kind <kind> --seed <s> --out tests/golden/gen/<kind>-seed<s>.json

for each of the six kinds, and record the change in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from opext import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
REL = 1e-12


EXIT_CODES = {
    "ok": cli.EXIT_OK,
    "infeasible": cli.EXIT_INFEASIBLE,
    "invalid-input": cli.EXIT_INVALID_INPUT,
    "numerical-failure": cli.EXIT_NUMERICAL_FAILURE,
}


def mismatches(got, want, path="$"):
    """Where ``got`` differs from ``want``: keys, types, lengths, or a number beyond REL (1 + |want|)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} is not a list of length {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]")]
    numeric = (int, float)
    if isinstance(want, numeric) and not isinstance(want, bool):
        if not (isinstance(got, numeric) and not isinstance(got, bool)) or abs(got - want) > REL * (1.0 + abs(want)):
            return [f"{path}: {got!r} != {want!r}"]
        return []
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("kind", cli.RUN_KINDS)
def test_instance_matches_golden(tmp_path, kind):
    want = json.loads((GOLDEN / f"{kind}.json").read_text())
    out = tmp_path / "result.json"
    code = cli.main([kind, str(ROOT / "instances" / f"{kind}.json"), "--out", str(out)])
    got = json.loads(out.read_text())
    assert code == EXIT_CODES[want["status"]]
    assert got["status"] == want["status"]
    assert (got["error"] or {}).get("type") == (want["error"] or {}).get("type")
    assert mismatches(got, want) == []


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("kind", cli.RUN_KINDS)
def test_gen_matches_golden(tmp_path, kind, seed):
    want = json.loads((GOLDEN / "gen" / f"{kind}-seed{seed}.json").read_text())
    out = tmp_path / "instance.json"
    assert cli.main(["gen", "--kind", kind, "--seed", str(seed), "--out", str(out)]) == cli.EXIT_OK
    assert mismatches(json.loads(out.read_text()), want) == []


def test_every_instance_has_a_golden_file():
    kinds = {path.stem for path in (ROOT / "instances").glob("*.json")}
    names = {path.stem for path in GOLDEN.glob("*.json")}
    assert kinds == set(cli.RUN_KINDS)
    assert names == set(cli.RUN_KINDS)


def test_comparison_catches_drift():
    want = {"outputs": {"x": [[1.0, 0.0]], "ok": True}, "error": None}
    assert mismatches(want, want) == []
    assert mismatches({"outputs": {"x": [[1.0 + 1e-13, 0.0]], "ok": True}, "error": None}, want) == []
    assert mismatches({"outputs": {"x": [[1.0 + 1e-11, 0.0]], "ok": True}, "error": None}, want) != []
    assert mismatches({"outputs": {"x": [[1.0, 0.0]], "ok": False}, "error": None}, want) != []
    assert mismatches({"outputs": {"x": [[1.0, 0.0]]}, "error": None}, want) != []
