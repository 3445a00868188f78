"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench

Every metric BENCHMARK.json names is printed for every workload, as is
the outcome of every recorded failing input; two traced runs on one
seed give identical call counts; the output checks reject a wrong
answer; and the runner refuses to run without the program's source
tree.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def parsed(workload, seed, trace):
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def printed(lines, name, unit):
    """Whether some line reads ``name value unit ...``."""
    return any(line.split()[:1] == [name] and line.split()[2:3] == [unit] for line in lines)


@pytest.mark.parametrize("workload", NAMES)
def test_every_end_to_end_metric_printed(workload):
    lines, result = parsed(workload, 3, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0
        assert printed(lines, metric["name"], metric["unit"])
    for kind in workloads.WORKLOADS[workload].kinds:
        assert printed(lines, f"p50_ms.{kind}", "ms")
    assert any(line.startswith("fail_share") and "attempted=" in line for line in lines)
    assert lines[0].startswith("# perfbench") and "blas_threads=1" in lines[0]
    replayed = [line for line in lines if line.startswith("# known defect")]
    assert len(replayed) == len(workloads.KNOWN_DEFECTS.get(workload, ()))


@pytest.mark.parametrize("workload", NAMES)
def test_traced_call_counts_repeat(workload):
    lines, first = parsed(workload, 5, 1)
    _, second = parsed(workload, 5, 1)
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert printed(lines, metric["name"], metric["unit"])
    calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert calls == {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".calls")}
    assert calls["linalg.decomp.calls"] > 0


def _check_rejects(op, corrupt):
    result = op.run(op.inputs)
    assert all(resid <= limit for _, resid, limit in op.check(result))
    assert any(not resid <= limit for _, resid, limit in op.check(corrupt(result)))


@pytest.mark.parametrize("index", range(4))
def test_operator_checks_reject_a_wrong_answer(index):
    workloads.load_program(os.path.join(ROOT, "src"), with_cli=False)
    op = workloads.Operators(seed=11, smoke=True).op(index)
    if op.kind == "sa-ext":
        _check_rejects(op, lambda r: (r[0], r[1], r[2] + 1e-3 * np.eye(r[2].shape[0])))
    else:
        _check_rejects(op, lambda r: r * 1.001)


@pytest.mark.parametrize("index", (0, 2))
def test_functional_checks_reject_a_wrong_answer(index):
    workloads.load_program(os.path.join(ROOT, "src"), with_cli=False)
    op = workloads.Functionals(seed=11, smoke=True).op(index)
    if op.kind == "functional-ext":
        _check_rejects(op, lambda r: (r[0] * 1.001, r[1], r[2]))
        return
    result = op.run(op.inputs)
    assert all(resid <= limit for _, resid, limit in op.check(result))
    x = op.inputs
    bad = workloads.check_cstar_decision(
        x, True, result.alpha, result.g_min.density.a, result.g_max.density.a,
        result.density.density.a, False, 3, result.measured_bound,
    )
    assert any(not resid <= limit for _, resid, limit in bad)


@pytest.mark.parametrize("index", (0, 1))
def test_cli_checks_reject_a_wrong_exit_code(index, tmp_path):
    workloads.load_program(os.path.join(ROOT, "src"), with_cli=True)
    wl = workloads.CliSmall(seed=11, smoke=True, workdir=str(tmp_path))
    op = wl.op(index)
    code = op.run(op.inputs)
    assert all(resid <= limit for _, resid, limit in op.check(code))
    op = wl.op(index)
    op.run(op.inputs)
    assert any(not resid <= limit for _, resid, limit in op.check(1 - code))


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("operators", 1, 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
