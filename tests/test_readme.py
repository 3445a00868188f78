"""README's examples run and give the values their comments state.

Each ```python block of the library quick tour is executed on its own, and
the names it binds are checked against its comments.  The command-line round
trip is run as written, through ``python -m opext``, in a temporary
directory.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def section(title):
    start = README.index(f"## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def blocks(text, lang):
    return re.findall(rf"```{lang}\n(.*?)```", text, flags=re.DOTALL)


def check_kvn(ns):
    np.testing.assert_allclose(ns["ext"].a, [[1, 1], [1, 1]], atol=1e-12)


def check_interval(ns):
    interval = ns["interval"]
    assert interval.alpha == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(interval.s_min.a, np.diag([1.0, -1.0]), atol=1e-12)
    np.testing.assert_allclose(interval.s_max.a, np.diag([1.0, 1.0]), atol=1e-12)
    assert ns["in_interval"](np.diag([1.0, 0.5]), interval) is True


def check_strong_parrott(ns):
    np.testing.assert_allclose(ns["x"].a, [[0, 1], [1, 0]], atol=1e-12)


def check_classical_parrott(ns):
    np.testing.assert_allclose(ns["t"].a, ns["cycle"], atol=1e-12)


def check_cstar(ns):
    decision = ns["decision"]
    assert decision.alpha == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(decision.g_min.density.a, np.diag([1.0, -1.0]), atol=1e-12)
    np.testing.assert_allclose(decision.g_max.density.a, np.diag([1.0, 1.0]), atol=1e-12)


CHECKS = [check_kvn, check_interval, check_strong_parrott, check_classical_parrott, check_cstar]


def test_every_quick_tour_block_is_checked():
    assert len(blocks(section("Library quick tour"), "python")) == len(CHECKS)


@pytest.mark.parametrize("index, check", list(enumerate(CHECKS)), ids=[c.__name__[6:] for c in CHECKS])
def test_quick_tour_block(index, check):
    namespace = {}
    exec(compile(blocks(section("Library quick tour"), "python")[index], f"README block {index}", "exec"), namespace)
    check(namespace)


def test_round_trip(tmp_path):
    [example] = [b for b in blocks(section("Command line"), "sh") if "gen" in b]
    commands = example.strip().splitlines()
    assert len(commands) == 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for command in commands:
        argv = command.split()
        assert argv[0] == "opext"
        done = subprocess.run([sys.executable, "-m", "opext", *argv[1:]], cwd=tmp_path, env=env, capture_output=True)
        assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "result.json").read_text())["status"] == "ok"
