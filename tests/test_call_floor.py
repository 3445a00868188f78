"""The small-call floor: calls per op made from the library's own frames, pinned as upper bounds.

Census: while an op runs, ``sys.setprofile`` counts every call made from a
frame whose code lives in ``src/opext``.  A Python call counts when its
caller's frame is such a frame (the profiler's "call" event, which also fires
on each resumption of a generator, numpy's array-function dispatchers
included), and a C call counts when it is made from such a frame ("c_call").
Calls that numpy makes inside its own functions do not count, so the count
is a property of this library's code and its inputs.  A rung's count is the
mean over its fixed ops.  Its LAPACK calls per op (``np.linalg`` eigh,
eigvalsh, svd and cholesky, recorded by the ``decompositions`` fixture) are
pinned exactly: cutting calls must not move a decomposition.

The rungs are typed planted instances (``Rng(0)`` to ``Rng(199)``, built
before the count starts) through one library call each, and the
``functionals`` benchmark workload's two op kinds at m = 6 (its first 100 ops
of each kind at seed 1, whole ops: the ideal, the partial functional and the
density are built inside the count, as the benchmark times them).  The
``decode_matrix`` rung decodes the rows of a 64 x 64 [re, im] matrix as
``json.load`` gives them: valid input makes no call per entry, so its count
grows with the rows, not with the entries.

Run as a script to print each rung's count at commit dc16374 and now::

    PYTHONPATH=src python tests/test_call_floor.py
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

import opext
from opext.errors import OpExtError
from opext.func_ext import cstar_extendibility, extend_functional
from opext.oracle import Rng, complex_gaussian
from opext.parrott import parrott_complete
from opext.sa_ext import extend_symmetric
from opext.serialize import decode_matrix

sys.path.insert(0, str(Path(__file__).resolve().parent))
from planted import planted  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = os.path.dirname(os.path.realpath(opext.__file__)) + os.sep
SEEDS = range(200)
WORKLOAD_OPS = 100

# rung -> (mean calls per op at commit dc16374, upper bound pinned now)
FLOOR = {
    "extend_symmetric n=8": (201.24, 153.96),
    "extend_symmetric n=16": (201.79, 154.46),
    "parrott_complete (6, 6)": (209.875, 166.11),
    "extend_functional m=4": (247.5, 163.5),
    "cstar_extendibility m=4, extension": (357.75, 257.06),
    "functionals functional-ext m=6": (381.0, 249.17),
    "functionals cstar-check m=6": (448.9, 309.98),
    "decode_matrix 64x64": (57604.0, 202.0),
}

# rung -> LAPACK calls per op by name, unchanged since commit dc16374
LAPACK = {
    "extend_symmetric n=8": {"eigh": 1.0, "svd": 2.44},
    "extend_symmetric n=16": {"eigh": 1.0, "svd": 2.49},
    "parrott_complete (6, 6)": {"svd": 5.865},
    "extend_functional m=4": {"eigh": 1.0, "svd": 2.0},
    "cstar_extendibility m=4, extension": {"eigh": 2.0, "svd": 2.0},
    "functionals functional-ext m=6": {"eigh": 3.0, "svd": 2.0},
    "functionals cstar-check m=6": {"eigh": 3.0, "svd": 2.0},
    "decode_matrix 64x64": {},
}


def _planted_ops(kind, dims, call):
    """``call`` on the typed planted instance of each seed, built here, outside the count."""
    return [lambda x=planted(kind, dims, Rng(seed))[0]: call(x) for seed in SEEDS]


def _workload_ops(kind):
    """The ``functionals`` benchmark's first ops of ``kind`` at seed 1, each a whole op as the benchmark runs it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.opext = opext
    functionals, ops, index = workloads.Functionals(1), [], 0
    while len(ops) < WORKLOAD_OPS:
        op = functionals.op(index)
        index += 1
        if op.kind == kind:
            ops.append(lambda op=op: op.run(op.inputs))
    return ops


def _decode_ops(rows, cols):
    """``decode_matrix`` on the JSON rows of a random rows x cols matrix, parsed here, outside the count."""
    m = complex_gaussian(Rng(0).generator(), rows, cols)
    text = json.dumps([[[z.real, z.imag] for z in row] for row in m.tolist()])
    return [lambda x=json.loads(text): decode_matrix(x)]


RUNGS = {
    "extend_symmetric n=8": lambda: _planted_ops("sa_ext", (8,), lambda x: extend_symmetric(*x)),
    "extend_symmetric n=16": lambda: _planted_ops("sa_ext", (16,), lambda x: extend_symmetric(*x)),
    "parrott_complete (6, 6)": lambda: _planted_ops("parrott", (6, 6), parrott_complete),
    "extend_functional m=4": lambda: _planted_ops("functional", (4,), lambda x: extend_functional(x[0], x[1])),
    "cstar_extendibility m=4, extension": lambda: _planted_ops(
        "functional", (4,), lambda x: cstar_extendibility(x[0], extension=x[2])
    ),
    "functionals functional-ext m=6": lambda: _workload_ops("functional-ext"),
    "functionals cstar-check m=6": lambda: _workload_ops("cstar-check"),
    "decode_matrix 64x64": lambda: _decode_ops(64, 64),
}


def calls_of(op) -> int:
    """Calls made from the library's frames while ``op()`` runs (a typed library error ends the op, counted)."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            caller = frame.f_back
            if caller is not None and caller.f_code.co_filename.startswith(LIBRARY):
                count += 1
        elif event == "c_call" and frame.f_code.co_filename.startswith(LIBRARY):
            count += 1

    sys.setprofile(profile)
    try:
        op()
    except OpExtError:
        pass
    finally:
        sys.setprofile(None)
    return count


def census(rung) -> float:
    ops = RUNGS[rung]()
    return sum(calls_of(op) for op in ops) / len(ops)


@pytest.mark.parametrize("rung", RUNGS)
def test_calls_per_op_stay_at_the_floor(rung):
    assert census(rung) <= FLOOR[rung][1]


def test_functional_ops_are_below_the_baseline_by_their_cut():
    # every functional rung meets the 30% cut
    for rung in ("extend_functional m=4", "functionals functional-ext m=6", "functionals cstar-check m=6"):
        assert FLOOR[rung][1] <= 0.70 * FLOOR[rung][0]


def test_decode_calls_do_not_grow_with_the_row_width():
    (wide,), (narrow,) = _decode_ops(64, 64), _decode_ops(64, 1)
    assert calls_of(wide) == calls_of(narrow)


@pytest.mark.parametrize("rung", RUNGS)
def test_lapack_calls_per_op_are_unchanged(rung, decompositions):
    ops = RUNGS[rung]()
    with decompositions:
        for op in ops:
            try:
                op()
            except OpExtError:
                pass
    names = sorted({name for name, _ in decompositions})
    per_op = {name: sum(1 for n, _ in decompositions if n == name) / len(ops) for name in names}
    assert per_op == LAPACK[rung]


if __name__ == "__main__":
    print(f"{'rung':38s} {'dc16374':>9s} {'now':>9s} {'change':>8s}")
    for rung in RUNGS:
        now = census(rung)
        before = FLOOR[rung][0]
        print(f"{rung:38s} {before:9.1f} {now:9.1f} {now / before - 1.0:+8.1%}")
