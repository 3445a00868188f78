"""opext benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload operators --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for why each was chosen):

``operators``    kvn / sa-ext / parrott / strong-parrott at n = 160;
``functionals``  extend_functional / cstar_extendibility at m = 6;
``cli-small``    ``opext.cli.main`` on small instance files of all six kinds.

With ``--trace 0`` the workload runs in its own process for ``--seconds``
seconds, after six more processes have only set up, and the end-to-end
metrics are printed by name with their units and sample counts.  The op
times behind ``ops_per_s`` and the ``p*_ms`` metrics, and the set-up
times, are scaled to a reference machine speed: a fixed kernel that never
calls the program is timed every half second between ops, and times are
multiplied by ``CALIBRATION_REF_S`` over its median.  On a shared 2-core
VM whose speed drifts by up to a fifth between runs this cuts the
run-to-run spread by 1.4-2.7x; the raw values are printed beside the
scaled ones.  With
``--trace 1`` a fixed number of ops (derived from ``--seconds``, so that
call counts repeat exactly for a seed) runs, each op once plain and once
with the tracing wrappers installed; the per-layer metrics and the
tracing overhead are printed.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Timed ops use only inputs the program is known to handle.  The recorded
inputs on which it fails (``workloads.KNOWN_DEFECTS``) are replayed once
after the timed loop; whether each still fails is printed, and they are
not counted in ``attempted`` or ``failed``.

The BLAS thread count is fixed here, in the workload processes'
environment, and never in the program.  ``--smoke`` shrinks every size
for the benchmark's own tests.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

BLAS_THREADS = "1"
SETUP_ONLY_RUNS = 6
BUDGET_S = 170.0
# Nominal time of the worker's calibration kernel (python 3.11, numpy 2.4,
# one OpenBLAS thread, 2-core x86-64 VM); op times are reported as if the
# run had seen this speed.
CALIBRATION_REF_S = 0.014


class RunFailed(RuntimeError):
    pass


def child(args, mode, deadline, extra=()):
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           "--workdir", workdir, *extra]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = BLAS_THREADS
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("time budget exhausted before the workload process started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{mode} process exceeded the time budget") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RunFailed(f"{mode} process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunFailed(f"{mode} process printed no result")
    return json.loads(lines[-1])


def blas_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']}-{blas['version']}"
    except (TypeError, KeyError):  # numpy without the dict form of its build config
        name = "unknown"
    return np.__version__, name


def header(args):
    numpy_version, blas = blas_info()
    return (f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
            f"trace={args.trace} python={platform.python_version()} numpy={numpy_version} "
            f"blas={blas} blas_threads={BLAS_THREADS} nproc={os.cpu_count()}")


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def show(name, value, unit, note=""):
    print(f"{name:<26} {value:>14.6g} {unit:<7} {note}".rstrip())


def end_to_end(args, deadline):
    setups = [child(args, "setup", deadline)["setup_s"] for _ in range(SETUP_ONLY_RUNS)]
    res = child(args, "measure", deadline)
    setups.append(res["setup_s"])
    lat = [v for kind in workloads.WORKLOADS[args.workload].kinds for v in res["latency_ms"].get(kind, [])]
    if not lat:
        raise RunFailed("no op completed")
    attempted, failed = res["attempted"], res["failed"]
    completed = attempted - failed
    # digits_min is the median over consecutive 20-op blocks of each block's
    # smallest digits: a worst case over a fixed number of ops, which the
    # run's length does not move and a single extreme input hardly moves
    blocks = res["digits_blocks"]
    cal = statistics.median(res["calibration_s"])
    scale = CALIBRATION_REF_S / cal
    print(f"# calibration: median {cal * 1e3:.3f} ms over {len(res['calibration_s'])} samples, "
          f"reference {CALIBRATION_REF_S * 1e3:.1f} ms; times below are scaled by {scale:.4f}")
    raw = {"ops_per_s": completed / res["timed_s"], "p50_ms": statistics.median(lat), "p90_ms": p90(lat)}
    metrics = {
        "ops_per_s": (raw["ops_per_s"] / scale, "1/s",
                      f"(ops={completed}, timed {res['timed_s']:.3f} s, raw {raw['ops_per_s']:.4g})"),
        "p50_ms": (raw["p50_ms"] * scale, "ms", f"(n={len(lat)}, raw {raw['p50_ms']:.4g})"),
        "p90_ms": (raw["p90_ms"] * scale, "ms", f"(n={len(lat)}, raw {raw['p90_ms']:.4g})"),
        "ok_share": (completed / attempted, "ratio", f"(ok={completed} of attempted={attempted})"),
        "digits_min": (statistics.median(blocks) if blocks else res["digits_min"], "digits",
                       f"(median over {len(blocks)} blocks of ops; smallest {res['digits_min']:.4g}, "
                       f"{res['worst_check']}; checks={res['checks']})"),
        "setup_s": (statistics.median(setups) * scale, "s",
                    f"(median of {len(setups)} set-ups, raw {statistics.median(setups):.4g})"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "(ru_maxrss of the workload process)"),
    }
    for name, (value, unit, note) in metrics.items():
        show(name, value, unit, note)
    for kind in workloads.WORKLOADS[args.workload].kinds:
        sample = res["latency_ms"].get(kind, [])
        if sample:
            show(f"p50_ms.{kind}", statistics.median(sample) * scale, "ms", f"(n={len(sample)})")
    show("fail_share", failed / attempted, "ratio", f"(failed={failed} of attempted={attempted})")
    for note in res["notes"]:
        print(f"# failure: {note}")
    for note in res["known_defects"]:
        print(f"# known defect, replayed untimed: {note}")
    return res, {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def per_layer(args, deadline):
    wl = workloads.WORKLOADS[args.workload]
    ops = max(wl.cycle, int(round(args.seconds * wl.trace_rate / wl.cycle)) * wl.cycle)
    spans = os.path.join(HERE, ".work", f"spans-{args.workload}-{args.seed}.jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    res = child(args, "traced", deadline, ("--ops", str(ops), "--spans", spans))
    values = res["per_layer"]
    print(f"# traced ops={ops}, each also run plain; spans in {spans}")
    units = dict(tracing.metric_names())
    for name, unit in units.items():
        show(name, values[name], unit)
    for note in res["notes"]:
        print(f"# failure: {note}")
    return res, {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _terminate(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the workload process
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="opext benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "opext", "__init__.py")):
        print(f"error: no opext source tree under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    print(header(args), flush=True)
    try:
        res, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    result = {"correct": res["wrong"] == 0, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
