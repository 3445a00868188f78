"""One workload process: set up, then run a closed loop with one client.

Started by ``run.py``, never by hand.  Modes:

``setup``    set up exactly as ``measure`` does and report the set-up time;
``measure``  time ops for ``--seconds`` seconds of wall time;
``traced``   run ``--ops`` ops, each once plain and once with the tracing
             wrappers installed.

Each op gets a fresh seeded input, generated before its timer starts
and checked after it stops.  The timer covers typed-input construction
and the call (for ``cli-small``, the whole ``opext.cli.main`` call).  The
last line of standard output is a JSON summary.
"""

import argparse
import json
import os
import resource
import sys
import time

import numpy as np  # (interpreter and numpy start-up lie outside set-up)

SETUP_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

WARMUP_SEED = 0
DIGITS_BLOCK = 20  # ops per block of the digits_min metric (see run.py)


class Runner:
    """Set-up (imports, warm-up ops, first inputs) and the queue of prepared ops."""

    def __init__(self, name, seed, smoke, traced, workdir):
        src = os.path.join(os.path.dirname(HERE), "src")
        cls = workloads.WORKLOADS[name]
        self.opext = workloads.load_program(src, with_cli=cls.needs_cli or traced)
        os.makedirs(workdir, exist_ok=True)
        self.wl = cls(seed, smoke, workdir)
        self.queue: dict[int, workloads.Op] = {}
        # warm-up inputs come from a fixed seed, so set-up does the same work for every --seed
        warm = cls(WARMUP_SEED, smoke, workdir)
        for i in range(cls.warmup):
            op = warm.op(i, stream=1)
            op.check(op.run(op.inputs))
        self.take(0, keep=True)

    def take(self, index, keep=False):
        """The op at ``index``, prepared together with the rest of its batch."""
        if index not in self.queue:
            for i in range(index, index + self.wl.batch):
                self.queue[i] = self.wl.op(i)
        return self.queue[index] if keep else self.queue.pop(index)


class Tally:
    def __init__(self):
        self.latency = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.timed = 0.0
        self.checks = 0
        self.digits_min = workloads.DIGITS_CAP
        self.op_digits = []  # smallest digits of each checked op, in op order
        self.worst = ""
        self.notes = []

    def record(self, op, index, seconds, result, exc):
        self.attempted += 1
        self.timed += seconds
        if exc is not None:
            self._fail(op, index, f"raised {type(exc).__name__}: {exc}")
            return
        try:
            checks = op.check(result)
        except Exception as err:  # a result the checks cannot read is a wrong answer
            self.wrong += 1
            self._fail(op, index, f"unreadable result ({type(err).__name__}: {err})")
            return
        bad = [(name, resid, limit) for name, resid, limit in checks if not resid <= limit]
        self.checks += len(checks)
        op_digits = workloads.DIGITS_CAP
        for name, resid, _ in checks:
            op_digits = min(op_digits, workloads.digits(resid))
            if workloads.digits(resid) < self.digits_min:
                self.digits_min = workloads.digits(resid)
                self.worst = f"{name} of op {index}"
        self.op_digits.append(op_digits)
        if bad:
            self.wrong += 1
            self._fail(op, index, "check " + ", ".join(f"{n} {r:.3g} > {lim:.3g}" for n, r, lim in bad))
            return
        self.latency.setdefault(op.kind, []).append(seconds * 1e3)

    def _fail(self, op, index, what):
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(f"op {index} ({op.kind}): {what}"[:400])

    def summary(self):
        return {
            "latency_ms": self.latency,
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "timed_s": self.timed,
            "checks": self.checks,
            "digits_min": self.digits_min,
            "digits_blocks": [min(self.op_digits[i:i + DIGITS_BLOCK])
                              for i in range(0, len(self.op_digits) - DIGITS_BLOCK + 1, DIGITS_BLOCK)],
            "worst_check": self.worst,
            "notes": self.notes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def run_one(op):
    """Time one op; an exception is the op's outcome, not the benchmark's."""
    start = time.perf_counter()
    try:
        result = op.run(op.inputs)
    except Exception as exc:  # counted in failed; the loop goes on
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, result, None


class Calibration:
    """A fixed kernel that never calls the program, timed between ops.

    The machine's speed drifts by up to a fifth over tens of seconds, and
    the program's op times drift with it.  The kernel mixes the three
    kinds of work the workloads do -- interpreted Python and JSON, numpy
    calls on tiny matrices, one LAPACK eigendecomposition at n = 160 --
    so the run's median kernel time measures the speed the ops saw.
    """

    INTERVAL_S = 0.5

    def __init__(self):
        g = np.random.default_rng(20020171)
        self.small = [workloads.herm(workloads.cgauss(g, 6, 6)) for _ in range(50)]
        self.big = workloads.herm(workloads.cgauss(g, 160, 160))
        self.doc = {"rows": [[[float(i), float(-i)] for i in range(8)] for _ in range(8)]}
        self.samples = []
        self.due = 0.0

    def kernel(self):
        total = 0
        for i in range(30_000):
            total += i * i
        for _ in range(30):
            json.loads(json.dumps(self.doc))
        for a in self.small:
            np.linalg.eigh(a)
            np.trace(a @ a)
        np.linalg.eigh(self.big)
        return total

    def maybe(self):
        """Time the kernel if INTERVAL_S has passed since the last time."""
        now = time.perf_counter()
        if now >= self.due:
            self.kernel()
            self.samples.append(time.perf_counter() - now)
            self.due = now + self.INTERVAL_S


def measure(runner, seconds):
    tally = Tally()
    calibration = Calibration()
    first = time.perf_counter()
    setup_s = first - SETUP_START
    deadline = first + seconds
    index = 0
    while True:
        op = runner.take(index)
        elapsed, result, exc = run_one(op)
        tally.record(op, index, elapsed, result, exc)
        calibration.maybe()
        index += 1
        if time.perf_counter() >= deadline:
            break
    out = tally.summary()
    out["setup_s"] = setup_s
    out["calibration_s"] = calibration.samples
    defects = workloads.KNOWN_DEFECTS.get(runner.wl.name, ())
    out["known_defects"] = [workloads.replay_defect(d) for d in defects]
    return out


def traced(runner, ops):
    """Each op twice, plain and traced in alternating order.

    Spans and checks come from the traced run; the paired plain run gives
    the tracing overhead without the machine's drift between processes.
    """
    tracer = tracing.Tracer(runner.opext)
    tally = Tally()
    plain_s = 0.0
    for index in range(ops):
        op = runner.take(index)
        for turn in ("plain", "traced") if index % 2 == 0 else ("traced", "plain"):
            if turn == "plain":
                plain_s += run_one(op)[0]
                continue
            tracer.enable()
            tracer.begin_op(index)
            try:
                result, exc = op.run(op.inputs), None
            except Exception as err:  # counted in failed; the loop goes on
                result, exc = None, err
            finally:
                elapsed = tracer.end_op()
                tracer.disable()
        tally.record(op, index, elapsed, result, exc)
    out = tally.summary()
    out["per_layer"] = tracer.per_layer(ops)
    out["per_layer"]["trace.overhead_ratio"] = out["timed_s"] / plain_s
    return out, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "traced"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True, help="working directory for instance and result files")
    parser.add_argument("--spans", default=None, help="write the traced run's spans here (JSONL)")
    args = parser.parse_args(argv)

    runner = Runner(args.workload, args.seed, args.smoke, args.mode == "traced", args.workdir)
    if args.mode == "setup":
        out = {"setup_s": time.perf_counter() - SETUP_START}
    elif args.mode == "measure":
        out = measure(runner, args.seconds)
    else:
        out, tracer = traced(runner, args.ops)
        if args.spans:
            tracer.dump(args.spans)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
