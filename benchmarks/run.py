"""Benchmark of the tetrahess library and CLI in exact mode.

    python3 benchmarks/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

run from the repository root.  One process, one caller, closed loop: the
next operation starts when the previous one returns; no threads or worker
processes.  Workloads are defined in ``workloads.py``; whole rounds run until
``--seconds`` have passed, and at least the workload's minimum, so that its
fixed tail percentile keeps ten operations beyond it.  Every output is
checked outside the timed region.

``--trace 0`` reports the end-to-end metrics:

    ops_per_s    operations / summed operation wall time     1/s
    op_p50_s     median operation wall time                  s
    op_tail_s    the workload's tail percentile of op time   s
    peak_rss_mb  peak resident memory of this process        MB
    setup_s      median time a fresh interpreter takes for
                 `import tetrahess.cli`                      s

Times are wall times scaled to a reference machine speed (see
REFERENCE_KERNEL_S below); the raw times are printed beside them.
``error_rate`` (failed / attempted) is printed on a line of its own; the
JSON on the last line carries ``attempted`` and ``failed``.  ``--trace 1`` runs each
op of the workload's first rounds twice, untraced and with the per-layer
spans of ``tracing.py`` installed, and reports per-layer self times and
counters from the traced runs, ``trace_overhead`` (traced / untraced op
time), and writes the spans to ``benchmarks/out/``.

Exits with code 1 and no result when ``src/tetrahess`` is not next to this
directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh interpreters timed for setup_s, after one untimed launch.
SETUP_LAUNCHES = 21

#: The speed of a shared host swings by up to 2x over minutes, and CPU time
#: swings with it.  A fixed kernel is therefore timed every KERNEL_EVERY_S
#: between operations, and every end-to-end time is scaled by
#: REFERENCE_KERNEL_S / (mean kernel time in the run): seconds at the speed
#: where the kernel takes REFERENCE_KERNEL_S (its time on an idle 2-core
#: x86-64 VM, Python 3.11).  The raw times are printed beside them.
REFERENCE_KERNEL_S = 0.0009
KERNEL_EVERY_S = 0.25

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def load_program():
    if not (SRC / "tetrahess" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'tetrahess'} not found; run from a tetrahess checkout")
    sys.path.insert(0, str(SRC))
    import tetrahess

    if Path(tetrahess.__file__).resolve().parent != SRC / "tetrahess":
        raise SystemExit(f"error: imported tetrahess from {tetrahess.__file__}, not from {SRC}")


def kernel():
    """Fixed pure-Python work (bigint arithmetic and a dict) that shares no
    code with the program."""
    num, den = 0, 1
    for i in range(1, 260):
        num, den = num * i + den, den * i
        g = math.gcd(num, den)
        num, den = num // g, den // g
    table = {}
    for i in range(4000):
        table[i % 101] = table.get(i % 101, 0) + i * i
    return num, table


class SpeedProbe:
    """Times the kernel now and then; ``factor`` is how much slower than the
    reference speed the machine ran over the samples."""

    def __init__(self):
        self.samples = []
        self.last = -math.inf

    def sample(self):
        start = time.perf_counter()
        kernel()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def maybe_sample(self):
        if time.perf_counter() - self.last >= KERNEL_EVERY_S:
            self.sample()

    def factor(self):
        return statistics.fmean(self.samples) / REFERENCE_KERNEL_S


def measure_setup(launches):
    """Median time a fresh interpreter takes to import tetrahess.cli, timed
    inside the child so interpreter start-up, which no change to the program
    moves, stays out."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); start = time.perf_counter(); "
            "import tetrahess.cli; print(time.perf_counter() - start)")
    argv = [sys.executable, "-E", "-s", "-c", code]
    times = []
    probe = SpeedProbe()
    for i in range(launches + 1):
        proc = subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if i:  # the first launch may compile bytecode
            times.append(float(proc.stdout))
            probe.sample()
    return statistics.median(times), probe.factor()


def percentile(sorted_values, pct):
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


class Runner:
    """Runs operations one at a time, times them and checks their output."""

    def __init__(self, mutate=None):
        self.mutate = mutate  # test hook: corrupts an output before its check
        self.times = []
        self.failed = 0
        self.tracer = None

    def run(self, op, index):
        tracer = self.tracer
        if tracer is not None:
            tracer.op = index
            tracer.open(f"op:{op.kind}")
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # a crash is a failed operation; keep measuring
            result = None
            traceback.print_exc()
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.close()
        self.times.append(elapsed)
        if result is None:
            self.failed += 1
            return
        if self.mutate is not None:
            result = self.mutate(op, result)
        try:
            op.check(result)
        except Exception as exc:  # CheckFailed, or output too malformed to check
            self.failed += 1
            if self.failed <= 5:
                print(f"check failed: {op.kind} size {op.size}: {exc!r}", file=sys.stderr)


def run_timed(workload, inputs, seed, seconds, tiny, mutate):
    runner = Runner(mutate)
    probe = SpeedProbe()
    start = time.perf_counter()
    r = 0
    min_rounds = 1 if tiny else workload.min_rounds
    while r < min_rounds or time.perf_counter() - start < seconds:
        for op in workload.round(inputs, seed, r, tiny):
            runner.run(op, len(runner.times))
            probe.maybe_sample()
        r += 1
    factor = probe.factor()
    raw = sorted(runner.times)
    times = [t / factor for t in raw]
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": percentile(times, workload.tail_percentile),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    setup_raw, setup_factor = measure_setup(2 if tiny else SETUP_LAUNCHES)
    metrics["setup_s"] = setup_raw / setup_factor
    notes = [
        f"speed: kernel {factor:.3f}x its reference time over {len(probe.samples)} samples "
        f"({setup_factor:.3f}x during setup_s); raw ops_per_s = {len(raw) / sum(raw):.6g} 1/s, "
        f"op_p50_s = {statistics.median(raw):.6g} s, op_tail_s = {percentile(raw, workload.tail_percentile):.6g} s, "
        f"setup_s = {setup_raw:.6g} s",
        f"rounds = {r}, ops = {len(times)}, wall = {time.perf_counter() - start:.1f} s",
        f"op_tail_s is p{workload.tail_percentile:g} over {len(times)} ops",
        f"error_rate = {runner.failed / len(times):.4f} ({runner.failed} of {len(times)} failed)",
    ]
    return metrics, runner, notes


def run_traced(workload, inputs, seed, tiny, mutate):
    import tracing

    ops = []
    for r in range(workload.trace_rounds):
        ops += workload.round(inputs, seed, r, tiny)
    plain = Runner(mutate)
    traced = Runner(mutate)
    traced.tracer = tracing.Tracer()

    def run_traced_op(op, i):
        restore = tracing.install(traced.tracer)
        try:
            traced.run(op, i)
        finally:
            restore()

    # each op runs untraced and traced back to back, alternating which goes
    # first, so warm-up favours neither side of trace_overhead
    for i, op in enumerate(ops):
        if i % 2:
            run_traced_op(op, i)
            plain.run(op, i)
        else:
            plain.run(op, i)
            run_traced_op(op, i)
    traced.tracer.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl")
    metrics = traced.tracer.layer_metrics()
    metrics["trace_overhead"] = sum(traced.times) / sum(plain.times)
    attempted = len(plain.times) + len(traced.times)
    failed = plain.failed + traced.failed
    total = sum(traced.times)
    notes = [f"traced {len(ops)} ops in {total:.2f} s (untraced {sum(plain.times):.2f} s)"]
    notes += [f"{name}: {metrics[name] / total:6.1%} of traced op time"
              for name in sorted(metrics, key=metrics.get, reverse=True)
              if tracing.LAYER_METRICS[name] == "s" and metrics[name] > 0]
    notes.append(f"error_rate = {failed / attempted:.4f} ({failed} of {attempted} failed)")
    return metrics, tracing.LAYER_METRICS, attempted, failed, notes


def run(workload_name, seed, seconds, trace, tiny=False, mutate=None):
    """One benchmark run; returns (result dict, human-readable lines)."""
    load_program()
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"inputs-{os.getpid()}"
    scratch.mkdir(exist_ok=True)
    try:
        inputs = workloads.Inputs(scratch)
        # warm-up: one tiny round on other inputs, so lazy set-up is not timed
        for op in workload.round(inputs, f"warm-{seed}", 0, tiny=True):
            Runner().run(op, 0)
        if trace:
            metrics, units, attempted, failed, notes = run_traced(workload, inputs, seed, tiny, mutate)
        else:
            metrics, runner, notes = run_timed(workload, inputs, seed, seconds, tiny, mutate)
            units, attempted, failed = END_TO_END_UNITS, len(runner.times), runner.failed
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = [f"{workload_name} seed {seed}"]
    lines += [f"{name} = {metrics[name]:.6g} {units[name]}" for name in units]
    lines += notes
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, lines


def main(argv=None):
    load_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
