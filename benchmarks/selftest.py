"""Self-test of the benchmark itself, at tiny sizes (about ten seconds):

    python3 benchmarks/selftest.py

from the repository root.  Checks that every workload emits each named
metric with its unit in both modes, that the traced counters repeat exactly
for one seed, that corrupted outputs are counted as failures, and that the
benchmark refuses to run without the program next to it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import run

run.load_program()
import tracing  # noqa: E402
import workloads  # noqa: E402


def need(condition, message):
    if not condition:
        raise AssertionError(message)


def check_metrics(result, lines, units):
    need(set(result["metrics"]) == set(units), f"metrics {sorted(result['metrics'])}")
    for name, unit in units.items():
        entry = result["metrics"][name]
        need(entry["unit"] == unit, f"{name} unit {entry['unit']}, expected {unit}")
        need(isinstance(entry["value"], (int, float)), f"{name} value {entry['value']!r}")
        need(any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines),
             f"{name} is not printed with its unit")
    need(result["attempted"] >= 1, "nothing attempted")


def check_workloads():
    for name in workloads.WORKLOADS:
        result, lines = run.run(name, 7, 0, 0, tiny=True)
        check_metrics(result, lines, run.END_TO_END_UNITS)
        need(result["correct"] and result["failed"] == 0, f"{name}: {result['failed']} ops failed")
        need(any(line.startswith("error_rate = 0.0000") for line in lines), f"{name}: no error_rate line")
        for metric in ("ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb", "setup_s"):
            need(result["metrics"][metric]["value"] > 0, f"{name}: {metric} is not positive")

        traced, lines = run.run(name, 7, 0, 1, tiny=True)
        check_metrics(traced, lines, tracing.LAYER_METRICS)
        need(traced["correct"], f"{name}: traced ops failed")
        again, _ = run.run(name, 7, 0, 1, tiny=True)
        for counter in tracing.COUNTERS:
            first, second = (r["metrics"][counter]["value"] for r in (traced, again))
            need(first == second, f"{name}: {counter} was {first}, then {second}")
        print(f"selftest: {name} ok")


def perturb_coefficient(op, result):
    if op.kind != "polys-type2":
        return result
    body = json.loads(result.out)
    body["B"][-1][0] = str(Fraction(body["B"][-1][0]) + 1)
    return dataclasses.replace(result, out=json.dumps(body))


def drop_a_minor(op, result):
    if not op.kind.startswith("tn-certify"):
        return result
    m, report = result
    return m, dataclasses.replace(report, minors_checked=report.minors_checked - 1)


def check_corruption_is_counted():
    for workload, mutate, kind in (("recurrence-deep", perturb_coefficient, "polys-type2"),
                                   ("tn-probe", drop_a_minor, "tn-certify")):
        result, lines = run.run(workload, 7, 0, 0, tiny=True, mutate=mutate)
        need(result["failed"] > 0 and not result["correct"], f"{workload}: corrupted {kind} output passed")
        need(not any(line.startswith("error_rate = 0.0000") for line in lines), "error_rate stayed 0")
        print(f"selftest: corrupted {kind} output counted in error_rate ({result['failed']} failed)")


def check_refuses_without_program():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "tn-probe", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    need(proc.returncode != 0, "ran without src/tetrahess")
    need('"metrics"' not in proc.stdout, "printed a result without src/tetrahess")
    print(f"selftest: without the program it exits {proc.returncode} and prints no result")


if __name__ == "__main__":
    check_workloads()
    check_corruption_is_counted()
    check_refuses_without_program()
    print("selftest: all ok")
