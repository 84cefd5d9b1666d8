"""Measure a baseline: every workload over a range of seeds, repeated in
independent sets, each run in a fresh process as ``run.py`` is run alone:

    python3 benchmarks/baseline.py --seeds 1-10 --sets 2 --out benchmarks/baseline.json

from the repository root.  For each set, workload and end-to-end metric it
records the values, the median and the quartile spread (distance between the
first and third quartiles over the median); across sets it records how far
each median moved against the metric's bound in BENCHMARK.json.  One traced
run per workload (the first seed) adds the per-layer metrics.  With 30 s
runs, two sets of ten seeds take about forty minutes.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    sets = []
    for s in range(args.sets):
        per_workload = {}
        for workload in (w["name"] for w in spec["workloads"]):
            values = {name: [] for name in bounds}
            for seed in seeds:
                result = run_once(workload, seed, seconds, 0)
                if not result["correct"]:
                    raise SystemExit(f"{workload} seed {seed}: {result['failed']} ops failed")
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                print(f"set {s + 1} {workload} seed {seed}: done", file=sys.stderr)
            per_workload[workload] = {name: summary(v) for name, v in values.items()}
        sets.append(per_workload)

    drift = {
        workload: {
            name: max(abs(other[workload][name]["median"] / sets[0][workload][name]["median"] - 1)
                      for other in sets[1:]) if len(sets) > 1 else None
            for name in bounds
        }
        for workload in sets[0]
    }
    traced = {w["name"]: {k: v["value"] for k, v in run_once(w["name"], seeds[0], seconds, 1)["metrics"].items()}
              for w in spec["workloads"]}
    report = {
        "command": " ".join(["python3", "benchmarks/baseline.py", "--seeds", args.seeds,
                             "--sets", str(args.sets), "--out", args.out]),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.processor() or 'unknown cpu'}",
        "run_seconds": seconds,
        "seeds": seeds,
        "bounds": bounds,
        "sets": sets,
        "median_drift_between_sets": drift,
        "traced_first_seed": traced,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload in sets[0]:
        for name in bounds:
            spreads = " ".join(f"{st[workload][name]['spread']:.3f}" for st in sets)
            medians = " ".join(f"{st[workload][name]['median']:.6g}" for st in sets)
            d = drift[workload][name]
            print(f"{workload:16} {name:12} medians {medians}  spreads {spreads}  "
                  f"drift {'-' if d is None else f'{d:.3f}'} (bound {bounds[name]})")


if __name__ == "__main__":
    main()
