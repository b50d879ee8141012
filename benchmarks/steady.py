"""Steadiness of the benchmark: repeated runs, quartiles and bounds.

    python3 benchmarks/steady.py

Runs every workload of BENCHMARK.json RUNS times untraced, for run_seconds
each, with seeds 1 to RUNS, and prints the median and quartiles of each
end-to-end metric with its spread (interquartile distance over the median)
next to its bound.  A spread within a third of its bound is marked "ok",
within the bound "near", beyond it "OVER".  It then makes TRACED traced runs
per workload on seed 1, right after the untraced run on seed 1, checks that
their counts agree exactly, and prints the tracing overhead: the median
traced wall_s minus the untraced wall_s of seed 1.
The full figures go to .bench_out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
TRACED = 2


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# traced wall_s "):
            result["traced_wall_s"] = float(line.split()[-1])
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sys.stdout.reconfigure(line_buffering=True)

    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        # seed 1 runs last, next to the traced runs on seed 1, so that the
        # tracing overhead compares runs made close together in time
        runs = [run_once(workload, seed, seconds, 0) for seed in [*range(2, RUNS + 1), 1]]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {RUNS} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed share {sorted(shares)}")
        print(f"  {'metric':45s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            mark = "ok" if sp <= bound / 3 else "near" if sp <= bound else "OVER"
            rows[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                          "spread": sp, "bound": bound, "mark": mark}
            print(f"  {name:45s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{sp:7.3f} {bound:6.2f} {mark}")

        traced = [run_once(workload, 1, seconds, 1) for _ in range(TRACED)]
        counts = [{k: v["value"] for k, v in t["metrics"].items()
                   if not k.endswith("self_s")} for t in traced]
        same = all(c == counts[0] for c in counts)
        untraced_wall = runs[-1]["metrics"]["wall_s"]["value"]
        overhead = statistics.median(t["traced_wall_s"] for t in traced) - untraced_wall
        print(f"  traced runs: counts identical={same}, tracing overhead "
              f"{overhead:+.4g} s ({overhead / untraced_wall:+.1%})")
        summary[workload] = {"runs": rows, "correct": all(r["correct"] for r in runs),
                             "failed_shares": sorted(shares),
                             "traced_counts_identical": same,
                             "tracing_overhead_s": overhead,
                             "traced": [t["metrics"] for t in traced]}
    out = ROOT / ".bench_out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"\nfigures written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
