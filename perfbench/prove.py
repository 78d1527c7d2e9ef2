"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/prove.py [--write-baseline perfbench/baseline.json]

Every workload in ``BENCHMARK.json`` runs two sets of untraced runs at
the spec's ``run_seconds``, one per seed 1-10: the first set in ascending
seed order, the second in descending order, so a steady drift of host
speed does not favour either set.  For each set and end-to-end metric
it prints the median over the seeds and the spread: the distance
between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of the median.  A metric passes when both spreads
are within its bound and the second set's median is not worse than the
first's by more than the bound.  Each workload then has one traced run
at the first seed, which must be correct.  Runs are sequential, one
process at a time.  With ``--write-baseline`` the medians, spreads,
traced metrics and each workload's run context are written to the
given file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def run_once(spec: dict, workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    context = json.loads(lines[-2])["context"] if len(lines) > 1 else {}
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        print(f"{workload} seed {seed} trace {trace}: INCORRECT "
              f"{result['failed']}/{result['attempted']} failed")
    return result, context


def spread(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write-baseline", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    report: dict = {"run_seconds": spec["run_seconds"], "seeds": SEEDS,
                    "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for order in (SEEDS, SEEDS[::-1]):
            values: dict[str, list[float]] = {name: [] for name in metrics}
            for seed in order:
                result, context = run_once(spec, workload, seed, 0)
                ok &= result["correct"] and not result["failed"]
                for name in metrics:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        print(f"== {workload}")
        rows = {}
        for name, metric in metrics.items():
            (m1, s1), (m2, s2) = (spread(v[name]) for v in sets)
            shift = (m2 - m1) / m1 * (1 if metric["better"] == "lower" else -1)
            bound = metric["bound"]
            passed = max(s1, s2) <= bound and shift <= bound
            verdict = ("steady" if max(s1, s2) <= bound / 3 and passed
                       else "within bound" if passed else "OUT OF BOUND")
            ok &= passed
            rows[name] = {"medians": [m1, m2], "spreads": [s1, s2],
                          "worse_shift": shift,
                          "values": [v[name] for v in sets]}
            print(f"  {name:12s} medians {m1:12.6g} {m2:12.6g}  spreads "
                  f"{s1:6.1%} {s2:6.1%}  worse by {shift:6.1%}  "
                  f"bound {bound:.2f}  {verdict}")
        traced, _context = run_once(spec, workload, SEEDS[0], 1)
        ok &= traced["correct"] and not traced["failed"]
        report["workloads"][workload] = {
            "metrics": rows, "context": context,
            "traced": {k: v["value"] for k, v in traced["metrics"].items()}}
    if args.write_baseline:
        args.write_baseline.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
