"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

Runs ``run.py`` once per seed on each workload, one run at a time, and
prints for every end-to-end metric its median, its min and the distance
between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound in
``BENCHMARK.json``.  ``--baseline`` also writes ``perfbench/baseline.json``.

    python3 perfbench/prove.py --runs 10
    python3 perfbench/prove.py --runs 5 --workload block-requests
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    parser.add_argument("--baseline", action="store_true",
                        help="write perfbench/baseline.json")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    baseline = {}
    ok = True
    for name in names:
        results = [run(name, s, bench["run_seconds"]) for s in seeds]
        failed = sum(r["failed"] for r in results)
        print(f"== {name}: {len(results)} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"{failed} failed ops")
        ok = ok and failed == 0 and all(r["correct"] for r in results)
        entry = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            s = spread(values)
            exempt = metric == "setup_s"
            flag = "" if exempt or s < bound / 3 else "  <-- above bound/3"
            if not exempt and s > bound:
                ok = False
            print(f"  {metric:<12} median {statistics.median(values):<12.6g} "
                  f"min {min(values):<12.6g} spread {s:7.4f}  bound {bound}{flag}")
            entry[metric] = {"unit": results[0]["metrics"][metric]["unit"],
                             "min": min(values),
                             "median": statistics.median(values),
                             "spread": s}
        baseline[name] = entry

    if args.baseline:
        with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
            json.dump({
                "python": platform.python_version(),
                "cpu_count": os.cpu_count(),
                "machine": platform.machine(),
                "run_seconds": bench["run_seconds"],
                "repeats": args.runs,
                "seeds": seeds,
                "workloads": baseline,
            }, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
