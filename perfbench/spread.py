"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload fig2 --runs 10 --first-seed 101

Runs the benchmark ``--runs`` times on one workload, each with another
seed, from the checkout in the current directory. For every end-to-end
metric it prints the values, their median, and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    args = ap.parse_args(argv)

    bench = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"], capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
            flush=True)

    worst = 0.0
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        if name != "setup_s":
            worst = max(worst, spread / bound)
        print(f"{args.workload:14s} {name:14s} median {med:12.6g}  spread "
              f"{spread:6.3f}  bound {bound}  spread/bound {spread / bound:5.2f}")
    print(f"all correct: {all(r['correct'] for r in results)}; "
          f"largest spread/bound except setup_s: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
