"""Run the benchmark over several seeds and report each metric's spread.

For every metric: the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the distance
between the quartiles as a share of the median.  Each run measures
BENCHMARK.json's ``run_seconds``.  Run from the repository root:

    python3 perfbench/spread.py --workload exact-mix --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10")
    args = parser.parse_args()
    here = Path(__file__).parent
    runner = here / "run.py"
    seconds = json.loads((here.parent / "BENCHMARK.json").read_text())["run_seconds"]
    results = []
    for seed in args.seeds:
        command = [sys.executable, str(runner), "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
        share = (q3 - q1) / median if median else float("nan")
        print(f"{name:22s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {share:7.2%}  {results[0]['metrics'][name]['unit']}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share(s): {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
