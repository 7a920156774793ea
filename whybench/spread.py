"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each named workload, one run at a
time, and prints per metric the median and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json::

    python3 whybench/spread.py --workloads bounds_writes --seeds 1 2 3 4 5

Run it from the root of a checkout.  Raw results are appended to
``whybench/out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    (HERE / "out").mkdir(exist_ok=True)
    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            result = run_once(workload, seed, args.seconds, 0)
            wall = time.perf_counter() - start
            runs.append(result)
            with open(HERE / "out" / "spread.jsonl", "a", encoding="utf-8") as log:
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      "wall_s": wall, "result": result}) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"in {wall:.1f} s", flush=True)
        print(f"\n{workload} over seeds {args.seeds}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid if mid else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:24s} median {mid:12.6g}  spread {spread:7.4f}  "
                  f"bound {bound:5.2f}  spread/bound {spread / bound:5.2f}")
    print(f"\nworst spread/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
