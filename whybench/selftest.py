"""Determinism self-test of the traced benchmark runs.

A traced run makes a fixed number of passes, so two traced runs with one
seed must count exactly the same work.  For each workload and each of
two seeds this runs the traced benchmark twice and compares the work
counters and the rewrite-quality figures; it exits 1 when any differs::

    python3 whybench/selftest.py                    # every workload
    python3 whybench/selftest.py --workloads empty_cold --seeds 3 4

Counters that differ *between* the two seeds are listed for information
(the writes of ``bounds_writes`` depend on the seed; the order of the
other workloads should not change any count).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: per-layer metrics that are work counts, not times
WORK_COUNTERS = (
    "match.calls",
    "match.steps",
    "plan.hit_rate",
    "compile.kernels",
    "csr.builds",
    "csr.patches",
    "estimate.calls",
    "estimate.path1_calls",
    "estimate.path1_misses",
    "score.calls",
    "search.generated",
    "search.evaluated",
    "search.found_per_evaluated",
    "cache.hit_rate",
    "cache.misses",
    "mcs.evaluations",
    "write.count",
    "wire.bytes_per_explain",
    "wire.frames_per_explain",
    "service.contexts_created",
)


def traced_run(workload: str, seed: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {completed.stderr}")
    detail = json.loads(
        (HERE / "out" / f"{workload}-seed{seed}-trace1.json").read_text()
    )
    values = {name: detail["metrics"][name]["value"] for name in WORK_COUNTERS}
    values.update(detail["quality"])
    values["failed"] = len(detail["failures"])
    return values


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", nargs=2, type=int, default=[1, 2])
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workloads:
        per_seed = {}
        for seed in args.seeds:
            first, second = traced_run(workload, seed), traced_run(workload, seed)
            differing = sorted(k for k in first if first[k] != second[k])
            status = "identical" if not differing else f"DIFFER: {differing}"
            print(f"{workload} seed {seed}: {len(first)} counters {status}")
            ok &= not differing
            per_seed[seed] = first
        a, b = (per_seed[s] for s in args.seeds)
        across = sorted(k for k in a if a[k] != b[k])
        print(f"{workload}: differ between seeds {args.seeds}: {across or 'none'}")
    print("determinism self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
