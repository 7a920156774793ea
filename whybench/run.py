"""End-to-end why-query benchmark.

Run from the root of a checkout of the repository::

    python3 whybench/run.py --workload empty_cold --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (spans recorded from this directory's
wrappers, see ``spans.py``).  Every explain's report is checked against
a fresh in-process reference and recounted; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Details (failures, raw counters, spans) go to
``whybench/out/``.  See README.md for the workloads and the layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def rewrite_quality(records) -> dict:
    """Mean syntactic distance of the best rewrites, and the share of
    explains whose result met (or was rewritten to meet) the threshold."""
    from checks import quality

    distances, met = [], []
    for r in records:
        if r.outcome.error is None:
            distance, converged = quality(r.outcome.report)
            met.append(converged)
            if distance is not None:
                distances.append(distance)
    return {
        "best_distance_mean": statistics.fmean(distances),
        "converged_frac": sum(met) / len(met),
    }


def failed_count(records) -> int:
    """Explains that raised, were refused or answered wrongly."""
    return sum(1 for r in records if r.outcome.error is not None or r.problems)


def end_to_end(result, min_passes: int) -> dict:
    records = result.records
    done = [r for r in records if r.outcome.error is None]
    failed = failed_count(records)
    latencies = [r.outcome.latency_s * 1e3 for r in done]
    firsts = [r.outcome.first_candidate_s * 1e3 for r in done
              if r.outcome.first_candidate_s is not None]
    timed = sum(r.outcome.timed_s for r in records)
    # quality over the passes every run makes, so it does not depend on
    # how many passes the machine fits into the run
    quality = rewrite_quality([r for r in records if r.pass_index < min_passes])
    values = {
        "explain_p50_ms": (statistics.median(latencies), "ms"),
        "explain_p90_ms": (statistics.quantiles(latencies, n=10)[8], "ms"),
        "first_candidate_p50_ms": (statistics.median(firsts), "ms"),
        "explains_per_s": (len(done) / timed, "1/s"),
        "success_frac": (1.0 - failed / len(records), "ratio"),
        "setup_s": (statistics.median(result.setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "best_distance_mean": (quality["best_distance_mean"], "distance"),
        "converged_frac": (quality["converged_frac"], "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(result) -> tuple:
    """Per-layer metrics of the traced passes, and a detail dict."""
    from layers import EXPLAIN_LAYERS
    from spans import attribute

    recorder = result.recorder
    traced = [r for r in result.records if r.traced and r.outcome.error is None]
    plain = [r for r in result.records if not r.traced and r.outcome.error is None]
    n = len(traced)
    rids = [r.rid for r in traced]
    rid_set = set(rids)
    self_ns = attribute(recorder.spans, rids)
    total_ns = sum(
        span[6] - span[5] for span in recorder.spans
        if span[2] is None and span[0] in rid_set
    )
    counts = recorder.counts
    remote = result.workload == "empty_warm_remote"

    def per(value):
        return value / n

    def ms(ns):
        return ns / n / 1e6

    def rate(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    # graph mutations of the traced passes: one set-up each, plus the
    # writes made before explains
    write_ns = sum(span[6] - span[5] for span in recorder.spans if span[4] == "write")
    admission_ns = sum(
        span[6] - span[5] for span in recorder.spans
        if span[3] == "WhyQueryService.admission"
    )
    traced_mean = statistics.fmean(r.outcome.latency_s for r in traced)
    plain_mean = statistics.fmean(r.outcome.latency_s for r in plain)
    wire_ms = (
        statistics.fmean(
            (r.outcome.latency_s - r.outcome.report["elapsed_s"]) * 1e3 for r in traced
        )
        if remote else 0.0
    )
    C, MS, R = "count/explain", "ms", "ratio"
    values = {
        "match.self_ms": (ms(self_ns.get("match", 0)), MS),
        "match.calls": (per(counts["match.calls"]), C),
        "match.steps": (per(counts["match.steps"]), C),
        "plan.self_ms": (ms(self_ns.get("plan", 0)), MS),
        "plan.hit_rate": (rate(counts["plan.hits"], counts["plan.misses"]), R),
        "compile.self_ms": (ms(self_ns.get("compile", 0)), MS),
        "compile.kernels": (per(counts["compile.kernels"]), C),
        "csr.builds": (per(counts["csr.builds"]), C),
        "csr.patches": (per(counts["csr.patches"]), C),
        "estimate.self_ms": (ms(self_ns.get("estimate", 0)), MS),
        "estimate.calls": (per(counts["estimate.calls"]), C),
        "estimate.path1_calls": (per(counts["estimate.path1_calls"]), C),
        "estimate.path1_misses": (per(counts["estimate.path1_misses"]), C),
        "score.self_ms": (ms(self_ns.get("score", 0)), MS),
        "score.calls": (per(counts["score.calls"]), C),
        "search.self_ms": (ms(self_ns.get("search", 0)), MS),
        "search.generated": (per(counts["search.generated"]), C),
        "search.evaluated": (per(counts["search.evaluated"]), C),
        "search.found_per_evaluated": (
            counts["search.found"] / counts["search.evaluated"]
            if counts["search.evaluated"] else 0.0, R),
        "evaluate.self_ms": (ms(self_ns.get("evaluate", 0)), MS),
        "cache.hit_rate": (rate(counts["cache.hits"], counts["cache.misses"]), R),
        "cache.misses": (per(counts["cache.misses"]), C),
        "mcs.self_ms": (ms(self_ns.get("mcs", 0)), MS),
        "mcs.evaluations": (per(counts["mcs.evaluations"]), C),
        "classify.self_ms": (ms(self_ns.get("classify", 0)), MS),
        "write.ms": (write_ns / result.traced_passes / 1e6, MS),
        "write.count": (counts["write.count"] / result.traced_passes, "count/pass"),
        "wire.ms": (wire_ms, MS),
        "wire.self_ms": (ms(self_ns.get("wire", 0)), MS),
        "wire.bytes_per_explain": (per(counts["wire.bytes"]), "B/explain"),
        "wire.frames_per_explain": (per(counts["wire.frames"]), C),
        "service.self_ms": (ms(self_ns.get("service", 0)), MS),
        "service.admission_ms": (ms(admission_ns), MS),
        "service.contexts_created": (per(counts["service.contexts_created"]), C),
        "unattributed.self_ms": (ms(self_ns.get("unattributed", 0)), MS),
        "explain.traced_ms": (ms(total_ns), MS),
        "trace.overhead_frac": (traced_mean / plain_mean - 1.0, R),
    }
    unknown = set(self_ns) - set(EXPLAIN_LAYERS)
    if unknown:
        raise RuntimeError(f"spans charged to unlisted layers {sorted(unknown)}")
    detail = {
        "traced_explains": n,
        "self_ns": self_ns,
        "explain_ns": total_ns,
        "self_sum_matches": sum(self_ns.values()) == total_ns,
        "counters": dict(counts),
        "spans": len(recorder.spans),
        "skipped_entry_points": sorted(set(recorder.skipped)),
        "quality": rewrite_quality(result.records),
    }
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    return metrics, detail


def latency_by_request(records) -> dict:
    latencies: dict = {}
    for r in records:
        latencies.setdefault(r.request.key, []).append(
            None if r.outcome.error else round(r.outcome.latency_s * 1e3, 3)
        )
    return latencies


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # the matcher's work depends on the order sets of strings iterate in,
    # so the string-hash seed is part of the input: derived from --seed,
    # the same seed counts the same work and other seeds vary that order
    hash_seed = str(args.seed % 2**32)
    if argv is None and os.environ.get("PYTHONHASHSEED") != hash_seed:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    # the default configuration: the package's own defaults, not the
    # caller's environment
    for name in ("REPRO_COMPILED_MATCH", "REPRO_TRACE"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    records = result.records
    failures = [
        f"pass {r.pass_index} {r.request.key}: {problem}"
        for r in records
        for problem in ([r.outcome.error] if r.outcome.error else r.problems)
    ]
    failed = failed_count(records)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": result.passes,
        "explains": len(records),
        "setup_times_s": result.setup_times,
        "latency_ms": latency_by_request(records),
        "failures": failures,
    }
    if args.trace:
        metrics, trace_detail = per_layer(result)
        detail.update(trace_detail)
    else:
        metrics = end_to_end(result, workloads.MIN_PASSES)
    detail["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, default=str)
    if args.trace:
        result.recorder.dump(str(OUT / f"{stem}-spans.jsonl"))

    print(f"workload {args.workload}: {len(records)} explains in "
          f"{result.passes} passes, {failed} failed")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
