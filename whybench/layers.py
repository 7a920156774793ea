"""The layer entry points the benchmark wraps, and their work counters.

Each wrapped entry point is named by the module that owns it; the layer
it is charged to is the name the per-layer metrics use (see README.md
for the layer -> end-to-end metric -> workload table).  Functions are
wrapped where the caller looks them up -- e.g. ``discover_mcs`` as
``repro.why.engine`` imports it -- so the package stays unmodified.
"""

from __future__ import annotations

import importlib
import json
from typing import Dict

from spans import UNATTRIBUTED, SpanRecorder

#: layers whose self-times (plus UNATTRIBUTED) partition an explain;
#: writes run in requests of their own, never inside an explain
EXPLAIN_LAYERS = (
    "service",
    "classify",
    "mcs",
    "search",
    "estimate",
    "score",
    "evaluate",
    "match",
    "plan",
    "compile",
    "wire",
    "write",
    UNATTRIBUTED,
)


def _steps_before(args, kwargs):
    return args[0].steps


def _match_after(counts):
    def after(args, kwargs, before, result):
        counts["match.calls"] += 1
        counts["match.steps"] += args[0].steps - before

    return after


def _cache_before(args, kwargs):
    stats = args[0].stats
    return stats.hits, stats.misses


def _cache_after(counts):
    def after(args, kwargs, before, result):
        stats = args[0].stats
        counts["cache.hits"] += stats.hits - before[0]
        counts["cache.misses"] += stats.misses - before[1]

    return after


def _path1_state(statistics):
    # GraphStatistics keeps its path(1) memo private; without it the
    # miss count reads zero rather than failing the run
    cache = getattr(statistics, "_path1_cache", None)
    return (None, None) if cache is None else (len(cache), statistics._version)


def _path1_before(args, kwargs):
    return _path1_state(args[0])


def _path1_after(counts):
    def after(args, kwargs, before, result):
        counts["estimate.path1_calls"] += 1
        size, version = _path1_state(args[0])
        # a miss scans edges and stores the result; an invalidation during
        # the call empties the cache first, so it is a miss as well
        if size is not None and (version != before[1] or size > before[0]):
            counts["estimate.path1_misses"] += 1

    return after


def _plan_state(args, kwargs):
    # read without validating: plan_cache_stats() would run the delta
    # invalidation here, outside the build_plan span it belongs to
    import repro.matching.plan

    caches = getattr(repro.matching.plan, "_PLAN_CACHES", None)
    cache = None if caches is None else caches.get(args[0])
    return (0, 0) if cache is None else (cache.stats.hits, cache.stats.misses)


def _plan_after(counts):
    def after(args, kwargs, before, result):
        hits, misses = _plan_state(args, kwargs)
        counts["plan.hits"] += hits - before[0]
        counts["plan.misses"] += misses - before[1]

    return after


def _count(counts, name):
    def after(args, kwargs, before, result):
        counts[name] += 1

    return after


def _search_after(counts):
    def after(args, kwargs, before, result):
        counts["search.generated"] += result.generated
        counts["search.evaluated"] += result.evaluated
        found = getattr(result, "explanations", None)
        counts["search.found"] += (
            len(found) if found is not None else int(result.converged)
        )

    return after


def _mcs_after(counts):
    def after(args, kwargs, before, result):
        counts["mcs.evaluations"] += result.stats.evaluations

    return after


def _volatile_bytes(message) -> int:
    """Bytes of the result frame's volatile ``elapsed_s`` (its digit count
    varies run to run, so wire bytes exclude it to stay a work count)."""
    report = message.get("report") if isinstance(message, dict) else None
    if isinstance(report, dict) and "elapsed_s" in report:
        return len(json.dumps(report["elapsed_s"]))
    return 0


def _frame_after(counts):
    def after(args, kwargs, before, result):
        counts["wire.frames"] += 1
        counts["wire.bytes"] += len(result) - _volatile_bytes(args[0])

    return after


def _find(path: str):
    """``"module:attribute"`` (or ``"module"``), or ``None`` when a refactor
    removed it: a missing entry point is skipped, not fatal."""
    module_name, _, attr = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, attr, None) if attr else owner


def install_layer_spans(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point the benchmark attributes time to."""
    counts = recorder.counts
    wrap = recorder.wrap

    # service: admission, context creation, engine wiring, bookkeeping
    service = _find("repro.service:WhyQueryService")
    wrap(service, "explain", "WhyQueryService.explain", "service")
    wrap(service, "_admit", "WhyQueryService.admission", "service")
    wrap(_find("repro.exec.context:ExecutionContext"), "__init__",
         "ExecutionContext", "service",
         after=_count(counts, "service.contexts_created"))
    # classify: the engine's own work (classification and dispatch)
    wrap(_find("repro.why.engine:WhyQueryEngine"), "debug",
         "WhyQueryEngine.debug", "classify")
    # mcs: subgraph explanations, as the engine imports them
    for name in ("discover_mcs", "bounded_mcs"):
        wrap(_find("repro.why.engine"), name, name, "mcs",
             after=_mcs_after(counts))
    # search: the rewriting engines
    wrap(_find("repro.rewrite.coarse:CoarseRewriter"), "rewrite",
         "CoarseRewriter.rewrite", "search", after=_search_after(counts))
    wrap(_find("repro.finegrained.traverse_search_tree:TraverseSearchTree"),
         "search", "TraverseSearchTree.search", "search",
         after=_search_after(counts))
    # estimate: statistics-based cardinality estimation
    statistics = _find("repro.rewrite.statistics:GraphStatistics")
    wrap(statistics, "estimate_query_cardinality",
         "GraphStatistics.estimate_query_cardinality", "estimate",
         after=_count(counts, "estimate.calls"))
    wrap(statistics, "path1_cardinality", "GraphStatistics.path1_cardinality",
         "estimate", before=_path1_before, after=_path1_after(counts))
    # score: candidate priorities and syntactic distances
    priorities = _find("repro.rewrite.priority:PRIORITY_FUNCTIONS") or {}
    for name in sorted(priorities):
        wrap(priorities, name, f"priority.{name}", "score")
    for module in ("repro.rewrite.coarse", "repro.rewrite.priority",
                   "repro.finegrained.traverse_search_tree"):
        wrap(_find(module), "syntactic_distance", "syntactic_distance", "score",
             after=_count(counts, "score.calls"))
    # evaluate: candidate batches and the query-result cache
    wrap(_find("repro.exec.evaluator:CandidateEvaluator"), "evaluate",
         "CandidateEvaluator.evaluate", "evaluate")
    wrap(_find("repro.rewrite.cache:QueryResultCache"), "count",
         "QueryResultCache.count", "evaluate",
         before=_cache_before, after=_cache_after(counts))
    # match: the pattern matcher
    matcher = _find("repro.matching.matcher:PatternMatcher")
    for name in ("count", "match", "exists"):
        wrap(matcher, name, f"PatternMatcher.{name}", "match",
             before=_steps_before, after=_match_after(counts))
    # plan: query plans, where they are imported
    for module in ("repro.matching.matcher", "repro.matching.program",
                   "repro.finegrained.opquery", "repro.matching.plan"):
        wrap(_find(module), "build_plan", "build_plan", "plan",
             before=_plan_state, after=_plan_after(counts))
    # compile: the compiled backend (idle in the default configuration)
    wrap(_find("repro.matching.matcher"), "compiled_program",
         "compiled_program", "compile")
    # wire: framing and (de)serialisation on both ends of the protocol
    client, server = _find("repro.client"), _find("repro.server.server")
    for module in (client, server):
        wrap(module, "encode_frame", "encode_frame", "wire",
             after=_frame_after(counts))
    wrap(_find("repro.server.protocol:FrameDecoder"), "feed",
         "FrameDecoder.feed", "wire")
    wrap(server, "report_to_dict", "report_to_dict", "wire")
    wrap(server, "query_from_dict", "query_from_dict", "wire")
    wrap(client, "query_to_dict", "query_to_dict", "wire")
    wrap(_find("repro.core.serialize"), "query_to_dict", "query_to_dict", "wire")
    install_write_spans(recorder)


def install_write_spans(recorder: SpanRecorder) -> None:
    """Wrap the graph's mutation methods (the write layer).  Writes run in
    requests of their own: a set-up's graph construction, or a write made
    before an explain."""
    graph = _find("repro.core.graph:PropertyGraph")
    for name in ("add_vertex", "add_edge", "set_vertex_attribute",
                 "set_edge_attribute"):
        recorder.wrap(graph, name, f"PropertyGraph.{name}", "write",
                      after=_count(recorder.counts, "write.count"))


def graph_counters(graph) -> Dict[str, int]:
    """Compiled-backend counters of one graph (reading them builds nothing)."""
    from repro.matching.csr import csr_stats

    csr = csr_stats(graph)
    return {
        "compile.kernels": csr["programs_compiled"],
        "csr.builds": csr["csr_builds"],
        "csr.patches": csr["csr_patches"],
    }


def add_graph_delta(counts, before: Dict[str, int], after: Dict[str, int]) -> None:
    for key, value in after.items():
        counts[key] += value - before[key]
