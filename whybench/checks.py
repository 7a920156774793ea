"""Correctness checks and rewrite-quality figures for explain reports.

Every timed report is checked twice, outside the timed region:

* **reference** -- its JSON form, after ``strip_volatile``, must equal
  the report of an in-process explain by a fresh ``WhyQueryService`` on a
  graph nobody else touched (same generator, same writes);
* **recount** -- the observed cardinality and the cardinality of every
  reported rewrite are counted again by a fresh interpreter
  ``PatternMatcher`` with its own candidate cache, on a check copy of the
  current graph, with the limit the engine counted under.

Reports travel as JSON dicts (``report_to_dict``); remote reports are
already in that form, so in-process ones are round-tripped through JSON
to compare like with like.
"""

from __future__ import annotations

import inspect
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.core.serialize import query_from_dict
from repro.matching.evalcache import EvaluationCache
from repro.matching.matcher import PatternMatcher
from repro.metrics.cardinality import CardinalityThreshold
from repro.rewrite.coarse import CoarseRewriter
from repro.server.protocol import report_to_dict, strip_volatile

#: the bound the coarse rewriter counts candidates under (its default,
#: which the engine does not override)
COARSE_COUNT_LIMIT = (
    inspect.signature(CoarseRewriter.__init__).parameters["count_limit"].default
)


def as_wire(report) -> Dict[str, Any]:
    """An in-process report in the JSON form the protocol sends."""
    return json.loads(json.dumps(report_to_dict(report)))


def probe_count_limit(threshold: Optional[CardinalityThreshold]) -> Optional[int]:
    """The limit the engine classifies and the search tree counts under:
    a margin past the threshold's probe bound (``WhyQueryEngine.debug``,
    ``TraverseSearchTree._probe_limit``)."""
    thr = threshold or CardinalityThreshold.at_least(1)
    probe = thr.probe_limit
    return None if probe is None else max(probe * 4, probe + 16)


def reported_counts(
    report: Dict[str, Any], threshold: Optional[CardinalityThreshold]
) -> List[Tuple[str, Dict[str, Any], Optional[int], int]]:
    """``(what, query dict, limit, reported count)`` for every cardinality
    a report states about a query: the input and each rewrite."""
    probe = probe_count_limit(threshold)
    items = [("observed", report["query"], probe, report["observed_cardinality"])]
    rewriting = report.get("rewriting")
    if rewriting is None:
        return items
    if rewriting["kind"] == "coarse":
        for i, item in enumerate(rewriting["explanations"]):
            items.append(
                (f"rewrite[{i}]", item["query"], COARSE_COUNT_LIMIT, item["cardinality"])
            )
    else:
        items.append(
            ("best", rewriting["best_query"], probe, rewriting["best_cardinality"])
        )
    return items


class Recounter:
    """Counts queries with a fresh interpreter matcher per check.

    ``memo`` may be shared across checks of graphs with identical content
    (the workloads without writes regenerate the same graph); ``state``
    names that content.
    """

    def __init__(self) -> None:
        self.memo: Dict[Tuple, int] = {}

    def mismatches(
        self,
        graph,
        state: Optional[Tuple],
        report: Dict[str, Any],
        threshold: Optional[CardinalityThreshold],
    ) -> List[str]:
        matcher = None
        problems = []
        for what, query_dict, limit, reported in reported_counts(report, threshold):
            key = None
            if state is not None:
                key = (state, json.dumps(query_dict, sort_keys=True), limit)
            actual = self.memo.get(key) if key is not None else None
            if actual is None:
                if matcher is None:
                    matcher = PatternMatcher(
                        graph, evalcache=EvaluationCache(graph), compiled=False
                    )
                actual = matcher.count(query_from_dict(query_dict), limit=limit)
                if key is not None:
                    self.memo[key] = actual
            if actual != reported:
                problems.append(
                    f"{what} cardinality {reported} but a fresh matcher counts "
                    f"{actual} (limit {limit})"
                )
        return problems


def reference_mismatch(report: Dict[str, Any], reference: Dict[str, Any]) -> List[str]:
    """Top-level report fields that differ from the reference."""
    got, want = strip_volatile(report), strip_volatile(reference)
    return [
        f"field {key!r} differs from the fresh in-process reference"
        for key in sorted(set(got) | set(want))
        if got.get(key) != want.get(key)
    ]


def quality(report: Dict[str, Any]) -> Tuple[Optional[float], bool]:
    """``(syntactic distance of the best rewrite or None, threshold met)``.

    A report whose query already met its threshold has no rewrite and
    counts as met.
    """
    rewriting = report.get("rewriting")
    if rewriting is None:
        return None, report["problem"] == "expected"
    if rewriting["kind"] == "coarse":
        found = rewriting["explanations"]
        return (found[0]["syntactic"] if found else None), bool(found)
    return rewriting["best_syntactic"], bool(rewriting["converged"])
