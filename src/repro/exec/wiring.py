"""Component resolution shared by the engines' constructors.

Every engine accepts the same wiring choice: the
:class:`~repro.exec.context.ExecutionContext`'s spine, or explicit
components (never both), with fresh per-engine wiring filling whatever
is not given.  :func:`resolve_spine` implements that rule once so the
engines cannot drift apart.

The ``context`` argument is duck-typed (anything exposing ``graph``,
``matcher``, ``cache``, ``statistics``) rather than imported, which keeps
this module a leaf: it can be imported from ``repro.rewrite`` /
``repro.finegrained`` without creating an import cycle with
:mod:`repro.exec.context`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.graph import PropertyGraph
from repro.matching.matcher import PatternMatcher
from repro.rewrite.cache import QueryResultCache
from repro.rewrite.statistics import GraphStatistics

__all__ = ["resolve_spine"]


def resolve_spine(
    graph: Optional[PropertyGraph],
    context,
    matcher: Optional[PatternMatcher] = None,
    cache: Optional[QueryResultCache] = None,
    statistics: Optional[GraphStatistics] = None,
) -> Tuple[PropertyGraph, PatternMatcher, QueryResultCache, GraphStatistics]:
    """Resolve ``(graph, matcher, cache, statistics)`` for one engine.

    Raises :class:`ValueError` when neither ``graph`` nor ``context`` is
    given, when both are given but disagree, or when individual
    components (``matcher`` / ``cache`` / ``statistics``) are passed
    alongside a ``context``: the context *is* the spine, and overriding
    one layer of it would silently forfeit the shared caches the other
    layers assume.  Build a dedicated ``ExecutionContext`` with the
    desired components instead.
    """
    if graph is None and context is None:
        raise ValueError("either graph or context is required")
    if context is not None and any(
        component is not None for component in (matcher, cache, statistics)
    ):
        raise ValueError(
            "matcher=/cache=/statistics= cannot be passed alongside "
            "context=; wire a dedicated ExecutionContext instead"
        )
    if context is not None:
        if graph is not None and graph is not context.graph:
            raise ValueError("graph and context.graph differ")
        graph = context.graph
    if matcher is None:
        matcher = context.matcher if context is not None else PatternMatcher(graph)
    if cache is None:
        cache = context.cache if context is not None else QueryResultCache(matcher)
    if statistics is None:
        statistics = (
            context.statistics
            if context is not None
            else GraphStatistics(graph, evalcache=matcher.evalcache)
        )
    return graph, matcher, cache, statistics
