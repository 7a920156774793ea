"""Coarse-grained why-empty query rewriting (Chapter 5).

System architecture (Sec. 5.1.1): a candidate generator applies
whole-constraint relaxations (predicates, types, directions, edges,
vertices) to the failed query; a statistics-driven priority function
(Sec. 5.3) orders the open candidates; the evaluator executes the most
promising candidate with a bounded count, consulting the query-result
cache (App. B.2) first; the first non-empty candidates are returned as
modification-based explanations.  A user-preference model (Sec. 5.4) can
re-weight priorities between calls.

The evaluator drains the queue in *budgeted batches* through the shared
:class:`~repro.exec.evaluator.CandidateEvaluator`: with the default
:class:`~repro.exec.evaluator.SerialExecutor` the batch size is 1 (the
thesis' sequential formulation, no speculative budget spend); with the
process-backed :class:`~repro.shard.ProcessExecutor` (or an explicit
``batch_size``) the top `batch_size` candidates are evaluated as one
batch and folded back in priority order, which keeps the search
deterministic for a fixed batch size.

The engine purposely ignores a cardinality threshold: "this approach does
not consider the cardinality threshold and therefore is more appropriate
for solving why-empty queries" (Contribution 4).  Threshold-driven
rewriting is Chapter 6's fine-grained engine.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Set, Tuple, Union

from repro.core.errors import MalformedQueryError, RewritingError
from repro.core.graph import PropertyGraph
from repro.core.query import GraphQuery
from repro.exec.evaluator import (
    BatchExecutor,
    CandidateEvaluator,
    EvaluationBudget,
    SerialExecutor,
)
from repro.exec.wiring import resolve_spine
from repro.matching.matcher import PatternMatcher
from repro.obs.tracing import SPAN_REWRITE, current_tracer
from repro.metrics.syntactic import syntactic_distance
from repro.rewrite.cache import QueryResultCache
from repro.rewrite.operations import Modification, coarse_relaxations
from repro.rewrite.preference_model import RewritePreferenceModel
from repro.rewrite.priority import (
    CandidateContext,
    PriorityFunction,
    get_priority_function,
)
from repro.rewrite.statistics import GraphStatistics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.exec.context import ExecutionContext


@dataclass(frozen=True)
class RewrittenQuery:
    """One modification-based explanation produced by the rewriter."""

    query: GraphQuery
    cardinality: int
    syntactic: float
    modifications: Tuple[Modification, ...]
    estimate: float

    def describe(self) -> str:
        steps = "; ".join(op.describe() for op in self.modifications)
        return (
            f"cardinality {self.cardinality}, syntactic distance "
            f"{self.syntactic:.3f}: {steps}"
        )


@dataclass
class ConvergencePoint:
    """One sample of the search progress (Sec. 5.5.2)."""

    evaluations: int
    elapsed: float
    found: int
    best_syntactic: Optional[float]


@dataclass
class CoarseRewriteResult:
    """Explanations plus full search instrumentation.

    ``explanations`` is sorted by syntactic closeness (the user-facing
    ranking); ``discovered`` keeps the same rewritings in the order the
    search produced them (the order an interactive session shows them).
    """

    explanations: List[RewrittenQuery]
    evaluated: int
    generated: int
    queue_peak: int
    elapsed: float
    budget_exhausted: bool
    convergence: List[ConvergencePoint] = field(default_factory=list)
    discovered: List[RewrittenQuery] = field(default_factory=list)

    @property
    def best(self) -> Optional[RewrittenQuery]:
        return self.explanations[0] if self.explanations else None


@dataclass(order=True)
class _QueueEntry:
    #: (preference bucket, -priority, tiebreak counter): the preference
    #: bucket is lexicographically dominant, so user objections re-order
    #: the queue regardless of the priority function's scale (Sec. 5.4.2)
    sort_key: Tuple[int, float, int]
    query: GraphQuery = field(compare=False)
    modifications: Tuple[Modification, ...] = field(compare=False)
    estimate: float = field(compare=False)


class CoarseRewriter:
    """Priority-driven relaxation search for why-empty queries."""

    def __init__(
        self,
        graph: Optional[PropertyGraph] = None,
        priority: Union[str, PriorityFunction] = "hybrid",
        matcher: Optional[PatternMatcher] = None,
        cache: Optional[QueryResultCache] = None,
        statistics: Optional[GraphStatistics] = None,
        preference_model: Optional[RewritePreferenceModel] = None,
        max_evaluations: int = 300,
        max_depth: Optional[int] = None,
        count_limit: int = 1000,
        op_filter: Optional[Callable[[Modification], bool]] = None,
        context: Optional["ExecutionContext"] = None,
        executor: Optional[BatchExecutor] = None,
        batch_size: Optional[int] = None,
        budget: Optional[EvaluationBudget] = None,
        on_candidate: Optional[Callable[..., None]] = None,
        tracer=None,
    ) -> None:
        # the context's spine or explicit components, then fresh wiring
        self.graph, self.matcher, self.cache, self.statistics = resolve_spine(
            graph, context, matcher=matcher, cache=cache, statistics=statistics
        )
        #: request tracer; ``None`` resolves the ambient one per rewrite
        self.tracer = tracer
        self.preference_model = preference_model
        self.priority_fn = (
            get_priority_function(priority) if isinstance(priority, str) else priority
        )
        self.max_evaluations = max_evaluations
        self.max_depth = max_depth
        self.count_limit = count_limit
        #: optional hard constraint on applicable operations (e.g. the
        #: user's immutable elements); rejected operations are never
        #: generated, unlike the soft preference-model re-weighting
        self.op_filter = op_filter
        self.executor: BatchExecutor = (
            executor if executor is not None else SerialExecutor()
        )
        if batch_size is None:
            batch_size = getattr(self.executor, "preferred_batch", 1)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        #: queue entries drained and evaluated per round; defaults to the
        #: executor's preferred batch (1 serial, worker count for processes)
        self.batch_size = batch_size
        #: externally managed evaluation allowance (e.g. a per-request
        #: lease carved from a service-level budget pool); when given it
        #: is the hard bound instead of ``max_evaluations``, and spend is
        #: shared with every other engine holding the same budget
        self.budget = budget
        #: incremental-results seam: invoked once per evaluated candidate
        #: (an :class:`~repro.exec.evaluator.EvaluatedCandidate`) as each
        #: batch finishes, so streaming consumers see the search progress
        #: live; exceptions raised here abort the search (cooperative
        #: cancellation)
        self.on_candidate = on_candidate

    # -- public API ----------------------------------------------------------

    def rewrite(self, query: GraphQuery, k: int = 1) -> CoarseRewriteResult:
        """Produce up to ``k`` non-empty rewritings of a failed query.

        Raises :class:`ValueError` when the input query is not actually
        empty (the holistic engine dispatches those cases elsewhere).
        """
        tracer = self.tracer if self.tracer is not None else current_tracer()
        with tracer.span(SPAN_REWRITE, engine="coarse") as span:
            result = self._rewrite(query, k, tracer)
            if tracer.enabled:
                span.attributes["evaluated"] = result.evaluated
                span.attributes["found"] = len(result.explanations)
                span.attributes["budget_exhausted"] = result.budget_exhausted
            return result

    def _rewrite(self, query: GraphQuery, k: int, tracer) -> CoarseRewriteResult:
        if self.cache.count(query, limit=1) > 0:
            raise ValueError(
                "query delivers results; coarse rewriting targets why-empty"
            )
        start = time.perf_counter()
        counter = itertools.count()
        original_estimate = self.statistics.estimate_query_cardinality(query)
        budget = (
            self.budget
            if self.budget is not None
            else EvaluationBudget(self.max_evaluations)
        )
        evaluator = CandidateEvaluator(
            self.cache,
            executor=self.executor,
            budget=budget,
            count_limit=self.count_limit,
            on_result=self.on_candidate,
            tracer=tracer,
        )

        heap: List[_QueueEntry] = []
        seen: Set = {query.signature()}
        generated = 0
        queue_peak = 0
        budget_exhausted = False
        found: List[RewrittenQuery] = []
        convergence: List[ConvergencePoint] = []

        def push_children(
            base: GraphQuery,
            base_mods: Tuple[Modification, ...],
            base_estimate: float,
        ) -> None:
            nonlocal generated
            if self.max_depth is not None and len(base_mods) >= self.max_depth:
                return
            for op in coarse_relaxations(base):
                if self.op_filter is not None and not self.op_filter(op):
                    continue
                try:
                    child = op.apply(base)
                    child.validate()
                except (RewritingError, MalformedQueryError):
                    continue
                sig = child.signature()
                if sig in seen:
                    continue
                seen.add(sig)
                generated += 1
                mods = base_mods + (op,)
                ctx = CandidateContext(
                    original=query,
                    query=child,
                    modifications=mods,
                    parent_estimate=base_estimate,
                    statistics=self.statistics,
                )
                estimate = self.statistics.estimate_query_cardinality(child)
                priority = self.priority_fn(ctx)
                bucket = 0
                if self.preference_model is not None:
                    bucket = self.preference_model.penalty_bucket(mods)
                heapq.heappush(
                    heap,
                    _QueueEntry(
                        (bucket, -priority, next(counter)), child, mods, estimate
                    ),
                )

        push_children(query, (), original_estimate)

        def record_point() -> None:
            convergence.append(
                ConvergencePoint(
                    evaluations=budget.spent,
                    elapsed=time.perf_counter() - start,
                    found=len(found),
                    best_syntactic=min((f.syntactic for f in found), default=None),
                )
            )

        # Budgeted batch drain: pop the `batch_size` most promising open
        # candidates, evaluate them as one batch through the shared
        # evaluator, then fold the results back in priority order.  The
        # batch is truncated to the remaining budget, so the budget is a
        # hard bound exactly as in the sequential formulation.
        while heap and len(found) < k:
            if budget.exhausted:
                budget_exhausted = True
                break
            queue_peak = max(queue_peak, len(heap))
            entries: List[_QueueEntry] = []
            while heap and len(entries) < self.batch_size:
                entries.append(heapq.heappop(heap))
            results = evaluator.evaluate([e.query for e in entries])
            if len(results) < len(entries):
                # candidates past the budget: return them to the queue so
                # the reported queue state stays meaningful
                for entry in entries[len(results):]:
                    heapq.heappush(heap, entry)
                budget_exhausted = True
            for entry, result in zip(entries, results):
                if result.cardinality > 0:
                    if len(found) < k:
                        found.append(
                            RewrittenQuery(
                                query=entry.query,
                                cardinality=result.cardinality,
                                syntactic=syntactic_distance(query, entry.query),
                                modifications=entry.modifications,
                                estimate=entry.estimate,
                            )
                        )
                        record_point()
                    continue
                push_children(entry.query, entry.modifications, entry.estimate)
            if budget_exhausted:
                break
            # sample the convergence curve roughly every 10 evaluations
            if budget.spent % 10 < len(results):
                record_point()

        discovered = list(found)
        found.sort(key=lambda f: (f.syntactic, -f.cardinality))
        record_point()
        return CoarseRewriteResult(
            explanations=found,
            evaluated=budget.spent,
            generated=generated,
            queue_peak=queue_peak,
            elapsed=time.perf_counter() - start,
            budget_exhausted=budget_exhausted,
            convergence=convergence,
            discovered=discovered,
        )
