"""Backtracking pattern matcher for property graphs.

Pattern-matching queries return the data subgraphs matching the query graph
(Sec. 3.1.2).  The matcher performs classic backtracking subgraph
isomorphism with:

* candidate pre-filtering from graph indexes,
* connected, selectivity-ordered evaluation plans (:mod:`repro.matching.plan`),
* direction sets (forward / backward / both, Sec. 3.2.2),
* edge type sets and predicate intervals on vertices and edges,
* injective vertex and edge bindings by default (isomorphism semantics;
  homomorphisms are available via ``injective=False``),
* bounded evaluation: ``limit`` stops after N matches, which the bounded
  explanation algorithms (Ch. 4) and the rewriting engines (Ch. 5-6) use to
  test cardinality thresholds without full enumeration.

The matcher also counts how many match calls it has served (``calls``) and
how many backtracking steps were taken (``steps``); all evaluation-budget
experiments report these counters.  Each call lowers its plan once into
flat per-step tuples and backtracks over them with one recursive
visitor: ``count``/``exists`` only bump a counter per match, ``match``
builds the result graphs.  Expansion walks the graph's
type-partitioned adjacency, so a query edge with a type set only ever
visits data edges of those types; :meth:`PatternMatcher.cache_info`
reports the shared plan/candidate cache counters next to them.
"""

from __future__ import annotations

import os
from typing import AbstractSet, Any, Callable, Dict, List, Optional, Sequence, Set

from repro.core.graph import PropertyGraph
from repro.core.query import Direction, GraphQuery
from repro.core.result import ResultGraph, ResultSet
from repro.matching.candidates import vertex_matches
from repro.matching.csr import csr_stats
from repro.matching.evalcache import (
    EvaluationCache,
    shared_evaluation_cache,
)
from repro.matching.plan import (
    PlanStep,
    SeedStep,
    build_plan,
    plan_cache_stats,
)
from repro.matching.program import (
    MatchProgram,
    ProgramUnsupported,
    compiled_program,
)
from repro.obs.tracing import SPAN_MATCH, SPAN_PLAN, current_tracer
from repro.stats import (
    csr_section,
    deltas_section,
    programs_section,
    unified_stats,
)


def _compiled_default() -> bool:
    """Opt-in default for the compiled backend (the CI matrix leg sets
    ``REPRO_COMPILED_MATCH=1`` to run the whole suite through it)."""
    return os.environ.get("REPRO_COMPILED_MATCH", "0") not in ("", "0")


def _lower_predicates(predicates: Dict[str, Any]) -> Optional[tuple]:
    """A predicate map as ``((attr, pred.matches), ...)``, ``None`` when
    empty: the visitor tests it inline with the semantics of
    :func:`~repro.matching.candidates.attributes_match` (an absent
    attribute fails)."""
    if not predicates:
        return None
    return tuple((attr, pred.matches) for attr, pred in predicates.items())


class PatternMatcher:
    """Evaluates :class:`~repro.core.query.GraphQuery` patterns on a graph.

    One matcher instance is bound to one data graph; it is stateless
    between calls apart from its instrumentation counters.  Matchers bound
    to the same graph share one evaluation cache (candidate sets) and one
    plan cache by default, so independently constructed engines reuse each
    other's derivations; pass ``evalcache`` to isolate a matcher.

    ``compiled=True`` routes ``match``/``count``/``exists`` through the
    compiled backend: plans are lowered once per ``(graph version, query
    signature, edge_order, injective)`` into flat kernels over interned
    CSR arrays (:mod:`repro.matching.program`), visiting exactly the
    candidates the interpreter visits -- ``steps`` totals are identical
    on unbounded evaluations.  ``compiled=None`` (the default) follows
    the ``REPRO_COMPILED_MATCH`` environment switch.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        injective: bool = True,
        evalcache: Optional[EvaluationCache] = None,
        compiled: Optional[bool] = None,
    ) -> None:
        self.graph = graph
        self.injective = injective
        self.evalcache = (
            evalcache if evalcache is not None else shared_evaluation_cache(graph)
        )
        if compiled is None:
            compiled = _compiled_default()
        self.compiled = bool(compiled)
        #: number of match/count/exists invocations served
        self.calls = 0
        #: cumulative number of binding attempts (search effort)
        self.steps = 0

    def cache_info(self) -> Dict[str, Any]:
        """Cache and compilation counters in the unified stats schema.

        Emits the :mod:`repro.stats` sections (``caches`` holds the
        ``plan`` and ``vertex_candidates`` layers, ``csr``/``programs``
        the compilation counters -- zeros until a compiled run).
        """
        flat = csr_stats(self.graph)
        return unified_stats(
            caches={
                "plan": plan_cache_stats(self.graph).as_dict(),
                "vertex_candidates": self.evalcache.stats.as_dict(),
            },
            csr=csr_section(flat),
            programs=programs_section(flat),
            deltas=deltas_section(applied=flat.get("deltas_applied", 0)),
            extra={"matcher": {"calls": self.calls, "steps": self.steps}},
        )

    # -- compiled routing -------------------------------------------------------

    def _compiled_program(
        self, query: GraphQuery, edge_order: Optional[Sequence[int]]
    ) -> Optional[MatchProgram]:
        """The query's compiled program, or ``None`` when this call must
        take the interpreter (compiled mode off, empty query, or a plan
        shape the lowering does not support)."""
        if not self.compiled:
            return None
        query.validate()
        if query.num_vertices == 0:
            # the interpreter path returns the same empty result instantly
            return None
        try:
            return compiled_program(
                self.graph,
                query,
                edge_order,
                injective=self.injective,
                evalcache=self.evalcache,
            )
        except ProgramUnsupported:
            return None

    # -- public API -----------------------------------------------------------

    def match(
        self,
        query: GraphQuery,
        limit: Optional[int] = None,
        edge_order: Optional[Sequence[int]] = None,
        seed_restrict: Optional[AbstractSet[int]] = None,
    ) -> ResultSet:
        """Enumerate matches (up to ``limit``) as a :class:`ResultSet`.

        ``seed_restrict`` confines the *first* seed step's candidate pool
        to the given data vertices.  Every match binds the plan's first
        seed to exactly one data vertex, so restricting that pool to the
        blocks of a vertex partition splits the match set into disjoint
        per-block result sets whose union is the unrestricted result --
        the decomposition :mod:`repro.shard` fans out per shard.
        """
        self.calls += 1
        tracer = current_tracer()
        with tracer.span(SPAN_MATCH, op="match") as span:
            results = ResultSet()
            if limit is not None and limit <= 0:
                return results
            before = self.steps
            program = self._compiled_program(query, edge_order)
            if program is not None:
                emitted, steps = program.run_match(self.graph, limit, seed_restrict)
                self.steps += steps
                for binding in emitted:
                    results.add(binding)
            else:
                add = results.add

                def emit(vbind: Dict[int, int], ebind: Dict[int, int]) -> bool:
                    add(ResultGraph.from_mappings(vbind, ebind))
                    return limit is not None and results.cardinality >= limit

                self._visit(query, edge_order, seed_restrict, None, emit)
            if tracer.enabled:
                span.attributes["steps"] = self.steps - before
                span.attributes["compiled"] = program is not None
            return results

    def count(
        self,
        query: GraphQuery,
        limit: Optional[int] = None,
        edge_order: Optional[Sequence[int]] = None,
        seed_restrict: Optional[AbstractSet[int]] = None,
    ) -> int:
        """Count matches, stopping early once ``limit`` is reached.

        Result cardinality (Definition 2) when ``limit`` is ``None``; a
        ``limit <= 0`` counts nothing and returns 0, like :meth:`match`.
        ``seed_restrict`` confines the first seed step (see :meth:`match`).
        """
        return self._count("count", query, limit, edge_order, seed_restrict)

    def exists(
        self,
        query: GraphQuery,
        edge_order: Optional[Sequence[int]] = None,
        seed_restrict: Optional[AbstractSet[int]] = None,
    ) -> bool:
        """``True`` when the pattern has at least one match."""
        return self._count("exists", query, 1, edge_order, seed_restrict) > 0

    def _count(
        self,
        op: str,
        query: GraphQuery,
        limit: Optional[int],
        edge_order: Optional[Sequence[int]],
        seed_restrict: Optional[AbstractSet[int]],
    ) -> int:
        """The bounded count behind ``count`` and ``exists`` (``op``
        names the call in its ``SPAN_MATCH`` span)."""
        self.calls += 1
        tracer = current_tracer()
        with tracer.span(SPAN_MATCH, op=op) as span:
            if limit is not None and limit <= 0:
                return 0
            before = self.steps
            program = self._compiled_program(query, edge_order)
            if program is not None:
                n, steps = program.run_count(self.graph, limit, seed_restrict)
                self.steps += steps
            else:
                n = self._visit(query, edge_order, seed_restrict, limit, None)
            if tracer.enabled:
                span.attributes["steps"] = self.steps - before
                span.attributes["compiled"] = program is not None
            return n

    # -- search core -----------------------------------------------------------

    def _lower(self, query: GraphQuery, plan: List[PlanStep]) -> List[tuple]:
        """One flat tuple per plan step, so the visitor's candidate loop
        reads locals instead of re-deriving directions and type lists.

        * seed: ``(True, qvid, query vertex)``;
        * expand: ``(False, anchor qvid, walks, edge predicates | None,
          new qvid | None, new vertex's predicates | None, closing-edge
          endpoint qvid, qeid)``.  ``walks`` lists the adjacency lists
          to visit in order as ``(accessor, type | None, incoming,
          skip self-loops)``: with the anchor bound to the query edge's
          *source*, FORWARD walks its outgoing edges and BACKWARD its
          incoming ones (roles swap at the *target*); a typed edge walks
          only the type-partitioned lists of its types, sorted so the
          order does not follow ``PYTHONHASHSEED`` (``steps`` counters
          are reproducible records).  An incoming walk after an
          outgoing one skips self-loops, which the out walk already
          visited.
        """
        graph = self.graph
        lowered: List[tuple] = []
        for step in plan:
            if isinstance(step, SeedStep):
                lowered.append((True, step.vid, query.vertex(step.vid)))
                continue
            qedge = query.edge(step.eid)
            directions = qedge.directions
            anchor_is_source = step.anchor == qedge.source
            want_out = (anchor_is_source and Direction.FORWARD in directions) or (
                not anchor_is_source and Direction.BACKWARD in directions
            )
            want_in = (anchor_is_source and Direction.BACKWARD in directions) or (
                not anchor_is_source and Direction.FORWARD in directions
            )
            types = (None,) if qedge.types is None else tuple(sorted(qedge.types))
            walks: List[tuple] = []
            if want_out:
                out = graph.out_edges if qedge.types is None else graph.out_edges_of_type
                walks.extend((out, t, False, False) for t in types)
            if want_in:
                in_ = graph.in_edges if qedge.types is None else graph.in_edges_of_type
                walks.extend((in_, t, True, want_out) for t in types)
            new_preds = None
            if step.new_vid is not None:
                new_preds = _lower_predicates(query.vertex(step.new_vid).predicates)
            lowered.append(
                (
                    False,
                    step.anchor,
                    tuple(walks),
                    _lower_predicates(qedge.predicates),
                    step.new_vid,
                    new_preds,
                    qedge.other_end(step.anchor),
                    step.eid,
                )
            )
        return lowered

    def _visit(
        self,
        query: GraphQuery,
        edge_order: Optional[Sequence[int]],
        seed_restrict: Optional[AbstractSet[int]],
        limit: Optional[int],
        emit: Optional[Callable[[Dict[int, int], Dict[int, int]], bool]],
    ) -> int:
        """Backtrack over the lowered plan; returns the matches counted.

        With ``emit`` ``None`` every complete binding bumps the count and
        the search stops once it reaches ``limit`` (a positive int or
        ``None``); otherwise ``emit(vbind, ebind)`` receives each
        complete binding and stops the search by returning ``True``.
        Adjacency lists are fetched one walk at a time, only when the
        search reaches them, so a partial graph raises ``ShardMiss``
        exactly where the walk needs data it does not hold.
        """
        query.validate()
        if query.num_vertices == 0:
            return 0
        with current_tracer().span(SPAN_PLAN):
            plan = build_plan(self.graph, query, edge_order)
        lowered = self._lower(query, plan)
        last = len(lowered)
        graph = self.graph
        edge = graph.edge
        vertex_attributes = graph.vertex_attributes
        vertex_candidates = self.evalcache.vertex_candidates
        injective = self.injective
        vbind: Dict[int, int] = {}
        ebind: Dict[int, int] = {}
        used_vertices: Set[int] = set()
        used_edges: Set[int] = set()
        steps = found = 0

        def visit(depth: int) -> bool:
            nonlocal steps, found
            if depth == last:
                return emit(vbind, ebind)
            step = lowered[depth]
            # a counted match needs no bindings: the last step counts its
            # surviving candidates in place (so only ``match`` ever
            # reaches ``depth == last``)
            count_leaf = emit is None and depth + 1 == last
            if step[0]:
                _, qvid, qvertex = step
                candidates = vertex_candidates(qvertex)
                # only the plan's *first* seed is partition-restricted:
                # later seeds (disconnected components) must stay
                # exhaustive or the per-shard union would drop
                # cross-shard combinations
                restrict = seed_restrict if depth == 0 else None
                if candidates is not None:
                    # pre-intersect so the walk never visits foreign shards
                    pool = candidates if restrict is None else candidates & restrict
                elif restrict is not None:
                    # unconstrained vertex: the restriction *is* the pool
                    pool = restrict
                else:
                    pool = graph.vertices()
                for data_vid in pool:
                    steps += 1
                    if injective and data_vid in used_vertices:
                        continue
                    # candidates are pre-filtered; other pools are not
                    if candidates is None and not vertex_matches(
                        graph, data_vid, qvertex
                    ):
                        continue
                    if count_leaf:
                        found += 1
                        if found == limit:
                            return True
                        continue
                    vbind[qvid] = data_vid
                    used_vertices.add(data_vid)
                    if visit(depth + 1):
                        return True
                    used_vertices.discard(data_vid)
                    del vbind[qvid]
                return False

            _, anchor, walks, edge_preds, new_vid, new_preds, other, qeid = step
            anchor_data = vbind[anchor]
            # a closing edge must end at the already-bound other endpoint
            bound_other = vbind[other] if new_vid is None else None
            for adjacency, etype, incoming, skip_self_loops in walks:
                eids = (
                    adjacency(anchor_data)
                    if etype is None
                    else adjacency(anchor_data, etype)
                )
                for data_eid in eids:
                    record = edge(data_eid)
                    if incoming:
                        data_other = record.source
                        if skip_self_loops and data_other == record.target:
                            continue
                    else:
                        data_other = record.target
                    steps += 1
                    if injective and data_eid in used_edges:
                        continue
                    if edge_preds is not None:
                        # the typed walk already filtered edge types, so
                        # only the edge predicates remain; ``attrs`` ends
                        # ``None`` when every predicate held
                        attrs = record.attributes
                        for attr, matches in edge_preds:
                            if attr not in attrs or not matches(attrs[attr]):
                                break
                        else:
                            attrs = None
                        if attrs is not None:
                            continue
                    if new_vid is None:
                        if data_other != bound_other:
                            continue
                        if count_leaf:
                            found += 1
                            if found == limit:
                                return True
                            continue
                        ebind[qeid] = data_eid
                        used_edges.add(data_eid)
                        if visit(depth + 1):
                            return True
                        used_edges.discard(data_eid)
                        del ebind[qeid]
                        continue
                    if injective and data_other in used_vertices:
                        continue
                    if new_preds is not None:
                        attrs = vertex_attributes(data_other)
                        for attr, matches in new_preds:
                            if attr not in attrs or not matches(attrs[attr]):
                                break
                        else:
                            attrs = None
                        if attrs is not None:
                            continue
                    if count_leaf:
                        found += 1
                        if found == limit:
                            return True
                        continue
                    vbind[new_vid] = data_other
                    ebind[qeid] = data_eid
                    used_vertices.add(data_other)
                    used_edges.add(data_eid)
                    if visit(depth + 1):
                        return True
                    used_edges.discard(data_eid)
                    used_vertices.discard(data_other)
                    del ebind[qeid]
                    del vbind[new_vid]
            return False

        try:
            visit(0)
        finally:
            self.steps += steps
        return found
