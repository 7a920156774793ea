"""Query-dependent statistics and cardinality estimation (Sec. 5.2).

The coarse-grained rewriter must predict which relaxation is most likely
to produce a non-empty result *without* executing every candidate.  The
thesis computes query-dependent statistics on three granularities:

* **vertices / edges** (Sec. 5.2.2): how many data elements satisfy one
  query element's own constraints, exactly, via the graph indexes;
* **path(1)** (Sec. 5.2.3): how many data edges satisfy a query edge
  *together with* both endpoint constraints -- the cardinality of the
  one-hop pattern;
* **path(n)**: estimated by chaining path(1) statistics under the classic
  attribute-independence assumption: joining two sub-paths at a shared
  vertex divides the product of their cardinalities by the number of data
  vertices admissible at the join vertex.

Exact per-element statistics are cached by predicate signature, so
repeated candidate scoring touches the graph only once per distinct
constraint.  Vertex candidate sets come from the per-graph shared
:class:`~repro.matching.evalcache.EvaluationCache`, so the statistics
provider and the matcher never derive the same candidate set twice.
path(1) probes those shared sets: one pass over the query edge's typed
edge-id index settles both endpoints of each record by set membership
and evaluates only the edge predicates.  The candidate sets follow
mutations by delta patches, so the counts stay exact without
re-testing vertex attributes.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Hashable, Iterable, List, Optional

from repro.core.graph import PropertyGraph
from repro.core.query import Direction, GraphQuery, QueryEdge, QueryVertex
from repro.matching.candidates import attributes_match
from repro.matching.evalcache import EvaluationCache, shared_evaluation_cache


class GraphStatistics:
    """Statistics provider bound to one data graph."""

    def __init__(
        self,
        graph: PropertyGraph,
        evalcache: Optional[EvaluationCache] = None,
    ) -> None:
        self.graph = graph
        self.evalcache = (
            evalcache if evalcache is not None else shared_evaluation_cache(graph)
        )
        self._version = graph.version
        self._edge_cache: Dict[Hashable, int] = {}
        self._path1_cache: Dict[Hashable, int] = {}

    def _validate(self) -> None:
        """Drop stale statistics when the graph has been mutated."""
        if self.graph.version != self._version:
            self._edge_cache.clear()
            self._path1_cache.clear()
            self._version = self.graph.version

    # -- vertex / edge statistics (Sec. 5.2.2) -------------------------------

    def vertex_cardinality(self, qvertex: QueryVertex) -> int:
        """Exact number of data vertices satisfying the vertex predicates."""
        candidates = self.evalcache.vertex_candidates(qvertex)
        return self.graph.num_vertices if candidates is None else len(candidates)

    def edge_cardinality(self, qedge: QueryEdge) -> int:
        """Exact number of data edges satisfying type set and predicates.

        Endpoint constraints are ignored here; they belong to path(1).
        """
        self._validate()
        key = (
            tuple(sorted(qedge.types)) if qedge.types is not None else None,
            tuple(sorted((a, p.signature()) for a, p in qedge.predicates.items())),
        )
        cached = self._edge_cache.get(key)
        if cached is not None:
            return cached
        if not qedge.predicates:
            # pure type constraint: O(1) per-type counts, no edge scan
            if qedge.types is None:
                count = self.graph.num_edges
            else:
                count = sum(self.graph.num_edges_of_type(t) for t in qedge.types)
        else:
            edge = self.graph.edge
            count = sum(
                1
                for eid in self._edge_ids(qedge.types)
                if attributes_match(edge(eid).attributes, qedge.predicates)
            )
        self._edge_cache[key] = count
        return count

    # -- path statistics (Sec. 5.2.3) -------------------------------------------

    def path1_cardinality(self, query: GraphQuery, eid: int) -> int:
        """Exact cardinality of the one-hop pattern around query edge ``eid``.

        Counts data edges satisfying the edge constraints whose endpoints
        satisfy the source/target vertex predicates in at least one
        admitted orientation.
        """
        self._validate()
        qedge = query.edge(eid)
        source = query.vertex(qedge.source)
        target = query.vertex(qedge.target)
        key = (
            tuple(sorted(qedge.types)) if qedge.types is not None else None,
            tuple(sorted((a, p.signature()) for a, p in qedge.predicates.items())),
            source.signature()[1],
            target.signature()[1],
            tuple(sorted(d.value for d in qedge.directions)),
        )
        cached = self._path1_cache.get(key)
        if cached is None:
            cached = self._path1_cache[key] = self._count_path1(qedge, source, target)
        return cached

    def _count_path1(
        self, qedge: QueryEdge, source: QueryVertex, target: QueryVertex
    ) -> int:
        """One pass over the query edge's typed edge ids: two
        candidate-set probes per admitted orientation settle the
        endpoints (an unconstrained endpoint's set is ``None``), then
        the edge predicates are evaluated on the records that hit."""
        sources = self.evalcache.vertex_candidates(source)
        targets = self.evalcache.vertex_candidates(target)
        forward = Direction.FORWARD in qedge.directions
        backward = Direction.BACKWARD in qedge.directions
        predicates = qedge.predicates
        count = 0
        for record in map(self.graph.edge, self._edge_ids(qedge.types)):
            s, t = record.source, record.target
            if (
                forward
                and (sources is None or s in sources)
                and (targets is None or t in targets)
            ) or (
                backward
                and (sources is None or t in sources)
                and (targets is None or s in targets)
            ):
                if not predicates or attributes_match(record.attributes, predicates):
                    count += 1
        return count

    def average_path1_cardinality(self, query: GraphQuery) -> float:
        """Mean path(1) cardinality over all query edges (Sec. 5.5.3)."""
        eids = sorted(query.edge_ids)
        if not eids:
            vertices = list(query.vertices())
            if not vertices:
                return 0.0
            return sum(self.vertex_cardinality(v) for v in vertices) / len(vertices)
        return sum(self.path1_cardinality(query, eid) for eid in eids) / len(eids)

    def estimate_path_cardinality(self, query: GraphQuery, eids: List[int]) -> float:
        """Path(n) estimate for a chain of query edges (Sec. 5.2.3).

        ``est(e1..en) = path1(e1) * prod_i path1(ei) / |V(join_i)|`` where
        ``join_i`` is the query vertex shared between consecutive edges.
        """
        if not eids:
            return 0.0
        estimate = float(self.path1_cardinality(query, eids[0]))
        for prev_eid, eid in zip(eids, eids[1:]):
            shared = self._shared_vertex(query, prev_eid, eid)
            join_card = max(1, self.vertex_cardinality(query.vertex(shared)))
            estimate *= self.path1_cardinality(query, eid) / join_card
        return estimate

    def estimate_query_cardinality(self, query: GraphQuery) -> float:
        """Independence-based cardinality estimate of a whole query.

        Uses a spanning forest of the query: multiply path(1)
        cardinalities of tree edges, divide by the vertex cardinality of
        every join vertex occurrence, then apply the selectivity of each
        remaining non-tree edge (``path1 / (|Vs| * |Vt|)``).  Isolated
        vertices multiply their own vertex cardinality.
        """
        if query.num_vertices == 0:
            return 0.0
        estimate = 1.0
        visited: set = set()
        for component in query.weakly_connected_components():
            estimate *= self._estimate_component(query, component)
            visited |= component
        return estimate

    def _estimate_component(self, query: GraphQuery, vertices) -> float:
        in_tree: set = set()
        tree_edges: List[int] = []
        non_tree: List[int] = []
        edges = [eid for eid in query.edge_ids if query.edge(eid).source in vertices]
        path1 = {eid: self.path1_cardinality(query, eid) for eid in edges}
        edges.sort(key=lambda eid: -path1[eid])
        # Greedy spanning tree preferring high-cardinality edges first so
        # the most significant joins anchor the estimate.
        root = min(vertices)
        in_tree.add(root)
        remaining = [eid for eid in edges]
        progress = True
        while progress:
            progress = False
            for eid in list(remaining):
                edge = query.edge(eid)
                s_in, t_in = edge.source in in_tree, edge.target in in_tree
                if s_in and t_in:
                    non_tree.append(eid)
                    remaining.remove(eid)
                elif s_in or t_in:
                    tree_edges.append(eid)
                    in_tree.add(edge.source)
                    in_tree.add(edge.target)
                    remaining.remove(eid)
                    progress = True
        non_tree.extend(remaining)

        if not tree_edges:
            vertex = query.vertex(next(iter(vertices)))
            return float(self.vertex_cardinality(vertex))

        estimate = 1.0
        joined: set = set()
        for eid in tree_edges:
            edge = query.edge(eid)
            if not joined:
                estimate = float(path1[eid])
                joined |= {edge.source, edge.target}
                continue
            shared = edge.source if edge.source in joined else edge.target
            join_card = max(1, self.vertex_cardinality(query.vertex(shared)))
            estimate *= path1[eid] / join_card
            joined |= {edge.source, edge.target}
        for eid in non_tree:
            edge = query.edge(eid)
            denom = max(
                1,
                self.vertex_cardinality(query.vertex(edge.source))
                * self.vertex_cardinality(query.vertex(edge.target)),
            )
            estimate *= path1[eid] / denom
        # Isolated vertices of this component (no edges at all).
        for vid in vertices - in_tree:
            estimate *= self.vertex_cardinality(query.vertex(vid))
        return estimate

    # -- helpers -----------------------------------------------------------------

    def _edge_ids(self, types) -> Iterable[int]:
        """Edge ids of the given types (every edge when untyped)."""
        if types is None:
            return self.graph.edge_ids()
        return chain.from_iterable(self.graph.edges_of_type(t) for t in types)

    @staticmethod
    def _shared_vertex(query: GraphQuery, eid_a: int, eid_b: int) -> int:
        a, b = query.edge(eid_a), query.edge(eid_b)
        shared = set(a.endpoints()) & set(b.endpoints())
        if not shared:
            raise ValueError(f"edges {eid_a} and {eid_b} share no vertex")
        return min(shared)

    @property
    def cache_sizes(self) -> Dict[str, int]:
        """Sizes of the statistic caches (Appendix B.2 reporting).

        ``vertex`` reports the shared evaluation cache (candidate sets by
        predicate signature), which this provider populates and reads.
        """
        return {
            "vertex": len(self.evalcache),
            "edge": len(self._edge_cache),
            "path1": len(self._path1_cache),
        }
