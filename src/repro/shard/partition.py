"""Vertex-range graph partitioning: shards and the boundary index.

Shard-affine placement (:class:`~repro.shard.ProcessExecutor` with
``shards > 1``) splits the vertex set into ranges, ships each range to
the worker that owns it, and lets every worker count the matches whose
first seed binds inside its range.  This module is the coordinator-side
partition map that design plans with:

* :class:`GraphShard` -- one vertex-range block: the owned vertex ids
  (the block's seed pool) and their attribute maps;
* :class:`ShardedGraph` -- the partition snapshot: the shards, vertex
  routing (:meth:`ShardedGraph.shard_of`), the edge records in the
  source's insertion order and the cross-shard **boundary-edge index**
  (``(source_shard, target_shard) -> edge ids``).  It is what
  :func:`repro.core.serialize.shards_to_wire` cuts the per-worker
  payloads from and what :func:`repro.core.serialize.route_deltas`
  routes catch-up records with;
* :class:`GraphPartitioner` -- splits a graph into ``num_shards``
  contiguous vertex-range shards balanced by vertex count.

Snapshot semantics: a :class:`ShardedGraph` is an immutable snapshot of
the source graph at partition time (it records the source's mutation
``version``).  Re-partition after adding vertices to the source.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.errors import UnknownVertexError
from repro.core.graph import EdgeRecord, PropertyGraph

__all__ = ["GraphPartitioner", "GraphShard", "ShardedGraph"]


class GraphShard:
    """One contiguous vertex-range block of a partitioned graph.

    Holds the owned vertex ids and their attribute maps (shared with the
    source graph -- a zero-copy snapshot; treat them as read-only) and
    the number of edges *sourced* at an owned vertex.
    """

    def __init__(self, index: int, vids: Sequence[int]) -> None:
        self.index = index
        #: owned vertex ids, ascending
        self.vids: Tuple[int, ...] = tuple(vids)
        self._vid_set: FrozenSet[int] = frozenset(vids)
        self._attributes: Dict[int, Mapping[str, Any]] = {}
        #: edges sourced at an owned vertex
        self.num_edges = 0

    def owns(self, vid: int) -> bool:
        return vid in self._vid_set

    @property
    def vertex_ids(self) -> FrozenSet[int]:
        """Owned vertex ids (the shard's seed pool)."""
        return self._vid_set

    @property
    def num_vertices(self) -> int:
        return len(self.vids)

    def vertex_attributes(self, vid: int) -> Mapping[str, Any]:
        try:
            return self._attributes[vid]
        except KeyError:
            raise UnknownVertexError(vid) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphShard(index={self.index}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges})"
        )


class ShardedGraph:
    """Partition snapshot of one property graph (built by
    :class:`GraphPartitioner`).

    Shards are ordered by ascending vertex range; :meth:`shard_of`
    routes a vertex id to its owner by binary search.  The snapshot is
    pinned at the source graph's partition-time :attr:`version`.
    """

    def __init__(
        self,
        shards: Sequence[GraphShard],
        edges: Dict[int, EdgeRecord],
        version: int,
        boundary: Dict[Tuple[int, int], Tuple[int, ...]],
        source: Optional[PropertyGraph] = None,
    ) -> None:
        self._shards: Tuple[GraphShard, ...] = tuple(shards)
        self._edges = edges
        self._version = version
        self._boundary = boundary
        #: weak link to the partitioned graph: catch-up routing resolves
        #: records newer than this snapshot against the live source
        self._source_ref = (
            weakref.ref(source) if source is not None else lambda: None
        )
        #: ascending upper bounds of the non-empty shards (for routing;
        #: empty shards own no vid and never resolve)
        routed = [shard for shard in self._shards if shard.vids]
        self._route_highs: List[int] = [shard.vids[-1] for shard in routed]
        self._route_shards: List[GraphShard] = routed

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> Tuple[GraphShard, ...]:
        return self._shards

    @property
    def version(self) -> int:
        """Source graph's mutation counter at partition time."""
        return self._version

    @property
    def source(self) -> Optional[PropertyGraph]:
        """The partitioned source graph, if still alive (weakly held)."""
        return self._source_ref()

    def shard_of(self, vid: int) -> GraphShard:
        """The shard owning ``vid`` (vertex-range routing, O(log S))."""
        pos = bisect_left(self._route_highs, vid)
        if pos < len(self._route_shards) and self._route_shards[pos].owns(vid):
            return self._route_shards[pos]
        raise UnknownVertexError(vid)

    def vertex_attributes(self, vid: int) -> Mapping[str, Any]:
        return self.shard_of(vid).vertex_attributes(vid)

    def edges(self) -> Iterator[EdgeRecord]:
        """Every edge record, in the source graph's insertion order."""
        return iter(self._edges.values())

    def boundary_edges(self) -> FrozenSet[int]:
        """All edges whose endpoints live in two different shards."""
        out: Set[int] = set()
        for eids in self._boundary.values():
            out.update(eids)
        return frozenset(out)

    def boundary_rows(self, shard_index: int) -> Dict[Tuple[int, int], Tuple[int, ...]]:
        """The boundary-index rows *relevant to* one shard.

        The projection of the global ``(source_shard, target_shard) ->
        edge ids`` index onto the rows where ``shard_index`` is either
        side -- exactly the rows a shard-affine worker needs to resolve
        its own cross-shard edges, and the only ones
        :func:`repro.core.serialize.shard_to_wire` ships.
        """
        return {
            key: eids
            for key, eids in self._boundary.items()
            if shard_index in key
        }

    def partition_stats(self) -> Dict[str, object]:
        """Balance / boundary summary (service + benchmark reporting)."""
        boundary = self.boundary_edges()
        return {
            "num_shards": self.num_shards,
            "vertices_per_shard": [s.num_vertices for s in self._shards],
            "edges_per_shard": [s.num_edges for s in self._shards],
            "boundary_edges": len(boundary),
            "boundary_fraction": (
                len(boundary) / len(self._edges) if self._edges else 0.0
            ),
            "version": self._version,
        }

    def __repr__(self) -> str:
        return (
            f"ShardedGraph(shards={self.num_shards}, |E|={len(self._edges)}, "
            f"boundary={len(self.boundary_edges())})"
        )


class GraphPartitioner:
    """Splits a property graph into balanced vertex-range shards.

    ``num_shards`` contiguous ranges over the ascending vertex-id order,
    balanced by vertex count (sizes differ by at most one).  Contiguity
    keeps shard routing a binary search.

    >>> sharded = GraphPartitioner(4).partition(graph)
    >>> sharded.num_shards
    4
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards

    def partition(self, graph: PropertyGraph) -> ShardedGraph:
        """Build the sharded snapshot of ``graph``."""
        vids = sorted(graph.vertices())
        shards = [
            GraphShard(index, block)
            for index, block in enumerate(self._blocks(vids))
        ]
        owner: Dict[int, GraphShard] = {}
        for shard in shards:
            for vid in shard.vids:
                owner[vid] = shard
                shard._attributes[vid] = graph.vertex_attributes(vid)

        edges: Dict[int, EdgeRecord] = {}
        boundary: Dict[Tuple[int, int], List[int]] = {}
        for record in graph.edges():
            edges[record.eid] = record
            source_shard = owner[record.source]
            target_shard = owner[record.target]
            source_shard.num_edges += 1
            if source_shard is not target_shard:
                key = (source_shard.index, target_shard.index)
                boundary.setdefault(key, []).append(record.eid)
        return ShardedGraph(
            shards,
            edges,
            graph.version,
            {key: tuple(eids) for key, eids in boundary.items()},
            source=graph,
        )

    def _blocks(self, vids: List[int]) -> Iterator[List[int]]:
        """Split ``vids`` into ``num_shards`` near-equal contiguous blocks."""
        base, extra = divmod(len(vids), self.num_shards)
        start = 0
        for index in range(self.num_shards):
            size = base + (1 if index < extra else 0)
            yield vids[start : start + size]
            start += size
