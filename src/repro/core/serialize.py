"""JSON-friendly (de)serialisation of graphs, queries and results.

A downstream system needs to persist failed queries, ship explanations to
a frontend, or check query variants into version control.  This module
maps the core model onto plain dicts/lists (JSON-compatible when the
attribute values are) and back, losslessly:

* :func:`graph_to_dict` / :func:`graph_from_dict`
* :func:`query_to_dict` / :func:`query_from_dict`
* :func:`result_set_to_dict` / :func:`result_set_from_dict`

Numeric predicate bounds serialise infinities as the strings ``"inf"`` /
``"-inf"`` so the output stays valid JSON.

Snapshot exactness
------------------

Graph snapshots round-trip *evaluation-visible* state exactly, which is
what the :mod:`repro.shard` worker processes rely on when they rebuild a
long-lived :class:`~repro.exec.context.ExecutionContext` from a shipped
snapshot:

* elements are emitted in **insertion order** (format 2), so the rebuilt
  typed-adjacency lists -- and therefore the matcher's deterministic
  enumeration order and ``steps`` counters -- are identical to the
  source graph's even when explicit ids were assigned out of order;
* the mutation :attr:`~repro.core.graph.PropertyGraph.version` is
  carried in the payload and restored on rebuild, so version-keyed
  caches and the coordinator's staleness checks agree across processes.

Wire forms
----------

:func:`query_to_wire` / :func:`query_from_wire` are the compact, *
hashable* siblings of the dict forms: nested tuples that pickle small
and double as cache keys.  The :class:`~repro.shard.ProcessExecutor`
ships every candidate query to its workers as a wire form, and each
worker memoises deserialisation by that same tuple.

:func:`shard_to_wire` / :func:`shard_from_wire` are the **per-shard**
payloads of shard-affine worker placement: one shard's owned vertex
range, its insertion-ordered incident edge records, the halo (remote
endpoints of boundary edges, attributes only) and the projected rows of
the boundary-edge index -- everything one affine worker holds, and
nothing else.  See the :mod:`repro.shard` module docstring for the
format contract.

:func:`delta_to_wire` / :func:`delta_from_wire` are the companion
payloads of the mutation delta log (:mod:`repro.core.graph`): a
contiguous version run of compact delta records, shipped to warm
workers instead of a full shard re-warm.  :func:`route_deltas` projects
a graph-level run onto the shards it touches -- an edge goes to the
shard(s) owning its endpoints, a cross-shard edge additionally ships
``("hv", vid, attrs)`` halo records for the remote endpoint and
``("be", src_shard, tgt_shard, eid)`` boundary-index rows, and an
attribute write fans out to the owner plus every shard holding the
vertex as a halo member.  Vertex adds are **not** routable (they can
move the partition map) -- the coordinator re-partitions instead.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping, Tuple

from repro.core.errors import MalformedQueryError
from repro.core.graph import PropertyGraph
from repro.core.predicates import Interval, Predicate, ValueSet
from repro.core.query import Direction, GraphQuery
from repro.core.result import ResultGraph, ResultSet

#: Format 2 emits vertices/edges in insertion order and carries the
#: graph mutation version; format-1 payloads (sorted by id, no version)
#: are still readable.
FORMAT_VERSION = 2


# -- predicates -----------------------------------------------------------------


def predicate_to_dict(pred: Predicate) -> Dict[str, Any]:
    if isinstance(pred, ValueSet):
        return {"kind": "values", "values": sorted(pred.values, key=repr)}
    if isinstance(pred, Interval):
        return {
            "kind": "interval",
            "low": _bound_out(pred.low),
            "high": _bound_out(pred.high),
            "low_open": pred.low_open,
            "high_open": pred.high_open,
            "integral": pred.integral,
        }
    raise TypeError(f"cannot serialise predicate type {type(pred).__name__}")


def predicate_from_dict(data: Mapping[str, Any]) -> Predicate:
    kind = data.get("kind")
    if kind == "values":
        return ValueSet(data["values"])
    if kind == "interval":
        return Interval(
            _bound_in(data["low"]),
            _bound_in(data["high"]),
            data.get("low_open", False),
            data.get("high_open", False),
            data.get("integral", True),
        )
    raise MalformedQueryError(f"unknown predicate kind {kind!r}")


def _bound_out(value: float) -> Any:
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return value


def _bound_in(value: Any) -> float:
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return value


# -- compact wire forms (hashable tuples, for cross-process shipping) -----------


def predicate_to_wire(pred: Predicate) -> Tuple:
    """Compact hashable form of a predicate (pickles small)."""
    if isinstance(pred, ValueSet):
        return ("v", tuple(sorted(pred.values, key=repr)))
    if isinstance(pred, Interval):
        return ("i", pred.low, pred.high, pred.low_open, pred.high_open, pred.integral)
    raise TypeError(f"cannot serialise predicate type {type(pred).__name__}")


def predicate_from_wire(wire: Tuple) -> Predicate:
    kind = wire[0]
    if kind == "v":
        return ValueSet(wire[1])
    if kind == "i":
        return Interval(wire[1], wire[2], wire[3], wire[4], wire[5])
    raise MalformedQueryError(f"unknown wire predicate kind {kind!r}")


def query_to_wire(query: GraphQuery) -> Tuple:
    """Compact hashable form of a query.

    The tuple is deterministic for a given query signature, so it doubles
    as the worker-side deserialisation cache key: a rewriting frontier
    re-evaluating the same variant ships the identical wire form and the
    worker rebuilds the :class:`~repro.core.query.GraphQuery` only once.
    """
    return (
        "q",
        FORMAT_VERSION,
        tuple(
            (
                v.vid,
                tuple(
                    (attr, predicate_to_wire(p))
                    for attr, p in sorted(v.predicates.items())
                ),
            )
            for v in sorted(query.vertices(), key=lambda v: v.vid)
        ),
        tuple(
            (
                e.eid,
                e.source,
                e.target,
                tuple(sorted(e.types)) if e.types is not None else None,
                tuple(sorted(d.value for d in e.directions)),
                tuple(
                    (attr, predicate_to_wire(p))
                    for attr, p in sorted(e.predicates.items())
                ),
            )
            for e in sorted(query.edges(), key=lambda e: e.eid)
        ),
    )


def query_from_wire(wire: Tuple) -> GraphQuery:
    """Inverse of :func:`query_to_wire`."""
    if not isinstance(wire, tuple) or len(wire) != 4 or wire[0] != "q":
        raise MalformedQueryError(f"not a wire-form query: {wire!r}")
    _, wire_format, vertices, edges = wire
    if not isinstance(wire_format, int) or wire_format > FORMAT_VERSION:
        # a newer coordinator's wire form must be rejected, never
        # misparsed with this format's assumptions
        raise MalformedQueryError(
            f"unsupported wire format {wire_format!r} (this side speaks "
            f"<= {FORMAT_VERSION})"
        )
    query = GraphQuery()
    try:
        for vid, preds in vertices:
            query.add_vertex(
                vid=vid,
                predicates={attr: predicate_from_wire(p) for attr, p in preds},
            )
        for eid, source, target, types, directions, preds in edges:
            query.add_edge(
                source,
                target,
                eid=eid,
                types=types,
                directions=frozenset(Direction(d) for d in directions),
                predicates={attr: predicate_from_wire(p) for attr, p in preds},
            )
    except (TypeError, ValueError) as exc:
        raise MalformedQueryError(f"malformed wire-form query: {exc}") from exc
    query.validate()
    return query


# -- queries ----------------------------------------------------------------------


def query_to_dict(query: GraphQuery) -> Dict[str, Any]:
    """Serialise a query; element identifiers are preserved."""
    return {
        "format": FORMAT_VERSION,
        "vertices": [
            {
                "id": v.vid,
                "predicates": {
                    attr: predicate_to_dict(p) for attr, p in sorted(v.predicates.items())
                },
            }
            for v in sorted(query.vertices(), key=lambda v: v.vid)
        ],
        "edges": [
            {
                "id": e.eid,
                "source": e.source,
                "target": e.target,
                "types": sorted(e.types) if e.types is not None else None,
                "directions": sorted(d.value for d in e.directions),
                "predicates": {
                    attr: predicate_to_dict(p) for attr, p in sorted(e.predicates.items())
                },
            }
            for e in sorted(query.edges(), key=lambda e: e.eid)
        ],
    }


def query_from_dict(data: Mapping[str, Any]) -> GraphQuery:
    """Inverse of :func:`query_to_dict`."""
    query = GraphQuery()
    for vertex in data.get("vertices", ()):
        query.add_vertex(
            vid=vertex["id"],
            predicates={
                attr: predicate_from_dict(p)
                for attr, p in vertex.get("predicates", {}).items()
            },
        )
    for edge in data.get("edges", ()):
        query.add_edge(
            edge["source"],
            edge["target"],
            eid=edge["id"],
            types=edge.get("types"),
            directions=frozenset(Direction(d) for d in edge["directions"]),
            predicates={
                attr: predicate_from_dict(p)
                for attr, p in edge.get("predicates", {}).items()
            },
        )
    query.validate()
    return query


# -- graphs ----------------------------------------------------------------------


def graph_to_dict(graph: PropertyGraph) -> Dict[str, Any]:
    """Serialise a property graph (attribute values must be JSON-able).

    Elements are emitted in **insertion order**, not id order: adjacency
    lists are append-ordered, so replaying the elements in any other
    order would rebuild a graph whose typed-adjacency enumeration (and
    therefore the matcher's deterministic ``steps`` trajectory) differs
    whenever explicit ids were assigned out of order.  The mutation
    ``version`` rides along so the rebuilt graph is cache-key compatible
    with the source.
    """
    return {
        "format": FORMAT_VERSION,
        "version": graph.version,
        "vertices": [
            {"id": vid, "attributes": dict(graph.vertex_attributes(vid))}
            for vid in graph.vertices()
        ],
        "edges": [
            {
                "id": record.eid,
                "source": record.source,
                "target": record.target,
                "type": record.type,
                "attributes": dict(record.attributes),
            }
            for record in graph.edges()
        ],
    }


def graph_from_dict(data: Mapping[str, Any]) -> PropertyGraph:
    """Inverse of :func:`graph_to_dict`.

    Replays elements in payload order and restores the serialized
    mutation ``version`` (format >= 2), so the round-trip preserves the
    typed-adjacency-visible state *and* the cache-invalidation identity
    exactly.  Format-1 payloads rebuild fine; their version is whatever
    the replay produced (one bump per element), matching the historical
    behaviour.
    """
    graph = PropertyGraph()
    for vertex in data.get("vertices", ()):
        graph.add_vertex(vid=vertex["id"], **vertex.get("attributes", {}))
    for edge in data.get("edges", ()):
        graph.add_edge(
            edge["source"],
            edge["target"],
            edge["type"],
            eid=edge["id"],
            **edge.get("attributes", {}),
        )
    if "version" in data:
        graph._restore_version(int(data["version"]))
    return graph


# -- per-shard wire form (shard-affine worker placement) --------------------------


def shard_to_wire(sharded, shard_index: int) -> Dict[str, Any]:
    """Per-shard wire payload for shard-affine worker placement.

    Everything one worker needs to evaluate the shard's seed-restricted
    match blocks, and nothing else -- this is what makes worker memory
    scale *down* with the shard count while the full-snapshot path ships
    the whole graph to every worker:

    * the shard's owned vertex range with attribute maps;
    * every edge record **incident** to an owned vertex, in the source
      graph's global insertion order (the owned adjacency lists rebuilt
      from the payload therefore equal the source's element for
      element -- the matcher-trajectory determinism contract);
    * the **halo**: attribute maps of the remote endpoints of boundary
      edges, enough to check a one-hop cross-shard expansion target;
    * the rows of the cross-shard boundary-edge index involving this
      shard (:meth:`~repro.shard.partition.ShardedGraph.boundary_rows`).

    The payload is a pure composite of dicts/lists/scalars (JSON-safe
    when the attribute values are, picklable always, no closures); the
    graph mutation ``version`` rides along so coordinator-side staleness
    checks agree across processes.  ``sharded`` is a
    :class:`~repro.shard.partition.ShardedGraph`.

    One assembly exists: this delegates to the single-pass
    :func:`shards_to_wire` (so the two entry points cannot drift) --
    callers shipping every shard should use that directly.
    """
    return shards_to_wire(sharded)[shard_index]


def shards_to_wire(sharded) -> list:
    """Every shard's wire payload in **one** edge scan.

    Equivalent to ``[shard_to_wire(sharded, i) for i in range(...)]``
    but O(E) instead of O(shards x E): each edge is bucketed into the
    one or two shards owning its endpoints as it streams past (the same
    single-pass shape the partitioner itself uses).  This is what the
    affine pool warm-up calls -- warm-up happens again after every
    graph mutation, so it must not scale with the shard count.
    """
    num_shards = sharded.num_shards
    edges: list = [[] for _ in range(num_shards)]
    halo: list = [[] for _ in range(num_shards)]
    seen_halo: list = [set() for _ in range(num_shards)]

    def note_halo(shard_index: int, vid: int) -> None:
        if vid not in seen_halo[shard_index]:
            seen_halo[shard_index].add(vid)
            halo[shard_index].append(
                {"id": vid, "attributes": dict(sharded.vertex_attributes(vid))}
            )

    for record in sharded.edges():
        source_shard = sharded.shard_of(record.source).index
        target_shard = sharded.shard_of(record.target).index
        payload_edge = {
            "id": record.eid,
            "source": record.source,
            "target": record.target,
            "type": record.type,
            "attributes": dict(record.attributes),
        }
        edges[source_shard].append(payload_edge)
        if target_shard != source_shard:
            edges[target_shard].append(payload_edge)
            note_halo(source_shard, record.target)
            note_halo(target_shard, record.source)
    return [
        {
            "format": FORMAT_VERSION,
            "kind": "shard",
            "version": sharded.version,
            "shard": index,
            "num_shards": num_shards,
            "vertices": [
                {"id": vid, "attributes": dict(sharded.vertex_attributes(vid))}
                for vid in sharded.shards[index].vids
            ],
            "edges": edges[index],
            "halo": halo[index],
            "boundary": [
                [source_shard, target_shard, list(eids)]
                for (source_shard, target_shard), eids in sorted(
                    sharded.boundary_rows(index).items()
                )
            ],
        }
        for index in range(num_shards)
    ]


def shard_from_wire(payload: Mapping[str, Any]):
    """Inverse of :func:`shard_to_wire`; returns a
    :class:`~repro.shard.affine.ShardSlice` (the worker-side partial
    graph).  Accepts the payload after a JSON round-trip (tuples may
    have become lists)."""
    from repro.core.graph import EdgeRecord
    from repro.shard.affine import ShardSlice

    if payload.get("kind") != "shard":
        raise MalformedQueryError(f"not a wire-form shard: {payload!r:.120}")
    wire_format = payload.get("format")
    if not isinstance(wire_format, int) or wire_format > FORMAT_VERSION:
        raise MalformedQueryError(
            f"unsupported shard wire format {wire_format!r} (this side "
            f"speaks <= {FORMAT_VERSION})"
        )
    return ShardSlice(
        index=int(payload["shard"]),
        num_shards=int(payload["num_shards"]),
        version=int(payload["version"]),
        vertices=[
            (vertex["id"], vertex.get("attributes", {}))
            for vertex in payload.get("vertices", ())
        ],
        edges=[
            EdgeRecord(
                edge["id"],
                edge["source"],
                edge["target"],
                edge["type"],
                edge.get("attributes", {}),
            )
            for edge in payload.get("edges", ())
        ],
        halo=[
            (vertex["id"], vertex.get("attributes", {}))
            for vertex in payload.get("halo", ())
        ],
        boundary_rows={
            (int(row[0]), int(row[1])): tuple(row[2])
            for row in payload.get("boundary", ())
        },
    )


# -- delta wire form (worker catch-up) --------------------------------------------


def delta_to_wire(
    deltas, from_version: int, to_version: int, shard: int | None = None
) -> Dict[str, Any]:
    """Wire payload of a contiguous delta record run.

    ``deltas`` are the graph-level records of
    :meth:`~repro.core.graph.PropertyGraph.deltas_since` (or a routed
    per-shard projection of them); the run covers the half-open version
    interval ``(from_version, to_version]``.  The payload is a pure
    composite of dicts/lists/scalars, JSON-safe when the attribute
    values are, and typically orders of magnitude smaller than the
    shard snapshot it saves re-shipping.
    """
    payload: Dict[str, Any] = {
        "format": FORMAT_VERSION,
        "kind": "delta",
        "from_version": from_version,
        "to_version": to_version,
        "records": [list(record) for record in deltas],
    }
    if shard is not None:
        payload["shard"] = shard
    return payload


def delta_from_wire(payload: Mapping[str, Any]) -> Tuple[int, int, Tuple[Tuple, ...]]:
    """Inverse of :func:`delta_to_wire`: ``(from_version, to_version,
    records)`` with records re-tupled (attribute maps stay dicts).
    Accepts the payload after a JSON round-trip."""
    if payload.get("kind") != "delta":
        raise MalformedQueryError(f"not a wire-form delta: {payload!r:.120}")
    wire_format = payload.get("format")
    if not isinstance(wire_format, int) or wire_format > FORMAT_VERSION:
        raise MalformedQueryError(
            f"unsupported delta wire format {wire_format!r} (this side "
            f"speaks <= {FORMAT_VERSION})"
        )
    return (
        int(payload["from_version"]),
        int(payload["to_version"]),
        tuple(tuple(record) for record in payload.get("records", ())),
    )


def route_deltas(
    sharded, deltas, from_version: int, to_version: int
) -> list:
    """Project a graph-level delta run onto per-shard wire payloads.

    ``sharded`` is the (stale) :class:`~repro.shard.partition.ShardedGraph`
    snapshot the workers were warmed from; its partition map routes the
    records.  Every shard gets a payload -- possibly with no records --
    so every worker's slice version advances to ``to_version`` in
    lockstep with the coordinator.

    Only vertex-add-free runs are routable: a new vertex can move the
    partition ranges, which invalidates the routing itself.  Raises
    ``ValueError`` on a ``"v"`` record; the caller falls back to a full
    re-partition + re-warm, and so does a snapshot whose source graph
    has been collected.
    """
    num_shards = sharded.num_shards
    # the snapshot routes (its partition map is exactly what the workers
    # were warmed with), but element lookups go to the live source graph:
    # the snapshot predates this run -- and any earlier catch-up runs --
    # so only the live graph resolves their edges
    lookup = sharded.source
    if lookup is None:
        raise ValueError("the partitioned source graph is gone; re-partition")
    routed: list = [[] for _ in range(num_shards)]
    for record in deltas:
        kind = record[0]
        if kind == "e":
            eid, source, target = record[1], record[2], record[3]
            source_shard = sharded.shard_of(source).index
            target_shard = sharded.shard_of(target).index
            if source_shard == target_shard:
                routed[source_shard].append(record)
            else:
                # ship the remote endpoint's attributes first so the
                # edge lands with both endpoints checkable (idempotent:
                # a slice already holding the vertex skips the record)
                routed[source_shard].append(
                    ("hv", target, dict(lookup.vertex_attributes(target)))
                )
                routed[target_shard].append(
                    ("hv", source, dict(lookup.vertex_attributes(source)))
                )
                routed[source_shard].append(record)
                routed[target_shard].append(record)
                row = ("be", source_shard, target_shard, eid)
                routed[source_shard].append(row)
                routed[target_shard].append(row)
        elif kind == "va":
            vid = record[1]
            owner = sharded.shard_of(vid).index
            routed[owner].append(record)
            for shard_index in _halo_holders(sharded, lookup, vid, owner):
                routed[shard_index].append(record)
        elif kind == "ea":
            eid = record[1]
            edge = lookup.edge(eid)
            source_shard = sharded.shard_of(edge.source).index
            target_shard = sharded.shard_of(edge.target).index
            routed[source_shard].append(record)
            if target_shard != source_shard:
                routed[target_shard].append(record)
        elif kind == "v":
            raise ValueError(
                "vertex adds can move the partition map and cannot be "
                "routed; re-partition and re-warm instead"
            )
        else:
            raise ValueError(f"unknown delta record kind {kind!r}")
    return [
        delta_to_wire(records, from_version, to_version, shard=index)
        for index, records in enumerate(routed)
    ]


def _halo_holders(sharded, lookup, vid: int, owner: int) -> set:
    """Shards currently holding ``vid`` as a halo member: the owners of
    the opposite endpoint of every edge incident to ``vid`` in the live
    graph (a superset of the workers' halos is fine -- slice-side
    application skips records for vertices a slice does not hold)."""
    holders: set = set()
    for eid in tuple(lookup.out_edges(vid)) + tuple(lookup.in_edges(vid)):
        edge = lookup.edge(eid)
        other = edge.target if edge.source == vid else edge.source
        shard_index = sharded.shard_of(other).index
        if shard_index != owner:
            holders.add(shard_index)
    return holders


# -- results --------------------------------------------------------------------------


def result_set_to_dict(results: ResultSet) -> Dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "results": [
            {
                "vertices": {str(q): d for q, d in r.vertex_bindings},
                "edges": {str(q): d for q, d in r.edge_bindings},
            }
            for r in results
        ],
    }


def result_set_from_dict(data: Mapping[str, Any]) -> ResultSet:
    out = ResultSet()
    for item in data.get("results", ()):
        out.add(
            ResultGraph.from_mappings(
                {int(q): d for q, d in item.get("vertices", {}).items()},
                {int(q): d for q, d in item.get("edges", {}).items()},
            )
        )
    return out


# -- cardinality thresholds -----------------------------------------------------


def threshold_to_dict(threshold) -> Dict[str, Any]:
    """JSON form of a :class:`~repro.metrics.cardinality.CardinalityThreshold`."""
    return {"lower": threshold.lower, "upper": threshold.upper}


def threshold_from_dict(data: Mapping[str, Any]):
    """Rebuild a threshold from :func:`threshold_to_dict` output."""
    from repro.metrics.cardinality import CardinalityThreshold

    lower = data.get("lower")
    upper = data.get("upper")
    return CardinalityThreshold(
        lower=None if lower is None else int(lower),
        upper=None if upper is None else int(upper),
    )
