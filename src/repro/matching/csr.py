"""Interned CSR-style array adjacency for the compiled matching backend.

The interpreter in :mod:`repro.matching.matcher` walks dict/list
adjacency and re-checks predicates object-by-object on every call.  The
compiled backend (:mod:`repro.matching.program`) instead runs over a
*packed* image of the graph built here once per ``(graph, version)``:

* vertex ids are interned to dense indexes ``0..n-1`` in ascending-vid
  order (``vid_of`` / ``ix_of``), edge ids to dense indexes in global
  insertion order (``eid_of`` / ``eix_of``);
* the type-partitioned directional adjacency of
  :class:`~repro.core.graph.PropertyGraph` is packed per ``(edge type,
  direction)`` into CSR triples ``(indptr, edge_ix, other_ix)`` of flat
  ``array('l')`` rows, replaying the source lists' insertion order
  element for element (the interpreter's enumeration-order contract);
* attribute predicates are interned by *predicate signature* into
  per-vertex / per-edge bitsets (``bytearray`` masks), so the inner
  matching loop tests a predicate with one index, never an object call.

The index is cached per graph beside the plan cache of
:mod:`repro.matching.plan` (same ``WeakKeyDictionary`` registry).  A
mutated graph no longer gets a wholesale rebuild: when the graph's
delta log still holds the records between the index's snapshot version
and the current one, :meth:`CSRIndex.apply_deltas` patches the packed
image **in place** -- appends to the interning tables and flat arrays,
row-local inserts into every built CSR segment, one-bit updates of the
interned predicate masks and seed pools.  Because every patch mutates
the *same* array objects the compiled kernels bound as defaults, the
programs cached on the index stay valid across versions; only their
derived pool memos are cleared.  The patch falls back to a full
rebuild (``csr_rebuilds``) when a delta breaks an interned-order
invariant: a vertex id below the current maximum (the dense interning
is ascending-vid), an edge touching an uninterned endpoint, or a ring
overrun.  Partial graphs -- the worker-side
:class:`~repro.shard.affine.ShardSlice` -- are first-class: the interned
universe covers owned *and* halo vertices (halo attributes are
checkable), ``known`` marks the owned rows whose adjacency is complete,
and the seed universe spans the owned range only, mirroring the slice's
accessor surface exactly.
"""

from __future__ import annotations

import os
import weakref
from array import array
from bisect import bisect_left
from itertools import count as _counter
from typing import Any, Dict, Hashable, Iterable, Optional, Tuple

from repro.core.query import QueryEdge, QueryVertex
from repro.matching.candidates import attributes_match, vertex_candidates
from repro.matching.evalcache import EvaluationCache, predicate_signature
from repro.obs.tracing import SPAN_CSR_BUILD, current_tracer

__all__ = [
    "CSRIndex",
    "csr_entry",
    "csr_for",
    "csr_stats",
    "edge_predicate_signature",
]

#: env var bounding the total bytes of live CSR indexes across all
#: cached graphs; unset/empty = unbounded (the historical behaviour)
CSR_BYTES_BUDGET_ENV = "REPRO_CSR_BYTES_BUDGET"

_EMPTY_COUNTERS: Dict[str, int] = {
    "csr_builds": 0,
    "csr_bytes": 0,
    "csr_patches": 0,
    "csr_rebuilds": 0,
    "csr_evictions": 0,
    "deltas_applied": 0,
    "programs_compiled": 0,
    "program_hits": 0,
}


def edge_predicate_signature(qedge: QueryEdge) -> Tuple:
    """Vertex-id-independent signature of a query edge's predicate map
    (the edge-side twin of :func:`repro.matching.evalcache.predicate_signature`)."""
    return tuple(
        sorted((attr, pred.signature()) for attr, pred in qedge.predicates.items())
    )


class CSRIndex:
    """One graph snapshot packed into flat arrays (see module docstring).

    Base tables are built eagerly; adjacency segments and predicate
    masks are interned lazily on first touch, so a workload only pays
    for the types and signatures its queries actually use.  The index
    holds only a weak reference to the graph (the cache below keys on
    the graph, and a strong back-reference would make both immortal).
    """

    __slots__ = (
        "_graph_ref",
        "version",
        "partial",
        "shard_index",
        "vid_of",
        "ix_of",
        "eid_of",
        "eix_of",
        "src",
        "tgt",
        "selfloop",
        "known",
        "seed_universe",
        "_adj",
        "_vertex_masks",
        "_mask_preds",
        "_seed_pools",
        "_edge_masks",
        "_edge_mask_preds",
        "programs",
        "plan_programs",
    )

    def __init__(self, graph: Any) -> None:
        self._graph_ref = weakref.ref(graph)
        self.version: int = graph.version
        # a ShardSlice exposes its halo attribute map and owned-vid set;
        # duck-typed so matching never imports the shard layer
        halo = getattr(graph, "_halo", None)
        owned = getattr(graph, "vertex_ids", None)
        self.partial: bool = halo is not None and owned is not None
        self.shard_index: Optional[int] = (
            getattr(graph, "index", None) if self.partial else None
        )
        if self.partial:
            vids = sorted(set(owned) | set(halo))
        else:
            vids = sorted(graph.vertices())
        self.vid_of = array("q", vids)
        self.ix_of: Dict[int, int] = {vid: ix for ix, vid in enumerate(vids)}
        ix_of = self.ix_of
        eids: list = []
        src = array("l")
        tgt = array("l")
        selfloop = bytearray()
        self.eix_of: Dict[int, int] = {}
        for record in graph.edges():
            self.eix_of[record.eid] = len(eids)
            eids.append(record.eid)
            src.append(ix_of[record.source])
            tgt.append(ix_of[record.target])
            selfloop.append(1 if record.source == record.target else 0)
        self.eid_of = array("q", eids)
        self.src = src
        self.tgt = tgt
        self.selfloop = selfloop
        if self.partial:
            self.known: Optional[bytearray] = bytearray(
                1 if vid in owned else 0 for vid in vids
            )
            self.seed_universe = array(
                "l", (ix for ix, vid in enumerate(vids) if vid in owned)
            )
        else:
            self.known = None
            self.seed_universe = array("l", range(len(vids)))
        #: (type | None, "out" | "in") -> (indptr, edge_ix, other_ix)
        self._adj: Dict[Tuple[Optional[str], str], Tuple[array, array, array]] = {}
        self._vertex_masks: Dict[Hashable, bytearray] = {}
        #: signature -> the predicate map the mask was interned from,
        #: retained so a delta patch can re-evaluate single elements
        self._mask_preds: Dict[Hashable, Dict[str, Any]] = {}
        self._seed_pools: Dict[Hashable, array] = {}
        self._edge_masks: Dict[Hashable, bytearray] = {}
        self._edge_mask_preds: Dict[Hashable, Dict[str, Any]] = {}
        #: (query signature, edge_order, injective) -> MatchProgram;
        #: lives exactly as long as the arrays it is specialised over
        self.programs: Dict[Hashable, Any] = {}
        #: (id(plan), injective) -> MatchProgram: the resolution shortcut
        #: for the plan object a program was last served for (the program
        #: pins that plan, so its id cannot be reused while it lives)
        self.plan_programs: Dict[Tuple[int, bool], Any] = {}

    def _graph(self) -> Any:
        graph = self._graph_ref()
        if graph is None:  # pragma: no cover - cache entry dies with the graph
            raise RuntimeError("CSRIndex outlived its graph")
        return graph

    @property
    def num_vertices(self) -> int:
        return len(self.vid_of)

    @property
    def num_edges(self) -> int:
        return len(self.eid_of)

    # -- adjacency segments -----------------------------------------------------

    def adjacency(
        self, type_key: Optional[str], direction: str
    ) -> Tuple[array, array, array]:
        """CSR triple ``(indptr, edge_ix, other_ix)`` for one ``(type,
        direction)`` segment (``type_key=None`` is the untyped walk).

        Row ``ix`` spans ``edge_ix[indptr[ix]:indptr[ix+1]]``, in the
        source graph's insertion order; ``other_ix`` carries the
        opposite endpoint so the inner loop never touches edge records.
        Unknown-adjacency rows of a partial graph are empty -- the
        program guards them with an explicit miss *before* scanning.
        """
        key = (type_key, direction)
        segment = self._adj.get(key)
        if segment is None:
            segment = self._build_adjacency(type_key, direction)
            self._adj[key] = segment
        return segment

    def _build_adjacency(
        self, type_key: Optional[str], direction: str
    ) -> Tuple[array, array, array]:
        graph = self._graph()
        out = direction == "out"
        endpoint = self.tgt if out else self.src
        eix_of = self.eix_of
        known = self.known
        indptr = array("l", [0])
        edge_ix = array("l")
        other_ix = array("l")
        for ix, vid in enumerate(self.vid_of):
            if known is None or known[ix]:
                if type_key is None:
                    eids = graph.out_edges(vid) if out else graph.in_edges(vid)
                elif out:
                    eids = graph.out_edges_of_type(vid, type_key)
                else:
                    eids = graph.in_edges_of_type(vid, type_key)
                for eid in eids:
                    eix = eix_of[eid]
                    edge_ix.append(eix)
                    other_ix.append(endpoint[eix])
            indptr.append(len(edge_ix))
        return indptr, edge_ix, other_ix

    # -- predicate masks ---------------------------------------------------------

    def vertex_mask(
        self, qvertex: QueryVertex, evalcache: Optional[EvaluationCache] = None
    ) -> Optional[bytearray]:
        """Bitset over vertex indexes satisfying the vertex's predicates,
        or ``None`` when the vertex is unconstrained (nothing to test).

        Interned by predicate signature, so all query variants sharing a
        constraint share one mask.  On full graphs the mask is filled
        from the (shared) candidate cache; on a partial graph the
        candidate indexes cover the owned range only, so the mask is
        built by direct evaluation over owned *and* halo attributes --
        expansion targets may land in the halo.
        """
        predicates = qvertex.predicates
        if not predicates:
            return None
        sig = predicate_signature(qvertex)
        mask = self._vertex_masks.get(sig)
        if mask is None:
            graph = self._graph()
            mask = bytearray(len(self.vid_of))
            if self.partial:
                for ix, vid in enumerate(self.vid_of):
                    if attributes_match(graph.vertex_attributes(vid), predicates):
                        mask[ix] = 1
            else:
                if evalcache is not None:
                    candidates = evalcache.vertex_candidates(qvertex)
                else:
                    candidates = vertex_candidates(graph, qvertex)
                ix_of = self.ix_of
                for vid in candidates or ():
                    mask[ix_of[vid]] = 1
            self._vertex_masks[sig] = mask
            self._mask_preds[sig] = dict(predicates)
        return mask

    def seed_pool(
        self, qvertex: QueryVertex, evalcache: Optional[EvaluationCache] = None
    ) -> array:
        """Ascending vertex-index pool for seeding ``qvertex``: the seed
        universe (owned range on partial graphs) filtered by the
        vertex's mask.  Interned by predicate signature."""
        sig = predicate_signature(qvertex)
        pool = self._seed_pools.get(sig)
        if pool is None:
            mask = self.vertex_mask(qvertex, evalcache)
            if mask is None:
                pool = self.seed_universe
            else:
                pool = array("l", (ix for ix in self.seed_universe if mask[ix]))
            self._seed_pools[sig] = pool
        return pool

    def edge_mask(self, qedge: QueryEdge) -> Optional[bytearray]:
        """Bitset over edge indexes satisfying the edge's predicates, or
        ``None`` when the edge carries none.  Types are *not* part of
        the mask -- the typed adjacency segments prefilter them."""
        predicates = qedge.predicates
        if not predicates:
            return None
        sig = edge_predicate_signature(qedge)
        mask = self._edge_masks.get(sig)
        if mask is None:
            graph = self._graph()
            mask = bytearray(len(self.eid_of))
            for eix, eid in enumerate(self.eid_of):
                if attributes_match(graph.edge(eid).attributes, predicates):
                    mask[eix] = 1
            self._edge_masks[sig] = mask
            self._edge_mask_preds[sig] = dict(predicates)
        return mask

    # -- delta patching ----------------------------------------------------------

    def _patchable(self, deltas: Iterable[Tuple]) -> bool:
        """Can the whole delta run be applied in place?  Checked *before*
        any mutation, so a rejected run leaves the index untouched and
        the caller can rebuild from a clean state.

        Rejected runs are the ones that would break an interning
        invariant: a vertex id at or below the current dense-interning
        maximum (``vid_of`` is ascending-vid), an edge whose endpoint or
        id is unknown to both the index and the batch, or a record kind
        this index does not understand.
        """
        max_vid = self.vid_of[-1] if self.vid_of else -1
        new_vids: set = set()
        new_eids: set = set()
        for record in deltas:
            kind = record[0]
            if kind == "v" or kind == "hv":
                vid = record[1]
                if vid <= max_vid or vid in new_vids:
                    return False
                new_vids.add(vid)
                max_vid = max(max_vid, vid)
            elif kind == "e":
                eid, source, target = record[1], record[2], record[3]
                if eid in self.eix_of or eid in new_eids:
                    return False
                if source not in self.ix_of and source not in new_vids:
                    return False
                if target not in self.ix_of and target not in new_vids:
                    return False
                new_eids.add(eid)
            elif kind == "va":
                if record[1] not in self.ix_of and record[1] not in new_vids:
                    return False
            elif kind == "ea":
                if record[1] not in self.eix_of and record[1] not in new_eids:
                    return False
            else:
                return False
        return True

    def apply_deltas(self, deltas: Tuple[Tuple, ...]) -> bool:
        """Patch the packed image in place with a pending delta run.

        Returns ``False`` (index untouched) when the run is not
        patchable; the caller falls back to a full rebuild.  On success
        every flat array keeps its object identity, so compiled
        programs bound over them stay valid.  The one structural event
        programs cannot survive is a built adjacency segment going from
        empty to non-empty -- program lowering prunes dead subtrees over
        empty segments -- so that transition drops the cached programs;
        otherwise only their derived restrict-pool memos are cleared.
        """
        if not self._patchable(deltas):
            return False
        graph = self._graph()
        revived_segment = False
        for record in deltas:
            kind = record[0]
            if kind == "v":
                self._patch_add_vertex(record[1], record[2], owned=True)
            elif kind == "hv":
                self._patch_add_vertex(record[1], record[2], owned=False)
            elif kind == "e":
                revived_segment |= self._patch_add_edge(
                    record[1], record[2], record[3], record[4], record[5]
                )
            elif kind == "va":
                self._patch_vertex_attr(graph, record[1], record[2])
            else:  # "ea"
                self._patch_edge_attr(graph, record[1], record[2])
        if revived_segment:
            self.programs.clear()
            self.plan_programs.clear()
        else:
            for program in self.programs.values():
                program._restrict_pools.clear()
        self.version = graph.version
        return True

    def _patch_add_vertex(self, vid: int, attrs: Dict[str, Any], owned: bool) -> None:
        ix = len(self.vid_of)
        self.vid_of.append(vid)
        self.ix_of[vid] = ix
        if self.known is not None:
            self.known.append(1 if owned else 0)
        if owned or self.known is None:
            # note: unconstrained seed pools *are* this array object
            self.seed_universe.append(ix)
        for indptr, _edge_ix, _other_ix in self._adj.values():
            indptr.append(indptr[-1])
        for sig, mask in self._vertex_masks.items():
            bit = 1 if attributes_match(attrs, self._mask_preds[sig]) else 0
            mask.append(bit)
            if bit and (owned or self.known is None):
                pool = self._seed_pools.get(sig)
                if pool is not None and pool is not self.seed_universe:
                    pool.append(ix)

    def _patch_add_edge(
        self, eid: int, source: int, target: int, type: str, attrs: Dict[str, Any]
    ) -> bool:
        eix = len(self.eid_of)
        self.eid_of.append(eid)
        self.eix_of[eid] = eix
        six = self.ix_of[source]
        tix = self.ix_of[target]
        self.src.append(six)
        self.tgt.append(tix)
        self.selfloop.append(1 if six == tix else 0)
        known = self.known
        revived = False
        for (type_key, direction), (indptr, edge_ix, other_ix) in self._adj.items():
            if type_key is not None and type_key != type:
                continue
            if direction == "out":
                row, other = six, tix
            else:
                row, other = tix, six
            if known is not None and not known[row]:
                continue
            if not edge_ix:
                revived = True
            # new edges append at the *end* of their row, replaying the
            # graph-side insertion order the interpreter enumerates
            pos = indptr[row + 1]
            edge_ix[pos:pos] = array("l", (eix,))
            other_ix[pos:pos] = array("l", (other,))
            for j in range(row + 1, len(indptr)):
                indptr[j] += 1
        for sig, mask in self._edge_masks.items():
            mask.append(
                1 if attributes_match(attrs, self._edge_mask_preds[sig]) else 0
            )
        return revived

    def _patch_vertex_attr(self, graph: Any, vid: int, attr: str) -> None:
        ix = self.ix_of[vid]
        attrs = graph.vertex_attributes(vid)
        in_universe = self.known is None or self.known[ix]
        for sig, preds in self._mask_preds.items():
            if attr not in preds:
                continue
            mask = self._vertex_masks[sig]
            bit = 1 if attributes_match(attrs, preds) else 0
            if mask[ix] == bit:
                continue
            mask[ix] = bit
            pool = self._seed_pools.get(sig)
            if pool is None or pool is self.seed_universe or not in_universe:
                continue
            pos = bisect_left(pool, ix)
            if bit:
                pool.insert(pos, ix)
            elif pos < len(pool) and pool[pos] == ix:
                pool.pop(pos)

    def _patch_edge_attr(self, graph: Any, eid: int, attr: str) -> None:
        eix = self.eix_of[eid]
        attrs = graph.edge(eid).attributes
        for sig, preds in self._edge_mask_preds.items():
            if attr in preds:
                self._edge_masks[sig][eix] = (
                    1 if attributes_match(attrs, preds) else 0
                )

    # -- accounting --------------------------------------------------------------

    def nbytes(self) -> int:
        """Flat-array bytes held by this index (base tables, built
        adjacency segments, interned masks and pools)."""
        total = (
            self.vid_of.itemsize * len(self.vid_of)
            + self.eid_of.itemsize * len(self.eid_of)
            + self.src.itemsize * len(self.src)
            + self.tgt.itemsize * len(self.tgt)
            + len(self.selfloop)
            + self.seed_universe.itemsize * len(self.seed_universe)
        )
        if self.known is not None:
            total += len(self.known)
        for indptr, edge_ix, other_ix in self._adj.values():
            total += indptr.itemsize * len(indptr)
            total += edge_ix.itemsize * len(edge_ix)
            total += other_ix.itemsize * len(other_ix)
        for mask in self._vertex_masks.values():
            total += len(mask)
        for mask in self._edge_masks.values():
            total += len(mask)
        for pool in self._seed_pools.values():
            total += pool.itemsize * len(pool)
        return total


#: monotonic recency stamp shared by every cache entry (LRU eviction order)
_TOUCH = _counter(1)


class _CsrEntry:
    """Per-graph cache slot: the live index (or ``None`` after a
    byte-budget eviction) plus lifetime counters that survive
    version-triggered rebuilds and patches."""

    __slots__ = (
        "csr",
        "builds",
        "patches",
        "rebuilds",
        "deltas_applied",
        "evictions",
        "touch",
        "programs_compiled",
        "program_hits",
    )

    def __init__(self, csr: CSRIndex) -> None:
        self.csr: Optional[CSRIndex] = csr
        self.builds = 1
        self.patches = 0
        self.rebuilds = 0
        self.deltas_applied = 0
        self.evictions = 0
        self.touch = next(_TOUCH)
        self.programs_compiled = 0
        self.program_hits = 0

    def counters(self) -> Dict[str, int]:
        return {
            "csr_builds": self.builds,
            "csr_bytes": self.csr.nbytes() if self.csr is not None else 0,
            "csr_patches": self.patches,
            "csr_rebuilds": self.rebuilds,
            "csr_evictions": self.evictions,
            "deltas_applied": self.deltas_applied,
            "programs_compiled": self.programs_compiled,
            "program_hits": self.program_hits,
        }


_CSR_ENTRIES: "weakref.WeakKeyDictionary[Any, _CsrEntry]" = weakref.WeakKeyDictionary()


def _pending_deltas(graph: Any, version: int) -> Optional[Tuple[Tuple, ...]]:
    """The graph's delta records since ``version``, or ``None`` when the
    graph keeps no log (plain duck-typed graphs) or the ring overran."""
    deltas_since = getattr(graph, "deltas_since", None)
    if deltas_since is None:
        return None
    return deltas_since(version)


def _enforce_budget(current: _CsrEntry) -> None:
    """Evict least-recently-touched indexes (never ``current``) until the
    total live CSR bytes fit under ``REPRO_CSR_BYTES_BUDGET``.  Evicted
    entries keep their counters and rebuild lazily on next touch."""
    raw = os.environ.get(CSR_BYTES_BUDGET_ENV)
    if not raw:
        return
    try:
        budget = int(raw)
    except ValueError:
        return
    live = [entry for entry in _CSR_ENTRIES.values() if entry.csr is not None]
    total = sum(entry.csr.nbytes() for entry in live)
    if total <= budget:
        return
    live.sort(key=lambda entry: entry.touch)
    for entry in live:
        if entry is current:
            continue
        total -= entry.csr.nbytes()
        entry.csr = None
        entry.evictions += 1
        if total <= budget:
            break


def csr_entry(graph: Any) -> _CsrEntry:
    """The graph's cache entry, brought up to the graph's *current*
    version: patched in place from the pending delta run when the log
    still holds it, rebuilt otherwise (ring overrun, unpatchable
    record, no log, or byte-budget eviction)."""
    entry = _CSR_ENTRIES.get(graph)
    if entry is None:
        with current_tracer().span(SPAN_CSR_BUILD, reason="first"):
            entry = _CsrEntry(CSRIndex(graph))
        _CSR_ENTRIES[graph] = entry
    elif entry.csr is None:
        with current_tracer().span(SPAN_CSR_BUILD, reason="evicted"):
            entry.csr = CSRIndex(graph)
        entry.builds += 1
    elif entry.csr.version != graph.version:
        deltas = _pending_deltas(graph, entry.csr.version)
        if deltas is not None and entry.csr.apply_deltas(deltas):
            entry.patches += 1
            entry.deltas_applied += len(deltas)
        else:
            with current_tracer().span(SPAN_CSR_BUILD, reason="rebuild"):
                entry.csr = CSRIndex(graph)
            entry.builds += 1
            entry.rebuilds += 1
    entry.touch = next(_TOUCH)
    _enforce_budget(entry)
    return entry


def csr_for(graph: Any) -> CSRIndex:
    """The packed index for the graph's *current* version."""
    return csr_entry(graph).csr


def csr_stats(graph: Any) -> Dict[str, int]:
    """Compilation counters for reporting (zeros before any build; never
    forces a build or a rebuild)."""
    entry = _CSR_ENTRIES.get(graph)
    if entry is None:
        return dict(_EMPTY_COUNTERS)
    return entry.counters()
