"""Process-pool batch execution: CPU-parallel candidate evaluation.

Why-query rewriting is pure-Python CPU work, so threads in one process
stay serialised under one GIL and cannot speed it up.
:class:`ProcessExecutor` escapes the GIL: a pool of worker
*processes*, each holding one long-lived
:class:`~repro.exec.context.ExecutionContext` warmed from a serialized
snapshot of the coordinator's graph.

Why this is not just ``ProcessPoolExecutor.map`` over closures:

* **closures don't pickle** -- the evaluator's per-candidate thunks
  close over the matcher stack.  The executor therefore advertises
  ``supports_queries`` and receives the *queries* themselves
  (:meth:`run_queries`); each candidate crosses the process boundary as
  the compact hashable wire form of
  :func:`repro.core.serialize.query_to_wire`, and each worker memoises
  deserialisation by that same tuple;
* **per-worker warm-up** -- the pool initializer rebuilds the graph
  from one shipped :func:`~repro.core.serialize.graph_to_dict` snapshot
  (insertion-order exact, version-exact) and keeps a process-global
  ``ExecutionContext`` alive across batches, so workers amortise plan /
  candidate / result caches exactly like the coordinator does;
* **determinism** -- results return in submission order
  (``pool.map``), and budget truncation happens in the coordinator
  (:class:`~repro.exec.evaluator.CandidateEvaluator` grants *before*
  submission), so at batch size 1 every engine reproduces the serial
  search trajectory bit-identically;
* **staleness** -- the coordinator snapshots the graph's mutation
  ``version``; if the graph moved since the pool warmed up, the pool is
  rebuilt from a fresh snapshot before the next batch (correctness over
  reuse);
* **shard-affine placement** -- with ``shards > 1`` the executor
  stops shipping the full snapshot entirely: it partitions the
  graph once, derives a placement map (``shard -> worker``), and warms
  one *single-process* pool per worker with only the per-shard wire
  payloads (:func:`repro.core.serialize.shard_to_wire`) placed on it,
  so worker memory scales **down** with the shard count while CPU still
  scales up with workers.  Every count fans out per shard and each
  block is routed to the worker that owns the shard; blocks a slice
  cannot finish (a second expansion hop off-shard, a disconnected
  query) come back as misses and are resolved coordinator-side by a
  seed-restricted :class:`~repro.matching.matcher.PatternMatcher` over
  the live graph.  Merges stay sum-and-clamp, so counts are
  value-identical and batch-1 engine trajectories bit-identical to
  serial.  ``info()`` records the per-worker wire-payload bytes next
  to the full-snapshot bytes (the ``affine_placement`` benchmark
  section gates the ratio).

Start method: ``forkserver`` where available (fork is unsafe in a
threaded coordinator, spawn is the slow fallback); override with
``start_method=`` if the deployment knows better.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from itertools import repeat
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.core.graph import PropertyGraph
from repro.core.query import GraphQuery
from repro.core.serialize import (
    graph_from_dict,
    graph_to_dict,
    query_from_wire,
    query_to_wire,
    route_deltas,
    shards_to_wire,
)
from repro.matching.matcher import PatternMatcher
from repro.obs.tracing import SPAN_FALLBACK, SPAN_WORKER, Tracer, current_tracer
from repro.shard.affine import canonical_edge_order
from repro.shard.partition import GraphPartitioner
from repro.stats import deltas_section, unified_stats

T = TypeVar("T")

__all__ = ["ProcessExecutor"]

#: how long :meth:`ProcessExecutor.warm_up` waits for every worker to
#: report in before giving up
_WARM_UP_DEADLINE_S = 60.0


def affine_placement(num_shards: int, num_workers: int) -> Dict[int, int]:
    """Round-robin ``shard -> worker`` placement map.

    Contiguous shard ranges are balanced by vertex count already, so
    round-robin keeps per-worker payloads balanced too; a skew-aware
    variant can swap in here without touching the routing call sites.
    """
    workers = max(1, min(num_workers, num_shards))
    return {shard: shard % workers for shard in range(num_shards)}


# -- worker side -----------------------------------------------------------------
#
# One module-global evaluation spine per worker process, built once by the
# pool initializer and reused for every task the worker serves.  Full
# snapshot workers hold ``context`` (the warm ExecutionContext) and
# ``queries`` (wire form -> deserialized GraphQuery); affine workers hold
# ``affine`` (their SliceEvaluator).

_WORKER_STATE: Dict[str, object] = {}

#: bound on the per-worker wire->query memo: a long-lived service ships
#: every distinct rewriting candidate ever searched, and the coordinator
#: bounds its own caches -- the workers must not grow without limit either
_WORKER_QUERY_CACHE_ENTRIES = 10_000


def _worker_init(
    payload: dict, injective: bool, compiled: Optional[bool] = None
) -> None:
    """Pool initializer: rebuild the snapshot, warm one context."""
    # imported lazily so the coordinator-side import of this module stays
    # cheap; the worker pays it once per process
    from repro.exec.context import ExecutionContext

    graph = graph_from_dict(payload)
    _WORKER_STATE.clear()
    _WORKER_STATE["context"] = ExecutionContext(
        graph, injective=injective, compiled=compiled
    )
    _WORKER_STATE["queries"] = {}


def _worker_query(wire: Tuple) -> GraphQuery:
    queries: Dict[Tuple, GraphQuery] = _WORKER_STATE["queries"]  # type: ignore[assignment]
    query = queries.get(wire)
    if query is None:
        query = query_from_wire(wire)
        if len(queries) >= _WORKER_QUERY_CACHE_ENTRIES:
            # FIFO eviction: oldest wire forms belong to long-finished
            # searches; re-deserialising one later is cheap
            queries.pop(next(iter(queries)))
        queries[wire] = query
    return query


def _worker_count(wire: Tuple, limit: Optional[int], trace: bool = False):
    """One bounded count; with ``trace`` the worker runs its own tracer
    and ships ``(count, span summary)`` back in the result envelope (a
    full span tree would be oversized and unpicklable-adjacent; the
    coordinator grafts the summary as one ``worker`` span)."""
    context = _WORKER_STATE["context"]
    if not trace:
        return context.count(_worker_query(wire), limit=limit)  # type: ignore[union-attr]
    tracer = Tracer()
    with tracer.activate():
        count = context.count(_worker_query(wire), limit=limit)  # type: ignore[union-attr]
    return count, tracer.summarize()


def _worker_touch() -> int:
    """Warm-up task: report the pid of the (initialized) worker."""
    return os.getpid()


def _affine_worker_init(
    payloads: List[dict], injective: bool, compiled: Optional[bool] = None
) -> None:
    """Affine pool initializer: rebuild only the placed shards' slices
    (each slice builds its own CSR index locally when compiled)."""
    from repro.shard.affine import SliceEvaluator

    evaluator = SliceEvaluator.from_wire_payloads(
        payloads, injective=injective, compiled=compiled
    )
    _WORKER_STATE.clear()
    _WORKER_STATE["affine"] = evaluator


def _affine_worker_count_block(
    wire: Tuple, shard_index: int, limit: Optional[int], trace: bool = False
):
    """One shard-seeded block count on the owning worker (None = miss).

    With ``trace`` the envelope is ``(value, span summary)`` -- the
    value may still be ``None`` (the miss travels alongside the spans
    that explain it)."""
    evaluator = _WORKER_STATE["affine"]
    if not trace:
        return evaluator.count_block_wire(wire, shard_index, limit)  # type: ignore[union-attr]
    tracer = Tracer()
    with tracer.activate():
        value = evaluator.count_block_wire(wire, shard_index, limit)  # type: ignore[union-attr]
    return value, tracer.summarize()


def _affine_worker_apply_deltas(payloads: List[dict]) -> int:
    """Catch this worker's slices up with routed delta payloads instead
    of tearing the pool down (the worker half of the catch-up
    protocol); returns the number of records applied."""
    evaluator = _WORKER_STATE["affine"]
    return evaluator.apply_wire_deltas(payloads)  # type: ignore[union-attr]


# -- coordinator side -------------------------------------------------------------


class ProcessExecutor:
    """Evaluate candidate batches on a pool of warm worker processes.

    Satisfies the :class:`~repro.exec.evaluator.BatchExecutor` protocol
    and additionally advertises ``supports_queries``: the
    :class:`~repro.exec.evaluator.CandidateEvaluator` routes the query
    batch through :meth:`run_queries` (wire forms across the boundary)
    instead of un-picklable thunks.  Bound to one graph -- the workers'
    warm contexts are snapshots of it; the
    :class:`~repro.service.WhyQueryService` therefore keeps one process
    executor per pooled graph.

    ``max_workers`` caps the pool.  ``shards`` picks the layout: one
    shard warms every worker from the full snapshot, ``shards > 1``
    partitions the graph and places each shard on one worker
    (shard-affine placement).  The pool spins up lazily (or explicitly
    via :meth:`warm_up`) and is released by :meth:`close` /
    context-manager exit.
    """

    name = "process"
    #: :class:`CandidateEvaluator` ships queries (not thunks) when set
    supports_queries = True

    def __init__(
        self,
        graph: PropertyGraph,
        max_workers: int = 2,
        shards: int = 1,
        injective: bool = True,
        start_method: Optional[str] = None,
        compiled: Optional[bool] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.graph = graph
        self.max_workers = max_workers
        self.shards = shards
        #: shard-affine placement (``shards > 1``) or the full snapshot
        self.affine = shards > 1
        self.injective = injective
        self.compiled = compiled
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            # fork would duplicate a possibly-threaded coordinator mid-lock;
            # forkserver forks from a clean helper instead, spawn is the
            # universally available fallback
            start_method = "forkserver" if "forkserver" in methods else "spawn"
        self.start_method = start_method
        #: engines default their drain batch to the worker count
        self.preferred_batch = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._snapshot_version: Optional[int] = None
        # affine placement state: one single-process pool per worker,
        # each warmed with only its placed shards' wire payloads
        self._affine_pools: Optional[List[ProcessPoolExecutor]] = None
        self._placement: Dict[int, int] = {}
        self._sharded_snapshot = None
        #: coordinator-side matcher over the live graph for the blocks
        #: (and disconnected queries) the affine workers cannot finish
        self._fallback = PatternMatcher(graph, injective=injective, compiled=compiled)
        self._payload_bytes: List[int] = []
        self._full_snapshot_bytes: Optional[int] = None
        self._full_snapshot_bytes_version: Optional[int] = None
        #: serialises pool creation/teardown: the service's concurrent
        #: explain() calls may race on first touch, and two threads
        #: building pools would leak one pool's workers forever
        self._lock = threading.Lock()
        # lifetime counters (coordinator-side, for stats()/info())
        self.batches = 0
        self.queries_shipped = 0
        self.sharded_counts = 0
        self.pool_rebuilds = 0
        #: blocks the affine workers could not finish (cross-shard
        #: second hops, disconnected queries), resolved coordinator-side
        self.affine_fallbacks = 0
        #: mutations absorbed by shipping per-shard deltas to the warm
        #: pools instead of tearing them down, and the payload bytes it
        #: cost (compare against a full re-warm's payload bytes)
        self.worker_catchups = 0
        self.delta_bytes = 0

    # -- lifecycle ------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        stale: Optional[ProcessPoolExecutor] = None
        with self._lock:
            if (
                self._pool is not None
                and self._snapshot_version != self.graph.version
            ):
                # the graph mutated since the workers warmed up: their
                # snapshots are stale, rebuild from a fresh one
                stale, self._pool = self._pool, None
                self._snapshot_version = None
            if self._pool is None:
                payload = graph_to_dict(self.graph)
                # every worker receives this whole payload; the affine
                # mode's per-worker bytes are measured against it
                self._full_snapshot_bytes = len(
                    pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
                )
                self._full_snapshot_bytes_version = self.graph.version
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=multiprocessing.get_context(self.start_method),
                    initializer=_worker_init,
                    initargs=(payload, self.injective, self.compiled),
                )
                self._snapshot_version = self.graph.version
                self.pool_rebuilds += 1
            pool = self._pool
        if stale is not None:
            stale.shutdown(wait=True)
        return pool

    def _ensure_affine_pools(self) -> List[ProcessPoolExecutor]:
        """The per-worker affine pools (partition + warm on first touch).

        When the graph mutated since warm-up, the pools first try to
        **catch up**: if the graph's delta log still holds the pending
        run and it adds no vertices (the partition map is then provably
        unchanged -- ranges are balanced by vertex count alone), the run
        is routed per shard and shipped to the warm workers, orders of
        magnitude cheaper than a re-warm.  Everything is rebuilt from a
        fresh partition only when catch-up is impossible: a vertex add,
        a ring overrun, or no delta log at all.
        """
        stale: List[ProcessPoolExecutor] = []
        with self._lock:
            if (
                self._affine_pools is not None
                and self._snapshot_version != self.graph.version
            ):
                if not self._try_catch_up_locked():
                    stale, self._affine_pools = self._affine_pools, None
                    self._snapshot_version = None
                    self._sharded_snapshot = None
            if self._affine_pools is None:
                sharded = GraphPartitioner(self.shards).partition(self.graph)
                self._sharded_snapshot = sharded
                self._placement = affine_placement(self.shards, self.max_workers)
                num_pools = max(self._placement.values()) + 1
                payloads = shards_to_wire(sharded)
                per_pool: List[List[dict]] = [[] for _ in range(num_pools)]
                for shard_index, worker in self._placement.items():
                    per_pool[worker].append(payloads[shard_index])
                context = multiprocessing.get_context(self.start_method)
                self._affine_pools = [
                    ProcessPoolExecutor(
                        max_workers=1,
                        mp_context=context,
                        initializer=_affine_worker_init,
                        initargs=(pool_payloads, self.injective, self.compiled),
                    )
                    for pool_payloads in per_pool
                ]
                # what actually crosses the process boundary, per worker
                # (the full-snapshot comparison number is reporting-only
                # and computed lazily in info() -- serialising the whole
                # graph here would re-pay the exact cost affine placement
                # exists to avoid, on every warm-up and stale rebuild)
                self._payload_bytes = [
                    len(pickle.dumps(pool_payloads, pickle.HIGHEST_PROTOCOL))
                    for pool_payloads in per_pool
                ]
                self._snapshot_version = self.graph.version
                self.pool_rebuilds += 1
            pools = self._affine_pools
        for pool in stale:
            pool.shutdown(wait=True)
        return pools

    def _try_catch_up_locked(self) -> bool:
        """Ship the pending delta run to the warm affine pools; ``True``
        when every worker caught up (callers then skip the teardown).

        Requires the lock.  Refuses (returns ``False``) when the run
        cannot be routed -- no delta log, ring overrun, or any vertex
        add (which can move the partition ranges the routing and every
        seed restriction depend on).  A worker-side failure also
        refuses, and the caller's teardown restores consistency.
        """
        deltas_since = getattr(self.graph, "deltas_since", None)
        if (
            deltas_since is None
            or self._sharded_snapshot is None
            or self._snapshot_version is None
        ):
            return False
        deltas = deltas_since(self._snapshot_version)
        if deltas is None or any(record[0] == "v" for record in deltas):
            return False
        try:
            payloads = route_deltas(
                self._sharded_snapshot,
                deltas,
                self._snapshot_version,
                self.graph.version,
            )
        except (ValueError, KeyError):
            return False
        assert self._affine_pools is not None
        per_pool: List[List[dict]] = [[] for _ in range(len(self._affine_pools))]
        for shard_index, worker in self._placement.items():
            per_pool[worker].append(payloads[shard_index])
        try:
            futures = [
                pool.submit(_affine_worker_apply_deltas, pool_payloads)
                for pool, pool_payloads in zip(self._affine_pools, per_pool)
            ]
            for future in futures:
                future.result()
        except Exception:
            return False
        self.delta_bytes += sum(
            len(pickle.dumps(pool_payloads, pickle.HIGHEST_PROTOCOL))
            for pool_payloads in per_pool
        )
        self.worker_catchups += 1
        self._snapshot_version = self.graph.version
        return True

    def _resolve_block(
        self, shard_index: int, query: GraphQuery, limit: Optional[int]
    ) -> int:
        """Coordinator-side resolve of a block the worker could not finish.

        Restricts the first seed to the shard's range in the partition
        the workers were warmed from (catch-up runs add no vertices, so
        the ranges still hold) and pins the canonical edge order, so the
        resolved block restricts the same first-seed vertex the
        slice-evaluated blocks did (the cross-shard consistency
        requirement of the decomposition).
        """
        with self._lock:
            self.affine_fallbacks += 1
            sharded = self._sharded_snapshot
        if sharded is None:  # pragma: no cover - guarded by the caller
            raise RuntimeError("affine pools have not been built yet")
        with current_tracer().span(SPAN_FALLBACK, shard=shard_index):
            return self._fallback.count(
                query,
                limit=limit,
                edge_order=canonical_edge_order(query),
                seed_restrict=sharded.shards[shard_index].vertex_ids,
            )

    def warm_up(self) -> List[int]:
        """Force-spawn every worker; returns their distinct pids.

        ``ProcessPoolExecutor`` spawns workers on demand, so the first
        measured batch would otherwise pay process start + snapshot
        rebuild.  Touch tasks are submitted round after round until
        every worker has answered one; a worker that has not reported
        in by the deadline raises ``RuntimeError``.
        """
        if self.affine:
            pools = self._ensure_affine_pools()
            futures = [pool.submit(_worker_touch) for pool in pools]
            return [future.result() for future in futures]
        pool = self._ensure_pool()
        deadline = time.monotonic() + _WARM_UP_DEADLINE_S
        seen: Dict[int, None] = {}
        while len(seen) < self.max_workers:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"only {len(seen)} of {self.max_workers} workers reported "
                    f"in within {_WARM_UP_DEADLINE_S:.0f} s"
                )
            # one round submits a task per worker before awaiting any,
            # so the first round starts every process
            futures = [pool.submit(_worker_touch) for _ in range(self.max_workers)]
            for future in futures:
                seen[future.result()] = None
        return list(seen)

    def close(self) -> None:
        """Shut the worker pool(s) down (idempotent; pools respawn lazily)."""
        with self._lock:
            pool, self._pool = self._pool, None
            affine, self._affine_pools = self._affine_pools, None
            self._snapshot_version = None
            self._sharded_snapshot = None
        if pool is not None:
            pool.shutdown(wait=True)
        for affine_pool in affine or ():
            affine_pool.shutdown(wait=True)

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- BatchExecutor protocol ------------------------------------------------

    def run(self, tasks: Sequence[Callable[[], T]]) -> List[T]:
        """Protocol fallback for generic thunks: run in the calling thread.

        Arbitrary closures cannot cross the process boundary; callers
        that want the pool go through :meth:`run_queries` (the
        :class:`CandidateEvaluator` does so automatically via
        ``supports_queries``).
        """
        return [task() for task in tasks]

    # -- query batches -----------------------------------------------------------

    def run_queries(
        self, queries: Sequence[GraphQuery], limit: Optional[int] = None
    ) -> List[int]:
        """Bounded counts for a candidate batch, in submission order."""
        queries = list(queries)
        if not queries:
            return []
        if self.affine:
            return self._run_queries_affine(queries, limit)
        pool = self._ensure_pool()
        wires = [query_to_wire(query) for query in queries]
        tracer = current_tracer()
        if tracer.enabled:
            counts = []
            envelopes = pool.map(
                _worker_count,
                wires,
                repeat(limit, len(wires)),
                repeat(True, len(wires)),
            )
            for task_index, (count, summary) in enumerate(envelopes):
                tracer.attach_summary(SPAN_WORKER, summary, task=task_index)
                counts.append(count)
        else:
            counts = list(
                pool.map(_worker_count, wires, repeat(limit, len(wires)))
            )
        with self._lock:
            self.batches += 1
            self.queries_shipped += len(wires)
        return counts

    def _run_queries_affine(
        self, queries: List[GraphQuery], limit: Optional[int]
    ) -> List[int]:
        """Affine batch: every count fans out per shard to the owners.

        All (query, shard) block tasks are submitted before any result
        is awaited, so cross-shard parallelism and batch parallelism
        compose; merges are sum-and-clamp per query, in submission
        order.  Blocks the owning worker missed -- and whole queries no
        slice can evaluate (disconnected patterns) -- resolve against
        the coordinator's live graph.
        """
        pools = self._ensure_affine_pools()
        tracer = current_tracer()
        trace = tracer.enabled
        pending: List[Tuple[GraphQuery, Optional[List[Tuple[int, Future]]]]] = []
        shipped = 0
        for query in queries:
            # a slice enumerates candidates over its owned range only, so
            # every seed after the first must be resolved coordinator-side
            if not query.is_connected():
                pending.append((query, None))
                continue
            wire = query_to_wire(query)
            futures = [
                (
                    shard_index,
                    pools[self._placement[shard_index]].submit(
                        _affine_worker_count_block, wire, shard_index, limit, trace
                    ),
                )
                for shard_index in range(self.shards)
            ]
            shipped += 1
            pending.append((query, futures))
        counts: List[int] = []
        for query, futures in pending:
            if futures is None:
                with self._lock:
                    self.affine_fallbacks += 1
                counts.append(self._fallback.count(query, limit=limit))
                continue
            total = 0
            for shard_index, future in futures:
                value = future.result()
                if trace:
                    value, summary = value
                    tracer.attach_summary(
                        SPAN_WORKER,
                        summary,
                        worker=self._placement[shard_index],
                        shard=shard_index,
                    )
                if value is None:
                    value = self._resolve_block(shard_index, query, limit)
                total += value
            counts.append(min(total, max(limit, 0)) if limit is not None else total)
        with self._lock:
            self.batches += 1
            self.queries_shipped += shipped
        return counts

    def count_sharded(self, query: GraphQuery, limit: Optional[int] = None) -> int:
        """One (heavy) count split across the workers' shard blocks.

        Each block -- the matches whose first seed binds inside one
        shard's vertex range -- is counted on the worker that owns the
        shard, and the coordinator sums and clamps the per-block counts
        (each individually clamped at ``limit``), which is
        value-identical to the unsharded bounded count.  With one shard
        this is a plain :meth:`run_queries` count.
        """
        if not self.affine:
            return self.run_queries([query], limit=limit)[0]
        with self._lock:
            self.sharded_counts += 1
        return self._run_queries_affine([query], limit)[0]

    # -- reporting ---------------------------------------------------------------

    def _measure_full_snapshot(self) -> int:
        """Bytes the full-snapshot path would ship per worker (lazy,
        cached per graph version -- reporting-only, never on the
        evaluation or warm-up path).

        The serialisation itself runs *outside* the pool lock: on a
        large graph it takes seconds, and a monitoring poll must never
        stall query submission behind it.  Two concurrent polls may
        both measure; the duplicated work is reporting-only.
        """
        with self._lock:
            measured = self._full_snapshot_bytes
            measured_version = self._full_snapshot_bytes_version
        version = self.graph.version
        if measured is not None and measured_version == version:
            return measured
        measured = len(
            pickle.dumps(graph_to_dict(self.graph), pickle.HIGHEST_PROTOCOL)
        )
        with self._lock:
            self._full_snapshot_bytes = measured
            self._full_snapshot_bytes_version = version
        return measured

    def info(self) -> Dict[str, Any]:
        """Lifetime counters in the unified stats schema.

        Pool lifecycle and payload accounting live under ``["pools"]``,
        the delta-sync catch-up counters under ``["deltas"]``.

        All counters are snapshotted under the pool lock -- the same
        lock the increment sites hold -- so a monitoring poll racing a
        concurrent batch observes one consistent point in time instead
        of a torn mix of pre- and post-batch values.
        """
        with self._lock:
            pools: Dict[str, object] = {
                "max_workers": self.max_workers,
                "shards": self.shards,
                "start_method": self.start_method,
                "placement": "affine" if self.affine else "full",
                "pool_live": (
                    self._pool is not None or self._affine_pools is not None
                ),
                "pool_rebuilds": self.pool_rebuilds,
                "batches": self.batches,
                "queries_shipped": self.queries_shipped,
                "sharded_counts": self.sharded_counts,
                "snapshot_version": self._snapshot_version,
            }
            affine_fallbacks = self.affine_fallbacks
            worker_catchups_now = self.worker_catchups
            delta_bytes_now = self.delta_bytes
            payload_bytes = list(self._payload_bytes)
            placement_map = dict(self._placement)
            full_snapshot_bytes = self._full_snapshot_bytes
        worker_catchups = 0
        delta_bytes = 0
        if not self.affine and full_snapshot_bytes is not None:
            pools["full_snapshot_bytes"] = full_snapshot_bytes
        if self.affine:
            payload_max = max(payload_bytes, default=0)
            # takes the lock itself, so it must run outside the snapshot
            full = self._measure_full_snapshot() if payload_max else 0
            worker_catchups = worker_catchups_now
            delta_bytes = delta_bytes_now
            pools.update(
                {
                    "placement_map": placement_map,
                    "affine_fallbacks": affine_fallbacks,
                    "payload_bytes_per_worker": payload_bytes,
                    "payload_bytes_max": payload_max,
                    "full_snapshot_bytes": full,
                    # memory headline: largest per-worker payload vs what
                    # the full-snapshot path ships to *every* worker
                    "payload_ratio": (full / payload_max) if payload_max else 0.0,
                }
            )
        return unified_stats(
            pools=pools,
            deltas=deltas_section(
                bytes=delta_bytes, worker_catchups=worker_catchups
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessExecutor(max_workers={self.max_workers}, "
            f"shards={self.shards}, "
            f"start_method={self.start_method!r})"
        )
