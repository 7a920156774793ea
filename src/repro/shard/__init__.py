"""Process-parallel evaluation and shard-affine placement.

``repro.shard`` is the layer of the codebase that escapes single-core
execution: candidate batches are evaluated on worker *processes*,
outside the coordinator's GIL, behind the seams the earlier layers left
for them -- the matcher's ``seed_restrict``, the
:class:`~repro.exec.evaluator.BatchExecutor` protocol and the service's
per-graph context pool.  One setting picks the layout: the shard count.

* :class:`ProcessExecutor` -- ``BatchExecutor`` on worker processes:
  wire-form queries across the boundary, submission-order results,
  coordinator-side budget truncation.  With ``shards == 1`` every
  worker holds one long-lived warm ``ExecutionContext`` over the full
  graph snapshot; with ``shards > 1`` it uses **shard-affine
  placement**: workers hold only their placed shards, every count fans
  out per shard to the owning worker (``count_sharded`` for a single
  query), and blocks a worker cannot finish are resolved by a
  seed-restricted :class:`~repro.matching.matcher.PatternMatcher` over
  the coordinator's live graph;
* :class:`GraphPartitioner` / :class:`GraphShard` /
  :class:`ShardedGraph` -- balanced vertex-range shards, vertex routing
  and the cross-shard boundary-edge index the affine payloads are cut
  from;
* :class:`ShardSlice` / :class:`SliceEvaluator` / :class:`ShardMiss` --
  the worker-side half of affine placement.

The shard wire format
---------------------

Affine workers are warmed from the per-shard wire form of
:func:`repro.core.serialize.shard_to_wire` (rebuilt by
``shard_from_wire`` into a :class:`ShardSlice`), a pure dict/list
composite carrying:

* ``vertices`` -- the shard's owned vertex range with attribute maps;
* ``edges`` -- every edge record *incident* to an owned vertex, in the
  source graph's global insertion order, so the rebuilt owned adjacency
  lists (typed and untyped) equal the source's element for element and
  a completed seed-restricted search takes the identical matcher
  ``steps``;
* ``halo`` -- attribute maps of the remote endpoints of boundary edges
  (enough to *check* a one-hop cross-shard expansion target, never to
  expand from it);
* ``boundary`` -- the rows of the cross-shard boundary-edge index
  involving this shard (:meth:`ShardedGraph.boundary_rows`);
* ``version`` -- the source graph's mutation counter, so staleness
  checks agree across processes.

Anything a slice does not hold raises :class:`ShardMiss` instead of
answering wrongly; the coordinator resolves missed blocks against its
live graph (correctness first, locality second) and counts them in
``ProcessExecutor.info()["pools"]["affine_fallbacks"]``.

The differential-oracle pattern
-------------------------------

Every execution path in this package is tested *differentially* against
the serial :class:`~repro.matching.matcher.PatternMatcher` as the
oracle: randomized graphs and queries (seeded in-code, so failures
reproduce) run through the serial matcher, the compiled matcher and the
affine slice path at shard counts {1, 2, 4}, asserting count
value-identity and match-set permutation-identity everywhere
(``tests/test_property_based.py``).
New execution strategies should plug into that oracle helper rather
than invent bespoke fixtures: the generator already covers multi-type
parallel edges, self-loops on boundary vertices, empty shards and
out-of-order explicit ids.
"""

from repro.shard.affine import (
    ShardMiss,
    ShardSlice,
    SliceEvaluator,
    canonical_edge_order,
)
from repro.shard.partition import GraphPartitioner, GraphShard, ShardedGraph
from repro.shard.process_executor import ProcessExecutor, affine_placement

__all__ = [
    "GraphPartitioner",
    "GraphShard",
    "ProcessExecutor",
    "ShardMiss",
    "ShardSlice",
    "ShardedGraph",
    "SliceEvaluator",
    "affine_placement",
    "canonical_edge_order",
]
