"""Shard-affine worker placement (ISSUE 5).

Acceptance: affine workers receive only their shards' wire payloads
(per-worker bytes recorded next to the full snapshot), every execution
path stays value-identical to the serial matcher, and at batch size 1
the affine process path reproduces the serial search trajectory
bit-identically.  The targeted edge cases here pin the cross-shard
geometry the randomized suite covers statistically: a self-loop on a
boundary vertex, a multi-type parallel edge crossing shards, an empty
shard, and a seed pool confined to one shard.
"""

from __future__ import annotations

import pytest

from repro.core import (
    BOTH_DIRECTIONS,
    GraphQuery,
    PropertyGraph,
    equals,
)
from repro.core.serialize import shard_to_wire
from repro.exec import ExecutionContext, SerialExecutor
from repro.finegrained import TraverseSearchTree
from repro.matching import PatternMatcher
from repro.metrics import CardinalityProblem, CardinalityThreshold
from repro.rewrite import CoarseRewriter
from repro.service import WhyQueryService
from repro.shard import (
    GraphPartitioner,
    ProcessExecutor,
    ShardMiss,
    SliceEvaluator,
    affine_placement,
    canonical_edge_order,
)

from test_shard import coarse_trajectory, fine_trajectory, result_key, typed_query


def affine_evaluator(graph, num_shards, injective=True):
    """In-process affine path over a fresh partition (wire round-trip)."""
    return SliceEvaluator.for_sharded(
        GraphPartitioner(num_shards).partition(graph),
        injective=injective,
        fallback=PatternMatcher(graph, injective=injective),
    )


def assert_blocks_and_affine_agree(graph, query, num_shards, injective=True):
    """The dual assertion: the case must hold through per-shard
    seed-restricted blocks of the full-graph matcher (the coordinator
    fallback's decomposition) AND through the affine slice path."""
    reference = PatternMatcher(graph, injective=injective)
    expected_count = reference.count(query)
    expected_matches = result_key(reference.match(query))
    shards = GraphPartitioner(num_shards).partition(graph).shards
    order = canonical_edge_order(query)
    assert expected_count == sum(
        reference.count(query, edge_order=order, seed_restrict=shard.vertex_ids)
        for shard in shards
    )
    blocks = [
        binding
        for shard in shards
        for binding in reference.match(
            query, edge_order=order, seed_restrict=shard.vertex_ids
        )
    ]
    assert result_key(blocks) == expected_matches
    affine = affine_evaluator(graph, num_shards, injective=injective)
    assert affine.count(query) == expected_count
    assert result_key(affine.match(query)) == expected_matches
    return expected_count


class TestCrossShardEdgeCases:
    def test_self_loop_on_boundary_vertex(self):
        """Vertex 2 closes shard 0's range, carries a self-loop AND a
        cross-shard edge; the self-loop must be found exactly once."""
        g = PropertyGraph()
        for _ in range(6):
            g.add_vertex(type="node")
        g.add_edge(2, 2, "likes")  # self-loop on the shard-0/shard-1 cut
        g.add_edge(2, 3, "likes")  # boundary edge from the same vertex
        g.add_edge(3, 2, "likes")  # and back across
        g.add_edge(0, 1, "likes")
        q = GraphQuery()
        x = q.add_vertex(predicates={"type": equals("node")})
        y = q.add_vertex(predicates={"type": equals("node")})
        q.add_edge(x, y, types={"likes"}, directions=BOTH_DIRECTIONS)
        for num_shards in (2, 3):
            # homomorphic: self-loops are injectively unmatchable
            count = assert_blocks_and_affine_agree(
                g, q, num_shards, injective=False
            )
            assert count > 0

    def test_multi_type_edge_crossing_shards(self):
        """Parallel edges of different types between the same cross-shard
        endpoint pair; single- and multi-type queries must all agree."""
        g = PropertyGraph()
        for _ in range(4):
            g.add_vertex(type="node")
        g.add_edge(1, 2, "r")  # crosses the 2-shard cut
        g.add_edge(1, 2, "s")  # same endpoints, different type
        g.add_edge(2, 1, "r")  # reverse direction
        g.add_edge(0, 3, "s")  # long-range cross edge
        for types in ({"r"}, {"s"}, {"r", "s"}):
            q = GraphQuery()
            x = q.add_vertex(predicates={"type": equals("node")})
            y = q.add_vertex()
            q.add_edge(x, y, types=types)
            count = assert_blocks_and_affine_agree(g, q, 2)
            assert count > 0

    def test_empty_shard(self):
        """More shards than vertices: empty shards contribute empty
        blocks, never errors."""
        g = PropertyGraph()
        a = g.add_vertex(type="x")
        b = g.add_vertex(type="y")
        g.add_edge(a, b, "rel")
        q = GraphQuery()
        x = q.add_vertex(predicates={"type": equals("x")})
        y = q.add_vertex(predicates={"type": equals("y")})
        q.add_edge(x, y, types={"rel"})
        assert assert_blocks_and_affine_agree(g, q, 5) == 1

    def test_seed_pool_confined_to_one_shard(self):
        """Every seed candidate lives in shard 0; the other shards'
        blocks must come back empty without touching foreign data."""
        g = PropertyGraph()
        for index in range(8):
            g.add_vertex(type="rare" if index < 2 else "common")
        for index in range(2):
            g.add_edge(index, 4 + index, "rel")  # rare -> common, cross-shard
        g.add_edge(4, 5, "rel")
        q = GraphQuery()
        x = q.add_vertex(predicates={"type": equals("rare")})
        y = q.add_vertex(predicates={"type": equals("common")})
        q.add_edge(x, y, types={"rel"})
        assert assert_blocks_and_affine_agree(g, q, 4) == 2
        # the seed-owning shard served its block locally; no block
        # needed the coordinator (empty-seed shards return 0 directly)
        affine = affine_evaluator(g, 4)
        assert affine.count(q) == 2
        assert affine.fallbacks == 0


class TestCanonicalEdgeOrder:
    def test_pure_function_of_the_query(self):
        q1 = typed_query("person", "workAt")
        q2 = typed_query("person", "workAt")
        assert canonical_edge_order(q1) == canonical_edge_order(q2)

    def test_connected_traversal(self):
        """Frontier edges first: the order must never strand a later
        edge without a bound endpoint in a connected query."""
        q = GraphQuery()
        a, b, c = (q.add_vertex() for _ in range(3))
        q.add_edge(b, c, eid=5)
        q.add_edge(a, b, eid=1)
        order = canonical_edge_order(q)
        assert order == (1, 5)  # lowest eid seeds, then its frontier

    def test_disconnected_query_blocks_always_miss(self):
        """Affine routing keys off ``GraphQuery.is_connected``: a
        disconnected query's blocks must miss on every slice (later
        seeds need the whole graph)."""
        g = PropertyGraph()
        for _ in range(4):
            g.add_vertex(type="node")
        g.add_edge(0, 1, "r")
        q = typed_query("node", "r")
        q.add_vertex()  # isolated vertex -> second component
        assert not q.is_connected()
        evaluator = affine_evaluator(g, 2)
        assert evaluator.count_block(0, q) is None
        assert evaluator.count_block(1, q) is None
        # with the fallback the merge is still exact
        assert evaluator.count(q) == PatternMatcher(g).count(q)


class TestSliceMisses:
    def test_second_hop_off_shard_misses_and_falls_back(self):
        """a -> b -> c with b remote: the slice holding a can check b
        (halo) but not expand from it -- the block must miss, and the
        fallback must resolve it to the exact count."""
        g = PropertyGraph()
        for _ in range(6):
            g.add_vertex(type="node")
        g.add_edge(0, 3, "r")  # shard 0 -> shard 1
        g.add_edge(3, 5, "s")  # second hop entirely inside shard 1
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("node")})
        b = q.add_vertex()
        c = q.add_vertex()
        q.add_edge(a, b, types={"r"})
        q.add_edge(b, c, types={"s"})
        affine = affine_evaluator(g, 2)
        assert affine.count(q) == 1
        assert affine.misses > 0
        assert affine.fallbacks > 0

    def test_miss_without_fallback_raises(self):
        g = PropertyGraph()
        for _ in range(6):
            g.add_vertex(type="node")
        g.add_edge(0, 3, "r")
        g.add_edge(3, 5, "s")
        sharded = GraphPartitioner(2).partition(g)
        evaluator = SliceEvaluator.for_sharded(sharded)  # no fallback
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("node")})
        b = q.add_vertex()
        c = q.add_vertex()
        q.add_edge(a, b, types={"r"})
        q.add_edge(b, c, types={"s"})
        # the per-block verdict is a plain miss ...
        assert evaluator.count_block(0, q) is None
        # ... and the whole-query merge cannot be completed
        with pytest.raises(ShardMiss):
            evaluator.count(q)

    def test_partial_evaluator_refuses_whole_query_merges(self):
        """A worker-style evaluator holding a subset of the shards must
        raise on count()/match() -- never return a partial total."""
        from repro.core.serialize import shard_to_wire

        g = PropertyGraph()
        for index in range(8):
            g.add_vertex(type="node")
            if index:
                g.add_edge(index - 1, index, "r")
        sharded = GraphPartitioner(2).partition(g)
        partial = SliceEvaluator.from_wire_payloads([shard_to_wire(sharded, 0)])
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("node")})
        b = q.add_vertex()
        q.add_edge(a, b, types={"r"})
        assert partial.count_block(0, q) is not None  # blocks still served
        with pytest.raises(ValueError):
            partial.count(q)
        with pytest.raises(ValueError):
            partial.match(q)

    def test_slice_accessors_raise_on_foreign_data(self):
        g = PropertyGraph()
        for _ in range(4):
            g.add_vertex(type="node")
        g.add_edge(1, 2, "r")
        sharded = GraphPartitioner(2).partition(g)
        evaluator = SliceEvaluator.for_sharded(sharded)
        slice0 = evaluator.slices[0]
        assert slice0.vertex_attributes(2)["type"] == "node"  # halo: readable
        with pytest.raises(ShardMiss):
            slice0.out_edges(2)  # halo adjacency is not held
        with pytest.raises(ShardMiss):
            slice0.vertex_attributes(3)  # fully foreign vertex
        with pytest.raises(ShardMiss):
            slice0.edge(999)
        with pytest.raises(TypeError):
            slice0.add_vertex(type="node")


class TestAffinePlacementMap:
    def test_round_robin_balance(self):
        assert affine_placement(4, 2) == {0: 0, 1: 1, 2: 0, 3: 1}
        assert affine_placement(2, 4) == {0: 0, 1: 1}  # never more workers than shards
        assert affine_placement(3, 1) == {0: 0, 1: 0, 2: 0}

    def test_wire_payload_scales_down_with_shards(self):
        """The memory headline, asserted at the payload level: one
        shard's wire bytes at 4 shards are well under half the full
        payload (the bench section gates the end-to-end ratio)."""
        import pickle

        from repro.core.serialize import graph_to_dict

        g = PropertyGraph()
        for hub in range(40):
            h = g.add_vertex(type="hub")
            for _ in range(10):
                leaf = g.add_vertex(type="leaf", name=f"n{hub % 7}")
                g.add_edge(h, leaf, "rel")
        full = len(pickle.dumps(graph_to_dict(g), pickle.HIGHEST_PROTOCOL))
        sharded = GraphPartitioner(4).partition(g)
        per_shard = [
            len(pickle.dumps(shard_to_wire(sharded, i), pickle.HIGHEST_PROTOCOL))
            for i in range(4)
        ]
        assert max(per_shard) * 2 < full


@pytest.fixture(scope="module")
def affine_graph():
    g = PropertyGraph()
    for tag in range(6):
        p = g.add_vertex(type="person", name=f"p{tag}")
        u = g.add_vertex(type="university", name=f"u{tag % 2}")
        g.add_edge(p, u, "workAt", sinceYear=2000 + tag)
        g.add_edge(p, u, "studyAt")
        g.add_edge(p, p, "knows")  # self-loop on a potential boundary vertex
    return g


@pytest.fixture(scope="module")
def affine_executor(affine_graph):
    with ProcessExecutor(
        affine_graph, max_workers=2, shards=4
    ) as executor:
        executor.warm_up()
        yield executor


class TestAffineProcessExecutor:
    """The real cross-process affine path (the boundary the in-process
    SliceEvaluator tests cannot cover)."""

    def test_protocol_and_placement_surface(self, affine_executor):
        assert affine_executor.supports_queries
        assert affine_executor.affine
        info = affine_executor.info()["pools"]
        assert info["placement"] == "affine"
        assert info["placement_map"] == {0: 0, 1: 1, 2: 0, 3: 1}

    def test_warm_up_spawns_one_process_per_worker(self, affine_graph):
        with ProcessExecutor(affine_graph, max_workers=2, shards=2) as executor:
            pids = executor.warm_up()
            assert len(pids) == 2
            assert len(set(pids)) == 2

    def test_counts_match_serial_matcher(self, affine_graph, affine_executor):
        reference = PatternMatcher(affine_graph)
        queries = [
            typed_query("person", "workAt"),
            typed_query("person", "studyAt"),
            typed_query("person", "missingEdgeType"),
            typed_query("university", "workAt"),
        ]
        assert affine_executor.run_queries(queries) == [
            reference.count(q) for q in queries
        ]

    def test_bounded_counts_and_submission_order(self, affine_graph, affine_executor):
        queries = [typed_query("person", "workAt"), typed_query("person", "knows")]
        # knows edges are self-loops: injectively unmatchable
        assert affine_executor.run_queries(queries, limit=2) == [2, 0]
        assert affine_executor.run_queries([]) == []

    def test_count_sharded_value_identical(self, affine_graph, affine_executor):
        reference = PatternMatcher(affine_graph)
        query = typed_query("person", "workAt")
        assert affine_executor.count_sharded(query) == reference.count(query)
        for limit in (1, 3, 50):
            assert affine_executor.count_sharded(query, limit=limit) == (
                reference.count(query, limit=limit)
            )

    def test_disconnected_query_resolves_coordinator_side(
        self, affine_graph, affine_executor
    ):
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("person")})
        b = q.add_vertex(predicates={"type": equals("university")})
        q.add_edge(a, b, types={"workAt"})
        q.add_vertex()  # second component: no slice can evaluate this
        before = affine_executor.affine_fallbacks
        expected = PatternMatcher(affine_graph).count(q)
        assert affine_executor.run_queries([q]) == [expected]
        assert affine_executor.affine_fallbacks == before + 1

    def test_payload_accounting(self, affine_executor):
        info = affine_executor.info()["pools"]
        assert len(info["payload_bytes_per_worker"]) == 2
        assert all(b > 0 for b in info["payload_bytes_per_worker"])
        assert info["payload_bytes_max"] == max(info["payload_bytes_per_worker"])
        assert info["full_snapshot_bytes"] > 0
        assert info["payload_ratio"] > 0.0

    def test_stale_snapshot_rebuilds_affine_pools(self):
        g = PropertyGraph()
        a = g.add_vertex(type="person", name="solo")
        b = g.add_vertex(type="university", name="uni")
        g.add_edge(a, b, "workAt")
        query = typed_query("person", "workAt")
        with ProcessExecutor(g, max_workers=1, shards=2) as executor:
            assert executor.run_queries([query]) == [1]
            rebuilds = executor.pool_rebuilds
            c = g.add_vertex(type="person", name="later")
            g.add_edge(c, b, "workAt")
            assert executor.run_queries([query]) == [2]
            assert executor.pool_rebuilds == rebuilds + 1
            assert executor.info()["pools"]["snapshot_version"] == g.version

    @pytest.mark.parametrize("limit", [0, -1])
    def test_nonpositive_limit_counts_nothing(self, limit):
        """The sum-and-clamp merges agree with the unsharded count: a
        ``limit <= 0`` counts nothing, in process and across workers."""
        g = PropertyGraph()
        for name in ("a", "b"):
            g.add_edge(
                g.add_vertex(type="person", name=name),
                g.add_vertex(type="university", name=name),
                "workAt",
            )
        query = typed_query("person", "workAt")
        assert PatternMatcher(g).count(query, limit=limit) == 0
        assert affine_evaluator(g, 2).count(query, limit=limit) == 0
        with ProcessExecutor(g, max_workers=1, shards=2) as executor:
            assert executor.run_queries([query], limit=limit) == [0]
            assert executor.count_sharded(query, limit=limit) == 0

    def test_one_shard_count_sharded_is_a_plain_count(self, affine_graph):
        """``shards == 1`` is the full-snapshot pool: no partition, no
        affine pools, and ``count_sharded`` is a plain pool count."""
        query = typed_query("person", "workAt")
        with ProcessExecutor(affine_graph, max_workers=1) as executor:
            assert not executor.affine
            assert executor.count_sharded(query) == 6
            pools = executor.info()["pools"]
        assert pools["placement"] == "full"
        assert pools["sharded_counts"] == 0
        assert pools["queries_shipped"] == 1

    def test_validation(self, affine_graph):
        with pytest.raises(ValueError):
            ProcessExecutor(affine_graph, shards=0)


class TestAffineTrajectoryIdentity:
    """Acceptance: at batch size 1 the affine process path reproduces the
    serial search trajectory bit-identically (field-by-field)."""

    def test_coarse_batch1_bit_identical(self, affine_graph, affine_executor):
        failed = typed_query("person", "missingEdgeType")
        serial = CoarseRewriter(
            context=ExecutionContext(affine_graph),
            executor=SerialExecutor(),
            max_evaluations=120,
        ).rewrite(failed, k=3)
        affine = CoarseRewriter(
            context=ExecutionContext(affine_graph),
            executor=affine_executor,
            batch_size=1,
            max_evaluations=120,
        ).rewrite(failed, k=3)
        assert coarse_trajectory(serial) == coarse_trajectory(affine)

    def test_traverse_search_tree_batch1_bit_identical(
        self, affine_graph, affine_executor
    ):
        query = typed_query("person", "workAt")
        threshold = CardinalityThreshold.at_least(8)
        serial = TraverseSearchTree(
            context=ExecutionContext(affine_graph),
            threshold=threshold,
            max_evaluations=100,
        ).search(query)
        affine = TraverseSearchTree(
            context=ExecutionContext(affine_graph),
            threshold=threshold,
            executor=affine_executor,
            batch_size=1,
            max_evaluations=100,
        ).search(query)
        assert fine_trajectory(serial) == fine_trajectory(affine)


class TestServiceAffinePlacement:
    def failing_query(self) -> GraphQuery:
        return typed_query("person", "missingEdgeType")

    def explanation_key(self, report):
        return sorted(
            (repr(r.query.signature()), r.cardinality)
            for r in report.rewriting.explanations
        )

    def test_explain_matches_serial_service(self, affine_graph):
        query = self.failing_query()
        reference = WhyQueryService().explain(affine_graph, query)
        with WhyQueryService(
            executor="process", process_workers=1, shards=2
        ) as service:
            report = service.explain(affine_graph, query)
            stats = service.stats()
        assert report.problem is CardinalityProblem.EMPTY
        assert self.explanation_key(report) == self.explanation_key(reference)
        pools = stats["pools"]
        assert pools["placement"] == "affine"
        assert pools["queries_shipped"] > 0
        assert pools["payload_bytes"] > 0
        assert pools["full_snapshot_bytes"] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            WhyQueryService(shards=2)  # affine placement needs executor="process"
