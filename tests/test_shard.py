"""Sharded partitioning + process-parallel evaluation (repro.shard).

Acceptance (ISSUE 4): at batch size 1 the ProcessExecutor reproduces the
serial search trajectory bit-identically, and ShardedGraph candidate /
expansion results are permutation-identical to the unsharded matcher
across shard counts {1, 2, 4}.
"""

from __future__ import annotations

import pytest

from repro.core import (
    BOTH_DIRECTIONS,
    GraphQuery,
    PropertyGraph,
    equals,
    one_of,
)
from repro.core.errors import UnknownVertexError
from repro.exec import (
    CandidateEvaluator,
    EvaluationBudget,
    ExecutionContext,
    SerialExecutor,
)
from repro.finegrained import TraverseSearchTree
from repro.matching import PatternMatcher
from repro.metrics import CardinalityProblem, CardinalityThreshold
from repro.rewrite import CoarseRewriter
from repro.service import WhyQueryService
from repro.shard import (
    GraphPartitioner,
    ProcessExecutor,
    ShardedGraph,
    ShardedMatcher,
)

SHARD_COUNTS = (1, 2, 4)


def typed_query(vertex_type: str, edge_type: str) -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": equals(vertex_type)})
    b = q.add_vertex()
    q.add_edge(a, b, types={edge_type})
    return q


def result_key(results):
    """Order-insensitive identity of a ResultSet."""
    return sorted((r.vertex_bindings, r.edge_bindings) for r in results)


@pytest.fixture
def sharded2(tiny_graph) -> ShardedGraph:
    return GraphPartitioner(2).partition(tiny_graph)


class TestGraphPartitioner:
    def test_balanced_contiguous_ranges(self, tiny_graph):
        sharded = GraphPartitioner(4).partition(tiny_graph)
        sizes = [s.num_vertices for s in sharded.shards]
        assert sum(sizes) == tiny_graph.num_vertices
        assert max(sizes) - min(sizes) <= 1
        # contiguity: every shard's range ends before the next begins
        previous_high = -1
        for shard in sharded.shards:
            if not shard.vids:
                continue
            assert shard.vids[0] > previous_high
            assert list(shard.vids) == sorted(shard.vids)
            previous_high = shard.vids[-1]

    def test_shard_routing(self, sharded2, tiny_graph):
        for vid in tiny_graph.vertices():
            shard = sharded2.shard_of(vid)
            assert shard.owns(vid)
            assert vid in shard.vertex_ids
        with pytest.raises(UnknownVertexError):
            sharded2.shard_of(999)

    def test_more_shards_than_vertices(self):
        g = PropertyGraph()
        a = g.add_vertex(type="x")
        b = g.add_vertex(type="y")
        g.add_edge(a, b, "rel")
        sharded = GraphPartitioner(5).partition(g)
        assert sharded.num_shards == 5
        assert sharded.num_vertices == 2
        assert sharded.shard_of(a).index != sharded.shard_of(b).index
        # the cross-shard edge lands in the boundary index
        assert sharded.boundary_edges() == frozenset({0})

    def test_boundary_index(self, sharded2, tiny_graph):
        boundary = sharded2.boundary_edges()
        for record in tiny_graph.edges():
            crosses = (
                sharded2.shard_of(record.source).index
                != sharded2.shard_of(record.target).index
            )
            assert (record.eid in boundary) == crosses
        # pairwise lists partition the boundary set
        pairwise = set()
        for i in range(sharded2.num_shards):
            for j in range(sharded2.num_shards):
                pairwise.update(sharded2.boundary_between(i, j))
        assert pairwise == set(boundary)
        # per-shard views agree with the pairwise index
        for shard in sharded2.shards:
            for eid in shard.boundary_out:
                assert sharded2.edge(eid).source in shard.vertex_ids
            for eid in shard.boundary_in:
                assert sharded2.edge(eid).target in shard.vertex_ids

    def test_partition_stats(self, sharded2, tiny_graph):
        stats = sharded2.partition_stats()
        assert stats["num_shards"] == 2
        assert sum(stats["vertices_per_shard"]) == tiny_graph.num_vertices
        assert sum(stats["edges_per_shard"]) == tiny_graph.num_edges
        assert 0.0 <= stats["boundary_fraction"] <= 1.0
        assert stats["version"] == tiny_graph.version

    def test_validation(self):
        with pytest.raises(ValueError):
            GraphPartitioner(0)


class TestShardedGraphFacade:
    """The façade must agree with the source graph accessor-by-accessor."""

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_accessors_match_source(self, tiny_graph, num_shards):
        sharded = GraphPartitioner(num_shards).partition(tiny_graph)
        assert sharded.version == tiny_graph.version
        assert sharded.num_vertices == tiny_graph.num_vertices
        assert sharded.num_edges == tiny_graph.num_edges
        assert sharded.edge_types() == tiny_graph.edge_types()
        assert sharded.edge_type_counts() == tiny_graph.edge_type_counts()
        assert list(sharded.vertices()) == sorted(tiny_graph.vertices())
        assert [r.eid for r in sharded.edges()] == [
            r.eid for r in tiny_graph.edges()
        ]
        for vid in tiny_graph.vertices():
            assert sharded.vertex_attributes(vid) == tiny_graph.vertex_attributes(vid)
            assert list(sharded.out_edges(vid)) == list(tiny_graph.out_edges(vid))
            assert list(sharded.in_edges(vid)) == list(tiny_graph.in_edges(vid))
            assert sharded.degree(vid) == tiny_graph.degree(vid)
            for t in tiny_graph.edge_types():
                assert list(sharded.out_edges_of_type(vid, t)) == list(
                    tiny_graph.out_edges_of_type(vid, t)
                )
                assert list(sharded.in_edges_of_type(vid, t)) == list(
                    tiny_graph.in_edges_of_type(vid, t)
                )
                assert sharded.out_degree_of_type(vid, t) == (
                    tiny_graph.out_degree_of_type(vid, t)
                )
        for t in tiny_graph.edge_types():
            assert sharded.edges_of_type(t) == tiny_graph.edges_of_type(t)
            assert sharded.num_edges_of_type(t) == tiny_graph.num_edges_of_type(t)
        assert set(sharded.vertex_attr_values("type")) == set(
            tiny_graph.vertex_attr_values("type")
        )
        assert sharded.vertex_value_counts("name") == (
            tiny_graph.vertex_value_counts("name")
        )
        for value in ("person", "university", "city"):
            assert sharded.vertices_with("type", value) == (
                tiny_graph.vertices_with("type", value)
            )
            assert sharded.num_vertices_with("type", value) == (
                tiny_graph.num_vertices_with("type", value)
            )

    def test_read_only(self, sharded2):
        with pytest.raises(TypeError):
            sharded2.add_vertex(type="person")
        with pytest.raises(TypeError):
            sharded2.add_edge(0, 1, "knows")

    def test_subgraph_matches_source(self, sharded2, tiny_graph):
        keep = [0, 1, 4]
        sub = sharded2.subgraph(keep)
        ref = tiny_graph.subgraph(keep)
        assert sub.num_vertices == ref.num_vertices
        assert sub.num_edges == ref.num_edges
        assert sub.edge_type_counts() == ref.edge_type_counts()

    def test_unmodified_matcher_runs_on_facade(self, tiny_graph, sharded2):
        """The façade is a drop-in evaluation substrate: a plain
        PatternMatcher (and a whole ExecutionContext) accepts it."""
        query = typed_query("person", "workAt")
        assert PatternMatcher(sharded2).count(query) == (
            PatternMatcher(tiny_graph).count(query)
        )
        context = ExecutionContext(sharded2)
        assert context.count(query) == 3
        assert context.statistics.estimate_query_cardinality(query) > 0


class TestShardedMatcher:
    """Acceptance: permutation-identical results across shard counts."""

    def queries(self):
        knows_both = GraphQuery()
        a = knows_both.add_vertex(predicates={"type": equals("person")})
        b = knows_both.add_vertex(predicates={"type": equals("person")})
        knows_both.add_edge(a, b, types={"knows"}, directions=BOTH_DIRECTIONS)
        two_hop = GraphQuery()
        p = two_hop.add_vertex(predicates={"type": equals("person")})
        u = two_hop.add_vertex(predicates={"type": equals("university")})
        c = two_hop.add_vertex(predicates={"type": equals("city")})
        two_hop.add_edge(p, u, types={"workAt"})
        two_hop.add_edge(u, c, types={"locatedIn"})
        untyped_vertex = GraphQuery()
        x = untyped_vertex.add_vertex()
        y = untyped_vertex.add_vertex(predicates={"type": equals("country")})
        untyped_vertex.add_edge(x, y, types={"isPartOf"})
        return {
            "work": typed_query("person", "workAt"),
            "knows_both": knows_both,
            "two_hop": two_hop,
            "untyped_seed": untyped_vertex,
            "names": GraphQuery(),
        }

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_match_permutation_identical(self, tiny_graph, num_shards):
        reference = PatternMatcher(tiny_graph)
        sharded = ShardedMatcher(GraphPartitioner(num_shards).partition(tiny_graph))
        for name, query in self.queries().items():
            if query.num_vertices == 0:
                continue
            expected = reference.match(query)
            merged = sharded.match(query)
            assert result_key(merged) == result_key(expected), (name, num_shards)
            assert sharded.count(query) == expected.cardinality

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_self_loop_permutation_identical(self, num_shards):
        g = PropertyGraph()
        a = g.add_vertex(type="node")
        b = g.add_vertex(type="node")
        g.add_edge(a, a, "likes")
        g.add_edge(a, b, "likes")
        g.add_edge(b, b, "likes")
        q = GraphQuery()
        x = q.add_vertex(predicates={"type": equals("node")})
        y = q.add_vertex(predicates={"type": equals("node")})
        q.add_edge(x, y, types={"likes"}, directions=BOTH_DIRECTIONS)
        reference = PatternMatcher(g, injective=False)
        sharded = ShardedMatcher(
            GraphPartitioner(num_shards).partition(g), injective=False
        )
        assert result_key(sharded.match(q)) == result_key(reference.match(q))

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_bounded_count_value_identical(self, tiny_graph, num_shards):
        reference = PatternMatcher(tiny_graph)
        sharded = ShardedMatcher(GraphPartitioner(num_shards).partition(tiny_graph))
        query = typed_query("person", "workAt")
        for limit in (1, 2, 3, 100):
            assert sharded.count(query, limit=limit) == reference.count(
                query, limit=limit
            ), (num_shards, limit)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_candidates_partition_the_merged_set(self, tiny_graph, num_shards):
        sharded_graph = GraphPartitioner(num_shards).partition(tiny_graph)
        sharded = ShardedMatcher(sharded_graph)
        query = GraphQuery()
        vid = query.add_vertex(
            predicates={"type": equals("person"), "name": one_of("Anna", "Bob")}
        )
        merged, per_shard = sharded.candidates(query.vertex(vid))
        assert merged == frozenset({0, 1})
        union = set()
        for index, block in per_shard.items():
            assert block is not None
            assert block <= sharded_graph.shards[index].vertex_ids
            assert not (union & block)  # disjoint
            union |= block
        assert union == merged

    def test_unconstrained_vertex_candidates(self, sharded2):
        query = GraphQuery()
        vid = query.add_vertex()
        merged, per_shard = ShardedMatcher(sharded2).candidates(query.vertex(vid))
        assert merged is None
        assert all(block is None for block in per_shard.values())

    def test_requires_sharded_graph(self, tiny_graph):
        with pytest.raises(TypeError):
            ShardedMatcher(tiny_graph)

    def test_exists_and_info(self, sharded2):
        sharded = ShardedMatcher(sharded2)
        assert sharded.exists(typed_query("person", "workAt"))
        assert not sharded.exists(typed_query("person", "missingEdgeType"))
        info = sharded.info()
        assert info["shards"] == 2
        assert info["shard_tasks"] > 0


@pytest.fixture(scope="module")
def process_graph():
    g = PropertyGraph()
    for tag in range(6):
        p = g.add_vertex(type="person", name=f"p{tag}")
        u = g.add_vertex(type="university", name=f"u{tag % 2}")
        g.add_edge(p, u, "workAt", sinceYear=2000 + tag)
        g.add_edge(p, u, "studyAt")
        g.add_edge(p, p, "knows")  # self-loop, exercises snapshot fidelity
    return g


@pytest.fixture(scope="module")
def process_executor(process_graph):
    with ProcessExecutor(process_graph, max_workers=2, shards=2) as executor:
        executor.warm_up()
        yield executor


class TestProcessExecutor:
    def test_protocol_surface(self, process_executor):
        assert process_executor.name == "process"
        assert process_executor.supports_queries
        assert process_executor.preferred_batch == 2

    def test_warm_up_spawns_distinct_workers(self, process_graph):
        with ProcessExecutor(process_graph, max_workers=2) as executor:
            pids = executor.warm_up(barrier_s=0.1)
            assert len(set(pids)) == 2

    def test_counts_match_in_process_matcher(self, process_graph, process_executor):
        reference = PatternMatcher(process_graph)
        queries = [
            typed_query("person", "workAt"),
            typed_query("person", "studyAt"),
            typed_query("person", "missingEdgeType"),
            typed_query("university", "workAt"),
        ]
        counts = process_executor.run_queries(queries)
        assert counts == [reference.count(q) for q in queries]

    def test_submission_order_and_limit(self, process_graph, process_executor):
        queries = [typed_query("person", "workAt"), typed_query("person", "knows")]
        # the knows edges are self-loops: injectively unmatchable, so the
        # positional results must show [clamped, zero] in submission order
        assert process_executor.run_queries(queries, limit=2) == [2, 0]
        assert process_executor.run_queries([]) == []

    def test_count_sharded_value_identical(self, process_graph, process_executor):
        reference = PatternMatcher(process_graph)
        query = typed_query("person", "workAt")
        assert process_executor.count_sharded(query) == reference.count(query)
        for limit in (1, 3, 50):
            assert process_executor.count_sharded(query, limit=limit) == (
                reference.count(query, limit=limit)
            )

    def test_evaluator_routes_queries_through_pool(
        self, process_graph, process_executor
    ):
        context = ExecutionContext(process_graph)
        q = typed_query("person", "workAt")
        evaluator = CandidateEvaluator(context, executor=process_executor)
        results = evaluator.evaluate([q, q, typed_query("person", "studyAt")])
        assert [(r.index, r.cardinality) for r in results] == [
            (0, 6),
            (1, 6),
            (2, 6),
        ]
        # duplicates were deduplicated before shipping; the local cache
        # was bypassed entirely (the workers own the evaluation)
        assert context.cache.stats.misses == 0

    def test_budget_truncation_at_coordinator(self, process_graph, process_executor):
        budget = EvaluationBudget(2)
        evaluator = CandidateEvaluator(
            ExecutionContext(process_graph),
            executor=process_executor,
            budget=budget,
        )
        results = evaluator.evaluate([typed_query("person", "workAt")] * 5)
        assert len(results) == 2
        assert budget.exhausted

    def test_stale_snapshot_rebuilds_pool(self):
        g = PropertyGraph()
        a = g.add_vertex(type="person", name="solo")
        b = g.add_vertex(type="university", name="uni")
        g.add_edge(a, b, "workAt")
        query = typed_query("person", "workAt")
        with ProcessExecutor(g, max_workers=1) as executor:
            assert executor.run_queries([query]) == [1]
            rebuilds = executor.pool_rebuilds
            c = g.add_vertex(type="person", name="later")
            g.add_edge(c, b, "workAt")
            assert executor.run_queries([query]) == [2]
            assert executor.pool_rebuilds == rebuilds + 1
            assert executor.info()["pools"]["snapshot_version"] == g.version

    def test_generic_thunks_fall_back_in_process(self, process_executor):
        assert process_executor.run([lambda: 1, lambda: 2]) == [1, 2]

    def test_validation(self, process_graph):
        with pytest.raises(ValueError):
            ProcessExecutor(process_graph, max_workers=0)
        with pytest.raises(ValueError):
            ProcessExecutor(process_graph, shards=0)

    def test_concurrent_first_touch_builds_one_pool(self, process_graph):
        """The service serves concurrent explains; two threads racing
        the first batch must not each spawn (and leak) a worker pool."""
        from concurrent.futures import ThreadPoolExecutor as Threads

        query = typed_query("person", "workAt")
        with ProcessExecutor(process_graph, max_workers=1) as executor:
            with Threads(max_workers=4) as threads:
                results = list(
                    threads.map(
                        lambda _: executor.run_queries([query]), range(4)
                    )
                )
            assert results == [[6]] * 4
            assert executor.pool_rebuilds == 1

    def test_close_is_idempotent_and_pool_respawns(self, process_graph):
        executor = ProcessExecutor(process_graph, max_workers=1)
        query = typed_query("person", "workAt")
        assert executor.run_queries([query]) == [6]
        executor.close()
        executor.close()
        assert executor.run_queries([query]) == [6]
        executor.close()


def coarse_trajectory(result):
    """Everything the coarse search decided, minus wall-clock times."""
    return {
        "evaluated": result.evaluated,
        "generated": result.generated,
        "queue_peak": result.queue_peak,
        "budget_exhausted": result.budget_exhausted,
        "discovered": [
            (
                repr(r.query.signature()),
                r.cardinality,
                r.syntactic,
                tuple(op.describe() for op in r.modifications),
            )
            for r in result.discovered
        ],
        "explanations": [
            (repr(r.query.signature()), r.cardinality) for r in result.explanations
        ],
        "convergence": [
            (p.evaluations, p.found, p.best_syntactic) for p in result.convergence
        ],
    }


def fine_trajectory(result):
    return {
        "best": repr(result.best_query.signature()),
        "cardinality": result.best_cardinality,
        "distance": result.best_distance,
        "syntactic": result.best_syntactic,
        "modifications": tuple(op.describe() for op in result.modifications),
        "trace": result.cardinality_trace,
        "evaluated": result.evaluated,
        "generated": result.generated,
        "tree_size": result.tree_size,
        "converged": result.converged,
    }


class TestProcessTrajectoryIdentity:
    """Acceptance: ProcessExecutor at batch size 1 reproduces the serial
    search trajectory bit-identically -- the worker-side counts must be
    indistinguishable from in-process evaluation."""

    def test_coarse_batch1_bit_identical(self, process_graph, process_executor):
        failed = typed_query("person", "missingEdgeType")
        serial = CoarseRewriter(
            context=ExecutionContext(process_graph),
            executor=SerialExecutor(),
            max_evaluations=120,
        ).rewrite(failed, k=3)
        process = CoarseRewriter(
            context=ExecutionContext(process_graph),
            executor=process_executor,
            batch_size=1,
            max_evaluations=120,
        ).rewrite(failed, k=3)
        assert coarse_trajectory(serial) == coarse_trajectory(process)

    def test_coarse_equal_batch_size_identical(self, process_graph, process_executor):
        failed = typed_query("person", "missingEdgeType")
        serial = CoarseRewriter(
            context=ExecutionContext(process_graph),
            batch_size=2,
            max_evaluations=120,
        ).rewrite(failed, k=3)
        process = CoarseRewriter(
            context=ExecutionContext(process_graph),
            executor=process_executor,
            batch_size=2,
            max_evaluations=120,
        ).rewrite(failed, k=3)
        assert coarse_trajectory(serial) == coarse_trajectory(process)

    def test_traverse_search_tree_batch1_bit_identical(
        self, process_graph, process_executor
    ):
        query = typed_query("person", "workAt")
        threshold = CardinalityThreshold.at_least(8)
        serial = TraverseSearchTree(
            context=ExecutionContext(process_graph),
            threshold=threshold,
            max_evaluations=100,
        ).search(query)
        process = TraverseSearchTree(
            context=ExecutionContext(process_graph),
            threshold=threshold,
            executor=process_executor,
            batch_size=1,
            max_evaluations=100,
        ).search(query)
        assert fine_trajectory(serial) == fine_trajectory(process)


class TestServiceProcessMode:
    def failing_query(self) -> GraphQuery:
        return typed_query("person", "missingEdgeType")

    def explanation_key(self, report):
        return sorted(
            (repr(r.query.signature()), r.cardinality)
            for r in report.rewriting.explanations
        )

    def test_explain_matches_serial_service(self, process_graph):
        """process_workers=1 -> preferred batch 1 -> every request walks
        the serial trajectory, so the reports must match the plain
        service exactly (batch 1 is the serial trajectory)."""
        query = self.failing_query()
        reference = WhyQueryService().explain(process_graph, query)
        with WhyQueryService(executor="process", process_workers=1) as service:
            report = service.explain(process_graph, query)
            stats = service.stats()
        assert report.problem is CardinalityProblem.EMPTY
        assert self.explanation_key(report) == self.explanation_key(reference)
        pools = stats["pools"]
        assert pools["pools_live"] == 1
        assert pools["workers"] == 1
        assert pools["queries_shipped"] > 0

    def test_batched_process_service_is_deterministic(self, process_graph):
        """With a real worker batch (preferred batch = workers) the
        drained trajectory may legitimately differ from the serial one,
        but it must be deterministic request-over-request and its
        explanations genuine."""
        query = self.failing_query()
        with WhyQueryService(
            executor="process", process_workers=2, shards=2
        ) as service:
            reports = [service.explain(process_graph, query) for _ in range(3)]
            stats = service.stats()
        keys = [self.explanation_key(r) for r in reports]
        assert all(k == keys[0] for k in keys)
        assert all(r.rewriting.explanations for r in reports)
        assert all(
            x.cardinality > 0
            for r in reports
            for x in r.rewriting.explanations
        )
        pools = stats["pools"]
        assert pools["workers"] == 2
        assert pools["shards_per_pool"] == 2
        assert stats["per_graph"][0]["process_pool"]["pools"]["max_workers"] == 2

    def test_eviction_closes_worker_pool(self, process_graph):
        other = PropertyGraph()
        p = other.add_vertex(type="person", name="solo")
        u = other.add_vertex(type="university", name="uni")
        other.add_edge(p, u, "workAt")
        query = self.failing_query()
        with WhyQueryService(
            executor="process", process_workers=1, max_contexts=1
        ) as service:
            service.explain(process_graph, query)
            first_entry = service._pool[id(process_graph)]
            assert first_entry.executor.info()["pools"]["pool_live"]
            service.explain(other, query)
            stats = service.stats()
            # the first graph's slot was evicted and its pool shut down
            assert stats["service"]["evictions"] == 1
            assert not first_entry.executor.info()["pools"]["pool_live"]
            assert stats["pools"]["pools_live"] == 1

    def test_worker_semantics_follow_context_factory(self, process_graph):
        """A context_factory changing matcher semantics (homomorphic
        matching here) must reach the workers, or process-mode counts
        silently diverge from the serial service's."""
        from repro.exec import ExecutionContext

        def homomorphic(graph):
            return ExecutionContext(graph, injective=False)

        query = typed_query("person", "knows")  # self-loops: 0 injective
        serial = WhyQueryService(context_factory=homomorphic)
        reference = serial.context_for(process_graph).count(query)
        assert reference > 0  # non-injective finds the self-loops
        with WhyQueryService(
            executor="process", process_workers=1, context_factory=homomorphic
        ) as service:
            entry = service._entry_for(process_graph)
            assert entry.executor.injective is False
            assert entry.executor.run_queries([query]) == [reference]

    def test_eviction_defers_close_until_requests_drain(self, process_graph):
        """An entry evicted while a request is still executing keeps its
        worker pool alive until that request releases its lease."""
        other = PropertyGraph()
        p = other.add_vertex(type="person", name="solo")
        u = other.add_vertex(type="university", name="uni")
        other.add_edge(p, u, "workAt")
        with WhyQueryService(
            executor="process", process_workers=1, max_contexts=1
        ) as service:
            entry = service._entry_for(process_graph, lease=True)
            entry.executor.run_queries([typed_query("person", "workAt")])
            # another graph's request evicts the leased entry ...
            service.explain(other, self.failing_query())
            assert entry.retired
            # ... but the leased request's pool must still be usable
            assert entry.executor.run_queries(
                [typed_query("person", "studyAt")]
            ) == [6]
            assert entry.executor.info()["pools"]["pool_live"]
            # dropping the last lease closes the retired pool
            service._release_entry(entry)
            assert not entry.executor.info()["pools"]["pool_live"]

    def test_unknown_executor_string_rejected(self):
        with pytest.raises(ValueError):
            WhyQueryService(executor="threads")

    def test_validation(self):
        with pytest.raises(ValueError):
            WhyQueryService(shards=0)
        with pytest.raises(ValueError):
            WhyQueryService(executor="process", process_workers=0)
