"""Tests for the compiled matching backend: the interned CSR arrays
(:mod:`repro.matching.csr`), the lowered match programs
(:mod:`repro.matching.program`) and the ``compiled=True`` routing of
:class:`~repro.matching.matcher.PatternMatcher`.

The interpreter stays the correctness oracle throughout: every compiled
evaluation here is checked for value-identity against a fresh
interpreted matcher, and on unbounded evaluations for *steps*-identity
-- the compiled kernels must visit exactly the candidates the
interpreter visits, in the same order."""

import pytest

from repro.core import (
    BOTH_DIRECTIONS,
    GraphQuery,
    PropertyGraph,
    between,
    equals,
    one_of,
)
from repro.matching import (
    PatternMatcher,
    ProgramUnsupported,
    compiled_program,
    csr_for,
    csr_stats,
)
from repro.shard import GraphPartitioner, ShardMiss, SliceEvaluator


def oracle_pair(graph, injective=True):
    """(interpreted oracle, compiled matcher) over the same graph."""
    return (
        PatternMatcher(graph, injective=injective, compiled=False),
        PatternMatcher(graph, injective=injective, compiled=True),
    )


def match_key(results):
    return sorted((r.vertex_bindings, r.edge_bindings) for r in results)


@pytest.fixture
def two_hop() -> GraphQuery:
    """person -workAt-> university -locatedIn-> city"""
    q = GraphQuery()
    p = q.add_vertex(predicates={"type": equals("person")})
    u = q.add_vertex(predicates={"type": equals("university")})
    c = q.add_vertex(predicates={"type": equals("city")})
    q.add_edge(p, u, types={"workAt"})
    q.add_edge(u, c, types={"locatedIn"})
    return q


class TestCompiledAgreesWithInterpreter:
    def test_count_match_exists_and_steps(self, tiny_graph, two_hop):
        oracle, compiled = oracle_pair(tiny_graph)
        assert compiled.compiled and not oracle.compiled
        assert compiled.count(two_hop) == oracle.count(two_hop) == 3
        assert compiled.steps == oracle.steps  # exact candidate-identity
        assert match_key(compiled.match(two_hop)) == match_key(oracle.match(two_hop))
        assert compiled.exists(two_hop) is oracle.exists(two_hop) is True

    def test_multi_type_both_directions(self, tiny_graph):
        q = GraphQuery()
        p = q.add_vertex(predicates={"type": equals("person")})
        u = q.add_vertex(predicates={"type": equals("university")})
        q.add_edge(p, u, types={"workAt", "studyAt"}, directions=BOTH_DIRECTIONS)
        oracle, compiled = oracle_pair(tiny_graph)
        assert compiled.count(q) == oracle.count(q) == 4
        assert compiled.steps == oracle.steps

    def test_edge_attribute_predicates(self, tiny_graph):
        q = GraphQuery()
        p = q.add_vertex(predicates={"type": equals("person")})
        u = q.add_vertex(predicates={"type": equals("university")})
        q.add_edge(p, u, types={"workAt"}, predicates={"sinceYear": equals(2003)})
        oracle, compiled = oracle_pair(tiny_graph)
        assert compiled.count(q) == oracle.count(q) == 2
        assert compiled.steps == oracle.steps

    def test_interval_and_value_set_predicates(self, tiny_graph):
        q = GraphQuery()
        p = q.add_vertex(
            predicates={"type": equals("person"), "age": between(28, 40)}
        )
        other = q.add_vertex(predicates={"type": one_of("person", "university")})
        q.add_edge(p, other)
        oracle, compiled = oracle_pair(tiny_graph)
        assert compiled.count(q) == oracle.count(q)
        assert compiled.steps == oracle.steps

    def test_self_loop_under_both_directions(self):
        g = PropertyGraph()
        a = g.add_vertex(type="page", name="a")
        b = g.add_vertex(type="page", name="b")
        g.add_edge(a, a, "linksTo")
        g.add_edge(a, b, "linksTo")
        q = GraphQuery()
        v = q.add_vertex(predicates={"name": equals("a")})
        w = q.add_vertex()
        q.add_edge(v, w, types={"linksTo"}, directions=BOTH_DIRECTIONS)
        oracle, compiled = oracle_pair(g, injective=False)
        assert match_key(compiled.match(q)) == match_key(oracle.match(q))
        assert compiled.steps == oracle.steps

    def test_homomorphic_mode(self):
        g = PropertyGraph()
        x = g.add_vertex(type="person")
        y = g.add_vertex(type="person")
        g.add_edge(x, y, "knows")
        g.add_edge(y, x, "knows")
        q = GraphQuery()
        p1 = q.add_vertex(predicates={"type": equals("person")})
        p2 = q.add_vertex(predicates={"type": equals("person")})
        p3 = q.add_vertex(predicates={"type": equals("person")})
        q.add_edge(p1, p2, types={"knows"})
        q.add_edge(p2, p3, types={"knows"})
        assert PatternMatcher(g, compiled=True).count(q) == 0
        assert PatternMatcher(g, injective=False, compiled=True).count(q) == 2

    def test_closing_edge_between_bound_vertices(self, tiny_graph):
        # two parallel query edges over the same endpoints: the second
        # expand closes on an already-bound vertex (new_vid is None)
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("person")})
        b = q.add_vertex()
        q.add_edge(a, b, types={"knows"})
        q.add_edge(a, b, directions=BOTH_DIRECTIONS)
        oracle, compiled = oracle_pair(tiny_graph)
        assert compiled.count(q) == oracle.count(q)
        assert compiled.steps == oracle.steps

    def test_disconnected_query(self, tiny_graph):
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("person")})
        b = q.add_vertex()
        q.add_edge(a, b, types={"knows"})
        q.add_vertex(predicates={"type": equals("city")})
        oracle, compiled = oracle_pair(tiny_graph)
        assert compiled.count(q) == oracle.count(q)
        assert match_key(compiled.match(q)) == match_key(oracle.match(q))

    def test_single_vertex_query(self, tiny_graph):
        q = GraphQuery()
        q.add_vertex(predicates={"type": equals("person")})
        oracle, compiled = oracle_pair(tiny_graph)
        assert compiled.count(q) == oracle.count(q) == 4
        assert compiled.steps == oracle.steps

    def test_explicit_edge_order(self, tiny_graph, two_hop):
        oracle, compiled = oracle_pair(tiny_graph)
        assert compiled.count(two_hop, edge_order=[1, 0]) == oracle.count(
            two_hop, edge_order=[1, 0]
        )
        assert compiled.steps == oracle.steps

    def test_limit_semantics(self, tiny_graph, two_hop):
        oracle, compiled = oracle_pair(tiny_graph)
        for limit in (None, 0, 1, 2, 100):
            assert compiled.count(two_hop, limit=limit) == oracle.count(
                two_hop, limit=limit
            ), limit
            assert match_key(compiled.match(two_hop, limit=limit)) == match_key(
                oracle.match(two_hop, limit=limit)
            ), limit

    def test_empty_query_falls_back(self, tiny_graph):
        q = GraphQuery()
        oracle, compiled = oracle_pair(tiny_graph)
        assert compiled.count(q) == oracle.count(q)


class TestSeedRestrict:
    def test_contiguous_run_clamp(self, tiny_graph, two_hop):
        # {0..3} is a contiguous vid run: the program takes the
        # bisect-clamp fast path; values must still match the oracle
        oracle, compiled = oracle_pair(tiny_graph)
        restrict = frozenset(range(4))
        assert compiled.count(two_hop, seed_restrict=restrict) == oracle.count(
            two_hop, seed_restrict=restrict
        )
        assert compiled.steps == oracle.steps

    def test_non_contiguous_restrict(self, tiny_graph, two_hop):
        oracle, compiled = oracle_pair(tiny_graph)
        restrict = frozenset({0, 3})
        assert compiled.count(two_hop, seed_restrict=restrict) == oracle.count(
            two_hop, seed_restrict=restrict
        )
        assert compiled.steps == oracle.steps

    def test_restrict_with_unknown_vids(self, tiny_graph, two_hop):
        # ids outside the graph must not defeat the clamp's subset check
        oracle, compiled = oracle_pair(tiny_graph)
        restrict = frozenset({0, 1, 999})
        assert compiled.count(two_hop, seed_restrict=restrict) == oracle.count(
            two_hop, seed_restrict=restrict
        )

    def test_shard_partition_restricts(self, tiny_graph, two_hop):
        # per-shard seed_restrict counts must partition the total --
        # exactly how the affine coordinator fallback drives the clamp
        sharded = GraphPartitioner(3).partition(tiny_graph)
        compiled = PatternMatcher(tiny_graph, compiled=True)
        total = compiled.count(two_hop)
        per_shard = [
            compiled.count(two_hop, seed_restrict=shard.vertex_ids)
            for shard in sharded.shards
        ]
        assert sum(per_shard) == total


class TestInvalidation:
    def test_mutation_patches_csr_in_place(self, tiny_graph, two_hop):
        compiled = PatternMatcher(tiny_graph, compiled=True)
        assert compiled.count(two_hop) == 3
        builds = csr_stats(tiny_graph)["csr_builds"]
        compiled_before = csr_stats(tiny_graph)["programs_compiled"]
        index = csr_for(tiny_graph)
        # a fifth person working at TU Dresden adds one match; the
        # appended vertex + edge are delta-patched into the *same*
        # index, and the existing kernels (bound to its arrays) survive
        eve = tiny_graph.add_vertex(type="person", name="Eve")
        tiny_graph.add_edge(eve, 4, "workAt")
        assert compiled.count(two_hop) == 4
        stats = csr_stats(tiny_graph)
        assert stats["csr_builds"] == builds
        assert stats["csr_patches"] == 1
        assert stats["csr_rebuilds"] == 0
        assert csr_for(tiny_graph) is index
        assert stats["programs_compiled"] == compiled_before

    def test_unpatchable_mutation_rebuilds_csr_and_programs(
        self, tiny_graph, two_hop
    ):
        compiled = PatternMatcher(tiny_graph, compiled=True)
        assert compiled.count(two_hop) == 3
        builds = csr_stats(tiny_graph)["csr_builds"]
        index = csr_for(tiny_graph)
        # interning is ascending-by-vid: an explicit id *below* the max
        # cannot be appended, so this falls back to a full rebuild
        eve = tiny_graph.add_vertex(vid=-1, type="person", name="Eve")
        tiny_graph.add_edge(eve, 4, "workAt")
        assert compiled.count(two_hop) == 4
        stats = csr_stats(tiny_graph)
        assert stats["csr_builds"] == builds + 1
        assert stats["csr_rebuilds"] == 1
        assert csr_for(tiny_graph) is not index
        # the stale index's programs died with it; the fresh one compiled
        assert stats["programs_compiled"] >= 2

    def test_version_check_never_serves_stale_arrays(self, tiny_graph):
        index = csr_for(tiny_graph)
        assert index.version == tiny_graph.version
        tiny_graph.add_vertex(type="person")
        assert csr_for(tiny_graph).version == tiny_graph.version


class TestCounters:
    def test_program_cache_counters(self, tiny_graph, two_hop):
        compiled = PatternMatcher(tiny_graph, compiled=True)
        before = csr_stats(tiny_graph)
        compiled.count(two_hop)
        compiled.count(two_hop)
        compiled.match(two_hop)
        after = csr_stats(tiny_graph)
        assert (
            after["programs_compiled"] == before["programs_compiled"] + 1
        )  # one plan, one lowering
        assert after["program_hits"] >= before["program_hits"] + 2
        assert after["csr_bytes"] > 0
        assert after["csr_builds"] >= 1

    def test_cache_info_exposes_program_section(self, tiny_graph, two_hop):
        compiled = PatternMatcher(tiny_graph, compiled=True)
        compiled.count(two_hop)
        info = compiled.cache_info()
        assert info["programs"]["compiled"] >= 1
        assert info["csr"]["bytes"] > 0

    def test_stats_are_zero_before_any_build(self):
        g = PropertyGraph()
        g.add_vertex(type="a")
        assert csr_stats(g) == {
            "csr_builds": 0,
            "csr_bytes": 0,
            "csr_patches": 0,
            "csr_rebuilds": 0,
            "csr_evictions": 0,
            "deltas_applied": 0,
            "programs_compiled": 0,
            "program_hits": 0,
        }

    def test_injective_modes_compile_distinct_kernels(self, tiny_graph, two_hop):
        PatternMatcher(tiny_graph, compiled=True).count(two_hop)
        before = csr_stats(tiny_graph)["programs_compiled"]
        PatternMatcher(tiny_graph, injective=False, compiled=True).count(two_hop)
        assert csr_stats(tiny_graph)["programs_compiled"] == before + 1


class TestProgramInternals:
    def test_kernel_source_is_recorded(self, tiny_graph, two_hop):
        program = compiled_program(tiny_graph, two_hop)
        program.run_count(tiny_graph)
        program.run_match(tiny_graph)
        assert "def _kernel(" in program.source["count"]
        assert "def _kernel(" in program.source["match"]
        # the match kernel emits bindings; the count kernel must not
        assert "out_append" in program.source["match"]
        assert "out_append" not in program.source["count"]

    def test_programs_shared_across_matchers(self, tiny_graph, two_hop):
        m1 = PatternMatcher(tiny_graph, compiled=True)
        m2 = PatternMatcher(tiny_graph, compiled=True)
        m1.count(two_hop)
        hits = csr_stats(tiny_graph)["program_hits"]
        m2.count(two_hop)
        assert csr_stats(tiny_graph)["program_hits"] == hits + 1

    def test_unsupported_plan_raises(self, tiny_graph):
        q = GraphQuery()
        q.add_vertex(predicates={"type": equals("person")})
        with pytest.raises(ProgramUnsupported):
            # an empty plan cannot open with a seed step
            from repro.matching.program import MatchProgram

            MatchProgram(csr_for(tiny_graph), [], q)


class TestPartialGraphs:
    def test_slice_local_evaluation_compiled(self, tiny_graph, two_hop):
        sharded = GraphPartitioner(2).partition(tiny_graph)
        evaluator = SliceEvaluator.for_sharded(
            sharded,
            compiled=True,
            fallback=PatternMatcher(tiny_graph, compiled=True),
        )
        oracle = PatternMatcher(tiny_graph)
        assert evaluator.count(two_hop) == oracle.count(two_hop)
        assert match_key(evaluator.match(two_hop)) == match_key(
            oracle.match(two_hop)
        )

    def test_unknown_adjacency_raises_shard_miss(self, tiny_graph):
        # the seed is pinned to anna(0) in shard 0; the walk reaches the
        # halo vertex tud(4) and must then expand from it -- adjacency
        # the slice does not hold.  The generated kernel must raise the
        # slice's miss exactly like the interpreter, never scan an
        # empty row
        q = GraphQuery()
        a = q.add_vertex(predicates={"name": equals("Anna")})
        u = q.add_vertex()
        c = q.add_vertex()
        q.add_edge(a, u, types={"workAt"})
        q.add_edge(u, c, types={"locatedIn"})
        sharded = GraphPartitioner(3).partition(tiny_graph)
        evaluator = SliceEvaluator.for_sharded(sharded, compiled=True)
        slice0 = evaluator.slices[0]
        assert slice0.owns(0) and not slice0.owns(4)
        compiled = PatternMatcher(slice0, compiled=True)
        assert compiled.compiled
        with pytest.raises(ShardMiss):
            compiled.count(q, seed_restrict=slice0.vertex_ids)
        with pytest.raises(ShardMiss):  # interpreter parity
            PatternMatcher(slice0, compiled=False).count(
                q, seed_restrict=slice0.vertex_ids
            )

    def test_slice_seed_pool_spans_owned_range_only(self, tiny_graph):
        sharded = GraphPartitioner(2).partition(tiny_graph)
        evaluator = SliceEvaluator.for_sharded(sharded, compiled=True)
        for index, slice_ in evaluator.slices.items():
            csr = csr_for(slice_)
            assert csr.partial
            seeds = {csr.vid_of[ix] for ix in csr.seed_universe}
            assert seeds == set(slice_.vertex_ids), index
