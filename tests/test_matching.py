"""Tests for the backtracking pattern matcher (isomorphism semantics,
direction sets, bounded evaluation, disconnected queries)."""

import pytest

from repro.core import (
    BACKWARD_ONLY,
    BOTH_DIRECTIONS,
    GraphQuery,
    PropertyGraph,
    equals,
)
from repro.matching import PatternMatcher
from repro.rewrite.cache import QueryResultCache


class TestBasicMatching:
    def test_single_vertex_pattern(self, tiny_graph, tiny_matcher):
        q = GraphQuery()
        q.add_vertex(predicates={"type": equals("person")})
        assert tiny_matcher.count(q) == 4

    def test_single_edge_pattern(self, tiny_matcher, person_works_at_university):
        # anna/bob/dave work somewhere
        assert tiny_matcher.count(person_works_at_university) == 3

    def test_edge_predicate_filters(self, tiny_matcher, person_works_at_university):
        q = person_works_at_university.copy()
        q.edge(0).predicates["sinceYear"] = equals(2003)
        assert tiny_matcher.count(q) == 2  # anna@tud, dave@su

    def test_vertex_predicate_filters(self, tiny_matcher, person_works_at_university):
        q = person_works_at_university.copy()
        q.vertex(0).predicates["gender"] = equals("female")
        assert tiny_matcher.count(q) == 1  # only anna works

    def test_no_match_returns_empty(self, tiny_matcher):
        q = GraphQuery()
        q.add_vertex(predicates={"type": equals("starship")})
        assert tiny_matcher.count(q) == 0
        assert not tiny_matcher.exists(q)

    def test_empty_query_matches_nothing(self, tiny_matcher):
        assert tiny_matcher.count(GraphQuery()) == 0

    def test_path_pattern(self, tiny_matcher):
        # person -workAt-> university -locatedIn-> city
        q = GraphQuery()
        p = q.add_vertex(predicates={"type": equals("person")})
        u = q.add_vertex(predicates={"type": equals("university")})
        c = q.add_vertex(predicates={"type": equals("city")})
        q.add_edge(p, u, types={"workAt"})
        q.add_edge(u, c, types={"locatedIn"})
        assert tiny_matcher.count(q) == 3

    def test_result_bindings_are_consistent(self, tiny_graph, tiny_matcher):
        q = GraphQuery()
        p = q.add_vertex(predicates={"type": equals("person"), "name": equals("Anna")})
        u = q.add_vertex(predicates={"type": equals("university")})
        q.add_edge(p, u, types={"workAt"})
        results = tiny_matcher.match(q)
        assert results.cardinality == 1
        binding = results[0]
        assert binding.vertices[p] == 0  # anna
        assert binding.vertices[u] == 4  # tud
        record = tiny_graph.edge(binding.edges[0])
        assert (record.source, record.target) == (0, 4)


class TestDirections:
    def test_backward_direction(self, tiny_matcher):
        # university <-workAt- person, declared as university -> person
        q = GraphQuery()
        u = q.add_vertex(predicates={"type": equals("university")})
        p = q.add_vertex(predicates={"type": equals("person")})
        q.add_edge(u, p, types={"workAt"}, directions=BACKWARD_ONLY)
        assert tiny_matcher.count(q) == 3

    def test_both_directions_union(self, tiny_matcher):
        # knows in either orientation doubles the directed pairs
        q_fwd = GraphQuery()
        a = q_fwd.add_vertex(predicates={"type": equals("person")})
        b = q_fwd.add_vertex(predicates={"type": equals("person")})
        q_fwd.add_edge(a, b, types={"knows"})
        q_both = q_fwd.copy()
        q_both.edge(0).directions = BOTH_DIRECTIONS
        assert tiny_matcher.count(q_fwd) == 2
        assert tiny_matcher.count(q_both) == 4

    def test_wrong_direction_fails(self, tiny_matcher):
        # city -locatedIn-> university does not exist forward
        q = GraphQuery()
        c = q.add_vertex(predicates={"type": equals("city")})
        u = q.add_vertex(predicates={"type": equals("university")})
        q.add_edge(c, u, types={"locatedIn"})
        assert tiny_matcher.count(q) == 0


class TestIsomorphismSemantics:
    def test_vertex_injectivity(self, tiny_matcher):
        # two distinct persons knowing each other: anna-bob, bob-carol
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("person")})
        b = q.add_vertex(predicates={"type": equals("person")})
        q.add_edge(a, b, types={"knows"})
        assert tiny_matcher.count(q) == 2

    def test_triangle_needs_three_distinct(self, tiny_graph):
        matcher = PatternMatcher(tiny_graph)
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("person")})
        b = q.add_vertex(predicates={"type": equals("person")})
        c = q.add_vertex(predicates={"type": equals("person")})
        q.add_edge(a, b, types={"knows"})
        q.add_edge(b, c, types={"knows"})
        # anna->bob->carol is the only directed 2-chain of distinct persons
        assert matcher.count(q) == 1

    def test_homomorphism_mode_allows_reuse(self, tiny_graph):
        # With BOTH directions, a homomorphism may map a and c to the same
        # person (walk anna->bob->anna), the isomorphism may not.
        iso = PatternMatcher(tiny_graph, injective=True)
        hom = PatternMatcher(tiny_graph, injective=False)
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("person")})
        b = q.add_vertex(predicates={"type": equals("person")})
        c = q.add_vertex(predicates={"type": equals("person")})
        q.add_edge(a, b, types={"knows"}, directions=BOTH_DIRECTIONS)
        q.add_edge(b, c, types={"knows"}, directions=BOTH_DIRECTIONS)
        assert hom.count(q) > iso.count(q)

    def test_edge_injectivity_with_parallel_edges(self):
        g = PropertyGraph()
        a, b = g.add_vertex(type="n"), g.add_vertex(type="n")
        g.add_edge(a, b, "t")
        g.add_edge(a, b, "t")
        q = GraphQuery()
        x = q.add_vertex(predicates={"type": equals("n")})
        y = q.add_vertex(predicates={"type": equals("n")})
        q.add_edge(x, y, types={"t"})
        q.add_edge(x, y, types={"t"})
        # two parallel query edges must bind the two distinct data edges
        assert PatternMatcher(g).count(q) == 2  # two orderings


class TestBoundedEvaluation:
    def test_limit_stops_enumeration(self, tiny_matcher):
        q = GraphQuery()
        q.add_vertex(predicates={"type": equals("person")})
        assert tiny_matcher.count(q, limit=2) == 2

    def test_match_limit(self, tiny_matcher):
        q = GraphQuery()
        q.add_vertex(predicates={"type": equals("person")})
        assert tiny_matcher.match(q, limit=3).cardinality == 3

    def test_zero_limit(self, tiny_matcher):
        q = GraphQuery()
        q.add_vertex(predicates={"type": equals("person")})
        assert tiny_matcher.match(q, limit=0).cardinality == 0

    @pytest.mark.parametrize("compiled", [False, True])
    @pytest.mark.parametrize("limit", [0, -1])
    def test_nonpositive_limit_counts_nothing(self, compiled, limit):
        """``count(limit<=0)`` agrees with ``match(limit<=0)``: no match
        and no search effort, on both backends and through the result
        cache whether the entry is cold or was cached unbounded."""
        g = PropertyGraph()
        g.add_edge(g.add_vertex(type="a"), g.add_vertex(type="b"), "r")
        q = GraphQuery()
        q.add_edge(q.add_vertex(), q.add_vertex(), types={"r"})
        matcher = PatternMatcher(g, compiled=compiled)
        assert matcher.match(q, limit=limit).cardinality == 0
        assert matcher.count(q, limit=limit) == 0
        assert matcher.steps == 0
        assert matcher.count(q) == 1
        cold = QueryResultCache(PatternMatcher(g, compiled=compiled))
        assert cold.count(q, limit=limit) == 0
        warm = QueryResultCache(PatternMatcher(g, compiled=compiled))
        assert warm.count(q) == 1
        assert warm.count(q, limit=limit) == 0
        assert warm.stats.hits == 1

    def test_counters_advance(self, tiny_graph):
        matcher = PatternMatcher(tiny_graph)
        q = GraphQuery()
        q.add_vertex(predicates={"type": equals("person")})
        matcher.count(q)
        matcher.exists(q)
        assert matcher.calls == 2
        assert matcher.steps > 0


class TestDisconnectedQueries:
    def test_cartesian_combination(self, tiny_matcher):
        q = GraphQuery()
        q.add_vertex(predicates={"type": equals("city")})  # 2 cities
        q.add_vertex(predicates={"type": equals("country")})  # 1 country
        assert tiny_matcher.count(q) == 2

    def test_two_components_with_edges(self, tiny_matcher):
        q = GraphQuery()
        p = q.add_vertex(predicates={"type": equals("person")})
        u = q.add_vertex(predicates={"type": equals("university")})
        q.add_edge(p, u, types={"workAt"})
        c = q.add_vertex(predicates={"type": equals("city")})
        n = q.add_vertex(predicates={"type": equals("country")})
        q.add_edge(c, n, types={"isPartOf"})
        # 3 workAt matches x 2 isPartOf matches
        assert tiny_matcher.count(q) == 6


class TestEdgeOrderOverride:
    def test_explicit_edge_order_gives_same_count(self, tiny_matcher):
        q = GraphQuery()
        p = q.add_vertex(predicates={"type": equals("person")})
        u = q.add_vertex(predicates={"type": equals("university")})
        c = q.add_vertex(predicates={"type": equals("city")})
        q.add_edge(p, u, types={"workAt"})
        q.add_edge(u, c, types={"locatedIn"})
        assert tiny_matcher.count(q, edge_order=[1, 0]) == tiny_matcher.count(q)

    def test_cycle_pattern(self, tiny_graph):
        # dresden -isPartOf-> germany <-isPartOf- berlin
        matcher = PatternMatcher(tiny_graph)
        q = GraphQuery()
        c1 = q.add_vertex(predicates={"type": equals("city")})
        c2 = q.add_vertex(predicates={"type": equals("city")})
        n = q.add_vertex(predicates={"type": equals("country")})
        q.add_edge(c1, n, types={"isPartOf"})
        q.add_edge(c2, n, types={"isPartOf"})
        assert matcher.count(q) == 2  # (dresden,berlin) and (berlin,dresden)


class TestQueryOnDataset:
    def test_ldbc_queries_nonempty(self, ldbc_small):
        from repro.datasets import ldbc

        matcher = PatternMatcher(ldbc_small.graph)
        for name, q in ldbc.queries().items():
            assert matcher.count(q, limit=1) >= 0  # executes without error

    def test_count_matches_enumeration(self, ldbc_small):
        from repro.datasets import ldbc

        matcher = PatternMatcher(ldbc_small.graph)
        q = ldbc.query_1()
        assert matcher.count(q) == matcher.match(q).cardinality
