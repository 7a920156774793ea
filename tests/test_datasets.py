"""Tests for the synthetic data-set generators (Appendix A substitutes)."""

import pytest

from repro.datasets import dbpedia, ldbc
from repro.matching import PatternMatcher
from repro.persist.snapshot import graph_fingerprint


class TestLdbcGenerator:
    def test_deterministic(self):
        a = ldbc.generate(scale=0.3, seed=5)
        b = ldbc.generate(scale=0.3, seed=5)
        assert a.graph.num_vertices == b.graph.num_vertices
        assert a.graph.num_edges == b.graph.num_edges
        va = [a.graph.vertex_attributes(v) for v in sorted(a.graph.vertices())][:50]
        vb = [b.graph.vertex_attributes(v) for v in sorted(b.graph.vertices())][:50]
        assert va == vb

    def test_different_seeds_differ(self):
        a = ldbc.generate(scale=0.3, seed=5)
        b = ldbc.generate(scale=0.3, seed=6)
        assert a.graph.num_edges != b.graph.num_edges or [
            a.graph.vertex_attributes(v) for v in list(a.graph.vertices())[:20]
        ] != [b.graph.vertex_attributes(v) for v in list(b.graph.vertices())[:20]]

    def test_scale_grows_graph(self):
        small = ldbc.generate(scale=0.3, seed=5)
        large = ldbc.generate(scale=1.0, seed=5)
        assert large.graph.num_vertices > small.graph.num_vertices

    def test_schema_vocabulary(self, ldbc_small):
        types = ldbc_small.graph.edge_types()
        expected = {
            "knows",
            "workAt",
            "studyAt",
            "isLocatedIn",
            "isPartOf",
            "hasInterest",
            "hasMember",
            "hasModerator",
            "containerOf",
            "hasCreator",
            "hasTag",
        }
        assert expected <= types

    def test_heavy_tailed_knows_degree(self, ldbc_full):
        degrees = sorted(
            (
                len(
                    [
                        e
                        for e in ldbc_full.graph.incident_edges(p)
                        if ldbc_full.graph.edge(e).type == "knows"
                    ]
                )
                for p in ldbc_full.persons
            ),
            reverse=True,
        )
        # top-decile persons hold a disproportionate share of friendships
        top = sum(degrees[: len(degrees) // 10])
        assert top > sum(degrees) * 0.2

    def test_all_persons_have_home_city(self, ldbc_small):
        g = ldbc_small.graph
        for person in ldbc_small.persons:
            located = [
                e for e in g.out_edges(person) if g.edge(e).type == "isLocatedIn"
            ]
            assert len(located) == 1

    def test_query_cardinalities_in_paper_regime(self, ldbc_full):
        """Table A.1 regime: C1 in {21, 39, 188, 195} for the paper; the
        synthetic graph must land in the same order of magnitude."""
        matcher = PatternMatcher(ldbc_full.graph)
        expected = {
            "LDBC QUERY 1": (10, 60),
            "LDBC QUERY 2": (15, 90),
            "LDBC QUERY 3": (90, 400),
            "LDBC QUERY 4": (90, 400),
        }
        for name, query in ldbc.queries().items():
            lo, hi = expected[name]
            assert lo <= matcher.count(query) <= hi, name

    def test_empty_variants_are_empty(self, ldbc_full):
        matcher = PatternMatcher(ldbc_full.graph)
        for name in ldbc.queries():
            assert matcher.count(ldbc.empty_variant(name), limit=1) == 0, name

    def test_empty_variants_partially_match(self, ldbc_full):
        """The injected failures must leave a non-trivial common subgraph,
        otherwise the Ch. 4/5 experiments have nothing to discover."""
        from repro.explain import discover_mcs

        for name in ldbc.queries():
            result = discover_mcs(ldbc_full.graph, ldbc.empty_variant(name))
            assert result.differential.coverage > 0.3, name

    def test_unknown_variant_name(self):
        with pytest.raises(KeyError):
            ldbc.empty_variant("LDBC QUERY 9")

    def test_queries_are_fresh_copies(self):
        q1 = ldbc.queries()["LDBC QUERY 1"]
        q1.remove_edge(0)
        q2 = ldbc.queries()["LDBC QUERY 1"]
        assert q2.has_edge(0)


class TestDbpediaGenerator:
    def test_deterministic(self):
        a = dbpedia.generate(scale=0.3, seed=3)
        b = dbpedia.generate(scale=0.3, seed=3)
        assert a.graph.num_edges == b.graph.num_edges

    def test_schema_vocabulary(self, dbpedia_small):
        types = dbpedia_small.graph.edge_types()
        expected = {
            "director",
            "starring",
            "birthPlace",
            "locatedIn",
            "foundedBy",
            "headquarterIn",
        }
        assert expected <= types

    def test_queries_nonempty_on_default_graph(self):
        bundle = dbpedia.generate()
        matcher = PatternMatcher(bundle.graph)
        for name, query in dbpedia.queries().items():
            assert matcher.count(query, limit=1) > 0, name

    def test_empty_variants_are_empty(self):
        bundle = dbpedia.generate()
        matcher = PatternMatcher(bundle.graph)
        for name in dbpedia.queries():
            assert matcher.count(dbpedia.empty_variant(name), limit=1) == 0, name

    def test_fame_skew(self):
        bundle = dbpedia.generate()
        g = bundle.graph
        directing = sorted(
            (len(g.in_edges(p)) for p in bundle.persons), reverse=True
        )
        assert directing[0] >= 5  # somebody is famous

    def test_auteur_films_exist(self):
        """DBPEDIA QUERY 2 needs films whose director also stars."""
        bundle = dbpedia.generate()
        matcher = PatternMatcher(bundle.graph)
        assert matcher.count(dbpedia.query_2(), limit=1) > 0


class TestGeneratedContentPinned:
    """The default ``generate()`` graphs are the inputs of every recorded
    figure and benchmark: their content must not drift when a generator
    helper (e.g. the Zipf sampler) is rewritten."""

    @pytest.mark.parametrize(
        "module, vertices, edges, sha256",
        [
            (
                ldbc,
                1230,
                5955,
                "8afa442e1f7fffdc34a08317054e2a7b0efa21fb7184b9d017ca9b12b1a154c1",
            ),
            (
                dbpedia,
                830,
                1871,
                "2850a51e554ab384c7765ad0d6d23ab4bb87cadbd08a3a1da53e227c3be68c43",
            ),
        ],
    )
    def test_default_graph_fingerprint(self, module, vertices, edges, sha256):
        fingerprint = graph_fingerprint(module.generate().graph)
        assert fingerprint == {"vertices": vertices, "edges": edges, "sha256": sha256}
