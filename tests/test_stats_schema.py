"""The unified stats schema (ISSUE 8 satellite).

All three metrics surfaces -- ``PatternMatcher.cache_info()``,
``ProcessExecutor.info()`` and ``WhyQueryService.stats()`` -- must emit
the :mod:`repro.stats` schema (``schema`` marker plus the seven typed
sections) as a plain ``dict``, the pre-unification flat keys must be
gone (their deprecation window closed with 2.0), and the whole report
must survive the JSON round-trip the protocol ``stats`` message
performs.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.core.graph import PropertyGraph
from repro.core.predicates import equals
from repro.core.query import GraphQuery
from repro.matching import PatternMatcher
from repro.service import WhyQueryService
from repro.stats import SECTIONS, STATS_SCHEMA, unified_stats


def tiny_graph() -> PropertyGraph:
    g = PropertyGraph()
    a = g.add_vertex(type="person", name="a")
    b = g.add_vertex(type="person", name="b")
    u = g.add_vertex(type="university", name="u")
    g.add_edge(a, u, "workAt")
    g.add_edge(b, u, "studyAt")
    return g


def typed_query() -> GraphQuery:
    q = GraphQuery()
    p = q.add_vertex(predicates={"type": equals("person")})
    u = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(p, u, types={"workAt"})
    return q


def assert_unified(report) -> None:
    assert report["schema"] == STATS_SCHEMA
    for section in SECTIONS:
        assert section in report, section


class TestUnifiedStats:
    def test_sections_always_present(self):
        report = unified_stats()
        assert_unified(report)
        assert report["caches"] == {}
        assert report["csr"]["builds"] == 0
        assert report["programs"]["compiled"] == 0
        assert report["deltas"]["applied"] == 0

    def test_report_is_a_plain_dict(self):
        report = unified_stats(caches={"plan": {"hits": 1}})
        assert type(report) is dict
        assert type(report["caches"]) is dict

    def test_unknown_key_still_raises(self):
        report = unified_stats()
        with pytest.raises(KeyError):
            report["never_existed"]
        assert report.get("never_existed") is None

    def test_iteration_and_json_see_only_unified_keys(self):
        report = unified_stats(extra={"matcher": {"calls": 0}})
        assert set(report) == {"schema", *SECTIONS, "matcher"}
        round_tripped = json.loads(json.dumps(report))
        assert round_tripped == report
        assert_unified(round_tripped)


class TestMatcherSurface:
    def test_cache_info_is_unified(self):
        matcher = PatternMatcher(tiny_graph(), compiled=True)
        assert matcher.count(typed_query()) == 1
        assert matcher.count(typed_query()) == 1
        info = matcher.cache_info()
        assert_unified(info)
        assert set(info["caches"]) >= {"plan", "vertex_candidates"}
        assert info["programs"]["compiled"] >= 1
        assert info["programs"]["hits"] >= 1
        assert info["csr"]["builds"] >= 1
        assert info["matcher"]["calls"] == 2

    def test_cache_info_has_no_legacy_keys(self):
        matcher = PatternMatcher(tiny_graph(), compiled=True)
        matcher.count(typed_query())
        info = matcher.cache_info()
        for key in ("plan", "vertex_candidates"):
            assert key not in info
        assert set(info["programs"]) == {"compiled", "hits"}


class TestServiceSurface:
    def test_stats_is_unified_and_json_serialisable(self):
        with WhyQueryService() as service:
            g = tiny_graph()
            service.explain(g, typed_query(), explain=False, rewrite=False)
            stats = service.stats()
            assert_unified(stats)
            assert stats["service"]["explain_calls"] == 1
            assert stats["service"]["contexts_live"] == 1
            payload = json.loads(json.dumps(stats))
            assert_unified(payload)

    def test_stats_has_no_legacy_keys(self):
        with WhyQueryService() as service:
            service.explain(tiny_graph(), typed_query(), explain=False, rewrite=False)
            stats = service.stats()
            for key in ("totals", "process_pools", "explain_calls"):
                assert key not in stats
            assert "async_calls" not in stats["service"]

    def test_unified_consumers_do_not_warn(self):
        """Reading only unified keys must be warning-free (the migrated
        examples and benchmarks rely on this)."""
        with WhyQueryService() as service:
            service.explain(tiny_graph(), typed_query(), explain=False, rewrite=False)
            stats = service.stats()
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                stats["service"]["requests"]
                stats["caches"]["results"]
                stats["pools"]
                stats["admission"]
                dict(stats)


class TestExecutorSurface:
    def test_info_is_unified(self):
        from repro.shard import ProcessExecutor

        executor = ProcessExecutor(tiny_graph(), max_workers=1)
        try:
            info = executor.info()
            assert_unified(info)
            assert info["pools"]["max_workers"] == 1
            assert info["pools"]["placement"] == "full"
        finally:
            executor.close()

    def test_info_has_no_legacy_keys(self):
        from repro.shard import ProcessExecutor

        executor = ProcessExecutor(tiny_graph(), max_workers=1)
        try:
            info = executor.info()
            for key in ("max_workers", "pool_live", "worker_catchups"):
                assert key not in info
        finally:
            executor.close()


class TestWiringDeprecation:
    def test_component_override_alongside_context_raises(self):
        from repro.exec import ExecutionContext
        from repro.exec.wiring import resolve_spine

        g = tiny_graph()
        ctx = ExecutionContext(g)
        for component in ("matcher", "cache", "statistics"):
            with pytest.raises(ValueError, match="ExecutionContext"):
                resolve_spine(None, ctx, **{component: getattr(ctx, component)})

    def test_plain_wiring_does_not_warn(self):
        from repro.exec import ExecutionContext
        from repro.exec.wiring import resolve_spine

        g = tiny_graph()
        ctx = ExecutionContext(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            resolve_spine(None, ctx)
            resolve_spine(g, None)
