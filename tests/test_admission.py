"""BudgetPool admission control: fair share, queue/reject, service wiring."""

from __future__ import annotations

import threading

import pytest

from repro.core import GraphQuery, equals
from repro.service import AdmissionRejected, BudgetLease, BudgetPool, WhyQueryService


def failing_query() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": equals("person")})
    b = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(a, b, types={"missingEdgeType"})
    return q


class TestBudgetPoolValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            BudgetPool(0)
        with pytest.raises(ValueError):
            BudgetPool(10, min_grant=0)
        with pytest.raises(ValueError):
            BudgetPool(10, min_grant=11)
        with pytest.raises(ValueError):
            BudgetPool(10, max_waiting=-1)
        with pytest.raises(ValueError):
            BudgetPool(10, wait_timeout=-1.0)
        with pytest.raises(ValueError):
            BudgetPool(10).acquire(0)


class TestFairShare:
    def test_light_load_grants_full_request(self):
        pool = BudgetPool(1000)
        with pool.acquire(100) as lease:
            assert lease.granted == 100
            assert pool.available == 900
        assert pool.available == 1000

    def test_share_shrinks_with_active_requests(self):
        pool = BudgetPool(100, min_grant=8)
        first = pool.acquire(80)
        assert first.granted == 80
        # second active request: fair share is 100 // 2 = 50, but only
        # 20 are left -- the grant is clipped to what's available
        second = pool.acquire(80)
        assert second.granted == 20
        # a third request cannot get even min_grant: reject policy fires
        with pytest.raises(AdmissionRejected):
            pool.acquire(80)
        stats = pool.stats()
        assert stats["admitted"] == 2
        assert stats["rejected"] == 1
        assert stats["peak_in_use"] == 100
        first.release()
        second.release()
        assert pool.available == 100
        assert pool.stats()["active_requests"] == 0

    def test_small_requests_below_min_grant_still_admitted(self):
        pool = BudgetPool(100, min_grant=30)
        with pool.acquire(4) as lease:
            assert lease.granted == 4

    def test_min_grant_floor_rejects_starved_grants(self):
        pool = BudgetPool(100, min_grant=30)
        lease = pool.acquire(100)
        assert lease.granted == 100
        with pytest.raises(AdmissionRejected):
            pool.acquire(10)
        lease.release()

    def test_spent_accounting_flows_back_to_the_pool_stats(self):
        pool = BudgetPool(50)
        lease = pool.acquire(20)
        assert lease.budget.grant(7) == 7
        lease.release()
        stats = pool.stats()
        assert stats["evaluations_granted"] == 20
        assert stats["evaluations_spent"] == 7
        assert stats["in_use"] == 0

    def test_double_release_raises(self):
        pool = BudgetPool(10)
        lease = pool.acquire(5)
        lease.release()
        with pytest.raises(RuntimeError):
            lease.release()

    def test_lease_is_its_own_budget(self):
        pool = BudgetPool(10)
        with pool.acquire(5) as lease:
            assert isinstance(lease, BudgetLease)
            assert lease.budget.remaining == 5
            assert lease.budget.grant(100) == 5
            assert lease.budget.exhausted


class TestQueuePolicy:
    def test_waiter_unblocks_on_release(self):
        pool = BudgetPool(50, min_grant=8, max_waiting=1)
        first = pool.acquire(50)
        got = {}

        def waiter():
            with pool.acquire(20) as lease:
                got["granted"] = lease.granted

        thread = threading.Thread(target=waiter)
        thread.start()
        # deterministic rendezvous: wait until the waiter is queued
        for _ in range(200):
            if pool.stats()["waiting_requests"] == 1:
                break
            threading.Event().wait(0.005)
        assert pool.stats()["waiting_requests"] == 1
        first.release()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert got["granted"] == 20
        stats = pool.stats()
        assert stats["queued_waits"] == 1
        assert stats["rejected"] == 0
        assert pool.available == 50

    def test_queue_overflow_rejects(self):
        pool = BudgetPool(50, min_grant=8, max_waiting=1)
        first = pool.acquire(50)
        thread = threading.Thread(
            target=lambda: pool.acquire(10).release()
        )
        thread.start()
        for _ in range(200):
            if pool.stats()["waiting_requests"] == 1:
                break
            threading.Event().wait(0.005)
        # the single waiting slot is taken: the next request sheds load
        with pytest.raises(AdmissionRejected):
            pool.acquire(10)
        first.release()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert pool.stats()["rejected"] == 1

    def test_wait_timeout_rejects(self):
        pool = BudgetPool(50, min_grant=8, max_waiting=4, wait_timeout=0.05)
        first = pool.acquire(50)
        with pytest.raises(AdmissionRejected):
            pool.acquire(10)
        first.release()
        stats = pool.stats()
        assert stats["timeouts"] == 1
        assert stats["rejected"] == 1
        assert stats["waiting_requests"] == 0


class TestServiceAdmission:
    def test_no_pool_means_no_admission_section(self, tiny_graph):
        service = WhyQueryService()
        service.explain(tiny_graph, failing_query())
        assert service.stats()["admission"] is None

    def test_exhausted_pool_rejects_request(self, tiny_graph):
        pool = BudgetPool(300, min_grant=8)
        service = WhyQueryService(budget_pool=pool)
        blocker = pool.acquire(300)  # another tenant holds everything
        with pytest.raises(AdmissionRejected):
            service.explain(tiny_graph, failing_query())
        assert service.stats()["service"]["rejected_calls"] == 1
        blocker.release()
        report = service.explain(tiny_graph, failing_query())
        assert report.rewriting is not None
        stats = service.stats()
        assert stats["service"]["explain_calls"] == 1
        assert stats["admission"]["admitted"] == 2  # blocker + request
        assert stats["admission"]["in_use"] == 0

    def test_degraded_grant_bounds_the_search(self, tiny_graph):
        """Under pressure a request runs with a smaller search budget
        instead of failing: the pool grant is the hard evaluation bound."""
        pool = BudgetPool(40, min_grant=8)
        service = WhyQueryService(budget_pool=pool)
        report = service.explain(tiny_graph, failing_query())
        assert report.rewriting is not None
        assert report.rewriting.evaluated <= 40
        stats = pool.stats()
        assert stats["evaluations_granted"] == 40
        assert stats["evaluations_spent"] == report.rewriting.evaluated
        assert pool.available == 40  # lease returned on completion

    def test_engine_budget_request_follows_engine_options(self, tiny_graph):
        pool = BudgetPool(1000, min_grant=8)
        service = WhyQueryService(budget_pool=pool, max_rewrite_evaluations=25)
        service.explain(tiny_graph, failing_query())
        assert pool.stats()["evaluations_granted"] == 25

    def test_queued_request_completes_after_release(self, tiny_graph):
        pool = BudgetPool(300, min_grant=8, max_waiting=2, wait_timeout=5.0)
        service = WhyQueryService(budget_pool=pool)
        blocker = pool.acquire(300)
        outcome = {}

        def request():
            outcome["report"] = service.explain(tiny_graph, failing_query())

        thread = threading.Thread(target=request)
        thread.start()
        for _ in range(200):
            if pool.stats()["waiting_requests"] == 1:
                break
            threading.Event().wait(0.005)
        assert "report" not in outcome  # admission is genuinely queued
        blocker.release()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert outcome["report"].rewriting.explanations
        assert service.stats()["service"]["rejected_calls"] == 0

    def test_concurrent_burst_invariants(self, tiny_graph):
        """Budget-pool exhaustion under a real burst: every request either
        completes or is shed, the pool is never overdrawn, and all
        capacity comes back."""
        pool = BudgetPool(600, min_grant=8)
        service = WhyQueryService(budget_pool=pool)
        query = failing_query()
        outcomes = []
        lock = threading.Lock()

        def request():
            try:
                report = service.explain(tiny_graph, query)
                with lock:
                    outcomes.append(("ok", report))
            except AdmissionRejected:
                with lock:
                    outcomes.append(("rejected", None))

        threads = [threading.Thread(target=request) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert len(outcomes) == 8
        completed = [r for kind, r in outcomes if kind == "ok"]
        assert completed  # shedding everything would be a bug
        for report in completed:
            assert report.rewriting.explanations
        stats = pool.stats()
        assert stats["peak_in_use"] <= pool.total
        assert stats["in_use"] == 0
        assert stats["active_requests"] == 0
        assert stats["admitted"] + stats["rejected"] == 8

    def test_reserved_evaluation_budget_option_rejected(self):
        from repro.exec import EvaluationBudget

        with pytest.raises(TypeError):
            WhyQueryService(evaluation_budget=EvaluationBudget(5))
