"""Protocol-level tests for the why-query server (ISSUE 8 tentpole).

Covers the wire format (framing over arbitrary TCP chunkings), session
multiplexing, streamed partial results, cooperative cancellation,
per-tenant quota rejection, server drain on close, and the differential
guarantee that a streamed remote explain equals the in-process one
bit-identically (modulo wall-clock fields).
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.core.graph import PropertyGraph
from repro.core.predicates import equals
from repro.core.query import GraphQuery
from repro.core.serialize import query_to_dict
from repro.client import (
    ExplainStream,
    RequestRejected,
    ServerError,
    connect,
)
from repro.exec import ExecutionContext
from repro.rewrite.cache import QueryResultCache
from repro.server import serve_in_thread
from repro.server.protocol import (
    FrameDecoder,
    ProtocolError,
    RequestCancelled,
    encode_frame,
    report_to_dict,
    strip_volatile,
)
from repro.service import BudgetPool, WhyQueryService


def small_graph() -> PropertyGraph:
    g = PropertyGraph()
    anna = g.add_vertex(type="person", name="Anna")
    bob = g.add_vertex(type="person", name="Bob")
    uni = g.add_vertex(type="university", name="TU")
    town = g.add_vertex(type="city", name="Dresden")
    g.add_edge(anna, uni, "workAt")
    g.add_edge(bob, uni, "studyAt")
    g.add_edge(uni, town, "locatedIn")
    return g


def failing_query() -> GraphQuery:
    q = GraphQuery()
    person = q.add_vertex(predicates={"type": equals("person")})
    uni = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(person, uni, types={"foundedBy"})
    return q


def matching_query() -> GraphQuery:
    q = GraphQuery()
    person = q.add_vertex(predicates={"type": equals("person")})
    uni = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(person, uni, types={"workAt", "studyAt"})
    return q


@pytest.fixture(scope="module")
def server():
    handle = serve_in_thread()
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    c = connect(*server.address)
    c.put_graph("g", small_graph())
    yield c
    c.close()


# -- framing ---------------------------------------------------------------------


class TestFraming:
    def test_round_trip(self):
        decoder = FrameDecoder()
        message = {"type": "hello", "nested": {"a": [1, 2, 3]}, "u": "é"}
        frames = decoder.feed(encode_frame(message))
        assert frames == [message]
        assert decoder.pending_bytes == 0

    def test_split_reads_byte_by_byte(self):
        """TCP may deliver one byte at a time; every prefix decodes to
        nothing and the final byte completes the message."""
        decoder = FrameDecoder()
        wire = encode_frame({"type": "count", "id": 7}) + encode_frame(
            {"type": "stats", "id": 8}
        )
        seen = []
        for i in range(len(wire)):
            seen.extend(decoder.feed(wire[i : i + 1]))
        assert [m["type"] for m in seen] == ["count", "stats"]
        assert decoder.pending_bytes == 0

    def test_coalesced_reads(self):
        """One recv may deliver three frames and half of a fourth."""
        decoder = FrameDecoder()
        frames = [encode_frame({"type": "count", "id": i}) for i in range(4)]
        blob = b"".join(frames)
        head, tail = blob[: -3], blob[-3:]
        first = decoder.feed(head)
        assert [m["id"] for m in first] == [0, 1, 2]
        assert decoder.pending_bytes > 0
        second = decoder.feed(tail)
        assert [m["id"] for m in second] == [3]

    def test_oversize_frame_rejected_before_buffering(self):
        decoder = FrameDecoder(max_frame=16)
        import struct

        with pytest.raises(ProtocolError):
            decoder.feed(struct.pack(">I", 17))

    def test_undecodable_payload_rejected(self):
        import struct

        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(struct.pack(">I", 4) + b"\xff\xfe\x00\x01")

    def test_non_object_payload_rejected(self):
        import struct

        decoder = FrameDecoder()
        payload = b"[1,2]"
        with pytest.raises(ProtocolError):
            decoder.feed(struct.pack(">I", len(payload)) + payload)

    def test_encode_rejects_oversize(self):
        import repro.server.protocol as protocol

        big = {"blob": "x" * (protocol.MAX_FRAME_BYTES + 1)}
        with pytest.raises(ProtocolError):
            encode_frame(big)


# -- sessions and multiplexing ---------------------------------------------------


class TestSessions:
    def test_handshake_and_welcome(self, server):
        with connect(*server.address, tenant="alice") as c:
            assert c.welcome["type"] == "welcome"
            assert c.welcome["protocol"] == 1

    def test_newer_protocol_rejected(self, server):
        sock = socket.create_connection(server.address)
        try:
            sock.sendall(encode_frame({"type": "hello", "protocol": 99}))
            decoder = FrameDecoder()
            frames = []
            while not frames:
                frames = decoder.feed(sock.recv(65536))
            assert frames[0]["type"] == "error"
            assert frames[0]["code"] == "protocol-version"
        finally:
            sock.close()

    def test_count_and_match(self, client):
        assert client.count("g", failing_query()) == 0
        assert client.count("g", matching_query()) == 2
        matches = client.match("g", matching_query())
        assert len(matches) == 2
        assert client.count("g", matching_query(), limit=1) == 1

    def test_unknown_graph_is_an_error_not_a_crash(self, client):
        with pytest.raises(ServerError):
            client.count("nope", matching_query())
        # the connection survives the error frame
        assert client.count("g", matching_query()) == 2

    def test_unknown_message_type(self, client):
        client._send({"type": "frobnicate", "id": 99})
        frame = client._next_frame(99)
        assert frame["type"] == "error"
        assert frame["code"] == "unknown-message"

    def test_interleaved_requests_on_one_connection(self, client):
        """A streamed explain left half-consumed must not block other
        requests on the same connection: replies are demultiplexed by
        request id, whatever order the server completes them in."""
        stream = client.explain_stream("g", failing_query())
        # interleave: a full count request while the explain is in flight
        assert client.count("g", matching_query()) == 2
        report = stream.result()
        assert report["problem"] == "why-empty"
        assert len(stream.candidates) > 0

    def test_out_of_order_completion(self, server):
        """Two explains issued back-to-back; the second (tiny) one is
        consumed first even though both share the connection."""
        with connect(*server.address) as c:
            c.put_graph("g", small_graph())
            slow = c.explain_stream("g", failing_query())
            fast_report = c.explain("g", matching_query(), rewrite=False)
            assert fast_report["problem"] == "expected"
            report = slow.result()
            assert report["problem"] == "why-empty"

    def test_stats_message_serves_unified_schema(self, client):
        client.count("g", matching_query())
        stats = client.stats()
        assert stats["schema"] == "repro.stats/1"
        for section in ("caches", "csr", "programs", "pools", "admission", "deltas"):
            assert section in stats
        assert stats["server"]["requests"] > 0
        assert stats["server"]["connections"] >= 1


# -- streaming and the differential guarantee ------------------------------------


class TestStreaming:
    def test_streamed_candidates_arrive_before_result(self, client):
        stream = client.explain_stream("g", failing_query())
        candidates = list(stream)
        assert candidates, "a failing query must stream rewrite candidates"
        report = stream.result()
        assert report["problem"] == "why-empty"
        # every streamed candidate is a (query, cardinality) pair
        for item in candidates:
            assert item.cardinality >= 0
            assert item.query.num_vertices > 0

    def test_streamed_explain_equals_in_process_explain(self, client):
        """The headline differential: the final report of a *streamed*
        remote explain is bit-identical (modulo wall-clock) to an
        in-process ``service.explain()`` on an identical graph."""
        service = WhyQueryService()
        try:
            local = service.explain(small_graph(), failing_query())
            remote = client.explain_stream("g", failing_query()).result()
            assert strip_volatile(remote) == strip_volatile(report_to_dict(local))
        finally:
            service.close()

    def test_plain_and_streamed_remote_explains_agree(self, client):
        plain = client.explain("g", failing_query())
        streamed = client.explain_stream("g", failing_query()).result()
        assert strip_volatile(plain) == strip_volatile(streamed)


class TestCancellation:
    def test_cancel_before_first_batch(self, client):
        """Explain and cancel coalesced into one TCP segment: the token
        is set before the search starts, so the first candidate batch
        raises through the engine stack and answers ``cancelled``."""
        from repro.client import _explain_request

        rid = next(client._ids)
        request = _explain_request(
            rid, "g", failing_query(), None, True, True, True
        )
        client._sock.sendall(
            encode_frame(request) + encode_frame({"type": "cancel", "id": rid})
        )
        stream = ExplainStream(client, rid)
        with pytest.raises(RequestCancelled):
            stream.result()

    def test_cancel_mid_stream(self):
        """Cancellation while the search is genuinely in flight: a gated
        result cache stalls the second candidate batch until the cancel
        frame has been processed, then the engine unwinds cooperatively."""
        release = threading.Event()
        counted = threading.Event()

        class GatedCache(QueryResultCache):
            def count(self, query, limit=None):
                if counted.is_set():
                    # block the search mid-flight until the test has
                    # sent the cancel frame
                    release.wait(timeout=30)
                counted.set()
                return super().count(query, limit=limit)

        def factory(graph):
            context = ExecutionContext(graph)
            context.cache = GatedCache(context.matcher)
            return context

        service = WhyQueryService(context_factory=factory)
        handle = serve_in_thread(service=service)
        try:
            with connect(*handle.address) as c:
                c.put_graph("g", small_graph())
                stream = c.explain_stream("g", failing_query())
                counted.wait(timeout=30)
                stream.cancel()
                time.sleep(0.05)  # let the server process the cancel frame
                release.set()
                with pytest.raises(RequestCancelled):
                    stream.result()
        finally:
            handle.stop()

    def test_cancelled_request_does_not_poison_the_connection(self, client):
        from repro.client import _explain_request

        rid = next(client._ids)
        request = _explain_request(
            rid, "g", failing_query(), None, True, True, True
        )
        client._sock.sendall(
            encode_frame(request) + encode_frame({"type": "cancel", "id": rid})
        )
        with pytest.raises(RequestCancelled):
            ExplainStream(client, rid).result()
        assert client.count("g", matching_query()) == 2


# -- quotas (the protocol-level 429) ---------------------------------------------


class TestQuotas:
    def test_tenant_quota_rejection_frame(self):
        """A tenant whose pool cannot grant a budget gets a ``rejected``
        frame (and the connection survives); an unmetered tenant on the
        same server is admitted."""
        # drain the tenant's pool up front: the next acquire cannot be
        # granted and there is no waiting queue -> immediate rejection
        pool = BudgetPool(total=8, min_grant=8, max_waiting=0)
        hog = pool.acquire(8)
        handle = serve_in_thread(tenants={"starved": pool})
        try:
            with connect(*handle.address, tenant="starved") as starved:
                starved.put_graph("g", small_graph())
                with pytest.raises(RequestRejected) as info:
                    starved.explain("g", failing_query())
                assert info.value.code == 429
                hog.release()
                # the connection is still usable after the 429
                assert starved.count("g", matching_query()) == 2
            with connect(*handle.address, tenant="unmetered") as free:
                free.put_graph("g", small_graph())
                report = free.explain("g", failing_query())
                assert report["problem"] == "why-empty"
        finally:
            handle.stop()

    def test_tenant_quota_admits_within_budget(self):
        pool = BudgetPool(total=1200, min_grant=8, max_waiting=4)
        handle = serve_in_thread(tenants={"alice": pool})
        try:
            with connect(*handle.address, tenant="alice") as c:
                c.put_graph("g", small_graph())
                report = c.explain("g", failing_query())
                assert report["problem"] == "why-empty"
            stats = pool.stats()
            assert stats["admitted"] >= 1
        finally:
            handle.stop()


# -- drain on close --------------------------------------------------------------


class TestDrain:
    def test_goodbye_waits_for_in_flight_requests(self):
        """A client that says goodbye with an explain still in flight
        gets the result frame *and then* the goodbye: the server drains
        before closing (no work is silently dropped)."""
        handle = serve_in_thread()
        try:
            c = connect(*handle.address)
            c.put_graph("g", small_graph())
            from repro.client import _explain_request

            rid = next(c._ids)
            c._send(_explain_request(rid, "g", failing_query(), None, True, True, False))
            # goodbye immediately, without reading the explain's reply
            c._send({"type": "goodbye"})
            while True:
                try:
                    c._pump()
                except ConnectionError:
                    break
                drained = False
                for frame in c._general:
                    if frame.get("type") == "goodbye":
                        drained = True
                if drained:
                    break
            result = c._next_frame(rid) if c._inbox.get(rid) else None
            assert result is not None, "drain must flush the in-flight result"
            assert result["type"] == "result"
            assert result["report"]["problem"] == "why-empty"
            c._sock.close()
        finally:
            handle.stop()

    def test_server_stop_drains_connections(self):
        handle = serve_in_thread()
        c = connect(*handle.address)
        c.put_graph("g", small_graph())
        assert c.count("g", matching_query()) == 2
        c.close()
        handle.stop()  # must not hang or raise

    def test_protocol_error_closes_connection(self, server):
        sock = socket.create_connection(server.address)
        try:
            import struct

            sock.sendall(struct.pack(">I", 2**31))  # absurd length prefix
            decoder = FrameDecoder()
            frames = []
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                frames.extend(decoder.feed(data))
            assert any(f.get("code") == "protocol" for f in frames)
        finally:
            sock.close()


def _raw_exchange(address, frames):
    """Send ``frames`` in one write and read every reply until EOF."""
    sock = socket.create_connection(address)
    try:
        sock.sendall(b"".join(encode_frame(f) for f in frames))
        decoder = FrameDecoder()
        replies = []
        while True:
            data = sock.recv(65536)
            if not data:
                return replies
            replies.extend(decoder.feed(data))
    finally:
        sock.close()


class TestRequestIds:
    """Every request read before ``goodbye`` gets a final reply before it:
    a missing or duplicate in-flight id is answered with an error frame
    instead of being run and then lost."""

    @pytest.fixture()
    def handle(self):
        handle = serve_in_thread(graphs={"g": small_graph()})
        yield handle
        handle.stop()

    def test_duplicate_in_flight_id_is_rejected_not_lost(self, handle):
        from repro.client import _explain_request

        replies = _raw_exchange(
            handle.address,
            [
                {"type": "hello", "protocol": 1},
                _explain_request(7, "g", failing_query(), None, True, True, False),
                {"type": "count", "id": 7, "graph": "g",
                 "query": query_to_dict(matching_query())},
                {"type": "goodbye"},
            ],
        )
        assert replies[-1]["type"] == "goodbye"
        finals = [r for r in replies[:-1] if r.get("id") == 7]
        assert sorted(r["type"] for r in finals) == ["error", "result"]
        result = next(r for r in finals if r["type"] == "result")
        assert result["report"]["problem"] == "why-empty"
        error = next(r for r in finals if r["type"] == "error")
        assert error["code"] == "bad-request-id"

    @pytest.mark.parametrize("rid", ["missing", [7]])
    def test_missing_id_is_answered_before_goodbye(self, handle, rid):
        from repro.client import _explain_request

        request = _explain_request(0, "g", failing_query(), None, True, True, False)
        if rid == "missing":
            del request["id"]
        else:
            request["id"] = rid
        replies = _raw_exchange(
            handle.address, [request, {"type": "goodbye"}]
        )
        assert [r["type"] for r in replies] == ["error", "goodbye"]
        assert replies[0]["code"] == "bad-request-id"
        assert replies[0]["id"] == (None if rid == "missing" else rid)

    def test_id_is_reusable_once_answered(self, handle):
        with connect(*handle.address) as c:
            for _ in range(2):
                c._send({"type": "count", "id": 5, "graph": "g",
                         "query": query_to_dict(matching_query())})
                assert c._next_frame(5)["count"] == 2


class TestShutdownMessage:
    def test_shutdown_forbidden_by_default(self, server):
        with connect(*server.address) as c:
            with pytest.raises(ServerError):
                c.shutdown_server()

    def test_shutdown_honoured_when_enabled(self):
        handle = serve_in_thread(allow_shutdown=True)
        with connect(*handle.address) as c:
            ack = c.shutdown_server()
            assert ack["type"] == "ok"
        handle._thread.join(timeout=30)
        assert not handle._thread.is_alive()


# -- async client ----------------------------------------------------------------


class TestAsyncClient:
    def test_async_multiplexed_requests(self, server):
        import asyncio

        from repro.client import connect_async

        async def run():
            client = await connect_async(*server.address)
            try:
                await client.put_graph("g", small_graph())
                counts = await asyncio.gather(
                    *(client.count("g", matching_query()) for _ in range(8))
                )
                assert counts == [2] * 8
                reports = await asyncio.gather(
                    client.explain("g", failing_query()),
                    client.explain("g", failing_query(), rewrite=False),
                )
                assert reports[0]["problem"] == "why-empty"
                assert reports[1]["rewriting"] is None
            finally:
                await client.close()

        asyncio.run(run())

    def test_async_streamed_explain_matches_sync(self, server):
        import asyncio

        from repro.client import connect_async

        async def run():
            client = await connect_async(*server.address)
            try:
                await client.put_graph("g", small_graph())
                stream = client.explain_stream("g", failing_query())
                seen = []
                async for candidate in stream:
                    seen.append(candidate)
                report = await stream.result()
                assert seen
                assert report["problem"] == "why-empty"
                return report
            finally:
                await client.close()

        async_report = asyncio.run(run())
        with connect(*server.address) as sync_client:
            sync_client.put_graph("g", small_graph())
            sync_report = sync_client.explain_stream("g", failing_query()).result()
        assert strip_volatile(async_report) == strip_volatile(sync_report)
