"""The benchmark's three why-query workloads and their closed loop.

Every workload is a fixed list of 16 explain requests.  One *pass*
sends each request exactly once, in an order shuffled from the seed, so
every run has the same mix; runs are made of whole passes.  One client
in one process sends the next request only when the previous one has
completed (closed loop).  Graph generation, references, recounts and
writes to the check copies stay outside the timed regions.

* ``empty_cold`` -- the 16 why-empty variants, each explained by a fresh
  ``WhyQueryService`` against a freshly generated graph object.  The plan
  cache, candidate cache and CSR registries key on graph identity, so
  only a new graph object is truly cold.
* ``empty_warm_remote`` -- the same variants over the protocol, against
  ``serve_in_thread`` with both graphs preloaded, by one
  ``WhyQueryClient`` using ``explain_stream``, after one untimed warm-up
  pass.
* ``bounds_writes`` -- the 16 why-so-few / why-so-many scenarios of
  ``fig6_scenarios`` on one warm in-process service; before each explain
  the benchmark makes one small write, the next of a fixed stream, to the
  graph it queries.
"""

from __future__ import annotations

import gc
import itertools
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.client import connect
from repro.datasets import dbpedia, ldbc
from repro.harness.experiments import fig6_scenarios
from repro.metrics.cardinality import CardinalityThreshold
from repro.server.server import serve_in_thread
from repro.service import WhyQueryService

from checks import Recounter, as_wire, reference_mismatch
from layers import (
    add_graph_delta,
    graph_counters,
    install_layer_spans,
    install_write_spans,
)
from spans import SpanRecorder

#: 7 passes x 16 requests = 112 explains, so p90 has at least ten
#: samples beyond it; every run makes at least this many passes
MIN_PASSES = 7
#: set-ups per run (one before the passes, then one after each pass
#: until there are this many); setup_s is their median
SETUP_REPEATS = 8
#: seed of the write streams of bounds_writes (see BoundsWrites.prepare)
WRITE_SEED = 1

GENERATORS: Dict[str, Callable] = {"ldbc": ldbc.generate, "dbpedia": dbpedia.generate}
MODULES = {"ldbc": ldbc, "dbpedia": dbpedia}


def generate(dataset: str):
    return GENERATORS[dataset]().graph


@dataclass(frozen=True)
class Request:
    key: str
    dataset: str
    query: Any
    threshold: Optional[CardinalityThreshold]


@dataclass
class Outcome:
    latency_s: float = 0.0
    #: time inside the timed region (write + explain)
    timed_s: float = 0.0
    first_candidate_s: Optional[float] = None
    report: Optional[Dict[str, Any]] = None
    error: Optional[str] = None


def empty_requests() -> List[Request]:
    requests = []
    for dataset, module in MODULES.items():
        for name in module.queries():
            for variant in (module.empty_variant, module.empty_variant_edge):
                requests.append(
                    Request(f"{dataset}|{name}|{variant.__name__}", dataset,
                            variant(name), None)
                )
    return requests


def bounds_requests() -> List[Request]:
    requests = []
    for dataset in MODULES:
        for label, query, threshold in fig6_scenarios(dataset):
            requests.append(Request(f"{dataset}|{label}", dataset, query, threshold))
    return requests


@contextmanager
def traced_scope(recorder: Optional[SpanRecorder], rid, graph=None, name="request"):
    """Open request ``rid`` on the recorder (no-op without one) and add the
    graph's compiled-backend counter deltas to its counts."""
    if recorder is None:
        yield
        return
    before = graph_counters(graph) if graph is not None else None
    with recorder.request(rid, name):
        yield
    if graph is not None:
        add_graph_delta(recorder.counts, before, graph_counters(graph))


def fresh_references(requests: List[Request]) -> Dict[str, Dict[str, Any]]:
    """Each request explained in process by a fresh service on a freshly
    generated graph: the reports every timed report must equal."""
    references = {}
    for request in requests:
        service = WhyQueryService()
        try:
            references[request.key] = as_wire(
                service.explain(generate(request.dataset), request.query,
                                request.threshold)
            )
        finally:
            service.close()
    return references


class _InProcess:
    """Set-up and explain call shared by the in-process workloads."""

    def setup(self):
        graphs = {dataset: generate(dataset) for dataset in GENERATORS}
        return graphs, WhyQueryService()

    def close(self, system) -> None:
        system[1].close()

    def timed_explain(self, service, graph, request, recorder, rid) -> Outcome:
        # garbage of earlier requests is collected outside the timed region
        gc.collect()
        outcome = Outcome()
        first: List[float] = []

        def on_candidate(item) -> None:
            if not first:
                first.append(time.perf_counter())

        try:
            with traced_scope(recorder, rid, graph):
                start = time.perf_counter()
                report = service.explain(graph, request.query, request.threshold,
                                         on_candidate=on_candidate)
                outcome.latency_s = time.perf_counter() - start
        except Exception as exc:  # a failed explain is counted, not fatal
            outcome.error = f"{type(exc).__name__}: {exc}"
            return outcome
        if first:
            outcome.first_candidate_s = first[0] - start
        outcome.report = as_wire(report)
        return outcome


class EmptyCold(_InProcess):
    name = "empty_cold"
    warmup_passes = 0
    trace_passes = 4

    def __init__(self, seed: int) -> None:
        self.requests = empty_requests()

    def prepare(self, system) -> None:
        self.references = fresh_references(self.requests)
        self.check_graphs = {dataset: generate(dataset) for dataset in GENERATORS}
        self.recounter = Recounter()

    def explain(self, system, request, recorder, rid, pass_index) -> Outcome:
        graph = generate(request.dataset)
        service = WhyQueryService()
        try:
            outcome = self.timed_explain(service, graph, request, recorder, rid)
        finally:
            service.close()
        outcome.timed_s = outcome.latency_s
        return outcome

    def check(self, request, outcome, pass_index) -> List[str]:
        return reference_mismatch(outcome.report, self.references[request.key]) + (
            self.recounter.mismatches(
                self.check_graphs[request.dataset], (request.dataset,),
                outcome.report, request.threshold,
            )
        )


class EmptyWarmRemote(EmptyCold):
    name = "empty_warm_remote"
    warmup_passes = 1
    trace_passes = 8

    def setup(self):
        graphs = {dataset: generate(dataset) for dataset in GENERATORS}
        handle = serve_in_thread(graphs=graphs)
        try:
            client = connect(*handle.address)
        except BaseException:
            handle.stop()
            raise
        return graphs, handle, client

    def close(self, system) -> None:
        _, handle, client = system
        try:
            client.close()
        finally:
            handle.stop()

    def explain(self, system, request, recorder, rid, pass_index) -> Outcome:
        graphs, _, client = system
        outcome = Outcome()
        try:
            with traced_scope(recorder, rid, graphs[request.dataset]):
                outcome.report = self._round_trip(client, request, outcome)
        except Exception as exc:  # a failed explain is counted, not fatal
            outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.timed_s = outcome.latency_s
        return outcome

    @staticmethod
    def _round_trip(client, request, outcome: Outcome) -> Dict[str, Any]:
        start = time.perf_counter()
        stream = client.explain_stream(request.dataset, request.query,
                                       request.threshold)
        for _ in stream:
            if outcome.first_candidate_s is None:
                outcome.first_candidate_s = time.perf_counter() - start
        report = stream.result()
        outcome.latency_s = time.perf_counter() - start
        return report


class _WriteMaker:
    """Small writes that keep the data's own shape: an edge of an
    existing type between vertices of the types it connects, or a vertex
    attribute (never ``type``) set to a value the attribute already takes
    on vertices of the same type.

    Which edge type or attribute a write touches decides which cached
    entries it invalidates, so the writes rotate through every edge type
    and attribute in a fixed order, alternating the two kinds; ``rng``
    picks the vertices and values.
    """

    def __init__(self, graph, rng: random.Random) -> None:
        self.rng = rng
        self.label_of = {
            vid: graph.vertex_attributes(vid)["type"] for vid in graph.vertices()
        }
        self.by_label: Dict[str, List[int]] = {}
        self.holders: Dict[str, List[int]] = {}
        domains: Dict[Tuple[str, str], set] = {}
        for vid in sorted(graph.vertices()):
            label = self.label_of[vid]
            self.by_label.setdefault(label, []).append(vid)
            for attr, value in graph.vertex_attributes(vid).items():
                if attr != "type":
                    self.holders.setdefault(attr, []).append(vid)
                    domains.setdefault((label, attr), set()).add(value)
        self.domains = {key: sorted(values, key=repr) for key, values in domains.items()}
        pairs: Dict[str, set] = {}
        for record in graph.edges():
            pairs.setdefault(record.type, set()).add(
                (self.label_of[record.source], self.label_of[record.target])
            )
        self.edge_pairs = {etype: sorted(p) for etype, p in pairs.items()}
        edges = [("add_edge", etype) for etype in sorted(self.edge_pairs)]
        attrs = [("set_vertex_attribute", attr) for attr in sorted(self.holders)]
        self.kinds = [kind for pair in itertools.zip_longest(edges, attrs)
                      for kind in pair if kind is not None]
        self.written = 0

    def next(self) -> Tuple[str, tuple]:
        rng = self.rng
        op, target = self.kinds[self.written % len(self.kinds)]
        self.written += 1
        if op == "add_edge":
            source_label, target_label = rng.choice(self.edge_pairs[target])
            source = rng.choice(self.by_label[source_label])
            end = rng.choice(self.by_label[target_label])
            while end == source:
                end = rng.choice(self.by_label[target_label])
            return op, (source, end, target)
        vid = rng.choice(self.holders[target])
        value = rng.choice(self.domains[(self.label_of[vid], target)])
        return op, (vid, target, value)


class BoundsWrites(_InProcess):
    name = "bounds_writes"
    warmup_passes = 1
    trace_passes = 4

    def __init__(self, seed: int) -> None:
        self.requests = bounds_requests()
        self.seed = seed

    def prepare(self, system) -> None:
        # check copies receive every write too: recounts run on them, so
        # the checks never touch the caches of the graph under test
        self.mirrors = {dataset: generate(dataset) for dataset in GENERATORS}
        self.write_log: Dict[str, List[Tuple[str, tuple]]] = {d: [] for d in GENERATORS}
        # one fixed write stream per graph: every run applies the same
        # writes in the same order, so runs differ in which explain each
        # write precedes (the seeded order), not in how the data evolves
        self.writers = {
            dataset: _WriteMaker(self.mirrors[dataset], random.Random(WRITE_SEED + i))
            for i, dataset in enumerate(GENERATORS)
        }
        self.recounter = Recounter()
        # a fresh reference costs a cold explain, so each scenario gets one
        # per run, on a seeded pass every run makes; every report is recounted
        picker = random.Random(self.seed * 17 + 5)
        self.reference_pass = {
            request.key: picker.randrange(MIN_PASSES) for request in self.requests
        }

    def explain(self, system, request, recorder, rid, pass_index) -> Outcome:
        graphs, service = system
        graph = graphs[request.dataset]
        if pass_index < 0:  # warm-up: explains only
            return self.timed_explain(service, graph, request, None, rid)
        op, args = self.writers[request.dataset].next()
        with traced_scope(recorder, ("write", rid), name="write"):
            start = time.perf_counter()
            getattr(graph, op)(*args)
            write_s = time.perf_counter() - start
        getattr(self.mirrors[request.dataset], op)(*args)
        self.write_log[request.dataset].append((op, args))
        outcome = self.timed_explain(service, graph, request, recorder, rid)
        outcome.timed_s = write_s + outcome.latency_s
        return outcome

    def check(self, request, outcome, pass_index) -> List[str]:
        problems = self.recounter.mismatches(
            self.mirrors[request.dataset], None, outcome.report, request.threshold
        )
        if self.reference_pass[request.key] == pass_index:
            fresh = generate(request.dataset)
            for op, args in self.write_log[request.dataset]:
                getattr(fresh, op)(*args)
            service = WhyQueryService()
            try:
                reference = as_wire(
                    service.explain(fresh, request.query, request.threshold)
                )
            finally:
                service.close()
            problems += reference_mismatch(outcome.report, reference)
        return problems


WORKLOADS = {cls.name: cls for cls in (EmptyCold, EmptyWarmRemote, BoundsWrites)}


@dataclass
class RunRecord:
    pass_index: int
    request: Request
    outcome: Outcome
    problems: List[str]
    traced: bool
    rid: int


@dataclass
class RunResult:
    workload: str
    setup_times: List[float]
    records: List[RunRecord] = field(default_factory=list)
    recorder: Optional[SpanRecorder] = None
    passes: int = 0
    traced_passes: int = 0


def run(name: str, seed: int, seconds: float, trace: bool,
        wall_limit: float = 110.0) -> RunResult:
    """Set up, prepare, then run whole passes of the workload.

    The system is set up once before the passes and again, to be closed
    at once, after passes until :data:`SETUP_REPEATS` set-ups are timed;
    setup_s is their median.

    Untraced, passes continue until ``seconds`` of timed work and at
    least :data:`MIN_PASSES` passes are done.  Traced, the run makes the
    workload's fixed number of passes, alternating untraced and traced
    ones (fixed work, so two runs with one seed count the same work).
    """
    workload = WORKLOADS[name](seed)
    result = RunResult(name, [])

    def timed_setup():
        gc.collect()
        start = time.perf_counter()
        system = workload.setup()
        result.setup_times.append(time.perf_counter() - start)
        return system

    def extra_setup():
        # set-ups spread over the run sample more of the machine's states
        # than back-to-back ones; these systems serve nothing
        workload.close(timed_setup())

    system = timed_setup()
    began = time.perf_counter()
    try:
        workload.prepare(system)
        for _ in range(workload.warmup_passes):
            for i, request in enumerate(workload.requests):
                workload.explain(system, request, None, -1 - i, -1)
        recorder = SpanRecorder() if trace else None
        result.recorder = recorder
        order_rng = random.Random(seed)
        timed = 0.0
        rid = 0
        while True:
            p = result.passes
            if trace:
                done = p >= workload.trace_passes
            else:
                done = p >= MIN_PASSES and timed >= seconds
            if done or (p >= 1 and time.perf_counter() - began > wall_limit):
                break
            # a new order each pass: on bounds_writes each request then
            # meets different writes between its turns within one run
            order = list(range(len(workload.requests)))
            order_rng.shuffle(order)
            traced = trace and p % 2 == 1
            gc.collect()
            if traced:
                install_layer_spans(recorder)
            try:
                for i in order:
                    request = workload.requests[i]
                    outcome = workload.explain(
                        system, request, recorder if traced else None, rid, p
                    )
                    timed += outcome.timed_s
                    problems = (
                        [] if outcome.error is not None
                        else workload.check(request, outcome, p)
                    )
                    result.records.append(
                        RunRecord(p, request, outcome, problems, traced, rid)
                    )
                    rid += 1
            finally:
                if traced:
                    recorder.uninstall()
            if traced:
                # building the graphs is the write layer of the workloads
                # that make no writes: one set-up per traced pass is traced
                install_write_spans(recorder)
                try:
                    with traced_scope(recorder, ("setup", p), name="setup"):
                        spare = workload.setup()
                finally:
                    recorder.uninstall()
                workload.close(spare)
                result.traced_passes += 1
            result.passes += 1
            if len(result.setup_times) < SETUP_REPEATS:
                extra_setup()
        while len(result.setup_times) < SETUP_REPEATS:
            extra_setup()
    finally:
        workload.close(system)
    return result

