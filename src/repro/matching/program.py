"""Flat match programs: plans lowered to specialized nested-loop kernels.

The second layer of the compiled matching backend.  A ``(query
signature, edge_order, injective)`` plan from
:mod:`repro.matching.plan` is lowered *once* into a flat program over
the packed arrays of :mod:`repro.matching.csr` -- conceptually a
SEED / EXPAND / FILTER / EMIT op sequence:

* SEED   -- iterate an interned candidate pool of dense vertex indexes
  (the first seed's pool arrives as a run-time argument so
  ``seed_restrict`` stays a per-call range clamp);
* EXPAND -- scan the anchor's row slice of a ``(type, direction)`` CSR
  segment: candidate edge index and opposite endpoint come from two
  flat-array reads, so a typed query edge never visits edges of other
  types;
* FILTER -- one-byte bitset probes (interned predicate masks,
  injectivity scratch maps) plus the self-loop dedup and bound-endpoint
  equality tests, in exactly the interpreter's check order;
* EMIT   -- count, or construct the :class:`ResultGraph` binding tuple.

Rather than dispatching those ops through a loop, the lowering emits
them as Python source -- one specialized nested loop per program, with
every array bound as a default argument (locals, no per-step dict or
attribute lookups) -- and ``compile()``/``exec()`` turns them into a
callable kernel.  The kernel performs no allocation per step: scratch
bitsets are two ``bytearray`` blocks per call, and the enumeration
visits exactly the candidates the interpreter visits, so the ``steps``
counter of a compiled run equals the interpreter's on unbounded
evaluations (the differential invariant the tests pin down).

Programs are cached on the :class:`~repro.matching.csr.CSRIndex` they
are specialized over and die with it when the graph's mutation counter
moves.  On partial graphs (worker-side slices) a program guards every
expansion anchored at an unknown-adjacency vertex by raising the
slice's miss through the slice's own accessor -- never by silently
scanning an empty row.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import AbstractSet, Any, Dict, List, Optional, Sequence, Tuple

from repro.core.query import Direction, GraphQuery
from repro.core.result import ResultGraph
from repro.matching.csr import CSRIndex, csr_entry
from repro.matching.evalcache import EvaluationCache
from repro.matching.plan import ExpandStep, PlanStep, SeedStep, build_plan
from repro.obs.tracing import SPAN_PLAN, SPAN_PROGRAM_COMPILE, current_tracer

__all__ = ["MatchProgram", "ProgramUnsupported", "compiled_program"]

#: bound on the per-program seed-restrict pool memo (one entry per shard
#: of every partition granularity a program is driven under)
_RESTRICT_MEMO_ENTRIES = 64


class ProgramUnsupported(Exception):
    """The plan has a shape the lowering does not handle; the caller
    falls back to the interpreter (the correctness oracle)."""


class MatchProgram:
    """One plan, lowered and specialized over one :class:`CSRIndex`.

    Construction performs the lowering (interning every pool, mask and
    adjacency segment the plan touches, and generating the kernel
    source); the count and match kernels are compiled lazily on first
    use.  ``run_count`` / ``run_match`` return ``(value, steps)`` so the
    caller can fold the search effort into its own counters.
    """

    __slots__ = (
        "csr",
        "plan",
        "injective",
        "partial",
        "source",
        "_base_pool",
        "_restrict_pools",
        "_consts",
        "_body",
        "_count_body",
        "_rg_expr",
        "_count_fn",
        "_match_fn",
    )

    def __init__(
        self,
        csr: CSRIndex,
        plan: Sequence[PlanStep],
        query: GraphQuery,
        injective: bool = True,
        evalcache: Optional[EvaluationCache] = None,
    ) -> None:
        self.csr = csr
        #: the plan object this program was last resolved from; the
        #: reference pins it alive while ``CSRIndex.plan_programs`` keys
        #: the program by its id
        self.plan = plan
        self.injective = injective
        self.partial = csr.partial
        self.source: Dict[str, str] = {}
        self._restrict_pools: Dict[frozenset, array] = {}
        self._count_fn: Optional[Any] = None
        self._match_fn: Optional[Any] = None
        self._lower(list(plan), query, evalcache)

    # -- lowering ---------------------------------------------------------------

    def _lower(
        self,
        plan: List[PlanStep],
        query: GraphQuery,
        evalcache: Optional[EvaluationCache],
    ) -> None:
        if not plan or not isinstance(plan[0], SeedStep):
            raise ProgramUnsupported("plan does not open with a seed step")
        csr = self.csr
        injective = self.injective
        consts: Dict[str, Any] = {}
        const_ids: Dict[int, str] = {}

        def const(prefix: str, value: Any) -> str:
            name = const_ids.get(id(value))
            if name is None:
                name = f"_{prefix}{len(consts)}"
                consts[name] = value
                const_ids[id(value)] = name
            return name

        vid_name = const("vid", csr.vid_of)
        eid_name = const("eid", csr.eid_of)
        rg_name = const("RG", ResultGraph)
        self._base_pool = csr.seed_pool(query.vertex(plan[0].vid), evalcache)
        last = len(plan) - 1

        # the count kernel is lowered first, then the match kernel (whose
        # bindings the ResultGraph expression names); ``gen`` reads the
        # current ``count``/``body``/``vvar``/``evar`` through its closure
        count = True
        body: List[str] = []
        vvar: Dict[int, str] = {}
        evar: Dict[int, str] = {}

        def count_one(pad: str, bulk: bool) -> None:
            body.append(f"{pad}nmatch += 1")
            if not bulk:
                body.append(f"{pad}if nmatch == limit: return nmatch, steps")

        def gen(i: int, indent: int) -> None:
            pad = "    " * indent
            if i == len(plan):
                body.append(pad + "__EMIT__")
                return
            step = plan[i]
            # a counted match needs no bindings: the count kernel's
            # last step counts its surviving candidates in place
            leaf = count and i == last
            if isinstance(step, SeedStep):
                v = f"v{len(vvar)}"
                vvar[step.vid] = v
                if i == 0:
                    # the first seed's pool is the run-time argument --
                    # that is the whole seed_restrict clamp seam
                    pool_expr = "pool"
                else:
                    pool_expr = const(
                        "pool", csr.seed_pool(query.vertex(step.vid), evalcache)
                    )
                body.append(f"{pad}for {v} in {pool_expr}:")
                inner = indent + 1
                ipad = "    " * inner
                body.append(f"{ipad}steps += 1")
                if injective and i > 0:
                    body.append(f"{ipad}if used_v[{v}]: continue")
                if leaf:
                    count_one(ipad, False)
                    return
                if injective:
                    body.append(f"{ipad}used_v[{v}] = 1")
                gen(i + 1, inner)
                if injective:
                    body.append(f"{ipad}used_v[{v}] = 0")
                return

            qedge = query.edge(step.eid)
            anchor_var = vvar[step.anchor]
            anchor_is_source = step.anchor == qedge.source
            directions = qedge.directions
            want_out = (anchor_is_source and Direction.FORWARD in directions) or (
                not anchor_is_source and Direction.BACKWARD in directions
            )
            want_in = (anchor_is_source and Direction.BACKWARD in directions) or (
                not anchor_is_source and Direction.FORWARD in directions
            )
            # sorted for deterministic segment order, like the interpreter
            types = sorted(qedge.types) if qedge.types is not None else [None]
            segments: List[Tuple[Tuple[array, array, array], bool]] = []
            if want_out:
                for t in types:
                    seg = csr.adjacency(t, "out")
                    if len(seg[1]):
                        segments.append((seg, False))
            if want_in:
                for t in types:
                    seg = csr.adjacency(t, "in")
                    if len(seg[1]):
                        # the out walk already yields self-loops; dedup
                        segments.append((seg, want_out))
            if self.partial:
                kn = const("kn", csr.known)
                body.append(
                    f"{pad}if not {kn}[{anchor_var}]: "
                    f"adjmiss({vid_name}[{anchor_var}])"
                )
            if not segments:
                # no data edge can ever match this step: dead subtree
                return
            emask = csr.edge_mask(qedge)
            em = const("em", emask) if emask is not None else None
            # no earlier step binds an edge: the scratch map is all
            # zeros here, so the edge injectivity test cannot fail
            check_used_e = injective and bool(evar)
            ev = f"e{len(evar)}"
            evar[step.eid] = ev
            if step.new_vid is None:
                w = vm = None
                other_var = vvar[qedge.other_end(step.anchor)]
            else:
                w = f"v{len(vvar)}"
                vvar[step.new_vid] = w
                vmask = csr.vertex_mask(query.vertex(step.new_vid), evalcache)
                vm = const("vm", vmask) if vmask is not None else None
            sl_needed = any(skip for _, skip in segments)
            sl = const("sl", csr.selfloop) if sl_needed else None
            # the count leaf reads the edge index only to test it
            need_e = not leaf or check_used_e or em is not None
            x = f"_x{i}"

            def candidate(
                indent: int, e_expr: str, o_expr: str, skip: Optional[str]
            ) -> None:
                pad = "    " * indent
                if need_e or skip is not None:
                    body.append(f"{pad}{ev} = {e_expr}")
                if skip is not None:
                    body.append(f"{pad}if {skip}: continue")
                body.append(f"{pad}steps += 1")
                checks(pad, o_expr, False)

            def checks(pad: str, o_expr: Optional[str], bulk: bool) -> None:
                """The candidate's filters, then the leaf count or the
                bind-recurse-unbind of the next step."""
                if check_used_e:
                    body.append(f"{pad}if used_e[{ev}]: continue")
                if em is not None:
                    body.append(f"{pad}if not {em}[{ev}]: continue")
                if w is None:
                    body.append(f"{pad}if {o_expr} != {other_var}: continue")
                    if leaf:
                        count_one(pad, bulk)
                        return
                    if injective:
                        body.append(f"{pad}used_e[{ev}] = 1")
                    gen(i + 1, len(pad) // 4)
                    if injective:
                        body.append(f"{pad}used_e[{ev}] = 0")
                    return
                if o_expr is not None:
                    body.append(f"{pad}{w} = {o_expr}")
                if injective:
                    body.append(f"{pad}if used_v[{w}]: continue")
                if vm is not None:
                    body.append(f"{pad}if not {vm}[{w}]: continue")
                if leaf:
                    count_one(pad, bulk)
                    return
                if injective:
                    body.append(f"{pad}used_v[{w}] = 1")
                    body.append(f"{pad}used_e[{ev}] = 1")
                gen(i + 1, len(pad) // 4)
                if injective:
                    body.append(f"{pad}used_e[{ev}] = 0")
                    body.append(f"{pad}used_v[{w}] = 0")

            def leaf_rows(indent: int, ip: str, ea: str, oa: str, skip: str) -> None:
                """A count leaf's row: candidate by candidate while the
                limit may fall inside it (or self-loops are skipped),
                otherwise no limit test and its steps added at once --
                the same count and the same ``steps``."""
                pad = "    " * indent
                lo, hi = f"_lo{i}", f"_hi{i}"
                body.append(f"{pad}{lo} = {ip}[{anchor_var}]")
                body.append(f"{pad}{hi} = {ip}[{anchor_var} + 1]")
                exact = f"limit and limit - nmatch <= {hi} - {lo}"
                if skip:
                    exact = f"{skip} or ({exact})"
                body.append(f"{pad}if {exact}:")
                body.append(f"{pad}    for {x} in range({lo}, {hi}):")
                candidate(
                    indent + 2,
                    f"{ea}[{x}]",
                    f"{oa}[{x}]",
                    f"{skip} and {sl}[{ev}]" if skip else None,
                )
                body.append(f"{pad}else:")
                body.append(f"{pad}    steps += {hi} - {lo}")
                o = w if w is not None else f"_o{i}"
                if need_e:
                    body.append(
                        f"{pad}    for {ev}, {o} in zip({ea}[{lo}:{hi}], {oa}[{lo}:{hi}]):"
                    )
                else:
                    body.append(f"{pad}    for {o} in {oa}[{lo}:{hi}]:")
                checks("    " * (indent + 2), None if w is not None else o, True)

            if len(segments) == 1:
                (indptr, edge_ix, other_ix), skip_self = segments[0]
                ip = const("ip", indptr)
                ea = const("ea", edge_ix)
                oa = const("oa", other_ix)
                if leaf and not skip_self:
                    leaf_rows(indent, ip, ea, oa, "")
                    return
                body.append(
                    f"{pad}for {x} in range({ip}[{anchor_var}], "
                    f"{ip}[{anchor_var} + 1]):"
                )
                candidate(
                    indent + 1,
                    f"{ea}[{x}]",
                    f"{oa}[{x}]",
                    f"{sl}[{ev}]" if skip_self else None,
                )
            else:
                packed = const(
                    "segs",
                    tuple(
                        (ip_, ea_, oa_, 1 if skip else 0)
                        for (ip_, ea_, oa_), skip in segments
                    ),
                )
                sp, se, so, sk = f"_sp{i}", f"_se{i}", f"_so{i}", f"_sk{i}"
                body.append(f"{pad}for {sp}, {se}, {so}, {sk} in {packed}:")
                if leaf:
                    leaf_rows(indent + 1, sp, se, so, sk if sl_needed else "")
                    return
                mid = indent + 1
                mpad = "    " * mid
                body.append(
                    f"{mpad}for {x} in range({sp}[{anchor_var}], "
                    f"{sp}[{anchor_var} + 1]):"
                )
                candidate(
                    mid + 1,
                    f"{se}[{x}]",
                    f"{so}[{x}]",
                    f"{sk} and {sl}[{ev}]" if sl_needed else None,
                )

        gen(0, 1)
        self._count_body = body
        count = False
        body, vvar, evar = [], {}, {}
        gen(0, 1)
        self._body = body
        vparts = ", ".join(
            f"({qvid}, {vid_name}[{var}])" for qvid, var in sorted(vvar.items())
        )
        eparts = ", ".join(
            f"({qeid}, {eid_name}[{var}])" for qeid, var in sorted(evar.items())
        )
        vtuple = f"({vparts},)" if vparts else "()"
        etuple = f"({eparts},)" if eparts else "()"
        self._rg_expr = f"{rg_name}({vtuple}, {etuple})"
        self._consts = consts

    # -- kernel compilation -----------------------------------------------------

    def _compile(self, mode: str) -> Any:
        lines: List[str] = []
        for line in self._count_body if mode == "count" else self._body:
            stripped = line.lstrip()
            if stripped == "__EMIT__":
                pad = line[: len(line) - len(stripped)]
                if mode == "match":
                    lines.append(f"{pad}out_append({self._rg_expr})")
                lines.append(f"{pad}nmatch += 1")
                lines.append(f"{pad}if nmatch == limit: return nmatch, steps")
            else:
                lines.append(line)
        header = "def _kernel(pool, limit, used_v, used_e, out, adjmiss" + "".join(
            f", {name}={name}" for name in self._consts
        )
        preamble = ["    steps = 0", "    nmatch = 0"]
        if mode == "match":
            preamble.append("    out_append = out.append")
        src = "\n".join([header + "):"] + preamble + lines + ["    return nmatch, steps", ""])
        self.source[mode] = src
        namespace: Dict[str, Any] = {"range": range, **self._consts}
        exec(compile(src, f"<match-program:{mode}>", "exec"), namespace)
        return namespace["_kernel"]

    # -- seed pools -------------------------------------------------------------

    def _pool_for(self, seed_restrict: Optional[AbstractSet[int]]) -> array:
        if seed_restrict is None:
            return self._base_pool
        restrict = (
            seed_restrict
            if isinstance(seed_restrict, frozenset)
            else frozenset(seed_restrict)
        )
        pool = self._restrict_pools.get(restrict)
        if pool is None:
            pool = self._restricted_pool(restrict)
            if len(self._restrict_pools) >= _RESTRICT_MEMO_ENTRIES:
                self._restrict_pools.clear()
            self._restrict_pools[restrict] = pool
        return pool

    def _restricted_pool(self, restrict: frozenset) -> array:
        base = self._base_pool
        if not restrict or not len(base):
            return array("l")
        csr = self.csr
        vid_of = csr.vid_of
        lo, hi = min(restrict), max(restrict)
        a = bisect_left(vid_of, lo)
        b = bisect_right(vid_of, hi)
        ix_of = csr.ix_of
        if b - a == len(restrict) and all(vid in ix_of for vid in restrict):
            # the restriction is exactly the universe's contiguous vid
            # run [lo, hi] (every shard of the range partitioner is):
            # clamp the pool to the index range -- a pure slice copy
            pa = bisect_left(base, a)
            pb = bisect_right(base, b - 1)
            return base[pa:pb]
        return array("l", (ix for ix in base if vid_of[ix] in restrict))

    # -- execution --------------------------------------------------------------

    def _scratch(self) -> Tuple[Optional[bytearray], Optional[bytearray]]:
        if not self.injective:
            return None, None
        return bytearray(self.csr.num_vertices), bytearray(self.csr.num_edges)

    def run_count(
        self,
        graph: Any,
        limit: Optional[int] = None,
        seed_restrict: Optional[AbstractSet[int]] = None,
    ) -> Tuple[int, int]:
        """Bounded match count: ``(count, steps)``; ``limit <= 0`` counts
        nothing, like :meth:`run_match`."""
        if limit is not None and limit <= 0:
            return 0, 0
        fn = self._count_fn
        if fn is None:
            fn = self._count_fn = self._compile("count")
        # nmatch starts at 1 on first emit: limit 0 never triggers
        prog_limit = 0 if limit is None else limit
        used_v, used_e = self._scratch()
        adjmiss = graph._cell if self.partial else None
        return fn(self._pool_for(seed_restrict), prog_limit, used_v, used_e, None, adjmiss)

    def run_match(
        self,
        graph: Any,
        limit: Optional[int] = None,
        seed_restrict: Optional[AbstractSet[int]] = None,
    ) -> Tuple[List[ResultGraph], int]:
        """Bounded enumeration: ``(result graphs, steps)``."""
        out: List[ResultGraph] = []
        if limit is not None and limit <= 0:
            return out, 0
        fn = self._match_fn
        if fn is None:
            fn = self._match_fn = self._compile("match")
        prog_limit = 0 if limit is None else limit
        used_v, used_e = self._scratch()
        adjmiss = graph._cell if self.partial else None
        _, steps = fn(self._pool_for(seed_restrict), prog_limit, used_v, used_e, out, adjmiss)
        return out, steps


def compiled_program(
    graph: Any,
    query: GraphQuery,
    edge_order: Optional[Sequence[int]] = None,
    injective: bool = True,
    evalcache: Optional[EvaluationCache] = None,
) -> MatchProgram:
    """The cached program for ``(graph version, query signature,
    edge_order, injective)``, lowering it on first request.

    Resolution goes *through* the plan cache: the plan is the memoised
    pure function of ``(graph, query signature, edge_order)`` already,
    so the program cache keys on the query signature plus the plan's
    step content, extended by the injectivity mode the kernel is
    specialized for (steps are frozen dataclasses, so equal plans for
    the same query -- including ones the delta-scoped plan cache
    re-derived after a statistics change -- share one compiled
    kernel).  Plan-cache hit counters
    therefore keep reporting variant reuse exactly as on the interpreter
    path.  The program cache lives on the
    :class:`~repro.matching.csr.CSRIndex`.  When a mutation is patched
    into the index in place (:meth:`CSRIndex.apply_deltas`) the
    programs survive -- their bound arrays are the very objects the
    patch extended; only a full rebuild (or an empty adjacency segment
    turning non-empty, which invalidates lowered pruning decisions)
    discards them.
    """
    entry = csr_entry(graph)
    tracer = current_tracer()
    with tracer.span(SPAN_PLAN):
        plan = build_plan(graph, query, edge_order)
    csr = entry.csr
    # the plan cache hands every repeat of a query the same plan object:
    # a plan already served resolves by identity, without re-deriving
    # the query signature or hashing the steps
    program = csr.plan_programs.get((id(plan), injective))
    if program is not None and program.plan is plan:
        entry.program_hits += 1
        return program
    # key on the query's signature *and* the plan's step content (steps
    # are frozen dataclasses): a plan the delta-scoped cache dropped and
    # re-derived identically maps back to its already-compiled kernel,
    # while same-shaped queries with different predicates -- whose plans
    # carry only vertex/edge ids -- never collide
    key = (query.signature(), tuple(plan), injective)
    program = csr.programs.get(key)
    if program is None:
        with tracer.span(SPAN_PROGRAM_COMPILE):
            program = MatchProgram(csr, plan, query, injective, evalcache)
        csr.programs[key] = program
        entry.programs_compiled += 1
    else:
        entry.program_hits += 1
        # one identity shortcut per program: a re-derived plan replaces
        # the dropped one's
        csr.plan_programs.pop((id(program.plan), injective), None)
        program.plan = plan
    csr.plan_programs[(id(plan), injective)] = program
    return program
