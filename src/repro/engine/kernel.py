"""The product-BFS kernel: cached compile plus one int-encoded product BFS.

Section 6 of the paper makes the product construction ``G x A`` the common
core of RPQ, CRPQ and GQL evaluation; Figueira & Lin's complexity analysis
shows this core dominates evaluation cost.  This module is the one
production implementation of that core:

* queries compile through the LRU :mod:`repro.engine.cache` (repeat queries
  skip parsing and Glushkov entirely);
* each graph version has one flat snapshot (:mod:`repro.engine.csr`): nodes
  and labels interned to dense ints by the
  :class:`~repro.engine.intern.Interner` (nodes in ``repr``-sorted order, so
  every process holding the same node set numbers it identically), and
  adjacency as label-partitioned CSR rows in ``array('i')``;
* the automaton is lowered into the same int space
  (:class:`~repro.engine.cache.IntPlan`, ``repr``-sorted states), so a
  product pair is one packed code ``(node_int << k) | state_int``;
* every entry point threads an optional :class:`~repro.engine.stats.EngineStats`
  recording nodes expanded, edges relaxed, cache behaviour and phase times.

Two loops walk the product, and the entry points pick one by the number of
sources they are given:

* :func:`_csr_reachable` — one source: a BFS with a bytearray-bitset
  visited set and an optional early-exit target.  It serves
  :func:`reachable`, :func:`holds`, and :func:`evaluate` with exactly one
  source.  Run ``backward`` it walks the snapshot's incoming rows instead,
  so a reversed expression from a bound *target* yields that target's
  sources (a backward-bound CRPQ atom) with no reversed graph;
* :func:`_csr_sweep` — any other number of sources: the origin-tracking
  sweep, one bitmask of origins per product pair.  It serves
  :func:`evaluate` and, with a per-node ownership array and a cross-pair
  output, the shard step of distributed evaluation
  (:func:`repro.distributed.frontier.local_frontier_step`).

The language frontends (``rpq.evaluation``, ``crpq.evaluation``,
``coregql.semantics``, ``gql.semantics``) call into here.  The seed's naive
evaluator, kept as the reference oracle of the differential tests, lives in
``tests/oracles.py``.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterable
from itertools import islice

from repro.engine.cache import (
    DEFAULT_CACHE,
    CompilationCache,
    CompiledQuery,
    alphabet_for,
    compile_uncached,
)
from repro.engine.csr import CSRGraph, get_csr
from repro.engine.faults import FAULTS, fault_point
from repro.engine.limits import BudgetExceeded, QueryBudget
from repro.engine.stats import EngineStats
from repro.engine.tracing import get_tracer
from repro.graph.edge_labeled import EdgeLabeledGraph, ObjectId
from repro.regex.ast import Regex, to_string


def _budget_hooks(budget: "QueryBudget | None"):
    """Hoist the budget's hot-loop callables (or Nones) for one traversal.

    Evaluators bind these to locals so the unbudgeted path pays a single
    ``is not None`` comparison per iteration and the budgeted path a plain
    function call — no attribute lookups inside the loop either way.
    """
    if budget is None:
        return None, None
    budget.check()  # fail fast on an already-expired deadline
    tick = budget.tick
    check_rows = budget.check_rows if budget.max_rows is not None else None
    return tick, check_rows


def _raise_with_partial(
    exc: BudgetExceeded, answers, budget: "QueryBudget | None"
):
    """Attach the rows produced so far and re-raise.

    For a ``max_rows`` trip the attached set is *exactly* the ceiling: the
    answer whose arrival tripped the limit is sliced off, so callers
    surfacing partial results report a true k-subset of the full answer.
    """
    if (
        budget is not None
        and exc.limit == "max_rows"
        and budget.max_rows is not None
    ):
        exc.attach_partial(set(islice(answers, budget.max_rows)))
    else:
        exc.attach_partial(set(answers))
    raise exc


def query_text(query: "Regex | str | CompiledQuery") -> str:
    """A short textual rendering of a query for span attributes and logs."""
    if isinstance(query, str):
        return query
    if isinstance(query, CompiledQuery):
        if query.regex is None:
            return repr(query)
        return to_string(query.regex)
    if isinstance(query, Regex):
        return to_string(query)
    return repr(query)


def compile_query(
    query: "Regex | str | CompiledQuery",
    graph: EdgeLabeledGraph,
    *,
    cache: "CompilationCache | None" = DEFAULT_CACHE,
    stats: "EngineStats | None" = None,
) -> CompiledQuery:
    """Compile ``query`` over the Remark 11 alphabet of ``graph``.

    Passing ``cache=None`` forces a fresh parse + Glushkov run (the naive
    pipeline the seed used on every single call).
    """
    if isinstance(query, CompiledQuery):
        return query
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span("kernel.compile", query=query_text(query)) as span:
            compiled = _compile_query(query, graph, cache, stats)
            span.set(states=compiled.nfa.num_states, alphabet=len(compiled.alphabet))
            return compiled
    return _compile_query(query, graph, cache, stats)


def _compile_query(
    query: "Regex | str",
    graph: EdgeLabeledGraph,
    cache: "CompilationCache | None",
    stats: "EngineStats | None",
) -> CompiledQuery:
    started = time.perf_counter()
    if cache is None:
        regex = query if isinstance(query, Regex) else None
        if regex is None:
            from repro.regex.parser import parse_regex

            regex = parse_regex(query)
        compiled = compile_uncached(regex, alphabet_for(regex, graph))
    else:
        regex = query if isinstance(query, Regex) else cache.parse(query, stats)
        compiled = cache.compile(regex, alphabet_for(regex, graph), stats)
    if stats is not None:
        stats.add_time("compile", time.perf_counter() - started)
    return compiled


def reachable(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    source: ObjectId,
    *,
    stats: "EngineStats | None" = None,
    budget: "QueryBudget | None" = None,
    backward: bool = False,
) -> set[ObjectId]:
    """All nodes ``v`` with ``(source, v)`` in ``[[R]]_G``.

    One BFS over packed ``(node, state)`` codes; each automaton transition
    out of a state reads only the CSR row of its label.  With ``backward``
    the BFS follows edges against their direction (the snapshot's
    ``in_rows``): for the reversed expression ``R^-`` it returns every
    ``u`` with ``(u, source)`` in ``[[R]]_G``.
    """
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span(
            "kernel.reachable", query=query_text(compiled), source=str(source)
        ) as span:
            answers = _reachable(
                compiled, graph, source, stats, budget, backward=backward
            )
            span.set(answers=len(answers))
            return answers
    return _reachable(compiled, graph, source, stats, budget, backward=backward)


def _reachable(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    source: ObjectId,
    stats: "EngineStats | None" = None,
    budget: "QueryBudget | None" = None,
    goal: "ObjectId | None" = None,
    backward: bool = False,
) -> set[ObjectId]:
    """The uninstrumented BFS body (also the tracing-overhead baseline).

    With a ``goal`` node it is the body of :func:`holds`: the BFS stops at
    ``goal`` and no row ceiling applies to its yes/no answer.
    """
    if not graph.has_node(source):
        return set()
    if goal is not None and not graph.has_node(goal):
        return set()
    fault_point("kernel.evaluate")
    tick, check_rows = _budget_hooks(budget)
    return _csr_reachable(
        compiled, graph, source, tick, None if goal is not None else check_rows,
        stats, budget, time.perf_counter(), goal, backward,
    )


class _GoalReached(Exception):
    """Raised inside :func:`_csr_reachable` to leave all its loops at once."""


def _csr_reachable(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    source: ObjectId,
    tick,
    check_rows,
    stats: "EngineStats | None",
    budget: "QueryBudget | None",
    started: float,
    goal: "ObjectId | None" = None,
    backward: bool = False,
) -> set[ObjectId]:
    """Single-source BFS on the flat data plane.

    The product state is a packed code ``(node_int << k) | state_int``; the
    visited set is a bytearray bitset over ``num_nodes << k`` bits; answers
    accumulate as node ints and decode once at the end.  With a ``goal``
    node the BFS stops as soon as it reaches ``goal`` in a final state (the
    answers found so far are returned, ``goal`` among them) and a budget
    trip carries no partial answer, since the caller's answer is a boolean.
    ``backward`` walks the incoming rows: edge ``u -a-> v`` is taken from
    ``v`` to ``u``.
    """
    csr = get_csr(graph, stats)
    interner = csr.interner
    plan = compiled.int_plan(interner)
    source_int = interner._node_ids[source]
    goal_int = -1 if goal is None else interner._node_ids[goal]
    k = plan.state_bits
    state_mask = plan.state_mask
    finals_mask = plan.finals_mask
    delta = plan.delta
    rows_by_label = csr.in_rows if backward else csr.out_rows
    fire = FAULTS.fire if FAULTS.enabled else None
    visited = bytearray(((csr.num_nodes << k) + 7) >> 3)
    queue = deque()
    answer_ints: set[int] = set()
    for state in plan.initial:
        code = (source_int << k) | state
        byte = code >> 3
        bit = 1 << (code & 7)
        if not visited[byte] & bit:
            visited[byte] |= bit
            queue.append(code)
            if (finals_mask >> state) & 1:
                answer_ints.add(source_int)
    if goal_int in answer_ints:
        queue.clear()
    expanded = 0
    relaxed = 0
    try:
        if check_rows is not None and answer_ints:
            check_rows(len(answer_ints))
        while queue:
            code = queue.popleft()
            expanded += 1
            if fire is not None:
                fire("kernel.step")
            if tick is not None:
                tick()
            rows = delta[code & state_mask]
            if not rows:
                continue
            node = code >> k
            for label_int, next_states in rows:
                offsets, targets = rows_by_label[label_int]
                lo = offsets[node]
                hi = offsets[node + 1]
                if lo == hi:
                    continue
                relaxed += hi - lo
                for target in targets[lo:hi]:
                    base = target << k
                    for next_state in next_states:
                        succ = base | next_state
                        byte = succ >> 3
                        bit = 1 << (succ & 7)
                        if not visited[byte] & bit:
                            visited[byte] = visited[byte] | bit
                            queue.append(succ)
                            if (finals_mask >> next_state) & 1:
                                answer_ints.add(target)
                                if target == goal_int:
                                    raise _GoalReached
                                if check_rows is not None:
                                    check_rows(len(answer_ints))
    except _GoalReached:
        pass
    except BudgetExceeded as exc:
        if stats is not None:
            stats.count("nodes_expanded", expanded)
            stats.count("edges_relaxed", relaxed)
            stats.count("budget_exceeded")
            stats.add_time("bfs", time.perf_counter() - started)
        if goal is not None:
            raise
        nodes = interner._nodes
        _raise_with_partial(exc, {nodes[i] for i in answer_ints}, budget)
    if stats is not None:
        stats.count("nodes_expanded", expanded)
        stats.count("edges_relaxed", relaxed)
        stats.count("answers", len(answer_ints))
        stats.add_time("bfs", time.perf_counter() - started)
    nodes = interner._nodes
    return {nodes[i] for i in answer_ints}


def holds(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    source: ObjectId,
    target: ObjectId,
    *,
    stats: "EngineStats | None" = None,
    budget: "QueryBudget | None" = None,
) -> bool:
    """Whether ``(source, target)`` answers the query, with early exit."""
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span(
            "kernel.holds",
            query=query_text(compiled),
            source=str(source),
            target=str(target),
        ) as span:
            found = target in _reachable(
                compiled, graph, source, stats, budget, target
            )
            span.set(found=found)
            return found
    return target in _reachable(compiled, graph, source, stats, budget, target)


def evaluate(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    sources: "Iterable[ObjectId] | None" = None,
    *,
    stats: "EngineStats | None" = None,
    budget: "QueryBudget | None" = None,
) -> set[tuple[ObjectId, ObjectId]]:
    """``[[R]]_G`` over all (or the given) sources.

    Sources that are not nodes of ``graph`` are skipped.  Exactly one
    remaining source runs the single-source BFS (:func:`_csr_reachable`);
    any other number runs one origin-tracking sweep (:func:`_csr_sweep`)
    for all of them at once.
    """
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span("kernel.evaluate", query=query_text(compiled)) as span:
            answers = _evaluate(compiled, graph, sources, stats, budget)
            span.set(answers=len(answers))
            return answers
    return _evaluate(compiled, graph, sources, stats, budget)


def _evaluate(
    compiled: CompiledQuery,
    graph: EdgeLabeledGraph,
    sources: "Iterable[ObjectId] | None" = None,
    stats: "EngineStats | None" = None,
    budget: "QueryBudget | None" = None,
) -> set[tuple[ObjectId, ObjectId]]:
    """The uninstrumented body of :func:`evaluate`."""
    started = time.perf_counter()
    if sources is None:
        source_list = list(graph.iter_nodes())
    else:
        source_list = [s for s in sources if graph.has_node(s)]
    if not source_list:
        return set()
    fault_point("kernel.evaluate")
    tick, check_rows = _budget_hooks(budget)
    if len(source_list) == 1:
        source = source_list[0]
        try:
            targets = _csr_reachable(
                compiled, graph, source, tick, check_rows, stats, budget, started
            )
        except BudgetExceeded as exc:
            raise exc.attach_partial({(source, t) for t in exc.partial or ()})
        return {(source, target) for target in targets}
    csr = get_csr(graph, stats)
    interner = csr.interner
    plan = compiled.int_plan(interner)
    node_ids = interner._node_ids
    k = plan.state_bits
    seeds: dict[int, int] = {}
    for source in source_list:
        source_int = node_ids[source]
        bit = 1 << source_int
        base = source_int << k
        for state in plan.initial:
            code = base | state
            seeds[code] = seeds.get(code, 0) | bit
    answer_masks = [0] * csr.num_nodes
    try:
        expanded, relaxed, _ = _csr_sweep(
            csr, plan, seeds, answer_masks, tick, check_rows
        )
    except BudgetExceeded as exc:
        if stats is not None:
            stats.count("budget_exceeded")
            stats.add_time("bfs", time.perf_counter() - started)
        _raise_with_partial(
            exc, decode_answer_masks(answer_masks, interner.nodes), budget
        )
    answers = decode_answer_masks(answer_masks, interner.nodes)
    if stats is not None:
        stats.count("sweep_sources", len(source_list))
        stats.count("nodes_expanded", expanded)
        stats.count("edges_relaxed", relaxed)
        stats.count("answers", len(answers))
        stats.add_time("bfs", time.perf_counter() - started)
    return answers


def decode_answer_masks(answer_masks, nodes) -> set[tuple[ObjectId, ObjectId]]:
    """``answer_masks[target_int] = origin bitmask`` -> ``{(origin, target)}``.

    ``nodes`` is the numbering both indices refer to (``nodes[i]`` is node
    int ``i``): an :attr:`Interner.nodes` list, locally or across shards.
    """
    answers: set[tuple[ObjectId, ObjectId]] = set()
    add = answers.add
    for target_int, mask in enumerate(answer_masks):
        if mask:
            target = nodes[target_int]
            while mask:
                low = mask & -mask
                add((nodes[low.bit_length() - 1], target))
                mask ^= low
    return answers


def _csr_sweep(
    csr: CSRGraph,
    plan,
    seeds: "dict[int, int]",
    answer_masks: list,
    tick,
    check_rows,
    owned: "bytearray | None" = None,
    cross: "dict[int, int] | None" = None,
) -> tuple[int, int, int]:
    """The multi-source origin-tracking sweep on the flat data plane.

    ``seeds`` maps packed product codes to origin bitmasks (bit ``i``:
    "reached from node int ``i``").  Instead of one BFS per origin, each
    product pair carries the bitmask of every origin that reaches it.
    Masks only grow, so the sweep is a worklist fixpoint: a code re-enters
    the queue only when new origins arrive, and each visit propagates just
    the not-yet-propagated origins.  ``pending`` doubles as the queued
    signal: a code is in the queue iff its pending mask is nonzero.

    Final-state pairs OR their origins into ``answer_masks[node_int]``
    (updated in place, so a budget trip leaves the partial answer there);
    ``check_rows`` sees the running pair count once per batch of fresh
    origins.

    With ``owned`` (one byte per node int, nonzero for nodes this sweep may
    expand) the sweep is one shard's step: a successor at an unowned node
    records its novel origins in ``cross`` instead of being queued, and a
    seed at an unowned node is bounced into ``cross`` unexpanded.

    Returns ``(expanded, relaxed, bounced)``.
    """
    k = plan.state_bits
    state_mask = plan.state_mask
    finals_mask = plan.finals_mask
    delta = plan.delta
    out_rows = csr.out_rows
    fire = FAULTS.fire if FAULTS.enabled else None
    #: code -> every origin (as a bitmask) that ever reached the pair
    origins: dict[int, int] = dict(seeds)
    #: code -> origins not yet pushed to the pair's successors (nonzero
    #: exactly while the code sits in the queue)
    pending: dict[int, int] = dict(seeds)
    queue = deque(seeds)
    append = queue.append
    popleft = queue.popleft
    pending_pop = pending.pop
    origins_get = origins.get
    pending_get = pending.get
    answer_count = 0
    expanded = 0
    relaxed = 0
    bounced = 0
    while queue:
        code = popleft()
        fresh = pending_pop(code, 0)
        if not fresh:
            continue
        expanded += 1
        if fire is not None:
            fire("kernel.step")
        if tick is not None:
            tick()
        state = code & state_mask
        node = code >> k
        if (finals_mask >> state) & 1:
            prev = answer_masks[node]
            new = fresh & ~prev
            if new:
                answer_masks[node] = prev | new
                answer_count += new.bit_count()
                if check_rows is not None:
                    check_rows(answer_count)
        if owned is not None and not owned[node]:
            cross[code] = cross.get(code, 0) | fresh
            bounced += 1
            continue
        rows = delta[state]
        if not rows:
            continue
        for label_int, next_states in rows:
            offsets, targets = out_rows[label_int]
            lo = offsets[node]
            hi = offsets[node + 1]
            if lo == hi:
                continue
            relaxed += hi - lo
            for target in targets[lo:hi]:
                base = target << k
                for next_state in next_states:
                    succ = base | next_state
                    known = origins_get(succ, 0)
                    novel = fresh & ~known
                    if novel:
                        origins[succ] = known | novel
                        if owned is not None and not owned[target]:
                            cross[succ] = cross.get(succ, 0) | novel
                            continue
                        pend = pending_get(succ, 0)
                        if pend:
                            pending[succ] = pend | novel
                        else:
                            pending[succ] = novel
                            append(succ)
    return expanded, relaxed, bounced
