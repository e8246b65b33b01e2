"""RPQ evaluation: ``[[R]]_G`` via the product construction (Section 6.2).

The result of an RPQ ``R`` on a graph ``G`` is the set of node pairs
``(u, v)`` connected by a path whose edge-label word is in ``L(R)``.  The
evaluator runs a BFS over ``(node, state)`` pairs — the product graph is
explored lazily and never materialized, which the paper notes is possible
when "only one answer is required" and is also the cheapest way to compute
the full answer set.

Every function here delegates to :mod:`repro.engine.kernel`: compilation
goes through the LRU cache and the BFS runs on the flat CSR data plane,
one single-source BFS or one multi-source sweep depending on how many
sources are asked for.  The seed's naive pipeline (fresh parse + Glushkov
per call, linear ``out_edges`` scans) is the reference oracle of the
differential tests and lives in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.automata.nfa import NFA
from repro.engine import kernel
from repro.engine.cache import CompiledQuery
from repro.engine.stats import EngineStats
from repro.engine.tracing import get_tracer
from repro.graph.edge_labeled import EdgeLabeledGraph, ObjectId
from repro.regex.ast import Regex


def compile_for_graph(
    query: "Regex | str",
    graph: EdgeLabeledGraph,
    *,
    stats: "EngineStats | None" = None,
) -> NFA:
    """Compile an RPQ over the union of the graph's and the query's labels.

    This instantiates Remark 11 wildcards over the graph's actual alphabet.
    The result comes from the engine's LRU compilation cache; the cache key
    includes the alphabet, so the same wildcard expression never collides
    across graphs with different labels.
    """
    return kernel.compile_query(query, graph, stats=stats).nfa


def _compiled(
    query: "Regex | str | NFA | CompiledQuery",
    graph: EdgeLabeledGraph,
    stats: "EngineStats | None",
) -> CompiledQuery:
    if isinstance(query, CompiledQuery):
        return query
    if isinstance(query, NFA):
        return CompiledQuery.from_nfa(query)
    return kernel.compile_query(query, graph, stats=stats)


def reachable_by_rpq(
    query: "Regex | str | NFA | CompiledQuery",
    graph: EdgeLabeledGraph,
    source: ObjectId,
    *,
    stats: "EngineStats | None" = None,
    budget=None,
) -> set[ObjectId]:
    """All nodes ``v`` with ``(source, v)`` in ``[[R]]_G``.

    A single BFS over (node, state) pairs starting from ``(source, q0)``.
    ``budget`` (a :class:`repro.engine.limits.QueryBudget`) bounds the
    traversal cooperatively.
    """
    return kernel.reachable(
        _compiled(query, graph, stats), graph, source, stats=stats, budget=budget
    )


def evaluate_rpq(
    query: "Regex | str | NFA | CompiledQuery",
    graph: EdgeLabeledGraph,
    sources: Iterable[ObjectId] | None = None,
    *,
    stats: "EngineStats | None" = None,
    budget=None,
) -> set[tuple[ObjectId, ObjectId]]:
    """``[[R]]_G`` — the full set of answer pairs (optionally restricted to
    the given source nodes).

    One source runs the kernel's single-source BFS; any other number runs
    its origin-tracking multi-source sweep.  A ``budget`` bounds either
    cooperatively (deadline, row and state ceilings, cancellation).

    Example 12: ``evaluate_rpq("Transfer*", figure2_graph())`` contains all
    36 pairs of accounts because the Transfer-subgraph is strongly connected.
    """
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span("rpq.evaluate", query=kernel.query_text(query)) as span:
            answers = kernel.evaluate(
                _compiled(query, graph, stats), graph, sources,
                stats=stats, budget=budget,
            )
            span.set(answers=len(answers))
            return answers
    return kernel.evaluate(
        _compiled(query, graph, stats), graph, sources, stats=stats, budget=budget
    )


def rpq_holds(
    query: "Regex | str",
    graph: EdgeLabeledGraph,
    source: ObjectId,
    target: ObjectId,
    *,
    stats: "EngineStats | None" = None,
    budget=None,
) -> bool:
    """Whether ``(source, target)`` answers the RPQ, with early exit.

    This is the paper's single-pair decision problem: non-emptiness of the
    intersection of ``G`` (seen as an NFA with initial ``source`` and final
    ``target``) with an NFA for ``R``.
    """
    compiled = kernel.compile_query(query, graph, stats=stats)
    return kernel.holds(compiled, graph, source, target, stats=stats, budget=budget)
