"""Enumerating matching paths under path modes (Sections 3.1.5 and 6.3).

GQL and SQL/PGQ introduced ``shortest`` / ``simple`` / ``trail`` restrictions
to keep path results finite; the paper's l-CRPQ semantics applies them per
endpoint pair after endpoint selection.  This module enumerates the matching
paths of a single RPQ between two nodes under each mode, PathFinder-style
([41]): work on the product graph, but constrain the *projected* graph path.

Complexity notes mirroring the paper: ``shortest`` is polynomial (BFS on the
product), ``simple``/``trail`` existence is NP-complete in general
(Section 6.3) and implemented as a backtracking search that behaves well on
the "well-behaved" queries and graphs the paper describes; ``all`` may be
infinite, in which case an :class:`InfiniteResultError` is raised unless the
caller bounds the enumeration.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from repro.errors import EvaluationError, InfiniteResultError
from repro.graph.edge_labeled import EdgeLabeledGraph, ObjectId
from repro.graph.paths import Path
from repro.rpq.evaluation import compile_for_graph
from repro.rpq.product_graph import ProductGraph, build_product

PATH_MODES = ("all", "shortest", "simple", "trail")


def matching_paths(
    query,
    graph: EdgeLabeledGraph,
    source: ObjectId,
    target: ObjectId,
    mode: str = "shortest",
    limit: int | None = None,
    *,
    stats=None,
    budget=None,
) -> Iterator[Path]:
    """Yield the node-to-node paths from ``source`` to ``target`` matching
    the RPQ, restricted by ``mode``, each exactly once.

    The same graph path can be witnessed by several automaton runs; results
    are deduplicated, so ambiguity of the expression never duplicates paths
    (the set semantics the paper advocates).

    ``budget`` (a :class:`repro.engine.limits.QueryBudget`) is checked
    between extension steps of the search — essential for ``simple`` and
    ``trail``, whose backtracking is NP-hard (Section 6.3) and can stall
    arbitrarily long *between* two yielded paths.
    """
    if mode not in PATH_MODES:
        raise EvaluationError(f"unknown path mode {mode!r}; use one of {PATH_MODES}")
    if not (graph.has_node(source) and graph.has_node(target)):
        return
    if budget is not None:
        budget.check()
    if hasattr(query, "initial"):
        nfa = query
    else:
        nfa = compile_for_graph(query, graph, stats=stats)
    product = build_product(
        graph, nfa, sources=[source], targets=[target], stats=stats, budget=budget,
    ).trim()
    yield from product_paths(product, mode, limit, budget)


def product_paths(
    product: ProductGraph, mode: str, limit: int | None = None, budget=None
) -> Iterator[Path]:
    """The projected paths of a trimmed single-pair product under ``mode``."""
    if not product.targets:
        return
    if mode == "shortest":
        yield from _shortest_paths(product, limit, budget)
    elif mode == "all":
        yield from _all_paths(product, limit, budget)
    elif mode == "simple":
        yield from _constrained_paths(product, limit, "simple", budget)
    else:
        yield from _constrained_paths(product, limit, "trail", budget)


def _bfs_distances(product: ProductGraph, forward: bool) -> dict:
    """Distances from sources (forward) or to targets (backward)."""
    graph = product.graph
    seeds = product.sources if forward else product.targets
    distances = {node: 0 for node in seeds}
    queue = deque(seeds)
    while queue:
        node = queue.popleft()
        neighbours = (
            graph.successors(node) if forward else graph.predecessors(node)
        )
        for neighbour in neighbours:
            if neighbour not in distances:
                distances[neighbour] = distances[node] + 1
                queue.append(neighbour)
    return distances


def _shortest_paths(
    product: ProductGraph, limit: int | None, budget=None
) -> Iterator[Path]:
    """All geodesics: product paths of globally minimal projected length."""
    graph = product.graph
    dist_from = _bfs_distances(product, forward=True)
    reachable_targets = [node for node in product.targets if node in dist_from]
    if not reachable_targets:
        return
    best = min(dist_from[node] for node in reachable_targets)
    dist_to = _bfs_distances(product, forward=False)

    emitted: set[Path] = set()
    tick = budget.tick if budget is not None else None

    def extend(node, product_objects: tuple) -> Iterator[Path]:
        if tick is not None:
            tick()
        depth = (len(product_objects) - 1) // 2
        if depth == best and node in product.targets:
            path = product.project_path(Path(graph, product_objects))
            if path not in emitted:
                emitted.add(path)
                yield path
            return
        for edge in sorted(graph.out_edges(node), key=repr):
            successor = graph.tgt(edge)
            if dist_to.get(successor, -1) == best - depth - 1:
                yield from extend(
                    successor, product_objects + (edge, successor)
                )

    count = 0
    for start in sorted(product.sources, key=repr):
        if dist_to.get(start) is None:
            continue
        for path in extend(start, (start,)):
            yield path
            count += 1
            if limit is not None and count >= limit:
                return


def _all_paths(
    product: ProductGraph, limit: int | None, budget=None
) -> Iterator[Path]:
    """Every matching path, in length order; errors out on infinite sets.

    The search walks graph paths, not product paths: a queue entry is a
    graph path together with the product nodes its runs can end in (the
    subset construction, carried along the path).  An ambiguous automaton
    witnesses one graph path by many runs — exponentially many in its
    length for expressions like ``(a + a . a)*`` — so walking runs would
    visit each path once per run, and a ``limit`` counted in distinct paths
    could take exponential time and memory to reach.  Here every graph path is
    visited at most once.
    """
    if limit is None and product.has_accepting_cycle_path():
        raise InfiniteResultError(
            "infinitely many matching paths; pass a limit or use a path mode"
        )
    graph = product.graph
    base = product.base
    targets = product.targets
    count = 0
    tick = budget.tick if budget is not None else None
    starts: dict = {}
    for start in product.sources:
        starts.setdefault(product.project_node(start), set()).add(start)
    queue: deque[tuple] = deque(
        ((node,), starts[node]) for node in sorted(starts, key=repr)
    )
    while queue:
        if tick is not None:
            tick()
        objects, runs = queue.popleft()
        if not targets.isdisjoint(runs):
            yield Path(base, objects)
            count += 1
            if limit is not None and count >= limit:
                return
        successors: dict = {}
        for run in runs:
            for edge in graph.out_edges(run):
                successors.setdefault(product.project_edge(edge), set()).add(
                    graph.tgt(edge)
                )
        for edge in sorted(successors, key=repr):
            queue.append((objects + (edge, base.tgt(edge)), successors[edge]))


def _constrained_paths(
    product: ProductGraph, limit: int | None, constraint: str, budget=None
) -> Iterator[Path]:
    """Backtracking enumeration of simple paths / trails in the projection.

    The constraint applies to the *graph* projection: a simple path may not
    revisit a graph node even in a different automaton state, and a trail
    may not reuse a graph edge even under a different transition.

    This is the NP-hard search (Section 6.3): the budget is ticked on every
    extension step because the search can run exponentially long *between*
    two yielded paths.
    """
    graph = product.graph
    emitted: set[Path] = set()
    count = [0]
    tick = budget.tick if budget is not None else None

    def emit(product_objects: tuple) -> Iterator[Path]:
        path = product.project_path(Path(graph, product_objects))
        if path not in emitted:
            emitted.add(path)
            yield path
            count[0] += 1

    def extend(
        node, product_objects: tuple, used: set
    ) -> Iterator[Path]:
        if tick is not None:
            tick()
        if node in product.targets:
            yield from emit(product_objects)
            if limit is not None and count[0] >= limit:
                return
        for edge in sorted(graph.out_edges(node), key=repr):
            successor = graph.tgt(edge)
            if constraint == "simple":
                forbidden = successor[0] in used
                marker = successor[0]
            else:
                forbidden = edge[0] in used
                marker = edge[0]
            if forbidden:
                continue
            used.add(marker)
            yield from extend(successor, product_objects + (edge, successor), used)
            used.remove(marker)
            if limit is not None and count[0] >= limit:
                return

    for start in sorted(product.sources, key=repr):
        yield from extend(start, (start,), {start[0]} if constraint == "simple" else set())
        if limit is not None and count[0] >= limit:
            return
