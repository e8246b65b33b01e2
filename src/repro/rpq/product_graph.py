"""The product graph ``G x A`` (Section 6.2).

Following the paper verbatim: for an edge-labeled graph ``G`` and an NFA
``A = (Q, Sigma, delta, q0, F)``,

* product nodes are pairs ``(u, q)`` of a graph node and a state;
* product edges are pairs ``(e, (q1, a, q2))`` of a graph edge and a
  transition with ``lambda(e) = a``;
* ``src((e, t)) = (src(e), q1)`` and ``tgt((e, t)) = (tgt(e), q2)``.

Every path in the product projects (via the first components) to a path in
``G`` of the same length whose label word drives ``A`` from the first
state to the last; testing whether ``(u, v)`` answers the RPQ becomes plain
reachability from ``(u, q0)`` to ``(v, f)`` with ``f`` accepting.

The product is itself an :class:`~repro.graph.edge_labeled.EdgeLabeledGraph`
so all path machinery (and the PMR package) applies to it unchanged.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.engine.csr import get_csr
from repro.graph.edge_labeled import EdgeLabeledGraph, ObjectId
from repro.graph.paths import Path
from repro.automata.nfa import NFA, StateType


@dataclass
class ProductGraph:
    """A materialized product graph with its designated source/target nodes.

    ``sources`` are the ``(u, q0)`` nodes and ``targets`` the ``(v, f)``
    nodes with ``f`` accepting.  ``project_path`` maps product paths back
    to graph paths (the gamma homomorphism in PMR terms).
    """

    graph: EdgeLabeledGraph
    base: EdgeLabeledGraph
    sources: frozenset[tuple[ObjectId, StateType]]
    targets: frozenset[tuple[ObjectId, StateType]]
    _trimmed: "ProductGraph | None" = field(default=None, repr=False)

    def project_node(self, product_node: tuple[ObjectId, StateType]) -> ObjectId:
        return product_node[0]

    def project_edge(self, product_edge: tuple) -> ObjectId:
        return product_edge[0]

    def project_path(self, product_path: Path) -> Path:
        """Map a product path to the base-graph path it represents."""
        objects = []
        for obj in product_path.objects:
            objects.append(obj[0])
        return Path(self.base, tuple(objects))

    def trim(self) -> "ProductGraph":
        """Restrict to nodes reachable from a source and co-reachable from a
        target (the useful part for query answering)."""
        if self._trimmed is not None:
            return self._trimmed
        forward = _closure(self.graph, self.sources, direction="out")
        backward = _closure(self.graph, self.targets, direction="in")
        useful = forward & backward
        trimmed = EdgeLabeledGraph()
        for node in useful:
            trimmed.add_node(node)
        for edge in self.graph.iter_edges():
            src, tgt = self.graph.endpoints(edge)
            if src in useful and tgt in useful:
                trimmed.add_edge(edge, src, tgt, self.graph.label(edge))
        result = ProductGraph(
            graph=trimmed,
            base=self.base,
            sources=self.sources & useful,
            targets=self.targets & useful,
        )
        result._trimmed = result
        self._trimmed = result
        return result

    def has_accepting_cycle_path(self) -> bool:
        """Whether the useful part contains a cycle — i.e. whether the set of
        source-to-target matching paths is infinite (Section 6.3)."""
        trimmed = self.trim()
        return _has_cycle(trimmed.graph)


def _closure(
    graph: EdgeLabeledGraph, seeds: Iterable[ObjectId], direction: str
) -> set[ObjectId]:
    seen = {node for node in seeds if graph.has_node(node)}
    frontier = list(seen)
    while frontier:
        node = frontier.pop()
        neighbours = (
            graph.successors(node) if direction == "out" else graph.predecessors(node)
        )
        for neighbour in neighbours:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return seen


def _has_cycle(graph: EdgeLabeledGraph) -> bool:
    color: dict[ObjectId, int] = {}
    for start in graph.iter_nodes():
        if color.get(start, 0):
            continue
        stack: list[tuple[ObjectId, Iterable[ObjectId]]] = [
            (start, iter(graph.successors(start)))
        ]
        color[start] = 1
        while stack:
            node, successors = stack[-1]
            advanced = False
            for successor in successors:
                mark = color.get(successor, 0)
                if mark == 1:
                    return True
                if mark == 0:
                    color[successor] = 1
                    stack.append((successor, iter(graph.successors(successor))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return False


def build_product(
    graph: EdgeLabeledGraph,
    nfa: NFA,
    sources: Iterable[ObjectId] | None = None,
    targets: Iterable[ObjectId] | None = None,
    *,
    stats=None,
    budget=None,
) -> ProductGraph:
    """Materialize the product of a graph and an NFA.

    ``sources``/``targets`` restrict which graph nodes count as start/end
    points (defaults: all nodes).  Only the part of the product forward-
    reachable from the sources is materialized, which keeps the common
    single-source case small.

    Successor edges come from the graph's CSR snapshot: per transition
    label, the node's slice of the label's target row and its parallel
    edge-id row.  A ``budget`` is ticked once per expanded product node
    (materialization is polynomial, but on a large graph it can dominate a
    timed-out query's wall clock).
    """
    started = time.perf_counter()
    tick = budget.tick if budget is not None else None
    source_nodes = set(sources) if sources is not None else set(graph.iter_nodes())
    target_nodes = set(targets) if targets is not None else set(graph.iter_nodes())

    csr = get_csr(graph, stats)
    node_ids = csr.interner._node_ids
    nodes = csr.interner.nodes
    label_ids = csr.interner._label_ids
    # Automaton transitions state-major, each label resolved to its rows:
    # state -> [(label, offsets, targets, edge ids, next states), ...].
    moves_by_state: dict = {}
    for (state, label), next_states in nfa._delta.items():
        if label in label_ids:
            label_int = label_ids[label]
            moves_by_state.setdefault(state, []).append(
                (label, *csr.out_rows[label_int], csr.edge_rows[label_int], next_states)
            )

    product = EdgeLabeledGraph()
    start_pairs = {
        (node, state)
        for node in source_nodes
        if graph.has_node(node)
        for state in nfa.initial
    }
    for pair in start_pairs:
        product.add_node(pair)
    frontier = list(start_pairs)
    seen = set(start_pairs)
    expanded = 0
    relaxed = 0
    while frontier:
        if tick is not None:
            tick()
        node, state = frontier.pop()
        expanded += 1
        moves = moves_by_state.get(state)
        if not moves:
            continue
        node_int = node_ids[node]
        for label, offsets, targets, edge_ids, next_states in moves:
            for at in range(offsets[node_int], offsets[node_int + 1]):
                edge = edge_ids[at]
                target = nodes[targets[at]]
                for next_state in next_states:
                    relaxed += 1
                    next_pair = (target, next_state)
                    product_edge = (edge, (state, label, next_state))
                    if next_pair not in seen:
                        seen.add(next_pair)
                        product.add_node(next_pair)
                        frontier.append(next_pair)
                    if not product.has_edge(product_edge):
                        product.add_edge(product_edge, (node, state), next_pair, label)
    accepting = frozenset(
        (node, state)
        for (node, state) in seen
        if state in nfa.finals and node in target_nodes
    )
    if stats is not None:
        stats.count("nodes_expanded", expanded)
        stats.count("edges_relaxed", relaxed)
        stats.add_time("product", time.perf_counter() - started)
    return ProductGraph(
        graph=product,
        base=graph,
        sources=frozenset(start_pairs),
        targets=accepting,
    )
