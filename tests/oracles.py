"""Reference oracles: the seed's naive RPQ and CRPQ evaluators.

These are the simplest, most obviously correct readings of the paper's
semantics, and every differential test and hypothesis property compares
the production evaluators against them.  Apart from the path-mode
enumerators that :func:`matching_paths` runs over its own product, nothing
here is shared with the engine: each call parses and runs Glushkov afresh
(no compilation cache), builds its own transition dict, and scans every
out-edge of a node (no CSR rows, no int encoding).

* :func:`reachable`, :func:`evaluate`, :func:`holds` — RPQs by a BFS over
  ``(node, state)`` pairs of the product ``G x A`` (Section 6.2);
* :func:`crpq_bindings`, :func:`evaluate_crpq` — CRPQs as the natural join
  of each atom's full relation (Section 3.1.2), with no planner and no
  bound-term access paths;
* :func:`build_product`, :func:`matching_paths` — the product graph built
  by scanning every out-edge of each expanded node, and the path modes
  enumerated over it (the enumeration itself is the production one: this
  oracle pins down the product it walks).
"""

from __future__ import annotations

from collections import deque

from repro.automata.glushkov import compile_regex
from repro.automata.nfa import NFA
from repro.crpq.ast import CRPQ, Var, parse_crpq
from repro.engine.cache import CompiledQuery
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.regex.ast import symbols
from repro.regex.parser import parse_regex
from repro.rpq.path_modes import product_paths
from repro.rpq.product_graph import ProductGraph


def compile_nfa(query, graph) -> NFA:
    """A fresh automaton over the Remark 11 alphabet of ``graph``."""
    if isinstance(query, CompiledQuery):
        return query.nfa
    if isinstance(query, NFA):
        return query
    regex = parse_regex(query) if isinstance(query, str) else query
    return compile_regex(regex, alphabet=graph.labels | symbols(regex))


def _transitions(nfa: NFA) -> dict:
    by_state_symbol: dict = {}
    for state_from, symbol, state_to in nfa.transitions():
        by_state_symbol.setdefault((state_from, symbol), []).append(state_to)
    return by_state_symbol


def reachable(query, graph, source) -> set:
    """All nodes ``v`` with ``(source, v)`` in ``[[R]]_G``."""
    nfa = compile_nfa(query, graph)
    if not graph.has_node(source):
        return set()
    by_state_symbol = _transitions(nfa)
    start = {(source, state) for state in nfa.initial}
    seen = set(start)
    queue = deque(start)
    answers = {node for node, state in start if state in nfa.finals}
    while queue:
        node, state = queue.popleft()
        for edge in graph.out_edges(node):
            label = graph.label(edge)
            for next_state in by_state_symbol.get((state, label), ()):
                pair = (graph.tgt(edge), next_state)
                if pair not in seen:
                    seen.add(pair)
                    queue.append(pair)
                    if next_state in nfa.finals:
                        answers.add(pair[0])
    return answers


def evaluate(query, graph, sources=None) -> set:
    """``[[R]]_G``: one :func:`reachable` per source (default: every node)."""
    nfa = compile_nfa(query, graph)
    source_nodes = sources if sources is not None else graph.iter_nodes()
    return {
        (source, target)
        for source in source_nodes
        for target in reachable(nfa, graph, source)
    }


def holds(query, graph, source, target) -> bool:
    """Whether ``(source, target)`` answers the RPQ (BFS with early exit)."""
    nfa = compile_nfa(query, graph)
    if not graph.has_node(source) or not graph.has_node(target):
        return False
    by_state_symbol = _transitions(nfa)
    start = {(source, state) for state in nfa.initial}
    if any(node == target and state in nfa.finals for node, state in start):
        return True
    seen = set(start)
    queue = deque(start)
    while queue:
        node, state = queue.popleft()
        for edge in graph.out_edges(node):
            label = graph.label(edge)
            for next_state in by_state_symbol.get((state, label), ()):
                pair = (graph.tgt(edge), next_state)
                if pair in seen:
                    continue
                if pair[0] == target and next_state in nfa.finals:
                    return True
                seen.add(pair)
                queue.append(pair)
    return False


def crpq_bindings(query: "CRPQ | str", graph) -> list[dict]:
    """Every node homomorphism from ``query`` to ``graph`` (variable -> node).

    Atoms join in their written order; each contributes its full relation
    ``[[R]]_G``, and constant terms must equal the node they meet.
    """
    if isinstance(query, str):
        query = parse_crpq(query)
    bindings: list[dict] = [{}]
    for atom in query.atoms:
        relation = evaluate(atom.regex, graph)
        joined = []
        for binding in bindings:
            for source, target in relation:
                extended = _bind(binding, atom.left, source)
                if extended is not None:
                    extended = _bind(extended, atom.right, target)
                if extended is not None:
                    joined.append(extended)
        bindings = joined
    return bindings


def _bind(binding: dict, term, node) -> "dict | None":
    if not isinstance(term, Var):
        return binding if term == node else None
    if term in binding:
        return binding if binding[term] == node else None
    return {**binding, term: node}


def evaluate_crpq(query: "CRPQ | str", graph) -> set[tuple]:
    """``q(G)``: the head projection of :func:`crpq_bindings`."""
    if isinstance(query, str):
        query = parse_crpq(query)
    return {
        tuple(binding[var] for var in query.head)
        for binding in crpq_bindings(query, graph)
    }


def build_product(graph, nfa, sources=None, targets=None) -> ProductGraph:
    """The part of ``G x A`` forward-reachable from ``sources`` (Section 6.2).

    Each expanded product node scans every out-edge of its graph node and
    keeps those whose label the automaton can read in its state.
    """
    source_nodes = set(sources) if sources is not None else set(graph.iter_nodes())
    target_nodes = set(targets) if targets is not None else set(graph.iter_nodes())
    by_state: dict = {}
    for state_from, symbol, state_to in nfa.transitions():
        by_state.setdefault(state_from, {}).setdefault(symbol, []).append(state_to)
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
    while frontier:
        node, state = frontier.pop()
        by_symbol = by_state.get(state)
        if not by_symbol:
            continue
        for edge in graph.out_edges(node):
            label = graph.label(edge)
            target = graph.tgt(edge)
            for next_state in by_symbol.get(label, ()):
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
    return ProductGraph(
        graph=product, base=graph, sources=frozenset(start_pairs), targets=accepting
    )


def matching_paths(query, graph, source, target, mode="shortest", limit=None):
    """The ``mode`` paths from ``source`` to ``target`` matching the RPQ,
    over a freshly compiled automaton and :func:`build_product`."""
    if not (graph.has_node(source) and graph.has_node(target)):
        return
    nfa = compile_nfa(query, graph)
    product = build_product(graph, nfa, [source], [target]).trim()
    yield from product_paths(product, mode, limit)
