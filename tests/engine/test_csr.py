"""The flat int-encoded data plane: interning, CSR rows, bitsets, IntPlan.

``tests/engine/test_differential.py`` proves the CSR kernel answers every
query exactly like the naive oracle of ``tests/oracles.py``; this module
proves the *components* under it correct in isolation and locks in the
lifecycle:

* interner properties — round-trip, denseness, the ``repr``-sorted node
  numbering (the same for any insertion order), stability per graph
  version, rebuild (with a fresh uid) after mutation;
* CSR rows — exact agreement with the graph's adjacency per label and
  direction, multiplicity preserved, monotone offsets;
* bytearray bitsets — set/test/count/indices round-trips;
* answer-mask decoding — ``decode_answer_masks`` inverts the sweep's
  origin-bitmask encoding;
* the frontier invariant — walking the CSR rows with a bitset visited set
  discovers exactly a dict BFS's ``(node, state)`` seen set, and the
  kernel expands each of those pairs exactly once;
* cache lifecycle — ``get_csr`` reuse within a version, rebuild after
  mutation, a smuggled stale snapshot is never served (the staleness
  regression), stale ``IntPlan``s are dropped on interner change;
* kernel edge cases vs the naive oracle — empty alphabet, query-only
  labels, self-loops, isolated nodes, single-node graphs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import kernel
from repro.engine.cache import IntPlan
from repro.engine.csr import (
    CSRGraph,
    bitset_count,
    bitset_indices,
    bitset_make,
    bitset_set,
    bitset_test,
    get_csr,
)
from repro.engine.intern import Interner, get_interner
from repro.engine.stats import EngineStats
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.rpq.evaluation import evaluate_rpq
from tests import oracles


def small_graph() -> EdgeLabeledGraph:
    graph = EdgeLabeledGraph()
    graph.add_edge("e0", "u", "v", "a")
    graph.add_edge("e1", "v", "w", "b")
    graph.add_edge("e2", "u", "v", "a")  # parallel edge, same label
    graph.add_edge("e3", "w", "w", "c")  # self-loop
    graph.add_node("isolated")
    return graph


@st.composite
def graphs(draw, max_nodes: int = 6, max_edges: int = 10) -> EdgeLabeledGraph:
    num_nodes = draw(st.integers(1, max_nodes))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                st.sampled_from("abc"),
            ),
            max_size=max_edges,
        )
    )
    graph = EdgeLabeledGraph()
    for node in range(num_nodes):
        graph.add_node(f"v{node}")
    for number, (src, tgt, label) in enumerate(edges):
        graph.add_edge(f"e{number}", f"v{src}", f"v{tgt}", label)
    return graph


# ----------------------------------------------------------------------
# interner properties
# ----------------------------------------------------------------------
class TestInterner:
    @settings(max_examples=50, deadline=None)
    @given(graph=graphs())
    def test_round_trip_and_dense(self, graph):
        interner = Interner(graph)
        assert interner.num_nodes == graph.num_nodes
        # dense: ids cover exactly 0..n-1, resolve/intern invert each other
        assert sorted(interner.node_id(n) for n in graph.iter_nodes()) == list(
            range(interner.num_nodes)
        )
        for index in range(interner.num_nodes):
            assert interner.node_id(interner.node(index)) == index
        assert sorted(interner.label_id(l) for l in graph.labels) == list(
            range(interner.num_labels)
        )
        for index in range(interner.num_labels):
            assert interner.label_id(interner.label(index)) == index

    @settings(max_examples=50, deadline=None)
    @given(graph=graphs())
    def test_nodes_numbered_in_repr_order(self, graph):
        # The numbering every process derives alike (the shard wire order).
        assert Interner(graph).nodes == sorted(graph.iter_nodes(), key=repr)

    @settings(max_examples=50, deadline=None)
    @given(graph=graphs(), order=st.randoms(use_true_random=False))
    def test_numbering_independent_of_insertion_order(self, graph, order):
        # A graph built from the same nodes and edges in another order (a
        # shard's copy, say) gets the same node numbering.
        nodes = list(graph.iter_nodes())
        edges = list(graph.iter_edges())
        order.shuffle(nodes)
        order.shuffle(edges)
        rebuilt = EdgeLabeledGraph()
        for node in nodes:
            rebuilt.add_node(node)
        for edge in edges:
            rebuilt.add_edge(edge, *graph.endpoints(edge), graph.label(edge))
        assert Interner(rebuilt).nodes == Interner(graph).nodes

    @settings(max_examples=50, deadline=None)
    @given(graph=graphs())
    def test_stable_across_rebuilds_of_same_version(self, graph):
        first = Interner(graph)
        second = Interner(graph)
        assert first.version == second.version
        assert first._node_ids == second._node_ids
        assert first._label_ids == second._label_ids
        # uids are process-unique even for identical mappings
        assert first.uid != second.uid

    def test_rebuilt_after_mutation(self):
        graph = small_graph()
        before = get_interner(graph)
        graph.add_edge("e9", "v", "u", "d")
        after = get_interner(graph)
        assert after.uid != before.uid
        assert after.version == graph.version > before.version
        assert after.label_id("d") is not None
        assert before.label_id("d") is None

    def test_foreign_objects_resolve_to_none(self):
        interner = Interner(small_graph())
        assert interner.node_id("nope") is None
        assert interner.label_id("nope") is None

    def test_nodes_labels_views_in_id_order(self):
        interner = Interner(small_graph())
        assert [interner.node_id(n) for n in interner.nodes] == list(
            range(interner.num_nodes)
        )
        assert [interner.label_id(l) for l in interner.labels] == list(
            range(interner.num_labels)
        )


# ----------------------------------------------------------------------
# CSR rows vs the graph's adjacency
# ----------------------------------------------------------------------
class TestCSRRows:
    @settings(max_examples=50, deadline=None)
    @given(graph=graphs())
    def test_rows_match_adjacency_with_multiplicity(self, graph):
        csr = CSRGraph(graph)
        interner = csr.interner
        for label in graph.labels:
            label_int = interner.label_id(label)
            for node in graph.iter_nodes():
                node_int = interner.node_id(node)
                out = sorted(
                    interner.node(i) for i in csr.out_targets(node_int, label_int)
                )
                expected_out = sorted(
                    graph.tgt(e) for e in graph.out_edges(node, label)
                )
                assert out == expected_out  # multiset equality, parallel edges kept
                back = sorted(
                    interner.node(i) for i in csr.in_sources(node_int, label_int)
                )
                expected_back = sorted(
                    graph.src(e) for e in graph.in_edges(node, label)
                )
                assert back == expected_back

    @settings(max_examples=50, deadline=None)
    @given(graph=graphs())
    def test_offsets_monotone_and_complete(self, graph):
        csr = CSRGraph(graph)
        for rows in (csr.out_rows, csr.in_rows):
            total = 0
            for offsets, targets in rows:
                assert len(offsets) == csr.num_nodes + 1
                assert offsets[0] == 0 and offsets[-1] == len(targets)
                assert all(
                    offsets[i] <= offsets[i + 1] for i in range(csr.num_nodes)
                )
                total += len(targets)
            # every edge lands in exactly one label row, per direction
            assert total == graph.num_edges


# ----------------------------------------------------------------------
# bitsets
# ----------------------------------------------------------------------
class TestBitsets:
    @settings(max_examples=100, deadline=None)
    @given(
        size=st.integers(1, 200),
        picks=st.sets(st.integers(0, 199), max_size=40),
    )
    def test_set_test_count_indices_round_trip(self, size, picks):
        picks = {p for p in picks if p < size}
        bits = bitset_make(size)
        assert bitset_count(bits) == 0
        for index in picks:
            assert bitset_set(bits, index) is True   # newly set
            assert bitset_set(bits, index) is False  # already set
        for index in range(size):
            assert bitset_test(bits, index) == (index in picks)
        assert bitset_count(bits) == len(picks)
        assert list(bitset_indices(bits)) == sorted(picks)


# ----------------------------------------------------------------------
# the frontier invariant: CSR + IntPlan + bitset == a dict BFS's seen set
# ----------------------------------------------------------------------
class TestFrontierInvariant:
    @settings(max_examples=50, deadline=None)
    @given(graph=graphs(), source=st.integers(0, 5))
    def test_bitset_frontier_equals_dict_seen_pairs(self, graph, source):
        """Walk the public data-plane pieces by hand and compare frontiers."""
        node = f"v{source}"
        if not graph.has_node(node):
            return
        compiled = kernel.compile_query("a.(b+c)*.a", graph)

        # reference: a dict BFS's (node, state) seen set
        from collections import deque

        seen = {(node, state) for state in compiled.initial}
        queue = deque(seen)
        while queue:
            current, state = queue.popleft()
            for symbol, next_states in compiled.delta.get(state, {}).items():
                for edge in graph.out_edges(current, symbol):
                    for next_state in next_states:
                        pair = (graph.tgt(edge), next_state)
                        if pair not in seen:
                            seen.add(pair)
                            queue.append(pair)

        # the flat plane: same BFS over packed codes and a bitset
        csr = get_csr(graph)
        plan = compiled.int_plan(csr.interner)
        k = plan.state_bits
        visited = bitset_make(csr.num_nodes << k if k else csr.num_nodes)
        source_int = csr.interner.node_id(node)
        frontier = deque()
        for state in plan.initial:
            code = (source_int << k) | state
            if bitset_set(visited, code):
                frontier.append(code)
        while frontier:
            code = frontier.popleft()
            for label_int, next_states in plan.delta[code & plan.state_mask]:
                for target in csr.out_targets(code >> k, label_int):
                    for next_state in next_states:
                        succ = (target << k) | next_state
                        if bitset_set(visited, succ):
                            frontier.append(succ)

        state_of = {index: state for state, index in plan.state_ids.items()}
        decoded = {
            (csr.interner.node(code >> k), state_of[code & plan.state_mask])
            for code in bitset_indices(visited)
        }
        assert decoded == seen
        assert bitset_count(visited) == len(seen)

    @settings(max_examples=30, deadline=None)
    @given(graph=graphs(), source=st.integers(0, 5))
    def test_kernel_expands_each_reachable_pair_once(self, graph, source):
        """BFS pops every discovered pair once, so ``nodes_expanded`` must
        equal the size of the reachable product, whatever the visit order."""
        node = f"v{source}"
        if not graph.has_node(node):
            return
        compiled = kernel.compile_query("(a+b)*.c", graph)
        seen = {(node, state) for state in compiled.initial}
        frontier = list(seen)
        while frontier:
            current, state = frontier.pop()
            for symbol, next_states in compiled.delta.get(state, {}).items():
                for edge in graph.out_edges(current, symbol):
                    for next_state in next_states:
                        pair = (graph.tgt(edge), next_state)
                        if pair not in seen:
                            seen.add(pair)
                            frontier.append(pair)
        stats = EngineStats()
        fast = kernel.reachable(compiled, graph, node, stats=stats)
        assert fast == oracles.reachable("(a+b)*.c", graph, node)
        assert stats.get("nodes_expanded") == len(seen)


# ----------------------------------------------------------------------
# cache lifecycle and the staleness regression
# ----------------------------------------------------------------------
class TestCSRLifecycle:
    def test_reused_within_a_version(self):
        graph = small_graph()
        stats = EngineStats()
        first = get_csr(graph, stats)
        second = get_csr(graph, stats)
        assert first is second
        assert stats.get("csr_builds") == 1
        assert stats.get("csr_reuses") == 1

    def test_rebuilt_after_mutation(self):
        graph = small_graph()
        stats = EngineStats()
        before = get_csr(graph, stats)
        graph.add_edge("e9", "isolated", "u", "d")
        after = get_csr(graph, stats)
        assert after is not before
        assert after.version == graph.version
        assert stats.get("csr_builds") == 2

    def test_smuggled_stale_snapshot_is_never_served(self):
        """The version double-check: even a snapshot planted on the slot
        after a mutation (bypassing ``_touch``) must be rebuilt."""
        graph = small_graph()
        stale = get_csr(graph)
        graph.add_edge("e9", "u", "w", "z")
        graph._engine_csr = stale  # smuggle it back in
        served = get_csr(graph)
        assert served is not stale
        assert served.version == graph.version

    def test_query_mutate_query_sees_new_edges(self):
        """End-to-end staleness regression: never serve answers computed on
        a CSR built for a prior graph version."""
        graph = small_graph()
        assert evaluate_rpq("z", graph) == set()
        graph.add_edge("e9", "u", "w", "z")
        assert evaluate_rpq("z", graph) == {("u", "w")}
        graph.add_edge("e10", "w", "isolated", "z")
        assert evaluate_rpq("z.z", graph) == {("u", "isolated")}


class TestIntPlan:
    def test_lowering_shape(self):
        graph = small_graph()
        compiled = kernel.compile_query("a.b", graph)
        interner = get_interner(graph)
        plan = compiled.int_plan(interner)
        assert plan.num_states == compiled.nfa.num_states
        assert sorted(plan.state_ids.values()) == list(range(plan.num_states))
        assert plan.finals_mask.bit_count() == len(compiled.finals)
        assert (1 << plan.state_bits) >= max(plan.num_states, 1)
        # every lowered transition maps back to a dict-plane transition
        state_of = {index: state for state, index in plan.state_ids.items()}
        for state_int, rows in enumerate(plan.delta):
            by_symbol = compiled.delta.get(state_of[state_int], {})
            for label_int, next_states in rows:
                symbol = interner.label(label_int)
                assert tuple(
                    sorted(plan.state_ids[s] for s in by_symbol[symbol])
                ) == tuple(sorted(next_states))

    def test_graph_absent_symbols_are_dropped(self):
        graph = small_graph()
        compiled = kernel.compile_query("zz.a", graph)  # 'zz' not in graph
        plan = compiled.int_plan(get_interner(graph))
        lowered_labels = {
            label_int for rows in plan.delta for label_int, _ in rows
        }
        assert all(
            get_interner(graph).label(label_int) != "zz"
            for label_int in lowered_labels
        )

    def test_memoized_per_interner_and_rebuilt_on_change(self):
        graph = small_graph()
        compiled = kernel.compile_query("a.b.c", graph)
        interner = get_interner(graph)
        plan = compiled.int_plan(interner)
        assert compiled.int_plan(interner) is plan  # memo hit
        other = Interner(graph)  # same mapping, different uid
        replacement = compiled.int_plan(other)
        assert replacement is not plan
        assert isinstance(replacement, IntPlan)
        assert replacement.interner_uid == other.uid


# ----------------------------------------------------------------------
# answer-mask decoding (origin bitmask per target node int)
# ----------------------------------------------------------------------
class TestDecodeAnswerMasks:
    @settings(max_examples=50, deadline=None)
    @given(
        size=st.integers(1, 70),
        picks=st.sets(st.tuples(st.integers(0, 69), st.integers(0, 69))),
    )
    def test_decode_inverts_encoding(self, size, picks):
        nodes = [f"n{i}" for i in range(size)]
        pairs = {(o, t) for o, t in picks if o < size and t < size}
        masks = [0] * size
        for origin, target in pairs:
            masks[target] |= 1 << origin
        assert kernel.decode_answer_masks(masks, nodes) == {
            (nodes[o], nodes[t]) for o, t in pairs
        }


# ----------------------------------------------------------------------
# kernel edge cases vs the naive oracle
# ----------------------------------------------------------------------
class TestKernelEdgeCases:
    def both(self, query, graph, **kwargs):
        fast = evaluate_rpq(query, graph, **kwargs)
        assert fast == oracles.evaluate(query, graph, **kwargs)
        return fast

    def test_empty_alphabet_graph(self):
        graph = EdgeLabeledGraph()
        for node in ("x", "y", "z"):
            graph.add_node(node)
        assert self.both("a*", graph) == {(n, n) for n in ("x", "y", "z")}
        assert self.both("a.b", graph) == set()

    def test_query_labels_absent_from_graph(self):
        graph = small_graph()
        assert self.both("missing", graph) == set()
        # epsilon through the absent symbol's star still matches everywhere
        assert self.both("missing*", graph) == {
            (n, n) for n in graph.iter_nodes()
        }

    def test_self_loops(self):
        graph = EdgeLabeledGraph()
        graph.add_edge("e0", "n", "n", "a")
        assert self.both("a", graph) == {("n", "n")}
        assert self.both("a.a.a", graph) == {("n", "n")}

    def test_isolated_nodes_only_match_epsilon(self):
        graph = small_graph()
        pairs = self.both("_*", graph)
        assert ("isolated", "isolated") in pairs
        assert not any(
            src == "isolated" and tgt != "isolated" for src, tgt in pairs
        )

    def test_single_node_graph(self):
        graph = EdgeLabeledGraph()
        graph.add_node("only")
        assert self.both("a*", graph) == {("only", "only")}
        assert kernel.reachable(
            kernel.compile_query("a*", graph), graph, "only"
        ) == {"only"}

    def test_sources_outside_the_graph_are_skipped(self):
        graph = small_graph()
        assert self.both("a", graph, sources=["u", "ghost"]) == {("u", "v")}
        assert self.both("a", graph, sources=["ghost"]) == set()

    @settings(max_examples=40, deadline=None)
    @given(graph=graphs(max_nodes=3, max_edges=3))
    def test_tiny_graphs_all_orders(self, graph):
        for query in ("a", "a*", "(a+b)*.c", "_"):
            self.both(query, graph)


def test_get_csr_requires_pytest_importable():  # sanity: module wiring
    assert get_csr is not None
    assert callable(bitset_make)
    with pytest.raises(TypeError):
        bitset_make()  # num_bits is required
