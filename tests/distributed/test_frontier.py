"""Shard-side frontier mechanics: the codec and the local product-BFS step.

A single shard that owns *every* node must reproduce ``evaluate_rpq``
exactly — the distributed evaluator degenerates to the single-node one at
``num_shards=1`` — and a shard that owns nothing must bounce the whole
frontier back as cross-shard pairs without expanding it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.frontier import (
    decode_mask,
    decode_pairs,
    encode_mask,
    encode_pairs,
    local_frontier_step,
    ownership,
)
from repro.engine.cache import DEFAULT_CACHE
from repro.engine.intern import Interner
from repro.graph.generators import random_graph
from repro.rpq.evaluation import evaluate_rpq


def plan_for(query, alphabet, graph):
    """The compiled query lowered into ``graph``'s shared numbering."""
    compiled = DEFAULT_CACHE.compile(query, frozenset(alphabet))
    return compiled.int_plan(Interner(graph))


def full_mask(order):
    return (1 << len(order)) - 1


def seed_frontier(order, plan, sources=None):
    """(source, q0) product codes with one origin bit per source."""
    frontier = {}
    positions = {node: index for index, node in enumerate(order)}
    for source in sources if sources is not None else order:
        bit = 1 << positions[source]
        for state in plan.initial:
            code = (positions[source] << plan.state_bits) | state
            frontier[code] = frontier.get(code, 0) | bit
    return frontier


def decode_answers(payload, order):
    pairs = set()
    for position, mask in decode_pairs(payload).items():
        target = order[position]
        while mask:
            low = mask & -mask
            pairs.add((order[low.bit_length() - 1], target))
            mask ^= low
    return pairs


class TestCodec:
    def test_roundtrip(self):
        mapping = {0: 1, 7: (1 << 40) | 5, 8: 3}
        assert decode_pairs(encode_pairs(mapping)) == mapping

    @settings(max_examples=100, deadline=None)
    @given(
        mapping=st.dictionaries(
            st.integers(min_value=0, max_value=1 << 32),
            st.integers(min_value=1, max_value=1 << 70),
            max_size=20,
        )
    )
    def test_roundtrip_property(self, mapping):
        assert decode_pairs(encode_pairs(mapping)) == mapping

    def test_mask_roundtrip(self):
        for mask in (0, 1, 5, 1 << 100):
            assert decode_mask(encode_mask(mask)) == mask

    @pytest.mark.parametrize(
        "payload",
        [
            {"codes": [0], "masks": []},
            {"codes": "nope", "masks": []},
            {"codes": [0, -2], "masks": ["1", "1"]},
            {"codes": [True], "masks": ["1"]},
            {"codes": [0], "masks": [7]},
            {"codes": [0], "masks": ["zz"]},
        ],
    )
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(ValueError):
            decode_pairs(payload)


class TestSharedNumbering:
    def test_plan_is_alphabet_deterministic(self):
        graph = random_graph(8, 20, labels=("a", "b", "c"), seed=1)
        first = plan_for("a b*", ["a", "b", "c"], graph)
        second = plan_for("a b*", ["a", "b", "c"], graph)
        assert first.state_bits == second.state_bits
        assert first.state_ids == second.state_ids
        assert first.initial == second.initial
        assert first.finals_mask == second.finals_mask

    def test_alphabet_shapes_the_plan(self):
        # The coordinator ships the *global* alphabet precisely because a
        # shard compiling over only its local labels may trim differently.
        narrow = DEFAULT_CACHE.compile("(a + b)*", frozenset(["a"]))
        wide = DEFAULT_CACHE.compile("(a + b)*", frozenset(["a", "b"]))
        assert narrow is not wide

    def test_ownership_is_bounded_to_the_node_count(self):
        assert list(ownership(0b1011, 6)) == [1, 1, 0, 1, 0, 0]
        assert list(ownership((1 << 70) - 1, 3)) == [1, 1, 1]
        assert list(ownership(0, 2)) == [0, 0]


class TestLocalFrontierStep:
    def test_sole_owner_equals_single_node_rpq(self):
        graph = random_graph(25, 70, labels=("a", "b"), seed=11)
        alphabet = sorted(graph.labels, key=repr)
        order = Interner(graph).nodes
        plan = plan_for("a (a + b)*", alphabet, graph)
        result = local_frontier_step(
            graph,
            "a (a + b)*",
            alphabet,
            plan.state_bits,
            full_mask(order),
            seed_frontier(order, plan),
        )
        assert decode_pairs(result["cross"]) == {}
        assert decode_answers(result["answers"], order) == evaluate_rpq(
            "a (a + b)*", graph
        )

    def test_owner_of_nothing_bounces_the_frontier(self):
        graph = random_graph(10, 30, labels=("a",), seed=4)
        order = Interner(graph).nodes
        plan = plan_for("a*", ["a"], graph)
        frontier = seed_frontier(order, plan)
        result = local_frontier_step(
            graph, "a*", ["a"], plan.state_bits, 0, frontier
        )
        assert result["relaxed"] == 0  # never expands another shard's node
        assert decode_pairs(result["cross"]) == frontier

    def test_state_bits_mismatch_raises(self):
        graph = random_graph(5, 10, labels=("a", "b"), seed=0)
        plan = plan_for("(a + b)*", ["a", "b"], graph)
        with pytest.raises(ValueError):
            local_frontier_step(
                graph,
                "(a + b)*",
                ["a", "b"],
                plan.state_bits + 3,
                full_mask(Interner(graph).nodes),
                {},
            )

    def test_state_field_past_the_automaton_raises(self):
        # 'a (b+c)* a' has 5 states packed into 3 bits: state ints 5..7 fit
        # the field but name no state.
        graph = random_graph(5, 10, labels=("a", "b", "c"), seed=0)
        alphabet = ["a", "b", "c"]
        plan = plan_for("a (b+c)* a", alphabet, graph)
        assert (plan.num_states, plan.state_bits) == (5, 3)
        for state in (5, 7):
            with pytest.raises(ValueError, match="state"):
                local_frontier_step(
                    graph, "a (b+c)* a", alphabet, plan.state_bits,
                    full_mask(Interner(graph).nodes), {state: 1},
                )

    def test_node_field_past_the_graph_raises(self):
        graph = random_graph(5, 10, labels=("a", "b"), seed=0)
        plan = plan_for("(a + b)*", ["a", "b"], graph)
        code = (graph.num_nodes << plan.state_bits) | plan.initial[0]
        with pytest.raises(ValueError, match="node"):
            local_frontier_step(
                graph, "(a + b)*", ["a", "b"], plan.state_bits,
                full_mask(Interner(graph).nodes), {code: 1},
            )

    def test_partial_ownership_splits_answers_and_cross(self):
        # n0 -a-> n1 -a-> n2 with ownership {n0, n1}: the step must report
        # (n0, n1) and (n1, n2)? No — n2 is reachable but the pair
        # (n1, n2) pops at an *unowned* node, so it travels as cross.
        from repro.graph.edge_labeled import EdgeLabeledGraph

        graph = EdgeLabeledGraph()
        for index in range(3):
            graph.add_node(f"n{index}")
        graph.add_edge("e0", "n0", "n1", "a")
        graph.add_edge("e1", "n1", "n2", "a")
        order = Interner(graph).nodes
        plan = plan_for("a+", ["a"], graph)
        owned = (1 << order.index("n0")) | (1 << order.index("n1"))
        result = local_frontier_step(
            graph, "a+", ["a"], plan.state_bits, owned,
            seed_frontier(order, plan),
        )
        answers = decode_answers(result["answers"], order)
        assert ("n0", "n1") in answers
        assert decode_pairs(result["cross"]), "expected cross traffic to n2"
