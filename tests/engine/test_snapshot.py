"""One snapshot per graph version: every engine consumer reads the CSR.

Each graph version gets exactly one derived structure, its
:class:`~repro.engine.csr.CSRGraph`.  This module checks the consumers that
used to build structures of their own:

* backward-bound CRPQ atoms walk the snapshot's incoming rows — one
  ``csr_builds`` and no other build counter — and answer exactly like the
  naive oracle on resident edge-labeled graphs, property graphs and lazy
  storage views;
* the edge-id rows agree with a linear ``iter_edge_records()`` scan, parallel
  edges included, and GQL's labelled edge scan reads them;
* the path product built from the rows equals the oracle's linear-scan
  product;
* the cost planner's per-label counts equal a brute-force count.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crpq.ast import CRPQ, RPQAtom, Var, parse_crpq
from repro.crpq.evaluation import evaluate_crpq
from repro.crpq.planning import explain_steps, make_plan
from repro.engine.cardinality import CardinalityModel
from repro.engine.csr import get_csr
from repro.engine.stats import EngineStats
from repro.gql.semantics import match_gql_pattern
from repro.graph.generators import random_graph
from repro.graph.property_graph import PropertyGraph
from repro.rpq.evaluation import compile_for_graph
from repro.rpq.product_graph import build_product
from repro.storage.lazy import LazyGraphHandle, query_labels
from repro.storage.store import GraphStore
from tests import oracles
from tests.engine.test_differential import graphs, regexes

BACKWARD_QUERIES = [
    'q(x) :- (a b)(x, "v3")',
    'q(x) :- (_ b)(x, "v3")',
    'q(x) :- (!{c}* b)(x, "v3")',
    'q(x, y) :- (a b)(x, "v3"), (c + a)(y, x)',
]


def mix_graph():
    """A small random multigraph with an explicit bundle of parallel edges."""
    graph = random_graph(12, 60, labels=("a", "b", "c"), seed=5)
    graph.add_edge("p0", "v1", "v3", "b")
    graph.add_edge("p1", "v1", "v3", "b")
    graph.add_edge("p2", "v7", "v1", "a")
    return graph


def as_property_graph(graph) -> PropertyGraph:
    property_graph = PropertyGraph()
    for node in graph.iter_nodes():
        property_graph.add_node(node, label="Node")
    for edge, src, tgt, label in graph.iter_edge_records():
        property_graph.add_edge(edge, src, tgt, label, properties={"w": 1})
    return property_graph


def build_counters(stats: EngineStats) -> dict:
    return {name: value for name, value in stats.counters.items()
            if name.endswith(("_builds", "_reuses"))}


# ----------------------------------------------------------------------
# backward-bound atoms
# ----------------------------------------------------------------------
class TestBackwardAtoms:
    def test_plan_takes_backward_access(self):
        graph = mix_graph()
        query = parse_crpq(BACKWARD_QUERIES[0])
        steps = explain_steps(make_plan(query, graph, "cost"), graph)
        assert [step.access for step in steps] == ["backward"]

    def test_one_snapshot_build_and_nothing_else(self):
        graph = mix_graph()
        stats = EngineStats()
        answers = evaluate_crpq(BACKWARD_QUERIES[0], graph, stats=stats)
        assert answers == oracles.evaluate_crpq(BACKWARD_QUERIES[0], graph)
        built = build_counters(stats)
        assert built.get("csr_builds") == 1
        assert set(built) <= {"csr_builds", "csr_reuses"}

    @pytest.mark.parametrize("query", BACKWARD_QUERIES)
    def test_resident_graph_equals_oracle(self, query):
        graph = mix_graph()
        assert evaluate_crpq(query, graph) == oracles.evaluate_crpq(query, graph)

    @pytest.mark.parametrize("query", BACKWARD_QUERIES)
    def test_property_graph_equals_oracle(self, query):
        graph = as_property_graph(mix_graph())
        assert evaluate_crpq(query, graph) == oracles.evaluate_crpq(query, graph)

    @pytest.mark.parametrize("query", BACKWARD_QUERIES)
    def test_lazy_view_equals_oracle(self, query):
        graph = mix_graph()
        with GraphStore(":memory:") as store:
            store.put_graph("g", graph)
            handle = LazyGraphHandle(store, "g")
            view = handle.view(query_labels(query, handle.labels))
            assert evaluate_crpq(query, view) == oracles.evaluate_crpq(query, graph)

    @settings(max_examples=60, deadline=None)
    @given(graph=graphs(), regex=regexes(max_leaves=4), target=st.integers(0, 4))
    def test_random_backward_atom_equals_oracle(self, graph, regex, target):
        query = CRPQ(head=(Var("x"),), atoms=(RPQAtom(regex, Var("x"), f"v{target}"),))
        assert evaluate_crpq(query, graph) == oracles.evaluate_crpq(query, graph)


# ----------------------------------------------------------------------
# edge-id rows
# ----------------------------------------------------------------------
class TestEdgeIdRows:
    def test_rows_agree_with_linear_scan(self):
        graph = mix_graph()
        csr = get_csr(graph)
        for label in graph.labels:
            scanned = [
                (edge, src, tgt)
                for edge, src, tgt, edge_label in graph.iter_edge_records()
                if edge_label == label
            ]
            listed = list(csr.edges_with_label(label))
            assert Counter(listed) == Counter(scanned)
            # within one source node, edges keep the graph's record order
            for node in graph.iter_nodes():
                assert [r for r in listed if r[1] == node] == [
                    r for r in scanned if r[1] == node
                ]

    def test_edge_ids_line_up_with_targets(self):
        graph = mix_graph()
        csr = get_csr(graph)
        nodes = csr.interner.nodes
        for label_int, (offsets, targets) in enumerate(csr.out_rows):
            edge_row = csr.edge_rows[label_int]
            assert len(edge_row) == len(targets)
            for src_int in range(csr.num_nodes):
                for at in range(offsets[src_int], offsets[src_int + 1]):
                    edge = edge_row[at]
                    assert graph.endpoints(edge) == (nodes[src_int], nodes[targets[at]])
                    assert graph.label(edge) == csr.interner.label(label_int)

    def test_gql_labelled_edge_scan_reads_snapshot(self):
        graph = as_property_graph(mix_graph())
        stats = EngineStats()
        matches = match_gql_pattern("(x)-[e:b]->(y)", graph, stats=stats)
        expected = {
            edge for edge, _src, _tgt, label in graph.iter_edge_records() if label == "b"
        }
        assert {dict(match.binding)["e"][1] for match in matches} == expected
        assert build_counters(stats) == {"csr_builds": 1}

    @settings(max_examples=60, deadline=None)
    @given(graph=graphs(), regex=regexes(max_leaves=4), source=st.integers(0, 4))
    def test_product_equals_oracle_product(self, graph, regex, source):
        nfa = compile_for_graph(regex, graph)
        fast = build_product(graph, nfa, sources=[f"v{source}"])
        slow = oracles.build_product(graph, nfa, sources=[f"v{source}"])
        assert set(fast.graph.iter_nodes()) == set(slow.graph.iter_nodes())
        assert {
            (edge, fast.graph.endpoints(edge), fast.graph.label(edge))
            for edge in fast.graph.iter_edges()
        } == {
            (edge, slow.graph.endpoints(edge), slow.graph.label(edge))
            for edge in slow.graph.iter_edges()
        }
        assert fast.sources == slow.sources and fast.targets == slow.targets


# ----------------------------------------------------------------------
# planner statistics
# ----------------------------------------------------------------------
def brute_force_counts(graph):
    edges, sources, targets = Counter(), {}, {}
    for _edge, src, tgt, label in graph.iter_edge_records():
        edges[label] += 1
        sources.setdefault(label, set()).add(src)
        targets.setdefault(label, set()).add(tgt)
    return (
        dict(edges),
        {label: len(nodes) for label, nodes in sources.items()},
        {label: len(nodes) for label, nodes in targets.items()},
    )


class TestCardinalityCounts:
    def test_counts_equal_brute_force_with_parallel_edges(self):
        graph = mix_graph()
        model = CardinalityModel(graph)
        assert (
            model.label_counts, model.distinct_sources, model.distinct_targets
        ) == brute_force_counts(graph)
        assert model.num_nodes == graph.num_nodes
        assert model.num_edges == graph.num_edges

    def test_counts_come_from_the_snapshot(self):
        graph = mix_graph()
        stats = EngineStats()
        first = CardinalityModel(graph, stats)
        second = CardinalityModel(graph, stats)
        assert first.label_counts is second.label_counts is get_csr(graph).label_stats[0]
        assert build_counters(stats) == {"csr_builds": 1, "csr_reuses": 1}

    def test_lazy_view_counts_only_resident_labels(self):
        graph = mix_graph()
        with GraphStore(":memory:") as store:
            store.put_graph("g", graph)
            view = LazyGraphHandle(store, "g").view({"a"})
            model = CardinalityModel(view)
            assert view.labels == graph.labels
            assert model.label_counts == {"a": brute_force_counts(graph)[0]["a"]}

    @settings(max_examples=60, deadline=None)
    @given(graph=graphs())
    def test_random_counts_equal_brute_force(self, graph):
        model = CardinalityModel(graph)
        assert (
            model.label_counts, model.distinct_sources, model.distinct_targets
        ) == brute_force_counts(graph)
