"""Unit tests for the per-version adjacency snapshot (repro.engine.csr).

The CSR snapshot is the engine's one label-indexed adjacency: forward rows
with their edge ids, reversed rows, and per-label counts, cached on the
graph and rebuilt when its version moves.
"""

from repro.engine.csr import CSRGraph, get_csr
from repro.engine.stats import EngineStats
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.graph.generators import random_graph
from repro.graph.property_graph import PropertyGraph
from repro.rpq.evaluation import reachable_by_rpq


def small_graph() -> EdgeLabeledGraph:
    graph = EdgeLabeledGraph()
    graph.add_edge("e1", "u", "v", "a")
    graph.add_edge("e2", "u", "v", "b")
    graph.add_edge("e3", "v", "w", "a")
    graph.add_edge("e4", "u", "w", "a")
    return graph


def out_edges(csr: CSRGraph, node, label) -> list:
    """``[(edge, tgt), ...]`` for edges ``node --label--> tgt``, as objects."""
    node_int = csr.interner.node_id(node)
    label_int = csr.interner.label_id(label)
    if node_int is None or label_int is None:
        return []
    offsets, targets = csr.out_rows[label_int]
    edge_row = csr.edge_rows[label_int]
    return [
        (edge_row[at], csr.interner.node(targets[at]))
        for at in range(offsets[node_int], offsets[node_int + 1])
    ]


def in_sources(csr: CSRGraph, node, label) -> list:
    """Source nodes of edges ``src --label--> node`` (with multiplicity)."""
    node_int = csr.interner.node_id(node)
    label_int = csr.interner.label_id(label)
    if node_int is None or label_int is None:
        return []
    return [csr.interner.node(s) for s in csr.in_sources(node_int, label_int)]


class TestLookups:
    def test_out_edges_by_label(self):
        csr = get_csr(small_graph())
        assert set(out_edges(csr, "u", "a")) == {("e1", "v"), ("e4", "w")}
        assert out_edges(csr, "u", "b") == [("e2", "v")]
        assert out_edges(csr, "u", "zzz") == []
        assert out_edges(csr, "w", "a") == []
        assert out_edges(csr, "not-a-node", "a") == []

    def test_in_edges_by_label(self):
        csr = get_csr(small_graph())
        assert sorted(in_sources(csr, "w", "a")) == ["u", "v"]
        assert in_sources(csr, "u", "a") == []

    def test_edges_with_label(self):
        csr = get_csr(small_graph())
        assert set(csr.edges_with_label("a")) == {
            ("e1", "u", "v"),
            ("e3", "v", "w"),
            ("e4", "u", "w"),
        }
        assert list(csr.edges_with_label("nope")) == []

    def test_labels(self):
        csr = get_csr(small_graph())
        assert set(csr.interner.labels) == {"a", "b"}
        edges, sources, targets = csr.label_stats
        assert edges == {"a": 3, "b": 1}
        assert sources == {"a": 2, "b": 1}
        assert targets == {"a": 2, "b": 1}

    def test_agrees_with_linear_scan_on_random_graph(self):
        graph = random_graph(30, 120, labels=("a", "b", "c"), seed=3)
        csr = get_csr(graph)
        for node in graph.iter_nodes():
            for label in graph.labels:
                expected = [
                    (edge, graph.tgt(edge)) for edge in graph.out_edges(node, label)
                ]
                assert out_edges(csr, node, label) == expected


class TestCachingAndInvalidation:
    def test_index_is_reused_while_graph_unchanged(self):
        graph = small_graph()
        stats = EngineStats()
        first = get_csr(graph, stats)
        second = get_csr(graph, stats)
        assert first is second
        assert stats.get("csr_builds") == 1
        assert stats.get("csr_reuses") == 1

    def test_add_edge_invalidates(self):
        graph = small_graph()
        csr = get_csr(graph)
        graph.add_edge("e5", "w", "x", "b")
        rebuilt = get_csr(graph)
        assert rebuilt is not csr
        assert out_edges(rebuilt, "w", "b") == [("e5", "x")]

    def test_add_node_invalidates(self):
        graph = small_graph()
        before = graph.version
        csr = get_csr(graph)
        graph.add_node("lonely")
        assert graph.version > before
        assert get_csr(graph) is not csr

    def test_version_is_monotone(self):
        graph = EdgeLabeledGraph()
        versions = [graph.version]
        graph.add_node("u")
        versions.append(graph.version)
        graph.add_edge("e", "u", "v", "a")
        versions.append(graph.version)
        graph.add_node("u")  # no-op re-add must not go backwards
        versions.append(graph.version)
        assert versions == sorted(versions)
        assert versions[1] > versions[0] and versions[2] > versions[1]

    def test_query_results_reflect_mutation(self):
        """The end-to-end guarantee: no stale answers after add_edge."""
        graph = small_graph()
        assert reachable_by_rpq("a.a", graph, "u") == {"w"}
        graph.add_edge("e5", "w", "x", "a")
        assert reachable_by_rpq("a.a", graph, "u") == {"w", "x"}
        assert reachable_by_rpq("a.a.a", graph, "u") == {"x"}

    def test_snapshot_matches_build_version(self):
        graph = small_graph()
        csr = CSRGraph(graph)
        assert csr.version == graph.version
        assert csr.num_edges == graph.num_edges


class TestPropertyGraphInvalidation:
    """Mutation-path audit (regressions): every PropertyGraph mutation that
    changes observable structure must bump the version, even the ones where
    the base-class ``add_node`` no-ops because the node already exists."""

    def test_label_refinement_bumps_version(self):
        graph = PropertyGraph()
        graph.add_node("n")
        before = graph.version
        graph.add_node("n", label="Account")
        assert graph.version > before
        # Re-adding with the same label is a no-op and must not churn.
        unchanged = graph.version
        graph.add_node("n", label="Account")
        assert graph.version == unchanged

    def test_property_merge_on_readd_bumps_version(self):
        graph = PropertyGraph()
        graph.add_node("n", label="Account")
        before = graph.version
        graph.add_node("n", properties={"owner": "Mike"})
        assert graph.version > before

    def test_set_property_bumps_version(self):
        graph = PropertyGraph()
        graph.add_edge("t", "u", "v", "Transfer")
        before = graph.version
        graph.set_property("t", "amount", 100)
        assert graph.version > before

    def test_index_rebuilt_after_property_mutation(self):
        graph = PropertyGraph()
        graph.add_edge("t", "u", "v", "Transfer")
        csr = get_csr(graph)
        graph.set_property("t", "amount", 100)
        assert get_csr(graph) is not csr


class TestReversedCache:
    """Backward traversal reads the reversed rows of the same snapshot."""

    def test_reversed_cached_per_version(self):
        graph = EdgeLabeledGraph()
        graph.add_edge("e0", "u", "v", "a")
        csr = get_csr(graph)
        assert in_sources(csr, "v", "a") == ["u"]
        assert in_sources(csr, "u", "a") == []
        assert get_csr(graph) is csr

    def test_reversed_invalidated_on_mutation(self):
        graph = EdgeLabeledGraph()
        graph.add_edge("e0", "u", "v", "a")
        csr = get_csr(graph)
        graph.add_edge("e1", "v", "w", "b")
        rebuilt = get_csr(graph)
        assert rebuilt is not csr
        assert in_sources(rebuilt, "w", "b") == ["v"]

    def test_reversed_counters(self):
        """A backward-bound atom builds the snapshot once and nothing else."""
        from repro.crpq.evaluation import evaluate_crpq

        graph = EdgeLabeledGraph()
        graph.add_edge("e0", "u", "v", "a")
        stats = EngineStats()
        assert evaluate_crpq('q(x) :- a(x, "v")', graph, stats=stats) == {("u",)}
        assert evaluate_crpq('q(x) :- a(x, "v")', graph, stats=stats) == {("u",)}
        assert stats.get("csr_builds") == 1
        assert not [name for name in stats.counters if name.endswith("_builds")
                    and name != "csr_builds"]
