"""The per-version graph snapshot: int-encoded, label-partitioned CSR rows.

This is the one derived structure each graph version gets, read by every
engine consumer: the product BFS in both directions, the path product
builder, GQL's labelled edge scans, the cost planner and the shard step.
It answers *"edges leaving u with label a"* with one list index and an
``array('i')`` slice —

``out_rows[label_int] = (offsets, targets)`` where the targets of node
``u`` (as a dense int from :class:`~repro.engine.intern.Interner`) occupy
``targets[offsets[u] : offsets[u + 1]]``, and ``edge_rows[label_int]``
holds the ids of those same edges at the same positions.

Layout notes:

* one ``(offsets, targets)`` pair per label and direction, built by a
  counting sort over the edge records (O(|E| + |labels|·|N|), no numpy);
* parallel edges are preserved — the rows store one entry per *edge*, in
  the graph's edge-record order, and the forward rows carry each edge's id;
* the snapshot is immutable and version-stamped; :func:`get_csr` caches it
  on the graph (cleared by ``_touch()`` on mutation, double-checked against
  ``graph.version`` so a smuggled stale snapshot is never served).

The module also hosts the bytearray bitset helpers the kernel's
single-source loop inlines: packed ``(node_int << k) | state_int`` codes
index into a bitset of ``num_nodes << k`` bits, its visited set.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from itertools import accumulate

from repro.engine.intern import Interner
from repro.graph.edge_labeled import EdgeLabeledGraph


def _pack_order(keys: list, num_nodes: int) -> tuple[array, list]:
    """Counting-sort the positions of ``keys`` by key.

    Returns ``(offsets, order)`` with ``order[offsets[k]:offsets[k+1]]``
    the positions whose key is ``k``, in input order (so rows are
    deterministic for a fixed build order).  Indexing each column of the
    records by ``order`` packs it into CSR row order.
    """
    counts = [0] * (num_nodes + 1)
    for key in keys:
        counts[key + 1] += 1
    offsets = array("i", accumulate(counts))
    cursor = offsets.tolist()
    order = [0] * len(keys)
    for position, key in enumerate(keys):
        at = cursor[key]
        order[at] = position
        cursor[key] = at + 1
    return offsets, order


class CSRGraph:
    """An immutable int-encoded adjacency snapshot of one graph version.

    ``out_rows``/``in_rows`` are lists indexed by label int; each entry is
    an ``(offsets, targets)`` pair of ``array('i')`` rows.  Every label the
    interner knows has a row (a lazy storage view knows labels whose edges
    it does not hold; their rows are empty), and every node int indexes
    validly into every ``offsets`` row.  ``edge_rows[label_int]`` lists the
    edge ids parallel to ``out_rows[label_int]``'s targets.

    ``label_stats`` is ``(edges, sources, targets)``: three dicts mapping
    every label that has an edge to its edge count, its number of distinct
    source nodes and its number of distinct target nodes — the cost
    planner's statistics, counted once per snapshot from the offsets.
    """

    __slots__ = (
        "version", "interner", "num_nodes", "num_edges",
        "out_rows", "in_rows", "edge_rows", "label_stats",
    )

    def __init__(self, graph: EdgeLabeledGraph, interner: "Interner | None" = None):
        if interner is None:
            interner = Interner(graph)
        self.interner = interner
        self.version = graph.version
        self.num_nodes = interner.num_nodes
        self.num_edges = graph.num_edges
        num_labels = interner.num_labels
        srcs = [[] for _ in range(num_labels)]
        tgts = [[] for _ in range(num_labels)]
        edges = [[] for _ in range(num_labels)]
        node_ids = interner._node_ids
        label_ids = interner._label_ids
        for edge, src, tgt, label in graph.iter_edge_records():
            label_int = label_ids[label]
            srcs[label_int].append(node_ids[src])
            tgts[label_int].append(node_ids[tgt])
            edges[label_int].append(edge)
        self.out_rows, self.edge_rows, self.in_rows = [], [], []
        for src_ints, tgt_ints, edge_ids in zip(srcs, tgts, edges):
            offsets, order = _pack_order(src_ints, self.num_nodes)
            self.out_rows.append((offsets, array("i", [tgt_ints[i] for i in order])))
            self.edge_rows.append([edge_ids[i] for i in order])
            offsets, order = _pack_order(tgt_ints, self.num_nodes)
            self.in_rows.append((offsets, array("i", [src_ints[i] for i in order])))
        # A node with an a-edge raises the next offset, so the distinct
        # values of an offsets row are 0 plus one per such node.
        label_edges, label_sources, label_targets = {}, {}, {}
        for label, (out_offsets, targets), (in_offsets, _) in zip(
            interner.labels, self.out_rows, self.in_rows
        ):
            if targets:
                label_edges[label] = len(targets)
                label_sources[label] = len(set(out_offsets)) - 1
                label_targets[label] = len(set(in_offsets)) - 1
        self.label_stats = (label_edges, label_sources, label_targets)

    # ------------------------------------------------------------------
    # lookups (tests and cold paths; hot loops index the rows directly)
    # ------------------------------------------------------------------
    def out_targets(self, node_int: int, label_int: int) -> array:
        """Target node ints of edges ``node --label--> *`` (with multiplicity)."""
        offsets, targets = self.out_rows[label_int]
        return targets[offsets[node_int] : offsets[node_int + 1]]

    def edges_with_label(self, label) -> Iterator[tuple]:
        """``(edge, src, tgt)`` for every edge carrying ``label``, as objects."""
        label_int = self.interner.label_id(label)
        if label_int is None:
            return
        offsets, targets = self.out_rows[label_int]
        edge_row = self.edge_rows[label_int]
        nodes = self.interner.nodes
        for src_int in range(self.num_nodes):
            src = nodes[src_int]
            for at in range(offsets[src_int], offsets[src_int + 1]):
                yield edge_row[at], src, nodes[targets[at]]

    def in_sources(self, node_int: int, label_int: int) -> array:
        """Source node ints of edges ``* --label--> node`` (with multiplicity)."""
        offsets, sources = self.in_rows[label_int]
        return sources[offsets[node_int] : offsets[node_int + 1]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CSRGraph version={self.version} nodes={self.num_nodes} "
            f"edges={self.num_edges} labels={self.interner.num_labels}>"
        )


def get_csr(graph: EdgeLabeledGraph, stats=None) -> CSRGraph:
    """The current :class:`CSRGraph` of ``graph`` (cached per version).

    The snapshot is stored on the graph (cleared by ``_touch()`` on
    mutation) and the version check is belt-and-braces — a CSR built for a
    prior version is never served, it is rebuilt
    (``tests/engine/test_csr.py`` locks the mutate-between-queries
    scenario in).
    """
    csr = graph._engine_csr
    if csr is not None and csr.version == graph.version:
        if stats is not None:
            stats.count("csr_reuses")
        return csr
    csr = CSRGraph(graph)
    graph._engine_csr = csr
    if stats is not None:
        stats.count("csr_builds")
    return csr


# ----------------------------------------------------------------------
# bytearray bitsets over packed (node << k) | state codes
# ----------------------------------------------------------------------
def bitset_make(num_bits: int) -> bytearray:
    """A zeroed bitset able to hold ``num_bits`` bits."""
    return bytearray((num_bits + 7) >> 3)


def bitset_test(bits: bytearray, index: int) -> bool:
    return bool(bits[index >> 3] & (1 << (index & 7)))


def bitset_set(bits: bytearray, index: int) -> bool:
    """Set bit ``index``; True when it was newly set (hot loops inline this)."""
    byte = bits[index >> 3]
    mask = 1 << (index & 7)
    if byte & mask:
        return False
    bits[index >> 3] = byte | mask
    return True


def bitset_count(bits: bytearray) -> int:
    return sum(byte.bit_count() for byte in bits)


def bitset_indices(bits: bytearray):
    """Iterate the set bit positions in increasing order (decode helper)."""
    for position, byte in enumerate(bits):
        while byte:
            low = byte & -byte
            yield (position << 3) | (low.bit_length() - 1)
            byte ^= low
