"""Flat int-encoded CSR adjacency, label-partitioned, forward and reversed.

This is the data plane under the kernel's product BFS: it answers *"edges
leaving u with label a"* with one list index and an ``array('i')`` slice —

``out_rows[label_int] = (offsets, targets)`` where the targets of node
``u`` (as a dense int from :class:`~repro.engine.intern.Interner`) occupy
``targets[offsets[u] : offsets[u + 1]]``.

Layout notes:

* one ``(offsets, targets)`` pair per label and direction, built by a
  counting sort over the edge records (O(|E| + |labels|·|N|), no numpy);
* parallel edges are preserved — the rows store one entry per *edge*, so
  multiplicity survives even though edge ids do not (the relation kernels
  never need them);
* the snapshot is immutable and version-stamped; :func:`get_csr` caches it
  on the graph (cleared by ``_touch()`` on mutation, double-checked against
  ``graph.version`` so a smuggled stale snapshot is never served).

The module also hosts the bytearray bitset helpers the kernel's
single-source loop inlines: packed ``(node_int << k) | state_int`` codes
index into a bitset of ``num_nodes << k`` bits, its visited set.
"""

from __future__ import annotations

from array import array

from repro.engine.intern import Interner
from repro.graph.edge_labeled import EdgeLabeledGraph


def _pack_rows(keys: array, values: array, num_nodes: int):
    """Counting-sort ``(keys[i] -> values[i])`` pairs into one CSR row pair.

    Returns ``(offsets, targets)`` with ``targets[offsets[k]:offsets[k+1]]``
    holding every value whose key is ``k`` (input order preserved within a
    key, so the row order is deterministic for a fixed build order).
    """
    counts = [0] * (num_nodes + 1)
    for key in keys:
        counts[key + 1] += 1
    for index in range(1, num_nodes + 1):
        counts[index] += counts[index - 1]
    offsets = array("i", counts)
    cursor = counts[:num_nodes]
    targets = array("i", bytes(len(values) * values.itemsize))
    for key, value in zip(keys, values):
        at = cursor[key]
        targets[at] = value
        cursor[key] = at + 1
    return offsets, targets


class CSRGraph:
    """An immutable int-encoded adjacency snapshot of one graph version.

    ``out_rows``/``in_rows`` are lists indexed by label int; each entry is
    an ``(offsets, targets)`` pair of ``array('i')`` rows.  Every label the
    interner knows has a row (labels exist only because some edge carries
    them), and every node int indexes validly into every ``offsets`` row.
    """

    __slots__ = ("version", "interner", "num_nodes", "num_edges", "out_rows", "in_rows")

    def __init__(self, graph: EdgeLabeledGraph, interner: "Interner | None" = None):
        if interner is None:
            interner = Interner(graph)
        self.interner = interner
        self.version = graph.version
        self.num_nodes = interner.num_nodes
        self.num_edges = graph.num_edges
        num_labels = interner.num_labels
        srcs = [array("i") for _ in range(num_labels)]
        tgts = [array("i") for _ in range(num_labels)]
        node_ids = interner._node_ids
        label_ids = interner._label_ids
        for _edge, src, tgt, label in graph.iter_edge_records():
            label_int = label_ids[label]
            srcs[label_int].append(node_ids[src])
            tgts[label_int].append(node_ids[tgt])
        n = self.num_nodes
        self.out_rows = [
            _pack_rows(srcs[li], tgts[li], n) for li in range(num_labels)
        ]
        self.in_rows = [
            _pack_rows(tgts[li], srcs[li], n) for li in range(num_labels)
        ]

    # ------------------------------------------------------------------
    # lookups (tests and cold paths; hot loops index the rows directly)
    # ------------------------------------------------------------------
    def out_targets(self, node_int: int, label_int: int) -> array:
        """Target node ints of edges ``node --label--> *`` (with multiplicity)."""
        offsets, targets = self.out_rows[label_int]
        return targets[offsets[node_int] : offsets[node_int + 1]]

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

    Same contract as :func:`repro.engine.index.get_index`: the snapshot is
    stored on the graph (cleared by ``_touch()`` on mutation) and the
    version check is belt-and-braces — a CSR built for a prior version is
    never served, it is rebuilt (``tests/engine/test_csr.py`` locks the
    mutate-between-queries scenario in).
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
