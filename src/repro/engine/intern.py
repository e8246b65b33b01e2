"""Node/label interning: hashable object ids -> dense ints, per graph version.

The flat CSR data plane (:mod:`repro.engine.csr`) and the kernel's loops
need every node and every edge label mapped onto ``0..n-1`` so that
adjacency can live in ``array('i')`` rows and a product state can be packed
into a single machine int.  The :class:`Interner` is that mapping, built in
one pass and frozen:

* **dense** — node ids cover exactly ``0..num_nodes-1`` and label ids
  ``0..num_labels-1`` with no holes (property-tested);
* **one node numbering everywhere** — nodes are numbered in ``repr``-sorted
  order, so any two interners over the same node set agree, in any
  process, as long as node ids ``repr`` identically (JSON-native ids, the
  only ones that survive the wire, do).  Distributed evaluation relies on
  it: the coordinator and every shard (each shard holds the full node set)
  number nodes alike, so node ints and origin bitmasks travel as they are
  (DESIGN.md §11).  The sort costs about 1 ms per 2000 nodes, once per
  graph version;
* **never reused across versions** — the interner records the graph
  ``version`` it saw and carries a process-unique ``uid``; consumers (the
  per-``CompiledQuery`` int transition tables) key on the uid, so a mutated
  graph can never resurrect a table built over the old id space.

Interners are cached on the graph *inside* the CSR snapshot (one slot, one
invalidation path — the graph's ``_touch()``); :func:`get_interner` is the
convenience accessor.
"""

from __future__ import annotations

import itertools

from repro.graph.edge_labeled import EdgeLabeledGraph, Label, ObjectId

#: Process-wide monotone interner ids (uniqueness is all that matters).
_UIDS = itertools.count(1)


class Interner:
    """A frozen two-way node/label <-> dense-int mapping for one graph version."""

    __slots__ = (
        "version",
        "uid",
        "num_nodes",
        "num_labels",
        "_node_ids",
        "_nodes",
        "_label_ids",
        "_labels",
    )

    def __init__(self, graph: EdgeLabeledGraph):
        self.version = graph.version
        self.uid = next(_UIDS)
        self._nodes: list[ObjectId] = sorted(graph.iter_nodes(), key=repr)
        self._node_ids: dict[ObjectId, int] = {
            node: index for index, node in enumerate(self._nodes)
        }
        self._labels: list[Label] = list(graph.labels)
        self._label_ids: dict[Label, int] = {
            label: index for index, label in enumerate(self._labels)
        }
        self.num_nodes = len(self._nodes)
        self.num_labels = len(self._labels)

    # ------------------------------------------------------------------
    # interning (object -> int)
    # ------------------------------------------------------------------
    def node_id(self, node: ObjectId) -> "int | None":
        """The dense int of ``node``, or ``None`` for foreign objects."""
        return self._node_ids.get(node)

    def label_id(self, label: Label) -> "int | None":
        """The dense int of ``label``, or ``None`` when the graph has no
        edge carrying it (query-only symbols resolve to ``None`` and the
        kernel simply skips those transitions — zero matching edges)."""
        return self._label_ids.get(label)

    # ------------------------------------------------------------------
    # resolving (int -> object)
    # ------------------------------------------------------------------
    def node(self, index: int) -> ObjectId:
        """The node object a dense int denotes (the inverse of ``node_id``)."""
        return self._nodes[index]

    def label(self, index: int) -> Label:
        return self._labels[index]

    @property
    def nodes(self) -> list:
        """All nodes in id order (``nodes[i]`` has id ``i``) — a direct
        reference for hot decode loops; treat as read-only."""
        return self._nodes

    @property
    def labels(self) -> list:
        """All labels in id order (read-only, like :attr:`nodes`)."""
        return self._labels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Interner uid={self.uid} version={self.version} "
            f"nodes={self.num_nodes} labels={self.num_labels}>"
        )


def get_interner(graph: EdgeLabeledGraph, stats=None) -> Interner:
    """The current interner of ``graph`` (cached with the CSR snapshot)."""
    from repro.engine.csr import get_csr

    return get_csr(graph, stats).interner
