"""Frontier wire codec and the shard-side product-BFS step.

The distributed RPQ evaluation (DESIGN.md §11) is the kernel's
origin-tracking sweep cut along shard boundaries.  A product pair
``(node, state)`` travels as the kernel's own **packed int code**
``(node_int << state_bits) | state_int``, over two numberings every process
derives independently:

* the **node numbering** of the :class:`~repro.engine.intern.Interner`:
  nodes sorted by ``repr``, identical in the coordinator and in every shard
  because each shard subgraph holds the full node set;
* the **state numbering** of the :class:`~repro.engine.cache.IntPlan`: the
  trimmed Glushkov NFA's states sorted by ``repr``.  The automaton itself
  is a pure function of (regex text, alphabet), so the coordinator ships
  the *global* alphabet in every request — a shard compiling over only its
  local labels would trim differently and misnumber states.

A **frontier** maps codes to **origin bitmasks** (bit ``i`` = "reachable
from node int ``i``"), exactly the kernel sweep's state.  On the wire, a
frontier is the sorted code list delta-encoded (small ints, cheap JSON)
plus a parallel list of hex masks.

:func:`local_frontier_step` is what the ``frontier_step`` protocol op runs
on a shard: it validates the request and hands the frontier to the
kernel's sweep (:func:`repro.engine.kernel._csr_sweep`) with this shard's
ownership, which advances it to a *local* fixpoint, records answers for
final-state pairs, and returns the cross-shard pairs (codes whose node
another shard owns) for the coordinator to route.
"""

from __future__ import annotations

from repro.engine import kernel
from repro.engine.cache import DEFAULT_CACHE
from repro.engine.csr import get_csr
from repro.engine.faults import fault_point
from repro.graph.edge_labeled import EdgeLabeledGraph

#: ``bytes.translate`` table turning a string of '0'/'1' into 0/1 bytes.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


# ----------------------------------------------------------------------
# wire codec
# ----------------------------------------------------------------------
def encode_pairs(mapping: "dict[int, int]") -> dict:
    """``{code: mask}`` as sorted delta-encoded codes + parallel hex masks."""
    codes = sorted(mapping)
    deltas = []
    previous = 0
    for code in codes:
        deltas.append(code - previous)
        previous = code
    return {
        "codes": deltas,
        "masks": [format(mapping[code], "x") for code in codes],
    }


def decode_pairs(payload: dict) -> "dict[int, int]":
    """Invert :func:`encode_pairs` (raises ValueError on malformed input)."""
    if not isinstance(payload, dict):
        raise ValueError("frontier payload must be an object")
    deltas = payload.get("codes", [])
    masks = payload.get("masks", [])
    if not isinstance(deltas, list) or not isinstance(masks, list):
        raise ValueError("frontier 'codes' and 'masks' must be lists")
    if len(deltas) != len(masks):
        raise ValueError("frontier codes/masks length mismatch")
    mapping: dict[int, int] = {}
    code = 0
    for delta, mask in zip(deltas, masks):
        if not isinstance(delta, int) or isinstance(delta, bool):
            raise ValueError("frontier codes must be integers")
        code += delta
        if code < 0:
            raise ValueError("frontier codes must be non-negative")
        if not isinstance(mask, str):
            raise ValueError("frontier masks must be hex strings")
        mapping[code] = int(mask, 16)
    return mapping


def encode_mask(mask: int) -> str:
    """A bitmask as lowercase hex (ownership masks on the wire)."""
    return format(mask, "x")


def decode_mask(text) -> int:
    if not isinstance(text, str):
        raise ValueError("mask must be a hex string")
    return int(text, 16)


# ----------------------------------------------------------------------
# the shard-side step
# ----------------------------------------------------------------------
def ownership(owned_mask: int, num_nodes: int) -> bytearray:
    """The wire ownership mask as one byte per node int (bits past
    ``num_nodes`` are ignored)."""
    bits = format(owned_mask, "b")[::-1][:num_nodes].ljust(num_nodes, "0")
    return bytearray(bits.encode("ascii").translate(_BIT_BYTES))


def local_frontier_step(
    graph: EdgeLabeledGraph,
    query: str,
    alphabet,
    state_bits: int,
    owned_mask: int,
    frontier: "dict[int, int]",
    *,
    stats=None,
    budget=None,
) -> dict:
    """Advance ``frontier`` to a local fixpoint over this shard's edges.

    ``frontier`` maps packed codes (owned by this shard) to the origin
    masks the coordinator found *novel*; expansion stays within the owned
    node set — a successor owned elsewhere is accumulated as a cross pair
    instead of being queued.  Returns ``answers`` (node int -> origin mask
    for final-state pairs), ``cross`` (code -> novel origin mask for other
    shards), and expansion counters.

    Raises ValueError when ``state_bits`` disagrees with the automaton this
    shard compiles — the divergence tripwire for a coordinator and shard
    that somehow built different automata — or when a frontier code names
    a node or state outside this graph and automaton.
    """
    fault_point("shard.frontier_step")
    compiled = DEFAULT_CACHE.compile(query, frozenset(alphabet), stats=stats)
    csr = get_csr(graph, stats)
    plan = compiled.int_plan(csr.interner)
    if plan.state_bits != state_bits:
        raise ValueError(
            f"automaton mismatch: coordinator packed {state_bits} state bits, "
            f"shard compiled {plan.state_bits}"
        )
    num_nodes = csr.num_nodes
    for code in frontier:
        if code >> state_bits >= num_nodes:
            raise ValueError(
                f"frontier code {code} names node {code >> state_bits}, "
                f"but the graph has {num_nodes} nodes"
            )
        if code & plan.state_mask >= plan.num_states:
            raise ValueError(
                f"frontier code {code} names state {code & plan.state_mask}, "
                f"but the automaton has {plan.num_states} states"
            )
    answer_masks = [0] * num_nodes
    cross: dict[int, int] = {}
    expanded, relaxed, bounced = kernel._csr_sweep(
        csr,
        plan,
        frontier,
        answer_masks,
        budget.tick if budget is not None else None,
        None,
        ownership(owned_mask, num_nodes),
        cross,
    )
    if stats is not None:
        stats.count("frontier_steps")
        stats.count("frontier_expanded", expanded)
        stats.count("frontier_relaxed", relaxed)
        if bounced:
            stats.count("frontier_bounced", bounced)
    answers = {node: mask for node, mask in enumerate(answer_masks) if mask}
    return {
        "answers": encode_pairs(answers),
        "cross": encode_pairs(cross),
        "expanded": expanded,
        "relaxed": relaxed,
        "bounced": bounced,
        "state_bits": state_bits,
    }
