"""In-memory spans and the per-layer time attribution built on them.

A span is ``(name, start, end, sid, parent, link, key, attrs)``:

* ``parent`` is the enclosing span on the same thread (or asyncio task);
* a span that starts with no enclosing span carries a ``link`` instead — the
  ``key`` some span in another thread or process owns.  A client request
  owns its protocol request id, and the server spans for that request link
  to it, which stitches the trees of the load generator and the servers;
* times come from ``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on
  Linux and therefore comparable across processes on one machine.

Spans are kept in a list and written out once, when the process drains.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    """Collects finished spans; safe to use from many threads.

    The current span lives in a ``ContextVar``: each thread and each
    asyncio task sees its own, so concurrent requests on the server's
    event loop never nest inside each other.
    """

    def __init__(self, prefix: str = ""):
        self.prefix = prefix or f"p{os.getpid()}"
        self._ids = itertools.count(1)
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, *, link=None, key=None, **attrs):
        parent = _CURRENT.get()
        record = {
            "name": name,
            "sid": f"{self.prefix}.{next(self._ids)}",
            "parent": parent["sid"] if parent is not None else None,
            "link": None if parent is not None else link,
            "key": key,
            "attrs": attrs,
        }
        token = _CURRENT.set(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append(record)  # list.append is atomic under the GIL

    def write(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, **extra}, handle)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def union_length(intervals) -> float:
    """Total length covered by a collection of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(span: dict, children) -> float:
    """A span's duration minus the part of it its children cover."""
    start, end = span["start"], span["end"]
    clipped = [
        (max(child["start"], start), min(child["end"], end))
        for child in children
        if child["end"] > start and child["start"] < end
    ]
    return (end - start) - union_length(clipped)


def build_trees(spans: list[dict]):
    """Resolve parents (in-thread first, then by link) and return
    ``(roots, children)`` where ``children`` maps sid to child spans.

    A span whose link names no recorded owner becomes a root of its own."""
    owners = {span["key"]: span for span in spans if span.get("key") is not None}
    children: dict[str, list] = defaultdict(list)
    roots = []
    for span in spans:
        parent = span["parent"]
        if parent is None and span.get("link") is not None:
            owner = owners.get(span["link"])
            if owner is not None and owner is not span:
                parent = owner["sid"]
        span["_parent"] = parent
        if parent is None:
            roots.append(span)
        else:
            children[parent].append(span)
    return roots, children


def attribute(root: dict, children: dict) -> dict:
    """Split ``root``'s wall time among the spans of its tree.

    Each instant goes to the innermost spans open at that instant.  On a
    tree whose siblings never overlap, that is exactly each span's self
    time (duration minus the union of its children); where sibling spans
    run in parallel (a coordinator calling two shards at once), the
    overlapping instants are split evenly between them.  Either way the
    shares of one tree add up to the root's duration.  Returns
    ``{layer name: seconds}``.
    """
    nodes = []
    stack = [(root, root["start"], root["end"], None)]
    while stack:
        span, lo, hi, parent_index = stack.pop()
        lo, hi = max(span["start"], lo), min(span["end"], hi)
        if hi <= lo:
            continue
        index = len(nodes)
        nodes.append((span["name"], lo, hi, parent_index))
        for child in children.get(span["sid"], ()):
            stack.append((child, lo, hi, index))
    events = []
    for index, (_name, lo, hi, _parent) in enumerate(nodes):
        events.append((lo, 1, index))
        events.append((hi, 0, index))
    events.sort()
    open_children = [0] * len(nodes)
    active: set[int] = set()
    shares: dict[str, float] = defaultdict(float)
    previous = None
    for moment, kind, index in events:
        if previous is not None and moment > previous and active:
            leaves = [i for i in active if open_children[i] == 0]
            portion = (moment - previous) / len(leaves)
            for leaf in leaves:
                shares[nodes[leaf][0]] += portion
        previous = moment
        parent = nodes[index][3]
        if kind == 1:
            active.add(index)
            if parent is not None:
                open_children[parent] += 1
        else:
            active.discard(index)
            if parent is not None:
                open_children[parent] -= 1
    return dict(shares)


def layer_table(spans: list[dict], is_root) -> dict:
    """Per-layer attributed seconds over every tree whose root satisfies
    ``is_root``.  Returns ``{"wall_s": ..., "roots": n, "layers": {...}}``;
    the layer seconds add up to ``wall_s``."""
    roots, children = build_trees(spans)
    totals: dict[str, float] = defaultdict(float)
    wall = 0.0
    count = 0
    for root in roots:
        if not is_root(root):
            continue
        count += 1
        wall += root["end"] - root["start"]
        for name, seconds in attribute(root, children).items():
            totals[name] += seconds
    return {"wall_s": wall, "roots": count, "layers": dict(totals)}
