"""Seeded workload definitions: graphs and request schedules.

Everything here is a pure function of the workload seed, so one seed always
yields the same graphs and the same per-client request streams.  The
program under test only ever sees the generated graph documents and the
requests; reference answers are computed by ``check.py`` from the same
objects, outside the timed window.

A request is a plain tuple ``(op, key)`` where ``key`` holds everything the
op needs (graph name, query text, source/target, mode, limit).  Keys are
hashable so that reference answers can be memoized per key.
"""

from __future__ import annotations

import itertools
import random

from repro.graph.generators import diamond_chain, random_graph

LABELS = tuple(f"l{i}" for i in range(8))

#: answer-cache entries of a default ``repro serve`` (``--answer-cache``)
SERVER_ANSWER_CACHE = 512

# Graph sizes.  large_answer's graph gives each of its ten labels one edge
# per node on average, well above the percolation threshold of (b+c)*, so
# answers are ~1.2x10^4 pairs whatever the seed, and one run holds >100
# requests (p90 needs ten samples beyond it).  Ten labels give 2520 label
# combinations, enough for a run ten times faster than today's never to
# repeat one.  The others use the 2000-node, 8-label graph the roadmap
# measurements were taken on.
LARGE_LABELS = tuple(f"l{i}" for i in range(10))
LARGE_GRAPH = (200, 2000)
MIX_GRAPH = (2000, 16000)
DAG_DIAMONDS = 48

PATH_MODES = ("shortest", "simple", "trail", "all")
PATH_LIMIT = 32


def _rng(seed: int, *stream) -> random.Random:
    """An independent, reproducible stream per (seed, purpose)."""
    return random.Random(repr((seed,) + stream))


def _distinct_labels(rng: random.Random, count: int) -> list[str]:
    return rng.sample(LABELS, count)


class Zipf:
    """Zipf-Mandelbrot draws over a fixed list of keys: rank ``r`` has
    weight ``1 / (r + offset) ** exponent`` (rank 1 most popular)."""

    def __init__(self, keys: list, exponent: float, offset: float):
        self.keys = keys
        weights = [1.0 / (rank + offset) ** exponent for rank in range(1, len(keys) + 1)]
        self.cumulative = list(itertools.accumulate(weights))

    def draw(self, rng: random.Random):
        return rng.choices(self.keys, cum_weights=self.cumulative)[0]


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------
def main_graph(seed: int, size: tuple, labels=LABELS) -> "object":
    nodes, edges = size
    return random_graph(nodes, edges, labels, seed=seed)


def dag_graph() -> "object":
    """The Fig. 5 diamond chain: 2^k paths between junctions k stages apart."""
    return diamond_chain(DAG_DIAMONDS, label="a")


# ----------------------------------------------------------------------
# key spaces
# ----------------------------------------------------------------------
def large_answer_keys(seed: int) -> list:
    """Every ``a (b+c)* d`` with four distinct labels, in a seeded order.

    Each key appears once, so no request of a run can hit the answer cache.
    """
    keys = []
    for a, b, c, d in itertools.permutations(LARGE_LABELS, 4):
        if b < c:
            keys.append(("rpq", ("g", f"{a} ({b}+{c})* {d}", None)))
    _rng(seed, "large").shuffle(keys)
    return keys


def _rpq_patterns(rng: random.Random) -> list[str]:
    """Two regexes per shape.  Every shape starts with a star over two or
    three labels, which reaches the random graph's giant component from
    almost any source, so answers are ~10^3 pairs whichever keys are hot."""
    shapes = ("({0}+{1})* {2}", "({0}+{1})* {2} {3}", "({0}+{1}+{2})* {3}",
              "({0}+{1})* ({2}+{3})")
    return [shape.format(*_distinct_labels(rng, 4)) for shape in shapes for _ in range(2)]


def _crpq_queries(rng: random.Random, count: int) -> list[str]:
    """Two-atom cyclic joins: a full join of label relations with few rows."""
    queries = set()
    while len(queries) < count:
        queries.add("q(x,y) :- ({0} {1})(x, y), ({2})(y, x)".format(
            *_distinct_labels(rng, 3)))
    return sorted(queries)


def _interleave(groups: list) -> list:
    """Merge equal-length key lists so that popularity ranks cycle through
    the groups: every band of ranks holds the same mix of groups (regex
    shapes, path modes) whichever keys the seed puts first."""
    count, size = len(groups), len(groups[0])
    stride = size // count
    return [groups[g][(i + g * stride) % size] for i in range(size) for g in range(count)]


def _path_keys(rng: random.Random) -> list:
    """Junction pairs 5-9 diamonds apart: each has 2^5-2^9 paths, so every
    request enumerates exactly ``PATH_LIMIT`` of them."""
    spans = [(span, start) for span in range(5, 10)
             for start in range(0, DAG_DIAMONDS - span, 4)]
    rng.shuffle(spans)
    return _interleave([
        [("paths", ("dag", query, f"j{start}", f"j{start + span}", mode, PATH_LIMIT))
         for span, start in spans]
        for mode in PATH_MODES for query in ("a*", "(a a)+")
    ])


class MixSpace:
    """The point-lookup key space: source-bound rpq, small CRPQs, paths.

    The key space is several times the server's 512-entry answer cache and
    requests are Zipf-skewed over it, so both hits and misses occur.  The
    key space is bounded so that reference answers stay cheap to compute:
    at most one per CRPQ and path key, and one multi-source evaluation per
    rpq regex.
    """

    RPQ_SOURCES = 192
    CRPQ_QUERIES = 120
    # The offset flattens the head: no key carries more than ~3.5% of its
    # op's requests, so which keys a seed makes hot hardly moves the mix,
    # and ~78% of requests still hit the LRU in steady state.
    SKEW = (1.5, 15)  # (exponent, offset)
    #: requests (over all clients) sent before timing starts: enough for the
    #: LRU to reach its steady-state hit ratio (~0.8), so the measured mix
    #: does not depend on how fast the cold start went
    WARMUP = 2000

    def __init__(self, seed: int, *, with_paths: bool):
        rng = _rng(seed, "mix-keys")
        nodes = MIX_GRAPH[0]
        sources = rng.sample(range(nodes), self.RPQ_SOURCES)
        rpq = _interleave([[("rpq", ("g", pattern, f"v{source}")) for source in sources]
                           for pattern in _rpq_patterns(rng)])
        crpq = [("crpq", ("g", query)) for query in _crpq_queries(rng, self.CRPQ_QUERIES)]
        rng.shuffle(crpq)
        self.seed = seed
        self.zipfs = [Zipf(rpq, *self.SKEW), Zipf(crpq, *self.SKEW)]
        self.weights = [0.6, 0.2]
        if with_paths:
            self.zipfs.append(Zipf(_path_keys(rng), *self.SKEW))
            self.weights.append(0.2)
        self.size = sum(len(zipf.keys) for zipf in self.zipfs)

    def stream(self, client: int):
        """An endless, reproducible request stream for one client."""
        rng = _rng(self.seed, "mix-stream", client)
        while True:
            yield rng.choices(self.zipfs, weights=self.weights)[0].draw(rng)


def partitioned_keys(seed: int) -> list:
    """Alternating unbound ``a b c`` and source-bound ``a (b+c)* d``, each
    key distinct, so every request misses the coordinator's answer cache."""
    rng = _rng(seed, "partitioned")
    triples = [f"{a} {b} {c}" for a, b, c in itertools.product(LABELS, repeat=3)]
    rng.shuffle(triples)
    bound = []
    nodes = MIX_GRAPH[0]
    seen = set()
    while len(bound) < len(triples):
        a, b, c, d = _distinct_labels(rng, 4)
        key = (f"{a} ({b}+{c})* {d}", f"v{rng.randrange(nodes)}")
        if key not in seen:
            seen.add(key)
            bound.append(key)
    keys = []
    for triple, (pattern, source) in zip(triples, bound):
        keys.append(("rpq", ("g", triple, None)))
        keys.append(("rpq", ("g", pattern, source)))
    return keys


# ----------------------------------------------------------------------
# writes
# ----------------------------------------------------------------------
WRITE_RATE = 20.0  # batches per second, open loop


def write_batches(seed: int):
    """An endless stream of small ``graphs.mutate`` batches.

    Each batch adds one node wired into the graph by edges on the labels
    the reads traverse, so batches change answers and retire the cache.
    """
    rng = _rng(seed, "writes")
    nodes = MIX_GRAPH[0]
    for index in itertools.count():
        node = f"w{index}"
        edits = [{"kind": "add_node", "id": node}]
        for edge in range(3):
            other = f"v{rng.randrange(nodes)}"
            src, tgt = (other, node) if edge % 2 == 0 else (node, other)
            edits.append({"kind": "add_edge", "id": f"we{index}_{edge}",
                          "src": src, "tgt": tgt, "label": rng.choice(LABELS)})
        yield edits
