"""The shared query-execution kernel (snapshot + cache + stats).

One optimization layer under every language frontend in the library:

* :mod:`repro.engine.intern` / :mod:`repro.engine.csr` — the one
  per-version graph snapshot: dense node/label interning (nodes in one
  ``repr``-sorted numbering shared by every process) and label-partitioned
  CSR adjacency in ``array('i')`` rows, forward and reversed, with edge ids
  alongside the forward rows and per-label counts.  The product BFS (both
  directions), path products, GQL label scans and the cost planner all
  read it;
* :mod:`repro.engine.cache` — LRU compilation cache keyed on
  ``(regex AST, alphabet)`` so repeated queries skip parsing and Glushkov;
* :mod:`repro.engine.stats` — ``EngineStats`` counters/timers threaded
  through the evaluators and surfaced via the CLI's ``--stats``;
* :mod:`repro.engine.kernel` — the one production product BFS: a
  single-source bitset BFS and a multi-source origin-mask sweep, chosen by
  the number of sources; the sweep is also the shard step of distributed
  evaluation;
* :mod:`repro.engine.cardinality` — per-label statistics plus
  first/last-label automaton selectivity, feeding the cost-based CRPQ
  planner;
* :mod:`repro.engine.batch` — the workload driver: deduplicate
  structurally-equal queries, pre-warm the cache, share the CSR snapshot,
  fan out over a thread or process pool;
* :mod:`repro.engine.tracing` — hierarchical span tracer (thread-local
  current-span stacks, zero-cost no-op singleton when disabled) behind
  ``repro profile`` and workload trace files;
* :mod:`repro.engine.metrics` — log-scale latency histograms and a
  counter/histogram registry with Prometheus text and JSON exposition;
* :mod:`repro.engine.explain` — EXPLAIN/PROFILE reports for the CLI.

The seed's naive evaluators, the reference oracle of the differential
tests, live in ``tests/oracles.py``.
"""

from repro.engine.batch import BatchExecutor, BatchResult, default_jobs
from repro.engine.cache import (
    DEFAULT_CACHE,
    CompilationCache,
    CompiledQuery,
    alphabet_for,
    compile_uncached,
    default_cache,
)
from repro.engine.cache import IntPlan
from repro.engine.cardinality import CardinalityModel
from repro.engine.csr import CSRGraph, get_csr
from repro.engine.intern import Interner, get_interner
from repro.engine.kernel import (
    compile_query,
    evaluate,
    holds,
    reachable,
)
from repro.engine.metrics import Histogram, MetricsRegistry
from repro.engine.stats import EngineStats
from repro.engine.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    render_span_dict,
    span_tree_dict,
    use_thread_tracer,
    use_tracer,
)

__all__ = [
    "BatchExecutor",
    "BatchResult",
    "CardinalityModel",
    "CompilationCache",
    "CompiledQuery",
    "CSRGraph",
    "DEFAULT_CACHE",
    "EngineStats",
    "Histogram",
    "IntPlan",
    "Interner",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "alphabet_for",
    "compile_query",
    "compile_uncached",
    "default_cache",
    "default_jobs",
    "evaluate",
    "get_csr",
    "get_interner",
    "get_tracer",
    "holds",
    "reachable",
    "render_span_dict",
    "span_tree_dict",
    "use_thread_tracer",
    "use_tracer",
]
