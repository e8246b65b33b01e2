"""The resident engine: graph catalog, answer cache, query execution.

This is where the per-process amortization the engine built in PRs 1-3
finally outlives a single query: the :class:`GraphCatalog` keeps named
graphs (and therefore their lazily-built CSR snapshots) alive across
requests, the process-wide compile cache stays warm, and the
:class:`AnswerCache` short-circuits repeated queries entirely.

**Cache invalidation is by version, not by notification.**  An answer is
keyed on ``(graph name, catalog generation, graph.version, op, query,
options)``:

* ``graph.version`` is the graph's monotone mutation counter — any in-place
  mutation of a cataloged graph silently retires every answer computed
  against the old version;
* the catalog ``generation`` is a catalog-wide monotone counter stamped on
  every (re-)registration — two different uploads under one name can never
  collide even if their mutation counters happen to match.

Stale entries are never served (the key no longer matches) and age out of
the LRU; re-uploading a name also proactively drops its old entries.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro.engine.cache import DEFAULT_CACHE
from repro.engine.faults import FaultError, fault_point
from repro.engine.limits import BudgetExceeded
from repro.engine.metrics import MetricsRegistry
from repro.engine.stats import EngineStats
from repro.engine.tracing import (
    Tracer,
    get_tracer,
    span_tree_dict,
    use_thread_tracer,
)
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.graph.property_graph import PropertyGraph
from repro.server.protocol import (
    BadRequestError,
    GraphNotFoundError,
    Request,
)


class CatalogEntry:
    """One named graph in the catalog: resident, or a lazy stored handle.

    A durable catalog registers stored graphs without loading them — the
    entry then holds a :class:`~repro.storage.lazy.LazyGraphHandle` and the
    service queries label-segment *views* of it.  Touching :attr:`graph`
    (mutations, dlrpq-free ops that need the full graph) materializes the
    fully-resident, journal-attached graph on demand.
    """

    __slots__ = ("name", "generation", "_graph", "handle")

    def __init__(
        self,
        name: str,
        graph: "EdgeLabeledGraph | None",
        generation: int,
        handle=None,
    ):
        self.name = name
        self._graph = graph
        self.generation = generation
        self.handle = handle

    @property
    def graph(self) -> EdgeLabeledGraph:
        """The fully-resident graph (materializing a lazy entry on demand)."""
        graph = self._graph
        if graph is None:
            # Benign race: materialize() is locked and memoized on the
            # handle, so concurrent callers converge on one object.
            graph = self.handle.materialize()
            self._graph = graph
        return graph

    @property
    def resident(self) -> bool:
        return self._graph is not None

    @property
    def version(self) -> tuple:
        """The answer-cache version key: survives both in-place mutation
        (``graph.version`` moves) and replacement (``generation`` moves).

        For lazy entries the durable version stands in — by construction it
        equals the ``graph.version`` a materialized copy reports, so keys
        computed before and after materialization coincide."""
        graph = self._graph
        if graph is not None:
            return (self.generation, graph.version)
        return (self.generation, self.handle.version)

    def info(self) -> dict:
        graph = self._graph
        if graph is None:
            # Manifest-only: answering graphs.list must not fault segments.
            handle = self.handle
            return {
                "name": self.name,
                "kind": handle.kind,
                "nodes": handle.num_nodes,
                "edges": handle.num_edges,
                "labels": sorted(map(str, handle.labels)),
                "version": list(self.version),
            }
        return {
            "name": self.name,
            "kind": "property" if isinstance(graph, PropertyGraph) else "edge_labeled",
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "labels": sorted(map(str, graph.labels)),
            "version": list(self.version),
        }


class GraphCatalog:
    """Named, versioned graphs resident in the service process.

    With ``data_dir`` the catalog is durable: the manifest is loaded at
    startup (as lazy entries — nothing faults in until queried),
    registrations write through to the store, and mutations of cataloged
    graphs are journaled (see DESIGN.md §13).
    """

    def __init__(
        self,
        data_dir: "str | None" = None,
        *,
        max_resident_edges: "int | None" = None,
    ) -> None:
        self._entries: dict[str, CatalogEntry] = {}
        self._lock = threading.Lock()
        self._generation = 0
        self.max_resident_edges = max_resident_edges
        self._store = None
        if data_dir is not None:
            from repro.storage.lazy import LazyGraphHandle
            from repro.storage.store import GraphStore

            self._store = GraphStore(data_dir)
            for name in self._store.names():
                self._generation += 1
                handle = LazyGraphHandle(
                    self._store, name, max_resident_edges=max_resident_edges
                )
                self._entries[name] = CatalogEntry(
                    name, None, self._generation, handle
                )

    @property
    def store(self):
        """The backing :class:`GraphStore`, or ``None`` for memory-only."""
        return self._store

    @property
    def durable(self) -> bool:
        return self._store is not None

    @classmethod
    def with_builtins(
        cls,
        data_dir: "str | None" = None,
        *,
        max_resident_edges: "int | None" = None,
    ) -> "GraphCatalog":
        """A catalog preloaded with the paper's bank graphs (fig2, fig3).

        On a durable catalog the builtins are only seeded when the store
        does not already hold them — a restart must hand back the user's
        (possibly mutated) fig2, not a fresh copy.
        """
        from repro.graph.datasets import figure2_graph, figure3_graph

        catalog = cls(data_dir, max_resident_edges=max_resident_edges)
        for name, build in (("fig2", figure2_graph), ("fig3", figure3_graph)):
            if name not in catalog:
                catalog.register(name, build())
        return catalog

    def register(self, name: str, graph: EdgeLabeledGraph) -> CatalogEntry:
        """Add (or replace) a graph under ``name`` (write-through when durable)."""
        if not isinstance(name, str) or not name:
            raise BadRequestError("graph name must be a non-empty string")
        if not isinstance(graph, EdgeLabeledGraph):
            raise BadRequestError("only graph objects can be cataloged")
        if self._store is not None:
            # Store first, swap second: a failed snapshot must not leave a
            # catalog entry with no durable backing.
            self._store.put_graph(name, graph)
            self._store.attach(name, graph)
        with self._lock:
            self._generation += 1
            entry = CatalogEntry(name, graph, self._generation)
            old = self._entries.get(name)
            self._entries[name] = entry
        if old is not None and old.resident and old._graph is not graph:
            # The replaced graph object must stop journaling under this name.
            old._graph.detach_journal()
        return entry

    def get(self, name: str) -> CatalogEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise GraphNotFoundError(
                f"no graph named {name!r} in the catalog", graph=name
            )
        return entry

    def drop(self, name: str) -> None:
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is None:
            raise GraphNotFoundError(
                f"no graph named {name!r} in the catalog", graph=name
            )
        if self._store is not None:
            if entry.resident:
                entry._graph.detach_journal()
            self._store.delete_graph(name)

    def flush(self, name: "str | None" = None) -> int:
        """Journal durability barrier (no-op for memory-only catalogs)."""
        if self._store is None:
            return 0
        return self._store.flush(name)

    def close(self) -> None:
        """Flush every journal buffer and close the store (idempotent)."""
        if self._store is not None:
            self._store.close()

    def storage_info(self) -> "dict | None":
        if self._store is None:
            return None
        lazy = resident = 0
        with self._lock:
            for entry in self._entries.values():
                if entry.resident:
                    resident += 1
                elif entry.handle is not None:
                    lazy += 1
        return {
            "data_dir": self._store.data_dir,
            "path": self._store.path,
            "resident_graphs": resident,
            "lazy_graphs": lazy,
            "max_resident_edges": self.max_resident_edges,
        }

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def versions(self) -> dict:
        """``{name: [generation, durable version]}`` for every graph.

        Deliberately cheap: reads the manifest-backed version of lazy
        entries without faulting a single segment in, so the fleet
        supervisor's heartbeat probes cost O(catalog) dict reads even on
        a durable catalog holding larger-than-RAM graphs.
        """
        with self._lock:
            entries = list(self._entries.values())
        return {entry.name: list(entry.version) for entry in entries}

    def list_info(self) -> list[dict]:
        with self._lock:
            entries = list(self._entries.values())
        return [entry.info() for entry in sorted(entries, key=lambda e: e.name)]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_MISSING = object()


class AnswerCache:
    """A thread-safe LRU of fully-materialized query answers.

    Values are the JSON-ready result dicts the protocol ships, so a hit
    costs one dict lookup — no compile, no index, no BFS, no re-sorting.
    """

    def __init__(self, maxsize: int = 512):
        if maxsize < 1:
            raise ValueError("answer cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: dict = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key: tuple):
        """The cached answer for ``key``, or ``None`` (and a miss count)."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return None
            # LRU refresh: dicts iterate in insertion order, so re-inserting
            # moves the key to the most-recently-used end.
            del self._entries[key]
            self._entries[key] = value
            self.hits += 1
            return value

    def put(self, key: tuple, value) -> None:
        with self._lock:
            if key in self._entries:
                del self._entries[key]
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
                self.evictions += 1

    def invalidate_graph(self, name: str) -> int:
        """Drop every entry whose key belongs to graph ``name``.

        Version keying already guarantees stale answers are never *served*;
        this proactively frees the memory when a graph is re-uploaded.
        """
        with self._lock:
            stale = [key for key in self._entries if key[0] == name]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)
        return len(stale)

    def info(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class QueryService:
    """Execute protocol requests against the resident catalog and engine.

    :meth:`execute` is synchronous and thread-safe — the app calls it on a
    worker pool via ``run_in_executor``, so each request's ``server.request``
    span opens on that worker's empty thread-local stack and becomes a root
    tree with the kernel's spans nested inside.
    """

    #: ops whose answers are pure functions of (graph version, query text,
    #: options) and therefore cacheable.  Budget limits (timeout/max_rows/
    #: max_states) travel in the request params, hence in the cache key's
    #: options — and a tripped budget *raises* before the cache write, so
    #: the cache only ever holds complete answers.
    CACHEABLE_OPS = frozenset({"rpq", "crpq", "dlrpq", "paths", "explain"})

    def __init__(
        self,
        catalog: "GraphCatalog | None" = None,
        *,
        answer_cache_size: int = 512,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.catalog = catalog if catalog is not None else GraphCatalog.with_builtins()
        self.answer_cache = AnswerCache(answer_cache_size)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.started_at = time.time()
        self._metrics_lock = threading.Lock()

    # ------------------------------------------------------------------
    # the entry point
    # ------------------------------------------------------------------
    def execute(self, request: Request, budget=None) -> dict:
        """Run one request to a JSON-ready result (raises typed errors).

        ``budget`` (a :class:`~repro.engine.limits.QueryBudget`, built by
        the app from the request's limit params and the server default) is
        threaded into the evaluators; a tripped budget raises
        :class:`BudgetExceeded` — counted under ``server_budget_exceeded``
        — before any cache write happens.
        """
        tracer = get_tracer()
        trace_ctx = self._trace_context(request)
        started = time.perf_counter()
        fault_point("service.execute")
        try:
            if trace_ctx is not None and not tracer.enabled:
                # A remote caller sent a trace context but this process
                # traces nothing: run the request under a per-request
                # ephemeral tracer so the caller still gets its subtree.
                # Safe because execute() runs synchronously on one worker
                # thread — the override is thread-local and unwinds here.
                with use_thread_tracer(Tracer()) as ephemeral:
                    result, cache_hit = self._traced_dispatch(
                        request, budget, ephemeral, trace_ctx
                    )
            elif tracer.enabled:
                result, cache_hit = self._traced_dispatch(
                    request, budget, tracer, trace_ctx
                )
            else:
                result, cache_hit = self._dispatch(request, budget)
        except BudgetExceeded as exc:
            with self._metrics_lock:
                self.metrics.inc("server_budget_exceeded")
                self.metrics.inc(f"server_budget_exceeded_{exc.limit}")
            raise
        elapsed = time.perf_counter() - started
        with self._metrics_lock:
            self.metrics.inc("server_requests_total")
            self.metrics.inc(f"server_requests_{request.op.replace('.', '_')}")
            self.metrics.observe("server_request_seconds", elapsed)
            if request.op in self.CACHEABLE_OPS:
                self.metrics.inc(
                    "server_answer_cache_hits" if cache_hit
                    else "server_answer_cache_misses"
                )
                self.metrics.observe(
                    "server_cache_hit_seconds" if cache_hit
                    else "server_cache_miss_seconds",
                    elapsed,
                )
        return result

    @staticmethod
    def _trace_context(request: Request) -> "dict | None":
        """The validated remote trace context, or ``None`` when absent.

        The wire form is ``{"trace_id": <32-hex>, "span_id": <16-hex>}``
        where ``span_id`` names the *caller's* span — this request's
        ``server.request`` root becomes its remote child.
        """
        ctx = request.param("trace")
        if ctx is None:
            return None
        if (
            not isinstance(ctx, dict)
            or not isinstance(ctx.get("trace_id"), str)
            or not isinstance(ctx.get("span_id"), str)
        ):
            raise BadRequestError(
                "parameter 'trace' must be an object with string "
                "'trace_id' and 'span_id' fields"
            )
        return ctx

    def _traced_dispatch(
        self, request: Request, budget, tracer, trace_ctx: "dict | None"
    ) -> tuple[dict, bool]:
        """Dispatch under a ``server.request`` span.

        With a remote ``trace_ctx``, the root adopts the caller's
        trace_id/span_id and the finished subtree ships back on the
        result as ``trace_spans`` (size-capped dicts) — attached to a
        *shallow copy*, so the answer cache never holds span payloads.
        """
        with tracer.span("server.request", op=request.op, id=request.id) as span:
            if trace_ctx is not None:
                span.adopt_remote(trace_ctx)
            result, cache_hit = self._dispatch(request, budget)
            span.set(cache_hit=cache_hit)
        if trace_ctx is not None:
            result = dict(result)
            result["trace_spans"] = [span_tree_dict(span)]
        return result, cache_hit

    def record_error(self, code: str) -> None:
        """Count one failed request (the app calls this per error envelope)."""
        with self._metrics_lock:
            self.metrics.inc("server_errors_total")
            self.metrics.inc(f"server_errors_{code}")

    def _dispatch(self, request: Request, budget=None) -> tuple[dict, bool]:
        op = request.op
        if op == "ping":
            return {"pong": True}, False
        if op == "stats":
            return self.stats(), False
        if op == "health":
            return self.health(), False
        if op == "graphs.list":
            return {"graphs": self.catalog.list_info()}, False
        if op == "graphs.upload":
            return self._upload(request), False
        if op == "graphs.mutate":
            return self._mutate(request), False
        if op == "cluster_metrics":
            # The fleet-aggregation op: this process's registry in the
            # lossless dump form (raw bucket counts) so a coordinator can
            # merge registries across shards exactly.
            with self._metrics_lock:
                return {"metrics": self.metrics.dump()}, False
        if op == "frontier_step":
            # One round of the distributed product BFS: pure function of
            # (graph version, query, frontier), but frontiers are unique
            # per round, so caching would only churn the LRU.
            return self._frontier_step(request, budget), False
        if op in self.CACHEABLE_OPS:
            return self._query(request, budget)
        raise BadRequestError(f"op {op!r} is not executable by the service")

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._metrics_lock:
            metrics = self.metrics.as_dict()
        result = {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "graphs": self.catalog.list_info(),
            "answer_cache": self.answer_cache.info(),
            "compile_cache": DEFAULT_CACHE.info(),
            "metrics": metrics,
        }
        storage = self.catalog.storage_info()
        if storage is not None:
            result["storage"] = storage
        return result

    def health(self) -> dict:
        """The cheap, idempotent liveness probe (DESIGN.md §14).

        Everything here answers from in-memory state — catalog names with
        their durable versions (no segment faulting), uptime, request
        counters — so a heartbeat prober can hammer it at sub-second
        intervals without competing with query execution (it is a control
        op: no admission slot, no worker pool).  The app layer adds the
        fields only it knows: ``in_flight`` and the draining flag.
        """
        with self._metrics_lock:
            requests_total = self.metrics.counters.get(
                "server_requests_total", 0
            )
        return {
            "status": "ok",
            "pid": os.getpid(),
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "graphs": self.catalog.versions(),
            "requests_total": requests_total,
        }

    def close(self) -> None:
        """Flush write-through journals and release the catalog's store.

        The app calls this at the end of a graceful drain; after it, the
        last acknowledged mutation is durable on disk."""
        self.catalog.close()

    def _upload(self, request: Request) -> dict:
        from repro.graph.serialize import graph_from_dict

        name = request.require("name")
        document = request.require("graph")
        if not isinstance(document, dict):
            raise BadRequestError(
                "parameter 'graph' must be a serialized graph document"
            )
        graph = graph_from_dict(document)
        entry = self.catalog.register(name, graph)
        dropped = self.answer_cache.invalidate_graph(name)
        info = entry.info()
        info["cache_entries_dropped"] = dropped
        return info

    def _mutate(self, request: Request) -> dict:
        """Apply in-place edits to a cataloged graph (write-through).

        Edits apply sequentially and in place; an invalid edit raises a
        typed error after its predecessors took effect (the response never
        reaches the client, but the applied prefix is flushed and stays
        durable — exactly the journal's consistent-prefix contract).  The
        flush below is the durability barrier: once the reply is on the
        wire, the mutation survives ``kill -9``.
        """
        name = request.require("graph")
        edits = request.require("edits")
        if not isinstance(edits, list) or not all(
            isinstance(edit, dict) for edit in edits
        ):
            raise BadRequestError(
                "parameter 'edits' must be a list of edit objects"
            )
        entry = self.catalog.get(name)
        graph = entry.graph  # materializes a lazy entry before writing
        applied = 0
        try:
            for index, edit in enumerate(edits):
                self._apply_edit(graph, edit, index)
                applied += 1
        finally:
            self.catalog.flush(name)
            if applied:
                self.answer_cache.invalidate_graph(name)
            with self._metrics_lock:
                self.metrics.inc("server_edits_applied", applied)
        return {
            "op": "graphs.mutate",
            "graph": name,
            "applied": applied,
            "version": list(entry.version),
        }

    @staticmethod
    def _apply_edit(graph, edit: dict, index: int) -> None:
        def field(key):
            try:
                return edit[key]
            except KeyError:
                raise BadRequestError(
                    f"edit {index}: missing field {key!r}"
                ) from None

        kind = edit.get("kind")
        is_property = isinstance(graph, PropertyGraph)
        if kind == "add_edge":
            if is_property:
                graph.add_edge(
                    field("id"), field("src"), field("tgt"), field("label"),
                    properties=edit.get("properties"),
                )
            else:
                graph.add_edge(
                    field("id"), field("src"), field("tgt"), field("label")
                )
        elif kind == "add_node":
            if is_property:
                graph.add_node(
                    field("id"),
                    label=edit.get("label"),
                    properties=edit.get("properties"),
                )
            else:
                graph.add_node(field("id"))
        elif kind == "set_property":
            if not is_property:
                raise BadRequestError(
                    f"edit {index}: set_property needs a property graph"
                )
            graph.set_property(field("id"), field("name"), field("value"))
        else:
            raise BadRequestError(f"edit {index}: unknown edit kind {kind!r}")

    def _graph_for(self, entry: CatalogEntry, op: str, query: str):
        """The graph to evaluate against: a lazy entry serves a label view.

        The view holds every node but only the label segments the compiled
        automaton can traverse (``query_labels``); dlrpq — whose query
        syntax the regex front-end does not cover — gets the all-labels
        view.  Resident entries (and memory-only catalogs) evaluate the
        graph itself.
        """
        handle = entry.handle
        if handle is None or handle.resident:
            return entry.graph
        if op == "dlrpq":
            return handle.view(handle.labels)
        from repro.storage.lazy import query_labels

        return handle.view(query_labels(query, handle.labels))

    def _query(self, request: Request, budget=None) -> tuple[dict, bool]:
        name = request.require("graph")
        query = request.require("query")
        if not isinstance(query, str):
            raise BadRequestError("parameter 'query' must be a string")
        entry = self.catalog.get(name)
        # "trace" is per-request routing context, not a query option: a
        # fresh caller span id every request would make every lookup a
        # miss and churn the LRU with never-again-matched keys.
        options = {
            key: value
            for key, value in request.params.items()
            if key not in ("graph", "query", "trace")
        }
        key = (
            name,
            entry.version,
            request.op,
            query,
            json.dumps(options, sort_keys=True, default=str),
        )
        cached = self.answer_cache.get(key)
        if cached is not None:
            return cached, True
        stats = EngineStats()
        handler = {
            "rpq": self._run_rpq,
            "crpq": self._run_crpq,
            "dlrpq": self._run_dlrpq,
            "paths": self._run_paths,
            "explain": self._run_explain,
        }[request.op]
        result = handler(
            self._graph_for(entry, request.op, query), query, request, stats,
            budget,
        )
        result["graph"] = name
        result["graph_version"] = list(entry.version)
        with self._metrics_lock:
            self.metrics.fold_stats(stats)
        # The cache write happens only on this clean-completion path — a
        # tripped budget raised out of the handler above, so failed,
        # cancelled or partial results can never populate the cache.  A
        # failed cache *write* degrades to an uncached (but correct) answer.
        try:
            fault_point("service.cache_put")
            self.answer_cache.put(key, result)
        except FaultError:
            with self._metrics_lock:
                self.metrics.inc("server_cache_put_failures")
        return result, False

    def _frontier_step(self, request: Request, budget=None) -> dict:
        """The shard half of the scatter-gather product BFS (DESIGN.md §11)."""
        from repro.distributed.frontier import (
            decode_mask,
            decode_pairs,
            local_frontier_step,
        )

        name = request.require("graph")
        query = request.require("query")
        if not isinstance(query, str):
            raise BadRequestError("parameter 'query' must be a string")
        alphabet = request.param("alphabet", [])
        if not isinstance(alphabet, list):
            raise BadRequestError("parameter 'alphabet' must be a list")
        state_bits = request.require("state_bits")
        if isinstance(state_bits, bool) or not isinstance(state_bits, int) \
                or state_bits < 0:
            raise BadRequestError(
                "parameter 'state_bits' must be a non-negative integer"
            )
        try:
            owned_mask = decode_mask(request.require("owned"))
            frontier = decode_pairs(request.require("frontier"))
        except ValueError as exc:
            raise BadRequestError(f"malformed frontier: {exc}") from None
        entry = self.catalog.get(name)
        stats = EngineStats()
        tracer = get_tracer()
        try:
            if tracer.enabled:
                with tracer.span(
                    "frontier_step",
                    graph=name,
                    round=request.param("round"),
                    frontier=len(frontier),
                ) as span:
                    result = local_frontier_step(
                        entry.graph, query, alphabet, state_bits, owned_mask,
                        frontier, stats=stats, budget=budget,
                    )
                    span.set(
                        expanded=result["expanded"],
                        relaxed=result["relaxed"],
                        answers=len(result["answers"]),
                        cross=len(result["cross"]),
                        bounced=result.get("bounced", 0),
                    )
            else:
                result = local_frontier_step(
                    entry.graph, query, alphabet, state_bits, owned_mask,
                    frontier, stats=stats, budget=budget,
                )
        except ValueError as exc:
            raise BadRequestError(str(exc)) from None
        result["op"] = "frontier_step"
        result["graph"] = name
        result["graph_version"] = list(entry.version)
        with self._metrics_lock:
            self.metrics.fold_stats(stats)
        return result

    def _run_rpq(self, graph, query, request: Request, stats, budget=None) -> dict:
        from repro.rpq.evaluation import evaluate_rpq

        source = request.param("source")
        sources = [source] if source is not None else None
        pairs = evaluate_rpq(
            query, graph, sources=sources, stats=stats, budget=budget
        )
        return {
            "op": "rpq",
            "query": query,
            "pairs": sorted(([s, t] for s, t in pairs), key=repr),
            "count": len(pairs),
        }

    def _run_crpq(self, graph, query, request: Request, stats, budget=None) -> dict:
        from repro.crpq.evaluation import evaluate_crpq

        planner = request.param("planner")
        rows = evaluate_crpq(
            query, graph, planner=planner, stats=stats, budget=budget
        )
        return {
            "op": "crpq",
            "query": query,
            "rows": sorted((list(row) for row in rows), key=repr),
            "count": len(rows),
        }

    def _run_dlrpq(self, graph, query, request: Request, stats, budget=None) -> dict:
        from repro.datatests.dlrpq import evaluate_dlrpq

        if not isinstance(graph, PropertyGraph):
            raise BadRequestError(
                "dlrpq queries need a property graph (data tests read "
                "edge properties)"
            )
        source = request.require("source")
        target = request.require("target")
        mode = request.param("mode", "shortest")
        limit = request.param("limit", 1000)
        bindings = []
        try:
            for binding in evaluate_dlrpq(
                query, graph, source, target, mode=mode, limit=limit,
                budget=budget,
            ):
                bindings.append(
                    {
                        "path": list(binding.path.objects),
                        "lists": {
                            str(variable): list(values)
                            for variable, values in binding.mu.items()
                        },
                    }
                )
                if budget is not None:
                    budget.check_rows(len(bindings))
        except BudgetExceeded as exc:
            raise exc.attach_partial(self._capped(bindings, exc, budget))
        return {
            "op": "dlrpq",
            "query": query,
            "bindings": bindings,
            "count": len(bindings),
        }

    def _run_paths(self, graph, query, request: Request, stats, budget=None) -> dict:
        from repro.rpq.path_modes import matching_paths

        source = request.require("source")
        target = request.require("target")
        mode = request.param("mode", "shortest")
        limit = request.param("limit", 1000)
        paths = []
        try:
            for path in matching_paths(
                query, graph, source, target, mode=mode, limit=limit,
                stats=stats, budget=budget,
            ):
                paths.append(list(path.objects))
                if budget is not None:
                    budget.check_rows(len(paths))
        except BudgetExceeded as exc:
            raise exc.attach_partial(self._capped(paths, exc, budget))
        return {
            "op": "paths",
            "query": query,
            "mode": mode,
            "paths": paths,
            "count": len(paths),
        }

    @staticmethod
    def _capped(rows: list, exc: BudgetExceeded, budget) -> list:
        """The rows to attach as the partial result (max_rows trips keep
        exactly the first ``max_rows`` — enumeration order is deterministic
        for path-shaped results)."""
        if budget is not None and exc.limit == "max_rows" and budget.max_rows is not None:
            return rows[: budget.max_rows]
        return rows

    def _run_explain(self, graph, query, request: Request, stats, budget=None) -> dict:
        from repro.engine.explain import explain_query

        planner = request.param("planner", "cost")
        report = explain_query(query, graph, planner=planner)
        return {"op": "explain", "report": report}
