"""Span probes around each layer's entry points, installed from outside.

Nothing under ``src/`` changes: these functions replace module attributes
and methods with thin wrappers that open a span, call the original and
close the span.  ``install_server_probes`` runs inside a ``repro serve``
process (see ``traced_serve.py``); ``install_client_probes`` runs in the
load generator, around the client and the shard coordinator.

Span names are ``<layer>.<what>``; ``report.py`` maps them onto the
per-layer metrics.
"""

from __future__ import annotations

import functools
import gc
import itertools
import time
from contextlib import asynccontextmanager

from perfbench.spans import Recorder


def _wrap(owner, attribute: str, recorder: Recorder, name: str, **options):
    """Replace ``owner.attribute`` by a span-recording wrapper."""
    original = getattr(owner, attribute)
    link_of = options.get("link_of")
    after = options.get("after")

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        link = link_of(*args, **kwargs) if link_of is not None else None
        with recorder.span(name, link=link) as span:
            result = original(*args, **kwargs)
            if after is not None:
                after(span, result, *args, **kwargs)
            return result

    setattr(owner, attribute, wrapper)


# ----------------------------------------------------------------------
# server process
# ----------------------------------------------------------------------
def install_server_probes(recorder: Recorder) -> dict:
    """Wrap the server-side layers; returns the runtime (GC) event log."""
    import repro.crpq.evaluation as crpq_evaluation
    import repro.distributed.frontier as frontier
    import repro.engine.kernel as kernel
    import repro.rpq.evaluation as rpq_evaluation
    import repro.rpq.path_modes as path_modes
    import repro.server.app as app
    from repro.engine.cache import CompilationCache
    from repro.engine.csr import CSRGraph
    from repro.server.admission import AdmissionController
    from repro.server.service import AnswerCache, QueryService
    from repro.storage.store import GraphStore

    # server.app: one span per request on the event loop, the admission
    # wait inside it, and the response encode (which runs after the
    # request's span closed, so it links to the client by request id).
    handle_request = app.QueryServer.handle_request

    async def traced_handle_request(self, request):
        # The service span runs on a worker thread; it finds this span
        # through the key.
        with recorder.span("app.handle", link=request.id, key=f"s:{request.id}"):
            return await handle_request(self, request)

    app.QueryServer.handle_request = traced_handle_request

    slot = AdmissionController.slot

    @asynccontextmanager
    async def traced_slot(self):
        context = slot(self)
        with recorder.span("admission.wait"):
            await context.__aenter__()
        try:
            yield self
        except BaseException as exc:
            if not await context.__aexit__(type(exc), exc, exc.__traceback__):
                raise
        else:
            await context.__aexit__(None, None, None)

    AdmissionController.slot = traced_slot

    encode_response = app.encode_response

    def traced_encode(response):
        with recorder.span("app.encode", link=response.get("id")) as span:
            data = encode_response(response)
            span["attrs"]["bytes"] = len(data)
            return data

    app.encode_response = traced_encode

    # server.service
    _wrap(QueryService, "execute", recorder, "service.execute",
          link_of=lambda self, request, *a, **k: f"s:{request.id}")
    _wrap(QueryService, "_mutate", recorder, "service.mutate")
    _wrap(AnswerCache, "get", recorder, "answer_cache")
    _wrap(AnswerCache, "put", recorder, "answer_cache")
    # engine
    _wrap(CompilationCache, "compile", recorder, "compile")
    _wrap(CSRGraph, "__init__", recorder, "csr.build")
    _wrap(kernel, "_csr_sweep", recorder, "kernel.sweep")
    _wrap(kernel, "_csr_reachable", recorder, "kernel.sweep")
    # evaluators
    _wrap(rpq_evaluation, "evaluate_rpq", recorder, "rpq.evaluate")
    _wrap(crpq_evaluation, "evaluate_crpq", recorder, "crpq.evaluate")
    _wrap(crpq_evaluation, "make_plan", recorder, "crpq.plan")

    matching_paths = path_modes.matching_paths

    @functools.wraps(matching_paths)
    def traced_paths(*args, **kwargs):
        # The generator is drained inside the span so the span covers the
        # enumeration itself, not the consumer's work between yields.
        with recorder.span("paths.enumerate") as span:
            paths = list(matching_paths(*args, **kwargs))
            span["attrs"]["emitted"] = len(paths)
        return iter(paths)

    path_modes.matching_paths = traced_paths

    # storage and the shard-side frontier step
    def flushed(span, result, *args, **kwargs):
        span["attrs"]["records"] = result

    _wrap(GraphStore, "flush", recorder, "store.flush", after=flushed)

    def stepped(span, result, *args, **kwargs):
        span["attrs"]["expanded"] = result.get("expanded", 0)
        span["attrs"]["bounced"] = result.get("bounced", 0) or 0

    _wrap(frontier, "local_frontier_step", recorder, "frontier.step", after=stepped)

    # runtime: every collection's pause, stamped on the shared clock
    collections: list = []
    started: dict = {}

    def on_gc(phase, info):
        if phase == "start":
            started["at"] = time.perf_counter()
        elif "at" in started:
            collections.append(
                (started.pop("at"), time.perf_counter(), info["generation"])
            )

    gc.callbacks.append(on_gc)
    return {"gc": collections}


# ----------------------------------------------------------------------
# load-generator process
# ----------------------------------------------------------------------
def install_client_probes(recorder: Recorder) -> None:
    """Wrap the client's exchange and decode, and the shard coordinator."""
    import repro.server.client as client
    from repro.distributed.coordinator import ShardCoordinator

    # Request ids are only unique per connection; give every connection a
    # distinct prefix so that server spans link to exactly one request.
    connections = itertools.count(1)
    next_id = client.ServerClient._next_id

    def traced_next_id(self):
        tag = self.__dict__.get("_perfbench_tag")
        if tag is None:
            tag = self._perfbench_tag = f"k{next(connections)}"
        request_id = f"{tag}-{next_id(self)}"
        span = self.__dict__.get("_perfbench_span")
        if span is not None:
            span["key"] = request_id
        return request_id

    exchange = client.ServerClient._exchange

    def traced_exchange(self, op, **params):
        with recorder.span("client.request", op=op) as span:
            self._perfbench_span = span
            try:
                return exchange(self, op, **params)
            finally:
                self._perfbench_span = None

    client.ServerClient._next_id = traced_next_id
    client.ServerClient._exchange = traced_exchange
    _wrap(client, "decode_response", recorder, "client.decode")

    # Coordinator: one root per distributed query; shard calls run on pool
    # threads and link back to it through a per-query key.
    queries = itertools.count(1)
    evaluate_rpq = ShardCoordinator.evaluate_rpq

    def traced_evaluate(self, *args, **kwargs):
        key = f"q{next(queries)}"
        self._perfbench_query = key
        with recorder.span("coordinator.evaluate", key=key):
            return evaluate_rpq(self, *args, **kwargs)

    ShardCoordinator.evaluate_rpq = traced_evaluate
    _wrap(ShardCoordinator, "_frontier_call", recorder, "coordinator.call",
          link_of=lambda self, *a, **k: self._perfbench_query)
