"""The resident query service (DESIGN.md §8).

Everything the engine amortizes *within* a process — the CSR snapshot, the
compile cache, the metrics registry — was still being rebuilt per CLI
invocation.  This package keeps them resident behind a small asyncio
service:

* :mod:`repro.server.protocol` — the JSON-lines request/response protocol
  with typed error envelopes;
* :mod:`repro.server.service` — :class:`GraphCatalog` (named, versioned
  graphs) and :class:`QueryService` (worker-pool execution with a
  version-keyed LRU answer cache);
* :mod:`repro.server.admission` — concurrency/queue/timeout/size limits;
* :mod:`repro.server.app` — the asyncio TCP server + HTTP façade with
  signal-driven graceful drain;
* :mod:`repro.server.client` — the blocking client used by tests, the CLI
  and ``benchmarks/bench_server.py``.
"""

from repro.server.admission import AdmissionController
from repro.server.app import QueryServer, ServerThread
from repro.server.client import ServerClient, ServerError, http_get
from repro.server.protocol import (
    BadRequestError,
    GraphNotFoundError,
    OverloadedError,
    QueryTimeoutError,
    Request,
    RequestTooLargeError,
    ServiceError,
    ShuttingDownError,
)
from repro.server.service import AnswerCache, GraphCatalog, QueryService

__all__ = [
    "AdmissionController",
    "AnswerCache",
    "BadRequestError",
    "GraphCatalog",
    "GraphNotFoundError",
    "OverloadedError",
    "QueryServer",
    "QueryService",
    "QueryTimeoutError",
    "Request",
    "RequestTooLargeError",
    "ServerClient",
    "ServerError",
    "ServerThread",
    "ServiceError",
    "ShuttingDownError",
    "http_get",
]
