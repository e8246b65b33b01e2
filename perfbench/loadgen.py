"""Load generation: closed-loop readers and the paced (open-loop) writer.

Each sample records when its request was sent and when the parsed reply
was back, both on ``time.perf_counter``.  Replies are digested after the
end time is taken, so digesting is the client's think time, not latency.
"""

from __future__ import annotations

import threading
import time

from perfbench.check import digest_pairs, digest_reply
from repro.errors import ReproError
from repro.server.client import ConnectionLost, ServerError

READ_OPS = ("rpq", "crpq", "paths")
JOIN_SLACK = 150.0  # seconds a client may overrun the window before we give up


class Sample:
    __slots__ = ("op", "key", "due", "start", "end", "ok", "code", "digest",
                 "count", "version", "correct")

    def __init__(self, op: str, key):
        self.op = op
        self.key = key
        self.due = None
        self.ok = False
        self.code = None
        self.digest = None
        self.count = 0
        self.version = None
        self.correct = None

    @property
    def latency(self) -> float:
        """Seconds from when the request was due (or sent) to its reply."""
        return self.end - (self.due if self.due is not None else self.start)


def server_call(client):
    """``call(op, key)`` over a ServerClient.

    A call returns a function that digests the reply into ``(digest,
    count, graph version)``; it runs after the reply is timed."""

    def call(op, key):
        if op == "rpq":
            name, query, source = key
            result = client.rpq(name, query, source=source)
        elif op == "crpq":
            name, query = key
            result = client.crpq(name, query)
        else:
            name, query, source, target, mode, limit = key
            result = client.paths(name, query, source, target, mode=mode, limit=limit)
        return lambda: (digest_reply(op, result), result["count"],
                        result.get("graph_version"))

    return call


def coordinator_call(coordinator):
    """``call`` for the partitioned path: rpq through the shard coordinator."""

    def call(op, key):
        name, query, source = key
        pairs = coordinator.evaluate_rpq(
            name, query, sources=None if source is None else [source])
        return lambda: (digest_pairs(pairs), len(pairs), None)

    return call


def _attempt(sample: Sample, request):
    """Run ``request()``; stamp the sample's end time and outcome."""
    result = code = None
    try:
        result = request()
    except ServerError as exc:
        code = exc.code
    except (ConnectionLost, OSError):
        code = "transport"
    except ReproError as exc:  # typed coordinator failures (shard_unavailable...)
        code = getattr(exc, "code", type(exc).__name__)
    sample.end = time.perf_counter()
    sample.ok, sample.code = code is None, code
    return result


def closed_loop(call, stream, deadline: float, samples: list) -> None:
    """Send the next request only after the previous reply arrived."""
    for op, key in stream:
        if time.perf_counter() >= deadline:
            break
        sample = Sample(op, key)
        sample.start = time.perf_counter()
        summarize = _attempt(sample, lambda: call(op, key))
        if sample.ok:
            sample.digest, sample.count, sample.version = summarize()
        samples.append(sample)


def paced_writer(client, graph: str, batches, rate: float, start: float,
                 deadline: float, samples: list, acked: list) -> None:
    """Send one mutate batch every ``1/rate`` seconds, whatever the replies
    take; a late send is recorded as lag and counts in the write latency."""
    for index, edits in enumerate(batches):
        due = start + index / rate
        if due >= deadline:
            break
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sample = Sample("graphs.mutate", index)
        sample.due = due
        sample.start = time.perf_counter()
        result = _attempt(sample, lambda: client.mutate(graph, edits))
        samples.append(sample)
        if not sample.ok:
            break  # later versions could not be replayed for checking
        sample.version = result["version"]
        acked.append(edits)


def run_threads(targets) -> float:
    """Run ``(function, args)`` pairs on threads; return when all ended."""
    threads = [threading.Thread(target=fn, args=args, daemon=True) for fn, args in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_SLACK)
        if thread.is_alive():
            raise RuntimeError("a load-generator thread did not finish")
    return time.perf_counter()
