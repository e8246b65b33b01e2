"""From samples and spans to the named metrics.

End-to-end metrics come from the untraced samples; per-layer metrics come
from a traced phase's spans plus the servers' own ``stats`` counters.
"""

from __future__ import annotations

import math
import statistics

from perfbench.loadgen import READ_OPS
from perfbench.spans import layer_table

#: p90 needs at least this many samples beyond it to be reported as such
TAIL_SAMPLES = 10


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (failed requests enter as +inf)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _ms(value: float) -> float:
    return value * 1000.0


def end_to_end(phase) -> dict:
    """Every end-to-end metric: ``{name: (value, unit, samples)}``.

    A metric the workload has no samples for (no writes on a read-only
    workload) is ``None``.
    """
    samples = phase.samples
    reads = [s for s in samples if s.op in READ_OPS]
    writes = [s for s in samples if s.op == "graphs.mutate"]
    window = phase.window[1] - phase.window[0]
    good = [s for s in reads if s.ok and s.correct]
    failed = [s for s in samples if not (s.ok and s.correct is not False)]

    def latencies(group):
        return [s.latency if s.ok and s.correct is not False else math.inf for s in group]

    def pct_metric(group, pct):
        if not group:
            return None
        return (_ms(percentile(latencies(group), pct)), "ms", len(group))

    metrics = {
        "setup_s": (statistics.median(phase.setup_times), "s", len(phase.setup_times)),
        "requests_per_s": (len(good) / window, "1/s", len(good)),
        "rows_per_s": (sum(s.count for s in good) / window, "1/s", len(good)),
        "p50_ms": pct_metric(reads, 50),
        "p90_ms": pct_metric(reads, 90),
    }
    for op in READ_OPS:
        metrics[f"{op}_p50_ms"] = pct_metric([s for s in reads if s.op == op], 50)
    metrics["write_p50_ms"] = pct_metric(writes, 50)
    metrics["write_p90_ms"] = pct_metric(writes, 90)
    metrics["writer_lag_ms"] = (
        (_ms(statistics.fmean(s.start - s.due for s in writes)), "ms", len(writes))
        if writes else None
    )
    metrics["failed_share"] = (len(failed) / len(samples), "share", len(samples))
    metrics["peak_rss_mb"] = (phase.peak_rss_mb, "MB", len(phase.rss_by_server))
    return metrics


# ----------------------------------------------------------------------
# per-layer
# ----------------------------------------------------------------------
#: span name -> the per-layer metric its attributed (self) time feeds
SELF_TIME = {
    "client.request": "unattributed_s",
    "client.decode": "client.decode_s",
    "app.handle": "app.self_s",
    "admission.wait": "admission.wait_s",
    "app.encode": "app.encode_s",
    "service.execute": "service.materialize_s",
    "service.mutate": "service.mutate_s",
    "answer_cache": "answer_cache.self_s",
    "compile": "compile_s",
    "csr.build": "csr.build_s",
    "kernel.sweep": "kernel.sweep_s",
    "rpq.evaluate": "rpq.self_s",
    "paths.enumerate": "paths.enumerate_s",
    "crpq.evaluate": "crpq.self_s",
    "crpq.plan": "crpq.plan_s",
    "store.flush": "store.flush_s",
    "frontier.step": "frontier.step_s",
    "coordinator.evaluate": "coordinator.self_s",
    "coordinator.call": "coordinator.call_s",
}

#: per-layer metric -> unit, in the order they are printed
LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME.values()},
    "app.response_bytes": "B",
    "app.wire_s": "s",
    "service.execute_s": "s",
    "answer_cache.hit_ratio": "ratio",
    "answer_cache.lookups": "count",
    "answer_cache.entries": "count",
    "answer_cache.evictions": "count",
    "compile.hit_ratio": "ratio",
    "csr.builds": "count",
    "kernel.nodes_expanded": "count",
    "kernel.edges_relaxed": "count",
    "kernel.answers": "count",
    "paths.emitted": "count",
    "paths.per_s": "1/s",
    "store.flushes": "count",
    "store.records_per_flush": "count",
    "store.bytes_per_edit": "B",
    "coordinator.rounds_per_query": "count",
    "coordinator.wire_bytes_per_query": "B",
    "frontier.expanded": "count",
    "frontier.bounced": "count",
    "gc.pause_s": "s",
    "gc.gen2_collections": "count",
    "trace.wall_s": "s",
    "trace.requests": "count",
    "trace.overhead_ms": "ms",
}

ROOTS = ("client.request", "coordinator.evaluate")
MEASURED_OPS = READ_OPS + ("graphs.mutate",)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _delta(after: dict, before: dict, *path) -> float:
    def get(tree):
        for step in path:
            tree = tree.get(step, {}) if isinstance(tree, dict) else {}
        return tree if isinstance(tree, (int, float)) else 0

    return get(after) - get(before)


def per_layer(phase, untraced_p50_ms: float) -> dict:
    """Every per-layer metric: ``{name: (value, unit)}``."""
    spans = list(phase.client_spans)
    gc_events = []
    for trace in phase.server_traces:
        spans.extend(trace.get("spans", ()))
        gc_events.extend(trace.get("gc", ()))
    start, end = phase.window
    in_window = [s for s in spans if start <= s["start"] < end]

    def is_root(span):
        return (span["name"] in ROOTS and start <= span["start"] < end
                and span["attrs"].get("op", "rpq") in MEASURED_OPS)

    table = layer_table(spans, is_root)
    values = {name: 0.0 for name in LAYER_UNITS}
    for span_name, seconds in table["layers"].items():
        values[SELF_TIME[span_name]] += seconds

    def total(name):
        return sum(s["end"] - s["start"] for s in in_window if s["name"] == name)

    def attr_sum(name, attribute):
        return sum(s["attrs"].get(attribute, 0) or 0 for s in in_window if s["name"] == name)

    def count(name):
        return sum(1 for s in in_window if s["name"] == name)

    encodes = count("app.encode")
    values["app.response_bytes"] = _ratio(attr_sum("app.encode", "bytes"), encodes)
    values["service.execute_s"] = total("service.execute")
    values["app.wire_s"] = (total("client.request") - values["service.execute_s"]
                            - total("app.encode") - total("client.decode"))
    before, after = phase.stats_before, phase.stats_after
    hits = _delta(after, before, "answer_cache", "hits")
    misses = _delta(after, before, "answer_cache", "misses")
    values["answer_cache.lookups"] = hits + misses
    values["answer_cache.hit_ratio"] = _ratio(hits, hits + misses)
    values["answer_cache.entries"] = _delta(after, {}, "answer_cache", "size")
    values["answer_cache.evictions"] = _delta(after, before, "answer_cache", "evictions")
    compile_hits = _delta(after, before, "compile_cache", "hits")
    compile_misses = _delta(after, before, "compile_cache", "misses")
    values["compile.hit_ratio"] = _ratio(compile_hits, compile_hits + compile_misses)
    values["csr.builds"] = count("csr.build")
    for counter in ("nodes_expanded", "edges_relaxed", "answers"):
        values[f"kernel.{counter}"] = _delta(
            after, before, "metrics", "counters", f"engine_{counter}")
    values["paths.emitted"] = attr_sum("paths.enumerate", "emitted")
    values["paths.per_s"] = _ratio(values["paths.emitted"], total("paths.enumerate"))
    flushes = [s for s in in_window if s["name"] == "store.flush" and s["attrs"].get("records")]
    values["store.flushes"] = len(flushes)
    records = sum(s["attrs"]["records"] for s in flushes)
    values["store.records_per_flush"] = _ratio(records, len(flushes))
    values["store.bytes_per_edit"] = _ratio(phase.store_growth, records)
    queries = count("coordinator.evaluate")
    values["coordinator.rounds_per_query"] = _ratio(
        _delta(after, before, "coordinator", "rounds"), queries)
    values["coordinator.wire_bytes_per_query"] = _ratio(
        _delta(after, before, "coordinator", "wire_bytes"), queries)
    values["frontier.expanded"] = attr_sum("frontier.step", "expanded")
    values["frontier.bounced"] = attr_sum("frontier.step", "bounced")
    pauses = [(a, b, gen) for a, b, gen in gc_events if start <= a < end]
    values["gc.pause_s"] = sum(b - a for a, b, _ in pauses)
    values["gc.gen2_collections"] = sum(1 for *_, gen in pauses if gen == 2)
    values["trace.wall_s"] = table["wall_s"]
    values["trace.requests"] = table["roots"]
    traced_p50 = end_to_end(phase)["p50_ms"][0]
    values["trace.overhead_ms"] = traced_p50 - untraced_p50_ms
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}
