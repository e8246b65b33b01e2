"""Workload telemetry: log-scale histograms and a metrics registry.

Where :mod:`repro.engine.tracing` answers "where did *this* query spend its
time?", this module answers the fleet question — "what does the latency
distribution of a 500-query workload look like, and how are the engine's
caches behaving across it?".  Two pieces:

* :class:`Histogram` — fixed **log-scale** buckets (powers of two from 1 µs
  to ~8 s by default, the range a Python product-BFS actually spans), with
  cumulative-bucket export in the Prometheus style so histograms from
  different workers can be merged by plain addition;
* :class:`MetricsRegistry` — named histograms plus monotone counters, with
  :meth:`~MetricsRegistry.fold_stats` folding an
  :class:`~repro.engine.stats.EngineStats` (CSR snapshot builds, cache
  hits/misses, BFS node/edge counters, phase timers) into the registry,
  Prometheus text exposition via :meth:`~MetricsRegistry.render_prometheus`
  and JSON export via :meth:`~MetricsRegistry.as_dict`.

The batch executor records one latency observation per executed work item
into ``query_latency_seconds`` and surfaces the merged histogram in its
:class:`~repro.engine.batch.BatchResult`; ``repro workload run`` prints the
distribution and can write the full exposition with ``--metrics-out``.
"""

from __future__ import annotations

from repro.engine.stats import EngineStats

#: Default latency buckets: powers of two, 1 microsecond .. ~8.4 seconds.
DEFAULT_LATENCY_BUCKETS: tuple = tuple(1e-6 * 2**i for i in range(24))


class Histogram:
    """A fixed-bucket log-scale histogram of non-negative observations.

    ``bounds`` are inclusive upper bucket bounds; observations above the last
    bound land in the implicit ``+Inf`` overflow bucket.  Counts are stored
    per bucket (not cumulative); the exports cumulate in the Prometheus
    convention, which makes merged histograms from thread or process workers
    exact — addition commutes with cumulation.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total")

    def __init__(self, bounds: "tuple | None" = None):
        self.bounds = tuple(bounds) if bounds is not None else DEFAULT_LATENCY_BUCKETS
        if any(b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation (clamped below at 0)."""
        value = max(value, 0.0)
        low, high = 0, len(self.bounds)
        while low < high:  # first bucket whose bound fits the value
            mid = (low + high) // 2
            if value <= self.bounds[mid]:
                high = mid
            else:
                low = mid + 1
        self.bucket_counts[low] += 1
        self.count += 1
        self.total += value

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram with identical bounds into this one."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for position, value in enumerate(other.bucket_counts):
            self.bucket_counts[position] += value
        self.count += other.count
        self.total += other.total
        return self

    def dump(self) -> dict:
        """The lossless wire form: raw per-bucket counts, full bounds.

        Unlike :meth:`as_dict` (cumulative, prefix/suffix-trimmed — a
        *view*), this round-trips through :meth:`load` exactly, which is
        what makes cross-process fleet merging exact: merged raw counts
        cumulate to the same totals as cumulating first and adding after
        (addition commutes with cumulation).
        """
        return {
            "bounds": list(self.bounds),
            "counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
        }

    @classmethod
    def load(cls, payload: dict) -> "Histogram":
        """Invert :meth:`dump` (raises ValueError on a malformed payload)."""
        if not isinstance(payload, dict):
            raise ValueError("histogram payload must be an object")
        bounds = payload.get("bounds")
        counts = payload.get("counts")
        if not isinstance(bounds, list) or not isinstance(counts, list):
            raise ValueError("histogram payload needs 'bounds' and 'counts' lists")
        if len(counts) != len(bounds) + 1:
            raise ValueError(
                f"histogram payload needs {len(bounds) + 1} counts "
                f"(one per bound plus overflow), got {len(counts)}"
            )
        histogram = cls(tuple(bounds))
        for position, value in enumerate(counts):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError("histogram counts must be non-negative integers")
            histogram.bucket_counts[position] = value
        observed = sum(counts)
        count = payload.get("count", observed)
        if count != observed:
            raise ValueError(
                f"histogram count {count} does not match bucket sum {observed}"
            )
        histogram.count = observed
        histogram.total = float(payload.get("sum", 0.0))
        return histogram

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The upper bound of the bucket holding the ``q``-quantile.

        A bucketed quantile is an upper bound, not an interpolation — good
        enough to tell a p50 from a p99 tail on a log scale.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for position, bucket in enumerate(self.bucket_counts):
            seen += bucket
            if seen >= rank and bucket:
                if position < len(self.bounds):
                    return self.bounds[position]
                return float("inf")
        return float("inf")

    def as_dict(self) -> dict:
        """Cumulative ``le -> count`` buckets plus count/sum/quantiles.

        The JSON view trims the empty prefix and the saturated suffix of the
        bucket list (the Prometheus exposition keeps every bucket — that
        format's convention).
        """
        entries = []
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            entries.append({"le": bound, "count": running})
        first = next(
            (i for i, entry in enumerate(entries) if entry["count"]), len(entries)
        )
        last = next(
            (i for i, entry in enumerate(entries) if entry["count"] == self.count),
            len(entries) - 1,
        )
        buckets = entries[first : last + 1]
        buckets.append({"le": "+Inf", "count": self.count})
        return {
            "count": self.count,
            "sum": round(self.total, 9),
            "mean": round(self.mean, 9),
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
            "buckets": buckets,
        }


class MetricsRegistry:
    """Named histograms + monotone counters with two export formats."""

    __slots__ = ("namespace", "counters", "histograms")

    def __init__(self, namespace: str = "repro"):
        self.namespace = namespace
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        """Increase counter ``name`` (counters are monotone, like Prometheus)."""
        if amount < 0:
            raise ValueError(f"counters are monotone; got {name}={amount}")
        self.counters[name] = self.counters.get(name, 0) + amount

    def histogram(self, name: str, bounds: "tuple | None" = None) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        found = self.histograms.get(name)
        if found is None:
            found = Histogram(bounds)
            self.histograms[name] = found
        return found

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def fold_stats(self, stats: EngineStats, prefix: str = "engine_") -> None:
        """Fold an ``EngineStats`` into the registry.

        Counters become ``<prefix><name>`` counters; phase timers become
        ``<prefix><phase>_seconds`` counters (total seconds spent, the
        Prometheus idiom for accumulated durations).
        """
        for name, value in stats.counters.items():
            self.inc(f"{prefix}{name}", value)
        for name, value in stats.timers.items():
            self.inc(f"{prefix}{name}_seconds", value)

    # ------------------------------------------------------------------
    # fleet aggregation
    # ------------------------------------------------------------------
    def dump(self) -> dict:
        """A lossless snapshot for cross-process aggregation.

        Counters ship verbatim; histograms ship their raw per-bucket
        counts (:meth:`Histogram.dump`), so :meth:`merge_dump` on the
        receiving side is an *exact* merge, not an approximation.
        """
        return {
            "namespace": self.namespace,
            "counters": dict(self.counters),
            "histograms": {
                name: histogram.dump()
                for name, histogram in self.histograms.items()
            },
        }

    def merge_dump(self, payload: dict) -> "MetricsRegistry":
        """Fold a :meth:`dump` payload (typically from another process) in.

        Counter values add; histogram bucket counts add position-wise
        (bounds must match any histogram already registered under the
        same name).  Raises ValueError on malformed payloads.
        """
        if not isinstance(payload, dict):
            raise ValueError("metrics payload must be an object")
        counters = payload.get("counters", {})
        if not isinstance(counters, dict):
            raise ValueError("metrics payload 'counters' must be an object")
        histograms = payload.get("histograms", {})
        if not isinstance(histograms, dict):
            raise ValueError("metrics payload 'histograms' must be an object")
        for name, value in counters.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"counter {name!r} must be numeric")
            self.inc(name, value)
        for name, entry in histograms.items():
            incoming = Histogram.load(entry)
            self.histogram(name, incoming.bounds).merge(incoming)
        return self

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "counters": {
                name: (round(value, 9) if isinstance(value, float) else value)
                for name, value in sorted(self.counters.items())
            },
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(self.histograms.items())
            },
        }

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (one sample per line)."""
        lines: list[str] = []
        for name in sorted(self.counters):
            metric = f"{self.namespace}_{name}"
            lines.append(f"# TYPE {metric} counter")
            value = self.counters[name]
            lines.append(f"{metric} {value:.9g}" if isinstance(value, float) else f"{metric} {value}")
        for name in sorted(self.histograms):
            metric = f"{self.namespace}_{name}"
            histogram = self.histograms[name]
            lines.append(f"# TYPE {metric} histogram")
            running = 0
            for bound, bucket in zip(histogram.bounds, histogram.bucket_counts):
                running += bucket
                lines.append(f'{metric}_bucket{{le="{bound:.9g}"}} {running}')
            lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
            lines.append(f"{metric}_sum {histogram.total:.9g}")
            lines.append(f"{metric}_count {histogram.count}")
        return "\n".join(lines) + "\n"
