"""Engine observability: counters and phase timers.

Every evaluator that goes through the execution kernel can be handed an
:class:`EngineStats`; it accumulates

* **counters** — monotonically increasing integers (product nodes expanded,
  product edges relaxed, compilation cache hits/misses, CSR snapshot
  builds and reuses, answers produced), and
* **timers** — wall-clock seconds per named phase (``compile``, ``bfs``,
  ``product``, ``join``, ``match``), measured with ``perf_counter``.

The object is deliberately dumb — a dict of ints and a dict of floats — so
that threading it through hot loops costs nothing when absent (evaluators
accumulate local ints and flush once at the end) and almost nothing when
present.  The CLI renders it via :meth:`render` under ``--stats``; the
benchmark suite serializes :meth:`as_dict` into ``BENCH_engine.json``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: Counter names used by the kernel (not exhaustive: callers may add more).
KNOWN_COUNTERS = (
    "nodes_expanded",
    "edges_relaxed",
    "cache_hits",
    "cache_misses",
    "parse_hits",
    "parse_misses",
    "csr_builds",
    "csr_reuses",
    "edges_scanned",
    "sweep_sources",
    "batch_queries",
    "batch_unique_queries",
    "answers",
)


class EngineStats:
    """Counters and per-phase wall-clock timers for one or more query runs.

    Counters only ever increase (tested by ``tests/engine/test_stats.py``);
    re-using one ``EngineStats`` across several queries therefore yields
    totals, which is what the CLI and the benchmarks want.
    """

    __slots__ = ("counters", "timers")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.timers: dict[str, float] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        """Increase counter ``name`` by ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counters are monotone; got {name}={amount}")
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def phase(self, name: str):
        """Context manager accumulating wall time into timer ``name``."""
        started = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - started
            self.timers[name] = self.timers.get(name, 0.0) + elapsed

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate already-measured seconds into timer ``name``."""
        if seconds < 0:
            raise ValueError(f"timers are monotone; got {name}={seconds}")
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Fold another stats object into this one (for fan-out evaluation)."""
        for name, value in other.counters.items():
            self.count(name, value)
        for name, value in other.timers.items():
            self.add_time(name, value)
        return self

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def get(self, name: str) -> int:
        """The current value of a counter (0 if never incremented)."""
        return self.counters.get(name, 0)

    def derived(self) -> dict:
        """Ratios and rates computed from the raw counters and timers.

        Included in :meth:`as_dict` (and therefore in ``repro profile
        --json`` and the benchmark JSON files); keys appear only when their
        inputs were recorded, so empty stats derive an empty dict.
        """
        out: dict = {}
        hits = self.counters.get("cache_hits", 0)
        misses = self.counters.get("cache_misses", 0)
        if hits + misses:
            out["cache_hit_rate"] = round(hits / (hits + misses), 6)
        parse_hits = self.counters.get("parse_hits", 0)
        parse_misses = self.counters.get("parse_misses", 0)
        if parse_hits + parse_misses:
            out["parse_hit_rate"] = round(
                parse_hits / (parse_hits + parse_misses), 6
            )
        answers = self.counters.get("answers", 0)
        bfs_seconds = self.timers.get("bfs", 0.0)
        if answers and bfs_seconds > 0:
            out["answers_per_second"] = round(answers / bfs_seconds, 2)
        return out

    def as_dict(self) -> dict:
        """A JSON snapshot: ``{"counters": ..., "timers": ..., "derived": ...}``."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "timers": {name: round(value, 6) for name, value in sorted(self.timers.items())},
            "derived": self.derived(),
        }

    def render(self) -> str:
        """Human-readable multi-line report (what ``--stats`` prints)."""
        lines = ["engine stats:", "  counters:"]
        if self.counters:
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                lines.append(f"    {name:<{width}}  {self.counters[name]}")
        else:
            lines.append("    (no counters recorded)")
        lines.append("  timers:")
        if self.timers:
            width = max(len(name) for name in self.timers)
            for name in sorted(self.timers):
                lines.append(f"    {name:<{width}}  {self.timers[name] * 1000:.3f} ms")
        else:
            lines.append("    (no timers recorded)")
        for name, value in sorted(self.derived().items()):
            lines.append(f"  {name}: {value}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EngineStats counters={self.counters!r}>"
