"""Deterministic fault injection: named sites, armed on demand.

Chaos testing a query engine means proving that the *unhappy* paths — a
worker crashing mid-BFS, a cache write failing, a client connection torn
mid-response — degrade to typed errors with no leaked slots, no stale
cache entries and no hung drain.  Those paths are unreachable from normal
inputs, so the engine plants **fault sites**: named no-op hooks in the
kernel, the compilation cache, the batch pool and the server's read/write
paths.  A test *arms* a site with a behaviour (raise, delay, or drop) and
the next N passages through it fire deterministically.

Determinism rules:

* a site armed with ``times=N`` fires on exactly its next N passages —
  no probability involved;
* a site armed with ``probability=p`` draws from the injector's own seeded
  ``random.Random`` — the firing pattern is a pure function of the seed
  and the passage order;
* everything is process-local and reset between tests via :func:`reset`.

The disabled fast path is one module-global ``bool`` check, so production
code pays nothing for carrying the sites (the ``REPRO_FAULTS=1``
environment variable — set by the CI chaos job — merely pre-enables the
registry; tests enable it programmatically via the same API).
"""

from __future__ import annotations

import os
import random
import threading
import time

from repro.errors import ReproError

#: The catalog of sites the engine plants (arming an unknown site is an
#: error — it would silently never fire).  See DESIGN.md §9 for the map.
SITES = frozenset(
    {
        "kernel.evaluate",      # entry of every kernel product BFS / sweep
        "kernel.step",          # per product-pair expansion (both kernel loops)
        "cache.compile",        # compilation-cache fill path
        "batch.worker",         # start of each batch pool work item
        "service.execute",      # worker-pool entry of a server request
        "service.cache_put",    # answer-cache insertion on clean completion
        "server.read",          # server's per-line read loop
        "server.write",         # server's response write path
        "client.read",          # client's response read path
        "shard.frontier_step",  # shard-side entry of a distributed BFS round
        "shard.crash",          # coordinator-side send to a shard (simulated death)
        "fleet.probe",          # fleet supervisor's per-shard heartbeat probe
        "storage.journal_write",  # GraphStore flush, before the journal commit
    }
)


class FaultError(ReproError):
    """The error an armed ``raise`` site throws (typed, so tests can tell
    injected failures from genuine bugs)."""

    def __init__(self, site: str):
        super().__init__(f"injected fault at site {site!r}")
        self.site = site


class _Arming:
    __slots__ = ("error", "delay", "drop", "times", "probability", "fired")

    def __init__(self, error, delay, drop, times, probability):
        self.error = error
        self.delay = delay
        self.drop = drop
        self.times = times
        self.probability = probability
        self.fired = 0


class FaultInjector:
    """A registry of armed fault sites (one process-wide instance below)."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)
        self._armed: dict[str, _Arming] = {}
        self._lock = threading.Lock()
        self.enabled = bool(os.environ.get("REPRO_FAULTS"))
        #: site -> passages observed while enabled (armed or not); chaos
        #: tests assert coverage ("the drain really crossed server.write").
        self.passages: dict[str, int] = {}

    # ------------------------------------------------------------------
    # control plane (tests)
    # ------------------------------------------------------------------
    def arm(
        self,
        site: str,
        *,
        error: "BaseException | type | None" = None,
        delay: "float | None" = None,
        drop: bool = False,
        times: int = 1,
        probability: float = 1.0,
    ) -> None:
        """Arm ``site`` to misbehave on its next ``times`` passages.

        ``error`` (an exception instance/class, default :class:`FaultError`)
        is raised at the site; ``delay`` sleeps first (both may combine);
        ``drop`` marks connection-oriented sites to sever the transport
        instead of raising (the server interprets it).  ``probability``
        below 1.0 draws from the injector's seeded RNG.
        """
        if site not in SITES:
            raise ValueError(f"unknown fault site {site!r}; known: {sorted(SITES)}")
        if times < 1:
            raise ValueError("times must be >= 1")
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        with self._lock:
            self._armed[site] = _Arming(error, delay, drop, times, probability)
            self.enabled = True

    def disarm(self, site: str) -> None:
        with self._lock:
            self._armed.pop(site, None)

    def reset(self, *, seed: "int | None" = None) -> None:
        """Disarm everything and re-seed (each chaos test starts here)."""
        with self._lock:
            self._armed.clear()
            self.passages.clear()
            if seed is not None:
                self.seed = seed
            self._rng = random.Random(self.seed)
            self.enabled = bool(os.environ.get("REPRO_FAULTS"))

    def armed_sites(self) -> list[str]:
        with self._lock:
            return sorted(self._armed)

    # ------------------------------------------------------------------
    # data plane (fault sites)
    # ------------------------------------------------------------------
    def fire(self, site: str) -> bool:
        """Called by the planted sites.  Returns ``True`` when the armed
        behaviour is ``drop`` (the caller severs its transport); raises the
        armed error otherwise; no-op when the site is not armed."""
        # Fast path: one attribute read when the registry is dormant.
        if not self.enabled:
            return False
        with self._lock:
            self.passages[site] = self.passages.get(site, 0) + 1
            arming = self._armed.get(site)
            if arming is None:
                return False
            if arming.probability < 1.0 and self._rng.random() >= arming.probability:
                return False
            arming.fired += 1
            if arming.fired >= arming.times:
                del self._armed[site]
            delay, drop, error = arming.delay, arming.drop, arming.error
        if delay:
            time.sleep(delay)
        if drop:
            return True
        if error is None:
            raise FaultError(site)
        if isinstance(error, type):
            raise error(f"injected fault at site {site!r}")
        raise error


#: The process-wide injector every planted site consults.
FAULTS = FaultInjector()


def fault_point(site: str) -> bool:
    """The hook production code plants: ``if fault_point("x"): <sever>``.

    Costs one global read and one attribute read when the registry is
    dormant (the common case — benchmarked alongside the budget overhead).
    """
    if not FAULTS.enabled:
        return False
    return FAULTS.fire(site)
