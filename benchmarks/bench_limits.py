"""Budget overhead benchmark: governance must be (nearly) free.

The resource-governance layer threads a ``QueryBudget`` through every hot
loop.  Its design contract (DESIGN.md §9): the *disabled* path — no budget
installed — costs one ``is not None`` comparison per iteration, and the
*enabled* path amortizes its clock reads behind a 256-tick stride.  This
benchmark measures both against the pre-governance baseline shape:

* ``unbudgeted``: ``evaluate_rpq`` with ``budget=None`` (the default every
  caller that sets no limits gets, via ``make_budget``);
* ``budgeted``: the same evaluation under a generous budget (a deadline and
  ceilings far beyond what the workload can reach, so every tick is paid
  but no limit ever trips).

Methodology: the two arms run *alternating* (so slow machine-wide drift
hits both equally), each arm's estimate is its minimum over many samples
(the classic noise-floor estimator for CPU-bound work), and the <5% gate
applies to the **aggregate across graph sizes** — per-size numbers are
recorded for the artifact but individually too noisy on shared runners to
gate.  ``REPRO_BENCH_SMOKE=1`` shrinks the workload and loosens the gate
to 25% to absorb CI-runner variance.  Results land in
``BENCH_limits.json`` via the ``limits_records`` fixture.
"""

import os
import time

import pytest

from repro.engine.limits import QueryBudget
from repro.graph.generators import random_graph
from repro.rpq.evaluation import evaluate_rpq

LABELS = tuple("abcdefgh")
QUERIES = ("a.(b+c)*.d", "(a+b)+", "a.b.c")
NUM_NODES = 150
#: evaluations per timed sample — large enough to swamp timer resolution
INNER = 5

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SIZES = (800,) if SMOKE else (800, 1600, 3200)
SAMPLES = 8 if SMOKE else 24
OVERHEAD_LIMIT = 0.25 if SMOKE else 0.05


def generous_budget() -> QueryBudget:
    """All limits on, none reachable: the full per-tick cost, no trips."""
    return QueryBudget(timeout=600.0, max_rows=10**9, max_states=10**12)


def _sample(graph, budget_factory) -> float:
    start = time.perf_counter()
    for _ in range(INNER):
        for query in QUERIES:
            evaluate_rpq(
                query,
                graph,
                budget=budget_factory() if budget_factory is not None else None,
            )
    return time.perf_counter() - start


def test_budget_overhead_under_gate(limits_records):
    per_size = []
    total_plain = 0.0
    total_budgeted = 0.0
    for num_edges in SIZES:
        graph = random_graph(NUM_NODES, num_edges, labels=LABELS, seed=11)
        # Warm the compile cache and CSR snapshot, and verify the budget
        # changes nothing but time before trusting the measurement.
        plain_answers = [evaluate_rpq(query, graph) for query in QUERIES]
        budgeted_answers = [
            evaluate_rpq(query, graph, budget=generous_budget())
            for query in QUERIES
        ]
        assert budgeted_answers == plain_answers

        best_plain = best_budgeted = float("inf")
        for _ in range(SAMPLES):
            best_plain = min(best_plain, _sample(graph, None))
            best_budgeted = min(best_budgeted, _sample(graph, generous_budget))
        total_plain += best_plain
        total_budgeted += best_budgeted
        per_size.append(
            {
                "num_edges": num_edges,
                "unbudgeted_s": round(best_plain, 6),
                "budgeted_s": round(best_budgeted, 6),
                "overhead_fraction": round(best_budgeted / best_plain - 1.0, 4),
            }
        )

    overhead = total_budgeted / total_plain - 1.0
    limits_records.append(
        {
            "benchmark": "budget_overhead",
            "num_nodes": NUM_NODES,
            "queries": list(QUERIES),
            "samples_per_arm": SAMPLES,
            "inner_iterations": INNER,
            "per_size": per_size,
            "unbudgeted_total_s": round(total_plain, 6),
            "budgeted_total_s": round(total_budgeted, 6),
            "overhead_fraction": round(overhead, 4),
            "gate": OVERHEAD_LIMIT,
            "smoke": SMOKE,
        }
    )
    assert overhead < OVERHEAD_LIMIT, (
        f"budget overhead {overhead:.1%} exceeds the {OVERHEAD_LIMIT:.0%} "
        f"gate (unbudgeted {total_plain:.4f}s vs budgeted "
        f"{total_budgeted:.4f}s)"
    )


def test_tick_fast_path_cost(limits_records):
    """Microbenchmark the tick itself: the budgeted loop's extra work is
    two integer ops plus a bound-method call — record the per-tick cost so
    regressions (say, an accidental clock read per tick) are visible."""
    budget = QueryBudget(timeout=600.0, max_states=10**12)
    ticks = 200_000 if SMOKE else 1_000_000
    tick = budget.tick
    start = time.perf_counter()
    for _ in range(ticks):
        tick()
    per_tick_ns = (time.perf_counter() - start) / ticks * 1e9
    limits_records.append(
        {
            "benchmark": "tick_cost",
            "ticks": ticks,
            "per_tick_ns": round(per_tick_ns, 1),
            "stride": budget.stride,
            "smoke": SMOKE,
        }
    )
    # Generous ceiling: even slow shared runners manage < 2 µs per tick.
    assert per_tick_ns < 2000
