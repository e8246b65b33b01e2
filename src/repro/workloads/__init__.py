"""Workload generators for benchmarks and experiments.

Graph families live in :mod:`repro.graph.generators` (re-exported here for
convenience); :mod:`~repro.workloads.querylog` synthesizes RPQ workloads
whose *shape distribution* follows the published analyses of real SPARQL
query logs — the stand-in for the 150M-query corpus of [62] that the paper
cites in Section 6.2 (see DESIGN.md, "Substitutions").
"""

from repro.graph.generators import (
    clique,
    dated_path,
    diamond_chain,
    label_cycle,
    label_path,
    parallel_chain,
    random_graph,
    random_transfer_network,
    self_loop_graph,
    subset_sum_graph,
)
from repro.workloads.querylog import (
    SHAPE_DISTRIBUTION,
    analyze_query_log,
    generate_query_log,
)
from repro.workloads.runner import WorkloadReport, run_query_log

__all__ = [
    "WorkloadReport",
    "run_query_log",
    "label_path",
    "label_cycle",
    "clique",
    "diamond_chain",
    "parallel_chain",
    "dated_path",
    "subset_sum_graph",
    "self_loop_graph",
    "random_graph",
    "random_transfer_network",
    "generate_query_log",
    "analyze_query_log",
    "SHAPE_DISTRIBUTION",
]
