"""The query-service benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each run starts real ``repro
serve`` processes from ``src/``, drives them from this one process, checks
every answer against the library, prints every metric by name and unit,
appends a run record to ``.perfbench/history.jsonl`` and ends with one JSON
result line.

``--trace 0`` measures the end-to-end metrics (set-up repeated
``SETUP_REPEATS`` times, median reported).  ``--trace 1`` runs the workload
for half of ``--seconds`` untraced and for the other half through
``traced_serve.py`` with span probes in every layer, and reports per-layer
self times, counts, the unattributed remainder and the tracing overhead
(traced p50 minus untraced p50).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import sys
import time

ROOT = os.getcwd()
SETUP_REPEATS = 5


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class Phase:
    """Everything one measured phase produced."""

    def __init__(self):
        self.setup_times: list[float] = []
        self.samples: list = []
        self.warmup: list = []
        self.window = (0.0, 0.0)
        self.rss_by_server: list[float] = []
        self.stats_before: dict = {}
        self.stats_after: dict = {}
        self.client_spans: list = []
        self.server_traces: list = []
        self.store_growth = 0
        self.wrong = 0
        self.unverifiable = 0

    @property
    def peak_rss_mb(self) -> float:
        return sum(self.rss_by_server)


def _merge_stats(snapshots) -> dict:
    """Sum the servers' ``stats`` replies field by field."""
    merged = {"answer_cache": {}, "compile_cache": {}, "metrics": {"counters": {}}}
    for snapshot in snapshots:
        for section in ("answer_cache", "compile_cache"):
            for name, value in snapshot.get(section, {}).items():
                if isinstance(value, (int, float)):
                    merged[section][name] = merged[section].get(name, 0) + value
        for name, value in snapshot.get("metrics", {}).get("counters", {}).items():
            counters = merged["metrics"]["counters"]
            counters[name] = counters.get(name, 0) + value
    return merged


def _dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Deployment:
    """A running system: its servers, one control connection per server
    (for ``stats``), and one ``call`` per load-generating client."""

    def __init__(self, servers, call, controls, connections=(), coordinator=None,
                 data_dir=None):
        self.servers = servers
        self.call = call
        self.controls = controls
        self.connections = list(connections)
        self.coordinator = coordinator
        self.data_dir = data_dir
        self.writer = None

    def stats(self) -> dict:
        merged = _merge_stats(control.stats() for control in self.controls)
        if self.coordinator is not None:
            counters = self.coordinator.metrics.counters
            merged["coordinator"] = {
                "rounds": self.coordinator.rounds_total,
                "wire_bytes": counters.get("coordinator_wire_bytes_sent", 0)
                + counters.get("coordinator_wire_bytes_received", 0),
            }
        return merged

    def stop(self) -> list:
        for connection in self.controls + self.connections:
            connection.close()
        if self.writer is not None:
            self.writer.close()
        if self.coordinator is not None:
            self.coordinator.close()
        return [server.stop() for server in self.servers]


class Workload:
    """A served graph set, a probe request and per-client request streams."""

    name = ""
    clients = 1
    data_dir = False
    warmup = 0

    def __init__(self, seed: int):
        self.seed = seed

    def probe(self):
        return ("rpq", ("g", "l0 l1", "v0"))

    def deploy(self, workdir: str, tag: str, traced: bool) -> Deployment:
        """Start the system and return once its first answer is correct."""
        from perfbench.loadgen import server_call
        from perfbench.system import start_servers
        from repro.server.client import ServerClient

        data_dir = os.path.join(workdir, f"{tag}-data") if self.data_dir else None
        args = ("--data-dir", data_dir) if data_dir else ()
        servers = start_servers(ROOT, workdir, tag, 1, traced=traced,
                                extra_args=lambda index: args)
        try:
            control = ServerClient(*servers[0].address)
            for name, document in self.documents.items():
                info = control.upload_graph(name, document)
                self.generation = info["version"][0]
            readers = [ServerClient(*servers[0].address) for _ in range(self.clients)]
            deployment = Deployment(servers, [server_call(r) for r in readers],
                                    [control], readers, data_dir=data_dir)
            self._first_answer(server_call(control))
        except BaseException:
            for server in servers:
                server.stop()
            raise
        return deployment

    def _first_answer(self, call) -> None:
        op, key = self.probe()
        digest = call(op, key)()[0]
        if digest != self.reference.digest(op, key):
            raise RuntimeError(f"first answer of {self.name} is wrong")

    def prepare_reference(self) -> None:
        """Reference answers the set-up probe needs, computed before timing."""
        self.reference.prefetch([self.probe()])

    def drive(self, deployment: Deployment, seconds: float, phase: Phase) -> None:
        from perfbench.loadgen import closed_loop, run_threads

        streams = self.streams()
        if self.warmup:
            share = self.warmup // len(streams)
            warm = [[] for _ in streams]
            run_threads([(closed_loop, (call, itertools.islice(stream, share), math.inf, out))
                         for call, stream, out in zip(deployment.call, streams, warm)])
            phase.warmup = [s for samples in warm for s in samples]
        start = time.perf_counter()
        deadline = start + seconds
        per_client = [[] for _ in deployment.call]
        targets = [(closed_loop, (call, stream, deadline, samples))
                   for call, stream, samples in zip(deployment.call, streams, per_client)]
        end = run_threads(targets)
        phase.window = (start, end)
        phase.samples = [s for samples in per_client for s in samples]

    def check(self, phase: Phase) -> None:
        from perfbench.check import check_samples

        phase.wrong = check_samples(phase.warmup + phase.samples, self.reference)


class LargeAnswer(Workload):
    """One client, unbound ``a (b+c)* d`` with a fresh label combination
    per request: the answer cache never hits and every answer is large."""

    name = "large_answer"

    def __init__(self, seed: int):
        from perfbench.check import Reference
        from perfbench.workloads import (
            LARGE_GRAPH,
            LARGE_LABELS,
            large_answer_keys,
            main_graph,
        )
        from repro.graph.serialize import graph_to_dict

        super().__init__(seed)
        graph = main_graph(seed, LARGE_GRAPH, LARGE_LABELS)
        self.documents = {"g": graph_to_dict(graph)}
        self.reference = Reference({"g": graph})
        self.keys = large_answer_keys(seed)

    def streams(self):
        return [iter(self.keys)]


class PointMix(Workload):
    """Two clients, Zipf-skewed point lookups: source-bound rpq, small CRPQ
    joins and path enumeration on a DAG."""

    name = "point_mix"
    clients = 2
    with_paths = True

    def __init__(self, seed: int):
        from perfbench.check import Reference
        from perfbench.workloads import MIX_GRAPH, MixSpace, dag_graph, main_graph
        from repro.graph.serialize import graph_to_dict

        super().__init__(seed)
        graphs = {"g": main_graph(seed, MIX_GRAPH)}
        if self.with_paths:
            graphs["dag"] = dag_graph()
        self.documents = {name: graph_to_dict(g) for name, g in graphs.items()}
        self.reference = Reference(graphs)
        self.space = MixSpace(seed, with_paths=self.with_paths)
        # Every write empties the answer cache, so a workload with writes
        # has no steady state to warm up to.
        self.warmup = 0 if self.data_dir else MixSpace.WARMUP

    def streams(self):
        return [self.space.stream(client) for client in range(self.clients)]


class ReadWrite(PointMix):
    """One reader on point_mix's rpq/crpq mix beside one paced writer
    sending small ``graphs.mutate`` batches to a durable server."""

    name = "read_write"
    clients = 1
    with_paths = False
    data_dir = True

    def deploy(self, workdir: str, tag: str, traced: bool) -> Deployment:
        from repro.server.client import ServerClient

        deployment = super().deploy(workdir, tag, traced)
        deployment.writer = ServerClient(*deployment.servers[0].address)
        return deployment

    def drive(self, deployment: Deployment, seconds: float, phase: Phase) -> None:
        from perfbench.loadgen import closed_loop, paced_writer, run_threads
        from perfbench.workloads import WRITE_RATE, write_batches

        reads, writes = [], []
        self.acked = []
        size_before = _dir_bytes(deployment.data_dir)
        start = time.perf_counter()
        deadline = start + seconds
        end = run_threads([
            (closed_loop, (deployment.call[0], self.streams()[0], deadline, reads)),
            (paced_writer, (deployment.writer, "g", write_batches(self.seed), WRITE_RATE,
                            start, deadline, writes, self.acked)),
        ])
        phase.window = (start, end)
        phase.samples = reads + writes
        phase.store_growth = _dir_bytes(deployment.data_dir) - size_before

    def check(self, phase: Phase) -> None:
        from perfbench.check import check_versioned

        reads = [s for s in phase.samples if s.op != "graphs.mutate"]
        phase.wrong, phase.unverifiable = check_versioned(
            reads, self.documents["g"], self.generation, self.acked)


class Partitioned(Workload):
    """One client driving a ShardCoordinator over two ``repro serve``
    workers holding a hash-partitioned graph; every query is distinct."""

    name = "partitioned"
    shards = 2

    def __init__(self, seed: int):
        from perfbench.check import Reference
        from perfbench.workloads import MIX_GRAPH, main_graph, partitioned_keys

        super().__init__(seed)
        self.graph = main_graph(seed, MIX_GRAPH)
        self.reference = Reference({"g": self.graph})
        self.keys = partitioned_keys(seed)

    def streams(self):
        return [iter(self.keys)]

    def deploy(self, workdir: str, tag: str, traced: bool) -> Deployment:
        from perfbench.loadgen import coordinator_call
        from perfbench.system import start_servers
        from repro.distributed.coordinator import ShardCoordinator
        from repro.server.client import ServerClient

        servers = start_servers(ROOT, workdir, tag, self.shards, traced=traced)
        try:
            coordinator = ShardCoordinator([server.address for server in servers])
            coordinator.partition_graph("g", self.graph, strategy="hash")
            controls = [ServerClient(*server.address) for server in servers]
            deployment = Deployment(servers, [coordinator_call(coordinator)], controls,
                                    coordinator=coordinator)
            self._first_answer(coordinator_call(coordinator))
        except BaseException:
            for server in servers:
                server.stop()
            raise
        return deployment


WORKLOADS = {cls.name: cls for cls in (LargeAnswer, PointMix, ReadWrite, Partitioned)}


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def measure(workload: Workload, workdir: str, seconds: float, *, traced: bool,
            setups: int) -> Phase:
    """Set the system up ``setups`` times (keeping the last), drive it for
    ``seconds``, stop it and check every answer."""
    phase = Phase()
    workload.prepare_reference()
    recorder = None
    if traced:
        from perfbench.probes import install_client_probes
        from perfbench.spans import Recorder

        recorder = Recorder()
        install_client_probes(recorder)
    tag = "traced" if traced else "plain"
    deployment = None
    for attempt in range(setups):
        if deployment is not None:
            deployment.stop()
        started = time.perf_counter()
        deployment = workload.deploy(workdir, f"{tag}{attempt}", traced)
        phase.setup_times.append(time.perf_counter() - started)
    try:
        if traced:
            phase.stats_before = deployment.stats()
        workload.drive(deployment, seconds, phase)
        if traced:
            phase.stats_after = deployment.stats()
        phase.rss_by_server = [server.peak_rss_mb() for server in deployment.servers]
    finally:
        phase.server_traces = deployment.stop()
    if recorder is not None:
        phase.client_spans = recorder.spans
    workload.check(phase)
    return phase


def _git_commit() -> str:
    import hashlib
    import subprocess

    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0:
            clean = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"],
                                   cwd=ROOT, timeout=10).returncode == 0
            return head.stdout.strip() + ("" if clean else "-dirty")
    except OSError:
        pass
    # Not a git checkout: identify the code by a hash of the source tree.
    digest = hashlib.sha256()
    for folder, _dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def _configured_seconds() -> "float | None":
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            return float(json.load(handle)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return None


def _record(args, metrics: dict, result: dict) -> None:
    """Append one run record; records are never rewritten."""
    configured = _configured_seconds()
    record = {
        "commit": _git_commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "smoke": configured is None or args.seconds < configured,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "metrics": metrics,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "history.jsonl"), "a", encoding="utf-8") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")


def _benchmark_names(section: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [metric["name"] for metric in json.load(handle)[section]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        return _fail("no src/repro here: run from the root of a repro source checkout")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        return _fail("no BENCHMARK.json here: run from the root of the checkout")
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import report

    workload = WORKLOADS[args.workload](args.seed)
    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # A traced run splits its time between the two phases, so that it takes
    # no longer than an untraced run.
    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        plain = measure(workload, workdir, seconds, traced=False,
                        setups=1 if args.trace else SETUP_REPEATS)
        phases = [plain]
        e2e = report.end_to_end(plain)
        if args.trace:
            traced = measure(workload, workdir, seconds, traced=True, setups=1)
            phases.append(traced)
            layers = report.per_layer(traced, e2e["p50_ms"][0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"(untraced; latency sample counts in brackets)")
    for name, metric in e2e.items():
        if metric is None:
            print(f"{name:>24} n/a")
        else:
            value, unit, count = metric
            print(f"{name:>24} {value:14.4f} {unit:<6} [{count}]")
    if e2e["p90_ms"][2] < 10 * report.TAIL_SAMPLES:
        print(f"# warning: p90_ms has fewer than {report.TAIL_SAMPLES} samples beyond it")
    if args.trace:
        print("# per-layer (traced run; *_s are attributed self seconds)")
        for name, (value, unit) in layers.items():
            print(f"{name:>34} {value:16.6f} {unit}")
        covered = sum(value for name, (value, _u) in layers.items()
                      if name in report.SELF_TIME.values())
        print(f"# layers + unattributed = {covered:.6f} s; traced wall = "
              f"{layers['trace.wall_s'][0]:.6f} s")

    breakdown = {}
    for phase in phases:
        for sample in phase.warmup + phase.samples:
            if not sample.ok:
                breakdown[f"{sample.op}:{sample.code}"] = breakdown.get(f"{sample.op}:{sample.code}", 0) + 1
            elif sample.correct is False:
                breakdown[f"{sample.op}:wrong"] = breakdown.get(f"{sample.op}:wrong", 0) + 1
    print(f"# failures by op and kind: {json.dumps(breakdown, sort_keys=True)}; "
          f"unverifiable versions: {sum(p.unverifiable for p in phases)}")
    attempted = sum(len(phase.warmup) + len(phase.samples) for phase in phases)
    wrong = sum(phase.wrong for phase in phases)
    failed = sum(1 for phase in phases for s in phase.warmup + phase.samples
                 if not (s.ok and s.correct is not False))
    if args.trace:
        names, values = _benchmark_names("per_layer"), layers
        metrics = {name: {"value": values[name][0], "unit": values[name][1]} for name in names}
    else:
        names = _benchmark_names("end_to_end")
        metrics = {name: {"value": e2e[name][0], "unit": e2e[name][1]} for name in names}
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    _record(args, {name: list(m) if m else None for name, m in e2e.items()}
            | ({name: list(v) for name, v in layers.items()} if args.trace else {}), result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
