"""Shared-state concurrency tests: the engine under a worker pool.

The query service executes requests on a thread pool against process-wide
state — the compile cache, the per-graph CSR snapshot, the kernel.  These
tests hammer that state from many threads and assert (a) no exceptions or
corruption and (b) answers identical to single-threaded evaluation.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.engine.batch import BatchExecutor
from repro.engine.cache import CompilationCache
from repro.engine.csr import get_csr
from repro.engine.kernel import compile_query, evaluate
from repro.graph.datasets import figure2_graph

QUERIES = [
    "Transfer",
    "Transfer*",
    "Transfer+",
    "owner",
    "Transfer Transfer",
    "(Transfer | owner)*",
    "isBlocked",
    "type",
]


class TestCompilationCacheThreadSafety:
    def test_concurrent_compiles_tiny_cache(self):
        """A maxsize-2 cache forces constant eviction: the historic
        ``move_to_end`` vs ``popitem`` race corrupts an unlocked
        OrderedDict.  64 threads x 8 queries must neither raise nor
        miscount."""
        graph = figure2_graph()
        cache = CompilationCache(maxsize=2)
        errors = []

        def worker(seed):
            try:
                for offset in range(len(QUERIES)):
                    query = QUERIES[(seed + offset) % len(QUERIES)]
                    compiled = cache.compile(query, graph.labels)
                    assert compiled.nfa is not None
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(64)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        info = cache.info()
        assert info["size"] <= 2
        assert info["hits"] + info["misses"] == 64 * len(QUERIES)

    def test_concurrent_results_match_sequential(self):
        graph = figure2_graph()
        cache = CompilationCache()
        expected = {
            query: evaluate(compile_query(query, graph, cache=cache), graph)
            for query in QUERIES
        }

        def worker(query):
            compiled = compile_query(query, graph, cache=cache)
            return query, evaluate(compiled, graph)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, QUERIES * 8))
        for query, pairs in results:
            assert pairs == expected[query]


class TestIndexThreadSafety:
    def test_concurrent_index_access_single_version(self):
        """Many threads asking for the CSR snapshot of an unmutated graph
        all see the same version with the full edge set."""
        graph = figure2_graph()
        seen = []
        lock = threading.Lock()

        def worker():
            csr = get_csr(graph)
            with lock:
                seen.append((
                    csr.version,
                    csr.num_edges,
                    sum(len(edges) for edges in csr.edge_rows),
                    frozenset(csr.label_stats[0]),
                ))

        with ThreadPoolExecutor(max_workers=16) as pool:
            futures = [pool.submit(worker) for _ in range(32)]
            for future in futures:
                future.result()
        assert len(set(seen)) == 1
        version, num_edges, edge_ids, labels = seen[0]
        assert version == graph.version
        assert num_edges == edge_ids == graph.num_edges
        assert labels == graph.labels


class TestBatchExecutorConcurrency:
    def test_thread_pool_matches_inline(self):
        graph = figure2_graph()
        workload = QUERIES * 5
        inline = BatchExecutor(jobs=1).run(graph, workload)
        pooled = BatchExecutor(jobs=8).run(graph, workload)
        assert pooled.results == inline.results
        assert pooled.num_queries == len(workload)
        assert not pooled.interrupted

    def test_two_executors_share_default_cache(self):
        """Two pools running simultaneously against the process-wide cache
        must not corrupt it or each other's answers."""
        graph = figure2_graph()
        expected = BatchExecutor(jobs=1, cache=CompilationCache()).run(
            graph, QUERIES
        )
        outcomes = {}

        def run_batch(tag):
            result = BatchExecutor(jobs=4).run(graph, QUERIES * 3)
            outcomes[tag] = result.results[: len(QUERIES)]

        threads = [
            threading.Thread(target=run_batch, args=(tag,)) for tag in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes["a"] == expected.results
        assert outcomes["b"] == expected.results
