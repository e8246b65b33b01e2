"""Reference answers, computed with the library on the benchmark's own copy
of each graph, outside the timed window.

Answers are compared through digests: a hash of the answer as a set (rpq
pairs, CRPQ rows) or as a sequence (paths, whose order is the enumeration
order).  The load generator digests each reply right after timing it.
"""

from __future__ import annotations

from collections import defaultdict

from repro.crpq.evaluation import evaluate_crpq
from repro.graph.serialize import graph_from_dict
from repro.rpq.evaluation import evaluate_rpq
from repro.rpq.path_modes import matching_paths


def digest_rows(rows) -> tuple:
    """``(count, hash)`` of a set-valued answer given as rows of lists."""
    rows = frozenset(map(tuple, rows))
    return (len(rows), hash(rows))


def digest_pairs(pairs) -> tuple:
    """``(count, hash)`` of a set of tuples."""
    pairs = frozenset(pairs)
    return (len(pairs), hash(pairs))


def digest_paths(paths) -> tuple:
    return (len(paths), hash(tuple(map(tuple, paths))))


def digest_reply(op: str, result: dict) -> tuple:
    """The digest of one server reply, checking its ``count`` field."""
    rows = result["pairs" if op == "rpq" else "rows" if op == "crpq" else "paths"]
    digest = digest_paths(rows) if op == "paths" else digest_rows(rows)
    if result.get("count") != len(rows):
        return (-1, 0)  # a reply whose count disagrees with its rows is wrong
    return digest


class Reference:
    """Memoized library answers per ``(op, key)`` on one graph version."""

    def __init__(self, graphs: dict):
        self.graphs = graphs
        self._answers: dict = {}

    def digest(self, op: str, key: tuple) -> tuple:
        answer = self._answers.get((op, key))
        if answer is None:
            self.prefetch([(op, key)])
            answer = self._answers[(op, key)]
        return answer

    def prefetch(self, requests) -> None:
        """Compute every missing answer; source-bound rpq keys that share
        a regex are answered by one multi-source evaluation."""
        by_regex = defaultdict(set)
        for op, key in set(requests):
            if (op, key) in self._answers:
                continue
            graph = self.graphs[key[0]]
            if op == "rpq" and key[2] is not None:
                by_regex[(key[0], key[1])].add(key[2])
            elif op == "rpq":
                self._answers[(op, key)] = digest_pairs(evaluate_rpq(key[1], graph))
            elif op == "crpq":
                self._answers[(op, key)] = digest_pairs(evaluate_crpq(key[1], graph))
            else:
                _name, query, source, target, mode, limit = key
                paths = [list(path.objects) for path in matching_paths(
                    query, graph, source, target, mode=mode, limit=limit)]
                self._answers[(op, key)] = digest_paths(paths)
        for (name, regex), sources in by_regex.items():
            per_source = defaultdict(set)
            for pair in evaluate_rpq(regex, self.graphs[name], sources=sorted(sources)):
                per_source[pair[0]].add(pair)
            for source in sources:
                self._answers[("rpq", (name, regex, source))] = digest_pairs(
                    per_source[source])


def check_samples(samples, reference: Reference) -> int:
    """Mark each successful read sample right or wrong; returns # wrong."""
    reads = [s for s in samples if s.ok and s.digest is not None]
    reference.prefetch([(s.op, s.key) for s in reads])
    wrong = 0
    for sample in reads:
        sample.correct = sample.digest == reference.digest(sample.op, sample.key)
        wrong += not sample.correct
    return wrong


def apply_edit(graph, edit: dict) -> None:
    """Replay one ``graphs.mutate`` edit through the graph's public API."""
    if edit["kind"] == "add_node":
        graph.add_node(edit["id"])
    else:
        graph.add_edge(edit["id"], edit["src"], edit["tgt"], edit["label"])


def check_versioned(samples, document: dict, generation: int, acked_batches,
                    name: str = "g") -> tuple:
    """Check reads that raced with writes against the version each reports.

    ``acked_batches`` are the edit lists the server acknowledged, in order.
    The edits are replayed one at a time on a copy of the graph; a read is
    checked against the copy at exactly the version its reply carries.  A
    read whose version the replay never reaches counts as wrong.
    Returns ``(wrong, unverifiable)``.
    """
    graph = graph_from_dict(document)
    pending = defaultdict(list)
    for sample in samples:
        if sample.ok and sample.digest is not None:
            pending[tuple(sample.version)].append(sample)
    wrong = unverifiable = 0

    def check_at_current_version():
        nonlocal wrong
        batch = pending.pop((generation, graph.version), ())
        if not batch:
            return
        reference = Reference({name: graph})
        reference.prefetch([(s.op, s.key) for s in batch])
        for sample in batch:
            sample.correct = sample.digest == reference.digest(sample.op, sample.key)
            wrong += not sample.correct

    check_at_current_version()
    for edits in acked_batches:
        for edit in edits:
            apply_edit(graph, edit)
            check_at_current_version()
    for batch in pending.values():
        for sample in batch:
            sample.correct = False
            unverifiable += 1
    return wrong + unverifiable, unverifiable
