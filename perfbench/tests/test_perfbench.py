"""Tests of the benchmark's own machinery (not of the program).

    PYTHONPATH=src:. python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import check, report, spans, workloads
from repro.graph.serialize import graph_to_dict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ----------------------------------------------------------------------
# seeded generation
# ----------------------------------------------------------------------
def _schedule(seed: int) -> dict:
    space = workloads.MixSpace(seed, with_paths=True)
    return {
        "large": workloads.large_answer_keys(seed),
        "mix": [list(itertools.islice(space.stream(client), 300)) for client in (0, 1)],
        "partitioned": workloads.partitioned_keys(seed),
        "writes": list(itertools.islice(workloads.write_batches(seed), 50)),
        "graph": graph_to_dict(workloads.main_graph(seed, workloads.MIX_GRAPH)),
    }


def test_one_seed_yields_an_identical_request_schedule():
    assert _schedule(7) == _schedule(7)


def test_another_seed_yields_another_schedule():
    first, second = _schedule(7), _schedule(8)
    for part in first:
        assert first[part] != second[part], part


def test_large_answer_keys_never_repeat():
    keys = workloads.large_answer_keys(3)
    assert len(keys) == len(set(keys))


def test_partitioned_keys_never_repeat():
    keys = workloads.partitioned_keys(3)
    assert len(keys) == len(set(keys))


def test_mix_key_space_exceeds_the_answer_cache_several_times():
    space = workloads.MixSpace(3, with_paths=True)
    assert space.size >= 3 * workloads.SERVER_ANSWER_CACHE


# ----------------------------------------------------------------------
# spans and attribution
# ----------------------------------------------------------------------
def _span(name, start, end, sid, parent=None, link=None, key=None):
    return {"name": name, "start": start, "end": end, "sid": sid, "parent": parent,
            "link": link, "key": key, "attrs": {}}


def test_self_time_is_duration_minus_union_of_children():
    parent = _span("p", 0.0, 10.0, "a")
    children = [_span("c", 1.0, 4.0, "b"), _span("c", 3.0, 5.0, "c"),
                _span("c", 7.0, 12.0, "d")]  # overlapping, and one past the end
    # union of [1,5] and [7,10] covers 7 of the 10 seconds
    assert spans.self_time(parent, children) == pytest.approx(3.0)


def test_attribution_equals_self_time_on_a_sequential_tree():
    tree = [
        _span("root", 0.0, 10.0, "r", key="req-1"),
        _span("decode", 8.0, 9.5, "d", parent="r"),
        _span("server", 1.0, 7.0, "s", link="req-1"),  # another process
        _span("kernel", 2.0, 5.0, "k", parent="s"),
        _span("csr", 2.5, 3.0, "c", parent="k"),
    ]
    roots, children = spans.build_trees(tree)
    assert [r["sid"] for r in roots] == ["r"]
    shares = spans.attribute(roots[0], children)
    for span in tree:
        assert shares[span["name"]] == pytest.approx(
            spans.self_time(span, children.get(span["sid"], ())))
    assert sum(shares.values()) == pytest.approx(10.0)


def test_parallel_children_split_overlap_and_sum_to_wall():
    tree = [
        _span("root", 0.0, 10.0, "r", key="q"),
        _span("call", 2.0, 8.0, "a", link="q"),
        _span("call", 4.0, 6.0, "b", link="q"),
    ]
    roots, children = spans.build_trees(tree)
    shares = spans.attribute(roots[0], children)
    assert shares["root"] == pytest.approx(
        spans.self_time(tree[0], children["r"]))  # 10 - union(2..8) = 4
    assert shares["call"] == pytest.approx(6.0)
    assert sum(shares.values()) == pytest.approx(10.0)


def test_recorder_nests_on_one_thread_and_links_across():
    recorder = spans.Recorder("t")
    with recorder.span("outer", key="k1"):
        with recorder.span("inner", link="ignored-because-nested"):
            pass
    with recorder.span("remote", link="k1"):
        pass
    table = spans.layer_table(recorder.spans, lambda span: span["name"] == "outer")
    assert table["roots"] == 1
    assert set(table["layers"]) == {"outer", "inner"}  # remote starts after outer ends
    assert sum(table["layers"].values()) == pytest.approx(table["wall_s"])


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------
def test_set_digests_ignore_order_and_path_digests_do_not():
    assert check.digest_rows([["a", "b"], ["c", "d"]]) == check.digest_rows([["c", "d"], ["a", "b"]])
    assert check.digest_rows([["a", "b"]]) == check.digest_pairs({("a", "b")})
    assert check.digest_paths([["a"], ["b"]]) != check.digest_paths([["b"], ["a"]])


def test_reply_whose_count_disagrees_is_wrong():
    reply = {"pairs": [["a", "b"]], "count": 2}
    assert check.digest_reply("rpq", reply) != check.digest_pairs({("a", "b")})


def test_versioned_check_uses_the_version_each_read_reports():
    from perfbench.loadgen import Sample
    from repro.graph.serialize import graph_from_dict

    graph = workloads.main_graph(1, (30, 80))
    document = graph_to_dict(graph)
    batches = [[{"kind": "add_node", "id": f"n{i}"},
                {"kind": "add_edge", "id": f"x{i}", "src": "v0", "tgt": f"n{i}", "label": "l0"}]
               for i in range(3)]  # each batch grows the answer from v0
    key = ("g", "(l0+l1+l2+l3+l4+l5+l6+l7)*", "v0")
    replay = graph_from_dict(document)
    samples = []
    for edits in [[]] + batches:
        for edit in edits:
            check.apply_edit(replay, edit)
        sample = Sample("rpq", key)
        sample.ok = True
        sample.version = (1, replay.version)
        sample.digest = check.Reference({"g": replay}).digest("rpq", key)
        samples.append(sample)
    stale = Sample("rpq", key)  # an answer from version 0 stamped as the last
    stale.ok, stale.version, stale.digest = True, samples[-1].version, samples[0].digest
    wrong, unverifiable = check.check_versioned(samples + [stale], document, 1, batches)
    assert (wrong, unverifiable) == (1, 0)
    assert [s.correct for s in samples] == [True] * 4 and stale.correct is False


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert report.percentile(values, 50) == 50
    assert report.percentile(values, 90) == 90


# ----------------------------------------------------------------------
# the command
# ----------------------------------------------------------------------
def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
