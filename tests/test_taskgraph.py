"""DAG construction, dependency tracking and graph analyses."""

import gc
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampsched import taskgraph
from ampsched.taskgraph import (TaskGraph, TaskGraphBuilder, TaskKind,
                                bottom_levels, build_cholesky_dag,
                                cholesky_reads, critical_path, export_dot,
                                task_counts, to_json)
from conftest import random_task_graph


def cholesky_program(s: int) -> list:
    """The right-looking loop nest for s block rows, written out here
    independently of ampsched: (kind, k, written block, read blocks) per
    task, in program order."""
    prog = []
    for k in range(s):
        prog.append((TaskKind.C, k, (k, k), {(k, k)}))
        for j in range(k + 1, s):
            prog.append((TaskKind.T, k, (k, j), {(k, k), (k, j)}))
        for i in range(k + 1, s):
            prog.append((TaskKind.S, k, (i, i), {(k, i), (i, i)}))
            for j in range(i + 1, s):
                prog.append((TaskKind.G, k, (i, j), {(k, i), (k, j), (i, j)}))
    return prog


def cholesky_program_reads(g: TaskGraph) -> list:
    """Each task's reads for a Cholesky DAG g, from cholesky_program; g's
    tasks must be that program's, in its order."""
    prog = cholesky_program(sum(t.kind == TaskKind.C for t in g.tasks))
    assert [(t.kind, t.k, (t.i, t.j)) for t in g.tasks] == \
        [(kind, k, write) for kind, k, write, _ in prog]
    return [reads for *_, reads in prog]


def pairwise_dependence_oracle(g: TaskGraph, reads=None) -> set:
    """Independent edge oracle: p -> q iff they conflict on some block and
    no task strictly between them writes that block. A task writes the
    one block (i, j); reads[t] is the set of blocks task t reads, by
    default those of cholesky_program for a Cholesky DAG g."""
    if reads is None:
        reads = cholesky_program_reads(g)
    writes = [{(t.i, t.j)} for t in g.tasks]
    edges = set()
    for q in range(len(g.tasks)):
        for p in range(q):
            for blk in (writes[p] | reads[p]) & (writes[q] | reads[q]):
                raw_waw = blk in writes[p] and blk in (reads[q] | writes[q])
                war = blk in reads[p] and blk in writes[q]
                if not (raw_waw or war):
                    continue
                if any(blk in writes[r] for r in range(p + 1, q)):
                    continue
                edges.add((p, q))
    return edges


class TestCholeskyDag:
    @pytest.mark.parametrize("s", range(1, 11))
    def test_counts_match_enumeration(self, s):
        g = build_cholesky_dag(s)
        enumerated = {kind: sum(1 for t in g.tasks if t.kind == kind)
                      for kind in TaskKind}
        assert enumerated == task_counts(s)
        assert len(g.tasks) == sum(task_counts(s).values())

    def test_s4_node_multiset(self):
        counts = task_counts(4)
        assert counts == {TaskKind.C: 4, TaskKind.T: 6,
                          TaskKind.S: 6, TaskKind.G: 4}
        assert sum(counts.values()) == 20

    def test_s14_total(self):
        assert sum(task_counts(14).values()) == 560

    @pytest.mark.parametrize("s", range(1, 9))
    def test_edges_equal_pairwise_oracle(self, s):
        g = build_cholesky_dag(s)
        assert set(g.edges) == pairwise_dependence_oracle(g)
        assert len(g.edges) == len(set(g.edges))

    def test_ids_are_topological(self):
        g = build_cholesky_dag(6)
        assert all(p < q for p, q in g.edges)
        assert [t.id for t in g.tasks] == list(range(len(g.tasks)))

    def test_indegree_and_successors_consistent(self):
        # edges is derived from the successor lists: check it against both
        # stored lists, and its registration order (by q, then p).
        graphs = [build_cholesky_dag(5)] + [
            random_task_graph(np.random.default_rng(seed)) for seed in range(8)]
        for g in graphs:
            edges = g.edges
            indeg = [0] * len(g.tasks)
            for p, q in edges:
                assert q in g.successors[p]
                indeg[q] += 1
            assert indeg == g.indegree
            assert set(edges) == {(p, q) for p, succ in enumerate(g.successors)
                                  for q in succ}
            assert edges == sorted(edges, key=lambda e: (e[1], e[0]))
            assert g.indegree[0] == 0  # the first task is a source

    def test_s40_edge_list_anchor(self):
        # Pinned order included, not only as sets: to_json writes the edges
        # in this order, export_dot the successor lists in theirs. The FIFO
        # enable order depends on neither: complete() pushes every task it
        # releases with one sequence number, and the heap breaks ties by id.
        g = build_cholesky_dag(40)
        edges = g.edges
        assert len(edges) == 31_980
        assert hashlib.sha1(repr(edges).encode()).hexdigest() == \
            "7f78308edf277a114ffaa80d5757b538ce8acbd9"
        assert hashlib.sha1(repr(g.successors).encode()).hexdigest() == \
            "e8e14bf640adf1255f7add34665f0e0c5aacff28"

    @pytest.mark.parametrize("s", range(1, 13))
    def test_equals_builder_replay(self, s):
        # The closed form against the generic tracker fed cholesky_reads,
        # the helper to_json writes: same tasks, successors and indegrees.
        b = TaskGraphBuilder()
        for kind, k, write, _ in cholesky_program(s):
            b.register_task(kind, reads=cholesky_reads(kind, k, *write),
                            write=write, k=k)
        ref, g = b.build(), build_cholesky_dag(s)
        assert [(t.id, t.kind, t.k, t.i, t.j) for t in g.tasks] == \
            [(t.id, t.kind, t.k, t.i, t.j) for t in ref.tasks]
        assert g.successors == ref.successors
        assert g.indegree == ref.indegree

    def test_s40_live_size(self):
        # Tasks keep no reads and use slots: 2.5 MiB here, 7.3 MiB when
        # each task held a frozenset of its reads.
        tracemalloc.start()
        try:
            g = build_cholesky_dag(40)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(g.tasks) == 11_480
        assert live <= 3 * 2**20

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError):
            build_cholesky_dag(0)
        with pytest.raises(ValueError):
            task_counts(0)


class TestBuilder:
    def test_raw_waw_war(self):
        b = TaskGraphBuilder()
        w1 = b.register_task(TaskKind.C, reads=set(), write=(0, 0))
        r1 = b.register_task(TaskKind.T, reads={(0, 0)}, write=(0, 1))
        w2 = b.register_task(TaskKind.S, reads=set(), write=(0, 0))
        g = b.build()
        assert (w1, r1) in g.edges       # read after write
        assert (w1, w2) in g.edges       # write after write
        assert (r1, w2) in g.edges       # write after read

    def test_no_self_or_duplicate_edges(self):
        b = TaskGraphBuilder()
        b.register_task(TaskKind.C, reads={(0, 0)}, write=(0, 0))
        b.register_task(TaskKind.C, reads={(0, 0)}, write=(0, 0))
        g = b.build()
        assert g.edges == [(0, 1)]

    def test_requires_exactly_one_write(self):
        b = TaskGraphBuilder()
        for write in (set(), {(0, 0)}, ((0, 0), (1, 1)), (0, 0, 1)):
            with pytest.raises(ValueError):
                b.register_task(TaskKind.G, reads=set(), write=write)
        assert b.build().tasks == []

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_graphs_match_oracle(self, seed):
        reads = []
        g = random_task_graph(np.random.default_rng(seed), max_nodes=25,
                              reads_out=reads)
        assert set(g.edges) == pairwise_dependence_oracle(g, reads)
        assert all(p < q for p, q in g.edges)


class TestAnalyses:
    @pytest.mark.parametrize("s", range(1, 11))
    def test_unit_cost_critical_path(self, s):
        # One C per step plus a T and an S chained between steps: 3(s-1)+1.
        g = build_cholesky_dag(s)
        assert critical_path(g, lambda t: 1.0) == 3 * (s - 1) + 1

    def test_bottom_levels_decrease_along_edges(self):
        g = build_cholesky_dag(6)
        bl = bottom_levels(g, lambda t: 1.0)
        for p, q in g.edges:
            assert bl[p] > bl[q]
        last = g.tasks[-1]
        assert last.kind == TaskKind.C and bl[last.id] == 1.0

    def test_weighted_bottom_levels(self):
        g = build_cholesky_dag(3)
        cost = {TaskKind.C: 3.0, TaskKind.T: 2.0,
                TaskKind.S: 2.0, TaskKind.G: 5.0}
        bl = bottom_levels(g, lambda t: cost[t.kind])
        for t in g.tasks:
            succ = max((bl[q] for q in g.successors[t.id]), default=0.0)
            assert bl[t.id] == cost[t.kind] + succ


class TestExport:
    def test_dot_output(self):
        g = build_cholesky_dag(3)
        dot = export_dot(g)
        assert dot.startswith("digraph tasks {")
        assert '  t0 [label="C[0,0] k=0"];' in dot
        assert dot.count(" -> ") == len(g.edges)

    def test_json_export(self):
        g = build_cholesky_dag(5)
        doc = json.loads(to_json(g))
        recs = doc["tasks"]
        assert [(r["id"], r["kind"], r["k"], r["i"], r["j"]) for r in recs] \
            == [(t.id, t.kind.value, t.k, t.i, t.j) for t in g.tasks]
        assert [sorted(map(tuple, r["reads"])) for r in recs] \
            == [sorted(reads) for reads in cholesky_program_reads(g)]
        assert [tuple(e) for e in doc["edges"]] == g.edges
        # The written block is the task's (i, j), so no "writes" key.
        assert "writes" not in doc["tasks"][0]

    def test_json_rejects_other_graphs(self):
        # Only a build_cholesky_dag graph has reads cholesky_reads can give.
        g = build_cholesky_dag(4)
        g.indegree[g.successors[0].pop()] -= 1
        others = [TaskGraph([], [], []), g] + [
            random_task_graph(np.random.default_rng(seed)) for seed in range(5)]
        for other in others:
            with pytest.raises(ValueError):
                to_json(other)

    def test_export_bytes_pinned(self):
        g = build_cholesky_dag(6)
        assert hashlib.sha1(export_dot(g).encode()).hexdigest() == \
            "aeaeef16321e13c6a6f87d4055f1b6b408bf9bfd"
        assert hashlib.sha1(to_json(g).encode()).hexdigest() == \
            "a074204ec4db47fe8144bab33f0c3ea144227633"


class TestCollectorPause:
    def test_build_runs_no_collection(self, collector_state):
        starts = []

        def hook(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.enable()
        gc.callbacks.append(hook)
        try:
            build_cholesky_dag(12)
            during = len(starts)  # read before anything new is allocated
        finally:
            gc.callbacks.remove(hook)
        assert during == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored(self, collector_state, enabled):
        (gc.enable if enabled else gc.disable)()
        build_cholesky_dag(s=3)
        assert gc.isenabled() == enabled
        with pytest.raises(ValueError):
            build_cholesky_dag(0)
        assert gc.isenabled() == enabled

    def test_build_leaves_no_cycles(self, collector_state):
        gc.collect()
        gc.disable()
        g = build_cholesky_dag(8)
        del g
        assert gc.collect() == 0
