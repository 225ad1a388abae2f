"""Threaded execution: policies, legality, determinism, failure handling."""

import itertools
import random
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampsched import dense, kernels, runtime
from ampsched.dense import BlockedMatrix, NotPositiveDefiniteError
from ampsched.runtime import (CATS, FAST, OBLIVIOUS, SLOW, VC, VC_POLICY,
                              Policy, ReadyPool, Resource, SchedulerCore,
                              Table3CostModel, Trace, TraceEvent, gflops,
                              make_workers, run)
from ampsched.taskgraph import build_cholesky_dag
from conftest import (check_trace_legality, count_lane_pairs, meet_first,
                      run_with_timeout)

POLICIES = [Policy(OBLIVIOUS), Policy(CATS), Policy(VC_POLICY)]


def factor(n, b, policy, nworkers, seed=1):
    a = dense.make_spd(n, seed)
    g = build_cholesky_dag(-(-n // b))
    bm = BlockedMatrix.from_matrix(a, b)
    bm, trace = run(g, bm, policy, make_workers(policy.kind, nworkers))
    return a, g, bm, trace


class TestPolicyValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Policy("fifo")

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            Policy(CATS, cats_threshold=1.5)

    def test_stealing_mode(self):
        with pytest.raises(ValueError):
            Policy(CATS, stealing="sideways")

    def test_worker_resource_match(self):
        g = build_cholesky_dag(2)
        bm = BlockedMatrix.from_matrix(dense.make_spd(4, 1), 2)
        with pytest.raises(ValueError):
            run(g, bm, Policy(VC_POLICY), [Resource(0, FAST)])
        with pytest.raises(ValueError):
            run(g, bm, Policy(OBLIVIOUS), [Resource(0, VC)])
        with pytest.raises(ValueError):
            run(g, bm, Policy(CATS), [Resource(0, SLOW)])
        with pytest.raises(ValueError):
            run(g, bm, Policy(OBLIVIOUS), [])

    def test_duplicate_worker_ids(self):
        g = build_cholesky_dag(2)
        bm = BlockedMatrix.from_matrix(dense.make_spd(4, 1), 2)
        with pytest.raises(ValueError, match="distinct"):
            run(g, bm, Policy(OBLIVIOUS),
                [Resource(0, FAST), Resource(0, SLOW)])

    def test_graph_must_match_block_grid(self, monkeypatch):
        # A 2-block DAG on a 3x3 grid factored part of the matrix (residual
        # 7.0); a 4-block one indexed past the grid in a worker.
        started = []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda t: started.append(t))
        for s in (2, 4):
            bm = BlockedMatrix.from_matrix(dense.make_spd(12, 1), 4)
            with pytest.raises(ValueError, match="block grid"):
                run(build_cholesky_dag(s), bm, Policy(OBLIVIOUS),
                    make_workers(OBLIVIOUS, 2))
        assert started == []


class TestMakeWorkers:
    def test_vc_pairs(self):
        ws = make_workers(VC_POLICY, 3)
        assert [w.kind for w in ws] == [VC, VC, VC]

    @pytest.mark.parametrize("count,nfast", [(1, 1), (2, 1), (4, 2), (8, 4)])
    def test_half_fast_half_slow(self, count, nfast):
        ws = make_workers(OBLIVIOUS, count)
        assert sum(w.kind == FAST for w in ws) == nfast
        assert [w.id for w in ws] == list(range(count))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            make_workers(OBLIVIOUS, 0)


class TestFactorization:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.kind)
    @pytest.mark.parametrize("nworkers", [1, 3, 4])
    def test_correct_and_legal(self, policy, nworkers):
        a, g, bm, trace = factor(48, 16, policy, nworkers)
        assert dense.residual(a, bm.upper_factor()) < 1e-13
        check_trace_legality(g, trace)
        assert trace.workers == list(range(nworkers))

    def test_factor_bitwise_identical_across_schedules(self):
        a = dense.make_spd(60, seed=2)
        baseline = None
        for policy in POLICIES:
            for nworkers in (1, 2, 4):
                _, _, bm, _ = factor(60, 15, policy, nworkers, seed=2)
                blob = bm.upper_factor().tobytes()
                if baseline is None:
                    baseline = blob
                assert blob == baseline

    @pytest.mark.parametrize("n,b", [(22, 4), (100, 33), (200, 90),
                                     (600, 290)])
    def test_factor_bitwise_identical_across_lane_ratios(self, n, b):
        # Tile sizes off the slab grid, each with a ragged last tile; 290
        # is three slabs, so its VC calls hand slabs to the lane thread.
        a = dense.make_spd(n, seed=3)
        g = build_cholesky_dag(-(-n // b))
        _, _, bm, _ = factor(n, b, Policy(OBLIVIOUS), 1, seed=3)
        baseline = bm.upper_factor().tobytes()
        for nworkers in (1, 2):
            bm, _ = run(g, BlockedMatrix.from_matrix(a, b), Policy(VC_POLICY),
                        make_workers(VC_POLICY, nworkers))
            assert bm.upper_factor().tobytes() == baseline, nworkers
        for policy in POLICIES:
            _, _, bm, _ = factor(n, b, policy, 8, seed=3)
            assert bm.upper_factor().tobytes() == baseline

    def test_ragged_blocks(self):
        a, g, bm, trace = factor(50, 16, Policy(OBLIVIOUS), 2)
        assert dense.residual(a, bm.upper_factor()) < 1e-13

    def test_single_block(self):
        a, g, bm, _ = factor(16, 16, Policy(OBLIVIOUS), 2)
        assert dense.residual(a, bm.upper_factor()) < 1e-13


class TestJitteredLegality:
    def test_exactly_once_and_edge_order(self):
        rng = np.random.default_rng(7)
        started = []
        lock = threading.Lock()

        def hook(task, worker):
            with lock:
                started.append(task.id)
            time.sleep(float(rng.uniform(0.0, 0.002)))

        for trial in range(10):
            policy = POLICIES[trial % len(POLICIES)]
            a = dense.make_spd(40, seed=trial)
            g = build_cholesky_dag(5)
            bm = BlockedMatrix.from_matrix(a, 8)
            started.clear()
            _, trace = run(g, bm, policy,
                           make_workers(policy.kind, 4), task_hook=hook)
            check_trace_legality(g, trace)
            assert sorted(started) == list(range(len(g.tasks)))

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.kind)
    def test_stress_short_switch_interval(self, policy):
        # More workers than cores and frequent thread switches; a lost
        # indegree or completion update would drop or repeat a task, or hang.
        a = dense.make_spd(24, seed=4)
        g = build_cholesky_dag(8)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            bm, trace = run_with_timeout(lambda: run(
                g, BlockedMatrix.from_matrix(a, 3), policy,
                make_workers(policy.kind, 6)))
        finally:
            sys.setswitchinterval(old)
        check_trace_legality(g, trace)
        assert dense.residual(a, bm.upper_factor()) < 1e-13


class TestCatsRouting:
    def test_no_stealing_respects_queues(self):
        policy = Policy(CATS, stealing="none")
        g = build_cholesky_dag(6)
        a = dense.make_spd(48, seed=3)
        bm = BlockedMatrix.from_matrix(a, 8)
        workers = make_workers(CATS, 4)  # 2 fast + 2 slow
        priorities = SchedulerCore(g, policy, workers,
                                   Table3CostModel(8)).pool.priorities
        cut = policy.cats_threshold * max(priorities)
        placements = []
        lock = threading.Lock()

        def hook(task, worker):
            with lock:
                placements.append((task.id, worker.kind))

        _, trace = run(g, bm, policy, workers, task_hook=hook)
        check_trace_legality(g, trace)
        for tid, resource in placements:
            if priorities[tid] >= cut:
                assert resource == FAST
            else:
                assert resource == SLOW

    def test_unschedulable_configuration_raises(self):
        # Fast-only workers without stealing cannot take non-critical tasks.
        policy = Policy(CATS, stealing="none")
        g = build_cholesky_dag(4)
        bm = BlockedMatrix.from_matrix(dense.make_spd(16, 1), 4)
        with pytest.raises(RuntimeError, match="stalled"):
            run(g, bm, policy, [Resource(0, FAST)])

    @pytest.mark.parametrize("stealing", ["none", "uni", "bi"])
    @pytest.mark.parametrize("kinds", [(FAST, SLOW), (FAST, FAST, SLOW),
                                       (SLOW, SLOW, FAST)],
                             ids=lambda ks: "".join(k[0] for k in ks))
    def test_mixed_workers_neither_hang_nor_stall_under_jitter(self, kinds,
                                                               stealing):
        a = dense.make_spd(16, seed=5)
        g = build_cholesky_dag(4)
        workers = [Resource(i, k) for i, k in enumerate(kinds)]
        rng = random.Random(len(kinds))

        def hook(task, worker):
            time.sleep(rng.random() * 2e-4)

        for _ in range(30):
            bm, trace = run_with_timeout(lambda: run(
                g, BlockedMatrix.from_matrix(a, 4),
                Policy(CATS, stealing=stealing), workers, task_hook=hook))
            check_trace_legality(g, trace)
            assert dense.residual(a, bm.upper_factor()) < 1e-13

    def test_bi_stealing_completes_with_fast_only(self):
        a = dense.make_spd(32, 1)
        g = build_cholesky_dag(4)
        bm = BlockedMatrix.from_matrix(a, 8)
        bm, trace = run(g, bm, Policy(CATS, stealing="bi"),
                        [Resource(0, FAST)])
        assert dense.residual(a, bm.upper_factor()) < 1e-13


class TestReadyPool:
    def test_fifo_order_with_ties_by_id(self):
        pool = ReadyPool(Policy(OBLIVIOUS))
        pool.push(5, 2)
        pool.push(3, 1)
        pool.push(4, 1)
        assert [pool.select(FAST) for _ in range(3)] == [3, 4, 5]
        assert pool.select(FAST) is None

    def test_cats_static_classification(self):
        # priorities: task 0 is critical (10 >= 0.9*10), others are not.
        pool = ReadyPool(Policy(CATS, cats_threshold=0.9), [10.0, 5.0, 8.0])
        for tid in (0, 1, 2):
            pool.push(tid, tid)
        assert pool.select(SLOW) == 2  # best non-critical
        assert pool.select(FAST) == 0  # the critical task
        assert pool.select(FAST) == 1  # steals remaining non-critical

    def test_cats_slow_steals_critical_only_when_no_fast_idle(self):
        pool = ReadyPool(Policy(CATS, stealing="bi"), [10.0, 10.0])
        pool.push(0, 0)
        assert pool.select(SLOW, idle_fast=1) is None
        assert pool.select(SLOW, idle_fast=0) == 0

    def test_cats_requires_priorities(self):
        with pytest.raises(ValueError):
            ReadyPool(Policy(CATS))


def reference_select(policy, priorities, ready, resource, idle_fast):
    """Brute-force selection rule over ready = {task id: enable event}.

    FIFO policies take the smallest (event, id). CATS takes the highest
    bottom level, ties by id, from the class the resource may use: fast
    lanes the critical class, or the non-critical one when stealing; slow
    lanes the non-critical class, or the critical one under bi-directional
    stealing when no fast worker is idle.
    """
    if policy.kind != CATS:
        return min(ready, key=lambda t: (ready[t], t), default=None)
    cut = policy.cats_threshold * max(priorities)
    crit = [t for t in ready if priorities[t] >= cut]
    noncrit = [t for t in ready if priorities[t] < cut]
    if resource == FAST:
        allowed = crit or (noncrit if policy.stealing != "none" else [])
    else:
        allowed = noncrit or (crit if policy.stealing == "bi"
                              and idle_fast == 0 else [])
    return min(allowed, key=lambda t: (-priorities[t], t), default=None)


class TestReadyPoolProperty:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           kind=st.sampled_from([OBLIVIOUS, CATS, VC_POLICY]),
           threshold=st.floats(0.0, 1.0),
           stealing=st.sampled_from(["none", "uni", "bi"]),
           priorities=st.lists(st.integers(0, 4).map(float)
                               | st.floats(0.0, 100.0), min_size=1, max_size=12))
    def test_matches_reference(self, data, kind, threshold, stealing, priorities):
        policy = Policy(kind, cats_threshold=threshold, stealing=stealing)
        pool = ReadyPool(policy, priorities)
        unpushed = data.draw(st.permutations(range(len(priorities))))
        steps = data.draw(st.lists(
            st.tuples(st.booleans(), st.sampled_from([FAST, SLOW, VC]),
                      st.sampled_from([0, 1]), st.integers(0, 1)),
            max_size=40))
        ready, event = {}, 0
        for push, resource, idle_fast, bump in steps:
            if push and unpushed:
                tid = unpushed.pop()
                event += bump
                pool.push(tid, event)
                ready[tid] = event
            else:
                expected = reference_select(policy, priorities, ready,
                                            resource, idle_fast)
                can = pool.can_select(resource, idle_fast)
                got = pool.select(resource, idle_fast)
                assert got == expected
                assert can == (got is not None)
                ready.pop(got, None)
            assert len(pool) == len(ready)


class TestSchedulerCore:
    def test_sequential_drain_is_topological(self):
        g = build_cholesky_dag(4)
        core = SchedulerCore(g, Policy(OBLIVIOUS), [Resource(0, FAST)])
        order = []
        while not core.done:
            tid = core.select(0)
            assert tid is not None
            order.append(tid)
            core.complete(0, tid, len(order), len(order) + 1)
        assert sorted(order) == list(range(len(g.tasks)))
        pos = {t: n for n, t in enumerate(order)}
        assert all(pos[p] < pos[q] for p, q in g.edges)
        assert core.select(0) is None and len(core.pool) == 0
        assert [e.task for e in core.trace(0, len(order) + 1).events] == order

    def test_stalled_when_no_kind_may_take_ready_work(self):
        # Fast lanes alone, without stealing, run out of critical work;
        # a slow lane in the same state takes the non-critical rest.
        g = build_cholesky_dag(4)
        cost = Table3CostModel(4)
        policy = Policy(CATS, stealing="none")
        fast, slow = Resource(0, FAST), Resource(1, SLOW)
        fast_only = SchedulerCore(g, policy, [fast], cost)
        mixed = SchedulerCore(g, policy, [fast, slow], cost)
        while (tid := mixed.select(0)) is not None:
            assert fast_only.select(0) == tid
            mixed.complete(0, tid, 0, 1)
            fast_only.complete(0, tid, 0, 1)
        assert not mixed.done and len(mixed.pool) > 0
        with pytest.raises(RuntimeError, match="stalled") as exc:
            fast_only.select(0)
        assert str(exc.value) == runtime.STALLED
        assert mixed.select(1) is not None

    def test_bi_slow_worker_steals_critical_only_when_no_fast_is_idle(self):
        # threshold 0: every task is critical
        g = build_cholesky_dag(3)
        core = SchedulerCore(g, Policy(CATS, cats_threshold=0.0, stealing="bi"),
                             [Resource(0, FAST), Resource(1, SLOW)],
                             Table3CostModel(4))
        assert core.select(1) is None
        c0 = core.select(0)
        core.complete(0, c0, 0, 1)
        assert len(core.pool) == 2 and core.select(1) is None
        core.select(0)
        assert core.select(1) is not None and core.busy == {0, 1}

    def test_bi_slow_worker_waits_while_a_second_fast_worker_is_idle(self):
        # The idle count is over fast workers, not over the fast kind:
        # once fast 0 is busy, fast 1 still being idle bars the slow steal.
        g = build_cholesky_dag(3)
        core = SchedulerCore(g, Policy(CATS, cats_threshold=0.0, stealing="bi"),
                             [Resource(0, FAST), Resource(1, FAST),
                              Resource(2, SLOW)], Table3CostModel(4))
        core.complete(0, core.select(0), 0, 1)
        assert len(core.pool) == 2 and core.select(0) is not None
        assert core.select(2) is None
        assert core.select(1) is not None and core.busy == {0, 1}

    def test_cats_requires_priority_cost(self):
        with pytest.raises(ValueError):
            SchedulerCore(build_cholesky_dag(2), Policy(CATS),
                          [Resource(0, FAST)])


class TestErrorPropagation:
    def test_nonpositive_block_reports_global_index(self):
        n, b = 24, 8
        a = dense.make_spd(n, 4)
        a[17, 17] = -1000.0  # block (2,2), local pivot 1
        g = build_cholesky_dag(n // b)
        bm = BlockedMatrix.from_matrix(a, b)
        with pytest.raises(NotPositiveDefiniteError) as exc:
            run(g, bm, Policy(OBLIVIOUS), make_workers(OBLIVIOUS, 4))
        assert exc.value.index == 17
        assert isinstance(exc.value.trace, Trace)
        # the attached partial trace is still legal for the executed prefix
        done = {e.task for e in exc.value.trace.events}
        start = {e.task: e.start_ns for e in exc.value.trace.events}
        end = {e.task: e.end_ns for e in exc.value.trace.events}
        for p, q in g.edges:
            if q in done:
                assert p in done and end[p] <= start[q]


    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.kind)
    @pytest.mark.parametrize("row,col", [(0, 63), (5, 40), (20, 20)])
    def test_nan_input_reports_global_pivot(self, policy, row, col):
        a = dense.make_spd(64, 1)
        a[row, col] = np.nan  # upper triangle; the pivot of column col fails
        g = build_cholesky_dag(4)
        bm = BlockedMatrix.from_matrix(a, 16)
        with pytest.raises(NotPositiveDefiniteError) as exc:
            run_with_timeout(lambda: run(g, bm, policy,
                                         make_workers(policy.kind, 4)))
        assert exc.value.index == col
        assert isinstance(exc.value.trace, Trace)

    def test_lower_triangle_is_not_read(self):
        a = dense.make_spd(64, 1)
        clean = factor(64, 16, Policy(OBLIVIOUS), 2)[2].upper_factor()
        a[63, 0] = a[40, 5] = a[25, 20] = np.nan
        bm = BlockedMatrix.from_matrix(a, 16)
        bm, _ = run(build_cholesky_dag(4), bm, Policy(VC_POLICY),
                    make_workers(VC_POLICY, 2))
        np.testing.assert_array_equal(bm.upper_factor(), clean)


def fail_on_call(monkeypatch, method, n):
    """Make ReadyPool.<method> raise on its n-th call."""
    orig = getattr(ReadyPool, method)
    calls = itertools.count(1)

    def failing(self, *args):
        if next(calls) == n:
            raise RuntimeError(f"injected {method} failure")
        return orig(self, *args)

    monkeypatch.setattr(ReadyPool, method, failing)


class TestFailLoudWorkers:
    @pytest.mark.parametrize("method,call", [("select", 5), ("push", 3)])
    def test_scheduler_failure_is_raised_with_trace(self, monkeypatch,
                                                    method, call):
        g = build_cholesky_dag(4)
        bm = BlockedMatrix.from_matrix(dense.make_spd(16, 1), 4)
        fail_on_call(monkeypatch, method, call)
        with pytest.raises(RuntimeError, match=f"injected {method}") as exc:
            run_with_timeout(lambda: run(g, bm, Policy(OBLIVIOUS),
                                         make_workers(OBLIVIOUS, 2)))
        assert isinstance(exc.value.trace, Trace)
        assert len(exc.value.trace.events) < len(g.tasks)


class TestLanePairLifecycle:
    # B-wide tiles: two slabs per kernel call, shared with the lane thread.
    B = 2 * kernels.MICRO_SLAB

    @pytest.mark.parametrize("nworkers", [1, 4])
    def test_one_pair_per_vc_worker_and_none_left(self, monkeypatch, nworkers):
        made, handoffs = count_lane_pairs(monkeypatch)
        before = threading.active_count()
        a = dense.make_spd(3 * self.B, 6)
        bm, _ = run_with_timeout(lambda: run(
            build_cholesky_dag(3), BlockedMatrix.from_matrix(a, self.B),
            Policy(VC_POLICY), make_workers(VC_POLICY, nworkers)))
        assert threading.active_count() == before
        assert dense.residual(a, bm.upper_factor()) < 1e-12
        assert len(made) == nworkers
        assert len(handoffs) > nworkers  # pairs are reused across tasks

    def test_stress_short_switch_interval(self):
        # Six pairs (12 threads) with frequent switches; every tile is two
        # slabs, so every call hands work to a lane.
        # A lost handoff would hang; a lane running late would change bits.
        n = 4 * self.B
        a = dense.make_spd(n, seed=7)
        g = build_cholesky_dag(4)
        _, _, ref, _ = factor(n, self.B, Policy(OBLIVIOUS), 1, seed=7)
        before = threading.active_count()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            bm, trace = run_with_timeout(lambda: run(
                g, BlockedMatrix.from_matrix(a, self.B), Policy(VC_POLICY),
                make_workers(VC_POLICY, 6)))
        finally:
            sys.setswitchinterval(old)
        check_trace_legality(g, trace)
        assert bm.upper_factor().tobytes() == ref.upper_factor().tobytes()
        assert threading.active_count() == before

    def test_nan_input_closes_every_pair(self, monkeypatch):
        made, _ = count_lane_pairs(monkeypatch)
        before = threading.active_count()
        a = dense.make_spd(3 * self.B, 6)
        col = self.B + 44
        a[5, col] = np.nan  # solved by a T task, fails at the pivot of col
        bm = BlockedMatrix.from_matrix(a, self.B)
        with pytest.raises(NotPositiveDefiniteError) as exc:
            run_with_timeout(lambda: run(build_cholesky_dag(3), bm,
                                         Policy(VC_POLICY),
                                         make_workers(VC_POLICY, 4)))
        assert exc.value.index == col
        assert isinstance(exc.value.trace, Trace)
        assert threading.active_count() == before
        assert len(made) == 4

    def test_slow_lane_failure_is_raised_with_trace(self, monkeypatch):
        def fail():
            raise FloatingPointError("slow lane")

        # The one G task's call gives the lane thread a slab, which fails.
        monkeypatch.setattr(kernels, "_gemm_rows",
                            meet_first(kernels._gemm_rows, self.B, fail))
        before = threading.active_count()
        g = build_cholesky_dag(3)
        bm = BlockedMatrix.from_matrix(dense.make_spd(3 * self.B, 6), self.B)
        with pytest.raises(FloatingPointError, match="slow lane") as exc:
            run_with_timeout(lambda: run(g, bm, Policy(VC_POLICY),
                                         make_workers(VC_POLICY, 2)))
        assert isinstance(exc.value.trace, Trace)
        assert len(exc.value.trace.events) < len(g.tasks)
        assert threading.active_count() == before

    def test_vc_worker_hands_slabs_to_its_lane(self, monkeypatch):
        # 3×3 tiles (n=768, b=256), the smallest grid with a G task. Each
        # call gives the lane thread a slab: G, S and T calls all reach it.
        a, g, ref, _ = factor(3 * self.B, self.B, Policy(OBLIVIOUS), 1, 8)
        on_lane = set()
        for name in ("_gemm_rows", "_syrk_rows", "_trsm_cols"):
            monkeypatch.setattr(kernels, name, meet_first(
                getattr(kernels, name), self.B, partial(on_lane.add, name)))
        bm, trace = run_with_timeout(lambda: run(
            g, BlockedMatrix.from_matrix(a, self.B), Policy(VC_POLICY),
            make_workers(VC_POLICY, 1)))
        assert on_lane == {"_gemm_rows", "_syrk_rows", "_trsm_cols"}
        assert {e.kind for e in trace.events} >= {"G", "S", "T"}
        assert bm.upper_factor().tobytes() == ref.upper_factor().tobytes()


class TestBlasThreads:
    def test_run_holds_one_thread_then_restores(self):
        controls = kernels._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread-count symbols found")
        found = [get() for get, _ in controls]
        seen = set()

        def hook(task, worker):
            seen.update(get() for get, _ in controls)

        try:
            for _, put in controls:
                put(2)
            assert [get() for get, _ in controls] == [2] * len(controls)
            for policy in POLICIES:
                run(build_cholesky_dag(3), BlockedMatrix.from_matrix(
                    dense.make_spd(48, 1), 16), policy,
                    make_workers(policy.kind, 2), task_hook=hook)
                assert [get() for get, _ in controls] == [2] * len(controls)
            assert seen == {1}
        finally:
            for (_, put), count in zip(controls, found):
                put(count)


class TestTrace:
    def test_json_roundtrip(self):
        events = [TraceEvent(0, 1, "G", 0, 1, 2, 100, 200)]
        t = Trace(events, 50, 300, [0, 1])
        t2 = Trace.from_json(t.to_json())
        assert t2.events == events
        assert (t2.wall_start, t2.wall_end, t2.workers) == (50, 300, [0, 1])


class TestGflops:
    def test_value(self):
        assert gflops(1000, 1.0) == pytest.approx(1 / 3)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            gflops(100, 0.0)

