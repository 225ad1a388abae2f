"""Discrete-event simulator: determinism, cost models, bounds, presets."""

import gc
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampsched import sim, taskgraph
from ampsched.dense import BlockedMatrix, make_spd
from ampsched.runtime import (CATS, FAST, OBLIVIOUS, POLICIES, SLOW, STALLED,
                              TABLE3_MS, VC, VC_POLICY, Policy, SchedulerCore,
                              default_priority_cost, make_workers, run)
from ampsched.sim import (GTS, VC_VIEW, FlopsCostModel, MachineModel, Resource,
                          Table3CostModel, lower_bounds, preset_exynos5422,
                          simulate)
from ampsched.taskgraph import (TaskGraphBuilder, TaskKind, bottom_levels,
                                build_cholesky_dag, task_counts)
from ampsched.trace import Trace, TraceEvent, idle_stats, kind_stats
from conftest import FixedCostModel, check_trace_legality, random_task_graph
from oracles import tick_simulate


def chain_graph(length):
    b = TaskGraphBuilder()
    for _ in range(length):
        b.register_task(TaskKind.G, reads={(0, 0)}, write=(0, 0))
    return b.build()


class TestMachineModel:
    def test_gts_exposes_each_core(self):
        m = MachineModel(((SLOW, 1.0), (FAST, 4.0)))
        rs = m.resources()
        assert [(r.id, r.kind, r.speed) for r in rs] == \
            [(0, SLOW, 1.0), (1, FAST, 4.0)]

    def test_vc_view_pairs_and_sums_speeds(self):
        m = MachineModel(((SLOW, 1.0), (SLOW, 1.0), (FAST, 4.0), (FAST, 4.0)),
                         VC_VIEW)
        rs = m.resources()
        assert [(r.kind, r.speed) for r in rs] == [(VC, 5.0), (VC, 5.0)]

    def test_vc_view_requires_equal_counts(self):
        with pytest.raises(ValueError):
            MachineModel(((SLOW, 1.0), (FAST, 4.0), (FAST, 4.0)),
                         VC_VIEW).resources()

    def test_vc_view_rejects_other_core_kinds(self):
        cores = ((FAST, 1.0), (SLOW, 1.0), ("big", 1.0))
        with pytest.raises(ValueError, match="only fast and slow"):
            MachineModel(cores, VC_VIEW).resources()
        assert len(MachineModel(cores, GTS).resources()) == 3

    def test_resource_speed_positive(self):
        with pytest.raises(ValueError):
            Resource(0, FAST, 0.0)

    @pytest.mark.parametrize("view", [GTS, VC_VIEW])
    def test_rejects_machine_without_cores(self, view):
        m = MachineModel((), view)
        cost = FixedCostModel({FAST: 1, SLOW: 1, VC: 1})
        with pytest.raises(ValueError, match="at least one core"):
            m.resources()
        with pytest.raises(ValueError, match="at least one core"):
            lower_bounds(chain_graph(2), m, cost)
        policy = Policy(VC_POLICY if view == VC_VIEW else OBLIVIOUS)
        with pytest.raises(ValueError, match="at least one core"):
            simulate(chain_graph(2), m, cost, policy)


class TestCostModels:
    def test_table3_cubic_scaling(self):
        full = Table3CostModel(448)
        half = Table3CostModel(224)
        g = build_cholesky_dag(2)
        r = Resource(0, FAST, 1.0)
        for t in g.tasks:
            assert half.duration_ns(t, r) == pytest.approx(
                full.duration_ns(t, r) / 8, rel=1e-6)

    def test_table3_minimum_one_ns(self):
        t = build_cholesky_dag(1).tasks[0]
        assert Table3CostModel(1).duration_ns(t, Resource(0, FAST, 1.0)) >= 1

    def test_flops_model_inverse_in_speed(self):
        m = FlopsCostModel(64)
        t = build_cholesky_dag(2).tasks[1]
        slow_d = m.duration_ns(t, Resource(0, SLOW, 1.0))
        fast_d = m.duration_ns(t, Resource(1, FAST, 4.0))
        assert slow_d == pytest.approx(4 * fast_d, rel=1e-6)

    def test_task_flops(self):
        assert sim.task_flops(TaskKind.C, 6) == 72.0
        assert sim.task_flops(TaskKind.G, 6) == 432.0
        assert sim.task_flops(TaskKind.T, 6) == 216.0

    @pytest.mark.parametrize("b", [1, 4, 32, 256, 448])
    def test_native_cats_ranks_by_simulated_fast_durations(self, b):
        native = default_priority_cost(b)
        model = Table3CostModel(b)
        fast = Resource(0, FAST, 1.0)
        tasks = build_cholesky_dag(3).tasks
        assert {t.kind for t in tasks} == set(TaskKind)
        for t in tasks:
            assert native(t) == float(model.duration_ns(t, fast))

    def test_validation(self):
        with pytest.raises(ValueError):
            Table3CostModel(0)
        with pytest.raises(ValueError):
            FlopsCostModel(4, 0.0)


class TestPreset:
    def test_gts_slow_cores_take_low_ids(self):
        machine, cost = preset_exynos5422(GTS, 448)
        rs = machine.resources()
        assert [r.kind for r in rs] == [SLOW] * 4 + [FAST] * 4
        assert cost.b == 448

    def test_vc_view_has_four_pairs(self):
        machine, _ = preset_exynos5422(VC_VIEW)
        rs = machine.resources()
        assert len(rs) == 4 and all(r.kind == VC for r in rs)
        assert rs[0].speed == pytest.approx(1.0 + sim.FAST_SLOW_RATIO)

    def test_unknown_view(self):
        with pytest.raises(ValueError):
            preset_exynos5422("weird")
        # The model checks its view when built, the preset's model included.
        with pytest.raises(ValueError, match="unknown machine view"):
            MachineModel(((FAST, 1.0),), "weird").resources()


class ZeroCost:
    def duration_ns(self, task, resource):
        return 0


POLICY_VIEWS = [(Policy(OBLIVIOUS), GTS), (Policy(CATS), GTS),
                (Policy(VC_POLICY), VC_VIEW)]


class TestCollectorPause:
    @pytest.mark.parametrize("policy,view", POLICY_VIEWS)
    def test_simulate_runs_no_collection(self, collector_state, policy, view):
        g = build_cholesky_dag(12)
        machine, cost = preset_exynos5422(view, 448)
        starts = []

        def hook(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        threshold = gc.get_threshold()
        gc.set_threshold(100)  # an unpaused s=12 replay would collect
        gc.enable()
        gc.callbacks.append(hook)
        try:
            simulate(g, machine, cost, policy)
            during = len(starts)  # read before anything new is allocated
        finally:
            gc.callbacks.remove(hook)
            gc.set_threshold(*threshold)
        assert during == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored(self, collector_state, enabled):
        g = build_cholesky_dag(3)
        machine, cost = preset_exynos5422(GTS, 448)
        (gc.enable if enabled else gc.disable)()
        simulate(g, machine, cost, Policy(OBLIVIOUS))
        assert gc.isenabled() == enabled
        with pytest.raises(ValueError, match="non-positive duration"):
            simulate(g, machine, ZeroCost(), Policy(OBLIVIOUS))
        assert gc.isenabled() == enabled

    @pytest.mark.parametrize("policy,view", POLICY_VIEWS)
    def test_simulate_leaves_no_cycles(self, collector_state, policy, view):
        g = build_cholesky_dag(8)
        machine, cost = preset_exynos5422(view, 448)
        gc.collect()
        gc.disable()
        res = simulate(g, machine, cost, policy)
        del res
        assert gc.collect() == 0


class TestSimulate:
    def test_deterministic(self):
        g = build_cholesky_dag(6)
        machine, cost = preset_exynos5422(GTS, 448)
        r1 = simulate(g, machine, cost, Policy(CATS))
        r2 = simulate(g, machine, cost, Policy(CATS))
        assert r1.makespan_ns == r2.makespan_ns
        assert r1.trace.events == r2.trace.events

    @pytest.mark.parametrize("policy,view", [
        (Policy(OBLIVIOUS), GTS), (Policy(CATS), GTS),
        (Policy(VC_POLICY), VC_VIEW)])
    def test_legal_schedule(self, policy, view):
        g = build_cholesky_dag(5)
        machine, cost = preset_exynos5422(view, 448)
        res = simulate(g, machine, cost, policy)
        check_trace_legality(g, res.trace)
        assert res.makespan_ns == max(e.end_ns for e in res.trace.events)
        stats = kind_stats(res.trace)
        assert {TaskKind(k): n for k, (n, _) in stats.items()} == task_counts(5)
        # No task runs faster than on a fast core (the VC pair in the VC view).
        table = TABLE3_MS[VC if view == VC_VIEW else FAST]
        for kind, (_, mean_ns) in stats.items():
            assert mean_ns >= round(table[TaskKind(kind)] * 1e6)

    def test_single_resource_serializes(self):
        g = chain_graph(5)
        machine = MachineModel(((FAST, 1.0),))
        cost = FixedCostModel({FAST: 10})
        res = simulate(g, machine, cost, Policy(OBLIVIOUS))
        assert res.makespan_ns == 50
        assert res.idle_fraction == {0: 0.0}

    @pytest.mark.parametrize("policy,view", [
        (Policy(OBLIVIOUS), GTS), (Policy(VC_POLICY), VC_VIEW)])
    def test_idle_fraction_is_the_trace_summary(self, policy, view):
        machine, cost = preset_exynos5422(view, 448)
        res = simulate(build_cholesky_dag(6), machine, cost, policy)
        stats = idle_stats(res.trace)
        assert res.idle_fraction == {r: s["idle"] for r, s in stats.items()}
        # Oracle: an independent per-resource busy-time sum.
        busy = {r.id: 0 for r in machine.resources()}
        for e in res.trace.events:
            busy[e.worker] += e.end_ns - e.start_ns
        assert res.idle_fraction == {
            r: 1.0 - b / res.makespan_ns for r, b in busy.items()}
        assert list(res.idle_fraction) == list(busy)

    def test_parallel_width(self):
        # 6 independent unit tasks on 3 equal resources: two waves.
        b = TaskGraphBuilder()
        for i in range(6):
            b.register_task(TaskKind.G, reads=set(), write=(i, 0))
        g = b.build()
        machine = MachineModel(((FAST, 1.0),) * 3)
        res = simulate(g, machine, FixedCostModel({FAST: 7}),
                       Policy(OBLIVIOUS))
        assert res.makespan_ns == 14

    def test_view_policy_mismatch(self):
        g = build_cholesky_dag(2)
        machine, cost = preset_exynos5422(GTS)
        with pytest.raises(ValueError):
            simulate(g, machine, cost, Policy(VC_POLICY))
        vc_machine, _ = preset_exynos5422(VC_VIEW)
        with pytest.raises(ValueError):
            simulate(g, vc_machine, cost, Policy(OBLIVIOUS))

    def test_rejects_non_positive_duration(self):
        class ZeroCost:  # FixedCostModel refuses such a table itself
            def duration_ns(self, task, resource):
                return 0

        machine = MachineModel(((FAST, 1.0),))
        with pytest.raises(ValueError, match="non-positive duration"):
            simulate(chain_graph(2), machine, ZeroCost(), Policy(OBLIVIOUS))

    def test_cats_needs_fast_resource(self):
        g = build_cholesky_dag(2)
        machine = MachineModel(((SLOW, 1.0),) * 2)
        with pytest.raises(ValueError):
            simulate(g, machine, Table3CostModel(), Policy(CATS))

    def test_stall_raises_the_runtime_message(self):
        # Fast lanes alone, without stealing, run out of critical work.
        g = build_cholesky_dag(4)
        machine = MachineModel(((FAST, 1.0),))
        with pytest.raises(RuntimeError, match="stalled") as exc:
            simulate(g, machine, Table3CostModel(4),
                     Policy(CATS, stealing="none"))
        assert str(exc.value) == STALLED

    def test_cats_beats_oblivious_on_14x14_grid(self):
        g = build_cholesky_dag(14)
        machine, cost = preset_exynos5422(GTS, 448)
        rc = simulate(g, machine, cost, Policy(CATS))
        ro = simulate(g, machine, cost, Policy(OBLIVIOUS))
        assert rc.makespan_ns < ro.makespan_ns


def bounds_oracle(g, machine, cost) -> tuple[int, int]:
    """Both bounds from every task's duration on every resource.

    Each task weighs its fastest duration; cp is the heaviest path (task
    ids are a topological order), work the total over the resource count.
    """
    rs = machine.resources()
    dmin = [min(cost.duration_ns(t, r) for r in rs) for t in g.tasks]
    longest = [0] * len(g.tasks)
    for t in reversed(g.tasks):
        longest[t.id] = dmin[t.id] + max(
            (longest[q] for q in g.successors[t.id]), default=0)
    return max(longest, default=0), -(-sum(dmin) // len(rs))


def _outcome(call):
    """None if call() returns, else the message of the ValueError it raises."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


class ById:
    """Durations per resource id and task kind, so that workers of one kind
    differ: table[resource id][kind] ns."""

    def __init__(self, table: list):
        self.table = table

    def duration_ns(self, task, resource) -> int:
        return self.table[resource.id][task.kind]


def drained(g, machine, cost, policy):
    """simulate's makespan and trace, and its core's records and counts
    after the run, or STALLED."""
    seen = []
    orig = SchedulerCore.trace

    def trace(core, *args):
        seen.append((list(core.records), set(core.busy), core.idle_fast))
        return orig(core, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SchedulerCore, "trace", trace)
        try:
            res = simulate(g, machine, cost, policy)
        except RuntimeError as exc:
            assert str(exc) == STALLED
            return STALLED
    return res.makespan_ns, res.trace, seen[0]


def ticked(g, machine, cost, policy):
    """drained() of the per-tick oracle."""
    try:
        now, core = tick_simulate(g, machine, cost, policy)
    except RuntimeError as exc:
        assert str(exc) == STALLED
        return STALLED
    return (now, core.trace(0, now),
            (core.records, core.busy, core.idle_fast))


class TestEventLoopMatchesTickOracle:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(POLICIES), by_id=st.booleans(),
           threshold=st.floats(0.0, 1.0),
           stealing=st.sampled_from(["none", "uni", "bi"]))
    def test_same_records_makespan_and_stalls(self, data, seed, kind, by_id,
                                              threshold, stealing):
        g = random_task_graph(np.random.default_rng(seed))
        if kind == VC_POLICY:
            pairs = data.draw(st.integers(1, 4))
            machine = MachineModel(((FAST, 2.0),) * pairs
                                   + ((SLOW, 1.0),) * pairs, VC_VIEW)
        else:
            cores = data.draw(st.permutations(
                [FAST] * data.draw(st.integers(1, 4))
                + [SLOW] * data.draw(st.integers(0, 4))))
            machine = MachineModel(tuple((c, 1.0) for c in cores))
        # Small integers, so that tasks end together and ties decide.
        row = st.fixed_dictionaries({k: st.integers(1, 3) for k in TaskKind})
        if by_id:
            cost = ById([data.draw(row) for _ in machine.resources()])
        else:
            cost = FixedCostModel({k: data.draw(row) for k in (FAST, SLOW, VC)})
        policy = Policy(kind, threshold, stealing)
        assert drained(g, machine, cost, policy) == ticked(g, machine, cost,
                                                           policy)


class TestRankMemo:
    MACHINE = MachineModel(((FAST, 1.0), (FAST, 1.0), (SLOW, 1.0)))
    # Ranks differ between the tables: C is cheap under one, dear under
    # the other.
    TABLES = [FixedCostModel({FAST: {TaskKind.C: 1, TaskKind.T: 5,
                                     TaskKind.S: 5, TaskKind.G: 9},
                              SLOW: 20}),
              FixedCostModel({FAST: {TaskKind.C: 40, TaskKind.T: 2,
                                     TaskKind.S: 3, TaskKind.G: 2},
                              SLOW: 20})]

    @staticmethod
    def ranks(g, cost, machine=MACHINE):
        return SchedulerCore(g, Policy(CATS, 0.5), machine.resources(),
                             cost).pool.priorities

    def test_two_tables_on_one_graph_match_fresh_graphs(self):
        g = build_cholesky_dag(6)
        policy = Policy(CATS, 0.5)
        fresh = [simulate(build_cholesky_dag(6), self.MACHINE, c, policy)
                 for c in self.TABLES]
        assert self.ranks(g, self.TABLES[0]) != self.ranks(g, self.TABLES[1])
        for cost, want in zip(self.TABLES * 2, fresh * 2):
            got = simulate(g, self.MACHINE, cost, policy)
            assert (got.makespan_ns, got.trace) == (want.makespan_ns,
                                                    want.trace)
            assert self.ranks(g, cost) == self.ranks(build_cholesky_dag(6),
                                                     cost)

    def test_task_added_after_a_run_is_ranked(self):
        b = TaskGraphBuilder()
        b.register_task(TaskKind.C, reads=(), write=(0, 0))
        b.register_task(TaskKind.T, reads={(0, 0)}, write=(0, 1))
        g = b.build()
        cost = self.TABLES[0]
        simulate(g, self.MACHINE, cost, Policy(CATS))
        b.register_task(TaskKind.G, reads={(0, 1)}, write=(1, 1))
        assert self.ranks(g, cost) == bottom_levels(
            g, lambda t: cost.duration_ns(t, Resource(0, FAST)))
        res = simulate(g, self.MACHINE, cost, Policy(CATS))
        assert sorted(e.task for e in res.trace.events) == [0, 1, 2]

    def test_run_and_simulate_rank_once_per_table(self, monkeypatch):
        calls = []
        orig = taskgraph.bottom_levels
        monkeypatch.setattr(taskgraph, "bottom_levels", lambda *a: (
            calls.append(a), orig(*a))[1])
        g = build_cholesky_dag(2)
        native = Table3CostModel(4)  # run() ranks by these at b=4
        for _ in range(2):
            bm = BlockedMatrix.from_matrix(make_spd(8, 1), 4)
            run(g, bm, Policy(CATS), make_workers(CATS, 2))
            simulate(g, *preset_exynos5422(GTS, 4), Policy(CATS))
        assert len(calls) == 1
        for _ in range(2):
            simulate(g, self.MACHINE, self.TABLES[1], Policy(CATS))
        assert len(calls) == 2
        simulate(g, *preset_exynos5422(GTS, 4), Policy(CATS))
        assert len(calls) == 3  # g keeps only its latest ranking
        assert native.table == preset_exynos5422(GTS, 4)[1].table


class TestWorkerKindRule:
    # (policy, worker kinds, accepted): run() on workers of these kinds and
    # simulate() on a machine view of these kinds must agree.
    CASES = [
        (OBLIVIOUS, {FAST}, True), (OBLIVIOUS, {SLOW}, True),
        (OBLIVIOUS, {FAST, SLOW}, True), (OBLIVIOUS, {VC}, False),
        (OBLIVIOUS, {FAST, VC}, False),
        (CATS, {FAST}, True), (CATS, {SLOW}, False),
        (CATS, {FAST, SLOW}, True), (CATS, {VC}, False),
        (CATS, {FAST, VC}, False),
        (VC_POLICY, {FAST}, False), (VC_POLICY, {SLOW}, False),
        (VC_POLICY, {FAST, SLOW}, False), (VC_POLICY, {VC}, True),
        (VC_POLICY, {FAST, VC}, False),
    ]

    @pytest.mark.parametrize("kind,kinds,accepted", CASES, ids=[
        f"{k}-{'+'.join(sorted(ks))}" for k, ks, _ in CASES])
    def test_run_and_simulate_agree(self, kind, kinds, accepted):
        policy = Policy(kind)
        g = build_cholesky_dag(2)
        if kinds == {VC}:  # the VC view of one fast+slow pair
            machine = MachineModel(((FAST, 4.0), (SLOW, 1.0)), VC_VIEW)
        else:
            machine = MachineModel(tuple((k, 1.0) for k in sorted(kinds)))
        assert {r.kind for r in machine.resources()} == kinds
        bm = BlockedMatrix.from_matrix(make_spd(8, 1), 4)
        ran = _outcome(lambda: run(g, bm, policy, machine.resources()))
        simulated = _outcome(lambda: simulate(g, machine, Table3CostModel(4),
                                              policy))
        assert ran == simulated
        assert (ran is None) == accepted

    def test_native_and_exynos_workers_get_the_same_cats_ranks(self):
        g = build_cholesky_dag(5)
        machine, _ = preset_exynos5422(GTS, 64)
        ranks = [SchedulerCore(g, Policy(CATS), workers,
                               Table3CostModel(64)).pool.priorities
                 for workers in (make_workers(CATS, 2), machine.resources())]
        assert ranks[0] is not None and ranks[0] == ranks[1]


class TestLowerBounds:
    def test_chain_equals_cp_bound(self):
        g = chain_graph(4)
        machine = MachineModel(((FAST, 1.0), (FAST, 1.0)))
        cost = FixedCostModel({FAST: 9})
        cp, work = lower_bounds(g, machine, cost)
        assert cp == 36 and work == 18
        res = simulate(g, machine, cost, Policy(OBLIVIOUS))
        assert res.makespan_ns == cp

    def test_fuzzed_dags_respect_bounds(self):
        rng = np.random.default_rng(123)
        for trial in range(25):
            g = random_task_graph(rng, max_nodes=40)
            nfast = int(rng.integers(1, 4))
            # Odd trials add slow cores; fast cores differ in speed.
            nslow = int(rng.integers(1, 4)) if trial % 2 else 0
            cores = [(FAST, float(rng.uniform(1, 5))) for _ in range(nfast)]
            cores += [(SLOW, 1.0)] * nslow
            machine = MachineModel(tuple(cores))
            if trial % 3 == 0:
                cost = Table3CostModel(int(rng.integers(1, 449)))
            elif trial % 3 == 1:
                cost = FlopsCostModel(int(rng.integers(2, 9)), 1e6)
            else:
                cost = FixedCostModel({
                    kind: {k: int(rng.integers(1, 1000)) for k in TaskKind}
                    for kind in (FAST, SLOW)})
            policy = Policy(OBLIVIOUS) if rng.integers(2) else Policy(CATS)
            res = simulate(g, machine, cost, policy)
            cp, work = lower_bounds(g, machine, cost)
            assert (cp, work) == bounds_oracle(g, machine, cost), trial
            assert res.makespan_ns >= max(cp, work) - 1
            check_trace_legality(g, res.trace)


# s=40 (n=17920 at b=448) on the modeled Exynos 5422, the sim-exynos
# benchmark shape: exact makespans, trace bytes and bounds per policy.
S40_MAKESPAN_NS = {OBLIVIOUS: 200_791_890_000, CATS: 199_769_160_000,
                   VC_POLICY: 215_603_900_000}
S40_TRACE_SHA1 = {OBLIVIOUS: "725394b8a00b42ee6bb1ee19bb5be767089669d3",
                  CATS: "34f0f069e716814fe1f293269c0b1c44b662003f",
                  VC_POLICY: "a5298e62b2b69c8b83631dfc528cee5a6bf4a566"}
S40_BOUNDS_NS = {GTS: (7_503_710_000, 120_228_775_000),
                 VC_VIEW: (6_772_070_000, 213_581_350_000)}


@pytest.fixture(scope="module")
def dag_s40():
    return build_cholesky_dag(40)


class TestExynosS40Anchors:
    @pytest.mark.parametrize("policy", [OBLIVIOUS, CATS, VC_POLICY])
    def test_makespan_and_trace_bytes(self, dag_s40, policy):
        machine, cost = preset_exynos5422(
            VC_VIEW if policy == VC_POLICY else GTS, 448)
        res = simulate(dag_s40, machine, cost, Policy(policy))
        assert res.makespan_ns == S40_MAKESPAN_NS[policy]
        digest = hashlib.sha1(res.trace.to_json().encode()).hexdigest()
        assert digest == S40_TRACE_SHA1[policy]

    @pytest.mark.parametrize("view", [GTS, VC_VIEW])
    def test_lower_bounds(self, dag_s40, view):
        machine, cost = preset_exynos5422(view, 448)
        assert lower_bounds(dag_s40, machine, cost) == S40_BOUNDS_NS[view]


# s=14 under CATS with threshold 0.5 on the modeled Exynos 5422, where
# bi-directional stealing (a slow core takes critical work while no fast
# core is idle) shortens the makespan that uni-directional stealing gives.
STEALING_MAKESPAN_NS = {"uni": 12_221_790_000, "bi": 11_609_640_000}


class TestStealingAnchors:
    @pytest.mark.parametrize("stealing", ["uni", "bi"])
    def test_cats_half_threshold_makespan(self, stealing):
        machine, cost = preset_exynos5422(GTS, 448)
        policy = Policy(CATS, cats_threshold=0.5, stealing=stealing)
        res = simulate(build_cholesky_dag(14), machine, cost, policy)
        assert res.makespan_ns == STEALING_MAKESPAN_NS[stealing]


class TestIdleStats:
    def test_fractions(self):
        t = Trace([TraceEvent(0, 0, "G", 0, 0, 0, 0, 60),
                   TraceEvent(1, 1, "G", 0, 0, 0, 0, 40)], 0, 100, [0, 1, 2])
        stats = idle_stats(t)
        assert stats[0] == {"running": 0.6, "idle": 0.4}
        assert stats[1] == {"running": 0.4, "idle": 0.6}
        assert stats[2] == {"running": 0.0, "idle": 1.0}

    def test_horizon_is_the_trace_span(self):
        t = Trace([TraceEvent(0, 0, "G", 0, 0, 0, 1000, 1050)],
                  1000, 1100, [0])
        assert idle_stats(t) == {0: {"running": 0.5, "idle": 0.5}}
        assert idle_stats(Trace([], 7, 7, [0])) == {
            0: {"running": 0.0, "idle": 1.0}}
