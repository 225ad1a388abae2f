"""Threaded execution of a task graph over a blocked matrix.

Three scheduling policies are supported:

* OBLIVIOUS — conventional FIFO over individually exposed lanes;
* CATS — criticality-aware dual queues: high-bottom-level tasks are
  reserved for fast lanes, with optional uni/bi-directional stealing;
* VC — one worker per fast+slow virtual-core pair, each task internally
  split across the pair by the asymmetric kernels.

The dispatch protocol, from indegree release to the stall error (STALLED)
and one (worker, task, start, end) record per completed task, lives in
one deterministic core, SchedulerCore; the simulator in
:mod:`ampsched.sim` runs it through drain(). run() drives it from worker
threads, each of which completes a task and selects its next in one hold
of the scheduler lock. A completion wakes the waiters only if one waits
and a task is ready or the run is done, and then wakes all of them, lest
a CATS worker that may not take the new task swallow the wakeup. Each VC
worker keeps one slow-lane thread (kernels.lane_pair) for the whole run;
numpy's and scipy's OpenBLAS pools are held at one thread while the
workers run. A failure in any worker stops all workers and is re-raised
by run() with the partial trace attached.
"""

from __future__ import annotations

import bisect
import contextlib
import heapq
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from . import dense, kernels
from .dense import BlockedMatrix, NotPositiveDefiniteError
from .taskgraph import Task, TaskGraph, TaskKind, kind_bottom_levels, task_counts
from .trace import Trace, TraceEvent  # noqa: F401 (re-exported)

FAST = "fast"
SLOW = "slow"
VC = "vc"

OBLIVIOUS = "oblivious"
CATS = "cats"
VC_POLICY = "vc"
POLICIES = (OBLIVIOUS, CATS, VC_POLICY)

# Average per-task durations (ms) measured on the Exynos 5422 at block
# size 448: fast = Cortex-A15 lane, slow = Cortex-A7 lane, vc = A15+A7
# pair running the asymmetric kernels.
TABLE3_MS = {
    FAST: {TaskKind.G: 89.43, TaskKind.T: 48.27, TaskKind.S: 47.22,
           TaskKind.C: 94.49},
    SLOW: {TaskKind.G: 410.84, TaskKind.T: 216.70, TaskKind.S: 214.00,
           TaskKind.C: 137.65},
    VC: {TaskKind.G: 79.22, TaskKind.T: 42.99, TaskKind.S: 44.54,
         TaskKind.C: 83.96},
}

TABLE3_BLOCK = 448


def table3_ns(b: int) -> dict[str, dict[TaskKind, int]]:
    """Table 3 as integer ns per task at block size b, per resource kind.

    Block sizes other than 448 scale the measured means by (b/448)^3, a
    cubic-flop extrapolation: constant factors differ in reality but the
    fast/slow/vc ratios the comparisons need are preserved. Every entry
    is at least 1 ns.
    """
    if b < 1:
        raise ValueError("block size must be >= 1")
    scale = (b / TABLE3_BLOCK) ** 3
    return {res: {kind: max(1, int(round(ms * scale * 1e6)))
                  for kind, ms in row.items()}
            for res, row in TABLE3_MS.items()}


@dataclass(frozen=True)
class Resource:
    """A worker of run() or a resource of the simulated machine."""

    id: int
    kind: str  # FAST, SLOW or VC
    speed: float = 1.0  # read by speed-based cost models only

    def __post_init__(self):
        if self.speed <= 0:
            raise ValueError("resource speed must be positive")


class Table3CostModel:
    """Durations from the measured per-kind, per-resource means
    (table3_ns at block size b)."""

    def __init__(self, b: int = TABLE3_BLOCK):
        self.b = b
        self.table = table3_ns(b)

    def duration_ns(self, task: Task, resource: Resource) -> int:
        return self.table[resource.kind][task.kind]


def fastest_ns(g: TaskGraph, resources: list[Resource],
               cost) -> dict[TaskKind, int]:
    """Each task kind of g mapped to its duration on its fastest resource.

    Relies on the cost-model contract: a task is priced by its kind and
    the resource alone, so the first task of each kind stands for all of
    them and each (kind, resource) pair is probed once.
    """
    sample: dict[TaskKind, Task] = {}
    for t in g.tasks:  # stops once every kind is seen
        if sample.setdefault(t.kind, t) is t and len(sample) == len(TaskKind):
            break
    return {kind: min(cost.duration_ns(t, r) for r in resources)
            for kind, t in sample.items()}


@dataclass(frozen=True)
class Policy:
    kind: str = OBLIVIOUS
    cats_threshold: float = 0.9
    stealing: str = "bi"  # none | uni | bi

    def __post_init__(self):
        if self.kind not in POLICIES:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not 0.0 <= self.cats_threshold <= 1.0:
            raise ValueError("cats_threshold must lie in [0, 1]")
        if self.stealing not in ("none", "uni", "bi"):
            raise ValueError(f"unknown stealing mode {self.stealing!r}")


class ReadyPool:
    """Policy-driven selection among ready tasks.

    Not thread-safe on its own; the runtime serializes access under its
    scheduler lock, the simulator is single-threaded.

    Ready tasks sit in two heaps, non-critical and critical. FIFO policies
    keep every task in the first, keyed by (enable event, id). CATS keys
    both by (-bottom level, id) and classifies tasks statically: a task is
    critical iff its bottom level is at least threshold times the largest
    bottom level in the whole DAG (longest-path membership, the
    criticality notion of the criticality-aware scheduler this models).
    Critical tasks are reserved for fast lanes; stealing relaxes the split
    in one or both directions.
    """

    def __init__(self, policy: Policy, priorities: Optional[list[float]] = None):
        self.policy = policy
        self.priorities = priorities
        self._noncrit: list[tuple] = []
        self._crit: list[tuple] = []
        self._cut = 0.0
        self._fifo = policy.kind != CATS
        if not self._fifo:
            if priorities is None:
                raise ValueError("CATS requires bottom-level priorities")
            self._cut = policy.cats_threshold * max(priorities, default=0.0)

    def __len__(self) -> int:
        return len(self._noncrit) + len(self._crit)

    def push(self, task_id: int, event_seq: int) -> None:
        if self._fifo:
            heapq.heappush(self._noncrit, (event_seq, task_id))
            return
        bl = self.priorities[task_id]
        heap = self._crit if bl >= self._cut else self._noncrit
        heapq.heappush(heap, (-bl, task_id))

    def _allowed_heap(self, resource: str, idle_fast: int) -> Optional[list]:
        """The nonempty heap a worker of this resource kind may take from.

        OBLIVIOUS/VC take the FIFO heap. CATS serves fast lanes from the
        critical heap and slow lanes from the non-critical one;
        uni-directional stealing lets fast lanes drain the non-critical
        heap, bi-directional stealing additionally lets a slow lane take
        critical work when no fast worker is idle.
        """
        if self._fifo:
            return self._noncrit or None
        stealing = self.policy.stealing
        if resource == FAST:
            if self._crit:
                return self._crit
            return self._noncrit if self._noncrit and stealing != "none" else None
        if self._noncrit:
            return self._noncrit
        if self._crit and stealing == "bi" and idle_fast == 0:
            return self._crit
        return None

    def can_select(self, resource: str, idle_fast: int = 0) -> bool:
        """Whether select() would currently return a task; non-mutating."""
        return self._allowed_heap(resource, idle_fast) is not None

    def select(self, resource: str, idle_fast: int = 0) -> Optional[int]:
        """Pop the next task for an idle worker of the given resource kind.

        FIFO policies pop in order of enabling, ties by task id; CATS pops
        the highest bottom level of the allowed heap, ties by task id.
        """
        heap = self._noncrit if self._fifo else self._allowed_heap(resource, idle_fast)
        return heapq.heappop(heap)[1] if heap else None


# Raised by SchedulerCore.select, in run() and sim.simulate() alike.
STALLED = "scheduling stalled: no worker may take any ready task under this policy"


class SchedulerCore:
    """The dispatch protocol run() and simulate() share.

    Owns the indegree counters, the ready pool, the busy workers and one
    (worker, task id, start_ns, end_ns) record per completed task, whose
    count orders enable events. Deterministic and not thread-safe: run()
    calls it under its scheduler lock, simulate() runs drain().

    workers are the resources, all idle at first; the core keeps them and
    their kinds by id. ValueError unless there is at least one worker, the
    ids are distinct and the policy suits the kinds: the VC policy iff
    every kind is VC (VC pairs, the VC machine view), oblivious and CATS
    on fast/slow lanes only, and CATS with at least one fast lane. CATS
    ranks tasks by bottom levels over each kind's duration on the fastest
    fast worker under the cost model (a duration_ns(task, resource)
    object), without which the ReadyPool raises ValueError; g keeps the
    latest ranking (kind_bottom_levels), so repeated runs rank it once.
    """

    def __init__(self, g: TaskGraph, policy: Policy, workers: list[Resource],
                 cost=None):
        if not workers:
            raise ValueError("at least one worker is required")
        self.resources = {w.id: w for w in workers}
        self.workers = {i: w.kind for i, w in self.resources.items()}
        if len(self.workers) != len(workers):
            raise ValueError("worker ids must be distinct")
        self.kinds = kinds = set(self.workers.values())
        if (policy.kind == VC_POLICY) != (kinds == {VC}):
            raise ValueError("VC policy requires the VC machine view and vice versa")
        if policy.kind != VC_POLICY and not kinds <= {FAST, SLOW}:
            raise ValueError(f"{policy.kind} policy requires fast/slow lane workers")
        if policy.kind == CATS and FAST not in kinds:
            raise ValueError("CATS requires at least one fast worker")
        self.g = g
        priorities = None
        if policy.kind == CATS and cost is not None:
            fast = fastest_ns(g, [w for w in workers if w.kind == FAST], cost)
            priorities = kind_bottom_levels(g, fast)
        self.pool = ReadyPool(policy, priorities)
        self.indegree = list(g.indegree)
        self.busy: set[int] = set()
        self.idle_fast = sum(w.kind == FAST for w in workers)
        self.records: list[tuple[int, int, int, int]] = []
        for tid, deg in enumerate(self.indegree):
            if deg == 0:
                self.pool.push(tid, 0)

    @property
    def done(self) -> bool:
        return len(self.records) == len(self.g.tasks)

    def select(self, worker_id: int) -> Optional[int]:
        """The next task for an idle worker, which then counts as busy.

        None if the policy gives this worker nothing now. RuntimeError
        (STALLED) if no worker runs a task and no worker kind may take any
        ready task before the run is done: nothing can become ready then
        (e.g. CATS without stealing and no slow lane).
        """
        kind, idle_fast = self.workers[worker_id], self.idle_fast
        tid = self.pool.select(kind, idle_fast)
        if tid is not None:
            self.busy.add(worker_id)
            if kind == FAST:
                self.idle_fast = idle_fast - 1
        elif not self.busy and not self.done:
            self._raise_if_stalled(idle_fast)
        return tid

    def _raise_if_stalled(self, idle_fast: int) -> None:
        """STALLED unless some worker kind may take a ready task now."""
        if not any(self.pool.can_select(k, idle_fast) for k in self.kinds):
            raise RuntimeError(STALLED)

    def complete(self, worker_id: int, tid: int, start_ns: int,
                 end_ns: int) -> None:
        """Record worker's run of tid, mark it idle, enable what tid released."""
        self.busy.remove(worker_id)
        if self.workers[worker_id] == FAST:
            self.idle_fast += 1
        self.records.append((worker_id, tid, start_ns, end_ns))
        indegree, push, seq = self.indegree, self.pool.push, len(self.records)
        for succ in self.g.successors[tid]:
            indegree[succ] -= 1
            if not indegree[succ]:
                push(succ, seq)

    def drain(self, cost) -> int:
        """Run a fresh core in simulated time; return the makespan, ns. Each
        pass selects for the idle workers in ascending id order, prices each
        pick by cost.duration_ns (ValueError unless positive), then completes
        the earliest ends in (end, worker id) order: select() and complete()
        with the counts in locals, so the core ends the same."""
        tasks, successors, indegree = self.g.tasks, self.g.successors, self.indegree
        records, select, push = self.records, self.pool.select, self.pool.push
        kinds, by_id, duration = self.workers, self.resources, cost.duration_ns
        idle, running, idle_fast, now = sorted(kinds), [], self.idle_fast, 0
        while len(records) < len(tasks):
            waiting = []
            for w in idle:
                tid = select(kinds[w], idle_fast)
                if tid is None:
                    if not running:  # no worker is busy
                        self._raise_if_stalled(idle_fast)
                    waiting.append(w)
                    continue
                idle_fast -= kinds[w] == FAST
                dur = duration(tasks[tid], by_id[w])
                if dur <= 0:
                    raise ValueError("cost model produced a non-positive duration")
                heapq.heappush(running, (now + dur, w, tid, now))
            idle, now = waiting, running[0][0]
            while running and running[0][0] == now:
                _, w, tid, start = heapq.heappop(running)
                idle_fast += kinds[w] == FAST
                records.append((w, tid, start, now))
                bisect.insort(idle, w)
                for succ in successors[tid]:
                    indegree[succ] -= 1
                    if not indegree[succ]:
                        push(succ, len(records))
        return now

    def trace(self, wall_start: int, wall_end: int) -> Trace:
        """The trace of every completed task, workers in the given order."""
        return Trace.collect(self.g.tasks, self.records, wall_start, wall_end,
                             list(self.workers))


def make_workers(policy_kind: str, count: int) -> list[Resource]:
    """Conventional worker set: VC pairs, or half fast / half slow lanes."""
    if count < 1:
        raise ValueError("worker count must be >= 1")
    if policy_kind == VC_POLICY:
        return [Resource(i, VC) for i in range(count)]
    nfast = (count + 1) // 2
    return [Resource(i, FAST if i < nfast else SLOW) for i in range(count)]


def default_priority_cost(b: int) -> Callable[[Task], float]:
    """Fast-core Table-3 ns per task, the cost CATS ranks tasks by at b.

    Kept only for perfbench, which times bottom levels over it; run()
    and simulate() reach the same integers through Table3CostModel(b)
    and SchedulerCore.
    """
    fast = table3_ns(b)[FAST]
    return lambda t: fast[t.kind]


def run(g: TaskGraph, bm: BlockedMatrix, policy: Policy,
        workers: list[Resource],
        task_hook: Optional[Callable[[Task, Resource], None]] = None,
        ) -> tuple[BlockedMatrix, Trace]:
    """Execute every task of g exactly once over bm's blocks.

    Returns the factored matrix (upper blocks hold U) and the trace.
    ValueError, before any thread starts, unless g has as many tasks as the
    Cholesky DAG on bm's block grid. Only the upper triangle of bm is read,
    as LAPACK does with uplo 'U'. A non-positive-definite diagonal block, a
    NaN included, aborts outstanding work and the raised error carries the
    global pivot index and the partial trace.
    """
    if len(g.tasks) != sum(task_counts(bm.s).values()):
        raise ValueError(f"a {len(g.tasks)}-task graph does not match the "
                         f"{bm.s}x{bm.s} block grid of the matrix")
    core = SchedulerCore(g, policy, workers, Table3CostModel(bm.b))
    cond = threading.Condition(lock := threading.Lock())  # hot path: lock, not cond
    error, waiting = None, 0  # under lock: the first failure, cond waiters
    tasks, records, ntasks, blk = g.tasks, core.records, len(g.tasks), bm.blocks
    select, complete, pool = core.select, core.complete, core.pool
    clock, (G, T, S) = time.perf_counter_ns, (TaskKind.G, TaskKind.T, TaskKind.S)

    def body(task: Task, worker: Resource, vc: bool) -> None:
        if task_hook is not None:
            task_hook(task, worker)
        # G first, as most tasks are G tasks. VC pairs split each call
        # across both lanes; lane workers run the sequential kernel.
        kind, k, i, j = task.kind, task.k, task.i, task.j
        if kind == G:
            gemm = kernels.gemm_asym if vc else kernels.gemm_blocked
            gemm(blk[k][i], blk[k][j], blk[i][j])
        elif kind == T:
            trsm = kernels.trsm_asym if vc else kernels.trsm_blocked
            trsm(blk[k][k], blk[k][j])
        elif kind == S:
            syrk = kernels.syrk_asym if vc else kernels.syrk_blocked
            syrk(blk[k][i], blk[i][i])
        else:  # TaskKind.C
            try:
                blk[k][k] = dense.ref_potrf(blk[k][k])
            except NotPositiveDefiniteError as exc:
                raise NotPositiveDefiniteError(
                    k * bm.b + exc.index,
                    f"block ({k},{k}) not positive definite at local pivot "
                    f"{exc.index}") from exc

    def worker_loop(worker: Resource) -> None:
        # One hold of lock completes a task and selects the next. A VC worker
        # keeps one slow-lane thread, joined when the loop ends, failed or not.
        nonlocal error, waiting
        wid, vc, tid = worker.id, worker.kind == VC, None
        try:
            with kernels.lane_pair() if vc else contextlib.nullcontext():
                while True:
                    with lock:
                        if tid is not None:
                            complete(wid, tid, start, end)
                            if waiting and (pool or len(records) == ntasks):
                                waiting = 0
                                cond.notify_all()
                        while error is None and len(records) < ntasks:
                            tid = select(wid)
                            if tid is not None:
                                break
                            waiting += 1
                            cond.wait()
                        else:  # done, or another worker failed
                            return
                    start = clock()
                    body(tasks[tid], worker, vc)
                    end = clock()
        except BaseException as exc:  # run() re-raises it after the join
            with lock:  # the first failure wins; wake every waiter to stop
                if error is None:
                    error = exc
                cond.notify_all()

    wall_start = time.perf_counter_ns()
    threads = [threading.Thread(target=worker_loop, args=(w,)) for w in workers]
    with kernels.single_blas_thread():
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    wall_end = time.perf_counter_ns()

    trace = core.trace(wall_start, wall_end)
    if error is not None:
        error.trace = trace
        raise error
    return bm, trace


def gflops(n: int, seconds: float) -> float:
    """Cholesky GFLOPS rate, (n^3 / 3) / seconds / 1e9."""
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    return (n ** 3 / 3.0) / seconds / 1e9
