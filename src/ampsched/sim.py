"""Deterministic discrete-event simulator for an asymmetric machine.

Replays a task graph under the same scheduling policies as the threaded
runtime, with task durations taken from a cost model instead of measured.
The event loop drives the runtime's own SchedulerCore, so dependency
release, enable-event ordering, every ReadyPool decision, the policy
check on resource kinds (check_worker_kinds) and the stall error are
the same code the threads run. Time is integer nanoseconds; ready-task
assignment within a simulation tick processes resources in ascending id
order, so identical inputs give bitwise identical results, recorded as
the same Trace (:mod:`ampsched.trace`) that a native run gives.

A cost model is any object with ``duration_ns(task, resource)``, and it
prices a task by its kind and the resource alone. So CATS priorities and
the lower bounds probe it once per (task kind, resource) pair
(fastest_ns), while the event loop asks it once per dispatched task.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .runtime import (CATS, FAST, SLOW, STALLED, TABLE3_BLOCK, TABLE3_MS, VC,
                      Policy, SchedulerCore, check_worker_kinds, table3_ns)
from .taskgraph import Task, TaskGraph, TaskKind, critical_path
from .trace import Trace, TraceEvent, idle_stats

GTS = "gts"
VC_VIEW = "vc"


@dataclass(frozen=True)
class Resource:
    id: int
    kind: str  # FAST, SLOW or VC
    speed: float

    def __post_init__(self):
        if self.speed <= 0:
            raise ValueError("resource speed must be positive")


@dataclass(frozen=True)
class MachineModel:
    """Physical cores plus the view the scheduler sees.

    GTS exposes every core as its own resource; the VC view pairs each
    fast core with a slow core into one virtual-core resource whose speed
    is the pair sum.
    """

    cores: tuple  # of (kind, speed)
    view: str = GTS

    def resources(self) -> list[Resource]:
        if not self.cores:
            raise ValueError("a machine model needs at least one core")
        if self.view == GTS:
            return [Resource(i, kind, speed)
                    for i, (kind, speed) in enumerate(self.cores)]
        if self.view != VC_VIEW:
            raise ValueError(f"unknown machine view {self.view!r}")
        fast = [c for c in self.cores if c[0] == FAST]
        slow = [c for c in self.cores if c[0] == SLOW]
        if len(fast) != len(slow):
            raise ValueError("VC view requires equal fast and slow core counts")
        return [Resource(i, VC, f[1] + s[1])
                for i, (f, s) in enumerate(zip(fast, slow))]


# Fast/slow gemm throughput ratio implied by the table: the fast cores'
# speed in the Exynos model. kernels.LaneConfig's 4.59 is this, rounded.
FAST_SLOW_RATIO = TABLE3_MS[SLOW][TaskKind.G] / TABLE3_MS[FAST][TaskKind.G]


def task_flops(kind: TaskKind, b: int) -> float:
    """Nominal flop count of one b-sized task; all kinds scale as b^3."""
    if kind == TaskKind.C:
        return b ** 3 / 3.0
    if kind == TaskKind.G:
        return 2.0 * b ** 3
    return float(b ** 3)  # T and S


class Table3CostModel:
    """Durations from the measured per-kind, per-resource means
    (runtime.table3_ns at block size b)."""

    def __init__(self, b: int = TABLE3_BLOCK):
        self.b = b
        self.table = table3_ns(b)

    def duration_ns(self, task: Task, resource: Resource) -> int:
        return self.table[resource.kind][task.kind]


class FlopsCostModel:
    """duration = task flops / (resource speed * base rate)."""

    def __init__(self, b: int, base_flops_per_s: float = 1e9):
        if b < 1 or base_flops_per_s <= 0:
            raise ValueError("invalid flops cost model parameters")
        self.b = b
        self.base = base_flops_per_s

    def duration_ns(self, task: Task, resource: Resource) -> int:
        seconds = task_flops(task.kind, self.b) / (resource.speed * self.base)
        return max(1, int(round(seconds * 1e9)))


def fastest_ns(g: TaskGraph, resources: list[Resource],
               cost) -> dict[TaskKind, int]:
    """Each task kind of g mapped to its duration on its fastest resource.

    Relies on the cost-model contract: a task is priced by its kind and
    the resource alone, so one task of each kind stands for all of them
    and each (kind, resource) pair is probed once.
    """
    sample = {t.kind: t for t in g.tasks}
    return {kind: min(cost.duration_ns(t, r) for r in resources)
            for kind, t in sample.items()}


def preset_exynos5422(view: str = GTS, b: int = TABLE3_BLOCK,
                      ) -> tuple[MachineModel, Table3CostModel]:
    """4 slow + 4 fast cores with the measured per-task cost table.

    Slow cores take resource ids 0-3 in the GTS view, matching the Exynos
    5422 cpu numbering (the Cortex-A7 cluster is cpu0-3). The assignment
    tie rule (ascending id) therefore hands work to slow cores first when
    several cores are idle, which is what makes a resource-oblivious
    scheduler lose ground as the slow cluster is brought online.
    """
    if view not in (GTS, VC_VIEW):
        raise ValueError(f"unknown machine view {view!r}")
    cores = tuple([(SLOW, 1.0)] * 4 + [(FAST, FAST_SLOW_RATIO)] * 4)
    return MachineModel(cores, view), Table3CostModel(b)


@dataclass
class SimResult:
    makespan_ns: int
    trace: Trace

    @property
    def makespan_s(self) -> float:
        return self.makespan_ns / 1e9

    @property
    def idle_fraction(self) -> dict[int, float]:
        """Idle share of the makespan per resource id."""
        stats = idle_stats(self.trace, max(self.makespan_ns, 1))
        return {rid: s["idle"] for rid, s in stats.items()}


def simulate(g: TaskGraph, machine: MachineModel, cost,
             policy: Policy) -> SimResult:
    """Event-driven replay of g on the modeled machine. Fully deterministic."""
    resources = machine.resources()
    check_worker_kinds(policy, {r.kind for r in resources})

    # CATS ranks tasks by fast-resource durations; no other policy asks.
    fast = (fastest_ns(g, [r for r in resources if r.kind == FAST], cost)
            if policy.kind == CATS else {})
    core = SchedulerCore(g, policy, lambda t: float(fast[t.kind]))

    free = {r.id for r in resources}
    by_id = {r.id: r for r in resources}
    running: list[tuple[int, int, int, int]] = []  # (finish, rid, tid, start)
    events: list[TraceEvent] = []
    now = 0

    while not core.done:
        for rid in sorted(free):
            res = by_id[rid]
            idle_fast = sum(1 for r in free
                            if r != rid and by_id[r].kind == FAST)
            tid = core.select(res.kind, idle_fast)
            if tid is None:
                continue
            dur = cost.duration_ns(g.tasks[tid], res)
            if dur <= 0:
                raise ValueError("cost model produced a non-positive duration")
            heapq.heappush(running, (now + dur, rid, tid, now))
            free.discard(rid)
        if not running:
            raise RuntimeError(STALLED)
        # Entries finishing together pop in resource-id order, and a
        # resource runs one task at a time.
        now = running[0][0]
        while running and running[0][0] == now:
            _, rid, tid, start = heapq.heappop(running)
            events.append(TraceEvent.of(rid, g.tasks[tid], start, now))
            free.add(rid)
            core.complete(tid)

    return SimResult(now, Trace.collect(events, 0, now, [r.id for r in resources]))


def lower_bounds(g: TaskGraph, machine: MachineModel, cost) -> tuple[int, int]:
    """(critical-path bound, work bound) valid for any schedule.

    Both use each task's duration on its fastest resource; the work bound
    divides the total by the resource count, which stays valid on
    asymmetric machines (each resource can only run one task at a time
    and no task runs faster than on its best resource).
    """
    resources = machine.resources()
    dmin = fastest_ns(g, resources, cost)
    cp = int(critical_path(g, lambda t: dmin[t.kind]))
    work = -(-sum(dmin[t.kind] for t in g.tasks) // len(resources))
    return cp, work
