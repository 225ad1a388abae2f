"""Deterministic discrete-event simulator for an asymmetric machine.

Replays a task graph under the same scheduling policies as the threaded
runtime, with task durations taken from a cost model instead of measured.
The event loop is the runtime's SchedulerCore.drain, so dependency
release, enable-event ordering, every ReadyPool decision, the policy
check on resource kinds, the idle count CATS stealing reads, the stall
error and the trace records follow the protocol the threads run. Time is
integer nanoseconds; each pass visits the idle resources in ascending id
order, so identical inputs give bitwise identical results, recorded as
the same Trace (:mod:`ampsched.trace`) that a native run gives.

A cost model is any object with ``duration_ns(task, resource)``, and it
prices a task by its kind and the resource alone. So the core, ranking
CATS tasks, and the lower bounds probe it once per (task kind, resource)
pair (runtime.fastest_ns), while drain() asks it once per dispatched
task. Resources, the Table 3 cost model and fastest_ns are the runtime's
own, re-exported here. Replays pause the cyclic collector.
"""

from __future__ import annotations

from dataclasses import dataclass

from .runtime import (FAST, SLOW, TABLE3_BLOCK, TABLE3_MS, VC, Policy,
                      Resource, SchedulerCore, Table3CostModel, fastest_ns)
from .taskgraph import (Task, TaskGraph, TaskKind, _collector_paused,
                        critical_path)
from .trace import Trace, idle_stats

GTS = "gts"
VC_VIEW = "vc"


@dataclass(frozen=True)
class MachineModel:
    """Physical cores plus the view the scheduler sees.

    GTS exposes every core as its own resource; the VC view pairs each
    fast core with a slow core into one virtual-core resource whose speed
    is the pair sum.
    """

    cores: tuple  # of (kind, speed)
    view: str = GTS

    def __post_init__(self):
        if self.view not in (GTS, VC_VIEW):
            raise ValueError(f"unknown machine view {self.view!r}")

    def resources(self) -> list[Resource]:
        if not self.cores:
            raise ValueError("a machine model needs at least one core")
        if self.view == GTS:
            return [Resource(i, kind, speed)
                    for i, (kind, speed) in enumerate(self.cores)]
        fast = [c for c in self.cores if c[0] == FAST]
        slow = [c for c in self.cores if c[0] == SLOW]
        if len(fast) != len(slow) or 2 * len(fast) != len(self.cores):
            raise ValueError("VC view requires only fast and slow cores, "
                             "in equal counts")
        return [Resource(i, VC, f[1] + s[1])
                for i, (f, s) in enumerate(zip(fast, slow))]


# Fast/slow gemm throughput ratio implied by the table: the fast cores'
# speed in the Exynos model. The native dual-lane kernels need no ratio:
# their lanes share slabs from one deque.
FAST_SLOW_RATIO = TABLE3_MS[SLOW][TaskKind.G] / TABLE3_MS[FAST][TaskKind.G]


def task_flops(kind: TaskKind, b: int) -> float:
    """Nominal flop count of one b-sized task; all kinds scale as b^3."""
    if kind == TaskKind.C:
        return b ** 3 / 3.0
    if kind == TaskKind.G:
        return 2.0 * b ** 3
    return float(b ** 3)  # T and S


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


def preset_exynos5422(view: str = GTS, b: int = TABLE3_BLOCK,
                      ) -> tuple[MachineModel, Table3CostModel]:
    """4 slow + 4 fast cores with the measured per-task cost table.

    Slow cores take resource ids 0-3 in the GTS view, matching the Exynos
    5422 cpu numbering (the Cortex-A7 cluster is cpu0-3). The assignment
    tie rule (ascending id) therefore hands work to slow cores first when
    several cores are idle, which is what makes a resource-oblivious
    scheduler lose ground as the slow cluster is brought online.
    """
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
        stats = idle_stats(self.trace)
        return {rid: s["idle"] for rid, s in stats.items()}


@_collector_paused
def simulate(g: TaskGraph, machine: MachineModel, cost,
             policy: Policy) -> SimResult:
    """Event-driven replay of g on the modeled machine. Fully deterministic."""
    core = SchedulerCore(g, policy, machine.resources(), cost)
    now = core.drain(cost)
    return SimResult(now, core.trace(0, now))


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
