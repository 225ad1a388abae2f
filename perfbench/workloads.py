"""The three workloads and their measurement loops.

Every operation is one ``runtime.run`` (native workloads) or one
``sim.simulate`` call (``sim-exynos``). Policies are interleaved round by
round so that slow drift of the host hits all three alike. Each workload
runs two threads under every policy: oblivious and CATS get one fast and
one slow lane worker, VC gets one pair worker whose kernels start one lane
thread.
"""

from __future__ import annotations

import contextlib
import gc
import time
from statistics import fmean, median

from ampsched import dense, runtime, sim
from ampsched.runtime import CATS, OBLIVIOUS, VC_POLICY, Policy, make_workers
from ampsched.taskgraph import TaskKind, build_cholesky_dag

import checks
import spans

POLICIES = (OBLIVIOUS, CATS, VC_POLICY)
THREADS = 2
KINDS = tuple(k.value for k in TaskKind)

# Kernels each policy's task bodies call; trsm_asym runs trsm_blocked on
# both of its lanes.
POLICY_KERNELS = {
    OBLIVIOUS: ("gemm_blocked", "syrk_blocked", "trsm_blocked"),
    CATS: ("gemm_blocked", "syrk_blocked", "trsm_blocked"),
    VC_POLICY: ("gemm_asym", "syrk_asym", "trsm_asym", "trsm_blocked"),
}

SIZES = {
    "full": {"native-coarse": {"n": 2048, "b": 256},
             "native-fine": {"n": 160, "b": 4},
             "sim-exynos": {"s": 40, "b": 448}},
    "tiny": {"native-coarse": {"n": 64, "b": 16},
             "native-fine": {"n": 24, "b": 4},
             "sim-exynos": {"s": 6, "b": 448}},
}


def workers(policy: str) -> list:
    return make_workers(policy, 1 if policy == VC_POLICY else THREADS)


def repeat_setup(build, budget_s: float, min_reps: int = 5):
    """Call ``build`` at least ``min_reps`` times and for ``budget_s`` seconds.

    ``build`` returns (objects, timings). Returns the last objects and the
    median of each timing; medians keep set-up time steady on a host whose
    speed drifts. Only the last objects are kept alive.
    """
    timings: list[dict] = []
    t0 = time.perf_counter()
    while len(timings) < min_reps or time.perf_counter() - t0 < budget_s:
        gc.collect()
        objects, timing = build()
        timings.append(timing)
    return objects, {k: median([t[k] for t in timings]) for k in timings[0]}


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: " + "; ".join(problems))
        return not problems


def timed(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def median_time(fn, reps: int) -> float:
    return median([timed(fn)[0] for _ in range(reps)])


def _tracing(rec):
    return spans.installed(rec) if rec is not None else contextlib.nullcontext()


def _busy_by_kind(trace) -> dict[str, float]:
    busy = dict.fromkeys(KINDS, 0.0)
    for e in trace.events:
        busy[e.kind] += (e.end_ns - e.start_ns) / 1e9
    return busy


class Workload:
    """Shared measurement bookkeeping; subclasses define one operation."""

    # Metric-name prefixes of layers this workload does not run; they are
    # reported as zero.
    idle_layers: tuple[str, ...] = ()

    def __init__(self):
        self.tally = Tally()
        self.untraced: dict[str, list[dict]] = {p: [] for p in POLICIES}
        self.traced: dict[str, list[dict]] = {p: [] for p in POLICIES}
        self.first_spans: dict[str, list] = {}
        self.last_trace: dict[str, object] = {}

    def step(self, policy: str, traced: bool) -> None:
        rec = spans.Recorder() if traced else None
        # Start every operation from the same collector state. Otherwise a
        # full collection over the benchmark's own live objects lands in
        # every few operations, at a varying place.
        gc.collect()
        try:
            row = self.operation(policy, rec)
        except Exception as exc:  # counted as a failed operation
            self.tally.record(f"{policy}{' traced' if traced else ''}",
                              [f"raised {exc!r}"])
            return
        if row is None:
            return
        if traced:
            self.traced[policy].append(row)
            self.first_spans.setdefault(policy, rec.spans)
        else:
            self.untraced[policy].append(row)

    def measure(self, seconds: float, probe=None) -> dict[str, float]:
        """Warm up once per policy, then run rounds until the time is up.

        ``probe`` marks a traced run: it runs the isolated layer probes at
        the start of the measured time, so a traced run takes no longer
        than an untraced one, and every round adds a traced operation per
        policy. Returns what the probe measured.
        """
        traced = probe is not None
        for p in POLICIES:
            self.step(p, traced=False)
            self.untraced[p].clear()
        deadline = time.perf_counter() + seconds
        probed = probe() if traced and self.tally.failed == 0 else {}
        while True:
            for p in POLICIES:
                self.step(p, traced=False)
                if traced:
                    self.step(p, traced=True)
            if traced:
                self.after_traced_round()
            if time.perf_counter() >= deadline:
                return probed

    def after_traced_round(self) -> None:
        """Extra per-round layer timings of a traced run."""

    def end_to_end(self) -> dict[str, float]:
        out = {"setup_s": self.setup["setup_s"]}
        for p in POLICIES:
            out[f"run_s.{p}"] = self.mean_seconds(self.untraced[p])
        return out

    @staticmethod
    def mean_seconds(rows: list[dict]) -> float:
        """Seconds per operation over the whole run.

        The mean, not the median: this host switches between a fast and a
        slow speed for seconds at a time, and the median of a run flips
        between the two while the mean follows the share of time spent in
        each (see README.md).
        """
        return fmean(r["seconds"] for r in rows)

    def per_layer(self) -> dict[str, float]:
        out = {}
        for p in POLICIES:
            out[f"trace_overhead_frac.{p}"] = (
                self.mean_seconds(self.traced[p])
                / self.mean_seconds(self.untraced[p]) - 1.0)
            for rows in (self.untraced[p], self.traced[p]):
                for key in rows[0]:
                    if key != "seconds":
                        out[f"{key}.{p}"] = median([r[key] for r in rows])
        return out

    def samples(self) -> dict[str, int]:
        return {p: len(self.untraced[p]) for p in POLICIES}


class NativeWorkload(Workload):
    """``runtime.run`` of a blocked Cholesky on a real matrix."""

    idle_layers = ("sim.",)

    def __init__(self, n: int, b: int, seed: int, setup_budget_s: float):
        super().__init__()
        self.b = b

        def build():
            t_spd, a = timed(lambda: dense.make_spd(n, seed))
            t_dag, g = timed(lambda: build_cholesky_dag(-(-n // b)))
            t_fm, _ = timed(lambda: dense.BlockedMatrix.from_matrix(a, b))
            return (a, g), {"dense.make_spd_s": t_spd, "taskgraph.build_s": t_dag,
                            "dense.from_matrix_s": t_fm,
                            "setup_s": t_spd + t_dag + t_fm}

        (self.a, self.g), self.setup = repeat_setup(build, setup_budget_s)
        self.reference = None

    def priority_cost(self):
        """The cost CATS ranks tasks by inside ``runtime.run``."""
        return runtime.default_priority_cost(self.b)

    def operation(self, policy: str, rec) -> dict | None:
        bm = dense.BlockedMatrix.from_matrix(self.a, self.b)
        pol, ws = Policy(policy), workers(policy)
        with _tracing(rec):
            seconds, (bm, trace) = timed(lambda: runtime.run(self.g, bm, pol, ws))
        u = bm.upper_factor()
        problems = (checks.check_factor(self.a, u, self.reference)
                    + checks.check_trace(self.g, trace))
        if not self.tally.record(f"{policy} run", problems):
            return None
        if self.reference is None:
            self.reference = u
        self.last_trace[policy] = trace
        tasks = len(self.g.tasks)
        busy = _busy_by_kind(trace)
        total = sum(busy.values())
        if rec is None:
            wall = (trace.wall_end - trace.wall_start) / 1e9
            row = {"seconds": seconds,
                   "runtime.tasks_per_s": tasks / wall,
                   "runtime.busy_frac": total / (THREADS * wall),
                   "runtime.gap_us_per_task":
                       (len(ws) * wall - total) / tasks * 1e6}
            row.update({f"runtime.kind_share.{k}": v / total
                        for k, v in busy.items()})
            return row
        summary = spans.summarize(rec.spans)
        empty = {"calls": 0, "self_s": 0.0, "empty": 0}
        sel = summary[spans.SELECT]
        potrf = summary[spans.POTRF]
        row = {"seconds": seconds,
               "runtime.select.calls": sel["calls"],
               "runtime.select.empty_frac": sel["empty"] / sel["calls"],
               "runtime.select.self_us": sel["self_s"] / sel["calls"] * 1e6,
               "runtime.in_task_overhead_frac":
                   1.0 - spans.top_level_task_work_s(rec.spans) / total,
               "dense.ref_potrf.calls": potrf["calls"],
               "dense.ref_potrf.self_s": potrf["self_s"]}
        for fn in POLICY_KERNELS[policy]:
            k = summary.get(f"kernels.{fn}", empty)
            row[f"kernels.{fn}.calls"] = k["calls"]
            row[f"kernels.{fn}.self_s"] = k["self_s"]
        return row

    def per_layer(self) -> dict[str, float]:
        out = super().per_layer()
        # ref_potrf does the same C tasks under every policy; report it once.
        for key in ("dense.ref_potrf.calls", "dense.ref_potrf.self_s"):
            out[key] = median([r[key] for p in POLICIES for r in self.traced[p]])
            for p in POLICIES:
                del out[f"{key}.{p}"]
        for key in ("dense.make_spd_s", "dense.from_matrix_s",
                    "taskgraph.build_s"):
            out[key] = self.setup[key]
        return out


class SimWorkload(Workload):
    """``sim.simulate`` of the Cholesky DAG on the modeled Exynos 5422."""

    idle_layers = ("dense.", "kernels.", "blas.", "runtime.select.",
                   "runtime.tasks_per_s", "runtime.busy_frac",
                   "runtime.gap_us_per_task", "runtime.kind_share.",
                   "runtime.in_task_overhead_frac")

    def __init__(self, s: int, b: int, seed: int, setup_budget_s: float):
        super().__init__()
        del seed  # the modeled machine and the DAG have no random input

        def build():
            t_dag, g = timed(lambda: build_cholesky_dag(s))
            t_mach, machines = timed(lambda: {
                view: sim.preset_exynos5422(view, b)
                for view in (sim.GTS, sim.VC_VIEW)})
            return (g, machines), {"taskgraph.build_s": t_dag,
                                   "setup_s": t_dag + t_mach}

        (g, machines), self.setup = repeat_setup(build, setup_budget_s)
        self.g, self.machines = g, machines
        self.bounds = {}
        self.bounds_s: dict[str, list[float]] = {}
        for view, (machine, cost) in machines.items():
            t, self.bounds[view] = timed(
                lambda: sim.lower_bounds(g, machine, cost))
            self.bounds_s[view] = [t]
        self.makespan: dict[str, int] = {}

    @staticmethod
    def view(policy: str) -> str:
        return sim.VC_VIEW if policy == VC_POLICY else sim.GTS

    def priority_cost(self):
        """The cost CATS ranks tasks by inside ``sim.simulate``."""
        machine, model = self.machines[sim.GTS]
        fast = [r for r in machine.resources() if r.kind == runtime.FAST]
        return lambda t: float(min(model.duration_ns(t, r) for r in fast))

    def after_traced_round(self) -> None:
        for view, (machine, cost) in self.machines.items():
            t, _ = timed(lambda: sim.lower_bounds(self.g, machine, cost))
            self.bounds_s[view].append(t)

    def operation(self, policy: str, rec) -> dict | None:
        view = self.view(policy)
        machine, cost = self.machines[view]
        pol = Policy(policy)
        with _tracing(rec):
            seconds, result = timed(lambda: sim.simulate(self.g, machine, cost, pol))
        problems = checks.check_simulation(self.g, result, self.bounds[view],
                                           self.makespan.get(policy))
        if not self.tally.record(f"{policy} simulate", problems):
            return None
        self.makespan.setdefault(policy, result.makespan_ns)
        self.last_trace[policy] = result.trace
        tasks = len(self.g.tasks)
        if rec is None:
            idle = result.idle_fraction
            return {"seconds": seconds,
                    "sim.host_us_per_task": seconds / tasks * 1e6,
                    "sim.idle_frac": sum(idle.values()) / len(idle),
                    "sim.bound_gap":
                        result.makespan_ns / max(self.bounds[view]),
                    "sim.makespan_s": result.makespan_s}
        summary = spans.summarize(rec.spans)
        return {"seconds": seconds,
                "sim.select.calls": summary[spans.SELECT]["calls"],
                "sim.select.self_s": summary[spans.SELECT]["self_s"],
                "sim.cost.calls": summary[spans.COST]["calls"]}

    def per_layer(self) -> dict[str, float]:
        out = super().per_layer()
        out["taskgraph.build_s"] = self.setup["taskgraph.build_s"]
        for p in POLICIES:
            out[f"sim.lower_bounds_s.{p}"] = median(self.bounds_s[self.view(p)])
        return out


def make(name: str, size: str, seed: int, setup_budget_s: float) -> Workload:
    dims = SIZES[size][name]
    if name == "sim-exynos":
        return SimWorkload(dims["s"], dims["b"], seed, setup_budget_s)
    return NativeWorkload(dims["n"], dims["b"], seed, setup_budget_s)
