"""Shared test helpers: random DAGs, lane pairs, timeouts and acceptance reporting."""

import gc
import re
import threading

import numpy as np
import pytest

from ampsched import kernels
from ampsched.taskgraph import TaskGraph, TaskGraphBuilder, TaskKind

KINDS = [TaskKind.C, TaskKind.T, TaskKind.S, TaskKind.G]


def random_task_graph(rng: np.random.Generator, max_nodes: int = 60,
                      grid: int = 4) -> TaskGraph:
    """A random but well-formed DAG built through the dependency tracker.

    Each task reads a few random blocks of a small grid and writes one,
    so the resulting graph has realistic fan-in/fan-out and its ids are a
    topological order by construction.
    """
    builder = TaskGraphBuilder()
    n_tasks = int(rng.integers(1, max_nodes + 1))
    blocks = [(i, j) for i in range(grid) for j in range(grid)]
    for _ in range(n_tasks):
        kind = KINDS[int(rng.integers(len(KINDS)))]
        write = blocks[int(rng.integers(len(blocks)))]
        n_reads = int(rng.integers(0, 4))
        reads = {blocks[int(rng.integers(len(blocks)))] for _ in range(n_reads)}
        builder.register_task(kind, reads=reads, write=write)
    return builder.build()


class FixedCostModel:
    """Hand-picked simulator durations in ns.

    The table maps a resource kind to one duration for every task kind,
    or to a {TaskKind: ns} dict.
    """

    def __init__(self, table: dict):
        self.table = table

    def duration_ns(self, task, resource) -> int:
        entry = self.table[resource.kind]
        d = entry[task.kind] if isinstance(entry, dict) else entry
        if d <= 0:
            raise ValueError("durations must be positive")
        return int(d)


def check_trace_legality(g: TaskGraph, trace) -> None:
    """Every task exactly once; every edge finishes before its successor starts."""
    seen = sorted(e.task for e in trace.events)
    assert seen == list(range(len(g.tasks))), "tasks must each run exactly once"
    start = {e.task: e.start_ns for e in trace.events}
    end = {e.task: e.end_ns for e in trace.events}
    for p, q in g.edges:
        assert end[p] <= start[q], f"edge ({p}, {q}) violated: " \
            f"pred ends {end[p]}, succ starts {start[q]}"


@pytest.fixture
def collector_state():
    """Restore the cyclic collector's on/off state after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def count_lane_pairs(monkeypatch):
    """Record every kernels.LanePair made and every handoff to its lane."""
    made, handoffs = [], []

    class Counted(kernels.LanePair):
        def __init__(self):
            super().__init__()
            made.append(self)

        def run(self, slow, fast):
            handoffs.append(self)
            super().run(slow, fast)

    monkeypatch.setattr(kernels, "LanePair", Counted)
    return made, handoffs


def on_slow_lane() -> bool:
    return threading.current_thread().name.startswith("slow-lane")


def meet_first(orig, m: int, on_lane=None):
    """Wrap a slab loop over m > MICRO_SLAB rows so that each call's first
    slab on the caller (0) and on the lane thread (the last) wait for each
    other: every call then gives the lane thread a slab. on_lane(), if
    given, runs before each slab on the lane thread."""
    last = (m - 1) // kernels.MICRO_SLAB * kernels.MICRO_SLAB
    meet = threading.Barrier(2, timeout=5)

    def run(*args):
        if args[-2] in (0, last):
            meet.wait()
        if on_lane and on_slow_lane():
            on_lane()
        orig(*args)
    return run


def run_with_timeout(fn, timeout: float = 20.0):
    """Call fn() in a daemon thread; fail the test if it has not returned in time.

    Returns fn's result or re-raises its exception, so a hang regression
    fails in seconds instead of blocking the whole suite.
    """
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:
            outcome["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout)
    if t.is_alive():
        pytest.fail(f"call did not return within {timeout} s")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


# ---------------------------------------------------------------------------
# Acceptance reporting: one unambiguous pass/fail line per criterion in the
# terminal summary, derived from the outcomes of tests/test_acceptance.py.

CRITERIA = {
    1: "numerical correctness and schedule-independent factors",
    2: "DAG structure vs enumeration and pairwise dependence oracle",
    3: "schedule legality under randomized execution jitter",
    4: "kernel equivalence against naive oracles",
    5: "simulator reproduction of asymmetric-machine findings",
    6: "makespan lower-bound property on fuzzed DAGs",
    7: "benchmark output schema and flop accounting",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            m = re.search(r"test_criterion_(\d+)", nodeid)
            if not m:
                continue
            num = int(m.group(1))
            prev = outcomes.get(num, "passed")
            if status != "passed" or prev != "passed":
                outcomes[num] = status if status != "passed" else prev
            else:
                outcomes[num] = "passed"
    if not outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(CRITERIA):
        if num not in outcomes:
            line = f"ACCEPTANCE {num}: NOT RUN — {CRITERIA[num]}"
            terminalreporter.write_line(line, yellow=True)
            continue
        ok = outcomes[num] == "passed"
        word = "PASS" if ok else "FAIL"
        line = f"ACCEPTANCE {num}: {word} — {CRITERIA[num]}"
        terminalreporter.write_line(line, green=ok, red=not ok)
