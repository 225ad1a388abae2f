"""Task DAG construction for the blocked Cholesky factorization.

The builder replays a sequential program, registering each task with the
one block it writes, its (i, j), and the blocks it reads (the in/out/inout
directionality mechanism). Dependencies are derived with last-writer tracking:

* read-after-write and write-after-write: edge from the last writer of
  every accessed block;
* write-after-read: edges from all readers since that writer.

Each edge p -> q is stored once, as q in p's successor list and one count
of q's indegree. Scheduling needs only a superset of the true constraints,
so edges stay unreduced. Builds pause the cyclic garbage collector.
"""

from __future__ import annotations

import functools
import gc
import json
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable


class TaskKind(str, Enum):
    C = "C"  # po_cholesky: factor a diagonal block
    T = "T"  # tr_solve: triangular solve of a panel block
    G = "G"  # ge_multiply: matrix-multiply trailing update
    S = "S"  # sy_update: symmetric rank-b update of a diagonal block


def _collector_paused(fn):
    """Run fn with Python's cyclic garbage collector paused.

    DAG builds and simulations allocate tracked containers per task, which
    every gen-0 collection would rescan, but make no reference cycles, so
    pausing loses nothing. The state is process-wide (no thread collects
    meanwhile) and is restored afterwards, also on error."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@dataclass
class Task:
    id: int
    kind: TaskKind
    k: int
    i: int
    j: int
    reads: frozenset


@dataclass
class TaskGraph:
    """Tasks in id order, a topological one; each edge p -> q stored once."""

    tasks: list[Task]
    successors: list[list[int]]  # successors[p]: each q after p, ascending
    indegree: list[int]  # indegree[q]: the number of such p
    _ranks: tuple = field(default=(), init=False, compare=False, repr=False)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Every edge (p, q) in registration order, by q and then p; derived
        from the successor lists on each access, which costs O(E)."""
        preds = [[] for _ in self.tasks]
        for p, succ in enumerate(self.successors):
            for q in succ:
                preds[q].append(p)
        return [(p, q) for q, ps in enumerate(preds) for p in ps]


class TaskGraphBuilder:
    """Sequential-order task registration with dependency tracking."""

    def __init__(self):
        self._graph = TaskGraph([], [], [])  # filled in place
        self._last_writer: dict = {}
        self._readers: defaultdict = defaultdict(list)  # since the last write

    def register_task(self, kind: TaskKind, reads, write, k: int = -1) -> int:
        """Add a task writing block write = (i, j) and reading reads; return its id."""
        if type(write) is not tuple or [*map(type, write)] != [int, int]:
            raise ValueError(f"a task writes one (i, j) block, not {write!r}")
        reads = frozenset(reads)
        last, readers, g = self._last_writer, self._readers, self._graph
        tid = len(g.tasks)
        deps = set(readers.get(write, ()))  # write after read
        deps.add(last.get(write))
        for blk in reads:
            deps.add(last.get(blk))
            readers[blk].append(tid)
        deps.discard(None)
        for d in deps:
            g.successors[d].append(tid)
        g.successors.append([])
        g.indegree.append(len(deps))
        last[write] = tid
        readers[write] = []
        g.tasks.append(Task(tid, kind, k, *write, reads))
        return tid

    def build(self) -> TaskGraph:
        return self._graph


@_collector_paused
def build_cholesky_dag(s: int) -> TaskGraph:
    """Replay the right-looking blocked Cholesky loop nest for s block rows."""
    if s < 1:
        raise ValueError("block count must be >= 1")
    b = TaskGraphBuilder()
    for k in range(s):
        b.register_task(TaskKind.C, reads={(k, k)}, write=(k, k), k=k)
        for j in range(k + 1, s):
            b.register_task(TaskKind.T, reads={(k, k), (k, j)}, write=(k, j), k=k)
        for i in range(k + 1, s):
            b.register_task(TaskKind.S, reads={(k, i), (i, i)}, write=(i, i), k=k)
            for j in range(i + 1, s):
                b.register_task(TaskKind.G, reads={(k, i), (k, j), (i, j)},
                                write=(i, j), k=k)
    return b.build()


def task_counts(s: int) -> dict[TaskKind, int]:
    """Closed-form per-kind task counts of the s-block Cholesky DAG."""
    if s < 1:
        raise ValueError("block count must be >= 1")
    pairs = s * (s - 1) // 2
    return {TaskKind.C: s, TaskKind.T: pairs, TaskKind.S: pairs,
            TaskKind.G: s * (s - 1) * (s - 2) // 6}


def bottom_levels(g: TaskGraph, cost: Callable[[Task], float]) -> list[float]:
    """Longest-path-to-sink priority of every task, inclusive of itself.

    Task ids are a topological order by construction (edges go from lower
    to higher id), so one reverse sweep, one cost(t) call per task, suffices.
    """
    bl = list(map(float, map(cost, g.tasks)))
    get = bl.__getitem__
    for tid, succ in zip(range(len(bl) - 1, -1, -1), reversed(g.successors)):
        if succ:
            bl[tid] += max(map(get, succ))
    return bl


def kind_bottom_levels(g: TaskGraph, ns: dict[TaskKind, float]) -> list[float]:
    """bottom_levels(g), each task costing ns[its kind]; g keeps the latest
    result by ns and task count (a builder may still add tasks to g)."""
    key = (len(g.tasks), frozenset(ns.items()))
    if not g._ranks or g._ranks[0] != key:
        g._ranks = (key, bottom_levels(g, lambda t: ns[t.kind]))
    return g._ranks[1]


def critical_path(g: TaskGraph, cost: Callable[[Task], float]) -> float:
    """Longest weighted path through the DAG; a schedule lower bound."""
    return max(bottom_levels(g, cost), default=0.0)


def export_dot(g: TaskGraph) -> str:
    """Render the DAG in DOT format, deterministically ordered by id."""
    nodes = [f'  t{t.id} [label="{t.kind.value}[{t.i},{t.j}] k={t.k}"];'
             for t in g.tasks]
    edges = [f"  t{p} -> t{q};"
             for p, succ in enumerate(g.successors) for q in succ]
    return "\n".join(["digraph tasks {", *nodes, *edges, "}"]) + "\n"


def to_json(g: TaskGraph) -> str:
    """Tasks and edges as a JSON document, an export like export_dot."""
    doc = {"tasks": [{"id": t.id, "kind": t.kind.value, "k": t.k, "i": t.i,
                      "j": t.j, "reads": sorted(map(list, t.reads))}
                     for t in g.tasks],
           "edges": g.edges}  # each (p, q) tuple is written as a list
    return json.dumps(doc, indent=1)
