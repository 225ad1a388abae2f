"""Task DAG construction for the blocked Cholesky factorization.

The builder replays a sequential program, registering each task with the
block coordinates it reads and writes (the in/out/inout directionality
mechanism). Dependencies are derived with last-writer tracking:

* read-after-write and write-after-write: edge from the last writer of
  every accessed block;
* write-after-read: edges from all readers since that writer.

The edge set is kept unreduced; scheduling only needs a superset of the
true constraints and the unreduced relation is what the pairwise oracle
in the test suite reproduces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable


class TaskKind(str, Enum):
    C = "C"  # po_cholesky: factor a diagonal block
    T = "T"  # tr_solve: triangular solve of a panel block
    G = "G"  # ge_multiply: matrix-multiply trailing update
    S = "S"  # sy_update: symmetric rank-b update of a diagonal block


@dataclass
class Task:
    id: int
    kind: TaskKind
    k: int
    i: int
    j: int
    reads: frozenset
    writes: frozenset

    @property
    def target(self) -> tuple[int, int]:
        (blk,) = self.writes
        return blk


@dataclass
class TaskGraph:
    tasks: list[Task]
    edges: list[tuple[int, int]]
    successors: list[list[int]] = field(init=False)  # derived from edges
    indegree: list[int] = field(init=False)

    def __post_init__(self):
        self.successors = [[] for _ in self.tasks]
        self.indegree = [0] * len(self.tasks)
        for p, q in self.edges:
            self.successors[p].append(q)
            self.indegree[q] += 1


class TaskGraphBuilder:
    """Sequential-order task registration with dependency tracking."""

    def __init__(self):
        self._tasks: list[Task] = []
        self._edges: list[tuple[int, int]] = []
        self._last_writer: dict = {}
        self._readers: dict = {}

    def register_task(self, kind: TaskKind, reads, writes,
                      k: int = -1, i: int = -1, j: int = -1) -> int:
        reads = frozenset(reads)
        writes = frozenset(writes)
        if len(writes) != 1:
            raise ValueError("a task must write exactly one block")
        tid = len(self._tasks)
        deps = set()
        for blk in reads | writes:
            w = self._last_writer.get(blk)
            if w is not None:
                deps.add(w)
        for blk in writes:
            deps.update(self._readers.get(blk, ()))
        for d in sorted(deps):
            self._edges.append((d, tid))
        for blk in reads:
            self._readers.setdefault(blk, []).append(tid)
        for blk in writes:
            self._last_writer[blk] = tid
            self._readers[blk] = []
        self._tasks.append(Task(tid, kind, k, i, j, reads, writes))
        return tid

    def build(self) -> TaskGraph:
        return TaskGraph(self._tasks, self._edges)


def build_cholesky_dag(s: int) -> TaskGraph:
    """Replay the right-looking blocked Cholesky loop nest for s block rows."""
    if s < 1:
        raise ValueError("block count must be >= 1")
    b = TaskGraphBuilder()
    for k in range(s):
        b.register_task(TaskKind.C, reads={(k, k)}, writes={(k, k)}, k=k, i=k, j=k)
        for j in range(k + 1, s):
            b.register_task(TaskKind.T, reads={(k, k), (k, j)}, writes={(k, j)},
                            k=k, i=k, j=j)
        for i in range(k + 1, s):
            b.register_task(TaskKind.S, reads={(k, i), (i, i)}, writes={(i, i)},
                            k=k, i=i, j=i)
            for j in range(i + 1, s):
                b.register_task(TaskKind.G, reads={(k, i), (k, j), (i, j)},
                                writes={(i, j)}, k=k, i=i, j=j)
    return b.build()


def task_counts(s: int) -> dict[TaskKind, int]:
    """Closed-form per-kind task counts of the s-block Cholesky DAG."""
    if s < 1:
        raise ValueError("block count must be >= 1")
    return {
        TaskKind.C: s,
        TaskKind.T: s * (s - 1) // 2,
        TaskKind.S: s * (s - 1) // 2,
        TaskKind.G: s * (s - 1) * (s - 2) // 6,
    }


def bottom_levels(g: TaskGraph, cost: Callable[[Task], float]) -> list[float]:
    """Longest-path-to-sink priority of every task, inclusive of itself.

    Task ids are a topological order by construction (edges go from lower
    to higher id), so a single reverse sweep suffices.
    """
    bl = [0.0] * len(g.tasks)
    for t in reversed(g.tasks):
        succ_max = max((bl[q] for q in g.successors[t.id]), default=0.0)
        bl[t.id] = cost(t) + succ_max
    return bl


def critical_path(g: TaskGraph, cost: Callable[[Task], float]) -> float:
    """Longest weighted path through the DAG; a schedule lower bound."""
    bl = bottom_levels(g, cost)
    return max(bl) if bl else 0.0


def export_dot(g: TaskGraph) -> str:
    """Render the DAG in DOT format, deterministically ordered by id."""
    lines = ["digraph tasks {"]
    for t in g.tasks:
        i, j = t.target
        lines.append(f'  t{t.id} [label="{t.kind.value}[{i},{j}] k={t.k}"];')
    for p, q in sorted(g.edges):
        lines.append(f"  t{p} -> t{q};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: TaskGraph) -> str:
    """Serialize tasks and edges for standalone simulator ingestion."""
    doc = {
        "tasks": [
            {
                "id": t.id,
                "kind": t.kind.value,
                "k": t.k,
                "i": t.i,
                "j": t.j,
                "reads": sorted(list(blk) for blk in t.reads),
                "writes": sorted(list(blk) for blk in t.writes),
            }
            for t in g.tasks
        ],
        "edges": [list(e) for e in g.edges],
    }
    return json.dumps(doc, indent=1)


def from_json(text: str) -> TaskGraph:
    """Parse to_json output; ValueError if malformed."""
    doc = json.loads(text)
    try:
        tasks = [Task(
            id=int(rec["id"]),
            kind=TaskKind(rec["kind"]),
            k=int(rec["k"]),
            i=int(rec["i"]),
            j=int(rec["j"]),
            reads=frozenset(tuple(blk) for blk in rec["reads"]),
            writes=frozenset(tuple(blk) for blk in rec["writes"]),
        ) for rec in doc["tasks"]]
        edges = [(int(p), int(q)) for p, q in doc["edges"]]
    except (KeyError, TypeError) as exc:  # a missing key or a wrong type
        raise ValueError(f"malformed task graph: {exc}") from exc
    if any(len(t.writes) != 1 for t in tasks):
        raise ValueError("a task must write exactly one block")
    if [t.id for t in tasks] != list(range(len(tasks))):
        raise ValueError("task ids must be dense and in order")
    for p, q in edges:
        if not 0 <= p < q < len(tasks):
            raise ValueError(f"edge ({p}, {q}) violates sequential order")
    return TaskGraph(tasks, edges)
