"""Task DAG construction for the blocked Cholesky factorization.

The builder replays a sequential program, registering each task with the
one block it writes, its (i, j), and the blocks it reads (the in/out/inout
directionality mechanism). Dependencies are derived with last-writer tracking:

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

    def register_task(self, kind: TaskKind, reads, write, k: int = -1) -> int:
        """Add a task writing block write = (i, j) and reading reads; return its id."""
        if type(write) is not tuple or [*map(type, write)] != [int, int]:
            raise ValueError(f"a task writes one (i, j) block, not {write!r}")
        reads = frozenset(reads)
        tid = len(self._tasks)
        deps = set(self._readers.get(write, ()))
        deps.update(map(self._last_writer.get, (*reads, write)))
        deps.discard(None)
        for d in sorted(deps):
            self._edges.append((d, tid))
        for blk in reads:
            self._readers.setdefault(blk, []).append(tid)
        self._last_writer[write] = tid
        self._readers[write] = []
        self._tasks.append(Task(tid, kind, k, *write, reads))
        return tid

    def build(self) -> TaskGraph:
        return TaskGraph(self._tasks, self._edges)


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
        lines.append(f'  t{t.id} [label="{t.kind.value}[{t.i},{t.j}] k={t.k}"];')
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
        ) for rec in doc["tasks"]]
        edges = [(int(p), int(q)) for p, q in doc["edges"]]
    except (KeyError, TypeError) as exc:  # a missing key or a wrong type
        raise ValueError(f"malformed task graph: {exc}") from exc
    if [t.id for t in tasks] != list(range(len(tasks))):
        raise ValueError("task ids must be dense and in order")
    for p, q in edges:
        if not 0 <= p < q < len(tasks):
            raise ValueError(f"edge ({p}, {q}) violates sequential order")
    return TaskGraph(tasks, edges)
