"""Task DAG construction for the blocked Cholesky factorization.

The builder replays a sequential program, registering each task with the
one block it writes, its (i, j), and the blocks it reads (the in/out/inout
directionality mechanism). Dependencies are derived with last-writer tracking:

* read-after-write and write-after-write: edge from the last writer of
  every accessed block;
* write-after-read: edges from all readers since that writer.

The edge set is kept unreduced; scheduling only needs a superset of the
true constraints and the unreduced relation is what the pairwise oracle
in the test suite reproduces. Builds pause the cyclic garbage collector;
from_json rebuilds the graph and checks the document's edges against it.
"""

from __future__ import annotations

import functools
import gc
import json
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Callable


class TaskKind(str, Enum):
    C = "C"  # po_cholesky: factor a diagonal block
    T = "T"  # tr_solve: triangular solve of a panel block
    G = "G"  # ge_multiply: matrix-multiply trailing update
    S = "S"  # sy_update: symmetric rank-b update of a diagonal block


def _collector_paused(build):
    """Run build with Python's cyclic garbage collector paused.

    A build allocates about ten tracked containers per task, which every
    gen-0 collection would rescan, with any older graph. It makes no
    reference cycles and refcounting frees its temporaries, so pausing
    loses nothing. The state is process-wide (no thread collects while a
    build runs) and is restored afterwards, also on error."""
    @functools.wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
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
        self._readers: defaultdict = defaultdict(list)  # since the last write

    def register_task(self, kind: TaskKind, reads, write, k: int = -1) -> int:
        """Add a task writing block write = (i, j) and reading reads; return its id."""
        if type(write) is not tuple or [*map(type, write)] != [int, int]:
            raise ValueError(f"a task writes one (i, j) block, not {write!r}")
        reads = frozenset(reads)
        tid = len(self._tasks)
        last, readers = self._last_writer, self._readers
        deps = set(readers.get(write, ()))  # write after read
        deps.add(last.get(write))
        for blk in reads:
            deps.add(last.get(blk))
            readers[blk].append(tid)
        deps.discard(None)
        self._edges += [(d, tid) for d in sorted(deps)]
        last[write] = tid
        readers[write] = []
        self._tasks.append(Task(tid, kind, k, *write, reads))
        return tid

    def build(self) -> TaskGraph:
        return TaskGraph(self._tasks, self._edges)


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
    return {
        TaskKind.C: s,
        TaskKind.T: s * (s - 1) // 2,
        TaskKind.S: s * (s - 1) // 2,
        TaskKind.G: s * (s - 1) * (s - 2) // 6,
    }


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


def critical_path(g: TaskGraph, cost: Callable[[Task], float]) -> float:
    """Longest weighted path through the DAG; a schedule lower bound."""
    bl = bottom_levels(g, cost)
    return max(bl) if bl else 0.0


def export_dot(g: TaskGraph) -> str:
    """Render the DAG in DOT format, deterministically ordered by id."""
    nodes = [f'  t{t.id} [label="{t.kind.value}[{t.i},{t.j}] k={t.k}"];'
             for t in g.tasks]
    edges = [f"  t{p} -> t{q};" for p, q in sorted(g.edges)]
    return "\n".join(["digraph tasks {", *nodes, *edges, "}"]) + "\n"


def to_json(g: TaskGraph) -> str:
    """Serialize tasks and edges for standalone simulator ingestion."""
    doc = {"tasks": [{"id": t.id, "kind": t.kind.value, "k": t.k, "i": t.i,
                      "j": t.j, "reads": sorted(map(list, t.reads))}
                     for t in g.tasks],
           "edges": [list(e) for e in g.edges]}
    return json.dumps(doc, indent=1)


@_collector_paused
def from_json(text: str) -> TaskGraph:
    """Rebuild to_json output from its tasks' kind, reads, (i, j) and k.

    ValueError unless ids count up from 0, ids, k, i, j and read
    coordinates are ints, and the edges are those of the rebuilt graph."""
    doc = json.loads(text)
    b = TaskGraphBuilder()
    try:
        for tid, rec in enumerate(doc["tasks"]):
            reads = [(r, c) for r, c in rec["reads"]]
            ints = [rec["id"], rec["k"], *chain(*reads)]  # register checks i, j
            if rec["id"] != tid or any(type(v) is not int for v in ints):
                raise ValueError(f"malformed task {tid}: {rec!r}")
            b.register_task(TaskKind(rec["kind"]), reads, (rec["i"], rec["j"]),
                            rec["k"])
        edges = [tuple(e) for e in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:  # e.g. a read not a pair
        raise ValueError(f"malformed task graph: {exc}") from exc
    g = b.build()
    if edges != g.edges:
        raise ValueError("the edges differ from those the tasks imply")
    return g
