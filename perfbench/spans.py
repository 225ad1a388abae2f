"""In-memory span recording around calls into the ampsched layers.

The wrappers replace module attributes that the runtime and simulator
look up at call time, so nothing in the package itself is modified:

* ``kernels.{gemm,syrk,trsm}_{blocked,asym}`` and ``dense.ref_potrf``,
  the task bodies;
* ``runtime.ReadyPool.select``, the scheduling decision;
* ``sim.Table3CostModel.duration_ns``, the simulator's cost lookups.

Each call appends one ``Span`` to a list; nothing is written until the
benchmark ends. A span's parent is the innermost open span on the same
thread. A span that opens on a thread with no open span while a dual-lane
kernel (``*_asym``) is open on another thread is that kernel's lane work
and gets it as parent: ``trsm_asym`` runs ``trsm_blocked`` on its lane
thread. The runtime runs at most one dual-lane kernel at a time in the
workloads here (one VC worker), which makes the attribution unambiguous.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from ampsched import dense, kernels, runtime, sim

KERNEL_FNS = ("gemm_blocked", "syrk_blocked", "trsm_blocked",
              "gemm_asym", "syrk_asym", "trsm_asym")
SELECT = "runtime.select"
COST = "sim.duration_ns"
POTRF = "dense.ref_potrf"


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    thread: int
    start_ns: int
    end_ns: int
    parent: Optional[int]
    empty: bool = False  # a select that returned None


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._open_lane_parents: dict[int, int] = {}  # sid -> thread

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, spawns_lanes: bool = False,
             note_empty: bool = False):
        rec = self

        def wrapper(*args, **kwargs):
            stack = rec._stack()
            me = threading.get_ident()
            sid = next(rec._ids)
            parent = stack[-1] if stack else None
            if parent is None:
                others = [s for s, th in list(rec._open_lane_parents.items())
                          if th != me]
                parent = max(others) if others else None
            stack.append(sid)
            if spawns_lanes:
                rec._open_lane_parents[sid] = me
            t0 = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                if spawns_lanes:
                    del rec._open_lane_parents[sid]
                rec.spans.append(Span(sid, name, me, t0, t1, parent,
                                      note_empty and result is None))

        return wrapper


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Install the recording wrappers; the originals return on exit."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, **kw) -> None:
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, recorder.wrap(name, orig, **kw))

    try:
        for fn in KERNEL_FNS:
            patch(kernels, fn, f"kernels.{fn}",
                  spawns_lanes=fn.endswith("_asym"))
        patch(dense, "ref_potrf", POTRF)
        patch(runtime.ReadyPool, "select", SELECT, note_empty=True)
        patch(sim.Table3CostModel, "duration_ns", COST)
        yield recorder
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    return {s.sid: (s.end_ns - s.start_ns)
            - _covered(children.get(s.sid, []), s.start_ns, s.end_ns)
            for s in spans}


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds, total seconds, empty results."""
    own = self_times_ns(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0,
                                      "total_s": 0.0, "empty": 0})
        row["calls"] += 1
        row["self_s"] += own[s.sid] / 1e9
        row["total_s"] += (s.end_ns - s.start_ns) / 1e9
        row["empty"] += s.empty
    return out


def top_level_task_work_s(spans: list[Span]) -> float:
    """Seconds covered by outermost kernel and ref_potrf spans.

    These spans sit inside task spans on worker threads; lane-thread
    children are excluded because their parent is set.
    """
    return sum(s.end_ns - s.start_ns for s in spans
               if s.parent is None and s.name not in (SELECT, COST)) / 1e9
