"""The trace format of native and simulated runs, and every summary of it.

Events are kept in one canonical (start_ns, worker) order, so equal
schedules give equal traces whichever thread or event loop recorded them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, NamedTuple

from .taskgraph import Task


class TraceEvent(NamedTuple):
    worker: int
    task: int
    kind: str
    k: int
    i: int
    j: int
    start_ns: int
    end_ns: int

    @classmethod
    def of(cls, worker: int, task: Task, start: int, end: int) -> "TraceEvent":
        """The event of worker running task from start to end (ns)."""
        return cls(worker, task.id, task.kind.value, task.k, task.i, task.j,
                   start, end)


EVENT_FIELDS = TraceEvent._fields


@dataclass
class Trace:
    events: list[TraceEvent]
    wall_start: int
    wall_end: int
    workers: list[int] = field(default_factory=list)

    @classmethod
    def collect(cls, events: Iterable[TraceEvent], wall_start: int,
                wall_end: int, workers: list[int]) -> "Trace":
        """A trace of events put in the canonical (start_ns, worker) order."""
        return cls(sorted(events, key=lambda e: (e.start_ns, e.worker)),
                   wall_start, wall_end, workers)

    def to_json(self) -> str:
        return json.dumps({
            "wall_start_ns": self.wall_start,
            "wall_end_ns": self.wall_end,
            "workers": self.workers,
            "events": [e._asdict() for e in self.events],
        }, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        """Parse to_json output, ignoring other keys; ValueError if malformed."""
        doc = json.loads(text)
        values = itemgetter(*EVENT_FIELDS)
        try:
            events = [TraceEvent(*values(r)) for r in doc["events"]]
            return cls(events, doc["wall_start_ns"], doc["wall_end_ns"],
                       list(doc.get("workers", [])))
        except (KeyError, TypeError) as exc:  # a missing key or a wrong type
            raise ValueError(f"malformed trace: {exc}") from exc


def idle_stats(trace: Trace, horizon_ns: int) -> dict[int, dict[str, float]]:
    """Per-worker running/idle fractions of the given horizon."""
    if horizon_ns < trace.wall_end - trace.wall_start:
        raise ValueError("horizon must cover the whole trace")
    busy = dict.fromkeys(trace.workers, 0)
    for e in trace.events:
        busy[e.worker] = busy.get(e.worker, 0) + e.end_ns - e.start_ns
    return {w: {"running": b / horizon_ns, "idle": 1.0 - b / horizon_ns}
            for w, b in busy.items()}


def kind_stats(trace: Trace) -> dict[str, tuple[int, float]]:
    """(count, mean duration in ns) per task kind, in sorted kind order."""
    durations: dict[str, list[int]] = {}
    for e in trace.events:
        durations.setdefault(e.kind, []).append(e.end_ns - e.start_ns)
    return {kind: (len(d), sum(d) / len(d))
            for kind, d in sorted(durations.items())}
