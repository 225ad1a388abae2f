"""The trace format of native and simulated runs, and every summary of it.

Events are kept in one canonical (start_ns, worker) order, so equal
schedules give equal traces whichever thread or event loop recorded them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .taskgraph import Task, TaskKind


class TraceEvent(NamedTuple):
    worker: int
    task: int
    kind: str
    k: int
    i: int
    j: int
    start_ns: int
    end_ns: int


EVENT_FIELDS = TraceEvent._fields


@dataclass
class Trace:
    events: list[TraceEvent]
    wall_start: int
    wall_end: int
    workers: list[int] = field(default_factory=list)

    @classmethod
    def collect(cls, tasks: Sequence[Task],
                records: Iterable[tuple[int, int, int, int]], wall_start: int,
                wall_end: int, workers: list[int]) -> "Trace":
        """A trace of (worker, task id, start_ns, end_ns) records over tasks,
        one event per record in the canonical (start_ns, worker) order."""
        kind = {k: k.value for k in TaskKind}
        new = tuple.__new__  # not TraceEvent's Python-level __new__
        events = [new(TraceEvent, (w, tid, kind[t.kind], t.k, t.i, t.j, start, end))
                  for w, tid, start, end in sorted(records, key=itemgetter(2, 0))
                  for t in (tasks[tid],)]
        return cls(events, wall_start, wall_end, workers)

    def to_json(self) -> str:
        return json.dumps({
            "wall_start_ns": self.wall_start,
            "wall_end_ns": self.wall_end,
            "workers": self.workers,
            "events": [e._asdict() for e in self.events],
        }, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        """Parse to_json output, ignoring other keys; ValueError if malformed:
        a key missing, a field not of its type (kind str, all else int), or
        an event not within wall_start_ns <= start_ns <= end_ns <= wall_end_ns."""
        doc = json.loads(text)
        values = itemgetter(*EVENT_FIELDS)
        try:
            events = [TraceEvent(*values(r)) for r in doc["events"]]
            trace = cls(events, doc["wall_start_ns"], doc["wall_end_ns"],
                        list(doc.get("workers", [])))
        except (KeyError, TypeError) as exc:  # a missing key or a wrong type
            raise ValueError(f"malformed trace: {exc}") from exc
        columns = list(zip(*events)) or [()] * len(EVENT_FIELDS)
        kinds = columns.pop(EVENT_FIELDS.index("kind"))
        ints = chain((trace.wall_start, trace.wall_end), trace.workers, *columns)
        if set(map(type, ints)) - {int} or set(map(type, kinds)) - {str}:
            raise ValueError("malformed trace: a field has the wrong type")
        lo, hi = trace.wall_start, trace.wall_end
        if lo > hi or not all(lo <= e.start_ns <= e.end_ns <= hi for e in events):
            raise ValueError("malformed trace: event times out of order")
        return trace


def idle_stats(trace: Trace) -> dict[int, dict[str, float]]:
    """Per-worker running/idle fractions of the trace's own span."""
    horizon_ns = max(trace.wall_end - trace.wall_start, 1)
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
