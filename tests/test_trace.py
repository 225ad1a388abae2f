"""Trace format: JSON bytes, tolerant loading, canonical order, per-kind summary."""

import json
import random

import pytest

from ampsched.taskgraph import build_cholesky_dag
from ampsched.trace import Trace, TraceEvent, kind_stats

TWO_EVENTS = Trace([TraceEvent(0, 1, "G", 0, 1, 2, 100, 200),
                    TraceEvent(1, 0, "C", 0, 0, 0, 50, 90)], 10, 300, [0, 1])

# The bytes Trace.to_json writes for TWO_EVENTS; traces saved by earlier
# versions and the tools reading them rely on this exact layout.
GOLDEN_JSON = """{
 "wall_start_ns": 10,
 "wall_end_ns": 300,
 "workers": [
  0,
  1
 ],
 "events": [
  {
   "worker": 0,
   "task": 1,
   "kind": "G",
   "k": 0,
   "i": 1,
   "j": 2,
   "start_ns": 100,
   "end_ns": 200
  },
  {
   "worker": 1,
   "task": 0,
   "kind": "C",
   "k": 0,
   "i": 0,
   "j": 0,
   "start_ns": 50,
   "end_ns": 90
  }
 ]
}"""


class TestJson:
    def test_golden_bytes(self):
        assert TWO_EVENTS.to_json() == GOLDEN_JSON

    def test_extra_keys_are_ignored(self):
        doc = json.loads(GOLDEN_JSON)
        doc["host"] = "x"
        doc["events"][0]["ready_ns"] = 70
        assert Trace.from_json(json.dumps(doc)) == TWO_EVENTS

    @pytest.mark.parametrize("text", [
        "[]", "null", "3",
        '{"wall_start_ns": 0, "wall_end_ns": 10, "events": [1]}',
        '{"wall_start_ns": 0, "wall_end_ns": 10, "events": 5}',
        '{"wall_start_ns": 0, "wall_end_ns": 10, "events": [], "workers": 2}',
        '{"events": []}',
        '{"wall_start_ns": 0, "wall_end_ns": 10, "events": [{"worker": 0, '
        '"kind": "C", "k": 0, "i": 0, "j": 0, "start_ns": 0, "end_ns": 5}]}'])
    def test_wrong_shape_raises_value_error(self, text):
        with pytest.raises(ValueError):
            Trace.from_json(text)


class TestCollect:
    def test_canonical_order_from_shuffled_events(self):
        tasks = build_cholesky_dag(4).tasks
        slots = [(s, w) for s in (0, 10, 20) for w in (0, 1, 2)]
        events = [TraceEvent.of(w, t, s, s + 5)
                  for (s, w), t in zip(slots, tasks)]
        shuffled = events[:]
        random.Random(7).shuffle(shuffled)
        trace = Trace.collect(shuffled, 0, 25, [0, 1, 2])
        assert trace.events == events
        assert (trace.wall_start, trace.wall_end, trace.workers) == \
            (0, 25, [0, 1, 2])

    def test_event_of_task(self):
        t = build_cholesky_dag(3).tasks[4]
        assert TraceEvent.of(5, t, 7, 9) == TraceEvent(
            5, t.id, t.kind.value, t.k, t.i, t.j, 7, 9)


class TestKindStats:
    def test_count_and_mean_on_hand_values(self):
        trace = Trace([TraceEvent(0, 0, "T", 0, 0, 1, 0, 30),
                       TraceEvent(1, 1, "C", 0, 0, 0, 0, 10),
                       TraceEvent(0, 2, "T", 0, 0, 2, 30, 40),
                       TraceEvent(1, 3, "T", 0, 0, 3, 10, 15)], 0, 40, [0, 1])
        stats = kind_stats(trace)
        assert list(stats) == ["C", "T"]
        assert stats["C"] == (1, 10.0)
        assert stats["T"] == (3, 15.0)

    def test_empty_trace(self):
        assert kind_stats(Trace([], 0, 0, [0])) == {}
