"""Correctness gate: every operation's result is checked before it counts.

Each function returns a list of problems; an empty list means the
result passed. A non-empty list, or an exception from the operation
itself, makes the operation a failure.
"""

from __future__ import annotations

import numpy as np

from ampsched import dense


def residual_tolerance(n: int) -> float:
    """The acceptance tolerance of ``ampsched bench``."""
    return max(1e-12, 100 * np.finfo(np.float64).eps * n)


def check_trace(g, trace) -> list[str]:
    """Each task runs exactly once; every edge ends before its successor starts."""
    seen = sorted(e.task for e in trace.events)
    if seen != list(range(len(g.tasks))):
        return [f"trace holds {len(seen)} events for {len(g.tasks)} tasks, "
                "or some task ran twice"]
    start = {e.task: e.start_ns for e in trace.events}
    end = {e.task: e.end_ns for e in trace.events}
    bad = [(p, q) for p, q in g.edges if end[p] > start[q]]
    if bad:
        return [f"{len(bad)} edges violated, first {bad[0]}"]
    return []


def check_factor(a: np.ndarray, u: np.ndarray,
                 reference: np.ndarray | None) -> list[str]:
    """Residual within tolerance and bitwise equal to the reference factor.

    With no reference, the factor itself becomes the reference and only the
    residual is checked. A factor bitwise equal to a checked reference has
    the same residual, so the residual is computed only when they differ.
    """
    if reference is not None:
        if u.shape == reference.shape and u.tobytes() == reference.tobytes():
            return []
        problems = ["factor differs bitwise from the workload's first factor"]
    else:
        problems = []
    res = dense.residual(a, u)
    tol = residual_tolerance(a.shape[0])
    if not res <= tol:
        problems.append(f"residual {res:.3e} exceeds {tol:.3e}")
    return problems


def check_simulation(g, result, bounds: tuple[int, int],
                     reference_makespan_ns: int | None) -> list[str]:
    """Legal trace, makespan not below the lower bounds, same on every pass."""
    problems = check_trace(g, result.trace)
    if result.makespan_ns < max(bounds):
        problems.append(f"makespan {result.makespan_ns} ns below the lower "
                        f"bound {max(bounds)} ns")
    if (reference_makespan_ns is not None
            and result.makespan_ns != reference_makespan_ns):
        problems.append(f"makespan {result.makespan_ns} ns differs from the "
                        f"first pass, {reference_makespan_ns} ns")
    return problems
