"""Naive oracles: per-element BLAS-3 kernels and a per-tick simulator.

Deliberately simple and independent of the slab grid: the kernel tests
compare ``ampsched.kernels`` against these within a rounding bound. The
simulator tests compare ``sim.simulate`` against ``tick_simulate``
exactly.
"""

import heapq

import numpy as np

from ampsched.dense import SingularTriangularError, _as_matrix
from ampsched.kernels import MICRO_SLAB
from ampsched.runtime import SchedulerCore


def ref_gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Naive matrix multiply-update, C := C - A^T B, per-element dot products.

    A is k-by-m, B is k-by-n, C is m-by-n. Returns a new array.
    """
    a, b, c = _as_matrix(a), _as_matrix(b), _as_matrix(c)
    k, m = a.shape
    k2, n = b.shape
    if k2 != k or c.shape != (m, n):
        raise ValueError(f"nonconformal gemm operands {a.shape} {b.shape} {c.shape}")
    out = np.array(c, order="F")
    for i in range(m):
        col = a[:, i]
        for j in range(n):
            out[i, j] -= np.dot(col, b[:, j])
    return out


def ref_syrk(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Naive symmetric rank-k update, C := C - A^T A on the full block.

    The slab-blocked syrk updates only the entries from each row's slab
    start rightwards; it matches this oracle there.
    """
    return ref_gemm(a, a, c)


def syrk_untouched(m: int) -> np.ndarray:
    """The m-by-m mask of entries left of their row's slab start.

    The slab-blocked syrk leaves these bitwise as they were and matches
    ref_syrk on every other entry.
    """
    cols = np.arange(m)
    return cols[None, :] < (cols // MICRO_SLAB * MICRO_SLAB)[:, None]


def ref_trsm(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve U^T X = B by forward substitution, U upper triangular.

    This is the panel update of the blocked factorization. Returns X.
    """
    u, b = _as_matrix(u), _as_matrix(b)
    n = u.shape[0]
    if u.shape[1] != n or b.shape[0] != n:
        raise ValueError(f"nonconformal trsm operands {u.shape} {b.shape}")
    x = np.array(b, order="F")
    for i in range(n):
        if u[i, i] == 0.0:
            raise SingularTriangularError(i)
        if i > 0:
            x[i, :] = (b[i, :] - u[:i, i] @ x[:i, :]) / u[i, i]
        else:
            x[i, :] = b[i, :] / u[i, i]
    return x


def tick_simulate(g, machine, cost, policy) -> tuple[int, SchedulerCore]:
    """(makespan_ns, the drained core) of the simulator's per-tick loop.

    Each tick visits every resource in id order, and every idle one takes
    its next task through SchedulerCore.select, priced by one
    cost.duration_ns call per task; entries ending together complete
    through SchedulerCore.complete in resource-id order.
    """
    resources = machine.resources()  # in id order
    core = SchedulerCore(g, policy, resources, cost)
    running = []  # (finish, rid, tid, start)
    now = 0
    while not core.done:
        for res in resources:
            if res.id in core.busy:
                continue
            tid = core.select(res.id)
            if tid is None:
                continue
            dur = cost.duration_ns(g.tasks[tid], res)
            if dur <= 0:
                raise ValueError("cost model produced a non-positive duration")
            heapq.heappush(running, (now + dur, res.id, tid, now))
        now = running[0][0]
        while running and running[0][0] == now:
            _, rid, tid, start = heapq.heappop(running)
            core.complete(rid, tid, start, now)
    return now, core
