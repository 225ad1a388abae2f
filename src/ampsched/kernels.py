"""BLAS-3 kernels on an absolute slab grid, with a dual-lane asymmetric variant.

Every kernel is a loop of BLAS calls, one per MICRO_SLAB-wide slab of
the output: gemm and syrk update C one 32-row slab at a time with one
``np.dot`` each, and trsm solves B one 32-column slab at a time with one
``dtrsm`` each. Slabs are cut on the absolute grid of the output block
(rows or columns 0, 32, 64, ...), and each slab is always computed by the
same call on operands of the same shape and layout.

The dual-lane (fast+slow) variants split the row or column space between
two threads with split_loop3, whose cut always lies on that grid. A split
therefore changes which lane computes a slab, never how it is computed, so
the asymmetric kernels are bitwise identical to the sequential ones and
the factorization is bitwise independent of the schedule. Nothing relies
on a BLAS call giving the same bits when it is cut at a different place.
"""

from __future__ import annotations

import csv
import threading
import time
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import blas

from .dense import SingularTriangularError

# Row (gemm/syrk) or column (trsm) extent of one BLAS call. Lane splits
# land on this grid; see the module docstring.
MICRO_SLAB = 32


@dataclass(frozen=True)
class LaneConfig:
    """A fast lane and a slow lane with relative throughputs.

    speed_slow may be zero, which disables the slow lane entirely.
    """

    speed_fast: float = 4.59
    speed_slow: float = 1.0

    def __post_init__(self):
        if self.speed_fast <= 0:
            raise ValueError("speed_fast must be positive")
        if self.speed_slow < 0:
            raise ValueError("speed_slow must be nonnegative")


DEFAULT_LANES = LaneConfig()


@dataclass(frozen=True)
class Loop3Split:
    """Disjoint half-open row ranges assigned to the two lanes."""

    fast_range: tuple[int, int]
    slow_range: tuple[int, int]


def split_loop3(m: int, lanes: LaneConfig = DEFAULT_LANES) -> Loop3Split:
    """Partition [0, m) between the lanes at a cut on the slab grid.

    The fast lane's proportional share is m * speed_fast / (speed_fast +
    speed_slow) leading rows. The cut is the point of {0, 32, 64, ...} and
    {m} nearest that share, ties going to the fast lane, so the lane with
    the larger share never gets zero rows.
    """
    if m < 0:
        raise ValueError("row count must be nonnegative")
    share = m * lanes.speed_fast / (lanes.speed_fast + lanes.speed_slow)
    lo = int(share) // MICRO_SLAB * MICRO_SLAB
    hi = min(lo + MICRO_SLAB, m)
    cut = hi if hi - share <= share - lo else lo
    return Loop3Split((0, cut), (cut, m))


def _gemm_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray,
               lo: int, hi: int) -> None:
    # C[lo:hi] -= A[:, lo:hi]^T B, one np.dot per slab; lo is on the grid.
    # np.dot releases the GIL during the BLAS call; scipy's dgemm wrapper
    # holds it, which stalls the other workers on tiny tiles.
    for s in range(lo, hi, MICRO_SLAB):
        e = min(s + MICRO_SLAB, hi)
        c[s:e] -= np.dot(a[:, s:e].T, b)


def _trsm_cols(u: np.ndarray, b: np.ndarray, lo: int, hi: int) -> None:
    # Solve U^T X = B on columns [lo, hi), one dtrsm per slab, in place.
    # Like every scipy BLAS wrapper, dtrsm holds the GIL while it runs.
    for s in range(lo, hi, MICRO_SLAB):
        e = min(s + MICRO_SLAB, hi)
        b[:, s:e] = blas.dtrsm(1.0, u, b[:, s:e], trans_a=1)


def _dual_lane(slow, fast) -> None:
    """Run slow() on a lane thread while fast() runs here.

    Joins the lane before returning and re-raises a lane failure, so an
    exception on either lane reaches the caller.
    """
    failure = []

    def lane():
        try:
            slow()
        except BaseException as exc:  # re-raised below, after the join
            failure.append(exc)

    t = threading.Thread(target=lane)
    t.start()
    try:
        fast()
    finally:
        t.join()
    if failure:
        raise failure[0]


def _run_lanes(m: int, lanes: LaneConfig, run_range) -> None:
    """Run run_range(lo, hi) over [0, m) split between the two lanes."""
    split = split_loop3(m, lanes)
    fast = partial(run_range, *split.fast_range)
    if split.slow_range[1] > split.slow_range[0]:
        _dual_lane(partial(run_range, *split.slow_range), fast)
    else:
        fast()


def _check_gemm_shapes(a, b, c) -> int:
    k, m = a.shape
    k2, n = b.shape
    if k2 != k or c.shape != (m, n):
        raise ValueError(f"nonconformal gemm operands {a.shape} {b.shape} {c.shape}")
    return m


def gemm_blocked(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Slab-blocked C := C - A^T B. Updates and returns C."""
    _gemm_rows(a, b, c, 0, _check_gemm_shapes(a, b, c))
    return c


def gemm_asym(a: np.ndarray, b: np.ndarray, c: np.ndarray,
              lanes: LaneConfig = DEFAULT_LANES) -> np.ndarray:
    """Dual-lane C := C - A^T B. Bitwise identical to gemm_blocked.

    The rows of C are split by split_loop3; each lane updates its own
    slabs while both read A and B, and the lanes join before returning.
    """
    m = _check_gemm_shapes(a, b, c)
    _run_lanes(m, lanes, partial(_gemm_rows, a, b, c))
    return c


def syrk_blocked(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Slab-blocked C := C - A^T A on the full symmetric block."""
    return gemm_blocked(a, a, c)


def syrk_asym(a: np.ndarray, c: np.ndarray,
              lanes: LaneConfig = DEFAULT_LANES) -> np.ndarray:
    """Dual-lane symmetric update; row space split as in gemm_asym."""
    return gemm_asym(a, a, c, lanes)


def _check_trsm(u: np.ndarray, b: np.ndarray) -> None:
    n = u.shape[0]
    if u.shape[1] != n or b.shape[0] != n:
        raise ValueError(f"nonconformal trsm operands {u.shape} {b.shape}")
    zeros = np.flatnonzero(np.diagonal(u) == 0.0)
    if zeros.size:
        raise SingularTriangularError(int(zeros[0]))


def trsm_blocked(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve U^T X = B in place, U upper triangular. Returns B.

    A zero on U's diagonal raises SingularTriangularError before B is
    written.
    """
    _check_trsm(u, b)
    _trsm_cols(u, b, 0, b.shape[1])
    return b


def trsm_asym(u: np.ndarray, b: np.ndarray,
              lanes: LaneConfig = DEFAULT_LANES) -> np.ndarray:
    """Dual-lane triangular solve; B's columns are split as in gemm_asym.

    Bitwise identical to trsm_blocked.
    """
    _check_trsm(u, b)
    _run_lanes(b.shape[1], lanes, partial(_trsm_cols, u, b))
    return b


def kernel_crossover_probe(sizes: list[int], lanes: LaneConfig = DEFAULT_LANES,
                           seed: int = 0) -> list[dict]:
    """Time sequential vs dual-lane gemm at square sizes.

    Host-dependent wall-clock measurements; the deterministic analogue on
    a modeled machine lives in :func:`ampsched.sim.simulated_kernel_times`.
    """
    if not sizes:
        raise ValueError("sizes must be nonempty")
    rng = np.random.default_rng(seed)
    rows = []
    for sz in sizes:
        a = np.asfortranarray(rng.random((sz, sz)))
        b = np.asfortranarray(rng.random((sz, sz)))
        c0 = np.asfortranarray(rng.random((sz, sz)))
        c = np.array(c0, order="F")
        t0 = time.perf_counter()
        gemm_blocked(a, b, c)
        seq = time.perf_counter() - t0
        c = np.array(c0, order="F")
        t0 = time.perf_counter()
        gemm_asym(a, b, c, lanes)
        asym = time.perf_counter() - t0
        flops = 2.0 * sz ** 3
        rows.append({
            "size": sz,
            "flops": flops,
            "seq_seconds": seq,
            "asym_seconds": asym,
            "seq_gflops": flops / seq / 1e9,
            "asym_gflops": flops / asym / 1e9,
        })
    return rows


CROSSOVER_FIELDS = ["size", "flops", "seq_seconds", "asym_seconds",
                    "seq_gflops", "asym_gflops"]


def write_crossover_csv(rows: list[dict], fileobj) -> None:
    w = csv.DictWriter(fileobj, fieldnames=CROSSOVER_FIELDS)
    w.writeheader()
    for row in rows:
        w.writerow(row)
