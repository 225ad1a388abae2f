"""Cache-blocked BLAS-3 kernels with a dual-lane asymmetric variant.

The gemm follows the classic three-loop structure: Loop 1 strides the
column space by nc, Loop 2 strides the depth by kc (packing the current B
panel), Loop 3 strides the row space by mc (packing the current A block)
before handing the packed panels to the macro-kernel.

The macro-kernel processes fixed micro-panels of MICRO_SLAB rows aligned
to the absolute row grid of the output block, one panel product each.
Because the micro-panel boundaries are absolute, any row partition that
lands on the grid (mc strides and lane splits are kept as multiples of
MICRO_SLAB) produces exactly the same sequence of panel products, so the
asymmetric (fast+slow lane) variants are bitwise identical to the
sequential blocked kernels and the factorization is bitwise
schedule-independent. The triangular solve achieves the same property
with a purely elementwise right-looking update.
"""

from __future__ import annotations

import csv
import threading
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dense import SingularTriangularError


@dataclass(frozen=True)
class CacheParams:
    """Blocking strides for Loops 3/1/2 (mc, nc, kc)."""

    mc: int
    nc: int
    kc: int

    def __post_init__(self):
        if min(self.mc, self.nc, self.kc) < 1:
            raise ValueError(f"cache parameters must be >= 1, got {self}")


# Row extent of one macro-kernel micro-panel. Partitions aligned to this
# grid give bitwise identical results; see the module docstring.
MICRO_SLAB = 32

# mc sized for Cortex-A15 / Cortex-A7 class L2 caches, rounded to the
# micro-panel grid; nc and kc are typical large-panel choices shared by
# both lanes (the dual-lane kernels rely on that).
FAST_PARAMS = CacheParams(mc=160, nc=4096, kc=256)
SLOW_PARAMS = CacheParams(mc=32, nc=4096, kc=256)


@dataclass(frozen=True)
class LaneConfig:
    """A fast lane and a slow lane with relative throughputs.

    speed_slow may be zero, which disables the slow lane entirely.
    """

    fast: CacheParams = FAST_PARAMS
    slow: CacheParams = SLOW_PARAMS
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


def split_loop3(m: int, cfg: LaneConfig) -> Loop3Split:
    """Proportional 1-D partition of [0, m) between the lanes.

    The fast lane gets round(m * speed_fast / (speed_fast + speed_slow))
    leading rows. The smaller share is folded into the other lane when it
    is also below half its lane's own mc, so no lane receives a useless
    sliver and the larger share is never moved to the other lane.
    """
    if m < 0:
        raise ValueError("row count must be nonnegative")
    if m == 0:
        return Loop3Split((0, 0), (0, 0))
    if cfg.speed_slow == 0:
        return Loop3Split((0, m), (m, m))
    f = int(m * cfg.speed_fast / (cfg.speed_fast + cfg.speed_slow) + 0.5)
    f = min(max(f, 0), m)
    if m - f < cfg.slow.mc / 2 and m - f <= f:
        f = m
    elif f < cfg.fast.mc / 2 and f <= m - f:
        f = 0
    return Loop3Split((0, f), (f, m))


def pack_panel(a: np.ndarray, rows: slice, cols: slice,
               transpose: bool = False) -> np.ndarray:
    """Contiguous copy of a panel, rows stored contiguously.

    With ``transpose`` the panel is copied transposed, which the
    macro-kernel uses so that its micro-panels are contiguous row slices
    of identical layout no matter which macro call covers them.
    """
    panel = a[rows, cols]
    if transpose:
        panel = panel.T
    return np.ascontiguousarray(panel)


def _macro_kernel(cview: np.ndarray, apack: np.ndarray, bpack: np.ndarray,
                  row0: int) -> None:
    # cview: (mcur, ncur); apack: (mcur, kcur) pre-transposed so each
    # micro-panel is a contiguous row slice; bpack: (kcur, ncur); row0:
    # absolute row offset of cview inside its C block. Micro-panels are
    # cut on the absolute MICRO_SLAB grid and every panel product sees
    # operands of identical shape and layout, so two calls covering the
    # same absolute rows produce bitwise identical updates regardless of
    # how the row space was partitioned into macro calls.
    mcur = cview.shape[0]
    s = 0
    while s < mcur:
        h = min(mcur - s, MICRO_SLAB - (row0 + s) % MICRO_SLAB)
        prod = np.dot(apack[s:s + h], bpack)
        np.subtract(cview[s:s + h], prod, out=cview[s:s + h])
        s += h


def _check_gemm_shapes(a, b, c):
    k, m = a.shape
    k2, n = b.shape
    if k2 != k or c.shape != (m, n):
        raise ValueError(f"nonconformal gemm operands {a.shape} {b.shape} {c.shape}")
    return m, n, k


def gemm_blocked(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                 p: CacheParams = FAST_PARAMS) -> np.ndarray:
    """Cache-blocked C := C - A^T B. Updates and returns C."""
    m, n, k = _check_gemm_shapes(a, b, c)
    for jj in range(0, n, p.nc):                      # Loop 1
        je = min(jj + p.nc, n)
        for kk in range(0, k, p.kc):                  # Loop 2
            ke = min(kk + p.kc, k)
            bpack = pack_panel(b, slice(kk, ke), slice(jj, je))
            for ii in range(0, m, p.mc):              # Loop 3
                ie = min(ii + p.mc, m)
                apack = pack_panel(a, slice(kk, ke), slice(ii, ie),
                                   transpose=True)
                _macro_kernel(c[ii:ie, jj:je], apack, bpack, ii)
    return c


def _lane_loop3(a, c, bpack, kk, ke, jj, je, lo, hi, mc):
    for ii in range(lo, hi, mc):
        ie = min(ii + mc, hi)
        apack = pack_panel(a, slice(kk, ke), slice(ii, ie),
                           transpose=True)
        _macro_kernel(c[ii:ie, jj:je], apack, bpack, ii)


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


def _align_to_slab(f: int, m: int) -> int:
    """Round a row split to the micro-panel grid (nearest multiple)."""
    return min(m, max(0, (f + MICRO_SLAB // 2) // MICRO_SLAB * MICRO_SLAB))


def gemm_asym(a: np.ndarray, b: np.ndarray, c: np.ndarray,
              cfg: LaneConfig = DEFAULT_LANES) -> np.ndarray:
    """Dual-lane C := C - A^T B. Bitwise identical to gemm_blocked.

    Loops 1 and 2 run once with the fast lane's nc/kc; the packed B panel
    is shared read-only by both lanes. Loop 3's row space is divided by
    split_loop3, rounded onto the micro-panel grid so both lanes cut the
    same micro-panels the sequential kernel would. Each lane packs its own
    A blocks with its own mc; the two lanes run concurrently and join
    before the next depth panel.
    """
    m, n, k = _check_gemm_shapes(a, b, c)
    p = cfg.fast
    split = split_loop3(m, cfg)
    (flo, fhi), (slo, shi) = split.fast_range, split.slow_range
    if shi > slo and fhi > flo:
        cut = _align_to_slab(fhi, m)
        (flo, fhi), (slo, shi) = (0, cut), (cut, m)
    for jj in range(0, n, p.nc):
        je = min(jj + p.nc, n)
        for kk in range(0, k, p.kc):
            ke = min(kk + p.kc, k)
            bpack = pack_panel(b, slice(kk, ke), slice(jj, je))
            if shi > slo:
                lane = partial(_lane_loop3, a, c, bpack, kk, ke, jj, je)
                _dual_lane(partial(lane, slo, shi, cfg.slow.mc),
                           partial(lane, flo, fhi, cfg.fast.mc))
            else:
                _lane_loop3(a, c, bpack, kk, ke, jj, je, flo, fhi, cfg.fast.mc)
    return c


def syrk_blocked(a: np.ndarray, c: np.ndarray,
                 p: CacheParams = FAST_PARAMS) -> np.ndarray:
    """Cache-blocked C := C - A^T A on the full symmetric block."""
    return gemm_blocked(a, a, c, p)


def syrk_asym(a: np.ndarray, c: np.ndarray,
              cfg: LaneConfig = DEFAULT_LANES) -> np.ndarray:
    """Dual-lane symmetric update; row space split as in gemm_asym."""
    return gemm_asym(a, a, c, cfg)


def _trsm_columns(u: np.ndarray, x: np.ndarray, jj: int, je: int) -> None:
    # Right-looking forward substitution for U^T X = B on columns [jj, je).
    # The rank-1 trailing update is elementwise, so per-column results do
    # not depend on how the column space is chunked or split across lanes.
    n = u.shape[0]
    for i in range(n):
        d = u[i, i]
        if d == 0.0:
            raise SingularTriangularError(i)
        x[i, jj:je] /= d
        if i + 1 < n:
            x[i + 1:, jj:je] -= u[i, i + 1:][:, None] * x[i, jj:je][None, :]


def trsm_blocked(u: np.ndarray, b: np.ndarray,
                 p: CacheParams = FAST_PARAMS) -> np.ndarray:
    """Solve U^T X = B in place over nc-wide column chunks. Returns B."""
    n = u.shape[0]
    if u.shape[1] != n or b.shape[0] != n:
        raise ValueError(f"nonconformal trsm operands {u.shape} {b.shape}")
    for jj in range(0, b.shape[1], p.nc):
        _trsm_columns(u, b, jj, min(jj + p.nc, b.shape[1]))
    return b


def trsm_asym(u: np.ndarray, b: np.ndarray,
              cfg: LaneConfig = DEFAULT_LANES) -> np.ndarray:
    """Dual-lane triangular solve; the RHS column space is lane-split."""
    n = u.shape[0]
    if u.shape[1] != n or b.shape[0] != n:
        raise ValueError(f"nonconformal trsm operands {u.shape} {b.shape}")
    split = split_loop3(b.shape[1], cfg)
    (flo, fhi), (slo, shi) = split.fast_range, split.slow_range

    def fast():
        if fhi > flo:
            trsm_blocked(u, b[:, flo:fhi], cfg.fast)

    if shi > slo:
        _dual_lane(lambda: trsm_blocked(u, b[:, slo:shi], cfg.slow), fast)
    else:
        fast()
    return b


def kernel_crossover_probe(sizes: list[int], cfg: LaneConfig = DEFAULT_LANES,
                           seed: int = 0) -> list[dict]:
    """Time sequential (fast lane only) vs dual-lane gemm at square sizes.

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
        gemm_blocked(a, b, c, cfg.fast)
        seq = time.perf_counter() - t0
        c = np.array(c0, order="F")
        t0 = time.perf_counter()
        gemm_asym(a, b, c, cfg)
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
