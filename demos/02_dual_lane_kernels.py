"""Dual-lane GEMM: split one kernel call across a fast and a slow lane.

The 128-row slabs of C := C - A^T B are shared between two threads from
one deque: the calling thread takes slabs from the front, the lane
thread from the back, until none is left. Each slab is one BLAS call on
the same operands whichever lane runs it, so the dual-lane result is
bitwise identical to the single-lane one -- the sharing changes who
computes each slab, never how.

Also runs the crossover probe on both sides of the slab width (a 128-row
call is one slab, which the caller runs alone), with one lane pair held
across all sizes as on a VC worker: below some matrix size, handing slabs
to the slow lane and waiting for it costs more than the lane contributes.
The crossover it finds is measured on the host, not modeled.
"""

import time

import numpy as np

from ampsched import gemm_asym, gemm_blocked
from ampsched.kernels import lane_pair, single_blas_thread

M, N, K = 384, 384, 384

CROSSOVER_FIELDS = ["size", "flops", "seq_seconds", "asym_seconds",
                    "seq_gflops", "asym_gflops"]


def _gemm_seconds(gemm, a: np.ndarray, b: np.ndarray, c0: np.ndarray) -> float:
    c = np.array(c0, order="F")
    t0 = time.perf_counter()
    gemm(a, b, c)
    return time.perf_counter() - t0


def kernel_crossover_probe(sizes: list[int]) -> list[dict]:
    """Time sequential vs dual-lane gemm at square sizes, min of five calls.

    A size of at most MICRO_SLAB is one slab, which the dual-lane call
    runs on the caller alone. The dual-lane calls share one lane pair held
    across all sizes, as on a VC worker, so asym_seconds includes the lane
    handoff but no thread start. BLAS is held at one thread, as in a run,
    and the two kernels alternate. The times are wall-clock on the host
    that runs the probe: no model in the package predicts where the
    dual-lane call starts to win. One row of CROSSOVER_FIELDS per size.
    """
    if not sizes:
        raise ValueError("sizes must be nonempty")
    rng = np.random.default_rng(0)
    rows = []
    with single_blas_thread(), lane_pair():
        for sz in sizes:
            a, b, c0 = (np.asfortranarray(rng.random((sz, sz)))
                        for _ in range(3))
            seq = asym = float("inf")
            for _ in range(5):
                seq = min(seq, _gemm_seconds(gemm_blocked, a, b, c0))
                asym = min(asym, _gemm_seconds(gemm_asym, a, b, c0))
            flops = 2.0 * sz ** 3
            rows.append(dict(zip(CROSSOVER_FIELDS, (
                sz, flops, seq, asym, flops / seq / 1e9, flops / asym / 1e9))))
    return rows


def main() -> None:
    rng = np.random.default_rng(0)
    a = np.asfortranarray(rng.random((K, M)))
    b = np.asfortranarray(rng.random((K, N)))
    c0 = np.asfortranarray(rng.random((M, N)))

    seq = gemm_blocked(a, b, c0.copy(order="F"))
    dual = gemm_asym(a, b, c0.copy(order="F"))
    assert seq.tobytes() == dual.tobytes()
    print(f"{M}x{N}x{K} gemm: dual-lane result bitwise equals single-lane")

    print("\ncrossover probe (wall-clock, this host):")
    header = "  ".join(f"{f:>14}" for f in CROSSOVER_FIELDS)
    print(header)
    for row in kernel_crossover_probe([128, 256, 512, 1024]):
        print("  ".join(f"{row[f]:>14.6g}" if isinstance(row[f], float)
                        else f"{row[f]:>14}" for f in CROSSOVER_FIELDS))


if __name__ == "__main__":
    main()
