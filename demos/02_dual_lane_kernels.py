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
"""

import numpy as np

from ampsched import gemm_asym, gemm_blocked, kernel_crossover_probe
from ampsched.kernels import CROSSOVER_FIELDS

M, N, K = 384, 384, 384


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
