"""Isolated layer probes for the traced run.

Kernels run on b-by-b tiles of the workload matrix, next to the BLAS
routine that does the same job (the roofline). Flop counts come from
``sim.task_flops``, the package's own accounting. The CLI probe replays a
trace the workload produced through ``ampsched trace``.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.linalg import blas

from ampsched import cli, dense, kernels, sim
from ampsched.taskgraph import TaskKind, bottom_levels

import workloads

FLOP_KIND = {"gemm": TaskKind.G, "syrk": TaskKind.S, "trsm": TaskKind.T}
BLAS_OF = {"gemm": "dgemm", "syrk": "dsyrk", "trsm": "dtrsm"}
KERNEL_BUDGET_S = 0.2  # per kernel, on top of at least three calls


def layer_probes(wl, work_root: Path) -> dict[str, float]:
    """Every isolated probe that applies to the workload."""
    out = cli_probe(wl.last_trace[workloads.CATS], work_root, reps=3)
    out["taskgraph.tasks"] = len(wl.g.tasks)
    out["taskgraph.edges"] = len(wl.g.edges)
    out["taskgraph.bottom_levels_s"] = workloads.median_time(
        lambda: bottom_levels(wl.g, wl.priority_cost()), reps=5)
    if isinstance(wl, workloads.NativeWorkload):
        out.update(kernel_probe(dense.BlockedMatrix.from_matrix(wl.a, wl.b),
                                KERNEL_BUDGET_S))
        out["blas.potrf_s"] = workloads.median_time(
            lambda: scipy.linalg.cholesky(wl.a, lower=False, check_finite=False),
            reps=3)
        out["dense.residual_s"] = workloads.median_time(
            lambda: dense.residual(wl.a, wl.reference), reps=3)
    return out


def per_call_s(call, reset, budget_s: float, min_calls: int = 3) -> float:
    """Median seconds of one call; ``reset`` restores inputs, untimed."""
    times = []
    spent = 0.0
    while len(times) < min_calls or spent < budget_s:
        reset()
        t0 = time.perf_counter()
        call()
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
        if len(times) >= 20000:
            break
    return statistics.median(times)


def kernel_probe(bm: dense.BlockedMatrix, budget_s: float) -> dict[str, float]:
    """GF/s of every ampsched kernel and its BLAS counterpart on b-tiles."""
    b = bm.b
    blk = bm.blocks
    a01, a02 = blk[0][1], blk[0][2]
    c12, c11 = blk[1][2].copy(order="F"), blk[1][1].copy(order="F")
    u = np.asfortranarray(scipy.linalg.cholesky(blk[0][0], lower=False))
    out_c12 = np.empty_like(c12, order="F")
    out_c11 = np.empty_like(c11, order="F")
    rhs = np.empty_like(a01, order="F")

    def reset_gemm():
        np.copyto(out_c12, c12)

    def reset_syrk():
        np.copyto(out_c11, c11)

    def reset_trsm():
        np.copyto(rhs, a01)

    calls = {
        "gemm_blocked": (lambda: kernels.gemm_blocked(a01, a02, out_c12), reset_gemm),
        "gemm_asym": (lambda: kernels.gemm_asym(a01, a02, out_c12), reset_gemm),
        "syrk_blocked": (lambda: kernels.syrk_blocked(a01, out_c11), reset_syrk),
        "syrk_asym": (lambda: kernels.syrk_asym(a01, out_c11), reset_syrk),
        "trsm_blocked": (lambda: kernels.trsm_blocked(u, rhs), reset_trsm),
        "trsm_asym": (lambda: kernels.trsm_asym(u, rhs), reset_trsm),
        "dgemm": (lambda: blas.dgemm(-1.0, a01, a02, 1.0, out_c12, trans_a=1,
                                     overwrite_c=1), reset_gemm),
        "dsyrk": (lambda: blas.dsyrk(-1.0, a01, 1.0, out_c11, trans=1,
                                     overwrite_c=1), reset_syrk),
        "dtrsm": (lambda: blas.dtrsm(1.0, u, rhs, trans_a=1, overwrite_b=1),
                  reset_trsm),
    }
    gflops = {}
    for name, (call, reset) in calls.items():
        op = next(k for k in FLOP_KIND if k in name)
        flops = sim.task_flops(FLOP_KIND[op], b)
        gflops[name] = flops / per_call_s(call, reset, budget_s) / 1e9
    out = {}
    for op, routine in BLAS_OF.items():
        roof = gflops[routine]
        out[f"blas.{routine}.gflops"] = roof
        for variant in ("blocked", "asym"):
            fn = f"{op}_{variant}"
            out[f"kernels.{fn}.gflops"] = gflops[fn]
            out[f"kernels.{fn}.roofline_frac"] = gflops[fn] / roof
    return out


def cli_probe(trace, work_root: Path, reps: int) -> dict[str, float]:
    """Seconds of ``Trace.to_json`` and of ``ampsched trace`` on its output."""
    work_root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work_root))
    try:
        path = tmp / "trace.json"
        json_s, cli_s = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            text = trace.to_json()
            json_s.append(time.perf_counter() - t0)
            path.write_text(text)
            t0 = time.perf_counter()
            rc = cli.main(["trace", "--in", str(path),
                           "--summary", str(tmp / "summary.csv")])
            cli_s.append(time.perf_counter() - t0)
            if rc != 0:
                raise RuntimeError(f"ampsched trace exited with {rc}")
        return {"runtime.trace_json_s": statistics.median(json_s),
                "cli.trace_s": statistics.median(cli_s)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
