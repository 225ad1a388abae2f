"""Self-tests of the benchmark: python3 -m pytest perfbench

They run every workload at tiny size, check that each BENCHMARK.json
metric is printed with its unit, and feed known-bad results to the
correctness gate.
"""

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ampsched import (Policy, build_cholesky_dag, dense, make_spd,  # noqa: E402
                      preset_exynos5422, run, simulate)
from ampsched.runtime import Trace, TraceEvent  # noqa: E402
from ampsched.sim import lower_bounds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for s in specs:
        m = result["metrics"][s["name"]]
        assert m["unit"] == s["unit"]
        assert isinstance(m["value"], (int, float))
        if not trace:
            assert m["value"] > 0, s["name"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace and workload == "sim-exynos":
        assert metrics["sim.makespan_s.cats"] > 0
        assert metrics["sim.cost.calls.vc"] == 56  # one per task of s=6
    elif trace:
        assert metrics["kernels.trsm_asym.calls.vc"] > 0
        assert metrics["kernels.gemm_blocked.gflops"] > 0


def test_seed_anchored_makespans_at_full_size():
    g = build_cholesky_dag(40)
    got = {}
    for policy, view in (("oblivious", "gts"), ("cats", "gts"), ("vc", "vc")):
        machine, cost = preset_exynos5422(view, 448)
        res = simulate(g, machine, cost, Policy(policy))
        assert checks.check_simulation(g, res, lower_bounds(g, machine, cost),
                                       res.makespan_ns) == []
        got[policy] = res.makespan_s
    assert got == {"oblivious": 200.79189, "cats": 199.76916, "vc": 215.6039}


def _factor(n=32, b=8, policy="cats"):
    a = make_spd(n, 5)
    g = build_cholesky_dag(n // b)
    bm, trace = run(g, dense.BlockedMatrix.from_matrix(a, b), Policy(policy),
                    workloads.workers(policy))
    return a, g, bm.upper_factor(), trace


def test_factor_check_accepts_bitwise_equal_and_rejects_one_flipped_bit():
    a, g, u, trace = _factor()
    _, _, u_vc, _ = _factor(policy="vc")
    assert checks.check_factor(a, u, None) == []
    assert checks.check_factor(a, u_vc, u) == []
    assert checks.check_trace(g, trace) == []
    flipped = u.copy(order="F")
    flipped.view(np.uint64)[3, 7] ^= np.uint64(1)
    assert checks.check_factor(a, flipped, u)


def test_factor_check_rejects_a_large_residual():
    a, _, u, _ = _factor()
    bad = u.copy(order="F")
    bad[0, 0] *= 1.5
    problems = checks.check_factor(a, bad, None)
    assert problems and "residual" in problems[0]


def test_trace_check_rejects_repeats_and_edge_violations():
    _, g, _, trace = _factor()
    ev = trace.events
    twice = Trace(ev + ev[:1], trace.wall_start, trace.wall_end)
    assert checks.check_trace(g, twice)
    p, q = g.edges[0]
    swapped = [TraceEvent(e.worker, e.task, e.kind, e.k, e.i, e.j,
                          0 if e.task == q else e.start_ns,
                          1 if e.task == q else e.end_ns) for e in ev]
    assert checks.check_trace(g, Trace(swapped, 0, trace.wall_end))


def test_simulation_check_rejects_short_and_changed_makespans():
    g = build_cholesky_dag(6)
    machine, cost = preset_exynos5422("gts", 448)
    res = simulate(g, machine, cost, Policy("oblivious"))
    bounds = lower_bounds(g, machine, cost)
    assert checks.check_simulation(g, res, bounds, res.makespan_ns) == []
    res.makespan_ns = max(bounds) - 1
    assert checks.check_simulation(g, res, bounds, None)
    res.makespan_ns = max(bounds) + 10**9
    assert checks.check_simulation(g, res, bounds, max(bounds) + 1)


def test_self_time_excludes_nested_and_cross_thread_children():
    rec = spans.Recorder()

    def leaf():
        time.sleep(0.02)

    child = rec.wrap("child", leaf)

    def nesting():
        child()
        time.sleep(0.01)

    def spawning():
        t = threading.Thread(target=child)
        t.start()
        t.join()

    rec.wrap("nest", nesting)()
    rec.wrap("spawn", spawning, spawns_lanes=True)()
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    nest, spawn = by_name["nest"][0], by_name["spawn"][0]
    assert {c.parent for c in by_name["child"]} == {nest.sid, spawn.sid}
    lane = next(c for c in by_name["child"] if c.parent == spawn.sid)
    assert lane.thread != spawn.thread
    own = spans.self_times_ns(rec.spans)
    assert 0.005e9 < own[nest.sid] < 0.018e9
    assert own[spawn.sid] < 0.01e9
    assert spans.top_level_task_work_s(rec.spans) == pytest.approx(
        (nest.end_ns - nest.start_ns + spawn.end_ns - spawn.start_ns) / 1e9)


def test_wrappers_are_removed_after_a_traced_operation():
    from ampsched import kernels, runtime
    before = (kernels.gemm_blocked, runtime.ReadyPool.select)
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Recorder()):
            assert kernels.gemm_blocked is not before[0]
            raise RuntimeError
    assert (kernels.gemm_blocked, runtime.ReadyPool.select) == before


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "sim-exynos", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_refuses_to_run_when_numpy_was_imported_first():
    code = ("import numpy, runpy, sys; sys.argv = ['run.py']; "
            "runpy.run_path('perfbench/run.py', run_name='__main__')")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "numpy was imported" in out.stderr
