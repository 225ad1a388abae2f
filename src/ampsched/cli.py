"""Command-line front end: native benchmarks, simulations, DAG and trace export.

Subcommands
    bench     run the threaded runtime, report min-of-repetitions timings
    simulate  replay a Cholesky DAG on a modeled asymmetric machine
    dag       export a Cholesky task DAG as DOT (and optionally JSON)
    trace     write a trace JSON's per-worker and per-kind summaries as CSVs

Options may also come from a key=value config file (--config); explicit
flags win on conflict. AMPSCHED_THREADS overrides --workers.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
import time

import numpy as np

from . import dense, runtime, sim
from .runtime import Policy, gflops, make_workers
from .taskgraph import build_cholesky_dag, export_dot, to_json
from .trace import Trace, idle_stats, kind_stats

BENCH_FIELDS = ["n", "b", "policy", "workers", "seconds_min", "gflops",
                "residual", "is_best"]
SIM_FIELDS = ["machine", "view", "policy", "cost", "n", "b", "s",
              "makespan_s", "gflops"]
SUMMARY_FIELDS = ["worker", "running_fraction", "idle_fraction"]
KIND_FIELDS = ["kind", "count", "mean_ms"]


def _load_config(path: str) -> dict[str, str]:
    cfg = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def _merge(args, config: dict, key: str, default, conv=str):
    flag = getattr(args, key)
    if flag is not None:
        return flag
    if key in config:
        return conv(config[key])
    if default is None:
        raise SystemExit(f"missing required option --{key}")
    return default


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _write_csv(path: str, fields: list[str], rows) -> None:
    """Write a header and rows as CSV to path; "-" means stdout."""
    with (contextlib.nullcontext(sys.stdout) if path == "-"
          else open(path, "w", newline="")) as out:
        w = csv.DictWriter(out, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)


def cmd_bench(args) -> int:
    config = _load_config(args.config) if args.config else {}
    n = _merge(args, config, "n", None, int)
    b_list = _merge(args, config, "b", None, _int_list)
    policy_kind = _merge(args, config, "policy", runtime.OBLIVIOUS)
    workers = _merge(args, config, "workers", 4, int)
    seed = _merge(args, config, "seed", 1, int)
    reps = _merge(args, config, "reps", 3, int)
    env_threads = os.environ.get("AMPSCHED_THREADS")
    if env_threads:
        workers = int(env_threads)
    if reps < 1 or workers < 1 or any(not 1 <= b <= n for b in b_list):
        raise SystemExit("invalid bench configuration (need n >= b >= 1, "
                         "reps >= 1, workers >= 1)")

    policy = Policy(kind=policy_kind)
    descs = make_workers(policy_kind, workers)
    tol = max(1e-12, 100 * np.finfo(np.float64).eps * n)
    rows = []
    for b in b_list:
        a = dense.make_spd(n, seed)
        g = build_cholesky_dag(-(-n // b))
        best = math.inf
        resid = math.inf
        for _ in range(reps):
            bm = dense.BlockedMatrix.from_matrix(a, b)
            t0 = time.perf_counter()
            bm, _trace = runtime.run(g, bm, policy, descs)
            elapsed = time.perf_counter() - t0
            resid = dense.residual(a, bm.upper_factor())
            if resid > tol:
                print(f"error: residual {resid:.3e} exceeds tolerance "
                      f"{tol:.3e} for n={n} b={b}", file=sys.stderr)
                return 1
            best = min(best, elapsed)
        rows.append({"n": n, "b": b, "policy": policy_kind, "workers": workers,
                     "seconds_min": best, "gflops": gflops(n, best),
                     "residual": resid, "is_best": 0})
    if len(rows) > 1:
        winner = min(rows, key=lambda r: r["seconds_min"])
        rows.append(dict(winner, is_best=1))
    _write_csv(args.csv, BENCH_FIELDS, rows)
    return 0


def cmd_simulate(args) -> int:
    if args.machine != "exynos5422":
        raise SystemExit(f"unknown machine {args.machine!r}")
    if not 1 <= args.b <= args.n:
        raise SystemExit("need n >= b >= 1")
    machine, table_cost = sim.preset_exynos5422(args.view, args.b)
    cost = table_cost if args.cost == "table3" else sim.FlopsCostModel(args.b)
    s = -(-args.n // args.b)
    g = build_cholesky_dag(s)
    result = sim.simulate(g, machine, cost, Policy(kind=args.policy))
    row = {"machine": args.machine, "view": args.view, "policy": args.policy,
           "cost": args.cost, "n": args.n, "b": args.b, "s": s,
           "makespan_s": result.makespan_s,
           "gflops": gflops(args.n, result.makespan_s)}
    _write_csv(args.csv, SIM_FIELDS, [row])
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(result.trace.to_json())
    return 0


def cmd_dag(args) -> int:
    g = build_cholesky_dag(args.s)
    with open(args.dot, "w") as fh:
        fh.write(export_dot(g))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(to_json(g))
    return 0


def cmd_trace(args) -> int:
    try:
        with open(args.infile) as fh:
            trace = Trace.from_json(fh.read())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.infile!r}: {exc}", file=sys.stderr)
        return 1
    stats = idle_stats(trace, max(trace.wall_end - trace.wall_start, 1))
    _write_csv(args.summary, SUMMARY_FIELDS, [
        {"worker": w, "running_fraction": stats[w]["running"],
         "idle_fraction": stats[w]["idle"]} for w in sorted(stats)])
    kinds = args.kinds or ("-" if args.summary == "-" else args.summary + ".kinds.csv")
    _write_csv(kinds, KIND_FIELDS, [
        {"kind": kind, "count": count, "mean_ms": mean_ns / 1e6}
        for kind, (count, mean_ns) in kind_stats(trace).items()])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ampsched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", help="run native benchmarks")
    p.add_argument("--n", type=int)
    p.add_argument("--b", type=_int_list,
                   help="block size or comma-separated sweep")
    p.add_argument("--policy", choices=runtime.POLICIES)
    p.add_argument("--workers", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--csv", default="-")
    p.add_argument("--config", help="key=value option file; flags win")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("simulate", help="simulate on a modeled machine")
    p.add_argument("--machine", default="exynos5422")
    p.add_argument("--view", choices=[sim.GTS, sim.VC_VIEW], default=sim.GTS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--policy", choices=runtime.POLICIES,
                   default=runtime.OBLIVIOUS)
    p.add_argument("--cost", choices=["flops", "table3"], default="table3")
    p.add_argument("--csv", default="-")
    p.add_argument("--trace", help="also write the trace JSON here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dag", help="export a Cholesky task DAG")
    p.add_argument("--s", type=int, required=True, help="block count")
    p.add_argument("--dot", required=True)
    p.add_argument("--json")
    p.set_defaults(func=cmd_dag)

    p = sub.add_parser("trace", help="summarize a trace JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--summary", required=True)
    p.add_argument("--kinds", help="per-kind mean duration CSV path")
    p.set_defaults(func=cmd_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
