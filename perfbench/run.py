"""Layered ampsched benchmark: one workload per invocation.

    python3 perfbench/run.py --workload native-coarse --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` runs a separate traced pass and prints the
per-layer metrics. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a JSON record
with host information, sample counts and (traced runs) the raw spans is
written under ``.perfbench-out/``. The exit code is non-zero when any
operation failed its correctness check.
"""

from __future__ import annotations

import os
import sys

if "numpy" in sys.modules:
    sys.exit("perfbench: numpy was imported before the BLAS thread count "
             "was pinned; run this file as a script")
# numpy and scipy each bundle an OpenBLAS; both read these at load time.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
# Set-up is repeated for this long (at least five times) in a full-size run.
SETUP_BUDGET_S = 2.0


def _import_package():
    """Import ampsched from this checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import ampsched
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import ampsched from {SRC}: {exc}")
    if Path(ampsched.__file__).resolve().parent != SRC / "ampsched":
        sys.exit(f"perfbench: ampsched resolved to {ampsched.__file__}, "
                 f"not to {SRC}")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["native-coarse", "native-fine", "sim-exynos"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny shrinks every workload for the self-tests")
    return p.parse_args(argv)


def select_metrics(measured: dict, specs: list[dict],
                   idle_layers: tuple[str, ...]) -> dict:
    """The BENCHMARK.json metrics, with units, from what was measured."""
    out = {}
    for spec in specs:
        name = spec["name"]
        if name in measured:
            value = measured[name]
        elif name.startswith(idle_layers):
            value = 0
        else:
            raise KeyError(f"metric {name!r} was not measured")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_package()
    import host
    import probes
    import workloads

    spec = load_spec()
    traced = bool(args.trace)
    wl = workloads.make(args.workload, args.size, args.seed,
                        SETUP_BUDGET_S if args.size == "full" else 0.0)
    probed = wl.measure(args.seconds, (lambda: probes.layer_probes(wl, OUT / "work"))
                        if traced else None)
    tally = wl.tally
    measured: dict[str, float] = {}
    if tally.failed == 0:
        if traced:
            measured.update(wl.per_layer())
            measured.update(probed)
        else:
            measured.update(wl.end_to_end())
            measured["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        key = "per_layer" if traced else "end_to_end"
        metrics = select_metrics(measured, spec[key], wl.idle_layers)
    else:
        metrics = {}
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "dims": workloads.SIZES[args.size][args.workload],
        "threads_per_policy": {p: workloads.THREADS for p in workloads.POLICIES},
        "workers_per_policy": {p: len(workloads.workers(p))
                               for p in workloads.POLICIES},
        "samples": wl.samples(),
        "run_s_samples": {p: [r["seconds"] for r in wl.untraced[p]]
                          for p in workloads.POLICIES},
        "attempted": tally.attempted, "failed": tally.failed,
        "fail_frac": tally.failed / max(tally.attempted, 1),
        "problems": tally.problems,
        "host": host.host_record(ROOT),
        "measured": measured,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with gzip.open(OUT / f"{stem}.json.gz", "wt") as fh:
        json.dump(record, fh)
        if traced:
            # Spans of the first traced operation of each policy.
            fh.write("\n")
            json.dump({p: [list(s.__dict__.values()) for s in ss]
                       for p, ss in wl.first_spans.items()}, fh)
    for line in tally.problems:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed} samples={record['samples']} "
          f"fail_frac={record['fail_frac']} commit={record['host']['commit']}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
