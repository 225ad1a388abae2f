"""What every result records about the host and the code it measured."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_record(root: Path) -> dict:
    import numpy as np
    import scipy

    def blas(cfg: dict) -> dict:
        deps = cfg.get("Build Dependencies", {})
        return {k: {f: deps.get(k, {}).get(f) for f in
                    ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack")}

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": git_commit(root),
    }
