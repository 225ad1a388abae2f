"""Task-parallel blocked Cholesky with asymmetric-multicore scheduling.

A dense linear algebra scheduling laboratory: a dependency-tracked task
DAG for the blocked Cholesky factorization, BLAS-3 kernels on an absolute
slab grid with a fast+slow dual-lane variant, a threaded runtime with
three scheduling policies, and a deterministic simulator of an
asymmetric big.LITTLE machine.
"""

from .dense import (BlockedMatrix, NotPositiveDefiniteError,
                    SingularTriangularError, make_spd, ref_potrf, residual)
from .kernels import (gemm_asym, gemm_blocked, syrk_asym, syrk_blocked,
                      trsm_asym, trsm_blocked)
from .runtime import (CATS, FAST, OBLIVIOUS, SLOW, VC, VC_POLICY, Policy,
                      WorkerDescriptor, gflops, make_workers, run)
from .sim import (GTS, VC_VIEW, FlopsCostModel, MachineModel, Resource,
                  SimResult, Table3CostModel, lower_bounds, preset_exynos5422,
                  simulate)
from .taskgraph import (Task, TaskGraph, TaskGraphBuilder, TaskKind,
                        bottom_levels, build_cholesky_dag, critical_path,
                        export_dot, task_counts)
from .trace import Trace, TraceEvent, idle_stats, kind_stats

__version__ = "0.1.0"
