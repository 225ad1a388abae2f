"""BLAS-3 kernels on an absolute slab grid, with a dual-lane asymmetric variant.

Every kernel is a loop of BLAS calls, one per MICRO_SLAB-wide slab of
the output: gemm updates C one 128-row slab at a time with one ``np.dot``
each, syrk does the same on the upper triangle only, and trsm solves B in
place one 128-column slab at a time with one ``dtrsm`` each. Slabs are
cut on the absolute grid of the output block (rows or columns 0, 128,
256, ...), and each slab is always computed by the same call on operands
of the same shape and layout.

syrk follows LAPACK ``dsyrk``'s ``uplo='U'`` contract: row slab [s, e)
of C is updated on columns s onward, so every upper-triangle entry is
updated and no entry left of its row's slab start is touched. The
factorization reads only the upper triangle.

Both BLAS calls release the GIL while they run: ``np.dot`` does so
itself, and ``dtrsm`` is scipy's own BLAS routine called through ctypes
(the f2py wrapper in ``scipy.linalg.blas`` holds the GIL). So the two
lanes of a dual-lane call, and the workers of a threaded run, compute at
the same time.

The dual-lane (fast+slow) variants share the slabs between the calling
thread and a persistent slow-lane thread (LanePair, a one-thread
executor) through one deque of slab starts: the caller takes slabs from
the front and the lane thread from the back, one at a time, so the pair
balances itself without a speed ratio, as a dynamic scheduler does.
Inside ``lane_pair()`` every dual-lane call of the thread reuses one
pair; outside it, a call makes a pair for itself. A single-slab call (at
most 128 rows or columns) is one slab-helper call on the caller, with no
handoff and no closure, on the whole block unsliced. Which lane computes
a slab never changes how it is computed, so the asymmetric kernels are
bitwise identical to the sequential ones and the factorization is
bitwise independent of the schedule; nothing relies on a BLAS call
giving the same bits when it is cut at a different place.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import cache, partial
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import cython_blas

from .dense import SingularTriangularError

# Row (gemm/syrk) or column (trsm) extent of one BLAS call. The lanes
# share out slabs on this grid; see the module docstring.
MICRO_SLAB = 128


def _capsule_pointer(capsule) -> int:
    """The address a PyCapsule (a Cython ``__pyx_capi__`` entry) wraps."""
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    return pointer(capsule, name(capsule))


# scipy's nogil dtrsm(side, uplo, transa, diag, m, n, alpha, a, lda, b,
# ldb), LP64 int; a CFUNCTYPE call releases the GIL. It declares no argtypes,
# whose conversions add about 1 us a call: every argument is bytes or a
# ctypes array, which ctypes passes as its data address.
_dtrsm = ctypes.CFUNCTYPE(None)(_capsule_pointer(cython_blas.__pyx_capi__["dtrsm"]))
_ONE = (ctypes.c_double * 1)(1.0)  # alpha; only ever read
_int = cache(lambda v: (ctypes.c_int * 1)(v))  # shared; dtrsm only reads them
_F8 = np.dtype(np.float64)
_AT = ctypes.c_char * 0  # _AT.from_buffer(x.T, offset): x's data address + offset


@cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of numpy's and scipy's OpenBLAS.

    Each wheel bundles its own OpenBLAS under ``numpy.libs``/``scipy.libs``
    with its own thread pool. A library without the
    ``scipy_openblas_{get,set}_num_threads[64_]`` symbols is left out.
    """
    controls = []
    for mod in (np, scipy):
        libs = Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    controls.append((get, put))
                    break
    return tuple(controls)


# The thread counts are process-wide, so one hold is shared by every
# thread: the first holder saves the counts and sets them to one, the last
# restores them.
_hold_lock = threading.Lock()
_hold = {"depth": 0, "saved": []}


@contextlib.contextmanager
def single_blas_thread():
    """Hold numpy's and scipy's OpenBLAS pools at one thread each.

    Worker threads each call BLAS, so a threaded BLAS call would only
    compete with the other workers for the same cores. On exit the counts
    found on entry are restored.
    """
    with _hold_lock:
        if _hold["depth"] == 0:
            controls = _openblas_thread_controls()
            _hold["saved"] = [(put, get()) for get, put in controls]
            for _, put in controls:
                put(1)
        _hold["depth"] += 1
    try:
        yield
    finally:
        with _hold_lock:
            _hold["depth"] -= 1
            if _hold["depth"] == 0:
                for put, count in _hold["saved"]:
                    put(count)


def _gemm_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray,
               lo: int, hi: int) -> None:
    # C[lo:hi] -= A[:, lo:hi]^T B, one np.dot per slab; lo is on the grid.
    # The product is formed as (B^T A[:, s:e])^T, an F-order view, so the
    # subtraction walks C's F-order row slab along its columns. np.dot
    # releases the GIL and costs less per tiny call than dgemm via ctypes.
    if hi - lo == len(c) <= MICRO_SLAB:  # the whole block, unsliced
        c -= np.dot(b.T, a).T
        return
    for s in range(lo, hi, MICRO_SLAB):
        e = min(s + MICRO_SLAB, hi)
        c[s:e] -= np.dot(b.T, a[:, s:e]).T


def _syrk_rows(a: np.ndarray, c: np.ndarray, lo: int, hi: int) -> None:
    # C[lo:hi] -= A[:, lo:hi]^T A as _gemm_rows, but each slab [s, e) only
    # on columns s onward: the upper triangle, as dsyrk's uplo='U'.
    if hi - lo == len(c) <= MICRO_SLAB:  # the whole block, unsliced
        c -= np.dot(a.T, a).T
        return
    for s in range(lo, hi, MICRO_SLAB):
        e = min(s + MICRO_SLAB, hi)
        c[s:e, s:] -= np.dot(a[:, s:].T, a[:, s:e]).T


def _trsm_cols(rows, ld, u, bt, stride: int, lo: int, hi: int) -> None:
    # Solve U^T X = B on columns [lo, hi) in place, one dtrsm('L', 'U',
    # 'T', 'N') per slab, on the operands _check_trsm returns.
    if hi - lo == len(bt) <= MICRO_SLAB:  # the whole block, unsliced
        _dtrsm(b"L", b"U", b"T", b"N", rows, _int(hi), _ONE, u, ld,
               _AT.from_buffer(bt), ld)
        return
    for s in range(lo, hi, MICRO_SLAB):
        _dtrsm(b"L", b"U", b"T", b"N", rows, _int(min(s + MICRO_SLAB, hi) - s),
               _ONE, u, ld, _AT.from_buffer(bt, stride * s), ld)


class LanePair(ThreadPoolExecutor):
    """A one-thread executor: the slow lane beside the thread that owns it.

    run(slow, fast) submits slow() to the lane thread, runs fast() on the
    calling thread and returns once both have finished; a lane failure is
    re-raised on the caller. Shutdown joins the lane thread, which starts
    with the pair. Only the owning thread may call run().
    """

    def __init__(self):
        super().__init__(max_workers=1, thread_name_prefix="slow-lane")
        self.submit(int).result()  # start the lane thread now

    def run(self, slow, fast) -> None:
        future = self.submit(slow)
        try:
            fast()
        finally:
            future.exception()  # waits: the lane has finished before we return
        future.result()


_owned = threading.local()  # .pair: the LanePair lane_pair() gave this thread


@contextlib.contextmanager
def lane_pair():
    """Give the calling thread one LanePair for all its dual-lane calls.

    The pair is shut down and its thread joined on exit, whether or not
    the body raised.
    """
    outer = getattr(_owned, "pair", None)
    with LanePair() as pair:
        _owned.pair = pair
        try:
            yield pair
        finally:
            _owned.pair = outer


def _run_lanes(m: int, run_range) -> None:
    """Run run_range over the slabs of [0, m), one call per slab, on two lanes.

    The slab starts sit in one deque: the caller pops from the front and
    the lane thread from the back, one slab per lock hold. A lane failure
    empties the deque and is re-raised once both lanes have stopped.
    """
    starts = deque(range(0, m, MICRO_SLAB))
    lock = threading.Lock()  # one slab is handed out at a time

    def lane(take) -> None:
        try:
            while True:
                with lock:
                    if not starts:
                        return
                    s = take()
                run_range(s, min(s + MICRO_SLAB, m))
        except BaseException:
            with lock:
                starts.clear()
            raise

    held = getattr(_owned, "pair", None)
    with contextlib.nullcontext(held) if held else LanePair() as pair:
        pair.run(partial(lane, starts.pop), partial(lane, starts.popleft))


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


def gemm_asym(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Dual-lane C := C - A^T B. Bitwise identical to gemm_blocked.

    Row slabs of C are shared out as in _run_lanes: each lane updates the
    slabs it takes, both read A and B, and the lanes join before returning.
    """
    m = _check_gemm_shapes(a, b, c)
    if m <= MICRO_SLAB:  # one slab: the caller alone, no handoff
        _gemm_rows(a, b, c, 0, m)
    else:
        _run_lanes(m, partial(_gemm_rows, a, b, c))
    return c


def syrk_blocked(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Slab-blocked C := C - A^T A on the upper triangle. Updates and returns C.

    Row slab [s, e) is updated on columns s onward; entries left of a
    row's slab start are not touched (LAPACK dsyrk, uplo='U').
    """
    _syrk_rows(a, c, 0, _check_gemm_shapes(a, a, c))
    return c


def syrk_asym(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Dual-lane symmetric update; row slabs shared out as in gemm_asym.

    Bitwise identical to syrk_blocked, with the same upper-only contract.
    """
    m = _check_gemm_shapes(a, a, c)
    if m <= MICRO_SLAB:  # one slab: the caller alone, no handoff
        _syrk_rows(a, c, 0, m)
    else:
        _run_lanes(m, partial(_syrk_rows, a, c))
    return c


def _check_trsm(u: np.ndarray, b: np.ndarray) -> tuple:
    """Validate trsm operands; returns the _trsm_cols operands for one call.

    B is solved in place by BLAS, so it must already be a writable
    Fortran-contiguous float64 array.
    """
    n = u.shape[0]
    if u.shape[1] != n or b.shape[0] != n:
        raise ValueError(f"nonconformal trsm operands {u.shape} {b.shape}")
    flags = b.flags
    if b.dtype != _F8 or not (flags.f_contiguous and flags.writeable):
        raise ValueError("trsm solves B in place: B must be a writable "
                         "Fortran-contiguous float64 array")
    diag = u.diagonal().tolist()  # NaN is not zero, as in ndarray.all()
    if 0.0 in diag:
        raise SingularTriangularError(diag.index(0.0))
    u = np.asfortranarray(u, dtype=_F8)
    return (_int(n), _int(n or 1), _AT.from_buffer(u.T) if u.flags.writeable
            else u.ctypes, b.T, 8 * n)


def trsm_blocked(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve U^T X = B in place, U upper triangular. Returns B.

    B must be a writable Fortran-contiguous float64 array; U may have any
    layout. A zero on U's diagonal raises SingularTriangularError before
    B is written.
    """
    _trsm_cols(*_check_trsm(u, b), 0, b.shape[1])
    return b


def trsm_asym(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dual-lane triangular solve; B's column slabs shared out as in gemm_asym.

    Bitwise identical to trsm_blocked, with the same operand rules.
    """
    m, op = b.shape[1], _check_trsm(u, b)
    if m <= MICRO_SLAB:  # one slab: the caller alone, no handoff
        _trsm_cols(*op, 0, m)
    else:
        _run_lanes(m, partial(_trsm_cols, *op))
    return b

