"""Dense matrix storage, blocked partitioning and reference kernels.

Matrices are plain float64 numpy arrays in column-major (Fortran) order.
``ref_gemm``, ``ref_syrk`` and ``ref_trsm`` are deliberately simple
per-element routines: independent oracles for the slab-blocked kernels in
:mod:`ampsched.kernels`. ``ref_potrf``, the runtime's diagonal-block (C task)
factorization, is one LAPACK ``dpotrf`` call.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lapack


class NotPositiveDefiniteError(ValueError):
    """Raised when a Cholesky pivot is non-positive.

    ``index`` is the failing row/column inside the factored matrix. The
    runtime attaches the partial trace before re-raising.
    """

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        self.trace = None
        super().__init__(message or f"matrix not positive definite at pivot {index}")


class SingularTriangularError(ValueError):
    """Raised when a triangular solve meets a zero diagonal entry."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"zero diagonal entry at index {index} in triangular solve")


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    return a


def make_spd(n: int, seed: int) -> np.ndarray:
    """Deterministic symmetric positive definite test matrix.

    Off-diagonal entries are uniform in [0, 1); the diagonal is set to
    n + 1, which makes the matrix strictly diagonally dominant and hence
    positive definite.
    """
    if n < 1:
        raise ValueError("matrix order must be >= 1")
    rng = np.random.default_rng(seed)
    m = rng.random((n, n))
    a = np.asfortranarray((m + m.T) / 2.0)
    np.fill_diagonal(a, float(n + 1))
    return a


def ref_potrf(a: np.ndarray) -> np.ndarray:
    """A = U^T U by one LAPACK ``dpotrf('U')`` call; ``a`` is left untouched.

    Returns U with zero strictly-lower part; a's lower part is not read.
    Raises NotPositiveDefiniteError at the first non-positive or non-finite
    pivot: OpenBLAS's dpotrf passes NaN pivots. The name stays because the
    benchmark's C-task span and its ``dense.ref_potrf.*`` metrics key on it.
    """
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("ref_potrf requires a square matrix")
    u, info = lapack.dpotrf(a, lower=0, clean=1)
    done = info - 1 if info > 0 else len(u)
    bad = np.flatnonzero(~np.isfinite(np.diagonal(u)[:done]))
    if bad.size or info > 0:
        raise NotPositiveDefiniteError(int(bad[0]) if bad.size else done)
    return u


def ref_gemm(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Naive matrix multiply-update, C := C - A^T B, per-element dot products.

    A is k-by-m, B is k-by-n, C is m-by-n. Returns a new array.
    """
    a, b, c = _as_matrix(a), _as_matrix(b), _as_matrix(c)
    k, m = a.shape
    k2, n = b.shape
    if k2 != k or c.shape != (m, n):
        raise ValueError(f"nonconformal gemm operands {a.shape} {b.shape} {c.shape}")
    out = np.array(c, order="F")
    for i in range(m):
        col = a[:, i]
        for j in range(n):
            out[i, j] -= np.dot(col, b[:, j])
    return out


def ref_syrk(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Naive symmetric rank-k update, C := C - A^T A on the full block.

    The update is applied to the whole (symmetric) block; only the upper
    triangle is ever consumed by the factorization. It is ref_gemm with
    B = A, as the slab-blocked syrk is the blocked gemm with B = A.
    """
    return ref_gemm(a, a, c)


def ref_trsm(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve U^T X = B by forward substitution, U upper triangular.

    This is the panel update of the blocked factorization. Returns X.
    """
    u, b = _as_matrix(u), _as_matrix(b)
    n = u.shape[0]
    if u.shape[1] != n or b.shape[0] != n:
        raise ValueError(f"nonconformal trsm operands {u.shape} {b.shape}")
    x = np.array(b, order="F")
    for i in range(n):
        if u[i, i] == 0.0:
            raise SingularTriangularError(i)
        if i > 0:
            x[i, :] = (b[i, :] - u[:i, i] @ x[:i, :]) / u[i, i]
        else:
            x[i, :] = b[i, :] / u[i, i]
    return x


def residual(a: np.ndarray, u: np.ndarray) -> float:
    """Relative factorization residual ||A - U^T U||_F / ||A||_F."""
    a, u = _as_matrix(a), _as_matrix(u)
    num = np.linalg.norm(a - u.T @ u)
    den = np.linalg.norm(a)
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return float(num / den)


class BlockedMatrix:
    """A square matrix partitioned into a grid of b-by-b tiles.

    Tiles are contiguous Fortran-order copies so that concurrent kernel
    lanes touch disjoint memory. The last tile row/column may be ragged
    when b does not divide n. The factorization reads only the upper
    triangle, as LAPACK does with uplo 'U': tiles below the diagonal and
    the strictly lower part of diagonal tiles are never consumed.
    """

    def __init__(self, n: int, b: int, blocks: list[list[np.ndarray]]):
        self.n = n
        self.b = b
        self.s = -(-n // b)
        self.blocks = blocks

    @classmethod
    def from_matrix(cls, a: np.ndarray, b: int) -> "BlockedMatrix":
        a = _as_matrix(a)
        n = a.shape[0]
        if a.shape[1] != n:
            raise ValueError("only square matrices can be block-partitioned")
        if not 1 <= b <= n:
            raise ValueError(f"block size {b} out of range [1, {n}]")
        s = -(-n // b)
        blocks = [[np.array(a[i * b:(i + 1) * b, j * b:(j + 1) * b], order="F")
                   for j in range(s)] for i in range(s)]
        return cls(n, b, blocks)

    def assemble(self) -> np.ndarray:
        """Reassemble the original matrix; bitwise inverse of from_matrix."""
        out = np.empty((self.n, self.n), order="F")
        for i in range(self.s):
            r0 = i * self.b
            for j in range(self.s):
                c0 = j * self.b
                blk = self.blocks[i][j]
                out[r0:r0 + blk.shape[0], c0:c0 + blk.shape[1]] = blk
        return out

    def upper_factor(self) -> np.ndarray:
        """Assemble and keep only the upper triangle (the Cholesky factor)."""
        return np.asfortranarray(np.triu(self.assemble()))

