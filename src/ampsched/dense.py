"""Dense matrix storage, blocked partitioning and the diagonal-block factor.

Matrices are plain float64 numpy arrays in column-major (Fortran) order.
A BlockedMatrix keeps the tiles on and above the diagonal, all that uplo
'U' reads: lower tiles are not stored. ``ref_potrf``, the runtime's
diagonal-block (C task) factorization, is one LAPACK ``dpotrf`` call.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lapack

_SPD_TILE = 64  # make_spd's tile pair, 2 x 32 KiB, stays in cache


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
    """Deterministic symmetric positive definite test matrix, F order.

    Off-diagonal entries are uniform in [0, 1); the diagonal n + 1 makes it
    strictly diagonally dominant, hence positive definite. The random m is
    symmetrized in place, one tile pair at a time (peak: one n-by-n array
    plus a tile), with the bytes of ``((m + m.T) / 2).T``: addition
    commutes, and a diagonal tile's mean is taken before either write."""
    if n < 1:
        raise ValueError("matrix order must be >= 1")
    m = np.random.default_rng(seed).random((n, n))
    for i in range(0, n, _SPD_TILE):
        for j in range(i, n, _SPD_TILE):
            r, c = slice(i, i + _SPD_TILE), slice(j, j + _SPD_TILE)
            t = m[r, c] + m[c, r].T
            t /= 2.0
            m[r, c], m[c, r] = t, t.T
    np.fill_diagonal(m, float(n + 1))
    return m.T  # symmetric, so the transpose view is the F-order result


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


def residual(a: np.ndarray, u: np.ndarray) -> float:
    """Relative factorization residual ||A - U^T U||_F / ||A||_F."""
    a, u = _as_matrix(a), _as_matrix(u)
    num = np.linalg.norm(u.T @ u - a)  # subtracts in the product's buffer
    den = np.linalg.norm(a)
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return float(num / den)


class BlockedMatrix:
    """A square matrix partitioned into a grid of b-by-b tiles.

    Tiles (i, j) with j >= i are contiguous Fortran-order copies, so that
    concurrent kernel lanes touch disjoint memory. Lower tiles are not
    stored (their slots are None): as with LAPACK's uplo 'U', neither they
    nor the strictly lower part of diagonal tiles is read. The last tile
    row/column may be ragged when b does not divide n.
    """

    def __init__(self, n: int, b: int, blocks: list[list[np.ndarray | None]]):
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
                   if j >= i else None for j in range(s)] for i in range(s)]
        return cls(n, b, blocks)

    def upper_factor(self) -> np.ndarray:
        """The factor U: the upper tiles, zero below the diagonal."""
        b = self.b
        out = np.zeros((self.n, self.n), order="F")
        for i, row in enumerate(self.blocks):
            r = slice(i * b, (i + 1) * b)
            out[r, r] = np.triu(row[i])
            for j in range(i + 1, self.s):
                out[r, j * b:(j + 1) * b] = row[j]
        return out
