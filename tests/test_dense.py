"""Storage, partitioning and reference-kernel oracles."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampsched import dense
from ampsched.dense import (BlockedMatrix, NotPositiveDefiniteError,
                            SingularTriangularError)
from oracles import ref_gemm, ref_syrk, ref_trsm


def tol(n):
    return 100 * np.finfo(np.float64).eps * n


class TestMakeSpd:
    def test_symmetric_and_diagonally_dominant(self):
        a = dense.make_spd(17, seed=3)
        assert a.shape == (17, 17)
        np.testing.assert_array_equal(a, a.T)
        assert np.all(np.diag(a) == 18.0)
        off = a - np.diag(np.diag(a))
        assert np.all(np.abs(off).sum(axis=1) < np.diag(a))

    @pytest.mark.parametrize("n", [1, 2, 17, 63, 64, 65, 129, 300])
    def test_equals_the_fortran_copy_construction(self, n):
        # Reference: an F-order copy of the symmetrized matrix.
        m = np.random.default_rng(n).random((n, n))
        old = np.asfortranarray((m + m.T) / 2.0)
        np.fill_diagonal(old, float(n + 1))
        a = dense.make_spd(n, n)
        assert a.flags.f_contiguous
        assert a.tobytes(order="F") == old.tobytes(order="F")
        assert a.tobytes() == a.T.tobytes()

    def test_bytes_pinned_at_n2048(self):
        a = dense.make_spd(2048, 1)
        assert hashlib.sha1(a.tobytes(order="F")).hexdigest() == \
            "00b719f2672514d565c5ed60997e69d6ae11fb4c"

    def test_peak_is_one_matrix_plus_a_tile(self):
        tracemalloc.start()
        try:
            dense.make_spd(1024, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.5 * 2 ** 20  # the matrix is 8 MiB

    def test_deterministic_per_seed(self):
        assert np.array_equal(dense.make_spd(12, 1), dense.make_spd(12, 1))
        assert not np.array_equal(dense.make_spd(12, 1), dense.make_spd(12, 2))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            dense.make_spd(0, 1)


class TestRefPotrf:
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
    def test_matches_lapack(self, n):
        a = dense.make_spd(n, seed=n)
        u = dense.ref_potrf(a)
        expected = np.linalg.cholesky(a).T
        assert np.allclose(u, expected, atol=tol(n), rtol=tol(n))
        np.testing.assert_array_equal(u, np.triu(u))
        assert dense.residual(a, u) <= 1e-13

    def test_reports_failing_pivot(self):
        a = np.eye(5, order="F")
        a[3, 3] = -1.0
        with pytest.raises(NotPositiveDefiniteError) as exc:
            dense.ref_potrf(a)
        assert exc.value.index == 3

    @pytest.mark.parametrize("entries, pivot", [
        ({(2, 2): np.nan}, 2),
        ({(1, 4): np.nan}, 4),
        ({(3, 3): np.inf}, 3),
        ({(0, 3): np.inf}, 3),
        ({(3, 3): -1.0}, 3),
        ({(1, 1): np.inf, (4, 4): -1.0}, 1)],
        ids=["nan-diagonal", "nan-above", "inf-diagonal", "inf-above",
             "negative", "inf-before-negative"])
    def test_reports_first_bad_pivot(self, entries, pivot):
        a = dense.make_spd(6, 1)
        for (row, col), value in entries.items():
            a[row, col] = value
        with pytest.raises(NotPositiveDefiniteError) as exc:
            dense.ref_potrf(a)
        assert exc.value.index == pivot

    def test_c_ordered_input(self):
        a = dense.make_spd(7, 2)
        u = dense.ref_potrf(np.ascontiguousarray(a))
        assert u.flags.f_contiguous
        np.testing.assert_array_equal(u, dense.ref_potrf(a))

    @pytest.mark.parametrize("a, expected", [
        (np.zeros((0, 0)), np.zeros((0, 0))),
        (np.array([[4.0]]), np.array([[2.0]]))], ids=["0x0", "1x1"])
    def test_tiny_matrices(self, a, expected):
        np.testing.assert_array_equal(dense.ref_potrf(a), expected)

    def test_input_unchanged_and_lower_part_unread(self):
        a = dense.make_spd(9, 3)
        a[5, 2] = a[8, 0] = np.nan
        before = a.copy()
        u = dense.ref_potrf(a)
        np.testing.assert_array_equal(a, before)
        np.testing.assert_array_equal(u, np.triu(u))
        np.testing.assert_array_equal(u, dense.ref_potrf(np.triu(a)))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            dense.ref_potrf(np.ones((3, 4)))


class TestRefBlas3:
    def test_gemm_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.random((7, 5))
        b = rng.random((7, 6))
        c = rng.random((5, 6))
        out = ref_gemm(a, b, c)
        assert np.allclose(out, c - a.T @ b, atol=1e-13)
        assert out is not c

    def test_gemm_shape_check(self):
        with pytest.raises(ValueError):
            ref_gemm(np.ones((3, 2)), np.ones((4, 2)), np.ones((2, 2)))

    def test_syrk_matches_numpy(self):
        rng = np.random.default_rng(1)
        a = rng.random((6, 4))
        c = rng.random((4, 4))
        out = ref_syrk(a, c)
        assert np.allclose(out, c - a.T @ a, atol=1e-13)

    def test_trsm_solves(self):
        rng = np.random.default_rng(2)
        u = np.triu(rng.random((5, 5)) + np.eye(5) * 5)
        b = rng.random((5, 7))
        x = ref_trsm(u, b)
        assert np.allclose(u.T @ x, b, atol=1e-12)

    def test_trsm_singular(self):
        u = np.triu(np.ones((4, 4)))
        u[2, 2] = 0.0
        with pytest.raises(SingularTriangularError) as exc:
            ref_trsm(u, np.ones((4, 2)))
        assert exc.value.index == 2


class TestResidual:
    def test_exact_factor_is_zero(self):
        a = dense.make_spd(8, 4)
        u = np.linalg.cholesky(a).T
        assert dense.residual(a, u) < 1e-14

    @pytest.mark.parametrize("n", [40, 300])
    def test_equals_the_old_formula_on_a_perturbed_factor(self, n):
        # n=300 is past numpy's 256 KiB threshold for reusing a temporary.
        a = dense.make_spd(n, 4)
        u = np.linalg.cholesky(a).T
        u += 1e-6 * np.triu(np.random.default_rng(n).random((n, n)))
        expected = float(np.linalg.norm(a - u.T @ u) / np.linalg.norm(a))
        assert expected > 1e-10
        assert dense.residual(a, u) == expected

    def test_zero_matrix(self):
        z = np.zeros((3, 3))
        assert dense.residual(z, z) == 0.0
        assert dense.residual(z, np.eye(3)) == math.inf

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="2-d"):
            dense.residual(np.ones(3), np.eye(3))


def check_upper_tiles_only(a, b):
    """Each tile with j >= i is a bitwise F-order copy of its slice of a;
    the slots below the diagonal are None."""
    n = a.shape[0]
    bm = BlockedMatrix.from_matrix(a, b)
    assert bm.s == -(-n // b) == len(bm.blocks)
    for i, row in enumerate(bm.blocks):
        assert len(row) == bm.s
        for j, blk in enumerate(row):
            if j < i:
                assert blk is None, (i, j)
                continue
            tile = a[i * b:(i + 1) * b, j * b:(j + 1) * b]
            assert blk.flags.f_contiguous and blk.shape == tile.shape
            assert blk.tobytes(order="F") == tile.tobytes(order="F"), (i, j)


class TestBlockedMatrix:
    # The stored (upper) tiles round-trip bitwise to their slices of a.
    @pytest.mark.parametrize("n,b", [(8, 8), (8, 4), (10, 3), (7, 2), (5, 5)])
    def test_roundtrip_bitwise(self, n, b):
        check_upper_tiles_only(dense.make_spd(n, seed=b), b)

    def test_blocks_are_fortran_copies(self):
        a = dense.make_spd(6, 1)
        bm = BlockedMatrix.from_matrix(a, 3)
        stored = [blk for row in bm.blocks for blk in row if blk is not None]
        assert len(stored) == 3 and all(b.flags.f_contiguous for b in stored)
        bm.blocks[0][0][0, 0] = -99.0
        assert a[0, 0] != -99.0

    def test_ragged_block_dims(self):
        bm = BlockedMatrix.from_matrix(dense.make_spd(10, 1), 4)
        assert [bm.blocks[i][i].shape[0] for i in range(bm.s)] == [4, 4, 2]
        assert bm.blocks[2][2].shape == (2, 2)
        assert bm.blocks[0][2].shape == (4, 2)

    def test_upper_factor_zeros_lower(self):
        # Unfactored blocks, so the lower parts are nonzero; 7 and 70 leave
        # ragged last tiles.
        for n, b in ((6, 2), (7, 3), (70, 32)):
            a = dense.make_spd(n, 2)
            u = BlockedMatrix.from_matrix(a, b).upper_factor()
            assert u.flags.f_contiguous
            assert u.tobytes() == np.triu(a).tobytes()

    def test_rejects_bad_block_size(self):
        a = dense.make_spd(4, 1)
        for b in (0, 5, -1):
            with pytest.raises(ValueError):
                BlockedMatrix.from_matrix(a, b)
        with pytest.raises(ValueError, match="square"):
            BlockedMatrix.from_matrix(np.ones((3, 4)), 2)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 24), b=st.integers(1, 24), seed=st.integers(0, 5))
    def test_roundtrip_property(self, n, b, seed):
        if b > n:
            b = n
        check_upper_tiles_only(dense.make_spd(n, seed), b)
