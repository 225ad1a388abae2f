"""Storage, partitioning and reference-kernel oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampsched import dense
from ampsched.dense import (BlockedMatrix, NotPositiveDefiniteError,
                            SingularTriangularError)


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
        out = dense.ref_gemm(a, b, c)
        assert np.allclose(out, c - a.T @ b, atol=1e-13)
        assert out is not c

    def test_gemm_shape_check(self):
        with pytest.raises(ValueError):
            dense.ref_gemm(np.ones((3, 2)), np.ones((4, 2)), np.ones((2, 2)))

    def test_syrk_matches_numpy(self):
        rng = np.random.default_rng(1)
        a = rng.random((6, 4))
        c = rng.random((4, 4))
        out = dense.ref_syrk(a, c)
        assert np.allclose(out, c - a.T @ a, atol=1e-13)

    def test_trsm_solves(self):
        rng = np.random.default_rng(2)
        u = np.triu(rng.random((5, 5)) + np.eye(5) * 5)
        b = rng.random((5, 7))
        x = dense.ref_trsm(u, b)
        assert np.allclose(u.T @ x, b, atol=1e-12)

    def test_trsm_singular(self):
        u = np.triu(np.ones((4, 4)))
        u[2, 2] = 0.0
        with pytest.raises(SingularTriangularError) as exc:
            dense.ref_trsm(u, np.ones((4, 2)))
        assert exc.value.index == 2


class TestResidual:
    def test_exact_factor_is_zero(self):
        a = dense.make_spd(8, 4)
        u = np.linalg.cholesky(a).T
        assert dense.residual(a, u) < 1e-14

    def test_zero_matrix(self):
        z = np.zeros((3, 3))
        assert dense.residual(z, z) == 0.0
        assert dense.residual(z, np.eye(3)) == math.inf


class TestBlockedMatrix:
    @pytest.mark.parametrize("n,b", [(8, 8), (8, 4), (10, 3), (7, 2), (5, 5)])
    def test_roundtrip_bitwise(self, n, b):
        a = dense.make_spd(n, seed=b)
        bm = BlockedMatrix.from_matrix(a, b)
        assert bm.s == -(-n // b)
        np.testing.assert_array_equal(bm.assemble(), a)

    def test_blocks_are_fortran_copies(self):
        a = dense.make_spd(6, 1)
        bm = BlockedMatrix.from_matrix(a, 3)
        assert all(blk.flags.f_contiguous for row in bm.blocks for blk in row)
        bm.blocks[0][0][0, 0] = -99.0
        assert a[0, 0] != -99.0

    def test_ragged_block_dims(self):
        bm = BlockedMatrix.from_matrix(dense.make_spd(10, 1), 4)
        assert [bm.blocks[i][i].shape[0] for i in range(bm.s)] == [4, 4, 2]
        assert bm.blocks[2][2].shape == (2, 2)
        assert bm.blocks[0][2].shape == (4, 2)

    def test_upper_factor_zeros_lower(self):
        bm = BlockedMatrix.from_matrix(dense.make_spd(6, 2), 2)
        u = bm.upper_factor()
        np.testing.assert_array_equal(u, np.triu(u))

    def test_rejects_bad_block_size(self):
        a = dense.make_spd(4, 1)
        for b in (0, 5, -1):
            with pytest.raises(ValueError):
                BlockedMatrix.from_matrix(a, b)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 24), b=st.integers(1, 24), seed=st.integers(0, 5))
    def test_roundtrip_property(self, n, b, seed):
        if b > n:
            b = n
        a = dense.make_spd(n, seed)
        np.testing.assert_array_equal(
            BlockedMatrix.from_matrix(a, b).assemble(), a)
