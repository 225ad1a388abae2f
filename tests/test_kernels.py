"""Cache-blocked kernels against naive oracles; dual-lane bitwise identity."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampsched import dense, kernels
from ampsched.kernels import (CacheParams, LaneConfig, gemm_asym, gemm_blocked,
                              split_loop3, syrk_asym, syrk_blocked, trsm_asym,
                              trsm_blocked)

EPS = np.finfo(np.float64).eps


def gemm_tol(a, b, c, k):
    hi = max(np.abs(a).max(), np.abs(b).max(), np.abs(c).max(), 1.0)
    return 8 * EPS * max(k, 1) * hi


def rand(shape, seed):
    return np.asfortranarray(np.random.default_rng(seed).random(shape))


SWEEP = [CacheParams(mc, nc, kc)
         for mc in (1, 2, 7, 64)
         for nc in (1, 5, 64)
         for kc in (1, 3, 64)]
SIZES = [(1, 1, 1), (5, 3, 7), (17, 64, 33), (64, 64, 64), (2, 64, 1)]


class TestGemm:
    @pytest.mark.parametrize("p", SWEEP)
    @pytest.mark.parametrize("m,n,k", [(5, 3, 7), (17, 9, 4)])
    def test_param_sweep_matches_oracle(self, p, m, n, k):
        a, b, c0 = rand((k, m), 0), rand((k, n), 1), rand((m, n), 2)
        out = gemm_blocked(a, b, c0.copy(order="F"), p)
        ref = dense.ref_gemm(a, b, c0)
        assert np.abs(out - ref).max() <= gemm_tol(a, b, c0, k)

    @pytest.mark.parametrize("m,n,k", SIZES)
    def test_sizes_match_oracle(self, m, n, k):
        a, b, c0 = rand((k, m), 3), rand((k, n), 4), rand((m, n), 5)
        out = gemm_blocked(a, b, c0.copy(order="F"))
        ref = dense.ref_gemm(a, b, c0)
        assert np.abs(out - ref).max() <= gemm_tol(a, b, c0, k)

    def test_result_independent_of_mc_on_slab_grid(self):
        # Micro-panels are cut on the absolute 32-row grid, so any mc that
        # is a multiple of 32 must give bitwise identical results.
        a, b, c0 = rand((70, 100), 6), rand((70, 21), 7), rand((100, 21), 8)
        base = gemm_blocked(a, b, c0.copy(order="F"), CacheParams(128, 64, 64))
        for mc in (32, 64, 96, 160):
            out = gemm_blocked(a, b, c0.copy(order="F"), CacheParams(mc, 64, 64))
            np.testing.assert_array_equal(out, base)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            gemm_blocked(np.ones((3, 2)), np.ones((4, 5)), np.ones((2, 5)))

    def test_updates_in_place(self):
        a, b = rand((4, 4), 9), rand((4, 4), 10)
        c = rand((4, 4), 11)
        out = gemm_blocked(a, b, c)
        assert out is c


class TestGemmAsym:
    @pytest.mark.parametrize("m,n,k", SIZES)
    def test_bitwise_equals_blocked(self, m, n, k):
        a, b, c0 = rand((k, m), 12), rand((k, n), 13), rand((m, n), 14)
        seq = gemm_blocked(a, b, c0.copy(order="F"), kernels.FAST_PARAMS)
        dual = gemm_asym(a, b, c0.copy(order="F"))
        np.testing.assert_array_equal(dual, seq)

    def test_speed_slow_zero_is_sequential(self):
        cfg = LaneConfig(speed_slow=0.0)
        a, b, c0 = rand((48, 40), 15), rand((48, 36), 16), rand((40, 36), 17)
        seq = gemm_blocked(a, b, c0.copy(order="F"), cfg.fast)
        dual = gemm_asym(a, b, c0.copy(order="F"), cfg)
        np.testing.assert_array_equal(dual, seq)

    def test_unequal_lane_mc_still_bitwise(self):
        # Lane mc values differ but both sit on the micro-panel grid.
        cfg = LaneConfig(fast=CacheParams(64, 128, 16), slow=CacheParams(32, 128, 16),
                         speed_fast=2.0, speed_slow=1.0)
        a, b, c0 = rand((30, 100), 18), rand((30, 19), 19), rand((100, 19), 20)
        seq = gemm_blocked(a, b, c0.copy(order="F"), cfg.fast)
        dual = gemm_asym(a, b, c0.copy(order="F"), cfg)
        np.testing.assert_array_equal(dual, seq)


class TestSyrkTrsm:
    @pytest.mark.parametrize("m,k", [(1, 1), (7, 5), (33, 17), (64, 64)])
    def test_syrk_matches_oracle(self, m, k):
        a, c0 = rand((k, m), 21), rand((m, m), 22)
        out = syrk_blocked(a, c0.copy(order="F"))
        ref = dense.ref_syrk(a, c0)
        assert np.abs(out - ref).max() <= gemm_tol(a, a, c0, k)
        np.testing.assert_array_equal(
            syrk_asym(a, c0.copy(order="F")), out)

    @pytest.mark.parametrize("n,m", [(1, 1), (5, 9), (33, 64), (64, 17)])
    def test_trsm_matches_oracle(self, n, m):
        u = np.asfortranarray(np.triu(rand((n, n), 23) + np.eye(n) * n))
        b0 = rand((n, m), 24)
        out = trsm_blocked(u, b0.copy(order="F"))
        ref = dense.ref_trsm(u, b0)
        hi = max(np.abs(u).max(), np.abs(b0).max(), 1.0)
        assert np.abs(out - ref).max() <= 64 * EPS * n * hi
        np.testing.assert_array_equal(
            trsm_asym(u, b0.copy(order="F")), out)

    def test_trsm_column_chunking_bitwise(self):
        u = np.asfortranarray(np.triu(rand((20, 20), 25) + np.eye(20) * 20))
        b0 = rand((20, 31), 26)
        base = trsm_blocked(u, b0.copy(order="F"), CacheParams(1, 31, 1))
        for nc in (1, 2, 7, 31):
            out = trsm_blocked(u, b0.copy(order="F"), CacheParams(1, nc, 1))
            np.testing.assert_array_equal(out, base)

    def test_trsm_singular_propagates(self):
        u = np.triu(np.ones((4, 4), order="F"))
        u[1, 1] = 0.0
        with pytest.raises(dense.SingularTriangularError):
            trsm_blocked(u, np.ones((4, 3), order="F"))


class TestLaneFailure:
    def test_trsm_slow_lane_zero_pivot_raises(self):
        # 1:9 speeds put every column on the slow lane thread.
        cfg = LaneConfig(speed_fast=1.0, speed_slow=9.0)
        assert split_loop3(100, cfg).fast_range == (0, 0)
        u = np.asfortranarray(np.triu(rand((6, 6), 27) + np.eye(6)))
        u[2, 2] = 0.0
        with pytest.raises(dense.SingularTriangularError) as exc:
            trsm_asym(u, rand((6, 100), 28), cfg)
        assert exc.value.index == 2

    def test_gemm_slow_lane_failure_raises(self, monkeypatch):
        orig = kernels._lane_loop3

        def lane(a, c, bpack, kk, ke, jj, je, lo, hi, mc):
            if lo > 0:  # the slow lane owns the trailing rows
                raise FloatingPointError("slow lane")
            orig(a, c, bpack, kk, ke, jj, je, lo, hi, mc)

        monkeypatch.setattr(kernels, "_lane_loop3", lane)
        a, b, c = rand((8, 256), 29), rand((8, 8), 30), rand((256, 8), 31)
        with pytest.raises(FloatingPointError, match="slow lane"):
            gemm_asym(a, b, c)


class TestPacking:
    def test_round_trip_is_bitwise(self):
        src = rand((37, 29), 27)
        rows, cols = slice(3, 20), slice(5, 28)
        packed = kernels.pack_panel(src, rows, cols)
        np.testing.assert_array_equal(packed, src[rows, cols])
        assert packed.flags.c_contiguous

    def test_transposed_round_trip_is_bitwise(self):
        src = rand((37, 29), 28)
        rows, cols = slice(0, 32), slice(2, 11)
        packed = kernels.pack_panel(src, rows, cols, transpose=True)
        np.testing.assert_array_equal(packed.T, src[rows, cols])
        assert packed.flags.c_contiguous

    @settings(max_examples=50, deadline=None)
    @given(r0=st.integers(0, 20), rh=st.integers(0, 20),
           c0=st.integers(0, 15), ch=st.integers(0, 15))
    def test_round_trip_property(self, r0, rh, c0, ch):
        src = rand((40, 30), 29)
        rows, cols = slice(r0, r0 + rh), slice(c0, c0 + ch)
        packed = kernels.pack_panel(src, rows, cols)
        np.testing.assert_array_equal(packed, src[rows, cols])


class TestSplitLoop3:
    def test_proportional_split(self):
        cfg = LaneConfig(speed_fast=3.0, speed_slow=1.0,
                         fast=CacheParams(1, 1, 1), slow=CacheParams(1, 1, 1))
        s = split_loop3(100, cfg)
        assert s.fast_range == (0, 75)
        assert s.slow_range == (75, 100)

    def test_asymmetric_share_rounds_up(self):
        cfg = LaneConfig(speed_fast=4.56, speed_slow=1.0,
                         fast=CacheParams(156, 1, 1), slow=CacheParams(32, 1, 1))
        s = split_loop3(312, cfg)  # 312 * 4.56 / 5.56 = 255.88 -> 256
        assert s.fast_range == (0, 256)
        assert s.slow_range == (256, 312)

    def test_slow_sliver_folds_into_fast(self):
        cfg = LaneConfig(speed_fast=9.0, speed_slow=1.0,
                         fast=CacheParams(4, 1, 1), slow=CacheParams(32, 1, 1))
        s = split_loop3(100, cfg)  # slow share 10 < 32/2
        assert s.fast_range == (0, 100)
        assert s.slow_range[0] == s.slow_range[1]

    def test_fast_sliver_folds_into_slow(self):
        cfg = LaneConfig(speed_fast=1.0, speed_slow=9.0,
                         fast=CacheParams(64, 1, 1), slow=CacheParams(1, 1, 1))
        s = split_loop3(100, cfg)  # fast share 10 < 64/2
        assert s.fast_range == (0, 0)
        assert s.slow_range == (0, 100)

    def test_larger_share_is_never_folded(self):
        # Fast share 74 is below half the fast mc (80) but is the larger one.
        s = split_loop3(90, kernels.DEFAULT_LANES)
        assert s.fast_range == (0, 74)
        assert s.slow_range == (74, 90)

    def test_speed_slow_zero(self):
        s = split_loop3(10, LaneConfig(speed_slow=0.0))
        assert s.fast_range == (0, 10)

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(0, 500), sf=st.floats(0.1, 10), ss=st.floats(0, 10),
           mcf=st.integers(1, 64), mcs=st.integers(1, 64))
    def test_partition_property(self, m, sf, ss, mcf, mcs):
        cfg = LaneConfig(fast=CacheParams(mcf, 1, 1), slow=CacheParams(mcs, 1, 1),
                         speed_fast=sf, speed_slow=ss)
        s = split_loop3(m, cfg)
        (f0, f1), (s0, s1) = s.fast_range, s.slow_range
        assert f0 == 0 and f1 == s0 and s1 == m
        assert f0 <= f1 <= s0 <= s1


class TestValidation:
    def test_cache_params_positive(self):
        with pytest.raises(ValueError):
            CacheParams(0, 1, 1)

    def test_lane_speeds(self):
        with pytest.raises(ValueError):
            LaneConfig(speed_fast=0.0)
        with pytest.raises(ValueError):
            LaneConfig(speed_slow=-1.0)


class TestCrossoverProbe:
    def test_rows_and_csv_schema(self):
        rows = kernels.kernel_crossover_probe([8, 16])
        assert [r["size"] for r in rows] == [8, 16]
        for r in rows:
            assert set(r) == set(kernels.CROSSOVER_FIELDS)
            assert r["seq_seconds"] > 0 and r["asym_seconds"] > 0
            assert r["flops"] == 2.0 * r["size"] ** 3
        buf = io.StringIO()
        kernels.write_crossover_csv(rows, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ",".join(kernels.CROSSOVER_FIELDS)
        assert len(lines) == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            kernels.kernel_crossover_probe([])
