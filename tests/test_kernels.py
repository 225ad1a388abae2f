"""Slab-grid kernels against naive oracles; dual-lane bitwise identity."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import blas

from ampsched import dense, kernels
from ampsched.kernels import (MICRO_SLAB, LaneConfig, gemm_asym, gemm_blocked,
                              split_loop3, syrk_asym, syrk_blocked, trsm_asym,
                              trsm_blocked)
from conftest import count_lane_pairs, run_with_timeout

EPS = np.finfo(np.float64).eps


def gemm_tol(a, b, c, k):
    hi = max(np.abs(a).max(), np.abs(b).max(), np.abs(c).max(), 1.0)
    return 8 * EPS * max(k, 1) * hi


def rand(shape, seed):
    return np.asfortranarray(np.random.default_rng(seed).random(shape))


SWEEP = [LaneConfig(speed_fast=sf, speed_slow=ss)
         for sf in (0.1, 0.5, 1.0, 2.0, 4.59, 9.0)
         for ss in (0.0, 0.5, 1.0, 2.0, 9.0, 10.0)]
# Speed ratios whose cuts of 100 rows or columns land on 0, 32, 64, 96 and 100.
RATIOS = [LaneConfig(speed_fast=sf, speed_slow=ss)
          for sf, ss in ((1.0, 0.0), (1.0, 9.0), (1.0, 2.0), (1.0, 1.0),
                         (2.0, 1.0), (4.59, 1.0))]
SIZES = [(1, 1, 1), (5, 3, 7), (17, 64, 33), (64, 64, 64), (2, 64, 1)]


def upper(n, seed):
    return np.asfortranarray(np.triu(rand((n, n), seed) + np.eye(n) * n))


class TestGemm:
    @pytest.mark.parametrize("p", SWEEP)
    @pytest.mark.parametrize("m,n,k", [(5, 3, 7), (17, 9, 4)])
    def test_param_sweep_matches_oracle(self, p, m, n, k):
        a, b, c0 = rand((k, m), 0), rand((k, n), 1), rand((m, n), 2)
        out = gemm_asym(a, b, c0.copy(order="F"), p)
        ref = dense.ref_gemm(a, b, c0)
        assert np.abs(out - ref).max() <= gemm_tol(a, b, c0, k)
        np.testing.assert_array_equal(out, gemm_blocked(a, b, c0.copy(order="F")))

    @pytest.mark.parametrize("m,n,k", SIZES)
    def test_sizes_match_oracle(self, m, n, k):
        a, b, c0 = rand((k, m), 3), rand((k, n), 4), rand((m, n), 5)
        out = gemm_blocked(a, b, c0.copy(order="F"))
        ref = dense.ref_gemm(a, b, c0)
        assert np.abs(out - ref).max() <= gemm_tol(a, b, c0, k)

    def test_result_independent_of_mc_on_slab_grid(self):
        # Each lane's row block (its mc) starts on the absolute 32-row grid,
        # so every speed ratio must give bitwise identical results.
        a, b, c0 = rand((70, 100), 6), rand((70, 21), 7), rand((100, 21), 8)
        base = gemm_blocked(a, b, c0.copy(order="F"))
        cuts = set()
        for lanes in RATIOS:
            cuts.add(split_loop3(100, lanes).fast_range[1])
            out = gemm_asym(a, b, c0.copy(order="F"), lanes)
            np.testing.assert_array_equal(out, base)
        assert cuts == {0, 32, 64, 96, 100}

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
        seq = gemm_blocked(a, b, c0.copy(order="F"))
        dual = gemm_asym(a, b, c0.copy(order="F"))
        np.testing.assert_array_equal(dual, seq)

    def test_speed_slow_zero_is_sequential(self):
        cfg = LaneConfig(speed_slow=0.0)
        a, b, c0 = rand((48, 40), 15), rand((48, 36), 16), rand((40, 36), 17)
        seq = gemm_blocked(a, b, c0.copy(order="F"))
        dual = gemm_asym(a, b, c0.copy(order="F"), cfg)
        np.testing.assert_array_equal(dual, seq)

    def test_unequal_lane_mc_still_bitwise(self):
        # The lanes get unequal row blocks (mc 64 and 36); the slow one
        # ends in a ragged slab.
        cfg = LaneConfig(speed_fast=2.0, speed_slow=1.0)
        assert split_loop3(100, cfg).slow_range == (64, 100)
        a, b, c0 = rand((30, 100), 18), rand((30, 19), 19), rand((100, 19), 20)
        seq = gemm_blocked(a, b, c0.copy(order="F"))
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
        u = upper(n, 23)
        b0 = rand((n, m), 24)
        out = trsm_blocked(u, b0.copy(order="F"))
        ref = dense.ref_trsm(u, b0)
        hi = max(np.abs(u).max(), np.abs(b0).max(), 1.0)
        assert np.abs(out - ref).max() <= 64 * EPS * n * hi
        np.testing.assert_array_equal(
            trsm_asym(u, b0.copy(order="F")), out)

    def test_trsm_column_chunking_bitwise(self):
        # Every speed ratio cuts the 100 RHS columns at another slab edge.
        u = upper(20, 25)
        b0 = rand((20, 100), 26)
        base = trsm_blocked(u, b0.copy(order="F"))
        for lanes in RATIOS:
            out = trsm_asym(u, b0.copy(order="F"), lanes)
            np.testing.assert_array_equal(out, base)

    def test_trsm_singular_propagates(self):
        u = np.triu(np.ones((4, 4), order="F"))
        u[1, 1] = 0.0
        u[3, 3] = 0.0
        b = np.ones((4, 3), order="F")
        with pytest.raises(dense.SingularTriangularError) as exc:
            trsm_blocked(u, b)
        assert exc.value.index == 1
        np.testing.assert_array_equal(b, np.ones((4, 3)))


class TestLaneFailure:
    def test_trsm_slow_lane_zero_pivot_raises(self):
        # 1:9 speeds put every column on the slow lane thread.
        cfg = LaneConfig(speed_fast=1.0, speed_slow=9.0)
        assert split_loop3(100, cfg).fast_range == (0, 0)
        u = np.asfortranarray(np.triu(rand((6, 6), 27) + np.eye(6)))
        u[2, 2] = 0.0
        b0 = rand((6, 100), 28)
        b = b0.copy(order="F")
        with pytest.raises(dense.SingularTriangularError) as exc:
            trsm_asym(u, b, cfg)
        assert exc.value.index == 2
        np.testing.assert_array_equal(b, b0)

    def test_gemm_slow_lane_failure_raises(self, monkeypatch):
        orig = kernels._gemm_rows

        def rows(a, b, c, lo, hi):
            if lo > 0:  # the slow lane owns the trailing rows
                raise FloatingPointError("slow lane")
            orig(a, b, c, lo, hi)

        monkeypatch.setattr(kernels, "_gemm_rows", rows)
        a, b, c = rand((8, 256), 29), rand((8, 8), 30), rand((256, 8), 31)
        with pytest.raises(FloatingPointError, match="slow lane"):
            gemm_asym(a, b, c)


class TestLanePair:
    def test_direct_calls_leave_no_thread(self):
        before = threading.active_count()
        a, b, c = rand((8, 256), 32), rand((8, 8), 33), rand((256, 8), 34)
        u, rhs = upper(6, 35), rand((6, 100), 36)

        def calls():
            gemm_asym(a, b, c)
            syrk_asym(a, rand((256, 256), 37))
            trsm_asym(u, rhs, LaneConfig(1.0, 9.0))  # all on the slow lane

        run_with_timeout(calls)
        assert threading.active_count() == before

    def test_returns_only_after_the_slow_lane(self, monkeypatch):
        orig = kernels._gemm_rows

        def rows(a, b, c, lo, hi):
            if lo > 0:  # the slow lane finishes well after the fast one
                time.sleep(0.05)
            orig(a, b, c, lo, hi)

        monkeypatch.setattr(kernels, "_gemm_rows", rows)
        a, b, c0 = rand((8, 256), 45), rand((8, 8), 46), rand((256, 8), 47)
        expect = gemm_blocked(a, b, c0.copy(order="F"))

        def calls():
            with kernels.lane_pair():
                for _ in range(2):
                    out = gemm_asym(a, b, c0.copy(order="F"))
                    np.testing.assert_array_equal(out, expect)

        run_with_timeout(calls)

    def test_one_lane_thread_serves_every_call(self, monkeypatch):
        before = threading.active_count()
        orig = kernels._gemm_rows
        fail = [True]

        def rows(a, b, c, lo, hi):
            if lo > 0 and fail[0]:
                raise FloatingPointError("slow lane")
            orig(a, b, c, lo, hi)

        monkeypatch.setattr(kernels, "_gemm_rows", rows)
        a, b, c0 = rand((8, 256), 38), rand((8, 8), 39), rand((256, 8), 40)
        expect = gemm_blocked(a, b, c0.copy(order="F"))

        def calls():
            outside = threading.active_count()
            with kernels.lane_pair():
                assert threading.active_count() == outside + 1
                with pytest.raises(FloatingPointError, match="slow lane"):
                    gemm_asym(a, b, c0.copy(order="F"))
                fail[0] = False  # the pair survives a lane failure
                for _ in range(3):
                    out = gemm_asym(a, b, c0.copy(order="F"))
                    np.testing.assert_array_equal(out, expect)
                    trsm_asym(upper(6, 41), rand((6, 100), 42))
                assert threading.active_count() == outside + 1

        run_with_timeout(calls)
        assert threading.active_count() == before


def on_slow_lane() -> bool:
    return threading.current_thread().name.startswith("slow-lane")


def record(calls: list, hook=None):
    """Wrap a slab-range kernel loop: log (lo, hi, on slow lane), then run hook."""
    def wrap(orig):
        def run(*args):
            lo, hi = args[-2:]
            calls.append((lo, hi, on_slow_lane()))
            if hook:
                hook(lo, hi)
            orig(*args)
        return run
    return wrap


def slabs(lo, hi, m):
    return [(s, min(s + MICRO_SLAB, m)) for s in range(lo, hi, MICRO_SLAB)]


class TestSlabStealing:
    """The speed ratio sets the starting split; an idle lane steals slabs."""

    EVEN = LaneConfig(1.0, 1.0)  # 256 rows: slabs 0-96 fast, 128-224 slow
    M = 8 * MICRO_SLAB

    def held_run(self, monkeypatch, hold_slow: bool):
        """gemm_asym at 1:1 with one lane held inside its first slab until
        the other lane has taken all seven other slabs. Returns the
        (lo, hi) each lane computed, in order, as (fast, slow)."""
        calls = []
        inside, release = threading.Event(), threading.Event()

        def hook(lo, hi):
            mine = [c for c in calls if c[2] == on_slow_lane()]
            if len(mine) == 1 and on_slow_lane() == hold_slow:
                inside.set()
                release.wait(5)
            elif len(mine) == 1:
                inside.wait(5)  # the held lane has taken its first slab
            elif len(mine) == 7:
                release.set()

        a, b, c0 = rand((8, self.M), 51), rand((8, 8), 52), rand((self.M, 8), 53)
        expect = gemm_blocked(a, b, c0.copy(order="F"))
        monkeypatch.setattr(kernels, "_gemm_rows",
                            record(calls, hook)(kernels._gemm_rows))
        out = run_with_timeout(
            lambda: gemm_asym(a, b, c0.copy(order="F"), self.EVEN))
        np.testing.assert_array_equal(out, expect)
        return tuple([(lo, hi) for lo, hi, slow in calls if slow == lane]
                     for lane in (False, True))

    def test_fast_lane_takes_held_slow_lanes_far_slabs(self, monkeypatch):
        fast, slow = self.held_run(monkeypatch, hold_slow=True)
        assert slow == [(128, 160)]
        assert fast == slabs(0, 128, self.M) + slabs(160, 256, self.M)[::-1]

    def test_slow_lane_takes_held_fast_lanes_far_slabs(self, monkeypatch):
        fast, slow = self.held_run(monkeypatch, hold_slow=False)
        assert fast == [(0, 32)]
        assert slow == slabs(128, 256, self.M) + slabs(32, 128, self.M)[::-1]

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 200), k=st.integers(1, 40),
           lanes=st.sampled_from(RATIOS),
           delays=st.lists(st.sampled_from([0.0, 1e-4, 1e-3]),
                           min_size=1, max_size=7))
    def test_every_slab_once_and_bitwise(self, m, k, lanes, delays):
        a, b, c0 = rand((k, m), m), rand((k, 7), 3), rand((m, 7), k)
        cs0, u, rhs0 = rand((m, m), k + 1), upper(k, m), rand((k, m), k + 2)
        expect = (gemm_blocked(a, b, c0.copy(order="F")),
                  syrk_blocked(a, cs0.copy(order="F")),
                  trsm_blocked(u, rhs0.copy(order="F")))
        calls = []
        wrap = record(calls, lambda lo, hi: time.sleep(
            delays[lo // MICRO_SLAB % len(delays)]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_gemm_rows", wrap(kernels._gemm_rows))
            mp.setattr(kernels, "_trsm_cols", wrap(kernels._trsm_cols))
            for run, want in zip((
                    lambda: gemm_asym(a, b, c0.copy(order="F"), lanes),
                    lambda: syrk_asym(a, cs0.copy(order="F"), lanes),
                    lambda: trsm_asym(u, rhs0.copy(order="F"), lanes)), expect):
                del calls[:]
                np.testing.assert_array_equal(run(), want)
                done = sorted((lo, hi) for lo, hi, _ in calls)
                if split_loop3(m, lanes).slow_range[0] == m:
                    assert done == [(0, m)]  # the caller alone, in one call
                else:
                    assert done == slabs(0, m, m)

    def test_stress_short_switch_interval(self):
        # Four callers, each with its own pair (eight threads on fewer
        # cores), switching often: a slab handed out twice or never
        # would change C's bits.
        m = 10 * MICRO_SLAB
        a, b, c0 = rand((16, m), 62), rand((16, 5), 63), rand((m, 5), 64)
        expect = gemm_blocked(a, b, c0.copy(order="F"))

        def caller():
            with kernels.lane_pair():
                for lanes in RATIOS * 5:
                    np.testing.assert_array_equal(
                        gemm_asym(a, b, c0.copy(order="F"), lanes), expect)

        def callers():
            with ThreadPoolExecutor(4) as pool:
                for future in [pool.submit(caller) for _ in range(4)]:
                    future.result()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_with_timeout(callers)
        finally:
            sys.setswitchinterval(old)

    @pytest.mark.parametrize("fail_slow", [False, True], ids=["fast", "slow"])
    def test_first_slab_failure_stops_the_hand_out(self, monkeypatch,
                                                    fail_slow):
        calls, failed = [], threading.Event()

        def hook(lo, hi):
            if on_slow_lane() == fail_slow:
                failed.set()
                raise FloatingPointError("first slab")
            failed.wait(5)
            time.sleep(0.005)  # lets the failing lane stop the hand-out

        monkeypatch.setattr(kernels, "_gemm_rows",
                            record(calls, hook)(kernels._gemm_rows))
        m = 16 * MICRO_SLAB
        a, b, c = rand((8, m), 54), rand((8, 8), 55), rand((m, 8), 56)
        with pytest.raises(FloatingPointError, match="first slab"):
            run_with_timeout(lambda: gemm_asym(a, b, c, self.EVEN))
        assert len(calls) < m // MICRO_SLAB
        assert all(hi - lo == MICRO_SLAB and lo % MICRO_SLAB == 0
                   for lo, hi, _ in calls)

    @pytest.mark.parametrize("m,lanes,handoffs", [
        (256, LaneConfig(speed_slow=0.0), 0),
        (32, kernels.DEFAULT_LANES, 0),
        (4, kernels.DEFAULT_LANES, 0),
        (128, EVEN, 1),
    ])
    def test_handoff_only_when_the_slow_lane_starts_with_slabs(
            self, monkeypatch, m, lanes, handoffs):
        made, handed = count_lane_pairs(monkeypatch)
        calls = []
        monkeypatch.setattr(kernels, "_gemm_rows",
                            record(calls)(kernels._gemm_rows))
        monkeypatch.setattr(kernels, "_trsm_cols",
                            record(calls)(kernels._trsm_cols))
        gemm_asym(rand((5, m), 57), rand((5, 3), 58), rand((m, 3), 59), lanes)
        trsm_asym(upper(5, 60), rand((5, m), 61), lanes)
        assert len(made) == len(handed) == 2 * handoffs
        # gemm's row slabs, then trsm's column slabs, each computed once
        per_call = slabs(0, m, m) if handoffs else [(0, m)]
        assert sorted((lo, hi) for lo, hi, _ in calls) == sorted(per_call * 2)


class TestTrsmPlumbing:
    SIZE = st.one_of(st.sampled_from([1, 31, 32, 33, 90, 257]),
                     st.integers(1, 300))

    @settings(max_examples=60, deadline=None)
    @given(n=SIZE, m=SIZE, u_order=st.sampled_from("CF"))
    def test_matches_per_slab_f2py_dtrsm(self, n, m, u_order):
        # The f2py wrapper copies each slab; the kernels solve B in place
        # by address, so this checks pointer, offset and leading dimension.
        u = np.array(upper(n, m), order=u_order)
        b0 = rand((n, m), n)
        ref = b0.copy(order="F")
        for s in range(0, m, MICRO_SLAB):
            e = min(s + MICRO_SLAB, m)
            ref[:, s:e] = blas.dtrsm(1.0, u, ref[:, s:e], trans_a=1)
        np.testing.assert_array_equal(trsm_blocked(u, b0.copy(order="F")), ref)
        for lanes in RATIOS:
            np.testing.assert_array_equal(
                trsm_asym(u, b0.copy(order="F"), lanes), ref)

    @pytest.mark.parametrize("make_b", [
        np.ascontiguousarray,
        lambda b: np.asfortranarray(b, dtype=np.float32),
        lambda b: np.lib.stride_tricks.as_strided(b, writeable=False),
    ], ids=["C-order", "float32", "read-only"])
    def test_rejects_b_it_cannot_solve_in_place(self, make_b):
        b = make_b(rand((5, 4), 43))
        before = b.copy()
        for trsm in (trsm_blocked, trsm_asym):
            with pytest.raises(ValueError, match="in place"):
                trsm(upper(5, 44), b)
        np.testing.assert_array_equal(b, before)


class TestSplitLoop3:
    def test_proportional_split(self):
        s = split_loop3(128, LaneConfig(speed_fast=3.0, speed_slow=1.0))
        assert s.fast_range == (0, 96)
        assert s.slow_range == (96, 128)

    def test_asymmetric_share_rounds_up(self):
        cfg = LaneConfig(speed_fast=4.56, speed_slow=1.0)
        s = split_loop3(312, cfg)  # 312 * 4.56 / 5.56 = 255.88 -> 256
        assert s.fast_range == (0, 256)
        assert s.slow_range == (256, 312)

    def test_slow_sliver_folds_into_fast(self):
        cfg = LaneConfig(speed_fast=9.0, speed_slow=1.0)
        s = split_loop3(50, cfg)  # share 45 is nearer 50 than 32
        assert s.fast_range == (0, 50)
        assert s.slow_range[0] == s.slow_range[1]

    def test_fast_sliver_folds_into_slow(self):
        cfg = LaneConfig(speed_fast=1.0, speed_slow=9.0)
        s = split_loop3(100, cfg)  # share 10 is nearer 0 than 32
        assert s.fast_range == (0, 0)
        assert s.slow_range == (0, 100)

    def test_larger_share_is_never_folded(self):
        s = split_loop3(90)  # share 73.9: the grid point 64 is nearest
        assert s.fast_range == (0, 64)
        assert s.slow_range == (64, 90)
        assert split_loop3(4).fast_range == (0, 4)  # share 3.3
        assert split_loop3(4, LaneConfig(1.0, 9.0)).slow_range == (0, 4)

    def test_speed_slow_zero(self):
        s = split_loop3(10, LaneConfig(speed_slow=0.0))
        assert s.fast_range == (0, 10)

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(0, 500), sf=st.floats(0.1, 10), ss=st.floats(0, 10))
    def test_partition_property(self, m, sf, ss):
        s = split_loop3(m, LaneConfig(speed_fast=sf, speed_slow=ss))
        (f0, f1), (s0, s1) = s.fast_range, s.slow_range
        assert f0 == 0 and f1 == s0 and s1 == m
        assert f0 <= f1 <= s0 <= s1
        # the cut is the grid point (or m) nearest the proportional share
        share = m * sf / (sf + ss)
        grid = set(range(0, m, MICRO_SLAB)) | {m}
        assert f1 in grid
        assert all(abs(f1 - share) <= abs(g - share) + 1e-9 for g in grid)


class TestSlabGrid:
    SIZE = st.one_of(st.sampled_from([1, 31, 32, 33, 90, 257, 300]),
                     st.integers(1, 300))

    @settings(max_examples=60, deadline=None)
    @given(m=SIZE, n=SIZE, k=SIZE, sf=st.floats(0.1, 10),
           ss=st.one_of(st.just(0.0), st.floats(0, 10)))
    def test_asym_bitwise_and_cut_on_grid(self, m, n, k, sf, ss):
        lanes = LaneConfig(speed_fast=sf, speed_slow=ss)
        a, b, c0 = rand((k, m), m), rand((k, n), n), rand((m, n), k)
        np.testing.assert_array_equal(
            gemm_asym(a, b, c0.copy(order="F"), lanes),
            gemm_blocked(a, b, c0.copy(order="F")))
        csym = rand((m, m), n)
        np.testing.assert_array_equal(
            syrk_asym(a, csym.copy(order="F"), lanes),
            syrk_blocked(a, csym.copy(order="F")))
        u, rhs = upper(k, m), rand((k, m), n)
        np.testing.assert_array_equal(
            trsm_asym(u, rhs.copy(order="F"), lanes),
            trsm_blocked(u, rhs.copy(order="F")))

        split = split_loop3(m, lanes)
        cut = split.fast_range[1]
        assert cut % MICRO_SLAB == 0 or cut == m
        # the lane with the larger share keeps rows
        if sf > ss:
            assert cut > 0
        elif sf < ss:
            assert cut < m


class TestValidation:
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

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            kernels.kernel_crossover_probe([])
