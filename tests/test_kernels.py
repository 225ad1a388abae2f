"""Slab-grid kernels against naive oracles; dual-lane bitwise identity."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import blas

from ampsched import dense, kernels
from ampsched.kernels import (MICRO_SLAB, gemm_asym, gemm_blocked, syrk_asym,
                              syrk_blocked, trsm_asym, trsm_blocked)
from conftest import (count_lane_pairs, meet_first, on_slow_lane,
                      run_with_timeout)
from oracles import ref_gemm, ref_syrk, ref_trsm, syrk_untouched

EPS = np.finfo(np.float64).eps


def gemm_tol(a, b, c, k):
    hi = max(np.abs(a).max(), np.abs(b).max(), np.abs(c).max(), 1.0)
    return 8 * EPS * max(k, 1) * hi


def rand(shape, seed):
    return np.asfortranarray(np.random.default_rng(seed).random(shape))


# 36 operand classes: the layouts of A and B, times the range [lo, lo + 1)
# and the scale of their entries. Slabs are views of any layout.
OPERANDS = [(order_a, order_b, lo, scale)
            for order_a in "CF" for order_b in "CF"
            for lo in (0.0, -1.0, -0.5) for scale in (1e-3, 0.1, 1.0)]
SIZES = [(1, 1, 1), (5, 3, 7), (17, 64, 33), (64, 64, 64), (2, 64, 1)]


def upper(n, seed):
    return np.asfortranarray(np.triu(rand((n, n), seed) + np.eye(n) * n))


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


# Four slabs, the last one ragged.
M4 = 3 * MICRO_SLAB + 4


def held_run(m: int, hold_slow: bool, trsm: bool = False):
    """gemm_asym over m rows (trsm_asym over m columns) with one lane held
    inside its first slab until the other lane has taken every other
    slab. Checks the result bitwise against the sequential kernel and
    returns the (lo, hi) each lane computed, in order, as (fast, slow)."""
    calls, nslabs = [], -(-m // MICRO_SLAB)
    inside, release = threading.Event(), threading.Event()

    def hook(lo, hi):
        slow = on_slow_lane()
        mine = sum(c[2] == slow for c in calls)
        if slow == hold_slow:
            if mine == 1:
                inside.set()
                release.wait(5)
            return
        if mine == 1:
            inside.wait(5)  # the held lane has taken its first slab
        if mine == nslabs - 1:
            release.set()

    if trsm:
        u, rhs = upper(8, 65), rand((8, m), 66)
        name, expect = "_trsm_cols", trsm_blocked(u, rhs.copy(order="F"))
        call = partial(trsm_asym, u, rhs.copy(order="F"))
    else:
        a, b, c0 = rand((8, m), 51), rand((8, 8), 52), rand((m, 8), 53)
        name, expect = "_gemm_rows", gemm_blocked(a, b, c0.copy(order="F"))
        call = partial(gemm_asym, a, b, c0.copy(order="F"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, name, record(calls, hook)(getattr(kernels, name)))
        np.testing.assert_array_equal(run_with_timeout(call), expect)
    return tuple([(lo, hi) for lo, hi, slow in calls if slow == lane]
                 for lane in (False, True))


class TestGemm:
    @pytest.mark.parametrize("p", OPERANDS)
    @pytest.mark.parametrize("m,n,k", [(5, 3, 7), (17, 9, 4)])
    def test_param_sweep_matches_oracle(self, p, m, n, k):
        order_a, order_b, lo, scale = p
        a = np.array(scale * (rand((k, m), 0) + lo), order=order_a)
        b = np.array(scale * (rand((k, n), 1) + lo), order=order_b)
        c0 = rand((m, n), 2)
        out = gemm_asym(a, b, c0.copy(order="F"))
        ref = ref_gemm(a, b, c0)
        assert np.abs(out - ref).max() <= gemm_tol(a, b, c0, k)
        np.testing.assert_array_equal(out, gemm_blocked(a, b, c0.copy(order="F")))

    @pytest.mark.parametrize("m,n,k", SIZES)
    def test_sizes_match_oracle(self, m, n, k):
        a, b, c0 = rand((k, m), 3), rand((k, n), 4), rand((m, n), 5)
        out = gemm_blocked(a, b, c0.copy(order="F"))
        ref = ref_gemm(a, b, c0)
        assert np.abs(out - ref).max() <= gemm_tol(a, b, c0, k)

    def test_result_independent_of_mc_on_slab_grid(self):
        # Each lane's row block (its mc) is a run of slabs on the absolute
        # grid, so holding either lane cuts the M4 rows elsewhere and
        # held_run still finds the bits of gemm_blocked.
        cuts = set()
        for hold_slow in (False, True):
            fast, slow = held_run(M4, hold_slow)
            cuts.add(max(hi for _, hi in fast))
            assert sorted(fast + slow) == slabs(0, M4, M4)
        assert cuts == {MICRO_SLAB, 3 * MICRO_SLAB}

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

    def test_unequal_lane_mc_still_bitwise(self):
        # With the caller held, the lanes get unequal row blocks (one slab
        # and the other three); the lane thread's starts with the ragged
        # slab.
        fast, slow = held_run(M4, hold_slow=False)
        ms = MICRO_SLAB
        assert fast == [(0, ms)]
        assert slow == [(3 * ms, M4), (2 * ms, 3 * ms), (ms, 2 * ms)]


class TestSyrkTrsm:
    @pytest.mark.parametrize("m,k", [(1, 1), (7, 5), (33, 17), (64, 64),
                                     (129, 5), (300, 17)])
    def test_syrk_matches_oracle(self, m, k):
        # Within the bound from each row's slab start rightwards, bitwise
        # untouched left of it.
        a, c0 = rand((k, m), 21), rand((m, m), 22)
        out = syrk_blocked(a, c0.copy(order="F"))
        ref, left = ref_syrk(a, c0), syrk_untouched(m)
        assert np.abs(out - ref)[~left].max() <= gemm_tol(a, a, c0, k)
        np.testing.assert_array_equal(out[left], c0[left])
        np.testing.assert_array_equal(
            syrk_asym(a, c0.copy(order="F")), out)

    @pytest.mark.parametrize("n,m", [(1, 1), (5, 9), (33, 64), (64, 17),
                                     (9, 300)])
    def test_trsm_matches_oracle(self, n, m):
        u = upper(n, 23)
        b0 = rand((n, m), 24)
        out = trsm_blocked(u, b0.copy(order="F"))
        ref = ref_trsm(u, b0)
        hi = max(np.abs(u).max(), np.abs(b0).max(), 1.0)
        assert np.abs(out - ref).max() <= 64 * EPS * n * hi
        np.testing.assert_array_equal(
            trsm_asym(u, b0.copy(order="F")), out)

    def test_trsm_shape_check(self):
        b0 = rand((5, 3), 25)
        for trsm in (trsm_blocked, trsm_asym):
            b = b0.copy(order="F")
            with pytest.raises(ValueError, match="nonconformal"):
                trsm(upper(4, 26), b)
            np.testing.assert_array_equal(b, b0)

    def test_trsm_column_chunking_bitwise(self):
        # Holding either lane cuts the M4 RHS columns at another slab
        # edge; held_run checks the bits against trsm_blocked.
        for hold_slow, cut in ((False, MICRO_SLAB), (True, 3 * MICRO_SLAB)):
            fast, slow = held_run(M4, hold_slow, trsm=True)
            assert fast == slabs(0, cut, M4)
            assert slow == slabs(cut, M4, M4)[::-1]

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
        # The pivot check runs before any slab is handed out, so neither
        # lane writes B.
        u = np.asfortranarray(np.triu(rand((6, 6), 27) + np.eye(6)))
        u[2, 2] = 0.0
        b0 = rand((6, M4), 28)
        b = b0.copy(order="F")
        with pytest.raises(dense.SingularTriangularError) as exc:
            trsm_asym(u, b)
        assert exc.value.index == 2
        np.testing.assert_array_equal(b, b0)

    def test_gemm_slow_lane_failure_raises(self, monkeypatch):
        def fail():
            raise FloatingPointError("slow lane")

        m = 2 * MICRO_SLAB
        monkeypatch.setattr(kernels, "_gemm_rows",
                            meet_first(kernels._gemm_rows, m, fail))
        a, b, c = rand((8, m), 29), rand((8, 8), 30), rand((m, 8), 31)
        with pytest.raises(FloatingPointError, match="slow lane"):
            gemm_asym(a, b, c)


class TestLanePair:
    def test_direct_calls_leave_no_thread(self):
        before = threading.active_count()
        m = 2 * MICRO_SLAB
        a, b, c = rand((8, m), 32), rand((8, 8), 33), rand((m, 8), 34)
        u, rhs = upper(6, 35), rand((6, M4), 36)

        def calls():
            gemm_asym(a, b, c)
            syrk_asym(a, rand((m, m), 37))
            trsm_asym(u, rhs)

        run_with_timeout(calls)
        assert threading.active_count() == before

    def test_returns_only_after_the_slow_lane(self, monkeypatch):
        m = 2 * MICRO_SLAB
        a, b, c0 = rand((8, m), 45), rand((8, 8), 46), rand((m, 8), 47)
        expect = gemm_blocked(a, b, c0.copy(order="F"))
        # The lane thread finishes its slabs well after the caller.
        monkeypatch.setattr(kernels, "_gemm_rows", meet_first(
            kernels._gemm_rows, m, lambda: time.sleep(0.05)))

        def calls():
            with kernels.lane_pair():
                for _ in range(2):
                    out = gemm_asym(a, b, c0.copy(order="F"))
                    np.testing.assert_array_equal(out, expect)

        run_with_timeout(calls)

    def test_one_lane_thread_serves_every_call(self, monkeypatch):
        before = threading.active_count()
        fail = [True]

        def lane():
            if fail[0]:
                raise FloatingPointError("slow lane")

        m = 2 * MICRO_SLAB
        a, b, c0 = rand((8, m), 38), rand((8, 8), 39), rand((m, 8), 40)
        expect = gemm_blocked(a, b, c0.copy(order="F"))
        monkeypatch.setattr(kernels, "_gemm_rows",
                            meet_first(kernels._gemm_rows, m, lane))

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
                    trsm_asym(upper(6, 41), rand((6, M4), 42))
                assert threading.active_count() == outside + 1

        run_with_timeout(calls)
        assert threading.active_count() == before


class TestSlabStealing:
    """The caller pops slabs from the front of one deque, the lane thread
    from the back."""

    M = 4 * MICRO_SLAB

    def test_fast_lane_takes_held_slow_lanes_far_slabs(self):
        fast, slow = held_run(self.M, hold_slow=True)
        last = self.M - MICRO_SLAB
        assert slow == [(last, self.M)]
        assert fast == slabs(0, last, self.M)

    def test_slow_lane_takes_held_fast_lanes_far_slabs(self):
        fast, slow = held_run(self.M, hold_slow=False)
        assert fast == [(0, MICRO_SLAB)]
        assert slow == slabs(MICRO_SLAB, self.M, self.M)[::-1]

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 4 * MICRO_SLAB), k=st.integers(1, 40),
           delays=st.lists(st.sampled_from([0.0, 1e-4, 1e-3]),
                           min_size=1, max_size=7))
    def test_every_slab_once_and_bitwise(self, m, k, delays):
        a, b, c0 = rand((k, m), m), rand((k, 7), 3), rand((m, 7), k)
        cs0, u, rhs0 = rand((m, m), k + 1), upper(k, m), rand((k, m), k + 2)
        expect = (gemm_blocked(a, b, c0.copy(order="F")),
                  syrk_blocked(a, cs0.copy(order="F")),
                  trsm_blocked(u, rhs0.copy(order="F")))
        calls = []
        wrap = record(calls, lambda lo, hi: time.sleep(
            delays[lo // MICRO_SLAB % len(delays)]))
        with pytest.MonkeyPatch.context() as mp:
            for name in ("_gemm_rows", "_syrk_rows", "_trsm_cols"):
                mp.setattr(kernels, name, wrap(getattr(kernels, name)))
            for run, want in zip((
                    lambda: gemm_asym(a, b, c0.copy(order="F")),
                    lambda: syrk_asym(a, cs0.copy(order="F")),
                    lambda: trsm_asym(u, rhs0.copy(order="F"))), expect):
                del calls[:]
                np.testing.assert_array_equal(run(), want)
                done = sorted((lo, hi) for lo, hi, _ in calls)
                if m <= MICRO_SLAB:
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
                for _ in range(30):
                    np.testing.assert_array_equal(
                        gemm_asym(a, b, c0.copy(order="F")), expect)

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
            run_with_timeout(lambda: gemm_asym(a, b, c))
        assert len(calls) < m // MICRO_SLAB
        assert all(hi - lo == MICRO_SLAB and lo % MICRO_SLAB == 0
                   for lo, hi, _ in calls)

    # m32 is a row count on a 32-row slab, scaled to MICRO_SLAB: below one
    # slab, exactly one, one and a ragged one, 1.5, 2 and 4 slabs.
    @pytest.mark.parametrize("m32,handoffs", [
        (4, 0), (32, 0), (33, 1), (50, 1), (64, 1), (128, 1)])
    def test_handoff_only_with_two_or_more_slabs(self, monkeypatch, m32,
                                                 handoffs):
        m = m32 * MICRO_SLAB // 32
        made, handed = count_lane_pairs(monkeypatch)
        calls = []
        monkeypatch.setattr(kernels, "_gemm_rows",
                            record(calls)(kernels._gemm_rows))
        monkeypatch.setattr(kernels, "_trsm_cols",
                            record(calls)(kernels._trsm_cols))
        gemm_asym(rand((5, m), 57), rand((5, 3), 58), rand((m, 3), 59))
        trsm_asym(upper(5, 60), rand((5, m), 61))
        assert len(made) == len(handed) == 2 * handoffs
        # gemm's row slabs, then trsm's column slabs, each computed once
        per_call = slabs(0, m, m) if handoffs else [(0, m)]
        assert sorted((lo, hi) for lo, hi, _ in calls) == sorted(per_call * 2)


class TestTrsmPlumbing:
    SIZE = st.one_of(st.sampled_from([1, 31, 127, 128, 129, 257]),
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
        np.testing.assert_array_equal(trsm_asym(u, b0.copy(order="F")), ref)

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
    @pytest.mark.parametrize("m", [4, 3 * MICRO_SLAB + 4])
    def test_read_only_u(self, m):
        u, b0 = upper(6, 45), rand((6, m), 46)
        want = trsm_blocked(u, b0.copy(order="F"))
        u.flags.writeable = False
        for trsm in (trsm_blocked, trsm_asym):
            np.testing.assert_array_equal(trsm(u, b0.copy(order="F")), want)

    def test_zero_diagonal_check_keeps_nan_and_signed_zero_rules(self):
        # As ndarray.all(): NaN counts as nonzero, -0.0 as zero.
        u, b = upper(5, 47), rand((5, 3), 48)
        u[1, 1] = np.nan
        assert np.isnan(trsm_blocked(u, b.copy(order="F"))).any()
        u[3, 3] = -0.0
        for trsm in (trsm_blocked, trsm_asym):
            with pytest.raises(dense.SingularTriangularError) as exc:
                trsm(u, b.copy(order="F"))
            assert exc.value.index == 3

    @pytest.mark.parametrize("m", [0, 5, 3 * MICRO_SLAB])
    def test_empty_operands(self, m):
        u, b = np.zeros((0, 0)), np.zeros((0, m), order="F")
        for trsm in (trsm_blocked, trsm_asym):
            assert trsm(u, b).shape == (0, m)
        b = rand((4, 0), 49)
        for trsm in (trsm_blocked, trsm_asym):
            assert trsm(upper(4, 50), b).shape == (4, 0)


class TestSingleSlab:
    """A call of one slab (m <= MICRO_SLAB) is one helper call on the
    caller, with no lane handoff and no closure, on the whole block."""

    @pytest.mark.parametrize("m", [1, 4, 57, MICRO_SLAB])
    def test_asym_calls_its_helper_once_on_the_caller(self, monkeypatch, m):
        a, b, c0 = rand((6, m), 1), rand((6, 5), 2), rand((m, 5), 3)
        cs0, u, rhs0 = rand((m, m), 4), upper(6, 5), rand((6, m), 6)
        expect = (gemm_blocked(a, b, c0.copy(order="F")),
                  syrk_blocked(a, cs0.copy(order="F")),
                  trsm_blocked(u, rhs0.copy(order="F")))

        def forbidden(*args, **kwargs):
            raise AssertionError("a single-slab call reached the lane path")

        monkeypatch.setattr(kernels, "_run_lanes", forbidden)
        monkeypatch.setattr(kernels, "partial", forbidden)
        calls = []
        for name in ("_gemm_rows", "_syrk_rows", "_trsm_cols"):
            monkeypatch.setattr(kernels, name,
                                record(calls)(getattr(kernels, name)))
        got = (gemm_asym(a, b, c0.copy(order="F")),
               syrk_asym(a, cs0.copy(order="F")),
               trsm_asym(u, rhs0.copy(order="F")))
        for g, want in zip(got, expect):
            np.testing.assert_array_equal(g, want)
        assert calls == [(0, m, False)] * 3

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, MICRO_SLAB), n=st.integers(1, 40),
           k=st.integers(1, 40), order_a=st.sampled_from("CF"),
           order_b=st.sampled_from("CF"))
    def test_whole_block_matches_the_one_slab_loop(self, m, n, k, order_a,
                                                   order_b):
        # The unsliced update hands BLAS the operands of the slab loop's
        # single iteration, so the bits are the same.
        a = np.array(rand((k, m), m), order=order_a)
        b = np.array(rand((k, n), n), order=order_b)
        c, want = rand((m, n), k), rand((m, n), k)
        kernels._gemm_rows(a, b, c, 0, m)
        want[0:m] -= np.dot(b.T, a[:, 0:m]).T
        np.testing.assert_array_equal(c, want)
        c, want = rand((m, m), k + 1), rand((m, m), k + 1)
        kernels._syrk_rows(a, c, 0, m)
        want[0:m, 0:] -= np.dot(a[:, 0:].T, a[:, 0:m]).T
        np.testing.assert_array_equal(c, want)


class TestSlabGrid:
    SIZE = st.one_of(st.sampled_from([1, 31, 127, 128, 129, 257, 300]),
                     st.integers(1, 300))

    @settings(max_examples=60, deadline=None)
    @given(m=SIZE, n=SIZE, k=SIZE)
    def test_asym_bitwise_and_cut_on_grid(self, m, n, k):
        a, b, c0 = rand((k, m), m), rand((k, n), n), rand((m, n), k)
        csym, u, rhs = rand((m, m), n), upper(k, m), rand((k, m), n)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("_gemm_rows", "_syrk_rows", "_trsm_cols"):
                mp.setattr(kernels, name, record(calls)(getattr(kernels, name)))
            dual = (gemm_asym(a, b, c0.copy(order="F")),
                    syrk_asym(a, csym.copy(order="F")),
                    trsm_asym(u, rhs.copy(order="F")))
        np.testing.assert_array_equal(
            dual[0], gemm_blocked(a, b, c0.copy(order="F")))
        np.testing.assert_array_equal(
            dual[1], syrk_blocked(a, csym.copy(order="F")))
        np.testing.assert_array_equal(
            dual[2], trsm_blocked(u, rhs.copy(order="F")))
        # every call is one slab of the absolute grid, or all of [0, m)
        grid = slabs(0, m, m) if m > MICRO_SLAB else [(0, m)]
        assert sorted((lo, hi) for lo, hi, _ in calls) == sorted(grid * 3)

