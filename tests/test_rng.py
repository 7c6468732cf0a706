"""The grid kernels against the broadcasting reference normals of tests/oracles.py."""

import concurrent.futures
import hashlib
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import normals, uniforms
from rpsketch import rng
from rpsketch.errors import ConfigError


def bits(a):
    return a.shape, a.tobytes()


def reference_pairs(rho, seed, major_start, n_major, k):
    majors = np.arange(major_start, major_start + n_major, dtype=np.uint64)[:, None]
    minors = 2 * np.arange(k, dtype=np.uint64)[None, :]
    x = normals(seed, majors, minors)
    z = normals(seed, majors, minors + np.uint64(1))
    return x, rho * x + np.sqrt((1.0 - rho) * (1.0 + rho)) * z


seeds = st.integers(0, 2**64 - 1)
threads = st.sampled_from([1, 2, 3])
# a few values per chunk, so small grids cross many chunk edges, and rows
# wider than a chunk are split
chunks = st.integers(1, 9)


class TestNormalGrid:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, majors=st.lists(st.integers(0, 2**64 - 1), max_size=7),
           k=st.integers(0, 23), chunk=chunks, workers=threads)
    def test_bitwise_equal_to_reference(self, seed, majors, k, chunk, workers):
        majors = np.array(majors, dtype=np.uint64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng, "_CHUNK_VALUES", chunk)
            grid = rng.normal_grid(seed, majors, k, threads=workers)
        ref = normals(seed, majors[:, None], np.arange(k, dtype=np.uint64)[None, :])
        assert bits(grid) == bits(ref)

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # workers write disjoint pieces of one array; a lost or misplaced
        # write shows as a difference from the reference
        monkeypatch.setattr(rng, "_CHUNK_VALUES", 7)
        majors = np.arange(60, dtype=np.uint64)
        ref = normals(2, majors[:, None], np.arange(37, dtype=np.uint64)[None, :])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert bits(rng.normal_grid(2, majors, 37, threads=4)) == bits(ref)
        finally:
            sys.setswitchinterval(interval)

    def test_one_wide_row_spans_chunks(self):
        k = 3 * rng._CHUNK_VALUES + 5
        ref = normals(5, 2**63 + 1, np.arange(k))[None, :]
        for workers in (1, 2, 3):
            assert bits(rng.normal_grid(5, [2**63 + 1], k, threads=workers)) == bits(ref)

    def test_rows_of_chunk_width_and_one_more(self):
        for k in (rng._CHUNK_VALUES, rng._CHUNK_VALUES + 1):
            grid = rng.normal_grid(9, [4, 0], k)
            ref = normals(9, np.array([[4], [0]]), np.arange(k)[None, :])
            assert bits(grid) == bits(ref)


class TestSeedContract:
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7, 1.0, np.int64(-1)])
    def test_seed_outside_64_bits_refused(self, seed):
        # it used to be reduced modulo 2^64: 2^64 + 7 drew the stream of seed 7
        with pytest.raises(ConfigError):
            rng.normal_grid(seed, [0], 4)
        with pytest.raises(ConfigError):
            rng.bivariate_block(0.5, seed, 0, 1, 4)

    @pytest.mark.parametrize("seed, digest", [
        (0, "a06d21e9bd7d0efa9e8b438a9d0a7437a29622eeafafa8c8e2b90ef1ce436011"),
        (2**64 - 1, "393ce922503e6cfb9c5ba0e91c88b754bfafc1e33286dc52a8454f836ad3da69")])
    def test_end_seeds_keep_their_bits(self, seed, digest):
        # digests of the streams as drawn before seeds were range-checked
        grid = rng.normal_grid(seed, np.arange(3), 5)
        x, y = rng.bivariate_block(0.3, seed, 2, 2, 3)
        assert hashlib.sha256(grid.tobytes() + x.tobytes() + y.tobytes()).hexdigest() == digest


class TestBivariateBlock:
    @settings(max_examples=60, deadline=None)
    @given(rho=st.floats(-1.0, 1.0), seed=seeds, major_start=st.integers(0, 2**40),
           n_major=st.integers(0, 6), k=st.integers(0, 23), chunk=chunks)
    def test_bitwise_equal_to_reference(self, rho, seed, major_start, n_major, k, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng, "_CHUNK_VALUES", chunk)
            x, y = rng.bivariate_block(rho, seed, major_start, n_major, k)
        xr, yr = reference_pairs(rho, seed, major_start, n_major, k)
        assert bits(x) == bits(xr)
        assert bits(y) == bits(yr)

    def test_one_wide_row_spans_chunks(self):
        k = 2 * rng._CHUNK_VALUES + 3
        x, y = rng.bivariate_block(0.8, 3, 11, 1, k)
        xr, yr = reference_pairs(0.8, 3, 11, 1, k)
        assert bits(x) == bits(xr)
        assert bits(y) == bits(yr)

    def test_memory_is_outputs_plus_chunk_buffers(self):
        n = 1_000_000
        tracemalloc.start()
        try:
            x, y = rng.bivariate_block(0.5, 1, 0, 1, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.nbytes + y.nbytes == 16 * n
        assert peak <= 16 * n + 6 * 8 * rng._CHUNK_VALUES


def assert_within_4se(name, estimate, expected, se):
    assert abs(estimate - expected) <= 4 * se, (
        f"{name}: {estimate:.6f} vs {expected:.6f} (4 se = {4 * se:.2e})")


class TestDistribution:
    """Box–Muller normals against standard-normal moments, in 4-SE bands."""

    def test_pairs_are_r_cos_and_r_sin_of_their_uniforms(self):
        minors = np.arange(0, 200_000, 2, dtype=np.uint64)
        r = np.sqrt(-2.0 * np.log(uniforms(4, 9, minors)))
        theta = 2.0 * math.pi * uniforms(4, 9, minors + np.uint64(1))
        z = rng.normal_grid(4, [9], 200_000)[0]
        np.testing.assert_allclose(z[0::2], r * np.cos(theta), rtol=0, atol=1e-14)
        np.testing.assert_allclose(z[1::2], r * np.sin(theta), rtol=0, atol=1e-14)

    def test_grid_moments_and_tail(self):
        z = rng.normal_grid(20261018, np.arange(1000, dtype=np.uint64), 1001).ravel()
        n = z.size
        z2 = z * z
        assert_within_4se("mean", z.mean(), 0.0, math.sqrt(1 / n))
        assert_within_4se("E z^2", z2.mean(), 1.0, math.sqrt(2 / n))
        assert_within_4se("E z^4", (z2 * z2).mean(), 3.0, math.sqrt(96 / n))
        tail = math.erfc(3 / math.sqrt(2))  # P(|z| > 3)
        assert_within_4se("P(|z| > 3)", np.mean(np.abs(z) > 3.0), tail,
                          math.sqrt(tail * (1 - tail) / n))

    def test_pair_partners_and_adjacent_pairs_uncorrelated(self):
        z = rng.normal_grid(20261019, np.arange(1000, dtype=np.uint64), 1000)
        cos, sin = z[:, 0::2].ravel(), z[:, 1::2].ravel()
        m = cos.size
        assert_within_4se("E z(2p) z(2p+1)", np.mean(cos * sin), 0.0, math.sqrt(1 / m))
        # shared radius: independence also means E z(2p)^2 z(2p+1)^2 = 1
        assert_within_4se("E z(2p)^2 z(2p+1)^2", np.mean(cos * cos * sin * sin), 1.0,
                          math.sqrt(8 / m))
        after = z[:, 2::2].ravel()  # the first member of the next pair in the row
        before = z[:, 1:-1:2].ravel()
        assert_within_4se("E z(2p+1) z(2p+2)", np.mean(before * after), 0.0,
                          math.sqrt(1 / before.size))

    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5, 0.95])
    def test_bivariate_correlation_is_rho(self, rho):
        x, y = rng.bivariate_block(rho, 20261020, 0, 1000, 1000)
        n = x.size
        assert_within_4se("E x y", np.mean(x * y), rho, math.sqrt((1 + rho * rho) / n))
        assert_within_4se("E y^2", np.mean(y * y), 1.0, math.sqrt(2 / n))


class TestOrderedMap:
    def test_results_in_task_order(self):
        assert rng.ordered_map(lambda t: t * t, range(10), threads=3) == [
            t * t for t in range(10)]

    def test_starts_no_more_workers_than_tasks(self, monkeypatch):
        asked, seen = [], set()

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                asked.append(max_workers)
                super().__init__(max_workers=max_workers)

        def task(t):
            seen.add(threading.get_ident())
            return t

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        assert rng.ordered_map(task, [3, 1, 2], threads=64) == [3, 1, 2]
        assert asked == [3]
        assert len(seen) <= 3

    def test_one_task_or_thread_runs_inline(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)  # never built
        assert rng.ordered_map(lambda t: t + 1, [1], threads=8) == [2]
        assert rng.ordered_map(lambda t: t + 1, [1, 2], threads=1) == [2, 3]
