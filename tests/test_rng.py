"""The grid kernel against the broadcasting reference rng.normals."""

import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpsketch import rng


def bits(a):
    return a.shape, a.tobytes()


def reference_pairs(rho, seed, major_start, n_major, k):
    majors = np.arange(major_start, major_start + n_major, dtype=np.uint64)[:, None]
    minors = 2 * np.arange(k, dtype=np.uint64)[None, :]
    x = rng.normals(seed, majors, minors)
    z = rng.normals(seed, majors, minors + np.uint64(1))
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
        ref = rng.normals(seed, majors[:, None], np.arange(k, dtype=np.uint64)[None, :])
        assert bits(grid) == bits(ref)

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # workers write disjoint pieces of one array; a lost or misplaced
        # write shows as a difference from the reference
        monkeypatch.setattr(rng, "_CHUNK_VALUES", 7)
        majors = np.arange(60, dtype=np.uint64)
        ref = rng.normals(2, majors[:, None], np.arange(37, dtype=np.uint64)[None, :])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert bits(rng.normal_grid(2, majors, 37, threads=4)) == bits(ref)
        finally:
            sys.setswitchinterval(interval)

    def test_one_wide_row_spans_chunks(self):
        k = 3 * rng._CHUNK_VALUES + 5
        ref = rng.normals(5, 2**63 + 1, np.arange(k))[None, :]
        for workers in (1, 2, 3):
            assert bits(rng.normal_grid(5, [2**63 + 1], k, threads=workers)) == bits(ref)

    def test_rows_of_chunk_width_and_one_more(self):
        for k in (rng._CHUNK_VALUES, rng._CHUNK_VALUES + 1):
            grid = rng.normal_grid(9, [4, 0], k)
            ref = rng.normals(9, np.array([[4], [0]]), np.arange(k)[None, :])
            assert bits(grid) == bits(ref)


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

        monkeypatch.setattr(rng, "ThreadPoolExecutor", Recording)
        assert rng.ordered_map(task, [3, 1, 2], threads=64) == [3, 1, 2]
        assert asked == [3]
        assert len(seen) <= 3

    def test_one_task_or_thread_runs_inline(self, monkeypatch):
        monkeypatch.setattr(rng, "ThreadPoolExecutor", None)  # never built
        assert rng.ordered_map(lambda t: t + 1, [1], threads=8) == [2]
        assert rng.ordered_map(lambda t: t + 1, [1, 2], threads=1) == [2, 3]
