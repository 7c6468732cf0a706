import math
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpsketch import (Corpus, DataVector, DomainError, FullSketch, FullStore, ProjectionConfig,
                      ShapeError, SignSketch, SignStore, SketchFormatError, cosine,
                      gaussian_entry, load_sketches, matching_bits, normalize,
                      project, project_corpus, quantize_store, save_sketches,
                      sign_array, sign_quantize)
from rpsketch import rng
from rpsketch.errors import ConfigError


def vec(dense, dim=None):
    return DataVector.from_dense(dense, dim)


class TestGaussianEntry:
    def test_deterministic(self):
        assert gaussian_entry(7, 3, 11) == gaussian_entry(7, 3, 11)

    def test_stream_separation(self):
        assert gaussian_entry(7, 0, 0) != gaussian_entry(7, 0, 1)
        assert gaussian_entry(7, 0, 0) != gaussian_entry(7, 1, 0)
        assert gaussian_entry(7, 0, 0) != gaussian_entry(8, 0, 0)

    def test_moments(self):
        # 4 sigma / sqrt(N) on the mean; mean +- 4e-3, variance +- 0.006
        z = rng.normal_grid(123, np.arange(100), 10_000).ravel()
        assert abs(z.mean()) < 4e-3
        assert abs(z.var() - 1.0) < 6e-3

    def test_large_seed_accepted(self):
        assert math.isfinite(gaussian_entry(2**64 - 1, 0, 0))


class TestProject:
    CFG = ProjectionConfig(k=64, seed=99)

    def test_empty_vector_rejected(self):
        empty = DataVector(np.array([], dtype=np.int64), np.array([]), 4)
        with pytest.raises(DomainError):
            project(empty, self.CFG)

    def test_axis_vector_reads_matrix_row(self):
        e3 = vec([0.0, 0.0, 0.0, 1.0, 0.0])
        sk = project(e3, self.CFG)
        for j in [0, 1, 17, 63]:
            assert sk.values[j] == gaussian_entry(99, 3, j)

    def test_pure_function(self):
        u = normalize(vec([0.5, -0.25, 0.0, 1.0]))
        a = project(u, self.CFG)
        b = project(u, self.CFG)
        assert np.array_equal(a.values, b.values)
        assert a.sumsq == b.sumsq

    def test_linearity(self):
        rng_ = np.random.default_rng(0)
        u = rng_.standard_normal(12)
        w = rng_.standard_normal(12)
        cfg = ProjectionConfig(k=128, seed=5)
        su = project(vec(u), cfg).values
        sw = project(vec(w), cfg).values
        ssum = project(vec(u + w), cfg).values
        np.testing.assert_allclose(su + sw, ssum, rtol=1e-9, atol=1e-12)

    def test_pair_product_mean_over_seeds(self):
        # E(x_1 y_1) = rho with variance factor 1 + rho^2
        rho = 0.6
        n = 100_000
        seeds = np.arange(n, dtype=np.uint64)
        r00 = rng.normals(seeds, 0, 0)
        r10 = rng.normals(seeds, 1, 0)
        x = r00  # u = (1, 0)
        y = rho * r00 + math.sqrt(1 - rho * rho) * r10  # v = (rho, sqrt(1-rho^2))
        tol = 4.0 * math.sqrt((1 + rho * rho) / n)
        assert abs(float(np.mean(x * y)) - rho) < tol

    def test_hamming_agreement_matches_collision_probability(self):
        k = 20_000
        cfg = ProjectionConfig(k=k, seed=31)
        for rho in [0.0, 0.5, 0.9]:
            u = vec([1.0, 0.0])
            v = vec([rho, math.sqrt(1 - rho * rho)])
            bu = sign_quantize(project(u, cfg))
            bv = sign_quantize(project(v, cfg))
            p = 1.0 - math.acos(rho) / math.pi
            agree = matching_bits(bu, bv) / k
            assert abs(agree - p) < 4.0 * math.sqrt(p * (1 - p) / k)

    def test_project_corpus_bitwise_equal_to_scalar(self):
        rng_ = np.random.default_rng(2)
        vs = [normalize(vec(rng_.standard_normal(40))) for _ in range(25)]
        cfg = ProjectionConfig(k=33, seed=77)
        batch = project_corpus(Corpus.from_vectors(vs, 40), cfg)
        for v, sk in zip(vs, batch):
            assert np.array_equal(sk.values, project(v, cfg).values)

    @pytest.mark.parametrize("k", [1, 7, 33, 64, 256])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("cached", [True, False])
    def test_project_corpus_rows_match_project(self, k, threads, cached, monkeypatch):
        # union {0, 2, 3, 5, 8, 9, ...}: dense rows, runs of the union that are
        # not runs of indices, rows that skip union entries, single entries
        from rpsketch import projection

        if not cached:  # every vector draws its own rows
            monkeypatch.setattr(projection, "_ROW_CACHE_LIMIT", 0)
        rng_ = np.random.default_rng(k)
        dim = 12
        supports = [range(dim), [2, 3], [3, 5], [0, 9], [0, 3, 8], [5], [11],
                    [2, 3, 5, 8, 9], [0, 2, 11], range(3, 10)]
        vs = [DataVector(np.array(sorted(sup)), rng_.standard_normal(len(sup)), dim)
              for sup in supports]
        store = project_corpus(Corpus.from_vectors(vs, dim), ProjectionConfig(k, 5),
                               threads=threads)
        assert isinstance(store, FullStore) and store.values.shape == (len(vs), k)
        for i, v in enumerate(vs):
            one = project(v, ProjectionConfig(k, 5))
            assert store.values[i].tobytes() == one.values.tobytes()
            assert store.sumsq[i] == one.sumsq

    def test_project_corpus_empty(self):
        store = project_corpus(Corpus.from_vectors([], 4), ProjectionConfig(8, 1))
        assert isinstance(store, FullStore) and len(store) == 0 and store.k == 0
        with pytest.raises(DomainError):
            project_corpus(Corpus.from_vectors([vec([1.0, 0.0]), vec([0.0, 0.0])], 2),
                           ProjectionConfig(8, 1))


class TestSignQuantize:
    def test_all_positive(self):
        sk = sign_quantize(FullSketch(np.full(13, 2.0)))
        assert np.array_equal(sign_array(sk), np.ones(13))
        # the 3 pad bits of the final byte are zero
        assert sk.bits[-1] == 0b00011111

    def test_bit_packing_order(self):
        sk = sign_quantize(FullSketch(np.array([-1.0, 2.0, -3.0])))
        assert sk.bits.tolist() == [0x02]

    def test_zero_counts_as_positive(self):
        sk = sign_quantize(FullSketch(np.array([0.0, -1.0])))
        assert sign_array(sk).tolist() == [1.0, -1.0]

    @given(st.lists(st.floats(allow_nan=False, width=32), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_sign_round_trip(self, values):
        values = np.asarray(values, dtype=np.float64)
        sk = sign_quantize(FullSketch(values))
        expected = np.where(values >= 0.0, 1.0, -1.0)
        assert np.array_equal(sign_array(sk), expected)

    def test_pad_bits_validated(self):
        with pytest.raises(SketchFormatError):
            SignSketch(np.array([0xFF], dtype=np.uint8), 3)


class TestSketchFiles:
    def test_sign_round_trip(self, tmp_path):
        rng_ = np.random.default_rng(4)
        sketches = [sign_quantize(FullSketch(rng_.standard_normal(64)))
                    for _ in range(100)]
        path = tmp_path / "s.sfrp"
        save_sketches(path, SignStore.stack(sketches))
        loaded = load_sketches(path)
        assert len(loaded) == 100
        for a, b in zip(sketches, loaded):
            assert a.k == b.k
            assert np.array_equal(a.bits, b.bits)

    def test_full_round_trip(self, tmp_path):
        rng_ = np.random.default_rng(6)
        sketches = [FullSketch(rng_.standard_normal(17)) for _ in range(9)]
        path = tmp_path / "f.sfrp"
        save_sketches(path, FullStore.stack(sketches))
        loaded = load_sketches(path)
        for a, b in zip(sketches, loaded):
            assert np.array_equal(a.values, b.values)
            assert a.sumsq == b.sumsq

    def test_full_file_loads_as_columns(self, tmp_path):
        rng_ = np.random.default_rng(7)
        sketches = [FullSketch(rng_.standard_normal(17)) for _ in range(9)]
        path = tmp_path / "f.sfrp"
        save_sketches(path, FullStore.stack(sketches))
        loaded = load_sketches(path)
        assert isinstance(loaded, FullStore)
        assert loaded.values.shape == (9, 17) and loaded.k == 17
        assert np.array_equal(loaded.values, np.stack([s.values for s in sketches]))
        assert loaded.sumsq.tolist() == [s.sumsq for s in sketches]
        save_sketches(path, FullStore.stack(sketches[:0]))
        assert len(load_sketches(path)) == 0

    def test_full_file_sumsq_checked(self, tmp_path):
        path = tmp_path / "f.sfrp"
        save_sketches(path, FullStore.stack([FullSketch(np.ones(4)), FullSketch(np.full(4, 2.0))]))
        blob = bytearray(path.read_bytes())
        blob[-8:] = struct.pack("<d", 99.0)  # second row's sumsq
        path.write_bytes(bytes(blob))
        with pytest.raises(SketchFormatError, match="inconsistent"):
            load_sketches(path)

    def test_empty_collection(self, tmp_path):
        path = tmp_path / "e.sfrp"
        save_sketches(path, SignStore.stack([]))
        loaded = load_sketches(path)
        assert isinstance(loaded, SignStore)
        assert len(loaded) == 0 and loaded.k == 0

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.sfrp"
        save_sketches(path, SignStore.stack([sign_quantize(FullSketch(np.ones(8)))]))
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(SketchFormatError):
            load_sketches(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "t.sfrp"
        save_sketches(path, SignStore.stack([sign_quantize(FullSketch(np.ones(64)))
                                             for _ in range(4)]))
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(SketchFormatError):
            load_sketches(path)

    def test_store_round_trip_matches_row_path(self, tmp_path):
        rng_ = np.random.default_rng(5)
        full = [FullSketch(rng_.standard_normal(61)) for _ in range(30)]
        rows, stored = tmp_path / "rows.sfrp", tmp_path / "store.sfrp"
        save_sketches(rows, SignStore.stack([sign_quantize(s) for s in full]))
        save_sketches(stored, quantize_store(FullStore.stack(full)))
        assert rows.read_bytes() == stored.read_bytes()
        loaded = load_sketches(stored)
        assert loaded.bits.shape == (30, 8) and loaded.k == 61
        for i, s in enumerate(full):
            assert np.array_equal(loaded[i].bits, sign_quantize(s).bits)

    def test_store_pad_bits_validated(self, tmp_path):
        path = tmp_path / "pad.sfrp"
        save_sketches(path, SignStore.stack([sign_quantize(FullSketch(-np.ones(3)))] * 2))
        blob = bytearray(path.read_bytes())
        blob[-1] |= 0x80
        path.write_bytes(bytes(blob))
        with pytest.raises(SketchFormatError):
            load_sketches(path)

    @pytest.mark.parametrize("count", [100_000, 2**64 - 1])
    @pytest.mark.parametrize("kind", [0x00, 0x01])
    def test_zero_k_with_count_fails_fast(self, tmp_path, kind, count):
        path = tmp_path / "zero-k.sfrp"
        path.write_bytes(b"SFRP" + struct.pack("<BBIQ", 1, kind, 0, count))
        start = time.perf_counter()
        with pytest.raises(SketchFormatError):
            load_sketches(path)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("k, count", [(64, 2**61), (1, 2**64 - 1)])
    def test_count_bounded_by_payload(self, tmp_path, k, count):
        path = tmp_path / "big.sfrp"
        path.write_bytes(b"SFRP" + struct.pack("<BBIQ", 1, 0, k, count) + b"\x00" * 8)
        with pytest.raises(SketchFormatError):
            load_sketches(path)

    def test_heterogeneous_k_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            save_sketches(tmp_path / "k.sfrp",
                          FullStore.stack([FullSketch(np.ones(4)), FullSketch(np.ones(5))]))


class TestConfig:
    def test_k_validated(self):
        with pytest.raises(ConfigError):
            ProjectionConfig(k=0, seed=1)

    def test_sumsq_consistency_enforced(self):
        with pytest.raises(SketchFormatError):
            FullSketch(np.array([1.0, 2.0]), sumsq=99.0)
