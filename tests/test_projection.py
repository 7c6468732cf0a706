import math
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (corpus, full_store, gaussian_entry, matching_bits, normalize, normals,
                     project, sign_store)
from rpsketch import (DomainError, FullStore, ProjectionConfig,
                      ShapeError, SignStore, SketchFormatError, load_sketches,
                      project_corpus, save_sketches, sign_array, sign_quantize)
from rpsketch import rng
from rpsketch.errors import ConfigError, ShapeError
from rpsketch.projection import _VERSION, union_rows


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
        with pytest.raises(DomainError):
            project_corpus(corpus([np.zeros(4)], 4), self.CFG)

    def test_axis_vector_reads_matrix_row(self):
        e3 = [0.0, 0.0, 0.0, 1.0, 0.0]
        sk = project_corpus(corpus([e3], 5), self.CFG)
        for j in [0, 1, 17, 63]:
            assert sk.values[0, j] == gaussian_entry(99, 3, j)

    def test_pure_function(self):
        u = normalize([0.5, -0.25, 0.0, 1.0])
        a = project_corpus(corpus([u], 4), self.CFG)
        b = project_corpus(corpus([u], 4), self.CFG)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.sumsq, b.sumsq)

    def test_linearity(self):
        rng_ = np.random.default_rng(0)
        u = rng_.standard_normal(12)
        w = rng_.standard_normal(12)
        cfg = ProjectionConfig(k=128, seed=5)
        su, sw, ssum = project_corpus(corpus([u, w, u + w], 12), cfg).values
        np.testing.assert_allclose(su + sw, ssum, rtol=1e-9, atol=1e-12)

    def test_pair_product_mean_over_seeds(self):
        # E(x_1 y_1) = rho with variance factor 1 + rho^2
        rho = 0.6
        n = 100_000
        seeds = np.arange(n, dtype=np.uint64)
        r00 = normals(seeds, 0, 0)
        r10 = normals(seeds, 1, 0)
        x = r00  # u = (1, 0)
        y = rho * r00 + math.sqrt(1 - rho * rho) * r10  # v = (rho, sqrt(1-rho^2))
        tol = 4.0 * math.sqrt((1 + rho * rho) / n)
        assert abs(float(np.mean(x * y)) - rho) < tol

    def test_hamming_agreement_matches_collision_probability(self):
        k = 20_000
        cfg = ProjectionConfig(k=k, seed=31)
        for rho in [0.0, 0.5, 0.9]:
            u, v = [1.0, 0.0], [rho, math.sqrt(1 - rho * rho)]
            bu, bv = (sign_store(project(w, cfg)) for w in (u, v))
            p = 1.0 - math.acos(rho) / math.pi
            agree = matching_bits(bu, bv) / k
            assert abs(agree - p) < 4.0 * math.sqrt(p * (1 - p) / k)

    def test_project_corpus_bitwise_equal_to_scalar(self):
        rng_ = np.random.default_rng(2)
        vs = [normalize(rng_.standard_normal(40)) for _ in range(25)]
        cfg = ProjectionConfig(k=33, seed=77)
        batch = project_corpus(corpus(vs, 40), cfg)
        for v, values in zip(vs, batch.values):
            assert np.array_equal(values, project(v, cfg))

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
        vs = [(sorted(sup), rng_.standard_normal(len(sup))) for sup in supports]
        store = project_corpus(corpus(vs, dim), ProjectionConfig(k, 5),
                               threads=threads)
        assert isinstance(store, FullStore) and store.values.shape == (len(vs), k)
        for i, v in enumerate(vs):
            one = full_store(project(v, ProjectionConfig(k, 5)))
            assert store.values[i].tobytes() == one.values[0].tobytes()
            assert store.sumsq[i] == one.sumsq[0]

    @pytest.mark.parametrize("k", [1, 7, 33, 64, 255])
    def test_shared_rows_cut_from_a_wider_draw_match_project(self, k):
        # the other corpus holds indices 1 and 11, which no row of c does, so
        # [0, 2] is a run of c's own union but not of the shared one; the
        # rows are drawn 9 columns wider, then cut to their first k
        rng_ = np.random.default_rng(k)
        supports = [[2, 3], [3, 5], [0, 2], [0, 9], [5], [2, 3, 5, 8, 9], range(3, 10), [0, 2]]
        vs = [(list(sup), rng_.standard_normal(len(sup))) for sup in supports]
        c, other = corpus(vs, 12), corpus([([1, 2, 11], [1.0, 2.0, 3.0])], 12)
        (pos, _), wide = union_rows([c, other], 5, k + 9)
        store = project_corpus(c, ProjectionConfig(k, 5),
                               shared_rows=(pos, np.ascontiguousarray(wide[:, :k])))
        want = project_corpus(c, ProjectionConfig(k, 5))
        assert store.values.tobytes() == want.values.tobytes()

    def test_shared_rows_of_another_width_refused(self):
        c = corpus([np.array([1.0, 0.0, 2.0])], 3)
        table = rng.normal_grid(5, np.arange(3), 8)
        with pytest.raises(ShapeError, match="k = 7"):
            project_corpus(c, ProjectionConfig(7, 5), shared_rows=(c.indices, table))

    @pytest.mark.parametrize("layout", ["whole-union", "sub-runs", "mixed", "apart"])
    @pytest.mark.parametrize("k", [1, 7, 33, 64, 256])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_project_corpus_shared_runs_match_project(self, layout, k, threads):
        # rows with one run of the union share one stacked product, read as
        # a view of the values where the rows are consecutive and gathered
        # where they are not ("apart": two sparse rows hold one run with a
        # row between); the others gather their own rows; each must equal
        # project bit for bit
        dim = 16
        supports = {
            "whole-union": [range(dim)] * 6,
            "sub-runs": [range(dim), *[range(2, 7)] * 3, *[range(9, 11)] * 2, [4], [4]],
            "mixed": [range(3, 9), [0, 3, 8], range(3, 9), [1, 15], range(dim),
                      [5, 6], [2, 9, 14], range(3, 9), [5, 6], range(dim)],
            "apart": [[4, 5, 6], [0, 9], [4, 5, 6], [7], [7], range(dim)],
        }[layout]
        rng_ = np.random.default_rng(k + 100 * threads)
        vs = [(list(sup), rng_.standard_normal(len(sup))) for sup in supports]
        store = project_corpus(corpus(vs, dim), ProjectionConfig(k, 11),
                               threads=threads)
        for i, v in enumerate(vs):
            assert store.values[i].tobytes() == project(v, ProjectionConfig(k, 11)).tobytes()

    def test_project_corpus_empty(self):
        store = project_corpus(corpus([], 4), ProjectionConfig(8, 1))
        assert isinstance(store, FullStore) and len(store) == 0 and store.k == 8
        with pytest.raises(DomainError):
            project_corpus(corpus([[1.0, 0.0], [0.0, 0.0]], 2), ProjectionConfig(8, 1))


def searchsorted_union(corpora) -> tuple[np.ndarray, list[np.ndarray]]:
    """The sorted union of the corpora's indices, and each corpus's positions
    in it, as one sort and a searchsorted per corpus find them."""
    union = np.unique(np.concatenate([c.indices for c in corpora]))
    return union, [np.searchsorted(union, c.indices) for c in corpora]


class TestUnionRows:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n_corpora=st.integers(1, 3),
           dim=st.sampled_from([1, 6, 2**16 - 1, 2**16, 2**16 + 1, 2**40]))
    def test_positions_equal_a_sort_and_searchsorted(self, data, n_corpora, dim):
        # a table of the dim's indices up to 2^16, a sort above; 0 and
        # dim - 1 are drawn often, so 65,535 and 65,536 meet both
        index = st.one_of(st.integers(0, dim - 1), st.sampled_from([0, dim - 1]))
        corpora = [corpus([(sorted(sup), np.ones(len(sup))) for sup in data.draw(
            st.lists(st.sets(index, min_size=1, max_size=10), max_size=6))], dim)
            for _ in range(n_corpora)]
        positions, table = union_rows(corpora, 5, 3)
        union, want = searchsorted_union(corpora)
        assert table.tobytes() == rng.normal_grid(5, union, 3).tobytes()
        for c, got, pos in zip(corpora, positions, want):
            assert got.dtype == pos.dtype and np.array_equal(got, pos)
            assert table[got].tobytes() == rng.normal_grid(5, c.indices, 3).tobytes()

    @pytest.mark.parametrize("dim", [2**16, 2**16 + 1])
    def test_indices_at_the_top_of_the_dim(self, dim):
        corpora = [corpus([([0, dim - 1], [1.0, 2.0]), ([dim - 2], [1.0])], dim),
                   corpus([([dim - 1], [3.0])], dim)]
        positions, _ = union_rows(corpora, 5, 2)
        assert [p.tolist() for p in positions] == [[0, 2, 1], [2]]


class TestSignQuantize:
    def test_all_positive(self):
        sk = sign_store(np.full(13, 2.0))
        assert np.array_equal(sign_array(sk), np.ones((1, 13)))
        # the 3 pad bits of the final byte are zero
        assert sk.bits[0, -1] == 0b00011111

    def test_bit_packing_order(self):
        sk = sign_store([-1.0, 2.0, -3.0])
        assert sk.bits.tolist() == [[0x02]]

    def test_zero_counts_as_positive(self):
        sk = sign_store([0.0, -1.0])
        assert sign_array(sk).tolist() == [[1.0, -1.0]]

    @given(st.lists(st.floats(allow_nan=False, width=32), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_sign_round_trip(self, values):
        values = np.asarray(values, dtype=np.float64)
        sk = sign_store(values)
        expected = np.where(values >= 0.0, 1.0, -1.0)
        assert np.array_equal(sign_array(sk)[0], expected)

    def test_pad_bits_validated(self):
        with pytest.raises(SketchFormatError):
            SignStore(np.array([[0xFF]], dtype=np.uint8), 3)


class TestSketchFiles:
    def test_sign_round_trip(self, tmp_path):
        rng_ = np.random.default_rng(4)
        sketches = sign_store(*(rng_.standard_normal(64) for _ in range(100)))
        path = tmp_path / "s.sfrp"
        save_sketches(path, sketches)
        loaded = load_sketches(path)
        assert len(loaded) == 100
        assert loaded.k == sketches.k
        assert np.array_equal(loaded.bits, sketches.bits)

    def test_full_round_trip(self, tmp_path):
        rng_ = np.random.default_rng(6)
        sketches = full_store(*(rng_.standard_normal(17) for _ in range(9)))
        path = tmp_path / "f.sfrp"
        save_sketches(path, sketches)
        loaded = load_sketches(path)
        assert np.array_equal(loaded.values, sketches.values)
        assert np.array_equal(loaded.sumsq, sketches.sumsq)

    def test_full_file_loads_as_columns(self, tmp_path):
        rng_ = np.random.default_rng(7)
        rows = [rng_.standard_normal(17) for _ in range(9)]
        path = tmp_path / "f.sfrp"
        save_sketches(path, full_store(*rows))
        loaded = load_sketches(path)
        assert isinstance(loaded, FullStore)
        assert loaded.values.shape == (9, 17) and loaded.k == 17
        assert np.array_equal(loaded.values, np.stack(rows))
        assert loaded.sumsq.tolist() == [full_store(r).sumsq[0] for r in rows]
        save_sketches(path, FullStore(np.zeros((0, 17)), np.zeros(0)))
        assert len(load_sketches(path)) == 0

    def test_full_file_sumsq_checked(self, tmp_path):
        path = tmp_path / "f.sfrp"
        save_sketches(path, full_store(np.ones(4), np.full(4, 2.0)))
        blob = bytearray(path.read_bytes())
        blob[-8:] = struct.pack("<d", 99.0)  # second row's sumsq
        path.write_bytes(bytes(blob))
        with pytest.raises(SketchFormatError, match="inconsistent"):
            load_sketches(path)

    def test_empty_collection(self, tmp_path):
        path = tmp_path / "e.sfrp"
        save_sketches(path, SignStore(np.zeros((0, 0), dtype=np.uint8), 0))
        loaded = load_sketches(path)
        assert isinstance(loaded, SignStore)
        assert len(loaded) == 0 and loaded.k == 0

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.sfrp"
        save_sketches(path, sign_store(np.ones(8)))
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(SketchFormatError):
            load_sketches(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "t.sfrp"
        save_sketches(path, sign_store(*[np.ones(64)] * 4))
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(SketchFormatError):
            load_sketches(path)

    def test_store_round_trip_matches_row_path(self, tmp_path):
        rng_ = np.random.default_rng(5)
        full = [rng_.standard_normal(61) for _ in range(30)]
        rows, stored = tmp_path / "rows.sfrp", tmp_path / "store.sfrp"
        one_row_bits = [sign_store(s).bits for s in full]
        save_sketches(rows, SignStore(np.concatenate(one_row_bits), 61))
        save_sketches(stored, sign_quantize(full_store(*full)))
        assert rows.read_bytes() == stored.read_bytes()
        loaded = load_sketches(stored)
        assert loaded.bits.shape == (30, 8) and loaded.k == 61
        for i, bits in enumerate(one_row_bits):
            assert np.array_equal(loaded.bits[i:i + 1], bits)

    def test_store_pad_bits_validated(self, tmp_path):
        path = tmp_path / "pad.sfrp"
        save_sketches(path, sign_store(*[-np.ones(3)] * 2))
        blob = bytearray(path.read_bytes())
        blob[-1] |= 0x80
        path.write_bytes(bytes(blob))
        with pytest.raises(SketchFormatError):
            load_sketches(path)

    @pytest.mark.parametrize("count", [100_000, 2**64 - 1])
    @pytest.mark.parametrize("kind", [0x00, 0x01])
    def test_zero_k_with_count_fails_fast(self, tmp_path, kind, count):
        path = tmp_path / "zero-k.sfrp"
        path.write_bytes(b"SFRP" + struct.pack("<BBIQ", _VERSION, kind, 0, count))
        start = time.perf_counter()
        with pytest.raises(SketchFormatError):
            load_sketches(path)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("k, count", [(64, 2**61), (1, 2**64 - 1)])
    def test_count_bounded_by_payload(self, tmp_path, k, count):
        path = tmp_path / "big.sfrp"
        path.write_bytes(b"SFRP" + struct.pack("<BBIQ", _VERSION, 0, k, count) + b"\x00" * 8)
        with pytest.raises(SketchFormatError):
            load_sketches(path)

    def test_heterogeneous_k_rejected(self, tmp_path):
        # one k per store: rows of another width cannot be stored with it
        with pytest.raises(ShapeError):
            SignStore(np.zeros((2, 1), dtype=np.uint8), 9)
        with pytest.raises(ShapeError):
            FullStore(np.ones(4), [4.0])


class TestConfig:
    def test_k_validated(self):
        with pytest.raises(ConfigError):
            ProjectionConfig(k=0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7, 1.0])
    def test_seed_outside_64_bits_refused(self, seed):
        # it used to be reduced modulo 2^64, so -1 named the stream of 2^64 - 1
        with pytest.raises(ConfigError):
            ProjectionConfig(k=8, seed=seed)

    def test_seed_kept_as_given(self):
        assert ProjectionConfig(k=8, seed=2**64 - 1).seed == 2**64 - 1
        assert type(ProjectionConfig(k=8, seed=np.uint64(5)).seed) is int

    def test_sumsq_consistency_enforced(self):
        with pytest.raises(SketchFormatError):
            FullStore(np.array([[1.0, 2.0]]), [99.0])
        FullStore(np.array([[1.0, 2.0]]), [5.0 * (1.0 + 1e-10)])  # within 1e-9
