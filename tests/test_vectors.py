import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpsketch import (Corpus, DataVector, DomainError, ShapeError,
                      SparseTextError, cosine, load_sparse_text, normalize,
                      save_sparse_text)


def vec(dense, dim=None):
    return DataVector.from_dense(dense, dim)


class TestCosine:
    def test_identity(self):
        u = vec([0.3, -1.2, 0.0, 2.5])
        assert cosine(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine(vec([1.0, 0.0]), vec([0.0, 1.0])) == 0.0

    def test_hand_dot_product(self):
        # (1,0)·(1,1)/(1*sqrt(2))
        assert cosine(vec([1.0, 0.0]), vec([1.0, 1.0])) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-15)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = vec(rng.standard_normal(8))
            v = vec(rng.standard_normal(8))
            assert cosine(u, v) == cosine(v, u)

    @given(st.floats(min_value=1e-6, max_value=1e6), st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, alpha, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        base = cosine(vec(u), vec(v))
        scaled = cosine(vec(alpha * u), vec(v))
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            cosine(vec([1.0, 0.0]), vec([1.0, 0.0, 0.0]))

    def test_zero_vector(self):
        empty = DataVector(np.array([], dtype=np.int64), np.array([]), 4)
        with pytest.raises(DomainError):
            cosine(empty, vec([1.0, 0.0, 0.0, 0.0]))


class TestNormalize:
    def test_three_four_five(self):
        n = normalize(vec([3.0, 4.0]))
        np.testing.assert_allclose(n.to_dense(), [0.6, 0.8], rtol=0, atol=0)

    def test_idempotent(self):
        u = normalize(vec([0.2, -0.7, 1.4]))
        again = normalize(u)
        np.testing.assert_allclose(again.values, u.values, atol=1e-15)
        assert cosine(u, again) == pytest.approx(1.0, abs=1e-12)

    def test_axis_vector(self):
        n = normalize(vec([2.0] + [0.0] * 9))
        assert n.indices.tolist() == [0]
        assert n.values.tolist() == [1.0]

    def test_zero_rejected(self):
        empty = DataVector(np.array([], dtype=np.int64), np.array([]), 4)
        with pytest.raises(DomainError):
            normalize(empty)

    def test_unit_norm_within_tolerance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = normalize(vec(rng.standard_normal(30)))
            assert abs(float(np.dot(u.values, u.values)) - 1.0) < 1e-12


class TestDataVectorInvariants:
    def test_rejects_unsorted_indices(self):
        with pytest.raises(ShapeError):
            DataVector(np.array([3, 1]), np.array([1.0, 2.0]), 5)

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ShapeError):
            DataVector(np.array([2, 2]), np.array([1.0, 2.0]), 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ShapeError):
            DataVector(np.array([5]), np.array([1.0]), 5)

    def test_rejects_stored_zero(self):
        with pytest.raises(DomainError):
            DataVector(np.array([1]), np.array([0.0]), 5)


class TestLoader:
    def test_labeled_line(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("1 3:0.6 4:0.8\n")
        corpus = load_sparse_text(p)
        (v,) = corpus.vectors
        assert v.indices.tolist() == [2, 3]
        np.testing.assert_allclose(v.values, [0.6, 0.8], atol=1e-15)
        assert corpus.dim == 4

    def test_single_entry_normalized(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("0 1:2\n")
        (v,) = load_sparse_text(p).vectors
        assert v.indices.tolist() == [0]
        assert v.values.tolist() == [1.0]

    def test_blank_line_skipped_with_count(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("1:1\n\n2:1\n")
        corpus = load_sparse_text(p)
        assert len(corpus) == 2
        assert corpus.skipped == 1

    def test_label_only_line_skipped(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("7\n1:1\n")
        corpus = load_sparse_text(p)
        assert len(corpus) == 1
        assert corpus.skipped == 1

    def test_unlabeled_lines(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("3:0.6 4:0.8\n")
        (v,) = load_sparse_text(p).vectors
        assert v.indices.tolist() == [2, 3]

    def test_non_increasing_index_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("1:1\n0 3:0.6 2:0.4\n")
        with pytest.raises(SparseTextError) as err:
            load_sparse_text(p)
        assert err.value.line_no == 2

    def test_duplicate_index_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("3:1 3:2\n")
        with pytest.raises(SparseTextError):
            load_sparse_text(p)

    def test_malformed_pair_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("0 34\n")
        with pytest.raises(SparseTextError):
            load_sparse_text(p)

    def test_non_numeric_value_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("3:abc\n")
        with pytest.raises(SparseTextError):
            load_sparse_text(p)

    def test_zero_based_index_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("0:1.5\n")
        with pytest.raises(SparseTextError):
            load_sparse_text(p)

    def test_dim_override(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("2:1\n")
        assert load_sparse_text(p, dim=10).dim == 10
        with pytest.raises(SparseTextError):
            load_sparse_text(p, dim=1)

    def test_dim_overflow_reports_its_line(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("1:1\n2:1\n1:1 7:2\n3:1\n")
        with pytest.raises(SparseTextError) as err:
            load_sparse_text(p, dim=4)
        assert err.value.line_no == 3
        assert "index 7" in str(err.value)

    def test_explicit_zero_values_dropped(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("1:0 2:5\n3:0\n")
        corpus = load_sparse_text(p)
        assert len(corpus) == 1
        assert corpus.skipped == 1
        assert corpus.vectors[0].indices.tolist() == [1]

    def test_load_matches_dense_brute_force(self, tmp_path):
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((6, 12))
        dense[np.abs(dense) < 0.4] = 0.0
        dense[:, -1] = 1.0  # pin the dimensionality
        p = tmp_path / "c.txt"
        save_sparse_text(p, Corpus(tuple(
            normalize(vec(row, 12)) for row in dense), 12))
        corpus = load_sparse_text(p)
        unit = dense / np.linalg.norm(dense, axis=1, keepdims=True)
        expected = unit @ unit.T
        for i in range(6):
            for j in range(6):
                got = cosine(corpus.vectors[i], corpus.vectors[j])
                assert got == pytest.approx(expected[i, j], abs=1e-10)

    def test_round_trip_values_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        original = Corpus(tuple(normalize(vec(rng.standard_normal(7)))
                                for _ in range(4)), 7)
        p = tmp_path / "c.txt"
        save_sparse_text(p, original)
        loaded = load_sparse_text(p)
        for a, b in zip(original, loaded):
            # repr round-trips floats, and re-normalizing a unit vector is
            # stable to the last bit or one ulp
            np.testing.assert_allclose(a.values, b.values, rtol=1e-15)

    def test_corpus_rejects_mixed_dims(self):
        with pytest.raises(ShapeError):
            Corpus((vec([1.0, 0.0]), vec([1.0, 0.0, 0.0])), 2)
