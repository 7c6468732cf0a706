import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
        (v,) = corpus
        assert v.indices.tolist() == [2, 3]
        np.testing.assert_allclose(v.values, [0.6, 0.8], atol=1e-15)
        assert corpus.dim == 4

    def test_single_entry_normalized(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("0 1:2\n")
        (v,) = load_sparse_text(p)
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
        (v,) = load_sparse_text(p)
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
        assert corpus[0].indices.tolist() == [1]

    def test_load_matches_dense_brute_force(self, tmp_path):
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((6, 12))
        dense[np.abs(dense) < 0.4] = 0.0
        dense[:, -1] = 1.0  # pin the dimensionality
        p = tmp_path / "c.txt"
        save_sparse_text(p, Corpus.from_vectors(
            (normalize(vec(row, 12)) for row in dense), 12))
        corpus = load_sparse_text(p)
        unit = dense / np.linalg.norm(dense, axis=1, keepdims=True)
        expected = unit @ unit.T
        for i in range(6):
            for j in range(6):
                got = cosine(corpus[i], corpus[j])
                assert got == pytest.approx(expected[i, j], abs=1e-10)

    def test_round_trip_values_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        original = Corpus.from_vectors([normalize(vec(rng.standard_normal(7)))
                                         for _ in range(4)], 7)
        p = tmp_path / "c.txt"
        save_sparse_text(p, original)
        loaded = load_sparse_text(p)
        for a, b in zip(original, loaded):
            # repr round-trips floats, and re-normalizing a unit vector is
            # stable to the last bit or one ulp
            np.testing.assert_allclose(a.values, b.values, rtol=1e-15)

    def test_corpus_rejects_mixed_dims(self):
        with pytest.raises(ShapeError):
            Corpus.from_vectors((vec([1.0, 0.0]), vec([1.0, 0.0, 0.0])), 2)


def _reference_load(path, dim=None):
    """The token-by-token loader as it stood before the chunked parser, as
    CSR arrays: rows normalized one DataVector at a time."""
    def parse_line(line_no, tokens):
        if tokens and ":" not in tokens[0]:
            tokens = tokens[1:]
        idx, val, prev = [], [], 0
        for tok in tokens:
            head, sep, tail = tok.partition(":")
            if not sep or not head or not tail:
                raise SparseTextError(line_no, f"malformed pair {tok!r}")
            try:
                i = int(head)
                x = float(tail)
            except ValueError:
                raise SparseTextError(line_no, f"non-numeric pair {tok!r}") from None
            if i < 1:
                raise SparseTextError(line_no, f"index {i} is not 1-based positive")
            if i <= prev:
                raise SparseTextError(
                    line_no, f"index {i} not strictly increasing (after {prev})")
            if not math.isfinite(x):
                raise SparseTextError(line_no, f"non-finite value in {tok!r}")
            prev = i
            if x != 0.0:
                idx.append(i - 1)
                val.append(x)
        return idx, val

    rows, skipped, max_index = [], 0, -1
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            tokens = line.split()
            idx, val = parse_line(line_no, tokens) if tokens else ([], [])
            if not idx:
                skipped += 1
                continue
            if dim is not None and idx[-1] >= dim:
                raise SparseTextError(
                    line_no, f"index {idx[-1] + 1} exceeds declared dim {dim}")
            max_index = max(max_index, idx[-1])
            rows.append((idx, val))
    if dim is None:
        dim = max_index + 1
    vectors = [normalize(DataVector(np.array(i, dtype=np.int64), np.array(v), dim))
               for i, v in rows]
    indptr = np.cumsum([0] + [v.nnz for v in vectors])
    cat = (lambda parts, empty: np.concatenate(parts) if parts else empty)
    return (indptr, cat([v.indices for v in vectors], np.zeros(0, np.int64)),
            cat([v.values for v in vectors], np.zeros(0)), dim, skipped)


def _outcome(load, path, dim):
    """Arrays and counts of a load, or the type, message and line of its error."""
    try:
        got = load(path, dim)
    except (SparseTextError, DomainError) as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line_no", None))
    if isinstance(got, Corpus):
        got = (got.indptr, got.indices, got.values, got.dim, got.skipped)
    indptr, indices, values, dim, skipped = got
    return ("ok", np.asarray(indptr, np.int64).tobytes(), indices.dtype, indices.tobytes(),
            values.dtype, values.tobytes(), dim, skipped)


_SEPARATORS = [" ", "  ", "\t", " \t ", "\x0c", "\x85", "\x1c", " ", "\xa0"]
_LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r"]
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # up to 17 digits
    st.floats(min_value=-1e3, max_value=1e3).map(lambda x: f"{x:.3g}"),
    st.sampled_from(["0", "0.0", "-0.0", "nan", "inf", "-inf", "1_0.5", "1e0",
                     "+2", "5", "1e-320", "1e300", "abc", "١٢"]))
_BAD_TOKENS = ["1:2:3", ":5", "5:", "1.0:2", "1e0:2", "+5:1", "5_0:1", "34", "3:abc",
               "::", ":"]


@st.composite
def _sparse_files(draw):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["pairs"] * 6 + ["blank", "label", "bad"]))
        tokens = []
        if kind == "label" or draw(st.booleans()) and kind != "blank":
            tokens.append(draw(st.sampled_from(["1", "-1", "lab", "x\x85y"])))
        if kind in ("pairs", "bad"):
            indices = sorted(draw(st.sets(st.integers(1, 40), max_size=12)))
            if draw(st.integers(0, 9)) == 0 and indices:  # out of order
                indices.reverse()
            tokens += [f"{i}:{draw(_VALUES)}" for i in indices]
            if kind == "bad":
                tokens.insert(draw(st.integers(0, len(tokens))),
                              draw(st.sampled_from(_BAD_TOKENS)))
        seps = [draw(st.sampled_from(_SEPARATORS)) for _ in tokens]
        line = "".join(sep + tok for sep, tok in zip(seps, tokens))
        lines.append(line + draw(st.sampled_from(_LINE_ENDS)))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")  # no final newline
    return "".join(lines), draw(st.one_of(st.none(), st.integers(1, 45)))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # rows of 1e300
class TestChunkedLoader:
    """The chunked parser against the token-by-token loader it replaced."""

    @given(_sparse_files())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_reference_loop(self, tmp_path, case):
        text, dim = case
        p = tmp_path / "c.txt"
        p.write_bytes(text.encode("utf-8"))
        assert _outcome(load_sparse_text, p, dim) == _outcome(_reference_load, p, dim)

    @pytest.mark.parametrize("text, dim", [
        ("1:2:3 4\n", None), ("1:1 :5\n", None), ("1:1 5:\n", None),
        ("1.0:2\n", None), ("1e0:2\n", None), ("+5:1 6:2\n", None),
        ("5_0:1\n", None), ("1:nan\n", None), ("1:inf\n", None),
        ("1:1_0.5 2:-0.0 3:0.12345678901234567\n", None),
        ("1:1\n7:1\n\n1:1 2:x\n", 4),  # dim overflow before a syntax error
        ("1:1\n2:1 1:1\n9:1\n", 4),  # a syntax error before a dim overflow
        ("1:1\x0c2:2\n3:3\x853:4\r\n", None), ("lab\x1c1:2\x1d2:3\n", None),
        ("1:1 9:0\n", 4), ("1:0\n\n", None), ("", None), ("\n\n", 3),
        ("1:1e-320 2:1e-320\n", None), ("1:1e300 2:1e300\n", None),
        ("1:1 2:1e-330\n", None), ("1:1e20 2:1e-310\n", None),
        ("1:99999999999999999999\n", 5),
    ])
    def test_hand_picked_files(self, tmp_path, text, dim):
        p = tmp_path / "c.txt"
        p.write_bytes(text.encode("utf-8"))
        assert _outcome(load_sparse_text, p, dim) == _outcome(_reference_load, p, dim)

    def test_rows_view_the_csr_arrays(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("3:0.6 4:0.8\n\n9 1:2\n")
        corpus = load_sparse_text(p)
        assert corpus.indptr.tolist() == [0, 2, 3]
        assert corpus.indices.tolist() == [2, 3, 0]
        assert corpus[-1].indices.tolist() == [0] and len(list(corpus)) == 2
        with pytest.raises(IndexError):
            corpus[2]
        assert np.shares_memory(corpus[0].values, corpus.values)

    def test_peak_memory_does_not_grow_with_the_file(self, tmp_path, monkeypatch):
        # dense files of 250 and 500 rows of 512 pairs, parsed in chunks of
        # 2^16 characters: the peak beyond the output arrays stays under one
        # fixed allowance.  Parsing all tokens at once would need ~15 MB
        # more at 250 rows.  (tracemalloc slows the parse ~20x, which keeps
        # the files small.)
        from rpsketch import vectors

        monkeypatch.setattr(vectors, "_CHUNK_CHARS", 1 << 16)
        allowance = 3 * 2**20
        rng_ = np.random.default_rng(3)
        for n_rows in (250, 500):
            p = tmp_path / f"dense{n_rows}.txt"
            block = np.round(rng_.uniform(0.1, 1.0, (n_rows, 512)), 3)
            p.write_text("".join(" ".join(f"{j}:{x}" for j, x in enumerate(row, 1)) + "\n"
                                 for row in block.tolist()))
            tracemalloc.start()
            try:
                corpus = load_sparse_text(p)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            out = corpus.indptr.nbytes + corpus.indices.nbytes + corpus.values.nbytes
            assert corpus.indices.size == 512 * n_rows
            assert peak - out < allowance, (n_rows, peak - out)
