import csv
import io
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import corpus as make_corpus
from oracles import (cosine, normalize, powers_of_ten, reference_load, reference_parse,
                     rows)
from rpsketch import (Corpus, DomainError, ShapeError, SparseTextError, load_sparse_text,
                      save_sparse_text, vectors)

EMPTY = (np.zeros(0, dtype=np.int64), np.zeros(0))  # a row with no nonzeros


class TestCosine:
    def test_identity(self):
        u = [0.3, -1.2, 0.0, 2.5]
        assert cosine(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_dot_product(self):
        # (1,0)·(1,1)/(1*sqrt(2))
        assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-15)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = rng.standard_normal(8)
            v = rng.standard_normal(8)
            assert cosine(u, v) == cosine(v, u)

    @given(st.floats(min_value=1e-6, max_value=1e6), st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, alpha, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        base = cosine(u, v)
        scaled = cosine(alpha * u, v)
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_zero_vector(self):
        with pytest.raises(DomainError):
            cosine(EMPTY, [1.0, 0.0, 0.0, 0.0])


class TestNormalize:
    def test_three_four_five(self):
        indices, values = normalize([3.0, 4.0])
        assert indices.tolist() == [0, 1]
        np.testing.assert_allclose(values, [0.6, 0.8], rtol=0, atol=0)

    def test_idempotent(self):
        u = normalize([0.2, -0.7, 1.4])
        again = normalize(u)
        np.testing.assert_allclose(again[1], u[1], atol=1e-15)
        assert cosine(u, again) == pytest.approx(1.0, abs=1e-12)

    def test_axis_vector(self):
        indices, values = normalize([2.0] + [0.0] * 9)
        assert indices.tolist() == [0]
        assert values.tolist() == [1.0]

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            normalize(EMPTY)

    def test_unit_norm_within_tolerance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            _, values = normalize(rng.standard_normal(30))
            assert abs(float(np.dot(values, values)) - 1.0) < 1e-12


class TestLoader:
    def test_labeled_line(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("1 3:0.6 4:0.8\n")
        corpus = load_sparse_text(p)
        ((indices, values),) = rows(corpus)
        assert indices.tolist() == [2, 3]
        np.testing.assert_allclose(values, [0.6, 0.8], atol=1e-15)
        assert corpus.dim == 4

    def test_single_entry_normalized(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("0 1:2\n")
        ((indices, values),) = rows(load_sparse_text(p))
        assert indices.tolist() == [0]
        assert values.tolist() == [1.0]

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
        ((indices, _),) = rows(load_sparse_text(p))
        assert indices.tolist() == [2, 3]

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
        assert corpus.indptr.tolist() == [0, 1] and corpus.indices.tolist() == [1]

    def test_load_matches_dense_brute_force(self, tmp_path):
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((6, 12))
        dense[np.abs(dense) < 0.4] = 0.0
        dense[:, -1] = 1.0  # pin the dimensionality
        p = tmp_path / "c.txt"
        save_sparse_text(p, make_corpus([normalize(row) for row in dense], 12))
        loaded = rows(load_sparse_text(p))
        unit = dense / np.linalg.norm(dense, axis=1, keepdims=True)
        expected = unit @ unit.T
        for i in range(6):
            for j in range(6):
                got = cosine(loaded[i], loaded[j])
                assert got == pytest.approx(expected[i, j], abs=1e-10)

    def test_round_trip_values_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        original = make_corpus([normalize(rng.standard_normal(7)) for _ in range(4)], 7)
        p = tmp_path / "c.txt"
        save_sparse_text(p, original)
        loaded = load_sparse_text(p)
        assert np.array_equal(loaded.indptr, original.indptr)
        assert np.array_equal(loaded.indices, original.indices)
        # repr round-trips floats, and re-normalizing a unit vector is
        # stable to the last bit or one ulp
        np.testing.assert_allclose(loaded.values, original.values, rtol=1e-15)


    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_save_writes_the_per_pair_repr_bytes(self, tmp_path, monkeypatch, block):
        # empty rows (first, inner, repeated, last), indices of 1-19 digits,
        # and values of every kind, in blocks of pairs that cut rows anywhere
        monkeypatch.setattr(vectors, "_WRITE_PAIRS", block)
        rng = np.random.default_rng(block)
        sizes = np.array([0, 3, 0, 0, 1, 40, 2, 0, 5, 0])
        indptr = np.concatenate(([0], np.cumsum(sizes)))
        indices = np.concatenate([np.sort(rng.choice(2**62, n, replace=False)) for n in sizes])
        indices[:3] = [0, 9, 10**18]
        values = rng.integers(0, 2**64, indices.size, dtype=np.uint64).view(np.float64)
        values[:4] = [0.5, -0.0, 1e16, np.nan]
        corpus = Corpus(indptr, indices.astype(np.int64), values, 2**62)
        p = tmp_path / "c.txt"
        save_sparse_text(p, corpus)
        want = "".join(" ".join(f"{i + 1}:{x!r}" for i, x in zip(
            indices[lo:hi].tolist(), values[lo:hi].tolist())) + "\n"
            for lo, hi in zip(indptr[:-1], indptr[1:]))
        assert p.read_bytes() == want.encode()
        save_sparse_text(p, Corpus(np.zeros(3, np.int64), *EMPTY, 4))
        assert p.read_bytes() == b"\n\n"

    def test_nineteen_digit_indices_round_trip(self, tmp_path):
        # 1-based heads 10^18, 10^18 + 1 and 2^63 - 1, of 19 digits: the byte
        # path reads them back bit for bit; a head of 2^63 is an error
        indices = np.array([10**18 - 1, 10**18, 2**63 - 2])
        original = Corpus(np.array([0, 2, 3]), indices, np.array([0.1, -2.5e-300, 7.0]), 2**63 - 1)
        p = tmp_path / "c.txt"
        save_sparse_text(p, original)
        assert p.read_bytes().startswith(b"1000000000000000000:")
        indptr, got, values, skipped = vectors._parse_chunks(p, None)
        assert (indptr.tolist(), skipped) == ([0, 2, 3], 0)
        assert got.tobytes() == indices.tobytes() and values.tobytes() == original.values.tobytes()
        loaded = load_sparse_text(p)
        assert loaded.indices.tobytes() == indices.tobytes() and loaded.dim == 2**63 - 1
        p.write_bytes(b"1:1\n9223372036854775808:1\n")
        with pytest.raises(SparseTextError, match="^line 2: index 9223372036854775808 is beyond "
                                                  "the int64 range$"):
            load_sparse_text(p)


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


_SEPARATORS = [" ", "  ", "\t", " \t ", "\x0c", "\x1c"]
_LINE_ENDS = ["\n", "\n", "\n", "\r\n"]
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # up to 17 digits
    st.floats(min_value=-1e3, max_value=1e3).map(lambda x: f"{x:.3g}"),
    st.sampled_from(["0", "0.0", "-0.0", "1e0", "+2", "5", "1e-320", "1e300", "1e309", "abc"]))
_BAD_TOKENS = ["1:2:3", ":5", "5:", "1.0:2", "1e0:2", "34", "3:abc", "::", ":", "00:1",
               "9223372036854775808:1", "99999999999999999999:1"]
# spellings that str.split, int and float read but the grammar refuses, each
# after the separator it comes with
_REFUSED = [" 1:1_0.5", " 1:nan", " 1:inf", " 1:-inf", " 1:\u0661\u0662", " +5:1", " 5_0:1",
            " -3:1", " 0000000000000000000001:1", "\xa01:1", "\x851:1", "\u20031:1",
            "\u30001:1", "\r1:1", " x\x85y"]


@st.composite
def _sparse_files(draw, refused=False):
    """Text files of labels and pairs, some of them bad, with a dim and, if
    refused, the index of a line given a spelling (_REFUSED) that only the
    token-by-token parse reads."""
    lines = []  # each line's tokens, each after its separator
    for _ in range(draw(st.integers(int(refused), 8))):
        kind = draw(st.sampled_from(["pairs"] * 6 + ["blank", "label", "bad"]))
        tokens = []
        if kind == "label" or draw(st.booleans()) and kind != "blank":
            tokens.append(draw(st.sampled_from(["1", "-1", "lab", "\xe9t\xe9", "\u6807"])))
        if kind in ("pairs", "bad"):
            indices = sorted(draw(st.sets(st.integers(1, 40), max_size=12)))
            if draw(st.integers(0, 4)) == 0:
                indices.append(draw(st.integers(10**18, 2**63 - 1)))  # a 19-digit head
            if draw(st.integers(0, 9)) == 0 and indices:  # out of order
                indices.reverse()
            width = draw(st.sampled_from([0, 0, 3, 19]))  # heads like 007
            tokens += [f"{i:0{width}d}:{draw(_VALUES)}" for i in indices]
            for _ in range(draw(st.integers(1, 2)) if kind == "bad" else 0):
                tokens.insert(draw(st.integers(0, len(tokens))),
                              draw(st.sampled_from(_BAD_TOKENS)))
        lines.append([draw(st.sampled_from(_SEPARATORS)) + tok for tok in tokens])
    fault = None
    if refused:
        fault = draw(st.integers(0, len(lines) - 1))
        lines[fault].insert(draw(st.integers(0, len(lines[fault]))),
                            draw(st.sampled_from(_REFUSED)))
    text = ["".join(tokens) + draw(st.sampled_from(_LINE_ENDS)) for tokens in lines]
    if text and draw(st.booleans()):
        text[-1] = text[-1].rstrip("\r\n")  # no final newline
    return "".join(text), draw(st.one_of(st.none(), st.integers(1, 45))), fault


_ASCII_SEPARATORS = [" ", "  ", "\t", " \t ", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f"]
_EXPONENTS = st.one_of(  # of up to 5 digits, none that overflows a mantissa of 25 digits
    st.tuples(st.sampled_from(["e-", "E-"]), st.integers(0, 99999)),
    st.tuples(st.sampled_from(["e", "E", "e+"]), st.integers(0, 280))).map(
        lambda t: t[0] + str(t[1]).zfill(5 if t[1] % 3 == 0 else 1))
_ASCII_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=-1e3, max_value=1e3).map(lambda x: f"{x:.3g}"),
    st.sampled_from(["0", "-0.0", "1E+05", "5.", ".5", "+0.5", "-.5e-3", "1e-320", "4.9e-324",
                     "2.5e-00300", "1e+00005", "7e-99999"]),
    # mantissas of up to 25 digits with a point anywhere or none
    st.tuples(st.sampled_from(["", "-", "+"]), st.text("0123456789", min_size=1, max_size=25),
              st.integers(0, 25), st.one_of(st.just(""), _EXPONENTS)).map(
        lambda t: t[0] + (t[1][:t[2]] + "." + t[1][t[2]:] if t[2] < len(t[1]) else t[1]) + t[3]))


@st.composite
def _ascii_files(draw):
    """Files in the byte parser's grammar.  One in four holds a fault that a
    check must catch: out of order indices, a value that overflows, a
    19-digit head beyond a declared dim, or one of 2^63 or more."""
    fault = draw(st.sampled_from([None] * 9 + ["order", "overflow", "head", "int64"]))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        tokens = [draw(st.sampled_from(["+1", "lab"]))] if draw(st.booleans()) else []
        indices = sorted(draw(st.sets(st.integers(1, 40), max_size=12)))
        if draw(st.integers(0, 4)) == 0:
            indices.append(draw(st.integers(10**17, 2**63 - 1)))  # an 18- or 19-digit head
        if fault == "int64" and draw(st.booleans()):
            indices.append(draw(st.integers(2**63, 10**19 - 1)))
        width = draw(st.sampled_from([0, 0, 3, 19]))  # heads like 007
        values = [draw(_ASCII_VALUES) for _ in indices]
        if fault == "order" and len(indices) > 1:
            indices.reverse()
        if fault == "overflow" and values:
            values[-1] = draw(st.sampled_from(["1e309", "-2e+99999", "123456789e300"]))
        tokens += [f"{i:0{width}d}:{x}" for i, x in zip(indices, values)]
        seps = [draw(st.sampled_from(_ASCII_SEPARATORS)) for _ in tokens]
        lines.append("".join(sep + tok for sep, tok in zip(seps, tokens))
                     + draw(st.sampled_from(["", " "])) + draw(st.sampled_from(["\n", "\r\n"])))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")  # no final newline
    dim = draw(st.integers(1, 45)) if fault == "head" else draw(st.sampled_from([None, 2**63]))
    return "".join(lines), dim


def _raw_outcome(parse, path, dim):
    """The raw CSR arrays of a parse as bytes, or the error it raised."""
    try:
        indptr, indices, values, skipped = parse(path, dim)
    except SparseTextError as exc:
        return ("error", str(exc), exc.line_no)
    return (np.asarray(indptr, np.int64).tobytes(), indices.dtype, indices.tobytes(),
            values.dtype, values.tobytes(), skipped)


# hand-picked files whose spellings the grammar refuses: the line and message
# of the error each must raise (the token-by-token parse reads them)
_REFUSED_FILES = {
    "+5:1 6:2\n": (1, "non-numeric pair '+5:1'"),
    "5_0:1\n": (1, "non-numeric pair '5_0:1'"),
    "1:nan\n": (1, "non-numeric pair '1:nan'"),
    "1:inf\n": (1, "non-numeric pair '1:inf'"),
    "1:1_0.5 2:-0.0 3:0.12345678901234567\n": (1, "non-numeric pair '1:1_0.5'"),
    "1:1\x0c2:2\n3:3\x853:4\r\n": (2, "non-numeric pair '3:3\\x853:4'"),
    "lab\xa0el 1:1\n": (1, "whitespace '\\xa0' is not a separator"),
    "1:1\n\u0661:1\n": (2, "non-numeric pair '\u0661:1'"),
    "1:1\r2:2\n": (1, "whitespace '\\r' is not a separator"),
    "1:1\n\r": (2, "whitespace '\\r' is not a separator"),
    "0000000000000000000001:1\n": (1, "index 0000000000000000000001 has more than 19 digits"),
}


def _expected(text, path, dim):
    """The outcome a hand-picked file must have: its error if it is in
    _REFUSED_FILES, else the reference loader's."""
    if text in _REFUSED_FILES:
        line, message = _REFUSED_FILES[text]
        return ("error", SparseTextError, f"line {line}: {message}", line)
    return _outcome(reference_load, path, dim)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # rows of 1e300
class TestChunkedLoader:
    """The byte parser against the token-by-token reference."""

    @given(_sparse_files())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_reference_loop(self, tmp_path, case):
        # files of the grammar (of pairs or not) load as the reference does
        text, dim, _ = case
        p = tmp_path / "c.txt"
        p.write_bytes(text.encode("utf-8"))
        assert _outcome(load_sparse_text, p, dim) == _outcome(reference_load, p, dim)

    @given(_sparse_files(refused=True))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_refused_spellings_raise(self, tmp_path, case):
        # a spelling outside the grammar is a fault on its line, if no fault
        # comes before it
        text, dim, fault = case
        p = tmp_path / "c.txt"
        p.write_bytes(text.encode("utf-8"))
        with pytest.raises(SparseTextError) as err:
            load_sparse_text(p, dim)
        assert err.value.line_no <= fault + 1

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
        ("\xe9t\xe9 1:1\n", None), ("lab\xa0el 1:1\n", None), ("1:1\nlab 1:1 2:\xe9\n", None),
        ("1:1\n\u0661:1\n", None), ("0000000000000000000001:1\n", None),
        ("00000000000000000000000:1\n", None), ("1:1 1000000000000000000000000:1\n", None),
        ("1:1 x 2::3\n", None),  # as many colons as tokens, the first fault no pair
    ])
    def test_hand_picked_files(self, tmp_path, text, dim):
        p = tmp_path / "c.txt"
        p.write_bytes(text.encode("utf-8"))
        assert _outcome(load_sparse_text, p, dim) == _expected(text, p, dim)

    @given(_ascii_files())
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_ascii_files_take_the_byte_path(self, tmp_path, case):
        # the byte parser's raw arrays, or its error, are the reference's
        text, dim = case
        p = tmp_path / "c.txt"
        p.write_bytes(text.encode("ascii"))
        assert (_raw_outcome(vectors._parse_chunks, p, dim)
                == _raw_outcome(reference_parse, p, dim))

    @pytest.mark.parametrize("text, ok", [
        ("1:1\r2:2\n", False),  # a lone carriage return
        ("1:1\n\r", False), ("1:1 2:2\r\n3:0.5\r\n", True), ("lab 1:1\r\n\r\n", True),
        ("1:1 lab\n", False), ("+1\x1f007:5.\x1c2e1:.5\n", False),
        ("\x1f+1\x1f007:5.\x1c20:.5\n", True), ("1:1e\n", False), ("1:e5\n", False),
        ("1:.\n", False), ("1:1.5.2\n", False), ("1:1-2\n", False), ("1:--1\n", False),
        ("123456789012345678:1\n", True), ("1234567890123456789:1\n", True),
        ("1:123456789012345678901234567890 2:0.000000000000000000001234567890123\n", True),
        ("1:1e-320 2:1e-400 3:4.9e-324\n", True), ("1:1e309\n", False),
        ("1:1\x00 2:2\n", False), ("\x00lab 1:1\n", True),
    ])
    def test_hand_picked_ascii_files(self, tmp_path, text, ok):
        # ok: the file is in the grammar (its rows may still not normalize)
        p = tmp_path / "c.txt"
        p.write_bytes(text.encode("ascii"))
        got = _outcome(load_sparse_text, p, None)
        assert (got[:2] != ("error", SparseTextError)) == ok
        assert got == _expected(text, p, None)

    def test_line_longer_than_a_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(vectors, "_CHUNK_CHARS", 64)
        long = " ".join(f"{i}:{i / 7!r}" for i in range(1, 60))
        p = tmp_path / "c.txt"
        p.write_bytes(f"1:1\n{long}\n\n2:3 4:5\n{long}".encode("ascii"))
        assert (_raw_outcome(vectors._parse_chunks, p, None)
                == _raw_outcome(reference_parse, p, None))
        assert _outcome(load_sparse_text, p, None) == _outcome(reference_load, p, None)

    def test_csr_arrays_skip_empty_lines(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("3:0.6 4:0.8\n\n9 1:2\n")
        corpus = load_sparse_text(p)
        assert corpus.indptr.tolist() == [0, 2, 3] and len(corpus) == 2
        assert corpus.indices.tolist() == [2, 3, 0]
        assert corpus.values.tolist() == [0.6, 0.8, 1.0]

    def test_peak_memory_does_not_grow_with_the_file(self, tmp_path, monkeypatch):
        # dense files of 250 and 500 rows of 512 pairs, parsed in chunks of
        # 2^16 characters: the peak beyond the output arrays stays under one
        # fixed allowance, also where the last line breaks index order and
        # the parse fails there.  Parsing all tokens at once would need ~15
        # MB more at 250 rows.  (tracemalloc slows the parse ~20x, which
        # keeps the files small.)
        monkeypatch.setattr(vectors, "_CHUNK_CHARS", 1 << 16)
        allowance = 3 * 2**20
        rng_ = np.random.default_rng(3)
        for n_rows, last in [(250, ""), (500, ""), (250, "1:1 1:2\n"), (500, "1:1 1:2\n")]:
            p = tmp_path / f"dense{n_rows}.txt"
            block = np.round(rng_.uniform(0.1, 1.0, (n_rows, 512)), 3)
            text = "".join(" ".join(f"{j}:{x}" for j, x in enumerate(row, 1)) + "\n"
                           for row in block.tolist()) + last
            p.write_text(text)
            tracemalloc.start()
            try:
                corpus = load_sparse_text(p)
            except SparseTextError as exc:
                corpus = exc
            finally:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
            out = 16 * text.count(":") + 8 * (text.count("\n") + 2)  # arrays sized to the file
            if last:
                assert str(corpus) == (
                    f"line {n_rows + 1}: index 1 not strictly increasing (after 1)")
            else:
                assert corpus.indices.size == 512 * n_rows
            assert peak - out < allowance, (n_rows, last, peak - out)


_FUZZ_BYTES = st.one_of(  # any bytes, or those the grammar turns on
    st.binary(max_size=120),
    st.lists(st.sampled_from([*b"0123456789:.eE+- \t\r\n\x1cx\x00\x85\xa0\xc2\xd9\xff"]),
             max_size=120).map(bytes))


@st.composite
def _mutated_files(draw):
    """A file of _ascii_files with one byte inserted, deleted or replaced."""
    text, dim = draw(_ascii_files())
    data = bytearray(text.encode("ascii"))
    at = draw(st.integers(0, len(data)))
    byte = draw(st.one_of(st.sampled_from(b"0123456789:.eE+- \r\n"), st.integers(0, 255)))
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    if edit == "insert":
        data.insert(at, byte)
    elif at < len(data):
        data[at:at + 1] = b"" if edit == "delete" else bytes([byte])
    return bytes(data), dim


class TestFuzz:
    """load_sparse_text on untrusted bytes returns a Corpus or raises
    SparseTextError or DomainError (_outcome lets any other error through),
    with the same outcome in chunks of any size."""

    def check(self, path, dim, monkeypatch, chunk):
        whole = _outcome(load_sparse_text, path, dim)
        with monkeypatch.context() as patch:
            patch.setattr(vectors, "_CHUNK_CHARS", chunk)
            assert _outcome(load_sparse_text, path, dim) == whole

    @given(_FUZZ_BYTES, st.sampled_from([None, 3]), st.sampled_from([1, 5, 32]))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_arbitrary_bytes(self, tmp_path, monkeypatch, data, dim, chunk):
        p = tmp_path / "c.txt"
        p.write_bytes(data)
        self.check(p, dim, monkeypatch, chunk)

    @given(_mutated_files(), st.sampled_from([1, 5, 32]))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_one_byte_edits_of_valid_files(self, tmp_path, monkeypatch, case, chunk):
        data, dim = case
        p = tmp_path / "c.txt"
        p.write_bytes(data)
        self.check(p, dim, monkeypatch, chunk)


def _kernel_inputs():
    """Mantissas w and exponents q of decimals w * 10^q: the digits of repr
    of doubles from every binade; mantissas of 1-19 digits with exponents in
    [-350, 310]; binary midpoints of doubles cut to 19 digits, and the
    decimals either side; exact decimal ties and their neighbours; powers of
    ten; integers near 2^53 and just below 2^54..2^64; decimals around the
    least normal double."""
    rng = np.random.default_rng(2024)
    u64 = np.uint64
    doubles = rng.integers(1, 0x7FF0000000000000, 60_000, dtype=u64).view(np.float64)
    reprs = [(m.replace(".", ""), int(e or 0) - len(m.partition(".")[2]))
             for m, _, e in (repr(x).partition("e") for x in doubles.tolist())]
    digits = rng.integers(1, 20, 520_000)
    w = [np.array([int(d) for d, _ in reprs], dtype=u64),
         rng.integers(10 ** (digits - 1).astype(u64), 10 ** digits.astype(u64), dtype=u64)]
    q = [np.array([e for _, e in reprs]), rng.integers(-350, 311, digits.size)]
    cut = []
    for m, e in zip(rng.integers(2**52, 2**53, 40_000).tolist(),
                    rng.integers(-1021, 972, 40_000).tolist()):
        num, den = 2 * m + 1 << max(e - 1, 0), 1 << max(1 - e, 0)  # (2m + 1) 2^(e - 1)
        k = math.floor(math.log10(2 * m + 1) + (e - 1) * math.log10(2)) - 18
        scaled = num * 10 ** max(-k, 0) // (den * 10 ** max(k, 0))
        if scaled >= 10**19:
            scaled, k = scaled // 10, k + 1
        cut += [(scaled - 1, k), (scaled, k), (scaled + 1, k)]
    w.append(np.array([n for n, _ in cut], dtype=u64))
    q.append(np.array([k for _, k in cut]))
    # ties, odd 54-bit numbers times powers of two: odd * 5^-t * 10^t for
    # t < 0, and r * 10^t for t >= 0 with r * 5^t odd and of 54 bits
    t = rng.integers(-4, 24, 100_000)
    five = 5 ** np.abs(t).astype(u64)
    odd = rng.integers(2**53, 2**54, t.size, dtype=u64) | u64(1)
    r = odd // five | u64(1)
    tie = np.where(t < 0, odd * five, r)
    ok = np.where(t < 0, odd < u64(2**64 - 1) // five, (r * five >> u64(53)) == 1)
    tie, t = tie[ok], t[ok]
    w += [tie - u64(1), tie, tie + u64(1)]
    q += [t, t, t]
    powers = np.arange(-360, 361)
    least_normal = 2225073858507201383  # 2^-1022 = 2.225073858507201383...e-308
    below = np.array([2**n - j for n in range(54, 65) for j in range(1, 601)], dtype=u64)
    w += [np.ones(powers.size, u64), np.full(powers.size, 10**18, u64),
          (2**53 + np.arange(-3000, 3000)).astype(u64), below,
          (least_normal + np.arange(-3000, 3000)).astype(u64)]
    q += [powers, powers, np.repeat(np.arange(-3, 3), 1000), rng.integers(-30, 30, below.size),
          np.full(6000, -326)]
    return np.concatenate(w), np.concatenate(q)


class TestDecimalKernel:
    def test_matches_float_bit_for_bit(self):
        w, q = _kernel_inputs()
        assert w.size >= 10**6
        bits, decided = vectors._eisel_lemire(w, q)
        want = np.array(list(map(float, [f"{a}e{b}" for a, b in zip(w.tolist(), q.tolist())])))
        assert np.array_equal(bits[decided], want.view(np.uint64)[decided])
        # left to float(): subnormal (or rounded up to the least normal),
        # overflowing, or beyond the table
        beyond = (q < vectors._Q_MIN) | (q > vectors._Q_MAX)
        assert ((np.abs(want) <= 2.0**-1022) | np.isinf(want) | beyond)[~decided].all()
        assert decided.mean() > 0.9


def _reprs(x):
    """The formatter's bytes of float64 x, each followed by a newline."""
    return vectors.text_rows(x, b"\n").tobytes()


def _assert_reprs(x):
    got, want = _reprs(x), "".join(f"{v!r}\n" for v in x.tolist()).encode()
    if got != want:
        bad = [(w, g) for w, g in zip(want.split(), got.split()) if w != g]
        raise AssertionError(f"{len(bad)} of {x.size} differ from repr, e.g. {bad[:5]}")


def _formatter_inputs():
    """Doubles from every binade (subnormals and the non-finite included) with
    both signs; exact powers of two and their neighbours, where the rounding
    interval is asymmetric; the nearest doubles to decimals of 1-17 digits;
    integers near 10^15, 10^16, 10^17 and 2^53; both sides of the switches to
    exponent notation at 1e-4 and 1e16; zeros, extremes, inf and nan; and
    random bit patterns."""
    rng = np.random.default_rng(2026)
    u64 = np.uint64
    exponents = np.repeat(np.arange(2048, dtype=u64), 100)
    binades = exponents << u64(52) | rng.integers(0, 2**52, exponents.size, dtype=u64)
    binades |= rng.integers(0, 2, exponents.size, dtype=u64) << u64(63)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    powers = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    digits = rng.integers(1, 18, 260_000)
    mantissa = rng.integers(10 ** (digits - 1), 10**digits).astype(np.float64)  # exact
    scale = 10.0 ** rng.integers(0, 23, digits.size)  # exact; one rounding per value
    decimals = np.where(rng.random(digits.size) < 0.5, mantissa / scale, mantissa * scale)
    near = np.array([10**15, 10**16, 10**17, 2**53], dtype=np.float64)
    integers = (near[:, None] + np.arange(-3000, 3000)).ravel()  # rounded where they must be
    switches = np.array([1e-4, 1e-5, 1e16, 1e15, 1e17])
    steps = np.arange(-500, 501)
    around = (switches.view(u64)[:, None].astype(np.int64) + steps).ravel().view(np.float64)
    special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, sys.float_info.max,
                        -sys.float_info.max, sys.float_info.min, 5e-324, 9.999999999999999e-05,
                        1e-4, 0.0001000000000000001, 9999999999999998.0, 1e16, 1.0, -1.0])
    random_bits = rng.integers(0, 2**64, 230_000, dtype=u64, endpoint=False)
    x = np.concatenate([binades.view(np.float64), powers, -powers, decimals, -decimals,
                        integers, around, -around, special, random_bits.view(np.float64)])
    return x


def _residues_in(a, m, n_lo, n_hi, r_lo, r_hi):
    """Every n in [n_lo, n_hi] with n a mod m in [r_lo, r_hi], for coprime
    a, m > 0: the points of the lattice {(n H, (n a - t m) W)} in a box made
    square by the scales H and W, found along the lines of a Lagrange-reduced
    basis, exactly with Python integers."""
    if r_lo > r_hi:
        return []
    width, height, base = n_hi - n_lo + 1, r_hi - r_lo + 1, n_lo * a % m
    u, v = (height, a * width), (0, m * width)
    while True:  # Lagrange reduction
        if u[0] ** 2 + u[1] ** 2 > v[0] ** 2 + v[1] ** 2:
            u, v = v, u
        uu = u[0] ** 2 + u[1] ** 2
        step = (2 * (u[0] * v[0] + u[1] * v[1]) + uu) // (2 * uu)
        if not step:
            break
        v = (v[0] - step * u[0], v[1] - step * u[1])
    det = u[0] * v[1] - u[1] * v[0]
    box = ((0, width * height - 1), ((r_lo - base) * width, (r_hi + 1 - base) * width - 1))
    ys = [Fraction(u[0] * y1 - u[1] * x0, det) for x0 in box[0] for y1 in box[1]]
    found = []
    for y in range(math.floor(min(ys)), math.ceil(max(ys)) + 1):
        lo, hi = -math.inf, math.inf
        for axis, (b_lo, b_hi) in enumerate(box):
            if u[axis] == 0:
                lo, hi = (lo, hi) if b_lo <= y * v[axis] <= b_hi else (1, 0)
                continue
            ends = sorted((Fraction(b_lo - y * v[axis], u[axis]),
                           Fraction(b_hi - y * v[axis], u[axis])))
            lo, hi = max(lo, math.ceil(ends[0])), min(hi, math.floor(ends[1]))
        assert hi - lo < 1000  # a handful at most, or the sticky test below fails anyway
        for x in range(lo, hi + 1):
            n0, r = x * u[0] + y * v[0], x * u[1] + y * v[1]
            if n0 % height == 0 and r % width == 0:
                found.append(n_lo + n0 // height)
    return sorted(set(found))


class TestReprFormatter:
    def test_matches_repr_byte_for_byte(self):
        x = _formatter_inputs()
        assert x.size >= 10**6
        _assert_reprs(x)

    @given(st.lists(st.floats(), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_float(self, values):
        _assert_reprs(np.array(values, dtype=np.float64))

    def test_sticky_word_decides_every_double(self):
        # _shortest sets the lowest bit of its top words where the middle
        # word is not zero.  Its products are n 2^h g, n in {4c - 2, 4c, 4c +
        # 2} (and 4c - 1 at a nearer lower neighbour), and g rounded up puts
        # them at most 2^59 above the exact n 2^h 10^-k 2^(127 - floor(log2
        # 10^-k)).  That misreads only an exact product whose remainder below
        # the top word lies in (0, 2^64) or (2^128 - 2^59, 2^128), and then
        # only where its top word is even.  For every binary exponent, the
        # multipliers with such a remainder are found by lattice reduction.
        misread, near = [], 0
        for q in range(-1074, 972):
            for closer in (False, True):
                if closer and q == -1074:
                    continue  # the least binade has no nearer lower neighbour
                k = (q * 1262611 - 524031 * closer) >> 22
                h = q + (-k * 1741647 >> 19) + 1
                twos = -k + h - 1 - (-k * 1741647 >> 19)  # 4 v 10^-k = n 10^-k 2^twos
                a = 5 ** max(-k, 0) * 2 ** max(twos, 0)
                m = 5 ** max(k, 0) * 2 ** max(-twos, 0)
                zones = ((1, (m - 1) >> 64), (m - ((m - 1) >> 69), m - 1))
                if closer:  # c = 2^52 only
                    ns = [n for n in (2**54 - 1, 2**54, 2**54 + 2)
                          if any(lo <= n * a % m <= hi for lo, hi in zones)]
                else:
                    ns = [n for lo, hi in zones
                          for n in _residues_in(a, m, 2**54 - 2, 2**55 - 2, lo, hi)
                          if n % 4 != 1 and n % 4 != 3]
                near += len(ns)
                misread += [(q, n) for n in ns if n * a // m % 2 == 0]
        assert misread == [] and near == 1  # 4 c for c = 8887055249355788, q = 664


    def test_decimal_exponent_of_every_binade(self):
        # k = floor(log10 2^q), or floor(log10 3/4 2^q), by integer arithmetic
        for q in range(-1074, 972):
            for shift, num, den in ((0, 1, 1), (524031, 3, 4)):
                k = (q * 1262611 - shift) >> 22
                lhs, rhs = num * 2 ** max(q, 0), den * 2 ** max(-q, 0)  # 3/4 2^q = lhs/rhs
                assert 10 ** max(k, 0) * rhs <= lhs * 10 ** max(-k, 0)
                assert lhs * 10 ** max(-k - 1, 0) < 10 ** max(k + 1, 0) * rhs, q

    def test_powers_of_ten_equal_one_power_per_row(self):
        table = vectors._powers_of_ten()
        assert table.shape == (2, vectors._Q_MAX - vectors._Q_MIN + 1)
        assert np.array_equal(table, powers_of_ten(vectors._Q_MIN, vectors._Q_MAX))

    def test_power_table(self):
        ks = np.arange(-324, 293)  # the k of every positive normal double
        hi, lo = vectors._repr_mantissas(ks)
        for k, g_hi, g_lo in zip(ks.tolist(), hi.tolist(), lo.tolist()):
            g = g_hi << 64 | g_lo
            assert 2**127 <= g < 2**128
            # g - 1 < 10^-k 2^(127 - floor(log2 10^-k)) <= g, where floor(log2 10^-k) is
            # the exponent the kernel computes
            e2 = 127 - (-k * 1741647 >> 19)
            num, den = 10 ** max(-k, 0) * 2 ** max(e2, 0), 10 ** max(k, 0) * 2 ** max(-e2, 0)
            assert (g - 1) * den < num <= g * den, k

    @pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 16, 17, 19, 24])
    def test_int_chars(self, width):
        top = min(10**width, 2**63)
        ends = np.arange(min(top, 1000))
        x = np.unique(np.concatenate([ends, top - 1 - ends,
                                      np.random.default_rng(width).integers(0, top, 2000)]))
        chars, keep = np.empty((x.size, width), np.uint8), np.empty((x.size, width), bool)
        vectors._write_ints(x, chars, keep)
        assert [bytes(c[k]).decode() for c, k in zip(chars, keep)] == [str(v) for v in x.tolist()]


def _csv_rows(rows) -> bytes:
    """csv.writer's bytes of rows of Python values."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue().encode()


class TestTextRows:
    """text_rows against csv.writer's rows of the same values."""

    def test_each_column_kind(self):
        ints = np.array([0, 7, 10, 99, 12345, 10**19 - 1, 2**64 - 1], dtype=np.uint64)
        floats = np.array([0.1 + 0.2, -0.0, 5e-324, -2.2250738585072014e-308, math.inf,
                           -math.inf, math.nan, 1e16, 1e-05, 123.0])
        picks = np.array([2, 0, 1, 1, 0, 2, 2])
        texts = [b"ab", b"c", b"long text"]
        got = vectors.text_rows(ints, b",", floats[:7], b",", (texts, picks), b"\n")
        assert got.dtype == np.uint8
        assert got.tobytes() == _csv_rows(
            [i, x, texts[p].decode()] for i, x, p in zip(ints.tolist(), floats.tolist(),
                                                       picks.tolist()))
        assert vectors.text_rows(floats[7:], b"\n").tobytes() == b"1e+16\n1e-05\n123.0\n"

    def test_integers_of_every_width_and_zero(self):
        ints = np.array([0, *(10**np.arange(19, dtype=np.uint64) - 1), 10**19 - 1], np.uint64)
        assert vectors.text_rows(ints, b"\n").tobytes() == _csv_rows(
            [v] for v in ints.tolist())
        assert vectors.text_rows(np.zeros(3, np.int64), b"\n").tobytes() == b"0\n0\n0\n"

    def test_every_repr_layout(self):
        # exponent notation of 1-3 exponent digits, fixed notation at both
        # switches, 1-17 digits, both signs, subnormals, zeros, inf and nan
        x = np.array([1e-05, 1e-100, 1.5e300, 9.999999999999999e-05, 0.0001, 1e15, 1e16,
                      123456789012345.67, 0.30000000000000004, 5e-324, 2.5e-310, 0.0,
                      math.inf, math.nan, 1.0, 2.0**-1022])
        x = np.concatenate([x, -x])
        assert vectors.text_rows(x, b"\n").tobytes() == _csv_rows([v] for v in x.tolist())

    def test_broadcast_column_by_row(self):
        # the rows of estimate: a query per row of (m, 1), a train index per column of (n,)
        gen = np.random.default_rng(3)
        m, n = 4, 13
        rho, flag = gen.standard_normal((m, n)), gen.random((m, n)) < 0.3
        got = vectors.text_rows(np.arange(95, 95 + m)[:, None], b",", np.arange(n), b",s,", rho,
                                ([b",False\n", b",True\n"], flag))
        assert got.tobytes() == _csv_rows(
            [95 + q, t, "s", rho[q, t].item(), bool(flag[q, t])]
            for q in range(m) for t in range(n))
        # a float column spread over rows, and an index picking one text for all
        got = vectors.text_rows(np.arange(3)[:, None], b":", np.array([0.5, -2.0]),
                                ([b"x", b";"], np.intp(1)))
        assert got.tobytes() == b"0:0.5;0:-2.0;1:0.5;1:-2.0;2:0.5;2:-2.0;"

    @pytest.mark.parametrize("shape", [(0,), (0, 4), (3, 0)])
    def test_zero_rows(self, shape):
        m, n = shape if len(shape) == 2 else (0, None)
        columns = [np.arange(m)[:, None] if n is not None else np.arange(0), b",",
                   np.zeros(shape), ([b"a", b"bb"], np.zeros(shape, dtype=np.intp))]
        got = vectors.text_rows(*columns)
        assert got.dtype == np.uint8 and got.size == 0

    def test_one_row_of_constants(self):
        assert vectors.text_rows(b"a,", b"", b"b\n").tobytes() == b"a,b\n"

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 5, 6])
    def test_save_with_empty_rows_around_blocks(self, tmp_path, monkeypatch, block):
        # blocks of 4 pairs: empty rows start the corpus and the second block,
        # come two in a row in the middle of the first and after the end of
        # the second block, and end the corpus; the other sizes cut them elsewhere
        monkeypatch.setattr(vectors, "_WRITE_PAIRS", block)
        sizes = np.array([0, 0, 1, 0, 0, 2, 1, 0, 3, 1, 0, 0, 2, 0, 0])
        indptr = np.concatenate(([0], np.cumsum(sizes)))
        indices = np.concatenate([np.arange(n) * 7 for n in sizes]).astype(np.int64)
        values = -np.arange(1, indices.size + 1) / 3
        p = tmp_path / "c.txt"
        save_sparse_text(p, Corpus(indptr, indices, values, 20))
        assert p.read_bytes() == "".join(" ".join(f"{i + 1}:{x!r}" for i, x in zip(
            indices[lo:hi].tolist(), values[lo:hi].tolist())) + "\n"
            for lo, hi in zip(indptr[:-1], indptr[1:])).encode()
