"""A CSR corpus of unit rows, and sparse text I/O.

A corpus keeps all of its rows in three CSR arrays, each row's support as
sorted (index, value) pairs, because the target corpora are extremely
sparse and projection iterates over the support in index order.  Text files
use the common line-per-vector convention: an optional leading label token
followed by whitespace-separated ``index:value`` pairs with 1-based indices.
In memory everything is 0-based.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SparseTextError

_CHUNK_CHARS = 1 << 18  # text is parsed in chunks of whole lines of about this many bytes
_PAD = b" " * 24  # around a chunk: separators, and room to read 24 bytes before an offset
# mark kinds of the byte parser; the separators come first, so kind < _COLON
# tests for one.  Digits are no marks; they share _OTHER for lookups.
_NL, _BLANK, _CR, _COLON, _SIGN, _DOT, _EXP, _OTHER, _BAD = range(9)
_KIND = np.full(256, _BAD, dtype=np.uint8)  # non-ASCII
_KIND[:128] = _OTHER
_KIND[[*b" \t\v\f\x1c\x1d\x1e\x1f"]] = _BLANK
_KIND[[*b"\n\r:+-.eE"]] = _NL, _CR, _COLON, _SIGN, _SIGN, _DOT, _EXP, _EXP
_LAST_DIGITS = np.array([0x0F0F0F0F0F0F0F0F >> 8 * (8 - n) << 8 * (8 - n) for n in range(9)],
                        dtype=np.uint64)  # low nibbles of a word's top n bytes
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_Q_MIN, _Q_MAX = -348, 347  # powers of ten in the table of the parser and the formatter
_FORMAT_CHUNK = 1 << 13  # values per pass of the repr formatter
_WRITE_PAIRS = 1 << 16  # pairs per block of save_sparse_text
# the formatter's template row and its column groups (see _write_reprs)
_REPR_TEMPLATE = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 16 + b"e+000", np.uint8)
_T_DIGITS, _T_POINT, _T_AFTER, _T_EXP = 6, 23, 24, 40
_FREE = np.r_[_T_DIGITS:_T_POINT, _T_AFTER:_T_EXP]  # digit columns, for repr's own bytes
_ZEROS = 0x3030303030303030  # b"0" * 8 as a word


@dataclass(frozen=True, eq=False)
class Corpus:
    """Unit-normalized sparse rows of one dimensionality in CSR form: row i
    holds the 0-based, strictly increasing indices[indptr[i]:indptr[i + 1]]
    and their values."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    dim: int
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.indptr) - 1


def _parse_lines(path, dim: int | None):
    """The reference parse, token by token: CSR arrays of the nonempty rows
    and the skipped-line count, or the typed error of the first bad line."""
    indptr, indices, values, skipped = [0], [], [], 0
    # undecodable bytes become lone surrogates, which strict UTF-8 never
    # yields, so each line can be checked with the numbering of good lines
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise SparseTextError(line_no, "not UTF-8 text") from None
            tokens = line.split()
            if tokens and ":" not in tokens[0]:
                tokens = tokens[1:]  # leading label, discarded
            prev = 0
            for tok in tokens:
                head, sep, tail = tok.partition(":")
                if not sep or not head or not tail:
                    raise SparseTextError(line_no, f"malformed pair {tok!r}")
                try:
                    i, x = int(head), float(tail)
                except ValueError:
                    raise SparseTextError(line_no, f"non-numeric pair {tok!r}") from None
                if i < 1:
                    raise SparseTextError(line_no, f"index {i} is not 1-based positive")
                if i >= 1 << 63:
                    raise SparseTextError(line_no, f"index {i} is beyond the int64 range")
                if i <= prev:
                    raise SparseTextError(
                        line_no, f"index {i} not strictly increasing (after {prev})")
                if not math.isfinite(x):
                    raise SparseTextError(line_no, f"non-finite value in {tok!r}")
                prev = i
                if x != 0.0:
                    indices.append(i - 1)
                    values.append(x)
            if len(indices) == indptr[-1]:
                skipped += 1
            elif dim is not None and indices[-1] >= dim:
                raise SparseTextError(
                    line_no, f"index {indices[-1] + 1} exceeds declared dim {dim}")
            else:
                indptr.append(len(indices))
    return np.array(indptr), np.array(indices, dtype=np.int64), np.array(values), skipped


def _parse_chunks(path, dim: int | None):
    """_parse_lines on the file's bytes, in chunks of whole lines, into arrays
    sized by the file's ':' and newline counts; None where the fast grammar
    (_chunk_pairs) or a check fails."""
    with open(path, "rb") as fh:
        n_pairs = n_lines = 0
        for block in iter(lambda: fh.read(_CHUNK_CHARS), b""):
            b = np.frombuffer(block, np.uint8)
            n_pairs += np.count_nonzero(b == ord(":"))
            n_lines += np.count_nonzero(b == ord("\n"))
        fh.seek(0)
        indices, values = np.empty(n_pairs, dtype=np.int64), np.empty(n_pairs)
        line_nnz, line, nnz = np.zeros(n_lines + 1, dtype=np.int64), 0, 0
        while lines := fh.readlines(_CHUNK_CHARS):
            pairs = _chunk_pairs(b"".join(lines))
            if pairs is None:
                return None
            idx, val, line_of, n = pairs
            rise = np.diff(idx) > 0
            rise |= np.diff(line_of) > 0  # across a line break
            keep = val != 0.0
            if (idx.min(initial=1) < 1 or not np.isfinite(val).all() or not rise.all()
                    or dim is not None and idx[keep].max(initial=0) > dim):
                return None
            kept = np.count_nonzero(keep)
            line_nnz[line:line + n] = np.bincount(line_of[keep], minlength=n)
            indices[nnz:nnz + kept], values[nnz:nnz + kept] = idx[keep] - 1, val[keep]
            line, nnz = line + n, nnz + kept
    rows = line_nnz[:line][line_nnz[:line] > 0]
    return np.concatenate(([0], np.cumsum(rows))), indices[:nnz], values[:nnz], line - rows.size


def _chunk_pairs(data: bytes):
    """Indices, values and line numbers (from 0) of the pairs in whole lines,
    and their line count; None unless the bytes are ASCII, a '\\r' comes only
    before a '\\n', and each line is an optional colon-free label and pairs of
    a head of 1-18 digits and a tail [+-]?(D+(.D*)?|.D+)([eE][+-]?D+)?.

    Every byte but a digit is a mark.  A pair is a colon with a separator
    mark before its head and after it marks of the kinds sign, dot,
    exponent, sign in that order, each optional, then a separator."""
    raw = b"".join((_PAD, data, _PAD))
    b = np.frombuffer(raw, np.uint8)
    at = np.flatnonzero(b - np.uint8(48) > 9)
    kind = _KIND.take(b.take(at))
    if kind.max() == _BAD or (b.take(at[kind == _CR] + 1) != ord("\n")).any():
        return None
    sep = kind < _COLON
    ci = np.flatnonzero(kind == _COLON)
    colon = at[ci]
    head = colon - at[ci - 1] - 1
    ok = sep[ci - 1] & (head >= 1) & (head <= 18)
    j = ci + 1
    sign = (kind[j] == _SIGN) & (at[j] == colon + 1)
    j += sign
    dot = kind[j] == _DOT
    point = at[j]
    j += dot
    exp = kind[j] == _EXP
    man_end = at[j]
    point = np.where(dot, point, man_end)
    j += exp
    exp_sign = exp & (kind[j] == _SIGN) & (at[j] == man_end + 1)
    j += exp_sign
    end = at[j]
    n_int, n_frac = point - colon - 1 - sign, man_end - point - dot
    n_exp = end - man_end - 1 - exp_sign
    ok &= sep[j] & (n_int + n_frac > 0) & (~exp | (n_exp > 0))
    if not ok.all():
        return None
    starts = sep[:-1] & ~(sep[1:] & (np.diff(at) == 1))  # a token after the separator
    if np.count_nonzero(starts) != ci.size:  # labels: each must begin its line
        token = np.flatnonzero(starts)
        token_line = np.cumsum(kind == _NL)[token]
        if not (np.isin(token[1:], ci - 1) | (token_line[1:] != token_line[:-1])).all():
            return None
    newlines = at[kind == _NL]
    n_lines = newlines.size + (data[-1:] != b"\n")
    line = np.searchsorted(newlines, colon)

    words = np.ndarray((b.size - 7,), dtype="<u8", buffer=raw, strides=(1,))
    idx, _ = _digits(words, colon, head)
    int_part, exact = _digits(words, point, n_int)
    frac_part, frac_exact = _digits(words, man_end, n_frac)
    f19 = np.minimum(n_frac, 19)
    mantissa = int_part * _POW10.take(f19) + frac_part
    exact &= frac_exact & ((int_part == 0) | (n_frac <= 19) & (int_part < _POW10.take(19 - f19)))
    q = -n_frac
    e = np.flatnonzero(exp)
    if e.size:
        power, power_exact = _digits(words, end[e], n_exp[e])
        power = np.minimum(power, 1 << 20).astype(np.int64)  # beyond the table either way
        q[e] += np.where(b.take(man_end[e] + 1) == ord("-"), -power, power)
        exact[e] &= power_exact
    bits, decided = _eisel_lemire(mantissa, q)
    bits |= (sign & (b.take(colon + 1) == ord("-"))).astype(np.uint64) << np.uint64(63)
    val = bits.view(np.float64)
    for i in np.flatnonzero(~(decided & exact)).tolist():
        val[i] = float(raw[colon[i] + 1:end[i]])
    return idx.astype(np.int64), val, line, n_lines


def _eight(words, n):
    """Values of the last n <= 8 digits of little-endian 8-byte words, whose
    top n bytes hold them (SWAR: pairs, then quads, then the eight)."""
    w = words & _LAST_DIGITS.take(n)
    w = (w * 2561) >> 8 & 0x00FF00FF00FF00FF
    w = (w * 6553601) >> 16 & 0x0000FFFF0000FFFF
    return (w * 42949672960001) >> 32


def _digits(words, end, n):
    """Values of the n-digit runs that end at byte offsets ``end``, read as up
    to three 8-byte words, and whether each is exact: at most 24 digits, with
    a value under 10^19 (at most 19 significant digits)."""
    value = _eight(words[end - 8], np.minimum(n, 8))
    exact = n <= 24
    if n.max(initial=0) > 8:
        value += _eight(words[end - 16], np.clip(n - 8, 0, 8)) * 10**8
        if n.max() > 16:
            top = _eight(words[end - 24], np.clip(n - 16, 0, 8))
            exact &= top < 1000
            value += top * 10**16
    return value, exact


@functools.cache
def _powers_of_ten():
    """High and low words of the 128-bit mantissas of 10^q, q in [_Q_MIN,
    _Q_MAX], for the parser and _repr_mantissas: 5^q scaled into [2^127, 2^128),
    truncated for q >= 0 and rounded up for q < 0 (so that a decimal halfway case
    computes at its midpoint or just above it), exactly from Python integers:
    one running power 5^e serves the rows of q = e and q = -e."""
    rows = [0] * (_Q_MAX - _Q_MIN + 1)
    power = 1  # 5^e
    for e in range(max(_Q_MAX, -_Q_MIN) + 1):
        bits = power.bit_length()
        if e <= _Q_MAX:
            rows[e - _Q_MIN] = power >> max(bits - 128, 0) << max(128 - bits, 0)
        if 0 < e <= -_Q_MIN:
            rows[-e - _Q_MIN] = -(-(1 << (127 + bits)) // power)
        power *= 5
    return np.array([(m >> 64, m & (1 << 64) - 1) for m in rows], dtype=np.uint64).T.copy()


def _eisel_lemire(w, q):
    """Bits of the doubles nearest w * 10^q, for uint64 w and int64 q, and
    which of them are decided: all but subnormal or overflowing results and q
    outside [_Q_MIN, _Q_MAX], which float() must convert.

    Eisel-Lemire as in fast_float (D. Lemire, "Number Parsing at a Gigabyte
    per Second", Softw. Pract. Exp. 51(8), 2021): the top 128 bits of w
    times the mantissa of 10^q, from one 64x128-bit product or, where a
    carry could still reach the rounding bits, two, are within a unit of
    the exact product (exact for q in [0, 27]).  A decimal halfway case (q
    in [-4, 23]) computes to its midpoint and rounds to even; no other
    mantissa comes that close to one (N. Mushtak and D. Lemire, "Fast
    Number Parsing Without Fallback", 2023)."""
    hi_table, lo_table = _powers_of_ten()
    decided = (q >= _Q_MIN) & (q <= _Q_MAX)
    q = np.where(decided, q, 0)
    nonzero = w != 0
    bit_length = np.frexp(np.maximum(w, 1).astype(np.float64))[1].astype(np.int64)
    bit_length -= (w >> (bit_length - 1).astype(np.uint64)) == 0  # rounded up to 2^n
    lz = (64 - bit_length).astype(np.uint64)
    w = w << lz
    hi, lo = _mul64(w, hi_table.take(q - _Q_MIN))
    wide = np.flatnonzero(hi & 0x1FF == 0x1FF)
    if wide.size:
        carry_in, _ = _mul64(w[wide], lo_table.take(q[wide] - _Q_MIN))
        low = lo[wide] + carry_in
        hi[wide] += low < carry_in
        lo[wide] = low
    shift = (hi >> np.uint64(63)) + np.uint64(9)  # 54 bits of the product
    mantissa = hi >> shift
    exponent = ((217706 * q) >> 16) + (54 + 1023) + shift.astype(np.int64) - lz.astype(np.int64)
    tie = (lo <= 1) & (q >= -4) & (q <= 23) & (mantissa & 3 == 1) & (mantissa << shift == hi)
    mantissa = (mantissa + (mantissa & 1) * ~tie) >> np.uint64(1)  # a tie rounds to even
    exponent += (mantissa >> np.uint64(53)).astype(np.int64)  # rounded up to 2^53
    decided &= (exponent > 0) & (exponent < 0x7FF) | ~nonzero
    bits = exponent.astype(np.uint64) << np.uint64(52) | mantissa & (1 << 52) - 1
    bits[~nonzero] = 0
    return bits, decided


def _mul64(a, b):
    """High and low words of the 128-bit products of uint64 arrays."""
    a0, a1, b0, b1 = a & 0xFFFFFFFF, a >> 32, b & 0xFFFFFFFF, b >> 32
    cross0, cross1 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (cross0 & 0xFFFFFFFF) + (cross1 & 0xFFFFFFFF)
    return a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32), a * b


def _repr_mantissas(k):
    """High and low words of g = 10^-k * 2^(127 - floor(log2 10^-k)) rounded
    up, in [2^127, 2^128), for int64 k in [-324, 292]: 10^-k in _powers_of_ten,
    plus 1 for -k > 55, where 5^-k needs more than 128 bits and the table
    truncates (and no low word is all ones, so nothing carries)."""
    hi, lo = _powers_of_ten()
    return hi.take(-k - _Q_MIN), lo.take(-k - _Q_MIN) + (k < -55)


def _shortest(frac, exponent):
    """The shortest decimals d * 10^k that round to the positive normal
    doubles of these fraction bits and (int64) biased exponents, and of
    those the nearest, ties to even digits.

    Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020):
    for v = c 2^q take k = floor(log10 2^q), or floor(log10 3/4 2^q) where
    the lower neighbour is nearer, so that 10^k is at most the width of the
    rounding interval of v.  4 v 10^-k and the interval's ends (4 c - 2 or
    4 c - 1 and 4 c + 2, times 2^q 10^-k) are computed with 2 fraction bits,
    rounded to odd, from the top word of a 192-bit product 4 c 2^h g with
    the 128-bit mantissa g of 10^-k, the ends by adding multiples of 2^h g
    to that product.  The lowest bit is set where the middle word is not
    zero: g is at most 1 above 10^-k 2^(127 - floor(log2 10^-k)), so the
    product at most 2^59 above the exact one, and for no double does an
    exact product's remainder below the top word lie in (0, 2^64) or
    (2^128 - 2^59, 2^128) with an even top word (tests/test_vectors.py
    enumerates them).  At most one multiple of 10^(k+1) lies in the
    interval; if none does, the result is the multiple of 10^k in it
    nearest v."""
    q = exponent - 1075
    closer = (frac == 0) & (exponent > 1)
    k = (q * 1262611 - closer * 524031) >> 22
    shift = ((-k * 1741647 >> 19) + q + 3).astype(np.uint64)  # h + 2, h in [1, 4]
    g_hi, g_lo = _repr_mantissas(k)
    cp = (frac | 1 << 52) << shift
    top, mid = _mul64(g_hi, cp)
    x_hi, low = _mul64(g_lo, cp)
    mid += x_hi
    top += mid < x_hi
    vb = top | (mid != 0)
    odd = frac & 1
    shift -= np.uint64(1)  # the ends are 2 2^h g (2^h g at a nearer lower neighbour) away
    upper = _add192(top, mid, low, g_hi, g_lo, shift, 1) - odd
    lower = _add192(top, mid, low, g_hi, g_lo, shift - closer, -1) + odd
    s = vb >> np.uint64(2)
    sp = s // 10
    ten = sp * 40
    wp_in = ten + 40 <= upper
    wide = (lower <= ten) != wp_in
    u_in = lower <= s << np.uint64(2)
    w_in = (s << np.uint64(2)) + 4 <= upper
    mid = (s << np.uint64(2)) + 2
    # one of 4 s and 4 s + 4 lies in the interval, which is at least 4 wide
    s += ~u_in | w_in & ((vb > mid) | (vb == mid) & (s & 1 == 1))
    return np.where(wide, sp + wp_in, s), k + wide


def _add192(top, mid, low, g_hi, g_lo, shift, sign):
    """The top word of (top, mid, low) plus sign * (g_hi, g_lo) << shift,
    shift in [1, 5], with its lowest bit set as _shortest sets it."""
    g2, g0 = g_hi >> 64 - shift, g_lo << shift
    g1 = g_hi << shift | g_lo >> 64 - shift
    if sign > 0:
        low = low + g0
        carry = low < g0
        m = mid + g1
        c = m < g1
        m += carry
        top = top + g2 + (c | (m < carry))
    else:
        borrow = low < g0
        low = low - g0
        m = mid - g1
        c = mid < g1
        c |= m < borrow
        m -= borrow
        top = top - g2 - c
    return top | (m != 0)


def _eight_digits(x):
    """Digits of numbers below 10^8 as the bytes of words, the leading digit
    in the top byte (SWAR, the inverse of _eight): x = 10^4 hi + lo becomes
    hi 2^32 + lo, then each lane the same way by 100 in 16-bit lanes, then
    by 10 in bytes, the quotients by one multiply and shift for all lanes."""
    w = x + x // 10000 * (2**32 - 10000)
    w += (w * 5243 >> 19 & 0x0000007F0000007F) * (2**16 - 100)  # lanes below 10^4
    return w + (w * 103 >> 10 & 0x000F000F000F000F) * (2**8 - 10)  # lanes below 100


def _zero_bytes(words):
    """Trailing zero bytes of nonzero words: the byte of their lowest set
    bit, from the exponent of that power of two, which float64 holds."""
    return ((words & -words).astype(np.float64).view(np.int64) >> 52) - 1023 >> 3


def _word_column(a, col):
    """The 8 bytes from column col of each row of a uint8 matrix, as one
    unaligned big-endian uint64 per row (so the top byte comes first)."""
    return a[:, col:col + 8].view(">u8")[:, 0]


def _write_ints(x, chars, keep):
    """Write the digits of integers x in [0, 10^width) as chars[i][keep[i]]
    into uint8 and bool arrays (or views) of len(x) rows and width columns:
    right aligned, the masks dropping leading zeros (all but the last of 0)."""
    x = np.asarray(x).astype(np.uint64)
    width = chars.shape[1]
    digits = np.searchsorted(_POW10[1:width], x, side="right") + 1
    words = np.empty((x.size, -(-width // 8)), dtype=">u8")
    for j in range(words.shape[1] - 1, -1, -1):  # 8 digits a word, the last first
        words[:, j], x = _eight_digits(x % 10**8) | _ZEROS, x // 10**8
    chars[...] = words.view(np.uint8)[:, 8 * words.shape[1] - width:]
    tails = np.arange(width) >= width - np.arange(width + 1)[:, None]
    np.take(tails, digits, axis=0, out=keep, mode="clip")


@functools.cache
def _repr_layouts():
    """Keep-masks of _REPR_TEMPLATE, one per layout: 17 (E + 4) + n - 1 for
    fixed notation (decimal exponent E in [-4, 15], n significant digits),
    340 + 2 (n - 1) + [|E| >= 100] for exponent notation, and these plus
    374 with the minus sign."""
    masks = np.zeros((748, _REPR_TEMPLATE.size), dtype=bool)
    for layout in range(374):
        keep = masks[layout]
        if layout < 340:
            e, n = layout // 17 - 4, layout % 17 + 1
            if e < 0:  # "0.", -e - 1 zeros, the digits
                keep[1:2 - e] = keep[_T_DIGITS:_T_DIGITS + n] = True
            else:  # e + 1 digits, the point, at least one more digit
                keep[_T_DIGITS:_T_DIGITS + e + 1] = keep[_T_POINT] = True
                keep[_T_AFTER + e:_T_AFTER + max(n - 1, e + 1)] = True
        else:  # a digit, the point and more digits if any, "e", sign, exponent
            n, three = (layout - 340) // 2 + 1, layout % 2
            keep[_T_DIGITS], keep[_T_POINT] = True, n > 1
            keep[_T_AFTER:_T_AFTER + n - 1] = keep[_T_EXP:_T_EXP + 2] = True
            keep[_T_EXP + 3 - three:] = True
    masks[374:] = masks[:374]
    masks[374:, 0] = True
    return masks


@functools.cache
def _exponent_chars():
    """Sign and three digits of each exponent in [-330, 330]."""
    return np.array([[*f"{e:+04d}".encode()] for e in range(-330, 331)], dtype=np.uint8)


def _write_reprs(x, chars, keep):
    """Write repr(x[i]) for float64 x as the bytes chars[i][keep[i]], into
    uint8 and bool arrays (or views) of len(x) rows as wide as _REPR_TEMPLATE,
    whose chars rows hold it; only its digit and exponent columns change.

    Every repr is a subsequence of the template: a minus; "0.000" for fixed
    notation below 1; the 17 digits of the shortest decimal, padded with
    zeros; a point; the 16 digits after the first again; and "e+000".  The
    bytes a value keeps depend only on its layout (_repr_layouts), so its
    mask is a row of a table.  Zeros, subnormals, infinities and nans are
    left to repr, whose bytes go to the digit columns."""
    for lo in range(0, x.size, _FORMAT_CHUNK):  # longer passes cost more per value
        bits = x[lo:lo + _FORMAT_CHUNK].view(np.uint64)
        out, mask = chars[lo:lo + bits.size], keep[lo:lo + bits.size]
        exponent = (bits >> np.uint64(52)).astype(np.int64) & 0x7FF
        decided = (exponent != 0) & (exponent != 0x7FF)
        d, k = _shortest(bits & (1 << 52) - 1, np.where(decided, exponent, 1023))
        n = 15 + (d >= 10**15) + (d >= 10**16)
        e = k + n - 1
        d *= _POW10.take(17 - n)  # 17 digits
        head = d // 10**16
        d -= head * 10**16
        mid = d // 10**8
        mid, low = _eight_digits(mid), _eight_digits(d - mid * 10**8)
        tail = low != 0
        word = np.where(tail, low, mid)
        n = np.where(word == 0, 1, np.where(tail, 17, 9) - _zero_bytes(word))
        mid |= _ZEROS
        low |= _ZEROS
        _word_column(out, _T_DIGITS)[:] = head + ord("0") << 56  # 7 bytes written next
        _word_column(out, _T_DIGITS + 1)[:] = _word_column(out, _T_AFTER)[:] = mid
        _word_column(out, _T_DIGITS + 9)[:] = _word_column(out, _T_AFTER + 8)[:] = low
        fixed = (e >= -4) & (e <= 15)
        layout = np.where(fixed, 17 * e + 67 + n, 338 + 2 * n + (np.abs(e) >= 100))
        layout += 374 * (bits >> np.uint64(63)).astype(np.int64)
        np.take(_repr_layouts(), layout, axis=0, out=mask, mode="clip")
        rows = np.flatnonzero(~fixed & decided)
        if rows.size:
            out[rows, _T_EXP + 1:] = _exponent_chars().take(e[rows] + 330, axis=0)
        for i in np.flatnonzero(~decided).tolist():
            text = np.frombuffer(repr(float(x[lo + i])).encode(), np.uint8)
            out[i, _FREE[:text.size]] = text
            mask[i] = False
            mask[i, _FREE[:text.size]] = True


def text_rows(*columns) -> np.ndarray:
    """The bytes of rows of text, as a uint8 array: in each row one field
    per column, joined as they are.  A column is bytes, the same text in
    every row; an array of integers in [0, 2^64), their digits; a float64
    array, repr's bytes; or a pair (list of bytes, index array), the text
    that each index picks.  The arrays broadcast together, and the rows
    come in C order of their shape.

    The rows are those of one byte matrix, with a mask that keeps each
    row's bytes.  Each distinct value is rendered once and spread over the
    rows; an array of the full shape is rendered in its field."""
    fields = []  # per column: the values or picks, and the field's width
    for col in columns:
        if isinstance(col, bytes):
            col = [col], np.intp(0)
        if isinstance(col, tuple):
            a, width = np.asarray(col[1]), max(map(len, col[0]), default=0)
        else:
            a = np.asarray(col)
            width = (_REPR_TEMPLATE.size if a.dtype == np.float64
                     else len(str(a.max())) if a.size else 1)
        fields.append((col, a, width))
    shape = np.broadcast_shapes(*(a.shape for _, a, _ in fields))
    chars = np.empty((math.prod(shape), sum(width for *_, width in fields)), dtype=np.uint8)
    keep = np.empty(chars.shape, dtype=bool)
    hi = 0
    for col, a, width in fields:
        lo, hi = hi, hi + width
        if isinstance(col, tuple):
            table = np.frombuffer(b"".join(text.ljust(width) for text in col[0]), np.uint8)
            parts = (table.reshape(len(col[0]), width),
                     np.arange(width) < np.array([len(text) for text in col[0]])[:, None])
            parts = [part.take(a, axis=0) for part in parts]
        else:
            in_place = a.size == len(chars)  # the full shape
            parts = (chars[:, lo:hi], keep[:, lo:hi]) if in_place else (
                np.empty((a.size, width), dtype=np.uint8), np.empty((a.size, width), bool))
            if a.dtype == np.float64:
                parts[0][...] = _REPR_TEMPLATE
                _write_reprs(a.ravel(), *parts)
            else:
                _write_ints(a.ravel(), *parts)
            if in_place:
                continue
            parts = [part.reshape(*a.shape, width) for part in parts]
        for whole, part in zip((chars, keep), parts):
            whole.reshape(*shape, whole.shape[1])[..., lo:hi] = part
    return chars[keep]


def load_sparse_text(path, dim: int | None = None) -> Corpus:
    """Load a sparse text corpus; every vector is unit-normalized.

    Labels are discarded and 1-based file indices become 0-based.  The
    dimensionality is the largest index seen unless ``dim`` overrides it.
    Lines with an empty support are skipped and counted in ``Corpus.skipped``.
    A file that fails a check of the chunked parse is parsed again token by
    token, which raises the error of its first bad line.
    """
    indptr, indices, values, skipped = _parse_chunks(path, dim) or _parse_lines(path, dim)
    if dim is None:
        dim = int(indices.max()) + 1 if indices.size else 0
    if skipped:
        import logging  # only here: most runs warn of nothing

        logging.getLogger(__name__).warning("skipped %d empty vector line(s) in %s", skipped, path)
    for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        # in place, with the arithmetic and errors of normalize() in tests/oracles.py
        row = values[lo:hi]
        norm = math.sqrt(float(np.dot(row, row)))
        if norm == 0.0:
            raise DomainError("cannot normalize a zero vector")
        row /= norm
        if not row.all():  # a value underflowed, or the norm overflowed
            raise DomainError("values must be finite and nonzero")
    return Corpus(indptr, indices, values, dim, skipped)


def save_sparse_text(path, corpus: Corpus) -> None:
    """Write a corpus in the 1-based sparse text format (no labels): each
    row's ``index:repr(value)`` pairs joined by spaces, then a newline.

    Pairs are written in blocks of _WRITE_PAIRS by text_rows, each with its
    space or its row's newline; the newline of an empty row goes before the
    pair after it, which starts after the block's separator before it."""
    indptr, nnz = corpus.indptr, corpus.indices.size
    sizes = np.diff(indptr)
    ends = np.zeros(nnz, dtype=bool)  # the last pair of its row
    ends[indptr[1:][sizes > 0] - 1] = True
    empty = indptr[:-1][sizes == 0]  # the pairs that an empty row's newline precedes
    with open(path, "wb") as fh:
        for lo in range(0, nnz, _WRITE_PAIRS):
            hi = min(lo + _WRITE_PAIRS, nnz)
            text = text_rows(corpus.indices[lo:hi] + 1, b":", corpus.values[lo:hi],
                             ([b" ", b"\n"], ends[lo:hi]))
            before = empty[(empty >= lo) & (empty < hi)] - lo
            if before.size:  # no byte of a pair is a space or a newline
                starts = np.flatnonzero(text <= ord(" ")) + 1
                text = np.insert(text, np.concatenate(([0], starts))[before], ord("\n"))
            fh.write(text)
        fh.write(b"\n" * int(np.count_nonzero(empty >= nnz)))
