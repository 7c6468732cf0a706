"""A CSR corpus of unit rows, and sparse text I/O.

A corpus keeps all of its rows in three CSR arrays, each row's support as
sorted (index, value) pairs, because the target corpora are extremely
sparse and projection iterates over the support in index order.  Text files
use the common line-per-vector convention: an optional leading label token
followed by whitespace-separated ``index:value`` pairs with 1-based indices.
In memory everything is 0-based.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SparseTextError

log = logging.getLogger(__name__)

_CHUNK_CHARS = 1 << 18  # text is parsed in chunks of whole lines of about this size
_NOT_SEP = bytes(b for b in range(256) if b not in b": ")  # deleted by translate


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
    """_parse_lines in C-level passes over chunks of whole lines, into arrays
    sized by the file's ':' and newline counts; None where a check fails.  A
    chunk's tokens, less labels and joined by spaces, are pairs with nonempty
    heads and tails iff the separators alternate ': : ... :' and no ':'
    touches a space or an end."""
    with open(path, "r", encoding="utf-8") as fh:
        n_pairs = n_lines = 0
        for block in iter(lambda: fh.read(_CHUNK_CHARS), ""):
            n_pairs, n_lines = n_pairs + block.count(":"), n_lines + block.count("\n")
        fh.seek(0)
        indices, values = np.empty(n_pairs, dtype=np.int64), np.empty(n_pairs)
        line_nnz, line, nnz = np.zeros(n_lines + 1, dtype=np.int64), 0, 0
        while lines := fh.readlines(_CHUNK_CHARS):
            counts, tokens = [], []
            for toks in map(str.split, lines):
                if toks and ":" not in toks[0]:
                    del toks[0]  # leading label
                counts.append(len(toks))
                tokens += toks
            n, body = len(tokens), " ".join(tokens)
            del lines, tokens
            if (body.encode().translate(None, _NOT_SEP) != (b": " * n)[:-1] or " :" in body
                    or ": " in body or body.startswith(":") or body.endswith(":")):
                return None
            pieces = body.replace(":", " ").split()
            idx, val = np.array(pieces[0::2], np.int64), np.array(pieces[1::2], np.float64)
            del body, pieces
            ends, keep = np.cumsum(counts), val != 0.0
            rise = np.diff(idx) > 0
            rise[ends[(ends > 0) & (ends < n)] - 1] = True  # across a line break
            if (np.any(idx < 1) or not np.isfinite(val).all() or not rise.all()
                    or dim is not None and np.any(idx[keep] > dim)):
                return None
            kept = np.concatenate(([0], np.cumsum(keep)))
            line_nnz[line:line + len(counts)] = kept[ends] - kept[ends - counts]
            indices[nnz:nnz + kept[-1]], values[nnz:nnz + kept[-1]] = idx[keep] - 1, val[keep]
            line, nnz = line + len(counts), nnz + kept[-1]
    rows = line_nnz[:line][line_nnz[:line] > 0]
    return np.concatenate(([0], np.cumsum(rows))), indices[:nnz], values[:nnz], line - rows.size


def load_sparse_text(path, dim: int | None = None) -> Corpus:
    """Load a sparse text corpus; every vector is unit-normalized.

    Labels are discarded and 1-based file indices become 0-based.  The
    dimensionality is the largest index seen unless ``dim`` overrides it.
    Lines with an empty support are skipped and counted in ``Corpus.skipped``.
    A file that fails a check of the chunked parse is parsed again token by
    token, which raises the error of its first bad line.
    """
    try:
        parsed = _parse_chunks(path, dim)
    except (ValueError, OverflowError):  # a conversion or the decoding failed
        parsed = None
    indptr, indices, values, skipped = parsed or _parse_lines(path, dim)
    if dim is None:
        dim = int(indices.max()) + 1 if indices.size else 0
    if skipped:
        log.warning("skipped %d empty vector line(s) in %s", skipped, path)
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
    """Write a corpus in the 1-based sparse text format (no labels)."""
    indptr = corpus.indptr.tolist()
    indices, values = (corpus.indices + 1).tolist(), corpus.values.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for lo, hi in zip(indptr[:-1], indptr[1:]):
            fh.write(" ".join(f"{i}:{x!r}" for i, x in
                              zip(indices[lo:hi], values[lo:hi])) + "\n")
