"""Sparse data vectors, exact cosine similarity, and sparse text I/O.

Vectors are stored as sorted (index, value) pairs because the target corpora
are extremely sparse and projection iterates over the support in index order.
Text files use the common line-per-vector convention: an optional leading
label token followed by whitespace-separated ``index:value`` pairs with
1-based indices.  In memory everything is 0-based.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import DomainError, ShapeError, SparseTextError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DataVector:
    """Sparse real vector: strictly increasing indices, no stored zeros."""

    indices: np.ndarray
    values: np.ndarray
    dim: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        if idx.ndim != 1 or val.ndim != 1 or idx.shape != val.shape:
            raise ShapeError("indices and values must be 1-D and equal length")
        if idx.size:
            if idx[0] < 0 or idx[-1] >= self.dim:
                raise ShapeError(f"index out of range for dim={self.dim}")
            if np.any(np.diff(idx) <= 0):
                raise ShapeError("indices must be strictly increasing")
        if np.any(val == 0.0) or not np.all(np.isfinite(val)):
            raise DomainError("values must be finite and nonzero")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @classmethod
    def from_dense(cls, dense, dim: int | None = None) -> "DataVector":
        dense = np.asarray(dense, dtype=np.float64)
        idx = np.nonzero(dense)[0]
        return cls(idx, dense[idx], dim if dim is not None else dense.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def norm(self) -> float:
        return math.sqrt(float(np.dot(self.values, self.values)))

    def dot(self, other: "DataVector") -> float:
        if self.dim != other.dim:
            raise ShapeError(f"dim mismatch: {self.dim} vs {other.dim}")
        _, ia, ib = np.intersect1d(self.indices, other.indices,
                                   assume_unique=True, return_indices=True)
        if ia.size == 0:
            return 0.0
        return float(np.dot(self.values[ia], other.values[ib]))


def normalize(u: DataVector) -> DataVector:
    """Scale to unit L2 norm; the direction is preserved."""
    n = u.norm()
    if n == 0.0:
        raise DomainError("cannot normalize a zero vector")
    return DataVector(u.indices, u.values / n, u.dim)


def cosine(u: DataVector, v: DataVector) -> float:
    """Exact cosine similarity <u,v>/(|u||v|); ground truth for everything."""
    nu, nv = u.norm(), v.norm()
    if nu == 0.0 or nv == 0.0:
        raise DomainError("cosine undefined for zero vectors")
    return u.dot(v) / (nu * nv)


@dataclass(frozen=True)
class Corpus:
    """Unit-normalized vectors sharing a common dimensionality."""

    vectors: tuple[DataVector, ...]
    dim: int
    skipped: int = field(default=0, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(self.vectors))
        for v in self.vectors:
            if v.dim != self.dim:
                raise ShapeError("all corpus vectors must share dim")

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def to_csr(self) -> scipy.sparse.csr_matrix:
        indptr = np.zeros(len(self.vectors) + 1, dtype=np.int64)
        for i, v in enumerate(self.vectors):
            indptr[i + 1] = indptr[i] + v.nnz
        indices = np.concatenate([v.indices for v in self.vectors]) \
            if self.vectors else np.zeros(0, dtype=np.int64)
        data = np.concatenate([v.values for v in self.vectors]) \
            if self.vectors else np.zeros(0)
        return scipy.sparse.csr_matrix((data, indices, indptr),
                                       shape=(len(self.vectors), self.dim))


def _parse_line(line_no: int, tokens: list[str]) -> tuple[list[int], list[float]]:
    if tokens and ":" not in tokens[0]:
        tokens = tokens[1:]  # leading label, discarded
    idx: list[int] = []
    val: list[float] = []
    prev = 0
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


def load_sparse_text(path, dim: int | None = None) -> Corpus:
    """Load a sparse text corpus; every vector is unit-normalized.

    Labels are discarded and 1-based file indices become 0-based.  The
    dimensionality is the largest index seen unless ``dim`` overrides it.
    Lines with an empty support are skipped and counted in ``Corpus.skipped``.
    """
    rows: list[tuple[list[int], list[float]]] = []
    skipped = 0
    max_index = -1
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            tokens = line.split()
            idx, val = _parse_line(line_no, tokens) if tokens else ([], [])
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
    if skipped:
        log.warning("skipped %d empty vector line(s) in %s", skipped, path)
    vectors = [normalize(DataVector(np.array(i, dtype=np.int64),
                                    np.array(v), dim))
               for i, v in rows]
    return Corpus(tuple(vectors), dim, skipped)


def save_sparse_text(path, corpus: Corpus) -> None:
    """Write a corpus in the 1-based sparse text format (no labels)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for v in corpus:
            pairs = " ".join(f"{i + 1}:{x!r}" for i, x in
                             zip(v.indices.tolist(), v.values.tolist()))
            fh.write(pairs + "\n")
