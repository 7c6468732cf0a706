"""Seeded Gaussian random projection and 1-bit quantization.

The projection matrix is never stored: entry (i, j) is regenerated on demand
from (seed, i, j) via the counter-based generator, so projecting a sparse
vector touches only its support rows and any batch of work reproduces
bit-identically regardless of order or parallelism.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConfigError, DomainError, ShapeError, SketchFormatError
from .vectors import Corpus

_MAGIC = b"SFRP"
_VERSION = 2  # Box–Muller normals; version 1 drew them by the inverse normal CDF
KIND_SIGN = 0x00
KIND_FULL = 0x01

# unions with more table entries than this are drawn per vector
_ROW_CACHE_LIMIT = 50_000_000


@dataclass(frozen=True)
class ProjectionConfig:
    """Number of projections k and the 64-bit seed of the implicit matrix."""

    k: int
    seed: int

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        object.__setattr__(self, "seed", int(rng.seed_word(self.seed)))


def sum_product(a: np.ndarray, b: np.ndarray):
    """sum(a*b) along the last axis via elementwise multiply + pairwise sum:
    a float for vectors, an array of row sums for matrices.

    Deliberately not BLAS dot: the same reduction runs on every row, so a
    row's sum does not depend on the rows stacked with it.
    """
    out = np.multiply(a, b).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class SignStore:
    """n sign sketches of one length k, as one (n, ceil(k/8)) uint8 array.

    Bit j of row i lives at bit (j mod 8) of byte j // 8 and is 1 iff the
    projected value was >= 0.  Pad bits of the final column are zero.
    """

    bits: np.ndarray
    k: int

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        if self.k < 0 or bits.ndim != 2 or bits.shape[1] != (self.k + 7) // 8:
            raise ShapeError(
                f"expected {(self.k + 7) // 8} packed bytes per row for k={self.k}")
        pad = self.k % 8
        if pad and bits.size and np.any(bits[:, -1] >> pad):
            raise SketchFormatError("nonzero pad bits in final byte")
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return self.bits.shape[0]


@dataclass(frozen=True, eq=False)
class FullStore:
    """n full sketches of one length k: an (n, k) float64 array and their
    sums of squares.  A stored sum that differs from the recomputed one by
    more than a relative 1e-9 is rejected."""

    values: np.ndarray
    sumsq: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "sumsq", np.asarray(self.sumsq, dtype=np.float64))
        if self.values.ndim != 2 or self.sumsq.shape != self.values.shape[:1]:
            raise ShapeError("expected (n, k) values and n sums of squares")
        recomputed = sum_product(self.values, self.values)
        for i in np.flatnonzero(recomputed != self.sumsq):
            stored, actual = float(self.sumsq[i]), float(recomputed[i])
            if not math.isclose(stored, actual, rel_tol=1e-9, abs_tol=1e-300):
                raise SketchFormatError(
                    f"stored sumsq {stored!r} inconsistent with values ({actual!r})")

    @property
    def k(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.values.shape[0]


def union_rows(corpora: Sequence[Corpus], seed: int, k: int, *, threads: int = 1):
    """([each corpus's positions of its indices in the sorted union of all
    their supports], the rows of R at that union, k normals each, drawn on
    up to `threads` workers), with None for the rows when they would exceed
    the row cache.  Where the dim is at most 2^16, a table of which indices
    any support holds gives the union and, by its running count, every
    position without a sort; above that, one argsort of all the indices
    does (np.unique hashes first, and a searchsorted per corpus is slower)."""
    every = np.concatenate([c.indices for c in corpora])
    dim = max(c.dim for c in corpora)
    if dim <= 1 << 16:
        held = np.zeros(dim, dtype=bool)
        held[every] = True
        union, positions = np.flatnonzero(held), (np.cumsum(held) - 1)[every]
    else:
        order = np.argsort(every)
        ranked = every[order]
        new = np.diff(ranked, prepend=-1) != 0
        union = ranked[new]
        positions = np.empty(every.size, dtype=np.intp)
        positions[order] = np.cumsum(new) - 1
    cached = union.size * k <= _ROW_CACHE_LIMIT
    return (np.split(positions, np.cumsum([c.indices.size for c in corpora])[:-1]),
            rng.normal_grid(seed, union, k, threads=threads) if cached else None)


def project_corpus(corpus: Corpus, cfg: ProjectionConfig, *, threads: int = 1,
                   shared_rows: tuple[np.ndarray, np.ndarray] | None = None) -> FullStore:
    """Project every row of a corpus onto k seeded Gaussian directions,
    value_j = sum_i u_i R[i, j], as one vector-matrix product per row of its
    values and its rows of R; an empty corpus gives a store of shape
    (0, cfg.k).  The rows of the union of supports are drawn once, on up to
    `threads` workers, when they fit the row cache.  Rows whose supports are
    one run of the union share one stacked product over that slice of them
    (the same vector-matrix product per row); any other row gathers its own.

    `shared_rows`, when given, is (pos, table) in place of union_rows's
    result for this corpus alone: table[pos[j]] is the row of R at
    corpus.indices[j], cfg.k normals drawn from cfg.seed, in a C-contiguous
    table sorted by index.  So union_rows of several corpora, its table
    cut to each k's first columns, serves them all from one draw
    (bench.benchmark_grid)."""
    n, k, indptr, size = len(corpus), cfg.k, corpus.indptr, np.diff(corpus.indptr)
    if np.any(size == 0):
        raise DomainError("cannot project an empty vector")
    out = np.empty((n, k))
    if shared_rows is None:
        (pos,), table = union_rows([corpus], cfg.seed, k, threads=threads)
    else:
        pos, table = shared_rows
        if table.shape[1:] != (k,) or pos.shape != corpus.indices.shape:
            raise ShapeError(f"need a position per index and table rows of k = {k} normals")
    cached = table is not None
    start = pos[indptr[:-1]]
    run = (pos[indptr[1:] - 1] - start == size - 1) & cached
    for i in np.flatnonzero(~run):
        lo, hi = indptr[i], indptr[i + 1]
        rows = (table[pos[lo:hi]] if cached else
                rng.normal_grid(cfg.seed, corpus.indices[lo:hi], k, threads=threads))
        out[i] = corpus.values[lo:hi] @ rows
    key = start * (len(pos) + 1) + size  # one per (run start, length)
    shared = np.flatnonzero(run)
    shared = shared[np.argsort(key[shared], kind="stable")]
    for same in np.split(shared, np.flatnonzero(np.diff(key[shared])) + 1) if shared.size else ():
        s, u, first = start[same[0]], size[same[0]], indptr[same[0]]
        values = (corpus.values[first:first + same.size * u].reshape(-1, u)
                  if same[-1] - same[0] == same.size - 1  # consecutive rows: one block
                  else corpus.values[indptr[same, None] + np.arange(u)])
        out[same] = (values[:, None, :] @ table[s:s + u])[:, 0]
    return FullStore(out, sum_product(out, out))


def pack_signs(values: np.ndarray) -> np.ndarray:
    """Pack bit j = 1 iff value_j >= 0 (so sgn(0) maps to +) along the last axis."""
    return np.packbits(values >= 0.0, axis=-1, bitorder="little")


def sign_quantize(store: FullStore) -> SignStore:
    """Keep only the signs of every row of a full store, with one packbits."""
    return SignStore(pack_signs(store.values), store.k)


def sign_array(s: SignStore) -> np.ndarray:
    """The (n, k) signs of a store as float64 +1/-1."""
    unpacked = np.unpackbits(s.bits, axis=-1, count=s.k, bitorder="little")
    return unpacked.astype(np.float64) * 2.0 - 1.0


def save_sketches(path, store: SignStore | FullStore) -> None:
    """Serialize a sign or full store.

    Layout: magic ``SFRP``, version byte (2), kind byte (0x00 sign / 0x01 full),
    uint32-LE k, uint64-LE count, then the payload: packed sign bytes per
    sketch, or all k-vectors as float64-LE followed by the sumsq values.
    """
    sign = isinstance(store, SignStore)
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<BBIQ", _VERSION, KIND_SIGN if sign else KIND_FULL,
                                      store.k, len(store)))
        for part in [store.bits] if sign else [store.values, store.sumsq]:
            fh.write(part.astype(part.dtype.newbyteorder("<")).tobytes())


def load_sketches(path) -> SignStore | FullStore:
    """Read a sketch file back; the round trip is bit-exact.

    The header is untrusted: count is checked against the payload size, in
    Python integers, before anything is allocated.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 18 or blob[:4] != _MAGIC:
        raise SketchFormatError("bad magic or truncated header")
    version, kind, k, count = struct.unpack("<BBIQ", blob[4:18])
    if version == 1:  # its signs would be scored against differently drawn queries
        raise SketchFormatError("store drawn with the version 1 normal transform; sketch it again")
    if version != _VERSION:
        raise SketchFormatError(f"unsupported version {version}")
    if k == 0 and count > 0:
        raise SketchFormatError(f"k = 0 with {count} sketches")
    payload = len(blob) - 18
    if kind == KIND_SIGN:
        stride = (k + 7) // 8
        if payload != stride * count:
            raise SketchFormatError("payload length does not match header")
        bits = np.frombuffer(blob, dtype=np.uint8, offset=18)
        return SignStore(bits.reshape(count, stride), k)
    if kind == KIND_FULL:
        if payload != 8 * (k + 1) * count:
            raise SketchFormatError("payload length does not match header")
        values = np.frombuffer(blob, dtype="<f8", count=count * k, offset=18)
        sumsq = np.frombuffer(blob, dtype="<f8", count=count, offset=18 + 8 * count * k)
        return FullStore(values.reshape(count, k), sumsq)
    raise SketchFormatError(f"unknown sketch kind {kind:#x}")
