"""Seeded Gaussian random projection and 1-bit quantization.

The projection matrix is never stored: entry (i, j) is regenerated on demand
from (seed, i, j) via the counter-based generator, so projecting a sparse
vector touches only its support rows and any batch of work reproduces
bit-identically regardless of order or parallelism.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng
from .errors import ConfigError, DomainError, ShapeError, SketchFormatError
from .vectors import Corpus, DataVector

_MAGIC = b"SFRP"
_VERSION = 1
KIND_SIGN = 0x00
KIND_FULL = 0x01

_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint16)

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
        object.__setattr__(self, "seed", int(self.seed) & rng.MASK64)


def sum_product(a: np.ndarray, b: np.ndarray):
    """sum(a*b) along the last axis via elementwise multiply + pairwise sum:
    a float for vectors, an array of row sums for matrices.

    Deliberately not BLAS dot: the same reduction runs on every row, so
    scalar and vectorized paths stay bitwise-identical.
    """
    out = np.multiply(a, b).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class FullSketch:
    """k projected coordinates plus their cached sum of squares."""

    values: np.ndarray
    sumsq: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ShapeError("sketch values must be 1-D")
        recomputed = sum_product(values, values)
        if self.sumsq is None:
            object.__setattr__(self, "sumsq", recomputed)
        elif not math.isclose(self.sumsq, recomputed, rel_tol=1e-9, abs_tol=1e-300):
            raise SketchFormatError(
                f"stored sumsq {self.sumsq!r} inconsistent with values ({recomputed!r})")
        object.__setattr__(self, "values", values)

    @property
    def k(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class SignSketch:
    """k projection signs, bit-packed little-endian within bytes.

    Bit j lives at bit (j mod 8) of byte j // 8 and is 1 iff the projected
    value was >= 0.  Pad bits of the final byte are zero.
    """

    bits: np.ndarray
    k: int

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        if self.k < 0 or bits.ndim != 1 or bits.size != (self.k + 7) // 8:
            raise ShapeError(f"expected {(self.k + 7) // 8} packed bytes for k={self.k}")
        pad = self.k % 8
        if pad and bits.size and (int(bits[-1]) & (0xFF << pad)) != 0:
            raise SketchFormatError("nonzero pad bits in final byte")
        object.__setattr__(self, "bits", bits)


@dataclass(frozen=True, eq=False)
class SignStore:
    """n sign sketches of one length k, as one (n, ceil(k/8)) uint8 array.

    Row i is packed like SignSketch.bits; indexing returns that row as a
    SignSketch.  Pad bits of the final column are zero.
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

    def __getitem__(self, i: int) -> SignSketch:
        return SignSketch(self.bits[i], self.k)

    @classmethod
    def stack(cls, rows: Sequence[SignSketch]) -> "SignStore":
        """Stack sketches of one length; an empty sequence gives k = 0."""
        rows = list(rows)
        k = rows[0].k if rows else 0
        for i, sk in enumerate(rows):
            if sk.k != k:
                raise ShapeError(f"sketch {i}: k mismatch ({sk.k} vs {k})")
        if not rows:
            return cls(np.zeros((0, 0), dtype=np.uint8), 0)
        return cls(np.stack([sk.bits for sk in rows]), k)


@dataclass(frozen=True, eq=False)
class FullStore:
    """n full sketches of one length k: an (n, k) float64 array and their
    sums of squares, each checked as FullSketch checks it.  Indexing returns
    row i as a FullSketch."""

    values: np.ndarray
    sumsq: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "sumsq", np.asarray(self.sumsq, dtype=np.float64))
        if self.values.ndim != 2 or self.sumsq.shape != self.values.shape[:1]:
            raise ShapeError("expected (n, k) values and n sums of squares")
        for i in np.flatnonzero(sum_product(self.values, self.values) != self.sumsq):
            FullSketch(self.values[i], float(self.sumsq[i]))  # raises unless close

    @property
    def k(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, i: int) -> FullSketch:
        return FullSketch(self.values[i], float(self.sumsq[i]))

    @classmethod
    def stack(cls, rows: Sequence[FullSketch]) -> "FullStore":
        """Stack sketches of one length; an empty sequence gives k = 0."""
        rows = list(rows)
        if len({s.k for s in rows}) > 1:
            raise ShapeError("all stored sketches must share k")
        if not rows:
            return cls(np.zeros((0, 0)), np.zeros(0))
        return cls(np.stack([s.values for s in rows]), [s.sumsq for s in rows])


def gaussian_entry(seed: int, row: int, col: int) -> float:
    """Standard-normal entry (row, col) of the implicit projection matrix."""
    return float(rng.normals(seed, row, col))


def project(u: DataVector, cfg: ProjectionConfig) -> FullSketch:
    """Project u onto k seeded Gaussian directions: value_j = sum_i u_i R[i,j]."""
    if u.nnz == 0:
        raise DomainError("cannot project an empty vector")
    rows = rng.normal_grid(cfg.seed, u.indices, cfg.k)
    values = u.values @ rows
    return FullSketch(values)


def project_corpus(corpus: Corpus, cfg: ProjectionConfig, *,
                   threads: int = 1) -> FullStore:
    """Project every row of a corpus, bit-identical to project(corpus[i], cfg);
    an empty corpus gives k = 0.  The rows of the union of supports are drawn
    once, on up to `threads` workers, when they fit the row cache, and each
    row reduces over a slice of them where its support is a run of the union."""
    n, k, indptr = len(corpus), cfg.k, corpus.indptr
    if np.any(np.diff(indptr) == 0):
        raise DomainError("cannot project an empty vector")
    out = np.empty((n, k if n else 0))
    union = np.unique(corpus.indices)
    cached = union.size * k <= _ROW_CACHE_LIMIT
    if cached:
        table = rng.normal_grid(cfg.seed, union, k, threads=threads)
        pos = np.searchsorted(union, corpus.indices)
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        if not cached:
            rows = rng.normal_grid(cfg.seed, corpus.indices[lo:hi], k, threads=threads)
        elif pos[hi - 1] - pos[lo] == hi - lo - 1:
            rows = table[pos[lo]:pos[hi - 1] + 1]
        else:
            rows = table[pos[lo:hi]]
        out[i] = corpus.values[lo:hi] @ rows
    return FullStore(out, sum_product(out, out))


def pack_signs(values: np.ndarray) -> np.ndarray:
    """Pack bit j = 1 iff value_j >= 0 (so sgn(0) maps to +) along the last axis."""
    return np.packbits(values >= 0.0, axis=-1, bitorder="little")


def sign_quantize(s: FullSketch) -> SignSketch:
    """Keep only the signs of one sketch."""
    return SignSketch(pack_signs(s.values), s.k)


def quantize_store(store: FullStore) -> SignStore:
    """Keep only the signs of every row of a full store, with one packbits."""
    return SignStore(pack_signs(store.values), store.k)


def sign_array(s: SignSketch | SignStore) -> np.ndarray:
    """Signs as float64 +1/-1: length k, or (n, k) for a store."""
    unpacked = np.unpackbits(s.bits, axis=-1, count=s.k, bitorder="little")
    return unpacked.astype(np.float64) * 2.0 - 1.0


def popcount(arr: np.ndarray) -> np.ndarray:
    """Per-byte set-bit counts via a 256-entry table."""
    return _POPCOUNT[arr]


def matching_bits(a: SignSketch, b: SignSketch) -> int:
    """Number of positions where the two sketches agree."""
    if a.k != b.k:
        raise ShapeError(f"sketch length mismatch: {a.k} vs {b.k}")
    differing = int(_POPCOUNT[np.bitwise_xor(a.bits, b.bits)].sum())
    return a.k - differing


def save_sketches(path, store: SignStore | FullStore) -> None:
    """Serialize a sign or full store.

    Layout: magic ``SFRP``, version byte, kind byte (0x00 sign / 0x01 full),
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
