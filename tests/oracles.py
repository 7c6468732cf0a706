"""Per-vector reference definitions that the tests check the batch cores against.

The library projects, quantizes and scores whole stores at once.  These are
the one-vector forms: a projection as one vector-matrix product, sign
agreement by unpacked bits, exact cosine by a sparse dot product, one pair
of the bivariate counter stream, and the score of one stored row against one
query through one-row stores.  The parity contract of the batch cores is
that a one-row batch equals the same row of a larger batch, bit for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from rpsketch import (DataVector, FullStore, ProjectionConfig, SignStore, estimate_batch,
                      sign_quantize)
from rpsketch import rng
from rpsketch.errors import DomainError, ShapeError
from rpsketch.estimators import SIGN_STORE_ESTIMATORS, Estimator
from rpsketch.projection import sum_product


def gaussian_entry(seed: int, row: int, col: int) -> float:
    """Standard-normal entry (row, col) of the implicit projection matrix."""
    return float(rng.normals(seed, row, col))


def project(u: DataVector, cfg: ProjectionConfig) -> np.ndarray:
    """The k values sum_i u_i R[i, j] of one vector, from its own rows of R."""
    if u.nnz == 0:
        raise DomainError("cannot project an empty vector")
    return u.values @ rng.normal_grid(cfg.seed, u.indices, cfg.k)


def full_store(*rows) -> FullStore:
    """A FullStore of equal-length value rows, with their sums of squares."""
    values = np.array(rows, dtype=np.float64)
    return FullStore(values, sum_product(values, values))


def sign_store(*rows) -> SignStore:
    """The signs of equal-length value rows."""
    return sign_quantize(full_store(*rows))


def one_row(store: SignStore | FullStore, i: int) -> SignStore | FullStore:
    """Row i of a store as a one-row store of the same kind."""
    if isinstance(store, SignStore):
        return SignStore(store.bits[i:i + 1], store.k)
    return FullStore(store.values[i:i + 1], store.sumsq[i:i + 1])


def matching_bits(a: SignStore, b: SignStore) -> int:
    """Number of positions where two one-row sign stores agree."""
    if a.k != b.k:
        raise ShapeError(f"sketch length mismatch: {a.k} vs {b.k}")
    return a.k - int(np.unpackbits(np.bitwise_xor(a.bits, b.bits)).sum())


class Score(NamedTuple):
    raw: float
    rho_hat: float
    clamped: bool


def score_one(estimator: Estimator, stored, query) -> Score:
    """Score one stored row against one query through one-row stores.

    ``stored`` is a one-row store, or sketch values, which are quantized when
    the estimator scores a sign store; ``query`` is the query's values."""
    if not isinstance(stored, (SignStore, FullStore)):
        stored = (sign_store if estimator in SIGN_STORE_ESTIMATORS else full_store)(stored)
    assert len(stored) == 1
    res = estimate_batch(stored, full_store(query), estimator)
    return Score(float(res.raw[0, 0]), float(res.rho_hat[0, 0]), bool(res.clamped[0, 0]))


def _norm(u: DataVector) -> float:
    return math.sqrt(float(np.dot(u.values, u.values)))


def normalize(u: DataVector) -> DataVector:
    """Scale to unit L2 norm; the direction is preserved."""
    n = _norm(u)
    if n == 0.0:
        raise DomainError("cannot normalize a zero vector")
    return DataVector(u.indices, u.values / n, u.dim)


def cosine(u: DataVector, v: DataVector) -> float:
    """Exact cosine similarity <u,v>/(|u||v|) by a sparse dot product."""
    nu, nv = _norm(u), _norm(v)
    if nu == 0.0 or nv == 0.0:
        raise DomainError("cosine undefined for zero vectors")
    if u.dim != v.dim:
        raise ShapeError(f"dim mismatch: {u.dim} vs {v.dim}")
    _, iu, iv = np.intersect1d(u.indices, v.indices, assume_unique=True, return_indices=True)
    dot = float(np.dot(u.values[iu], v.values[iv])) if iu.size else 0.0
    return dot / (nu * nv)


def sample_pair(rho: float, seed: int, trial: int, j: int) -> tuple[float, float]:
    """Pair j of trial `trial`, from minor counters 2j and 2j+1 as in rng.bivariate_block."""
    x, z = rng.normals(seed, trial, [2 * j, 2 * j + 1])
    return float(x), float(np.sqrt((1.0 - rho) * (1.0 + rho)) * z + rho * x)
