"""Per-vector reference definitions that the tests check the batch cores against.

The library projects, quantizes and scores whole stores at once.  These are
the one-vector forms: a projection as one vector-matrix product, sign
agreement by unpacked bits, exact cosine by a sparse dot product, one pair
of the bivariate counter stream, the score of one stored row against one
query through one-row stores, and the planted corpus drawn one member at a
time.  The parity contract of the batch cores is that a one-row batch equals
the same row of a larger batch, bit for bit.

A row here is a dense 1-D array (its zeros are not stored), an (indices,
values) pair of 0-based increasing indices and nonzero values, or a
one-row Corpus; ``corpus`` gathers rows into a Corpus and ``rows`` splits
one into (indices, values) pairs.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import NamedTuple

import numpy as np

from rpsketch import (Corpus, FullStore, MleResult, ProjectionConfig, SignStore,
                      estimate_batch, sign_quantize)
from rpsketch import rng
from rpsketch.errors import DomainError, ShapeError
from rpsketch.estimators import SIGN_STORE_ESTIMATORS, Estimator
from rpsketch.projection import sum_product


def _row(u) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Indices, values and dim (None for a pair) of a row."""
    if isinstance(u, Corpus):
        if len(u) != 1:
            raise ShapeError(f"a row is a one-row corpus, not {len(u)} rows")
        return u.indices, u.values, u.dim
    if isinstance(u, tuple):
        indices, values = u
        return np.asarray(indices, dtype=np.int64), np.asarray(values, dtype=np.float64), None
    dense = np.asarray(u, dtype=np.float64)
    indices = np.flatnonzero(dense)
    return indices, dense[indices], dense.size


def corpus(vectors, dim: int) -> Corpus:
    """The rows as the CSR arrays of one Corpus, taken as given (not normalized)."""
    pairs = [_row(u)[:2] for u in vectors]
    return Corpus(np.cumsum([0] + [indices.size for indices, _ in pairs]),
                  np.concatenate([indices for indices, _ in pairs] or [np.zeros(0, np.int64)]),
                  np.concatenate([values for _, values in pairs] or [np.zeros(0)]), dim)


def rows(c: Corpus) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each row of a corpus as (indices, values) views of its arrays."""
    bounds = c.indptr.tolist()
    return [(c.indices[lo:hi], c.values[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def gaussian_entry(seed: int, row: int, col: int) -> float:
    """Standard-normal entry (row, col) of the implicit projection matrix."""
    return float(rng.normals(seed, row, col))


def project(u, cfg: ProjectionConfig) -> np.ndarray:
    """The k values sum_i u_i R[i, j] of one row, from its own rows of R."""
    indices, values, _ = _row(u)
    if indices.size == 0:
        raise DomainError("cannot project an empty vector")
    return values @ rng.normal_grid(cfg.seed, indices, cfg.k)


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


def mle_row(batch, i: int = 0) -> MleResult:
    """Row i of an MleBatch as the MleResult a scalar solve returns."""
    return MleResult(float(batch.rho_hat[i]), bool(batch.at_boundary[i]),
                     int(batch.iterations[i]))


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


def _norm(values: np.ndarray) -> float:
    return math.sqrt(float(np.dot(values, values)))


def normalize(u) -> tuple[np.ndarray, np.ndarray]:
    """A row scaled to unit L2 norm, as (indices, values); the direction is
    preserved, and a value that underflows or overflows is an error."""
    indices, values, _ = _row(u)
    n = _norm(values)
    if n == 0.0:
        raise DomainError("cannot normalize a zero vector")
    values = values / n
    if not (values.all() and np.isfinite(values).all()):
        raise DomainError("values must be finite and nonzero")
    return indices, values


def cosine(u, v) -> float:
    """Exact cosine similarity <u,v>/(|u||v|) of two rows by a sparse dot product."""
    (iu, xu, du), (iv, xv, dv) = _row(u), _row(v)
    nu, nv = _norm(xu), _norm(xv)
    if nu == 0.0 or nv == 0.0:
        raise DomainError("cosine undefined for zero vectors")
    if None not in (du, dv) and du != dv:
        raise ShapeError(f"dim mismatch: {du} vs {dv}")
    _, au, av = np.intersect1d(iu, iv, assume_unique=True, return_indices=True)
    dot = float(np.dot(xu[au], xv[av])) if au.size else 0.0
    return dot / (nu * nv)


def sample_pair(rho: float, seed: int, trial: int, j: int) -> tuple[float, float]:
    """Pair j of trial `trial`, from minor counters 2j and 2j+1 as in rng.bivariate_block."""
    x, z = rng.normals(seed, trial, [2 * j, 2 * j + 1])
    return float(x), float(np.sqrt((1.0 - rho) * (1.0 + rho)) * z + rho * x)


def clustered_corpus(seed: int, dim: int, n_clusters: int, n_train: int, n_queries: int,
                     spread_levels) -> tuple[Corpus, Corpus]:
    """bench.make_clustered_corpus one member at a time: each center and
    member drawn by its own normal_grid call and normalized alone, in the
    order centers, training members, queries.  The sizes and levels are
    taken as valid."""
    ends = list(itertools.accumulate(int(slots) for _, slots in spread_levels))

    def unit(vec: np.ndarray) -> np.ndarray:
        norm = math.sqrt(float(np.dot(vec, vec)))
        if not 0.0 < norm < math.inf:
            raise DomainError(f"cannot normalize a vector of norm {norm}")
        return vec / norm

    centers = [unit(rng.normal_grid(seed, [c], dim)[0]) for c in range(n_clusters)]

    def member(major: int, ordinal: int) -> np.ndarray:
        s2d = spread_levels[bisect.bisect_right(ends, (ordinal // n_clusters) % ends[-1])][0]
        noise = rng.normal_grid(seed, [major], dim)[0]
        return unit(centers[ordinal % n_clusters] + math.sqrt(s2d / dim) * noise)

    train = [member(n_clusters + m, m) for m in range(n_train)]
    queries = [member(n_clusters + n_train + q, q) for q in range(n_queries)]
    return corpus(train, dim), corpus(queries, dim)


def sign_sign_law(rho: float, k: int) -> tuple[list[float], list[float]]:
    """The exact law of the sign-sign estimate cos(pi (1 - m/k)) at finite k:
    its value for each count m = 0..k of matching signs, and the
    Binomial(k, p) probability of that count, p = 1 - acos(rho)/pi."""
    p = 1.0 - math.acos(rho) / math.pi
    return ([math.cos(math.pi * (1.0 - m / k)) for m in range(k + 1)],
            [math.comb(k, m) * p**m * (1.0 - p) ** (k - m) for m in range(k + 1)])


def sign_sign_moments(rho: float, k: int) -> tuple[float, float]:
    """Exact bias and variance of the sign-sign estimate at finite k."""
    values, probs = sign_sign_law(rho, k)
    mean = math.fsum(w * v for v, w in zip(values, probs))
    return mean - rho, math.fsum(w * (v - mean) ** 2 for v, w in zip(values, probs))
