"""Closed-form cosine estimators from sketch pairs.

Three families:

* sign-sign: both sides quantized to bits, similarity recovered from the
  collision probability 1 - acos(rho)/pi;
* full: both sides kept at full precision (plain, normalized);
* sign-full: one side stored as bits, the query side kept at full precision.
  With s_j = sgn(x_j) * y_j, the moment route scales mean(s) by sqrt(pi/2)
  and the mismatch route penalizes 1 by sqrt(2*pi) times the mean positive
  part of -s (a mismatch is query mass on the wrong side of a stored sign).

Every closed form (raw_values) reads a few per-pair statistics, from the
simulation lab's float blocks (SampleStats) or from a packed SignStore
scored through per-query byte tables (StoreStats).  Both add the mismatch
weights in one order, so the lab and store values agree bitwise.

Raw formula values may land outside [-1, 1]; results carry both the raw
value and the clamped one with an explicit flag, because ranking wants
bounded scores while variance analysis wants the untouched statistic.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import mle
from .errors import ContractError, DomainError, ShapeError
from .projection import FullStore, SignStore, pack_signs, popcount, sum_product

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
SQRT_TAU = math.sqrt(2.0 * math.pi)


class Estimator(enum.Enum):
    SIGN_SIGN = "sign-sign"
    FULL = "full"
    FULL_NORM = "full-norm"
    G = "g"
    G_NORM = "g-norm"
    S = "s"
    S_NORM = "s-norm"
    MLE_SIGN_FULL = "mle"
    MLE_FULL = "mle-full"

    @property
    def cli_name(self) -> str:
        return self.value


#: estimators that score a bit-packed SignStore; the others score a FullStore
SIGN_STORE_ESTIMATORS = frozenset({
    Estimator.SIGN_SIGN, Estimator.G, Estimator.G_NORM,
    Estimator.S, Estimator.S_NORM, Estimator.MLE_SIGN_FULL,
})


@dataclass(frozen=True, eq=False)
class BatchEstimate:
    """Scores of queries against a store as (n_query, n_store) arrays;
    len() counts the pairs."""

    estimator: Estimator
    k: int
    raw: np.ndarray
    rho_hat: np.ndarray
    clamped: np.ndarray

    def __len__(self) -> int:
        return int(self.raw.size)


@functools.lru_cache(maxsize=64)
def _cos_table(k: int) -> np.ndarray:
    """cos(pi * (1 - m/k)) for m = 0..k, each entry by the scalar expression."""
    table = np.array([np.cos(np.pi * (1.0 - m / k)) for m in range(k + 1)])
    table.flags.writeable = False
    return table


def raw_values(estimator: Estimator, st: SampleStats | StoreStats) -> np.ndarray:
    """Each closed form, once, over the per-pair statistics of SampleStats or
    StoreStats (the attributes an estimator reads are computed on first use)."""
    k = st.k
    if estimator is Estimator.SIGN_SIGN:
        return _cos_table(k)[st.matches]
    if estimator is Estimator.FULL:
        return st.xy / k
    if estimator is Estimator.FULL_NORM:
        if np.any(st.xx == 0.0) or np.any(st.yy == 0.0):
            raise DomainError("normalized estimator needs nonzero sketches")
        return st.xy / np.sqrt(st.xx * st.yy)
    if estimator in (Estimator.G_NORM, Estimator.S_NORM) and np.any(st.yy == 0.0):
        raise DomainError("normalized estimator needs a nonzero query sketch")
    if estimator is Estimator.G:  # sum_j sgn(x_j) y_j = abs_sum - 2 mis
        return SQRT_HALF_PI * ((st.abs_sum - 2.0 * st.mis) / k)
    if estimator is Estimator.G_NORM:
        return SQRT_HALF_PI * (st.abs_sum - 2.0 * st.mis) / (math.sqrt(k) * np.sqrt(st.yy))
    if estimator is Estimator.S:  # mis >= 0, so only the lower end can clamp
        return 1.0 - SQRT_TAU / k * st.mis
    if estimator is Estimator.S_NORM:
        return 1.0 - SQRT_TAU * st.mis / (math.sqrt(k) * np.sqrt(st.yy))
    raise ContractError(f"estimator {estimator.cli_name!r} has no closed form")


def _mismatch_table(y: np.ndarray) -> np.ndarray:
    """(ceil(k/8), 256) table: entry [p, v] sums |y_j| over the set bits of v
    at byte p, adding them in ascending bit order onto entry 0 = 0.0."""
    weights = np.zeros(8 * ((y.size + 7) // 8))
    weights[:y.size] = np.abs(y)
    weights = weights.reshape(-1, 8)
    table = np.zeros((weights.shape[0], 256))
    for bit in range(8):
        lo = 1 << bit
        np.add(table[:, :lo], weights[:, bit:bit + 1], out=table[:, lo:2 * lo])
    return table


def _byte_partials(w: np.ndarray) -> np.ndarray:
    """Per-byte sums of (n, k) weights, left to right as _mismatch_table adds
    them (the zero weights of unset bits and of the pad add exactly)."""
    n, k = w.shape
    if k % 8:
        w = np.concatenate([w, np.zeros((n, 8 - k % 8))], axis=1)
    w = w.reshape(n, -1, 8)
    acc = w[:, :, 0] + w[:, :, 1]
    for bit in range(2, 8):
        acc += w[:, :, bit]
    return acc


class SampleStats:
    """Per-pair statistics of (n, k) float blocks, one pair per row: x the
    stored side, y the query side.  With differ_j = [x_j >= 0] != [y_j >= 0]:
    matches = k - sum differ, mis = sum |y_j| differ_j, abs_sum = sum |y_j|,
    and xy, xx, yy the sums of products.  Each is computed on first use; y
    may be one row broadcast against every row of x."""

    def __init__(self, x: np.ndarray, y: np.ndarray, **known):
        self.x, self.y, self.k = x, y, x.shape[1]
        self.__dict__.update(known)  # sums the caller already holds

    @functools.cached_property
    def differ(self) -> np.ndarray:
        return (self.x >= 0.0) != (self.y >= 0.0)

    @functools.cached_property
    def matches(self) -> np.ndarray:
        return self.k - self.differ.sum(axis=1)

    @functools.cached_property
    def mis(self) -> np.ndarray:
        w = np.abs(self.y)
        w *= self.differ
        return _byte_partials(w).sum(axis=1)

    @functools.cached_property
    def abs_sum(self) -> np.ndarray:
        return _byte_partials(np.abs(self.y)).sum(axis=1)

    @functools.cached_property
    def xy(self) -> np.ndarray:
        return sum_product(self.x, self.y)

    @functools.cached_property
    def xx(self) -> np.ndarray:
        return sum_product(self.x, self.x)

    @functools.cached_property
    def yy(self) -> np.ndarray:
        return sum_product(self.y, self.y)


class StoreStats:
    """The statistics of SampleStats for every row of a sign store against one
    query: mis is one lookup per byte of row XOR query signs in the query's
    mismatch table, summed along the byte axis as SampleStats sums."""

    def __init__(self, store: SignStore, y: np.ndarray, yy: float):
        self.k, self.y, self.yy = store.k, y, yy
        self.diff = np.bitwise_xor(store.bits, pack_signs(y))

    @functools.cached_property
    def matches(self) -> np.ndarray:
        return self.k - popcount(self.diff).sum(axis=1)

    @functools.cached_property
    def table(self) -> np.ndarray:
        return _mismatch_table(self.y)

    @functools.cached_property
    def mis(self) -> np.ndarray:
        offsets = 256 * np.arange(self.diff.shape[1], dtype=np.intp)
        return np.take(self.table.ravel(), self.diff + offsets).sum(axis=1)

    @functools.cached_property
    def abs_sum(self) -> float:
        return self.table[:, 255].sum()


def estimate_batch(store: SignStore | FullStore, queries: FullStore,
                   estimator: Estimator) -> BatchEstimate:
    """Score every query row against every stored row: (n_query, n_store) arrays.

    A SignStore takes the SIGN_STORE_ESTIMATORS, a FullStore the others; any
    other pairing raises ContractError before scoring.  Every query is scored
    alone, so a row of the result equals the one-query result, and a one-row
    store gives the value of that row in a larger store, bit for bit.  For
    mle and mle-full, clamped is the solver's boundary flag.
    """
    sign = isinstance(store, SignStore)
    if (estimator in SIGN_STORE_ESTIMATORS) != sign:
        raise ContractError(f"estimator {estimator.cli_name!r} cannot score a "
                            f"{'sign' if sign else 'full'} store")
    n = len(store)
    if n and len(queries) and queries.k != store.k:
        raise ShapeError(f"k mismatch: queries {queries.k} vs store {store.k}")
    raw = np.empty((len(queries), n))
    flags = np.zeros(raw.shape, dtype=bool)
    for i, (y, yy) in enumerate(zip(queries.values, queries.sumsq) if n else ()):
        if estimator in (Estimator.MLE_FULL, Estimator.MLE_SIGN_FULL):
            res = (mle.mle_sign_full_store(store, y) if sign
                   else mle.mle_full_store(store, y, yy))
            raw[i], flags[i] = res.rho_hat, res.at_boundary
        elif sign:
            raw[i] = raw_values(estimator, StoreStats(store, y, yy))
        else:
            raw[i] = raw_values(estimator, SampleStats(store.values, y[None, :],
                                                       xx=store.sumsq, yy=yy))
    return BatchEstimate(estimator, store.k, raw, np.clip(raw, -1.0, 1.0),
                         flags | (raw > 1.0) | (raw < -1.0))
