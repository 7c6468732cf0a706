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
scored through byte tables built for a group of queries at once
(StoreStats).  Both add the mismatch weights in one order, so the lab and
store values agree bitwise.

Raw formula values may land outside [-1, 1]; results carry both the raw
value and the clamped one with an explicit flag, because ranking wants
bounded scores while variance analysis wants the untouched statistic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, ShapeError
from .names import Estimator
from .projection import FullStore, SignStore, pack_signs, sum_product

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
SQRT_TAU = math.sqrt(2.0 * math.pi)

#: set bits of each byte value
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.intp)

#: a group of queries scores a sign store through about this many table
#: values (16 queries at k = 256)
_GROUP_VALUES = 1 << 17


#: estimators that score a bit-packed SignStore; the others score a FullStore
SIGN_STORE_ESTIMATORS = frozenset({
    Estimator.SIGN_SIGN, Estimator.G, Estimator.G_NORM,
    Estimator.S, Estimator.S_NORM, Estimator.MLE_SIGN_FULL,
})


@dataclass(frozen=True, eq=False)
class BatchEstimate:
    """Scores of queries against a store as (n_query, n_store) arrays;
    len() counts the pairs."""

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


def full_mle(st: SampleStats):
    """Full-data MLE of each pair from its moments b = xy/k and m = (xx + yy)/k,
    as an mle.MleBatch."""
    from . import mle
    if np.any(st.xx == 0.0) or np.any(st.yy == 0.0):
        raise DomainError("degenerate sketches")
    return mle.solve_full_batch(st.xy / st.k, (st.xx + st.yy) / st.k, st.k)


def _mismatch_table(y: np.ndarray) -> np.ndarray:
    """(m, ceil(k/8), 256) tables of (m, k) queries: entry [q, p, v] sums
    |y_qj| over the set bits of v at byte p, adding them in ascending bit
    order onto entry 0 = 0.0."""
    m, k = y.shape
    weights = np.zeros((m, 8 * ((k + 7) // 8)))
    weights[:, :k] = np.abs(y)
    weights = weights.reshape(m, -1, 8)
    table = np.empty((m, weights.shape[1], 256))
    table[:, :, 0] = 0.0
    for bit in range(8):
        lo = 1 << bit
        np.add(table[:, :, :lo], weights[:, :, bit:bit + 1], out=table[:, :, lo:2 * lo])
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
    """The statistics of SampleStats for every row of a sign store against a
    group of (m, k) queries: matches and mis are (m, n) arrays, abs_sum and
    yy (m, 1).  index is the store's bytes widened once per scoring call to
    byte value + 256 * byte position, so row bytes XOR a query's sign bytes
    index that query's flattened tables; a row's lookups are summed along the
    byte axis as SampleStats sums."""

    def __init__(self, index: np.ndarray, k: int, y: np.ndarray, yy: np.ndarray):
        self.index, self.k, self.y, self.yy = index, k, y, yy[:, None]

    def _lookup(self, tables: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out[q, i]: the sum of (m, 256 * ceil(k/8)) tables[q] over row i's
        bytes XOR query q's sign bytes, one query at a time."""
        idx = np.empty_like(self.index)
        looked_up = np.empty(idx.shape, tables.dtype)
        for q, signs in enumerate(pack_signs(self.y).astype(np.intp)):
            np.bitwise_xor(self.index, signs, out=idx)
            np.take(tables[q], idx, out=looked_up, mode="clip")
            np.add.reduce(looked_up, axis=1, out=out[q])
        return out

    @functools.cached_property
    def table(self) -> np.ndarray:
        return _mismatch_table(self.y)

    @functools.cached_property
    def matches(self) -> np.ndarray:
        m, (n, width) = len(self.y), self.index.shape
        popcounts = np.broadcast_to(np.tile(_POPCOUNT, width), (m, 256 * width))
        return self.k - self._lookup(popcounts, np.empty((m, n), dtype=np.intp))

    @functools.cached_property
    def mis(self) -> np.ndarray:
        m, n = len(self.y), len(self.index)
        return self._lookup(self.table.reshape(m, -1), np.empty((m, n)))

    @functools.cached_property
    def abs_sum(self) -> np.ndarray:
        return np.ascontiguousarray(self.table[:, :, 255]).sum(axis=1, keepdims=True)


def estimate_batch(store: SignStore | FullStore, queries: FullStore,
                   estimator: Estimator) -> BatchEstimate:
    """Score every query row against every stored row: (n_query, n_store) arrays.

    A SignStore takes the SIGN_STORE_ESTIMATORS, a FullStore the others; any
    other pairing raises ContractError before scoring.  The sign-store closed
    forms take the queries in groups of about _GROUP_VALUES table values;
    every query is scored through its own table, so a row of the result
    equals the one-query result, and a one-row store gives the value of that
    row in a larger store, bit for bit.  For mle and mle-full, clamped is the
    solver's boundary flag.
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
    if estimator in (Estimator.MLE_FULL, Estimator.MLE_SIGN_FULL):
        from . import mle
        for i, (y, yy) in enumerate(zip(queries.values, queries.sumsq) if n else ()):
            res = (mle.mle_sign_full_store(store, y) if sign else
                   full_mle(SampleStats(store.values, y[None, :], xx=store.sumsq, yy=yy)))
            raw[i], flags[i] = res.rho_hat, res.at_boundary
    elif sign:
        width = store.bits.shape[1]
        index = store.bits.astype(np.intp)
        index += 256 * np.arange(width)
        group = max(1, _GROUP_VALUES // max(256 * width, 1))
        for i in range(0, len(queries) if n else 0, group):
            raw[i:i + group] = raw_values(estimator, StoreStats(
                index, store.k, queries.values[i:i + group], queries.sumsq[i:i + group]))
    else:
        for i, (y, yy) in enumerate(zip(queries.values, queries.sumsq) if n else ()):
            raw[i] = raw_values(estimator, SampleStats(
                store.values, y[None, :], xx=store.sumsq, yy=yy))
    return BatchEstimate(raw, np.clip(raw, -1.0, 1.0), flags | (raw > 1.0) | (raw < -1.0))
