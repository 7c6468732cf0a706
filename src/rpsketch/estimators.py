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
weights in one order, so the lab, batch and scalar values agree bitwise.

Raw formula values may land outside [-1, 1]; reports carry both the raw
value and the clamped one with an explicit flag, because ranking wants
bounded scores while variance analysis wants the untouched statistic.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, DomainError, ShapeError
from .projection import (FullSketch, FullStore, SignSketch, SignStore,
                         matching_bits, pack_signs, popcount, sign_array,
                         sum_product)

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

    @classmethod
    def from_cli_name(cls, name: str) -> "Estimator":
        for member in cls:
            if member.value == name:
                return member
        raise KeyError(name)


#: estimators that score a bit-packed store against a full-precision query
SIGN_STORE_ESTIMATORS = frozenset({
    Estimator.SIGN_SIGN, Estimator.G, Estimator.G_NORM,
    Estimator.S, Estimator.S_NORM, Estimator.MLE_SIGN_FULL,
})


@dataclass(frozen=True)
class EstimateReport:
    """An estimate plus its provenance: estimator, k, raw value, clamp flag."""

    estimator: Estimator
    k: int
    rho_hat: float
    clamped: bool
    raw: float


@dataclass(frozen=True, eq=False)
class BatchEstimate:
    """Scores of a store against one query (arrays over the store) or a
    sequence of queries ((n_query, n_store) arrays); len() counts the pairs."""

    estimator: Estimator
    k: int
    raw: np.ndarray
    rho_hat: np.ndarray
    clamped: np.ndarray

    def __len__(self) -> int:
        return int(self.raw.size)


@dataclass(frozen=True)
class SignFullPair:
    """Stored projection signs paired with a full-precision query sketch."""

    signs: SignSketch
    query: FullSketch

    def __post_init__(self):
        if self.signs.k != self.query.k:
            raise ShapeError(f"k mismatch: {self.signs.k} vs {self.query.k}")

    def products(self) -> np.ndarray:
        """s_j = sgn(x_j) * y_j."""
        return sign_array(self.signs) * self.query.values


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

    def __init__(self, store: SignStore, query: FullSketch):
        self.k, self.yy, self.query = store.k, query.sumsq, query
        self.diff = np.bitwise_xor(store.bits, pack_signs(query.values))

    @functools.cached_property
    def matches(self) -> np.ndarray:
        return self.k - popcount(self.diff).sum(axis=1)

    @functools.cached_property
    def table(self) -> np.ndarray:
        return _mismatch_table(self.query.values)

    @functools.cached_property
    def mis(self) -> np.ndarray:
        return self.table[np.arange(self.diff.shape[1]), self.diff].sum(axis=1)

    @functools.cached_property
    def abs_sum(self) -> float:
        return self.table[:, 255].sum()


def _finish(estimator: Estimator, k: int, raw: np.ndarray) -> BatchEstimate:
    """Clip raw values to [-1, 1] and flag where the clip moved them."""
    return BatchEstimate(estimator, k, raw, np.clip(raw, -1.0, 1.0),
                         (raw > 1.0) | (raw < -1.0))


def _score_queries(estimator: Estimator, k: int, n: int, query, score) -> BatchEstimate:
    """score(q) -> raw values over a store of n sketches, for one query or
    for each of a sequence of queries, one at a time."""
    queries = [query] if isinstance(query, FullSketch) else list(query)
    raw = np.empty((len(queries), n))
    for i, q in enumerate(queries if n else ()):
        if q.k != k:
            raise ShapeError(f"query {i}: k mismatch ({q.k} vs store {k})")
        raw[i] = score(q)
    return _finish(estimator, k, raw[0] if isinstance(query, FullSketch) else raw)


def estimate_batch(signs: SignStore | Sequence[SignSketch],
                   query: FullSketch | Sequence[FullSketch],
                   estimator: Estimator) -> BatchEstimate:
    """Score one query sketch, or a sequence of them, against a sign store.

    Every query is scored alone, so a row of a multi-query result equals the
    one-query result, and a one-row store gives the scalar value, bit for bit.
    """
    if estimator not in SIGN_STORE_ESTIMATORS:
        raise ContractError(
            f"estimator {estimator.cli_name!r} cannot score a sign store")
    store = signs if isinstance(signs, SignStore) else SignStore.stack(signs)
    if estimator is Estimator.MLE_SIGN_FULL:
        from . import mle

        return _score_queries(estimator, store.k, len(store), query,
                              lambda q: mle.mle_sign_full_store(store, q).rho_hat)
    return _score_queries(estimator, store.k, len(store), query,
                          lambda q: raw_values(estimator, StoreStats(store, q)))


def estimate_full_batch(store: FullStore | Sequence[FullSketch],
                        query: FullSketch | Sequence[FullSketch],
                        estimator: Estimator) -> BatchEstimate:
    """Score full-precision queries against full sketches with ``full`` or
    ``full-norm``; rows equal the scalar calls bit for bit."""
    if estimator not in (Estimator.FULL, Estimator.FULL_NORM):
        raise ContractError(
            f"estimator {estimator.cli_name!r} cannot score a full store")
    store = store if isinstance(store, FullStore) else FullStore.stack(store)
    return _score_queries(estimator, store.k, len(store), query, lambda q: raw_values(
        estimator, SampleStats(store.values, q.values[None, :], xx=store.sumsq, yy=q.sumsq)))


def _report(res: BatchEstimate) -> EstimateReport:
    """The report of a batch of one."""
    return EstimateReport(res.estimator, res.k, float(res.rho_hat[0]),
                          bool(res.clamped[0]), float(res.raw[0]))


def estimate_pair(estimator: Estimator, signs: SignSketch,
                  query: FullSketch) -> EstimateReport:
    """Scalar sign-store scoring for any supported estimator."""
    return _report(estimate_batch([signs], query, estimator))


def estimate_sign_sign(a: SignSketch, b: SignSketch) -> EstimateReport:
    """cos(pi * (1 - matches/k)); in [-1, 1] by construction."""
    if a.k < 1:
        raise ShapeError("need k >= 1")
    return _report(_finish(Estimator.SIGN_SIGN, a.k, _cos_table(a.k)[[matching_bits(a, b)]]))


def estimate_full(x: FullSketch, y: FullSketch) -> EstimateReport:
    """Mean coordinate product (1/k) sum x_j y_j."""
    return _report(estimate_full_batch([x], y, Estimator.FULL))


def estimate_full_norm(x: FullSketch, y: FullSketch) -> EstimateReport:
    """Empirical cosine of the two sketches; bounded by Cauchy-Schwarz."""
    return _report(estimate_full_batch([x], y, Estimator.FULL_NORM))


def estimate_g(p: SignFullPair) -> EstimateReport:
    """sqrt(pi/2) * mean(s), inverting E(s) = sqrt(2/pi) * rho."""
    return estimate_pair(Estimator.G, p.signs, p.query)


def estimate_g_norm(p: SignFullPair) -> EstimateReport:
    """Moment estimator with the query norm divided out."""
    return estimate_pair(Estimator.G_NORM, p.signs, p.query)


def estimate_s(p: SignFullPair) -> EstimateReport:
    """1 - sqrt(2*pi)/k * sum of mismatch magnitudes max(-s_j, 0)."""
    return estimate_pair(Estimator.S, p.signs, p.query)


def estimate_s_norm(p: SignFullPair) -> EstimateReport:
    """Mismatch estimator with the query norm divided out; still <= 1."""
    return estimate_pair(Estimator.S_NORM, p.signs, p.query)
