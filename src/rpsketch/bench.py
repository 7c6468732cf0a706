"""Near-neighbor ranking benchmark with exact-cosine ground truth.

A training corpus is reduced to bit-packed sign sketches; queries keep their
full-precision sketches (same projection seed, as the estimators require).
For each query every training point is scored, ranked, and compared against
the set of training points whose exact cosine clears a threshold rho0,
yielding averaged precision-recall curves.

Because the public corpora this protocol targets are far beyond desk scale,
the module also plants a synthetic clustered corpus whose pairwise cosines
fall in controlled bands, so threshold sweeps exercise both the high- and
low-similarity regimes.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import math
from typing import Sequence

import numpy as np

from . import rng
from .errors import ConfigError, DomainError, ShapeError
from .estimators import Estimator, estimate_batch
from .projection import (FullStore, ProjectionConfig, SignStore, project_corpus,
                         sign_quantize)
from .vectors import Corpus, DataVector

log = logging.getLogger(__name__)

#: a precision-recall curve as columns: L (int), precision and recall (float64)
Curve = tuple[np.ndarray, np.ndarray, np.ndarray]
_EMPTY_CURVE: Curve = (np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))


def check_rho0(*rho0s: float) -> None:
    """Relevance thresholds lie in (0, 1], not NaN."""
    for bad in (r0 for r0 in rho0s if not 0.0 < r0 <= 1.0):
        raise ConfigError(f"rho0 must lie in (0, 1], got {bad}")


def _by_column(corpus: Corpus) -> tuple[np.ndarray, ...]:
    """Nonzeros by column, rows ascending: rows, columns, values, column offsets, lengths."""
    order = np.argsort(corpus.indices, kind="stable")
    cols = corpus.indices[order]
    start = np.flatnonzero(np.diff(cols, prepend=-1))  # np.unique sorts again
    rows = np.repeat(np.arange(len(corpus)), np.diff(corpus.indptr))[order]
    return rows, cols, corpus.values[order], start, np.diff(start, append=cols.size)


def exact_cosines(train: Corpus, queries: Corpus) -> np.ndarray:
    """(n_queries, n_train) matrix of exact cosines (vectors are unit norm).

    Each cosine adds its products onto 0.0 in ascending index order, as a
    sparse product does, but only where both supports hold the index: a
    skipped product is +-0, which leaves a nonzero or +0 sum unchanged.  An
    index that every row on both sides holds adds one outer product; the
    products of each run of other indices between two such are gathered from
    the column view and added with np.add.at, which applies them in order."""
    if train.dim != queries.dim:
        raise ShapeError(f"dim mismatch: {train.dim} vs {queries.dim}")
    n_t, n_q = len(train), len(queries)
    if n_t == 0:
        raise ConfigError("empty training corpus")
    out = np.zeros((n_q, n_t))
    t_rows, t_cols, t_vals, t_start, t_count = _by_column(train)
    q_rows, q_cols, q_vals, q_start, q_count = _by_column(queries)
    if not (t_cols.size and q_cols.size):
        return out
    at = np.minimum(np.searchsorted(t_cols[t_start], q_cols), t_start.size - 1)
    lens = np.where(t_cols[t_start[at]] == q_cols, t_count[at], 0)  # products per query nonzero
    ends = np.cumsum(lens)
    full = q_start[(q_count == n_q) & (lens[q_start] == n_t)]
    flat, buf, done = out.reshape(-1), np.empty_like(out), 0
    for a in [*full, q_cols.size]:
        while done < a:  # the run [done, a), in pieces of at most nnz(train) products
            b = np.searchsorted(ends, ends[done] - lens[done] + t_vals.size, "right")
            b = min(a, max(done + 1, b))
            n = lens[done:b]
            idx = (np.repeat(t_start[at[done:b]] - (ends[done:b] - n), n)
                   + np.arange(ends[done] - n[0], ends[b - 1]))
            np.add.at(flat, np.repeat(q_rows[done:b] * n_t, n) + t_rows[idx],
                      t_vals[idx] * np.repeat(q_vals[done:b], n))
            done = b
        if a < q_cols.size:  # an index that every row holds, rows in order
            lo = t_start[at[a]]
            np.multiply(q_vals[a:a + n_q, None], t_vals[None, lo:lo + n_t], out=buf)
            out += buf
            done = a + n_q
    return out


def _relevant(sims: np.ndarray, rho0: float) -> list[np.ndarray]:
    """Per row of a cosine matrix, the column indices whose cosine is >= rho0."""
    return [np.nonzero(row >= rho0)[0] for row in sims]


def rank_queries(store: SignStore | FullStore, queries: FullStore,
                 estimator: Estimator) -> np.ndarray:
    """(n_query, n_store) training indices by descending estimate, ties by
    lower index."""
    return np.argsort(-estimate_batch(store, queries, estimator).rho_hat,
                      axis=1, kind="stable")


def pr_curve(rankings: Sequence[np.ndarray],
             relevance: Sequence[np.ndarray],
             l_grid: Sequence[int] | None = None) -> Curve:
    """Precision and recall at each L, averaged over queries with relevant
    points, as the columns (L, precision, recall).

    Rankings share one length n, relevance indices lie in 0..n-1.  Queries
    with empty relevance sets have undefined recall and are excluded from the
    averages; if every query is empty the curve is empty too.
    """
    if len(rankings) != len(relevance):
        raise ShapeError("need one relevance set per ranking")
    if not len(rankings):
        return _EMPTY_CURVE
    n = len(rankings[0])
    if any(len(ranked) != n for ranked in rankings):
        raise ShapeError("rankings differ in length")
    ls = np.arange(1, n + 1) if l_grid is None else np.asarray(sorted(l_grid))
    if ls.size == 0 or ls[-1] > n or ls[0] < 1:
        raise ConfigError("L grid must lie within 1..train size")
    kept = [q for q, rel in enumerate(relevance) if len(rel)]
    if not kept:
        log.warning("every query had an empty relevance set; empty curve")
        return _EMPTY_CURVE
    sizes = np.array([len(relevance[q]) for q in kept])
    rel = np.concatenate([relevance[q] for q in kept])
    if rel.min() < 0 or rel.max() >= n:
        raise ShapeError(f"relevance indices must lie in 0..{n - 1}")
    mask = np.zeros((len(kept), n), dtype=bool)
    mask[np.repeat(np.arange(len(kept)), sizes), rel] = True
    ranked = np.asarray([rankings[q] for q in kept])
    hits = np.cumsum(np.take_along_axis(mask, ranked, axis=1), axis=1)[:, ls - 1]
    prec_sum, rec_sum = np.zeros(ls.size), np.zeros(ls.size)
    for prec, rec in zip(hits / ls, hits / sizes[:, None]):  # in query order
        prec_sum += prec
        rec_sum += rec
    return ls, prec_sum / len(kept), rec_sum / len(kept)


def interpolated_precision(curve: Curve, recall_level: float) -> float:
    """Highest precision among curve points reaching the given recall."""
    _, precision, recall = curve
    eligible = precision[recall >= recall_level]
    return float(eligible.max()) if eligible.size else 0.0


def benchmark_grid(train: Corpus, queries: Corpus, ks: Sequence[int],
                   rho0s: Sequence[float], estimators: Sequence[Estimator],
                   seed: int, l_grid: Sequence[int] | None = None, *,
                   threads: int = 1) -> list[tuple[Estimator, float, int, Curve]]:
    """One curve per (estimator, rho0, k) of the grid.

    Ground truth depends only on rho0 and rankings only on (k, estimator),
    so both are computed once and reused across the grid.
    """
    check_rho0(*rho0s)
    sims = exact_cosines(train, queries)
    relevance = {r0: _relevant(sims, r0) for r0 in rho0s}
    rows: list[tuple[Estimator, float, int, Curve]] = []
    for k in ks:
        pcfg = ProjectionConfig(k=int(k), seed=seed)
        store = sign_quantize(project_corpus(train, pcfg, threads=threads))
        query_sketches = project_corpus(queries, pcfg, threads=threads)
        for est in estimators:
            rankings = rank_queries(store, query_sketches, est)
            for r0 in rho0s:
                rows.append((est, float(r0), int(k), pr_curve(rankings, relevance[r0], l_grid)))
    return rows


def make_clustered_corpus(seed: int, dim: int = 512, n_clusters: int = 10,
                          n_train: int = 1000, n_queries: int = 100,
                          spread_levels: Sequence[tuple[float, int]] = (
                              (0.05, 4), (0.30, 3), (1.50, 3)),
                          ) -> tuple[Corpus, Corpus]:
    """Planted clusters with controlled pairwise-cosine bands.

    Cluster centers are drawn uniformly on the unit sphere; each member is a
    normalized center plus Gaussian noise of per-member scale sigma with
    sigma^2 * dim drawn from ``spread_levels`` (value, slots) in a fixed
    rotation: slot p goes to the first level whose cumulative slot count
    exceeds p, so no list of slots is built.  Two members with noise
    energies a and b have expected cosine 1/sqrt((1+a)(1+b)), so the level
    mix controls the similarity histogram.
    Members are assigned to clusters round-robin; queries are extra members
    generated the same way.  Everything is a pure function of the seed.
    Level values must be finite and >= 0 (ConfigError); a member whose norm
    overflows raises DomainError rather than becoming a zero row.
    """
    if dim < 1 or n_clusters < 1 or n_train < 1 or n_queries < 0:
        raise ConfigError("need dim >= 1, at least one cluster and one training vector")
    if any(int(slots) < 0 for _, slots in spread_levels):
        raise ConfigError("spread_levels slots must be >= 0")
    if not all(0.0 <= value < math.inf for value, _ in spread_levels):
        raise ConfigError("spread_levels values must be finite and >= 0")
    ends = list(itertools.accumulate(int(slots) for _, slots in spread_levels))
    if not ends or not ends[-1]:
        raise ConfigError("spread_levels must provide at least one slot")

    def unit(vec: np.ndarray) -> np.ndarray:
        norm = math.sqrt(float(np.dot(vec, vec)))
        if not 0.0 < norm < math.inf:  # all zero, or the noise overflowed its norm
            raise DomainError(f"cannot normalize a vector of norm {norm}")
        return vec / norm

    centers = [unit(rng.normal_grid(seed, [c], dim)[0])
               for c in range(n_clusters)]

    def member(major: int, ordinal: int) -> DataVector:
        cluster = ordinal % n_clusters
        s2d = spread_levels[bisect.bisect_right(ends, (ordinal // n_clusters) % ends[-1])][0]
        sigma = math.sqrt(s2d / dim)
        noise = rng.normal_grid(seed, [major], dim)[0]
        return DataVector.from_dense(unit(centers[cluster] + sigma * noise), dim)

    train = [member(n_clusters + m, m) for m in range(n_train)]
    queries = [member(n_clusters + n_train + q, q) for q in range(n_queries)]
    return Corpus.from_vectors(train, dim), Corpus.from_vectors(queries, dim)
