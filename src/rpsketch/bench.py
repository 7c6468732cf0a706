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

import itertools
import math
from typing import Sequence

import numpy as np

from . import rng
from .errors import ConfigError, DomainError, ShapeError
from .estimators import Estimator, estimate_batch
from .projection import (FullStore, ProjectionConfig, SignStore, project_corpus,
                         sign_quantize, union_rows)
from .vectors import Corpus

#: a precision-recall curve as columns: L (int), precision and recall (float64)
Curve = tuple[np.ndarray, np.ndarray, np.ndarray]
_EMPTY_CURVE: Curve = (np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))
_FOLD_VALUES = 1 << 16  # running sums and products per fold of full columns


def check_rho0(*rho0s: float) -> None:
    """Relevance thresholds lie in (0, 1], not NaN."""
    for bad in (r0 for r0 in rho0s if not 0.0 < r0 <= 1.0):
        raise ConfigError(f"rho0 must lie in (0, 1], got {bad}")


def check_l_grid(l_grid: Sequence[int], n: int) -> np.ndarray:
    """The L grid sorted; ConfigError unless it is nonempty, within 1..n and
    free of repeats."""
    ls = np.asarray(sorted(l_grid))
    if ls.size == 0 or ls[-1] > n or ls[0] < 1 or (np.diff(ls) == 0).any():
        raise ConfigError("L grid must hold distinct values within 1..train size")
    return ls


def _by_column(corpus: Corpus) -> tuple[np.ndarray, ...]:
    """Nonzeros by column, rows ascending: rows, columns, values, column offsets,
    lengths.  Indices below 2^16 sort as uint16 keys, which numpy radix-sorts."""
    keys = corpus.indices.astype(np.uint16) if corpus.dim <= 1 << 16 else corpus.indices
    order = np.argsort(keys, kind="stable")
    cols = corpus.indices[order]
    start = np.flatnonzero(np.diff(cols, prepend=-1))  # np.unique sorts again
    rows = np.repeat(np.arange(len(corpus)), np.diff(corpus.indptr))[order]
    return rows, cols, corpus.values[order], start, np.diff(start, append=cols.size)


def _fold(out: np.ndarray, q: np.ndarray, t: np.ndarray) -> None:
    """out[i, j] += q[c, i] * t[c, j] for c = 0, 1, ... in order: one
    np.add.reduce over axis 0 per block of rows of out and of columns c,
    of the block's running sums stacked on its products, in one buffer of
    about _FOLD_VALUES values (two rows of out when one is wider than half
    of that)."""
    n_q, n_t = out.shape
    cols = min(len(q), max(1, _FOLD_VALUES // n_t - 1))
    step = min(n_q, max(1, _FOLD_VALUES // ((cols + 1) * n_t)))
    buf = np.empty((cols + 1) * step * n_t)
    for lo in range(0, len(q), cols):
        qc, tc = q[lo:lo + cols], t[lo:lo + cols]
        for r in range(0, n_q, step):
            sums = out[r:r + step]
            stack = buf[:(len(tc) + 1) * sums.size].reshape(len(tc) + 1, *sums.shape)
            stack[0] = sums
            np.multiply(qc[:, r:r + step, None], tc[:, None, :], out=stack[1:])
            if sums.size > 1:  # an outer axis is reduced in order
                np.add.reduce(stack, axis=0, out=sums)
            else:  # a lone value would be summed pairwise; accumulate adds in order
                sums[...] = np.add.accumulate(stack, axis=0)[-1]


def exact_cosines(train: Corpus, queries: Corpus) -> np.ndarray:
    """(n_queries, n_train) matrix of exact cosines (vectors are unit norm).

    Each cosine adds its products onto 0.0 in ascending index order, as a
    sparse product does, but only where both supports hold the index: a
    skipped product is +-0, which leaves a nonzero or +0 sum unchanged.
    Each run of consecutive indices that every row on both sides holds is
    folded onto the running sums by _fold; the products of each run of
    other indices between two such are gathered from the column view and
    added with np.add.at, which applies them in order.  Beyond the output
    and O(nnz) of column views, this holds about _FOLD_VALUES values.  Two
    fully dense corpora are one such run: their transposed value matrices
    go to _fold as they are, with no column views."""
    if train.dim != queries.dim:
        raise ShapeError(f"dim mismatch: {train.dim} vs {queries.dim}")
    n_t, n_q = len(train), len(queries)
    if n_t == 0:
        raise ConfigError("empty training corpus")
    out = np.zeros((n_q, n_t))
    if n_q and all(c.indices.size == len(c) * c.dim for c in (train, queries)):
        # every row holds every index: one run of all columns, no column views
        _fold(out, *(np.ascontiguousarray(c.values.reshape(len(c), -1).T)
                     for c in (queries, train)))
        return out
    t_rows, t_cols, t_vals, t_start, t_count = _by_column(train)
    q_rows, q_cols, q_vals, q_start, q_count = _by_column(queries)
    if not (t_cols.size and q_cols.size):
        return out
    at = np.minimum(np.searchsorted(t_cols[t_start], q_cols), t_start.size - 1)
    lens = np.where(t_cols[t_start[at]] == q_cols, t_count[at], 0)  # products per query nonzero
    ends = np.cumsum(lens)
    full = q_start[(q_count == n_q) & (lens[q_start] == n_t)]
    first = np.flatnonzero(np.diff(full, prepend=-1 - n_q) != n_q)  # where runs start
    flat, done = out.reshape(-1), 0
    runs = zip(full[first].tolist(), np.diff(first, append=full.size).tolist())
    for a, c in [*runs, (q_cols.size, 0)]:
        while done < a:  # the run [done, a), in pieces of at most nnz(train) products
            b = np.searchsorted(ends, ends[done] - lens[done] + t_vals.size, "right")
            b = min(a, max(done + 1, b))
            n = lens[done:b]
            idx = (np.repeat(t_start[at[done:b]] - (ends[done:b] - n), n)
                   + np.arange(ends[done] - n[0], ends[b - 1]))
            np.add.at(flat, np.repeat(q_rows[done:b] * n_t, n) + t_rows[idx],
                      t_vals[idx] * np.repeat(q_vals[done:b], n))
            done = b
        if c:  # c indices that every row holds, rows in order
            done = a + c * n_q
            _fold(out, q_vals[a:done].reshape(c, n_q),
                  t_vals[t_start[at[a:done:n_q]][:, None] + np.arange(n_t)])
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
    ls = np.arange(1, n + 1) if l_grid is None else check_l_grid(l_grid, n)
    kept = [q for q, rel in enumerate(relevance) if len(rel)]
    if not kept:
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
    so both are computed once and reused across the grid, after the checks
    of the thresholds and the L grid.  A rho0 no pair reaches warns once.
    Each normal is a pure function of (seed, row, column), so the rows of R
    over both supports are drawn once, at the largest k, and every k
    projects through a copy of their first k columns: the same bits as
    drawing each k on its own.
    """
    check_rho0(*rho0s)
    if l_grid is not None:
        check_l_grid(l_grid, len(train))
    sims = exact_cosines(train, queries)
    relevance = {r0: _relevant(sims, r0) for r0 in rho0s}
    for r0, rel in relevance.items():
        if rel and not any(map(len, rel)):
            import logging  # only here: most runs warn of nothing

            logging.getLogger(__name__).warning(
                "every query had an empty relevance set at rho0 %r; its curves are empty",
                float(r0))
    rows: list[tuple[Estimator, float, int, Curve]] = []
    cfgs = [ProjectionConfig(k=int(k), seed=seed) for k in ks]
    positions, grid = union_rows((train, queries), cfgs[0].seed, max(cfg.k for cfg in cfgs),
                                 threads=threads)
    for pcfg in cfgs:
        if grid is None:  # beyond the row cache: each projection on its own
            sketches = [project_corpus(c, pcfg, threads=threads) for c in (train, queries)]
        else:
            table = np.ascontiguousarray(grid[:, :pcfg.k])  # the rows of R at this k
            sketches = [project_corpus(c, pcfg, threads=threads, shared_rows=(pos, table))
                        for c, pos in zip((train, queries), positions)]
        store, query_sketches = sign_quantize(sketches[0]), sketches[1]
        for est in estimators:
            rankings = rank_queries(store, query_sketches, est)
            for r0 in rho0s:
                rows.append((est, float(r0), pcfg.k, pr_curve(rankings, relevance[r0], l_grid)))
    return rows


def _unit_rows(block: np.ndarray) -> np.ndarray:
    """Divide each row by its norm in place; DomainError for the first row
    whose norm is 0 or overflows."""
    norms = [math.sqrt(float(np.dot(row, row))) for row in block]
    for norm in norms:
        if not 0.0 < norm < math.inf:  # all zero, or the noise overflowed its norm
            raise DomainError(f"cannot normalize a vector of norm {norm}")
    block /= np.array(norms)[:, None]
    return block


def _nonzeros(block: np.ndarray) -> Corpus:
    """The nonzeros of a block of rows of one dim as a Corpus, rows in order."""
    mask = block != 0.0
    indices = np.flatnonzero(mask)
    indices %= block.shape[1]
    return Corpus(np.concatenate(([0], np.cumsum(mask.sum(axis=1)))), indices,
                  block[mask], block.shape[1])


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
    generated the same way.  Centers are rows 0..n_clusters-1 of the seed's
    normal table, training members and then queries the rows after them, so
    everything is a pure function of the seed, drawn in two grids.
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

    ordinal = np.concatenate((np.arange(n_train), np.arange(n_queries)))
    # no slot reaches `top`, so capping the slot counts there picks the same
    # levels and keeps them within int64
    top = max(n_train, n_queries) // n_clusters + 1
    slot = ordinal // n_clusters % min(ends[-1], top)
    level = np.searchsorted([min(end, top) for end in ends], slot, "right")
    sigma = np.array([math.sqrt(value / dim) for value, _ in spread_levels])[level]

    centers = _unit_rows(rng.normal_grid(seed, np.arange(n_clusters), dim))
    members = rng.normal_grid(seed, np.arange(n_clusters, n_clusters + ordinal.size), dim)
    members *= sigma[:, None]
    members += centers[ordinal % n_clusters]
    _unit_rows(members)
    return _nonzeros(members[:n_train]), _nonzeros(members[n_train:])
