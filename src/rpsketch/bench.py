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

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng
from .errors import ConfigError, ShapeError
from .estimators import Estimator, estimate_batch
from .projection import (FullSketch, FullStore, ProjectionConfig, SignSketch,
                         SignStore, project_corpus, quantize_store)
from .vectors import Corpus, DataVector

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BenchConfig:
    k: int
    seed: int
    rho0: float
    estimators: tuple[Estimator, ...]
    l_grid: tuple[int, ...] | None = None  # None = full sweep 1..train size

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if not 0.0 < self.rho0 <= 1.0:
            raise ConfigError("rho0 must lie in (0, 1]")
        if not self.estimators:
            raise ConfigError("need at least one estimator")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.l_grid is not None:
            grid = tuple(int(l) for l in self.l_grid)
            if any(l < 1 for l in grid):
                raise ConfigError("L values must be >= 1")
            object.__setattr__(self, "l_grid", grid)


@dataclass(frozen=True)
class PrPoint:
    L: int
    precision: float
    recall: float


def exact_cosines(train: Corpus, queries: Corpus) -> np.ndarray:
    """(n_queries, n_train) matrix of exact cosines (vectors are unit norm)."""
    if train.dim != queries.dim:
        raise ShapeError(f"dim mismatch: {train.dim} vs {queries.dim}")
    if len(train) == 0:
        raise ConfigError("empty training corpus")
    return np.asarray((queries.to_csr() @ train.to_csr().T).todense())


def ground_truth(train: Corpus, queries: Corpus, rho0: float) -> list[np.ndarray]:
    """Per query, the training indices whose exact cosine is >= rho0."""
    sims = exact_cosines(train, queries)
    return [np.nonzero(row >= rho0)[0] for row in sims]


def rank_queries(sign_store: SignStore | Sequence[SignSketch],
                 queries: FullStore | Sequence[FullSketch],
                 estimator: Estimator) -> list[np.ndarray]:
    """Training indices sorted by descending estimate, ties by lower index."""
    scores = estimate_batch(sign_store, queries, estimator).rho_hat
    return list(np.argsort(-scores, axis=1, kind="stable"))


def pr_curve(rankings: Sequence[np.ndarray],
             relevance: Sequence[np.ndarray],
             l_grid: Sequence[int] | None = None) -> list[PrPoint]:
    """Precision/recall at each L, averaged over queries with relevant points.

    Queries with empty relevance sets have undefined recall and are excluded
    from the averages; if every query is empty the curve is empty too.
    """
    if len(rankings) != len(relevance):
        raise ShapeError("need one relevance set per ranking")
    if not rankings:
        return []
    n = len(rankings[0])
    ls = np.arange(1, n + 1) if l_grid is None else np.asarray(sorted(l_grid))
    if ls.size == 0 or ls[-1] > n or ls[0] < 1:
        raise ConfigError("L grid must lie within 1..train size")
    prec_sum = np.zeros(ls.size)
    rec_sum = np.zeros(ls.size)
    included = 0
    for ranked, rel in zip(rankings, relevance):
        if len(rel) == 0:
            continue
        included += 1
        mask = np.zeros(n, dtype=bool)
        mask[rel] = True
        hits = np.cumsum(mask[ranked])[ls - 1]
        prec_sum += hits / ls
        rec_sum += hits / len(rel)
    if included == 0:
        log.warning("every query had an empty relevance set; empty curve")
        return []
    return [PrPoint(int(l), p / included, r / included)
            for l, p, r in zip(ls, prec_sum, rec_sum)]


def interpolated_precision(points: Sequence[PrPoint], recall_level: float) -> float:
    """Highest precision among curve points reaching the given recall."""
    eligible = [p.precision for p in points if p.recall >= recall_level]
    return max(eligible) if eligible else 0.0


def run_benchmark(train: Corpus, queries: Corpus,
                  cfg: BenchConfig) -> dict[Estimator, list[PrPoint]]:
    """One precision-recall curve per estimator at (cfg.k, cfg.rho0)."""
    rows = benchmark_grid(train, queries, [cfg.k], [cfg.rho0],
                          cfg.estimators, cfg.seed, cfg.l_grid)
    return {est: [p for e, r0, k, p in rows if e is est]
            for est in cfg.estimators}


def benchmark_grid(train: Corpus, queries: Corpus, ks: Sequence[int],
                   rho0s: Sequence[float], estimators: Sequence[Estimator],
                   seed: int, l_grid: Sequence[int] | None = None, *,
                   threads: int = 1) -> list[tuple[Estimator, float, int, PrPoint]]:
    """Curves for the full (estimator, rho0, k) grid.

    Ground truth depends only on rho0 and rankings only on (k, estimator),
    so both are computed once and reused across the grid.
    """
    sims = exact_cosines(train, queries)
    relevance = {r0: [np.nonzero(row >= r0)[0] for row in sims] for r0 in rho0s}
    rows: list[tuple[Estimator, float, int, PrPoint]] = []
    for k in ks:
        pcfg = ProjectionConfig(k=int(k), seed=seed)
        store = quantize_store(project_corpus(train, pcfg, threads=threads))
        query_sketches = project_corpus(queries, pcfg, threads=threads)
        for est in estimators:
            rankings = rank_queries(store, query_sketches, est)
            for r0 in rho0s:
                for point in pr_curve(rankings, relevance[r0], l_grid):
                    rows.append((est, float(r0), int(k), point))
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
    rotation.  Two members with noise energies a and b have expected cosine
    1/sqrt((1+a)(1+b)), so the level mix controls the similarity histogram.
    Members are assigned to clusters round-robin; queries are extra members
    generated the same way.  Everything is a pure function of the seed.
    """
    if n_clusters < 1 or n_train < 1 or n_queries < 0:
        raise ConfigError("need at least one cluster and one training vector")
    level_seq: list[float] = []
    for value, slots in spread_levels:
        level_seq.extend([value] * int(slots))
    if not level_seq:
        raise ConfigError("spread_levels must provide at least one slot")

    def unit(vec: np.ndarray) -> np.ndarray:
        return vec / math.sqrt(float(np.dot(vec, vec)))

    centers = [unit(rng.normal_grid(seed, [c], dim)[0])
               for c in range(n_clusters)]

    def member(major: int, ordinal: int) -> DataVector:
        cluster = ordinal % n_clusters
        s2d = level_seq[(ordinal // n_clusters) % len(level_seq)]
        sigma = math.sqrt(s2d / dim)
        noise = rng.normal_grid(seed, [major], dim)[0]
        return DataVector.from_dense(unit(centers[cluster] + sigma * noise), dim)

    train = [member(n_clusters + m, m) for m in range(n_train)]
    queries = [member(n_clusters + n_train + q, q) for q in range(n_queries)]
    return Corpus.from_vectors(train, dim), Corpus.from_vectors(queries, dim)
