import math

import numpy as np
import pytest
import scipy.stats

from rpsketch import (BenchConfig, Corpus, DataVector, Estimator, FullSketch,
                      PrPoint, ProjectionConfig, benchmark_grid, cosine,
                      ground_truth, interpolated_precision,
                      make_clustered_corpus, normalize, pr_curve,
                      project_corpus, rank_queries, run_benchmark,
                      sign_quantize)
from rpsketch.errors import ConfigError, ContractError, ShapeError


def vec(dense, dim=None):
    return DataVector.from_dense(dense, dim)


def axis(i, dim):
    dense = np.zeros(dim)
    dense[i] = 1.0
    return vec(dense, dim)


class TestGroundTruth:
    def test_exact_duplicate_at_threshold_one(self):
        train = Corpus.from_vectors((axis(0, 4), axis(1, 4), axis(2, 4)), 4)
        queries = Corpus.from_vectors((axis(1, 4),), 4)
        (rel,) = ground_truth(train, queries, 1.0)
        assert rel.tolist() == [1]

    def test_threshold_above_everything(self):
        rng_ = np.random.default_rng(1)
        train = Corpus.from_vectors([normalize(vec(rng_.standard_normal(16)))
                                     for _ in range(5)], 16)
        queries = Corpus.from_vectors((normalize(vec(rng_.standard_normal(16))),), 16)
        sims = [cosine(queries[0], t) for t in train]
        rho0 = max(sims) + 1e-9
        (rel,) = ground_truth(train, queries, rho0)
        assert rel.size == 0

    def test_hand_enumerated_sets(self):
        train = Corpus.from_vectors((vec([1.0, 0.0]), normalize(vec([1.0, 1.0])),
                                     vec([0.0, 1.0])), 2)
        queries = Corpus.from_vectors((vec([1.0, 0.0]),), 2)
        # cosines: 1.0, 0.7071, 0.0
        (rel,) = ground_truth(train, queries, 0.5)
        assert rel.tolist() == [0, 1]

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            ground_truth(Corpus.from_vectors((axis(0, 3),), 3),
                         Corpus.from_vectors((axis(0, 4),), 4), 0.5)

    def test_empty_corpus(self):
        with pytest.raises(ConfigError):
            ground_truth(Corpus.from_vectors((), 3), Corpus.from_vectors((axis(0, 3),), 3), 0.5)


class TestRankQueries:
    def test_identical_vector_ranks_first_with_estimate_one(self):
        rng_ = np.random.default_rng(2)
        dim = 32
        vecs = [normalize(vec(rng_.standard_normal(dim))) for _ in range(20)]
        cfg = ProjectionConfig(k=256, seed=9)
        store = [sign_quantize(s) for s in project_corpus(Corpus.from_vectors(vecs, dim), cfg)]
        (query,) = project_corpus(Corpus.from_vectors([vecs[7]], dim), cfg)
        from rpsketch import estimate_batch

        scores = estimate_batch(store, query, Estimator.S_NORM)
        assert scores.rho_hat[7] == 1.0
        (ranking,) = rank_queries(store, [query], Estimator.S_NORM)
        assert ranking[0] == 7

    def test_tie_broken_by_lower_index(self):
        sk = sign_quantize(FullSketch(np.array([1.0, -1.0, 1.0, 1.0])))
        store = [sk, sk, sk]
        query = FullSketch(np.array([0.5, -0.5, 0.5, 0.5]))
        (ranking,) = rank_queries(store, [query], Estimator.G_NORM)
        assert ranking.tolist() == [0, 1, 2]

    def test_large_k_ranking_tracks_truth(self):
        rng_ = np.random.default_rng(3)
        dim = 24
        vecs = [normalize(vec(rng_.standard_normal(dim))) for _ in range(50)]
        query_vec = normalize(vec(rng_.standard_normal(dim)))
        cfg = ProjectionConfig(k=10_000, seed=13)
        store = [sign_quantize(s) for s in project_corpus(Corpus.from_vectors(vecs, dim), cfg)]
        (query,) = project_corpus(Corpus.from_vectors([query_vec], dim), cfg)
        (ranking,) = rank_queries(store, [query], Estimator.S_NORM)
        truth = np.array([cosine(query_vec, t) for t in vecs])
        est_rank_of = np.empty(50)
        est_rank_of[ranking] = np.arange(50)
        true_order = np.argsort(-truth)
        true_rank_of = np.empty(50)
        true_rank_of[true_order] = np.arange(50)
        corr = scipy.stats.spearmanr(est_rank_of, true_rank_of).statistic
        assert corr >= 0.95

    def test_full_estimator_rejected(self):
        store = [sign_quantize(FullSketch(np.ones(8)))]
        with pytest.raises(ContractError):
            rank_queries(store, [FullSketch(np.ones(8))], Estimator.FULL_NORM)


class TestPrCurve:
    def test_hand_enumeration(self):
        ranking = np.array([2, 0, 4, 1, 3])
        relevance = np.array([0, 4])
        points = pr_curve([ranking], [relevance])
        expected = [(1, 0.0, 0.0), (2, 1 / 2, 1 / 2), (3, 2 / 3, 1.0),
                    (4, 2 / 4, 1.0), (5, 2 / 5, 1.0)]
        for p, (L, prec, rec) in zip(points, expected):
            assert (p.L, p.precision, p.recall) == (L, prec, rec)

    def test_perfect_prefix(self):
        points = pr_curve([np.array([1, 0, 2])], [np.array([0, 1])],
                          l_grid=[2])
        assert points[0].precision == 1.0 and points[0].recall == 1.0

    def test_recall_one_at_full_sweep(self):
        ranking = np.array([3, 1, 0, 2])
        points = pr_curve([ranking], [np.array([0])])
        assert points[-1].recall == 1.0

    def test_recall_monotone(self):
        rng_ = np.random.default_rng(4)
        ranking = rng_.permutation(40)
        rel = rng_.choice(40, size=7, replace=False)
        points = pr_curve([ranking], [rel])
        recalls = [p.recall for p in points]
        assert all(b >= a for a, b in zip(recalls, recalls[1:]))

    def test_empty_relevance_excluded_from_average(self):
        r1 = np.array([0, 1, 2])
        r2 = np.array([2, 1, 0])
        points = pr_curve([r1, r2], [np.array([0]), np.array([], dtype=int)])
        # only the first query counts
        assert points[0].precision == 1.0 and points[0].recall == 1.0

    def test_all_empty_gives_empty_curve(self):
        points = pr_curve([np.array([0, 1])], [np.array([], dtype=int)])
        assert points == []

    def test_integer_products_before_averaging(self):
        ranking = np.array([4, 2, 0, 3, 1])
        rel = np.array([2, 3])
        for p in pr_curve([ranking], [rel]):
            assert (p.precision * p.L) == pytest.approx(round(p.precision * p.L))
            assert (p.recall * len(rel)) == pytest.approx(round(p.recall * len(rel)))

    def test_l_grid_validated(self):
        with pytest.raises(ConfigError):
            pr_curve([np.array([0, 1])], [np.array([0])], l_grid=[5])


class TestInterpolatedPrecision:
    def test_takes_max_beyond_level(self):
        points = [PrPoint(1, 0.2, 0.1), PrPoint(2, 0.9, 0.5), PrPoint(3, 0.6, 1.0)]
        assert interpolated_precision(points, 0.5) == 0.9
        assert interpolated_precision(points, 0.8) == 0.6

    def test_empty_when_unreachable(self):
        assert interpolated_precision([PrPoint(1, 1.0, 0.3)], 0.5) == 0.0


class TestBenchmark:
    def test_deterministic(self):
        train, queries = make_clustered_corpus(3, dim=64, n_clusters=4,
                                               n_train=40, n_queries=8)
        args = (train, queries, [32], [0.8], [Estimator.S_NORM], 5)
        assert benchmark_grid(*args) == benchmark_grid(*args)

    def test_run_benchmark_single_combo(self):
        train, queries = make_clustered_corpus(4, dim=64, n_clusters=4,
                                               n_train=40, n_queries=8)
        cfg = BenchConfig(k=32, seed=6, rho0=0.8,
                          estimators=(Estimator.S_NORM, Estimator.SIGN_SIGN))
        curves = run_benchmark(train, queries, cfg)
        assert set(curves) == {Estimator.S_NORM, Estimator.SIGN_SIGN}
        for points in curves.values():
            assert len(points) == 40  # full L sweep

    def test_ground_truth_estimator_agnostic(self):
        train, queries = make_clustered_corpus(5, dim=64, n_clusters=4,
                                               n_train=30, n_queries=6)
        rel_a = ground_truth(train, queries, 0.7)
        rel_b = ground_truth(train, queries, 0.7)
        for a, b in zip(rel_a, rel_b):
            assert np.array_equal(a, b)

    def test_config_validated(self):
        with pytest.raises(ConfigError):
            BenchConfig(k=0, seed=1, rho0=0.5, estimators=(Estimator.S,))
        with pytest.raises(ConfigError):
            BenchConfig(k=1, seed=1, rho0=0.0, estimators=(Estimator.S,))
        with pytest.raises(ConfigError):
            BenchConfig(k=1, seed=1, rho0=0.5, estimators=())


class TestClusteredCorpus:
    def test_shapes_and_norms(self):
        train, queries = make_clustered_corpus(7, dim=96, n_clusters=6,
                                               n_train=60, n_queries=12)
        assert len(train) == 60 and len(queries) == 12
        assert train.dim == queries.dim == 96
        for v in list(train)[:10]:
            assert abs(v.norm() - 1.0) < 1e-12

    def test_deterministic_in_seed(self):
        a, _ = make_clustered_corpus(11, dim=32, n_clusters=2, n_train=8,
                                     n_queries=2)
        b, _ = make_clustered_corpus(11, dim=32, n_clusters=2, n_train=8,
                                     n_queries=2)
        for u, w in zip(a, b):
            assert np.array_equal(u.values, w.values)
        c, _ = make_clustered_corpus(12, dim=32, n_clusters=2, n_train=8,
                                     n_queries=2)
        assert not np.array_equal(a[0].values, c[0].values)

    def test_same_cluster_pairs_sit_in_high_band(self):
        train, _ = make_clustered_corpus(13, dim=512, n_clusters=5,
                                         n_train=50, n_queries=0,
                                         spread_levels=((0.05, 1),))
        # members 0 and 5 share cluster 0 at the tight level: cos ~ 1/1.05
        same = cosine(train[0], train[5])
        other = cosine(train[0], train[1])
        assert same > 0.9
        assert abs(other) < 0.4
