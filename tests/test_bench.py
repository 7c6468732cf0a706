import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cosine, full_store, normalize, sign_store
from rpsketch import (Corpus, DataVector, Estimator, ProjectionConfig, benchmark_grid,
                      interpolated_precision, make_clustered_corpus, pr_curve,
                      project_corpus, rank_queries, sign_quantize)
from rpsketch.bench import _relevant, exact_cosines
from rpsketch.errors import ConfigError, ContractError, DomainError, ShapeError


def vec(dense, dim=None):
    return DataVector.from_dense(dense, dim)


def ground_truth(train: Corpus, queries: Corpus, rho0: float) -> list[np.ndarray]:
    """Per query, the training indices whose exact cosine is >= rho0."""
    return _relevant(exact_cosines(train, queries), rho0)


def to_dense(v: DataVector) -> np.ndarray:
    out = np.zeros(v.dim)
    out[v.indices] = v.values
    return out


def points(curve) -> list[tuple[int, float, float]]:
    """A curve's (L, precision, recall) columns as rows of Python numbers."""
    return list(zip(*(column.tolist() for column in curve)))


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


class TestExactCosines:
    @staticmethod
    def corpus(gen, n, dim, density):
        rows = []
        for _ in range(n):
            dense = gen.standard_normal(dim) * (gen.random(dim) < density)
            dense[gen.integers(dim)] = 1.0  # no empty row
            rows.append(normalize(vec(dense, dim)))
        return Corpus.from_vectors(rows, dim)

    @pytest.mark.parametrize("density", [0.05, 0.3, 1.0])
    def test_equals_dense_product(self, density):
        gen = np.random.default_rng(17)
        train, queries = (self.corpus(gen, n, 60, density) for n in (41, 9))

        def dense(c):
            return np.stack([to_dense(v) for v in c])

        sims = exact_cosines(train, queries)
        assert sims.shape == (9, 41)
        np.testing.assert_allclose(sims, dense(queries) @ dense(train).T, rtol=0, atol=1e-12)

    def test_no_queries_gives_no_rows(self):
        train = Corpus.from_vectors((axis(0, 3), axis(2, 3)), 3)
        assert exact_cosines(train, Corpus.from_vectors((), 3)).shape == (0, 2)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            exact_cosines(Corpus.from_vectors((axis(0, 3),), 3),
                          Corpus.from_vectors((axis(0, 4),), 4))

    def test_empty_training_corpus(self):
        with pytest.raises(ConfigError):
            exact_cosines(Corpus.from_vectors((), 3), Corpus.from_vectors((axis(0, 3),), 3))


def bincount_cosines(train: Corpus, queries: Corpus) -> np.ndarray:
    """Reference: each query scattered into a dense vector, and every training
    nonzero's product with it summed per row by bincount, in index order."""
    row_of_nnz = np.repeat(np.arange(len(train)), np.diff(train.indptr))
    dense, out = np.zeros(train.dim), np.empty((len(queries), len(train)))
    for i, query in enumerate(queries):
        dense[query.indices] = query.values
        out[i] = np.bincount(row_of_nnz, train.values * dense[train.indices], len(train))
        dense[query.indices] = 0.0
    return out


def random_corpus(gen, n, dim, density, always=None, never=None):
    """n unit rows; columns in `always` are on every row, those in `never` on
    none, the rest each with probability `density` (one forced if empty)."""
    always = np.zeros(dim, bool) if always is None else always
    allowed = ~always if never is None else ~(always | never)
    rows = []
    for _ in range(n):
        on = always | (allowed & (gen.random(dim) < density))
        if not on.any():
            on[gen.choice(np.flatnonzero(allowed | always))] = True
        dense = np.where(on, gen.standard_normal(dim), 0.0)
        dense[on & (dense == 0.0)] = 1.0
        rows.append(normalize(vec(dense, dim)))
    return Corpus.from_vectors(rows, dim)


class TestExactCosinesBitwise:
    """exact_cosines sums only where supports meet; every bit must equal the
    full scatter-and-bincount sum."""

    @staticmethod
    def check(train, queries):
        got, want = exact_cosines(train, queries), bincount_cosines(train, queries)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 40),
           density=st.floats(0.1, 1.0), full_share=st.floats(0.0, 1.0),
           n_train=st.integers(1, 25), n_query=st.integers(0, 12))
    def test_matches_bincount(self, seed, dim, density, full_share, n_train, n_query):
        # columns held by every row on both sides interleave with partial ones
        gen = np.random.default_rng(seed)
        full = gen.random(dim) < full_share
        self.check(random_corpus(gen, n_train, dim, density, full),
                   random_corpus(gen, n_query, dim, density, full))

    def test_disjoint_supports_give_positive_zeros(self):
        gen = np.random.default_rng(5)
        left = np.arange(30) < 15
        train = random_corpus(gen, 12, 30, 0.5, never=~left)
        queries = random_corpus(gen, 6, 30, 0.5, never=left)
        self.check(train, queries)
        assert not np.signbit(exact_cosines(train, queries)).any()

    def test_single_training_row(self):
        gen = np.random.default_rng(6)
        for density in (0.2, 1.0):
            self.check(random_corpus(gen, 1, 25, density), random_corpus(gen, 7, 25, density))

    def test_zero_queries(self):
        gen = np.random.default_rng(7)
        self.check(random_corpus(gen, 9, 10, 1.0), random_corpus(gen, 0, 10, 1.0))

    def test_opposite_products_cancel_to_positive_zero(self):
        # (+a)(+b) + (-a)(+b) = +0 exactly; later meeting columns add onto it
        train = Corpus.from_vectors([DataVector(np.array([0, 1, 3]),
                                                np.array([0.6, -0.6, math.sqrt(0.28)]), 4)], 4)
        queries = Corpus.from_vectors([DataVector(np.array([0, 1, 2]),
                                                  np.array([0.5, 0.5, math.sqrt(0.5)]), 4)], 4)
        self.check(train, queries)
        assert exact_cosines(train, queries)[0, 0] == 0.0

    def test_benchmark_shaped_corpora(self):
        # dense: the ranking workload's 400 x 40 rows in 512 dims; sparse:
        # 800 x 100 rows of ~128 Zipf-popular terms in 65,536 dims
        train, queries = make_clustered_corpus(3, dim=512, n_train=400, n_queries=40)
        self.check(train, queries)
        gen = np.random.default_rng(8)
        dim = 65536
        popularity = 1.0 / np.arange(1, dim + 1) ** 1.05
        popularity /= popularity.sum()

        def sparse(n):
            rows = []
            for _ in range(n):
                terms = np.unique(gen.choice(dim, size=200, p=popularity))
                rows.append(normalize(DataVector(terms, gen.random(terms.size) + 0.5, dim)))
            return Corpus.from_vectors(rows, dim)

        self.check(sparse(800), sparse(100))



class TestRankQueries:
    def test_identical_vector_ranks_first_with_estimate_one(self):
        rng_ = np.random.default_rng(2)
        dim = 32
        vecs = [normalize(vec(rng_.standard_normal(dim))) for _ in range(20)]
        cfg = ProjectionConfig(k=256, seed=9)
        store = sign_quantize(project_corpus(Corpus.from_vectors(vecs, dim), cfg))
        query = project_corpus(Corpus.from_vectors([vecs[7]], dim), cfg)
        from rpsketch import estimate_batch

        scores = estimate_batch(store, query, Estimator.S_NORM)
        assert scores.rho_hat[0, 7] == 1.0
        (ranking,) = rank_queries(store, query, Estimator.S_NORM)
        assert ranking[0] == 7

    def test_tie_broken_by_lower_index(self):
        store = sign_store(*[[1.0, -1.0, 1.0, 1.0]] * 3)
        query = full_store([0.5, -0.5, 0.5, 0.5])
        (ranking,) = rank_queries(store, query, Estimator.G_NORM)
        assert ranking.tolist() == [0, 1, 2]

    def test_large_k_ranking_tracks_truth(self):
        rng_ = np.random.default_rng(3)
        dim = 24
        vecs = [normalize(vec(rng_.standard_normal(dim))) for _ in range(50)]
        query_vec = normalize(vec(rng_.standard_normal(dim)))
        cfg = ProjectionConfig(k=10_000, seed=13)
        store = sign_quantize(project_corpus(Corpus.from_vectors(vecs, dim), cfg))
        query = project_corpus(Corpus.from_vectors([query_vec], dim), cfg)
        (ranking,) = rank_queries(store, query, Estimator.S_NORM)
        truth = np.array([cosine(query_vec, t) for t in vecs])
        est_rank_of = np.empty(50)
        est_rank_of[ranking] = np.arange(50)
        true_order = np.argsort(-truth)
        true_rank_of = np.empty(50)
        true_rank_of[true_order] = np.arange(50)
        corr = scipy.stats.spearmanr(est_rank_of, true_rank_of).statistic
        assert corr >= 0.95

    def test_full_estimator_rejected(self):
        with pytest.raises(ContractError):
            rank_queries(sign_store(np.ones(8)), full_store(np.ones(8)), Estimator.FULL_NORM)


class TestPrCurve:
    def test_hand_enumeration(self):
        ranking = np.array([2, 0, 4, 1, 3])
        relevance = np.array([0, 4])
        curve = pr_curve([ranking], [relevance])
        expected = [(1, 0.0, 0.0), (2, 1 / 2, 1 / 2), (3, 2 / 3, 1.0),
                    (4, 2 / 4, 1.0), (5, 2 / 5, 1.0)]
        assert points(curve) == expected

    def test_perfect_prefix(self):
        ls, precision, recall = pr_curve([np.array([1, 0, 2])], [np.array([0, 1])],
                                         l_grid=[2])
        assert ls.tolist() == [2] and precision[0] == 1.0 and recall[0] == 1.0

    def test_recall_one_at_full_sweep(self):
        ranking = np.array([3, 1, 0, 2])
        _, _, recall = pr_curve([ranking], [np.array([0])])
        assert recall[-1] == 1.0

    def test_recall_monotone(self):
        rng_ = np.random.default_rng(4)
        ranking = rng_.permutation(40)
        rel = rng_.choice(40, size=7, replace=False)
        _, _, recalls = pr_curve([ranking], [rel])
        assert recalls.size == 40 and np.all(np.diff(recalls) >= 0.0)

    def test_empty_relevance_excluded_from_average(self):
        r1 = np.array([0, 1, 2])
        r2 = np.array([2, 1, 0])
        _, precision, recall = pr_curve([r1, r2], [np.array([0]), np.array([], dtype=int)])
        # only the first query counts
        assert precision[0] == 1.0 and recall[0] == 1.0

    def test_all_empty_gives_empty_curve(self):
        curve = pr_curve([np.array([0, 1])], [np.array([], dtype=int)])
        assert len(curve) == 3 and all(column.size == 0 for column in curve)
        assert points(curve) == [] and interpolated_precision(curve, 0.5) == 0.0

    def test_integer_products_before_averaging(self):
        ranking = np.array([4, 2, 0, 3, 1])
        rel = np.array([2, 3])
        for L, precision, recall in points(pr_curve([ranking], [rel])):
            assert (precision * L) == pytest.approx(round(precision * L))
            assert (recall * len(rel)) == pytest.approx(round(recall * len(rel)))

    def test_l_grid_validated(self):
        with pytest.raises(ConfigError):
            pr_curve([np.array([0, 1])], [np.array([0])], l_grid=[5])

    def test_negative_relevance_index_rejected(self):
        # -1 used to wrap to item 2 and report recall 1.0 at L = 3
        with pytest.raises(ShapeError):
            pr_curve([np.array([0, 1, 2])], [np.array([-1])])

    def test_relevance_index_past_the_end_rejected(self):
        with pytest.raises(ShapeError):
            pr_curve([np.array([0, 1, 2])], [np.array([0, 3])])

    def test_rankings_of_unequal_length_rejected(self):
        with pytest.raises(ShapeError):
            pr_curve([np.array([0, 1, 2]), np.array([1, 0])], [np.array([0]), np.array([1])])

    @pytest.mark.parametrize("l_grid", [None, [1, 3, 17, 40]])
    def test_matches_per_query_loop_bitwise(self, l_grid):
        gen = np.random.default_rng(9)
        n = 40
        rankings = [gen.permutation(n) for _ in range(30)]
        relevance = [gen.choice(n, size=gen.integers(0, 12), replace=False)
                     for _ in range(30)]
        ls = np.arange(1, n + 1) if l_grid is None else np.asarray(l_grid)
        prec_sum, rec_sum, included = np.zeros(ls.size), np.zeros(ls.size), 0
        for ranked, rel in zip(rankings, relevance):
            if len(rel):
                included += 1
                mask = np.zeros(n, dtype=bool)
                mask[rel] = True
                hits = np.cumsum(mask[ranked])[ls - 1]
                prec_sum += hits / ls
                rec_sum += hits / len(rel)
        assert points(pr_curve(rankings, relevance, l_grid)) == [
            (int(l), p / included, r / included) for l, p, r in zip(ls, prec_sum, rec_sum)]


class TestInterpolatedPrecision:
    def test_takes_max_beyond_level(self):
        curve = (np.array([1, 2, 3]), np.array([0.2, 0.9, 0.6]), np.array([0.1, 0.5, 1.0]))
        assert interpolated_precision(curve, 0.5) == 0.9
        assert interpolated_precision(curve, 0.8) == 0.6

    def test_empty_when_unreachable(self):
        curve = (np.array([1]), np.array([1.0]), np.array([0.3]))
        assert interpolated_precision(curve, 0.5) == 0.0


class TestBenchmark:
    def test_deterministic(self):
        train, queries = make_clustered_corpus(3, dim=64, n_clusters=4,
                                               n_train=40, n_queries=8)
        args = (train, queries, [32], [0.8], [Estimator.S_NORM], 5)
        runs = [[(est, r0, k, points(curve)) for est, r0, k, curve in benchmark_grid(*args)]
                for _ in range(2)]
        assert runs[0] == runs[1] and len(runs[0]) == 1

    def test_run_benchmark_single_combo(self):
        train, queries = make_clustered_corpus(4, dim=64, n_clusters=4,
                                               n_train=40, n_queries=8)
        rows = benchmark_grid(train, queries, [32], [0.8],
                              (Estimator.S_NORM, Estimator.SIGN_SIGN), 6)
        assert [(est, r0, k) for est, r0, k, _ in rows] == [
            (Estimator.S_NORM, 0.8, 32), (Estimator.SIGN_SIGN, 0.8, 32)]
        for _, _, _, (ls, precision, recall) in rows:
            assert ls.tolist() == list(range(1, 41))  # full L sweep
            assert precision.shape == recall.shape == (40,)

    def test_ground_truth_estimator_agnostic(self):
        train, queries = make_clustered_corpus(5, dim=64, n_clusters=4,
                                               n_train=30, n_queries=6)
        rel_a = ground_truth(train, queries, 0.7)
        rel_b = ground_truth(train, queries, 0.7)
        for a, b in zip(rel_a, rel_b):
            assert np.array_equal(a, b)

    def test_config_validated(self):
        # an empty estimator list is a usage error of the CLI (test_cli.py)
        train, queries = make_clustered_corpus(3, dim=8, n_clusters=1, n_train=4,
                                               n_queries=1)
        with pytest.raises(ConfigError):
            benchmark_grid(train, queries, [0], [0.5], [Estimator.S], seed=1)
        with pytest.raises(ConfigError):
            benchmark_grid(train, queries, [1], [0.0], [Estimator.S], seed=1)

    @pytest.mark.parametrize("rho0", [-1.0, 0.0, 2.0, math.nan])
    def test_grid_rejects_rho0_outside_unit_interval(self, rho0):
        train, queries = make_clustered_corpus(3, dim=8, n_clusters=1, n_train=4,
                                               n_queries=1)
        with pytest.raises(ConfigError, match=r"rho0 must lie in \(0, 1\]"):
            benchmark_grid(train, queries, [8], [0.5, rho0], [Estimator.S], seed=1)


class TestClusteredCorpus:
    def test_shapes_and_norms(self):
        train, queries = make_clustered_corpus(7, dim=96, n_clusters=6,
                                               n_train=60, n_queries=12)
        assert len(train) == 60 and len(queries) == 12
        assert train.dim == queries.dim == 96
        for v in list(train)[:10]:
            assert abs(math.sqrt(float(np.dot(v.values, v.values))) - 1.0) < 1e-12

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

    def test_member_levels_follow_the_slot_rotation(self):
        # the rotation of ((0.1, 2), (0.5, 0), (2.0, 3)) is 0.1, 0.1, 2.0, 2.0, 2.0;
        # member m takes slot (m // n_clusters) mod 5, as a one-level corpus would
        args = dict(dim=16, n_clusters=2, n_train=14, n_queries=3)
        mixed = make_clustered_corpus(14, **args, spread_levels=((0.1, 2), (0.5, 0), (2.0, 3)))
        single = {v: make_clustered_corpus(14, **args, spread_levels=((v, 1),))
                  for v in (0.1, 2.0)}
        rotation = [0.1, 0.1, 2.0, 2.0, 2.0]
        for side in (0, 1):
            for m, row in enumerate(mixed[side]):
                level = rotation[(m // 2) % 5]
                assert np.array_equal(row.values, single[level][side][m].values)

    def test_bad_slot_counts_rejected(self):
        for levels in (((0.1, -1), (0.5, 2)), ((0.1, 0),), ()):
            with pytest.raises(ConfigError):
                make_clustered_corpus(1, dim=8, n_clusters=1, n_train=1,
                                      n_queries=0, spread_levels=levels)

    @pytest.mark.parametrize("value", [-0.5, math.nan, math.inf, -math.inf])
    def test_bad_level_values_rejected(self, value):
        with pytest.raises(ConfigError, match="finite and >= 0"):
            make_clustered_corpus(1, dim=8, n_clusters=1, n_train=1, n_queries=0,
                                  spread_levels=((0.1, 1), (value, 1)))

    def test_member_whose_norm_overflows_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="norm inf"):
            make_clustered_corpus(1, dim=8, n_clusters=1, n_train=3, n_queries=0,
                                  spread_levels=((1e308, 1),))

    def test_huge_slot_count_builds_no_slot_list(self):
        tracemalloc.start()
        try:
            train, _ = make_clustered_corpus(1, dim=8, n_clusters=1, n_train=3, n_queries=1,
                                             spread_levels=((0.1, 10**12), (2.0, 1)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(train) == 3 and peak < 2**20
