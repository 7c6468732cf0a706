import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import clustered_corpus, corpus, cosine, full_store, normalize, rows, sign_store
from rpsketch import (Corpus, Estimator, ProjectionConfig, benchmark_grid,
                      interpolated_precision, make_clustered_corpus, pr_curve,
                      project_corpus, rank_queries, sign_quantize)
from rpsketch import bench
from rpsketch.bench import _relevant, exact_cosines
from rpsketch.errors import ConfigError, ContractError, DomainError, ShapeError
from rpsketch.vectors import load_sparse_text


def ground_truth(train: Corpus, queries: Corpus, rho0: float) -> list[np.ndarray]:
    """Per query, the training indices whose exact cosine is >= rho0."""
    return _relevant(exact_cosines(train, queries), rho0)


def to_dense(c: Corpus) -> np.ndarray:
    """The rows of a corpus as a dense (n, dim) array."""
    out = np.zeros((len(c), c.dim))
    out[np.repeat(np.arange(len(c)), np.diff(c.indptr)), c.indices] = c.values
    return out


def points(curve) -> list[tuple[int, float, float]]:
    """A curve's (L, precision, recall) columns as rows of Python numbers."""
    return list(zip(*(column.tolist() for column in curve)))


def axis(i, dim):
    dense = np.zeros(dim)
    dense[i] = 1.0
    return dense


class TestGroundTruth:
    def test_exact_duplicate_at_threshold_one(self):
        train = corpus((axis(0, 4), axis(1, 4), axis(2, 4)), 4)
        queries = corpus((axis(1, 4),), 4)
        (rel,) = ground_truth(train, queries, 1.0)
        assert rel.tolist() == [1]

    def test_threshold_above_everything(self):
        rng_ = np.random.default_rng(1)
        train = corpus([normalize(rng_.standard_normal(16)) for _ in range(5)], 16)
        queries = corpus((normalize(rng_.standard_normal(16)),), 16)
        sims = [cosine(queries, t) for t in rows(train)]
        rho0 = max(sims) + 1e-9
        (rel,) = ground_truth(train, queries, rho0)
        assert rel.size == 0

    def test_hand_enumerated_sets(self):
        train = corpus(([1.0, 0.0], normalize([1.0, 1.0]), [0.0, 1.0]), 2)
        queries = corpus(([1.0, 0.0],), 2)
        # cosines: 1.0, 0.7071, 0.0
        (rel,) = ground_truth(train, queries, 0.5)
        assert rel.tolist() == [0, 1]

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            ground_truth(corpus((axis(0, 3),), 3), corpus((axis(0, 4),), 4), 0.5)

    def test_empty_corpus(self):
        with pytest.raises(ConfigError):
            ground_truth(corpus((), 3), corpus((axis(0, 3),), 3), 0.5)


class TestExactCosines:
    @staticmethod
    def unit_corpus(gen, n, dim, density):
        unit = []
        for _ in range(n):
            dense = gen.standard_normal(dim) * (gen.random(dim) < density)
            dense[gen.integers(dim)] = 1.0  # no empty row
            unit.append(normalize(dense))
        return corpus(unit, dim)

    @pytest.mark.parametrize("density", [0.05, 0.3, 1.0])
    def test_equals_dense_product(self, density):
        gen = np.random.default_rng(17)
        train, queries = (self.unit_corpus(gen, n, 60, density) for n in (41, 9))

        sims = exact_cosines(train, queries)
        assert sims.shape == (9, 41)
        np.testing.assert_allclose(sims, to_dense(queries) @ to_dense(train).T,
                                   rtol=0, atol=1e-12)

    def test_no_queries_gives_no_rows(self):
        train = corpus((axis(0, 3), axis(2, 3)), 3)
        assert exact_cosines(train, corpus((), 3)).shape == (0, 2)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            exact_cosines(corpus((axis(0, 3),), 3), corpus((axis(0, 4),), 4))

    def test_empty_training_corpus(self):
        with pytest.raises(ConfigError):
            exact_cosines(corpus((), 3), corpus((axis(0, 3),), 3))


def bincount_cosines(train: Corpus, queries: Corpus) -> np.ndarray:
    """Reference: each query scattered into a dense vector, and every training
    nonzero's product with it summed per row by bincount, in index order."""
    row_of_nnz = np.repeat(np.arange(len(train)), np.diff(train.indptr))
    dense, out = np.zeros(train.dim), np.empty((len(queries), len(train)))
    for i, (indices, values) in enumerate(rows(queries)):
        dense[indices] = values
        out[i] = np.bincount(row_of_nnz, train.values * dense[train.indices], len(train))
        dense[indices] = 0.0
    return out


def random_corpus(gen, n, dim, density, always=None, never=None):
    """n unit rows; columns in `always` are on every row, those in `never` on
    none, the rest each with probability `density` (one forced if empty)."""
    always = np.zeros(dim, bool) if always is None else always
    allowed = ~always if never is None else ~(always | never)
    unit = []
    for _ in range(n):
        on = always | (allowed & (gen.random(dim) < density))
        if not on.any():
            on[gen.choice(np.flatnonzero(allowed | always))] = True
        dense = np.where(on, gen.standard_normal(dim), 0.0)
        dense[on & (dense == 0.0)] = 1.0
        unit.append(normalize(dense))
    return corpus(unit, dim)


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

    def test_one_pair_adds_in_index_order(self):
        # a lone cosine is folded too, where numpy would add a reduced
        # column pairwise; magnitudes far apart make the order show
        gen = np.random.default_rng(9)
        for dim in (6, 9, 40):
            pair = gen.standard_normal((2, dim)) * 10.0 ** gen.integers(-8, 8, (2, dim))
            pair[1, dim // 2] = 0.0  # an index the query holds alone splits the run
            pair[1, dim // 3] = 0.0
            self.check(corpus([normalize(pair[1])], dim), corpus([normalize(pair[0])], dim))
            self.check(corpus([normalize(pair[0])], dim), corpus([normalize(pair[1])], dim))

    def test_zero_queries(self):
        gen = np.random.default_rng(7)
        self.check(random_corpus(gen, 9, 10, 1.0), random_corpus(gen, 0, 10, 1.0))

    def test_opposite_products_cancel_to_positive_zero(self):
        # (+a)(+b) + (-a)(+b) = +0 exactly; later meeting columns add onto it
        train = corpus([([0, 1, 3], [0.6, -0.6, math.sqrt(0.28)])], 4)
        queries = corpus([([0, 1, 2], [0.5, 0.5, math.sqrt(0.5)])], 4)
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
            unit = []
            for _ in range(n):
                terms = np.unique(gen.choice(dim, size=200, p=popularity))
                unit.append(normalize((terms, gen.random(terms.size) + 0.5)))
            return corpus(unit, dim)

        self.check(sparse(800), sparse(100))

    @pytest.mark.parametrize("dim", [1, 8, 300])
    def test_memory_beyond_the_output_is_the_fold_budget(self, dim):
        # every column is full on both sides, so all of it is folded; the
        # per-index loop held a second (n_query, n_train) buffer
        gen = np.random.default_rng(dim)
        train, queries = (random_corpus(gen, n, dim, 1.0) for n in (600, 600))
        nnz = train.values.size + queries.values.size
        tracemalloc.start()
        try:
            sims = exact_cosines(train, queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sims.tobytes() == bincount_cosines(train, queries).tobytes()
        assert peak - sims.nbytes < 8 * bench._FOLD_VALUES + 2**18 + 48 * nnz, peak



class TestExactCosinesDensePath:
    """Two corpora whose rows each hold every index go to the fold as their
    value matrices, with no column views; anything else takes the general
    path.  Both must equal the scatter-and-bincount sum bit for bit."""

    @staticmethod
    def check(train, queries, dense, monkeypatch):
        views = []
        by_column = bench._by_column
        monkeypatch.setattr(bench, "_by_column", lambda c: views.append(c) or by_column(c))
        TestExactCosinesBitwise.check(train, queries)
        assert views == ([] if dense else [train, queries])

    def test_dense_corpora_skip_the_column_views(self, monkeypatch):
        gen = np.random.default_rng(11)
        for dim, n_train, n_query in ((1, 3, 2), (7, 1, 1), (64, 30, 9), (600, 120, 3)):
            self.check(random_corpus(gen, n_train, dim, 1.0),
                       random_corpus(gen, n_query, dim, 1.0), True, monkeypatch)

    def test_empty_query_corpus(self, monkeypatch):
        gen = np.random.default_rng(12)
        train = random_corpus(gen, 5, 16, 1.0)
        for n_query in (0, 1):
            queries = random_corpus(gen, n_query, 16, 1.0)
            self.check(train, queries, n_query > 0, monkeypatch)
        assert exact_cosines(train, random_corpus(gen, 0, 16, 1.0)).shape == (0, 5)

    def test_dense_file_with_one_explicit_zero(self, tmp_path, monkeypatch):
        # the parser drops the 0.0, so one row lacks an index: the general path
        dense = np.random.default_rng(13).standard_normal((6, 12))
        for name in ("full.txt", "zero.txt"):
            (tmp_path / name).write_text("".join(
                " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row.tolist())) + "\n"
                for row in dense))
            dense[4, 4] = 0.0
        full, with_zero = (load_sparse_text(tmp_path / name, 12) for name in ("full.txt",
                                                                           "zero.txt"))
        assert "5:0.0 " in (tmp_path / "zero.txt").read_text()
        assert with_zero.values.size == full.values.size - 1
        self.check(full, full, True, monkeypatch)
        self.check(with_zero, full, False, monkeypatch)
        self.check(full, with_zero, False, monkeypatch)

    def test_dense_training_rows_against_sparse_queries(self, monkeypatch):
        gen = np.random.default_rng(14)
        train = random_corpus(gen, 20, 30, 1.0)
        self.check(train, random_corpus(gen, 8, 30, 0.3), False, monkeypatch)
        self.check(random_corpus(gen, 8, 30, 0.3), train, False, monkeypatch)

    def test_dim_mismatch_still_raises(self):
        gen = np.random.default_rng(15)
        with pytest.raises(ShapeError):
            exact_cosines(random_corpus(gen, 3, 8, 1.0), random_corpus(gen, 2, 9, 1.0))


def int64_column_view(corpus: Corpus) -> tuple[np.ndarray, ...]:
    """_by_column as a stable argsort of the int64 indices computes it."""
    order = np.argsort(corpus.indices, kind="stable")
    cols = corpus.indices[order]
    start = np.flatnonzero(np.diff(cols, prepend=-1))
    rows_ = np.repeat(np.arange(len(corpus)), np.diff(corpus.indptr))[order]
    return rows_, cols, corpus.values[order], start, np.diff(start, append=cols.size)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.sampled_from([1, 5, 2**16 - 1, 2**16, 2**16 + 1, 2**40]))
def test_column_views_equal_an_int64_sort(data, dim):
    # uint16 keys where the dim allows them; the edge indices dim - 1 and
    # 0 are drawn often, and 65,535 and 65,536 sit at the key width's edge
    index = st.one_of(st.integers(0, dim - 1), st.sampled_from([0, dim - 1]))
    supports = data.draw(st.lists(st.sets(index, min_size=1, max_size=10), max_size=10))
    c = corpus([(sorted(sup), np.arange(1.0, len(sup) + 1)) for sup in supports], dim)
    got, want = bench._by_column(c), int64_column_view(c)
    assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


class TestRankQueries:
    def test_identical_vector_ranks_first_with_estimate_one(self):
        rng_ = np.random.default_rng(2)
        dim = 32
        vecs = [normalize(rng_.standard_normal(dim)) for _ in range(20)]
        cfg = ProjectionConfig(k=256, seed=9)
        store = sign_quantize(project_corpus(corpus(vecs, dim), cfg))
        query = project_corpus(corpus([vecs[7]], dim), cfg)
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
        vecs = [normalize(rng_.standard_normal(dim)) for _ in range(50)]
        query_vec = normalize(rng_.standard_normal(dim))
        cfg = ProjectionConfig(k=10_000, seed=13)
        store = sign_quantize(project_corpus(corpus(vecs, dim), cfg))
        query = project_corpus(corpus([query_vec], dim), cfg)
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

    def test_repeated_l_refused(self):
        # a repeated L used to give its curve point twice
        with pytest.raises(ConfigError, match="distinct"):
            pr_curve([np.array([0, 1])], [np.array([0])], l_grid=[1, 2, 1])

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

    @pytest.mark.parametrize("l_grid", [[0, 2], [1, 1, 2], [5], []])
    def test_bad_l_grid_refused_before_any_work(self, l_grid, monkeypatch):
        train, queries = make_clustered_corpus(3, dim=8, n_clusters=1, n_train=4,
                                               n_queries=1)

        def never(*args, **kwargs):
            raise AssertionError("work started before the L grid was checked")

        monkeypatch.setattr(bench, "exact_cosines", never)
        monkeypatch.setattr(bench, "project_corpus", never)
        with pytest.raises(ConfigError, match="L grid"):
            benchmark_grid(train, queries, [8], [0.5], [Estimator.S], seed=1, l_grid=l_grid)

    def test_one_warning_per_rho0_without_relevant_pairs(self, caplog):
        # 1:1 and 2:1 against 3:1: every cosine is 0, so no rho0 in (0, 1] is reached
        train = corpus([np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])], 3)
        queries = corpus([np.array([0.0, 0.0, 1.0])], 3)
        estimators = (Estimator.SIGN_SIGN, Estimator.G_NORM, Estimator.S_NORM)
        with caplog.at_level("WARNING", logger="rpsketch.bench"):
            rows = benchmark_grid(train, queries, [8, 16], [0.9, 0.5, 0.9], estimators, seed=3)
        assert len(rows) == 18 and all(curve[0].size == 0 for *_, curve in rows)
        assert [r.getMessage() for r in caplog.records] == [
            f"every query had an empty relevance set at rho0 {r0}; its curves are empty"
            for r0 in (0.9, 0.5)]

    @pytest.mark.parametrize("rho0", [-1.0, 0.0, 2.0, math.nan])
    def test_grid_rejects_rho0_outside_unit_interval(self, rho0):
        train, queries = make_clustered_corpus(3, dim=8, n_clusters=1, n_train=4,
                                               n_queries=1)
        with pytest.raises(ConfigError, match=r"rho0 must lie in \(0, 1\]"):
            benchmark_grid(train, queries, [8], [0.5, rho0], [Estimator.S], seed=1)


def sparse_pair(seed: int, dim: int = 4000, terms: int = 40) -> tuple[Corpus, Corpus]:
    """30 training and 7 query rows of ~terms Zipf-popular indices, with one
    query a copy of a training row."""
    gen = np.random.default_rng(seed)
    popularity = 1.0 / np.arange(1, dim + 1) ** 1.05
    popularity /= popularity.sum()
    unit = []
    for _ in range(36):
        indices = np.unique(gen.choice(dim, size=terms, p=popularity))
        unit.append(normalize((indices, gen.random(indices.size) + 0.5)))
    return corpus(unit[:30], dim), corpus(unit[30:] + unit[4:5], dim)


class TestSharedGrid:
    """benchmark_grid draws the rows of R once, at the largest k, and slices
    that grid per k; every store it ranks must be the bits of its own
    per-k projection.  Slicing the k = 255 stores would not be: BLAS sums a
    column tail its own way, so the first k outputs of a wider product can
    differ from a product k wide."""

    KS = (1, 7, 63, 64, 255)

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_stores_and_curves_equal_per_k_projections(self, kind, monkeypatch):
        if kind == "dense":
            train, queries = make_clustered_corpus(4, dim=96, n_clusters=3, n_train=30,
                                                   n_queries=7)
        else:
            train, queries = sparse_pair(9)
        ranked, rank = [], bench.rank_queries

        def recording(store, query_sketches, est):
            ranked.append((store.bits.tobytes(), query_sketches.values.tobytes()))
            return rank(store, query_sketches, est)

        monkeypatch.setattr(bench, "rank_queries", recording)
        estimators = (Estimator.SIGN_SIGN, Estimator.S_NORM)
        rows = benchmark_grid(train, queries, self.KS, [0.3], estimators, 21, threads=2)
        monkeypatch.undo()
        want_ranked, want_rows = [], []
        relevance = ground_truth(train, queries, 0.3)
        for k in self.KS:
            cfg = ProjectionConfig(k, 21)
            store = sign_quantize(project_corpus(train, cfg))
            query_sketches = project_corpus(queries, cfg)
            for est in estimators:
                want_ranked.append((store.bits.tobytes(), query_sketches.values.tobytes()))
                curve = pr_curve(rank_queries(store, query_sketches, est), relevance)
                want_rows.append((est, 0.3, k, [c.tobytes() for c in curve]))
        assert ranked == want_ranked
        assert [(est, r0, k, [c.tobytes() for c in curve])
                for est, r0, k, curve in rows] == want_rows


class TestClusteredCorpus:
    def test_shapes_and_norms(self):
        train, queries = make_clustered_corpus(7, dim=96, n_clusters=6,
                                               n_train=60, n_queries=12)
        assert len(train) == 60 and len(queries) == 12
        assert train.dim == queries.dim == 96
        for _, values in rows(train):
            assert abs(math.sqrt(float(np.dot(values, values))) - 1.0) < 1e-12

    def test_deterministic_in_seed(self):
        a, _ = make_clustered_corpus(11, dim=32, n_clusters=2, n_train=8,
                                     n_queries=2)
        b, _ = make_clustered_corpus(11, dim=32, n_clusters=2, n_train=8,
                                     n_queries=2)
        assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)
        c, _ = make_clustered_corpus(12, dim=32, n_clusters=2, n_train=8,
                                     n_queries=2)
        assert not np.array_equal(a.values[:32], c.values[:32])

    def test_same_cluster_pairs_sit_in_high_band(self):
        train, _ = make_clustered_corpus(13, dim=512, n_clusters=5,
                                         n_train=50, n_queries=0,
                                         spread_levels=((0.05, 1),))
        # members 0 and 5 share cluster 0 at the tight level: cos ~ 1/1.05
        members = rows(train)
        same = cosine(members[0], members[5])
        other = cosine(members[0], members[1])
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
            for m, (_, values) in enumerate(rows(mixed[side])):
                level = rotation[(m // 2) % 5]
                assert np.array_equal(values, rows(single[level][side])[m][1])

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

    @pytest.mark.parametrize("seed, dim, n_clusters, n_train, n_queries, levels", [
        (1, 512, 10, 300, 30, ((0.05, 4), (0.30, 3), (1.50, 3))),
        (5, 37, 7, 120, 17, ((0.0, 2), (0.3, 1), (1.5, 2))),  # a 0.0 level: centers only
        (2, 1, 3, 20, 4, ((0.5, 1),)),
        (3, 9, 40, 25, 0, ((0.1, 1), (2.0, 2))),  # more clusters than members, no queries
        (4, 16, 3, 50, 60, ((0.2, 2), (0.7, 10**20), (4.0, 1))),  # slots beyond int64
    ])
    def test_equals_the_per_member_construction(self, seed, dim, n_clusters, n_train,
                                                n_queries, levels):
        args = (seed, dim, n_clusters, n_train, n_queries, levels)
        for got, want in zip(make_clustered_corpus(*args), clustered_corpus(*args)):
            for field in ("indptr", "indices", "values"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
            assert (got.dim, got.skipped) == (want.dim, want.skipped)

    @pytest.mark.parametrize("seed, dim, n_train, n_queries", [
        (1, 8, 12, 2),  # training member 7 is the first whose norm overflows
        (4, 1, 4, 10),  # no training member overflows; query 7 is the first
    ])
    def test_first_bad_member_raises_as_per_member(self, seed, dim, n_train, n_queries):
        args = (seed, dim, 2, n_train, n_queries, ((0.1, 1), (1.7e308, 1)))
        errors = []
        for build in (make_clustered_corpus, clustered_corpus):
            with np.errstate(over="ignore"), pytest.raises(DomainError) as err:
                build(*args)
            errors.append(str(err.value))
        assert errors[0] == errors[1] == "cannot normalize a vector of norm inf"

    def test_peak_memory_in_proportion_to_the_values_drawn(self):
        # 40,550 x 64 values: the noise grid, the mask and one corpus's
        # indices and values are alive at once, ~3.2 times the grid's bytes
        n_clusters, n_train, n_queries, dim = 50, 40_000, 500, 64
        drawn = 8 * (n_clusters + n_train + n_queries) * dim
        tracemalloc.start()
        try:
            train, queries = make_clustered_corpus(3, dim, n_clusters, n_train, n_queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(train) == n_train and len(queries) == n_queries
        assert peak < 4 * drawn, peak / drawn

    def test_huge_slot_count_builds_no_slot_list(self):
        tracemalloc.start()
        try:
            train, _ = make_clustered_corpus(1, dim=8, n_clusters=1, n_train=3, n_queries=1,
                                             spread_levels=((0.1, 10**12), (2.0, 1)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(train) == 3 and peak < 2**20
