import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Score, full_store, mle_full, mle_row, one_row, score_one, sign_store
from rpsketch import (DomainError, Estimator, ShapeError, SignStore, estimate_batch, mle,
                      sign_quantize)
from rpsketch import estimators, rng
from rpsketch.errors import ContractError, DegenerateInputError

SQRT_HALF_PI = math.sqrt(math.pi / 2)
SQRT_TAU = math.sqrt(2 * math.pi)


class TestSignSign:
    def test_identical_sketches(self):
        a = [1.0, -2.0, 3.0, -4.0]
        assert score_one(Estimator.SIGN_SIGN, a, a).rho_hat == 1.0

    def test_half_matching(self):
        a = [1.0, 1.0, 1.0, 1.0]
        b = [1.0, 1.0, -1.0, -1.0]
        assert score_one(Estimator.SIGN_SIGN, a, b).rho_hat == pytest.approx(0.0, abs=1e-15)

    def test_three_of_four(self):
        a = [1.0, 1.0, 1.0, 1.0]
        b = [1.0, 1.0, 1.0, -1.0]
        assert score_one(Estimator.SIGN_SIGN, a, b).rho_hat == pytest.approx(
            math.cos(math.pi / 4), abs=1e-15)

    def test_never_clamped(self):
        a = [1.0, -1.0]
        b = [-1.0, 1.0]
        rep = score_one(Estimator.SIGN_SIGN, a, b)
        assert rep.rho_hat == -1.0 and not rep.clamped

    def test_matches_direct_agreement_count(self):
        rng_ = np.random.default_rng(8)
        for _ in range(25):
            x = rng_.standard_normal(53)
            y = rng_.standard_normal(53)
            got = score_one(Estimator.SIGN_SIGN, x, y).rho_hat
            m = int(np.sum((x >= 0) == (y >= 0)))
            assert got == float(np.cos(np.pi * (1.0 - m / 53)))

    def test_k_mismatch(self):
        with pytest.raises(ShapeError):
            score_one(Estimator.SIGN_SIGN, [1.0], [1.0, 2.0])


class TestFull:
    def test_self_product_clamps_above_one(self):
        x = np.array([2.0, 2.0])
        rep = score_one(Estimator.FULL, x, x)
        assert rep.clamped and rep.rho_hat == 1.0 and rep.raw == 4.0

    def test_sign_symmetry(self):
        x = np.array([2.0, 2.0])
        a = score_one(Estimator.FULL, x, x)
        b = score_one(Estimator.FULL, x, -x)
        assert b.raw == -a.raw and b.rho_hat == -1.0 and b.clamped

    def test_hand_arithmetic(self):
        rep = score_one(Estimator.FULL, [1.0, 1.0], [0.5, 0.3])
        assert rep.rho_hat == pytest.approx(0.4, abs=1e-15)
        assert not rep.clamped


class TestFullNorm:
    def test_self_is_exactly_one(self):
        x = np.random.default_rng(1).standard_normal(100)
        rep = score_one(Estimator.FULL_NORM, x, x)
        assert rep.rho_hat == 1.0 and not rep.clamped

    def test_negation_is_minus_one(self):
        x = np.random.default_rng(2).standard_normal(100)
        assert score_one(Estimator.FULL_NORM, x, -x).rho_hat == -1.0

    def test_hand_arithmetic(self):
        assert score_one(Estimator.FULL_NORM, [1.0, 0.0], [1.0, 1.0]).rho_hat == pytest.approx(
            1 / math.sqrt(2), abs=1e-15)

    def test_zero_sketch_rejected(self):
        with pytest.raises(DomainError):
            score_one(Estimator.FULL_NORM, np.zeros(3), np.ones(3))


class TestG:
    def test_inverts_first_moment_at_one(self):
        s = math.sqrt(2 / math.pi)
        rep = score_one(Estimator.G, [1.0, 1.0], [s, s])
        assert rep.rho_hat == pytest.approx(1.0, abs=1e-15)

    def test_zero_query(self):
        rep = score_one(Estimator.G, [1.0, -1.0], [0.0, 0.0])
        assert rep.rho_hat == 0.0

    def test_hand_arithmetic(self):
        rep = score_one(Estimator.G, [1.0, -1.0], [1.0, 0.5])
        assert rep.rho_hat == pytest.approx(0.31332853432887506, abs=1e-15)


class TestGNorm:
    def test_query_aligned_with_signs_clamps(self):
        # y = c * (+1/-1 pattern): raw sqrt(pi/2) ~ 1.2533, clamped
        rep = score_one(Estimator.G_NORM, [1.0, -1.0, 1.0], [0.7, -0.7, 0.7])
        assert rep.raw == pytest.approx(SQRT_HALF_PI, abs=1e-15)
        assert rep.clamped and rep.rho_hat == 1.0

    def test_anti_aligned_clamps_low(self):
        rep = score_one(Estimator.G_NORM, [1.0, -1.0, 1.0], [-0.7, 0.7, -0.7])
        assert rep.raw == pytest.approx(-SQRT_HALF_PI, abs=1e-15)
        assert rep.clamped and rep.rho_hat == -1.0

    def test_single_pair(self):
        rep = score_one(Estimator.G_NORM, [1.0], [2.0])
        assert rep.raw == pytest.approx(SQRT_HALF_PI, abs=1e-15)
        assert rep.rho_hat == 1.0 and rep.clamped

    def test_zero_query_rejected(self):
        with pytest.raises(DomainError):
            score_one(Estimator.G_NORM, [1.0], [0.0])


class TestS:
    def test_perfect_agreement(self):
        rep = score_one(Estimator.S, [1.0, -1.0, 1.0], [0.2, -0.3, 0.9])
        assert rep.rho_hat == 1.0 and not rep.clamped

    def test_single_mismatch_hand(self):
        rep = score_one(Estimator.S, [1.0], [-0.5])
        assert rep.rho_hat == pytest.approx(-0.25331413731550025, abs=1e-15)

    def test_two_coordinate_hand(self):
        rep = score_one(Estimator.S, [1.0, 1.0], [0.3, -0.1])
        assert rep.rho_hat == pytest.approx(0.87466858626845, abs=1e-14)

    def test_clamps_below_only(self):
        rep = score_one(Estimator.S, [1.0], [-2.0])
        assert rep.clamped and rep.rho_hat == -1.0
        assert rep.raw == pytest.approx(1 - SQRT_TAU * 2.0, abs=1e-14)

    @given(st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_one(self, seed):
        rng_ = np.random.default_rng(seed)
        k = int(rng_.integers(1, 40))
        p = (rng_.standard_normal(k), rng_.standard_normal(k))
        assert score_one(Estimator.S, *p).raw <= 1.0
        assert score_one(Estimator.S_NORM, *p).raw <= 1.0


class TestMismatchDefinition:
    def test_summand_equals_indicator_form(self):
        # y_-*1[x>=0] + y_+*1[x<0] == max(-sgn(x)*y, 0) elementwise
        rng_ = np.random.default_rng(20)
        x = rng_.standard_normal(500)
        y = rng_.standard_normal(500)
        y_plus = np.maximum(y, 0.0)
        y_minus = np.maximum(-y, 0.0)
        indicator_form = np.where(x >= 0.0, y_minus, y_plus)
        s = np.where(x >= 0.0, 1.0, -1.0) * y
        assert np.array_equal(indicator_form, np.maximum(-s, 0.0))


class TestSNorm:
    def test_perfect_agreement(self):
        rep = score_one(Estimator.S_NORM, [1.0, -1.0], [0.4, -0.8])
        assert rep.rho_hat == 1.0

    def test_single_total_mismatch(self):
        rep = score_one(Estimator.S_NORM, [1.0], [-1.0])
        assert rep.raw == pytest.approx(-1.5066282746310005, abs=1e-14)
        assert rep.clamped and rep.rho_hat == -1.0

    def test_consistent_signs(self):
        rep = score_one(Estimator.S_NORM, [1.0, -1.0], [1.0, -1.0])
        assert rep.rho_hat == 1.0

    def test_zero_query_rejected(self):
        with pytest.raises(DomainError):
            score_one(Estimator.S_NORM, [1.0], [0.0])


class TestScaleBehavior:
    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_normalized_estimators_scale_invariant(self, alpha, seed):
        rng_ = np.random.default_rng(seed)
        signs = rng_.standard_normal(24)
        y = rng_.standard_normal(24)
        base_gn = score_one(Estimator.G_NORM, signs, y).raw
        base_sn = score_one(Estimator.S_NORM, signs, y).raw
        scaled_gn = score_one(Estimator.G_NORM, signs, alpha * y).raw
        scaled_sn = score_one(Estimator.S_NORM, signs, alpha * y).raw
        assert scaled_gn == pytest.approx(base_gn, abs=1e-12)
        # s-norm raw is 1 - mismatch term: the term is scale invariant
        assert scaled_sn == pytest.approx(base_sn, abs=1e-12)

    def test_plain_g_scales_with_query(self):
        signs = [1.0, -1.0, 1.0]
        y = [0.2, 0.4, -0.3]
        base = score_one(Estimator.G, signs, y).raw
        scaled = score_one(Estimator.G, signs, [3.0 * v for v in y]).raw
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def _scores(res, j, i) -> Score:
    """Entry (j, i) of a batch result, as score_one returns it."""
    return Score(float(res.raw[j, i]), float(res.rho_hat[j, i]), bool(res.clamped[j, i]))


class TestBatch:
    def _store(self, n, k, seed):
        rng_ = np.random.default_rng(seed)
        return sign_store(*(rng_.standard_normal(k) for _ in range(n)))

    @pytest.mark.parametrize("estimator", [
        Estimator.SIGN_SIGN, Estimator.G, Estimator.G_NORM,
        Estimator.S, Estimator.S_NORM])
    def test_bitwise_equal_to_scalar_loop(self, estimator):
        store = self._store(400, 77, seed=3)
        query = np.random.default_rng(4).standard_normal(77)
        batch = estimate_batch(store, full_store(query), estimator)
        assert len(batch) == len(store)
        for i in range(len(store)):
            assert _scores(batch, 0, i) == score_one(estimator, one_row(store, i), query)

    def test_batch_of_one(self):
        store = self._store(1, 16, seed=5)
        query = np.random.default_rng(6).standard_normal(16)
        batch = estimate_batch(store, full_store(query), Estimator.S_NORM)
        assert batch.raw.shape == (1, 1)
        # the same row inside a larger store scores the same, bit for bit
        larger = SignStore(np.concatenate([self._store(3, 16, seed=50).bits, store.bits]), 16)
        many = estimate_batch(larger, full_store(query), Estimator.S_NORM)
        assert _scores(batch, 0, 0) == _scores(many, 0, 3)

    def test_identical_sketches_identical_reports(self):
        sk = np.random.default_rng(7).standard_normal(32)
        query = np.random.default_rng(8).standard_normal(32)
        batch = estimate_batch(sign_store(*[sk] * 10), full_store(query), Estimator.G_NORM)
        assert batch.rho_hat.shape == (1, 10)
        assert len(set(batch.rho_hat.ravel().tolist())) == 1

    def test_mle_batch_matches_scalar(self):
        store = self._store(5, 40, seed=9)
        query = np.random.default_rng(10).standard_normal(40)
        batch = estimate_batch(store, full_store(query), Estimator.MLE_SIGN_FULL)
        for i in range(len(store)):
            assert batch.rho_hat[0, i] == score_one(
                Estimator.MLE_SIGN_FULL, one_row(store, i), query).rho_hat

    def test_full_estimator_rejected(self):
        store = self._store(2, 8, seed=11)
        query = np.ones(8)
        for est in (Estimator.FULL, Estimator.FULL_NORM, Estimator.MLE_FULL):
            with pytest.raises(ContractError, match="cannot score a sign store"):
                estimate_batch(store, full_store(query), est)

    def test_k_mismatch_reports_index(self):
        with pytest.raises(ShapeError, match="k mismatch: queries 9 vs store 8"):
            estimate_batch(self._store(2, 8, seed=12), full_store(np.ones(9)),
                           Estimator.G)


_SIGN_STORE_CLOSED = (Estimator.SIGN_SIGN, Estimator.G, Estimator.G_NORM,
                      Estimator.S, Estimator.S_NORM)


def _random_store(seed, n, k):
    rng_ = np.random.default_rng(seed)
    store = sign_quantize(full_store(*(rng_.standard_normal(k) for _ in range(n))))
    query = rng_.standard_normal(k)
    query[rng_.random(k) < 0.1] = 0.0  # sgn(0) maps to +, |0| weighs nothing
    query[0] = query[0] or 1.0  # nonzero, for the normalized estimators
    return store, query


class TestKernelContracts:
    """The byte-table kernel against one-row stores, over k = 1..300."""

    store_shapes = (st.integers(0, 2**31), st.sampled_from([1, 7, 400]),
                    st.integers(1, 300))

    @given(*store_shapes)
    @settings(max_examples=25, deadline=None)
    def test_rows_equal_scalar_calls(self, seed, n, k):
        store, query = _random_store(seed, n, k)
        rows = range(n) if n < 400 else sorted({0, 1, 57, 199, 398, 399})
        for est in _SIGN_STORE_CLOSED:
            batch = estimate_batch(store, full_store(query), est)
            assert batch.raw.shape == (1, n)
            for i in rows:
                assert _scores(batch, 0, i) == score_one(est, one_row(store, i), query)

    @given(*store_shapes)
    @settings(max_examples=25, deadline=None)
    def test_multi_query_rows_equal_single_queries(self, seed, n, k):
        store, query = _random_store(seed, n, k)
        queries = [query, -query, 2.5 * query]
        for est in _SIGN_STORE_CLOSED:
            many = estimate_batch(store, full_store(*queries), est)
            assert many.raw.shape == (3, n) and len(many) == 3 * n
            for j, q in enumerate(queries):
                one = estimate_batch(store, full_store(q), est)
                assert np.array_equal(many.raw[j], one.raw[0])
                assert np.array_equal(many.rho_hat[j], one.rho_hat[0])
                assert np.array_equal(many.clamped[j], one.clamped[0])

    @given(*store_shapes)
    @settings(max_examples=25, deadline=None)
    def test_mismatch_estimators_exact_when_signs_agree(self, seed, n, k):
        _, query = _random_store(seed, n, k)
        store = sign_store(*[query] * n)
        for est in (Estimator.S, Estimator.S_NORM):
            batch = estimate_batch(store, full_store(query), est)
            assert np.all(batch.raw == 1.0) and np.all(batch.rho_hat == 1.0)
            assert not batch.clamped.any()

    @given(*store_shapes)
    @settings(max_examples=25, deadline=None)
    def test_sign_sign_equals_scalar_cosine(self, seed, n, k):
        store, query = _random_store(seed, n, k)
        batch = estimate_batch(store, full_store(query), Estimator.SIGN_SIGN)
        qsigns = query >= 0.0
        for i in range(n):
            stored = np.unpackbits(store.bits[i], count=k, bitorder="little") == 1
            m = int(np.sum(stored == qsigns))
            assert batch.raw[0, i] == float(np.cos(np.pi * (1 - m / k)))
        assert not batch.clamped.any()

    @given(*store_shapes)
    @settings(max_examples=15, deadline=None)
    def test_mle_rows_equal_scalar_and_single_query_calls(self, seed, n, k):
        store, query = _random_store(seed, n, k)
        queries = [query, -query, 2.5 * query]
        many = estimate_batch(store, full_store(*queries), Estimator.MLE_SIGN_FULL)
        assert many.raw.shape == (3, n)
        for j, q in enumerate(queries):
            one = estimate_batch(store, full_store(q), Estimator.MLE_SIGN_FULL)
            assert np.array_equal(many.raw[j], one.raw[0])
            assert np.array_equal(many.clamped[j], one.clamped[0])
        rows = range(n) if n < 400 else sorted({0, 1, 57, 199, 398, 399})
        for i in rows:
            rep = score_one(Estimator.MLE_SIGN_FULL, one_row(store, i), query)
            res = mle_row(mle.mle_sign_full_store(one_row(store, i), query))
            assert _scores(many, 0, i) == rep == (res.rho_hat, res.rho_hat, res.at_boundary)

    @given(*store_shapes)
    @settings(max_examples=10, deadline=None)
    def test_zero_query_rejected_by_normalized(self, seed, n, k):
        store, _ = _random_store(seed, n, k)
        zero = np.zeros(k)
        for est in (Estimator.G_NORM, Estimator.S_NORM):
            with pytest.raises(DomainError):
                estimate_batch(store, full_store(zero), est)
            with pytest.raises(DomainError):
                estimate_batch(store, full_store(np.ones(k), zero), est)
        with pytest.raises(DegenerateInputError):
            estimate_batch(store, full_store(zero), Estimator.MLE_SIGN_FULL)


class TestFullBatch:
    def test_rows_equal_scalar_calls(self):
        rng_ = np.random.default_rng(15)
        rows = [rng_.standard_normal(33) for _ in range(7)]
        store = full_store(*rows)
        queries = [rng_.standard_normal(33) for _ in range(3)] + rows[:1]
        for est in (Estimator.FULL, Estimator.FULL_NORM, Estimator.MLE_FULL):
            many = estimate_batch(store, full_store(*queries), est)
            assert many.raw.shape == (4, 7)
            for j, q in enumerate(queries):
                one = estimate_batch(store, full_store(q), est)
                assert np.array_equal(one.raw[0], many.raw[j])
                assert np.array_equal(one.clamped[0], many.clamped[j])
                for i in range(len(store)):
                    rep = score_one(est, one_row(store, i), q)
                    assert _scores(one, 0, i) == rep
                    if est is Estimator.MLE_FULL:  # clamped is the boundary flag
                        res = mle_full(rows[i], q)
                        assert rep == (res.rho_hat, res.rho_hat, res.at_boundary)
        # the store holds the last query: an mle-full boundary row
        assert many.clamped[3, 0] and many.clamped.sum() == 1

    def test_sign_estimator_rejected(self):
        for est in (Estimator.S_NORM, Estimator.SIGN_SIGN, Estimator.MLE_SIGN_FULL):
            with pytest.raises(ContractError, match="cannot score a full store"):
                estimate_batch(full_store(np.ones(4)), full_store(np.ones(4)), est)

    def test_zero_sketch_rejected(self):
        with pytest.raises(DomainError):
            estimate_batch(full_store(np.ones(4), np.zeros(4)),
                           full_store(np.ones(4)), Estimator.FULL_NORM)


class TestGroupedScoring:
    """The sign-store closed forms score a group of queries per table array;
    every group's values equal one-query calls."""

    @staticmethod
    def _queries(k, seed):
        """Two groups and three more queries of length k, some coordinates 0."""
        group = max(1, estimators._GROUP_VALUES // (256 * ((k + 7) // 8)))
        rng_ = np.random.default_rng(seed)
        queries = rng_.standard_normal((2 * group + 3, k)) * rng_.exponential(size=(1, k))
        queries[rng_.random(queries.shape) < 0.1] = 0.0
        queries[:, 0] = 1.0  # nonzero, for the normalized estimators
        return group, queries

    @pytest.mark.parametrize("k", [1, 7, 9, 64, 256, 1000])
    def test_groups_equal_one_query_calls(self, k):
        group, queries = self._queries(k, seed=k)
        assert len(queries) > 2 * group
        store, _ = _random_store(k + 1, 13, k)
        for est in _SIGN_STORE_CLOSED:
            many = estimate_batch(store, full_store(*queries), est)
            assert many.raw.shape == (len(queries), 13)
            for j, q in enumerate(queries):
                one = estimate_batch(store, full_store(q), est)
                assert np.array_equal(many.raw[j], one.raw[0]), (est, j)
                assert np.array_equal(many.rho_hat[j], one.rho_hat[0])
                assert np.array_equal(many.clamped[j], one.clamped[0])

    @pytest.mark.parametrize("k", [1, 7, 9, 64, 256, 1000])
    def test_abs_sum_equals_one_table_column_sum(self, k):
        # a reduction over column 255 of the group's (m, ceil(k/8), 256)
        # tables must add as the column of one query's table and as the
        # lab's byte partials do
        _, queries = self._queries(k, seed=k + 2)
        index = np.zeros((1, (k + 7) // 8), dtype=np.intp)
        stats = estimators.StoreStats(index, k, queries, np.ones(len(queries)))
        lab = estimators.SampleStats(queries, queries)
        for j, q in enumerate(queries):
            one = estimators._mismatch_table(q[None, :])[0]
            assert stats.abs_sum[j, 0] == one[:, 255].sum() == lab.abs_sum[j]

    @pytest.mark.parametrize("k", [9, 256])
    def test_zero_query_in_a_later_group_rejected(self, k):
        group, queries = self._queries(k, seed=3)
        queries[group + 1] = 0.0
        store, _ = _random_store(4, 5, k)
        for est in (Estimator.G_NORM, Estimator.S_NORM):
            with pytest.raises(DomainError, match="needs a nonzero query sketch"):
                estimate_batch(store, full_store(*queries), est)
        for est in (Estimator.SIGN_SIGN, Estimator.G, Estimator.S):
            assert np.isfinite(estimate_batch(store, full_store(*queries), est).raw).all()


class TestMonteCarloMoments:
    """Single-draw estimators are exactly unbiased with variance V(rho)."""

    N = 1_000_000

    @pytest.mark.parametrize("rho", [-0.95, -0.5, 0.0, 0.5, 0.95])
    def test_g_and_s_unbiased_with_stated_variance(self, rho):
        x, y = rng.bivariate_block(rho, seed=101, major_start=0,
                                   n_major=1, k=self.N)
        s = np.where(x[0] >= 0.0, 1.0, -1.0) * y[0]
        g_draws = SQRT_HALF_PI * s
        s_draws = 1.0 - SQRT_TAU * np.maximum(-s, 0.0)

        from rpsketch import v_factor
        vg = v_factor(Estimator.G, rho).value
        vs = v_factor(Estimator.S, rho).value
        assert abs(g_draws.mean() - rho) < 4 * math.sqrt(vg / self.N)
        assert abs(s_draws.mean() - rho) < 4 * math.sqrt(vs / self.N)
        assert abs(g_draws.var() / vg - 1.0) < 0.02
        assert abs(s_draws.var() / vs - 1.0) < 0.02
