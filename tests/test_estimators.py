import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpsketch import (DomainError, EstimateReport, Estimator, FullSketch,
                      FullStore, ShapeError, mle_sign_full, estimate_batch, estimate_full,
                      estimate_full_batch, estimate_full_norm, estimate_g,
                      estimate_g_norm, estimate_pair, estimate_s,
                      estimate_s_norm, estimate_sign_sign, quantize_store,
                      sign_quantize)
from rpsketch import rng
from rpsketch.errors import ContractError, DegenerateInputError

SQRT_HALF_PI = math.sqrt(math.pi / 2)
SQRT_TAU = math.sqrt(2 * math.pi)


def signs_of(values) -> "SignSketch":
    return sign_quantize(FullSketch(np.asarray(values, dtype=np.float64)))


def pair(sign_values, query_values) -> "tuple[SignSketch, FullSketch]":
    return (signs_of(sign_values),
            FullSketch(np.asarray(query_values, dtype=np.float64)))


class TestSignSign:
    def test_identical_sketches(self):
        a = signs_of([1.0, -2.0, 3.0, -4.0])
        assert estimate_sign_sign(a, a).rho_hat == 1.0

    def test_half_matching(self):
        a = signs_of([1.0, 1.0, 1.0, 1.0])
        b = signs_of([1.0, 1.0, -1.0, -1.0])
        assert estimate_sign_sign(a, b).rho_hat == pytest.approx(0.0, abs=1e-15)

    def test_three_of_four(self):
        a = signs_of([1.0, 1.0, 1.0, 1.0])
        b = signs_of([1.0, 1.0, 1.0, -1.0])
        assert estimate_sign_sign(a, b).rho_hat == pytest.approx(
            math.cos(math.pi / 4), abs=1e-15)

    def test_never_clamped(self):
        a = signs_of([1.0, -1.0])
        b = signs_of([-1.0, 1.0])
        rep = estimate_sign_sign(a, b)
        assert rep.rho_hat == -1.0 and not rep.clamped

    def test_matches_direct_agreement_count(self):
        rng_ = np.random.default_rng(8)
        for _ in range(25):
            x = rng_.standard_normal(53)
            y = rng_.standard_normal(53)
            got = estimate_sign_sign(signs_of(x), signs_of(y)).rho_hat
            m = int(np.sum((x >= 0) == (y >= 0)))
            assert got == float(np.cos(np.pi * (1.0 - m / 53)))

    def test_k_mismatch(self):
        with pytest.raises(ShapeError):
            estimate_sign_sign(signs_of([1.0]), signs_of([1.0, 2.0]))


class TestFull:
    def test_self_product_clamps_above_one(self):
        x = FullSketch(np.array([2.0, 2.0]))
        rep = estimate_full(x, x)
        assert rep.clamped and rep.rho_hat == 1.0 and rep.raw == 4.0

    def test_sign_symmetry(self):
        x = FullSketch(np.array([2.0, 2.0]))
        neg = FullSketch(-x.values)
        a = estimate_full(x, x)
        b = estimate_full(x, neg)
        assert b.raw == -a.raw and b.rho_hat == -1.0 and b.clamped

    def test_hand_arithmetic(self):
        x = FullSketch(np.array([1.0, 1.0]))
        y = FullSketch(np.array([0.5, 0.3]))
        rep = estimate_full(x, y)
        assert rep.rho_hat == pytest.approx(0.4, abs=1e-15)
        assert not rep.clamped


class TestFullNorm:
    def test_self_is_exactly_one(self):
        x = FullSketch(np.random.default_rng(1).standard_normal(100))
        rep = estimate_full_norm(x, x)
        assert rep.rho_hat == 1.0 and not rep.clamped

    def test_negation_is_minus_one(self):
        x = FullSketch(np.random.default_rng(2).standard_normal(100))
        assert estimate_full_norm(x, FullSketch(-x.values)).rho_hat == -1.0

    def test_hand_arithmetic(self):
        x = FullSketch(np.array([1.0, 0.0]))
        y = FullSketch(np.array([1.0, 1.0]))
        assert estimate_full_norm(x, y).rho_hat == pytest.approx(
            1 / math.sqrt(2), abs=1e-15)

    def test_zero_sketch_rejected(self):
        with pytest.raises(DomainError):
            estimate_full_norm(FullSketch(np.zeros(3)), FullSketch(np.ones(3)))


class TestG:
    def test_inverts_first_moment_at_one(self):
        s = math.sqrt(2 / math.pi)
        rep = estimate_g(*pair([1.0, 1.0], [s, s]))
        assert rep.rho_hat == pytest.approx(1.0, abs=1e-15)

    def test_zero_query(self):
        rep = estimate_g(*pair([1.0, -1.0], [0.0, 0.0]))
        assert rep.rho_hat == 0.0

    def test_hand_arithmetic(self):
        rep = estimate_g(*pair([1.0, -1.0], [1.0, 0.5]))
        assert rep.rho_hat == pytest.approx(0.31332853432887506, abs=1e-15)


class TestGNorm:
    def test_query_aligned_with_signs_clamps(self):
        # y = c * (+1/-1 pattern): raw sqrt(pi/2) ~ 1.2533, clamped
        rep = estimate_g_norm(*pair([1.0, -1.0, 1.0], [0.7, -0.7, 0.7]))
        assert rep.raw == pytest.approx(SQRT_HALF_PI, abs=1e-15)
        assert rep.clamped and rep.rho_hat == 1.0

    def test_anti_aligned_clamps_low(self):
        rep = estimate_g_norm(*pair([1.0, -1.0, 1.0], [-0.7, 0.7, -0.7]))
        assert rep.raw == pytest.approx(-SQRT_HALF_PI, abs=1e-15)
        assert rep.clamped and rep.rho_hat == -1.0

    def test_single_pair(self):
        rep = estimate_g_norm(*pair([1.0], [2.0]))
        assert rep.raw == pytest.approx(SQRT_HALF_PI, abs=1e-15)
        assert rep.rho_hat == 1.0 and rep.clamped

    def test_zero_query_rejected(self):
        with pytest.raises(DomainError):
            estimate_g_norm(*pair([1.0], [0.0]))


class TestS:
    def test_perfect_agreement(self):
        rep = estimate_s(*pair([1.0, -1.0, 1.0], [0.2, -0.3, 0.9]))
        assert rep.rho_hat == 1.0 and not rep.clamped

    def test_single_mismatch_hand(self):
        rep = estimate_s(*pair([1.0], [-0.5]))
        assert rep.rho_hat == pytest.approx(-0.25331413731550025, abs=1e-15)

    def test_two_coordinate_hand(self):
        rep = estimate_s(*pair([1.0, 1.0], [0.3, -0.1]))
        assert rep.rho_hat == pytest.approx(0.87466858626845, abs=1e-14)

    def test_clamps_below_only(self):
        rep = estimate_s(*pair([1.0], [-2.0]))
        assert rep.clamped and rep.rho_hat == -1.0
        assert rep.raw == pytest.approx(1 - SQRT_TAU * 2.0, abs=1e-14)

    @given(st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_one(self, seed):
        rng_ = np.random.default_rng(seed)
        k = int(rng_.integers(1, 40))
        p = pair(rng_.standard_normal(k), rng_.standard_normal(k))
        assert estimate_s(*p).raw <= 1.0
        assert estimate_s_norm(*p).raw <= 1.0


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
        rep = estimate_s_norm(*pair([1.0, -1.0], [0.4, -0.8]))
        assert rep.rho_hat == 1.0

    def test_single_total_mismatch(self):
        rep = estimate_s_norm(*pair([1.0], [-1.0]))
        assert rep.raw == pytest.approx(-1.5066282746310005, abs=1e-14)
        assert rep.clamped and rep.rho_hat == -1.0

    def test_consistent_signs(self):
        rep = estimate_s_norm(*pair([1.0, -1.0], [1.0, -1.0]))
        assert rep.rho_hat == 1.0

    def test_zero_query_rejected(self):
        with pytest.raises(DomainError):
            estimate_s_norm(*pair([1.0], [0.0]))


class TestScaleBehavior:
    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_normalized_estimators_scale_invariant(self, alpha, seed):
        rng_ = np.random.default_rng(seed)
        signs = rng_.standard_normal(24)
        y = rng_.standard_normal(24)
        base_gn = estimate_g_norm(*pair(signs, y)).raw
        base_sn = estimate_s_norm(*pair(signs, y)).raw
        scaled_gn = estimate_g_norm(*pair(signs, alpha * y)).raw
        scaled_sn = estimate_s_norm(*pair(signs, alpha * y)).raw
        assert scaled_gn == pytest.approx(base_gn, abs=1e-12)
        # s-norm raw is 1 - mismatch term: the term is scale invariant
        assert scaled_sn == pytest.approx(base_sn, abs=1e-12)

    def test_plain_g_scales_with_query(self):
        signs = [1.0, -1.0, 1.0]
        y = [0.2, 0.4, -0.3]
        base = estimate_g(*pair(signs, y)).raw
        scaled = estimate_g(*pair(signs, [3.0 * v for v in y])).raw
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)


class TestBatch:
    def _store(self, n, k, seed):
        rng_ = np.random.default_rng(seed)
        return [signs_of(rng_.standard_normal(k)) for _ in range(n)]

    @pytest.mark.parametrize("estimator", [
        Estimator.SIGN_SIGN, Estimator.G, Estimator.G_NORM,
        Estimator.S, Estimator.S_NORM])
    def test_bitwise_equal_to_scalar_loop(self, estimator):
        store = self._store(400, 77, seed=3)
        query = FullSketch(np.random.default_rng(4).standard_normal(77))
        batch = estimate_batch(store, query, estimator)
        assert len(batch) == len(store)
        for i, sk in enumerate(store):
            scalar = estimate_pair(estimator, sk, query)
            assert batch.rho_hat[i] == scalar.rho_hat
            assert batch.raw[i] == scalar.raw
            assert batch.clamped[i] == scalar.clamped

    def test_batch_of_one(self):
        store = self._store(1, 16, seed=5)
        query = FullSketch(np.random.default_rng(6).standard_normal(16))
        batch = estimate_batch(store, query, Estimator.S_NORM)
        rep = EstimateReport(batch.estimator, batch.k, float(batch.rho_hat[0]),
                             bool(batch.clamped[0]), float(batch.raw[0]))
        assert batch.raw.shape == (1,)
        assert rep == estimate_s_norm(store[0], query)

    def test_identical_sketches_identical_reports(self):
        sk = signs_of(np.random.default_rng(7).standard_normal(32))
        query = FullSketch(np.random.default_rng(8).standard_normal(32))
        batch = estimate_batch([sk] * 10, query, Estimator.G_NORM)
        assert batch.rho_hat.shape == (10,)
        assert len(set(batch.rho_hat.tolist())) == 1

    def test_mle_batch_matches_scalar(self):
        store = self._store(5, 40, seed=9)
        query = FullSketch(np.random.default_rng(10).standard_normal(40))
        batch = estimate_batch(store, query, Estimator.MLE_SIGN_FULL)
        for i, sk in enumerate(store):
            assert batch.rho_hat[i] == estimate_pair(
                Estimator.MLE_SIGN_FULL, sk, query).rho_hat

    def test_full_estimator_rejected(self):
        store = self._store(2, 8, seed=11)
        query = FullSketch(np.ones(8))
        with pytest.raises(ContractError):
            estimate_batch(store, query, Estimator.FULL)

    def test_k_mismatch_reports_index(self):
        store = self._store(2, 8, seed=12) + [signs_of(np.ones(9))]
        with pytest.raises(ShapeError, match="sketch 2"):
            estimate_batch(store, FullSketch(np.ones(8)), Estimator.G)


_SIGN_STORE_CLOSED = (Estimator.SIGN_SIGN, Estimator.G, Estimator.G_NORM,
                      Estimator.S, Estimator.S_NORM)


def _random_store(seed, n, k):
    rng_ = np.random.default_rng(seed)
    store = quantize_store(FullStore.stack([FullSketch(rng_.standard_normal(k))
                                            for _ in range(n)]))
    query = rng_.standard_normal(k)
    query[rng_.random(k) < 0.1] = 0.0  # sgn(0) maps to +, |0| weighs nothing
    query[0] = query[0] or 1.0  # nonzero, for the normalized estimators
    return store, FullSketch(query)


class TestKernelContracts:
    """The byte-table kernel against its scalar definitions, over k = 1..300."""

    store_shapes = (st.integers(0, 2**31), st.sampled_from([1, 7, 400]),
                    st.integers(1, 300))

    @given(*store_shapes)
    @settings(max_examples=25, deadline=None)
    def test_rows_equal_scalar_calls(self, seed, n, k):
        store, query = _random_store(seed, n, k)
        rows = range(n) if n < 400 else sorted({0, 1, 57, 199, 398, 399})
        for est in _SIGN_STORE_CLOSED:
            batch = estimate_batch(store, query, est)
            assert batch.raw.shape == (n,)
            for i in rows:
                rep = estimate_pair(est, store[i], query)
                assert (batch.raw[i], batch.rho_hat[i], batch.clamped[i]) == (
                    rep.raw, rep.rho_hat, rep.clamped)

    @given(*store_shapes)
    @settings(max_examples=25, deadline=None)
    def test_multi_query_rows_equal_single_queries(self, seed, n, k):
        store, query = _random_store(seed, n, k)
        queries = [query, FullSketch(-query.values), FullSketch(2.5 * query.values)]
        for est in _SIGN_STORE_CLOSED:
            many = estimate_batch(store, queries, est)
            assert many.raw.shape == (3, n) and len(many) == 3 * n
            for j, q in enumerate(queries):
                one = estimate_batch(store, q, est)
                assert np.array_equal(many.raw[j], one.raw)
                assert np.array_equal(many.rho_hat[j], one.rho_hat)
                assert np.array_equal(many.clamped[j], one.clamped)

    @given(*store_shapes)
    @settings(max_examples=25, deadline=None)
    def test_mismatch_estimators_exact_when_signs_agree(self, seed, n, k):
        _, query = _random_store(seed, n, k)
        store = quantize_store(FullStore.stack([query] * n))
        for est in (Estimator.S, Estimator.S_NORM):
            batch = estimate_batch(store, query, est)
            assert np.all(batch.raw == 1.0) and np.all(batch.rho_hat == 1.0)
            assert not batch.clamped.any()

    @given(*store_shapes)
    @settings(max_examples=25, deadline=None)
    def test_sign_sign_equals_scalar_cosine(self, seed, n, k):
        store, query = _random_store(seed, n, k)
        batch = estimate_batch(store, query, Estimator.SIGN_SIGN)
        qsigns = query.values >= 0.0
        for i in range(n):
            stored = np.unpackbits(store.bits[i], count=k, bitorder="little") == 1
            m = int(np.sum(stored == qsigns))
            assert batch.raw[i] == float(np.cos(np.pi * (1 - m / k)))
        assert not batch.clamped.any()

    @given(*store_shapes)
    @settings(max_examples=15, deadline=None)
    def test_mle_rows_equal_scalar_and_single_query_calls(self, seed, n, k):
        store, query = _random_store(seed, n, k)
        queries = [query, FullSketch(-query.values), FullSketch(2.5 * query.values)]
        many = estimate_batch(store, queries, Estimator.MLE_SIGN_FULL)
        assert many.raw.shape == (3, n)
        for j, q in enumerate(queries):
            one = estimate_batch(store, q, Estimator.MLE_SIGN_FULL)
            assert np.array_equal(many.raw[j], one.raw)
            assert np.array_equal(many.clamped[j], one.clamped)
        rows = range(n) if n < 400 else sorted({0, 1, 57, 199, 398, 399})
        for i in rows:
            rep = estimate_pair(Estimator.MLE_SIGN_FULL, store[i], query)
            res = mle_sign_full(store[i], query)
            assert (many.raw[0, i], many.rho_hat[0, i], many.clamped[0, i]) == (
                rep.raw, rep.rho_hat, rep.clamped) == (res.rho_hat, res.rho_hat, False)

    @given(*store_shapes)
    @settings(max_examples=10, deadline=None)
    def test_zero_query_rejected_by_normalized(self, seed, n, k):
        store, _ = _random_store(seed, n, k)
        zero = FullSketch(np.zeros(k))
        for est in (Estimator.G_NORM, Estimator.S_NORM):
            with pytest.raises(DomainError):
                estimate_batch(store, zero, est)
            with pytest.raises(DomainError):
                estimate_batch(store, [FullSketch(np.ones(k)), zero], est)
        with pytest.raises(DegenerateInputError):
            estimate_batch(store, zero, Estimator.MLE_SIGN_FULL)


class TestFullBatch:
    def test_rows_equal_scalar_calls(self):
        rng_ = np.random.default_rng(15)
        store = [FullSketch(rng_.standard_normal(33)) for _ in range(7)]
        queries = [FullSketch(rng_.standard_normal(33)) for _ in range(3)]
        for est, scalar in ((Estimator.FULL, estimate_full),
                            (Estimator.FULL_NORM, estimate_full_norm)):
            many = estimate_full_batch(store, queries, est)
            assert many.raw.shape == (3, 7)
            stacked = estimate_full_batch(FullStore.stack(store), queries, est)
            assert np.array_equal(stacked.raw, many.raw)
            for j, q in enumerate(queries):
                one = estimate_full_batch(store, q, est)
                assert np.array_equal(one.raw, many.raw[j])
                for i, x in enumerate(store):
                    rep = scalar(x, q)
                    assert (one.raw[i], one.rho_hat[i], one.clamped[i]) == (
                        rep.raw, rep.rho_hat, rep.clamped)

    def test_sign_estimator_rejected(self):
        with pytest.raises(ContractError):
            estimate_full_batch([FullSketch(np.ones(4))], FullSketch(np.ones(4)),
                                Estimator.S_NORM)

    def test_zero_sketch_rejected(self):
        with pytest.raises(DomainError):
            estimate_full_batch([FullSketch(np.ones(4)), FullSketch(np.zeros(4))],
                                FullSketch(np.ones(4)), Estimator.FULL_NORM)


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
