import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from rpsketch import (DomainError, FullSketch, FullStore, MleResult,
                      SignSketch, SolverConfig, inv_mills, mle_full,
                      mle_sign_full, norm_cdf, norm_pdf, quantize_store, score,
                      sign_quantize)
from rpsketch import mle, rng
from rpsketch.errors import DegenerateInputError
from rpsketch.mle import (solve_full_batch, solve_full_from_moments,
                          solve_sign_full, solve_sign_full_batch)

mp.mp.dps = 30


def pair_from(x_values, y_values) -> tuple[SignSketch, FullSketch]:
    return (sign_quantize(FullSketch(np.asarray(x_values, dtype=np.float64))),
                        FullSketch(np.asarray(y_values, dtype=np.float64)))


class TestNormalSpecialFunctions:
    def test_cdf_at_zero(self):
        assert norm_cdf(0.0) == 0.5

    def test_pdf_at_zero(self):
        assert norm_pdf(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-16)

    def test_cdf_standard_quantile(self):
        # independent high-precision oracle: 0.97500000002688...
        assert abs(norm_cdf(1.959963985) - 0.975) <= 1e-9

    def test_cdf_against_high_precision_oracle(self):
        ts = np.concatenate([np.linspace(-37, 8, 91), [-0.123, 2.71828]])
        for t in ts:
            assert abs(norm_cdf(float(t)) - float(mp.ncdf(mp.mpf(float(t))))) < 1e-12

    def test_cdf_monotone(self):
        ts = np.linspace(-40, 40, 4001)
        vals = norm_cdf(ts)
        assert np.all(np.diff(vals) >= 0.0)


class TestInvMills:
    def test_at_zero(self):
        assert inv_mills(0.0) == pytest.approx(2 / math.sqrt(2 * math.pi), abs=1e-15)

    def test_deep_left_tail(self):
        # asymptotic-expansion oracle: |t| + 1/|t| - 2/|t|^3 + ...
        assert inv_mills(-30.0) == pytest.approx(30.033259667433677, rel=1e-13)

    def test_right_tail(self):
        assert inv_mills(10.0) == pytest.approx(7.6945986267064193e-23, rel=1e-12, abs=0.0)

    def test_relative_error_over_working_range(self):
        for t in np.linspace(-40, 40, 161):
            oracle = float(mp.npdf(mp.mpf(float(t))) / mp.ncdf(mp.mpf(float(t))))
            got = inv_mills(float(t))
            if oracle == 0.0 or oracle < 1e-290:
                # the true value sits at or below float64's subnormal range,
                # where relative precision is representation-limited
                assert 0.0 <= got <= max(2.0 * oracle, 5e-324)
            else:
                assert abs(got / oracle - 1.0) < 1e-8

    def test_asymptotically_minus_t(self):
        for t in [-50.0, -200.0, -700.0]:
            assert inv_mills(t) == pytest.approx(-t, rel=1e-3)

    def test_finite_everywhere(self):
        ts = np.linspace(-700, 700, 1401)
        vals = inv_mills(ts)
        assert np.all(np.isfinite(vals))


class TestScore:
    def test_rho_zero_collapses_to_constant_ratio(self):
        p = pair_from([1.0, 1.0, -1.0], [0.5, -0.2, 0.3])
        s_sum = 0.5 - 0.2 - 0.3
        assert score(0.0, *p) == pytest.approx(inv_mills(0.0) * s_sum, abs=1e-15)
        balanced = pair_from([1.0, 1.0], [0.7, -0.7])
        assert score(0.0, *balanced) == pytest.approx(0.0, abs=1e-15)

    def test_positive_products_give_positive_score(self):
        rng_ = np.random.default_rng(13)
        y = np.abs(rng_.standard_normal(20)) + 0.01
        p = pair_from(np.ones(20), y)
        for rho in np.linspace(-0.999, 0.999, 41):
            assert score(float(rho), *p) > 0.0

    def test_single_pair_value(self):
        # inv_mills(0.5/sqrt(0.75)) via 30-digit arithmetic
        p = pair_from([1.0], [1.0])
        assert score(0.5, *p) == pytest.approx(0.4702332694669627, abs=1e-14)

    def test_domain(self):
        p = pair_from([1.0], [1.0])
        with pytest.raises(DomainError):
            score(1.0, *p)


class TestSignFullMle:
    def test_balanced_products_give_zero(self):
        res = mle_sign_full(*pair_from([1.0, 1.0], [0.7, -0.7]))
        assert abs(res.rho_hat) <= 1e-9
        assert not res.at_boundary

    def test_all_positive_products_hit_boundary(self):
        res = mle_sign_full(*pair_from([1.0, 1.0, 1.0], [0.5, 0.1, 0.9]))
        assert res.at_boundary
        assert res.rho_hat == pytest.approx(1.0, abs=1e-8)

    def test_all_negative_products_hit_lower_boundary(self):
        res = mle_sign_full(*pair_from([1.0, 1.0], [-0.5, -0.1]))
        assert res.at_boundary
        assert res.rho_hat == pytest.approx(-1.0, abs=1e-8)

    def test_all_zero_query_rejected(self):
        with pytest.raises(DegenerateInputError):
            mle_sign_full(*pair_from([1.0, -1.0], [0.0, 0.0]))

    def test_flip_symmetry(self):
        rng_ = np.random.default_rng(14)
        x = rng_.standard_normal(200)
        y = 0.4 * x + rng_.standard_normal(200)
        res = mle_sign_full(*pair_from(x, y))
        flipped = mle_sign_full(*pair_from(x, -y))
        assert flipped.rho_hat == pytest.approx(-res.rho_hat, abs=1e-8)

    def test_root_is_bracketed(self):
        rng_ = np.random.default_rng(15)
        x = rng_.standard_normal(500)
        y = 0.6 * x + 0.8 * rng_.standard_normal(500)
        p = pair_from(x, y)
        res = mle_sign_full(*p)
        assert not res.at_boundary
        assert res.iterations <= SolverConfig().max_iter
        delta = 1e-6
        assert score(res.rho_hat - delta, *p) > 0 > score(res.rho_hat + delta, *p)

    def test_monte_carlo_consistency(self):
        # rho=0.5, k=1e4: estimate within 4*sqrt(V_m/k) with V_m(0.5)~0.93
        k = 10_000
        tol = 4 * math.sqrt(0.9306 / k)
        for seed in range(5):
            x, y = rng.bivariate_block(0.5, seed=seed, major_start=0,
                                       n_major=1, k=k)
            s = np.where(x[0] >= 0.0, 1.0, -1.0) * y[0]
            res = solve_sign_full(s)
            assert abs(res.rho_hat - 0.5) < tol

    def test_variance_matches_fisher_information_at_zero(self):
        # variance * k -> pi/2 within 5% (asymptotic efficiency)
        k, trials = 100, 100_000
        x, y = rng.bivariate_block(0.0, seed=77, major_start=0,
                                   n_major=trials, k=k)
        s = np.where(x >= 0.0, 1.0, -1.0) * y
        estimates = solve_sign_full_batch(s).rho_hat
        assert abs(estimates.var() * k / (math.pi / 2) - 1.0) < 0.05

    def test_tolerance_config_respected(self):
        p = pair_from(np.random.default_rng(16).standard_normal(50),
                      np.random.default_rng(17).standard_normal(50))
        loose = mle_sign_full(*p, SolverConfig(tolerance=1e-4))
        tight = mle_sign_full(*p, SolverConfig(tolerance=1e-12))
        assert abs(loose.rho_hat - tight.rho_hat) < 1e-3


class TestFullMle:
    def test_identical_sketches_boundary_at_one(self):
        v = FullSketch(np.random.default_rng(18).standard_normal(64))
        res = mle_full(v, v)
        assert res.at_boundary
        assert res.rho_hat == pytest.approx(1.0, abs=1e-9)

    def test_independent_data_near_zero(self):
        k = 10_000
        x, y = rng.bivariate_block(0.0, seed=21, major_start=0, n_major=1, k=k)
        res = mle_full(FullSketch(x[0]), FullSketch(y[0]))
        assert abs(res.rho_hat) < 4 / math.sqrt(k)  # V_fm(0) = 1
        assert not res.at_boundary

    def test_monte_carlo_matches_variance_factor(self):
        k, trials = 100, 20_000
        x, y = rng.bivariate_block(0.5, seed=22, major_start=0,
                                   n_major=trials, k=k)
        b = (x * y).mean(axis=1)
        m = ((x * x).sum(axis=1) + (y * y).sum(axis=1)) / k
        est = solve_full_batch(b, m, k).rho_hat
        v_fm = (1 - 0.25) ** 2 / 1.25
        assert abs(est.mean() - 0.5) < 4 * math.sqrt(v_fm / k / trials) + 2e-3
        assert abs(est.var() * k / v_fm - 1.0) < 0.05

    def test_three_real_roots_resolved_by_likelihood(self):
        # b=0.1, m=0.5 gives three real roots; compare against a dense
        # grid argmax of the exact log-likelihood
        b, m, k = 0.1, 0.5, 4
        roots = np.roots([1.0, -b, m - 1.0, -b])
        assert np.all(np.abs(roots.imag) < 1e-12)

        grid = np.linspace(-1 + 1e-6, 1 - 1e-6, 2_000_001)
        ll = -0.5 * k * np.log1p(-grid * grid) - \
            k * (m - 2 * grid * b) / (2 * (1 - grid * grid))
        best_grid = grid[np.argmax(ll)]

        res = solve_full_from_moments(b, m, k)
        nearest = roots.real[np.argmin(np.abs(roots.real - best_grid))]
        assert res.rho_hat == pytest.approx(nearest, abs=1e-6)

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            mle_full(FullSketch(np.zeros(4)), FullSketch(np.ones(4)))

    def test_result_type(self):
        v = FullSketch(np.array([1.0, -1.0]))
        assert isinstance(mle_full(v, v), MleResult)


def _reference_sign_full(s, cfg=SolverConfig()):
    """The per-row safeguarded Newton that the batched core replaced, kept
    as the oracle: (rho_hat, at_boundary, iterations)."""

    def score_at(rho):
        c = rho / math.sqrt((1.0 - rho) * (1.0 + rho))
        return float(np.sum(inv_mills(c * s) * s))

    def loglik(rho):
        c = rho / math.sqrt((1.0 - rho) * (1.0 + rho))
        return float(np.sum(log_ndtr(c * s)))

    lo, hi = -1.0 + cfg.boundary_eps, 1.0 - cfg.boundary_eps
    f_lo, f_hi = score_at(lo), score_at(hi)
    if not (f_lo > 0.0 > f_hi):
        if f_lo > 0.0 and f_hi >= 0.0:
            return hi, True, 0
        if f_lo <= 0.0 and f_hi < 0.0:
            return lo, True, 0
        return (hi if loglik(hi) >= loglik(lo) else lo), True, 0
    a, b = lo, hi
    x = 0.5 * (a + b)
    iterations = 0
    while iterations < cfg.max_iter:
        omr2 = (1.0 - x) * (1.0 + x)
        cs = x / math.sqrt(omr2) * s
        h = inv_mills(cs)
        f = float(np.sum(h * s))
        slope = -float(np.sum(h * (cs + h) * s * s)) / omr2**1.5
        iterations += 1
        if f > 0.0:
            a = x
        elif f < 0.0:
            b = x
        else:
            return x, False, iterations
        step_ok = False
        if slope != 0.0 and math.isfinite(slope):
            x_new = x - f / slope
            step_ok = a < x_new < b
        if not step_ok:
            x_new = 0.5 * (a + b)
        if abs(x_new - x) <= cfg.tolerance:
            return x_new, False, iterations
        x = x_new
    return x, False, iterations


def _reference_full(b, m, k, cfg=SolverConfig()):
    """The per-row np.roots cubic solve that the batched core replaced."""

    def loglik(rho):
        r = min(max(rho, -1.0 + cfg.boundary_eps), 1.0 - cfg.boundary_eps)
        omr2 = (1.0 - r) * (1.0 + r)
        return -0.5 * k * math.log(omr2) - k * (m - 2.0 * r * b) / (2.0 * omr2)

    roots = np.roots([1.0, -b, m - 1.0, -b])
    roots = np.unique(roots[np.abs(roots.imag) <= 1e-9 * np.maximum(
        1.0, np.abs(roots.real))].real)
    in_range = roots[(roots >= -1.0) & (roots <= 1.0)]
    if in_range.size:
        best = max(in_range, key=loglik)
        return float(best), bool(abs(best) >= 1.0 - cfg.boundary_eps), 0
    nearest = roots[np.argmin(np.abs(np.abs(roots) - 1.0))]
    return math.copysign(1.0, nearest), True, 0


def _bits(*values):
    """Float fields by bit pattern, so -0.0 and 0.0 differ."""
    return tuple(np.float64(v).view(np.uint64) if isinstance(v, float) else v
                 for v in values)


def _fields(res: MleResult):
    return res.rho_hat, res.at_boundary, res.iterations


def _sign_full_rows(seed, n, k, first):
    """(n, k) products: bivariate rows at a drawn rho, then fixed special
    rows: all positive, all negative, a quarter zeros, all zero."""
    rng_ = np.random.default_rng(seed)
    rho = rng_.uniform(-0.99, 0.99)
    x = rng_.standard_normal((n, k))
    y = rho * x + math.sqrt(1.0 - rho * rho) * rng_.standard_normal((n, k))
    s = np.where(x >= 0.0, 1.0, -1.0) * y
    kinds = [first, "pos", "neg", "zeros", "zero"]
    for i, kind in enumerate(kinds[:n]):
        if kind == "pos":
            s[i] = np.abs(s[i])
        elif kind == "neg":
            s[i] = -np.abs(s[i])
        elif kind == "zeros":
            s[i, rng_.random(k) < 0.25] = 0.0
        elif kind == "zero":
            s[i] = 0.0
    return s


#: fixed moment rows: three real roots in [-1, 1] (b=0.1, m=0.5); only
#: roots beyond +1 or -1; identical sketches (a root at 1)
_SPECIAL_MOMENTS = [(0.1, 0.5), (2.0, 0.5), (-2.0, 0.5), (1.0, 2.0), (-1.5, 0.1)]


class TestBatchContracts:
    """Row i of a batched solve equals the scalar call on row i and the
    per-row loop it replaced, bit for bit, over k = 1..300."""

    shapes = (st.integers(0, 2**31), st.sampled_from([1, 7, 400]),
              st.integers(1, 300))
    configs = st.sampled_from([SolverConfig(), SolverConfig(tolerance=1e-12),
                               SolverConfig(max_iter=3)])
    chunks = st.sampled_from([97, mle._CHUNK_VALUES])

    @staticmethod
    def _rows(n):
        return range(n) if n < 400 else sorted({0, 1, 2, 3, 4, 57, 199, 398, 399})

    @given(*shapes, configs, chunks,
           st.sampled_from(["normal", "pos", "neg", "zeros", "zero"]))
    @settings(max_examples=30, deadline=None)
    def test_sign_full_rows_equal_scalar_calls(self, seed, n, k, cfg, chunk, first):
        s = _sign_full_rows(seed, n, k, first)
        with mock.patch.object(mle, "_CHUNK_VALUES", chunk):
            batch = solve_sign_full_batch(s, cfg)
        assert batch.rho_hat.shape == (n,) and len(batch) == n
        for i in self._rows(n):
            one = solve_sign_full(s[i], cfg)
            assert batch[i] == one
            assert _bits(*_fields(one)) == _bits(*_reference_sign_full(s[i], cfg))
        assert n < 2 or batch[1].at_boundary and batch[1].rho_hat > 0.0
        assert n < 3 or batch[2].at_boundary and batch[2].rho_hat < 0.0

    @given(*shapes, configs, chunks)
    @settings(max_examples=30, deadline=None)
    def test_full_rows_equal_scalar_calls(self, seed, n, k, cfg, chunk):
        rng_ = np.random.default_rng(seed)
        rho = rng_.uniform(-0.99, 0.99)
        x = rng_.standard_normal((n, k))
        y = rho * x + math.sqrt(1.0 - rho * rho) * rng_.standard_normal((n, k))
        b = np.multiply(x, y).sum(axis=1) / k
        m = (np.multiply(x, x).sum(axis=1) + np.multiply(y, y).sum(axis=1)) / k
        special = _SPECIAL_MOMENTS[:n]
        b[:len(special)], m[:len(special)] = zip(*special)
        with mock.patch.object(mle, "_CHUNK_VALUES", chunk):
            batch = solve_full_batch(b, m, k, cfg)
        assert batch.rho_hat.shape == (n,)
        for i in range(n):
            one = solve_full_from_moments(b[i], m[i], k, cfg)
            assert batch[i] == one
            assert _bits(*_fields(one)) == _bits(*_reference_full(b[i], m[i], k, cfg))

    def test_lab_block_equals_reference_loop(self):
        # a boundary-heavy lab block; a few of its rows change in the last
        # bit if the slope's omr2**1.5 is taken by numpy's vector pow
        x, y = rng.bivariate_block(0.3, seed=7, major_start=0, n_major=3000, k=8)
        s = np.where(x >= 0.0, 1.0, -1.0) * y
        batch = solve_sign_full_batch(s)
        assert batch.at_boundary.sum() > 20
        for i, row in enumerate(s):
            assert _bits(*_fields(batch[i])) == _bits(*_reference_sign_full(row))
        b = np.multiply(x, y).sum(axis=1) / 8
        m = (np.multiply(x, x).sum(axis=1) + np.multiply(y, y).sum(axis=1)) / 8
        full = solve_full_batch(b, m, 8)
        for i in range(3000):
            assert _bits(*_fields(full[i])) == _bits(*_reference_full(b[i], m[i], 8))

    def test_three_real_roots_and_out_of_range_moments(self):
        assert len(np.roots([1.0, -0.1, -0.5, -0.1])) == 3
        batch = solve_full_batch(*zip(*_SPECIAL_MOMENTS), 4)
        for i, (b, m) in enumerate(_SPECIAL_MOMENTS):
            assert _bits(batch.rho_hat[i], bool(batch.at_boundary[i])) == \
                _bits(*_reference_full(b, m, 4)[:2])
        assert not batch.at_boundary[0]
        assert batch.rho_hat[1:3].tolist() == [1.0, -1.0]
        assert batch.at_boundary[1:].all()

    def test_empty_batches(self):
        assert len(solve_sign_full_batch(np.zeros((0, 5)))) == 0
        assert len(solve_full_batch(np.zeros(0), np.zeros(0), 5)) == 0

    @given(*shapes)
    @settings(max_examples=10, deadline=None)
    def test_zero_query_rejected(self, seed, n, k):
        rng_ = np.random.default_rng(seed)
        store = quantize_store(FullStore.stack([FullSketch(rng_.standard_normal(k))
                                                for _ in range(n)]))
        with pytest.raises(DegenerateInputError):
            mle.mle_sign_full_store(store, FullSketch(np.zeros(k)))
        with pytest.raises(DegenerateInputError):
            mle_sign_full(store[0], FullSketch(np.zeros(k)))

    def test_store_rows_equal_pairwise_calls(self):
        rng_ = np.random.default_rng(30)
        full = [FullSketch(rng_.standard_normal(45)) for _ in range(9)]
        query = FullSketch(rng_.standard_normal(45))
        signs = mle.mle_sign_full_store(quantize_store(FullStore.stack(full)), query)
        moments = mle.mle_full_store(FullStore.stack(full + [query]), query)
        for i, x in enumerate(full):
            assert signs[i] == mle_sign_full(sign_quantize(x), query)
            assert moments[i] == mle_full(x, query)
        assert moments[9].at_boundary
