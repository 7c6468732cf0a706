import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcx, log_ndtr

from oracles import full_store, mle_full, mle_row, one_row, sign_store
from rpsketch import DomainError, MleResult, inv_mills, norm_cdf
from rpsketch import mle, rng
from rpsketch.errors import DegenerateInputError
from rpsketch.estimators import SampleStats, full_mle
from rpsketch.mle import (solve_full_batch, solve_full_from_moments,
                          solve_sign_full, solve_sign_full_batch)

mp.mp.dps = 30


def pair_from(x_values, y_values) -> tuple[np.ndarray, np.ndarray]:
    return (np.asarray(x_values, dtype=np.float64),
            np.asarray(y_values, dtype=np.float64))


def score(rho: float, x, y) -> float:
    """Likelihood score sum_j invmills(c*s_j)*s_j at rho, s_j = sgn(x_j) * y_j."""
    s = np.where(np.asarray(x) >= 0.0, 1.0, -1.0) * y
    return float(mle._scores(np.array([float(rho)]), s[None, :])[0])


def mle_sign_full(x, y) -> MleResult:
    """The sign-full MLE of one pair, through one-row stores."""
    return mle_row(mle.mle_sign_full_store(sign_store(x), np.asarray(y, dtype=np.float64)))


class TestNormalSpecialFunctions:
    def test_cdf_at_zero(self):
        assert norm_cdf(0.0) == 0.5

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


_TINY = 2.2250738585072014e-308  # smallest normal float64


def _erfcx_mp(x):
    """erfcx at the exact value of x (float or mpf), as an mpf; call it at
    80 digits, so that x^2 stays exact up to |x| = 1e10."""
    x = mp.mpf(x)
    if x > 1e10:  # mpmath's erfc series check overflows far out; 6 terms suffice
        z = 1 / (2 * x * x)
        return (1 - z + 3 * z**2 - 15 * z**3 + 105 * z**4 - 945 * z**5) / (x * mp.sqrt(mp.pi))
    return mp.erfc(x) * mp.exp(x * x)


def _erfcx_oracle(x) -> float:
    with mp.workdps(80):
        return float(_erfcx_mp(x))


def _normal_oracles(t: float) -> tuple[float, float, float]:
    """(inv_mills, Phi, log Phi) at t, through erfcx at x = -t/sqrt2 where
    mpmath's own normal functions would lose digits far out."""
    with mp.workdps(80):
        t = mp.mpf(t)
        x = -t / mp.sqrt(2)
        e = _erfcx_mp(x)
        cdf = mp.ncdf(t) if t > -40 else mp.mpf(0)  # below the normal range there
        log_cdf = mp.log(e / 2) - x * x if t <= 0 else mp.log1p(-mp.ncdf(-t))
        return float(mp.sqrt(2 / mp.pi) / e), float(cdf), float(log_cdf)


def _straddling(edge: float) -> np.ndarray:
    """Arguments t > 0 around edge*sqrt(2) such that t/sqrt(2) rounds to both
    sides of the branch edge."""
    ts = [np.float64(edge * math.sqrt(2.0))]
    for _ in range(4):
        ts = [np.nextafter(ts[0], 0.0)] + ts + [np.nextafter(ts[-1], np.inf)]
    ts = np.array(ts)
    x = ts / math.sqrt(2.0)
    assert (x <= edge).any() and (x > edge).any()
    return ts


class TestErfcxKernel:
    """The numpy erfcx (Cody's rational approximations) and the three
    normal functions built on it, against mpmath at 80 digits."""

    EDGES = (0.46875, 4.0)

    def test_kernel_on_both_sides_of_each_branch_edge(self):
        for edge in self.EDGES:
            xs = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, 5.0),
                           edge - 1e-9, edge + 1e-9])
            got = mle._erfcx(xs)
            for x, g in zip(xs, got):
                assert abs(g / _erfcx_oracle(x) - 1.0) <= 2e-15, x

    def test_kernel_over_range_and_large_arguments(self):
        xs = np.concatenate([np.linspace(0.0, 30.0, 1201), np.logspace(0.5, 150, 300),
                             [1e-300, 5e-324, 1e150]])
        got = mle._erfcx(xs)
        oracle = np.array([_erfcx_oracle(x) for x in xs])
        assert np.max(np.abs(got / oracle - 1.0)) <= 2e-15
        assert mle._erfcx(np.array([np.inf]))[0] == 0.0
        assert np.isnan(mle._erfcx(np.array([np.nan]))[0])

    def test_reflected_kernel_down_to_minus_8_over_sqrt2(self):
        # erfcx(-t/sqrt2) = sqrt(2/pi) / inv_mills(t) for t > 0, taken at the
        # exact -t/sqrt2 (the branch edges straddled on the negative side)
        ts = np.concatenate([np.linspace(0.0, 8.0, 801)] + [_straddling(e) for e in self.EDGES])
        got = math.sqrt(2.0 / math.pi) / inv_mills(ts)
        for t, g in zip(ts, got):
            assert abs(g / _erfcx_oracle(-mp.mpf(t) / mp.sqrt(2)) - 1.0) <= 1e-14, t

    def test_normal_functions_wherever_the_value_is_normal(self):
        ts = np.concatenate([np.linspace(-60.0, 40.0, 2001), np.linspace(-1.0, 1.0, 201),
                             -np.logspace(1.5, 150, 60)]
                            + [s * _straddling(e) for e in self.EDGES for s in (1, -1)])
        got = np.stack([inv_mills(ts), norm_cdf(ts), mle.log_norm_cdf(ts)], axis=1)
        for t, values in zip(ts, got):
            for name, g, oracle in zip(("inv_mills", "norm_cdf", "log_norm_cdf"),
                                       values, _normal_oracles(t)):
                if abs(oracle) >= _TINY:
                    assert abs(g / oracle - 1.0) <= 1e-14, (name, t)

    def test_agrees_with_scipy(self):
        rng_ = np.random.default_rng(21)
        x = np.concatenate([np.abs(rng_.normal(0.0, 4.0, 100_000)), rng_.uniform(0, 1e6, 1000)])
        assert np.max(np.abs(mle._erfcx(x) / erfcx(x) - 1.0)) <= 5e-15
        # above t = 5 scipy's log_ndtr loses ~t^2 ulps through its rounded
        # t/sqrt2 (2e-13 at t = 35, against mpmath), so it is no oracle there
        t = np.minimum(rng_.normal(0.0, 10.0, 100_000), 5.0)
        assert np.max(np.abs(mle.log_norm_cdf(t) / log_ndtr(t) - 1.0)) <= 5e-14

    def test_pieces_never_change_bits(self):
        # rows of two kernel pieces each, whose fullest branch (run on the
        # whole piece) is the asymptotic, the middle and the small one; then
        # single values and a flat slice whose pieces start 1000 values later
        rng_ = np.random.default_rng(22)
        t = np.stack([rng_.uniform(-1e4, -10.0, 1 << 15), rng_.normal(0.0, 4.0, 1 << 15),
                      rng_.normal(0.0, 0.3, 1 << 15)])
        t[0, ::50] = rng_.normal(0.0, 4.0, t[0, ::50].size)
        assert t.shape[1] == 2 * mle._PIECE
        whole = inv_mills(t)
        for row, got in zip(t, whole):
            assert inv_mills(row).tobytes() == got.tobytes()
        picks = rng_.integers(0, t.size, 300)
        assert [inv_mills(float(v)) for v in t.ravel()[picks]] == whole.ravel()[picks].tolist()
        assert inv_mills(t.ravel()[1000:]).tobytes() == whole.ravel()[1000:].tobytes()


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
        # the solver evaluates the score only inside (-1, 1), where c is finite
        seen, score_rows = [], mle._scores

        def spy(rho, rows, slope=False):
            seen.append(rho)
            return score_rows(rho, rows, slope)

        x, y = rng.bivariate_block(0.999, seed=3, major_start=0, n_major=200, k=8)
        with mock.patch.object(mle, "_scores", spy):
            solve_sign_full_batch(np.where(x >= 0.0, 1.0, -1.0) * y)
        rho = np.concatenate(seen)
        assert rho.size and np.all(np.abs(rho) < 1.0)


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
        assert res.iterations <= mle.max_iter
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
        with mock.patch.object(mle, "tolerance", 1e-4):
            loose = mle_sign_full(*p)
        with mock.patch.object(mle, "tolerance", 1e-12):
            tight = mle_sign_full(*p)
        assert abs(loose.rho_hat - tight.rho_hat) < 1e-3


class TestFullMle:
    def test_identical_sketches_boundary_at_one(self):
        v = np.random.default_rng(18).standard_normal(64)
        res = mle_full(v, v)
        assert res.at_boundary
        assert res.rho_hat == pytest.approx(1.0, abs=1e-9)

    def test_independent_data_near_zero(self):
        k = 10_000
        x, y = rng.bivariate_block(0.0, seed=21, major_start=0, n_major=1, k=k)
        res = mle_full(x[0], y[0])
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
        for x, y in ((np.zeros(4), np.ones(4)), (np.ones(4), np.zeros(4))):
            with pytest.raises(DomainError):
                full_mle(SampleStats(x[None, :], y[None, :]))

    def test_result_type(self):
        v = np.array([1.0, -1.0])
        assert isinstance(mle_full(v, v), MleResult)


def _reference_sign_full(s):
    """The per-row safeguarded Newton that the batched core replaced, kept
    as the oracle: (rho_hat, at_boundary, iterations).  It evaluates both
    edge scores of every row, starts at the row's s-norm estimate clipped to
    0.999 of the edges, and ends a row whose Newton step rounds to x.  It
    reads the solver constants of mle when called."""

    def score_at(rho):
        c = rho / math.sqrt((1.0 - rho) * (1.0 + rho))
        return float(np.sum(inv_mills(c * s) * s))

    def loglik(rho):
        c = rho / math.sqrt((1.0 - rho) * (1.0 + rho))
        return float(np.sum(mle.log_norm_cdf(c * s)))

    lo, hi = -1.0 + mle.boundary_eps, 1.0 - mle.boundary_eps
    f_lo, f_hi = score_at(lo), score_at(hi)
    if not (f_lo > 0.0 > f_hi):
        if f_lo > 0.0 and f_hi >= 0.0:
            return hi, True, 0
        if f_lo <= 0.0 and f_hi < 0.0:
            return lo, True, 0
        return (hi if loglik(hi) >= loglik(lo) else lo), True, 0
    a, b = lo, hi
    x = 1.0 - math.sqrt(2.0 * math.pi) * float(np.sum(np.maximum(-s, 0.0))) / (
        math.sqrt(s.size) * math.sqrt(float(np.sum(s * s))))
    x = 0.999 * hi if math.isnan(x) else min(max(x, 0.999 * lo), 0.999 * hi)
    iterations = 0
    while iterations < mle.max_iter:
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
            step_ok = a < x_new < b or x_new == x
        if not step_ok:
            x_new = 0.5 * (a + b)
        if abs(x_new - x) <= mle.tolerance:
            return x_new, False, iterations
        x = x_new
    return x, False, iterations


def _reference_full(b, m, k):
    """The per-row np.roots cubic solve that the batched core replaced."""
    eps = mle.boundary_eps

    def loglik(rho):
        r = min(max(rho, -1.0 + eps), 1.0 - eps)
        omr2 = (1.0 - r) * (1.0 + r)
        return -0.5 * k * math.log(omr2) - k * (m - 2.0 * r * b) / (2.0 * omr2)

    roots = np.roots([1.0, -b, m - 1.0, -b])
    roots = np.unique(roots[np.abs(roots.imag) <= 1e-9 * np.maximum(
        1.0, np.abs(roots.real))].real)
    in_range = roots[(roots >= -1.0) & (roots <= 1.0)]
    if in_range.size:
        best = max(in_range, key=loglik)
        return float(best), bool(abs(best) >= 1.0 - eps), 0
    nearest = roots[np.argmin(np.abs(np.abs(roots) - 1.0))]
    return math.copysign(1.0, nearest), True, 0


def _bits(*values):
    """Float fields by bit pattern, so -0.0 and 0.0 differ."""
    return tuple(np.float64(v).view(np.uint64) if isinstance(v, float) else v
                 for v in values)


def _fields(res: MleResult):
    return res.rho_hat, res.at_boundary, res.iterations


def _one_against_99(first, rest, k):
    """A row of width k: first, then up to 99 copies of rest, then zeros."""
    row = np.zeros(k)
    row[0], row[1:100] = first, rest
    return row


#: rows whose edge scores the solver's sign-count bound must leave to the
#: exact evaluation, or decide as the exact scores do: products so small that
#: the score is flat at both edges (lower and upper boundary), one product
#: that outweighs 99 of the other sign (interior near -1; the bound decides
#: it), one too small for the bound to decide its lower edge (interior),
#: subnormal products of both signs and of one, and one positive product
#: among zeros
_SMALL_ROWS = {
    "tiny-low": lambda rng_, k: _one_against_99(1e-6, -1e-6, k),
    "tiny-high": lambda rng_, k: -_one_against_99(1e-6, -1e-6, k),
    "milli": lambda rng_, k: _one_against_99(1e-3, -1e-3, k),
    "undecided": lambda rng_, k: _one_against_99(1e-4, -1e-3, k),
    "subnormal": lambda rng_, k: rng_.standard_normal(k) * 1e-310,
    "subnormal-pos": lambda rng_, k: np.abs(rng_.standard_normal(k)) * 1e-320,
    "lone": lambda rng_, k: np.eye(k)[k // 2] * 0.7,
}


def _sign_full_rows(seed, n, k, first):
    """(n, k) products: bivariate rows at a drawn rho, then fixed special
    rows: all positive, all negative, a quarter zeros, all zero, then the
    _SMALL_ROWS."""
    rng_ = np.random.default_rng(seed)
    rho = rng_.uniform(-0.99, 0.99)
    x = rng_.standard_normal((n, k))
    y = rho * x + math.sqrt(1.0 - rho * rho) * rng_.standard_normal((n, k))
    s = np.where(x >= 0.0, 1.0, -1.0) * y
    kinds = [first, "pos", "neg", "zeros", "zero", *_SMALL_ROWS]
    for i, kind in enumerate(kinds[:n]):
        if kind == "pos":
            s[i] = np.abs(s[i])
        elif kind == "neg":
            s[i] = -np.abs(s[i])
        elif kind == "zeros":
            s[i, rng_.random(k) < 0.25] = 0.0
        elif kind == "zero":
            s[i] = 0.0
        elif kind in _SMALL_ROWS:
            s[i] = _SMALL_ROWS[kind](rng_, k)
    return s


#: fixed moment rows: three real roots in [-1, 1] (b=0.1, m=0.5); only
#: roots beyond +1 or -1; identical sketches (a root at 1)
_SPECIAL_MOMENTS = [(0.1, 0.5), (2.0, 0.5), (-2.0, 0.5), (1.0, 2.0), (-1.5, 0.1)]


class TestBatchContracts:
    """Row i of a batched solve equals the scalar call on row i and the
    per-row loop it replaced, bit for bit, over k = 1..300."""

    shapes = (st.integers(0, 2**31), st.sampled_from([1, 7, 400]),
              st.integers(1, 300))
    #: solver constants patched into mle for one example
    configs = st.sampled_from([{"tolerance": mle.tolerance}, {"tolerance": 1e-12},
                               {"max_iter": 3}])
    chunks = st.sampled_from([97, mle._CHUNK_VALUES])

    @staticmethod
    def _rows(n):
        return range(n) if n < 400 else sorted({*range(5 + len(_SMALL_ROWS)), 57, 199, 398, 399})

    @given(*shapes, configs, chunks,
           st.sampled_from(["normal", "pos", "neg", "zeros", "zero", *_SMALL_ROWS]))
    @settings(max_examples=30, deadline=None)
    def test_sign_full_rows_equal_scalar_calls(self, seed, n, k, cfg, chunk, first):
        s = _sign_full_rows(seed, n, k, first)
        with mock.patch.multiple(mle, **cfg):
            with mock.patch.object(mle, "_CHUNK_VALUES", chunk):
                batch = solve_sign_full_batch(s)
            assert batch.rho_hat.shape == (n,) and len(batch) == n
            for i in self._rows(n):
                one = solve_sign_full(s[i])
                assert mle_row(batch, i) == one
                assert _bits(*_fields(one)) == _bits(*_reference_sign_full(s[i]))
        assert n < 2 or batch.at_boundary[1] and batch.rho_hat[1] > 0.0
        assert n < 3 or batch.at_boundary[2] and batch.rho_hat[2] < 0.0

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
        with mock.patch.multiple(mle, **cfg):
            with mock.patch.object(mle, "_CHUNK_VALUES", chunk):
                batch = solve_full_batch(b, m, k)
            assert batch.rho_hat.shape == (n,)
            for i in range(n):
                one = solve_full_from_moments(b[i], m[i], k)
                assert mle_row(batch, i) == one
                assert _bits(*_fields(one)) == _bits(*_reference_full(b[i], m[i], k))

    def test_lab_block_equals_reference_loop(self):
        # a boundary-heavy lab block; a few of its rows change in the last
        # bit if the slope's omr2**1.5 is taken by numpy's vector pow
        x, y = rng.bivariate_block(0.3, seed=7, major_start=0, n_major=3000, k=8)
        s = np.where(x >= 0.0, 1.0, -1.0) * y
        batch = solve_sign_full_batch(s)
        assert batch.at_boundary.sum() > 20
        for i, row in enumerate(s):
            assert _bits(*_fields(mle_row(batch, i))) == _bits(*_reference_sign_full(row))
        b = np.multiply(x, y).sum(axis=1) / 8
        m = (np.multiply(x, x).sum(axis=1) + np.multiply(y, y).sum(axis=1)) / 8
        full = solve_full_batch(b, m, 8)
        for i in range(3000):
            assert _bits(*_fields(mle_row(full, i))) == _bits(*_reference_full(b[i], m[i], 8))

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
        store = sign_store(*(rng_.standard_normal(k) for _ in range(n)))
        with pytest.raises(DegenerateInputError):
            mle.mle_sign_full_store(store, np.zeros(k))
        with pytest.raises(DegenerateInputError):
            mle.mle_sign_full_store(one_row(store, 0), np.zeros(k))

    def test_store_rows_equal_pairwise_calls(self):
        rng_ = np.random.default_rng(30)
        full = [rng_.standard_normal(45) for _ in range(9)]
        query = full_store(rng_.standard_normal(45))
        y, yy = query.values[0], query.sumsq[0]
        signs = mle.mle_sign_full_store(sign_store(*full), y)
        store = full_store(*full, y)
        moments = full_mle(SampleStats(store.values, y[None, :], xx=store.sumsq, yy=yy))
        for i, x in enumerate(full):
            assert mle_row(signs, i) == mle_sign_full(x, y)
            assert mle_row(moments, i) == mle_full(x, y)
        assert moments.at_boundary[9]


def _midpoint_sign_full_rows(s):
    """The vectorised solver before the s-norm start, kept as a second
    oracle: both edge scores of every row, every row from the midpoint 0, and
    a Newton step that rounds to x bisects.  Returns (rho, at_boundary,
    iterations)."""
    n = s.shape[0]
    lo = -1.0 + mle.boundary_eps
    hi = 1.0 - mle.boundary_eps
    f_lo = mle._scores(np.full(n, lo), s)
    f_hi = mle._scores(np.full(n, hi), s)
    up = (f_lo > 0.0) & (f_hi >= 0.0)
    down = (f_lo <= 0.0) & (f_hi < 0.0)
    inner = (f_lo > 0.0) & (0.0 > f_hi)
    flat = ~(inner | up | down)
    rho = np.where(up, hi, lo)
    ll_lo, ll_hi = (np.sum(mle.log_norm_cdf(r / math.sqrt((1.0 - r) * (1.0 + r)) * s[flat]),
                           axis=1) for r in (lo, hi))
    rho[flat] = np.where(ll_hi >= ll_lo, hi, lo)
    iterations = np.zeros(n, dtype=np.int64)
    idx = np.flatnonzero(inner)
    s = s[idx]
    a, b = np.full(idx.size, lo), np.full(idx.size, hi)
    x = 0.5 * (a + b)
    for it in range(1, mle.max_iter + 1):
        if not idx.size:
            break
        f, slope = mle._scores(x, s, slope=True)
        iterations[idx] = it
        a = np.where(f > 0.0, x, a)
        b = np.where(f < 0.0, x, b)
        root = ~(f > 0.0) & ~(f < 0.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_new = x - f / slope
        step_ok = (slope != 0.0) & np.isfinite(slope) & (a < x_new) & (x_new < b)
        x_new = np.where(step_ok, x_new, 0.5 * (a + b))
        going = ~root & ~(np.abs(x_new - x) <= mle.tolerance)
        x = np.where(root, x, x_new)
        rho[idx] = x
        idx, s, a, b, x = idx[going], s[going], a[going], b[going], x[going]
    return rho, ~inner, iterations


def _edge_rows(s) -> int:
    """Solve the rows of s and count the rows whose edge scores were evaluated
    (one count per edge); Newton steps pass slope=True and are not counted."""
    counted, score_rows = [], mle._scores

    def spy(rho, rows, slope=False):
        counted.append(0 if slope else rows.shape[0])
        return score_rows(rho, rows, slope)

    with mock.patch.object(mle, "_scores", spy):
        solve_sign_full_batch(s)
    return sum(counted)


class TestSignFullStart:
    """The s-norm start, the zero-step stop and the sign-count bound on the
    edge scores."""

    def test_small_products_keep_the_exact_edges(self):
        rng_ = np.random.default_rng(31)
        s = np.stack([row(rng_, 100) for row in _SMALL_ROWS.values()])
        batch = solve_sign_full_batch(s)
        for i, row in enumerate(s):
            assert _bits(*_fields(mle_row(batch, i))) == _bits(*_reference_sign_full(row))
        got = dict(zip(_SMALL_ROWS, batch.rho_hat.tolist()))
        flags = dict(zip(_SMALL_ROWS, batch.at_boundary.tolist()))
        lo, hi = -1.0 + 1e-9, 1.0 - 1e-9
        assert (got["tiny-low"], flags["tiny-low"]) == (lo, True)
        assert (got["tiny-high"], flags["tiny-high"]) == (hi, True)
        assert (got["lone"], flags["lone"]) == (hi, True)
        assert (got["subnormal-pos"], flags["subnormal-pos"]) == (hi, True)
        for name in ("milli", "undecided"):
            assert not flags[name] and lo < got[name] < -0.99
        # edge scores evaluated: both for the flat rows and the subnormal
        # row of both signs, the lower one where the lone positive product is
        # too small, none where the bound or a single sign decides
        want = {"tiny-low": 2, "tiny-high": 2, "milli": 0, "undecided": 1,
                "subnormal": 2, "subnormal-pos": 0, "lone": 0}
        assert {name: _edge_rows(row[None, :]) for name, row in zip(_SMALL_ROWS, s)} == want

    def test_bivariate_rows_skip_both_edge_scores(self):
        for rho in (0.0, 0.95):
            x, y = rng.bivariate_block(rho, seed=12, major_start=0, n_major=500, k=100)
            assert _edge_rows(np.where(x >= 0.0, 1.0, -1.0) * y) == 0

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.95, 0.99])
    def test_against_midpoint_solver(self, rho):
        # the same roots within the tolerance, the same boundary rows, and far
        # fewer steps: the midpoint solver takes 35-44 at most and 4-11 on
        # average, since it bisects rows Newton has already solved
        for k in (8, 100, 256):
            x, y = rng.bivariate_block(rho, seed=11, major_start=0, n_major=1000, k=k)
            s = np.where(x >= 0.0, 1.0, -1.0) * y
            batch = solve_sign_full_batch(s)
            old_rho, old_boundary, _ = _midpoint_sign_full_rows(s)
            assert np.array_equal(batch.at_boundary, old_boundary)
            assert np.max(np.abs(batch.rho_hat - old_rho)) <= 2e-10
            steps = batch.iterations[~batch.at_boundary]
            assert steps.max() <= 15 and steps.mean() <= 6.0
