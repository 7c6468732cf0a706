import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpsketch import (Estimator, FullSketch, SimConfig,
                      estimate_g, estimate_g_norm, estimate_s, estimate_s_norm,
                      run_histogram, run_mse, run_mse_ratio, sample_pair,
                      sign_quantize, v_factor)
from rpsketch import rng, simulate
from rpsketch.errors import ConfigError
from rpsketch.simulate import raw_estimates

FIVE = (Estimator.SIGN_SIGN, Estimator.G, Estimator.G_NORM,
        Estimator.S, Estimator.S_NORM)


class TestSamplePair:
    def test_perfect_correlation(self):
        x, y = sample_pair(1.0, seed=3, trial=8, j=2)
        assert y == x

    def test_deterministic(self):
        assert sample_pair(0.3, 1, 2, 3) == sample_pair(0.3, 1, 2, 3)

    @settings(max_examples=40, deadline=None)
    @given(rho=st.floats(-1.0, 1.0), seed=st.integers(0, 2**64 - 1),
           trial=st.integers(0, 2**40), j=st.integers(0, 10_000))
    def test_equals_column_of_bivariate_block(self, rho, seed, trial, j):
        x, y = rng.bivariate_block(rho, seed, trial, 1, j + 1)
        got = np.array(sample_pair(rho, seed, trial, j))
        assert got.tobytes() == np.array([x[0, j], y[0, j]]).tobytes()

    def test_independence_at_zero(self):
        x, y = rng.bivariate_block(0.0, seed=17, major_start=0,
                                   n_major=1, k=1_000_000)
        assert abs(float(np.mean(x * y))) < 4e-3

    def test_cross_moment(self):
        rho = 0.75
        n = 1_000_000
        x, y = rng.bivariate_block(rho, seed=19, major_start=0, n_major=1, k=n)
        tol = 4 * math.sqrt((1 + rho * rho) / n)
        assert abs(float(np.mean(x * y)) - rho) < tol

    def test_block_boundaries_do_not_matter(self):
        a = rng.bivariate_block(0.4, seed=5, major_start=0, n_major=3, k=10)
        b = rng.bivariate_block(0.4, seed=5, major_start=1, n_major=1, k=10)
        assert np.array_equal(a[0][1], b[0][0])
        assert np.array_equal(a[1][1], b[1][0])


class TestRawEstimates:
    def test_consistent_with_scalar_estimators(self):
        x, y = rng.bivariate_block(0.6, seed=23, major_start=0, n_major=40, k=37)
        scalar_fns = {Estimator.G: estimate_g, Estimator.G_NORM: estimate_g_norm,
                      Estimator.S: estimate_s, Estimator.S_NORM: estimate_s_norm}
        for est, fn in scalar_fns.items():
            vec = raw_estimates(est, x, y)
            for t in range(40):
                assert vec[t] == fn(sign_quantize(FullSketch(x[t])), FullSketch(y[t])).raw

    def test_consistent_with_scalar_full_estimators(self):
        from rpsketch import estimate_full, estimate_full_norm

        x, y = rng.bivariate_block(0.3, seed=27, major_start=0, n_major=25, k=19)
        plain = raw_estimates(Estimator.FULL, x, y)
        normed = raw_estimates(Estimator.FULL_NORM, x, y)
        for t in range(25):
            xs, ys = FullSketch(x[t]), FullSketch(y[t])
            assert plain[t] == estimate_full(xs, ys).raw
            assert normed[t] == estimate_full_norm(xs, ys).raw

    def test_sign_sign_consistent(self):
        x, y = rng.bivariate_block(0.2, seed=29, major_start=0, n_major=20, k=64)
        vec = raw_estimates(Estimator.SIGN_SIGN, x, y)
        for t in range(20):
            m = int(np.sum((x[t] >= 0) == (y[t] >= 0)))
            assert vec[t] == pytest.approx(
                float(np.cos(np.pi * (1 - m / 64))), abs=1e-15)


class TestRunMse:
    def test_reports_deterministic(self):
        cfg = SimConfig(0.5, 50, 2_000, 7, FIVE)
        assert run_mse(cfg) == run_mse(cfg)

    def test_threads_do_not_change_results(self, monkeypatch):
        # block sizes k and 7k+3 put 1 and 7 trials in a block; the default
        # block holds 2^17 // k = 2048 trials, so 5000 trials span three
        k, default = 64, simulate._BLOCK_VALUES
        assert 5_000 > 2 * (default // k)
        mles = (Estimator.MLE_SIGN_FULL, Estimator.MLE_FULL)
        for estimators, trials, block in [
                (FIVE, 2_000, k), (FIVE, 2_000, 7 * k + 3), (FIVE, 5_000, default),
                (mles, 400, k), (mles, 400, 7 * k + 3), (mles, 5_000, default)]:
            cfg = SimConfig(0.5, k, trials, 11, estimators)
            reports = run_mse(cfg)
            hist = run_histogram(0.5, k, trials, 11, estimators[-1], 13)
            monkeypatch.setattr(simulate, "_BLOCK_VALUES", block)
            for threads in (1, 2, 3):
                assert run_mse(cfg, threads=threads) == reports
                got = run_histogram(0.5, k, trials, 11, estimators[-1], 13,
                                    threads=threads)
                assert got.counts.tobytes() == hist.counts.tobytes()
                assert got.edges.tobytes() == hist.edges.tobytes()
                assert (got.frac_above_one, got.frac_below_neg_one) == (
                    hist.frac_above_one, hist.frac_below_neg_one)
            monkeypatch.undo()

    @pytest.mark.parametrize("k, trials, threads, sizes", [
        (100, 3000, 1, [1000] * 3), (100, 3000, 2, [750] * 4), (100, 3000, 3, [1000] * 3),
        (1000, 6000, 2, [131] * 45 + [105]), (64, 5, 2, [3, 2]), (1, 1, 3, [1])])
    def test_blocks_balance_over_threads(self, monkeypatch, k, trials, threads, sizes):
        # as many blocks as a multiple of threads, each within 2^17 values
        seen = []
        real = rng.bivariate_block
        monkeypatch.setattr(rng, "bivariate_block",
                            lambda rho, seed, start, n, k: seen.append(n) or real(rho, seed, start, n, k))
        run_mse(SimConfig(0.5, k, trials, 3, (Estimator.G,)), threads=threads)
        assert sorted(seen, reverse=True) == sizes

    def test_mse_identity_exact(self):
        for rep in run_mse(SimConfig(0.3, 32, 3_000, 13, FIVE)):
            assert rep.mse == rep.bias**2 + rep.variance

    def test_degenerate_rho_one_s_norm(self):
        (rep,) = run_mse(SimConfig(1.0, 10, 100, 7, (Estimator.S_NORM,)))
        assert rep.mse == 0.0 and rep.bias == 0.0 and rep.variance == 0.0

    def test_clamp_rate_recorded(self):
        # at rho=0.95, k=100, the moment estimator spills over 1 often
        (rep,) = run_mse(SimConfig(0.95, 100, 2_000, 17, (Estimator.G,)))
        assert 0.05 < rep.clamp_rate < 0.9

    @pytest.mark.parametrize("estimator,tol", [
        (Estimator.SIGN_SIGN, 0.05), (Estimator.G, 0.05), (Estimator.S, 0.05),
        (Estimator.G_NORM, 0.08), (Estimator.S_NORM, 0.08)])
    def test_mse_times_k_matches_variance_factor(self, estimator, tol):
        rho, k, trials = 0.75, 100, 20_000
        (rep,) = run_mse(SimConfig(rho, k, trials, 23, (estimator,)))
        expected = v_factor(estimator, rho).value
        assert rep.mse * k == pytest.approx(expected, rel=tol)

    def test_g_example_value(self):
        # V_g(0.75) = pi/2 - 0.5625
        (rep,) = run_mse(SimConfig(0.75, 200, 30_000, 29, (Estimator.G,)))
        assert rep.mse * 200 == pytest.approx(math.pi / 2 - 0.5625, rel=0.03)

    def test_sign_sign_example_value(self):
        # V_1(0) = pi^2/4
        (rep,) = run_mse(SimConfig(0.0, 100, 20_000, 67, (Estimator.SIGN_SIGN,)))
        assert rep.mse * 100 == pytest.approx(math.pi**2 / 4, rel=0.03)

    def test_config_validated(self):
        with pytest.raises(ConfigError):
            SimConfig(1.5, 10, 10, 1, FIVE)
        with pytest.raises(ConfigError):
            SimConfig(0.5, 0, 10, 1, FIVE)
        with pytest.raises(ConfigError):
            SimConfig(0.5, 10, 10, 1, ())


class TestRunMseRatio:
    def test_theory_columns(self):
        points = run_mse_ratio(0.5, [10, 50], 2_000, 31)
        v1 = v_factor(Estimator.SIGN_SIGN, 0.5).value
        for p in points:
            assert p.theory_ratio_s_norm == v1 / v_factor(Estimator.S_NORM, 0.5).value
            assert p.theory_ratio_g_norm == v1 / v_factor(Estimator.G_NORM, 0.5).value

    def test_ratio_definition(self):
        (p,) = run_mse_ratio(0.9, [100], 3_000, 37)
        assert p.ratio_s_norm == p.mse_sign_sign / p.mse_s_norm
        assert p.ratio_g_norm == p.mse_sign_sign / p.mse_g_norm

    def test_large_k_approaches_theory(self):
        # V_1/V_s-norm at rho=0 is (pi^2/4)/(pi - 3/2) = 1.5030...
        (p,) = run_mse_ratio(0.0, [2000], 5_000, 41)
        assert p.theory_ratio_s_norm == pytest.approx(1.50305, abs=1e-5)
        assert p.ratio_s_norm == pytest.approx(p.theory_ratio_s_norm, rel=0.05)

    def test_k_floor(self):
        with pytest.raises(ConfigError):
            run_mse_ratio(0.5, [1], 100, 1)

    def test_deterministic(self):
        assert run_mse_ratio(0.5, [20], 1_000, 43) == run_mse_ratio(
            0.5, [20], 1_000, 43)


class TestRunHistogram:
    def test_mismatch_estimator_never_above_one(self):
        h = run_histogram(0.9, 50, 5_000, 47, Estimator.S, bins=40)
        assert h.frac_above_one == 0.0

    def test_moment_estimator_spills_above_one(self):
        h = run_histogram(0.95, 100, 10_000, 53, Estimator.G, bins=40)
        assert h.frac_above_one > 0.0

    def test_s_norm_centered_on_truth(self):
        (rep,) = run_mse(SimConfig(0.95, 1000, 20_000, 59, (Estimator.S_NORM,)))
        assert abs(rep.bias) <= 0.002

    def test_counts_cover_all_trials(self):
        h = run_histogram(0.5, 20, 3_000, 61, Estimator.G_NORM, bins=10)
        assert int(h.counts.sum()) == 3_000
        assert h.edges.size == 11

    def test_bins_validated(self):
        with pytest.raises(ConfigError):
            run_histogram(0.5, 10, 100, 1, Estimator.G, bins=1)
