import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from oracles import half_gaussian_cdf_integrals
from rpsketch import DomainError, Estimator, FisherConfig, mle_variance_factor, v_factor
from rpsketch import rng, variance
from rpsketch.errors import ConfigError, ContractError
from rpsketch.mle import inv_mills

PI = math.pi
SIGN_FULL_CLOSED = [Estimator.G, Estimator.G_NORM, Estimator.S, Estimator.S_NORM]


def v(est, rho):
    return v_factor(est, rho).value


class TestClosedFormPoints:
    def test_sign_sign_at_zero(self):
        assert v(Estimator.SIGN_SIGN, 0.0) == pytest.approx(PI**2 / 4, abs=1e-12)

    def test_mismatch_family_at_zero(self):
        assert v(Estimator.S, 0.0) == pytest.approx(PI - 1, abs=1e-12)
        assert v(Estimator.S_NORM, 0.0) == pytest.approx(PI - 1.5, abs=1e-12)

    def test_g_norm_at_one(self):
        assert v(Estimator.G_NORM, 1.0) == pytest.approx(PI / 2 - 1.5, abs=1e-12)

    def test_continuous_limits_at_endpoints(self):
        assert v(Estimator.SIGN_SIGN, 1.0) == 0.0
        assert v(Estimator.SIGN_SIGN, -1.0) == 0.0
        assert v(Estimator.FULL, 1.0) == 2.0
        assert v(Estimator.FULL, -1.0) == 2.0
        assert v(Estimator.FULL_NORM, 1.0) == 0.0
        assert v(Estimator.MLE_FULL, 1.0) == 0.0
        assert v(Estimator.G, 1.0) == pytest.approx(PI / 2 - 1, abs=1e-15)
        assert v(Estimator.S, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert v(Estimator.S_NORM, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_full_family_shapes(self):
        for rho in np.linspace(-1, 1, 21):
            assert v(Estimator.FULL, rho) == pytest.approx(1 + rho**2, abs=1e-14)
            assert v(Estimator.FULL_NORM, rho) == pytest.approx(
                (1 - rho**2) ** 2, abs=1e-13)

    def test_domain_checked(self):
        with pytest.raises(DomainError):
            v_factor(Estimator.G, 1.5)

    def test_sign_full_mle_redirected(self):
        with pytest.raises(ContractError):
            v_factor(Estimator.MLE_SIGN_FULL, 0.0)

    def test_nonnegative_everywhere(self):
        for est in _ALL_CLOSED:
            for rho in np.linspace(-1, 1, 201):
                assert v(est, float(rho)) >= -1e-15


_ALL_CLOSED = [Estimator.SIGN_SIGN, Estimator.FULL, Estimator.FULL_NORM,
               Estimator.MLE_FULL, Estimator.G, Estimator.G_NORM,
               Estimator.S, Estimator.S_NORM]


class TestIntegralClosedForms:
    """Closed forms of int_0^inf t^m e^{-t^2/2} Phi(ct) dt vs quadrature."""

    @staticmethod
    def quad_oracle(rho, power):
        c = rho / math.sqrt(1 - rho * rho)
        val, err = scipy.integrate.quad(
            lambda t: t**power * math.exp(-t * t / 2) * scipy.special.ndtr(c * t),
            0, np.inf, epsabs=1e-12, epsrel=1e-12)
        assert err < 1e-9
        return val

    @pytest.mark.parametrize("rho", [-0.99, -0.7, -0.3, 0.0, 0.3, 0.7, 0.99])
    def test_matches_quadrature(self, rho):
        i1, i2, i3 = half_gaussian_cdf_integrals(rho)
        assert i1 == pytest.approx(self.quad_oracle(rho, 1), abs=1e-8)
        assert i2 == pytest.approx(self.quad_oracle(rho, 3), abs=1e-8)
        assert i3 == pytest.approx(self.quad_oracle(rho, 2), abs=1e-8)

    def test_m2_matches_multiprecision_near_minus_one(self):
        # i3 tends to 0 as rho -> -1; the closed form must not cancel there
        mp = pytest.importorskip("mpmath")
        for e in range(1, 13):
            rho = -1.0 + 10.0**-e
            with mp.workdps(60):
                r = mp.mpf(rho)
                root = mp.sqrt((1 - r) * (1 + r))
                i3 = mp.sqrt(mp.pi / 2) - (mp.atan2(root, r) - r * root) / mp.sqrt(2 * mp.pi)
            assert half_gaussian_cdf_integrals(rho)[2] == pytest.approx(
                float(i3), rel=1e-14, abs=0.0), f"rho = -1 + 1e-{e}"

    def test_values_at_zero(self):
        i1, i2, i3 = half_gaussian_cdf_integrals(0.0)
        assert i1 == 0.5
        assert i2 == 1.0
        assert i3 == pytest.approx(math.sqrt(2 * PI) / 4, abs=1e-15)


class TestRatioConstants:
    def test_high_similarity_convergence_law(self):
        """The finite-rho ratio approaches 4/(3pi) at a sqrt(1-rho) rate.

        The relative deviation is ~0.185*sqrt(1-rho) for V_s/V_1 (and
        ~0.583*sqrt(1-rho) for V_s-norm/V_1), which is why a 1e-6 absolute
        band at rho = 1-1e-8 is unattainable: the truncation term alone is
        7.85e-6 there.  This pins the law instead.
        """
        limit = 4 / (3 * PI)
        for delta in [1e-6, 1e-8]:
            rho = 1.0 - delta
            dev_s = v(Estimator.S, rho) / v(Estimator.SIGN_SIGN, rho) / limit - 1.0
            dev_sn = v(Estimator.S_NORM, rho) / v(Estimator.SIGN_SIGN, rho) / limit - 1.0
            assert dev_s / math.sqrt(delta) == pytest.approx(0.185, abs=0.02)
            assert dev_sn / math.sqrt(delta) == pytest.approx(0.583, abs=0.03)

    def test_float_evaluation_is_stable_near_one(self):
        # 50-digit reference values at the float64 rho nearest 1 - delta.
        # V_s and V_s-norm are O((1-rho)^{3/2}) differences of O(sqrt(1-rho))
        # parts; evaluating the wedge term by its series keeps them at full
        # precision (the direct difference is off by 3.2e-5 at 1 - 1e-12).
        rho = 1.0 - 1e-8
        assert v(Estimator.S, rho) / v(Estimator.SIGN_SIGN, rho) == pytest.approx(
            0.42441318157838756 + 7.85284e-6, rel=1e-6)
        references = [
            (1.0 - 1e-12,
             3.7711100277175323003752076131119642053731719517385e-18,
             3.7711115276511678710666462841199922256119199763536e-18),
            (1.0 - 1e-14,
             3.7667155718409885822602317657605070538603084115456e-21,
             3.7667157216013010578086988871458144037107319089913e-21),
        ]
        for rho, v_s, v_s_norm in references:
            assert v(Estimator.S, rho) == pytest.approx(v_s, rel=1e-12, abs=0.0)
            assert v(Estimator.S_NORM, rho) == pytest.approx(v_s_norm, rel=1e-12, abs=0.0)

    def test_mismatch_factors_match_multiprecision(self):
        mp = pytest.importorskip("mpmath")
        for e in range(1, 16):
            rho = 1.0 - 10.0**-e
            with mp.workdps(50):
                r = mp.mpf(rho)
                root = mp.sqrt((1 - r) * (1 + r))
                v_s = 2 * (mp.atan2(root, r) - r * root) - (1 - r) ** 2
                v_s_norm = v_s - (1 - r) ** 2 / 2 * (1 - 2 * r - 2 * r * r)
            assert v(Estimator.S, rho) == pytest.approx(
                float(v_s), rel=1e-13, abs=0.0), f"rho = 1 - 1e-{e}"
            assert v(Estimator.S_NORM, rho) == pytest.approx(
                float(v_s_norm), rel=1e-13, abs=0.0), f"rho = 1 - 1e-{e}"


class TestAsymptote:
    """The sign-sign factor against its high-similarity rate 2 sqrt(2) pi (1-rho)^{3/2}."""

    def test_ratio_near_one(self):
        rho = 0.9999
        ratio = v(Estimator.SIGN_SIGN, rho) / (2 * math.sqrt(2) * PI * (1 - rho) ** 1.5)
        assert abs(ratio - 1.0) < 0.02

    def test_ratio_further_out(self):
        rho = 0.99
        ratio = v(Estimator.SIGN_SIGN, rho) / (2 * math.sqrt(2) * PI * (1 - rho) ** 1.5)
        assert abs(ratio - 1.0) < 0.15


class TestOrderings:
    def test_full_family_efficiency_chain(self):
        for rho in np.linspace(-0.999, 0.999, 201):
            vfm = v(Estimator.MLE_FULL, rho)
            vfn = v(Estimator.FULL_NORM, rho)
            vf = v(Estimator.FULL, rho)
            assert vfm <= vfn + 1e-14 <= vf + 1e-14

    def test_g_normalization_always_helps(self):
        for rho in np.linspace(-1, 1, 201):
            assert v(Estimator.G_NORM, rho) <= v(Estimator.G, rho) + 1e-14

    def test_s_normalization_crossover(self):
        threshold = (math.sqrt(3) - 1) / 2
        for rho in np.linspace(-0.999, 0.999, 401):
            diff = v(Estimator.S, rho) - v(Estimator.S_NORM, rho)
            if rho < threshold - 1e-9:
                assert diff >= -1e-14
            elif rho > threshold + 1e-9:
                assert diff <= 1e-14


class TestFisherInformation:
    def test_value_at_zero(self):
        vf = mle_variance_factor(0.0, FisherConfig(1_000_000, seed=5))
        assert abs(vf.value / (PI / 2) - 1.0) < 0.01
        assert vf.mc_stderr is not None and vf.mc_stderr < 0.01

    def test_deterministic(self):
        cfg = FisherConfig(100_000, seed=9)
        a = mle_variance_factor(0.3, cfg)
        b = mle_variance_factor(0.3, cfg)
        assert a.value == b.value

    def test_any_thread_count_equals_the_serial_loop(self, monkeypatch):
        block = 1 << 14
        monkeypatch.setattr(variance, "_FISHER_BLOCK", block)  # 7 blocks, the last short
        # at this seed both sums change when the blocks are added in another order
        rho, cfg = 0.3, FisherConfig(100_000, seed=1)
        omr2 = (1.0 - rho) * (1.0 + rho)
        c, a3 = rho / math.sqrt(omr2), rho / omr2**3.5
        a2, a1 = 1.0 / omr2**3, 3.0 * rho / omr2**2.5
        total = total_sq = 0.0
        for block_id, start in enumerate(range(0, cfg.samples, block)):
            x, y = rng.bivariate_block(rho, cfg.seed, block_id, 1,
                                       min(block, cfg.samples - start))
            s = np.where(x[0] >= 0.0, 1.0, -1.0) * y[0]
            h = inv_mills(c * s)
            g = a3 * h * s**3 + a2 * h * h * s * s - a1 * h * s
            total += float(g.sum())
            total_sq += float(np.dot(g, g))
        info = total / cfg.samples
        stderr = math.sqrt(max(total_sq / cfg.samples - info * info, 0.0) / cfg.samples)
        for threads in (1, 2, 3):
            vf = mle_variance_factor(rho, cfg, threads=threads)
            assert (vf.value, vf.mc_stderr) == (1.0 / info, stderr / info**2)

    def test_domain_limited(self):
        with pytest.raises(DomainError):
            mle_variance_factor(0.9995)

    def test_sample_floor(self):
        with pytest.raises(ConfigError):
            FisherConfig(100)

    def test_cramer_rao_bound(self):
        for rho in [0.0, 0.5, 0.9]:
            vm = mle_variance_factor(rho, FisherConfig(200_000, seed=11))
            floor = vm.value - 3 * vm.mc_stderr
            for est in SIGN_FULL_CLOSED:
                assert floor <= v(est, rho)

    def test_sign_full_moment_identities_small_scale(self):
        # E(s), E(s^3), and the mismatch first/second moments at 1e6 draws
        from rpsketch import rng

        n = 1_000_000
        for rho in [-0.5, 0.0, 0.7]:
            x, y = rng.bivariate_block(rho, seed=13, major_start=0,
                                       n_major=1, k=n)
            s = np.where(x[0] >= 0.0, 1.0, -1.0) * y[0]
            mis = np.maximum(-s, 0.0)
            theta = math.atan2(math.sqrt(1 - rho * rho), rho)
            checks = [
                (s, math.sqrt(2 / PI) * rho),
                (s**3, (6 * rho - 2 * rho**3) / math.sqrt(2 * PI)),
                (mis, (1 - rho) / math.sqrt(2 * PI)),
                (mis**2, (theta - rho * math.sqrt(1 - rho * rho)) / PI),
            ]
            for draws, expected in checks:
                se = draws.std() / math.sqrt(n)
                assert abs(draws.mean() - expected) < 4 * se
