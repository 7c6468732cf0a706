"""Bivariate-normal simulation lab: empirical MSEs, ratio curves, histograms.

For a target correlation rho, each trial draws k pairs (x_j, y_j) from the
standard bivariate normal and applies the requested estimators to the raw
(pre-clamp) formula values.  Trials are indexed deterministically by
(seed, trial, j), simulated in fixed-size blocks, and reduced in trial order,
so reports are bitwise-reproducible for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mle, rng, variance
from .errors import ConfigError
from .estimators import Estimator, SampleStats, raw_values

_BLOCK_VALUES = 1 << 17  # trials per block = _BLOCK_VALUES // k


@dataclass(frozen=True)
class SimConfig:
    rho: float
    k: int
    trials: int
    seed: int
    estimators: tuple[Estimator, ...]

    def __post_init__(self):
        if not -1.0 <= self.rho <= 1.0:
            raise ConfigError("rho must lie in [-1, 1]")
        if self.k < 1 or self.trials < 1:
            raise ConfigError("k and trials must be >= 1")
        if not self.estimators:
            raise ConfigError("need at least one estimator")
        object.__setattr__(self, "estimators", tuple(self.estimators))


@dataclass(frozen=True)
class MseReport:
    estimator: Estimator
    rho: float
    k: int
    bias: float
    variance: float
    mse: float
    clamp_rate: float


@dataclass(frozen=True)
class Histogram:
    estimator: Estimator
    rho: float
    k: int
    edges: np.ndarray
    counts: np.ndarray
    frac_above_one: float
    frac_below_neg_one: float


def raw_estimates(estimator: Estimator, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Raw per-trial formula values over (trials, k) sample blocks."""
    return _block_estimates((estimator,), x, y)[estimator]


def _block_estimates(estimators, x: np.ndarray,
                     y: np.ndarray) -> dict[Estimator, np.ndarray]:
    """Raw values of every estimator on one block; each statistic the closed
    forms share is computed once."""
    st = SampleStats(x, y)
    out = {}
    for est in estimators:
        if est is Estimator.MLE_FULL:
            out[est] = mle.solve_full_batch(st.xy / st.k, (st.xx + st.yy) / st.k,
                                            st.k).rho_hat
        elif est is Estimator.MLE_SIGN_FULL:
            s = np.where(x >= 0.0, 1.0, -1.0) * y
            out[est] = mle.solve_sign_full_batch(s).rho_hat
        else:
            out[est] = raw_values(est, st)
    return out


def _simulate_raw(cfg: SimConfig, threads: int = 1) -> dict[Estimator, np.ndarray]:
    """Raw estimates for every requested estimator, trial-major order, from
    equal blocks of at most _BLOCK_VALUES values, a multiple of `threads`."""
    blocks = -(-cfg.trials // max(1, _BLOCK_VALUES // cfg.k))
    block = -(-cfg.trials // (-(-blocks // threads) * threads))

    def one_block(start: int) -> dict[Estimator, np.ndarray]:
        x, y = rng.bivariate_block(cfg.rho, cfg.seed, start,
                                   min(block, cfg.trials - start), cfg.k)
        return _block_estimates(cfg.estimators, x, y)

    results = rng.ordered_map(one_block, range(0, cfg.trials, block), threads)
    return {est: np.concatenate([r[est] for r in results])
            for est in cfg.estimators}


def run_mse(cfg: SimConfig, threads: int = 1) -> list[MseReport]:
    """Empirical bias, variance and MSE per estimator over cfg.trials trials.

    The decomposition mse = bias^2 + variance holds exactly by construction;
    clamp_rate is the fraction of raw values outside [-1, 1].
    """
    raws = _simulate_raw(cfg, threads)
    reports = []
    for est in cfg.estimators:
        r = raws[est]
        mean = float(r.mean())
        bias = mean - cfg.rho
        var = float(np.mean((r - mean) ** 2))
        clamp = float(np.mean((r > 1.0) | (r < -1.0)))
        reports.append(MseReport(est, cfg.rho, cfg.k, bias, var,
                                 bias * bias + var, clamp))
    return reports


@dataclass(frozen=True)
class RatioPoint:
    k: int
    mse_sign_sign: float
    mse_s_norm: float
    mse_g_norm: float
    ratio_s_norm: float
    ratio_g_norm: float
    theory_ratio_s_norm: float
    theory_ratio_g_norm: float


def run_mse_ratio(rho: float, k_grid, trials: int, seed: int,
                  threads: int = 1) -> list[RatioPoint]:
    """MSE(sign-sign)/MSE(normalized estimator) per k, with theory columns.

    The theory columns are the constant variance-factor quotients
    V_sign-sign / V_s-norm and V_sign-sign / V_g-norm at this rho, which
    are 0/0 at rho = 1, so that rho is refused (ConfigError).
    """
    k_grid = [int(k) for k in k_grid]
    if any(k < 2 for k in k_grid):
        raise ConfigError("ratio curves need k >= 2")
    if rho == 1.0:  # both MSEs and both variance factors are 0
        raise ConfigError("ratio curves need rho < 1: at rho = 1 every MSE is 0")
    v1 = variance.v_factor(Estimator.SIGN_SIGN, rho).value
    th_s = v1 / variance.v_factor(Estimator.S_NORM, rho).value
    th_g = v1 / variance.v_factor(Estimator.G_NORM, rho).value
    wanted = (Estimator.SIGN_SIGN, Estimator.S_NORM, Estimator.G_NORM)
    points = []
    for k in k_grid:
        reports = {r.estimator: r for r in run_mse(
            SimConfig(rho, k, trials, seed, wanted), threads)}
        m1 = reports[Estimator.SIGN_SIGN].mse
        ms = reports[Estimator.S_NORM].mse
        mg = reports[Estimator.G_NORM].mse
        points.append(RatioPoint(k, m1, ms, mg, m1 / ms, m1 / mg, th_s, th_g))
    return points


def run_histogram(rho: float, k: int, trials: int, seed: int,
                  estimator: Estimator, bins: int,
                  threads: int = 1) -> Histogram:
    """Bin the raw (pre-clamp) estimates; the point is the mass outside [-1, 1]."""
    if bins < 2:
        raise ConfigError("need at least 2 bins")
    raws = _simulate_raw(SimConfig(rho, k, trials, seed, (estimator,)),
                         threads)[estimator]
    counts, edges = np.histogram(raws, bins=bins)
    return Histogram(estimator, rho, k, edges, counts,
                     float(np.mean(raws > 1.0)), float(np.mean(raws < -1.0)))
