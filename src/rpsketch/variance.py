"""Closed-form asymptotic variance factors and the sign-full MLE's Monte Carlo factor.

A variance factor V(rho) is the estimator's asymptotic variance times k, the
common currency for comparing estimators.  All closed forms evaluate 1-rho^2
as (1-rho)*(1+rho): near |rho| = 1 the naive form loses half the mantissa.
That factorization alone does not keep the mismatch factors exact near
rho = 1: their wedge term theta - rho*sqrt(1-rho^2) is O((1-rho)^{3/2}) while
each of its two parts is O(sqrt(1-rho)), so the subtraction loses ~1/(1-rho)
of the relative precision.  _wedge evaluates it without cancellation, which
keeps the high-similarity ratios near full float64 precision up to
rho = 1 - 1e-15.

The sign-full MLE has no closed-form factor; its Fisher information is
integrated by deterministic Monte Carlo instead.  Only that integration
needs numpy, so it is imported there: the closed forms run on math alone,
and their records are named tuples, which cost no import of dataclasses.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ConfigError, ContractError, DomainError
from .names import Estimator

_FISHER_BLOCK = 1 << 20


class VarianceFactor(namedtuple("VarianceFactor", "estimator rho value mc_stderr",
                                defaults=(None,))):
    """A variance factor value tagged by estimator and evaluation point;
    mc_stderr is set only for Monte Carlo factors."""

    __slots__ = ()


class FisherConfig(namedtuple("FisherConfig", "samples seed")):
    __slots__ = ()

    def __new__(cls, samples: int = 1_000_000, seed: int = 0):
        if samples < 10_000:
            raise ConfigError("need at least 1e4 samples")
        return super().__new__(cls, samples, seed)


def _one_minus_rho_sq(rho: float) -> float:
    return (1.0 - rho) * (1.0 + rho)


def _v_sign_sign(rho: float) -> float:
    t = math.acos(rho)
    return t * (math.pi - t) * _one_minus_rho_sq(rho)


def _v_full(rho: float) -> float:
    return 1.0 + rho * rho


def _v_full_norm(rho: float) -> float:
    return _one_minus_rho_sq(rho) ** 2


def _v_full_mle(rho: float) -> float:
    return _one_minus_rho_sq(rho) ** 2 / (1.0 + rho * rho)


def _v_g(rho: float) -> float:
    return math.pi / 2.0 - rho * rho


def _v_g_norm(rho: float) -> float:
    return _v_g(rho) - rho * rho * (1.5 - rho * rho)


# (2n+2)(2n+3) for n = 1..8: ratios of consecutive terms of u - sin(u)
_WEDGE_SERIES_DENOMS = (20.0, 42.0, 72.0, 110.0, 156.0, 210.0, 272.0, 342.0)


def _wedge(rho: float) -> float:
    """theta - rho*sqrt(1-rho^2), theta = atan2(sqrt(1-rho^2), rho) in [0, pi].

    atan2 realizes the convention atan(1/0) = pi/2 and keeps the branch for
    rho < 0 (angles in (pi/2, pi]) without an explicit indicator.  With
    rho = cos(theta) the term equals (u - sin(u))/2 for u = 2*theta.  For
    theta < 1/2 (rho > 0.878) the direct difference cancels, so the
    alternating Taylor series of u - sin(u) is summed instead; its terms fall
    by at least 20x each, and those past u^19 are below 2e-19 relative.
    """
    root = math.sqrt(_one_minus_rho_sq(rho))
    theta = math.atan2(root, rho)
    if theta >= 0.5:
        return theta - rho * root
    x = 4.0 * theta * theta  # u^2
    series = 1.0
    for denom in reversed(_WEDGE_SERIES_DENOMS):
        series = 1.0 - x / denom * series
    return 2.0 * theta**3 / 3.0 * series  # u^3/12 * series


def _v_s(rho: float) -> float:
    return 2.0 * _wedge(rho) - (1.0 - rho) ** 2


def _v_s_norm(rho: float) -> float:
    return _v_s(rho) - (1.0 - rho) ** 2 / 2.0 * (1.0 - 2.0 * rho - 2.0 * rho * rho)


_CLOSED_FORMS = {
    Estimator.SIGN_SIGN: _v_sign_sign,
    Estimator.FULL: _v_full,
    Estimator.FULL_NORM: _v_full_norm,
    Estimator.MLE_FULL: _v_full_mle,
    Estimator.G: _v_g,
    Estimator.G_NORM: _v_g_norm,
    Estimator.S: _v_s,
    Estimator.S_NORM: _v_s_norm,
}


def v_factor(estimator: Estimator, rho: float) -> VarianceFactor:
    """Closed-form variance factor; endpoints return the continuous limit."""
    if not -1.0 <= rho <= 1.0:
        raise DomainError("rho must lie in [-1, 1]")
    fn = _CLOSED_FORMS.get(estimator)
    if fn is None:
        raise ContractError(
            "no closed form for the sign-full MLE; use mle_variance_factor")
    return VarianceFactor(estimator, rho, fn(rho))


def mle_variance_factor(rho: float, cfg: FisherConfig = FisherConfig(), *,
                        threads: int = 1) -> VarianceFactor:
    """Sign-full MLE variance factor via Monte Carlo Fisher information.

    Averages the three information terms (cubic, squared-ratio, linear in
    s = sgn(x) y) over deterministic counter-based draws and inverts the
    mean.  Samples are consumed in fixed blocks, drawn on up to `threads`
    workers, and the block sums are added in block order, so the result
    depends only on (rho, samples, seed).
    """
    import numpy as np

    from . import rng
    from .mle import inv_mills

    if not -0.999 <= rho <= 0.999:
        raise DomainError("Fisher integrand is ill-conditioned beyond |rho| = 0.999")
    omr2 = _one_minus_rho_sq(rho)
    c = rho / math.sqrt(omr2)
    a3 = rho / omr2**3.5
    a2 = 1.0 / omr2**3
    a1 = 3.0 * rho / omr2**2.5
    n = cfg.samples

    def block_sums(block_id: int) -> tuple[float, float]:
        take = min(_FISHER_BLOCK, n - block_id * _FISHER_BLOCK)
        x, y = rng.bivariate_block(rho, cfg.seed, block_id, 1, take)
        s = np.where(x[0] >= 0.0, 1.0, -1.0) * y[0]
        h = inv_mills(c * s)
        g = a3 * h * s**3 + a2 * h * h * s * s - a1 * h * s
        return float(g.sum()), float(np.dot(g, g))

    total = 0.0
    total_sq = 0.0
    for part, part_sq in rng.ordered_map(block_sums, range(-(-n // _FISHER_BLOCK)),
                                         threads):
        total += part
        total_sq += part_sq
    info = total / n
    var_info = max(total_sq / n - info * info, 0.0) / n
    value = 1.0 / info
    stderr = math.sqrt(var_info) / info**2
    return VarianceFactor(Estimator.MLE_SIGN_FULL, rho, value, stderr)
