"""Normal special functions and the two maximum-likelihood estimators.

The sign-full MLE maximizes sum_j log Phi(c * s_j) over rho, where
c = rho / sqrt(1 - rho^2) and s_j = sgn(x_j) * y_j.  Its score equation is
sum_j invmills(c * s_j) * s_j = 0 after dropping the positive prefactor
(1 - rho^2)^(-3/2), which preserves the roots and removes a spurious
singularity at |rho| -> 1.  The full-data MLE is the root of a cubic in rho
built from the sample second moments.

Both solvers run on many rows at once, in chunks of at most _CHUNK_VALUES
values, and every row takes the same arithmetic it would take alone: the
scalar entry points are batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr

from .errors import ConfigError, DegenerateInputError, DomainError, ShapeError
from .projection import (FullSketch, FullStore, SignSketch, SignStore, sign_array,
                         sum_product)

_INV_SQRT_TAU = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_2 = math.sqrt(2.0)
_CHUNK_VALUES = 1 << 18  # solver chunk: this many values (rows x row width)


def norm_pdf(t):
    """Standard normal density phi(t); accepts scalars or arrays."""
    t = np.asarray(t, dtype=np.float64)
    out = _INV_SQRT_TAU * np.exp(-0.5 * t * t)
    return float(out) if out.ndim == 0 else out


def norm_cdf(t):
    """Standard normal CDF Phi(t); accepts scalars or arrays."""
    t = np.asarray(t, dtype=np.float64)
    out = ndtr(t)
    return float(out) if out.ndim == 0 else out


def inv_mills(t):
    """phi(t)/Phi(t) without underflow or overflow anywhere on the axis.

    Evaluated as sqrt(2/pi) / erfcx(-t/sqrt(2)): the scaled complementary
    error function absorbs the exp(-t^2/2) common to numerator and
    denominator, so the far left tail returns ~|t| + 1/|t| instead of 0/0.
    Beyond t = 8 the denominator Phi(t) is 1 to double precision (and erfcx
    of the large negative argument would overflow), so the density alone is
    returned there; it degrades gracefully through the subnormal range.
    """
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore"):
        left = _SQRT_2_OVER_PI / erfcx(-np.minimum(t, 8.0) / _SQRT_2)
    out = np.where(t < 8.0, left, _INV_SQRT_TAU * np.exp(-0.5 * t * t))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-10  # on rho
    max_iter: int = 200
    boundary_eps: float = 1e-9

    def __post_init__(self):
        if self.tolerance <= 0 or self.boundary_eps <= 0 or self.max_iter < 1:
            raise ConfigError("tolerance, boundary_eps and max_iter must be positive")


@dataclass(frozen=True)
class MleResult:
    rho_hat: float
    at_boundary: bool
    iterations: int


@dataclass(frozen=True, eq=False)
class MleBatch:
    """Per-row solver results; row i is the MleResult of solving row i alone."""

    rho_hat: np.ndarray
    at_boundary: np.ndarray
    iterations: np.ndarray

    def __len__(self) -> int:
        return self.rho_hat.size

    def __getitem__(self, i: int) -> MleResult:
        return MleResult(float(self.rho_hat[i]), bool(self.at_boundary[i]),
                         int(self.iterations[i]))


def _chunked(solve, width: int, *arrays) -> MleBatch:
    """solve(*rows) -> (rho_hat, at_boundary, iterations) over chunks of at
    most _CHUNK_VALUES // width rows of the arrays, concatenated."""
    step = max(1, _CHUNK_VALUES // max(width, 1))
    parts = [solve(*(a[i:i + step] for a in arrays))
             for i in range(0, max(len(arrays[0]), 1), step)]
    return MleBatch(*map(np.concatenate, zip(*parts)))


def _libm(fn, a: np.ndarray) -> np.ndarray:
    """fn on each element through the C library, as scalar Python code calls
    it: numpy's vectorised pow and log may differ in the last bit."""
    return np.fromiter(map(fn, a.ravel().tolist()), np.float64, a.size).reshape(a.shape)


def _scores(rho: np.ndarray, s: np.ndarray, slope: bool = False):
    """Score of each row of s at its own rho, and with slope=True its
    derivative in rho."""
    omr2 = (1.0 - rho) * (1.0 + rho)
    cs = (rho / np.sqrt(omr2))[:, None] * s
    h = inv_mills(cs)
    f = np.sum(h * s, axis=1)
    if not slope:
        return f
    # d/dt inv_mills(t) = -inv_mills(t) * (t + inv_mills(t)); dc/drho = omr2^{-3/2}
    return f, -np.sum(h * (cs + h) * s * s, axis=1) / _libm(lambda o: o**1.5, omr2)


def score(rho: float, signs: SignSketch, query: FullSketch) -> float:
    """Likelihood score sum_j invmills(c*s_j)*s_j at a given rho in (-1, 1),
    with s_j = sgn(x_j) * y_j."""
    if signs.k != query.k:
        raise ShapeError(f"k mismatch: {signs.k} vs {query.k}")
    if not -1.0 < rho < 1.0:
        raise DomainError("score requires |rho| < 1")
    if not np.any(query.values != 0.0):
        raise DegenerateInputError("all query coordinates are zero")
    return float(_scores(np.array([float(rho)]), (sign_array(signs) * query.values)[None, :])[0])


def _log_likelihood(rho: float, s: np.ndarray) -> np.ndarray:
    c = rho / math.sqrt((1.0 - rho) * (1.0 + rho))
    return np.sum(log_ndtr(c * s), axis=1)


def mle_sign_full(signs: SignSketch, query: FullSketch,
                  cfg: SolverConfig = SolverConfig()) -> MleResult:
    """Root of the sign-full likelihood score, by safeguarded Newton.

    If the score never changes sign on [-1+eps, 1-eps] the likelihood is
    monotone there (all nonzero s_j share a sign) and the boundary the score
    points at is returned with ``at_boundary`` set.
    """
    return mle_sign_full_store(SignStore(signs.bits[None, :], signs.k), query, cfg)[0]


def mle_sign_full_store(store: SignStore, query: FullSketch,
                        cfg: SolverConfig = SolverConfig()) -> MleBatch:
    """Sign-full MLE of every row of a sign store against one query, with
    s_j = sgn(x_j) * y_j unpacked from the stored bits one chunk at a time."""
    if store.k != query.k:
        raise ShapeError(f"k mismatch: {store.k} vs {query.k}")
    if not np.any(query.values != 0.0):
        raise DegenerateInputError("all query coordinates are zero")
    return _chunked(lambda bits: _sign_full_rows(
        sign_array(SignStore(bits, store.k)) * query.values, cfg), store.k, store.bits)


def solve_sign_full(s: np.ndarray, cfg: SolverConfig = SolverConfig()) -> MleResult:
    """Solver core on precomputed products s_j = sgn(x_j) * y_j."""
    return solve_sign_full_batch(np.asarray(s, dtype=np.float64)[None, :], cfg)[0]


def solve_sign_full_batch(s: np.ndarray, cfg: SolverConfig = SolverConfig()) -> MleBatch:
    """solve_sign_full on every row of an (n, k) array of products."""
    s = np.asarray(s, dtype=np.float64)
    return _chunked(lambda rows: _sign_full_rows(rows, cfg), s.shape[1], s)


def _sign_full_rows(s: np.ndarray, cfg: SolverConfig):
    """Boundary rules, then safeguarded Newton, for each row of s.

    A row whose score does not fall from + to - across [-1+eps, 1-eps] takes
    the edge its score points at (or, flat, the likelier edge).  Every other
    row keeps its own bracket a < x < b with f(a) > 0 > f(b), steps by Newton
    when the step stays inside it and bisects otherwise, and stops when a
    step moves x by at most the tolerance, the score is exactly 0, or after
    max_iter steps.  Only the rows still running are evaluated.
    """
    n = s.shape[0]
    lo = -1.0 + cfg.boundary_eps
    hi = 1.0 - cfg.boundary_eps
    f_lo = _scores(np.full(n, lo), s)
    f_hi = _scores(np.full(n, hi), s)
    up = (f_lo > 0.0) & (f_hi >= 0.0)
    down = (f_lo <= 0.0) & (f_hi < 0.0)
    inner = (f_lo > 0.0) & (0.0 > f_hi)
    flat = ~(inner | up | down)  # numerically flat or interior minimum
    rho = np.where(up, hi, lo)
    rho[flat] = np.where(_log_likelihood(hi, s[flat]) >= _log_likelihood(lo, s[flat]),
                         hi, lo)
    iterations = np.zeros(n, dtype=np.int64)

    idx = np.flatnonzero(inner)
    s = s[idx]
    a, b = np.full(idx.size, lo), np.full(idx.size, hi)
    x = 0.5 * (a + b)
    for it in range(1, cfg.max_iter + 1):
        if not idx.size:
            break
        f, slope = _scores(x, s, slope=True)
        iterations[idx] = it
        a = np.where(f > 0.0, x, a)
        b = np.where(f < 0.0, x, b)
        root = ~(f > 0.0) & ~(f < 0.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_new = x - f / slope
        step_ok = (slope != 0.0) & np.isfinite(slope) & (a < x_new) & (x_new < b)
        x_new = np.where(step_ok, x_new, 0.5 * (a + b))
        going = ~root & ~(np.abs(x_new - x) <= cfg.tolerance)
        x = np.where(root, x, x_new)
        rho[idx] = x
        idx, s, a, b, x = idx[going], s[going], a[going], b[going], x[going]
    return rho, ~inner, iterations


def mle_full(x: FullSketch, y: FullSketch,
             cfg: SolverConfig = SolverConfig()) -> MleResult:
    """Full-data MLE: likelihood-maximizing real root of the moment cubic.

    With sample moments b = sum(x_j y_j)/k and m = (sum x_j^2 + sum y_j^2)/k
    the stationarity condition is rho^3 - b rho^2 + (m - 1) rho - b = 0.
    Multiple real roots occur with small probability; the exact bivariate
    normal log-likelihood picks the winner.  A root at or beyond +/-1 is
    clamped and flagged as a boundary solution.
    """
    return mle_full_store(FullStore.stack([x]), y, cfg)[0]


def mle_full_store(store: FullStore, query: FullSketch,
                   cfg: SolverConfig = SolverConfig()) -> MleBatch:
    """mle_full of every row of a full store against one query."""
    if store.k != query.k:
        raise ShapeError(f"k mismatch: {store.k} vs {query.k}")
    k = store.k
    if k < 1 or np.any(store.sumsq == 0.0) or query.sumsq == 0.0:
        raise DomainError("degenerate sketches")
    return solve_full_batch(sum_product(store.values, query.values) / k,
                            (store.sumsq + query.sumsq) / k, k, cfg)


def solve_full_from_moments(b: float, m: float, k: int,
                            cfg: SolverConfig = SolverConfig()) -> MleResult:
    """Cubic-MLE core on the sample moments b = mean(xy), m = mean(x^2+y^2)."""
    return solve_full_batch(np.array([b], dtype=np.float64),
                            np.array([m], dtype=np.float64), k, cfg)[0]


def solve_full_batch(b: np.ndarray, m: np.ndarray, k: int,
                     cfg: SolverConfig = SolverConfig()) -> MleBatch:
    """solve_full_from_moments on every pair (b[i], m[i])."""
    b = np.asarray(b, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    return _chunked(lambda bc, mc: _full_rows(bc, mc, k, cfg), 9, b, m)


def _full_rows(b: np.ndarray, m: np.ndarray, k: int, cfg: SolverConfig):
    """Roots of rho^3 - b rho^2 + (m - 1) rho - b from one eigvals call on
    the stacked companion matrices np.roots builds, then per row the
    likeliest real root in [-1, 1] (ties to the smallest); with none there,
    the sign of the real root nearest +/-1 (ties to the smallest)."""
    comp = np.zeros((b.size, 3, 3))
    comp[:, 0, 0] = comp[:, 0, 2] = b
    comp[:, 0, 1] = -(m - 1.0)
    comp[:, 1, 0] = comp[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(comp)
    re = roots.real
    real = np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(re))
    ok = real & (re >= -1.0) & (re <= 1.0)
    r = np.minimum(np.maximum(re, -1.0 + cfg.boundary_eps), 1.0 - cfg.boundary_eps)
    omr2 = (1.0 - r) * (1.0 + r)
    loglik = np.where(ok, -0.5 * k * _libm(math.log, omr2)
                      - k * (m[:, None] - 2.0 * r * b[:, None]) / (2.0 * omr2), -np.inf)
    best = np.where(ok & (loglik == loglik.max(axis=1, keepdims=True)), re, np.inf).min(axis=1)
    dist = np.where(real, np.abs(np.abs(re) - 1.0), np.inf)
    nearest = np.where(real & (dist == dist.min(axis=1, keepdims=True)), re, np.inf)
    best = np.where(ok.any(axis=1), best, np.copysign(1.0, nearest.min(axis=1)))
    return best, np.abs(best) >= 1.0 - cfg.boundary_eps, np.zeros(b.size, dtype=np.int64)
