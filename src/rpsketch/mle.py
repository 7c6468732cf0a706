"""Normal special functions and the two maximum-likelihood estimators.

The sign-full MLE maximizes sum_j log Phi(c * s_j) over rho, where
c = rho / sqrt(1 - rho^2) and s_j = sgn(x_j) * y_j.  Its score equation is
sum_j invmills(c * s_j) * s_j = 0 after dropping the positive prefactor
(1 - rho^2)^(-3/2), which preserves the roots and removes a spurious
singularity at |rho| -> 1.  The full-data MLE is the root of a cubic in rho
built from the sample second moments.

Both solvers run on many rows at once, in chunks of at most _CHUNK_VALUES
values, and every row takes the same arithmetic it would take alone: the
pair-level entry points on row arrays are batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ShapeError
from .projection import SignStore, sign_array

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_2 = math.sqrt(2.0)
_SQRT_TAU = math.sqrt(2.0 * math.pi)
_MAX_T_MILLS = 0.2946  # max over t > 0 of t * inv_mills(t), 0.294528..., rounded up
_CHUNK_VALUES = 1 << 18  # solver chunk: this many values (rows x row width)

tolerance = 1e-10  # a Newton step moving rho by at most this ends a row
max_iter = 200  # Newton steps per row at most
boundary_eps = 1e-9  # |rho| >= 1 - boundary_eps is a boundary hit; the sign-full search stays inside


# Cody's rational Chebyshev approximations (Math. Comp. 23, 1969; netlib CALERF),
# N and D leading term first, D's leading 1 implied: erfcx(x) is exp(x^2) (1 - x N/D(x^2))
# to x = 0.46875, N/D(x) to 4, then (1/sqrt(pi) - z N/D(z)) / x with z = 1/x^2.
_ERF = ((0.185777706184603153, 3.16112374387056560, 113.864154151050156, 377.485237685302021,
         3209.37758913846947),
        (23.6012909523441209, 244.024637934444173, 1282.61652607737228, 2844.23683343917062))
_ERFCX = ((2.15311535474403846e-8, 0.564188496988670089, 8.88314979438837594, 66.1191906371416295,
           298.635138197400131, 881.952221241769090, 1712.04761263407058, 2051.07837782607147,
           1230.33935479799725),
          (15.7449261107098347, 117.693950891312499, 537.181101862009858, 1621.38957456669019,
           3290.79923573345963, 4362.61909014324716, 3439.36767414372164, 1230.33935480374942))
_ASYMPTOTIC = ((1.63153871373020978e-2, 0.305326634961232344, 0.360344899949804439,
                0.125781726111229246, 1.60837851487422766e-2, 6.58749161529837803e-4),
               (2.56852019228982242, 1.87295284992346725, 0.527905102951428412,
                6.05183413124413191e-2, 2.33520497626869185e-3))
_SQRPI = 1.0 / math.sqrt(math.pi)  # CALERF's name for it
# exp(-(m/16)^2 / 2), m = 0..640, 0 from 618 on, without numpy's slow underflowing exp
_GAUSS_16THS = np.exp(-0.5 * (np.arange(641) / 16.0) ** 2)
_PIECE = 1 << 14  # kernel piece: this many values, so its temporaries stay in cache


def _ratio(coef, z: np.ndarray) -> np.ndarray:
    """N(z)/D(z) by Horner in Cody's order of operations, in place."""
    (n0, n1, *num), (d1, *den) = coef
    p, q = n0 * z + n1, z + d1
    for a, b in zip(num, den):
        np.add(np.multiply(p, z, out=p), a, out=p)
        np.add(np.multiply(q, z, out=q), b, out=q)
    return np.divide(p, q, out=p)


def _erfcx(x: np.ndarray) -> np.ndarray:
    """exp(x^2) erfc(x), x >= 0: the fullest branch on all of x, the others on their own."""
    small, large = x <= 0.46875, x > 4.0
    branches = [(small, lambda v: np.exp(v * v) * (1.0 - v * _ratio(_ERF, v * v))),
                (~(small | large), lambda v: _ratio(_ERFCX, v)),
                (large, lambda v: (_SQRPI - (z := 1.0 / (v * v)) * _ratio(_ASYMPTOTIC, z)) / v)]
    branches.sort(key=lambda mb: -np.count_nonzero(mb[0]))  # stable: ties keep this order
    with np.errstate(all="ignore"):  # the first branch meets the others' values
        out = branches[0][1](x)
        for mask, branch in branches[1:]:
            if (idx := np.flatnonzero(mask)).size:
                out[idx] = branch(x[idx])
    return out


def _by_piece(combine, t):
    """combine(t, erfcx(|t|/sqrt2), exp(-t^2/2)) by cache-sized pieces; the exp splits
    |t| at trunc(16|t|)/16 (exact square), keeping the accuracy t/sqrt2 would lose."""
    t = np.asarray(t, dtype=np.float64)
    flat, res = t.reshape(-1), np.empty(t.size)
    for i in range(0, flat.size, _PIECE):
        v = flat[i:i + _PIECE]
        e = _erfcx(np.abs(v) / _SQRT_2)
        a = np.fmin(np.abs(v), 40.0)  # NaN: 40, and its e is NaN
        m = (a * 16.0).astype(np.intp)
        g = np.exp(-0.5 * (a - m / 16.0) * (a + m / 16.0))
        res[i:i + _PIECE] = combine(v, e, g * _GAUSS_16THS.take(m))
    return float(res[0]) if t.ndim == 0 else res.reshape(t.shape)


def log_norm_cdf(t):
    """log Phi(t): log(erfcx(-t/sqrt2)/2) - t^2/2, or log1p(-Phi(-t)) for t > 0."""
    return _by_piece(lambda t, e, g: np.where(
        t > 0.0, np.log1p(-0.5 * e * g), np.log(0.5 * e) - 0.5 * t * t), t)


def inv_mills(t):
    """phi(t)/Phi(t) = sqrt(2/pi) / erfcx(-t/sqrt2): ~|t| + 1/|t| far left, not 0/0, and
    for t > 0 sqrt(2/pi) g / (2 - erfcx(t/sqrt2) g) with g = exp(-t^2/2), never overflowing."""
    return _by_piece(lambda t, e, g: np.where(
        t > 0.0, _SQRT_2_OVER_PI * g / (2.0 - e * g), _SQRT_2_OVER_PI / e), t)


@dataclass(frozen=True)
class MleResult:
    rho_hat: float
    at_boundary: bool
    iterations: int


@dataclass(frozen=True, eq=False)
class MleBatch:
    """Per-row solver results: entry i of each array is the result of solving
    row i alone."""

    rho_hat: np.ndarray
    at_boundary: np.ndarray
    iterations: np.ndarray

    def __len__(self) -> int:
        return self.rho_hat.size


def _only_row(batch: MleBatch) -> MleResult:
    return MleResult(float(batch.rho_hat[0]), bool(batch.at_boundary[0]),
                     int(batch.iterations[0]))


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


def mle_sign_full_store(store: SignStore, y: np.ndarray) -> MleBatch:
    """Sign-full MLE of every row of a sign store against one query row y,
    with s_j = sgn(x_j) * y_j unpacked from the stored bits one chunk at a time."""
    if store.k != y.size:
        raise ShapeError(f"k mismatch: {store.k} vs {y.size}")
    if not np.any(y != 0.0):
        raise DegenerateInputError("all query coordinates are zero")
    return _chunked(lambda bits: _sign_full_rows(
        sign_array(SignStore(bits, store.k)) * y), store.k, store.bits)


def solve_sign_full(s: np.ndarray) -> MleResult:
    """Solver core on precomputed products s_j = sgn(x_j) * y_j."""
    return _only_row(solve_sign_full_batch(np.asarray(s, dtype=np.float64)[None, :]))


def solve_sign_full_batch(s: np.ndarray) -> MleBatch:
    """solve_sign_full on every row of an (n, k) array of products."""
    s = np.asarray(s, dtype=np.float64)
    return _chunked(_sign_full_rows, s.shape[1], s)


def _sign_full_rows(s: np.ndarray):
    """Boundary rules, then safeguarded Newton, for each row of s.

    A row whose score does not fall from + to - across [-1+eps, 1-eps] takes
    the edge its score points at (or, flat, the likelier edge).  An edge's
    score is evaluated only where its sign is not proven.  With |c| =
    c(1-eps), a product on the side an edge favours adds at least
    |s| max(sqrt(2/pi), |c||s|) there, and one on the other side takes away
    at most max_t t invmills(t) / |c|: so f(lo) > 0 when some positive
    product adds twice what all negative ones can take away, and f(hi) < 0
    with the signs swapped.  A row of one sign has terms of that sign or 0 at
    both edges, and a nonzero one at the edge it favours, which it takes.
    Every other row starts at its s-norm estimate, clipped to 0.999 of the
    edges, keeps its own bracket a < x < b with f(a) > 0 > f(b), steps by
    Newton when the step stays inside it or rounds to x itself and bisects
    otherwise, and stops when a step moves x by at most the tolerance, the
    score is exactly 0, or after max_iter steps.  Only the rows still running
    are evaluated.
    """
    n, k = s.shape
    lo = -1.0 + boundary_eps
    hi = 1.0 - boundary_eps
    edge = (1.0 - boundary_eps) / math.sqrt(boundary_eps * (2.0 - boundary_eps))
    top, bot = np.max(s, axis=1, initial=0.0), -np.min(s, axis=1, initial=0.0)
    n_pos, n_neg = np.count_nonzero(s > 0.0, axis=1), np.count_nonzero(s < 0.0, axis=1)
    ok = np.isfinite(top + bot)  # no inf or NaN, which could make 0 * inf
    cap = 2.0 * _MAX_T_MILLS / edge  # twice what one wrong-side product can add
    sure_lo, sure_hi = (ok & (v * np.maximum(_SQRT_2_OVER_PI, edge * v) > cap * w)
                        for v, w in ((top, n_neg), (bot, n_pos)))
    f_lo, f_hi = np.where(sure_lo, 1.0, 0.0), np.where(sure_hi, -1.0, 0.0)
    for f, r, known in ((f_lo, lo, sure_lo | sure_hi & (n_pos == 0)),
                        (f_hi, hi, sure_hi | sure_lo & (n_neg == 0))):
        f[~known] = _scores(np.full(n - np.count_nonzero(known), r), s[~known])
    up = (f_lo > 0.0) & (f_hi >= 0.0)
    down = (f_lo <= 0.0) & (f_hi < 0.0)
    inner = (f_lo > 0.0) & (0.0 > f_hi)
    flat = ~(inner | up | down)  # numerically flat or interior minimum
    rho = np.where(up, hi, lo)
    ll_lo, ll_hi = (np.sum(log_norm_cdf(r / math.sqrt((1.0 - r) * (1.0 + r)) * s[flat]), axis=1)
                    for r in (lo, hi))
    rho[flat] = np.where(ll_hi >= ll_lo, hi, lo)
    iterations = np.zeros(n, dtype=np.int64)

    idx = np.flatnonzero(inner)
    s = s[idx]
    a, b = np.full(idx.size, lo), np.full(idx.size, hi)
    x = 1.0 - _SQRT_TAU * np.sum(np.maximum(-s, 0.0), axis=1) / (
        math.sqrt(k) * np.sqrt(np.sum(s * s, axis=1)))
    x = np.fmax(np.fmin(x, 0.999 * hi), 0.999 * lo)  # fmin: a NaN (inf/inf) starts high
    for it in range(1, max_iter + 1):
        if not idx.size:
            break
        f, slope = _scores(x, s, slope=True)
        iterations[idx] = it
        a = np.where(f > 0.0, x, a)
        b = np.where(f < 0.0, x, b)
        root = ~(f > 0.0) & ~(f < 0.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_new = x - f / slope
        step_ok = (slope != 0.0) & np.isfinite(slope) & (
            (a < x_new) & (x_new < b) | (x_new == x))
        x_new = np.where(step_ok, x_new, 0.5 * (a + b))
        going = ~root & ~(np.abs(x_new - x) <= tolerance)
        x = np.where(root, x, x_new)
        rho[idx] = x
        idx, s, a, b, x = idx[going], s[going], a[going], b[going], x[going]
    return rho, ~inner, iterations


def solve_full_from_moments(b: float, m: float, k: int) -> MleResult:
    """Cubic-MLE core on the sample moments b = mean(xy), m = mean(x^2+y^2)."""
    return _only_row(solve_full_batch(np.array([b], dtype=np.float64),
                                      np.array([m], dtype=np.float64), k))


def solve_full_batch(b: np.ndarray, m: np.ndarray, k: int) -> MleBatch:
    """solve_full_from_moments on every pair (b[i], m[i])."""
    b = np.asarray(b, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    return _chunked(lambda bc, mc: _full_rows(bc, mc, k), 9, b, m)


def _full_rows(b: np.ndarray, m: np.ndarray, k: int):
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
    r = np.minimum(np.maximum(re, -1.0 + boundary_eps), 1.0 - boundary_eps)
    omr2 = (1.0 - r) * (1.0 + r)
    loglik = np.where(ok, -0.5 * k * _libm(math.log, omr2)
                      - k * (m[:, None] - 2.0 * r * b[:, None]) / (2.0 * omr2), -np.inf)
    best = np.where(ok & (loglik == loglik.max(axis=1, keepdims=True)), re, np.inf).min(axis=1)
    dist = np.where(real, np.abs(np.abs(re) - 1.0), np.inf)
    nearest = np.where(real & (dist == dist.min(axis=1, keepdims=True)), re, np.inf)
    best = np.where(ok.any(axis=1), best, np.copysign(1.0, nearest.min(axis=1)))
    return best, np.abs(best) >= 1.0 - boundary_eps, np.zeros(b.size, dtype=np.int64)
