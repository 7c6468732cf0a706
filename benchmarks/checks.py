"""Output checks for the benchmark, computed apart from the program.

Every check reads one CLI output file and compares it with what the
benchmark computes itself from its own generated vectors, or with a
property the method must have.  None compares against a stored copy of an
earlier output.  A failed check raises CheckError.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.sparse
from scipy import integrate
from scipy.special import log_ndtr

SKETCH_HEADER_BYTES = 18  # magic, version, kind, uint32 k, uint64 count

#: k*MSE over V(rho) must lie in [1 - band, 1 + band]; across seeds the
#: ratio's standard deviation is ~2% (search), ~1.9% (lab closed-form
#: estimators, 6000 trials) and ~2.7% (lab MLEs, 3000 trials)
LAB_BAND = 0.15
SEARCH_BAND = 0.1
#: no single s-norm score may miss the exact cosine by more than this; at
#: k = 256 that is more than 7 standard deviations for every rho in [0, 1]
SEARCH_MAX_DEVIATION = 0.6


class CheckError(Exception):
    """A CLI output is not what the method must produce."""


def _wedge(rho):
    theta = np.arccos(rho)
    return theta - rho * np.sqrt((1.0 - rho) * (1.0 + rho))


def _v_s(rho):
    return 2.0 * _wedge(rho) - (1.0 - rho) ** 2


def _fisher_sign_full(rho: float) -> float:
    """Fisher information of the sign-full data s = sgn(x)*y about rho.

    s has the skew-normal density 2*phi(s)*Phi(c*s), c = rho/sqrt(1-rho^2),
    whose score is s*phi(c*s)/Phi(c*s) * (1-rho^2)^(-3/2).
    """
    omr2 = (1.0 - rho) * (1.0 + rho)
    c = rho / math.sqrt(omr2)

    def integrand(s):
        cs = c * s
        # 2 s^2 phi(s) phi(cs)^2 / Phi(cs), in logs for the far tail
        log_term = (-0.5 * s * s - cs * cs - 1.5 * math.log(2.0 * math.pi)
                    - log_ndtr(cs))
        return 2.0 * s * s * math.exp(log_term)

    total = sum(integrate.quad(integrand, a, b, limit=200)[0]
                for a, b in ((-np.inf, 0.0), (0.0, np.inf)))
    return total / omr2**3


#: closed-form V(rho) = k * asymptotic variance, per CLI estimator name
V_FACTORS = {
    "sign-sign": lambda r: np.arccos(r) * (np.pi - np.arccos(r)) * (1.0 - r) * (1.0 + r),
    "g": lambda r: np.pi / 2.0 - r * r,
    "g-norm": lambda r: np.pi / 2.0 - r * r - r * r * (1.5 - r * r),
    "s": _v_s,
    "s-norm": lambda r: _v_s(r) - (1.0 - r) ** 2 / 2.0 * (1.0 - 2.0 * r - 2.0 * r * r),
    "mle-full": lambda r: ((1.0 - r) * (1.0 + r)) ** 2 / (1.0 + r * r),
    "mle": lambda r: 1.0 / _fisher_sign_full(float(r)),
}


def _read_csv(path, header):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise CheckError(f"{path}: header {rows[:1]} is not {header}")
    return rows[1:]


def cosine_matrix(queries: scipy.sparse.csr_matrix,
                  train: scipy.sparse.csr_matrix) -> np.ndarray:
    """(n_queries, n_train) exact cosines of two sets of sparse rows."""

    def unit(rows):
        norms = np.sqrt(np.asarray(rows.multiply(rows).sum(axis=1)).ravel())
        return scipy.sparse.diags(1.0 / norms) @ rows

    return (unit(queries) @ unit(train).T).toarray()


def check_store(path, n: int, k: int) -> int:
    """The sign store holds n sketches of k bits; returns its size in bytes."""
    with open(path, "rb") as fh:
        blob = fh.read()
    want = SKETCH_HEADER_BYTES + n * ((k + 7) // 8)
    if len(blob) != want:
        raise CheckError(f"store has {len(blob)} bytes, expected {want}")
    if blob[:4] != b"SFRP" or blob[5] != 0 or \
            int.from_bytes(blob[6:10], "little") != k or \
            int.from_bytes(blob[10:18], "little") != n:
        raise CheckError("store header does not describe a sign store of n x k")
    return len(blob)


def check_scores(path, cosines: np.ndarray, exact_pairs, k: int) -> None:
    """s-norm scores of every (query, train) pair against exact cosines."""
    n_q, n_t = cosines.shape
    rows = _read_csv(path, ["query", "train", "estimator", "rho_hat", "clamped"])
    if len(rows) != n_q * n_t:
        raise CheckError(f"{len(rows)} score rows, expected {n_q * n_t}")
    q = np.array([int(r[0]) for r in rows])
    t = np.array([int(r[1]) for r in rows])
    est = {r[2] for r in rows}
    rho_hat = np.array([float(r[3]) for r in rows])
    if est != {"s-norm"}:
        raise CheckError(f"estimator column holds {sorted(est)}")
    if q.min() < 0 or q.max() >= n_q or t.min() < 0 or t.max() >= n_t:
        raise CheckError("pair index out of range")
    scores = np.full((n_q, n_t), np.nan)
    scores[q, t] = rho_hat
    if np.isnan(scores).any():
        raise CheckError("some (query, train) pair is missing or repeated")
    if not np.all((scores >= -1.0) & (scores <= 1.0)):
        raise CheckError("a score lies outside [-1, 1]")
    for qi, ti in exact_pairs:
        if scores[qi, ti] != 1.0:
            raise CheckError(
                f"exact duplicate (query {qi}, train {ti}) scores {float(scores[qi, ti])!r}, not 1.0")
    worst = float(np.max(np.abs(scores - cosines)))
    if worst > SEARCH_MAX_DEVIATION:
        raise CheckError(f"a score misses its exact cosine by {worst:.3f}")
    # Averaged over all pairs.  Bins of high rho hold a few hundred pairs
    # whose errors share their query's projection, so their k*MSE spreads by
    # tens of percent across seeds; those pairs are held by the bound above.
    pairs = cosines < 0.999
    kmse = k * float(np.mean((scores[pairs] - cosines[pairs]) ** 2))
    theory = float(np.mean(V_FACTORS["s-norm"](cosines[pairs])))
    if abs(kmse / theory - 1.0) > SEARCH_BAND:
        raise CheckError(f"k*MSE {kmse:.4f} vs mean V_s-norm {theory:.4f} "
                         f"is outside +-{SEARCH_BAND}")


def check_pr_curves(path, cosines: np.ndarray, ks, rho0s, estimators) -> None:
    """Full-sweep precision-recall curves against the benchmark's relevance."""
    n_t = cosines.shape[1]
    rows = _read_csv(path, ["estimator", "rho0", "k", "L", "precision", "recall"])
    curves: dict[tuple[str, float, int], list[tuple[int, float, float]]] = {}
    for est, rho0, k, L, p, r in rows:
        curves.setdefault((est, float(rho0), int(k)), []).append(
            (int(L), float(p), float(r)))
    want = {(e, float(r0), int(k)) for e in estimators for r0 in rho0s for k in ks}
    if set(curves) != want:
        raise CheckError(f"curves for {sorted(curves)}, expected {sorted(want)}")
    for (est, rho0, k), points in curves.items():
        relevant = (cosines >= rho0).sum(axis=1)
        relevant = relevant[relevant > 0]
        # a cosine this close to rho0 may land on either side in the program
        borderline = bool(np.any(np.abs(cosines - rho0) < 1e-9))
        L, prec, rec = (np.array(col) for col in zip(*points))
        name = f"{est} rho0={rho0} k={k}"
        if not np.array_equal(L, np.arange(1, n_t + 1)):
            raise CheckError(f"{name}: L is not the full sweep 1..{n_t}")
        if rec[-1] != 1.0:
            raise CheckError(f"{name}: recall at L={n_t} is {rec[-1]!r}, not 1")
        if np.any(np.diff(rec) < 0.0):
            raise CheckError(f"{name}: recall falls as L grows")
        if np.any((prec < 0.0) | (prec > 1.0)):
            raise CheckError(f"{name}: precision outside [0, 1]")
        expected = float(np.mean(relevant / n_t))
        if not borderline and not math.isclose(prec[-1], expected, rel_tol=1e-9):
            raise CheckError(f"{name}: precision at L={n_t} is {prec[-1]!r}, "
                             f"expected mean |relevant|/n_train = {expected!r}")


def check_factor(path, estimator: str, rho: float) -> None:
    """One row of variance-table equal to the closed form."""
    rows = _read_csv(path, ["rho", "estimator", "V"])
    if len(rows) != 1 or rows[0][1] != estimator or float(rows[0][0]) != rho:
        raise CheckError(f"variance-table rows {rows}")
    got, want = float(rows[0][2]), float(V_FACTORS[estimator](rho))
    if not math.isclose(got, want, rel_tol=1e-9):
        raise CheckError(f"V_{estimator}({rho}) = {got!r}, closed form {want!r}")


def check_mse(path, rho: float, k: int, estimators) -> None:
    """Per-estimator simulate rows: k*MSE within LAB_BAND of V(rho)."""
    rows = _read_csv(path, ["estimator", "rho", "k", "bias", "var", "mse", "clamp_rate"])
    if [r[0] for r in rows] != list(estimators):
        raise CheckError(f"simulate rows for {[r[0] for r in rows]}")
    for est, r, kk, bias, var, mse, clamp in rows:
        bias, var, mse, clamp = map(float, (bias, var, mse, clamp))
        if float(r) != rho or int(kk) != k:
            raise CheckError(f"{est}: row is for rho={r}, k={kk}")
        if not math.isclose(mse, bias * bias + var, rel_tol=1e-12):
            raise CheckError(f"{est}: mse {mse!r} is not bias^2 + var")
        if not 0.0 <= clamp <= 1.0:
            raise CheckError(f"{est}: clamp rate {clamp!r}")
        theory = float(V_FACTORS[est](rho))
        if abs(k * mse / theory - 1.0) > LAB_BAND:
            raise CheckError(f"{est}: k*MSE {k * mse:.5f} vs V {theory:.5f} "
                             f"is outside +-{LAB_BAND}")
