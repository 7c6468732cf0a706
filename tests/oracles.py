"""Per-vector reference definitions that the tests check the batch cores against.

The library projects, quantizes and scores whole stores at once.  These are
the one-vector forms: a projection as one vector-matrix product, sign
agreement by unpacked bits, exact cosine by a sparse dot product, the
fixed-order cosine matrix by scatter-and-bincount, one pair
of the bivariate counter stream, the score of one stored row against one
query through one-row stores, the full-data MLE of one pair from its
moments, the planted corpus drawn one member at a time, a
precision-recall curve added up one query at a time, and sparse text parsed
token by token with str.split, int and float.  They also hold
the references that only tests call: the counter stream's uniforms and
normals broadcast over (seed, major, minor), the normal CDF of the MLE's
erfcx kernel, the half-line Gaussian integrals of the variance theory, and
the parser's table of powers of ten built one power at a time.
The parity contract of the batch cores is that a one-row batch equals the
same row of a larger batch, bit for bit.

A row here is a dense 1-D array (its zeros are not stored), an (indices,
values) pair of 0-based increasing indices and nonzero values, or a
one-row Corpus; ``corpus`` gathers rows into a Corpus and ``rows`` splits
one into (indices, values) pairs.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import NamedTuple

import numpy as np

from rpsketch import (Corpus, FullStore, MleResult, ProjectionConfig, SignStore,
                      estimate_batch, sign_quantize)
from rpsketch import mle, rng
from rpsketch.errors import DomainError, ShapeError, SparseTextError
from rpsketch.estimators import SIGN_STORE_ESTIMATORS, Estimator
from rpsketch.mle import solve_full_from_moments
from rpsketch.projection import sum_product
from rpsketch.variance import _wedge


def _row(u) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Indices, values and dim (None for a pair) of a row."""
    if isinstance(u, Corpus):
        if len(u) != 1:
            raise ShapeError(f"a row is a one-row corpus, not {len(u)} rows")
        return u.indices, u.values, u.dim
    if isinstance(u, tuple):
        indices, values = u
        return np.asarray(indices, dtype=np.int64), np.asarray(values, dtype=np.float64), None
    dense = np.asarray(u, dtype=np.float64)
    indices = np.flatnonzero(dense)
    return indices, dense[indices], dense.size


def corpus(vectors, dim: int) -> Corpus:
    """The rows as the CSR arrays of one Corpus, taken as given (not normalized)."""
    pairs = [_row(u)[:2] for u in vectors]
    return Corpus(np.cumsum([0] + [indices.size for indices, _ in pairs]),
                  np.concatenate([indices for indices, _ in pairs] or [np.zeros(0, np.int64)]),
                  np.concatenate([values for _, values in pairs] or [np.zeros(0)]), dim)


def rows(c: Corpus) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each row of a corpus as (indices, values) views of its arrays."""
    bounds = c.indptr.tolist()
    return [(c.indices[lo:hi], c.values[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def uniforms(seed, major, minor) -> np.ndarray:
    """Uniform deviates in (0, 1] of the counter stream, broadcast over
    (seed, major, minor), seeds included: ((h >> 11) + 0.5) * 2**-53 for the
    hash chain's word h.  It is never 0, so its logarithm is finite; only
    the top word rounds to 1."""
    with np.errstate(over="ignore"):
        h = rng._mix64(np.array(seed, dtype=np.uint64))
        h = rng._mix64(h + rng._GAMMA_MAJOR * np.asarray(major, dtype=np.uint64))
        h = rng._mix64(h + rng._GAMMA_MINOR * np.asarray(minor, dtype=np.uint64))
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * rng._U53_SCALE


def normals(seed, major, minor) -> np.ndarray:
    """Standard normal deviates, broadcast over (seed, major, minor): minors
    2p and 2p + 1 are the cosine and sine of one Box–Muller pair.

    The transform is written out here, operation for operation as the
    library's kernel performs it, so that the reference shares no code with
    what it checks: r = sqrt(-2 log U), and theta = 2 pi V as n quarter
    turns plus phi in [-pi/4, pi/4], whose sine numpy computes and whose
    cosine is sqrt(1 - sin^2); r cos(n pi/2) and r sin(n pi/2) are one
    rounding each, so each output rounds twice more."""
    minor = np.asarray(minor, dtype=np.uint64)
    radius, angle = (uniforms(seed, major, minor & ~np.uint64(1) | np.uint64(b)) for b in (0, 1))
    r = np.sqrt(-2.0 * np.log(radius))
    quarters = angle * 4.0
    turns = np.rint(quarters)
    phi = (quarters - turns) * (0.5 * math.pi)
    quarter = turns.astype(np.intp)
    r_cos = r * np.array([1.0, 0.0, -1.0, 0.0, 1.0])[quarter]  # r cos(n pi/2)
    r_sin = r * np.array([0.0, 1.0, 0.0, -1.0, 0.0])[quarter]  # r sin(n pi/2)
    sin = np.sin(phi)
    cos = np.sqrt(1.0 - sin * sin)
    return np.where(minor & np.uint64(1), r_cos * sin + r_sin * cos, r_cos * cos - r_sin * sin)


def gaussian_entry(seed: int, row: int, col: int) -> float:
    """Standard-normal entry (row, col) of the implicit projection matrix."""
    return float(normals(seed, row, col))


def project(u, cfg: ProjectionConfig) -> np.ndarray:
    """The k values sum_i u_i R[i, j] of one row, from its own rows of R."""
    indices, values, _ = _row(u)
    if indices.size == 0:
        raise DomainError("cannot project an empty vector")
    return values @ rng.normal_grid(cfg.seed, indices, cfg.k)


def full_store(*rows) -> FullStore:
    """A FullStore of equal-length value rows, with their sums of squares."""
    values = np.array(rows, dtype=np.float64)
    return FullStore(values, sum_product(values, values))


def sign_store(*rows) -> SignStore:
    """The signs of equal-length value rows."""
    return sign_quantize(full_store(*rows))


def one_row(store: SignStore | FullStore, i: int) -> SignStore | FullStore:
    """Row i of a store as a one-row store of the same kind."""
    if isinstance(store, SignStore):
        return SignStore(store.bits[i:i + 1], store.k)
    return FullStore(store.values[i:i + 1], store.sumsq[i:i + 1])


def matching_bits(a: SignStore, b: SignStore) -> int:
    """Number of positions where two one-row sign stores agree."""
    if a.k != b.k:
        raise ShapeError(f"sketch length mismatch: {a.k} vs {b.k}")
    return a.k - int(np.unpackbits(np.bitwise_xor(a.bits, b.bits)).sum())


def mle_row(batch, i: int = 0) -> MleResult:
    """Row i of an MleBatch as the MleResult a scalar solve returns."""
    return MleResult(float(batch.rho_hat[i]), bool(batch.at_boundary[i]),
                     int(batch.iterations[i]))


def mle_full(x, y) -> MleResult:
    """The full-data MLE of one pair of value rows, from its moments
    b = sum(x_j y_j)/k and m = (sum x_j^2 + sum y_j^2)/k."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    k = x.size
    return solve_full_from_moments(sum_product(x, y) / k,
                                   (sum_product(x, x) + sum_product(y, y)) / k, k)


class Score(NamedTuple):
    raw: float
    rho_hat: float
    clamped: bool


def score_one(estimator: Estimator, stored, query) -> Score:
    """Score one stored row against one query through one-row stores.

    ``stored`` is a one-row store, or sketch values, which are quantized when
    the estimator scores a sign store; ``query`` is the query's values."""
    if not isinstance(stored, (SignStore, FullStore)):
        stored = (sign_store if estimator in SIGN_STORE_ESTIMATORS else full_store)(stored)
    assert len(stored) == 1
    res = estimate_batch(stored, full_store(query), estimator)
    return Score(float(res.raw[0, 0]), float(res.rho_hat[0, 0]), bool(res.clamped[0, 0]))


def _norm(values: np.ndarray) -> float:
    return math.sqrt(float(np.dot(values, values)))


def normalize(u) -> tuple[np.ndarray, np.ndarray]:
    """A row scaled to unit L2 norm, as (indices, values); the direction is
    preserved, and a value that underflows or overflows is an error."""
    indices, values, _ = _row(u)
    n = _norm(values)
    if n == 0.0:
        raise DomainError("cannot normalize a zero vector")
    values = values / n
    if not (values.all() and np.isfinite(values).all()):
        raise DomainError("values must be finite and nonzero")
    return indices, values


def reference_parse(path, dim: int | None = None):
    """The token-by-token parse of a sparse text file: the CSR arrays of its
    nonempty rows, values as written, and its skipped-line count; or the
    SparseTextError of its first bad line.  It reads what str.split, int and
    float read, so on files outside the loader's grammar it accepts more."""
    indptr, indices, values, skipped = [0], [], [], 0
    # undecodable bytes become lone surrogates, which strict UTF-8 never
    # yields, so each line can be checked with the numbering of good lines
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise SparseTextError(line_no, "not UTF-8 text") from None
            tokens = line.split()
            if tokens and ":" not in tokens[0]:
                tokens = tokens[1:]  # leading label, discarded
            prev = 0
            for tok in tokens:
                head, sep, tail = tok.partition(":")
                if not sep or not head or not tail:
                    raise SparseTextError(line_no, f"malformed pair {tok!r}")
                try:
                    i, x = int(head), float(tail)
                except ValueError:
                    raise SparseTextError(line_no, f"non-numeric pair {tok!r}") from None
                if i < 1:
                    raise SparseTextError(line_no, f"index {i} is not 1-based positive")
                if i >= 1 << 63:
                    raise SparseTextError(line_no, f"index {i} is beyond the int64 range")
                if i <= prev:
                    raise SparseTextError(
                        line_no, f"index {i} not strictly increasing (after {prev})")
                if not math.isfinite(x):
                    raise SparseTextError(line_no, f"non-finite value in {tok!r}")
                prev = i
                if x != 0.0:
                    indices.append(i - 1)
                    values.append(x)
            if len(indices) == indptr[-1]:
                skipped += 1
            elif dim is not None and indices[-1] >= dim:
                raise SparseTextError(
                    line_no, f"index {indices[-1] + 1} exceeds declared dim {dim}")
            else:
                indptr.append(len(indices))
    return np.array(indptr), np.array(indices, dtype=np.int64), np.array(values), skipped


def reference_load(path, dim: int | None = None):
    """reference_parse with each row normalized on its own: the CSR arrays,
    the dim (the largest index unless given) and the skipped-line count."""
    indptr, indices, values, skipped = reference_parse(path, dim)
    if dim is None:
        dim = int(indices.max()) + 1 if indices.size else 0
    bounds = indptr.tolist()
    unit = corpus([normalize((indices[lo:hi], values[lo:hi]))
                   for lo, hi in zip(bounds[:-1], bounds[1:])], dim)
    return unit.indptr, unit.indices, unit.values, dim, skipped


def cosine(u, v) -> float:
    """Exact cosine similarity <u,v>/(|u||v|) of two rows by a sparse dot product."""
    (iu, xu, du), (iv, xv, dv) = _row(u), _row(v)
    nu, nv = _norm(xu), _norm(xv)
    if nu == 0.0 or nv == 0.0:
        raise DomainError("cosine undefined for zero vectors")
    if None not in (du, dv) and du != dv:
        raise ShapeError(f"dim mismatch: {du} vs {dv}")
    _, au, av = np.intersect1d(iu, iv, assume_unique=True, return_indices=True)
    dot = float(np.dot(xu[au], xv[av])) if au.size else 0.0
    return dot / (nu * nv)


def bincount_cosines(train: Corpus, queries: Corpus) -> np.ndarray:
    """The fixed-order cosines: each query scattered into a dense vector, and
    every training nonzero's product with it summed per row by bincount,
    onto 0.0 in ascending index order."""
    row_of_nnz = np.repeat(np.arange(len(train)), np.diff(train.indptr))
    dense, out = np.zeros(train.dim), np.empty((len(queries), len(train)))
    for i, (indices, values) in enumerate(rows(queries)):
        dense[indices] = values
        out[i] = np.bincount(row_of_nnz, train.values * dense[train.indices], len(train))
        dense[indices] = 0.0
    return out


def sample_pair(rho: float, seed: int, trial: int, j: int) -> tuple[float, float]:
    """Pair j of trial `trial`, from minor counters 2j and 2j+1 as in rng.bivariate_block."""
    x, z = normals(seed, trial, [2 * j, 2 * j + 1])
    return float(x), float(np.sqrt((1.0 - rho) * (1.0 + rho)) * z + rho * x)


def clustered_corpus(seed: int, dim: int, n_clusters: int, n_train: int, n_queries: int,
                     spread_levels) -> tuple[Corpus, Corpus]:
    """bench.make_clustered_corpus one member at a time: each center and
    member drawn by its own normal_grid call and normalized alone, in the
    order centers, training members, queries.  The sizes and levels are
    taken as valid."""
    ends = list(itertools.accumulate(int(slots) for _, slots in spread_levels))

    def unit(vec: np.ndarray) -> np.ndarray:
        norm = math.sqrt(float(np.dot(vec, vec)))
        if not 0.0 < norm < math.inf:
            raise DomainError(f"cannot normalize a vector of norm {norm}")
        return vec / norm

    centers = [unit(rng.normal_grid(seed, [c], dim)[0]) for c in range(n_clusters)]

    def member(major: int, ordinal: int) -> np.ndarray:
        s2d = spread_levels[bisect.bisect_right(ends, (ordinal // n_clusters) % ends[-1])][0]
        noise = rng.normal_grid(seed, [major], dim)[0]
        return unit(centers[ordinal % n_clusters] + math.sqrt(s2d / dim) * noise)

    train = [member(n_clusters + m, m) for m in range(n_train)]
    queries = [member(n_clusters + n_train + q, q) for q in range(n_queries)]
    return corpus(train, dim), corpus(queries, dim)


def sign_sign_law(rho: float, k: int) -> tuple[list[float], list[float]]:
    """The exact law of the sign-sign estimate cos(pi (1 - m/k)) at finite k:
    its value for each count m = 0..k of matching signs, and the
    Binomial(k, p) probability of that count, p = 1 - acos(rho)/pi."""
    p = 1.0 - math.acos(rho) / math.pi
    return ([math.cos(math.pi * (1.0 - m / k)) for m in range(k + 1)],
            [math.comb(k, m) * p**m * (1.0 - p) ** (k - m) for m in range(k + 1)])


def sign_sign_moments(rho: float, k: int) -> tuple[float, float]:
    """Exact bias and variance of the sign-sign estimate at finite k."""
    values, probs = sign_sign_law(rho, k)
    mean = math.fsum(w * v for v, w in zip(values, probs))
    return mean - rho, math.fsum(w * (v - mean) ** 2 for v, w in zip(values, probs))


def norm_cdf(t):
    """Standard normal CDF from the MLE's erfcx kernel: q = Phi(-|t|) =
    erfcx(|t|/sqrt2) exp(-t^2/2) / 2, or 1 - q."""
    return mle._by_piece(lambda t, e, g: np.where(t > 0.0, 1.0 - 0.5 * e * g, 0.5 * e * g), t)


def half_gaussian_cdf_integrals(rho: float) -> tuple[float, float, float]:
    """Closed forms of int_0^inf t^m e^{-t^2/2} Phi(c t) dt for m = 1, 3, 2.

    c = rho/sqrt(1-rho^2); the m=2 case is built on the wedge term of the
    s factor (see variance._wedge for its angle convention).  Returned in
    the order (m=1, m=3, m=2).
    """
    if not -1.0 <= rho <= 1.0:
        raise DomainError("rho must lie in [-1, 1]")
    i1 = (1.0 + rho) / 2.0
    i2 = (2.0 + 3.0 * rho - rho**3) / 2.0
    if rho >= 0.0:
        i3 = math.sqrt(math.pi / 2.0) - _wedge(rho) / math.sqrt(2.0 * math.pi)
    else:  # pi - wedge(rho) = wedge(-rho): no cancellation as rho -> -1
        i3 = _wedge(-rho) / math.sqrt(2.0 * math.pi)
    return i1, i2, i3


def powers_of_ten(q_min: int, q_max: int) -> np.ndarray:
    """High and low words of the 128-bit mantissas of 10^q for q in [q_min,
    q_max], one 5^|q| per row: truncated for q >= 0, rounded up for q < 0."""
    rows = []
    for q in range(q_min, q_max + 1):
        if q >= 0:
            m = 5**q
            m = m >> max(m.bit_length() - 128, 0) << max(128 - m.bit_length(), 0)
        else:
            m = -(-(1 << (127 + (5**-q).bit_length())) // 5**-q)
        rows.append((m >> 64, m & (1 << 64) - 1))
    return np.array(rows, dtype=np.uint64).T.copy()


def pr_curve(rankings, relevance, l_grid=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The precision-recall curve (L, precision, recall) of rankings with
    per-query lists of relevant indices: each query with relevant points
    counted by its own cumsum and added onto running sums of 0.0 in query
    order, then averaged over those queries; empty columns if there are none."""
    n = len(rankings[0]) if len(rankings) else 0
    ls = np.arange(1, n + 1) if l_grid is None else np.asarray(sorted(l_grid))
    prec_sum, rec_sum, included = np.zeros(ls.size), np.zeros(ls.size), 0
    for ranked, rel in zip(rankings, relevance):
        if len(rel):
            included += 1
            mask = np.zeros(n, dtype=bool)
            mask[rel] = True
            hits = np.cumsum(mask[ranked])[ls - 1]
            prec_sum += hits / ls
            rec_sum += hits / len(rel)
    if not included:
        return np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0)
    return ls, prec_sum / included, rec_sum / included
