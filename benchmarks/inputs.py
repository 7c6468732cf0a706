"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed (numpy's PCG64), independent
of the program's own counter-based RNG, and writes the 1-based sparse text
format the `rpsketch` CLI reads.  The vectors are returned as well, so the
output checks can compute exact cosines from the benchmark's own copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse


@dataclass(frozen=True)
class SparseCorpus:
    """Text-like training and query rows plus the planted exact copies."""

    train: scipy.sparse.csr_matrix
    queries: scipy.sparse.csr_matrix
    exact_pairs: tuple[tuple[int, int], ...]  # (query row, train row)


def _sparse_row(rng, cdf, idf, n_terms):
    idx = np.unique(np.searchsorted(cdf, rng.random(n_terms), side="right"))
    idx = idx[idx < cdf.size]
    counts = 1.0 + rng.poisson(0.7, idx.size)
    return idx, counts * idf[idx]


def _perturb(rng, base, cdf, idf, keep):
    """Near-duplicate of a document: keep a share of its terms, add fresh ones."""
    idx, val = base
    kept = rng.random(idx.size) < keep
    new_idx, new_val = _sparse_row(rng, cdf, idf, int((1.0 - keep) * idx.size) + 1)
    merged = dict(zip(new_idx.tolist(), new_val.tolist()))
    merged.update(zip(idx[kept].tolist(), val[kept].tolist()))
    order = sorted(merged)
    return np.array(order, dtype=np.int64), np.array([merged[i] for i in order])


def _csr(rows, dim):
    indptr = np.cumsum([0] + [r[0].size for r in rows])
    indices = np.concatenate([r[0] for r in rows])
    data = np.concatenate([r[1] for r in rows])
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(len(rows), dim))


def sparse_corpus(seed: int, dim: int, n_train: int, n_queries: int,
                  terms: int, n_exact: int) -> SparseCorpus:
    """High-dimensional, nonnegative, text-like corpus.

    Feature popularity is Zipf (exponent 1.05) over a seeded permutation of
    the dimension; values are term counts times an idf weight.  Every second
    training row joins a planted near-duplicate group (kept term share
    0.95 down to 0.3, so cosines spread over the whole of (0, 1)); the rest
    are independent documents.  Queries are the first n_exact training rows
    copied verbatim, then alternately near-duplicates of group bases and
    independent documents.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    popularity = 1.0 / np.arange(1, dim + 1) ** 1.05
    popularity = popularity[rng.permutation(dim)]
    cdf = np.cumsum(popularity / popularity.sum())
    idf = np.log(1.0 / (popularity / popularity.sum()))
    keeps = (0.95, 0.85, 0.7, 0.5, 0.3)

    train = []
    group_base = None
    for i in range(n_train):
        if i % 2 == 0 or group_base is None:
            row = _sparse_row(rng, cdf, idf, terms)
            if i % 16 == 0:
                group_base = row
        else:
            row = _perturb(rng, group_base, cdf, idf, keeps[i // 2 % len(keeps)])
        train.append(row)

    queries, exact = [], []
    for q in range(n_queries):
        if q < n_exact:
            queries.append(train[q])
            exact.append((q, q))
        elif q % 2 == 0:
            source = train[16 * int(rng.integers((n_train + 15) // 16))]
            queries.append(_perturb(rng, source, cdf, idf, keeps[q // 2 % len(keeps)]))
        else:
            queries.append(_sparse_row(rng, cdf, idf, terms))
    return SparseCorpus(_csr(train, dim), _csr(queries, dim), tuple(exact))


def dense_clusters(seed: int, dim: int, n_clusters: int, n_train: int,
                   n_queries: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm dense vectors around planted cluster centers.

    Member noise energies sigma^2*dim cycle through 0.05, 0.3 and 1.5, so
    two members of one cluster have cosine about 1/sqrt((1+a)(1+b)): 0.95,
    0.77 and 0.4 and the mixes between.  Members of different clusters are
    near 0.  Queries are further members drawn the same way.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    centers = rng.standard_normal((n_clusters, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    levels = np.array([0.05, 0.3, 1.5])

    def members(n):
        ordinal = np.arange(n)
        sigma = np.sqrt(levels[(ordinal // n_clusters) % levels.size] / dim)
        x = centers[ordinal % n_clusters] + sigma[:, None] * rng.standard_normal((n, dim))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    return members(n_train), members(n_queries)


def write_sparse_text(path, rows: scipy.sparse.csr_matrix) -> None:
    """One line per row of 1-based ``index:value`` pairs, values as repr."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(rows.shape[0]):
            lo, hi = rows.indptr[i], rows.indptr[i + 1]
            fh.write(" ".join(f"{j + 1}:{x!r}" for j, x in
                              zip(rows.indices[lo:hi].tolist(),
                                  rows.data[lo:hi].tolist())) + "\n")


def write_dense_text(path, rows: np.ndarray) -> None:
    write_sparse_text(path, scipy.sparse.csr_matrix(rows))
