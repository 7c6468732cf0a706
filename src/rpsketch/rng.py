"""Counter-based deterministic random number generation.

Every deviate is a pure function of (seed, major, minor), so any subset of a
conceptually infinite table of standard normals can be materialized
independently, in any order, on any number of workers, with identical results.
The construction is a SplitMix64-style hash chain: the seed and the major
counter are folded into a 64-bit key, the minor counter is folded into that,
and the mixed word is mapped to a normal deviate through the inverse CDF of a
53-bit uniform in (0, 1).  Grids are filled in place, piece by piece, so a
grid costs its output plus a few piece-sized buffers per worker.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF

_GAMMA_MAJOR = np.uint64(0x9E3779B97F4A7C15)
_GAMMA_MINOR = np.uint64(0xC2B2AE3D27D4EB4F)
_U53_SCALE = 2.0**-53
_CHUNK_VALUES = 1 << 16  # values per grid piece: a row range, or part of one row


def ordered_map(fn, tasks, threads: int = 1) -> list:
    """[fn(t) for t in tasks], run on min(threads, len(tasks)) worker threads."""
    tasks = list(tasks)
    if min(threads, len(tasks)) <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


def _mix64(z) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 array, with one scratch buffer."""
    z = np.asarray(z)  # a numpy scalar becomes a 0-d array
    tmp = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _seed_word(seed) -> np.uint64 | np.ndarray:
    if isinstance(seed, (int, np.integer)):
        return np.uint64(int(seed) & MASK64)
    return np.asarray(seed, dtype=np.uint64)


def _keys(seed, major) -> np.ndarray:
    """Mixed (seed, major) words: the first two links of the chain."""
    with np.errstate(over="ignore"):
        key = _mix64(np.array(_seed_word(seed), dtype=np.uint64))
        return _mix64(key + _GAMMA_MAJOR * np.asarray(major, dtype=np.uint64))


def uniforms(seed, major, minor) -> np.ndarray:
    """Uniform deviates in the open interval (0, 1), broadcast over inputs.

    Each output is ((h >> 11) + 0.5) * 2**-53 for the mixed word h, which can
    never be exactly 0 or 1, keeping the inverse normal CDF finite.
    """
    with np.errstate(over="ignore"):
        h = _mix64(_keys(seed, major) + _GAMMA_MINOR * np.asarray(minor, dtype=np.uint64))
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * _U53_SCALE


def normals(seed, major, minor) -> np.ndarray:
    """Standard normal deviates, broadcast over (seed, major, minor)."""
    # scipy is imported where it is called, so a process that draws no
    # normals never loads it
    from scipy.special import ndtri

    return ndtri(uniforms(seed, major, minor))


def _pieces(rows: int, cols: int) -> list[tuple[slice, slice]]:
    """Runs of whole rows, or parts of one row, of at most _CHUNK_VALUES values."""
    rstep = max(1, _CHUNK_VALUES // max(cols, 1))
    cstep = max(1, min(cols, _CHUNK_VALUES))
    return [(slice(r, min(r + rstep, rows)), slice(c, min(c + cstep, cols)))
            for r in range(0, rows, rstep) for c in range(0, cols, cstep)]


def _fill(out: np.ndarray, keys: np.ndarray, piece, offset: int = 0,
          stride: int = 1) -> np.ndarray:
    """Normals of (row key, offset + stride * column), written into out[piece]."""
    from scipy.special import ndtri

    rows, cols = piece
    h = _GAMMA_MINOR * np.arange(offset + stride * cols.start, offset + stride * cols.stop,
                                 stride, dtype=np.uint64)
    h = _mix64(keys[rows, None] + h)
    h >>= np.uint64(11)
    view = np.add(h, 0.5, out=out[piece])
    view *= _U53_SCALE
    return ndtri(view, out=view)


def normal_grid(seed: int, majors, k: int, *, threads: int = 1) -> np.ndarray:
    """normals(seed, majors[:, None], arange(k)[None, :]): one row per major counter."""
    keys = _keys(seed, majors)
    out = np.empty((keys.shape[0], k))
    ordered_map(lambda piece: _fill(out, keys, piece), _pieces(*out.shape), threads)
    return out


def bivariate_block(rho: float, seed: int, major_start: int, n_major: int,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """(n_major, k) blocks of correlated standard-normal pairs.

    x is standard normal and y = rho*x + sqrt(1 - rho^2)*z for an independent
    standard normal z, so E(x*y) = rho and both margins are N(0, 1).  Pair
    (major, j) always consumes minor counters 2j and 2j+1, independent of
    block boundaries.
    """
    keys = _keys(seed, np.arange(major_start, major_start + n_major, dtype=np.uint64))
    x, y = np.empty((n_major, k)), np.empty((n_major, k))
    c = np.sqrt((1.0 - rho) * (1.0 + rho))
    for piece in _pieces(n_major, k):
        z = _fill(y, keys, piece, 1, 2)
        z *= c
        z += rho * _fill(x, keys, piece, 0, 2)
    return x, y
