"""Counter-based deterministic random number generation.

Every deviate is a pure function of (seed, major, minor), so any part of a
conceptually infinite table of standard normals can be drawn in any order,
on any number of workers, with identical results.  A SplitMix64-style hash
chain folds the seed, major and minor counters into a 64-bit word whose top
53 bits give a uniform U, and minors 2p and 2p+1 form one Box–Muller pair.
Grids are filled in place, in pieces, for a few piece-sized buffers each.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

_GAMMA_MAJOR = np.uint64(0x9E3779B97F4A7C15)
_GAMMA_MINOR = np.uint64(0xC2B2AE3D27D4EB4F)
_U53_SCALE = 2.0**-53
# cos(n pi/2) and sin(n pi/2) for the n = 0..4 quarter turns nearest 2 pi U
_QUARTER_COS = np.array([1.0, 0.0, -1.0, 0.0, 1.0])
_QUARTER_SIN = np.array([0.0, 1.0, 0.0, -1.0, 0.0])
_CHUNK_VALUES = 1 << 16  # values per grid piece: a row range, or part of one row
# the pieces a grid needs per worker: fewer do not repay importing and
# starting a thread pool
_PIECES_PER_WORKER = 4


def ordered_map(fn, tasks, threads: int = 1) -> list:
    """[fn(t) for t in tasks], run on min(threads, len(tasks)) worker threads."""
    tasks = list(tasks)
    if min(threads, len(tasks)) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ThreadPoolExecutor  # it loads logging: only for a pool

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


def _seed_word(seed) -> np.uint64:
    """The seed as a 64-bit word: ConfigError unless it is an integer in [0, 2^64)."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 1 << 64:
        raise ConfigError(f"seed must be an integer in [0, 2**64), not {seed!r}")
    return np.uint64(seed)


def _keys(seed, major) -> np.ndarray:
    """Mixed (seed, major) words: the first two links of the chain."""
    with np.errstate(over="ignore"):
        key = _mix64(np.array(_seed_word(seed), dtype=np.uint64))
        return _mix64(key + _GAMMA_MAJOR * np.asarray(major, dtype=np.uint64))


def _box_muller(radius: np.ndarray, angle: np.ndarray, out_cos: np.ndarray,
                out_sin: np.ndarray) -> None:
    """r cos(theta) into out_cos and r sin(theta) into out_sin (which may be a
    column narrower) from contiguous buffers of U(2p) and U(2p+1), which it
    overwrites.  theta is n quarter turns plus phi in [-pi/4, pi/4], where
    numpy's sin is twice as fast and cos = sqrt(1 - sin^2) >= 0.7 loses no
    precision; turning by n quarters multiplies by 0 and +-1: one rounding."""
    r = np.sqrt(-2.0 * np.log(radius, out=radius), out=radius)
    turns = np.rint(np.multiply(angle, 4.0, out=angle))
    phi = np.multiply(np.subtract(angle, turns, out=angle), 0.5 * math.pi, out=angle)
    n = turns.astype(np.intp)
    r_sin = r * _QUARTER_SIN[n]  # r sin(n pi/2)
    r *= _QUARTER_COS[n]  # r cos(n pi/2)
    sin = np.sin(phi, out=phi)
    cos = np.sqrt(np.subtract(1.0, sin * sin, out=turns), out=turns)
    width = out_sin.shape[-1]
    np.add(r[..., :width] * sin[..., :width], (r_sin * cos)[..., :width], out=out_sin)
    np.subtract(r * cos, r_sin * sin, out=out_cos)


def _pieces(rows: int, cols: int) -> list[tuple[slice, slice]]:
    """Whole-row runs, or parts of a row from even columns, of <= _CHUNK_VALUES values."""
    rstep = max(1, _CHUNK_VALUES // max(cols, 1))
    cstep = cols if cols <= _CHUNK_VALUES else max(2, _CHUNK_VALUES & ~1)
    return [(slice(r, min(r + rstep, rows)), slice(c, min(c + cstep, cols)))
            for r in range(0, rows, rstep) for c in range(0, cols, max(cstep, 1))]


def _fill_pairs(keys: np.ndarray, rows: slice, first: int, out_cos: np.ndarray,
                out_sin: np.ndarray) -> None:
    """The Box–Muller pairs at minors first + 2p and first + 2p + 1 of each row
    key in keys[rows], written into column p of out_cos and out_sin."""
    h = keys[rows, None] + _GAMMA_MINOR * np.arange(first, first + 2 * out_cos.shape[-1],
                                                    dtype=np.uint64)
    _mix64(h)
    h >>= np.uint64(11)
    radius, angle = (np.add(h[:, i::2], 0.5) * _U53_SCALE for i in (0, 1))
    del h  # the pair's buffers replace the words before the transform starts
    _box_muller(radius, angle, out_cos, out_sin)


def normal_grid(seed: int, majors, k: int, *, threads: int = 1) -> np.ndarray:
    """(len(majors), k) standard normals: row i holds minors 0..k-1 of major
    counter majors[i], drawn on up to `threads` workers with at least
    _PIECES_PER_WORKER pieces each (a smaller grid draws on the calling thread)."""
    keys = _keys(seed, majors)
    out = np.empty((keys.shape[0], k))

    def fill(piece):
        rows, cols = piece
        _fill_pairs(keys, rows, cols.start, out[rows, cols.start:cols.stop:2],
                    out[rows, cols.start + 1:cols.stop:2])

    pieces = _pieces(*out.shape)
    ordered_map(fill, pieces, min(threads, len(pieces) // _PIECES_PER_WORKER))
    return out


def bivariate_block(rho: float, seed: int, major_start: int, n_major: int,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """(n_major, k) blocks of correlated standard-normal pairs.

    x is standard normal and y = rho*x + sqrt(1 - rho^2)*z for an independent
    standard normal z, so E(x*y) = rho and both margins are N(0, 1).  Pair
    (major, j) is the Box–Muller pair at minors 2j (x) and 2j+1 (z),
    independent of block boundaries.
    """
    keys = _keys(seed, np.arange(major_start, major_start + n_major, dtype=np.uint64))
    x, y = np.empty((n_major, k)), np.empty((n_major, k))
    c = np.sqrt((1.0 - rho) * (1.0 + rho))
    for rows, cols in _pieces(n_major, 2 * k):  # columns 2j and 2j+1 of pair j
        xs, ys = x[rows, cols.start // 2:cols.stop // 2], y[rows, cols.start // 2:cols.stop // 2]
        _fill_pairs(keys, rows, cols.start, xs, ys)
        np.add(rho * xs, c * ys, out=ys)
    return x, y
