"""Command-line interface: sketching, estimation, variance tables, the
simulation lab, and the ranking benchmark.

All numeric output is CSV (to --out or stdout).  Every run is a pure
function of its argument vector: stochastic subcommands require an explicit
seed and their outputs are byte-identical across reruns and thread counts.

Exit codes: 0 success, 1 usage error, 2 data/format error.

Each subcommand imports the modules it runs when it runs, so parsing the
arguments, --help and a closed-form variance-table load no numpy.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import math
import os
import re
import sys
from contextlib import contextmanager, nullcontext

from .errors import ConfigError, RpsketchError, SketchFormatError
from .names import Estimator


#: the most points a --rho-grid, or bins a --bins, may ask for
MAX_GRID_POINTS = 10**6
#: the largest --k, or entry of a --k or --k-grid list, a command accepts
MAX_K = 2**16
#: the most --trials a lab command may ask for
MAX_TRIALS = 10**7
#: the most --mle-samples a variance-table may ask for
MAX_MLE_SAMPLES = 10**9
#: the most values synth draws, (--clusters + --train + --query) * --dim
MAX_SYNTH_VALUES = 10**7
#: the most (query, stored sketch) pairs estimate scores and writes at once
_BLOCK_PAIRS = 1 << 16
#: the thread counts of numpy's BLAS that main sets to 1 where the caller has not
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: glibc mallopt's M_TOP_PAD, and the spare bytes main asks malloc to keep atop the heap
_M_TOP_PAD, _HEAP_TOP_PAD = -2, 64 << 20


#: names callers look up here, resolved in their home module at each access
#: so that a wrapper installed there (benchmarks/spans.py) is seen here too
_FORWARDED = {"load_sparse_text": "vectors", "estimate_batch": "estimators"}


def __getattr__(name: str):
    if name not in _FORWARDED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_FORWARDED[name]}", __package__), name)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # accept grid/list values that begin with a negative number,
        # e.g. --rho-grid -0.9:0.9:0.3
        self._negative_number_matcher = re.compile(r"^-\d+(\.\d+)?([:,].*)?$")

    def error(self, message):  # exit code 1, not argparse's 2
        raise UsageError(message)


def _at_most(flag: str, limit: int, *values: int) -> None:
    """Reject a size argument above its limit before anything is sized by it."""
    if any(v > limit for v in values):
        raise UsageError(f"{flag} must be at most {limit}")


def _check_dim(dim: int | None) -> None:
    """Refuse a --dim below 1 before any file is opened."""
    if dim is not None and dim < 1:
        raise ConfigError(f"--dim must be >= 1, not {dim}")


def _parse_estimators(spec: str) -> tuple[Estimator, ...]:
    names = [tok.strip() for tok in spec.split(",") if tok.strip()]
    if not names:
        raise UsageError("no estimators given")
    known = [e.cli_name for e in Estimator]
    for name in names:
        if name not in known:
            raise UsageError(f"unknown estimator {name!r} (known: {', '.join(known)})")
    return tuple(map(Estimator, names))


def _parse_estimator(spec: str) -> Estimator:
    """The estimator of a one-estimator flag: a list of several is refused,
    not cut to its first name."""
    estimators = _parse_estimators(spec)
    if len(estimators) > 1:
        raise UsageError(f"--estimator takes one estimator, got {len(estimators)}: {spec!r}")
    return estimators[0]


def _parse_rho_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError("rho grid must be start:stop:step")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"non-numeric rho grid {spec!r}") from None
    if not all(map(math.isfinite, (a, b, step))):
        raise UsageError(f"rho grid {spec!r} is not finite")
    if a == b:
        return [a]
    if step <= 0 or b < a:
        raise UsageError("rho grid needs start <= stop and step > 0")
    span = (b - a) / step + 1e-9  # the point count, less one; inf on overflow
    if not span < MAX_GRID_POINTS:
        raise UsageError(f"rho grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return [a + i * step for i in range(int(span) + 1)]


def _parse_list(spec: str, what: str, kind=int) -> list:
    try:
        values = [kind(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"non-{'integer' if kind is int else 'numeric'} {what} "
                         f"in {spec!r}") from None
    if not values:
        raise UsageError(f"no {what} given")
    return values


def _parse_levels(spec: str) -> list[tuple[float, int]]:
    levels = []
    for tok in spec.split(","):
        head, sep, tail = tok.partition(":")
        if not sep:
            raise UsageError("levels must be value:slots pairs")
        try:
            levels.append((float(head), int(tail)))
        except ValueError:
            raise UsageError(f"bad level {tok!r}") from None
    return levels


def _emit(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") if path else nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_sketch(args) -> int:
    if not args.out:
        raise UsageError("sketch writes binary data; --out is required")
    _at_most("--k", MAX_K, args.k)
    _check_dim(args.dim)
    from .projection import ProjectionConfig, project_corpus, save_sketches, sign_quantize
    from .vectors import load_sparse_text

    sketches = project_corpus(load_sparse_text(args.input, args.dim),
                              ProjectionConfig(args.k, args.seed), threads=args.threads)
    save_sketches(args.out, sign_quantize(sketches) if args.kind == "sign" else sketches)
    return 0


@contextmanager
def _byte_sink(path):
    """The write of --out opened for bytes, or of stdout's byte layer after
    its text layer is flushed (a text stream without one takes the bytes
    decoded)."""
    if path:
        with open(path, "wb") as fh:
            yield fh.write
        return
    sys.stdout.flush()
    buffer = getattr(sys.stdout, "buffer", None)
    yield buffer.write if buffer else lambda data: sys.stdout.write(bytes(data).decode())


def _score_rows(n: int, n_queries: int, per_block: int, estimator: str):
    """render(first, res): the CSV rows query,train,estimator,rho_hat,clamped
    of the BatchEstimate res of queries first, first + 1, ... against an
    n-row store, as csv.writer writes them (no field needs quoting, floats
    by repr, flags as True/False), as a uint8 array.

    A block's rows are the rows of one byte matrix: the query's digits,
    ",{train},{estimator},", the repr template and the flag (",True\\n" or
    ",False\\n" as one padded 8-byte word), with a mask that keeps each
    row's bytes.  The middle two are written once."""
    import numpy as np

    from .vectors import REPR_TEMPLATE, int_chars, write_reprs

    width = len(str(max(n_queries - 1, 0)))
    train, train_keep = int_chars(np.arange(n), len(str(n - 1)))
    name = np.frombuffer(f",{estimator},".encode(), np.uint8)
    at = width + 1 + train.shape[1] + name.size  # where the repr template starts
    end = at + REPR_TEMPLATE.size
    chars = np.empty((min(per_block, n_queries) * n, end + 8), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    for table, train_part in ((chars, train), (keep, train_keep)):
        table.reshape(-1, n, table.shape[1])[:, :, width + 1:at - name.size] = train_part
    chars[:, width], chars[:, at - name.size:at] = ord(","), name
    chars[:, at:end] = REPR_TEMPLATE
    flags = np.frombuffer(b",False\n ,True\n  ", ">u8")
    flag_keep = np.frombuffer(bytes([1] * 7 + [0] + [1] * 6 + [0] * 2), ">u8")

    def render(first: int, res) -> np.ndarray:
        c, k = chars[:res.rho_hat.size], keep[:res.rho_hat.size]
        head, head_keep = int_chars(np.arange(first, first + len(res.rho_hat)), width)
        c.reshape(-1, n, c.shape[1])[:, :, :width] = head[:, None]
        k.reshape(-1, n, k.shape[1])[:, :, :width] = head_keep[:, None]
        write_reprs(res.rho_hat.ravel(), c[:, at:end], k[:, at:end])
        clamped = res.clamped.ravel().view(np.uint8)
        c[:, end:].view(">u8")[:, 0] = flags.take(clamped)
        k.view(np.uint8)[:, end:].view(">u8")[:, 0] = flag_keep.take(clamped)
        return c[k]

    return render


def _curve_rows(grid):
    """The CSV rows estimator,rho0,k,L,precision,recall of benchmark_grid's
    curves, in order, as csv.writer writes them (no field needs quoting,
    floats by repr), as a uint8 array.

    Each point is a row of one byte matrix: its curve's "{estimator},{rho0},{k},"
    from a table of them, the digits of L, a comma, the repr template, a
    comma, the repr template and a newline, with a mask that keeps its bytes."""
    import numpy as np

    from .vectors import REPR_TEMPLATE, int_chars, write_reprs

    heads = [f"{est.cli_name},{rho0!r},{k},".encode() for est, rho0, k, _ in grid]
    ls, precision, recall = (np.concatenate([curve[i] for *_, curve in grid]) for i in range(3))
    head_chars = np.zeros((len(heads), max(map(len, heads))), dtype=np.uint8)
    head_keep = np.zeros(head_chars.shape, dtype=bool)
    for row, head in enumerate(heads):
        head_chars[row, :len(head)] = np.frombuffer(head, np.uint8)
        head_keep[row, :len(head)] = True
    curve_of = np.repeat(np.arange(len(grid)), [curve[0].size for *_, curve in grid])
    width = len(str(ls.max())) if ls.size else 1
    at = head_chars.shape[1] + width  # where the first comma goes
    end = at + 2 * (1 + REPR_TEMPLATE.size)
    chars = np.empty((ls.size, end + 1), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    chars[:, :at - width], keep[:, :at - width] = head_chars[curve_of], head_keep[curve_of]
    chars[:, at - width:at], keep[:, at - width:at] = int_chars(ls, width)
    for column, values in ((at, precision), (at + 1 + REPR_TEMPLATE.size, recall)):
        field = slice(column + 1, column + 1 + REPR_TEMPLATE.size)
        chars[:, column], chars[:, field] = ord(","), REPR_TEMPLATE
        write_reprs(values, chars[:, field], keep[:, field])
    chars[:, end] = ord("\n")
    return chars[keep]


def _cmd_estimate(args) -> int:
    """Score the queries against the store in blocks of whole queries, of at
    most _BLOCK_PAIRS pairs (or one query), and write each block's CSV rows
    as one byte buffer."""
    estimator = _parse_estimator(args.estimator)
    _check_dim(args.dim)

    import numpy as np

    from .estimators import estimate_batch
    from .projection import FullStore, ProjectionConfig, load_sketches, project_corpus
    from .vectors import load_sparse_text

    store = load_sketches(args.store)
    if store.k > MAX_K:  # the query sketches and per-query tables grow with k
        raise SketchFormatError(f"store has k = {store.k}, above the MAX_K = {MAX_K} "
                                "that sketch --k accepts")
    queries = load_sparse_text(args.queries, args.dim)
    header = ["query", "train", "estimator", "rho_hat", "clamped"]
    if not len(store):
        estimate_batch(store, FullStore(np.zeros((0, 0)), np.zeros(0)),
                       estimator)  # the store-kind check
        _emit(args.out, header, [])
        return 0
    qs = project_corpus(queries, ProjectionConfig(store.k, args.seed), threads=args.threads)
    per_block = max(1, _BLOCK_PAIRS // len(store))
    rows = _score_rows(len(store), len(qs), per_block, estimator.cli_name)

    def block(first: int):
        end = first + per_block
        return rows(first, estimate_batch(
            store, FullStore(qs.values[first:end], qs.sumsq[first:end]), estimator))

    first = block(0)  # a store of the wrong kind raises here, before --out is opened
    with _byte_sink(args.out) as write:
        write(",".join(header).encode() + b"\n")
        write(first)
        for start in range(per_block, len(qs), per_block):
            write(block(start))
    return 0


def _cmd_variance_table(args) -> int:
    estimators = _parse_estimators(args.estimators)
    grid = _parse_rho_grid(args.rho_grid)
    _at_most("--mle-samples", MAX_MLE_SAMPLES, args.mle_samples)
    from . import variance as var_mod

    rows = []
    for rho in grid:
        for est in estimators:
            if est is Estimator.MLE_SIGN_FULL:
                vf = var_mod.mle_variance_factor(
                    rho, var_mod.FisherConfig(args.mle_samples, args.seed),
                    threads=args.threads)
            else:
                vf = var_mod.v_factor(est, rho)
            rows.append([rho, est.cli_name, vf.value])
    _emit(args.out, ["rho", "estimator", "V"], rows)
    return 0


def _cmd_simulate(args) -> int:
    _at_most("--k", MAX_K, args.k)
    _at_most("--trials", MAX_TRIALS, args.trials)
    estimators = _parse_estimators(args.estimators)
    from . import simulate as sim_mod

    cfg = sim_mod.SimConfig(args.rho, args.k, args.trials, args.seed, estimators)
    reports = sim_mod.run_mse(cfg, threads=args.threads)
    rows = [[r.estimator.cli_name, r.rho, r.k, r.bias, r.variance, r.mse,
             r.clamp_rate] for r in reports]
    _emit(args.out, ["estimator", "rho", "k", "bias", "var", "mse", "clamp_rate"],
          rows)
    return 0


def _cmd_mse_ratio(args) -> int:
    ks = _parse_list(args.k_grid, "k")
    _at_most("--k-grid", MAX_K, *ks)
    _at_most("--trials", MAX_TRIALS, args.trials)
    from . import simulate as sim_mod

    points = sim_mod.run_mse_ratio(args.rho, ks, args.trials, args.seed,
                                   threads=args.threads)
    rows = [[p.k, p.mse_sign_sign, p.mse_s_norm, p.mse_g_norm, p.ratio_s_norm,
             p.ratio_g_norm, p.theory_ratio_s_norm, p.theory_ratio_g_norm]
            for p in points]
    _emit(args.out, ["k", "mse_sign_sign", "mse_s_norm", "mse_g_norm",
                     "ratio_s_norm", "ratio_g_norm", "theory_ratio_s_norm",
                     "theory_ratio_g_norm"], rows)
    return 0


def _cmd_histogram(args) -> int:
    estimator = _parse_estimator(args.estimator)
    _at_most("--k", MAX_K, args.k)
    _at_most("--trials", MAX_TRIALS, args.trials)
    _at_most("--bins", MAX_GRID_POINTS, args.bins)
    from . import simulate as sim_mod

    hist = sim_mod.run_histogram(args.rho, args.k, args.trials, args.seed,
                                 estimator, args.bins, threads=args.threads)
    rows = [[estimator.cli_name, args.rho, args.k, lo, hi, int(c),
             hist.frac_above_one, hist.frac_below_neg_one]
            for lo, hi, c in zip(hist.edges[:-1], hist.edges[1:], hist.counts)]
    _emit(args.out, ["estimator", "rho", "k", "bin_lo", "bin_hi", "count",
                     "frac_above_one", "frac_below_neg_one"], rows)
    return 0


def _cmd_bench(args) -> int:
    estimators = _parse_estimators(args.estimators)
    ks = _parse_list(args.k, "k")
    _at_most("--k", MAX_K, *ks)
    rho0s = _parse_list(args.rho0, "rho0", float)
    _check_dim(args.dim)
    from dataclasses import replace

    from . import bench as bench_mod
    from .vectors import load_sparse_text

    bench_mod.check_rho0(*rho0s)
    l_grid = _parse_list(args.l_grid, "L") if args.l_grid else None
    train = load_sparse_text(args.train, args.dim)
    queries = load_sparse_text(args.query, args.dim)
    if args.dim is None:  # each file's largest index inferred its dim; both take the larger
        dim = max(train.dim, queries.dim)
        train, queries = replace(train, dim=dim), replace(queries, dim=dim)
    text = _curve_rows(bench_mod.benchmark_grid(train, queries, ks, rho0s, estimators,
                                                args.seed, l_grid, threads=args.threads))
    with _byte_sink(args.out) as write:
        write(b"estimator,rho0,k,L,precision,recall\n")
        write(text)
    return 0


def _cmd_synth(args) -> int:
    _at_most("(--clusters + --train + --query) * --dim", MAX_SYNTH_VALUES,
             (args.clusters + args.train + args.query) * args.dim)
    levels = _parse_levels(args.levels) if args.levels else ((0.05, 4), (0.30, 3),
                                                             (1.50, 3))
    from . import bench as bench_mod
    from .vectors import save_sparse_text

    train, queries = bench_mod.make_clustered_corpus(
        args.seed, dim=args.dim, n_clusters=args.clusters,
        n_train=args.train, n_queries=args.query, spread_levels=levels)
    save_sparse_text(args.out_train, train)
    save_sparse_text(args.out_query, queries)
    return 0


#: each subcommand's help line, runner and options, listed after the shared
#: --seed, --out and --threads in the order --help shows them
_COMMANDS = {
    "sketch": ("project a corpus and store its sketches", _cmd_sketch, {
        "--input": dict(required=True),
        "--k": dict(type=int, required=True),
        "--kind": dict(choices=["sign", "full"], default="sign"),
        "--dim": dict(type=int, default=None)}),
    "estimate": ("score stored sketches against queries", _cmd_estimate, {
        "--store": dict(required=True),
        "--queries": dict(required=True),
        "--estimator": dict(required=True),
        "--dim": dict(type=int, default=None)}),
    "variance-table": ("closed-form variance factors", _cmd_variance_table, {
        "--estimators": dict(required=True),
        "--rho-grid": dict(required=True, help="start:stop:step"),
        "--mle-samples": dict(type=int, default=1_000_000)}),
    "simulate": ("empirical bias/variance/MSE", _cmd_simulate, {
        "--rho": dict(type=float, required=True),
        "--k": dict(type=int, required=True),
        "--trials": dict(type=int, default=100_000),
        "--estimators": dict(required=True)}),
    "mse-ratio": ("sign-sign over normalized MSE ratios", _cmd_mse_ratio, {
        "--rho": dict(type=float, required=True),
        "--k-grid": dict(default="10,20,50,100,200,500,1000"),
        "--trials": dict(type=int, default=100_000)}),
    "histogram": ("histogram of raw estimates", _cmd_histogram, {
        "--rho": dict(type=float, required=True),
        "--k": dict(type=int, required=True),
        "--trials": dict(type=int, default=100_000),
        "--estimator": dict(required=True),
        "--bins": dict(type=int, default=50)}),
    "bench": ("precision-recall ranking benchmark", _cmd_bench, {
        "--train": dict(required=True),
        "--query": dict(required=True),
        "--k": dict(required=True, help="comma-separated k values"),
        "--rho0": dict(required=True, help="comma-separated thresholds"),
        "--estimators": dict(default="sign-sign,g-norm,s-norm"),
        "--l-grid": dict(default=None),
        "--dim": dict(type=int, default=None)}),
    "synth": ("generate a planted-cluster corpus", _cmd_synth, {
        "--dim": dict(type=int, default=512),
        "--clusters": dict(type=int, default=10),
        "--train": dict(type=int, default=1000),
        "--query": dict(type=int, default=100),
        "--out-train": dict(required=True),
        "--out-query": dict(required=True),
        "--levels": dict(default=None,
                         help="noise levels as value:slots pairs, e.g. 0.05:4,0.3:3")}),
}


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every subcommand, or of the one named `command` alone;
    either gives that subcommand the same help, usage and errors."""
    parser = _Parser(prog="rpsketch", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, (help_line, run, options) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(run=run)
        p.add_argument("--seed", type=int, default=0,
                       required=name != "variance-table",  # its closed forms draw nothing
                       help="64-bit seed; mandatory for stochastic commands")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker cap; never changes the output bytes")
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
    return parser


def _pad_heap_top() -> None:
    """Have glibc's malloc keep _HEAP_TOP_PAD spare bytes atop the heap as it
    grows and trims it, so that freed arrays leave pages that the next ones
    reuse, not pages returned and faulted in again.  Left alone where the
    caller set any MALLOC_* variable or glibc.malloc tunable, and where
    libc has no mallopt."""
    if (any(name.startswith("MALLOC_") for name in os.environ)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return
    import ctypes  # numpy loads it anyway

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to open
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


def main(argv=None) -> int:
    # one BLAS thread unless the caller chose another count: a cold step then
    # skips starting BLAS's thread pool, and no product depends on a thread
    # count.  It acts only where numpy has not loaded yet.
    for name in _BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    argv = sys.argv[1:] if argv is None else argv
    # a step builds its own subcommand's parser alone
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        if args.threads < 1:
            raise UsageError(f"--threads must be >= 1, not {args.threads}")
        if not 0 <= args.seed < 2**64:
            raise UsageError(f"--seed must lie in [0, 2**64), not {args.seed}")
        # every step but the numpy-free closed-form variance table pads the heap
        if (args.command != "variance-table"
                or Estimator.MLE_SIGN_FULL in _parse_estimators(args.estimators)):
            _pad_heap_top()
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RpsketchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
