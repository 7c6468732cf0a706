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
import re
import sys
from contextlib import nullcontext

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


def _csv_sink(path):
    if path:
        return open(path, "w", encoding="utf-8", newline="")
    return nullcontext(sys.stdout)


def _emit(path, header, rows):
    with _csv_sink(path) as fh:
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


def _cmd_estimate(args) -> int:
    """Score every query against the store, writing the CSV one query at a time."""
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
    # rows as csv.writer writes them: no field needs quoting, floats by repr,
    # flags as True/False
    mids = [f",{ti},{estimator.cli_name}," for ti in range(len(store))]

    def rows(qi: int) -> str:  # one query per call, so memory stays one row wide
        res = estimate_batch(store, FullStore(qs.values[qi:qi + 1], qs.sumsq[qi:qi + 1]),
                             estimator)
        head, flat = str(qi), (res.rho_hat.ravel().tolist(), res.clamped.ravel().tolist())
        return "".join([head + mid + repr(r) + (",True\n" if c else ",False\n")
                        for mid, r, c in zip(mids, *flat)])

    first = rows(0)  # a store of the wrong kind raises here, before --out is opened
    with _csv_sink(args.out) as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.write(first)
        fh.writelines(map(rows, range(1, len(qs))))
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
    rows = [[est.cli_name, rho0, k, *point]
            for est, rho0, k, curve in bench_mod.benchmark_grid(
                train, queries, ks, rho0s, estimators, args.seed, l_grid,
                threads=args.threads)
            for point in zip(*(column.tolist() for column in curve))]
    _emit(args.out, ["estimator", "rho0", "k", "L", "precision", "recall"], rows)
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


def build_parser() -> _Parser:
    parser = _Parser(prog="rpsketch", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def common(p, run, seed_required=True):
        p.set_defaults(run=run)
        p.add_argument("--seed", type=int, required=seed_required, default=0,
                       help="64-bit seed; mandatory for stochastic commands")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker cap; never changes the output bytes")

    p = sub.add_parser("sketch", help="project a corpus and store its sketches")
    common(p, _cmd_sketch)
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=["sign", "full"], default="sign")
    p.add_argument("--dim", type=int, default=None)

    p = sub.add_parser("estimate", help="score stored sketches against queries")
    common(p, _cmd_estimate)
    p.add_argument("--store", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--estimator", required=True)
    p.add_argument("--dim", type=int, default=None)

    p = sub.add_parser("variance-table", help="closed-form variance factors")
    common(p, _cmd_variance_table, seed_required=False)
    p.add_argument("--estimators", required=True)
    p.add_argument("--rho-grid", required=True, help="start:stop:step")
    p.add_argument("--mle-samples", type=int, default=1_000_000)

    p = sub.add_parser("simulate", help="empirical bias/variance/MSE")
    common(p, _cmd_simulate)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--estimators", required=True)

    p = sub.add_parser("mse-ratio", help="sign-sign over normalized MSE ratios")
    common(p, _cmd_mse_ratio)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--k-grid", default="10,20,50,100,200,500,1000")
    p.add_argument("--trials", type=int, default=100_000)

    p = sub.add_parser("histogram", help="histogram of raw estimates")
    common(p, _cmd_histogram)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--estimator", required=True)
    p.add_argument("--bins", type=int, default=50)

    p = sub.add_parser("bench", help="precision-recall ranking benchmark")
    common(p, _cmd_bench)
    p.add_argument("--train", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--k", required=True, help="comma-separated k values")
    p.add_argument("--rho0", required=True, help="comma-separated thresholds")
    p.add_argument("--estimators", default="sign-sign,g-norm,s-norm")
    p.add_argument("--l-grid", default=None)
    p.add_argument("--dim", type=int, default=None)

    p = sub.add_parser("synth", help="generate a planted-cluster corpus")
    common(p, _cmd_synth)
    p.add_argument("--dim", type=int, default=512)
    p.add_argument("--clusters", type=int, default=10)
    p.add_argument("--train", type=int, default=1000)
    p.add_argument("--query", type=int, default=100)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-query", required=True)
    p.add_argument("--levels", default=None,
                   help="noise levels as value:slots pairs, e.g. 0.05:4,0.3:3")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        if args.threads < 1:
            raise UsageError(f"--threads must be >= 1, not {args.threads}")
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RpsketchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
