"""Command-line interface: sketching, estimation, variance tables, the
simulation lab, and the ranking benchmark.

All numeric output is CSV (to --out or stdout).  Every run is a pure
function of its argument vector: stochastic subcommands require an explicit
seed and their outputs are byte-identical across reruns and thread counts.

Exit codes: 0 success, 1 usage error, 2 data/format error.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from contextlib import nullcontext

from . import bench as bench_mod
from . import simulate as sim_mod
from . import variance as var_mod
from .errors import ContractError, RpsketchError
from .estimators import (SIGN_STORE_ESTIMATORS, Estimator, estimate_batch,
                         estimate_full_batch)
from .mle import mle_full_store
from .projection import (ProjectionConfig, SignStore, load_sketches, project_corpus,
                         quantize_store, save_sketches)
from .vectors import load_sparse_text, save_sparse_text


#: the most points a --rho-grid may ask for
MAX_GRID_POINTS = 10**6


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


def _parse_estimators(spec: str) -> tuple[Estimator, ...]:
    names = [tok.strip() for tok in spec.split(",") if tok.strip()]
    if not names:
        raise UsageError("no estimators given")
    try:
        return tuple(Estimator.from_cli_name(n) for n in names)
    except KeyError as exc:
        known = ", ".join(e.cli_name for e in Estimator)
        raise UsageError(f"unknown estimator {exc.args[0]!r} (known: {known})") from None


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
        return [kind(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"non-{'integer' if kind is int else 'numeric'} {what} "
                         f"in {spec!r}") from None


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
    sketches = project_corpus(load_sparse_text(args.input, args.dim),
                              ProjectionConfig(args.k, args.seed), threads=args.threads)
    save_sketches(args.out, quantize_store(sketches) if args.kind == "sign" else sketches)
    return 0


def _cmd_estimate(args) -> int:
    """Score every query against the store, writing the CSV one query at a time."""
    store = load_sketches(args.store)
    estimator = _parse_estimators(args.estimator)[0]
    queries = load_sparse_text(args.queries, args.dim)
    header = ["query", "train", "estimator", "rho_hat", "clamped"]
    if not len(store):
        _emit(args.out, header, [])
        return 0
    sign_store = isinstance(store, SignStore)
    allowed = (SIGN_STORE_ESTIMATORS if sign_store
               else {Estimator.FULL, Estimator.FULL_NORM, Estimator.MLE_FULL})
    if estimator not in allowed:  # before any output is written
        raise ContractError(f"estimator {estimator.cli_name!r} cannot score a "
                            f"{'sign' if sign_store else 'full'} store")
    query_sketches = project_corpus(queries, ProjectionConfig(store.k, args.seed),
                                    threads=args.threads)
    # rows as csv.writer writes them: no field needs quoting, floats by repr,
    # flags as True/False
    mids = [f",{ti},{estimator.cli_name}," for ti in range(len(store))]
    score = estimate_batch if sign_store else estimate_full_batch
    with _csv_sink(args.out) as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for qi, q in enumerate(query_sketches):
            if estimator is Estimator.MLE_FULL:  # clamped: the boundary flag
                res = mle_full_store(store, q)
                scores = zip(res.rho_hat.tolist(), res.at_boundary.tolist())
            else:
                res = score(store, q, estimator)
                scores = zip(res.rho_hat.tolist(), res.clamped.tolist())
            head = str(qi)
            fh.write("".join([head + mid + repr(r) + (",True\n" if c else ",False\n")
                              for mid, (r, c) in zip(mids, scores)]))
    return 0


def _cmd_variance_table(args) -> int:
    estimators = _parse_estimators(args.estimators)
    grid = _parse_rho_grid(args.rho_grid)
    rows = []
    for rho in grid:
        for est in estimators:
            if est is Estimator.MLE_SIGN_FULL:
                vf = var_mod.mle_variance_factor(
                    rho, var_mod.FisherConfig(args.mle_samples, args.seed))
            else:
                vf = var_mod.v_factor(est, rho)
            rows.append([rho, est.cli_name, vf.value])
    _emit(args.out, ["rho", "estimator", "V"], rows)
    return 0


def _cmd_simulate(args) -> int:
    cfg = sim_mod.SimConfig(args.rho, args.k, args.trials, args.seed,
                            _parse_estimators(args.estimators))
    reports = sim_mod.run_mse(cfg, threads=args.threads)
    rows = [[r.estimator.cli_name, r.rho, r.k, r.bias, r.variance, r.mse,
             r.clamp_rate] for r in reports]
    _emit(args.out, ["estimator", "rho", "k", "bias", "var", "mse", "clamp_rate"],
          rows)
    return 0


def _cmd_mse_ratio(args) -> int:
    points = sim_mod.run_mse_ratio(args.rho, _parse_list(args.k_grid, "k"),
                                   args.trials, args.seed, threads=args.threads)
    rows = [[p.k, p.mse_sign_sign, p.mse_s_norm, p.mse_g_norm, p.ratio_s_norm,
             p.ratio_g_norm, p.theory_ratio_s_norm, p.theory_ratio_g_norm]
            for p in points]
    _emit(args.out, ["k", "mse_sign_sign", "mse_s_norm", "mse_g_norm",
                     "ratio_s_norm", "ratio_g_norm", "theory_ratio_s_norm",
                     "theory_ratio_g_norm"], rows)
    return 0


def _cmd_histogram(args) -> int:
    estimator = _parse_estimators(args.estimator)[0]
    hist = sim_mod.run_histogram(args.rho, args.k, args.trials, args.seed,
                                 estimator, args.bins, threads=args.threads)
    rows = [[estimator.cli_name, args.rho, args.k, lo, hi, int(c),
             hist.frac_above_one, hist.frac_below_neg_one]
            for lo, hi, c in zip(hist.edges[:-1], hist.edges[1:], hist.counts)]
    _emit(args.out, ["estimator", "rho", "k", "bin_lo", "bin_hi", "count",
                     "frac_above_one", "frac_below_neg_one"], rows)
    return 0


def _cmd_bench(args) -> int:
    train = load_sparse_text(args.train, args.dim)
    queries = load_sparse_text(args.query, args.dim)
    estimators = _parse_estimators(args.estimators)
    ks = _parse_list(args.k, "k")
    rho0s = _parse_list(args.rho0, "rho0", float)
    l_grid = _parse_list(args.l_grid, "L") if args.l_grid else None
    rows = [[est.cli_name, rho0, k, p.L, p.precision, p.recall]
            for est, rho0, k, p in bench_mod.benchmark_grid(
                train, queries, ks, rho0s, estimators, args.seed, l_grid,
                threads=args.threads)]
    _emit(args.out, ["estimator", "rho0", "k", "L", "precision", "recall"], rows)
    return 0


def _cmd_synth(args) -> int:
    levels = _parse_levels(args.levels) if args.levels else ((0.05, 4), (0.30, 3),
                                                             (1.50, 3))
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
