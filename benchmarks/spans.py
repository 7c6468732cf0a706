"""In-process span tracing of rpsketch's public functions.

The traced run calls ``rpsketch.cli.main`` in this process, with each traced
function replaced by a wrapper that records a span: name, start, end, the
span that caused it, and counts taken from the call's arguments and result.
Callers bind some functions by ``from ... import``, so a wrapper replaces
the name in every loaded ``rpsketch`` module that holds the function.

A span's parent is the innermost open span of its own thread.  A span
opened by a worker thread with no open span of its own belongs to the
innermost open span of the thread that installed the tracer, which is the
caller waiting on the pool.  Self time is a span's duration minus the part
of it that its children's intervals cover, whichever thread ran them.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._owner_stack = self._stack()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, module, attr: str, name, counts=None) -> None:
        """Trace module.attr under ``name`` (a string or a function of the
        call's arguments); ``counts(result, args, kwargs)`` gives a dict."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._owner_stack[-1] if self._owner_stack else None)
            span = Span(name if isinstance(name, str) else name(*args, **kwargs),
                        time.perf_counter(), parent)
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counts is not None:
                span.counts = counts(result, args, kwargs)
            return result

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("rpsketch"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._restore):
            setattr(mod, key, value)
        self._restore.clear()

    def self_times(self) -> list[float]:
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = []
        for i, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for child in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(span.end - span.start - covered)
        return out


def _out_bytes(result, args, kwargs):
    argv = args[0]
    return {"csv_bytes": os.path.getsize(argv[argv.index("--out") + 1])}


def install(tracer: Tracer) -> None:
    """Wrap the layer functions that the per-layer metrics are named after."""
    from rpsketch import bench, cli, estimators, mle, projection, rng, simulate, vectors

    t = tracer
    t.wrap(vectors, "load_sparse_text", "vectors.load_sparse_text",
           lambda r, a, k: {"lines": len(r) + r.skipped})
    t.wrap(rng, "normal_grid", "rng.normal_grid", lambda r, a, k: {"normals": r.size})
    t.wrap(rng, "bivariate_block", "rng.bivariate_block",
           lambda r, a, k: {"pairs": r[0].size})
    t.wrap(projection, "project_corpus", "projection.project_corpus",
           lambda r, a, k: {"vectors": len(r)})
    t.wrap(projection, "sign_quantize", "projection.sign_quantize")
    t.wrap(projection, "save_sketches", "projection.save_sketches",
           lambda r, a, k: {"bytes": os.path.getsize(a[0])})
    t.wrap(projection, "load_sketches", "projection.load_sketches",
           lambda r, a, k: {"sketches": len(r)})
    t.wrap(estimators, "estimate_batch",
           lambda signs, query, est: f"estimators.estimate_batch.{est.cli_name}",
           lambda r, a, k: {"pairs": len(r)})
    t.wrap(bench, "exact_cosines", "bench.exact_cosines")
    t.wrap(bench, "rank_queries", "bench.rank_queries")
    t.wrap(bench, "pr_curve", "bench.pr_curve")
    t.wrap(simulate, "raw_estimates",
           lambda est, x, y: f"simulate.raw_estimates.{est.cli_name}")
    t.wrap(simulate, "run_mse", "simulate.run_mse")
    t.wrap(mle, "solve_sign_full", "mle.solve_sign_full",
           lambda r, a, k: {"solves": 1, "iterations": r.iterations,
                            "boundary_hits": int(r.at_boundary)})
    t.wrap(mle, "solve_full_from_moments", "mle.solve_full_from_moments",
           lambda r, a, k: {"solves": 1})
    t.wrap(cli, "main", lambda argv: f"cli.{argv[0]}",
           lambda r, a, k: _out_bytes(r, a, k) if a[0][0] == "estimate" else {})


ESTIMATORS = ("sign-sign", "g-norm", "s-norm")
SIM_ESTIMATORS = ("sign-sign", "g", "g-norm", "s", "s-norm")

#: per-layer metric name -> unit; the order BENCHMARK.json lists them in
PER_LAYER = {
    "vectors.load_sparse_text.s": "s",
    "vectors.load_sparse_text.lines_per_s": "1/s",
    "rng.normal_grid.s": "s",
    "rng.normal_grid.normals_per_s": "1/s",
    "rng.bivariate_block.s": "s",
    "rng.bivariate_block.pairs_per_s": "1/s",
    "projection.project_corpus.self_s": "s",
    "projection.project_corpus.vectors_per_s": "1/s",
    "projection.sign_quantize.s": "s",
    "projection.save_sketches.s": "s",
    "projection.save_sketches.bytes": "bytes",
    "projection.load_sketches.s": "s",
    "projection.load_sketches.sketches_per_s": "1/s",
    **{f"estimators.estimate_batch.{e}.pairs_per_s": "1/s" for e in ESTIMATORS},
    "estimators.estimate_batch.calls": "count",
    "estimators.estimate_batch.ms_per_query.p50": "ms",
    "estimators.estimate_batch.ms_per_query.p90": "ms",
    "bench.exact_cosines.s": "s",
    "bench.rank_queries.self_s": "s",
    "bench.pr_curve.s": "s",
    **{f"simulate.raw_estimates.{e}.s": "s" for e in SIM_ESTIMATORS},
    "simulate.run_mse.self_s": "s",
    "mle.solve_sign_full.s": "s",
    "mle.solve_sign_full.solves_per_s": "1/s",
    "mle.solve_sign_full.iterations": "count",
    "mle.solve_sign_full.boundary_hits": "count",
    "mle.solve_full_from_moments.s": "s",
    "mle.solve_full_from_moments.solves_per_s": "1/s",
    "cli.estimate.self_s": "s",
    "cli.estimate.csv_bytes": "bytes",
    "cli.bench.self_s": "s",
    "cli.import_s": "s",
}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def layer_metrics(tracer: Tracer, rounds: int, import_s: float) -> dict[str, float]:
    """Per-layer metrics per round of steps; a layer with no spans reads 0.

    Times and counts are totals divided by the number of rounds (every round
    runs the same inputs, so counts divide exactly); rates are items over
    the time spent in the layer.  Time in worker threads is summed, so a
    layer run on two threads can report more seconds than the round took.
    """
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    counts: dict[str, dict[str, int]] = {}
    batch_ms: list[float] = []
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        total[span.name] = total.get(span.name, 0.0) + span.end - span.start
        own[span.name] = own.get(span.name, 0.0) + self_s
        acc = counts.setdefault(span.name, {})
        for key, value in span.counts.items():
            acc[key] = acc.get(key, 0) + value
        if span.name.startswith("estimators.estimate_batch."):
            batch_ms.append(1e3 * (span.end - span.start))

    def per_round(table, name):
        return table.get(name, 0.0) / rounds

    def count(name, key):
        return counts.get(name, {}).get(key, 0) // rounds

    def rate(name, key):
        busy = total.get(name, 0.0)
        return counts.get(name, {}).get(key, 0) / busy if busy else 0.0

    out = {
        "vectors.load_sparse_text.s": per_round(total, "vectors.load_sparse_text"),
        "vectors.load_sparse_text.lines_per_s": rate("vectors.load_sparse_text", "lines"),
        "rng.normal_grid.s": per_round(total, "rng.normal_grid"),
        "rng.normal_grid.normals_per_s": rate("rng.normal_grid", "normals"),
        "rng.bivariate_block.s": per_round(total, "rng.bivariate_block"),
        "rng.bivariate_block.pairs_per_s": rate("rng.bivariate_block", "pairs"),
        "projection.project_corpus.self_s": per_round(own, "projection.project_corpus"),
        "projection.project_corpus.vectors_per_s": rate("projection.project_corpus", "vectors"),
        "projection.sign_quantize.s": per_round(total, "projection.sign_quantize"),
        "projection.save_sketches.s": per_round(total, "projection.save_sketches"),
        "projection.save_sketches.bytes": count("projection.save_sketches", "bytes"),
        "projection.load_sketches.s": per_round(total, "projection.load_sketches"),
        "projection.load_sketches.sketches_per_s": rate("projection.load_sketches", "sketches"),
    }
    for e in ESTIMATORS:
        out[f"estimators.estimate_batch.{e}.pairs_per_s"] = rate(
            f"estimators.estimate_batch.{e}", "pairs")
    out["estimators.estimate_batch.calls"] = len(batch_ms) // rounds
    out["estimators.estimate_batch.ms_per_query.p50"] = _percentile(batch_ms, 0.5)
    out["estimators.estimate_batch.ms_per_query.p90"] = _percentile(batch_ms, 0.9)
    out["bench.exact_cosines.s"] = per_round(total, "bench.exact_cosines")
    out["bench.rank_queries.self_s"] = per_round(own, "bench.rank_queries")
    out["bench.pr_curve.s"] = per_round(total, "bench.pr_curve")
    for e in SIM_ESTIMATORS:
        out[f"simulate.raw_estimates.{e}.s"] = per_round(total, f"simulate.raw_estimates.{e}")
    out["simulate.run_mse.self_s"] = per_round(own, "simulate.run_mse")
    out["mle.solve_sign_full.s"] = per_round(total, "mle.solve_sign_full")
    out["mle.solve_sign_full.solves_per_s"] = rate("mle.solve_sign_full", "solves")
    out["mle.solve_sign_full.iterations"] = count("mle.solve_sign_full", "iterations")
    out["mle.solve_sign_full.boundary_hits"] = count("mle.solve_sign_full", "boundary_hits")
    out["mle.solve_full_from_moments.s"] = per_round(total, "mle.solve_full_from_moments")
    out["mle.solve_full_from_moments.solves_per_s"] = rate("mle.solve_full_from_moments", "solves")
    out["cli.estimate.self_s"] = per_round(own, "cli.estimate")
    out["cli.estimate.csv_bytes"] = count("cli.estimate", "csv_bytes")
    out["cli.bench.self_s"] = per_round(own, "cli.bench")
    out["cli.import_s"] = import_s
    return out
