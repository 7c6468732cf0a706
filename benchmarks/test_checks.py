"""Tests of the benchmark itself: each output check rejects a wrong output,
the generators are pure functions of the seed, and the tracer's self time.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

K = 256


def _write_scores(path, scores):
    n_q, n_t = scores.shape
    with open(path, "w") as fh:
        fh.write("query,train,estimator,rho_hat,clamped\n")
        for q in range(n_q):
            for t in range(n_t):
                fh.write(f"{q},{t},s-norm,{float(scores[q, t])!r},False\n")


@pytest.fixture(scope="module")
def search_case():
    """Exact cosines and s-norm-like scores with the variance theory predicts."""
    rng = np.random.default_rng(0)
    cosines = np.concatenate([rng.uniform(0.0, 0.2, (40, 300)),
                              rng.uniform(0.5, 0.8, (40, 100))], axis=1)
    cosines[3, 7] = 1.0
    sd = np.sqrt(checks.V_FACTORS["s-norm"](cosines) / K)
    scores = np.clip(cosines + sd * rng.standard_normal(cosines.shape), -1.0, 1.0)
    return cosines, scores, ((3, 7),)


def test_scores_pass_when_right(tmp_path, search_case):
    cosines, scores, exact = search_case
    _write_scores(tmp_path / "s.csv", scores)
    checks.check_scores(tmp_path / "s.csv", cosines, exact, K)


@pytest.mark.parametrize("wrong, message", [
    (lambda s: s.__setitem__((5, 9), s[5, 9] + 0.7), "misses its exact cosine"),
    (lambda s: s.__setitem__((5, 9), 1.2), "outside"),
    (lambda s: s.__setitem__((3, 7), 0.9999), "exact duplicate"),
    (lambda s: s.__isub__(0.03 * (s < 1.0)), "k\\*MSE"),
])
def test_scores_reject_wrong(tmp_path, search_case, wrong, message):
    cosines, scores, exact = search_case
    scores = scores.copy()
    wrong(scores)
    _write_scores(tmp_path / "s.csv", scores)
    with pytest.raises(checks.CheckError, match=message):
        checks.check_scores(tmp_path / "s.csv", cosines, exact, K)


def test_scores_reject_missing_pair(tmp_path, search_case):
    cosines, scores, exact = search_case
    _write_scores(tmp_path / "s.csv", scores)
    lines = (tmp_path / "s.csv").read_text().splitlines(keepends=True)
    lines[2] = lines[1]  # pair (0, 1) replaced by a second (0, 0)
    (tmp_path / "s.csv").write_text("".join(lines))
    with pytest.raises(checks.CheckError, match="missing or repeated"):
        checks.check_scores(tmp_path / "s.csv", cosines, exact, K)


def _curves(cosines, ks, rho0s, estimators):
    """Curves of a ranking by exact cosine, computed the way the paper defines them."""
    n_t = cosines.shape[1]
    rows = ["estimator,rho0,k,L,precision,recall"]
    for est in estimators:
        for r0 in rho0s:
            for k in ks:
                rel = cosines >= r0
                keep = rel.any(axis=1)
                order = np.argsort(-cosines, axis=1, kind="stable")
                hits = np.cumsum(np.take_along_axis(rel, order, axis=1), axis=1)[keep]
                L = np.arange(1, n_t + 1)
                prec = (hits / L).mean(axis=0)
                rec = (hits / rel[keep].sum(axis=1, keepdims=True)).mean(axis=0)
                rows += [f"{est},{r0},{k},{l},{float(p)!r},{float(r)!r}" for l, p, r in zip(L, prec, rec)]
    return rows


@pytest.fixture(scope="module")
def rank_case():
    rng = np.random.default_rng(1)
    return rng.uniform(-0.2, 1.0, (6, 30)), (64,), (0.9, 0.4), ("s-norm",)


def test_curves_pass_when_right(tmp_path, rank_case):
    rows = _curves(*rank_case)
    (tmp_path / "c.csv").write_text("\n".join(rows) + "\n")
    checks.check_pr_curves(tmp_path / "c.csv", *rank_case)


@pytest.mark.parametrize("column, scale, message", [
    (5, 0.99, "recall at L=30"),
    (4, 1.01, "precision at L=30"),
])
def test_curves_reject_wrong_last_point(tmp_path, rank_case, column, scale, message):
    rows = _curves(*rank_case)
    cells = rows[30].split(",")  # L = n_train of the first curve
    cells[column] = repr(float(cells[column]) * scale)
    rows[30] = ",".join(cells)
    (tmp_path / "c.csv").write_text("\n".join(rows) + "\n")
    with pytest.raises(checks.CheckError, match=message):
        checks.check_pr_curves(tmp_path / "c.csv", *rank_case)


def test_curves_reject_falling_recall(tmp_path, rank_case):
    rows = _curves(*rank_case)
    cells = rows[35].split(",")  # L = 5 of the rho0 = 0.4 curve
    cells[5] = "1.0"
    rows[35] = ",".join(cells)
    (tmp_path / "c.csv").write_text("\n".join(rows) + "\n")
    with pytest.raises(checks.CheckError, match="recall falls"):
        checks.check_pr_curves(tmp_path / "c.csv", *rank_case)


def _write_mse(path, rho, k, estimators, scale):
    rows = ["estimator,rho,k,bias,var,mse,clamp_rate"]
    for est in estimators:
        mse = scale * float(checks.V_FACTORS[est](rho)) / k
        rows.append(f"{est},{rho},{k},0.0,{mse!r},{mse!r},0.0")
    Path(path).write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize("estimators, k", [
    (("sign-sign", "g", "g-norm", "s", "s-norm"), 1000),
    (("mle", "mle-full"), 100),
])
def test_lab_mse(tmp_path, estimators, k):
    _write_mse(tmp_path / "m.csv", 0.95, k, estimators, 1.0)
    checks.check_mse(tmp_path / "m.csv", 0.95, k, estimators)
    for scale in (0.8, 1.2):
        _write_mse(tmp_path / "m.csv", 0.95, k, estimators, scale)
        with pytest.raises(checks.CheckError, match="k\\*MSE"):
            checks.check_mse(tmp_path / "m.csv", 0.95, k, estimators)


def test_sign_full_fisher_information_at_zero():
    # at rho = 0 the sign-full MLE factor is exactly pi/2
    assert checks.V_FACTORS["mle"](0.0) == pytest.approx(np.pi / 2, rel=1e-9, abs=0.0)


def test_factor(tmp_path):
    v = float(checks.V_FACTORS["s-norm"](0.95))
    (tmp_path / "f.csv").write_text(f"rho,estimator,V\n0.95,s-norm,{v!r}\n")
    checks.check_factor(tmp_path / "f.csv", "s-norm", 0.95)
    (tmp_path / "f.csv").write_text(f"rho,estimator,V\n0.95,s-norm,{v * (1 + 1e-6)!r}\n")
    with pytest.raises(checks.CheckError, match="closed form"):
        checks.check_factor(tmp_path / "f.csv", "s-norm", 0.95)


def test_store_size(tmp_path):
    header = b"SFRP" + bytes([1, 0]) + (256).to_bytes(4, "little") + (3).to_bytes(8, "little")
    (tmp_path / "s.sfrp").write_bytes(header + bytes(3 * 32))
    assert checks.check_store(tmp_path / "s.sfrp", 3, 256) == 18 + 96
    (tmp_path / "s.sfrp").write_bytes(header + bytes(3 * 32 - 1))
    with pytest.raises(checks.CheckError, match="bytes"):
        checks.check_store(tmp_path / "s.sfrp", 3, 256)


def _generate(directory: Path, seed: int) -> list[bytes]:
    directory.mkdir()
    corpus = inputs.sparse_corpus(seed, dim=4096, n_train=64, n_queries=16,
                                  terms=40, n_exact=3)
    inputs.write_sparse_text(directory / "train.txt", corpus.train)
    inputs.write_sparse_text(directory / "query.txt", corpus.queries)
    train, queries = inputs.dense_clusters(seed, dim=32, n_clusters=4,
                                           n_train=40, n_queries=8)
    inputs.write_dense_text(directory / "dtrain.txt", train)
    inputs.write_dense_text(directory / "dquery.txt", queries)
    return [p.read_bytes() for p in sorted(directory.iterdir())]


def test_generators_repeat_for_a_seed(tmp_path):
    first = _generate(tmp_path / "a", 7)
    assert first == _generate(tmp_path / "b", 7)
    assert all(a != b for a, b in zip(first, _generate(tmp_path / "c", 8)))


def test_exact_copies_are_verbatim():
    corpus = inputs.sparse_corpus(3, dim=4096, n_train=64, n_queries=16,
                                  terms=40, n_exact=3)
    for q, t in corpus.exact_pairs:
        assert (corpus.queries[q] != corpus.train[t]).nnz == 0


def test_self_time_subtracts_children_once():
    tracer = spans.Tracer()
    tracer.spans = [spans.Span("parent", 0.0, None, 10.0),
                    spans.Span("a", 1.0, 0, 4.0),
                    spans.Span("b", 3.0, 0, 6.0),  # overlaps a, e.g. another thread
                    spans.Span("grandchild", 3.5, 2, 5.0)]
    assert tracer.self_times() == [5.0, 3.0, 1.5, 1.5]


def test_tracer_replaces_every_binding():
    from rpsketch import cli, vectors

    tracer = spans.Tracer()
    original = vectors.load_sparse_text
    tracer.wrap(vectors, "load_sparse_text", "vectors.load_sparse_text")
    try:
        assert cli.load_sparse_text is vectors.load_sparse_text is not original
    finally:
        tracer.uninstall()
    assert cli.load_sparse_text is vectors.load_sparse_text is original


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
