import csv
import math
import struct
import tracemalloc

import numpy as np
import pytest

from rpsketch import (ProjectionConfig, load_sketches,
                      load_sparse_text, mle_full, mle_sign_full, project_corpus)
from rpsketch.cli import main


def run(args):
    return main(args)


def rows_of(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 1

    def test_unknown_estimator(self, tmp_path, capsys):
        code = run(["variance-table", "--estimators", "nope",
                    "--rho-grid", "0:0:1"])
        assert code == 1
        assert "unknown estimator" in capsys.readouterr().err

    def test_bad_grid(self, capsys):
        assert run(["variance-table", "--estimators", "g",
                    "--rho-grid", "1:0:0.1"]) == 1

    @pytest.mark.parametrize("grid", ["0:1:nan", "nan:1:0.5", "0:inf:0.5", "-inf:inf:1",
                                      "inf:inf:1", "0:1:1e-300", "-1e308:1e308:1e-3"])
    def test_unbounded_grid_rejected_before_allocating(self, grid, capsys):
        tracemalloc.start()
        try:
            code = run(["variance-table", "--estimators", "g", f"--rho-grid={grid}"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err.startswith("error: rho grid")
        assert peak < 2**20

    def test_grid_at_the_point_cap(self, capsys):
        from rpsketch.cli import MAX_GRID_POINTS, _parse_rho_grid

        assert len(_parse_rho_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS
        assert run(["variance-table", "--estimators", "g", "--rho-grid",
                    f"0:{MAX_GRID_POINTS}:1"]) == 1

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_thread_count_below_one(self, threads, capsys):
        assert run(["simulate", "--rho", "0.5", "--k", "8", "--trials", "10",
                    "--estimators", "g", "--seed", "1", "--threads", threads]) == 1
        assert "--threads" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = run(["sketch", "--input", str(tmp_path / "absent.txt"),
                    "--k", "8", "--seed", "1",
                    "--out", str(tmp_path / "o.bin")])
        assert code == 2

    def test_corrupt_sketch_file(self, tmp_path, capsys):
        store = tmp_path / "store.bin"
        store.write_bytes(b"NOPE" + b"\x00" * 20)
        queries = tmp_path / "q.txt"
        queries.write_text("1:1\n")
        code = run(["estimate", "--store", str(store), "--queries",
                    str(queries), "--estimator", "s-norm", "--seed", "1"])
        assert code == 2

    def test_zero_k_header_with_huge_count(self, tmp_path, capsys):
        store = tmp_path / "store.bin"
        store.write_bytes(b"SFRP" + struct.pack("<BBIQ", 1, 0, 0, 2**64 - 1))
        queries = tmp_path / "q.txt"
        queries.write_text("1:1\n")
        code = run(["estimate", "--store", str(store), "--queries",
                    str(queries), "--estimator", "s-norm", "--seed", "1"])
        assert code == 2
        assert "k = 0" in capsys.readouterr().err

    def test_full_estimator_on_sign_store(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("1:1\n2:1\n")
        store = tmp_path / "store.bin"
        assert run(["sketch", "--input", str(corpus), "--k", "16",
                    "--seed", "3", "--out", str(store)]) == 0
        code = run(["estimate", "--store", str(store), "--queries",
                    str(corpus), "--estimator", "full", "--seed", "3"])
        assert code == 2


class TestVarianceTable:
    def test_single_row_value(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run(["variance-table", "--estimators", "sign-sign",
                    "--rho-grid", "0:0:1", "--out", str(out)]) == 0
        (row,) = rows_of(out)
        assert row["estimator"] == "sign-sign"
        assert float(row["V"]) == pytest.approx(math.pi**2 / 4, abs=1e-12)

    def test_grid_and_multiple_estimators(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run(["variance-table", "--estimators", "g,s-norm",
                    "--rho-grid", "0:1:0.25", "--out", str(out)]) == 0
        rows = rows_of(out)
        assert len(rows) == 10  # 5 grid points x 2 estimators
        assert {r["rho"] for r in rows} == {"0.0", "0.25", "0.5", "0.75", "1.0"}

    def test_negative_grid_start_accepted(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run(["variance-table", "--estimators", "sign-sign",
                    "--rho-grid", "-0.5:0.5:0.5", "--out", str(out)]) == 0
        rows = rows_of(out)
        assert [r["rho"] for r in rows] == ["-0.5", "0.0", "0.5"]

    def test_mle_estimator_via_monte_carlo(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run(["variance-table", "--estimators", "mle",
                    "--rho-grid", "0:0:1", "--seed", "4",
                    "--mle-samples", "100000", "--out", str(out)]) == 0
        (row,) = rows_of(out)
        assert float(row["V"]) == pytest.approx(math.pi / 2, rel=0.05)


class TestSimulate:
    def test_degenerate_rho_one(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["simulate", "--rho", "1", "--k", "10", "--trials", "100",
                    "--seed", "7", "--estimators", "s-norm",
                    "--out", str(out)]) == 0
        (row,) = rows_of(out)
        assert float(row["mse"]) == 0.0

    def test_all_estimators_present(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["simulate", "--rho", "0.5", "--k", "20", "--trials",
                    "500", "--seed", "7",
                    "--estimators", "sign-sign,g,g-norm,s,s-norm",
                    "--out", str(out)]) == 0
        assert [r["estimator"] for r in rows_of(out)] == [
            "sign-sign", "g", "g-norm", "s", "s-norm"]


class TestPipelines:
    def test_sketch_then_estimate_identical_vector(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("1:1\n2:1\n1:0.6 2:0.8\n")
        store = tmp_path / "store.bin"
        assert run(["sketch", "--input", str(corpus), "--k", "64",
                    "--seed", "5", "--out", str(store)]) == 0
        scores = tmp_path / "scores.csv"
        assert run(["estimate", "--store", str(store), "--queries",
                    str(corpus), "--estimator", "s-norm", "--seed", "5",
                    "--out", str(scores)]) == 0
        rows = rows_of(scores)
        assert len(rows) == 9
        diag = {r["train"]: float(r["rho_hat"]) for r in rows
                if r["query"] == r["train"]}
        assert all(v == 1.0 for v in diag.values())

    def test_estimate_csv_text(self, tmp_path):
        # one coordinate: g-norm's raw value is sqrt(pi/2) and clamps to 1.0
        corpus = tmp_path / "c.txt"
        corpus.write_text("1:1\n")
        store = tmp_path / "store.bin"
        assert run(["sketch", "--input", str(corpus), "--k", "1",
                    "--seed", "5", "--out", str(store)]) == 0
        scores = tmp_path / "scores.csv"
        for estimator, row in [("g-norm", "0,0,g-norm,1.0,True"),
                               ("s-norm", "0,0,s-norm,1.0,False")]:
            assert run(["estimate", "--store", str(store), "--queries",
                        str(corpus), "--estimator", estimator, "--seed", "5",
                        "--out", str(scores)]) == 0
            assert scores.read_bytes() == (
                "query,train,estimator,rho_hat,clamped\n" + row + "\n").encode()

    def test_full_store_with_full_norm(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("1:1\n2:1\n")
        store = tmp_path / "store.bin"
        assert run(["sketch", "--input", str(corpus), "--k", "32",
                    "--seed", "6", "--kind", "full", "--out", str(store)]) == 0
        scores = tmp_path / "scores.csv"
        assert run(["estimate", "--store", str(store), "--queries",
                    str(corpus), "--estimator", "full-norm", "--seed", "6",
                    "--out", str(scores)]) == 0
        rows = rows_of(scores)
        diag = [float(r["rho_hat"]) for r in rows if r["query"] == r["train"]]
        assert diag == [1.0, 1.0]

    def test_mle_estimates_equal_pair_calls_for_any_threads(self, tmp_path):
        # the store holds the queries too, so some pairs sit on the boundary
        train, query = tmp_path / "train.txt", tmp_path / "query.txt"
        assert run(["synth", "--dim", "32", "--clusters", "3", "--train", "12",
                    "--query", "4", "--seed", "8", "--out-train", str(train),
                    "--out-query", str(query)]) == 0
        train.write_text(train.read_text() + query.read_text())
        queries = project_corpus(load_sparse_text(query, 32), ProjectionConfig(24, 8))
        for kind, estimator in (("sign", "mle"), ("full", "mle-full")):
            store = tmp_path / f"{kind}.sfrp"
            assert run(["sketch", "--input", str(train), "--k", "24", "--seed", "8",
                        "--kind", kind, "--dim", "32", "--out", str(store)]) == 0
            outs = []
            for threads in ("1", "2"):
                outs.append(tmp_path / f"{estimator}-{threads}.csv")
                assert run(["estimate", "--store", str(store), "--queries", str(query),
                            "--estimator", estimator, "--seed", "8", "--dim", "32",
                            "--threads", threads, "--out", str(outs[-1])]) == 0
            assert outs[0].read_bytes() == outs[1].read_bytes()
            rows = rows_of(outs[0])
            loaded = load_sketches(store)
            assert len(rows) == len(queries) * len(loaded) == 64
            for r in rows:
                q, x = queries[int(r["query"])], loaded[int(r["train"])]
                if kind == "sign":
                    res, clamped = mle_sign_full(x, q), False
                else:
                    res = mle_full(x, q)
                    clamped = res.at_boundary
                assert r["estimator"] == estimator
                assert r["rho_hat"] == repr(res.rho_hat)
                assert r["clamped"] == str(clamped)
            flags = [r["clamped"] == "True" for r in rows]
            assert any(flags) == (kind == "full")

    def test_synth_then_bench(self, tmp_path):
        train = tmp_path / "train.txt"
        query = tmp_path / "query.txt"
        assert run(["synth", "--dim", "64", "--clusters", "3", "--train",
                    "30", "--query", "6", "--seed", "8",
                    "--out-train", str(train), "--out-query", str(query)]) == 0
        curves = tmp_path / "curves.csv"
        assert run(["bench", "--train", str(train), "--query", str(query),
                    "--k", "32", "--rho0", "0.8", "--seed", "8",
                    "--estimators", "sign-sign,s-norm",
                    "--out", str(curves)]) == 0
        rows = rows_of(curves)
        assert len(rows) == 2 * 30
        assert {r["estimator"] for r in rows} == {"sign-sign", "s-norm"}
        sweep = [int(r["L"]) for r in rows if r["estimator"] == "s-norm"]
        assert sweep == list(range(1, 31))


class TestDeterminism:
    """Stochastic subcommands must be byte-identical across reruns/threads."""

    def _stable(self, tmp_path, name, args_fn):
        outs = []
        for tag, threads in [("a", "1"), ("b", "1"), ("c", "3")]:
            out = tmp_path / f"{name}-{tag}.csv"
            assert run(args_fn(str(out)) + ["--threads", threads]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_simulate(self, tmp_path):
        self._stable(tmp_path, "sim", lambda out: [
            "simulate", "--rho", "0.6", "--k", "32", "--trials", "4000",
            "--seed", "9", "--estimators", "sign-sign,s-norm,g-norm",
            "--out", out])

    def test_mse_ratio(self, tmp_path):
        self._stable(tmp_path, "ratio", lambda out: [
            "mse-ratio", "--rho", "0.9", "--k-grid", "10,20", "--trials",
            "2000", "--seed", "10", "--out", out])

    def test_histogram(self, tmp_path):
        self._stable(tmp_path, "hist", lambda out: [
            "histogram", "--rho", "0.9", "--k", "50", "--trials", "3000",
            "--seed", "11", "--estimator", "g", "--bins", "17", "--out", out])

    def test_synth_and_sketch_and_estimate(self, tmp_path):
        train = tmp_path / "train.txt"
        query = tmp_path / "query.txt"
        for _ in range(2):
            assert run(["synth", "--dim", "48", "--clusters", "2", "--train",
                        "10", "--query", "3", "--seed", "12",
                        "--out-train", str(train),
                        "--out-query", str(query)]) == 0
        first = train.read_bytes()
        assert run(["synth", "--dim", "48", "--clusters", "2", "--train",
                    "10", "--query", "3", "--seed", "12",
                    "--out-train", str(train), "--out-query", str(query)]) == 0
        assert train.read_bytes() == first

        store = tmp_path / "store.bin"
        blobs = []
        for _ in range(2):
            assert run(["sketch", "--input", str(train), "--k", "32",
                        "--seed", "12", "--out", str(store)]) == 0
            blobs.append(store.read_bytes())
        assert blobs[0] == blobs[1]

        scores = tmp_path / "scores.csv"
        outs = []
        for _ in range(2):
            assert run(["estimate", "--store", str(store), "--queries",
                        str(query), "--estimator", "g-norm", "--seed", "12",
                        "--out", str(scores)]) == 0
            outs.append(scores.read_bytes())
        assert outs[0] == outs[1]

    def test_bench(self, tmp_path):
        train = tmp_path / "train.txt"
        query = tmp_path / "query.txt"
        assert run(["synth", "--dim", "48", "--clusters", "2", "--train",
                    "16", "--query", "4", "--seed", "13",
                    "--out-train", str(train), "--out-query", str(query)]) == 0
        self._stable(tmp_path, "bench", lambda out: [
            "bench", "--train", str(train), "--query", str(query),
            "--k", "16,32", "--rho0", "0.5,0.9", "--seed", "13",
            "--estimators", "sign-sign,s-norm", "--out", out])
