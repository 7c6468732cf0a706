import csv
import dataclasses
import hashlib
import importlib.util
import io
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import bincount_cosines, mle_full, mle_row, one_row
from rpsketch import (Estimator, FullStore, ProjectionConfig, benchmark_grid, cli, estimators,
                      load_sketches, load_sparse_text, mle, project_corpus, projection)
from rpsketch.bench import exact_cosines
from rpsketch.cli import main
from rpsketch.projection import _VERSION


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

    @pytest.mark.parametrize("seed", [str(2**64), "-1", str(2**64 + 7)])
    @pytest.mark.parametrize("argv", [
        ["sketch", "--input", "absent.txt", "--k", "8", "--out", "store.sfrp"],
        ["simulate", "--rho", "0.5", "--k", "8", "--trials", "10", "--estimators", "g"],
        ["variance-table", "--estimators", "g", "--rho-grid", "0:0:1"],
    ])
    def test_seed_outside_64_bits_refused_before_reading(self, argv, seed, tmp_path,
                                                         monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run([*argv, "--seed", seed]) == 1
        assert capsys.readouterr().err == f"error: --seed must lie in [0, 2**64), not {seed}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seeds_at_the_ends_of_64_bits_run(self, seed, tmp_path):
        corpus, store = tmp_path / "c.txt", tmp_path / "store.sfrp"
        corpus.write_text("1:1 3:2\n2:1\n1:0.5 2:2 3:1\n")
        assert run(["sketch", "--input", str(corpus), "--k", "16", "--seed", str(seed),
                    "--out", str(store)]) == 0
        projection.save_sketches(tmp_path / "lib.sfrp", projection.sign_quantize(
            project_corpus(load_sparse_text(corpus), ProjectionConfig(16, seed))))
        assert store.read_bytes() == (tmp_path / "lib.sfrp").read_bytes()

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
        store.write_bytes(b"SFRP" + struct.pack("<BBIQ", _VERSION, 0, 0, 2**64 - 1))
        queries = tmp_path / "q.txt"
        queries.write_text("1:1\n")
        code = run(["estimate", "--store", str(store), "--queries",
                    str(queries), "--estimator", "s-norm", "--seed", "1"])
        assert code == 2
        assert "k = 0" in capsys.readouterr().err

    @pytest.mark.parametrize("k,code", [(cli.MAX_K, 0), (cli.MAX_K + 1, 2)])
    def test_store_k_above_max_k_refused_before_projecting(self, k, code, tmp_path,
                                                           monkeypatch, capsys):
        store, queries, out = tmp_path / "store.bin", tmp_path / "q.txt", tmp_path / "o.csv"
        store.write_bytes(b"SFRP" + struct.pack("<BBIQ", _VERSION, 0, k, 1)
                          + bytes((k + 7) // 8))
        queries.write_text("1:1 5:0.5 9:2 12:1\n")
        projected, project = [], projection.project_corpus
        monkeypatch.setattr(projection, "project_corpus",
                            lambda *a, **kw: projected.append(1) or project(*a, **kw))
        assert run(["estimate", "--store", str(store), "--queries", str(queries),
                    "--estimator", "s-norm", "--seed", "1", "--out", str(out)]) == code
        if code:
            assert capsys.readouterr().err == (f"error: store has k = {k}, above the MAX_K"
                                               f" = {cli.MAX_K} that sketch --k accepts\n")
            assert not projected and not out.exists()
        else:
            assert projected and len(rows_of(out)) == 1

    def test_version_1_store_must_be_sketched_again(self, tmp_path, capsys):
        corpus, store = tmp_path / "c.txt", tmp_path / "store.bin"
        corpus.write_text("1:1\n2:1\n")
        assert run(["sketch", "--input", str(corpus), "--k", "16", "--seed", "3",
                    "--out", str(store)]) == 0
        blob = bytearray(store.read_bytes())
        assert blob[4] == _VERSION == 2
        blob[4] = 1  # the same store as the inverse-CDF transform wrote it
        store.write_bytes(bytes(blob))
        code = run(["estimate", "--store", str(store), "--queries", str(corpus),
                    "--estimator", "s-norm", "--seed", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "version 1 normal transform; sketch it again" in err

    def test_full_estimator_on_sign_store(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("1:1\n2:1\n")
        store = tmp_path / "store.bin"
        assert run(["sketch", "--input", str(corpus), "--k", "16",
                    "--seed", "3", "--out", str(store)]) == 0
        code = run(["estimate", "--store", str(store), "--queries",
                    str(corpus), "--estimator", "full", "--seed", "3"])
        assert code == 2

    @pytest.mark.parametrize("kind,estimator", [("sign", "full"), ("full", "s-norm"),
                                                ("full", "mle"), ("sign", "mle-full")])
    def test_store_of_wrong_kind_writes_nothing(self, kind, estimator, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("1:1\n2:1\n")
        store, out = tmp_path / "store.bin", tmp_path / "scores.csv"
        assert run(["sketch", "--input", str(corpus), "--k", "16", "--kind", kind,
                    "--seed", "3", "--out", str(store)]) == 0
        code = run(["estimate", "--store", str(store), "--queries", str(corpus),
                    "--estimator", estimator, "--seed", "3", "--out", str(out)])
        assert code == 2
        assert f"cannot score a {kind} store" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_corpus_sketch_records_k(self, tmp_path, capsys):
        corpus, store = tmp_path / "empty.txt", tmp_path / "store.bin"
        corpus.write_text("")
        assert run(["sketch", "--input", str(corpus), "--k", "8", "--seed", "1",
                    "--out", str(store)]) == 0
        assert store.read_bytes() == b"SFRP" + struct.pack("<BBIQ", _VERSION, 0, 8, 0)
        loaded = load_sketches(store)
        assert len(loaded) == 0 and loaded.k == 8

    @pytest.mark.parametrize("kind,estimator", [("sign", "full"), ("full", "s-norm")])
    def test_empty_store_of_wrong_kind_rejected(self, kind, estimator, tmp_path, capsys):
        corpus, queries = tmp_path / "empty.txt", tmp_path / "q.txt"
        store, out = tmp_path / "store.bin", tmp_path / "scores.csv"
        corpus.write_text("")
        queries.write_text("1:1\n")
        assert run(["sketch", "--input", str(corpus), "--k", "8", "--kind", kind,
                    "--seed", "1", "--out", str(store)]) == 0
        code = run(["estimate", "--store", str(store), "--queries", str(queries),
                    "--estimator", estimator, "--seed", "1", "--out", str(out)])
        assert code == 2
        assert f"cannot score a {kind} store" in capsys.readouterr().err
        assert not out.exists()
        assert run(["estimate", "--store", str(store), "--queries", str(queries),
                    "--estimator", "s-norm" if kind == "sign" else "full", "--seed", "1",
                    "--out", str(out)]) == 0
        assert out.read_text() == "query,train,estimator,rho_hat,clamped\n"

    @pytest.mark.parametrize("args,flag", [
        (["sketch", "--input", "absent.txt", "--out", "o.bin", "--k", "65537"], "--k"),
        (["simulate", "--rho", "0.5", "--estimators", "g", "--trials", "10",
          "--k", "65537"], "--k"),
        (["simulate", "--rho", "0.5", "--estimators", "g", "--k", "8",
          "--trials", "10000001"], "--trials"),
        (["mse-ratio", "--rho", "0.5", "--k-grid", "10,65537"], "--k-grid"),
        (["mse-ratio", "--rho", "0.5", "--k-grid", "10", "--trials", "10000001"],
         "--trials"),
        (["histogram", "--rho", "0.5", "--estimator", "g", "--trials", "10",
          "--k", "65537"], "--k"),
        (["histogram", "--rho", "0.5", "--estimator", "g", "--k", "8",
          "--trials", "10000001"], "--trials"),
        (["bench", "--train", "absent.txt", "--query", "absent.txt", "--rho0", "0.5",
          "--k", "16,65537"], "--k"),
        (["variance-table", "--estimators", "mle", "--rho-grid", "0:0:1",
          "--mle-samples", "1000000001"], "--mle-samples"),
    ])
    def test_size_above_its_limit_rejected_before_allocating(self, args, flag, tmp_path,
                                                              monkeypatch, capsys):
        limits = {"--k": cli.MAX_K, "--k-grid": cli.MAX_K, "--trials": cli.MAX_TRIALS,
                  "--mle-samples": cli.MAX_MLE_SAMPLES}
        assert str(limits[flag] + 1) in " ".join(args)  # one above the limit
        monkeypatch.chdir(tmp_path)  # the input files are absent: the bound comes first
        tracemalloc.start()
        try:
            code = run(args + ["--seed", "1"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == f"error: {flag} must be at most {limits[flag]}\n"
        assert peak < 2**20

    @pytest.mark.parametrize("dim", ["0", "-1"])
    @pytest.mark.parametrize("args", [
        ["sketch", "--input", "absent.txt", "--k", "8", "--out", "o.sfrp"],
        ["estimate", "--store", "absent.sfrp", "--queries", "absent.txt",
         "--estimator", "s-norm", "--out", "c.csv"],
        ["bench", "--train", "absent.txt", "--query", "absent.txt", "--k", "8",
         "--rho0", "0.5", "--out", "c.csv"],
    ])
    def test_dim_below_one_rejected_before_reading(self, args, dim, tmp_path, monkeypatch,
                                                   capsys):
        # such a --dim used to have the file parsed twice and then blamed on
        # its line 1; the input files are absent, so the check comes first
        monkeypatch.chdir(tmp_path)
        assert run(args + ["--dim", dim, "--seed", "1"]) == 2
        assert capsys.readouterr().err == f"error: --dim must be >= 1, not {dim}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("args,what", [
        (["bench", "--k", ",", "--rho0", "0.5"], "k"),
        (["bench", "--k", "8", "--rho0", ","], "rho0"),
        (["bench", "--k", "8", "--rho0", "0.5", "--l-grid", ","], "L"),
        (["bench", "--k", "8", "--rho0", "0.5", "--estimators", ","], "estimators"),
        (["mse-ratio", "--rho", "0.5", "--k-grid", ","], "k"),
        (["estimate", "--store", "absent.sfrp", "--queries", "absent.txt",
          "--estimator", ","], "estimators"),
        (["histogram", "--rho", "0.5", "--k", "8", "--estimator", ","], "estimators"),
    ])
    def test_empty_list_is_usage_error(self, args, what, tmp_path, monkeypatch, capsys):
        # a list with no values would give a header-only CSV; the input
        # files are absent, so the check comes first
        monkeypatch.chdir(tmp_path)
        if args[0] == "bench":
            args = args + ["--train", "absent.txt", "--query", "absent.txt"]
        assert run(args + ["--seed", "1", "--out", "c.csv"]) == 1
        assert capsys.readouterr().err == f"error: no {what} given\n"
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("args", [
        ["estimate", "--store", "absent.sfrp", "--queries", "absent.txt",
         "--estimator", "s-norm,g"],
        ["histogram", "--rho", "0.5", "--k", "8", "--estimator", "s,g"],
        ["histogram", "--rho", "0.5", "--k", "8", "--estimator", "s,s"],
    ])
    def test_list_for_a_one_estimator_flag_is_usage_error(self, args, tmp_path,
                                                           monkeypatch, capsys):
        # the step used to run the first name alone; the store is absent,
        # so the check comes first
        monkeypatch.chdir(tmp_path)
        assert run(args + ["--seed", "1", "--out", "c.csv"]) == 1
        assert capsys.readouterr().err == (
            f"error: --estimator takes one estimator, got 2: {args[-1]!r}\n")
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("rho0", ["-1", "0", "2", "nan"])
    def test_rho0_outside_unit_interval_rejected_before_reading(self, rho0, tmp_path,
                                                                 monkeypatch, capsys):
        # at or below 0 every training point would be relevant, above 1 (or
        # NaN) none; the input files are absent, so the check comes first
        monkeypatch.chdir(tmp_path)
        code = run(["bench", "--train", "absent.txt", "--query", "absent.txt",
                    "--k", "8", "--rho0", f"0.5,{rho0}", "--seed", "1", "--out", "c.csv"])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: rho0 must lie in (0, 1], got {float(rho0)}\n"
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("l_grid", ["0,2", "2,3", "1,1,2"])
    def test_bad_l_grid_exits_2_and_writes_nothing(self, l_grid, tmp_path, monkeypatch,
                                                    capsys):
        # --l-grid 0,2 used to run exact_cosines and the projections first, and
        # 1,1,2 to write every curve point twice
        monkeypatch.chdir(tmp_path)
        (tmp_path / "train.txt").write_text("1:1\n2:1\n")
        (tmp_path / "query.txt").write_text("1:1\n")
        code = run(["bench", "--train", "train.txt", "--query", "query.txt", "--k", "8",
                    "--rho0", "0.5", "--l-grid", l_grid, "--seed", "1", "--out", "c.csv"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: L grid must hold distinct values within 1..train size\n")
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("text,message", [
        (b"1:1 2:0.5\n99999999999999999999:1\n", "error: line 2: index 99999999999999999999"),
        (b"1:1\n1:1 2:\xff\n", "error: line 2: not UTF-8 text"),
        # spellings that only a token-by-token parse with int and float read
        (b"1:1\r2:1\n3:1\n", "error: line 1: "),  # a lone carriage return
        (b"1:1\xc2\xa02:1\n", "error: line 1: "),  # a no-break space between pairs
        (b"1:1\n1_0:1\n", "error: line 2: "),
        (b"+5:1\n", "error: line 1: "),
        ("1:\u0661\u0662\n".encode(), "error: line 1: "),  # Arabic-Indic digits
        (b"1:1\n0000000000000000000005:1\n", "error: line 2: "),  # a 22-digit head
    ])
    def test_sparse_text_faults_are_data_errors(self, text, message, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(text)
        assert run(["sketch", "--input", str(corpus), "--k", "8", "--seed", "1",
                    "--out", str(tmp_path / "o.bin")]) == 2
        assert capsys.readouterr().err.startswith(message)

    def test_bins_above_the_cap_rejected_before_binning(self, capsys):
        from rpsketch.cli import MAX_GRID_POINTS

        tracemalloc.start()
        try:
            code = run(["histogram", "--rho", "0.5", "--k", "8", "--trials", "10",
                        "--seed", "1", "--estimator", "g", "--bins", str(MAX_GRID_POINTS + 1)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --bins")
        assert peak < 2**20

    @pytest.mark.parametrize("sizes", [
        ["--dim", "1000000000000000"],
        ["--train", "10000000"],
        ["--clusters", "100000", "--dim", "101"],
        ["--query", "5000000", "--dim", "2"],
    ])
    def test_synth_sizes_rejected_before_drawing(self, sizes, tmp_path, capsys):
        out_train, out_query = tmp_path / "t.txt", tmp_path / "q.txt"
        tracemalloc.start()
        try:
            code = run(["synth", "--seed", "1", "--out-train", str(out_train),
                        "--out-query", str(out_query), *sizes])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == (
            "error: (--clusters + --train + --query) * --dim must be at most "
            f"{cli.MAX_SYNTH_VALUES}\n")
        assert peak < 2**20
        assert not out_train.exists() and not out_query.exists()

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_synth_dim_below_one_is_a_data_error(self, dim, tmp_path, capsys):
        assert run(["synth", "--seed", "1", "--dim", dim, "--out-train", str(tmp_path / "t"),
                    "--out-query", str(tmp_path / "q")]) == 2
        assert "need dim >= 1" in capsys.readouterr().err

    def test_synth_levels(self, tmp_path, capsys):
        args = ["synth", "--dim", "8", "--clusters", "1", "--train", "3", "--query", "1",
                "--seed", "1", "--out-train", str(tmp_path / "t.txt"),
                "--out-query", str(tmp_path / "q.txt")]
        assert run(args + ["--levels", "0.1:2,0.5:-1"]) == 2
        assert "slots" in capsys.readouterr().err
        tracemalloc.start()
        try:
            code = run(args + ["--levels", "0.1:1000000000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 2**20

    @pytest.mark.parametrize("levels", ["-0.5:3", "0.1:2,nan:1", "inf:1"])
    def test_synth_level_values_must_be_finite_and_nonnegative(self, levels, tmp_path,
                                                               capsys):
        # a negative value used to end in an uncaught math domain error
        out_train = tmp_path / "t.txt"
        assert run(["synth", "--dim", "8", "--clusters", "1", "--train", "3", "--query", "1",
                    "--seed", "1", "--out-train", str(out_train),
                    "--out-query", str(tmp_path / "q.txt"), f"--levels={levels}"]) == 2
        assert capsys.readouterr().err == \
            "error: spread_levels values must be finite and >= 0\n"
        assert not out_train.exists()

    def test_synth_noise_that_overflows_its_norm_is_a_data_error(self, tmp_path, capsys):
        # the member's norm overflows, and dividing by it used to save an empty line
        out_train = tmp_path / "t.txt"
        with np.errstate(over="ignore"):
            code = run(["synth", "--dim", "8", "--clusters", "1", "--train", "3",
                        "--query", "1", "--seed", "1", "--out-train", str(out_train),
                        "--out-query", str(tmp_path / "q.txt"), "--levels=1e308:3"])
        assert code == 2
        assert capsys.readouterr().err == "error: cannot normalize a vector of norm inf\n"
        assert not out_train.exists()


class TestOneSubcommandParser:
    """main builds only the parser of the subcommand it runs; help, usage and
    errors must read as those of the full parser."""

    @pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in cli._COMMANDS)])
    def test_help_text(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        text = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        assert capsys.readouterr().out == text
        assert text.startswith(f"usage: {' '.join(['rpsketch', *argv[:-1]])} [-h]")

    @pytest.mark.parametrize("argv", [
        ["sketch", "--k", "x"],
        ["nope"],
        ["sketch", "--input", "c.txt", "--k", "8", "--seed", "1", "--out", "s", "extra"],
        ["estimate", "--store", "s"],
        ["simulate", "--rho", "0.5", "--k", "8", "--estimators", "g", "--seed", "x"],
    ])
    def test_bad_argument(self, argv, capsys):
        with pytest.raises(cli.UsageError) as exc:
            cli.build_parser().parse_args(argv)
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {exc.value}\n"


class TestTraceHooks:
    """The benchmark's span tracer wraps rpsketch functions by name; a rename
    or deletion of a traced name fails here rather than in the benchmark."""

    @staticmethod
    def load_spans(monkeypatch):
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
        spec = importlib.util.spec_from_file_location("spans", path)
        spans = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "spans", spans)  # its dataclasses look it up
        spec.loader.exec_module(spans)
        return spans

    def test_install_run_uninstall(self, tmp_path, monkeypatch):
        spans = self.load_spans(monkeypatch)
        corpus, store, out = tmp_path / "c.txt", tmp_path / "s.sfrp", tmp_path / "o.csv"
        corpus.write_text("1:1\n2:1\n1:0.6 2:0.8\n")
        original = estimators.estimate_batch
        monkeypatch.setattr(cli, "_BLOCK_PAIRS", 3)  # blocks of one query against 3 rows
        tracer = spans.Tracer()
        try:
            spans.install(tracer)
            assert estimators.estimate_batch is not original
            assert cli.main(["sketch", "--input", str(corpus), "--k", "16", "--seed", "2",
                             "--out", str(store)]) == 0
            assert cli.main(["estimate", "--store", str(store), "--queries", str(corpus),
                             "--estimator", "s-norm", "--seed", "2", "--out", str(out)]) == 0
        finally:
            tracer.uninstall()
        assert estimators.estimate_batch is original and cli.estimate_batch is original
        batches = [sp for sp in tracer.spans if sp.name == "estimators.estimate_batch.s-norm"]
        assert len(batches) == 3 and all(sp.counts["pairs"] == 3 for sp in batches)
        assert [sp.name for sp in tracer.spans].count("projection.sign_quantize") == 1
        metrics = spans.layer_metrics(tracer, 1, 0.0)
        assert metrics["cli.estimate.csv_bytes"] > 0
        assert metrics["projection.sign_quantize.s"] > 0

    def test_traced_bench_records_every_bench_layer(self, tmp_path, monkeypatch):
        # a restructure that stops calling a traced name would zero its metric
        spans = self.load_spans(monkeypatch)
        corpus, out = tmp_path / "c.txt", tmp_path / "o.csv"
        corpus.write_text("1:1\n2:1\n1:0.6 2:0.8\n1:0.8 3:0.6\n")
        tracer = spans.Tracer()
        try:
            spans.install(tracer)
            assert cli.main(["bench", "--train", str(corpus), "--query", str(corpus),
                             "--k", "8,16", "--rho0", "0.5", "--estimators",
                             "sign-sign,s-norm", "--seed", "2", "--threads", "1",
                             "--out", str(out)]) == 0
        finally:
            tracer.uninstall()
        names = {sp.name for sp in tracer.spans}
        assert {"bench.exact_cosines", "projection.project_corpus", "projection.sign_quantize",
                "bench.rank_queries", "estimators.estimate_batch.sign-sign",
                "estimators.estimate_batch.s-norm", "bench.pr_curve"} <= names
        metrics = spans.layer_metrics(tracer, 1, 0.0)
        assert all(metrics[m] > 0 for m in (
            "bench.exact_cosines.s", "projection.project_corpus.self_s",
            "projection.sign_quantize.s", "bench.rank_queries.self_s",
            "estimators.estimate_batch.s-norm.pairs_per_s", "bench.pr_curve.s"))


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

    def test_mse_ratio_at_rho_one_refused_before_any_trial(self, tmp_path, monkeypatch,
                                                          capsys):
        # V_sign-sign / V_s-norm is 0/0 at rho = 1, and both MSEs are exactly 0
        from rpsketch import simulate

        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        out = tmp_path / "r.csv"
        args = ["mse-ratio", "--k-grid", "10", "--trials", "20", "--seed", "7",
                "--out", str(out)]
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "run_mse", no_trials)
            assert run(args + ["--rho", "1"]) == 2
        assert capsys.readouterr().err == \
            "error: ratio curves need rho < 1: at rho = 1 every MSE is 0\n"
        assert not out.exists()
        assert run(args + ["--rho", "-1"]) == 0 and len(rows_of(out)) == 1

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
                qi, x = int(r["query"]), one_row(loaded, int(r["train"]))
                q = queries.values[qi]
                res = (mle_row(mle.mle_sign_full_store(x, q)) if kind == "sign"
                       else mle_full(x.values[0], q))
                assert r["estimator"] == estimator
                assert r["rho_hat"] == repr(res.rho_hat)
                assert r["clamped"] == str(res.at_boundary)
            assert any(r["clamped"] == "True" for r in rows)  # each query meets itself

    @pytest.mark.parametrize("swap", [False, True])
    def test_bench_without_dim_takes_the_larger_inferred_dim(self, swap, tmp_path):
        # the files' largest indices differ (3 and 2), so their inferred dims do
        texts = ["1:1 2:0.5\n3:1\n1:0.2 3:0.9\n", "1:1\n1:0.1 2:1\n"]
        train, query = tmp_path / "train.txt", tmp_path / "query.txt"
        for path, text in zip((train, query), texts[::-1] if swap else texts):
            path.write_text(text)
        outs = []
        for dim in ([], ["--dim", "3"]):
            outs.append(tmp_path / f"curves{len(dim)}.csv")
            assert run(["bench", "--train", str(train), "--query", str(query),
                        "--k", "16", "--rho0", "0.5", "--seed", "1", *dim,
                        "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert rows_of(outs[0])

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


def reference_scores(store_path, query_path, estimator, seed, dim) -> bytes:
    """estimate's CSV as the row writer before query blocks wrote it: one
    estimate_batch call per query and one f-string with repr per pair."""
    store = load_sketches(store_path)
    qs = project_corpus(load_sparse_text(query_path, dim), ProjectionConfig(store.k, seed))
    mids = [f",{ti},{estimator}," for ti in range(len(store))]
    text = ["query,train,estimator,rho_hat,clamped\n"]
    for qi in range(len(qs)):
        res = estimators.estimate_batch(
            store, FullStore(qs.values[qi:qi + 1], qs.sumsq[qi:qi + 1]), Estimator(estimator))
        text += [f"{qi}{mid}{r!r},{c}\n" for mid, r, c in
                 zip(mids, res.rho_hat.ravel().tolist(), res.clamped.ravel().tolist())]
    return "".join(text).encode()


class TestEstimateBytes:
    """estimate writes query blocks at the byte level; its bytes must be
    those of the per-pair repr writer, for every estimator and block cut."""

    SEED, DIM, K = "8", "32", "24"

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        # the store holds the queries too, so some rows clamp or sit on the boundary
        work = tmp_path_factory.mktemp("estimate")
        train, query = work / "train.txt", work / "query.txt"
        assert main(["synth", "--dim", self.DIM, "--clusters", "3", "--train", "12",
                     "--query", "5", "--seed", self.SEED, "--out-train", str(train),
                     "--out-query", str(query)]) == 0
        train.write_text(train.read_text() + query.read_text())
        (work / "one.txt").write_text(query.read_text().splitlines()[2] + "\n")
        for kind in ("sign", "full"):
            assert main(["sketch", "--input", str(train), "--k", self.K, "--seed", self.SEED,
                         "--kind", kind, "--dim", self.DIM,
                         "--out", str(work / f"{kind}.sfrp")]) == 0
        return work

    def estimate(self, files, kind, estimator, queries="query.txt", threads="1", out=None):
        argv = ["estimate", "--store", str(files / f"{kind}.sfrp"), "--queries",
                str(files / queries), "--estimator", estimator, "--seed", self.SEED,
                "--dim", self.DIM, "--threads", threads]
        assert main(argv + (["--out", str(out)] if out else [])) == 0
        return reference_scores(files / f"{kind}.sfrp", files / queries, estimator,
                                int(self.SEED), int(self.DIM))

    @pytest.mark.parametrize("block_pairs", [cli._BLOCK_PAIRS, 40])  # 40: blocks of 2, 2, 1
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("kind,estimator", [
        ("sign", "s-norm"), ("sign", "g-norm"), ("sign", "sign-sign"), ("sign", "mle"),
        ("full", "full-norm"), ("full", "mle-full")])
    def test_equals_per_pair_repr_rows(self, files, kind, estimator, threads, block_pairs,
                                       tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK_PAIRS", block_pairs)
        out = tmp_path / "scores.csv"
        want = self.estimate(files, kind, estimator, threads=threads, out=out)
        assert out.read_bytes() == want and want.count(b"\n") == 1 + 5 * 17

    @pytest.mark.parametrize("kind,estimator", [("sign", "s-norm"), ("sign", "mle"),
                                                ("full", "full-norm")])
    def test_one_query(self, files, kind, estimator, tmp_path):
        out = tmp_path / "scores.csv"
        want = self.estimate(files, kind, estimator, queries="one.txt", out=out)
        assert out.read_bytes() == want and want.count(b"\n") == 1 + 17

    @pytest.mark.parametrize("block_pairs", [cli._BLOCK_PAIRS, 17])
    def test_stdout(self, files, block_pairs, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_BLOCK_PAIRS", block_pairs)
        print("before", end="")  # the text layer is flushed before the rows' bytes
        want = self.estimate(files, "sign", "g-norm")
        assert capsys.readouterr().out.encode() == b"before" + want

    def test_writer_memory_does_not_grow_with_the_queries(self, tmp_path, monkeypatch):
        # blocks of 2^12 pairs against 300 rows: from the projected queries on,
        # the peak beyond what is then held is one block's, for 40 queries and 160
        monkeypatch.setattr(cli, "_BLOCK_PAIRS", 2**12)
        held, project = [], projection.project_corpus

        def projected(*args, **kwargs):
            out = project(*args, **kwargs)
            tracemalloc.reset_peak()
            held.append(tracemalloc.get_traced_memory()[0])
            return out

        monkeypatch.setattr(projection, "project_corpus", projected)
        train, store, out = tmp_path / "train.txt", tmp_path / "store.sfrp", tmp_path / "o.csv"
        extra = []
        for n_queries in (40, 160):
            query = tmp_path / f"query{n_queries}.txt"
            assert main(["synth", "--dim", "64", "--clusters", "5", "--train", "300",
                         "--query", str(n_queries), "--seed", "3", "--out-train", str(train),
                         "--out-query", str(query)]) == 0
            assert main(["sketch", "--input", str(train), "--k", "64", "--seed", "3",
                         "--out", str(store)]) == 0
            tracemalloc.start()
            try:
                assert main(["estimate", "--store", str(store), "--queries", str(query),
                             "--estimator", "s-norm", "--seed", "3", "--out", str(out)]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            extra.append(peak - held[-1])
        assert out.stat().st_size > 160 * 300 * 20
        assert max(extra) < 2**21, extra
        assert extra[1] < extra[0] + 2**16, extra


def reference_curves(train_path, query_path, ks, rho0s, estimators, seed, l_grid=None) -> bytes:
    """bench's CSV as csv.writer wrote it before the byte writer: one row per
    curve point, floats by repr."""
    train, queries = load_sparse_text(train_path), load_sparse_text(query_path)
    dim = max(train.dim, queries.dim)
    train, queries = (dataclasses.replace(c, dim=dim) for c in (train, queries))
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["estimator", "rho0", "k", "L", "precision", "recall"])
    writer.writerows([est.cli_name, rho0, k, *point]
                     for est, rho0, k, curve in benchmark_grid(
                         train, queries, ks, rho0s, [Estimator(e) for e in estimators],
                         seed, l_grid)
                     for point in zip(*(column.tolist() for column in curve)))
    return text.getvalue().encode()


class TestBenchBytes:
    """bench writes its curves at the byte level; its bytes must be those of
    csv.writer's rows of the same curves."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("bench")
        assert main(["synth", "--dim", "40", "--clusters", "3", "--train", "23",
                     "--query", "6", "--seed", "5", "--out-train", str(work / "train.txt"),
                     "--out-query", str(work / "query.txt")]) == 0
        return work

    def bench(self, files, k, rho0, l_grid=None, out=None):
        argv = ["bench", "--train", str(files / "train.txt"), "--query",
                str(files / "query.txt"), "--k", k, "--rho0", rho0, "--seed", "5",
                "--estimators", "sign-sign,g-norm,s-norm"]
        argv += ["--l-grid", l_grid] if l_grid else []
        assert main(argv + (["--out", str(out)] if out else [])) == 0
        return reference_curves(files / "train.txt", files / "query.txt",
                                [int(v) for v in k.split(",")],
                                [float(v) for v in rho0.split(",")],
                                ["sign-sign", "g-norm", "s-norm"], 5,
                                l_grid and [int(v) for v in l_grid.split(",")])

    @pytest.mark.parametrize("k,rho0,l_grid", [
        ("16,5", "0.9,0.4", None),
        ("7", "0.00001,0.6", "1,3,22"),  # rho0 in exponent notation
        ("12", "0.7,1.0", None),  # nothing reaches 1.0: no rows for it
        ("3", "1.0", "2,5")])  # no row at all
    def test_equals_csv_writer_rows(self, files, k, rho0, l_grid, tmp_path):
        out = tmp_path / "curves.csv"
        want = self.bench(files, k, rho0, l_grid, out)
        assert out.read_bytes() == want
        assert (b"1e-05," in want) == ("0.00001" in rho0)
        assert (want.count(b"\n") == 1) == (rho0 == "1.0")

    def test_stdout(self, files, capsys):
        print("before", end="")  # the text layer is flushed before the rows' bytes
        want = self.bench(files, "9", "0.5", "4,1")
        assert capsys.readouterr().out.encode() == b"before" + want

    def test_floats_in_exponent_notation_and_wide_fields(self):
        # reprs of every layout: exponent notation, subnormals, zero, 17 digits;
        # heads of different widths; L of several digit counts
        curves = [(Estimator.SIGN_SIGN, 1e-05, 7, (np.array([1, 10, 100]),
                                                 np.array([1e-05, 5e-324, 0.1 + 0.2]),
                                                 np.array([0.0, 1.0, 2.5e-07]))),
                  (Estimator.G_NORM, 0.30000000000000004, 256, (np.array([12345]),
                                                               np.array([1 / 3]),
                                                               np.array([9.999e-05])))]
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(
            [est.cli_name, rho0, k, *point] for est, rho0, k, curve in curves
            for point in zip(*(column.tolist() for column in curve)))
        assert cli._curve_rows(curves).tobytes() == text.getvalue().encode()


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

    def test_variance_table_mle(self, tmp_path):
        self._stable(tmp_path, "factor", lambda out: [
            "variance-table", "--estimators", "mle,s-norm", "--rho-grid", "0.5:0.5:1",
            "--mle-samples", "1100000", "--seed", "14", "--out", out])

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


class TestBenchBytesIndependentOfBlas:
    """bench's relevance, and so its bytes, do not depend on the BLAS thread
    count or kernel: a cosine within rounding of a rho0 is re-summed in the
    fixed order.  One rho0 is such a cosine itself.  Each case runs bench in
    a new process, whose environment picks the BLAS threads or kernel; a
    kernel that this CPU cannot run (OpenBLAS falls back to another) is
    skipped, so the test ids and skips report which cases ran."""

    # the child runs the step, then names the OpenBLAS kernel it ran (None
    # where numpy's BLAS is not a bundled OpenBLAS)
    CHILD = """
import ctypes, glob, os, sys
from rpsketch import cli
code = cli.main(sys.argv[1:])
import numpy
core = None
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "*openblas*")):
    for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                 "openblas_get_corename64_", "openblas_get_corename"):
        get = getattr(ctypes.CDLL(lib), name, None)
        if get is not None:
            get.restype = ctypes.c_char_p
            core = get().decode()
print(code, core)
"""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("blas")
        train, query = work / "train.txt", work / "query.txt"
        assert run(["synth", "--dim", "48", "--clusters", "3", "--train", "60", "--query",
                    "12", "--seed", "5", "--out-train", str(train),
                    "--out-query", str(query)]) == 0
        # a fixed-order cosine that this process's BLAS rounds below it
        corpora = load_sparse_text(train), load_sparse_text(query)
        fixed, fast = bincount_cosines(*corpora), exact_cosines(*corpora)
        below = fixed[(fast < fixed) & (fixed > 0.5)]
        on_a_cosine = float((below if below.size else fixed[fixed > 0.5])[0])
        return work, ["bench", "--train", str(train), "--query", str(query), "--k", "16,64",
                      "--rho0", f"0.9,{on_a_cosine!r},1.0", "--estimators", "sign-sign,s-norm",
                      "--seed", "5", "--threads", "1"]

    @pytest.fixture(scope="class")
    def one_thread(self, inputs):
        return self.bench(inputs, "one-thread", {"OPENBLAS_NUM_THREADS": "1"})[0]

    def bench(self, inputs, name: str, env: dict) -> tuple[bytes, str]:
        """The output bytes of one child bench step and the kernel it ran."""
        work, argv = inputs
        out = work / f"{name}.csv"
        clean = {k: v for k, v in os.environ.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE")}
        path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", self.CHILD, *argv, "--out", str(out)],
                              env={**clean, "PYTHONPATH": path, **env}, cwd=work,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stdout.split()[0] == "0", proc.stderr
        return out.read_bytes(), proc.stdout.split()[1]

    @pytest.mark.parametrize("name,env", [
        ("openblas-threads-2", {"OPENBLAS_NUM_THREADS": "2"}),
        ("kernel-haswell", {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Haswell"}),
        ("kernel-nehalem", {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Nehalem"}),
    ], ids=["openblas-threads-2", "kernel-haswell", "kernel-nehalem"])
    def test_same_sha256_as_one_default_thread(self, inputs, one_thread, name, env):
        got, core = self.bench(inputs, name, env)
        requested = env.get("OPENBLAS_CORETYPE")
        if requested and core not in (requested, "None"):
            pytest.skip(f"this CPU runs {core}, not {requested}")
        assert hashlib.sha256(got).hexdigest() == hashlib.sha256(one_thread).hexdigest()
