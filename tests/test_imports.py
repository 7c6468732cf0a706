"""Start-up cost: nothing in the package imports scipy, and a step loads
only the modules it runs.

Importing scipy.special and scipy.sparse costs a cold CLI step more than
its closed-form work.  Normals are drawn with numpy alone, exact cosines
are a numpy product and the normal special functions of the MLE are a numpy
erfcx, so no step loads a scipy module, the MLE steps included.  Importing
numpy costs about as much again, and the package, the CLI shell and the
closed-form variance factors need none of it: the package's public names
and each subcommand's modules load on first use.  Each check runs in a
fresh interpreter, because this test process has long since imported scipy
and numpy (the tests use them as oracles); a static check guards imports on
paths the steps below do not run.  A step builds only its own subcommand's
parser, the closed-form step loads no dataclasses or logging, and a step
that warns of nothing loads no logging; cold runs check that the warnings
still reach stderr.  A projection grid too small to split starts no thread
pool, so it loads neither concurrent.futures nor logging, and the closed-form
step loads no ctypes, which the heap setting uses.
"""

import ast
import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"

PRELUDE = """
import sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
def loaded(*names):
    return [name for name in names if name in sys.modules]
"""


def run_fresh(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """A new interpreter that finds rpsketch in src/, run with args in cwd."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def fresh(code: str, cwd: Path) -> str:
    """stdout of code run in a new interpreter that finds rpsketch in src/."""
    proc = run_fresh(["-c", PRELUDE + textwrap.dedent(code)], cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def cold_cli(*argv: str, cwd: Path) -> subprocess.CompletedProcess:
    """A cold `python -m rpsketch.cli` step run in cwd, its output captured."""
    return run_fresh(["-m", "rpsketch.cli", *argv], cwd)


def test_package_and_closed_form_steps_load_no_scipy(tmp_path):
    out = fresh("""
        import rpsketch, rpsketch.cli
        print(scipy_modules())
        code = rpsketch.cli.main(["variance-table", "--estimators", "sign-sign,s-norm,g",
                                  "--rho-grid", "0:0.9:0.3", "--out", "factors.csv"])
        print(code, scipy_modules())
    """, tmp_path)
    assert out.splitlines() == ["[]", "0 []"]
    assert len((tmp_path / "factors.csv").read_text().splitlines()) == 1 + 4 * 3


def test_serving_steps_and_closed_form_simulate_load_no_scipy(tmp_path):
    (tmp_path / "c.txt").write_text("1:1 3:2\n2:1\n1:0.5 2:2 3:1\n")
    out = fresh("""
        from rpsketch.cli import main
        steps = [
            ["sketch", "--input", "c.txt", "--k", "16", "--seed", "3", "--out", "store.sfrp"],
            ["estimate", "--store", "store.sfrp", "--queries", "c.txt",
             "--estimator", "s-norm", "--seed", "3", "--out", "scores.csv"],
            ["bench", "--train", "c.txt", "--query", "c.txt", "--k", "8", "--rho0", "0.5",
             "--seed", "3", "--threads", "2", "--out", "curves.csv"],
            ["simulate", "--rho", "0.5", "--k", "32", "--trials", "200",
             "--estimators", "sign-sign,g,g-norm,s,s-norm", "--seed", "3",
             "--threads", "2", "--out", "mse.csv"],
        ]
        for argv in steps:
            print(argv[0], main(argv), scipy_modules())
    """, tmp_path)
    assert out.splitlines() == ["sketch 0 []", "estimate 0 []", "bench 0 []", "simulate 0 []"]


def test_mle_steps_load_no_scipy(tmp_path):
    out = fresh("""
        from rpsketch.cli import main
        steps = [
            ["simulate", "--rho", "0.5", "--k", "16", "--trials", "50",
             "--estimators", "mle,mle-full", "--seed", "3", "--out", "mle.csv"],
            ["variance-table", "--estimators", "mle", "--rho-grid", "0.5:0.5:1",
             "--mle-samples", "20000", "--out", "factors.csv"],
        ]
        for argv in steps:
            print(argv[0], main(argv), scipy_modules())
        # the lab imports vectors (through projection) but parses no text, so
        # the parser's table of powers of ten is never built
        print(sys.modules["rpsketch.vectors"]._powers_of_ten.cache_info().currsize)
    """, tmp_path)
    assert out.splitlines() == ["simulate 0 []", "variance-table 0 []", "0"]


def test_lab_steps_build_no_parse_or_format_table(tmp_path):
    # the lab's steps import vectors (through projection) but neither parse
    # nor format text, so the tables of powers of ten and the repr layouts,
    # which the first parse or format builds, are never built
    out = fresh("""
        from rpsketch.cli import main
        steps = [
            ["variance-table", "--estimators", "s-norm", "--rho-grid", "0.95:0.95:1",
             "--out", "factor.csv"],
            ["simulate", "--rho", "0.95", "--k", "100", "--trials", "200", "--estimators",
             "sign-sign,g,g-norm,s,s-norm", "--seed", "3", "--threads", "2", "--out", "mse.csv"],
            ["simulate", "--rho", "0.95", "--k", "16", "--trials", "50",
             "--estimators", "mle,mle-full", "--seed", "3", "--out", "mle.csv"],
        ]
        print([main(argv) for argv in steps])
        vectors = sys.modules["rpsketch.vectors"]
        print([getattr(vectors, table).cache_info().currsize for table in
               ("_powers_of_ten", "_repr_layouts", "_exponent_chars")])
    """, tmp_path)
    assert out.splitlines() == ["[0, 0, 0]", "[0, 0, 0]"]


def readme_modules(subcommand: str) -> list[str]:
    """The rpsketch modules README's table says a subcommand loads."""
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) > 3 and cells[1] == f"`{subcommand}`":
            return [f"rpsketch.{name.strip(' `')}" for name in cells[2].split(",")]
    raise AssertionError(f"no README row for {subcommand}")


def test_estimate_loads_exactly_the_modules_in_readme(tmp_path):
    (tmp_path / "c.txt").write_text("1:1 3:2\n2:1\n1:0.5 2:2 3:1\n")
    assert cold_cli("sketch", "--input", "c.txt", "--k", "16", "--seed", "3",
                    "--out", "store.sfrp", cwd=tmp_path).returncode == 0
    out = fresh("""
        from rpsketch.cli import main
        code = main(["estimate", "--store", "store.sfrp", "--queries", "c.txt",
                     "--estimator", "s-norm", "--seed", "3", "--out", "scores.csv"])
        print(code, sorted(m for m in sys.modules if m.startswith("rpsketch.")))
    """, tmp_path)
    always = ["rpsketch.cli", "rpsketch.errors", "rpsketch.names"]
    assert out == f"0 {sorted(always + readme_modules('estimate'))}"


def test_package_cli_shell_and_closed_form_variance_table_load_no_numpy(tmp_path):
    out = fresh("""
        import contextlib, io
        import rpsketch
        print(loaded("numpy"))
        import rpsketch.cli
        print(loaded("numpy"))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rpsketch.cli.main(["--help"])
        except SystemExit as exc:
            print(exc.code, loaded("numpy"))
        print(rpsketch.Estimator.S_NORM.cli_name, loaded("numpy"))
        code = rpsketch.cli.main(["variance-table", "--estimators",
                                  "sign-sign,full,full-norm,mle-full,g,g-norm,s,s-norm",
                                  "--rho-grid", "-0.9:0.9:0.3", "--out", "factors.csv"])
        print(code, loaded("numpy", "rpsketch.estimators", "rpsketch.mle",
                           "dataclasses", "inspect", "logging", "ctypes"))
    """, tmp_path)
    assert out.splitlines() == ["[]", "[]", "0 []", "s-norm []", "0 []"]
    assert len((tmp_path / "factors.csv").read_text().splitlines()) == 1 + 8 * 7


def readme_cli_commands() -> list[list[str]]:
    """The rpsketch commands of the sh block under README's "## CLI", with
    continuation lines joined, as argument vectors."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("rpsketch ")]


def test_readme_cli_commands_parse_without_numpy(tmp_path):
    # every documented command parses to its own subcommand, and every
    # subcommand is documented, so the README cannot drift from the parser
    commands = readme_cli_commands()
    out = fresh(f"""
        import json
        from rpsketch.cli import build_parser
        parser = build_parser()
        parsed = [parser.parse_args(argv).command for argv in json.loads({json.dumps(commands)!r})]
        subcommands = sorted(parser._subparsers._group_actions[0].choices)
        print(json.dumps([parsed, subcommands]), loaded("numpy"))
    """, tmp_path)
    listed, numpy = out.rsplit(" ", 1)
    parsed, subcommands = json.loads(listed)
    assert parsed == [argv[0] for argv in commands] and numpy == "[]"
    assert sorted(set(parsed)) == subcommands


def test_readme_cli_commands_parse_alike_with_their_own_parser():
    # main builds only the named subcommand's parser; it must parse as the full one does
    from rpsketch.cli import build_parser

    full = build_parser()
    for argv in readme_cli_commands():
        assert build_parser(argv[0]).parse_args(argv) == full.parse_args(argv), argv


def test_cold_sketch_still_warns_of_skipped_lines(tmp_path):
    (tmp_path / "c.txt").write_text("1:1 3:2\n\n2:1\n\n1:0.5 2:2 3:1\n")
    proc = cold_cli("sketch", "--input", "c.txt", "--k", "16", "--seed", "3",
                    "--out", "store.sfrp", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "skipped 2 empty vector line(s) in c.txt\n")


def test_cold_bench_still_warns_of_an_empty_curve(tmp_path):
    # no training row lies within rho0 = 0.9 of the query, for any estimator
    (tmp_path / "train.txt").write_text("1:1\n2:1\n")
    (tmp_path / "query.txt").write_text("3:1\n")
    proc = cold_cli("bench", "--train", "train.txt", "--query", "query.txt", "--k", "8",
                    "--rho0", "0.9", "--estimators", "sign-sign,s-norm", "--seed", "3",
                    "--out", "curves.csv", cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == (
        "every query had an empty relevance set at rho0 0.9; its curves are empty\n")
    assert (tmp_path / "curves.csv").read_text() == "estimator,rho0,k,L,precision,recall\n"


def test_mle_variance_table_loads_numpy_when_it_runs(tmp_path):
    out = fresh("""
        from rpsketch.cli import main
        code = main(["variance-table", "--estimators", "s-norm,mle", "--rho-grid",
                     "0.5:0.5:1", "--mle-samples", "20000", "--out", "factors.csv"])
        print(code, loaded("numpy", "rpsketch.mle", "rpsketch.rng"))
    """, tmp_path)
    assert out == "0 ['numpy', 'rpsketch.mle', 'rpsketch.rng']"
    rows = (tmp_path / "factors.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["0.5", "s-norm"], ["0.5", "mle"]]


def test_serving_steps_load_only_the_modules_they_run(tmp_path):
    (tmp_path / "c.txt").write_text("1:1 3:2\n2:1\n1:0.5 2:2 3:1\n")
    out = fresh("""
        from rpsketch.cli import main
        lab = ["rpsketch.simulate", "rpsketch.variance", "rpsketch.bench"]
        # c.txt has no blank line, so nothing warns and logging stays unloaded
        print(main(["sketch", "--input", "c.txt", "--k", "16", "--seed", "3",
                    "--out", "store.sfrp"]),
              loaded("rpsketch.estimators", "rpsketch.mle", *lab, "logging"))
        print(main(["estimate", "--store", "store.sfrp", "--queries", "c.txt",
                    "--estimator", "s-norm", "--seed", "3", "--out", "scores.csv"]),
              loaded(*lab, "logging"))
    """, tmp_path)
    assert out.splitlines() == ["0 []", "0 []"]
    assert len((tmp_path / "scores.csv").read_text().splitlines()) == 1 + 3 * 3


def test_public_names_resolve_in_their_home_modules():
    import rpsketch
    from rpsketch import cli, estimators, names, vectors

    assert rpsketch.Estimator is estimators.Estimator is names.Estimator
    assert rpsketch.estimate_batch is estimators.estimate_batch is cli.estimate_batch
    assert rpsketch.load_sparse_text is vectors.load_sparse_text is cli.load_sparse_text
    for name in rpsketch.__all__:
        assert getattr(rpsketch, name) is getattr(
            sys.modules[f"rpsketch.{rpsketch._HOME[name]}"], name)
    assert set(rpsketch.__all__) <= set(dir(rpsketch))
    for module, name in ((rpsketch, "nope"), (cli, "np"), (cli, "project_corpus")):
        with pytest.raises(AttributeError):
            getattr(module, name)


def test_no_module_imports_scipy():
    modules = sorted((SRC / "rpsketch").rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names
                      if n == "scipy" or n.startswith("scipy.")]
    assert found == []


def test_first_draw_in_worker_threads_matches_one_thread(tmp_path):
    # enough grid pieces for two workers, so the first normal draw, with its
    # first calls into numpy's log, sin and sqrt loops, happens in two worker
    # threads at once; only the pool loads concurrent.futures
    out = fresh("""
        import numpy as np
        from rpsketch import rng
        pieces = 2 * rng._PIECES_PER_WORKER
        majors = np.arange(pieces * rng._CHUNK_VALUES // 2048, dtype=np.uint64)
        before = loaded("concurrent.futures")
        two = rng.normal_grid(5, majors, 2048, threads=2)
        one = rng.normal_grid(5, majors, 2048, threads=1)
        print(len(rng._pieces(*two.shape)) == pieces, before, loaded("concurrent.futures"),
              two.tobytes() == one.tobytes(), scipy_modules())
    """, tmp_path)
    assert out == "True [] ['concurrent.futures'] True []"


def test_grids_too_small_to_split_start_no_thread_pool(tmp_path):
    # 512 dims at k = 256 is a grid of two pieces, which --threads 2 once
    # drew on two workers; a pool loads concurrent.futures, and it logging
    (tmp_path / "c.txt").write_text("".join(
        " ".join(f"{j + 1}:{(i + j) % 9 + 1}" for j in range(512)) + "\n" for i in range(6)))
    out = fresh("""
        from rpsketch.cli import main
        common = ["--dim", "512", "--seed", "3", "--threads", "2"]
        print(main(["sketch", "--input", "c.txt", "--k", "256", "--out", "store.sfrp", *common]),
              main(["bench", "--train", "c.txt", "--query", "c.txt", "--k", "64,256",
                    "--rho0", "0.5", "--out", "curves.csv", *common]),
              len(sys.modules["rpsketch.rng"]._pieces(512, 256)),
              loaded("concurrent.futures", "logging"))
    """, tmp_path)
    assert out == "0 0 2 []"


def test_main_pins_blas_to_one_thread_unless_the_caller_chose(tmp_path):
    # the BLAS thread settings in force when numpy is first looked up, and
    # the outputs of a full sketch and a bench, under neither and under a
    # preset OPENBLAS_NUM_THREADS
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    (tmp_path / "c.txt").write_text("".join(
        f"{i % 7 + 1}:1 {i % 5 + 8}:0.{i + 1} {i % 3 + 14}:2\n" for i in range(24)))
    code = PRELUDE + textwrap.dedent(f"""
        import json, os
        from rpsketch.cli import main
        seen = []
        class Watch:  # a finder that sees the first lookup of numpy, and finds nothing
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" and not seen:
                    seen.append([os.environ.get(n) for n in {names!r}])
        sys.meta_path.insert(0, Watch())
        sketch = main(["sketch", "--input", "c.txt", "--k", "40", "--kind", "full",
                       "--seed", "3", "--out", "store.sfrp"])
        bench = main(["bench", "--train", "c.txt", "--query", "c.txt", "--k", "40,9",
                      "--rho0", "0.5", "--seed", "3", "--out", "curves.csv"])
        print(sketch, bench, json.dumps(seen))
    """)
    base = {k: v for k, v in os.environ.items() if k not in names}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    outputs = []
    for preset, want in (({}, ["1", "1", "1"]),
                         ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"])):
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env={**base, **preset}, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split(" ", 2) == ["0", "0", json.dumps([want]) + "\n"]
        outputs.append([(tmp_path / name).read_bytes() for name in ("store.sfrp", "curves.csv")])
    assert outputs[0] == outputs[1]


def test_main_pads_the_heap_unless_the_caller_chose(tmp_path):
    # the mallopt calls of a full sketch and a bench, and their outputs,
    # under no allocator setting and under a preset MALLOC_TOP_PAD_ or
    # glibc.malloc tunable
    (tmp_path / "c.txt").write_text("".join(
        f"{i % 7 + 1}:1 {i % 5 + 8}:0.{i + 1} {i % 3 + 14}:2\n" for i in range(24)))
    code = PRELUDE + textwrap.dedent("""
        import ctypes, json
        from rpsketch.cli import main
        calls, cdll = [], ctypes.CDLL
        class Spy:  # the C library, with its mallopt calls recorded
            def __init__(self, name):
                lib = cdll(name)
                def mallopt(*args):
                    calls.append(args)
                    return lib.mallopt(*args)
                self.mallopt = mallopt
        ctypes.CDLL = Spy
        sketch = main(["sketch", "--input", "c.txt", "--k", "40", "--kind", "full",
                       "--seed", "3", "--out", "store.sfrp"])
        bench = main(["bench", "--train", "c.txt", "--query", "c.txt", "--k", "40,9",
                      "--rho0", "0.5", "--seed", "3", "--out", "curves.csv"])
        print(sketch, bench, json.dumps(calls))
    """)
    base = {k: v for k, v in os.environ.items()
            if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    outputs = []
    for preset, want in (({}, [[-2, 64 << 20]] * 2),
                         ({"MALLOC_TOP_PAD_": str(1 << 20)}, []),
                         ({"GLIBC_TUNABLES": "glibc.malloc.top_pad=1048576"}, [])):
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env={**base, **preset}, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split(" ", 2) == ["0", "0", json.dumps(want) + "\n"]
        outputs.append([(tmp_path / name).read_bytes() for name in ("store.sfrp", "curves.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_heap_padding_skipped_where_libc_has_no_mallopt(monkeypatch):
    import ctypes

    from rpsketch import cli

    for name in [k for k in os.environ if k.startswith("MALLOC_")] + ["GLIBC_TUNABLES"]:
        monkeypatch.delenv(name, raising=False)
    opened = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or object())
    cli._pad_heap_top()
    assert opened == [None]

    def no_library(name):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    cli._pad_heap_top()
