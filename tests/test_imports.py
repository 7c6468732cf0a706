"""Start-up cost: nothing in the package imports scipy.

Importing scipy.special and scipy.sparse costs a cold CLI step more than
its closed-form work.  Normals are drawn with numpy alone, exact cosines
are a numpy product and the normal special functions of the MLE are a numpy
erfcx, so no step loads a scipy module, the MLE steps included.  Each check
runs in a fresh interpreter, because this test process has long since
imported scipy (the tests use it as an oracle); a static check guards
imports on paths the steps below do not run.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def fresh(code: str, cwd: Path) -> str:
    """stdout of code run in a new interpreter that finds rpsketch in src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


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
    """, tmp_path)
    assert out.splitlines() == ["simulate 0 []", "variance-table 0 []"]


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
    # two grid pieces, so the first normal draw, with its first calls into
    # numpy's log, sin and sqrt loops, happens in two worker threads at once
    out = fresh("""
        import numpy as np
        from rpsketch import rng
        majors = np.arange(2 * rng._CHUNK_VALUES // 2048, dtype=np.uint64)
        two = rng.normal_grid(5, majors, 2048, threads=2)
        one = rng.normal_grid(5, majors, 2048, threads=1)
        print(len(rng._pieces(*two.shape)), two.tobytes() == one.tobytes(), scipy_modules())
    """, tmp_path)
    assert out == "2 True []"
