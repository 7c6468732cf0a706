"""Start-up cost: scipy is imported where it is called, not with the package.

Importing scipy.special and scipy.sparse costs a cold CLI step more than
its closed-form work, so `import rpsketch` loads only numpy and the stdlib.
Each check runs in a fresh interpreter, because this test process has long
since imported scipy.
"""

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


def test_sketch_step_loads_special_but_not_sparse(tmp_path):
    (tmp_path / "c.txt").write_text("1:1 3:2\n2:1\n")
    out = fresh("""
        from rpsketch.cli import main
        code = main(["sketch", "--input", "c.txt", "--k", "16", "--seed", "3",
                     "--out", "store.sfrp"])
        print(code, "scipy.special" in sys.modules,
              any(m.startswith("scipy.sparse") for m in sys.modules))
    """, tmp_path)
    assert out == "0 True False"


def test_first_draw_in_worker_threads_matches_one_thread(tmp_path):
    # two grid pieces, so the first normal draw, and with it the import of
    # scipy.special, happens in two worker threads at once
    out = fresh("""
        import numpy as np
        from rpsketch import rng
        assert not scipy_modules()
        majors = np.arange(64, dtype=np.uint64)
        two = rng.normal_grid(5, majors, 2048, threads=2)
        one = rng.normal_grid(5, majors, 2048, threads=1)
        print(len(rng._pieces(*two.shape)), two.tobytes() == one.tobytes())
    """, tmp_path)
    assert out == "2 True"
