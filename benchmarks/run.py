"""rpsketch benchmark: one workload, one run, one JSON line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is `src/rpsketch`,
imported from there.  The run generates its inputs from --seed into a
scratch directory under `.bench_work/`, then repeats whole rounds of the
workload's steps (a set-up step, then its main steps) for --seconds, one
step after another: a closed loop with one client.

With --trace 0 every step is a cold `python3 -m rpsketch.cli` process and
the last line of stdout holds the end-to-end metrics.  With --trace 1 the
same steps call `rpsketch.cli.main` in this process under the span tracer
of spans.py, and the last line holds the per-layer metrics instead.

Every step's output is checked (checks.py).  The first output of a step is
checked in full; the program's output is a pure function of its arguments,
so a later round must reproduce it byte for byte.  A step fails when it
exits non-zero or its check fails; a failed check also clears `correct`.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# The only threads are the program's own --threads: numpy's BLAS runs one.
# Set before numpy is first imported, here and in every child's environment.
os.environ.update({name: "1" for name in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREADS = "2"
# A fixed cold interpreter run: import numpy, then interpreted and numpy
# work.  It is the benchmark's own and never changes, so its wall time tracks
# only the speed the shared host gives this machine at the moment.
CALIBRATION = """
import numpy as np
total = 0
for i in range(300_000):
    total += i * i
a = np.arange(200_000, dtype=np.float64)
for _ in range(20):
    a = np.sqrt(a * 1.0001 + 1.0)
"""
# About the seconds CALIBRATION takes on the reference machine; reported
# times are in seconds of a machine running at that speed.
REF_CALIBRATION_S = 0.25


def wait_child(proc: subprocess.Popen):
    """Exit code and resource usage of a child; ends it if interrupted."""
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: end the child before leaving
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def calibration_seconds() -> float:
    """Wall time of one cold run of CALIBRATION."""
    start = time.perf_counter()
    code, _ = wait_child(subprocess.Popen([sys.executable, "-c", CALIBRATION],
                                          stdout=subprocess.DEVNULL))
    if code:
        raise RuntimeError(f"the calibration run exited with {code}")
    return time.perf_counter() - start


@dataclass
class Step:
    argv: list[str]
    out: Path
    check: Callable[[Path], object]
    items: int = 0  # work items of a main step
    times: list[float] = field(default_factory=list)
    digest: str | None = None


@dataclass
class Workload:
    setup: Step
    mains: list[Step]  # run in this order after the set-up step


def search_sparse(work: Path, seed: int) -> Workload:
    """Near-duplicate search on text-like data: sketch, then score all pairs."""
    n_train, n_queries, k = 800, 100, 256
    corpus = inputs.sparse_corpus(seed, dim=65536, n_train=n_train,
                                  n_queries=n_queries, terms=200, n_exact=5)
    inputs.write_sparse_text(work / "train.txt", corpus.train)
    inputs.write_sparse_text(work / "query.txt", corpus.queries)
    cosines = checks.cosine_matrix(corpus.queries, corpus.train)
    common = ["--dim", "65536", "--seed", str(seed), "--threads", THREADS]
    return Workload(
        Step(["sketch", "--input", "train.txt", "--k", str(k),
              "--out", "store.sfrp", *common], work / "store.sfrp",
             lambda p: checks.check_store(p, n_train, k)),
        [Step(["estimate", "--store", "store.sfrp", "--queries", "query.txt",
               "--estimator", "s-norm", "--out", "scores.csv", *common],
              work / "scores.csv",
              lambda p: checks.check_scores(p, cosines, corpus.exact_pairs, k),
              items=n_queries * n_train)])


def rank_dense(work: Path, seed: int) -> Workload:
    """The paper's ranking experiment on dense planted clusters."""
    n_train, n_queries, ks, rho0s = 400, 40, (64, 256), (0.9, 0.4)
    estimators = ("sign-sign", "g-norm", "s-norm")
    train, queries = inputs.dense_clusters(seed, dim=512, n_clusters=10,
                                           n_train=n_train, n_queries=n_queries)
    inputs.write_dense_text(work / "train.txt", train)
    inputs.write_dense_text(work / "query.txt", queries)
    cosines = queries @ train.T
    common = ["--dim", "512", "--seed", str(seed), "--threads", THREADS]
    return Workload(
        Step(["sketch", "--input", "train.txt", "--k", "256",
              "--out", "store.sfrp", *common], work / "store.sfrp",
             lambda p: checks.check_store(p, n_train, 256)),
        [Step(["bench", "--train", "train.txt", "--query", "query.txt",
               "--k", ",".join(map(str, ks)), "--rho0", ",".join(map(str, rho0s)),
               "--estimators", ",".join(estimators), "--out", "curves.csv", *common],
              work / "curves.csv",
              lambda p: checks.check_pr_curves(p, cosines, ks, rho0s, estimators),
              items=n_queries * n_train * len(ks) * len(estimators))])


def lab(work: Path, seed: int) -> Workload:
    """Simulation lab: the closed-form estimators, then the two MLE solvers."""
    rho = 0.95

    def simulate(k: int, trials: int, estimators, out: str) -> Step:
        return Step(["simulate", "--rho", str(rho), "--k", str(k),
                     "--trials", str(trials), "--estimators", ",".join(estimators),
                     "--seed", str(seed), "--threads", THREADS, "--out", out],
                    work / out, lambda p: checks.check_mse(p, rho, k, estimators),
                    items=trials)

    return Workload(
        Step(["variance-table", "--estimators", "s-norm", "--rho-grid",
              f"{rho}:{rho}:1", "--out", "factor.csv"], work / "factor.csv",
             lambda p: checks.check_factor(p, "s-norm", rho)),
        [simulate(1000, 6000, ("sign-sign", "g", "g-norm", "s", "s-norm"), "mse.csv"),
         simulate(100, 3000, ("mle", "mle-full"), "mle.csv")])


WORKLOADS = {"search-sparse": search_sparse, "rank-dense": rank_dense, "lab": lab}


class Runner:
    """Runs steps, checks their outputs and counts attempts and failures."""

    def __init__(self, work: Path, traced: bool):
        self.work = work
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.peak_rss_kb = 0

    def _spawn(self, argv: list[str]) -> int:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.work / "stderr.txt", "wb") as err:
            code, usage = wait_child(subprocess.Popen(
                [sys.executable, "-m", "rpsketch.cli", *argv], cwd=self.work, env=env,
                stdout=subprocess.DEVNULL, stderr=err))
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if code:
            sys.stderr.write((self.work / "stderr.txt").read_text(errors="replace"))
        return code

    def _in_process(self, argv: list[str]) -> int:
        from rpsketch import cli

        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            return cli.main(argv)
        except Exception:  # a crash fails the step; the run goes on
            traceback.print_exc()
            return 3
        finally:
            os.chdir(cwd)

    def step(self, step: Step) -> None:
        self.attempted += 1
        step.out.unlink(missing_ok=True)
        start = time.perf_counter()
        code = self._in_process(step.argv) if self.traced else self._spawn(step.argv)
        step.times.append(time.perf_counter() - start)
        if code != 0:
            print(f"step {step.argv[0]} exited with {code}", file=sys.stderr)
            self.failed += 1
            return
        try:
            digest = hashlib.sha256(step.out.read_bytes()).hexdigest()
            if step.digest is None:
                step.check(step.out)
                step.digest = digest
            elif digest != step.digest:
                raise checks.CheckError(f"{step.out.name} differs from the first round's")
        except (OSError, checks.CheckError) as exc:
            print(f"step {step.argv[0]} check failed: {exc}", file=sys.stderr)
            self.failed += 1
            self.correct = False


def reference_seconds(times: list[float], calibrations: list[float]) -> float:
    """A step's mean wall time in reference seconds.

    The shared host's speed drifts by a third within minutes.  The
    calibration runs, one after each step of the same run, slow down with
    it, so the ratio of the two means keeps the program's own cost.
    """
    return REF_CALIBRATION_S * statistics.fmean(times) / statistics.fmean(calibrations)


def _import_seconds() -> float:
    """Median over three fresh interpreters of the time to import rpsketch.cli."""
    code = ("import time; t = time.perf_counter(); import rpsketch.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(3))


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=ROOT / ".bench_work"))
    try:
        wl = WORKLOADS[workload](work, seed)
        runner = Runner(work, traced)
        if traced:
            import_s = _import_seconds()
            sys.path.insert(0, str(SRC))
            tracer = spans.Tracer()
            spans.install(tracer)
        rounds, calibrations = 0, []
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < seconds:
            for step in (wl.setup, *wl.mains):
                runner.step(step)
                calibrations.append(calibration_seconds())
            rounds += 1
        wall = time.perf_counter() - start
        steps = "; ".join(f"{step.argv[0]} s {' '.join(f'{t:.3f}' for t in step.times)}"
                          for step in (wl.setup, *wl.mains))
        print(f"{workload} seed={seed} trace={int(traced)}: {rounds} rounds, "
              f"{wall / rounds:.3f} s per round; {steps}; calibration mean "
              f"{statistics.fmean(calibrations):.4f} s", file=sys.stderr)
        if traced:
            tracer.uninstall()
            metrics = {name: {"value": value, "unit": spans.PER_LAYER[name]}
                       for name, value in
                       spans.layer_metrics(tracer, rounds, import_s).items()}
        else:
            metrics = {
                "setup_s": {"value": reference_seconds(wl.setup.times, calibrations),
                            "unit": "s"},
                "items_per_s": {"value": sum(step.items for step in wl.mains)
                                / sum(reference_seconds(step.times, calibrations)
                                      for step in wl.mains),
                                "unit": "1/s"},
                "peak_rss_mb": {"value": runner.peak_rss_kb / 1024.0, "unit": "MB"},
            }
        return {"correct": runner.correct, "attempted": runner.attempted,
                "failed": runner.failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still ends its child and deletes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "rpsketch" / "cli.py").is_file():
        print(f"error: no rpsketch sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC, quiet=1):
        print("error: src/ does not byte-compile", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
