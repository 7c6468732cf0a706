"""Acceptance suite: one test per criterion, one printed line per criterion.

Tolerances are pinned to their stated values.  Criterion 1's high-similarity
clause checks the rho->1 limit 4/(3*pi) of V_s/V_1 and V_s-norm/V_1 within
1e-6 at rho = 1 - 1e-12 and rho = 1 - 1e-14.  The finite-rho ratio deviates
from the limit by ~(0.185, 0.583)*sqrt(1-rho)*4/(3*pi) (pinned in
tests/test_variance.py), so the truncation there is <= 2.5e-7 and <= 2.5e-8
and the band measures the limit together with the float evaluation of the
closed forms, not the convergence rate.  (At rho = 1 - 1e-8 the truncation
alone is 7.9e-6 and 2.5e-5, outside the 1e-6 band.)

Run with ``pytest tests/test_acceptance.py -v -s``.  Target: under ~15
minutes on a desktop machine.
"""

import math
import os

import numpy as np
import scipy.integrate
import scipy.special

from oracles import half_gaussian_cdf_integrals, matching_bits, project, sign_store
from rpsketch import (Estimator, FisherConfig, SimConfig, benchmark_grid,
                      interpolated_precision, make_clustered_corpus,
                      mle_variance_factor, run_mse, run_mse_ratio, v_factor)
from rpsketch import rng
from rpsketch.cli import main as cli_main
from rpsketch.mle import solve_sign_full_batch
from rpsketch.projection import ProjectionConfig

PI = math.pi
SEED = 20260809
# lab outputs do not depend on the thread count, so the slow criteria use the machine's cores
THREADS = min(os.cpu_count() or 1, 4)


def _criterion(num: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:02d}: {status} — {name}")
    assert not failures, f"criterion {num} ({name}): " + " | ".join(failures)


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def test_criterion_01_variance_ratio_constants():
    failures = []
    v1 = v_factor(Estimator.SIGN_SIGN, 0.0).value
    targets = [
        (Estimator.G, 2 / PI),
        (Estimator.G_NORM, 2 / PI),
        (Estimator.S, 4 / PI - 4 / PI**2),
        (Estimator.S_NORM, 4 / PI - 6 / PI**2),
    ]
    for est, expected in targets:
        ratio = v_factor(est, 0.0).value / v1
        _check(failures, abs(ratio - expected) <= 1e-12,
               f"{est.cli_name}/sign-sign at 0: {ratio!r} vs {expected!r}")

    limit = 4 / (3 * PI)
    for delta in (1e-12, 1e-14):
        rho = 1.0 - delta
        v1_hi = v_factor(Estimator.SIGN_SIGN, rho).value
        for est in (Estimator.S, Estimator.S_NORM):
            ratio = v_factor(est, rho).value / v1_hi
            _check(failures, abs(ratio - limit) <= 1e-6,
                   f"{est.cli_name}/sign-sign at 1-{delta:g}: |{ratio:.9f} -"
                   f" 4/(3pi)| = {abs(ratio - limit):.3e} > 1e-6")
    _criterion(1, "variance-ratio constants at rho=0 and the rho->1 limit",
               failures)


def test_criterion_02_integral_closed_forms_vs_quadrature():
    failures = []
    for rho in [-0.99, -0.7, -0.3, 0.0, 0.3, 0.7, 0.99]:
        c = rho / math.sqrt(1 - rho * rho)
        closed = half_gaussian_cdf_integrals(rho)
        for value, power in zip(closed, (1, 3, 2)):
            oracle, err = scipy.integrate.quad(
                lambda t: t**power * math.exp(-t * t / 2)
                * scipy.special.ndtr(c * t),
                0, np.inf, epsabs=1e-12, epsrel=1e-12)
            _check(failures, abs(value - oracle) <= 1e-8,
                   f"rho={rho} t^{power}: {value!r} vs quadrature {oracle!r}")
    _criterion(2, "closed-form half-line integrals match quadrature", failures)


def test_criterion_03_moment_identities():
    failures = []
    n = 10_000_000
    chunk = 1_000_000
    for rho in [-0.9, -0.5, 0.0, 0.5, 0.9]:
        sums = np.zeros(6)
        sums_sq = np.zeros(6)
        done = 0
        block = 0
        while done < n:
            x, y = rng.bivariate_block(rho, SEED, block, 1, chunk)
            s = np.where(x[0] >= 0.0, 1.0, -1.0) * y[0]
            mis = np.maximum(-s, 0.0)
            mat = np.maximum(s, 0.0)
            stats = (s, s**3, mis, mis * mis, mat, mat * mat)
            for i, arr in enumerate(stats):
                sums[i] += arr.sum()
                sums_sq[i] += np.multiply(arr, arr).sum()
            done += chunk
            block += 1
        theta = math.atan2(math.sqrt(1 - rho * rho), rho)
        wedge = (theta - rho * math.sqrt(1 - rho * rho)) / PI
        expected = [
            math.sqrt(2 / PI) * rho,            # E(sgn(x) y)
            (6 * rho - 2 * rho**3) / math.sqrt(2 * PI),  # E((sgn(x) y)^3)
            (1 - rho) / math.sqrt(2 * PI),      # mismatch first moment
            wedge,                              # mismatch second moment
            (1 + rho) / math.sqrt(2 * PI),      # match first moment
            1.0 - wedge,                        # match second moment
        ]
        names = ["E(s)", "E(s^3)", "E(mis)", "E(mis^2)", "E(match)",
                 "E(match^2)"]
        for i, (exp, name) in enumerate(zip(expected, names)):
            mean = sums[i] / n
            se = math.sqrt(max(sums_sq[i] / n - mean * mean, 0.0) / n)
            _check(failures, abs(mean - exp) <= 4 * se,
                   f"rho={rho} {name}: {mean:.6f} vs {exp:.6f} (4se={4*se:.2e})")
    _criterion(3, "sign-full moment identities at 1e7 samples", failures)


def test_criterion_04_mse_matches_variance_factors():
    failures = []
    k, trials = 1000, 100_000
    estimators = (Estimator.SIGN_SIGN, Estimator.G, Estimator.G_NORM,
                  Estimator.S, Estimator.S_NORM)
    tolerances = {Estimator.SIGN_SIGN: 0.05, Estimator.G: 0.05,
                  Estimator.S: 0.05, Estimator.G_NORM: 0.08,
                  Estimator.S_NORM: 0.08}
    for rho in [0.99, 0.95, 0.75, 0.0, -0.95]:
        for rep in run_mse(SimConfig(rho, k, trials, SEED, estimators), threads=THREADS):
            expected = v_factor(rep.estimator, rho).value
            rel = abs(rep.mse * k / expected - 1.0)
            _check(failures, rel <= tolerances[rep.estimator],
                   f"rho={rho} {rep.estimator.cli_name}: mse*k off by "
                   f"{rel*100:.2f}% (tol {tolerances[rep.estimator]*100:.0f}%)")
    _criterion(4, "empirical MSE*k matches variance factors at k=1000",
               failures)


def test_criterion_05_high_similarity_mse_ratios():
    failures = []
    points = {p.k: p for p in run_mse_ratio(0.99, [10, 2000], 100_000, SEED,
                                            threads=THREADS)}
    _check(failures, points[10].ratio_s_norm >= 5.0,
           f"k=10 ratio {points[10].ratio_s_norm:.2f} < 5")
    target = 3 * PI / 4
    rel = abs(points[2000].ratio_s_norm - target) / target
    _check(failures, rel <= 0.10,
           f"k=2000 ratio {points[2000].ratio_s_norm:.4f} vs {target:.4f} "
           f"({rel*100:.1f}% off)")
    _criterion(5, "sign-sign vs s-norm MSE ratios at rho=0.99", failures)


def test_criterion_06_fisher_information():
    failures = []
    at_zero = mle_variance_factor(0.0, FisherConfig(1_000_000, SEED))
    _check(failures, abs(at_zero.value / (PI / 2) - 1.0) <= 0.01,
           f"V_m(0) = {at_zero.value:.5f} vs pi/2")
    sign_full = (Estimator.G, Estimator.G_NORM, Estimator.S, Estimator.S_NORM)
    for rho in [0.0, 0.25, 0.5, 0.75, 0.9]:
        vm = mle_variance_factor(rho, FisherConfig(1_000_000, SEED))
        bound = min(v_factor(e, rho).value for e in sign_full)
        _check(failures, vm.value <= bound + 3 * vm.mc_stderr,
               f"Cramer-Rao violated at rho={rho}: "
               f"{vm.value:.5f} > {bound:.5f} + 3se")
    vm98 = mle_variance_factor(0.98, FisherConfig(1_000_000, SEED))
    ratio = v_factor(Estimator.S_NORM, 0.98).value / vm98.value
    _check(failures, 1.08 <= ratio <= 1.30,
           f"V_sn/V_m at 0.98 = {ratio:.4f} outside [1.08, 1.30]")
    _criterion(6, "Monte-Carlo Fisher information and Cramer-Rao ordering",
               failures)


def test_criterion_07_mle_consistency():
    # the standard error of an n-sample variance ratio is sqrt(2/(n-1)), so
    # n = 3,201 makes the 10% band 4 standard errors wide
    failures = []
    rho, k, seeds = 0.5, 1000, 3201
    vm = mle_variance_factor(rho, FisherConfig(1_000_000, SEED)).value
    s = np.empty((seeds, k))
    for i in range(seeds):
        x, y = rng.bivariate_block(rho, seed=40_000 + i, major_start=0,
                                   n_major=1, k=k)
        s[i] = np.where(x[0] >= 0.0, 1.0, -1.0) * y[0]
    estimates = solve_sign_full_batch(s).rho_hat
    mean_tol = 4 * math.sqrt(vm / k / seeds)
    _check(failures, abs(estimates.mean() - rho) <= mean_tol,
           f"mean {estimates.mean():.6f} vs 0.5 (tol {mean_tol:.2e})")
    var_ratio = estimates.var() * k / vm
    _check(failures, abs(var_ratio - 1.0) <= 0.10,
           f"variance*k/V_m = {var_ratio:.4f} outside 10%")
    _criterion(7, "sign-full MLE consistency over 3,201 seeds", failures)


def _bisect(fn, lo, hi, iters=80):
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_08_crossover_constants():
    failures = []
    cross_f = _bisect(lambda r: v_factor(Estimator.SIGN_SIGN, r).value
                      - v_factor(Estimator.FULL, r).value, 0.5, 0.7)
    _check(failures, abs(cross_f - 0.5902) <= 0.0005,
           f"sign-sign/full crossover at {cross_f:.5f}")
    cross_s = _bisect(lambda r: v_factor(Estimator.S, r).value
                      - v_factor(Estimator.S_NORM, r).value, 0.25, 0.45)
    _check(failures, abs(cross_s - 0.36603) <= 1e-4,
           f"s/s-norm crossover at {cross_s:.6f}")
    _criterion(8, "variance crossover constants", failures)


def test_criterion_09_sign_sign_rate():
    failures = []
    rho = 1.0 - 1e-4
    # the high-similarity rate 2 sqrt(2) pi (1-rho)^{3/2} of V_sign-sign
    ratio = v_factor(Estimator.SIGN_SIGN, rho).value / \
        (2 * math.sqrt(2) * PI * (1 - rho) ** 1.5)
    _check(failures, 0.98 <= ratio <= 1.02, f"rate ratio {ratio:.5f}")
    _criterion(9, "high-similarity rate of the sign-sign factor", failures)


def test_criterion_10_collision_probability():
    failures = []
    k = 100_000
    cfg = ProjectionConfig(k=k, seed=SEED)
    for rho in [0.0, 0.5, 0.9]:
        u, v = [1.0, 0.0], [rho, math.sqrt(1 - rho * rho)]
        bits_u = sign_store(project(u, cfg))
        bits_v = sign_store(project(v, cfg))
        agree = matching_bits(bits_u, bits_v) / k
        p = 1.0 - math.acos(rho) / PI
        tol = 4 * math.sqrt(p * (1 - p) / k)
        _check(failures, abs(agree - p) <= tol,
               f"rho={rho}: agreement {agree:.5f} vs {p:.5f} (tol {tol:.1e})")
    _criterion(10, "sign collision probability at k=1e5", failures)


def test_criterion_11_ranking_benchmark():
    failures = []
    estimators = [Estimator.SIGN_SIGN, Estimator.G_NORM, Estimator.S_NORM]
    wins = 0
    low_threshold_diffs = []
    low_threshold_levels = []
    for i in range(10):
        seed = SEED + i
        train, queries = make_clustered_corpus(seed)  # 1000/100, D=512
        rows = benchmark_grid(train, queries, [100], [0.9, 0.4],
                              estimators, seed)
        prec = {(est, rho0): interpolated_precision(curve, 0.5)
                for est, rho0, k, curve in rows}
        wins += prec[(Estimator.S_NORM, 0.9)] > prec[(Estimator.SIGN_SIGN, 0.9)]
        low_threshold_diffs.append(prec[(Estimator.G_NORM, 0.4)]
                                   - prec[(Estimator.S_NORM, 0.4)])
        low_threshold_levels.append(prec[(Estimator.S_NORM, 0.4)])
    _check(failures, wins >= 9,
           f"s-norm beat sign-sign at rho0=0.9 in only {wins}/10 seeds")
    mean_diff = float(np.mean(low_threshold_diffs))
    _check(failures, abs(mean_diff) <= 0.05,
           f"g-norm vs s-norm at rho0=0.4 differ by {mean_diff:.4f}")
    _check(failures, min(low_threshold_levels) > 0.2,
           "low-threshold curves degenerate (precision <= 0.2)")
    _criterion(11, "planted-cluster ranking benchmark", failures)


def test_criterion_12_cli_determinism(tmp_path):
    failures = []

    def rerun(name, build_args, runs=(("1",), ("1",), ("3",))):
        blobs = []
        for idx, (threads,) in enumerate(runs):
            out = tmp_path / f"{name}-{idx}"
            code = cli_main(build_args(str(out)) + ["--threads", threads])
            if code != 0:
                failures.append(f"{name}: exit code {code}")
                return
            blobs.append(out.read_bytes())
        if not all(b == blobs[0] for b in blobs):
            failures.append(f"{name}: outputs differ across reruns/threads")

    train = tmp_path / "train.txt"
    query = tmp_path / "query.txt"
    code = cli_main(["synth", "--dim", "64", "--clusters", "3", "--train",
                     "24", "--query", "6", "--seed", "21",
                     "--out-train", str(train), "--out-query", str(query)])
    _check(failures, code == 0, "synth failed")

    rerun("synth", lambda out: [
        "synth", "--dim", "64", "--clusters", "3", "--train", "24",
        "--query", "6", "--seed", "21", "--out-train", out,
        "--out-query", str(tmp_path / "q2.txt")])
    rerun("sketch", lambda out: [
        "sketch", "--input", str(train), "--k", "48", "--seed", "21",
        "--out", out])
    store = tmp_path / "store.bin"
    cli_main(["sketch", "--input", str(train), "--k", "48", "--seed", "21",
              "--out", str(store)])
    rerun("estimate", lambda out: [
        "estimate", "--store", str(store), "--queries", str(query),
        "--estimator", "s-norm", "--seed", "21", "--out", out])
    rerun("simulate", lambda out: [
        "simulate", "--rho", "0.7", "--k", "40", "--trials", "5000",
        "--seed", "21", "--estimators", "sign-sign,g-norm,s-norm",
        "--out", out])
    rerun("mse-ratio", lambda out: [
        "mse-ratio", "--rho", "0.9", "--k-grid", "10,30", "--trials", "2000",
        "--seed", "21", "--out", out])
    rerun("histogram", lambda out: [
        "histogram", "--rho", "0.9", "--k", "50", "--trials", "2000",
        "--seed", "21", "--estimator", "g", "--bins", "13", "--out", out])
    rerun("bench", lambda out: [
        "bench", "--train", str(train), "--query", str(query), "--k", "32",
        "--rho0", "0.6,0.9", "--seed", "21",
        "--estimators", "sign-sign,s-norm", "--out", out])
    rerun("variance-table", lambda out: [
        "variance-table", "--estimators", "mle,s-norm", "--rho-grid",
        "0:0.5:0.25", "--seed", "21", "--mle-samples", "50000", "--out", out])
    _criterion(12, "stochastic subcommands byte-identical across reruns and "
               "--threads", failures)
