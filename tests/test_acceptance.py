"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its tolerance and runtime (run with `pytest tests/test_acceptance.py -v -s`).

Criteria 9-11 share the session-scoped interval ensembles from conftest
(2000 Bernoulli(1/2) replicas at eps = 1/32 and 1/64, A = B = 0, T = 0.1);
generation time is charged to the first criterion that uses each ensemble.
"""

import math
import time

import numpy as np
import pytest

from asepkpz.cli import sha256_file, write_compare_csv
from asepkpz.engine import Lattice, exact_generator, state_etas, stationary_measure
from asepkpz.gartner import drift_identity_residual
from asepkpz.greens import (c_star_estimate, c_star_weighted,
                            green_corner_closed_form, green_matrix,
                            halfline_green_limit, key_identity)
from asepkpz.kernels import (build_image_expansion, halfline_robin_kernel,
                             halfline_robin_row, interval_kernel_image,
                             interval_kernel_spectral, kernel_bound_audit,
                             robin_laplacian_matrix, solve_interval_spectrum,
                             _support_radius)
from asepkpz.params import (ScalingParams, build_params, equal_density_mu,
                            params_from_mu, phase_point)
from asepkpz.she import asep_she_compare, run_interval_ensemble, var_gap_trend

from conftest import ENSEMBLE_REPLICAS, ENSEMBLE_SEED, ENSEMBLE_T

COMPARE_X = np.linspace(0.0, 1.0, 9)


class Timer:
    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.time() - self.t0


def report(criterion, ok, limit_s, elapsed, detail):
    line = (f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.1f}s / limit {limit_s:.0f}s) {detail}")
    print(line)
    assert ok, line
    assert elapsed < limit_s, f"criterion {criterion} exceeded runtime: {line}"


def test_criterion_01_gartner_drift_identity():
    with Timer() as t:
        n = 64
        params = build_params(ScalingParams.interval(n, 1.0, 2.0))
        lattice = Lattice.interval(n)
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(1000):
            eta = np.where(rng.random(n) < 0.5, 1, -1)
            worst = max(worst, float(np.max(np.abs(
                drift_identity_residual(eta, params, lattice)))))
    report(1, worst <= 1e-12, 1.0, t.elapsed,
           f"max |Omega Z - Lap Z/2| / Z = {worst:.2e} <= 1e-12 over 1000 configs")


def test_criterion_02_key_identity():
    with Timer() as t:
        n = 100
        mu = 1.0 - 1.0 / n
        c_expected = (1.0 / n) * 1.0 / 3.0  # eps*AB/(A+B+AB) at A=B=1
        diag = key_identity("interval", n // 2, n // 2, n=n, mu_a=mu, mu_b=mu)
        off = key_identity("interval", n // 2, n // 2 + 1, n=n, mu_a=mu, mu_b=mu)
        ok = True
        ok &= abs(diag["value"] - (1.0 - c_expected)) <= 1e-9          # spectral
        ok &= abs(off["value"] - (-c_expected)) <= 1e-9
        ok &= abs(diag["value_quadrature"] - (1.0 - c_expected)) <= 1e-7
        ok &= abs(off["value_quadrature"] - (-c_expected)) <= 1e-7
        ok &= diag["tail_bound"] <= 1e-7
        h_diag = key_identity("half_line", 1, 1, mu_a=0.5)
        h_off = key_identity("half_line", 1, 3, mu_a=0.5)
        ok &= abs(h_diag["value"] - 1.0) <= 1e-7 and abs(h_off["value"]) <= 1e-7
        ok &= h_diag["route_gap"] <= 1e-7 and h_off["route_gap"] <= 1e-7
    report(2, ok, 30.0, t.elapsed,
           f"diag {diag['value']:.10f} (theory {1 - c_expected:.10f}), "
           f"quad gaps {diag['route_gap']:.1e}/{h_off['route_gap']:.1e}")


def test_criterion_03_green_functions():
    with Timer() as t:
        rng = np.random.default_rng(303)
        worst = 0.0
        for n in (1, 8, 64, 200):
            for _ in range(20):
                mu_a = float(rng.uniform(0.0, 0.999))
                mu_b = float(rng.uniform(0.0, 0.999))
                dense = green_matrix(n, mu_a, mu_b).values[0, 0]
                closed = green_corner_closed_form(n, mu_a, mu_b)
                worst = max(worst, abs(dense - closed))
        lim_err = 0.0
        for mu in (0.3, 0.9, 0.99):
            lim_err = max(lim_err, abs(halfline_green_limit(10 ** 4, mu)
                                       - 2.0 / (1.0 - mu)))
        ok = worst <= 1e-10 and lim_err <= 1e-6
    report(3, ok, 10.0, t.elapsed,
           f"closed-vs-dense {worst:.1e} <= 1e-10; half-line limit {lim_err:.1e} <= 1e-6")


def test_criterion_04_spectrum():
    with Timer() as t:
        spec = solve_interval_spectrum(64, 1.0, 1.0)
        neumann_err = float(np.max(np.abs(
            spec.omegas - np.arange(65) * math.pi / 65)))
        rng = np.random.default_rng(404)
        worst_resid = worst_orth = 0.0
        brackets_ok = True
        for _ in range(50):
            n = int(rng.integers(2, 129))
            mu_a = float(rng.uniform(0.1, 1.0))
            mu_b = float(rng.uniform(0.1, 1.0))
            spec = solve_interval_spectrum(n, mu_a, mu_b)
            ks = np.arange(n + 1)
            brackets_ok &= bool(np.all(spec.omegas >= ks * math.pi / (n + 1) - 1e-14)
                                and np.all(spec.omegas <= (ks + 1) * math.pi / (n + 1) + 1e-14))
            L = robin_laplacian_matrix(n, mu_a, mu_b)
            worst_resid = max(worst_resid, float(np.max(np.abs(
                L @ spec.eigvecs - spec.eigvecs * spec.lambdas))))
            worst_orth = max(worst_orth, float(np.max(np.abs(
                spec.eigvecs.T @ spec.eigvecs - np.eye(n + 1)))))
        ok = (neumann_err <= 1e-13 and brackets_ok
              and worst_resid <= 1e-10 and worst_orth <= 1e-10)
    report(4, ok, 5.0, t.elapsed,
           f"Neumann {neumann_err:.1e}, residual {worst_resid:.1e}, "
           f"orthonormality {worst_orth:.1e}, brackets {brackets_ok}")


def test_criterion_05_image_vs_spectral():
    with Timer() as t:
        n = 16
        mu = 1.0 - 1.0 / n
        spec = solve_interval_spectrum(n, mu, mu)
        exp_ = build_image_expansion(n, mu, mu, depth=6)
        worst = 0.0
        for tt in (1.0, 10.0, 100.0):
            ker_s = interval_kernel_spectral(spec, tt).values
            ker_i = interval_kernel_image(n, mu, mu, tt, expansion=exp_).values
            worst = max(worst, float(np.max(np.abs(ker_s - ker_i))))
    report(5, worst <= 1e-8, 5.0, t.elapsed,
           f"max image-spectral gap {worst:.1e} <= 1e-8 (N=16, K=6)")


def test_criterion_06_kernel_structure():
    with Timer() as t:
        n = 32
        mu = 1.0 - 1.0 / n
        spec_r = solve_interval_spectrum(n, mu, mu)
        spec_n = solve_interval_spectrum(n, 1.0, 1.0)
        ok = True
        detail = []
        # symmetry / nonnegativity / semigroup (interval, both cases)
        for spec in (spec_r, spec_n):
            k1 = interval_kernel_spectral(spec, 1.5)
            k2 = interval_kernel_spectral(spec, 2.5)
            k3 = interval_kernel_spectral(spec, 4.0)
            ok &= k1.symmetry_error() <= 1e-10
            ok &= k1.min_entry() >= -1e-10
            ok &= float(np.max(np.abs(k1.values @ k2.values - k3.values))) <= 1e-10
        # mass: equality iff Neumann
        rs_n = interval_kernel_spectral(spec_n, 3.0).row_sums()
        rs_r = interval_kernel_spectral(spec_r, 3.0).row_sums()
        ok &= float(np.max(np.abs(rs_n - 1.0))) <= 1e-10
        ok &= bool(np.all(rs_r < 1.0)) and bool(np.all(rs_r <= 1.0 + 1e-10))
        # half-line semigroup + mass (Bessel route)
        mu_h = 1.0 - 1.0 / 32
        s_, t_ = 0.8, 1.7
        zmax = 3 + _support_radius(s_) + 40
        row_s = halfline_robin_row(s_, 3, mu_h, zmax)
        conv = sum(row_s[z] * halfline_robin_kernel(t_, z, 5, mu_h)
                   for z in range(zmax + 1))
        ok &= abs(conv - halfline_robin_kernel(s_ + t_, 3, 5, mu_h)) <= 1e-10
        ok &= row_s.sum() <= 1.0 + 1e-12
        # bound audits: finite, grid-stable constants
        audits = kernel_bound_audit(1.0 / 32, 1.0, 1.0, t_bar=1.0)
        for a in audits:
            ok &= bool(np.isfinite(a.constant)) and a.stable
            detail.append(f"{a.name}:C={a.constant:.3g}")
    report(6, ok, 60.0, t.elapsed, "; ".join(detail))


def test_criterion_07_c_star():
    with Timer() as t:
        n = 32
        mu = 1.0 - 1.0 / n
        res = c_star_estimate(n, mu, mu, 1.0, 1.0 / n)
        ok = res["max"] < 1.0
        ratios = []
        for inv in (16, 32, 64):
            w = c_star_weighted(inv, 1.0 - 1.0 / inv, 1.0 - 1.0 / inv, 0.5, 1.0 / inv)
            ratios.append(w["max"] * inv)
        spread = max(ratios) / min(ratios)
        ok &= spread < 2.0
    report(7, ok, 60.0, t.elapsed,
           f"c_star = {res['max']:.6f} < 1; weighted/eps ratios "
           f"{[f'{r:.3f}' for r in ratios]} spread {spread:.2f} < 2")


def test_criterion_08_stationary_measure():
    with Timer() as t:
        eps = 0.25
        mu_b = 1.1
        params = params_from_mu(eps, equal_density_mu(eps, mu_b), mu_b)
        pi = stationary_measure(exact_generator(params, 5))
        rho = phase_point(params).rho_a
        bern = np.prod(np.where(state_etas(5) > 0, rho, 1 - rho), axis=1)
        tv = float(0.5 * np.abs(pi - bern).sum())
    report(8, tv <= 1e-10, 1.0, t.elapsed,
           f"TV(pi, Bernoulli({rho:.4f})^5) = {tv:.1e} <= 1e-10")


def test_criterion_09_microscopic_mean_channel(ensemble32):
    with Timer() as t:
        rows = asep_she_compare([ensemble32], ENSEMBLE_T, COMPARE_X)
        worst = max(r["mean_gap"] / r["mc_sigma"] for r in rows)
    report(9, worst <= 3.0, 300.0, t.elapsed,
           f"max |mean - kernel prediction| = {worst:.2f} sigma <= 3 "
           f"({ensemble32['n_replicas']} replicas, 9-point grid)")


def test_criterion_10_martingale_diagnostics(ensemble32):
    with Timer() as t:
        reports = ensemble32["martingale"]
        worst_n = max(r["z_N"] for r in reports)
        worst_gap = max(r["z_gap"] for r in reports)
        ok = worst_n <= 3.0 and worst_gap <= 3.0
    report(10, ok, 300.0, t.elapsed,
           f"max |mean N| = {worst_n:.2f} sigma, max |mean gap| = {worst_gap:.2f} "
           f"sigma over 3 test functions")


def test_criterion_11_convergence_trend(ensemble32, ensemble64):
    with Timer() as t:
        rows = asep_she_compare([ensemble32, ensemble64], ENSEMBLE_T, COMPARE_X)
        gap32, gap64, sig = var_gap_trend(rows)
        ok = gap64 <= gap32 + 2.0 * sig
    report(11, ok, 1200.0, t.elapsed,
           f"var gap {gap32:.4f} (eps=1/32) -> {gap64:.4f} (eps=1/64), "
           f"combined sigma {sig:.4f}: non-increasing within error bars")


def _compare_csv_sha256(ensembles, path) -> str:
    write_compare_csv(str(path), asep_she_compare(ensembles, ENSEMBLE_T, COMPARE_X))
    return sha256_file(str(path))


def test_criterion_12_reproducibility(ensemble32, ensemble64, tmp_path):
    with Timer() as t:
        h_ref = _compare_csv_sha256([ensemble32, ensemble64], tmp_path / "ref.csv")
        # full rerun of the criteria 9-11 pipeline with a different thread count
        e32 = run_interval_ensemble(32, 0.0, 0.0, ENSEMBLE_T, ENSEMBLE_REPLICAS,
                                    (ENSEMBLE_SEED, 32), threads=2)
        e64 = run_interval_ensemble(64, 0.0, 0.0, ENSEMBLE_T, ENSEMBLE_REPLICAS,
                                    (ENSEMBLE_SEED, 64), threads=2)
        h_new = _compare_csv_sha256([e32, e64], tmp_path / "new.csv")
        ok = h_ref == h_new
        # the threaded rerun also reproduces the per-site moments bit for bit
        ok &= bool(np.array_equal(e32["mean"], ensemble32["mean"]))
        ok &= bool(np.array_equal(e64["var"], ensemble64["var"]))
    report(12, ok, 1200.0, t.elapsed,
           f"compare CSV sha256 {h_ref[:12]}... identical for threads 1 vs 2")
