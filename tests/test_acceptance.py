"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its tolerance and runtime (run with `pytest tests/test_acceptance.py -v -s`).

Criteria 9-11 read the checks of the session-scoped `she.compare` run from
conftest (2000 Bernoulli(1/2) replicas at eps = 1/32 and 1/64, A = B = 0,
T = 0.1); its time is charged to the first criterion that uses it.
"""

import math
import time

import numpy as np
import pytest

from asepkpz.cli import sha256_file
from asepkpz.engine import Lattice, exact_generator, state_etas
from asepkpz.greens import c_star_estimate, green_corner_closed_form, green_matrix, key_identity
from asepkpz.kernels import (build_image_expansion, halfline_robin_row, interval_kernel_image,
                             interval_kernel_spectral, kernel_bound_audit, robin_laplacian_matrix,
                             solve_interval_spectrum, _support_radius)
from asepkpz.params import (build_params, equal_density_mu,
                            params_from_mu, phase_point)

from conftest import run_compare, write_compare_table
from oracles import (c_star_weighted, drift_identity_residual, halfline_green_limit,
                     halfline_key_identity, stationary_measure)


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report(criterion, ok, limit_s, elapsed, detail):
    line = (f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.1f}s / limit {limit_s:.0f}s) {detail}")
    print(line)
    assert ok, line
    assert elapsed < limit_s, f"criterion {criterion} exceeded runtime: {line}"


def sampler_rate(*results) -> str:
    """Sampler throughput of the ensembles of the `she.compare` results a criterion reads."""
    rates = ", ".join(f"{e['events'] / e['sampler_s']:.3g}"
                      for r in results for e in r["ensembles"])
    return f"[sampler {rates} events/s]"


def test_criterion_01_gartner_drift_identity():
    with Timer() as t:
        n = 64
        params = build_params(1 / n, 1.0, 2.0)
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
        rep = key_identity(solve_interval_spectrum(n, mu, mu))
        # every pair (x, xb) against I - c 11^T
        theory = np.eye(n) - c_expected
        ok = True
        ok &= float(np.max(np.abs(rep["F"] - theory))) <= 1e-9              # spectral
        ok &= float(np.max(np.abs(rep["F_quadrature"] - theory))) <= 1e-7   # expm
        ok &= rep["green_route_gap"] <= 1e-9                                # Green
        ok &= rep["tail_bound"] <= 1e-7
        diag = rep["F"][n // 2, n // 2]
        h_diag = halfline_key_identity(1, 1, 0.5)
        h_off = halfline_key_identity(1, 3, 0.5)
        ok &= abs(h_diag["value"] - 1.0) <= 1e-7 and abs(h_off["value"]) <= 1e-7
        ok &= (h_gap := max(h_diag["route_gap"], h_off["route_gap"])) <= 1e-12
    report(2, ok, 30.0, t.elapsed,
           f"diag {diag:.10f} (theory {1 - c_expected:.10f}), expm gap "
           f"{rep['route_gap_max']:.1e}, half-line spectral gap {h_gap:.1e} <= 1e-12")


def test_criterion_03_green_functions():
    with Timer() as t:
        # the closed form against a dense LAPACK solve, every entry, relative to
        # max |G|; Robin at both walls, then Neumann at one
        rng = np.random.default_rng(303)
        cases = [(n, float(rng.uniform(0.0, 0.999)), float(rng.uniform(0.0, 0.999)))
                 for n in (1, 8, 64, 200) for _ in range(20)]
        cases += [(n, mu_a, mu_b) for n in (8, 200) for mu_a, mu_b in ((1.0, 0.9), (0.5, 1.0))]
        worst = 0.0
        for n, mu_a, mu_b in cases:
            closed = green_matrix(n, mu_a, mu_b)
            dense = np.linalg.solve(robin_laplacian_matrix(n, mu_a, mu_b), np.eye(n + 1))
            corner = green_corner_closed_form(n, mu_a, mu_b)
            worst = max(worst, np.max(np.abs(closed - dense)) / np.max(np.abs(closed)),
                        abs(closed[0, 0] - corner) / corner)
        lim_err = 0.0
        for mu in (0.3, 0.9, 0.99):
            lim_err = max(lim_err, abs(halfline_green_limit(10 ** 4, mu)
                                       - 2.0 / (1.0 - mu)))
        ok = worst <= 1e-11 and lim_err <= 1e-6
    report(3, ok, 10.0, t.elapsed,
           f"closed-vs-dense {worst:.1e} <= 1e-11 (relative); "
           f"half-line limit {lim_err:.1e} <= 1e-6")


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
            ker_s = interval_kernel_spectral(spec, tt)
            ker_i = interval_kernel_image(exp_, tt)
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
            ok &= float(np.max(np.abs(k1 - k1.T))) <= 1e-10
            ok &= k1.min() >= -1e-10
            ok &= float(np.max(np.abs(k1 @ k2 - k3))) <= 1e-10
        # mass: equality iff Neumann
        rs_n = interval_kernel_spectral(spec_n, 3.0).sum(axis=1)
        rs_r = interval_kernel_spectral(spec_r, 3.0).sum(axis=1)
        ok &= float(np.max(np.abs(rs_n - 1.0))) <= 1e-10
        ok &= bool(np.all(rs_r < 1.0)) and bool(np.all(rs_r <= 1.0 + 1e-10))
        # half-line semigroup + mass (Bessel route)
        mu_h = 1.0 - 1.0 / 32
        s_, t_ = 0.8, 1.7
        zmax = 3 + _support_radius(s_) + 40
        row_s = halfline_robin_row(s_, 3, mu_h, zmax)
        conv = sum(row_s[z] * halfline_robin_row(t_, z, mu_h, 5)[5] for z in range(zmax + 1))
        ok &= abs(conv - halfline_robin_row(s_ + t_, 3, mu_h, 5)[5]) <= 1e-10
        ok &= row_s.sum() <= 1.0 + 1e-12
        # bound audits: finite, grid-stable constants
        audits = kernel_bound_audit(spec_r, 1.0 / 32, t_bar=1.0)
        for a in audits:
            ok &= bool(np.isfinite(a["constant"])) and a["stable"]
            detail.append(f"{a['bound']}:C={a['constant']:.3g}")
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


def test_criterion_09_microscopic_mean_channel(compare_result):
    with Timer() as t:
        checks = compare_result["checks"]
        ok, worst = checks["mean_channel_3sigma_eps_0.03125"]
        fine = checks["mean_channel_3sigma_eps_0.015625"][1]
    report(9, ok, 300.0, t.elapsed,
           f"max |mean - kernel prediction| = {worst:.2f} sigma <= 3 at eps = 1/32 "
           f"({fine:.2f} sigma at 1/64; {compare_result['ensembles'][0]['n_replicas']} "
           f"replicas, 9-point grid) {sampler_rate(compare_result)}")


def test_criterion_10_martingale_diagnostics(compare_result):
    with Timer() as t:
        ok_n, worst_n = compare_result["checks"]["martingale_mean_3sigma"]
        ok_gap, worst_gap = compare_result["checks"]["martingale_gap_3sigma"]
    report(10, ok_n and ok_gap, 300.0, t.elapsed,
           f"max |mean N| = {worst_n:.2f} sigma, max |mean gap| = {worst_gap:.2f} "
           f"sigma over {len(compare_result['diagnostics'])} test functions "
           f"{sampler_rate(compare_result)}")


def test_criterion_11_convergence_trend(compare_result):
    with Timer() as t:
        ok, (gap32, gap64, sig) = compare_result["checks"]["var_gap_non_increasing"]
    report(11, ok, 1200.0, t.elapsed,
           f"var gap {gap32:.4f} (eps=1/32) -> {gap64:.4f} (eps=1/64), "
           f"combined sigma {sig:.4f}: non-increasing within error bars "
           f"{sampler_rate(compare_result)}")


def _compare_csv_sha256(result, path) -> str:
    return sha256_file(str(write_compare_table(result, path)))


def test_criterion_12_reproducibility(compare_result, tmp_path):
    with Timer() as t:
        h_ref = _compare_csv_sha256(compare_result, tmp_path / "ref.csv")
        # full rerun of the criteria 9-11 pipeline with a different thread count
        rerun = run_compare(threads=2)
        h_new = _compare_csv_sha256(rerun, tmp_path / "new.csv")
        ok = h_ref == h_new
        # the threaded rerun also reproduces the diagnostics, the checks and
        # the per-site moments bit for bit
        ok &= rerun["diagnostics"] == compare_result["diagnostics"]
        ok &= rerun["checks"] == compare_result["checks"]
        for e, ref in zip(rerun["ensembles"], compare_result["ensembles"]):
            ok &= all(np.array_equal(e[k], ref[k]) for k in ("mean", "var", "se_var"))
    report(12, ok, 1200.0, t.elapsed,
           f"compare CSV sha256 {h_ref[:12]}... identical for threads 1 vs 2 "
           f"{sampler_rate(compare_result, rerun)}")
