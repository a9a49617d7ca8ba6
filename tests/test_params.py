import math

import numpy as np
import pytest

from asepkpz.params import (Phase, build_params, params_from_mu,
                            boundary_rates_from_mu, phase_point, equal_density_mu,
                            expansion_audit, ModelParams)


def test_symmetric_degeneration():
    # eps -> 0: p = q = 1/2, lambda = nu = 0, all boundary rates 1/4
    p = build_params(1e-12, 0.0, 0.0)
    assert abs(p.p - 0.5) < 1e-6 and abs(p.q - 0.5) < 1e-6
    assert abs(p.lam) <= 1e-6 and abs(p.nu) < 1e-12
    for r in (p.alpha, p.beta, p.gamma, p.delta):
        assert abs(r - 0.25) < 1e-6


def test_mu_one_rate_split():
    p = build_params(1 / 32, 0.0, 0.0)
    sp, sq = math.sqrt(p.p), math.sqrt(p.q)
    assert abs(p.alpha / p.p - sp / (sp + sq)) < 1e-14
    assert abs(p.gamma / p.q - sq / (sp + sq)) < 1e-14
    assert abs(p.alpha / p.p + p.gamma / p.q - 1.0) < 1e-14


def test_rate_relations_exact():
    p = build_params(0.04, 1.0, 2.0)
    assert abs(p.alpha / p.p + p.gamma / p.q - 1.0) <= 1e-14
    assert abs(p.beta / p.p + p.delta / p.q - 1.0) <= 1e-14


def test_core_invariants_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        eps = float(rng.uniform(0.001, 0.2))
        amax = (1.0 - math.exp(-math.sqrt(eps))) / eps
        a = float(rng.uniform(0.0, 0.9 * amax))
        b = float(rng.uniform(0.0, 0.9 * amax))
        p = build_params(eps, a, b)
        assert abs(p.p * p.q - 0.25) <= 1e-15
        assert abs(p.nu - (p.p + p.q - 1.0)) <= 1e-15
        assert p.lam < 0 and p.nu >= 0
        assert abs(p.alpha / p.p + p.gamma / p.q - 1.0) <= 1e-14
        assert abs(p.beta / p.p + p.delta / p.q - 1.0) <= 1e-14


def test_density_monotonicity():
    # rho_A grows with A (expansion slope +sqrt(eps)/2); rho_B falls with B.
    eps = 1 / 64
    slopes = np.linspace(0.0, 5.0, 11)
    rho_a = [phase_point(build_params(eps, float(a), 0.0)).rho_a
        for a in slopes]
    rho_b = [phase_point(build_params(eps, 0.0, float(b))).rho_b
        for b in slopes]
    assert np.all(np.diff(rho_a) > 0)
    assert np.all(np.diff(rho_b) < 0)


@pytest.mark.parametrize("eps", [1 / 8, 1 / 32, 1 / 128])
def test_neumann_is_maximal_current(eps):
    p = params_from_mu(eps, 1.0, 1.0)
    d = phase_point(p)
    assert d.phase is Phase.MAXIMAL_CURRENT
    assert d.rho_a > 0.5 > d.rho_b
    assert d.current == 0.25
    # a = b = exp(-sqrt(eps)) exactly at mu = 1
    assert abs(d.a_par - math.exp(-math.sqrt(eps))) < 1e-14


def test_equal_density_line():
    eps = 0.1
    for mu_b in (0.9, 1.0, 1.2):
        mu_a = equal_density_mu(eps, mu_b)
        d = phase_point(params_from_mu(eps, mu_a, mu_b))
        assert abs(d.rho_a - d.rho_b) < 1e-13


def test_tasep_limit_rates():
    # p = 1, q -> 0+: creation -> 1, annihilation -> 0 for any mu
    for mu in (0.5, 1.0):
        creation, annihilation = boundary_rates_from_mu(1.0, 1e-12, mu)
        assert abs(creation - 1.0) < 1e-5
        assert abs(annihilation) < 1e-5


def test_phase_classification_regions():
    # 1/a crosses 1 at mu = cosh(sqrt(eps)) > 1: the low/high density phases
    # need mu above it (admissible but outside the weakly asymmetric class).
    eps = 0.05
    se = math.sqrt(eps)
    mu_ld = math.cosh(se) + 0.7 * (math.exp(se) - math.cosh(se))
    d = phase_point(params_from_mu(eps, mu_ld, 1.0))
    assert d.phase is Phase.LOW_DENSITY
    assert d.rho_a < 0.5
    assert abs(d.current - d.rho_a * (1 - d.rho_a)) < 1e-15
    d = phase_point(params_from_mu(eps, 1.0, mu_ld))
    assert d.phase is Phase.HIGH_DENSITY
    assert d.rho_b > 0.5
    assert abs(d.current - d.rho_b * (1 - d.rho_b)) < 1e-15


def test_phase_boundary_tie():
    eps = 0.05
    # inside the scaling class everything sits in the maximal-current corner
    d = phase_point(params_from_mu(eps, 1.0 - eps, 1.0 - eps))
    assert d.phase is Phase.MAXIMAL_CURRENT
    # a = 1 exactly at mu = cosh(sqrt(eps)): a classification tie
    mu_tie = math.cosh(math.sqrt(eps))
    d = phase_point(params_from_mu(eps, mu_tie, mu_tie))
    assert d.phase is Phase.BOUNDARY
    assert abs(d.current - 0.25) < 1e-10


def test_expansion_audit_bounded():
    grid = [1 / 16, 1 / 64, 1 / 256]
    rows = expansion_audit(grid, 1.0, 0.5)
    by_q = {}
    for r in rows:
        by_q.setdefault(r["quantity"], []).append((r["epsilon"], r["ratio"]))
    assert set(by_q) == {"p", "q", "alpha", "beta", "gamma", "delta",
                         "a_par", "b_par", "rho_a", "rho_b"}
    for q, vals in by_q.items():
        vals.sort(reverse=True)  # coarse -> fine
        ratios = [v for _, v in vals]
        assert all(np.isfinite(ratios))
        # no blow-up as eps decreases: bounded by twice the coarse value (plus slack)
        assert max(ratios) <= 2.0 * max(ratios[0], 0.1), (q, ratios)


def test_expansion_audit_a_param_neutral_slopes():
    # A = B = 0: a - (1 - sqrt(eps)) has residual O(eps)
    rows = [r for r in expansion_audit([1 / 16, 1 / 64, 1 / 256], 0.0, 0.0)
            if r["quantity"] == "a_par"]
    for r in rows:
        assert r["ratio"] < 1.0


def test_validation_errors():
    with pytest.raises(ValueError):
        build_params(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        build_params(-1.0, 0.0, 0.0)
    # mu = 1.1 has nonnegative rates at eps = 0.1: only the slope check rejects it
    with pytest.raises(ValueError, match="nonnegative"):
        build_params(0.1, -1.0, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        build_params(0.1, 0.0, -1.0)
    with pytest.raises(ValueError):
        build_params(0.1, 11.0, 0.0)  # mu <= 0
    # negative rate: mu below exp(-sqrt(eps))
    with pytest.raises(ValueError):
        build_params(0.04, 6.0, 0.0)
    # boundary of admissible mu range hits the division guard
    eps = 0.04
    with pytest.raises(ZeroDivisionError):
        phase_point(params_from_mu(eps, math.exp(math.sqrt(eps)), 1.0))


def test_from_rates_roundtrip():
    p = build_params(0.05, 1.0, 2.0)
    r = ModelParams.from_rates(p.p, p.q, p.alpha, p.beta, p.gamma, p.delta)
    assert abs(r.mu_a - p.mu_a) < 1e-12
    assert abs(r.mu_b - p.mu_b) < 1e-12
