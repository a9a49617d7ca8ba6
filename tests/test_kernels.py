import math

import numpy as np
import pytest

from asepkpz.kernels import (build_image_expansion, continuous_halfline_kernel,
                             continuous_halfline_kernel_quad, free_walk_kernel,
                             free_walk_row, free_walk_series, free_walk_tail_bound,
                             halfline_robin_kernel, halfline_robin_row,
                             interval_kernel_image, interval_kernel_spectral,
                             kernel_bound_audit, robin_laplacian_matrix,
                             solve_interval_spectrum, _support_radius)


# ---------------------------------------------------------------------------
# free walk

def test_free_walk_delta_at_zero_time():
    assert free_walk_kernel(0.0, 0) == 1.0
    assert free_walk_kernel(0.0, 3) == 0.0


@pytest.mark.parametrize("t", [1.0, 10.0, 1000.0])
def test_free_walk_symmetry_and_mass(t):
    r = _support_radius(t)
    xs = np.arange(-r, r + 1)
    p = free_walk_kernel(t, xs)
    assert np.allclose(p, p[::-1])
    assert abs(p.sum() - 1.0) <= 1e-12


def test_free_walk_series_oracle():
    # Poisson-mixture series with n <= 200 terms against the Bessel form
    for x in (0, 1, 3, 7):
        series = free_walk_series(4.0, x, n_terms=200)
        assert abs(series - float(free_walk_kernel(4.0, x))) <= 1e-12


def test_free_walk_series_across_crossover():
    for t in (0.5, 5.0, 40.0):
        series = free_walk_series(t, 2, n_terms=400)
        assert abs(series - float(free_walk_kernel(t, 2))) <= 1e-11


def test_tail_bound_dominates():
    t = 25.0
    for r in (10, 30, 60):
        mass = float(free_walk_row(t, 10 * r)[r:].sum()) * 2
        assert mass <= free_walk_tail_bound(t, r) + 1e-300


# ---------------------------------------------------------------------------
# half line

def test_halfline_neumann_reduction():
    t, x, y = 3.0, 2, 5
    v = halfline_robin_kernel(t, x, y, 1.0)
    expect = float(free_walk_kernel(t, x - y) + free_walk_kernel(t, x + y + 1))
    assert abs(v - expect) <= 1e-15


@pytest.mark.parametrize("t", [0.5, 5.0, 50.0])
def test_halfline_ghost_relation(t):
    mu = 1.0 - 1.0 / 32
    for y in range(0, 31, 5):
        lhs = halfline_robin_kernel(t, -1, y, mu)
        rhs = mu * halfline_robin_kernel(t, 0, y, mu)
        assert abs(lhs - rhs) <= 1e-12


def test_halfline_chapman_kolmogorov():
    mu = 0.9
    s, t = 0.7, 1.3
    for (x, y) in [(0, 0), (2, 5), (7, 1)]:
        zmax = 80
        rows = halfline_robin_row(s, x, mu, zmax)
        conv = sum(rows[z] * halfline_robin_kernel(t, z, y, mu) for z in range(zmax + 1))
        assert abs(conv - halfline_robin_kernel(s + t, x, y, mu)) <= 1e-10


def test_halfline_mass_bounded():
    mu = 0.8
    for t in (1.0, 10.0):
        row = halfline_robin_row(t, 3, mu, 3 + _support_radius(t))
        assert row.sum() <= 1.0 + 1e-12
        assert row.min() >= 0.0
    row = halfline_robin_row(10.0, 3, 1.0, 3 + _support_radius(10.0))
    assert abs(row.sum() - 1.0) <= 1e-12  # Neumann conserves mass


def test_halfline_row_matches_scalar():
    mu = 0.95
    row = halfline_robin_row(4.0, 2, mu, 40)
    for y in (0, 1, 17, 40):
        assert abs(row[y] - halfline_robin_kernel(4.0, 2, y, mu)) <= 1e-14


# ---------------------------------------------------------------------------
# interval spectrum

def test_neumann_spectrum_exact():
    n = 24
    spec = solve_interval_spectrum(n, 1.0, 1.0)
    expect = np.arange(n + 1) * math.pi / (n + 1)
    assert np.max(np.abs(spec.omegas - expect)) <= 1e-13
    assert np.max(np.abs(spec.lambdas - (1 - np.cos(expect)))) <= 1e-13


def test_spectrum_n1_dirichlet_like():
    # N = 1, mu_A = mu_B = 0: eigenvalues of [[1, -1/2], [-1/2, 1]] are
    # 1/2 and 3/2, i.e. omega = pi/3, 2 pi/3
    spec = solve_interval_spectrum(1, 0.0, 0.0)
    assert abs(spec.omegas[0] - math.pi / 3) <= 1e-12
    assert abs(spec.omegas[1] - 2 * math.pi / 3) <= 1e-12
    evals = np.linalg.eigvalsh(robin_laplacian_matrix(1, 0.0, 0.0))
    assert np.max(np.abs(np.sort(spec.lambdas) - evals)) <= 1e-12


def test_spectrum_random_residuals_and_brackets():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 64))
        mu_a = float(rng.uniform(0.2, 1.0))
        mu_b = float(rng.uniform(0.2, 1.0))
        spec = solve_interval_spectrum(n, mu_a, mu_b)
        L = robin_laplacian_matrix(n, mu_a, mu_b)
        resid = np.max(np.abs(L @ spec.eigvecs - spec.eigvecs * spec.lambdas))
        assert resid <= 1e-10
        orth = np.max(np.abs(spec.eigvecs.T @ spec.eigvecs - np.eye(n + 1)))
        assert orth <= 1e-10
        ks = np.arange(n + 1)
        assert np.all(spec.omegas >= ks * math.pi / (n + 1) - 1e-14)
        assert np.all(spec.omegas <= (ks + 1) * math.pi / (n + 1) + 1e-14)


def test_spectrum_ghost_relation():
    spec = solve_interval_spectrum(12, 0.9, 0.7)
    for k in (0, 3, 12):
        psi_m1 = spec.eigvec_at(k, -1)
        assert abs(psi_m1 - 0.9 * spec.eigvecs[0, k]) <= 1e-12
        psi_np1 = spec.eigvec_at(k, 13)
        assert abs(psi_np1 - 0.7 * spec.eigvecs[12, k]) <= 1e-12


def test_eigenfunction_sup_bound_stable():
    # sup_k,x sqrt(N) |psi_k(x)| stays bounded as N grows
    sups = []
    for n in (32, 64, 128):
        spec = solve_interval_spectrum(n, 1 - 1 / n, 1 - 2 / n)
        sups.append(math.sqrt(n) * float(np.max(np.abs(spec.eigvecs))))
    assert max(sups) <= 2.5
    assert max(sups) / min(sups) <= 1.5


def test_spectrum_rejects_bad_mu():
    with pytest.raises(ValueError):
        solve_interval_spectrum(8, 1.2, 1.0)
    with pytest.raises(ValueError):
        solve_interval_spectrum(0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# interval kernels

def test_spectral_kernel_identity_and_longtime():
    n = 16
    spec = solve_interval_spectrum(n, 1.0, 1.0)
    k0 = interval_kernel_spectral(spec, 0.0)
    assert np.max(np.abs(k0 - np.eye(n + 1))) <= 1e-10
    kinf = interval_kernel_spectral(spec, 1e7)
    assert np.max(np.abs(kinf - 1.0 / (n + 1))) <= 1e-10
    # Neumann rows conserve mass
    k = interval_kernel_spectral(spec, 3.0)
    assert np.max(np.abs(k.sum(axis=1) - 1.0)) <= 1e-10


def test_robin_kernel_leaks_mass():
    n = 16
    spec = solve_interval_spectrum(n, 1 - 1 / n, 1 - 1 / n)
    k = interval_kernel_spectral(spec, 5.0)
    assert np.all(k.sum(axis=1) < 1.0)
    assert np.max(np.abs(k - k.T)) <= 1e-12
    assert k.min() >= -1e-12


def test_kernel_semigroup():
    n = 12
    spec = solve_interval_spectrum(n, 0.95, 0.85)
    k1 = interval_kernel_spectral(spec, 1.5)
    k2 = interval_kernel_spectral(spec, 2.5)
    k3 = interval_kernel_spectral(spec, 4.0)
    assert np.max(np.abs(k1 @ k2 - k3)) <= 1e-10


def test_image_expansion_neumann_pure_reflections():
    exp_ = build_image_expansion(8, 1.0, 1.0, depth=3)
    for k in range(-3, 4):
        if k == 0:
            continue
        assert exp_.image_coeff(k) == 1.0
        assert np.max(np.abs(exp_.correction(k))) == 0.0


def test_image_coefficient_recursion():
    exp_ = build_image_expansion(8, 0.9, 0.7, depth=4)
    for m in range(0, 4):
        assert abs(exp_.image_coeff(-m - 1) - 0.9 * exp_.image_coeff(m)) <= 1e-15
        assert abs(exp_.image_coeff(m + 1) - 0.7 * exp_.image_coeff(-m)) <= 1e-15


def test_image_first_order_leading_terms():
    # truncating at the first left/right reflections reproduces the explicit
    # leading-order display: free + mu_A image + mu_B image + two geometric sums
    n, t = 6, 2.0
    mu_a, mu_b = 0.9, 0.8
    nb = n + 1
    exp_ = build_image_expansion(n, mu_a, mu_b, depth=1)
    pv = free_walk_row(t, 6 * nb)
    for x in range(nb):
        for y in range(nb):
            lead = pv[abs(x - y)] + mu_a * pv[x + y + 1] + mu_b * pv[abs(x + y + 1 - 2 * nb)]
            acc = 0.0
            for z in range(-nb, -1 - y):
                acc += pv[abs(x - z)] * mu_a ** (-z - y - 2)
            lead += (mu_a ** 2 - 1) * acc
            acc = 0.0
            for z in range(2 * nb - y, 2 * nb):
                acc += pv[abs(x - z)] * mu_b ** (z + y - 2 * nb)
            lead += (mu_b ** 2 - 1) * acc
            built = 0.0
            for z in range(-nb, 2 * nb):
                built += pv[abs(x - z)] * exp_.phi[exp_.offset + z, y]
            assert abs(built - lead) <= 1e-14


def test_image_vs_spectral():
    n = 16
    mu = 1 - 1 / 16
    spec = solve_interval_spectrum(n, mu, mu)
    exp_ = build_image_expansion(n, mu, mu, depth=6)
    for t in (1.0, 10.0, 100.0):
        ker_s = interval_kernel_spectral(spec, t)
        ker_i = interval_kernel_image(exp_, t)
        assert np.max(np.abs(ker_s - ker_i)) <= 1e-8


def test_image_correction_growth_bound():
    exp_ = build_image_expansion(16, 1 - 1 / 16, 1 - 1 / 16, depth=6)
    c0 = exp_.correction_bound_base()
    assert np.isfinite(c0)
    for k in range(1, 7):
        for kk in (k, -k):
            assert np.max(np.abs(exp_.correction(kk))) <= c0 ** abs(k) + 1e-9


def test_image_depth_flag():
    with pytest.raises(ValueError):
        interval_kernel_image(build_image_expansion(8, 0.9, 0.9, depth=1), 1e4)


def test_reflection_map_and_iota():
    exp_ = build_image_expansion(4, 0.9, 0.8, depth=2)
    nb = 5
    for x in range(-2 * nb, 3 * nb):
        assert 0 <= exp_.x_star(x) <= nb - 1
    for k in range(-2, 3):
        for ys in range(nb):
            assert exp_.x_star(exp_.iota(ys, k)) == ys


# ---------------------------------------------------------------------------
# continuous half-line kernel

def test_continuous_neumann_and_mass():
    from scipy.integrate import quad
    T = 0.4
    v = continuous_halfline_kernel(T, 0.3, 0.7, 0.0)
    c = 1 / math.sqrt(2 * math.pi * T)
    expect = c * (math.exp(-0.4 ** 2 / (2 * T)) + math.exp(-1.0 / (2 * T)))
    assert abs(v - expect) <= 1e-15
    mass, _ = quad(lambda y: continuous_halfline_kernel(T, 0.3, y, 0.0), 0, np.inf)
    assert abs(mass - 1.0) <= 1e-10


def test_continuous_closed_form_vs_quadrature():
    for (T, X, Y, A) in [(0.5, 0.1, 0.2, 1.0), (2.0, 1.5, 0.3, 0.7), (0.05, 0.0, 0.4, 3.0)]:
        a = continuous_halfline_kernel(T, X, Y, A)
        b = continuous_halfline_kernel_quad(T, X, Y, A)
        assert abs(a - b) <= 1e-10


def test_continuous_robin_flux():
    # Richardson-extrapolated one-sided derivative at X = 0 equals A * kernel
    T, Y, A = 0.3, 0.6, 1.2

    def deriv(h):
        f = lambda x: continuous_halfline_kernel(T, x, Y, A)
        return (-3 * f(0.0) + 4 * f(h) - f(2 * h)) / (2 * h)

    d = (4 * deriv(5e-4) - deriv(1e-3)) / 3.0
    target = A * continuous_halfline_kernel(T, 0.0, Y, A)
    assert abs(d - target) <= 1e-6


def test_continuous_gaussian_domination():
    # P^R_T(X, Y) <= C(Tbar) T^{-1/2} exp(-|X-Y|^2 / (2T)) with a stable C
    A = 2.0
    ratios = []
    for T in (0.05, 0.2, 0.8):
        for X in np.linspace(0, 2, 9):
            for Y in np.linspace(0, 2, 9):
                v = continuous_halfline_kernel(T, X, Y, A)
                shape = T ** -0.5 * math.exp(-((X - Y) ** 2) / (2 * T))
                ratios.append(v / shape)
    c = max(ratios)
    assert np.isfinite(c) and c <= 2.0


# ---------------------------------------------------------------------------
# bound audits

def test_bound_audits_stable():
    audits = kernel_bound_audit(solve_interval_spectrum(16, 1 - 1 / 16, 1 - 1 / 16), 1 / 16,
                                t_bar=0.5)
    names = {a.name for a in audits}
    assert {"kernel-time-comparison", "kernel-time-holder", "kernel-gaussian-envelope",
            "kernel-gradient-envelope", "halfline-weighted-mass-sum", "halfline-weighted-gradient-sum"} <= names
    for a in audits:
        assert np.isfinite(a.constant), a.name
        assert a.stable, a.name
    sup = next(a for a in audits if a.name == "kernel-time-comparison")
    assert sup.constant <= 1.0 + 1e-12
