import numpy as np
import pytest
from scipy.linalg import expm

from asepkpz.greens import (_interval_grad_products, c_closed_form,
                            c_star_estimate, c_star_weighted, f_matrix,
                            f_matrix_quadrature, green_corner_closed_form, green_matrix,
                            halfline_green, halfline_green_limit, key_identity,
                            summation_by_parts_audit)
from asepkpz.kernels import (free_walk_row, robin_laplacian_matrix,
                             solve_interval_spectrum, _support_radius)
from asepkpz.quadrature import adaptive_quad, dyadic_panels


def test_green_n1_corner():
    g = green_matrix(1, 0.0, 0.0)
    assert abs(g.values[0, 0] - 4.0 / 3.0) <= 1e-14
    assert abs(green_corner_closed_form(1, 0.0, 0.0) - 4.0 / 3.0) <= 1e-14


def test_green_symmetry_and_residual():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(4, 64))
        mu_a = float(rng.uniform(0.1, 0.999))
        mu_b = float(rng.uniform(0.1, 0.999))
        g = green_matrix(n, mu_a, mu_b)
        assert np.max(np.abs(g.values - g.values.T)) <= 1e-12 * np.max(np.abs(g.values))
        L = robin_laplacian_matrix(n, mu_a, mu_b)
        assert np.max(np.abs(L @ g.values - np.eye(n + 1))) <= 1e-10


def test_green_closed_form_vs_dense():
    rng = np.random.default_rng(8)
    for n in (1, 8, 64, 200):
        for _ in range(5):
            mu_a = float(rng.uniform(0.0, 0.999))
            mu_b = float(rng.uniform(0.0, 0.999))
            g = green_matrix(n, mu_a, mu_b)
            assert abs(g.values[0, 0] - green_corner_closed_form(n, mu_a, mu_b)) <= 1e-10


def test_green_neumann_singular():
    with pytest.raises(np.linalg.LinAlgError):
        green_matrix(8, 1.0, 1.0)
    with pytest.raises(ZeroDivisionError):
        green_corner_closed_form(8, 1.0, 1.0)


def test_halfline_green_limit():
    for mu in (0.3, 0.9, 0.99):
        lim = halfline_green_limit(10 ** 4, mu)
        assert abs(lim - 2.0 / (1.0 - mu)) <= 1e-6
    assert abs(halfline_green(0, 0, 0.9) - 2.0 / 0.1) <= 1e-13
    assert abs(halfline_green(3, 5, 0.9) - (2.0 / 0.1 + 6.0)) <= 1e-13


def test_f_matrix_structure():
    n = 100
    mu = 1 - 1 / n
    spec = solve_interval_spectrum(n, mu, mu)
    fm = f_matrix(spec)
    d = np.diag(fm.values)
    assert np.max(np.abs(d - d[0])) <= 1e-9
    off = fm.values[~np.eye(n, dtype=bool)]
    assert np.max(np.abs(off - off[0])) <= 1e-9
    assert abs(d[0] - off[0] - 1.0) <= 1e-9
    # F(0,0) at eps = 1/N, A = B = 1: (A+B+AB-AB eps)/(A+B+AB)
    assert abs(d[0] - (3 - 0.01) / 3) <= 1e-9
    assert fm.green_route_gap <= 1e-9
    assert abs(fm.c - 1 / 300) <= 1e-9
    assert abs(c_closed_form(n, mu, mu) - 1 / 300) <= 1e-12


def test_f_matrix_gradient_structure():
    # grad+_x F(x, y) = 1{x+1=y} - 1{x=y}
    spec = solve_interval_spectrum(40, 1 - 1 / 40, 1 - 0.5 / 40)
    F = f_matrix(spec).values
    g = F[1:, :] - F[:-1, :]
    expect = np.zeros_like(g)
    for x in range(g.shape[0]):
        expect[x, x] = -1.0
        if x + 1 < g.shape[1]:
            expect[x, x + 1] = 1.0
    assert np.max(np.abs(g - expect)) <= 1e-9


@pytest.mark.parametrize("n, mu_a, mu_b", [(100, 1 - 1 / 100, 1 - 1 / 100),
                                          (12, 1.0, 0.8)])
def test_f_matrix_quadrature_matches_spectral(n, mu_a, mu_b):
    # the block-exponential time integral against the spectral closed form,
    # every pair (x, xb)
    spec = solve_interval_spectrum(n, mu_a, mu_b)
    quad = f_matrix_quadrature(n, mu_a, mu_b, spec=spec)
    assert quad["F"].shape == (n, n)
    assert np.max(np.abs(quad["F"] - f_matrix(spec).values)) <= 1e-10
    assert quad["tail_bound"] <= 1e-9


def test_f_matrix_rejects_neumann():
    with pytest.raises(ValueError):
        f_matrix(solve_interval_spectrum(10, 1.0, 1.0))


def test_c_consistency_and_scaling():
    # c from the F matrix, the key-identity diagonal, and the closed form all
    # agree; c <= C eps with a stable constant
    ratios = []
    for n in (25, 50, 100):
        mu = 1 - 1 / n
        spec = solve_interval_spectrum(n, mu, mu)
        fm = f_matrix(spec)
        c_spec = 1.0 - float(fm.values[0, 0])
        c_form = c_closed_form(n, mu, mu)
        assert abs(c_spec - c_form) <= 1e-9
        assert abs(fm.c - c_form) <= 1e-9
        assert 0.0 <= c_form
        ratios.append(c_form * n)
    assert max(ratios) / min(ratios) <= 1.5


def test_key_identity_interval_neumann_side():
    # c = 0 whenever one side is Neumann
    rep = key_identity("interval", 3, 3, n=12, mu_a=1.0, mu_b=0.8)
    assert rep["c"] == 0.0
    assert abs(rep["value"] - 1.0) <= 1e-9
    rep = key_identity("interval", 3, 7, n=12, mu_a=1.0, mu_b=0.8)
    assert abs(rep["value"]) <= 1e-9


def test_key_identity_small_interval_routes():
    rep = key_identity("interval", 5, 5, n=16, mu_a=1 - 1 / 16, mu_b=1 - 1 / 16)
    assert rep["abs_err"] <= 1e-9
    assert rep["route_gap"] <= 1e-7
    assert rep["tail_bound"] <= 1e-7


def test_key_identity_half_line_green_route():
    for (x, xb) in [(0, 0), (1, 1), (4, 4)]:
        rep = key_identity("half_line", x, xb, mu_a=0.5, t_cut=2e3)
        assert rep["value"] == 1.0
    for (x, xb) in [(0, 1), (1, 3)]:
        rep = key_identity("half_line", x, xb, mu_a=0.5, t_cut=2e3)
        assert rep["value"] == 0.0


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("mu_a, mu_b", [(1.0, 1.0), (1 - 1 / 32, 1 - 1 / 32), (0.9, 0.7)])
def test_grad_products_match_dense_expm(n, mu_a, mu_b):
    # reference: Pade exponential of the Robin Laplacian at each time
    spec = solve_interval_spectrum(n, mu_a, mu_b)
    L = robin_laplacian_matrix(n, mu_a, mu_b)
    for t in (0.0, 0.5, 30.0, 1024.0):
        M = expm(-t * L)
        ref = np.abs((M[2:, :] - M[1:-1, :]) * (M[1:-1, :] - M[:-2, :]))
        assert np.max(np.abs(_interval_grad_products(spec, t) - ref)) <= 1e-12


def test_cstar_interval_below_one():
    res = c_star_estimate(16, 1 - 1 / 16, 1 - 1 / 16, 1.0, 1 / 16)
    assert res["max"] < 1.0
    assert np.all(res["per_x"] >= 0.0)


def test_cstar_neumann_matches_full_line_far_from_wall():
    # full-line translation-invariant oracle over the same horizon
    horizon = 256.0

    def full_line(t):
        r = _support_radius(max(t, 1e-9)) + 4
        pv = free_walk_row(t, r + 2)
        p = np.concatenate([pv[::-1], pv[1:]])  # p_t on [-r-2, r+2]
        g_plus = p[1:] - p[:-1]
        return float(np.sum(np.abs(g_plus[1:] * g_plus[:-1])))

    oracle = adaptive_quad(full_line, 0.0, 1.0, tol=1e-9)
    for a, b in dyadic_panels(1.0, horizon):
        oracle += adaptive_quad(full_line, a, b, tol=1e-9)
    res = c_star_estimate(64, 1.0, 1.0, horizon / 64 ** 2, 1 / 64)
    mid = res["per_x"][len(res["per_x"]) // 2]
    assert res["max"] < 1.0
    assert abs(mid - oracle) <= 0.02


def test_cstar_weighted_linear_in_eps():
    vals = {}
    for inv in (16, 32, 64):
        w = c_star_weighted(inv, 1 - 1 / inv, 1 - 1 / inv, 0.5, 1 / inv)
        vals[inv] = w["max"] * inv
    spread = max(vals.values()) / min(vals.values())
    assert spread < 2.0


def test_summation_by_parts():
    worst = summation_by_parts_audit(24, n_trials=100, seed=12)
    assert worst["sum_by_parts0"] <= 1e-12
    assert worst["sum_by_parts1"] <= 1e-12
    assert worst["sum_by_parts2"] <= 1e-12


def test_summation_by_parts_constants():
    # u = v = const: both sides of the first identity vanish
    n = 10
    u = np.ones(n + 3)
    lap = u[:-2] - 2 * u[1:-1] + u[2:]
    lhs = float(u[1:-1] @ lap)
    rhs = (u[-1] * (u[-1] - u[-2]) + u[0] * (u[0] - u[1])
           - float(np.diff(u) @ np.diff(u)))
    assert lhs == 0.0 and rhs == 0.0
