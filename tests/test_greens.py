import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from asepkpz import greens
from asepkpz.greens import (c_closed_form, c_star_estimate, f_matrix, f_matrix_quadrature,
                            green_corner_closed_form, green_matrix, key_identity,
                            summation_by_parts_audit)
from asepkpz.kernels import (free_walk_row, robin_laplacian_matrix,
                             solve_interval_spectrum, _support_radius)

import oracles
from conftest import openblas_thread_setter
from oracles import (c_star_weighted, grad_product_integrand, halfline_green,
                     halfline_green_limit, halfline_key_identity, interval_grad_products)
from quadrature import _NODES, adaptive_quad, integrate_decaying


def test_green_n1_corner():
    g = green_matrix(1, 0.0, 0.0)
    assert abs(g[0, 0] - 4.0 / 3.0) <= 1e-14
    assert abs(green_corner_closed_form(1, 0.0, 0.0) - 4.0 / 3.0) <= 1e-14


def test_green_symmetry_and_residual():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(4, 64))
        mu_a = float(rng.uniform(0.1, 0.999))
        mu_b = float(rng.uniform(0.1, 0.999))
        g = green_matrix(n, mu_a, mu_b)
        assert np.max(np.abs(g - g.T)) <= 1e-12 * np.max(np.abs(g))
        L = robin_laplacian_matrix(n, mu_a, mu_b)
        assert np.max(np.abs(L @ g - np.eye(n + 1))) <= 1e-10


def test_green_closed_form_vs_dense():
    # every entry of the closed form against a dense LAPACK solve of the Robin
    # Laplacian, Robin at both walls and Neumann at one; the corner formula
    # is the closed form's corner
    rng = np.random.default_rng(8)
    cases = [(n, float(rng.uniform(0.0, 0.999)), float(rng.uniform(0.0, 0.999)))
             for n in (1, 8, 64, 200) for _ in range(5)]
    cases += [(12, 1.0, 0.8), (200, 0.9, 1.0), (64, 1.0, 0.0), (1, 1.0, 0.5),
              (200, 1 - 1 / 200, 1.0)]
    for n, mu_a, mu_b in cases:
        g = green_matrix(n, mu_a, mu_b)
        dense = np.linalg.solve(robin_laplacian_matrix(n, mu_a, mu_b), np.eye(n + 1))
        assert np.max(np.abs(g - dense)) <= 1e-11 * np.max(np.abs(g))
        assert abs(g[0, 0] - green_corner_closed_form(n, mu_a, mu_b)) <= 1e-12 * g[0, 0]


@pytest.mark.parametrize("n", [100, 200, 400, 800])
def test_green_corner_vs_mpmath(n):
    # at mu = 1 - 1/N the corner's denominator written in mu,
    # N+2 - (N+1)(mu_A+mu_B) + N mu_A mu_B, cancels (6.8e-11 off at N = 100);
    # written in a = 1 - mu the corner and c are within a few ulps
    mu = 1 - 1 / n
    a = 1 - mpmath.mpf(mu)   # exact: mu is the double the code sees
    exact = 2 * (1 + a * n) / (2 * a + a * a * n)
    got = green_corner_closed_form(n, mu, mu)
    assert abs(got - float(exact)) <= 4 * np.spacing(got)
    c = c_closed_form(n, mu, mu)
    assert abs(c - float(a * a / (2 * a + a * a * n))) <= 4 * np.spacing(c)


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
    F = f_matrix(spec)
    d = np.diag(F)
    assert np.max(np.abs(d - d[0])) <= 1e-9
    off = F[~np.eye(n, dtype=bool)]
    assert np.max(np.abs(off - off[0])) <= 1e-9
    assert abs(d[0] - off[0] - 1.0) <= 1e-9
    # F(0,0) at eps = 1/N, A = B = 1: (A+B+AB-AB eps)/(A+B+AB)
    assert abs(d[0] - (3 - 0.01) / 3) <= 1e-9
    assert key_identity(spec)["green_route_gap"] <= 1e-9
    assert abs(-F[0, 1] - 1 / 300) <= 1e-9
    assert abs(c_closed_form(n, mu, mu) - 1 / 300) <= 1e-12


def test_f_matrix_gradient_structure():
    # grad+_x F(x, y) = 1{x+1=y} - 1{x=y}
    spec = solve_interval_spectrum(40, 1 - 1 / 40, 1 - 0.5 / 40)
    F = f_matrix(spec)
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
    quad = f_matrix_quadrature(spec)
    assert quad["F"].shape == (n, n)
    assert np.max(np.abs(quad["F"] - f_matrix(spec))) <= 1e-10
    assert quad["tail_bound"] <= 1e-9


def full_block_f_matrix(spec, t_cut: float) -> np.ndarray:
    """F by scipy's scaling and squaring of the whole 2(N+1) Van Loan block at t_cut."""
    n, m = spec.n, spec.n + 1
    block = np.zeros((2 * m, 2 * m))
    block[:m, :m] = -2.0 * t_cut * robin_laplacian_matrix(n, spec.mu_a, spec.mu_b)
    block[:m, m:] = t_cut * np.eye(m)
    return np.diff(np.diff(expm(block)[:m, m:], axis=0), axis=1)


@pytest.mark.parametrize("n, mu_a, mu_b", [(12, 1 - 1 / 12, 1 - 1 / 12), (32, 0.5, 0.9),
                                          (100, 0.99, 0.99)])
def test_f_matrix_quadrature_doublings_match_full_block(n, mu_a, mu_b):
    # E and I at t_cut / 2^s (Pade and Taylor) and their s doublings on
    # (N+1)-sized blocks against the full-block exponential at t_cut; one
    # doubling too few is off by 7e-11 or more at these sizes, dropping E I
    # by far more
    spec = solve_interval_spectrum(n, mu_a, mu_b)
    quad = f_matrix_quadrature(spec)
    assert np.max(np.abs(quad["F"] - full_block_f_matrix(spec, quad["t_cut"]))) <= 1e-12


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
        F = f_matrix(spec)
        c_spec = 1.0 - float(F[0, 0])
        c_form = c_closed_form(n, mu, mu)
        assert abs(c_spec - c_form) <= 1e-9
        assert abs(-float(F[0, 1]) - c_form) <= 1e-9
        assert 0.0 <= c_form
        ratios.append(c_form * n)
    assert max(ratios) / min(ratios) <= 1.5


def test_key_identity_interval_neumann_side():
    # c = 0 whenever one side is Neumann
    rep = key_identity(solve_interval_spectrum(12, 1.0, 0.8))
    assert rep["c"] == 0.0
    assert abs(rep["F"][3, 3] - 1.0) <= 1e-9
    assert abs(rep["F"][3, 7]) <= 1e-9
    assert rep["abs_err_max"] <= 1e-9 and rep["route_gap_max"] <= 1e-7


def test_key_identity_neumann_neumann_runs_no_route():
    # F is undefined at lambda_0 = 0: the limit value I is reported and the
    # record says that no route ran
    rep = key_identity(solve_interval_spectrum(12, 1.0, 1.0))
    assert rep["routes"] == [] and rep["green"] is None and rep["c"] == 0.0
    assert np.array_equal(rep["F"], np.eye(12))
    assert rep["abs_err_max"] == rep["route_gap_max"] == rep["tail_bound"] == 0.0


def test_key_identity_small_interval_routes():
    rep = key_identity(solve_interval_spectrum(16, 1 - 1 / 16, 1 - 1 / 16))
    assert rep["abs_err_max"] <= 1e-9
    assert rep["route_gap_max"] <= 1e-7
    assert rep["tail_bound"] <= 1e-7


@pytest.mark.parametrize("n, mu_a, mu_b", [(100, 1 - 1 / 100, 1 - 2 / 100),
                                          (200, 1 - 1 / 200, 1 - 1 / 200),
                                          (32, 1 - 0.5 / 32, 1 - 3 / 32),
                                          (12, 1.0, 1 - 1 / 12)])
def test_key_identity_all_pairs(n, mu_a, mu_b):
    # F = I - c 11^T on every pair, by the spectral, Green and expm routes
    spec = solve_interval_spectrum(n, mu_a, mu_b)
    rep = key_identity(spec)
    assert rep["routes"] == ["spectral", "green", "expm"]
    assert rep["abs_err_max"] <= 1e-9
    assert rep["route_gap_max"] <= 1e-7
    assert rep["green_route_gap"] <= 1e-9
    assert rep["tail_bound"] <= 1e-9
    assert rep["c"] == c_closed_form(n, mu_a, mu_b)
    assert np.array_equal(rep["F"], f_matrix(spec))
    assert np.array_equal(rep["green"], green_matrix(n, mu_a, mu_b))


def test_key_identity_half_line_green_route():
    # second differences of G = 2/(1-mu) + 2 min(x, y) give the identity exactly;
    # the spectral integral over the half-line eigenfunctions agrees
    for (x, xb) in [(0, 0), (1, 1), (4, 4), (0, 1), (1, 3)]:
        rep = halfline_key_identity(x, xb, 0.5)
        assert rep["value"] == rep["expected"] and rep["route_gap"] <= 1e-12


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("mu_a, mu_b", [(1.0, 1.0), (1 - 1 / 32, 1 - 1 / 32), (0.9, 0.7)])
def test_grad_products_match_dense_expm(n, mu_a, mu_b):
    # reference: Pade exponential of the Robin Laplacian at each time; the
    # integrand takes all four times as one node vector
    spec = solve_interval_spectrum(n, mu_a, mu_b)
    L = robin_laplacian_matrix(n, mu_a, mu_b)
    ts = np.array([0.0, 0.5, 30.0, 1024.0])
    ref = []
    for t in ts:
        M = expm(-t * L)
        ref.append(np.abs((M[2:, :] - M[1:-1, :]) * (M[1:-1, :] - M[:-2, :]))[:, 1:n].sum(axis=1))
    assert np.max(np.abs(grad_product_integrand(spec)(ts) - np.array(ref))) <= 1e-12


@pytest.mark.parametrize("n", [12, 32])
def test_grad_product_integrand_layouts_agree(n):
    # the one-gemm table layout matches the pointwise products summed over y = 1..N-1
    spec = solve_interval_spectrum(n, 0.9, 0.7)
    ts = 0.5 * _NODES + 3.0
    table = grad_product_integrand(spec)(ts)
    oracle = np.array([interval_grad_products(spec, t)[:, 1:n].sum(axis=1) for t in ts])
    assert table.shape == (len(ts), n - 1)
    assert np.max(np.abs(table - oracle)) <= 1e-14


def test_grad_product_integrand_flush_keeps_values(monkeypatch):
    # at N = 32 and t near 1000 some decay factors e^{-t lam_k} are subnormal;
    # setting them to 0 leaves every sum bit-identical (a threshold of 0 flushes nothing)
    spec = solve_interval_spectrum(32, 1 - 1 / 32, 1 - 1 / 32)
    ts = 60.0 * _NODES + 960.0
    decay = np.exp(-np.outer(ts, spec.lambdas))
    assert np.any((decay > 0) & (decay < np.finfo(float).tiny))
    flushed = grad_product_integrand(spec)(ts)
    monkeypatch.setattr(oracles, "_TINY", 0.0)
    assert np.array_equal(flushed, grad_product_integrand(spec)(ts))


def test_adaptive_quad_vector_rates_one_call_per_panel():
    # int_0^T e^{-a t} dt = (1 - e^{-a T}) / a for a vector of rates; each call
    # gets the 31 nodes of one panel, and no panel is evaluated twice
    rates = np.array([0.01, 0.3, 1.0, 7.0, 40.0])
    T = 5.0
    panels = []

    def f(ts):
        h = (ts[-1] - ts[0]) / (_NODES[-1] - _NODES[0])
        mid = ts[0] - h * _NODES[0]
        assert ts.shape == (31,) and np.allclose(ts, mid + h * _NODES, rtol=0, atol=1e-14)
        panels.append((round(mid - h, 12), round(mid + h, 12)))
        return np.exp(-np.outer(ts, rates))

    total = adaptive_quad(f, 0.0, T, tol=1e-12)
    assert np.max(np.abs(total - (1.0 - np.exp(-rates * T)) / rates)) <= 1e-12
    assert panels[0] == (0.0, T) and len(panels) > 1
    assert len(set(panels)) == len(panels)
    # every split panel's halves were evaluated: the leaves tile [0, T]
    split = {p for p in panels if (p[0], round(0.5 * (p[0] + p[1]), 12)) in set(panels)}
    leaves = sorted(set(panels) - split)
    assert leaves[0][0] == 0.0 and leaves[-1][1] == T
    assert all(a[1] == b[0] for a, b in zip(leaves, leaves[1:]))


def test_integrate_decaying_scalar_integrand():
    # a scalar integrand returns one value per node
    total = integrate_decaying(lambda ts: 1.0 / (1.0 + ts) ** 2, 100.0, tol=1e-12)
    assert abs(total - 100.0 / 101.0) <= 1e-12


def test_cstar_interval_below_one():
    res = c_star_estimate(16, 1 - 1 / 16, 1 - 1 / 16, 1.0, 1 / 16)
    assert res["max"] < 1.0
    assert np.all(res["per_x"] >= 0.0)


# c_star_estimate per_x from the adaptive quadrature at tol 1e-8 (whose own
# error is 1-2e-9), keyed by (N, A, B, t_bar) with mu = 1 - A/N, 1 - B/N and eps = 1/N
_CSTAR_PINS = {
    (16, 0.0, 0.0, 1.0): [
        0.47654666358428666, 0.6332302762811386, 0.6768965184515872, 0.6950865657220832,
        0.7040754689791482, 0.7087972844516829, 0.7111363232552023, 0.7118608067941042,
        0.7111363232552023, 0.7087972844516831, 0.7040754689791491, 0.6950865657220826,
        0.6768965184515873, 0.6332302762811388, 0.47654666358428616
    ],
    (32, 1.0, 1.0, 1.0): [
        0.48129838300690214, 0.6315671739135399, 0.6729163763844347, 0.6901637746494529,
        0.6989647889784689, 0.704037103192543, 0.7072132805239728, 0.7093240202999888,
        0.7107877148036947, 0.7118316624532821, 0.7125876961661236, 0.713135552223772,
        0.7135235102500798, 0.713783242305153, 0.7139327173578625, 0.7139830149112419,
        0.7139327173578601, 0.7137832423051491, 0.713523510250076, 0.7131355522237709,
        0.7125876961661238, 0.7118316624532831, 0.7107877148036966, 0.7093240202999909,
        0.7072132805239763, 0.704037103192545, 0.6989647889784694, 0.690163774649453,
        0.6729163763844317, 0.6315671739135394, 0.4812983830069034
    ],
    (32, 0.5, 2.0, 1.0): [
        0.4763255876487208, 0.629922457745663, 0.6726006348965972, 0.690559754604466,
        0.6997738430362144, 0.7050884693215852, 0.7084005650715274, 0.7105772106959936,
        0.7120549861395801, 0.7130794992195976, 0.7137919068453696, 0.7142784936679649,
        0.7145941265194404, 0.7147742803838537, 0.7148418729480936, 0.7148110179318509,
        0.7146880699761307, 0.7144727650619435, 0.7141620363840563, 0.7137431260673291,
        0.7131901698400611, 0.7124626058441436, 0.7114933837422123, 0.710167419192671,
        0.7082808633387575, 0.7054536442277155, 0.7009198982912909, 0.6929650916663023,
        0.6771155084105362, 0.6383416715108066, 0.49462241422289904
    ],
    (12, 1.0, 1.0, 0.5): [
        0.47877020310082397, 0.6207192647300163, 0.6594438785582689, 0.6750062117781837,
        0.681816184488845, 0.6838326943707953, 0.6818161844888443, 0.6750062117781832,
        0.6594438785582678, 0.6207192647300166, 0.47877020310082397
    ],
}


_CSTAR_IDS = ["n{}-A{}-B{}-tbar{}".format(*k) for k in _CSTAR_PINS]


@pytest.mark.parametrize("key", list(_CSTAR_PINS), ids=_CSTAR_IDS)
def test_cstar_pinned_per_x(key):
    n, A, B, t_bar = key
    res = c_star_estimate(n, 1 - A / n, 1 - B / n, t_bar, 1 / n)
    assert np.max(np.abs(res["per_x"] - np.array(_CSTAR_PINS[key]))) <= 1e-8


@pytest.mark.parametrize("key", list(_CSTAR_PINS), ids=_CSTAR_IDS)
def test_cstar_matches_adaptive_oracle(key):
    # the closed form against the adaptive Gauss-Legendre quadrature of the
    # |grad+ p grad- p| sums at tol 1e-12; (16, 0, 0) is Neumann (lambda_0 = 0)
    n, A, B, t_bar = key
    spec = solve_interval_spectrum(n, 1 - A / n, 1 - B / n)
    oracle = integrate_decaying(grad_product_integrand(spec), t_bar * n * n, tol=1e-12)
    res = c_star_estimate(n, 1 - A / n, 1 - B / n, t_bar, 1 / n)
    assert np.max(np.abs(res["per_x"] - oracle)) <= 1e-10
    assert res["max"] == np.max(res["per_x"]) and 0.0 <= res["tail_bound"] <= 1e-15


@pytest.mark.parametrize("n", [32, 64])
def test_cstar_refined_scan_finds_same_roots(n):
    # four times the scan points, from 1e-4 instead of 1e-2, find the same sign
    # changes of the same functions; the roots themselves move by the secant's error
    spec = solve_interval_spectrum(n, 1 - 1 / n, 1 - 1 / n)
    _, f, roots, tails = greens._sign_changes(spec, np.geomspace(1e-2, n * n, 4 * (n + 1)))
    _, f_fine, roots_fine, _ = greens._sign_changes(spec, np.geomspace(1e-4, n * n, 16 * (n + 1)))
    assert np.array_equal(f, f_fine)
    assert np.max(np.abs(roots / roots_fine - 1)) <= 1e-7
    assert len(f) == c_star_estimate(n, 1 - 1 / n, 1 - 1 / n, 1.0, 1 / n)["roots"]
    assert tails.shape == (n - 1,) and np.all(tails >= 0)


def test_cstar_per_x_same_at_one_and_two_blas_threads():
    # every reduction order of the closed form is fixed: numpy's OpenBLAS at one
    # and at two threads gives the same bits (set at run time)
    setter, before = openblas_thread_setter()
    runs = []
    try:
        for threads in (1, 2):
            setter(threads)
            runs.append([c_star_estimate(n, 1 - 1 / n, 1 - 1 / n, 1.0, 1 / n) for n in (32, 64)])
    finally:
        setter(before)
    for one, two in zip(*runs):
        assert np.array_equal(one["per_x"], two["per_x"]) and one["roots"] == two["roots"]


def test_cstar_neumann_matches_full_line_far_from_wall():
    # full-line translation-invariant oracle over the same horizon
    horizon = 256.0

    def full_line_at(t):
        r = _support_radius(max(t, 1e-9)) + 4
        pv = free_walk_row(t, r + 2)
        p = np.concatenate([pv[::-1], pv[1:]])  # p_t on [-r-2, r+2]
        g_plus = p[1:] - p[:-1]
        return float(np.sum(np.abs(g_plus[1:] * g_plus[:-1])))

    def full_line(ts):
        return np.array([full_line_at(t) for t in ts])

    oracle = integrate_decaying(full_line, horizon, tol=1e-9)
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


_MASK64 = (1 << 64) - 1


def splitmix64(seed: int):
    """SplitMix64 (Steele, Lea and Flood 2014) on Python integers, one output at a time."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def test_hashed_uniform_is_splitmix64():
    # the published first outputs of seed 1234567, and the uint64 array hash
    # against the integer loop, huge and negative seeds reduced mod 2^64
    stream = splitmix64(1234567)
    assert [next(stream) for _ in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]
    for seed in (0, 7, 1234567, 2 ** 64 - 1, 2 ** 70 + 5, -3):
        stream = splitmix64(seed)
        expect = [(next(stream) >> 11) / 2 ** 52 - 1 for _ in range(15)]
        got = greens._hashed_uniform(seed, (3, 5))
        assert np.array_equal(got, np.reshape(expect, (3, 5)))
        assert got.min() >= -1.0 and got.max() < 1.0


def summation_by_parts_per_trial(n: int, n_trials: int = 100, seed: int = 0,
                                 boundary_sign: float = 1.0, draws: list | None = None) -> dict:
    """The audit one trial at a time, reading the SplitMix64 stream of `seed`
    (appended to `draws`); boundary_sign -1 plants a sign flip of the u(N+1)
    boundary term of the first identity."""
    stream = splitmix64(seed)
    draws = [] if draws is None else draws

    def take(size):
        x = np.array([(next(stream) >> 11) / 2 ** 52 - 1 for _ in range(size)])
        draws.append(x)
        return x

    worst = {"sum_by_parts0": 0.0, "sum_by_parts1": 0.0, "sum_by_parts2": 0.0}
    for _ in range(n_trials):
        u = take(n + 3)   # indices -1..N+1 -> 0..n+2
        v = take(n + 3)
        lap_v = v[:-2] - 2.0 * v[1:-1] + v[2:]       # Delta v at 0..N
        lap_u = u[:-2] - 2.0 * u[1:-1] + u[2:]
        lhs = float(u[1:-1] @ lap_v)
        rhs0 = (boundary_sign * u[-1] * (v[-1] - v[-2]) + u[0] * (v[0] - v[1])
                - float(np.diff(u) @ np.diff(v)))
        worst["sum_by_parts0"] = max(worst["sum_by_parts0"], abs(lhs - rhs0))
        rhs1 = (float(v[1:-1] @ lap_u)
                + u[-1] * (v[-1] - v[-2]) + u[0] * (v[0] - v[1])
                - v[-1] * (u[-1] - u[-2]) - v[0] * (u[0] - u[1]))
        worst["sum_by_parts1"] = max(worst["sum_by_parts1"], abs(lhs - rhs1))
        # half line: compact support well inside a window of length m
        m = 4 * n
        uu = np.zeros(m + 2)
        vv = np.zeros(m + 2)
        uu[:n + 2] = take(n + 2)   # positions -1..n random, zero beyond
        vv[:n + 2] = take(n + 2)
        lap_vv = vv[:-2] - 2.0 * vv[1:-1] + vv[2:]
        lap_uu = uu[:-2] - 2.0 * uu[1:-1] + uu[2:]
        lhs2 = float(uu[1:-1] @ lap_vv)
        rhs2 = (float(vv[1:-1] @ lap_uu)
                + uu[0] * (vv[0] - vv[1]) - vv[0] * (uu[0] - uu[1]))
        worst["sum_by_parts2"] = max(worst["sum_by_parts2"], abs(lhs2 - rhs2))
    return worst


def test_summation_by_parts(monkeypatch):
    # the one-draw audit reads the per-trial loop's values in the same order,
    # and its residuals agree with the loop's; (32, 7) is the audit-all call
    hashed = greens._hashed_uniform

    def recording(*args):
        audit_draws.append(hashed(*args))
        return audit_draws[-1]

    for n, seed in ((24, 12), (32, 7)):
        audit_draws, loop_draws = [], []
        monkeypatch.setattr(greens, "_hashed_uniform", recording)
        worst = summation_by_parts_audit(n, n_trials=100, seed=seed)
        monkeypatch.undo()
        loop = summation_by_parts_per_trial(n, n_trials=100, seed=seed, draws=loop_draws)
        assert len(audit_draws) == 1 and len(loop_draws) == 400
        assert np.array_equal(audit_draws[0].ravel(), np.concatenate(loop_draws))
        for key in ("sum_by_parts0", "sum_by_parts1", "sum_by_parts2"):
            assert worst[key] <= 1e-12 and abs(worst[key] - loop[key]) <= 1e-12
        # a sign flip of one boundary term is reported far above the gate
        flipped = summation_by_parts_per_trial(n, n_trials=100, seed=seed, boundary_sign=-1.0)
        assert flipped["sum_by_parts0"] > 1e-12


def test_summation_by_parts_constants():
    # u = v = const: both sides of the first identity vanish
    n = 10
    u = np.ones(n + 3)
    lap = u[:-2] - 2 * u[1:-1] + u[2:]
    lhs = float(u[1:-1] @ lap)
    rhs = (u[-1] * (u[-1] - u[-2]) + u[0] * (u[0] - u[1])
           - float(np.diff(u) @ np.diff(u)))
    assert lhs == 0.0 and rhs == 0.0
