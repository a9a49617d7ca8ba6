import hashlib
import json
import math

import mpmath
import numpy as np
import pytest
from scipy.special import erfcx, ive

from asepkpz import kernels
from asepkpz.kernels import (build_image_expansion, free_walk_row, free_walk_tail_bound,
                             halfline_robin_row, interval_kernel_image,
                             interval_kernel_spectral, kernel_bound_audit, robin_laplacian_matrix,
                             solve_interval_spectrum, _support_radius)

import kernels_reference
from oracles import halfline_s, halfline_spectral_mean, interval_omegas_bisected


# ---------------------------------------------------------------------------
# test oracles: independent evaluations that only these tests read

def free_walk_series(t: float, x: int, n_terms: int = 200) -> float:
    """Poisson mixture of binomial discrete-time walk steps (series oracle)."""
    x = abs(int(x))
    total = 0.0
    log_fact = 0.0
    for n in range(n_terms + 1):
        if n > 0:
            log_fact += math.log(n)
        if n >= x and (n - x) % 2 == 0:
            pn = math.comb(n, (n + x) // 2) / 2.0 ** n
            total += math.exp(n * math.log(t) - t - log_fact) * pn if t > 0 else (1.0 if n == 0 else 0.0)
    if t == 0:
        return 1.0 if x == 0 else 0.0
    return total


def halfline_robin_kernel(t: float, x: int, y: int, mu_a: float) -> float:
    """Robin heat kernel on Z_{>=0} by the image series, one Bessel term at a time,
    until a term drops below 1e-16 times the partial sum."""
    if not 0.0 < mu_a <= 1.0:
        raise ValueError("mu_a must be in (0, 1]")
    val = float(ive(abs(x - y), t)) + mu_a * float(ive(abs(x + y + 1), t))
    if mu_a == 1.0:
        return val
    s = 0.0
    w = 0
    coeff = 1.0
    base = x + y + 2
    cap = _support_radius(t) + base + 8
    while True:
        term = coeff * float(ive(base + w, t))
        s += term
        coeff *= mu_a
        w += 1
        if (term <= 1e-16 * max(s, 1e-300) and w > 4) or base + w > cap:
            break
    return val + (mu_a * mu_a - 1.0) * s


def eigvec_at(spec, k: int, x) -> float:
    """psi_k at any (possibly ghost) integer x: psi_k(0) (cos wx + c sin wx), c = (cos w - mu_A)/sin w."""
    om = spec.omegas[k]
    c = (math.cos(om) - spec.mu_a) / math.sin(om)
    return spec.eigvecs[0, k] * (math.cos(om * x) + c * math.sin(om * x))


def x_star(exp_, x: int) -> int:
    nb = exp_.n + 1
    k = x // nb
    return x - k * nb if k % 2 == 0 else (k + 1) * nb - x - 1


def iota(exp_, y_star: int, k: int) -> int:
    nb = exp_.n + 1
    return y_star + k * nb if k % 2 == 0 else (k + 1) * nb - y_star - 1


def image_coeff(exp_, k: int) -> float:
    """I_k: products of mu's accumulated one reflection per block."""
    m = abs(k)
    if k <= 0:
        return exp_.mu_a ** ((m + 1) // 2) * exp_.mu_b ** (m // 2)
    return exp_.mu_b ** ((m + 1) // 2) * exp_.mu_a ** (m // 2)


def correction(exp_, k: int) -> np.ndarray:
    """E_k(x, y) for x in block k: (phi - I_k delta at iota(y; k)) / eps with eps = 1/N."""
    nb = exp_.n + 1
    block = exp_.phi[exp_.offset + k * nb: exp_.offset + (k + 1) * nb].copy()
    for ys in range(nb):
        block[iota(exp_, ys, k) - k * nb, ys] -= image_coeff(exp_, k)
    return block * exp_.n


def correction_bound_base(exp_) -> float:
    """Fitted C0 with max_k |E_k|_inf <= C0^|k|."""
    c0 = 1.0
    for k in range(1, exp_.depth + 1):
        for kk in (k, -k):
            m = float(np.max(np.abs(correction(exp_, kk))))
            if m > 1.0:
                c0 = max(c0, m ** (1.0 / k))
    return c0


def continuous_halfline_kernel(T: float, X, Y, A: float):
    """Robin kernel on R_+: P_T(X-Y) + P_T(X+Y) - 2A int_{-infty}^0 P_T(X+Y-Z) e^{AZ} dZ.

    The integral has the stable closed form
    -A e^{-(X+Y)^2/(2T)} erfcx((X+Y+AT)/sqrt(2T)).
    """
    if T <= 0:
        raise ValueError("T must be > 0")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    c = 1.0 / math.sqrt(2.0 * math.pi * T)
    heat = lambda u: c * np.exp(-u * u / (2.0 * T))
    w = X + Y
    out = heat(X - Y) + heat(w)
    if A != 0.0:
        out = out - A * np.exp(-w * w / (2.0 * T)) * erfcx((w + A * T) / math.sqrt(2.0 * T))
    return out if out.shape else float(out)


def continuous_halfline_kernel_quad(T: float, X: float, Y: float, A: float) -> float:
    """Adaptive-quadrature evaluation of the boundary integral (cross-check)."""
    from scipy.integrate import quad
    c = 1.0 / math.sqrt(2.0 * math.pi * T)
    heat = lambda u: c * math.exp(-u * u / (2.0 * T))
    base = heat(X - Y) + heat(X + Y)
    if A == 0.0:
        return base
    val, _ = quad(lambda z: heat(X + Y - z) * math.exp(A * z), -np.inf, 0.0,
                  epsabs=1e-14, epsrel=1e-12)
    return base - 2.0 * A * val


# ---------------------------------------------------------------------------
# free walk

def test_free_walk_delta_at_zero_time():
    assert free_walk_row(0.0, 3).tolist() == [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):  # no kernel before time 0
        free_walk_row(-1.0, 3)


@pytest.mark.parametrize("t", [1.0, 10.0, 1000.0])
def test_free_walk_symmetry_and_mass(t):
    p = free_walk_row(t, _support_radius(t))
    assert abs(p[0] + 2.0 * p[1:].sum() - 1.0) <= 1e-12  # p_t(-x) = p_t(x)


@pytest.mark.parametrize("t", [0.05, 1.0, 4.0, 10.0, 112.0, 400.0, 1024.0])
def test_free_walk_row_matches_mpmath(t):
    # e^{-t} I_n(t) at 40 digits: every entry above 1e-300 within 5e-14 relative,
    # and within 2e-15 where it is at least 1e-3 of the row maximum
    n_max = 3 * _support_radius(t) + 40
    with mpmath.workdps(40):
        scale = mpmath.exp(-mpmath.mpf(t))
        exact = np.array([float(scale * mpmath.besseli(n, t)) for n in range(n_max + 1)])
    row = free_walk_row(t, n_max)
    big = exact >= 1e-300
    rel = np.abs(row[big] - exact[big]) / exact[big]
    assert np.max(rel) <= 5e-14
    assert np.max(rel[exact[big] >= 1e-3 * exact.max()]) <= 2e-15


def test_free_walk_series_oracle():
    # Poisson-mixture series with n <= 200 terms against the Bessel form
    for x in (0, 1, 3, 7):
        series = free_walk_series(4.0, x, n_terms=200)
        assert abs(series - free_walk_row(4.0, x)[x]) <= 1e-12


def test_free_walk_series_across_crossover():
    for t in (0.5, 5.0, 40.0):
        series = free_walk_series(t, 2, n_terms=400)
        assert abs(series - free_walk_row(t, 2)[2]) <= 1e-11


def test_tail_bound_dominates():
    t = 25.0
    for r in (10, 30, 60):
        mass = float(free_walk_row(t, 10 * r)[r:].sum()) * 2
        assert mass <= free_walk_tail_bound(t, r) + 1e-300


def _audit_times(m_coarse: int, eps: float, t_bar: float = 1.0) -> list:
    """The distinct times of kernel_bound_audit's m- and 2m-point grids."""
    t_max = t_bar / (eps * eps)
    return sorted({float(t) for m in (m_coarse, 2 * m_coarse)
                   for t in np.exp(np.linspace(math.log(0.05), math.log(t_max), m))})


def test_free_walk_row_matches_scalar_recurrence():
    # the ratio recurrence over an array of 2n/t gives the scalar loop's bits
    # at the audit's 13 half-line times (the 5- and 10-point grids share both ends)
    times = _audit_times(5, 1 / 32)
    assert len(times) == 13
    for t in times + [0.0, 1e-3, 3.0]:
        n_max = 3 * _support_radius(t) + 40
        assert free_walk_row(t, n_max).tobytes() == (
            kernels_reference.free_walk_row(t, n_max).tobytes()), t


# ---------------------------------------------------------------------------
# half line

def test_halfline_neumann_reduction():
    t, x, y = 3.0, 2, 5
    v = halfline_robin_row(t, x, 1.0, y)[y]
    pv = free_walk_row(t, x + y + 1)
    assert abs(v - (pv[abs(x - y)] + pv[x + y + 1])) <= 1e-15


@pytest.mark.parametrize("t", [0.5, 5.0, 50.0])
def test_halfline_ghost_relation(t):
    mu = 1.0 - 1.0 / 32
    lhs = halfline_robin_row(t, -1, mu, 30)[::5]
    rhs = mu * halfline_robin_row(t, 0, mu, 30)[::5]
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_halfline_chapman_kolmogorov():
    mu = 0.9
    s, t = 0.7, 1.3
    for (x, y) in [(0, 0), (2, 5), (7, 1)]:
        zmax = 80
        rows = halfline_robin_row(s, x, mu, zmax)
        conv = sum(rows[z] * halfline_robin_row(t, z, mu, y)[y] for z in range(zmax + 1))
        assert abs(conv - halfline_robin_row(s + t, x, mu, y)[y]) <= 1e-10


def test_halfline_mass_bounded():
    mu = 0.8
    for t in (1.0, 10.0):
        row = halfline_robin_row(t, 3, mu, 3 + _support_radius(t))
        assert row.sum() <= 1.0 + 1e-12
        assert row.min() >= 0.0
    row = halfline_robin_row(10.0, 3, 1.0, 3 + _support_radius(10.0))
    assert abs(row.sum() - 1.0) <= 1e-12  # Neumann conserves mass


@pytest.mark.parametrize("mu", [1.0, 0.9, 1 - 1 / 32])
def test_halfline_rows_of_array_x_match_per_x_calls(mu):
    # one call with an array of x (one free-walk row, one geometric tail) gives
    # the bits of one call per x
    xs = np.array([-1, 0, 1, 2, 3, 4, 10, 11])
    for t in _audit_times(5, 1 / 32) + [0.3, 7.0]:
        y_max = _support_radius(t) + 19
        rows = halfline_robin_row(t, xs, mu, y_max)
        assert rows.shape == (len(xs), y_max + 1)
        for x, row in zip(xs.tolist(), rows):
            assert halfline_robin_row(t, x, mu, y_max).tobytes() == row.tobytes(), (t, x)
            # a shorter y range is the prefix of the longer one
            short = halfline_robin_row(t, x, mu, y_max - 11)
            assert short.tobytes() == row[:y_max - 10].tobytes(), (t, x)


def test_halfline_row_matches_scalar():
    mu = 0.95
    row = halfline_robin_row(4.0, 2, mu, 40)
    for y in (0, 1, 17, 40):
        assert abs(row[y] - halfline_robin_kernel(4.0, 2, y, mu)) <= 1e-14


@pytest.mark.parametrize("mu", [0.5, 0.9, 1 - 1 / 64])
def test_halfline_row_matches_spectral_measure(mu):
    # p_t(x, y) = int_0^pi psi_k(x) psi_k(y) e^{-t(1-cos k)} rho(k) dk, with rho the
    # spectral density (see oracles.halfline_s): no Bessel function involved
    y = np.arange(0, 41, 8)
    for t in (1.0, 10.0, 100.0):
        for x in (-1, 0, 3, 10):
            weight = lambda k: (halfline_s(x, k, mu) * halfline_s(y[:, None], k, mu)
                                * np.exp(-t * (1.0 - np.cos(k))))
            spectral = 2.0 * halfline_spectral_mean(mu, x + 42 + _support_radius(t), weight)
            assert np.max(np.abs(halfline_robin_row(t, x, mu, 40)[y] - spectral)) <= 1e-13


@pytest.mark.parametrize("A", [0.0, 1.0, 3.0])
def test_halfline_kernel_scaling_limit(A):
    # eps^{-1} p^R_{eps^-2 T}(X/eps, Y/eps) at mu = 1 - eps A tends to the continuous
    # Robin kernel at first order: each halving of eps cuts the worst gap over X 1.6-2.4x
    T, Y, X = 0.1, 0.25, np.array([0.0, 0.25, 0.5, 1.0])
    gaps = []
    for inv in (16, 32, 64, 128, 256):
        lattice = [inv * halfline_robin_row(T * inv * inv, round(x * inv), 1.0 - A / inv,
                                            round(Y * inv))[-1] for x in X]
        gaps.append(np.max(np.abs(np.array(lattice) - continuous_halfline_kernel(T, X, Y, A))))
    ratios = np.array(gaps[:-1]) / gaps[1:]
    assert np.all((ratios >= 1.6) & (ratios <= 2.4)), (gaps, ratios)


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


@pytest.mark.parametrize("n, mu_a, mu_b", [
    (100, 0.99, 0.99), (32, 31 / 32, 31 / 32), (32, 1 - 0.5 / 32, 1 - 2 / 32),
    (12, 0.9, 1.0), (200, 0.995, 0.99), (64, 0.0, 1.0)])
def test_spectrum_bisection_stops_at_fixed_point(n, mu_a, mu_b, monkeypatch):
    # the first sweep that moves no bracket end ends the bisection; all 90
    # sweeps give the same frequencies bit for bit
    reference = interval_omegas_bisected(n, mu_a, mu_b)
    sweeps = []
    secular = kernels._secular
    monkeypatch.setattr(kernels, "_secular", lambda *a: sweeps.append(1) or secular(*a))
    assert np.array_equal(solve_interval_spectrum(n, mu_a, mu_b).omegas, reference)
    assert len(sweeps) < 60


def test_spectrum_ghost_relation():
    spec = solve_interval_spectrum(12, 0.9, 0.7)
    for k in (0, 3, 12):
        psi_m1 = eigvec_at(spec, k, -1)
        assert abs(psi_m1 - 0.9 * spec.eigvecs[0, k]) <= 1e-12
        psi_np1 = eigvec_at(spec, k, 13)
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
    assert np.array_equal(k0, np.eye(n + 1))
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
        assert image_coeff(exp_, k) == 1.0
        assert np.max(np.abs(correction(exp_, k))) == 0.0


def test_image_coefficient_recursion():
    exp_ = build_image_expansion(8, 0.9, 0.7, depth=4)
    for m in range(0, 4):
        assert abs(image_coeff(exp_, -m - 1) - 0.9 * image_coeff(exp_, m)) <= 1e-15
        assert abs(image_coeff(exp_, m + 1) - 0.7 * image_coeff(exp_, -m)) <= 1e-15


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
    c0 = correction_bound_base(exp_)
    assert np.isfinite(c0)
    for k in range(1, 7):
        for kk in (k, -k):
            assert np.max(np.abs(correction(exp_, kk))) <= c0 ** abs(k) + 1e-9


@pytest.mark.parametrize("n, mu_a, mu_b, depth", [
    (8, 1.0, 1.0, 3), (32, 1.0, 1.0, 6), (16, 1 - 1 / 16, 1.0, 6), (16, 1.0, 0.8, 4),
    (32, 1 - 1 / 32, 1 - 0.5 / 32, 6), (12, 0.9, 0.7, 5)])
def test_image_expansion_matches_row_by_row_reference(n, mu_a, mu_b, depth):
    # each block set in one slice: at mu_A = mu_B = 1 the bits of the row-by-row
    # fill; below 1 the corrections come from running sums, not prefix products,
    # within 2.3e-16 of max |phi| (2.22e-16 measured, at most, in these cases)
    built = build_image_expansion(n, mu_a, mu_b, depth)
    ref = kernels_reference.build_image_expansion(n, mu_a, mu_b, depth)
    assert built.offset == ref.offset
    if mu_a == mu_b == 1.0:
        assert built.phi.tobytes() == ref.phi.tobytes()
    else:
        assert np.max(np.abs(built.phi - ref.phi)) <= 2.3e-16 * np.max(np.abs(ref.phi))
    if (n, mu_a, mu_b, depth) == (32, 1 - 1 / 32, 1 - 0.5 / 32, 6):
        # the reference keeps the bits of the prefix-product fill it replaced
        assert hashlib.sha256(ref.phi.tobytes()).hexdigest() == (
            "b2c33e10ea171059d38ce0d07a698661a9204bbea21c96e0169b783a5eeefd9b")


def test_image_depth_flag():
    with pytest.raises(ValueError):
        interval_kernel_image(build_image_expansion(8, 0.9, 0.9, depth=1), 1e4)


def test_reflection_map_and_iota():
    exp_ = build_image_expansion(4, 0.9, 0.8, depth=2)
    nb = 5
    for x in range(-2 * nb, 3 * nb):
        assert 0 <= x_star(exp_, x) <= nb - 1
    for k in range(-2, 3):
        for ys in range(nb):
            assert x_star(exp_, iota(exp_, ys, k)) == ys


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


@pytest.mark.parametrize("n, mu_a, mu_b, eps, t_bar", [
    (32, 1.0, 1.0, 1 / 32, 1.0),                      # audit-all's defaults
    (16, 1 - 1 / 16, 1.0, 1 / 16, 1.0),               # the pinned audit-all test's model
    (16, 1 - 1 / 16, 1.0, 1 / 16, 0.5),
    (32, 1 - 1 / 32, 1 - 0.5 / 32, 1 / 32, 1.0)])     # slope_a = 1, slope_b = 0.5
def test_bound_audit_matches_pointwise_reference(n, mu_a, mu_b, eps, t_bar):
    # one evaluation per distinct grid time, every variant of a bound from the
    # same kernels, gives the records of one ratio call per grid point
    spec = solve_interval_spectrum(n, mu_a, mu_b)
    got = [a.as_dict() for a in kernel_bound_audit(spec, eps, t_bar)]
    ref = [a.as_dict() for a in kernels_reference.kernel_bound_audit(spec, eps, t_bar)]
    assert json.dumps(got) == json.dumps(ref)
    assert [a["bound"] for a in got] == [
        "kernel-time-comparison", "kernel-time-holder", "kernel-gaussian-envelope",
        "kernel-gradient-envelope", "interval-mass-sum", "interval-gradient-sum",
        "halfline-weighted-mass-sum", "halfline-weighted-gradient-sum"]


def test_bound_audit_one_bessel_row_per_time(monkeypatch):
    # the half-line sums read 4 x-values (8 rows for the gradient) at the 13
    # distinct times of the 5- and 10-point grids, which share both ends
    calls = []

    def counted(t, n_max):
        calls.append(t)
        return free_walk_row(t, n_max)

    monkeypatch.setattr(kernels, "free_walk_row", counted)
    kernel_bound_audit(solve_interval_spectrum(16, 1 - 1 / 16, 1 - 1 / 16), 1 / 16, t_bar=0.5)
    assert len(calls) == len(set(calls)) == 13
