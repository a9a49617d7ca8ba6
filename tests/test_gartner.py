import math
from dataclasses import dataclass

import numpy as np
import pytest

from asepkpz.engine import Lattice, alternating_eta, bernoulli_eta, simulate_replicas, z_field
from asepkpz.kernels import interval_kernel_spectral, solve_interval_spectrum
from asepkpz.params import ModelParams, build_params

from oracles import drift_identity_residual, height_moves


def heights_of(eta, h0: int = 0) -> np.ndarray:
    """h(0..N) = h0 + partial sums of eta."""
    return np.concatenate([[h0], h0 + np.cumsum(eta, dtype=np.int64)])


# Martingale bracket rates and their small-eps split; only these tests read them.

@dataclass(frozen=True)
class BracketDecomposition:
    """Martingale bracket rate at one site, normalized by Z(x)^2.

    rate_over_z2 is the exact bracket rate / Z^2; the expansion splits it as
    eps - grad_term (bulk; grad_term = (grad+ Z)(grad- Z)/Z^2 with the
    backward difference Z(x) - Z(x-1)) or eps (boundary), plus a remainder
    that is o(eps) uniformly over configurations.
    """

    rate_over_z2: float
    eps: float
    grad_term_over_z2: float
    remainder_over_z2: float
    is_boundary: bool


def _bracket_over_z2(eta, params: ModelParams, lattice: Lattice) -> np.ndarray:
    """Exact bracket rate / Z(x)^2 per height site."""
    down, up = height_moves(eta, params, lattice)
    p, q = params.p, params.q
    return (q / p - 1.0) ** 2 * down + (p / q - 1.0) ** 2 * up


def bracket_decomposition(eta: np.ndarray, params: ModelParams, lattice: Lattice,
                          x: int) -> BracketDecomposition:
    """Exact bracket rate and its small-eps split at height site x."""
    rates = _bracket_over_z2(eta, params, lattice)
    if not 0 <= x < len(rates):
        raise ValueError(f"height site {x} outside the bracket domain")
    lam, eps = params.lam, params.epsilon
    rate = rates[x]
    boundary = x == 0 or x == lattice.n_sites
    if boundary:
        grad = 0.0
    else:
        e1, e2 = float(eta[x - 1]), float(eta[x])
        grad = (math.exp(-lam * e2) - 1.0) * (1.0 - math.exp(lam * e1))
    return BracketDecomposition(rate_over_z2=rate, eps=eps, grad_term_over_z2=grad,
                                remainder_over_z2=rate - eps + grad,
                                is_boundary=boundary)


def bracket_rate(h: np.ndarray, t: float, params: ModelParams,
                 lattice: Lattice) -> np.ndarray:
    """Exact d<M(x)>/dt per height site, in absolute units.

    On the truncated half line the closed edge carries no martingale and is
    excluded (length L array).
    """
    rates = _bracket_over_z2(np.diff(h), params, lattice)
    return rates * z_field(h, t, params)[:len(rates)] ** 2


def params_n(n, a=1.0, b=2.0):
    return build_params(1 / n, a, b)


def test_z_field_constant_and_geometric():
    p = params_n(8)
    z = z_field(np.zeros(9, dtype=int), 0.0, p)
    assert np.allclose(z, 1.0)
    z = z_field(np.arange(9), 0.0, p)
    assert np.allclose(z, np.exp(-p.lam * np.arange(9)))


def test_z_bond_ratio_quantization():
    p = params_n(16)
    h = heights_of(bernoulli_eta(16, 3))
    z = z_field(h, 0.3, p)
    ratios = z[1:] / z[:-1]
    targets = {math.exp(-p.lam), math.exp(p.lam)}
    for r in ratios:
        assert min(abs(r - t) for t in targets) < 1e-12


def test_event_multiplicativity_exact():
    # the engine's incremental height bookkeeping matches full recomputation,
    # so Z built from either agrees bit for bit
    p = params_n(12)
    lat = Lattice.interval(12)
    start = bernoulli_eta(12, 8)
    tr = simulate_replicas(lambda rng: start, p, lat, 20.0, [20.0], 1, 5)
    h_incremental = tr.heights[0, 0]
    h_rebuilt = heights_of(np.diff(h_incremental), h0=h_incremental[0])
    assert np.array_equal(h_incremental, h_rebuilt)
    za = z_field(h_incremental, 20.0, p)
    zb = z_field(h_rebuilt, 20.0, p)
    assert np.array_equal(za, zb)


def test_drift_identity_all_interior_patterns():
    # every local pattern appears across random configurations; residuals at
    # machine precision
    n = 32
    p = params_n(n, 1.0, 1.0)
    lat = Lattice.interval(n)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        eta = np.where(rng.random(n) < 0.5, 1, -1)
        worst = max(worst, float(np.max(np.abs(drift_identity_residual(eta, p, lat)))))
    assert worst <= 1e-14


def test_drift_identity_boundary_display():
    # nu + (q/p - 1) alpha = sqrt(pq) (sqrt(q/p) - 2 + mu_A) for eta(1) = -1
    p = params_n(32, 1.5, 0.5)
    lhs = p.nu + (p.q / p.p - 1.0) * p.alpha
    spq = math.sqrt(p.p * p.q)
    rhs = spq * (math.sqrt(p.q / p.p) - 2.0 + p.mu_a)
    assert abs(lhs - rhs) <= 1e-14


def test_drift_identity_negative_control():
    import dataclasses
    n = 32
    p = params_n(n, 1.0, 1.0)
    bad = dataclasses.replace(p, mu_a=p.mu_a + 1e-3)
    lat = Lattice.interval(n)
    eta = np.where(np.random.default_rng(5).random(n) < 0.5, 1, -1)
    r = drift_identity_residual(eta, bad, lat)
    assert abs(r[0]) > 1e-5
    assert np.max(np.abs(r[1:])) <= 1e-14  # perturbation is boundary-local


def test_drift_identity_large_sweep():
    for n in (64, 256):
        p = params_n(n, 1.0, 2.0)
        lat = Lattice.interval(n)
        rng = np.random.default_rng(n)
        for _ in range(20):
            eta = np.where(rng.random(n) < 0.5, 1, -1)
            assert np.max(np.abs(drift_identity_residual(eta, p, lat))) <= 1e-13


def test_drift_identity_half_line():
    p = build_params(1 / 32, 1.0)
    lat = Lattice.half_line(40)
    eta = np.where(np.random.default_rng(2).random(40) < 0.5, 1, -1)
    r = drift_identity_residual(eta, p, lat)
    assert len(r) == 40  # closed right edge excluded
    assert np.max(np.abs(r)) <= 1e-14


def test_bracket_rates():
    n = 16
    p = params_n(n, 1.0, 1.0)
    lat = Lattice.interval(n)
    # locally blocked site: (+,+) around x gives zero bracket
    eta = np.ones(n, dtype=int)
    d = bracket_decomposition(eta, p, lat, 5)
    assert d.rate_over_z2 == 0.0
    # boundary value: eta(1) = -1 gives (q/p - 1)^2 alpha
    eta[0] = -1
    d = bracket_decomposition(eta, p, lat, 0)
    assert abs(d.rate_over_z2 - (p.q / p.p - 1.0) ** 2 * p.alpha) <= 1e-15
    # nonnegativity at every site for random configurations
    rng = np.random.default_rng(1)
    for _ in range(20):
        eta = np.where(rng.random(n) < 0.5, 1, -1)
        assert np.all(bracket_rate(heights_of(eta), 0.0, p, lat) >= 0.0)


def test_bracket_remainder_vanishes_with_eps():
    # max over the four local patterns of |remainder| / eps decreases to 0
    ratios = []
    for n in (16, 64, 256):
        p = params_n(n, 1.0, 1.0)
        lat = Lattice.interval(n)
        worst = 0.0
        for e1 in (-1, 1):
            for e2 in (-1, 1):
                eta = np.array([e1, e2] + [1] * (n - 2))
                d = bracket_decomposition(eta, p, lat, 1)
                worst = max(worst, abs(d.remainder_over_z2))
        ratios.append(worst / p.epsilon)
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 0.1


def test_bracket_boundary_remainder():
    for n in (16, 64, 256):
        p = params_n(n, 1.0, 1.0)
        lat = Lattice.interval(n)
        for e1 in (-1, 1):
            eta = np.array([e1] + [1] * (n - 1))
            d = bracket_decomposition(eta, p, lat, 0)
            assert d.is_boundary
            assert abs(d.remainder_over_z2) / p.epsilon < 1.0


def test_z_field_alternating_start_is_flat():
    # the zigzag start h = 0, 1, 0, 1, ...: Z within one lattice slope of 1 at t = 0
    n = 32
    p = params_n(n, 0.0, 0.0)
    z0 = z_field(heights_of(alternating_eta(n)), 0.0, p)
    assert np.max(np.abs(z0 - 1.0)) <= abs(math.expm1(-p.lam))


def test_rescaled_mean_tracks_kernel_oracle():
    # Bernoulli(1/2) start, A = B = 0: the empirical mean of the scaled field
    # follows the discrete Robin-kernel evolution of E Z_0 (the oracle);
    # the profile is e^{X/2}-like, not 1.
    n = 32
    T = 0.1
    p = params_n(n, 0.0, 0.0)
    lat = Lattice.interval(n)
    horizon = T * n * n

    traj = simulate_replicas(lambda rng: bernoulli_eta(n, rng), p, lat, horizon, [horizon],
                             600, 123)
    zs = z_field(traj.heights[:, 0], horizon, p)
    spec = solve_interval_spectrum(n, p.mu_a, p.mu_b)
    oracle = interval_kernel_spectral(spec, horizon) @ (np.cosh(math.sqrt(p.epsilon))
                                                        ** np.arange(n + 1))
    se = zs.std(axis=0, ddof=1) / math.sqrt(len(zs))
    z = np.abs(zs.mean(axis=0) - oracle) / se
    assert np.max(z) <= 3.0


def test_initial_condition_moment_bounds():
    # near-equilibrium generators: second moments bounded and Holder-1/2-ish
    # increments for the Bernoulli family, uniformly over the lattice
    for n in (32, 64, 128):
        p = params_n(n, 0.0, 0.0)
        zs = np.stack([z_field(heights_of(bernoulli_eta(n, (9, i))), 0.0, p)
                       for i in range(400)])
        l2 = np.sqrt((zs ** 2).mean(axis=0))
        assert np.max(l2) <= math.e + 0.5  # cosh(2 sqrt(eps))^{x/2} <= e^{1+o(1)}
        x1, x2 = n // 4, 3 * n // 4
        inc = np.sqrt(((zs[:, x2] - zs[:, x1]) ** 2).mean())
        assert inc <= 4.0 * (p.epsilon * (x2 - x1)) ** 0.4


def test_z_field_overflow_guard():
    p = params_n(16)
    big = np.full(17, 10 ** 5, dtype=np.int64)
    with pytest.raises(OverflowError):
        z_field(big, 0.0, p)
    # no heights pass the guard: a flush of the tracked integrals may log no moves
    assert z_field(np.zeros((0, 17), dtype=np.int64), np.zeros((0, 17)), p).shape == (0, 17)


def test_tracked_integrals_past_the_guard_raise():
    # q/p = 1e-300 gives lam = -345.4, so the start's h(2) = 2 has log Z = 690.8
    p = ModelParams.from_rates(1.0, 1e-300, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(OverflowError):
        simulate_replicas(lambda rng: np.ones(2, dtype=np.int8), p, Lattice.interval(2), 1.0,
                          [0.0, 1.0], 1, 7, track_exp_integrals=True)
