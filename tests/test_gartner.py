import math

import numpy as np
import pytest

from asepkpz.engine import (HeightField, Lattice, alternating_eta,
                            bernoulli_eta, simulate, simulate_replicas)
from asepkpz.gartner import (bracket_decomposition, bracket_rate,
                             drift_identity_residual, rescale, z_field)
from asepkpz.kernels import solve_interval_spectrum
from asepkpz.params import ScalingParams, build_params
from asepkpz.she import asep_mean_prediction


def params_n(n, a=1.0, b=2.0):
    return build_params(ScalingParams.interval(n, a, b))


def test_z_field_constant_and_geometric():
    p = params_n(8)
    z = z_field(np.zeros(9, dtype=int), 0.0, p)
    assert np.allclose(z.z, 1.0)
    z = z_field(np.arange(9), 0.0, p)
    assert np.allclose(z.z, np.exp(-p.lam * np.arange(9)))


def test_z_bond_ratio_quantization():
    p = params_n(16)
    h = HeightField.from_eta(bernoulli_eta(16, 3).eta)
    z = z_field(h, 0.3, p).z
    ratios = z[1:] / z[:-1]
    targets = {math.exp(-p.lam), math.exp(p.lam)}
    for r in ratios:
        assert min(abs(r - t) for t in targets) < 1e-12


def test_event_multiplicativity_exact():
    # the engine's incremental height bookkeeping matches full recomputation,
    # so Z built from either agrees bit for bit
    p = params_n(12)
    lat = Lattice.interval(12)
    tr = simulate(bernoulli_eta(12, 8), p, lat, 20.0, [20.0], 5)
    h_incremental = tr.heights[0]
    h_rebuilt = HeightField.from_eta(tr.etas[0], h0=tr.heights[0][0]).h
    assert np.array_equal(h_incremental, h_rebuilt)
    za = z_field(tr.height_field(0), 20.0, p).z
    zb = z_field(HeightField(h=h_rebuilt), 20.0, p).z
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
    p = build_params(ScalingParams.half_line(1 / 32, 1.0))
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
        h = HeightField.from_eta(eta)
        assert np.all(bracket_rate(h, 0.0, p, lat) >= 0.0)


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


def test_rescale_time_zero_and_flat():
    n = 32
    p = params_n(n, 0.0, 0.0)
    lat = Lattice.interval(n)
    init = alternating_eta(n)
    tr = simulate(init, p, lat, 0.0, [0.0], 1)
    X = np.linspace(0, 1, 9)
    (f0,) = rescale(tr, p, [0.0], X)
    z0 = z_field(tr.height_field(0), 0.0, p)
    assert np.allclose(f0.values, np.interp(X / p.epsilon, np.arange(n + 1), z0.z))
    # zigzag 'flat' start: scaled field within one lattice slope of 1
    assert np.max(np.abs(f0.values - 1.0)) <= abs(math.expm1(-p.lam))


def test_rescale_errors():
    n = 16
    p = params_n(n, 0.0, 0.0)
    lat = Lattice.interval(n)
    tr = simulate(alternating_eta(n), p, lat, 10.0, [0.0, 10.0], 1)
    with pytest.raises(ValueError):
        rescale(tr, p, [0.5], np.array([0.5]))   # time not sampled
    with pytest.raises(ValueError):
        rescale(tr, p, [0.0], np.array([1.5]))   # X outside [0, 1]


def test_rescaled_mean_tracks_kernel_oracle():
    # Bernoulli(1/2) start, A = B = 0: the empirical mean of the scaled field
    # follows the discrete Robin-kernel evolution of E Z_0 (the oracle);
    # the profile is e^{X/2}-like, not 1.
    n = 32
    T = 0.1
    p = params_n(n, 0.0, 0.0)
    lat = Lattice.interval(n)
    horizon = T * n * n

    trajs = simulate_replicas(lambda rng: bernoulli_eta(n, rng), p, lat, horizon, [horizon],
                              600, 123)
    zs = np.stack([z_field(tr.height_field(0), horizon, p).z for tr in trajs])
    spec = solve_interval_spectrum(n, p.mu_a, p.mu_b)
    oracle = asep_mean_prediction(spec, horizon,
                                  np.cosh(math.sqrt(p.epsilon)) ** np.arange(n + 1))
    se = zs.std(axis=0, ddof=1) / math.sqrt(len(zs))
    z = np.abs(zs.mean(axis=0) - oracle) / se
    assert np.max(z) <= 3.0


def test_initial_condition_moment_bounds():
    # near-equilibrium generators: second moments bounded and Holder-1/2-ish
    # increments for the Bernoulli family, uniformly over the lattice
    for n in (32, 64, 128):
        p = params_n(n, 0.0, 0.0)
        zs = np.stack([z_field(HeightField.from_eta(bernoulli_eta(n, (9, i)).eta),
                               0.0, p).z for i in range(400)])
        l2 = np.sqrt((zs ** 2).mean(axis=0))
        assert np.max(l2) <= math.e + 0.5  # cosh(2 sqrt(eps))^{x/2} <= e^{1+o(1)}
        x1, x2 = n // 4, 3 * n // 4
        inc = np.sqrt(((zs[:, x2] - zs[:, x1]) ** 2).mean())
        assert inc <= 4.0 * (p.epsilon * (x2 - x1)) ** 0.4


def test_z_field_overflow_guard():
    p = params_n(16)
    big = np.full(17, 10 ** 5, dtype=np.int64)
    z = z_field(big, 0.0, p)
    with pytest.raises(OverflowError):
        _ = z.z
