import hashlib
import math

import numpy as np
import pytest
from scipy.linalg import expm

from asepkpz.engine import (Configuration, HeightField, Lattice, alternating_eta,
                            bernoulli_eta, event_rates, exact_generator,
                            mean_current, replica_rng, simulate, simulate_replicas,
                            state_etas, stationary_measure)
from asepkpz.params import (ModelParams, ScalingParams, build_params,
                            equal_density_mu, params_from_mu, phase_point)


def p_interval(n, a=1.0, b=1.0):
    return build_params(ScalingParams.interval(n, a, b))


def test_event_rates_exclusion_and_boundary():
    p = p_interval(4)
    lat = Lattice.interval(4)
    r = event_rates(Configuration(np.array([1, 1, -1, 1])), p, lat)
    assert r.right[0] == 0 and r.left[0] == 0          # (+,+): blocked
    assert r.right[1] == p.p and r.left[1] == 0        # (+,-): right jump at p
    assert r.right[2] == 0 and r.left[2] == p.q        # (-,+): left jump at q
    assert r.create_left == 0 and r.annihilate_left == p.gamma   # occupied site 1
    assert r.create_right == 0 and r.annihilate_right == p.beta  # occupied site N
    r = event_rates(Configuration(np.array([-1, 1, -1, -1])), p, lat)
    assert r.create_left == p.alpha and r.annihilate_left == 0
    assert r.create_right == p.delta and r.annihilate_right == 0


def test_half_line_has_no_right_reservoir():
    p = p_interval(8, 1.0, 0.0)
    lat = Lattice.half_line(8)
    r = event_rates(Configuration(alternating_eta(8).eta), p, lat)
    assert r.create_right is None and r.annihilate_right is None


def test_blocked_system_is_constant():
    # all rates zero: full lattice with zero reservoir exchange
    p = ModelParams.from_rates(p=0.7, q=0.3, alpha=0.0, beta=0.0, gamma=0.0, delta=0.0)
    lat = Lattice.interval(5)
    init = Configuration(np.ones(5, dtype=np.int8))
    tr = simulate(init, p, lat, 10.0, [0.0, 5.0, 10.0], 1)
    assert tr.event_count == 0
    for eta in tr.etas:
        assert np.array_equal(eta, init.eta)


def test_two_state_occupation_fraction():
    # N = 1: on-rate alpha+delta, off-rate beta+gamma; long-run occupation
    # fraction matches the closed form within 3 sigma (batch means).
    p = ModelParams.from_rates(p=0.6, q=0.4, alpha=0.5, beta=0.35, gamma=0.15, delta=0.2)
    lat = Lattice.interval(1)
    target = (p.alpha + p.delta) / (p.alpha + p.beta + p.gamma + p.delta)
    horizon = 4000.0
    ts = np.linspace(0.0, horizon, 8001)
    tr = simulate(Configuration(np.array([-1])), p, lat, horizon, ts, 3)
    occ = np.array([(e[0] + 1) / 2 for e in tr.etas], dtype=float)
    batches = occ[1:].reshape(20, -1).mean(axis=1)
    se = batches.std(ddof=1) / math.sqrt(len(batches))
    assert abs(occ[1:].mean() - target) <= 3 * se


def test_determinism_byte_for_byte():
    p = p_interval(16)
    lat = Lattice.interval(16)
    init = bernoulli_eta(16, 9)
    a = simulate(init, p, lat, 30.0, [10.0, 30.0], 1234,
                 track_exp_integrals=(-p.lam, p.nu))
    b = simulate(init, p, lat, 30.0, [10.0, 30.0], 1234,
                 track_exp_integrals=(-p.lam, p.nu))
    assert a.event_count == b.event_count
    for i in range(2):
        assert np.array_equal(a.etas[i], b.etas[i])
        assert np.array_equal(a.heights[i], b.heights[i])
        assert np.array_equal(a.z_int[i], b.z_int[i])
    c = simulate(init, p, lat, 30.0, [10.0, 30.0], 1235)
    assert not all(np.array_equal(a.etas[i], c.etas[i]) for i in range(2))


def test_height_consistency_and_boundary_locality():
    p = p_interval(12, 2.0, 1.0)
    lat = Lattice.interval(12)
    tr = simulate(bernoulli_eta(12, 4), p, lat, 50.0, np.linspace(0, 50, 26), 77,
                  debug_checks=True)
    for i in range(len(tr.sample_times)):
        assert np.array_equal(np.diff(tr.heights[i]), tr.etas[i])
    assert tr.event_count > 0


def test_event_count_rate_long_run():
    # empirical event rate over >= 1e4 waits matches the stationary-average
    # total rate within 3 sigma (batch means over time windows)
    p = ModelParams.from_rates(p=0.6, q=0.4, alpha=0.5, beta=0.35, gamma=0.15, delta=0.2)
    lat = Lattice.interval(1)
    pi = stationary_measure(exact_generator(p, 1))
    rate = pi[0] * (p.alpha + p.delta) + pi[1] * (p.beta + p.gamma)
    empty = lambda rng: Configuration(np.array([-1]))
    (tr,) = simulate_replicas(empty, p, lat, 25000.0, [25000.0], 1, 77)
    assert tr.event_count >= 10 ** 4
    # batch estimate of the rate from independent windows
    samples = np.array([tr.event_count / 1250.0 for tr in
                        simulate_replicas(empty, p, lat, 1250.0, [1250.0], 20, 78)])
    se = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - rate) <= 3 * se


def test_event_wait_times_match_rate():
    # single active channel: N=1 with annihilation shut off; waits in the
    # empty state are Exp(alpha + delta)
    p = ModelParams.from_rates(p=0.6, q=0.4, alpha=0.8, beta=0.0, gamma=0.0, delta=0.3)
    lat = Lattice.interval(1)

    # occupation locks in (no off-events): P(still empty at t) = exp(-1.1 t)
    outs = np.array([tr.etas[0][0] for tr in simulate_replicas(
        lambda rng: Configuration(np.array([-1])), p, lat, 3.0, [3.0], 20000, 11)])
    frac_empty = float(np.mean(outs == -1))
    target = math.exp(-1.1 * 3.0)
    se = math.sqrt(target * (1 - target) / len(outs))
    assert abs(frac_empty - target) <= 3 * se


def test_sos_matches_particle_distribution():
    # Mean heights of the particle sampler against the exact transient law,
    # asymmetric boundaries.  One expm of [[Q, I], [0, 0]] t gives the law
    # at t and its time integral; h(0) moves by +2 per removal at site 1
    # and by -2 per creation there.
    n = 4
    p = p_interval(n, 0.25, 1.5)
    lat = Lattice.interval(n)
    init_eta = alternating_eta(n)
    horizon = 2.0

    hp = np.stack([tr.heights[0] for tr in simulate_replicas(
        lambda rng: init_eta, p, lat, horizon, [horizon], 10000, 50)])

    Q = exact_generator(p, n).toarray()
    m = Q.shape[0]
    block = np.zeros((2 * m, 2 * m))
    block[:m, :m] = Q
    block[:m, m:] = np.eye(m)
    E = expm(block * horizon)
    s0 = sum(1 << x for x in range(n) if init_eta.eta[x] == 1)
    law, occupation = E[s0, :m], E[s0, m:]
    etas = state_etas(n)
    first = etas[:, 0] == 1
    h0 = 2.0 * (p.gamma * occupation[first].sum() - p.alpha * occupation[~first].sum())
    exact = h0 + np.concatenate([[0.0], np.cumsum(law @ etas)])

    se = hp.std(axis=0, ddof=1) / math.sqrt(len(hp))
    z = np.abs(hp.mean(axis=0) - exact) / se
    assert np.max(z) <= 3.0, z


def test_exact_generator_n1():
    p = ModelParams.from_rates(p=0.6, q=0.4, alpha=0.5, beta=0.35, gamma=0.15, delta=0.2)
    Q = exact_generator(p, 1).toarray()
    on = p.alpha + p.delta
    off = p.beta + p.gamma
    assert np.allclose(Q, [[-on, on], [off, -off]], atol=1e-15)


def test_generator_row_sums_and_size_guard():
    p = p_interval(6, 1.0, 2.0)
    Q = exact_generator(p, 6)
    assert np.max(np.abs(np.asarray(Q.sum(axis=1)).ravel())) <= 1e-14
    # the dense stationary solve refuses 2^13 states before densifying Q
    with pytest.raises(ValueError):
        stationary_measure(exact_generator(p, 13))


def test_generator_sixteen_sites():
    p = p_interval(16, 1.0, 2.0)
    Q = exact_generator(p, 16)
    assert Q.shape == (1 << 16, 1 << 16)
    assert np.max(np.abs(np.asarray(Q.sum(axis=1)).ravel())) <= 1e-14


# SHA-256 of the dense generator (little-endian float64) at the rates below
# for N = 1..10, interval then half line at each N, as the per-state Python
# loop that the one-pass builder replaced wrote it.
PINNED_GENERATOR = "601d46f6d8daa8e55e289156de08227a42c178b8f1b30bcb8ccde27aca2d4b3c"


def test_generator_pinned_digest():
    p = ModelParams.from_rates(p=0.6, q=0.4, alpha=0.5, beta=0.35, gamma=0.15, delta=0.2)
    h = hashlib.sha256()
    for n in range(1, 11):
        for lat in (Lattice.interval(n), Lattice.half_line(n)):
            h.update(np.asarray(exact_generator(p, n, lat).toarray(), dtype="<f8").tobytes())
    assert h.hexdigest() == PINNED_GENERATOR


def test_detailed_balance_symmetric_rates():
    # p = q with alpha = gamma, beta = delta: Q symmetric, uniform reversible
    p = ModelParams.from_rates(p=0.5, q=0.5, alpha=0.3, beta=0.2, gamma=0.3, delta=0.2)
    Q = exact_generator(p, 4).toarray()
    assert np.max(np.abs(Q - Q.T)) <= 1e-15
    pi = stationary_measure(Q)
    assert np.max(np.abs(pi - 1 / 16)) <= 1e-12


def test_stationary_two_state_closed_form():
    p = ModelParams.from_rates(p=0.7, q=0.3, alpha=0.45, beta=0.3, gamma=0.2, delta=0.15)
    pi = stationary_measure(exact_generator(p, 1))
    target = (p.alpha + p.delta) / (p.alpha + p.beta + p.gamma + p.delta)
    assert abs(pi[1] - target) <= 1e-14


def test_stationary_reducible_generator_rejected():
    # all-zero generator is reducible: the normalization solve is singular
    p = ModelParams.from_rates(p=0.0, q=0.0, alpha=0.0, beta=0.0, gamma=0.0, delta=0.0)
    with pytest.raises(np.linalg.LinAlgError):
        stationary_measure(exact_generator(p, 2))


def test_stationary_product_bernoulli_on_equal_density_line():
    eps = 0.25
    mu_b = 1.1
    p = params_from_mu(eps, equal_density_mu(eps, mu_b), mu_b)
    assert not p.in_scaling_class  # mu_A > 1: outside the weakly asymmetric class
    pi = stationary_measure(exact_generator(p, 5))
    rho = phase_point(p).rho_a
    bern = np.prod(np.where(state_etas(5) > 0, rho, 1 - rho), axis=1)
    assert 0.5 * np.abs(pi - bern).sum() <= 1e-10


def test_mean_current_blocked_and_equal_density():
    p = ModelParams.from_rates(p=0.7, q=0.3, alpha=0.0, beta=0.4, gamma=0.0, delta=0.1)
    pi = stationary_measure(exact_generator(p, 3))
    assert abs(mean_current(pi, p, 3)) <= 1e-14
    # equal-density line: J_N equals rho(1-rho) for every N
    eps = 0.2
    mu_b = 1.05
    p = params_from_mu(eps, equal_density_mu(eps, mu_b), mu_b)
    rho = phase_point(p).rho_a
    for n in (4, 6, 8):
        pi = stationary_measure(exact_generator(p, n))
        assert abs(mean_current(pi, p, n) - rho * (1 - rho)) <= 1e-10


def test_mean_current_against_flux_count():
    # N = 2: exact stationary current vs a long-horizon Monte Carlo count of
    # net left-boundary entries.
    p = p_interval(2, 0.4, 0.9)
    lat = Lattice.interval(2)
    pi = stationary_measure(exact_generator(p, 2))
    j_exact = mean_current(pi, p, 2)

    horizon = 2000.0
    trajs = simulate_replicas(lambda rng: bernoulli_eta(2, rng), p, lat, horizon,
                              [horizon], 24, 17)
    # net removals at the left boundary = h_T(0)/2; current counts entries
    vals = np.array([-tr.heights[0][0] / 2.0 / horizon for tr in trajs]) / (p.p - p.q)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - j_exact) <= 3 * se


def test_half_line_truncation_doubling():
    # doubling the truncation length must not move statistics in a window
    # near the boundary beyond combined error bars
    from asepkpz.engine import halfline_truncation_length
    p = build_params(ScalingParams.half_line(1 / 16, 1.0))
    horizon = 8.0
    assert halfline_truncation_length(6, horizon) >= 24

    def occupation(length, seed):
        trajs = simulate_replicas(lambda rng: bernoulli_eta(length, rng), p,
                                  Lattice.half_line(length), horizon, [horizon], 3000, seed)
        return np.stack([tr.etas[0][:6].astype(float) for tr in trajs])

    a = occupation(24, 21)
    b = occupation(48, 21)
    se = np.sqrt(a.var(axis=0) / len(a) + b.var(axis=0) / len(b))
    z = np.abs(a.mean(axis=0) - b.mean(axis=0)) / se
    assert np.max(z) <= 3.0


# Streams of the scalar one-replica Gillespie loop that the lockstep sampler
# replaced: SHA-256 of every replica's snapshots (int8 etas, int64 heights)
# and event count, and the sums of its exponential integrals, recorded from
# that loop on replica_rng(seed, i).
PINNED_STREAMS = {
    "interval16": ("588f369bab6e0ff9684811dcb3c719c72115776681939b6b2d4e30987e2e54f9",
                   126654.3174958502, 678653.2186880254),
    "interval12_robin": ("c4f7d49291bca173d8be0920fc69c59c8d5de2b99d468e8f9014c5c27bfe704d",
                         12687.25895353147, 21724.04171252677),
    "halfline24": ("3f48d8aad3b4671e7186881b9826cd2942b99fd86e341693c1095105d2d068ba",
                   256060.53097573787, 86905954.70756868),
    "interval2": ("db1b6b9fdd6eef05cf25848e59f5b95739310114f22efc4427dfaa8425f9fb38",
                  2552.1443890543624, 3808.4758345155465),
    "interval1": ("0b20424b86fd45d1ebeea4d701f39858507594e8c0cc900896ad0f3d9ff0d6f3",
                  743.9635927258648, 685.2315377394007),
}


def stream_configs():
    """name -> (params, lattice, init, horizon, sample_times, replicas, seed)."""
    rates = ModelParams.from_rates(p=0.6, q=0.4, alpha=0.5, beta=0.35, gamma=0.15, delta=0.2)
    return {
        # > 4096 events per replica: crosses a refresh of the total rate
        "interval16": (p_interval(16, 0.0, 0.0), Lattice.interval(16),
                       lambda rng: bernoulli_eta(16, rng), 1200.0, [600.0, 1200.0], 4, 11),
        "interval12_robin": (p_interval(12, 1.0, 2.0), Lattice.interval(12),
                             lambda rng: alternating_eta(12), 300.0, [0.0, 100.0, 300.0], 3, 12),
        "halfline24": (build_params(ScalingParams.half_line(1 / 16, 1.0)), Lattice.half_line(24),
                       lambda rng: bernoulli_eta(24, rng), 200.0, [0.0, 50.0, 200.0], 3, 13),
        "interval2": (rates, Lattice.interval(2), lambda rng: bernoulli_eta(2, rng),
                      500.0, [250.0, 500.0], 3, 14),
        "interval1": (rates, Lattice.interval(1), lambda rng: Configuration(np.array([-1])),
                      500.0, [250.0, 500.0], 3, 15),
    }


def stream_digest(trajs) -> str:
    h = hashlib.sha256()
    for tr in trajs:
        for eta, heights in zip(tr.etas, tr.heights):
            h.update(np.asarray(eta, dtype="<i1").tobytes())
            h.update(np.asarray(heights, dtype="<i8").tobytes())
        h.update(np.asarray(tr.event_count, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
def test_replicas_replay_pinned_streams(name):
    # the lockstep sampler replays each replica's event sequence exactly;
    # the integrals may differ from the C library's exp/expm1 in the last bit
    p, lat, init, horizon, times, replicas, seed = stream_configs()[name]
    trajs = simulate_replicas(init, p, lat, horizon, times, replicas, seed,
                              track_exp_integrals=(-p.lam, p.nu))
    digest, s1, s2 = PINNED_STREAMS[name]
    assert stream_digest(trajs) == digest
    assert sum(float(np.sum(z)) for tr in trajs for z in tr.z_int) == pytest.approx(s1, rel=1e-12)
    assert sum(float(np.sum(z)) for tr in trajs for z in tr.z2_int) == pytest.approx(s2, rel=1e-12)


def test_simulate_replicas_independent_of_threads_and_blocks():
    # 300 replicas run as two lockstep blocks; each must equal its own
    # one-replica run on replica_rng(seed, i), for 1 and 2 threads
    n = 8
    p = p_interval(n, 1.0, 0.5)
    lat = Lattice.interval(n)
    track = (-p.lam, p.nu)
    single = []
    for i in range(300):
        rng = replica_rng(4, i)
        single.append(simulate(bernoulli_eta(n, rng), p, lat, 6.0, [2.0, 6.0], rng,
                               track_exp_integrals=track))
    for threads in (1, 2):
        trajs = simulate_replicas(lambda rng: bernoulli_eta(n, rng), p, lat, 6.0, [2.0, 6.0],
                                  300, 4, track_exp_integrals=track, threads=threads)
        assert len(trajs) == 300
        for a, b in zip(trajs, single):
            assert a.event_count == b.event_count
            for i in range(2):
                assert np.array_equal(a.heights[i], b.heights[i])
                assert np.array_equal(a.z_int[i], b.z_int[i])


def test_invalid_inputs():
    p = p_interval(4)
    lat = Lattice.interval(4)
    with pytest.raises(ValueError):
        Configuration(np.array([1, 0, -1, 1]))
    with pytest.raises(ValueError):
        simulate(Configuration(np.array([1, -1, 1, -1])), p, lat, 1.0, [0.5, 0.2], 1)
    with pytest.raises(ValueError):
        HeightField(h=np.array([0, 2, 1, 0, 1]))
    with pytest.raises(ValueError):
        Lattice("ring", 4)
