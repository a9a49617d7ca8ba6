import hashlib
import math

import numpy as np
import pytest
from scipy.linalg import expm

from asepkpz import engine
from asepkpz.engine import (Lattice, _harris_tables, alternating_eta, bernoulli_eta,
                            event_rates, exact_generator, replica_rng, simulate_replicas,
                            state_etas)
from asepkpz.params import (ModelParams, build_params,
                            equal_density_mu, params_from_mu, phase_point)

from oracles import stationary_measure


def p_interval(n, a=1.0, b=1.0):
    return build_params(1 / n, a, b)


def test_event_rates_exclusion_and_boundary():
    p = p_interval(4)
    lat = Lattice.interval(4)
    r = event_rates(np.array([1, 1, -1, 1]), p, lat)
    assert r.right[0] == 0 and r.left[0] == 0          # (+,+): blocked
    assert r.right[1] == p.p and r.left[1] == 0        # (+,-): right jump at p
    assert r.right[2] == 0 and r.left[2] == p.q        # (-,+): left jump at q
    assert r.create_left == 0 and r.annihilate_left == p.gamma   # occupied site 1
    assert r.create_right == 0 and r.annihilate_right == p.beta  # occupied site N
    r = event_rates(np.array([-1, 1, -1, -1]), p, lat)
    assert r.create_left == p.alpha and r.annihilate_left == 0
    assert r.create_right == p.delta and r.annihilate_right == 0


def test_half_line_has_no_right_reservoir():
    p = p_interval(8, 1.0, 0.0)
    lat = Lattice.half_line(8)
    r = event_rates(alternating_eta(8), p, lat)
    assert r.create_right is None and r.annihilate_right is None


def test_blocked_system_is_constant():
    # all rates zero: full lattice with zero reservoir exchange
    p = ModelParams.from_rates(p=0.7, q=0.3, alpha=0.0, beta=0.0, gamma=0.0, delta=0.0)
    lat = Lattice.interval(5)
    init = np.ones(5, dtype=np.int8)
    tr = simulate_replicas(lambda rng: init, p, lat, 10.0, [0.0, 5.0, 10.0], 1, 1)
    assert tr.event_count[0] == 0
    for h in tr.heights[0]:
        assert np.array_equal(np.diff(h), init)


def test_two_state_occupation_fraction():
    # N = 1: on-rate alpha+delta, off-rate beta+gamma; long-run occupation
    # fraction matches the closed form within 3 sigma (batch means).
    p = ModelParams.from_rates(p=0.6, q=0.4, alpha=0.5, beta=0.35, gamma=0.15, delta=0.2)
    lat = Lattice.interval(1)
    target = (p.alpha + p.delta) / (p.alpha + p.beta + p.gamma + p.delta)
    horizon = 4000.0
    ts = np.linspace(0.0, horizon, 8001)
    tr = simulate_replicas(lambda rng: np.array([-1]), p, lat, horizon, ts, 1, 3)
    occ = np.array([(h[1] - h[0] + 1) / 2 for h in tr.heights[0]], dtype=float)
    batches = occ[1:].reshape(20, -1).mean(axis=1)
    se = batches.std(ddof=1) / math.sqrt(len(batches))
    assert abs(occ[1:].mean() - target) <= 3 * se


def test_determinism_byte_for_byte():
    p = p_interval(16)
    lat = Lattice.interval(16)
    init = bernoulli_eta(16, 9)
    a = simulate_replicas(lambda rng: init, p, lat, 30.0, [10.0, 30.0], 1, 1234,
                          track_exp_integrals=True)
    b = simulate_replicas(lambda rng: init, p, lat, 30.0, [10.0, 30.0], 1, 1234,
                          track_exp_integrals=True)
    assert np.array_equal(a.event_count, b.event_count)
    assert np.array_equal(a.heights, b.heights)
    assert np.array_equal(a.z_int, b.z_int)
    c = simulate_replicas(lambda rng: init, p, lat, 30.0, [10.0, 30.0], 1, 1235)
    assert not np.array_equal(np.diff(a.heights), np.diff(c.heights))


def test_height_consistency_and_boundary_locality():
    # one replica on replica_rng(77, 0), its slopes re-checked after every round
    p = p_interval(12, 2.0, 1.0)
    lat = Lattice.interval(12)
    block = engine._Block(p, lat, [bernoulli_eta(12, 4)], [replica_rng(77, 0)],
                          np.linspace(0, 50, 26), 50.0, None)
    tr = block.run(debug_checks=True)
    assert np.all(np.abs(np.diff(tr.heights, axis=-1)) == 1)
    assert tr.event_count[0] > 0


def test_event_count_rate_long_run():
    # empirical event rate over >= 1e4 waits matches the stationary-average
    # total rate within 3 sigma (batch means over time windows)
    p = ModelParams.from_rates(p=0.6, q=0.4, alpha=0.5, beta=0.35, gamma=0.15, delta=0.2)
    lat = Lattice.interval(1)
    pi = stationary_measure(exact_generator(p, 1))
    rate = pi[0] * (p.alpha + p.delta) + pi[1] * (p.beta + p.gamma)
    empty = lambda rng: np.array([-1])
    tr = simulate_replicas(empty, p, lat, 25000.0, [25000.0], 1, 77)
    assert tr.event_count[0] >= 10 ** 4
    # batch estimate of the rate from independent windows
    samples = simulate_replicas(empty, p, lat, 1250.0, [1250.0], 20, 78).event_count / 1250.0
    se = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - rate) <= 3 * se


def test_event_wait_times_match_rate():
    # single active channel: N=1 with annihilation shut off; waits in the
    # empty state are Exp(alpha + delta)
    p = ModelParams.from_rates(p=0.6, q=0.4, alpha=0.8, beta=0.0, gamma=0.0, delta=0.3)
    lat = Lattice.interval(1)

    # occupation locks in (no off-events): P(still empty at t) = exp(-1.1 t)
    h = simulate_replicas(lambda rng: np.array([-1]), p, lat, 3.0, [3.0], 20000, 11).heights
    outs = h[:, 0, 1] - h[:, 0, 0]
    frac_empty = float(np.mean(outs == -1))
    target = math.exp(-1.1 * 3.0)
    se = math.sqrt(target * (1 - target) / len(outs))
    assert abs(frac_empty - target) <= 3 * se


def test_ring_counts_are_poisson():
    # A channel rings at its clock whatever the state, so a replica's
    # ring_count over [0, H) is exactly Poisson(H sum_c clock_c).  This pins
    # the count drawn - size + pos - (N+1) across refills and barriers and
    # the Exp(1) law of the waits.  Gate, set in advance: the mean and the
    # dispersion var/mean each within 4 standard errors, sqrt(mu/R) and
    # sqrt((2 + 1/mu)/R) (Poisson: fourth central moment mu + 3 mu^2).
    n, horizon, replicas = 8, 100.0, 4000
    p = ModelParams.from_rates(p=0.6, q=0.4, alpha=0.5, beta=0.35, gamma=0.15, delta=0.2)
    lat = Lattice.interval(n)
    mu = horizon * float(_harris_tables(p, lat)[0].sum())    # 100 * 5.05
    rings = simulate_replicas(lambda rng: bernoulli_eta(n, rng), p, lat, horizon,
                              [horizon / 2, horizon], replicas, 31).ring_count
    assert abs(rings.mean() - mu) <= 4 * math.sqrt(mu / replicas)
    assert abs(rings.var(ddof=1) / mu - 1) <= 4 * math.sqrt((2 + 1 / mu) / replicas)


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

    hp = simulate_replicas(lambda rng: init_eta, p, lat, horizon, [horizon], 10000,
                           50).heights[:, 0]

    Q = exact_generator(p, n)
    m = Q.shape[0]
    block = np.zeros((2 * m, 2 * m))
    block[:m, :m] = Q
    block[:m, m:] = np.eye(m)
    E = expm(block * horizon)
    s0 = sum(1 << x for x in range(n) if init_eta[x] == 1)
    law, occupation = E[s0, :m], E[s0, m:]
    etas = state_etas(n)
    first = etas[:, 0] == 1
    h0 = 2.0 * (p.gamma * occupation[first].sum() - p.alpha * occupation[~first].sum())
    exact = h0 + np.concatenate([[0.0], np.cumsum(law @ etas)])

    se = hp.std(axis=0, ddof=1) / math.sqrt(len(hp))
    z = np.abs(hp.mean(axis=0) - exact) / se
    assert np.max(z) <= 3.0, z


def tilted_generator(params, n, theta):
    """The generator of E[exp(theta h_t(0)) f(eta_t)]: the left-reservoir
    entries carry exp(theta dh(0)), dh(0) = -2 on creation and +2 on
    annihilation; the diagonal stays untilted."""
    q = exact_generator(params, n)
    states = np.arange(1 << n)
    empty = (states & 1) == 0
    q[states, states ^ 1] *= np.where(empty, math.exp(-2.0 * theta), math.exp(2.0 * theta))
    return q


def test_second_moment_matches_tilted_generator():
    # E Z_t(x)^2, Z = exp(-lam h + nu t), exactly from the 2^N generator tilted
    # by theta = -2 lam against 20000 replicas from the Bernoulli(1/2) start.
    # The statistic, fixed before running: the site average of Z_t^2 over
    # x = 0..N per replica, gated at 3 per-replica standard errors.
    n, t = 8, 0.25 * 64
    p = p_interval(n, 1.0, 0.5)
    etas = state_etas(n).astype(float)
    f = np.exp(-2.0 * p.lam * np.column_stack([np.zeros(1 << n), np.cumsum(etas, axis=1)]))
    exact = math.exp(2.0 * p.nu * t) * (expm(tilted_generator(p, n, -2.0 * p.lam) * t) @ f).mean()
    traj = simulate_replicas(lambda rng: bernoulli_eta(n, rng), p, Lattice.interval(n), t, [t],
                             20000, 808)
    site_avg = np.exp(2.0 * (p.nu * t - p.lam * traj.heights[:, 0])).mean(axis=1)
    z = (site_avg.mean() - exact) / (site_avg.std(ddof=1) / math.sqrt(len(site_avg)))
    assert abs(z) <= 3.0, z


def test_exact_generator_n1():
    p = ModelParams.from_rates(p=0.6, q=0.4, alpha=0.5, beta=0.35, gamma=0.15, delta=0.2)
    Q = exact_generator(p, 1)
    on = p.alpha + p.delta
    off = p.beta + p.gamma
    assert np.allclose(Q, [[-on, on], [off, -off]], atol=1e-15)


def test_generator_row_sums_and_size_guard():
    p = p_interval(6, 1.0, 2.0)
    Q = exact_generator(p, 6)
    assert np.max(np.abs(Q.sum(axis=1))) <= 1e-14
    # the generator refuses N = 13 itself (test_generator_size_cap); the dense
    # stationary solve refuses any matrix above 2^12 states before solving
    # (np.zeros maps the pages without touching them)
    with pytest.raises(ValueError):
        stationary_measure(np.zeros(((1 << 12) + 1, (1 << 12) + 1)))


def test_generator_size_cap(monkeypatch):
    # 2^12 states is the largest dense generator; N = 13 and 16 raise before
    # the states, their rates or the matrix are built
    Q = exact_generator(p_interval(12, 1.0, 2.0), 12)
    assert Q.shape == (1 << 12, 1 << 12)
    assert np.max(np.abs(Q.sum(axis=1))) <= 1e-14
    del Q

    def built(*args, **kwargs):
        raise AssertionError("built past the cap")

    monkeypatch.setattr(engine, "state_etas", built)
    monkeypatch.setattr(engine, "event_rates", built)
    for n in (13, 16):
        with pytest.raises(ValueError, match=r"2\^12"):
            exact_generator(p_interval(n, 1.0, 2.0), n)


# SHA-256 of the dense generator (little-endian float64) at the rates below
# for N = 1..10, interval then half line at each N, as the per-state Python
# loop that the one-pass builder replaced wrote it.
PINNED_GENERATOR = "601d46f6d8daa8e55e289156de08227a42c178b8f1b30bcb8ccde27aca2d4b3c"


def test_generator_pinned_digest():
    p = ModelParams.from_rates(p=0.6, q=0.4, alpha=0.5, beta=0.35, gamma=0.15, delta=0.2)
    h = hashlib.sha256()
    for n in range(1, 11):
        for lat in (Lattice.interval(n), Lattice.half_line(n)):
            h.update(np.asarray(exact_generator(p, n, lat), dtype="<f8").tobytes())
    assert h.hexdigest() == PINNED_GENERATOR


def test_channel_tables_match_generator():
    # exhaustive over N = 1..5: in every state, clock x acceptance of each
    # channel at the state's local code is the generator's rate of that
    # channel's move, and adding the code to the channel's height makes it
    rates = ModelParams.from_rates(p=0.6, q=0.4, alpha=0.5, beta=0.35, gamma=0.15, delta=0.2)
    for params in (rates, p_interval(8, 1.0, 2.0)):
        for n in range(1, 6):
            for lat in (Lattice.interval(n), Lattice.half_line(n)):
                clock, accept = _harris_tables(params, lat)
                gen = exact_generator(params, n, lat)
                etas = state_etas(n).astype(np.int64)
                states = np.arange(1 << n)
                h = np.column_stack([np.zeros_like(states), np.cumsum(etas, axis=1)])
                ghosted = np.column_stack([h[:, 1], h, h[:, n - 1]])   # h(-1) = h(1), h(N+1) = h(N-1)
                lap = ghosted[:, :-2] + ghosted[:, 2:] - 2 * h
                assert set(np.unique(lap)) <= {-2, 0, 2}
                # channels LEFT, bonds 0..N-2, RIGHT and the state bits they flip
                flips = np.array([1, *(3 << np.arange(n - 1)), 1 << (n - 1)])
                rate = clock * accept[np.arange(n + 1), lap // 2 + 1]
                for c in range(n + 1):
                    target = states ^ flips[c]
                    # at N = 1 both reservoirs flip site 1: the generator adds them
                    assert np.allclose(rate[:, flips == flips[c]].sum(axis=1),
                                       gen[states, target], rtol=1e-15, atol=0.0)
                    moved = h.copy()
                    moved[:, c] += lap[:, c]
                    live = rate[:, c] > 0
                    assert np.all(np.abs(np.diff(moved[live], axis=1)) == 1)
                    assert np.array_equal(
                        (np.diff(moved[live], axis=1) > 0) @ (1 << np.arange(n)), target[live])


def test_detailed_balance_symmetric_rates():
    # p = q with alpha = gamma, beta = delta: Q symmetric, uniform reversible
    p = ModelParams.from_rates(p=0.5, q=0.5, alpha=0.3, beta=0.2, gamma=0.3, delta=0.2)
    Q = exact_generator(p, 4)
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
    pi = stationary_measure(exact_generator(p, 5))
    rho = phase_point(p).rho_a
    bern = np.prod(np.where(state_etas(5) > 0, rho, 1 - rho), axis=1)
    assert 0.5 * np.abs(pi - bern).sum() <= 1e-10


def mean_current(pi: np.ndarray, params: ModelParams, n: int) -> float:
    """J_N = (p-q)^{-1} E_pi[r_A^+ - r_A^-], the net entry rate at site 1."""
    rates = event_rates(state_etas(n), params, Lattice.interval(n))
    return float(pi @ (rates.create_left - rates.annihilate_left)) / (params.p - params.q)


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
    traj = simulate_replicas(lambda rng: bernoulli_eta(2, rng), p, lat, horizon,
                             [horizon], 24, 17)
    # net removals at the left boundary = h_T(0)/2; current counts entries
    vals = -traj.heights[:, 0, 0] / 2.0 / horizon / (p.p - p.q)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - j_exact) <= 3 * se


def test_half_line_truncation_doubling():
    # doubling the truncation length must not move statistics in a window
    # near the boundary beyond combined error bars
    p = build_params(1 / 16, 1.0)
    horizon = 8.0

    def occupation(length, seed):
        traj = simulate_replicas(lambda rng: bernoulli_eta(length, rng), p,
                                 Lattice.half_line(length), horizon, [horizon], 3000, seed)
        return np.diff(traj.heights[:, 0, :7], axis=-1).astype(float)

    a = occupation(24, 21)
    b = occupation(48, 21)
    se = np.sqrt(a.var(axis=0) / len(a) + b.var(axis=0) / len(b))
    z = np.abs(a.mean(axis=0) - b.mean(axis=0)) / se
    assert np.max(z) <= 3.0


# Streams of the Harris block sampler: SHA-256 of every replica's snapshots
# (int8 slopes, int64 heights), accepted-move and ring counts, and the sums of
# its exponential integrals, on replica_rng(seed, i).  A change of the
# sampler's draws or of its rounds changes them.
PINNED_STREAMS = {
    "interval16": ("1ef047e2d3c8680b9e34293c9bd12a603634321ba905f9a3fac0b84d7e44c1a8",
                   176560.94003141404, 900774.6638002349),
    "interval12_robin": ("bc4e76415ae09d74c38eeef56490eaed95c44c25d4208fa7a8a467cf7cea8832",
                         8138.241564031017, 11661.341759725756),
    "halfline24": ("8667999506bd79491cdc814cd4c1dd78f3c108b8810adf79343f7a2aa5720ed2",
                   313484.1036351243, 67292228.86494206),
    "interval2": ("eee33f4080e431efa1c02a3d3db9ba7303015e08147f9e5aa58d66510bdba8fc",
                  1731.0857048720416, 1670.9818515816623),
    "interval1": ("2131eb71a188297f21f571e6b38300fe639e356d142679e06643345e8ddd295f",
                  521.4085893719055, 336.3500036656838),
}


def stream_configs():
    """name -> (params, lattice, init, horizon, sample_times, replicas, seed)."""
    rates = ModelParams.from_rates(p=0.6, q=0.4, alpha=0.5, beta=0.35, gamma=0.15, delta=0.2)
    return {
        # > 5000 moves per replica: many buffer refills per stream
        "interval16": (p_interval(16, 0.0, 0.0), Lattice.interval(16),
                       lambda rng: bernoulli_eta(16, rng), 1200.0, [600.0, 1200.0], 4, 11),
        "interval12_robin": (p_interval(12, 1.0, 2.0), Lattice.interval(12),
                             lambda rng: alternating_eta(12), 300.0, [0.0, 100.0, 300.0], 3, 12),
        "halfline24": (build_params(1 / 16, 1.0), Lattice.half_line(24),
                       lambda rng: bernoulli_eta(24, rng), 200.0, [0.0, 50.0, 200.0], 3, 13),
        "interval2": (rates, Lattice.interval(2), lambda rng: bernoulli_eta(2, rng),
                      500.0, [250.0, 500.0], 3, 14),
        "interval1": (rates, Lattice.interval(1), lambda rng: np.array([-1]),
                      500.0, [250.0, 500.0], 3, 15),
    }


def stream_digest(traj) -> str:
    h = hashlib.sha256()
    for heights, count, rings in zip(traj.heights, traj.event_count, traj.ring_count):
        for hs in heights:
            h.update(np.asarray(np.diff(hs), dtype="<i1").tobytes())
            h.update(np.asarray(hs, dtype="<i8").tobytes())
        h.update(np.asarray([count, rings], dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
def test_replicas_replay_pinned_streams(name):
    # each replica's path is fixed by its stream; the integrals may move in
    # the last bits with numpy's exp/expm1
    p, lat, init, horizon, times, replicas, seed = stream_configs()[name]
    traj = simulate_replicas(init, p, lat, horizon, times, replicas, seed,
                             track_exp_integrals=True)
    digest, s1, s2 = PINNED_STREAMS[name]
    assert stream_digest(traj) == digest
    assert sum(float(np.sum(z)) for zs in traj.z_int for z in zs) == pytest.approx(s1, rel=1e-12)
    assert sum(float(np.sum(z)) for zs in traj.z2_int for z in zs) == pytest.approx(s2, rel=1e-12)
    # tracking the integrals draws nothing from the stream
    untracked = simulate_replicas(init, p, lat, horizon, times, replicas, seed)
    assert stream_digest(untracked) == digest
    assert untracked.z_int is None and untracked.z2_int is None


def test_simulate_replicas_independent_of_threads_and_blocks(monkeypatch):
    # 300 replicas run as two blocks; each must equal its own one-replica
    # block on replica_rng(seed, i) (blocks of one), for 1 and 2 threads
    n = 8
    p = p_interval(n, 1.0, 0.5)
    lat = Lattice.interval(n)
    with monkeypatch.context() as m:
        m.setattr(engine, "_BLOCK", 1)
        single = simulate_replicas(lambda rng: bernoulli_eta(n, rng), p, lat, 6.0, [2.0, 6.0],
                                   300, 4, track_exp_integrals=True)
    for threads in (1, 2):
        traj = simulate_replicas(lambda rng: bernoulli_eta(n, rng), p, lat, 6.0, [2.0, 6.0],
                                 300, 4, track_exp_integrals=True, threads=threads)
        # one replica-axis array per field
        assert traj.heights.shape == (300, 2, n + 1) and traj.heights.dtype == np.int64
        assert traj.event_count.shape == (300,) and traj.event_count.dtype == np.int64
        for z in (traj.z_int, traj.z2_int):
            assert z.shape == (300, 2, n + 1) and z.dtype == np.float64
        assert np.array_equal(traj.event_count, single.event_count)
        assert np.array_equal(traj.heights, single.heights)
        assert np.array_equal(traj.z_int, single.z_int)


def test_invalid_inputs():
    p = p_interval(4)
    lat = Lattice.interval(4)
    # a start needs N values +-1, one row per replica
    for start in (np.array([1, 0, -1, 1]), np.ones(5), np.ones((1, 4))):
        with pytest.raises(ValueError):
            simulate_replicas(lambda rng: start, p, lat, 1.0, [1.0], 1, 1)
    with pytest.raises(ValueError):
        simulate_replicas(lambda rng: np.array([1, -1, 1, -1]), p, lat, 1.0, [0.5, 0.2], 1, 1)
    with pytest.raises(ValueError):
        Lattice("ring", 4)
