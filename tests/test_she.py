import math

import numpy as np
import pytest

import asepkpz.engine as eng
from asepkpz.engine import z_field
from asepkpz.kernels import interval_kernel_spectral
from asepkpz.params import build_params
from asepkpz.she import (COMPARE_COLUMNS, COMPARE_GRID_CELLS, _robin_frequency, _step_schedule,
                         build_grid, compare, lognormal_mean, lognormal_sampler,
                         lognormal_second_moment, martingale_functionals, mean_field,
                         robin_test_function, run_interval_ensemble, sample_she,
                         sample_she_ensemble, second_moment)

from oracles import second_moment_loop


def test_grid_validation():
    with pytest.raises(ValueError):
        build_grid(1.0, 4, 0.0, 0.0)          # M >= 8
    with pytest.raises(ValueError):
        build_grid(1.0, 32, 0.0, 0.0, dt=1.0)  # stability margin
    with pytest.raises(ValueError):
        build_grid(1.0, 8, 20.0, 0.0)          # mu <= 0 on this grid
    g = build_grid(1.0, 16, 1.0, 2.0)
    assert g.dt == g.dx * g.dx / 2.0


def test_zero_noise_equals_mean_field():
    grid = build_grid(1.0, 16, 1.0, 0.5)
    z0 = 1.0 + 0.3 * np.sin(np.pi * grid.x)
    path = sample_she(z0, grid, 1, 7, [0.03, 0.1], zero_noise=True)
    for i, T in enumerate([0.03, 0.1]):
        assert np.max(np.abs(path.values[0, i] - mean_field(z0, grid, T))) <= 1e-12


def test_seed_determinism():
    grid = build_grid(1.0, 16, 0.0, 0.0)
    z0 = np.ones(17)
    a = sample_she(z0, grid, 1, 42, [0.05])
    b = sample_she(z0, grid, 1, 42, [0.05])
    c = sample_she(z0, grid, 1, 43, [0.05])
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_neumann_mean_within_3sigma_of_one():
    grid = build_grid(1.0, 32, 0.0, 0.0)
    z0 = np.ones(33)
    st = sample_she_ensemble(z0, grid, 800, 99, [0.1])
    z = np.abs(st["mean"][0] - 1.0) / st["std_error"][0]
    assert np.max(z) <= 3.0
    assert st["fault_rate"] < 1e-3


def test_mean_field_identity_and_eigenmode():
    grid = build_grid(1.0, 24, 1.0, 1.0)
    z0 = 1.0 + 0.2 * np.cos(np.pi * grid.x)
    assert np.array_equal(mean_field(z0, grid, 0.0), z0)
    # ground eigenvector decays at exactly exp(-lambda_0 * micro time)
    psi0 = grid.spec.eigvecs[:, 0]
    out = mean_field(psi0, grid, 0.05)
    decay = math.exp(-grid.spec.lambdas[0] * grid.micro_time(0.05))
    assert np.max(np.abs(out - decay * psi0)) <= 1e-12
    # Neumann conserves total mass
    gn = build_grid(1.0, 24, 0.0, 0.0)
    z0 = 1.0 + 0.5 * np.cos(np.pi * gn.x) ** 2
    assert abs(mean_field(z0, gn, 0.2).sum() - z0.sum()) <= 1e-10


def test_propagator_consistency_and_semigroup():
    grid = build_grid(1.0, 16, 1.0, 2.0)
    P = grid.propagator(0.01)
    K = interval_kernel_spectral(grid.spec, grid.micro_time(0.01))
    assert np.max(np.abs(P - K)) <= 1e-10
    assert np.max(np.abs(P @ P - grid.propagator(0.02))) <= 1e-10


def test_second_moment_zero_noise_and_symmetry():
    grid = build_grid(1.0, 16, 0.0, 0.0)
    z0 = 1.0 + 0.1 * np.cos(np.pi * grid.x)
    # dropping the noise integral: homogeneous part is mean (x) mean
    m2 = second_moment(np.outer(z0, z0), grid, 0.04)
    assert np.max(np.abs(m2 - m2.T)) <= 1e-10
    mf = mean_field(z0, grid, 0.04)
    # with noise, the diagonal strictly dominates the squared mean
    assert np.all(np.diag(m2) >= mf ** 2 - 1e-12)
    with pytest.raises(ValueError):
        second_moment(np.eye(200), build_grid(1.0, 16, 0.0, 0.0), 0.01)


@pytest.mark.parametrize("robin_a, robin_b", [(0.0, 0.0), (1.0, 0.5), (2.0, 0.0)])
def test_second_moment_matches_diag_matrix_form(robin_a, robin_b):
    # the noise term added on the diagonal in place is the same float operation
    # as adding the matrix diag(diag m2): the recursion is bit-identical
    grid = build_grid(1.0, 32, robin_a, robin_b)
    m2 = m2_0 = lognormal_second_moment(grid.x)
    (seg,) = _step_schedule([0.05], grid.dt)
    P = grid.propagator(seg[0])
    for _ in seg:
        m2 = P @ (m2 + seg[0] / grid.dx * np.diag(np.diag(m2))) @ P.T
    assert np.array_equal(second_moment(m2_0, grid, 0.05), m2)
    # the in-place recursion on preallocated buffers is the fresh-array loop's
    assert np.array_equal(second_moment(m2_0, grid, 0.05), second_moment_loop(m2_0, grid, 0.05))


def test_second_moment_large_grid():
    # M > 128: the one-pass recursion holds one matrix, so no size cap
    grid = build_grid(1.0, 160, 0.0, 0.0)
    z0 = lognormal_mean(grid.x)
    m2 = second_moment(lognormal_second_moment(grid.x), grid, 0.002)
    assert m2.shape == (161, 161)
    assert np.all(np.isfinite(m2))
    assert np.max(np.abs(m2 - m2.T)) <= 1e-12 * np.max(np.abs(m2))
    assert np.all(np.diag(m2) >= mean_field(z0, grid, 0.002) ** 2)


def test_second_moment_against_monte_carlo():
    grid = build_grid(1.0, 32, 0.0, 0.0)
    z0 = np.ones(33)
    m2 = second_moment(np.outer(z0, z0), grid, 0.05)
    zs = sample_she(z0, grid, 4000, 7, [0.05]).values[:, 0]
    z2 = zs ** 2
    se = z2.std(axis=0, ddof=1) / math.sqrt(len(zs))
    zscore = np.abs(z2.mean(axis=0) - np.diag(m2)) / se
    assert np.max(zscore) <= 3.0


def test_second_moment_noise_power():
    # One statistic, fixed in advance: the site average of Z_T^2, against the
    # oracle's diagonal mean, within 3 SE of the per-replica site averages.
    # The oracle is the exact law of the unclamped update, so every replica
    # counts, faulted or not.  A copy of the oracle with its noise factor
    # h/dX scaled by 0.9 sits about 6 SE off at this size.
    grid = build_grid(1.0, 16, 0.0, 0.0)
    z0 = np.ones(17)
    m2 = second_moment(np.outer(z0, z0), grid, 0.2)
    site_avg = (sample_she(z0, grid, 40000, 7, [0.2]).values[:, 0] ** 2).mean(axis=1)
    se = site_avg.std(ddof=1) / math.sqrt(len(site_avg))
    assert abs(site_avg.mean() - np.diag(m2).mean()) <= 3.0 * se


def _per_replica_paths(z0, grid, replicas, seed, times):
    """The sampler one replica at a time: Z <- P_h [Z (1 + xi)] by gemv,
    xi = rng.normal(0, sqrt(h/dX)) per step on replica_rng(seed, i)."""
    values, faults = [], []
    for i in range(replicas):
        rng = eng.replica_rng(seed, i)
        z = z0(rng) if callable(z0) else z0.copy()
        out, fault = [], False
        for seg in _step_schedule(times, grid.dt):
            for h in seg:
                xi = rng.normal(0.0, math.sqrt(h / grid.dx), size=grid.m + 1)
                fault |= bool(np.any(xi <= -1.0))
                z = grid.propagator(h) @ (z * (1.0 + xi))
            out.append(z)
        values.append(out)
        faults.append(fault)
    return np.array(values), np.array(faults)


def test_she_paths_match_per_replica_loop():
    # 300 replicas run as two blocks; each path matches its own per-replica
    # loop on the same stream up to the summation order of gemm vs gemv, and
    # does not depend on the thread count or on the replicas beside it
    grid = build_grid(1.0, 32, 1.0, 0.5)
    z0 = lognormal_sampler(grid)
    times = [0.02, 0.05]
    ref, ref_faults = _per_replica_paths(z0, grid, 300, 3, times)
    paths = [sample_she(z0, grid, 300, 3, times, threads=t) for t in (1, 2)]
    assert paths[0].values.shape == (300, 2, 33) and paths[0].faults.shape == (300,)
    assert np.array_equal(paths[0].values, paths[1].values)
    assert np.array_equal(paths[0].faults, paths[1].faults)
    assert np.array_equal(paths[0].faults, ref_faults)
    assert np.all(np.abs(paths[0].values - ref) <= 1e-12 * np.abs(ref))
    assert np.array_equal(sample_she(z0, grid, 1, 3, times).values[0], paths[0].values[0])

    # M = 8 to T = 0.5: sqrt(h/dX) = 1/4, so a few replicas fault; the
    # ensemble drops exactly those from its moments
    grid = build_grid(1.0, 8, 0.0, 0.0)
    z0 = np.ones(9)
    ref, ref_faults = _per_replica_paths(z0, grid, 300, 11, [0.5])
    path = sample_she(z0, grid, 300, 11, [0.5])
    assert np.array_equal(path.faults, ref_faults) and 0 < ref_faults.sum() < 20
    scale = np.abs(ref).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(path.values - ref) <= 1e-12 * scale)
    st = sample_she_ensemble(z0, grid, 300, 11, [0.5])
    ok = ref[~ref_faults]
    assert st["n_effective"] == len(ok) == 300 - ref_faults.sum()
    assert st["fault_rate"] == ref_faults.sum() / 300
    for key, want in (("mean", ok.mean(axis=0)), ("second_moment", (ok ** 2).mean(axis=0)),
                      ("std_error", ok.std(axis=0, ddof=1) / math.sqrt(len(ok)))):
        assert np.all(np.abs(st[key] - want) <= 1e-12 * np.abs(want)), key


def test_grid_refinement_within_error_bar():
    # halving dt moves the T = 0.1 mean estimate by less than the MC error
    z0 = np.ones(17)
    g1 = build_grid(1.0, 16, 0.0, 0.0)
    g2 = build_grid(1.0, 16, 0.0, 0.0, dt=g1.dt / 2)
    s1 = sample_she_ensemble(z0, g1, 600, 5, [0.1])
    s2 = sample_she_ensemble(z0, g2, 600, 6, [0.1])
    se = np.hypot(s1["std_error"][0], s2["std_error"][0])
    assert np.max(np.abs(s1["mean"][0] - s2["mean"][0]) / se) <= 3.0


def test_halfline_style_grid_doubling():
    # truncated half-line grid: Robin at 0, artificial Neumann right edge;
    # doubling the domain must not move the solution near the wall
    z0_fn = lambda x: 1.0 + 0.5 * np.exp(-4.0 * x)
    g1 = build_grid(2.0, 32, 1.0, 0.0)
    g2 = build_grid(4.0, 64, 1.0, 0.0)
    m1 = mean_field(z0_fn(g1.x), g1, 0.1)
    m2 = mean_field(z0_fn(g2.x), g2, 0.1)
    near_wall = slice(0, 17)  # X in [0, 1]
    assert np.max(np.abs(m1[near_wall] - m2[near_wall])) <= 1e-6


def boundary_slope_errors(phi, A: float, B: float, h: float = 2e-4) -> tuple:
    """(|phi'(0) - A phi(0)|, |phi'(1) + B phi(1)|), each derivative by the 5-point
    one-sided stencil, whose error is h^4 |phi^(5)| / 5 (below 1e-10 for w <= 4 pi)."""
    def one_sided(x0, sgn):
        f = phi(x0 + sgn * h * np.arange(5))
        return sgn * (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * h)
    return (abs(one_sided(0.0, 1) - A * float(phi(0.0))),
            abs(one_sided(1.0, -1) + B * float(phi(1.0))))


def test_test_function_boundary_slopes():
    # the A = B = 0 modes are cos(k pi X); a mode shifted off k pi breaks the right slope
    for k in (0, 1, 2):
        phi = robin_test_function(0.0, 0.0, k)
        assert phi.label == f"cos({k} pi X)"
        x = np.linspace(0.0, 1.0, 7)
        assert np.array_equal(phi(x), np.cos(k * math.pi * x))
        assert max(boundary_slope_errors(phi, 0.0, 0.0)) <= 1e-8
        if k:
            shifted = lambda x, k=k: np.cos((k * math.pi + 1e-6) * x)
            assert max(boundary_slope_errors(shifted, 0.0, 0.0)) > 1e-8


def test_robin_frequencies_match_brentq():
    # the bisected roots against scipy's brentq on the same bracket, and each mode's
    # slopes against the stencil; a mode with c2 = A / w off by 1% or w off by 1e-6
    # breaks them
    from scipy.optimize import brentq
    for A, B in ((1.0, 2.0), (1.0, 1.0), (0.5, 2.0), (2.0, 0.5), (0.0, 1.0), (1.0, 0.0),
                 (3.0, 3.0), (0.1, 0.2)):
        def secular(w):
            return (w * w - A * B) * math.sin(w) - (A + B) * w * math.cos(w)
        for k in range(4):
            ref = brentq(secular, k * math.pi + 1e-9, (k + 1) * math.pi - 1e-9, xtol=1e-14)
            w = _robin_frequency(A, B, k)
            assert abs(w - ref) <= 4e-15, (A, B, k)
            assert max(boundary_slope_errors(robin_test_function(A, B, k), A, B)) <= 1e-8
            planted = [(w + 1e-6, A / w)] + ([(w, 1.01 * A / w)] if A else [])
            for w_, c2 in planted:
                wrong = lambda x, w_=w_, c2=c2: np.cos(w_ * x) + c2 * np.sin(w_ * x)
                assert max(boundary_slope_errors(wrong, A, B)) > 1e-8, (A, B, k, w_, c2)
    # negative slopes with AB > 1 give the k = 0 mode no root in (0, pi)
    with pytest.raises(ValueError, match="no Robin mode"):
        robin_test_function(-3.0, -3.0, 0)


def test_martingale_functionals_zero_at_t0():
    n = 16
    params = build_params(1 / n, 0.0, 0.0)
    for seed in range(3):
        start = eng.bernoulli_eta(n, seed)
        tr = eng.simulate_replicas(lambda rng: start, params, eng.Lattice.interval(n), 0.0,
                                   [0.0, 0.0], 1, seed,
                                   track_exp_integrals=True)
        values = martingale_functionals(tr, params, [robin_test_function(0.0, 0.0, 0)])
        assert values.tolist() == [[[0.0, 0.0]]]
    # the in-task reduction of all-zero values is defined (0 sigma), not 0/0
    for r in run_interval_ensemble(n, 0.0, 0.0, 0.0, 3, 11, martingale=True)["martingale"]:
        assert all(math.isfinite(v) for v in r.values() if isinstance(v, float))
        assert r["z_N"] == 0.0 and r["z_gap"] == 0.0


def test_martingale_exact_integrals_match_trapezoid():
    n = 16
    eps = 1.0 / n
    params = build_params(1 / n, 0.0, 0.0)
    lat = eng.Lattice.interval(n)
    T = 0.05
    horizon = T / (eps * eps)
    init = eng.bernoulli_eta(n, 3)
    dense = np.linspace(0.0, horizon, 2001)
    tr = eng.simulate_replicas(lambda rng: init, params, lat, horizon, dense, 1, 5,
                               track_exp_integrals=True)
    zs = z_field(tr.heights[0], dense[:, None], params)
    trapezoid = np.trapezoid(zs, dense, axis=0)
    # Tolerance: on a snapshot interval of width dt the trapezoid rule misses
    # the integral of Z(x) by at most dt/2 times Z(x)'s variation there, so
    # by dt/2 TV(Z(x)) over the run.  TV(Z(x)) is its jumps, one per event
    # moving h(x) (at most all K events) and each at most
    # (1 - e^{-2|lam|}) Z_max, plus |nu| int Z.  Against int Z >= t Z_min:
    #   error / int Z <= dt/2 (K (1 - e^{-2|lam|}) Z_max/Z_min / t + |nu|),
    # with Z_max/Z_min read off the snapshots: 1.2e-2 for this run.
    dt = dense[1] - dense[0]
    z_ratio = float(np.max(zs.max(axis=0) / zs.min(axis=0)))
    rel_tol = dt / 2 * (tr.event_count[0] * -math.expm1(-2 * abs(params.lam)) * z_ratio / horizon
                        + abs(params.nu))
    assert rel_tol <= 2e-2
    assert np.all(np.abs(trapezoid - tr.z_int[0, -1]) <= rel_tol * tr.z_int[0, -1])
    # the martingale functionals read only the exact integrals, from a first sample at t = 0
    untracked = eng.simulate_replicas(lambda rng: init, params, lat, horizon, dense, 1, 5)
    with pytest.raises(ValueError, match="exponential integrals"):
        martingale_functionals(untracked, params, [robin_test_function(0.0, 0.0, 1)])
    late = eng.simulate_replicas(lambda rng: init, params, lat, horizon, dense[1:], 1, 5,
                                 track_exp_integrals=True)
    with pytest.raises(ValueError, match="time 0"):
        martingale_functionals(late, params, [robin_test_function(0.0, 0.0, 1)])


def test_martingale_functionals_match_per_replica_formula():
    # A = 1, B = 2 puts both ghost terms in play; 300 replicas span two
    # sampler blocks.  The reference evaluates the docstring formula one
    # replica and one test function at a time with np.dot.  N_T is a
    # difference of O(1) terms, so each column is compared relative to its
    # largest entry.
    n, T, replicas = 16, 0.05, 300
    params = build_params(1 / n, 1.0, 2.0)
    eps = params.epsilon
    horizon = T * n * n
    traj = eng.simulate_replicas(lambda rng: eng.bernoulli_eta(n, rng), params,
                                 eng.Lattice.interval(n), horizon, [0.0, horizon], replicas, 21,
                                 track_exp_integrals=True)
    phis = [robin_test_function(1.0, 2.0, k) for k in (0, 1, 2)]
    values = martingale_functionals(traj, params, phis)
    assert values.shape == (replicas, 3, 2)
    ref = np.empty_like(values)
    for j, phi in enumerate(phis):
        w = phi(eps * np.arange(n + 1))
        # ghost Laplacian as weights: Z(-1) = mu_A Z(0), Z(N+1) = mu_B Z(N)
        lap = np.array([(w[x - 1] if x > 0 else params.mu_a * w[0]) - 2.0 * w[x]
                        + (w[x + 1] if x < n else params.mu_b * w[n]) for x in range(n + 1)])
        for r in range(replicas):
            z_t = z_field(traj.heights[r, 1], horizon, params)
            z_0 = z_field(traj.heights[r, 0], 0.0, params)
            n_t = (eps * np.dot(w, z_t) - eps * np.dot(w, z_0)
                   - 0.5 * eps * np.dot(lap, traj.z_int[r, 1]))
            ref[r, j] = n_t, n_t * n_t - eps ** 3 * np.dot(w * w, traj.z2_int[r, 1])
    scale = np.abs(ref).max(axis=0)
    assert np.all(np.abs(values - ref) <= 1e-12 * scale)
    assert np.all(scale > 0)


def test_martingale_diagnostics_small():
    ens = run_interval_ensemble(16, 0.0, 0.0, 0.1, 400, 123, martingale=True)
    for r in ens["martingale"][:2]:     # cos(0 pi X), cos(1 pi X)
        assert r["z_N"] <= 3.0
        assert r["z_gap"] <= 3.0


def test_lognormal_oracles():
    x = np.linspace(0, 1, 9)
    assert np.allclose(lognormal_mean(x), np.exp(x / 2))
    m2 = lognormal_second_moment(x)
    assert np.allclose(np.diag(m2), np.exp(2 * x))
    assert np.allclose(m2, m2.T)
    grid = build_grid(1.0, 16, 0.0, 0.0)
    draw = lognormal_sampler(grid)
    zs = np.stack([draw(np.random.default_rng(i)) for i in range(4000)])
    assert np.allclose(zs[:, 0], 1.0)  # pinned at X = 0
    se = zs[:, 1:].std(axis=0, ddof=1) / math.sqrt(len(zs))
    z = np.abs(zs[:, 1:].mean(axis=0) - lognormal_mean(grid.x)[1:]) / se
    assert np.max(z) <= 3.5


def test_ensemble_runner_deterministic_across_threads():
    # neither the thread count nor sampling the exponential integrals moves a
    # replica's stream: the moments and counts agree bit for bit
    a = run_interval_ensemble(12, 0.0, 0.0, 0.05, 40, 5, threads=1, martingale=True)
    assert len(a["martingale"]) == 3
    for threads, martingale in ((4, True), (1, False), (4, False)):
        b = run_interval_ensemble(12, 0.0, 0.0, 0.05, 40, 5, threads=threads,
                                  martingale=martingale)
        for key in ("mean", "var", "se_mean", "se_var"):
            assert np.array_equal(a[key], b[key])
        assert (a["rings"], a["events"]) == (b["rings"], b["events"])
        assert b["martingale"] == (a["martingale"] if martingale else None)


def test_compare_reads_the_she_variance_at_the_sites_read():
    # at n = 12 the X = 3/8, 5/8, 7/8 of a 9-point grid fall between sites:
    # each row reads site j = round(X n), and writes X_j = j eps and the SHE
    # variance interpolated at X_j, not at X; she_mean is the exact ASEP mean there
    T, X = 0.1, np.linspace(0.0, 1.0, 9)
    result = compare((12, 24), 0.0, 0.0, T, 9, 24, 5)
    grid = build_grid(1.0, COMPARE_GRID_CELLS, 0.0, 0.0)
    grid_mean = mean_field(lognormal_mean(grid.x), grid, T)
    she_var = np.diag(second_moment(lognormal_second_moment(grid.x), grid, T)) - grid_mean ** 2
    assert [lead for lead, _ in result["table"]] == [(1 / 12, T), (1 / 24, T)]
    for (_, columns), e in zip(result["table"], result["ensembles"]):
        col = dict(zip(COMPARE_COLUMNS[2:], map(np.array, columns)))
        j = np.round(X * e["n"]).astype(int)
        assert np.array_equal(col["X"], j * (1.0 / e["n"]))
        assert np.array_equal(col["asep_mean"], e["mean"][j])
        assert np.array_equal(col["asep_var"], e["var"][j])
        assert np.array_equal(col["she_mean"], e["mean_prediction"][j])
        assert np.array_equal(col["she_var"], np.interp(col["X"], grid.x, she_var))
    assert not np.array_equal(result["table"][0][1][0], X)   # n = 12 moved some X


def test_compare_at_time_zero_reads_no_gap_at_the_left_wall():
    # every replica starts with Z_0(0) = 1, and p_0 is the identity exactly, so
    # the X = 0 row's mean gap is 0: with sigma = 0 there, any gap, one ulp
    # too, fails the mean channel
    result = compare((8, 16), 0.0, 0.0, 0.0, 3, 8, 3)
    for _, columns in result["table"]:
        col = dict(zip(COMPARE_COLUMNS[2:], columns))
        assert col["X"][0] == 0.0 and col["mc_sigma"][0] == 0.0
        assert col["mean_gap"][0] == 0.0
