"""Mild-solution sampler for the stochastic heat equation with Robin
boundaries, deterministic moment oracles, and the ASEP comparison harness.

The sampler applies the exact discrete Robin propagator every step to the
Ito update Z <- P [Z (1 + xi)], with xi iid N(0, dt/dX) per site, which
keeps the boundary condition exact and confines the scheme error to the
noise term.  The propagator comes from the grid Laplacian's spectral data
with mu = 1 - dX * slope, the lattice version of dZ = A Z dX at the wall.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .engine import (_BLOCK, Lattice, Trajectory, bernoulli_eta, map_replica_blocks,
                     simulate_replicas, z_field)
from .kernels import SpectralData, interval_kernel_spectral, solve_interval_spectrum
from .params import ModelParams, build_params

_REFILL = 16           # most steps of normals one refill draws per stream
COMPARE_GRID_CELLS = 64  # cells of the SHE grid `compare` reads its oracles on
# the header of compare.csv: each `compare` table block's lead (epsilon, T), then its columns
COMPARE_COLUMNS = ["epsilon", "T", "X", "asep_mean", "she_mean", "mean_gap",
                   "asep_var", "she_var", "var_gap", "mc_sigma"]

__all__ = [
    "SheGrid",
    "FieldPath",
    "TestFunction",
    "build_grid",
    "sample_she",
    "sample_she_ensemble",
    "mean_field",
    "second_moment",
    "robin_test_function",
    "martingale_functionals",
    "martingale_diagnostics",
    "run_interval_ensemble",
    "compare",
    "lognormal_mean",
    "lognormal_second_moment",
    "lognormal_sampler",
]


@dataclass(frozen=True)
class SheGrid:
    """Uniform grid on [0, length] with M cells; spec is the grid Laplacian's
    spectral data with mu = 1 - dX * slope at each wall.

    Stability of the noise term requires dt <= dX^2 / 2 (the propagator
    itself is exact).  micro_time(T) = T / dX^2 converts a macroscopic time
    to the grid Laplacian's clock.
    """

    length: float
    m: int
    dt: float
    spec: SpectralData = field(repr=False)

    @property
    def dx(self) -> float:
        return self.length / self.m

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.m + 1)

    def micro_time(self, T: float) -> float:
        return T / (self.dx * self.dx)

    def propagator(self, T: float) -> np.ndarray:
        """Exact Robin propagator over macroscopic time T on the grid."""
        return interval_kernel_spectral(self.spec, self.micro_time(T))


def build_grid(length: float, m: int, robin_a: float, robin_b: float,
               dt: float | None = None) -> SheGrid:
    if m < 8:
        raise ValueError("grid needs at least 8 cells")
    dx = length / m
    if dt is None:
        dt = dx * dx / 2.0
    if dt > dx * dx / 2.0 + 1e-15:
        raise ValueError(f"dt = {dt} violates the stability margin dX^2/2 = {dx*dx/2}")
    mu_a = 1.0 - dx * robin_a
    mu_b = 1.0 - dx * robin_b
    if not (0.0 < mu_a <= 1.0 and 0.0 < mu_b <= 1.0):
        raise ValueError("grid too coarse for the Robin slopes (mu outside (0,1])")
    spec = solve_interval_spectrum(m, mu_a, mu_b)
    return SheGrid(length=length, m=m, dt=dt, spec=spec)


@dataclass
class FieldPath:
    """Sampled paths of R replicas at the requested output times.

    values[r, k] is replica r's field at times[k]; faults[r] marks a replica
    with a step that drove some site of 1 + xi to 0 or below.
    """

    times: np.ndarray
    values: np.ndarray                   # (R, K, M + 1)
    faults: np.ndarray                   # (R,) bool


def _step_schedule(output_times, dt: float) -> list[list[float]]:
    """Per output segment, equal step sizes <= dt landing exactly on each time."""
    times = [0.0] + [float(t) for t in output_times]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("output times must be nondecreasing")
    segments = []
    for a, b in zip(times, times[1:]):
        n = max(1, math.ceil((b - a) / dt - 1e-12)) if b > a else 0
        segments.append([(b - a) / n] * n if n else [])
    return segments


def sample_she(z0, grid: SheGrid, n_replicas: int, master_seed, output_times,
               zero_noise: bool = False, threads: int = 1) -> FieldPath:
    """Ito paths of the multiplicative SHE on the grid, one per replica.

    Replica i draws from replica_rng(master_seed, i): its start z0(rng) when
    z0 is a sampler (else every replica starts at z0), then per step its
    normals, _REFILL steps at a time, scaled to xi ~ N(0, h/dX) per site.
    The noise multiplies the field before the exact propagator of the step
    (left-endpoint evaluation; steps are <= grid.dt and land exactly on the
    output times).  A step with any 1 + xi <= 0 marks the replica as faulted
    (counted by callers, never clamped).  zero_noise=True gives the mean flow.

    Each block of `map_replica_blocks` advances as one array by one matrix
    product per step, padded to _BLOCK rows: the BLAS sums a row by the
    product's shape, not by its neighbours, so a path depends on its stream
    alone, not on the thread count or the block split.
    """
    output_times = np.asarray(output_times, dtype=float)
    segments = _step_schedule(output_times, grid.dt)
    n_steps = sum(len(seg) for seg in segments)
    props = {h: grid.propagator(h).T for seg in segments for h in set(seg)}
    width = grid.m + 1

    def block(rngs):
        starts = np.array([z0(rng) for rng in rngs]) if callable(z0) else np.asarray(z0, float)
        if starts.shape[-1] != width or np.any(starts <= 0):
            raise ValueError("initial data must be positive and match the grid")
        b = len(rngs)
        z = np.zeros((_BLOCK, width))
        z[:b] = starts
        out = np.empty((b, len(output_times), width))
        faults = np.zeros(b, dtype=bool)
        noise = np.empty((b, _REFILL, width))
        pos, step = _REFILL, 0
        for k, seg in enumerate(segments):
            for h in seg:
                if not zero_noise:
                    if pos == _REFILL:
                        c = min(_REFILL, n_steps - step)
                        for rng, rows in zip(rngs, noise):
                            rng.standard_normal((c, width), out=rows[:c])
                        pos = 0
                    xi = noise[:, pos] * math.sqrt(h / grid.dx)
                    pos += 1
                    faults |= (xi <= -1.0).any(axis=1)
                    z[:b] *= 1.0 + xi
                z = z @ props[h]
                step += 1
            out[:, k] = z[:b]
        return out, faults

    parts = map_replica_blocks(block, n_replicas, master_seed, threads)
    return FieldPath(times=output_times, values=np.concatenate([p[0] for p in parts]),
                     faults=np.concatenate([p[1] for p in parts]))


def sample_she_ensemble(z0, grid: SheGrid, n_replicas: int, master_seed,
                        output_times, threads: int = 1) -> dict:
    """Moment accumulators over replicas; z0 may be an array or rng -> array sampler.

    Faulted replicas are excluded from the moments and counted; the fault
    rate must stay below 1e-3 at the default step size.
    """
    path = sample_she(z0, grid, n_replicas, master_seed, output_times, threads=threads)
    ok = path.values[~path.faults]
    faulted = int(path.faults.sum())
    return {
        "times": path.times,
        "mean": ok.mean(axis=0),
        "second_moment": (ok ** 2).mean(axis=0),
        "std_error": ok.std(axis=0, ddof=1) / math.sqrt(len(ok)),
        "n_effective": len(ok),
        "faulted": faulted,
        "fault_rate": faulted / n_replicas,
    }


def mean_field(z0: np.ndarray, grid: SheGrid, T: float) -> np.ndarray:
    """E[Z_T] = P^R_T z0 (the stochastic convolution has zero mean)."""
    if T < 0:
        raise ValueError("T must be >= 0")
    return grid.propagator(T) @ np.asarray(z0, dtype=float)


def second_moment(m2_0: np.ndarray, grid: SheGrid, T: float) -> np.ndarray:
    """Two-point function m2(T; X, X') = E[Z_T(X) Z_T(X')] of the sampler.

    One step Z <- P [Z (1 + xi)] with Var xi = h/dX maps the second moment
    exactly to m2 <- P (m2 + (h/dX) diag m2) P^T, so a single forward pass
    over the solver's time grid gives the discrete Duhamel form
    m2 = (P (x) P) m2(0) + sum_S (P_{T-S} (x) P_{T-S}) diag(m2(S)) h/dX
    with no truncation.
    """
    m2 = np.array(m2_0, dtype=float, order="C")
    (seg,) = _step_schedule([T], grid.dt)
    if not seg:
        return m2
    h = seg[0]
    P = grid.propagator(h)
    lam = h / grid.dx
    # each step rewrites m2 in place: its diagonal through a strided view,
    # then P m2 into one buffer and (P m2) P^T back into m2
    diag = m2.ravel()[::len(m2) + 1]
    noise = np.empty(len(m2))
    pm2 = np.empty_like(m2)
    for _ in seg:
        np.multiply(lam, diag, out=noise)
        diag += noise
        np.matmul(P, m2, out=pm2)
        np.matmul(pm2, P.T, out=m2)
    return m2


# ---------------------------------------------------------------------------
# test functions

@dataclass(frozen=True)
class TestFunction:
    """Smooth test function on [0, 1], read at the lattice sites."""

    fn: object
    label: str = ""

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def _robin_frequency(A: float, B: float, k: int) -> float:
    """The frequency of `robin_test_function(A, B, k)`: its secular equation's
    root in (k pi, (k+1) pi), bisected until the midpoint stops moving."""
    def secular(w):
        return (w * w - A * B) * math.sin(w) - (A + B) * w * math.cos(w)

    lo, hi = k * math.pi + 1e-9, (k + 1) * math.pi - 1e-9
    f_lo = secular(lo)
    if f_lo * secular(hi) > 0:
        raise ValueError(f"no Robin mode bracketed in (k pi, (k+1) pi) for k={k}")
    w = 0.5 * (lo + hi)
    while lo < w < hi:
        f = secular(w)
        if f == 0.0:
            break
        if (f > 0) == (f_lo > 0):
            lo = w
        else:
            hi = w
        w = 0.5 * (lo + hi)
    return w


def robin_test_function(A: float, B: float, k: int) -> TestFunction:
    """k-th trigonometric mode c1 cos(w X) + c2 sin(w X) with phi'(0) = A phi(0)
    and phi'(1) = -B phi(1): cos(k pi X) when A = B = 0.

    The frequencies solve the continuum secular equation
    (w^2 - AB) sin w = (A + B) w cos w, bisected inside (k pi, (k+1) pi);
    c1 = 1, c2 = A / w meets the left slope, and the root the right one.
    """
    if A == 0.0 and B == 0.0:
        return TestFunction(fn=(lambda x, k=k: np.cos(k * math.pi * x)),
                            label=f"cos({k} pi X)")
    w = _robin_frequency(A, B, k)
    c1, c2 = 1.0, A / w

    def fn(x, w=w, c1=c1, c2=c2):
        return c1 * np.cos(w * x) + c2 * np.sin(w * x)

    return TestFunction(fn=fn, label=f"robin mode {k}")


# ---------------------------------------------------------------------------
# microscopic martingale functionals

def martingale_functionals(traj: Trajectory, params: ModelParams,
                           phis: list[TestFunction]) -> np.ndarray:
    """values[r, j] = (N_T(phi_j), quadratic compensator gap) of replica r.

    N_T(phi) = (Z_t, phi)_eps - (Z_0, phi)_eps - (1/2) int_0^t (Lap Z_s, phi)_eps ds
    between the trajectory's first sample, which must be at time 0, and its
    last, t = eps^{-2} T, with the Robin-ghost Laplacian; the gap is
    N_T^2 - eps^2 int (Z_s^2, phi^2)_eps ds.  The time integrals are the
    trajectory's exact exponential integrals, so it must be sampled from
    params with track_exp_integrals=True; an untracked one raises ValueError.
    """
    if traj.z_int is None:
        raise ValueError("trajectory has no exponential integrals: sample it with "
                         "track_exp_integrals=True")
    if traj.sample_times[0] != 0.0:
        raise ValueError("trajectory must start with a sample at time 0")
    eps = params.epsilon
    w = np.stack([phi(eps * np.arange(traj.heights.shape[-1])) for phi in phis])
    # (Lap Z, phi) = sum_x phi(x) [Z(x-1) + Z(x+1) - 2 Z(x)] with the ghosts
    # Z(-1) = mu_A Z(0), Z(N+1) = mu_B Z(N), as weights on Z
    lap = -2.0 * w
    lap[:, 1:] += w[:, :-1]
    lap[:, :-1] += w[:, 1:]
    lap[:, 0] += params.mu_a * w[:, 0]
    lap[:, -1] += params.mu_b * w[:, -1]
    z_T = z_field(traj.heights[:, -1], traj.sample_times[-1], params)
    z_0 = z_field(traj.heights[:, 0], 0.0, params)
    n_T = eps * ((z_T - z_0) @ w.T) - 0.5 * eps * (traj.z_int[:, -1] @ lap.T)
    gap = n_T * n_T - eps * eps * (eps * (traj.z2_int[:, -1] @ (w * w).T))
    return np.stack([n_T, gap], axis=-1)


def _z_score(mean: float, se: float) -> float:
    # se = 0: every replica gave the same value (all zeros at T = 0), so the
    # mean is exact; a plain ratio would be 0/0
    if se > 0:
        return abs(mean) / se
    return 0.0 if mean == 0 else math.inf


def martingale_diagnostics(values: np.ndarray, phis: list[TestFunction],
                           T: float) -> list[dict]:
    """Ensemble means of N_T(phi) and of the quadratic gap, with z-scores.

    values[r, j] is the (N_T(phi_j), gap) pair of `martingale_functionals`
    for replica r.  A z-score is |mean| / se; with se = 0 (all replicas
    equal) it reads 0 for a zero mean and inf otherwise.
    """
    out = []
    m = len(values)
    for j, phi in enumerate(phis):
        n_vals, gaps = values[:, j, 0], values[:, j, 1]
        se_n = float(n_vals.std(ddof=1) / math.sqrt(m))
        se_gap = float(gaps.std(ddof=1) / math.sqrt(m))
        out.append({"phi": phi.label, "T": T, "n_replicas": m,
                    "mean_N": float(n_vals.mean()), "se_N": se_n,
                    "z_N": _z_score(float(n_vals.mean()), se_n),
                    "mean_gap": float(gaps.mean()), "se_gap": se_gap,
                    "z_gap": _z_score(float(gaps.mean()), se_gap)})
    return out


# ---------------------------------------------------------------------------
# ASEP vs SHE comparison

def lognormal_mean(x: np.ndarray) -> np.ndarray:
    """E Z0(X) = e^{X/2} for the Brownian exponential matched to Bernoulli(1/2)."""
    return np.exp(0.5 * np.asarray(x, dtype=float))


def lognormal_second_moment(x: np.ndarray) -> np.ndarray:
    """E[Z0(X) Z0(X')] = exp((X + X')/2 + min(X, X'))."""
    x = np.asarray(x, dtype=float)
    return np.exp(0.5 * (x[:, None] + x[None, :]) + np.minimum(x[:, None], x[None, :]))


def lognormal_sampler(grid: SheGrid):
    """Per-replica Z0(X) = exp(W(X)) with W a standard Brownian path on the grid."""
    def draw(rng: np.random.Generator) -> np.ndarray:
        incr = rng.normal(0.0, math.sqrt(grid.dx), size=grid.m)
        w = np.concatenate([[0.0], np.cumsum(incr)])
        return np.exp(w)
    return draw


# batch-means batches behind the variance standard error se_var: at most
# _VAR_BATCHES, and two batches of two, VAR_MIN_REPLICAS, at the least
_VAR_BATCHES, VAR_MIN_REPLICAS = 10, 4


def run_interval_ensemble(n: int, slope_a: float, slope_b: float, T: float,
                          n_replicas: int, master_seed, threads: int = 1,
                          martingale: bool = False) -> dict:
    """Bernoulli(1/2)-start interval ensemble, reduced to its moments and,
    with martingale=True, its martingale diagnostics at eps^{-2} T in one pass.

    The replicas are sampled by `simulate_replicas` to eps^{-2} T and
    reduced to their Z fields there.  Returns per-height-site arrays:
    empirical mean/variance of Z, their standard errors (variance errors
    via batch means), the exact kernel prediction of the mean,
    E Z_t = p^R_t cosh(sqrt(eps))^x, the sampler's clock rings, accepted
    moves and wall seconds under "rings", "events" and "sampler_s", and
    under "martingale" None or, with martingale=True, the
    `martingale_diagnostics` rows of the (N_T(phi), gap) pairs of
    `martingale_functionals` for phi = robin_test_function(A, B, k),
    k = 0, 1, 2 (cos(k pi X) when A = B = 0).  Only then does the sampler
    track the exponential integrals those read, which moves no stream.
    """
    eps = 1.0 / n
    params = build_params(eps, slope_a, slope_b)
    lattice = Lattice.interval(n)
    horizon = T / (eps * eps)
    spec = solve_interval_spectrum(n, params.mu_a, params.mu_b)
    phis = [robin_test_function(slope_a, slope_b, k) for k in (0, 1, 2)] if martingale else None

    t0 = time.perf_counter()
    traj = simulate_replicas(lambda rng: bernoulli_eta(n, rng), params, lattice, horizon,
                             [0.0, horizon], n_replicas, master_seed,
                             track_exp_integrals=martingale, threads=threads)
    sampler_s = time.perf_counter() - t0
    zs = z_field(traj.heights[:, 1], horizon, params)
    e_z0 = np.cosh(math.sqrt(eps)) ** np.arange(n + 1)
    pred = interval_kernel_spectral(spec, horizon) @ e_z0   # exact: E Z_t = p^R_t E Z_0
    m = zs.shape[0]
    if m >= VAR_MIN_REPLICAS:
        nb = min(_VAR_BATCHES, m // 2)
        bvars = np.stack([zs[b::nb].var(axis=0, ddof=1) for b in range(nb)])
        se_var = bvars.std(axis=0, ddof=1) / math.sqrt(nb)
    else:
        se_var = np.full(n + 1, np.nan)
    return {
        "eps": eps,
        "n": n,
        "mean": zs.mean(axis=0),
        "var": zs.var(axis=0, ddof=1),
        "se_mean": zs.std(axis=0, ddof=1) / math.sqrt(m),
        "se_var": se_var,
        "mean_prediction": pred,
        "n_replicas": m,
        "martingale": (martingale_diagnostics(martingale_functionals(traj, params, phis),
                                              phis, T) if martingale else None),
        "rings": int(traj.ring_count.sum()),
        "events": int(traj.event_count.sum()),
        "sampler_s": sampler_s,
    }


def compare(inverse_eps: list[int], slope_a: float, slope_b: float, T: float, x_points: int,
            replicas: int, seed, threads: int = 1) -> dict:
    """The `compare` pipeline.  Per n in inverse_eps, in that order, a
    `run_interval_ensemble` at seed (seed, n), the coarsest alone with its
    martingale diagnostics.  Then per ensemble, coarsest first, one block
    ((eps, T), columns) of the table, columns being the rest of
    COMPARE_COLUMNS as lists read at the sites j = round(X n) for
    X = linspace(0, 1, x_points), and its mean-channel check.  The X column
    is the site read, X_j = j eps, where the SHE variance is interpolated.
    The SHE side is mean_field and second_moment on a grid of
    COMPARE_GRID_CELLS cells from the moments of the lognormal Z0 = exp(W)
    matched to the Bernoulli(1/2) start.  Returns {"table", "diagnostics"
    (the coarsest's), "ensembles", "checks"}; checks maps each name to
    (passed, statistic): the largest z for a 3-sigma check, (coarse gap,
    fine gap, sigma) for var_gap_non_increasing.
    """
    def three_sigma(zs):
        return all(z <= 3.0 for z in zs), max(zs)

    ensembles = [run_interval_ensemble(n, slope_a, slope_b, T, replicas, (seed, n),
                                       threads=threads, martingale=(n == min(inverse_eps)))
                 for n in inverse_eps]
    coarse_first = sorted(ensembles, key=lambda e: e["eps"], reverse=True)
    diag = coarse_first[0]["martingale"]
    checks = {"martingale_mean_3sigma": three_sigma([r["z_N"] for r in diag]),
              "martingale_gap_3sigma": three_sigma([r["z_gap"] for r in diag])}
    grid = build_grid(1.0, COMPARE_GRID_CELLS, slope_a, slope_b)
    she_mean = mean_field(lognormal_mean(grid.x), grid, T)
    she_var = np.diag(second_moment(lognormal_second_moment(grid.x), grid, T)) - she_mean ** 2
    X = np.linspace(0.0, 1.0, x_points)
    table, var_gaps = [], []
    for e in coarse_first:
        j = np.round(X * e["n"]).astype(int)
        x_j = j * e["eps"]
        mean, pred, var = e["mean"][j], e["mean_prediction"][j], e["var"][j]
        var_ref = np.interp(x_j, grid.x, she_var)
        mean_gap, var_gap, sigma = np.abs(mean - pred), np.abs(var - var_ref), e["se_mean"][j]
        table.append(((e["eps"], T), [c.tolist() for c in (x_j, mean, pred, mean_gap, var,
                                                           var_ref, var_gap, sigma)]))
        checks[f"mean_channel_3sigma_eps_{e['eps']:.6g}"] = three_sigma(
            (mean_gap / np.maximum(sigma, 1e-300)).tolist())
        var_gaps.append((float(np.mean(var_gap)), np.mean(e["se_var"][j])))
    if len(ensembles) >= 2:
        (g_coarse, s_coarse), (g_fine, s_fine) = var_gaps[0], var_gaps[-1]
        sig = math.hypot(s_coarse, s_fine)
        checks["var_gap_non_increasing"] = (g_fine <= g_coarse + 2.0 * sig,
                                            (g_coarse, g_fine, sig))
    return {"table": table, "diagnostics": diag, "ensembles": ensembles, "checks": checks}
