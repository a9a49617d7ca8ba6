"""Exponential (Cole-Hopf) transform of the height function and its exact
discrete heat-equation structure.

Z_t(x) = exp(-lam h_t(x) + nu t) with lam = log(q/p)/2 and nu = p+q-1.
Under the two-parameter boundary family the drift of Z equals Laplacian/2
with ghost values Z(-1) = mu_A Z(0) and Z(N+1) = mu_B Z(N), exactly, for
every configuration; `drift_identity_residual` evaluates that identity in
ratio form (every term is O(1), so residuals sit at machine precision).
"""

from __future__ import annotations

import math

import numpy as np

from .engine import Lattice, Trajectory, event_rates
from .params import ModelParams

__all__ = [
    "z_field",
    "drift_identity_residual",
    "rescale",
]

_LOG_GUARD = 500.0


def z_field(h, t: float, params: ModelParams) -> np.ndarray:
    """Z(x) = exp(-lam h(x) + nu t) from an integer height array (any leading
    axes; t broadcasts against it).  Raises OverflowError where some
    |log Z| > 500, beyond which Z leaves the safe float range."""
    log_z = -params.lam * np.asarray(h).astype(float) + params.nu * t
    if np.max(np.abs(log_z)) > _LOG_GUARD:
        raise OverflowError("Z field exponent beyond safe range; work in log space")
    return np.exp(log_z)


def _height_moves(eta, params: ModelParams, lattice: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Total rates of the events lowering / raising h(x) by 2, per height site.

    Lowering h(x) multiplies Z(x) by q/p, raising it by p/q: creation at
    site 1 and a right jump across bond (x, x+1) lower h(0) and h(x),
    annihilation at site N lowers h(N); the reverse events raise them.  The
    closed edge of the truncated half line moves nothing (x = 0..L-1 only).
    """
    r = event_rates(eta, params, lattice)
    down = [[r.create_left], r.right]
    up = [[r.annihilate_left], r.left]
    if lattice.has_right_reservoir:
        down.append([r.annihilate_right])
        up.append([r.create_right])
    return np.concatenate(down), np.concatenate(up)


def drift_identity_residual(eta: np.ndarray, params: ModelParams,
                            lattice: Lattice) -> np.ndarray:
    """Relative residual Omega(x) - Laplacian(Z)(x) / (2 Z(x)) per height site.

    Omega(x) collects nu plus the jump factors (q/p - 1), (p/q - 1) times
    the rates of the events moving h(x), read from `event_rates`; the
    Laplacian uses the exact bond ratios Z(x+-1)/Z(x) = exp(-+ lam eta) and
    the ghost values mu_A Z(0), mu_B Z(N).  Under the boundary
    parameterization every entry vanishes for every configuration.  On the
    truncated half line the artificial closed edge is excluded (the
    returned array covers x = 0..L-1).
    """
    down, up = _height_moves(eta, params, lattice)
    eta = np.asarray(eta, dtype=float)
    n = lattice.n_sites
    lam, p, q = params.lam, params.p, params.q
    omega = params.nu + (q / p - 1.0) * down + (p / q - 1.0) * up
    lap = np.empty_like(omega)
    lap[0] = params.mu_a - 2.0 + math.exp(-lam * eta[0])
    # interior x = 1..n-1
    lap[1:n] = np.exp(lam * eta[:-1]) + np.exp(-lam * eta[1:]) - 2.0
    if lattice.has_right_reservoir:
        lap[n] = math.exp(lam * eta[-1]) - 2.0 + params.mu_b
    return omega - 0.5 * lap


def rescale(traj: Trajectory, params: ModelParams, T_list, X_list) -> np.ndarray:
    """Scaled fields Z_{eps^{-2} T}(eps^{-1} X), indexed [replica, T, X].

    Every requested T must match a sampled microscopic time eps^{-2} T (to
    float tolerance) and every eps^{-1} X must lie inside the lattice.
    Between sites the field is interpolated linearly by np.interp's formula.
    """
    eps = params.epsilon
    x_micro = np.asarray(X_list, dtype=float) / eps
    n_heights = traj.heights.shape[-1]
    if np.any(x_micro < -1e-9) or np.any(x_micro > n_heights - 1 + 1e-9):
        raise ValueError("requested X outside the trajectory's lattice")
    times = np.asarray(traj.sample_times)
    idx = []
    for T in T_list:
        t_micro = T / (eps * eps)
        i = int(np.argmin(np.abs(times - t_micro)))
        if abs(times[i] - t_micro) > 1e-6 * max(1.0, t_micro):
            raise ValueError(f"macroscopic time {T} not among sampled times")
        idx.append(i)
    z = z_field(traj.heights[:, idx], times[idx, None], params)
    j = np.clip(np.searchsorted(np.arange(n_heights), x_micro, side="right") - 1,
                0, n_heights - 2)
    # np.take keeps z's C order (z[..., j] would not), so a mean over the
    # replicas adds them as it does on one T's (replica, X) slice
    lo, hi, edge = (np.take(z, k, axis=-1)
                    for k in (j, j + 1, np.where(x_micro < 0, 0, n_heights - 1)))
    inside = (x_micro >= 0) & (x_micro < n_heights - 1)
    return np.where(inside, (hi - lo) * (x_micro - j) + lo, edge)
