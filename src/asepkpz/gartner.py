"""Exponential (Cole-Hopf) transform of the height function and its exact
discrete heat-equation structure.

Z_t(x) = exp(-lam h_t(x) + nu t) with lam = log(q/p)/2 and nu = p+q-1.
Under the two-parameter boundary family the drift of Z equals Laplacian/2
with ghost values Z(-1) = mu_A Z(0) and Z(N+1) = mu_B Z(N), exactly, for
every configuration (the tests check it per configuration with
`drift_identity_residual` in tests/oracles.py).
"""

from __future__ import annotations

import numpy as np

from .engine import Trajectory
from .params import ModelParams

__all__ = [
    "z_field",
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
