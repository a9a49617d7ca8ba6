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
from dataclasses import dataclass

import numpy as np

from .engine import HeightField, Lattice, Trajectory
from .params import ModelParams

__all__ = [
    "ZField",
    "ScaledField",
    "z_field",
    "drift_identity_residual",
    "BracketDecomposition",
    "bracket_rate",
    "bracket_decomposition",
    "rescale",
]

_LOG_GUARD = 500.0


@dataclass(frozen=True)
class ZField:
    """Per-site Z values with the log stored alongside for overflow safety."""

    log_z: np.ndarray
    t: float

    @property
    def z(self) -> np.ndarray:
        if np.max(np.abs(self.log_z)) > _LOG_GUARD:
            raise OverflowError("Z field exponent beyond safe range; work in log space")
        return np.exp(self.log_z)


@dataclass(frozen=True)
class ScaledField:
    """Macroscopic field values Z_{eps^{-2} T}(eps^{-1} X) on an X grid."""

    T: float
    X: np.ndarray
    values: np.ndarray


def z_field(h, t: float, params: ModelParams) -> ZField:
    """Z(x) = exp(-lam h(x) + nu t) from a HeightField or raw integer array."""
    harr = h.h if isinstance(h, HeightField) else np.asarray(h)
    log_z = -params.lam * harr.astype(float) + params.nu * t
    return ZField(log_z=log_z, t=t)


def drift_identity_residual(eta: np.ndarray, params: ModelParams,
                            lattice: Lattice) -> np.ndarray:
    """Relative residual Omega(x) - Laplacian(Z)(x) / (2 Z(x)) per height site.

    Omega(x) collects nu plus the jump factors (q/p - 1), (p/q - 1) times
    the rates of the events moving h(x); the Laplacian uses the exact bond
    ratios Z(x+-1)/Z(x) = exp(-+ lam eta) and the ghost values mu_A Z(0),
    mu_B Z(N).  Under the boundary parameterization every entry vanishes for
    every configuration.  On the truncated half line the artificial closed
    edge is excluded (the returned array covers x = 0..L-1).
    """
    eta = np.asarray(eta, dtype=float)
    n = lattice.n_sites
    if len(eta) != n:
        raise ValueError("configuration size does not match lattice")
    lam, nu, p, q = params.lam, params.nu, params.p, params.q
    e2l = q / p          # exp(2 lam)
    em2l = p / q
    n_out = n + 1 if lattice.has_right_reservoir else n
    res = np.empty(n_out)
    # x = 0
    if eta[0] == -1:
        omega0 = nu + (e2l - 1.0) * params.alpha
    else:
        omega0 = nu + (em2l - 1.0) * params.gamma
    res[0] = omega0 - 0.5 * (params.mu_a - 2.0 + math.exp(-lam * eta[0]))
    # interior x = 1..n-1: bond (x, x+1) events move h(x)
    e1 = eta[:-1]
    e2 = eta[1:]
    c_right = p / 4.0 * (1.0 + e1) * (1.0 - e2)
    c_left = q / 4.0 * (1.0 - e1) * (1.0 + e2)
    omega = nu + (e2l - 1.0) * c_right + (em2l - 1.0) * c_left
    lap = np.exp(lam * e1) + np.exp(-lam * e2) - 2.0
    res[1:n] = omega - 0.5 * lap
    if lattice.has_right_reservoir:
        if eta[-1] == 1:
            omega_n = nu + (e2l - 1.0) * params.beta
        else:
            omega_n = nu + (em2l - 1.0) * params.delta
        res[n] = omega_n - 0.5 * (math.exp(lam * eta[-1]) - 2.0 + params.mu_b)
    return res


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


def bracket_decomposition(eta: np.ndarray, params: ModelParams, lattice: Lattice,
                          x: int) -> BracketDecomposition:
    """Exact bracket rate and its small-eps split at height site x."""
    eta = np.asarray(eta)
    n = lattice.n_sites
    lam, p, q = params.lam, params.p, params.q
    eps = params.epsilon
    e2l, em2l = q / p, p / q
    if x == 0:
        r_plus = params.alpha / 2.0 * (1.0 - eta[0])
        r_minus = params.gamma / 2.0 * (1.0 + eta[0])
        rate = (e2l - 1.0) ** 2 * r_plus + (em2l - 1.0) ** 2 * r_minus
        grad = 0.0
        boundary = True
    elif x == n and lattice.has_right_reservoir:
        r_plus = params.delta / 2.0 * (1.0 - eta[-1])
        r_minus = params.beta / 2.0 * (1.0 + eta[-1])
        rate = (e2l - 1.0) ** 2 * r_minus + (em2l - 1.0) ** 2 * r_plus
        grad = 0.0
        boundary = True
    elif 1 <= x <= n - 1:
        e1, e2 = float(eta[x - 1]), float(eta[x])
        c_right = p / 4.0 * (1.0 + e1) * (1.0 - e2)
        c_left = q / 4.0 * (1.0 - e1) * (1.0 + e2)
        rate = (e2l - 1.0) ** 2 * c_right + (em2l - 1.0) ** 2 * c_left
        grad = (math.exp(-lam * e2) - 1.0) * (1.0 - math.exp(lam * e1))
        boundary = False
    else:
        raise ValueError(f"height site {x} outside the bracket domain")
    return BracketDecomposition(rate_over_z2=rate, eps=eps, grad_term_over_z2=grad,
                                remainder_over_z2=rate - eps + grad,
                                is_boundary=boundary)


def bracket_rate(height: HeightField, t: float, params: ModelParams,
                 lattice: Lattice) -> np.ndarray:
    """Exact d<M(x)>/dt per height site, in absolute units.

    On the truncated half line the closed edge carries no martingale and is
    excluded (length L array).
    """
    eta = height.to_eta()
    z = z_field(height, t, params).z
    n_out = len(z) if lattice.has_right_reservoir else len(z) - 1
    out = np.empty(n_out)
    for x in range(n_out):
        out[x] = bracket_decomposition(eta, params, lattice, x).rate_over_z2 * z[x] ** 2
    return out


def rescale(traj: Trajectory, params: ModelParams, T_list, X_list) -> list[ScaledField]:
    """Scaled fields Z_{eps^{-2} T}(eps^{-1} X) from trajectory snapshots.

    Every requested T must match a sampled microscopic time eps^{-2} T (to
    float tolerance) and every eps^{-1} X must lie inside the lattice.
    """
    eps = params.epsilon
    X = np.asarray(X_list, dtype=float)
    x_micro = X / eps
    n_heights = len(traj.heights[0])
    if np.any(x_micro < -1e-9) or np.any(x_micro > n_heights - 1 + 1e-9):
        raise ValueError("requested X outside the trajectory's lattice")
    times = np.asarray(traj.sample_times)
    out = []
    for T in T_list:
        t_micro = T / (eps * eps)
        i = int(np.argmin(np.abs(times - t_micro)))
        if abs(times[i] - t_micro) > 1e-6 * max(1.0, t_micro):
            raise ValueError(f"macroscopic time {T} not among sampled times")
        zf = z_field(traj.height_field(i), times[i], params)
        out.append(ScaledField(T=T, X=X, values=np.interp(x_micro,
                                                          np.arange(n_heights), zf.z)))
    return out
