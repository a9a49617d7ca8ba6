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

from .engine import HeightField, Lattice, Trajectory, event_rates
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
    down, up = _height_moves(eta, params, lattice)
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


def bracket_rate(height: HeightField, t: float, params: ModelParams,
                 lattice: Lattice) -> np.ndarray:
    """Exact d<M(x)>/dt per height site, in absolute units.

    On the truncated half line the closed edge carries no martingale and is
    excluded (length L array).
    """
    rates = _bracket_over_z2(height.to_eta(), params, lattice)
    return rates * z_field(height, t, params).z[:len(rates)] ** 2


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
