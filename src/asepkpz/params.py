"""Model parameters for open ASEP under weakly asymmetric scaling.

All microscopic rates derive from (epsilon, A, B): jump rates
p = e^{sqrt(eps)}/2, q = e^{-sqrt(eps)}/2 and boundary rates parameterized
by mu_A = 1 - eps*A, mu_B = 1 - eps*B through the one-parameter family

    alpha = p^{3/2} (sqrt(p) - mu_A sqrt(q)) / (p - q),
    gamma = q^{3/2} (sqrt(q) - mu_A sqrt(p)) / (q - p),

and likewise (beta, delta) from mu_B.  These satisfy alpha/p + gamma/q = 1
and beta/p + delta/q = 1 exactly, which is what makes the exponentiated
height function solve a discrete heat equation with Robin boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Phase",
    "ModelParams",
    "PhaseDiagnostics",
    "build_params",
    "params_from_mu",
    "boundary_rates_from_mu",
    "phase_point",
    "equal_density_mu",
    "expansion_audit",
]

# Absolute tolerance for classifying a point as lying on a phase boundary.
PHASE_BOUNDARY_TOL = 1e-12


class Phase(Enum):
    LOW_DENSITY = "LowDensity"
    HIGH_DENSITY = "HighDensity"
    MAXIMAL_CURRENT = "MaximalCurrent"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class ModelParams:
    """All microscopic rates plus the exponential-transform constants.

    lam = log(q/p)/2 < 0 and nu = p + q - 2 sqrt(pq); with the scaling
    choice pq = 1/4 so nu = p + q - 1.  epsilon is the scaling input itself
    (exactly 1/N on the interval), not lam^2 re-derived from (p, q), so that
    X = x eps lands on site x exactly.
    """

    p: float
    q: float
    alpha: float
    beta: float
    gamma: float
    delta: float
    mu_a: float
    mu_b: float
    lam: float
    nu: float
    epsilon: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            r = getattr(self, name)
            if r < 0:
                raise ValueError(f"negative boundary rate {name} = {r} (epsilon too large for slopes)")

    @classmethod
    def from_rates(cls, p, q, alpha, beta, gamma, delta) -> "ModelParams":
        """Raw-rate constructor, bypassing the two-parameter boundary family.

        Used by generator oracles with arbitrary rates; lam/nu are still
        derived from (p, q), and epsilon = lam^2.  mu's are back-computed
        from alpha, delta when possible, else set to nan.
        """
        lam = 0.5 * math.log(q / p) if (p > 0 and q > 0) else float("nan")
        nu = p + q - 2.0 * math.sqrt(p * q)
        spq = math.sqrt(p * q)
        mu_a = (p - alpha * (p - q) / p) / spq if spq > 0 else float("nan")
        mu_b = (q + delta * (p - q) / q) / spq if spq > 0 else float("nan")
        return cls(p=p, q=q, alpha=alpha, beta=beta, gamma=gamma, delta=delta,
                   mu_a=mu_a, mu_b=mu_b, lam=lam, nu=nu, epsilon=lam * lam)


def boundary_rates_from_mu(p: float, q: float, mu: float) -> tuple[float, float]:
    """Creation/annihilation pair (alpha, gamma) for one boundary parameter mu.

    Valid for mu in [sqrt(q/p), sqrt(p/q)]; the same formulas give
    (beta, delta) when mu = mu_B.
    """
    sp, sq = math.sqrt(p), math.sqrt(q)
    creation = p * sp * (sp - mu * sq) / (p - q)
    annihilation = q * sq * (sq - mu * sp) / (q - p)
    return creation, annihilation


def params_from_mu(epsilon: float, mu_a: float, mu_b: float) -> ModelParams:
    """Construct rates from explicit (mu_A, mu_B), allowing mu > 1.

    Nonnegativity of all four boundary rates requires
    mu in [sqrt(q/p), sqrt(p/q)] = [e^{-sqrt(eps)}, e^{sqrt(eps)}].
    Points with mu > 1 are valid ASEP parameters (e.g. the product-Bernoulli
    equal-density line) but lie outside the weakly asymmetric scaling class.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    se = math.sqrt(epsilon)
    p = 0.5 * math.exp(se)
    q = 0.5 * math.exp(-se)
    lo, hi = math.exp(-se), math.exp(se)
    for name, mu in (("mu_a", mu_a), ("mu_b", mu_b)):
        if not lo <= mu <= hi:
            raise ValueError(f"{name} = {mu} outside admissible [{lo}, {hi}] (negative rate)")
    alpha, gamma = boundary_rates_from_mu(p, q, mu_a)
    beta, delta = boundary_rates_from_mu(p, q, mu_b)
    return ModelParams(
        p=p, q=q, alpha=alpha, beta=beta, gamma=gamma, delta=delta,
        mu_a=mu_a, mu_b=mu_b,
        lam=-se, nu=p + q - 1.0, epsilon=epsilon,
    )


def build_params(epsilon: float, slope_a: float, slope_b: float = 0.0) -> ModelParams:
    """Every model rate from the scaling inputs (epsilon, A, B), with
    mu_A = 1 - epsilon A and mu_B = 1 - epsilon B.

    On the interval of N sites epsilon = 1/N; the half line has no right
    wall and keeps slope_b = 0.  The slopes must be >= 0 (the weakly
    asymmetric class); `params_from_mu` rejects epsilon <= 0 and a mu with
    a negative rate.
    """
    if slope_a < 0 or slope_b < 0:
        raise ValueError("slopes A, B must be nonnegative (mu > 1 modes unsupported)")
    return params_from_mu(epsilon, 1.0 - epsilon * slope_a, 1.0 - epsilon * slope_b)


@dataclass(frozen=True)
class PhaseDiagnostics:
    a_par: float
    b_par: float
    rho_a: float
    rho_b: float
    current: float
    phase: Phase


def phase_point(params: ModelParams) -> PhaseDiagnostics:
    """Phase-diagram location from the simplified density parameters.

    a = (mu_A sqrt(pq) - q) / (p - mu_A sqrt(pq)) and the mu_B analogue;
    rho_A = 1/(1+a), rho_B = b/(1+b).  Classification compares 1/a, 1/b
    against 1 with strict inequalities; anything inside PHASE_BOUNDARY_TOL
    of a tie is reported as Boundary.
    """
    p, q = params.p, params.q
    if not q < p:
        raise ValueError("phase diagram requires q < p")
    spq = math.sqrt(p * q)
    for name, mu in (("mu_a", params.mu_a), ("mu_b", params.mu_b)):
        if abs(p - mu * spq) < 1e-300:
            raise ZeroDivisionError(f"p == {name}*sqrt(pq): boundary of admissible mu range")
    a = (params.mu_a * spq - q) / (p - params.mu_a * spq)
    b = (params.mu_b * spq - q) / (p - params.mu_b * spq)
    rho_a = 1.0 / (1.0 + a)
    rho_b = b / (1.0 + b)
    ia, ib = 1.0 / a, 1.0 / b
    # the current is continuous across the boundaries, so it takes the non-strict
    # rule; the phase alone reads a tie within the tolerance as Boundary
    if ia <= min(ib, 1.0):
        current = rho_a * (1.0 - rho_a)
    elif ib <= min(ia, 1.0):
        current = rho_b * (1.0 - rho_b)
    else:
        current = 0.25
    tol = PHASE_BOUNDARY_TOL
    if ia < min(ib, 1.0) - tol:
        phase = Phase.LOW_DENSITY
    elif ib < min(ia, 1.0) - tol:
        phase = Phase.HIGH_DENSITY
    elif ia > 1.0 + tol and ib > 1.0 + tol:
        phase = Phase.MAXIMAL_CURRENT
    else:
        phase = Phase.BOUNDARY
    return PhaseDiagnostics(a_par=a, b_par=b, rho_a=rho_a, rho_b=rho_b,
                            current=current, phase=phase)


def equal_density_mu(epsilon: float, mu_b: float) -> float:
    """mu_A making the effective densities equal: mu_A = (p+q-mu_B sqrt(pq))/sqrt(pq).

    On this line the open ASEP invariant measure is product Bernoulli(rho_A).
    Note mu_A + mu_B = 2(p+q) > 2, so at least one mu exceeds 1: such points
    are valid ASEP parameters but sit outside the weakly asymmetric class.
    """
    se = math.sqrt(epsilon)
    p = 0.5 * math.exp(se)
    q = 0.5 * math.exp(-se)
    return 2.0 * (p + q) - mu_b


# quantity -> (small-eps expansion at (eps, A, B), remainder order as power of eps)
def _expansions(eps: float, A: float, B: float) -> dict[str, tuple[float, float]]:
    se = math.sqrt(eps)
    return {
        "p": (0.5 + 0.5 * se, 1.0),
        "q": (0.5 - 0.5 * se, 1.0),
        "alpha": (0.25 + (0.375 + 0.25 * A) * se, 1.0),
        "beta": (0.25 + (0.375 + 0.25 * B) * se, 1.0),
        "gamma": (0.25 - (0.375 + 0.25 * A) * se, 1.0),
        "delta": (0.25 - (0.375 + 0.25 * B) * se, 1.0),
        "a_par": (1.0 - (1.0 + 2.0 * A) * se, 1.0),
        "b_par": (1.0 - (1.0 + 2.0 * B) * se, 1.0),
        "rho_a": (0.5 + (0.25 + 0.5 * A) * se, 1.5),
        "rho_b": (0.5 - (0.25 + 0.5 * B) * se, 1.5),
    }


def expansion_audit(eps_grid, slope_a: float, slope_b: float) -> list[dict]:
    """Residuals of the small-eps expansions of all model quantities.

    For each quantity returns |exact - expansion| / eps^order; the ratios
    must stay bounded as eps decreases (no explicit constants exist, so the
    audit certifies boundedness, not a value).
    """
    rows = []
    for eps in eps_grid:
        params = build_params(eps, slope_a, slope_b)
        diag = phase_point(params)
        exact = {
            "p": params.p, "q": params.q,
            "alpha": params.alpha, "beta": params.beta,
            "gamma": params.gamma, "delta": params.delta,
            "a_par": diag.a_par, "b_par": diag.b_par,
            "rho_a": diag.rho_a, "rho_b": diag.rho_b,
        }
        for name, (approx, order) in _expansions(eps, slope_a, slope_b).items():
            resid = abs(exact[name] - approx)
            rows.append({
                "quantity": name,
                "epsilon": eps,
                "exact": exact[name],
                "expansion": approx,
                "residual": resid,
                "order": order,
                "ratio": resid / eps ** order,
            })
    return rows
