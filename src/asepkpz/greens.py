"""Green's functions and the exact gradient-product cancellation.

The central object is

    F(x, xb) = sum_y int_0^infty grad+ p^R_t(x, y) grad+ p^R_t(xb, y) dt

which on the interval equals (1-c) on the diagonal and -c off it, with
0 <= c <= C eps, and on the half line is exactly the identity (c = 0).
F is computed by three routes: the spectral closed form
sum_k grad psi_k(x) grad psi_k(xb) / (2 lambda_k), the second difference of
the Green's function of -Laplacian/2, and the time integral of kernel
products (on the interval by one block matrix exponential, on the half line
by quadrature of Bessel image kernels).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .kernels import (SpectralData, solve_interval_spectrum, robin_laplacian_matrix,
                      halfline_robin_row, _support_radius)
from .quadrature import adaptive_quad, dyadic_panels, integrate_decaying

__all__ = [
    "GreenMatrix",
    "FMatrix",
    "green_matrix",
    "green_corner_closed_form",
    "halfline_green",
    "f_matrix",
    "c_closed_form",
    "key_identity",
    "f_matrix_quadrature",
    "halfline_key_quadrature",
    "c_star_estimate",
    "c_star_weighted",
    "summation_by_parts_audit",
]


# ---------------------------------------------------------------------------
# Green's functions

@dataclass(frozen=True)
class GreenMatrix:
    values: np.ndarray
    mu_a: float
    mu_b: float

    @property
    def n(self) -> int:
        return self.values.shape[0] - 1


def green_matrix(n: int, mu_a: float, mu_b: float) -> GreenMatrix:
    """Dense inverse of -Laplacian/2 with Robin ghost rows.

    Singular exactly in the Neumann-Neumann case (zero eigenvalue), which is
    reported rather than regularized.
    """
    if mu_a == 1.0 and mu_b == 1.0:
        raise np.linalg.LinAlgError("Neumann-Neumann operator is singular (zero mode)")
    L = robin_laplacian_matrix(n, mu_a, mu_b)
    G = np.linalg.solve(L, np.eye(n + 1))
    return GreenMatrix(values=G, mu_a=mu_a, mu_b=mu_b)


def green_corner_closed_form(n: int, mu_a: float, mu_b: float) -> float:
    """G(0,0) = 2 (N+1-N mu_B) / (N+2 - (N+1)(mu_A+mu_B) + N mu_A mu_B)."""
    den = n + 2 - (n + 1) * (mu_a + mu_b) + n * mu_a * mu_b
    if den == 0.0:
        raise ZeroDivisionError("Neumann-Neumann singularity: zero denominator")
    return 2.0 * (n + 1 - n * mu_b) / den


def halfline_green(x: int, y: int, mu_a: float) -> float:
    """Half-line Green's function: G(x, y) = 2/(1-mu_A) + 2 min(x, y)."""
    if not mu_a < 1.0:
        raise ZeroDivisionError("half-line Green's function requires mu_A < 1")
    return 2.0 / (1.0 - mu_a) + 2.0 * min(x, y)


# Independent cross-check, called only by the tests; not exported.
def halfline_green_limit(n_base: int, mu_a: float) -> float:
    """Numerical N -> infinity limit of the interval corner value at mu_B = 0.

    The direct value at finite N misses the limit by Theta(1/N); since the
    corner value is a Mobius function of h = 1/(N+1), its reciprocal is
    linear in h and a two-point linear extrapolation of 1/G to h = 0 takes
    the limit exactly (up to roundoff).
    """
    ns = (n_base, n_base // 2)
    hs = [1.0 / (m + 1) for m in ns]
    recips = [1.0 / green_corner_closed_form(m, mu_a, 0.0) for m in ns]
    slope = (recips[0] - recips[1]) / (hs[0] - hs[1])
    return 1.0 / (recips[0] - slope * hs[0])


# ---------------------------------------------------------------------------
# F matrix

@dataclass(frozen=True)
class FMatrix:
    values: np.ndarray     # shape (N, N), indices x, xb in {0..N-1}
    c: float
    green_route_gap: float  # max |spectral - Green second difference|


def f_matrix(spec: SpectralData) -> FMatrix:
    """F(x, xb) = sum_k grad+ psi_k(x) grad+ psi_k(xb) / (2 lambda_k).

    Also evaluated through the Green's function as
    (G(x,xb) + G(x+1,xb+1) - G(x+1,xb) - G(x,xb+1)) / 2 and the two routes'
    gap is recorded.  Rejected in the Neumann-Neumann case (lambda_0 = 0).
    """
    if spec.lambdas[0] < 1e-13:
        raise ValueError("lambda_0 ~ 0 (Neumann-Neumann): F is not defined by this route")
    D = spec.eigvecs[1:, :] - spec.eigvecs[:-1, :]
    F = (D / (2.0 * spec.lambdas)) @ D.T
    G = green_matrix(spec.n, spec.mu_a, spec.mu_b).values
    F_green = 0.5 * (G[:-1, :-1] + G[1:, 1:] - G[1:, :-1] - G[:-1, 1:])
    gap = float(np.max(np.abs(F - F_green)))
    off = -float(F[0, 1]) if spec.n >= 2 else 1.0 - float(F[0, 0])
    return FMatrix(values=F, c=off, green_route_gap=gap)


def c_closed_form(n: int, mu_a: float, mu_b: float) -> float:
    """c = 1 - F(0,0) from 2 F(0,0) = (mu_A-1)^2 G(0,0) + 2 mu_A."""
    if mu_a == 1.0 or mu_b == 1.0:
        return 0.0
    g00 = green_corner_closed_form(n, mu_a, mu_b)
    return 1.0 - (0.5 * (mu_a - 1.0) ** 2 * g00 + mu_a)


# ---------------------------------------------------------------------------
# quadrature routes

def f_matrix_quadrature(n: int, mu_a: float, mu_b: float,
                        t_cut: float | None = None, tol: float = 1e-9,
                        spec: SpectralData | None = None) -> dict:
    """Time-domain evaluation of F on the interval.

    F = D (int_0^{t_cut} e^{-2 t L} dt) D^T for all pairs at once.  The time
    integral is the upper-right block of one Pade matrix exponential of the
    block matrix [[-2L, I], [0, 0]] t_cut (Van Loan 1978), independent of
    the spectral route.  tol sets only t_cut, chosen so the spectral tail
    bound sum_k |grad psi_k|^2_max e^{-2 lam_0 t}/(2 lam_0) falls below
    tol/3; the returned value omits the tail, which is reported as the
    truncation certificate.
    """
    L = robin_laplacian_matrix(n, mu_a, mu_b)
    spec = spec if spec is not None else solve_interval_spectrum(n, mu_a, mu_b)
    lam0 = float(spec.lambdas[0])
    if lam0 < 1e-13:
        raise ValueError("Neumann-Neumann case has no spectral gap; c = 0 branch applies")
    D = spec.eigvecs[1:, :] - spec.eigvecs[:-1, :]
    amp = float((np.abs(D) ** 2).sum())  # bounds sum_k |grad psi_k(x) grad psi_k(xb)|
    if t_cut is None:
        t_cut = math.log(max(amp / (2.0 * lam0 * (tol / 3.0)), 10.0)) / (2.0 * lam0)
    m = n + 1
    block = np.zeros((2 * m, 2 * m))
    block[:m, :m] = -2.0 * t_cut * L
    block[:m, m:] = t_cut * np.eye(m)
    total = np.diff(np.diff(expm(block)[:m, m:], axis=0), axis=1)
    tail = amp * math.exp(-2.0 * lam0 * t_cut) / (2.0 * lam0)
    return {"F": total, "t_cut": t_cut, "tail_bound": tail}


def halfline_key_quadrature(x: int, xb: int, mu_a: float,
                            t_cut: float = 1.2e5, tol: float = 1e-8) -> dict:
    """sum_{y>=0} int grad+ p^R_t(x,y) grad+ p^R_t(xb,y) dt on the half line.

    The integrand decays only like t^{-3/2}, so after quadrature to t_cut the
    remaining tail is integrated from a power-law fit c1 t^{-3/2} + c2 t^{-2}
    + c3 t^{-5/2} over the last computed decade; the fit residual is reported
    as the tail uncertainty.
    """
    def integrand(t):
        if t == 0.0:
            return 2.0 if x == xb else (-1.0 if abs(x - xb) == 1 else 0.0)
        ymax = max(x, xb) + _support_radius(t) + 8
        gx = halfline_robin_row(t, x + 1, mu_a, ymax) - halfline_robin_row(t, x, mu_a, ymax)
        if xb == x:
            gxb = gx
        else:
            gxb = (halfline_robin_row(t, xb + 1, mu_a, ymax)
                   - halfline_robin_row(t, xb, mu_a, ymax))
        return float(np.dot(gx, gxb))

    total = adaptive_quad(integrand, 0.0, 1.0, tol=tol / 10.0)
    for a, b in dyadic_panels(1.0, t_cut):
        total += adaptive_quad(integrand, a, b, tol=tol / 40.0)

    # algebraic tail from a 3-term power-law fit on [t_cut/16, t_cut]
    ts = np.exp(np.linspace(math.log(t_cut / 16.0), math.log(t_cut), 25))
    ys = np.array([integrand(t) for t in ts])
    basis = np.vstack([ts ** -1.5, ts ** -2.0, ts ** -2.5]).T
    coef, *_ = np.linalg.lstsq(basis, ys, rcond=None)
    resid = float(np.max(np.abs(basis @ coef - ys)))
    tail = (coef[0] * 2.0 * t_cut ** -0.5 + coef[1] * t_cut ** -1.0
            + coef[2] * (2.0 / 3.0) * t_cut ** -1.5)
    tail_uncertainty = resid * t_cut + abs(coef[2]) * (2.0 / 3.0) * t_cut ** -1.5
    return {"value": total + tail, "quadrature": total, "tail": tail,
            "tail_uncertainty": tail_uncertainty, "t_cut": t_cut}


def key_identity(kind: str, x: int, xb: int, *, n: int | None = None,
                 mu_a: float, mu_b: float | None = None,
                 t_cut: float | None = None, tol: float = 1e-7) -> dict:
    """Both routes to the key cancellation, with the expected exact value.

    kind = "interval": spectral closed form and block-expm time integral; the
    expected value is 1{x=xb}(1-c) - 1{x!=xb} c with c from the Green
    closed form.  kind = "half_line": the Green route is exact
    (G = 2/(1-mu) + 2 min(x,y), second differences give the identity) and
    the quadrature route uses Bessel image kernels with a fitted tail;
    expected value 1{x=xb}.
    """
    if kind == "interval":
        if n is None or mu_b is None:
            raise ValueError("interval key identity needs n and mu_b")
        if mu_a == 1.0 or mu_b == 1.0:
            c = 0.0
        else:
            c = c_closed_form(n, mu_a, mu_b)
        expected = (1.0 - c) if x == xb else -c
        spec = solve_interval_spectrum(n, mu_a, mu_b)
        if spec.lambdas[0] < 1e-13:
            spectral = 1.0 if x == xb else 0.0
            quad = {"F": None, "tail_bound": 0.0, "t_cut": 0.0}
            route_gap = 0.0
            value_quad = spectral
        else:
            fm = f_matrix(spec)
            spectral = float(fm.values[x, xb])
            quad = f_matrix_quadrature(n, mu_a, mu_b, t_cut=t_cut, tol=tol, spec=spec)
            value_quad = float(quad["F"][x, xb])
            route_gap = abs(spectral - value_quad)
        return {"identity": "key-identity-interval", "x": x, "xb": xb,
                "params": {"n": n, "mu_a": mu_a, "mu_b": mu_b},
                "value": spectral, "value_quadrature": value_quad,
                "expected": expected, "abs_err": abs(spectral - expected),
                "route_gap": route_gap, "tail_bound": quad["tail_bound"], "c": c}
    if kind == "half_line":
        g = lambda u, v: halfline_green(u, v, mu_a)
        value_green = 0.5 * (g(x, xb) + g(x + 1, xb + 1) - g(x + 1, xb) - g(x, xb + 1))
        expected = 1.0 if x == xb else 0.0
        quad = halfline_key_quadrature(x, xb, mu_a, t_cut=t_cut or 1.2e5, tol=tol)
        return {"identity": "key-identity-half-line", "x": x, "xb": xb,
                "params": {"mu_a": mu_a},
                "value": value_green, "value_quadrature": quad["value"],
                "expected": expected, "abs_err": abs(value_green - expected),
                "route_gap": abs(value_green - quad["value"]),
                "tail_bound": quad["tail_uncertainty"], "c": 0.0}
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# c-star sums

def _interval_grad_products(spec: SpectralData, t: float) -> np.ndarray:
    """|grad+_x p_t(x, y) grad-_x p_t(x, y)| for bulk x, all y, p_t = V e^{-t lam} V^T."""
    V = spec.eigvecs
    M = (V * np.exp(-t * spec.lambdas)) @ V.T
    gp = M[2:, :] - M[1:-1, :]    # grad+ at x = 1..N-1
    gm = M[1:-1, :] - M[:-2, :]   # x - (x-1), sign-free under abs
    return np.abs(gp * gm)


def c_star_estimate(n: int, mu_a: float, mu_b: float, t_bar: float, eps: float) -> dict:
    """max over bulk x of sum_{y=1}^{N-1} int_0^{eps^{-2} t_bar} |grad+ p grad- p| dt.

    A uniform bound c_star < 1 holds for these sums; the audit reports the
    observed maximum and where it is attained, on the spectral kernel.
    """
    spec = solve_interval_spectrum(n, mu_a, mu_b)
    horizon = t_bar / (eps * eps)

    def integrand(t):
        return _interval_grad_products(spec, t)[:, 1:n].sum(axis=1)

    total = integrate_decaying(integrand, horizon, tol=1e-8)
    i = int(np.argmax(total))
    return {"max": float(total[i]), "argmax_x": i + 1, "per_x": total,
            "horizon": horizon}


def c_star_weighted(n: int, mu_a: float, mu_b: float, s_macro: float, eps: float) -> dict:
    """max_x of sum_y int_0^s |grad+ p grad- p| (s-t)^{-1/2} dt at s = eps^{-2} s_macro.

    The (s-t)^{-1/2} endpoint singularity is removed by the substitution
    t = s - u^2 on the last unit of time.  The bound scales like eps.
    """
    spec = solve_interval_spectrum(n, mu_a, mu_b)
    s = s_macro / (eps * eps)

    def core(t):
        return _interval_grad_products(spec, t)[:, 1:n].sum(axis=1)

    def regular(t):
        return core(t) / math.sqrt(s - t)

    total = integrate_decaying(regular, s - 1.0, tol=1e-8)
    # t = s - u^2, dt = -2u du, (s-t)^{-1/2} dt -> 2 du
    total = total + adaptive_quad(lambda u: 2.0 * core(s - u * u), 0.0, 1.0, tol=1e-8)
    return {"max": float(np.max(total)), "per_x": total, "s": s}


# ---------------------------------------------------------------------------
# summation by parts

def _fwd(u):
    return u[1:] - u[:-1]


def summation_by_parts_audit(n: int, n_trials: int = 100, seed: int = 0) -> dict:
    """Check the three discrete summation-by-parts identities on random data.

    Functions live on {-1, ..., N+1}; the backward difference at 0 is
    v(-1) - v(0).  (The half-line identity is checked on compactly supported
    sequences.)  Returns the worst absolute residual per identity.
    """
    rng = np.random.default_rng(seed)
    worst = {"sum_by_parts0": 0.0, "sum_by_parts1": 0.0, "sum_by_parts2": 0.0}
    for _ in range(n_trials):
        u = rng.normal(size=n + 3)   # indices -1..N+1 -> 0..n+2
        v = rng.normal(size=n + 3)
        lap_v = v[:-2] - 2.0 * v[1:-1] + v[2:]       # Delta v at 0..N
        lap_u = u[:-2] - 2.0 * u[1:-1] + u[2:]
        lhs = float(u[1:-1] @ lap_v)
        rhs0 = (u[-1] * (v[-1] - v[-2]) + u[0] * (v[0] - v[1])
                - float(_fwd(u) @ _fwd(v)))
        worst["sum_by_parts0"] = max(worst["sum_by_parts0"], abs(lhs - rhs0))
        rhs1 = (float(v[1:-1] @ lap_u)
                + u[-1] * (v[-1] - v[-2]) + u[0] * (v[0] - v[1])
                - v[-1] * (u[-1] - u[-2]) - v[0] * (u[0] - u[1]))
        worst["sum_by_parts1"] = max(worst["sum_by_parts1"], abs(lhs - rhs1))
        # half line: compact support well inside a window of length m
        m = 4 * n
        uu = np.zeros(m + 2)
        vv = np.zeros(m + 2)
        uu[:n + 2] = rng.normal(size=n + 2)   # positions -1..n random, zero beyond
        vv[:n + 2] = rng.normal(size=n + 2)
        lap_vv = vv[:-2] - 2.0 * vv[1:-1] + vv[2:]
        lap_uu = uu[:-2] - 2.0 * uu[1:-1] + uu[2:]
        lhs2 = float(uu[1:-1] @ lap_vv)
        rhs2 = (float(vv[1:-1] @ lap_uu)
                + uu[0] * (vv[0] - vv[1]) - vv[0] * (uu[0] - uu[1]))
        worst["sum_by_parts2"] = max(worst["sum_by_parts2"], abs(lhs2 - rhs2))
    return worst


def report_to_json(report: dict) -> str:
    """Serialize an identity report, converting arrays to lists."""
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer, np.bool_)):
            return o.item()
        raise TypeError(type(o))
    return json.dumps(report, default=default, indent=2)
