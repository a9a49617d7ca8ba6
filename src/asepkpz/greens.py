"""Green's functions and the exact gradient-product cancellation.

The central object is

    F(x, xb) = sum_y int_0^infty grad+ p^R_t(x, y) grad+ p^R_t(xb, y) dt

which on the interval equals (1-c) on the diagonal and -c off it, with
0 <= c <= C eps.  F is computed by three routes: the spectral closed form
sum_k grad psi_k(x) grad psi_k(xb) / (2 lambda_k), the second difference of
the Green's function of -Laplacian/2, and the time integral of kernel
products by the Van Loan block exponential, built by doubling.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .kernels import SpectralData, solve_interval_spectrum, robin_laplacian_matrix
from .quadrature import integrate_decaying

__all__ = [
    "green_matrix",
    "green_corner_closed_form",
    "f_matrix",
    "c_closed_form",
    "key_identity",
    "f_matrix_quadrature",
    "c_star_estimate",
    "summation_by_parts_audit",
]


def expm(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported on first use: ~0.3 s and 28 MB at import."""
    from scipy.linalg import expm
    return expm(a)


# ---------------------------------------------------------------------------
# Green's functions

def green_matrix(n: int, mu_a: float, mu_b: float) -> np.ndarray:
    """Dense inverse of -Laplacian/2 on {0..N} with Robin ghost rows.

    Singular exactly in the Neumann-Neumann case (zero eigenvalue), which is
    reported rather than regularized.
    """
    if mu_a == 1.0 and mu_b == 1.0:
        raise np.linalg.LinAlgError("Neumann-Neumann operator is singular (zero mode)")
    return np.linalg.solve(robin_laplacian_matrix(n, mu_a, mu_b), np.eye(n + 1))


def green_corner_closed_form(n: int, mu_a: float, mu_b: float) -> float:
    """G(0,0) = 2 (N+1-N mu_B) / (N+2 - (N+1)(mu_A+mu_B) + N mu_A mu_B)."""
    den = n + 2 - (n + 1) * (mu_a + mu_b) + n * mu_a * mu_b
    if den == 0.0:
        raise ZeroDivisionError("Neumann-Neumann singularity: zero denominator")
    return 2.0 * (n + 1 - n * mu_b) / den


# ---------------------------------------------------------------------------
# F matrix

def f_matrix(spec: SpectralData) -> np.ndarray:
    """F(x, xb) = sum_k grad+ psi_k(x) grad+ psi_k(xb) / (2 lambda_k), shape (N, N).

    Rejected in the Neumann-Neumann case (lambda_0 = 0).
    """
    if spec.lambdas[0] < 1e-13:
        raise ValueError("lambda_0 ~ 0 (Neumann-Neumann): F is not defined by this route")
    D = spec.eigvecs[1:, :] - spec.eigvecs[:-1, :]
    return (D / (2.0 * spec.lambdas)) @ D.T


def c_closed_form(n: int, mu_a: float, mu_b: float) -> float:
    """c = 1 - F(0,0) from 2 F(0,0) = (mu_A-1)^2 G(0,0) + 2 mu_A."""
    if mu_a == 1.0 or mu_b == 1.0:
        return 0.0
    g00 = green_corner_closed_form(n, mu_a, mu_b)
    return 1.0 - (0.5 * (mu_a - 1.0) ** 2 * g00 + mu_a)


# ---------------------------------------------------------------------------
# quadrature routes

F_TAIL_TOL = 1e-9         # bound on the omitted time tail of F
_TINY = np.finfo(float).tiny  # smallest normal float


def f_matrix_quadrature(spec: SpectralData) -> dict:
    """Time-domain evaluation of F on the interval.

    F = D (int_0^{t_cut} e^{-2 t L} dt) D^T for all pairs at once.  The time
    integral is the upper-right block of the exponential of the block matrix
    [[-2L, I], [0, 0]] t_cut (Van Loan 1978), independent of the spectral
    route; the spectrum sets only t_cut, chosen so the spectral tail bound
    sum_k |grad psi_k|^2_max e^{-2 lam_0 t}/(2 lam_0) falls below
    F_TAIL_TOL/3.  At t_0 = t_cut/2^s, with |2 t_0 L|_inf <= 1/2, the block's
    exponential holds E = e^{-2 t_0 L} (one Pade exponential) and
    I = t_0 phi_1(-2 t_0 L) (its Taylor series); the block is upper
    triangular, so each of the s squarings up to t_cut is I <- I + E I,
    E <- E E on (N+1)-sized blocks, after entries of E and I smaller in size
    than the smallest normal float are set to 0: subnormals stall the gemm.
    The returned value omits the tail, reported as the truncation certificate.
    """
    n = spec.n
    lam0 = float(spec.lambdas[0])
    if lam0 < 1e-13:
        raise ValueError("Neumann-Neumann case has no spectral gap; c = 0 branch applies")
    D = spec.eigvecs[1:, :] - spec.eigvecs[:-1, :]
    amp = float((np.abs(D) ** 2).sum())  # bounds sum_k |grad psi_k(x) grad psi_k(xb)|
    t_cut = math.log(max(amp / (2.0 * lam0 * (F_TAIL_TOL / 3.0)), 10.0)) / (2.0 * lam0)
    L = robin_laplacian_matrix(n, spec.mu_a, spec.mu_b)
    s = max(0, math.ceil(math.log2(8.0 * t_cut)))   # |L|_inf <= 2: |2 t_0 L|_inf <= 1/2
    t0 = math.ldexp(t_cut, -s)
    A, eye = -2.0 * t0 * L, np.eye(n + 1)
    E, phi = expm(A), eye
    for k in range(14, 1, -1):   # phi_1(A) = sum_j A^j/(j+1)! to j = 13: < 2^-53 at |A| <= 1/2
        phi = eye + (A @ phi) / k
    integral = t0 * phi
    for _ in range(s):
        for a in (E, integral):
            a[np.abs(a) < _TINY] = 0.0
        integral = integral + E @ integral
        E = E @ E
    total = np.diff(np.diff(integral, axis=0), axis=1)
    tail = amp * math.exp(-2.0 * lam0 * t_cut) / (2.0 * lam0)
    return {"F": total, "t_cut": t_cut, "tail_bound": tail}


def key_identity(spec: SpectralData) -> dict:
    """The interval key identity F = I - c 11^T over all N^2 pairs, by three routes.

    From one spectrum: F by the spectral closed form, by the second
    differences of one Green's function solve,
    (G(x,xb) + G(x+1,xb+1) - G(x+1,xb) - G(x,xb+1)) / 2, and by the block
    matrix exponential (`f_matrix_quadrature`); c comes from the Green
    closed form.  Returns the worst deviation from I - c 11^T, the worst
    spectral-vs-expm and spectral-vs-Green gaps, the tail certificate, and
    the matrices themselves so callers can read single entries.

    In the Neumann-Neumann case F is undefined (lambda_0 = 0) and no route
    runs: F and F_quadrature are reported as the limit value I, the Green
    matrix as None and `routes` is empty.
    """
    n = spec.n
    c = c_closed_form(n, spec.mu_a, spec.mu_b)
    expected = np.eye(n) - c
    if spec.lambdas[0] < 1e-13:
        return {"F": expected, "F_quadrature": expected, "green": None, "c": c,
                "abs_err_max": 0.0, "route_gap_max": 0.0, "green_route_gap": 0.0,
                "tail_bound": 0.0, "routes": []}
    F = f_matrix(spec)
    G = green_matrix(n, spec.mu_a, spec.mu_b)
    F_green = 0.5 * (G[:-1, :-1] + G[1:, 1:] - G[1:, :-1] - G[:-1, 1:])
    quad = f_matrix_quadrature(spec)
    return {"F": F, "F_quadrature": quad["F"], "green": G, "c": c,
            "abs_err_max": float(np.max(np.abs(F - expected))),
            "route_gap_max": float(np.max(np.abs(F - quad["F"]))),
            "green_route_gap": float(np.max(np.abs(F - F_green))),
            "tail_bound": quad["tail_bound"], "routes": ["spectral", "green", "expm"]}


# ---------------------------------------------------------------------------
# c-star sums

_PRODUCT_DOUBLES = 2 ** 18   # largest D-by-V table (2 MB, N <= 64) that one gemm reads per panel


def _grad_product_integrand(spec: SpectralData):
    """f(ts)[k, x-1] = sum_{y=1}^{N-1} |grad+_x p_t grad-_x p_t(x, y)| at t = ts[k], bulk x.

    G_t = (D e^{-t lam}) V^T, D = V[1:] - V[:-1], holds grad+ p_t at x = 0..N-1
    and grad- at x is grad+ at x-1, so no kernel is formed.  While the table
    DV[j, x, y] = D[x, j] V[y, j] stays cache-sized one gemm e^{-t lam} DV
    takes all nodes of a panel; past it, one product per node.  Decay factors
    below the smallest normal float are set to 0 first: subnormal operands
    stall the gemm."""
    n, V = spec.n, spec.eigvecs
    D = V[1:, :] - V[:-1, :]
    W = V[1:n, :].T               # columns y = 1..N-1
    fits = D.size * (n - 1) <= _PRODUCT_DOUBLES
    DV = (D.T[:, :, None] * W[:, None, :]).reshape(n + 1, -1) if fits else None

    def sums(G):                  # grad+ p_t (..., N, N-1) -> per-x sums (..., N-1)
        G = np.abs(G, out=G)
        return np.einsum("...xy,...xy->...x", G[..., 1:, :], G[..., :-1, :])

    def f(ts):
        decay = np.exp(-np.outer(ts, spec.lambdas))
        decay[decay < _TINY] = 0.0
        if DV is None:
            return np.array([sums((D * e) @ W) for e in decay])
        return sums((decay @ DV).reshape(len(decay), n, n - 1))

    return f


def c_star_estimate(n: int, mu_a: float, mu_b: float, t_bar: float, eps: float) -> dict:
    """max over bulk x of sum_{y=1}^{N-1} int_0^{eps^{-2} t_bar} |grad+ p grad- p| dt.

    A uniform bound c_star < 1 holds for these sums; the audit reports the
    observed maximum and the sum at each bulk x, on the spectral kernel.
    """
    spec = solve_interval_spectrum(n, mu_a, mu_b)
    total = integrate_decaying(_grad_product_integrand(spec), t_bar / (eps * eps), tol=1e-8)
    return {"max": float(np.max(total)), "per_x": total}


# ---------------------------------------------------------------------------
# summation by parts

def _lap(w):
    return w[:, :-2] - 2.0 * w[:, 1:-1] + w[:, 2:]


def _dot(a, b):
    return np.einsum("ij,ij->i", a, b)


def summation_by_parts_audit(n: int, n_trials: int = 100, seed: int = 0) -> dict:
    """Check the three discrete summation-by-parts identities on random data.

    Functions live on {-1, ..., N+1}; the backward difference at 0 is
    v(-1) - v(0).  (The half-line identity is checked on compactly supported
    sequences.)  Each trial draws u, v (N+3 values each) and the supports of
    the half-line uu, vv (N+2 each) in that order; all trials come from one
    draw, one trial per row.  Returns the worst absolute residual per identity.
    """
    z = np.random.default_rng(seed).normal(size=(n_trials, 4 * n + 10))
    u, v = z[:, :n + 3], z[:, n + 3:2 * n + 6]   # indices -1..N+1 -> 0..n+2
    lhs = _dot(u[:, 1:-1], _lap(v))
    rhs0 = (u[:, -1] * (v[:, -1] - v[:, -2]) + u[:, 0] * (v[:, 0] - v[:, 1])
            - _dot(u[:, 1:] - u[:, :-1], v[:, 1:] - v[:, :-1]))
    rhs1 = (_dot(v[:, 1:-1], _lap(u))
            + u[:, -1] * (v[:, -1] - v[:, -2]) + u[:, 0] * (v[:, 0] - v[:, 1])
            - v[:, -1] * (u[:, -1] - u[:, -2]) - v[:, 0] * (u[:, 0] - u[:, 1]))
    # half line: compact support (positions -1..n) well inside a window of length 4n
    uu = np.zeros((n_trials, 4 * n + 2))
    vv = np.zeros((n_trials, 4 * n + 2))
    uu[:, :n + 2], vv[:, :n + 2] = z[:, 2 * n + 6:3 * n + 8], z[:, 3 * n + 8:]
    lhs2 = _dot(uu[:, 1:-1], _lap(vv))
    rhs2 = (_dot(vv[:, 1:-1], _lap(uu))
            + uu[:, 0] * (vv[:, 0] - vv[:, 1]) - vv[:, 0] * (uu[:, 0] - uu[:, 1]))
    return {name: float(np.max(np.abs(a - b), initial=0.0))
            for name, a, b in (("sum_by_parts0", lhs, rhs0), ("sum_by_parts1", lhs, rhs1),
                               ("sum_by_parts2", lhs2, rhs2))}


def report_to_json(report: dict) -> str:
    """Serialize an identity report, converting arrays to lists."""
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer, np.bool_)):
            return o.item()
        raise TypeError(type(o))
    return json.dumps(report, default=default, indent=2)
