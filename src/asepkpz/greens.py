"""Green's functions and the exact gradient-product cancellation.

The central object is

    F(x, xb) = sum_y int_0^infty grad+ p^R_t(x, y) grad+ p^R_t(xb, y) dt

which on the interval equals (1-c) on the diagonal and -c off it, with
0 <= c <= C eps.  F is computed by three routes: the spectral closed form
sum_k grad psi_k(x) grad psi_k(xb) / (2 lambda_k), the second difference of
the closed-form Green's function of -Laplacian/2, and the time integral of kernel
products by the Van Loan block exponential, a Taylor series of phi_1 at a
small time step followed by doubling.  The c-star
sums of |grad+ p_t grad- p_t| are integrated in closed form between the sign
changes of the two gradients.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import SpectralData, solve_interval_spectrum, robin_laplacian_matrix

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


# ---------------------------------------------------------------------------
# Green's functions

def green_matrix(n: int, mu_a: float, mu_b: float) -> np.ndarray:
    """Inverse of -Laplacian/2 on {0..N} with Robin ghost rows, in closed form.

    With a = 1 - mu_A and b = 1 - mu_B, the bulk harmonic functions are linear:
    u(x) = 1 + a x meets the left Robin row and v(x) = 1 + b (N - x) the right
    one, and their Wronskian a v + b u = a + b + a b N is constant, so

        G(x, y) = u(min(x, y)) v(max(x, y)) / w,   w = (a + b + a b N) / 2.

    For mu_A, mu_B <= 1 every term is nonnegative: nothing cancels.  Singular
    exactly in the Neumann-Neumann case (zero eigenvalue, w = 0), which is
    reported rather than regularized.
    """
    a, b = 1.0 - mu_a, 1.0 - mu_b
    w = 0.5 * (a + b + a * b * n)
    if w == 0.0:
        raise np.linalg.LinAlgError("Neumann-Neumann operator is singular (zero mode)")
    x = np.arange(n + 1)
    return (1.0 + a * np.minimum.outer(x, x)) * (1.0 + b * (n - np.maximum.outer(x, x))) / w


def green_corner_closed_form(n: int, mu_a: float, mu_b: float) -> float:
    """G(0,0) = 2 (1 + b N) / (a + b + a b N), a = 1 - mu_A, b = 1 - mu_B."""
    a, b = 1.0 - mu_a, 1.0 - mu_b
    den = a + b + a * b * n
    if den == 0.0:
        raise ZeroDivisionError("Neumann-Neumann singularity: zero denominator")
    return 2.0 * (1.0 + b * n) / den


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
    """c = 1 - F(0,0) = a b / (a + b + a b N), a = 1 - mu_A, b = 1 - mu_B.

    From 2 F(0,0) = a^2 G(0,0) + 2 mu_A, c = a - a^2 G(0,0) / 2; this form
    has no cancellation.
    """
    if mu_a == 1.0 or mu_b == 1.0:
        return 0.0
    a, b = 1.0 - mu_a, 1.0 - mu_b
    return a * b / (a + b + a * b * n)


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
    F_TAIL_TOL/3.  At t_0 = t_cut/2^s, with A = -2 t_0 L and |A|_inf <= 1/2, the
    block's exponential holds I = t_0 phi_1(A), phi_1(A) = sum_j A^j/(j+1)! by
    its Taylor series, and E = e^A = Id + A phi_1(A); the block is upper
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
    phi = eye
    for k in range(14, 1, -1):   # to j = 13: the omitted terms of A phi_1(A) < 2.3e-17 at |A| <= 1/2
        phi = eye + (A @ phi) / k
    E, integral = eye + A @ phi, t0 * phi
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
    differences of the closed-form Green's function `green_matrix`,
    (G(x,xb) + G(x+1,xb+1) - G(x+1,xb) - G(x,xb+1)) / 2, and by the block
    matrix exponential (`f_matrix_quadrature`, the route named "expm"); c comes
    from the Green closed form.  Returns the worst deviation from I - c 11^T, the
    worst spectral-vs-expm and spectral-vs-Green gaps, the tail certificate, and
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

_U = np.finfo(float).eps / 2   # unit roundoff


def _sign_changes(spec: SpectralData, times: np.ndarray):
    """The table A[x (N-1) + y-1] = D[x] V[y] of g_{x,y}(t) = grad+ p_t(x, y) =
    sum_k A_k e^{-t lam_k} (x < N, 0 < y < N), the roots of each g_f in [0, times[-1]]
    (function indices, times), and per bulk x a bound on sum_y int |g_{x,y} g_{x-1,y}|
    over the cells where a sign is unknown.

    g is scanned at the increasing `times`, one x (N-1 functions) at a time; a
    value inside the rounding band 2 K u sum_k |A_k| e^{-lam_0 t} of the K-term
    sum has unknown sign.  A cell [t_{i-1}, t_i] (t_{-1} = 0) whose ends have
    opposite known signs holds one root: bisected in log t to a ratio 1 + u^(1/4),
    then placed by a secant step.  A cell with an unknown end is not searched;
    there |g_{x,y}| <= |p_t(x+1, y)| + |p_t(x, y)| at its right end, with the Chernoff
    bound |p_t(x, y)| <= min(1, 2 exp(t (cosh th - 1) - th d)) at distance d, sinh th
    = d/t (M = I - L, off-diagonal 1/2 and corners mu/2, |mu| <= 1, has |M| w <=
    cosh(th) w for w(z) = cosh(th (z + 1/2)) and its mirror image), and
    |g_{x,y}| <= sum_k |A_k| e^{-lam_0 t} at its left end.
    """
    n, lam, V = spec.n, spec.lambdas, spec.eigvecs
    A = ((V[1:] - V[:-1])[:, None, :] * V[None, 1:n, :]).reshape(n * (n - 1), n + 1)
    E = np.exp(-np.outer(lam, times))
    E[E < _TINY] = 0.0                     # subnormal operands stall the product
    decay0 = np.exp(-lam[0] * np.concatenate(([0.0], times)))
    v = np.arange(n + 1)[:, None] / times  # distance over time
    chernoff = np.minimum(2 * np.exp(times * (np.hypot(1, v) - 1 - v * np.arcsinh(v))), 1.0)
    y, dt = np.arange(1, n), np.diff(times, prepend=0.0)
    brackets, tails = [], []
    for x in range(n):
        rows = A[x * (n - 1):(x + 1) * (n - 1)]
        vals = rows @ E
        size = np.abs(rows).sum(axis=1)[:, None] * decay0
        sign = np.where(np.abs(vals) > 2 * len(lam) * _U * size[:, 1:], np.sign(vals), 0.0)
        i, c = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0)
        brackets.append((i + x * (n - 1), c, vals[i, c], vals[i, c + 1]))
        unknown = sign == 0
        unknown[:, 1:] |= unknown[:, :-1]
        bound = np.minimum(chernoff[np.abs(x + 1 - y)] + chernoff[np.abs(x - y)], size[:, :-1])
        if x:
            tails.append(np.where(unknown | prev[0], bound * prev[1], 0.0).sum(axis=0) @ dt)
        prev = unknown, bound
    f, c, g_lo, g_hi = (np.concatenate(z) for z in zip(*brackets))
    lo, hi, Af = times[c], times[c + 1], A[f]
    ratio = float(np.max(np.log(times[1:] / times[:-1]), initial=0.0)) / _U ** 0.25
    for _ in range(math.ceil(math.log2(ratio)) if ratio > 1 else 0):
        mid = np.sqrt(lo * hi)
        g = np.einsum("ik,ik->i", Af, np.exp(-mid[:, None] * lam))
        right = (g > 0) != (g_lo > 0)
        lo, g_lo = np.where(right, lo, mid), np.where(right, g_lo, g)
        hi, g_hi = np.where(right, mid, hi), np.where(right, g, g_hi)
    return A, f, lo - g_lo * (hi - lo) / (g_hi - g_lo), np.array(tails)


def c_star_estimate(n: int, mu_a: float, mu_b: float, t_bar: float, eps: float) -> dict:
    """max over bulk x of sum_{y=1}^{N-1} int_0^{eps^{-2} t_bar} |grad+ p grad- p| dt.

    A uniform bound c_star < 1 holds for these sums; the audit reports the
    observed maximum and the sum at each bulk x, on the spectral kernel.  With
    grad+ p_t(x, y) = sum_j a_j e^{-t lam_j} and grad- p_t(x, y) = grad+ p_t(x-1, y)
    = sum_k b_k e^{-t lam_k}, their product integrates to Q(t) = a^T [(1 - e^{-st})/s] b,
    s_jk = lam_j + lam_k, so the sum is sum |Q(t_{i+1}) - Q(t_i)| between 0, the
    roots of both (`_sign_changes` at 4(N+1) geometric times from 10^-2) and the
    horizon.  Also returns the number of `roots` and `tail_bound`: per_x may miss
    at most that much (twice the integral bound) where a sign was unknown.
    """
    spec = solve_interval_spectrum(n, mu_a, mu_b)
    lam, m, P, t_max = spec.lambdas, n - 1, (n - 1) ** 2, t_bar / (eps * eps)
    A, f, roots, tails = _sign_changes(spec, np.geomspace(min(1e-2, t_max), t_max, 4 * (n + 1)))
    # pair p = (x-1)(N-1) + y-1 has a = A[p + N-1] and b = A[p]; the Neumann
    # zero mode (s = 0) has no gradient, so a_0 = b_0 = 0 there
    S = lam[:, None] + lam[None, :]
    H = np.divide(1.0, S, out=np.zeros_like(S), where=S > 0)
    breaks = np.concatenate(([0.0, t_max], roots))
    e = np.exp(-np.outer(breaks, lam))
    e[e < _TINY] = 0.0
    pair = np.concatenate([np.arange(P), np.arange(P), f[f >= m] - m, f[f < P]])
    at = np.concatenate([np.zeros(P, int), np.ones(P, int),
                         2 + np.flatnonzero(f >= m), 2 + np.flatnonzero(f < P)])
    order = np.lexsort((breaks[at], pair))
    pair, at = pair[order], at[order]
    # n pieces keep the (breaks, K) products as small as one x of the scan
    q = np.concatenate([np.einsum("ik,ik->i", (A[p + m] * e[t]) @ H, A[p] * e[t])  # Q(0) - Q(t)
                        for p, t in zip(np.array_split(pair, n), np.array_split(at, n))])
    same = pair[1:] == pair[:-1]
    per_x = np.bincount(pair[1:][same], np.abs(np.diff(q))[same], minlength=P).reshape(m, m).sum(1)
    return {"max": float(np.max(per_x)), "per_x": per_x, "roots": len(f),
            "tail_bound": 2.0 * float(np.max(tails))}


# ---------------------------------------------------------------------------
# summation by parts

def _lap(w):
    return w[:, :-2] - 2.0 * w[:, 1:-1] + w[:, 2:]


def _dot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _hashed_uniform(seed: int, shape: tuple) -> np.ndarray:
    """Values in [-1, 1) from the SplitMix64 stream of `seed` (mod 2^64), in C order.

    The i-th output (i = 1, 2, ...) is the SplitMix64 finalizer of
    seed + i * 0x9E3779B97F4A7C15 mod 2^64, so the stream is a counter hash
    on uint64 arrays, whose arithmetic wraps without a warning (numpy scalar
    arithmetic would warn).  An output's top 53 bits x give x / 2^52 - 1.
    """
    i = np.arange(1, math.prod(shape) + 1, dtype=np.uint64)
    z = i * 0x9E3779B97F4A7C15 + seed % (1 << 64)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z ^= z >> 31
    return np.ldexp((z >> 11).astype(float), -52).reshape(shape) - 1.0


def summation_by_parts_audit(n: int, n_trials: int = 100, seed: int = 0) -> dict:
    """Check the three discrete summation-by-parts identities on hashed data.

    Functions live on {-1, ..., N+1}; the backward difference at 0 is
    v(-1) - v(0).  (The half-line identity is checked on compactly supported
    sequences.)  Each trial reads u, v (N+3 values each) and the supports of
    the half-line uu, vv (N+2 each) in that order, one trial per row of
    `_hashed_uniform(seed, (n_trials, 4N+10))`.  Returns the worst absolute
    residual per identity.
    """
    z = _hashed_uniform(seed, (n_trials, 4 * n + 10))
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
