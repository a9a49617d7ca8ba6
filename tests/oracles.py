"""Test oracles shared by several test modules: the half-line Green's function
and key identity, its spectral integrals, the c-star integrand and the weighted
c-star sum with its pointwise gradient products; the dense generator's
stationary law and the drift identity of the exponential transform; and the
plain-loop references of two optimized routines, the Robin spectrum's
bisection and the SHE second-moment recursion."""

import math

import numpy as np

from asepkpz.engine import Lattice, event_rates
from asepkpz.greens import green_corner_closed_form
from asepkpz.kernels import _secular, solve_interval_spectrum
from asepkpz.params import ModelParams
from asepkpz.she import _step_schedule
from quadrature import adaptive_quad, integrate_decaying


def halfline_green(x: int, y: int, mu_a: float) -> float:
    """Half-line Green's function: G(x, y) = 2/(1-mu_A) + 2 min(x, y)."""
    if not mu_a < 1.0:
        raise ZeroDivisionError("half-line Green's function requires mu_A < 1")
    return 2.0 / (1.0 - mu_a) + 2.0 * min(x, y)


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


def halfline_s(x, k, mu: float):
    """s_x(k) = sin((x+1)k) - mu sin(xk) = sin(k) psi_k(x), for the half-line Robin
    eigenfunctions psi_k(x) = cos(kx) + c sin(kx), c = (cos k - mu)/sin k, of
    eigenvalue 1 - cos k and spectral density (2/pi) sin^2 k / (1 - 2 mu cos k + mu^2)."""
    return np.sin((x + 1) * k) - mu * np.sin(x * k)


def halfline_spectral_mean(mu: float, degree: int, g):
    """(1/pi) int_0^pi g(k) / (1 - 2 mu cos k + mu^2) dk, 0 < mu < 1, by the midpoint rule.

    g is an even trigonometric polynomial of the given degree (or negligible
    past it), averaged along its last axis if array-valued.  The m-node rule
    is exact on cos(nk) for n < 2m and the weight's cosine coefficients fall
    like mu^n, so the aliasing error, of order mu^(2m - degree), is put below
    the float resolution.  The weight is (1-mu)^2 + 4 mu sin^2(k/2), exact near 0."""
    m = degree + 1 + math.ceil(math.log(np.finfo(float).eps) / (2.0 * math.log(mu)))
    k = (np.arange(m) + 0.5) * (math.pi / m)
    return np.mean(g(k) / ((1.0 - mu) ** 2 + 4.0 * mu * np.sin(k / 2) ** 2), axis=-1)


def halfline_key_identity(x: int, xb: int, mu_a: float) -> dict:
    """The half-line key identity F(x, xb) = 1{x=xb} at one pair, by two routes.

    The Green route takes second differences of G = 2/(1-mu) + 2 min(x,y)
    (exact).  The spectral route integrates grad psi_k(x) grad psi_k(xb) / (2 lambda_k)
    over the spectral measure, grad psi_k = ds_x / sin k with ds_x = s_{x+1} - s_x:
    F = (1/pi) int_0^pi ds_x ds_xb / ((1 - 2 mu cos k + mu^2)(1 - cos k)) dk."""
    g = lambda u, v: halfline_green(u, v, mu_a)
    value_green = 0.5 * (g(x, xb) + g(x + 1, xb + 1) - g(x + 1, xb) - g(x, xb + 1))
    ds = lambda u, k: halfline_s(u + 1, k, mu_a) - halfline_s(u, k, mu_a)
    value_spectral = halfline_spectral_mean(
        mu_a, x + xb + 3, lambda k: ds(x, k) * ds(xb, k) / (2.0 * np.sin(k / 2) ** 2))
    return {"value": value_green, "value_spectral": value_spectral,
            "expected": 1.0 if x == xb else 0.0,
            "route_gap": abs(value_green - value_spectral)}


def interval_grad_products(spec, t: float) -> np.ndarray:
    """|grad+_x p_t(x, y) grad-_x p_t(x, y)| for bulk x, all y, p_t = V e^{-t lam} V^T."""
    V = spec.eigvecs
    M = (V * np.exp(-t * spec.lambdas)) @ V.T
    gp = M[2:, :] - M[1:-1, :]    # grad+ at x = 1..N-1
    gm = M[1:-1, :] - M[:-2, :]   # x - (x-1), sign-free under abs
    return np.abs(gp * gm)


_TINY = np.finfo(float).tiny  # smallest normal float


def grad_product_integrand(spec):
    """f(ts)[k, x-1] = sum_{y=1}^{N-1} |grad+_x p_t grad-_x p_t(x, y)| at t = ts[k], bulk x.

    G_t = (D e^{-t lam}) V^T, D = V[1:] - V[:-1], holds grad+ p_t at x = 0..N-1
    and grad- at x is grad+ at x-1, so no kernel is formed: one gemm
    e^{-t lam} DV with the table DV[j, x, y] = D[x, j] V[y, j] takes all nodes
    of a panel.  Decay factors below the smallest normal float are set to 0
    first: subnormal operands stall the gemm.  Integrated by
    `quadrature.integrate_decaying`, it is the adaptive oracle of
    `greens.c_star_estimate`."""
    n, V = spec.n, spec.eigvecs
    D = V[1:, :] - V[:-1, :]
    DV = (D.T[:, :, None] * V[1:n, :].T[:, None, :]).reshape(n + 1, -1)

    def f(ts):
        decay = np.exp(-np.outer(ts, spec.lambdas))
        decay[decay < _TINY] = 0.0
        G = np.abs((decay @ DV).reshape(len(decay), n, n - 1))
        return np.einsum("...xy,...xy->...x", G[..., 1:, :], G[..., :-1, :])

    return f


def c_star_weighted(n: int, mu_a: float, mu_b: float, s_macro: float, eps: float) -> dict:
    """max_x of sum_y int_0^s |grad+ p grad- p| (s-t)^{-1/2} dt at s = eps^{-2} s_macro.

    The (s-t)^{-1/2} endpoint singularity is removed by the substitution
    t = s - u^2 on the last unit of time.  The bound scales like eps.  The
    integrands loop over the nodes with the pointwise products, a route
    independent of the batched integrand of `c_star_estimate`.
    """
    spec = solve_interval_spectrum(n, mu_a, mu_b)
    s = s_macro / (eps * eps)

    def core(ts):
        return np.array([interval_grad_products(spec, t)[:, 1:n].sum(axis=1) for t in ts])

    def regular(ts):
        return core(ts) / np.sqrt(s - ts)[:, None]

    total = integrate_decaying(regular, s - 1.0, tol=1e-8)
    # t = s - u^2, dt = -2u du, (s-t)^{-1/2} dt -> 2 du
    total = total + adaptive_quad(lambda us: 2.0 * core(s - us * us), 0.0, 1.0, tol=1e-8)
    return {"max": float(np.max(total)), "per_x": total, "s": s}


def interval_omegas_bisected(n: int, mu_a: float, mu_b: float) -> np.ndarray:
    """Robin frequencies on {0..N} by all 90 bisection sweeps of
    `solve_interval_spectrum` (mu_A mu_B < 1), with no early stop."""
    ks = np.arange(n + 1)
    lo = ks * np.pi / (n + 1)
    hi = (ks + 1) * np.pi / (n + 1)
    left_sign = np.where(ks % 2 == 0, 1.0, -1.0)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        val = _secular(mid, n, mu_a, mu_b)
        same = np.sign(val) == left_sign
        exact = val == 0.0
        lo = np.where(same & ~exact, mid, lo)
        hi = np.where(~same | exact, mid, hi)
    return 0.5 * (lo + hi)


def second_moment_loop(m2_0: np.ndarray, grid, T: float) -> np.ndarray:
    """`she.second_moment` by the recursion m2 <- P (m2 + (h/dX) diag m2) P^T
    with fresh arrays every step."""
    m2 = np.asarray(m2_0, dtype=float).copy()
    (seg,) = _step_schedule([T], grid.dt)
    if not seg:
        return m2
    h = seg[0]
    P = grid.propagator(h)
    lam = h / grid.dx
    for _ in seg:
        noisy = m2.copy()
        noisy.flat[::len(m2) + 1] += lam * np.diag(m2)
        m2 = P @ noisy @ P.T
    return m2


def stationary_measure(generator: np.ndarray) -> np.ndarray:
    """pi with pi Q = 0 for a dense generator, solved with a normalization row
    (at most 2^12 states); the CLI checks a candidate measure's residual
    instead."""
    m = generator.shape[0]
    if m > 1 << 12:
        raise ValueError(f"dense stationary solve limited to 2^12 states, got {m}")
    Q = np.asarray(generator, dtype=float)
    A = Q.T.copy()
    A[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    resid = float(np.max(np.abs(pi @ Q)))
    if resid > 1e-12:
        raise np.linalg.LinAlgError(f"stationary solve residual {resid:.2e} > 1e-12 "
                                    "(generator may be reducible)")
    return pi


def height_moves(eta, params: ModelParams, lattice: Lattice) -> tuple[np.ndarray, np.ndarray]:
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
    down, up = height_moves(eta, params, lattice)
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
