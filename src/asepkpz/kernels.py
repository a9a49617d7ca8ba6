"""Discrete and continuous heat kernels with Robin boundary conditions.

Three constructions of the same object on the lattice interval {0,...,N}:

* spectral: eigenpairs of -Laplacian/2 with ghost rows psi(-1) = mu_A psi(0),
  psi(N+1) = mu_B psi(N), assembled as sum_k psi_k(x) psi_k(y) e^{-t lam_k};
* generalized method of images: the free-walk kernel convolved with the
  recursive Robin extension of a delta function across both walls;
* half line: closed-form image series p_t(x-y) + mu p_t(x+y+1)
  + (mu^2-1) sum_{w>=0} mu^w p_t(x+y+2+w).

The free walk is the rate-1/2-each-side continuous-time walk on Z, evaluated
through the exponentially scaled modified Bessel function (scipy `ive`),
which is uniformly stable for large times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ive

__all__ = [
    "free_walk_kernel",
    "free_walk_row",
    "free_walk_tail_bound",
    "halfline_robin_kernel",
    "halfline_robin_row",
    "SpectralData",
    "solve_interval_spectrum",
    "KernelMatrix",
    "interval_kernel_spectral",
    "ImageExpansion",
    "build_image_expansion",
    "interval_kernel_image",
    "continuous_halfline_kernel",
    "kernel_bound_audit",
]


# ---------------------------------------------------------------------------
# free walk on Z

def free_walk_kernel(t: float, x) -> np.ndarray | float:
    """p_t(x) for the continuous-time simple walk on Z (rate 1/2 per side).

    Equals e^{-t} I_{|x|}(t); `ive` evaluates the product directly so no
    overflow occurs for large t.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    return ive(np.abs(x), t)


def free_walk_row(t: float, n_max: int) -> np.ndarray:
    """Array p_t(0..n_max)."""
    return ive(np.arange(n_max + 1), t)


# Independent cross-check, called only by the tests; not exported.
def free_walk_series(t: float, x: int, n_terms: int = 200) -> float:
    """Poisson mixture of binomial discrete-time walk steps (series oracle)."""
    x = abs(int(x))
    total = 0.0
    log_fact = 0.0
    for n in range(n_terms + 1):
        if n > 0:
            log_fact += math.log(n)
        if n >= x and (n - x) % 2 == 0:
            pn = math.comb(n, (n + x) // 2) / 2.0 ** n
            total += math.exp(n * math.log(t) - t - log_fact) * pn if t > 0 else (1.0 if n == 0 else 0.0)
    if t == 0:
        return 1.0 if x == 0 else 0.0
    return total


def free_walk_tail_bound(t: float, r: float) -> float:
    """Chernoff bound on P(|X_t| >= r): 2 exp(sqrt(t^2+r^2) - t - r asinh(r/t))."""
    if r <= 0:
        return 1.0
    if t == 0:
        return 0.0
    return 2.0 * math.exp(math.sqrt(t * t + r * r) - t - r * math.asinh(r / t))


def _support_radius(t: float, tol: float = 1e-16) -> int:
    """Radius beyond which the free-walk mass is below tol."""
    r = 8.0 + 8.0 * math.sqrt(max(t, 1.0))
    while free_walk_tail_bound(t, r) > tol:
        r *= 1.5
    return int(math.ceil(r))


# ---------------------------------------------------------------------------
# half line

def _geometric_tail(pv: np.ndarray, mu: float, start: int) -> np.ndarray:
    """g(m) = sum_{w>=0} mu^w pv[m+w] for all m >= start, by backward recursion."""
    g = np.zeros(len(pv))
    acc = 0.0
    for m in range(len(pv) - 1, start - 1, -1):
        acc = pv[m] + mu * acc
        g[m] = acc
    return g


def halfline_robin_kernel(t: float, x: int, y: int, mu_a: float) -> float:
    """Robin heat kernel on Z_{>=0} via the one-boundary image series.

    The series tail is summed until a term drops below 1e-16 times the
    partial sum.  The formula extends to x = -1 and there satisfies the
    ghost relation p(-1, y) = mu_A p(0, y) identically.
    """
    if not 0.0 < mu_a <= 1.0:
        raise ValueError("mu_a must be in (0, 1]")
    val = float(free_walk_kernel(t, x - y)) + mu_a * float(free_walk_kernel(t, x + y + 1))
    if mu_a == 1.0:
        return val
    s = 0.0
    w = 0
    coeff = 1.0
    base = x + y + 2
    cap = _support_radius(t) + base + 8
    while True:
        term = coeff * float(free_walk_kernel(t, base + w))
        s += term
        coeff *= mu_a
        w += 1
        if (term <= 1e-16 * max(s, 1e-300) and w > 4) or base + w > cap:
            break
    return val + (mu_a * mu_a - 1.0) * s


def halfline_robin_row(t: float, x: int, mu_a: float, y_max: int) -> np.ndarray:
    """Vector p^R_t(x, y) for y = 0..y_max (shared Bessel table + tail recursion)."""
    if not 0.0 < mu_a <= 1.0:
        raise ValueError("mu_a must be in (0, 1]")
    n_max = x + y_max + 2 + _support_radius(t)
    if mu_a < 1.0:
        n_max += min(int(40.0 / max(1.0 - mu_a, 1e-12)) + 8, _support_radius(t) + 8)
    pv = free_walk_row(t, n_max)
    y = np.arange(y_max + 1)
    row = pv[np.abs(x - y)] + mu_a * pv[x + y + 1]
    if mu_a < 1.0:
        g = _geometric_tail(pv, mu_a, x + 2)
        row = row + (mu_a * mu_a - 1.0) * g[x + y + 2]
    return row


# ---------------------------------------------------------------------------
# interval spectrum

@dataclass(frozen=True)
class SpectralData:
    """Eigenpairs of -Laplacian/2 on {0..N} with Robin ghost rows.

    omegas[k] in (0, pi) solve
        sin(w(N+2)) - (mu_A+mu_B) sin(w(N+1)) + mu_A mu_B sin(wN) = 0,
    lambdas[k] = 1 - cos(omegas[k]), and eigvecs[:, k] is the L2-normalized
    eigenvector C1 cos(wx) + C2 sin(wx).  In the Neumann case omega_0 = 0
    with the constant eigenvector.
    """

    n: int
    mu_a: float
    mu_b: float
    omegas: np.ndarray
    lambdas: np.ndarray
    eigvecs: np.ndarray          # shape (N+1, N+1), columns psi_k
    coeffs: np.ndarray           # shape (N+1, 2), normalized (C1, C2) per k

    def eigvec_at(self, k: int, x) -> np.ndarray | float:
        """psi_k evaluated at arbitrary (possibly ghost) integer positions."""
        c1, c2 = self.coeffs[k]
        om = self.omegas[k]
        return c1 * np.cos(om * np.asarray(x, dtype=float)) + c2 * np.sin(om * np.asarray(x, dtype=float))


def robin_laplacian_matrix(n: int, mu_a: float, mu_b: float) -> np.ndarray:
    """Dense (-1/2) Laplacian on {0..n} with Robin ghost rows folded in."""
    L = np.zeros((n + 1, n + 1))
    idx = np.arange(n + 1)
    L[idx, idx] = 1.0
    L[idx[:-1], idx[:-1] + 1] = -0.5
    L[idx[1:], idx[1:] - 1] = -0.5
    L[0, 0] = (2.0 - mu_a) / 2.0
    L[n, n] = (2.0 - mu_b) / 2.0
    return L


def _secular(om: np.ndarray, n: int, mu_a: float, mu_b: float) -> np.ndarray:
    return (np.sin(om * (n + 2)) - (mu_a + mu_b) * np.sin(om * (n + 1))
            + mu_a * mu_b * np.sin(om * n))


def solve_interval_spectrum(n: int, mu_a: float, mu_b: float) -> SpectralData:
    """All N+1 Robin eigenpairs on {0..N}.

    Roots are bisected inside the guaranteed brackets
    [k pi/(N+1), (k+1) pi/(N+1)]; the secular function has sign (-1)^k at
    the interior bracket points when mu_A mu_B < 1, positive slope at 0 and
    sign (-1)^{N+1} just left of pi, so every bracket is certified without
    evaluating at the endpoints (omega = 0, pi are spurious roots).  The
    Neumann case short-circuits to omega_k = k pi/(N+1) exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for name, mu in (("mu_a", mu_a), ("mu_b", mu_b)):
        if not 0.0 <= mu <= 1.0:
            raise ValueError(f"{name} = {mu} outside [0, 1]")
    ks = np.arange(n + 1)
    if mu_a == 1.0 and mu_b == 1.0:
        omegas = ks * np.pi / (n + 1)
    else:
        lo = ks * np.pi / (n + 1)
        hi = (ks + 1) * np.pi / (n + 1)
        left_sign = np.where(ks % 2 == 0, 1.0, -1.0)
        for _ in range(90):  # halves the bracket past float resolution
            mid = 0.5 * (lo + hi)
            val = _secular(mid, n, mu_a, mu_b)
            same = np.sign(val) == left_sign
            exact = val == 0.0
            lo = np.where(same & ~exact, mid, lo)
            hi = np.where(~same | exact, mid, hi)
        omegas = 0.5 * (lo + hi)
        if not (np.all(omegas > 0) and np.all(omegas < np.pi)):
            raise RuntimeError("bracketing failure: root escaped (0, pi); check mu values")
    lambdas = 1.0 - np.cos(omegas)

    xs = np.arange(n + 1, dtype=float)
    eigvecs = np.empty((n + 1, n + 1))
    coeffs = np.empty((n + 1, 2))
    for k, om in enumerate(omegas):
        if om == 0.0:
            v = np.ones(n + 1)
            c1, c2 = 1.0, 0.0
        else:
            c1, c2 = 1.0, (math.cos(om) - mu_a) / math.sin(om)
            v = c1 * np.cos(om * xs) + c2 * np.sin(om * xs)
        nrm = np.linalg.norm(v)
        eigvecs[:, k] = v / nrm
        coeffs[k] = (c1 / nrm, c2 / nrm)
    return SpectralData(n=n, mu_a=mu_a, mu_b=mu_b, omegas=omegas,
                        lambdas=lambdas, eigvecs=eigvecs, coeffs=coeffs)


# ---------------------------------------------------------------------------
# interval kernels

@dataclass(frozen=True)
class KernelMatrix:
    """Robin heat kernel p^R_t(x, y) on {0..N} at a fixed time."""

    values: np.ndarray
    t: float
    mu_a: float
    mu_b: float

    @property
    def n(self) -> int:
        return self.values.shape[0] - 1

    def symmetry_error(self) -> float:
        return float(np.max(np.abs(self.values - self.values.T)))

    def row_sums(self) -> np.ndarray:
        return self.values.sum(axis=1)

    def min_entry(self) -> float:
        return float(self.values.min())


def interval_kernel_spectral(spec: SpectralData, t: float) -> KernelMatrix:
    """p^R_t = sum_k psi_k psi_k^T e^{-t lambda_k}."""
    if t < 0:
        raise ValueError("t must be >= 0")
    w = np.exp(-t * spec.lambdas)
    vals = (spec.eigvecs * w) @ spec.eigvecs.T
    return KernelMatrix(values=vals, t=t, mu_a=spec.mu_a, mu_b=spec.mu_b)


@dataclass(frozen=True)
class ImageExpansion:
    """Robin extension of delta functions across both walls of {0..N}.

    phi[z, y] is the extended value at z in [-K(N+1), (K+1)(N+1)) of the
    delta at y; on block k it decomposes as I_k * delta at the reflected
    point iota(y; k) plus eps_scale * E_k corrections, with I_{-m-1} =
    mu_A I_m, I_{m+1} = mu_B I_{-m}, and |E_k| growing at most like C0^|k|.
    eps_scale = 1/N matches the interval scaling under which the E bound is
    stated.
    """

    n: int
    mu_a: float
    mu_b: float
    depth: int
    phi: np.ndarray              # shape ((2K+1)(N+1), N+1)
    offset: int                  # row index of z = 0
    eps_scale: float = field(default=0.0)

    @property
    def nbar(self) -> int:
        return self.n + 1

    def x_star(self, x: int) -> int:
        k = x // self.nbar
        if k % 2 == 0:
            return x - k * self.nbar
        return (k + 1) * self.nbar - x - 1

    def iota(self, y_star: int, k: int) -> int:
        if k % 2 == 0:
            return y_star + k * self.nbar
        return (k + 1) * self.nbar - y_star - 1

    def image_coeff(self, k: int) -> float:
        """I_k: products of mu's accumulated one reflection per block."""
        m = abs(k)
        if k <= 0:
            return self.mu_a ** ((m + 1) // 2) * self.mu_b ** (m // 2)
        return self.mu_b ** ((m + 1) // 2) * self.mu_a ** (m // 2)

    def correction(self, k: int) -> np.ndarray:
        """E_k(x, y) for x in block k (shape (N+1, N+1))."""
        nb = self.nbar
        block = self.phi[self.offset + k * nb: self.offset + (k + 1) * nb].copy()
        ik = self.image_coeff(k)
        for ys in range(nb):
            block[self.iota(ys, k) - k * nb, ys] -= ik
        return block / self.eps_scale

    def correction_bound_base(self) -> float:
        """Fitted C0 with max_k |E_k|_inf <= C0^|k|."""
        c0 = 1.0
        for k in range(1, self.depth + 1):
            for kk in (k, -k):
                m = float(np.max(np.abs(self.correction(kk))))
                if m > 1.0:
                    c0 = max(c0, m ** (1.0 / k))
        return c0


def build_image_expansion(n: int, mu_a: float, mu_b: float, depth: int = 6) -> ImageExpansion:
    """Iterate the left/right Robin extension relations block by block.

    Left blocks use phi(x) = mu_A phi(-x-1) + (mu_A^2-1) sum_{y=0}^{-x-2}
    mu_A^{-x-2-y} phi(y); right blocks use the mirrored relation.  Blocks
    are filled in the order 0, -1, +1, -2, +2, ... so every referenced value
    already exists.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    nb = n + 1
    span = (2 * depth + 1) * nb
    off = depth * nb
    phi = np.zeros((span, nb))
    phi[off + np.arange(nb), np.arange(nb)] = 1.0

    pow_a = mu_a ** np.arange(span + nb + 2)
    pow_b = mu_b ** np.arange(span + nb + 2)

    for m in range(depth):
        # block -(m+1): x from -m*nb - 1 down to -(m+1)*nb
        for x in range(-m * nb - 1, -(m + 1) * nb - 1, -1):
            row = mu_a * phi[off - x - 1]
            upper = -x - 2
            if upper >= 0 and mu_a != 1.0:
                weights = pow_a[upper - np.arange(upper + 1)]
                row = row + (mu_a * mu_a - 1.0) * (weights @ phi[off: off + upper + 1])
            phi[off + x] = row
        # block +(m+1): x from (m+1)*nb up to (m+2)*nb - 1
        for x in range((m + 1) * nb, (m + 2) * nb):
            row = mu_b * phi[off + 2 * nb - x - 1]
            lo = 2 * nb - x
            if lo <= nb - 1 and mu_b != 1.0:
                ys = np.arange(lo, nb)
                weights = pow_b[ys - lo]
                row = row + (mu_b * mu_b - 1.0) * (weights @ phi[off + lo: off + nb])
            phi[off + x] = row
    return ImageExpansion(n=n, mu_a=mu_a, mu_b=mu_b, depth=depth, phi=phi,
                          offset=off, eps_scale=1.0 / n)


def interval_kernel_image(n: int, mu_a: float, mu_b: float, t: float,
                          depth: int = 6,
                          expansion: ImageExpansion | None = None) -> KernelMatrix:
    """Kernel assembled from the truncated generalized image expansion.

    Raises if the free-walk mass beyond the truncation radius exceeds
    1e-14 (depth too small for this time).
    """
    exp_ = expansion if expansion is not None else build_image_expansion(n, mu_a, mu_b, depth)
    nb = n + 1
    radius = exp_.depth * nb - n
    if free_walk_tail_bound(t, max(radius, 1)) > 1e-14:
        raise ValueError(f"depth {exp_.depth} too small at t={t}: image tail above 1e-14")
    zs = np.arange(-exp_.depth * nb, (exp_.depth + 1) * nb)
    pv = free_walk_row(t, int(zs[-1]) + n + 1)
    xs = np.arange(nb)
    # p_t(x - z) for all lattice x and extension points z
    P = pv[np.abs(xs[:, None] - zs[None, :])]
    vals = P @ exp_.phi
    return KernelMatrix(values=vals, t=t, mu_a=mu_a, mu_b=mu_b)


# ---------------------------------------------------------------------------
# continuous half-line kernel

def continuous_halfline_kernel(T: float, X, Y, A: float):
    """Robin kernel on R_+: P_T(X-Y) + P_T(X+Y) - 2A int_{-infty}^0 P_T(X+Y-Z) e^{AZ} dZ.

    The integral has the stable closed form
    -A e^{-(X+Y)^2/(2T)} erfcx((X+Y+AT)/sqrt(2T)).
    """
    from scipy.special import erfcx
    if T <= 0:
        raise ValueError("T must be > 0")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    c = 1.0 / math.sqrt(2.0 * math.pi * T)
    heat = lambda u: c * np.exp(-u * u / (2.0 * T))
    w = X + Y
    out = heat(X - Y) + heat(w)
    if A != 0.0:
        out = out - A * np.exp(-w * w / (2.0 * T)) * erfcx((w + A * T) / math.sqrt(2.0 * T))
    return out if out.shape else float(out)


# Independent cross-check, called only by the tests; not exported.
def continuous_halfline_kernel_quad(T: float, X: float, Y: float, A: float) -> float:
    """Adaptive-quadrature evaluation of the boundary integral (cross-check)."""
    from scipy.integrate import quad
    c = 1.0 / math.sqrt(2.0 * math.pi * T)
    heat = lambda u: c * math.exp(-u * u / (2.0 * T))
    base = heat(X - Y) + heat(X + Y)
    if A == 0.0:
        return base
    val, _ = quad(lambda z: heat(X + Y - z) * math.exp(A * z), -np.inf, 0.0,
                  epsabs=1e-14, epsrel=1e-12)
    return base - 2.0 * A * val


# ---------------------------------------------------------------------------
# bound audits

def _fit_constant(ratios: np.ndarray) -> float:
    return float(np.max(ratios))


@dataclass
class BoundAudit:
    name: str
    constant: float          # fitted C on the coarse grid
    constant_refined: float  # fitted C with grid density doubled
    stable: bool             # refined max <= 2x coarse max

    def as_dict(self) -> dict:
        return {"bound": self.name, "constant": self.constant,
                "constant_refined": self.constant_refined, "stable": self.stable}


def _audit_from_ratio_fn(name: str, ratio_fn, coarse_grid, fine_grid) -> BoundAudit:
    c = _fit_constant(np.asarray([ratio_fn(*g) for g in coarse_grid]))
    cf = _fit_constant(np.asarray([ratio_fn(*g) for g in fine_grid]))
    return BoundAudit(name=name, constant=c, constant_refined=cf,
                      stable=bool(cf <= 2.0 * max(c, 1e-300)))


def kernel_bound_audit(eps: float, slope_a: float, slope_b: float,
                       t_bar: float = 1.0, n_interval: int | None = None) -> list[BoundAudit]:
    """Numerical audits of the heat-kernel estimates on both geometries.

    Each bound's left side divided by its shape function is maximized over a
    deterministic grid; the fitted constant must be finite and stable under
    doubling the grid density.  Times range over [0.05, eps^{-2} t_bar].
    """
    n = n_interval if n_interval is not None else int(round(1.0 / eps))
    mu_a = 1.0 - eps * slope_a
    mu_b = 1.0 - eps * slope_b
    spec = solve_interval_spectrum(n, mu_a, mu_b)
    t_max = t_bar / (eps * eps)

    def tgrid(m):
        return np.exp(np.linspace(math.log(0.05), math.log(t_max), m))

    kernels: dict[float, np.ndarray] = {}

    def K(t):
        if t not in kernels:
            kernels[t] = interval_kernel_spectral(spec, t).values
        return kernels[t]

    audits = []

    # p_t <= e^{t'-t} p_{t'} with constant exactly 1; entries below the
    # spectral-sum roundoff floor carry no information and are skipped
    def r_sup(t):
        dt = 0.5
        num = K(t)
        den = math.exp(dt) * K(t + dt)
        mask = den > 1e-12
        return float(np.max(num[mask] / den[mask]))
    audits.append(_audit_from_ratio_fn("kernel-time-comparison", r_sup,
                                       [(t,) for t in tgrid(6)], [(t,) for t in tgrid(12)]))

    # |p_{t'} - p_t| <= C (1 ^ t^{-1/2-v}) (t'-t)^v
    def r_holder(t, v):
        dt = min(1.0, 0.5 * t)
        shape = min(1.0, t ** (-0.5 - v)) * dt ** v
        return float(np.max(np.abs(K(t + dt) - K(t)))) / shape
    grid_c = [(t, v) for t in tgrid(6) for v in (0.0, 0.5, 1.0)]
    grid_f = [(t, v) for t in tgrid(12) for v in (0.0, 0.5, 1.0)]
    audits.append(_audit_from_ratio_fn("kernel-time-holder", r_holder, grid_c, grid_f))

    # p_t(x,y) <= C (1 ^ t^{-1/2}) exp(-b |x-y| (1 ^ t^{-1/2}))
    def r_gauss(t, b):
        xs = np.arange(n + 1)
        d = np.abs(xs[:, None] - xs[None, :])
        sc = min(1.0, t ** -0.5)
        shape = sc * np.exp(-b * d * sc)
        return float(np.max(K(t) / shape))
    audits.append(_audit_from_ratio_fn("kernel-gaussian-envelope", r_gauss,
                                       [(t, b) for t in tgrid(6) for b in (0.0, 1.0)],
                                       [(t, b) for t in tgrid(12) for b in (0.0, 1.0)]))

    # |grad_n p_t| <= C (1 ^ t^{-(1+v)/2}) |n|^v exp(-b |x-y| (1 ^ t^{-1/2}))
    def r_grad(t, v, b=1.0):
        nn = max(1, int(math.ceil(math.sqrt(t))) // 2)
        ker = K(t)
        xs = np.arange(n + 1 - nn)
        d = np.abs(xs[:, None] - np.arange(n + 1)[None, :])
        sc = min(1.0, t ** -0.5)
        shape = min(1.0, t ** (-(1 + v) / 2)) * nn ** v * np.exp(-b * d * sc)
        return float(np.max(np.abs(ker[nn:, :] - ker[:-nn, :]) / shape))
    audits.append(_audit_from_ratio_fn("kernel-gradient-envelope", r_grad,
                                       [(t, v) for t in tgrid(6) for v in (0.5, 1.0)],
                                       [(t, v) for t in tgrid(12) for v in (0.5, 1.0)]))

    # interval sums: sum_y p <= C ; sum_y |grad p| e^{a|x-y|(1^t^{-1/2})} <= C t^{-1/2}
    def r_sum_p(t):
        return float(np.max(K(t).sum(axis=1)))
    audits.append(_audit_from_ratio_fn("interval-mass-sum", r_sum_p,
                                       [(t,) for t in tgrid(6)], [(t,) for t in tgrid(12)]))

    def r_sum_dp(t, a=1.0):
        ker = K(t)
        g = ker[1:, :] - ker[:-1, :]
        xs = np.arange(n)
        d = np.abs(xs[:, None] - np.arange(n + 1)[None, :])
        sc = min(1.0, t ** -0.5)
        s = (np.abs(g) * np.exp(a * d * sc)).sum(axis=1)
        return float(np.max(s)) * math.sqrt(t)
    audits.append(_audit_from_ratio_fn("interval-gradient-sum", r_sum_dp,
                                       [(t,) for t in tgrid(6)], [(t,) for t in tgrid(12)]))

    # half-line weighted sums (Corollary for Z_{>=0})
    xs_h = [0, 1, 3, 10]

    def r_sum_h(t, a=1.0):
        best = 0.0
        for x in xs_h:
            ymax = x + _support_radius(t) + 8
            row = halfline_robin_row(t, x, mu_a, ymax)
            y = np.arange(ymax + 1)
            sc = min(1.0, t ** -0.5)
            w = np.exp(a * eps * y + a * np.abs(x - y) * sc)
            best = max(best, float((row * w).sum()) * math.exp(-a * eps * x))
        return best
    audits.append(_audit_from_ratio_fn("halfline-weighted-mass-sum", r_sum_h,
                                       [(t,) for t in tgrid(5)], [(t,) for t in tgrid(10)]))

    def r_sum_dh(t, a=1.0):
        best = 0.0
        for x in xs_h:
            ymax = x + _support_radius(t) + 9
            row0 = halfline_robin_row(t, x, mu_a, ymax)
            row1 = halfline_robin_row(t, x + 1, mu_a, ymax)
            y = np.arange(ymax + 1)
            sc = min(1.0, t ** -0.5)
            w = np.exp(a * eps * y + a * np.abs(x - y) * sc)
            s = float((np.abs(row1 - row0) * w).sum()) * math.exp(-a * eps * x)
            best = max(best, s * math.sqrt(t))
        return best
    audits.append(_audit_from_ratio_fn("halfline-weighted-gradient-sum", r_sum_dh,
                                       [(t,) for t in tgrid(5)], [(t,) for t in tgrid(10)]))
    return audits
