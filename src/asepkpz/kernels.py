"""Lattice heat kernels with Robin boundary conditions.

Three constructions of the same object on the lattice interval {0,...,N}:

* spectral: eigenpairs of -Laplacian/2 with ghost rows psi(-1) = mu_A psi(0),
  psi(N+1) = mu_B psi(N), assembled as sum_k psi_k(x) psi_k(y) e^{-t lam_k};
* generalized method of images: the free-walk kernel convolved with the
  recursive Robin extension of a delta function across both walls;
* half line: closed-form image series p_t(x-y) + mu p_t(x+y+1)
  + (mu^2-1) sum_{w>=0} mu^w p_t(x+y+2+w).

The free walk is the rate-1/2-each-side continuous-time walk on Z,
p_t(x) = e^{-t} I_{|x|}(t), evaluated by the backward ratio recurrence of the
modified Bessel functions and normalized by its total mass, which is
uniformly stable for large times and needs no special-function library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "free_walk_row",
    "free_walk_tail_bound",
    "halfline_robin_row",
    "SpectralData",
    "solve_interval_spectrum",
    "interval_kernel_spectral",
    "ImageExpansion",
    "build_image_expansion",
    "image_depth_suffices",
    "interval_kernel_image",
    "kernel_bound_audit",
]


# ---------------------------------------------------------------------------
# free walk on Z

_SUBNORMAL = math.ulp(0.0)   # smallest positive float


def free_walk_row(t: float, n_max: int) -> np.ndarray:
    """Array p_t(0..n_max) for the continuous-time simple walk on Z (rate 1/2 per side).

    p_t(x) = e^{-t} I_{|x|}(t).  The ratios r_n = I_n/I_{n-1} = 1/(2n/t + r_{n+1})
    are run backward from r_{L+1} = 0, a stable direction for the decaying
    solution, and p = cumprod(1, r_1..r_L) / (1 + 2 sum_{n>=1} prod r), since the
    walk's mass sum_{n in Z} p_t(n) is 1.  L depends on t alone (`_row_length`),
    so a longer row agrees bit for bit with a shorter one on their common entries.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    row = np.zeros(n_max + 1)
    if t == 0:
        row[0] = 1.0
        return row
    ratio, ratios = 0.0, []
    for n in range(_row_length(t), 0, -1):
        ratio = 1.0 / (2.0 * n / t + ratio)
        ratios.append(ratio)
    p = np.cumprod([1.0] + ratios[::-1])
    p /= p[0] + 2.0 * p[1:].sum()
    m = min(len(p), n_max + 1)
    row[:m] = p[:m]
    return row


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


def _row_length(t: float) -> int:
    """Least L >= 1 with free_walk_tail_bound(t, L) below the smallest subnormal float:
    past L every p_t(n) rounds to 0."""
    lo, hi = 0, 1   # bound(lo) >= _SUBNORMAL > bound(hi) once the doubling stops
    while free_walk_tail_bound(t, hi) >= _SUBNORMAL:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if free_walk_tail_bound(t, mid) >= _SUBNORMAL else (lo, mid)
    return hi


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


def halfline_robin_row(t: float, x: int, mu_a: float, y_max: int,
                       pv: np.ndarray | None = None) -> np.ndarray:
    """Vector p^R_t(x, y) for y = 0..y_max; `pv` may pass a longer free_walk_row(t, m)."""
    if not 0.0 < mu_a <= 1.0:
        raise ValueError("mu_a must be in (0, 1]")
    n_max = x + y_max + 2 + _support_radius(t)
    if mu_a < 1.0:
        n_max += min(int(40.0 / max(1.0 - mu_a, 1e-12)) + 8, _support_radius(t) + 8)
    pv = free_walk_row(t, n_max) if pv is None else pv[:n_max + 1]
    if len(pv) <= n_max:
        raise ValueError(f"free-walk row too short: {len(pv)} entries, need {n_max + 1}")
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
        # 90 sweeps halve the bracket past float resolution; a sweep that
        # moves no end is a fixed point of the loop, so stop there
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            val = _secular(mid, n, mu_a, mu_b)
            same = np.sign(val) == left_sign
            exact = val == 0.0
            new_lo = np.where(same & ~exact, mid, lo)
            new_hi = np.where(~same | exact, mid, hi)
            if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
                break
            lo, hi = new_lo, new_hi
        omegas = 0.5 * (lo + hi)
        if not (np.all(omegas > 0) and np.all(omegas < np.pi)):
            raise RuntimeError("bracketing failure: root escaped (0, pi); check mu values")
    lambdas = 1.0 - np.cos(omegas)

    # row k is psi_k = cos(w x) + c sin(w x); the Neumann w_0 = 0 takes c = 0
    c = np.divide(np.cos(omegas) - mu_a, np.sin(omegas), out=np.zeros(n + 1), where=omegas > 0)
    wx = np.outer(omegas, np.arange(n + 1))
    rows = np.cos(wx) + c[:, None] * np.sin(wx)
    # one norm per contiguous row: a norm along an axis sums in another order
    norms = np.array([np.linalg.norm(v) for v in rows])
    eigvecs = np.ascontiguousarray((rows / norms[:, None]).T)
    return SpectralData(n=n, mu_a=mu_a, mu_b=mu_b, omegas=omegas,
                        lambdas=lambdas, eigvecs=eigvecs)


# ---------------------------------------------------------------------------
# interval kernels

def interval_kernel_spectral(spec: SpectralData, t: float) -> np.ndarray:
    """p^R_t(x, y) on {0..N} as sum_k psi_k psi_k^T e^{-t lambda_k}."""
    if t < 0:
        raise ValueError("t must be >= 0")
    w = np.exp(-t * spec.lambdas)
    return (spec.eigvecs * w) @ spec.eigvecs.T


@dataclass(frozen=True)
class ImageExpansion:
    """Robin extension of delta functions across both walls of {0..N}.

    phi[z, y] is the extended value at z in [-K(N+1), (K+1)(N+1)) of the
    delta at y; on block k it is the delta at the reflected point times the
    image coefficient I_k (I_{-m-1} = mu_A I_m, I_{m+1} = mu_B I_{-m}) plus
    an O(1/N) correction.
    """

    n: int
    mu_a: float
    mu_b: float
    depth: int
    phi: np.ndarray              # shape ((2K+1)(N+1), N+1)
    offset: int                  # row index of z = 0


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
    return ImageExpansion(n=n, mu_a=mu_a, mu_b=mu_b, depth=depth, phi=phi, offset=off)


def image_depth_suffices(n: int, depth: int, t: float) -> bool:
    """Whether the depth-K images of {0..N} hold all but 1e-14 of the free-walk mass at time t."""
    return free_walk_tail_bound(t, max(depth * (n + 1) - n, 1)) <= 1e-14


def interval_kernel_image(expansion: ImageExpansion, t: float) -> np.ndarray:
    """Kernel p^R_t(x, y) on {0..N} from a truncated generalized image expansion.

    Raises if the expansion is too shallow for this time (`image_depth_suffices`).
    """
    n, depth = expansion.n, expansion.depth
    nb = n + 1
    if not image_depth_suffices(n, depth, t):
        raise ValueError(f"depth {depth} too small at t={t}: image tail above 1e-14")
    zs = np.arange(-depth * nb, (depth + 1) * nb)
    pv = free_walk_row(t, int(zs[-1]) + n + 1)
    xs = np.arange(nb)
    # p_t(x - z) for all lattice x and extension points z
    P = pv[np.abs(xs[:, None] - zs[None, :])]
    return P @ expansion.phi


# ---------------------------------------------------------------------------
# bound audits

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
    c = float(np.max([ratio_fn(*g) for g in coarse_grid]))
    cf = float(np.max([ratio_fn(*g) for g in fine_grid]))
    return BoundAudit(name=name, constant=c, constant_refined=cf,
                      stable=bool(cf <= 2.0 * max(c, 1e-300)))


def kernel_bound_audit(spec: SpectralData, eps: float, t_bar: float = 1.0) -> list[BoundAudit]:
    """Numerical audits of the heat-kernel estimates on both geometries.

    The interval kernels come from `spec`; the half-line kernels use its
    mu_A.  Each bound's left side divided by its shape function is maximized
    over a deterministic grid; the fitted constant must be finite and stable
    under doubling the grid density.  Times range over [0.05, eps^{-2} t_bar].
    """
    n, mu_a = spec.n, spec.mu_a
    t_max = t_bar / (eps * eps)

    def tgrid(m):
        return np.exp(np.linspace(math.log(0.05), math.log(t_max), m))

    kernels: dict[float, np.ndarray] = {}

    def K(t):
        if t not in kernels:
            kernels[t] = interval_kernel_spectral(spec, t)
        return kernels[t]

    audits = []
    dist = np.abs(np.subtract.outer(np.arange(n + 1), np.arange(n + 1)))   # |x - y|

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
        sc = min(1.0, t ** -0.5)
        shape = sc * np.exp(-b * dist * sc)
        return float(np.max(K(t) / shape))
    audits.append(_audit_from_ratio_fn("kernel-gaussian-envelope", r_gauss,
                                       [(t, b) for t in tgrid(6) for b in (0.0, 1.0)],
                                       [(t, b) for t in tgrid(12) for b in (0.0, 1.0)]))

    # |grad_n p_t| <= C (1 ^ t^{-(1+v)/2}) |n|^v exp(-b |x-y| (1 ^ t^{-1/2}))
    def r_grad(t, v, b=1.0):
        nn = max(1, int(math.ceil(math.sqrt(t))) // 2)
        ker = K(t)
        sc = min(1.0, t ** -0.5)
        shape = min(1.0, t ** (-(1 + v) / 2)) * nn ** v * np.exp(-b * dist[:n + 1 - nn] * sc)
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
        sc = min(1.0, t ** -0.5)
        s = (np.abs(g) * np.exp(a * dist[:n] * sc)).sum(axis=1)
        return float(np.max(s)) * math.sqrt(t)
    audits.append(_audit_from_ratio_fn("interval-gradient-sum", r_sum_dp,
                                       [(t,) for t in tgrid(6)], [(t,) for t in tgrid(12)]))

    # half-line weighted sums (Corollary for Z_{>=0}) of p and of its gradient. The
    # rows at t read free_walk_row(t, m) with m <= x + ymax + 2r + 10 <= 3r + 40 (x <= 11,
    # ymax <= r + 19), so one row per time serves all: its entries depend on t alone
    xs_h = [0, 1, 3, 10]
    bessel: dict[float, np.ndarray] = {}

    def r_sum_h(t, grad, a=1.0):
        r = _support_radius(t)
        if t not in bessel:
            bessel[t] = free_walk_row(t, 3 * r + 40)
        best = 0.0
        for x in xs_h:
            ymax = x + r + 8 + grad
            row = halfline_robin_row(t, x, mu_a, ymax, pv=bessel[t])
            if grad:
                row = np.abs(halfline_robin_row(t, x + 1, mu_a, ymax, pv=bessel[t]) - row)
            y = np.arange(ymax + 1)
            sc = min(1.0, t ** -0.5)
            w = np.exp(a * eps * y + a * np.abs(x - y) * sc)
            s = float((row * w).sum()) * math.exp(-a * eps * x)
            best = max(best, s * math.sqrt(t) if grad else s)
        return best
    for name, grad in (("halfline-weighted-mass-sum", 0), ("halfline-weighted-gradient-sum", 1)):
        audits.append(_audit_from_ratio_fn(name, r_sum_h, [(t, grad) for t in tgrid(5)],
                                           [(t, grad) for t in tgrid(10)]))
    return audits
