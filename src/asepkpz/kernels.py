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
    "image_depth",
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
    for c in (2.0 * np.arange(_row_length(t), 0, -1) / t).tolist():   # c = 2n/t
        ratio = 1.0 / (c + ratio)
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


def _support_radius(t: float) -> int:
    """Radius beyond which the free-walk mass is below 1e-16."""
    r = 8.0 + 8.0 * math.sqrt(max(t, 1.0))
    while free_walk_tail_bound(t, r) > 1e-16:
        r *= 1.5
    return int(math.ceil(r))


def _least(reaches) -> int:
    """Least k >= 1 with reaches(k), reaches holding from some k on, by doubling and bisection."""
    lo, hi = 0, 1   # reaches(hi) once the doubling stops; lo does not, or is 0
    while not reaches(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reaches(mid) else (mid, hi)
    return hi


def _row_length(t: float) -> int:
    """Least L >= 1 with free_walk_tail_bound(t, L) below the smallest subnormal float:
    past L every p_t(n) rounds to 0."""
    return _least(lambda L: free_walk_tail_bound(t, L) < _SUBNORMAL)


# ---------------------------------------------------------------------------
# half line

def _geometric_tail(pv: np.ndarray, mu: float, start: int) -> np.ndarray:
    """g(m) = sum_{w>=0} mu^w pv[m+w] for all m >= start, by backward recursion
    from the end of pv: g(m) does not depend on start."""
    g = np.zeros(len(pv))
    acc, tail = 0.0, []
    for v in pv[start:][::-1].tolist():
        acc = v + mu * acc
        tail.append(acc)
    g[start:] = tail[::-1]
    return g


def halfline_robin_row(t: float, x, mu_a: float, y_max: int) -> np.ndarray:
    """Vector p^R_t(x, y) for y = 0..y_max, or for an array of x one such row per x
    (one free-walk row and one geometric tail, sized for the largest x)."""
    if not 0.0 < mu_a <= 1.0:
        raise ValueError("mu_a must be in (0, 1]")
    xs = np.asarray(x)
    r = _support_radius(t)
    n_max = int(xs.max()) + y_max + 2 + r
    if mu_a < 1.0:
        n_max += min(int(40.0 / max(1.0 - mu_a, 1e-12)) + 8, r + 8)
    pv = free_walk_row(t, n_max)
    xc, y = xs[..., None], np.arange(y_max + 1)
    row = pv[np.abs(xc - y)] + mu_a * pv[xc + y + 1]
    if mu_a < 1.0:
        g = _geometric_tail(pv, mu_a, int(xs.min()) + 2)
        row = row + (mu_a * mu_a - 1.0) * g[xc + y + 2]
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
            same = np.sign(val) == left_sign   # an exact root (sign 0) moves hi
            if (mid == np.where(same, lo, hi)).all():  # the end mid would replace is mid
                break
            lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
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
    """p^R_t(x, y) on {0..N} as sum_k psi_k psi_k^T e^{-t lambda_k}; p_0 = I exactly
    (the sum would leave it I up to rounding)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return np.eye(spec.n + 1)
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


def build_image_expansion(n: int, mu_a: float, mu_b: float, depth: int) -> ImageExpansion:
    """Iterate the left/right Robin extension relations block by block.

    Left blocks use phi(x) = mu_A phi(-x-1) + (mu_A^2-1) S(-x-2), with the
    running sum S(u) = sum_{y=0}^{u} mu_A^{u-y} phi(y) = mu_A S(u-1) + phi(u);
    right blocks use the mirrored relation.  Blocks are filled in the order
    0, -1, +1, -2, +2, ... so every referenced value already exists.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    nb = n + 1
    span = (2 * depth + 1) * nb
    off = depth * nb
    phi = np.zeros((span, nb))
    phi[off + np.arange(nb), np.arange(nb)] = 1.0
    sum_a = sum_b = np.zeros(nb)  # S one row at a time, up from phi(0) and down from phi(n)
    for m in range(depth):
        # block -(m+1) (x from -m*nb - 1 down to -(m+1)*nb) reflects block m and
        # block +(m+1) (x from (m+1)*nb up to (m+2)*nb - 1) reflects block -m; no
        # block reads its own rows, so each takes its reflection in one slice
        xs = np.arange(-m * nb - 1, -(m + 1) * nb - 1, -1)
        phi[off + xs] = mu_a * phi[off - xs - 1]
        if mu_a != 1.0:
            for x in xs[xs <= -2].tolist():
                sum_a = mu_a * sum_a + phi[off - x - 2]
                phi[off + x] += (mu_a * mu_a - 1.0) * sum_a
        xs = np.arange((m + 1) * nb, (m + 2) * nb)
        phi[off + xs] = mu_b * phi[off + 2 * nb - xs - 1]
        if mu_b != 1.0:
            for x in xs[xs >= nb + 1].tolist():
                sum_b = mu_b * sum_b + phi[off + 2 * nb - x]
                phi[off + x] += (mu_b * mu_b - 1.0) * sum_b
    return ImageExpansion(n=n, mu_a=mu_a, mu_b=mu_b, depth=depth, phi=phi, offset=off)


def image_depth(n: int, t: float) -> int:
    """Least depth K >= 1 whose images of {0..N} hold all but 1e-14 of the free-walk mass
    at time t; the tail falls in K and rises in t, so a run's latest time sets its depth."""
    return _least(lambda k: free_walk_tail_bound(t, max(k * (n + 1) - n, 1)) <= 1e-14)


def interval_kernel_image(expansion: ImageExpansion, t: float) -> np.ndarray:
    """Kernel p^R_t(x, y) on {0..N} from a truncated generalized image expansion.

    Raises if the expansion is shallower than `image_depth(N, t)`.
    """
    n, depth = expansion.n, expansion.depth
    nb = n + 1
    if depth < image_depth(n, t):
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


def _audits(ratios_at, coarse, fine) -> list[BoundAudit]:
    """One BoundAudit per bound; ratios_at(t) maps each bound to its ratios at
    time t, one per variant, and runs once at each distinct time of both grids."""
    at = {}
    for t in (*coarse, *fine):
        if t not in at:
            at[t] = ratios_at(t)
    audits = []
    for name in at[coarse[0]]:
        c = float(np.max([r for t in coarse for r in at[t][name]]))
        cf = float(np.max([r for t in fine for r in at[t][name]]))
        audits.append(BoundAudit(name=name, constant=c, constant_refined=cf,
                                 stable=bool(cf <= 2.0 * max(c, 1e-300))))
    return audits


def kernel_bound_audit(spec: SpectralData, eps: float, t_bar: float = 1.0) -> list[BoundAudit]:
    """Numerical audits of the heat-kernel estimates on both geometries.

    The interval kernels come from `spec`; the half-line kernels use its
    mu_A.  Each bound's left side divided by its shape function is maximized
    over a deterministic grid; the fitted constant must be finite and stable
    under doubling the grid density.  Times range over [0.05, eps^{-2} t_bar];
    each distinct time is evaluated once, every variant of a bound from the
    same kernels (one free-walk row and one geometric tail on the half line).
    """
    n, mu_a = spec.n, spec.mu_a
    t_max = t_bar / (eps * eps)

    def tgrid(m):
        return list(np.exp(np.linspace(math.log(0.05), math.log(t_max), m)))

    kernels: dict[float, np.ndarray] = {}

    def K(t):
        if t not in kernels:
            kernels[t] = interval_kernel_spectral(spec, t)
        return kernels[t]

    dist = np.abs(np.subtract.outer(np.arange(n + 1), np.arange(n + 1)))   # |x - y|

    def interval(t):
        ker = K(t)
        sc = min(1.0, t ** -0.5)
        # p_t <= e^{t'-t} p_{t'} with constant exactly 1; entries below the
        # spectral-sum roundoff floor carry no information and are skipped
        den = math.exp(0.5) * K(t + 0.5)
        mask = den > 1e-12
        # |p_{t'} - p_t| <= C (1 ^ t^{-1/2-v}) (t'-t)^v
        dt = min(1.0, 0.5 * t)
        step = float(np.max(np.abs(K(t + dt) - ker)))
        # |grad_n p_t| <= C (1 ^ t^{-(1+v)/2}) |n|^v exp(-|x-y| (1 ^ t^{-1/2}))
        nn = max(1, int(math.ceil(math.sqrt(t))) // 2)
        grad = np.abs(ker[nn:, :] - ker[:-nn, :])
        env = np.exp(-dist * sc)
        # interval sums: sum_y |grad p| e^{|x-y|(1^t^{-1/2})} <= C t^{-1/2}
        dsum = (np.abs(ker[1:, :] - ker[:-1, :]) * np.exp(dist[:n] * sc)).sum(axis=1)
        return {
            "kernel-time-comparison": [float(np.max(ker[mask] / den[mask]))],
            "kernel-time-holder": [step / (min(1.0, t ** (-0.5 - v)) * dt ** v)
                                   for v in (0.0, 0.5, 1.0)],
            # p_t(x,y) <= C (1 ^ t^{-1/2}) exp(-b |x-y| (1 ^ t^{-1/2})), b = 0 and 1
            "kernel-gaussian-envelope": [float(np.max(ker / sc)),
                                         float(np.max(ker / (sc * env)))],
            "kernel-gradient-envelope": [
                float(np.max(grad / (min(1.0, t ** (-(1 + v) / 2)) * nn ** v * env[:n + 1 - nn])))
                for v in (0.5, 1.0)],
            # sum_y p <= C
            "interval-mass-sum": [float(np.max(ker.sum(axis=1)))],
            "interval-gradient-sum": [float(np.max(dsum)) * math.sqrt(t)],
        }

    # half-line weighted sums (Corollary for Z_{>=0}) of p and of its gradient at
    # x in xs_h, over y <= x + r + 8 and y <= x + r + 9: the rows at x and x + 1 and
    # the weights e^{eps y + |x-y| (1 ^ t^{-1/2})} come from one call each per time
    xs_h = np.array([0, 1, 3, 10])
    x_rows = np.array([0, 1, 2, 3, 4, 10, 11])

    def halfline(t):
        r = _support_radius(t)
        y = np.arange(r + 20)
        rows = dict(zip(x_rows.tolist(), halfline_robin_row(t, x_rows, mu_a, r + 19)))
        weights = np.exp(eps * y + np.abs(xs_h[:, None] - y) * min(1.0, t ** -0.5))
        mass, grad = [], []
        for x, w in zip(xs_h.tolist(), weights):
            m = x + r + 9
            mass.append(float((rows[x][:m] * w[:m]).sum()) * math.exp(-eps * x))
            dp = np.abs(rows[x + 1][:m + 1] - rows[x][:m + 1])
            grad.append(float((dp * w[:m + 1]).sum()) * math.exp(-eps * x) * math.sqrt(t))
        return {"halfline-weighted-mass-sum": mass, "halfline-weighted-gradient-sum": grad}

    return (_audits(interval, tgrid(6), tgrid(12))
            + _audits(halfline, tgrid(5), tgrid(10)))
