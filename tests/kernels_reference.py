"""Point-by-point references of three batched kernel routines: the free-walk
row by the scalar ratio recurrence and the bound audits with one call per
(time, variant) grid point, each with the same floating-point operations, in
the same order per value, as the batched routine it checks bit for bit; and
the image expansion filled row by row with a prefix product per corrected
row, which the running sums match bit for bit at mu = 1 and to rounding
below it."""

from __future__ import annotations

import math

import numpy as np

from asepkpz.kernels import (BoundAudit, ImageExpansion, SpectralData, _row_length,
                             _support_radius, halfline_robin_row, interval_kernel_spectral)


def free_walk_row(t: float, n_max: int) -> np.ndarray:
    """p_t(0..n_max) with the ratios r_n = 1/(2n/t + r_{n+1}) run one scalar at a time."""
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


def build_image_expansion(n: int, mu_a: float, mu_b: float, depth: int) -> ImageExpansion:
    """The Robin extension filled one row at a time, blocks 0, -1, +1, -2, +2, ..."""
    nb = n + 1
    span = (2 * depth + 1) * nb
    off = depth * nb
    phi = np.zeros((span, nb))
    phi[off + np.arange(nb), np.arange(nb)] = 1.0

    pow_a = mu_a ** np.arange(span + nb + 2)
    pow_b = mu_b ** np.arange(span + nb + 2)

    for m in range(depth):
        for x in range(-m * nb - 1, -(m + 1) * nb - 1, -1):
            row = mu_a * phi[off - x - 1]
            upper = -x - 2
            if upper >= 0 and mu_a != 1.0:
                weights = pow_a[upper - np.arange(upper + 1)]
                row = row + (mu_a * mu_a - 1.0) * (weights @ phi[off: off + upper + 1])
            phi[off + x] = row
        for x in range((m + 1) * nb, (m + 2) * nb):
            row = mu_b * phi[off + 2 * nb - x - 1]
            lo = 2 * nb - x
            if lo <= nb - 1 and mu_b != 1.0:
                ys = np.arange(lo, nb)
                weights = pow_b[ys - lo]
                row = row + (mu_b * mu_b - 1.0) * (weights @ phi[off + lo: off + nb])
            phi[off + x] = row
    return ImageExpansion(n=n, mu_a=mu_a, mu_b=mu_b, depth=depth, phi=phi, offset=off)


def _audit_from_ratio_fn(name: str, ratio_fn, coarse_grid, fine_grid) -> BoundAudit:
    c = float(np.max([ratio_fn(*g) for g in coarse_grid]))
    cf = float(np.max([ratio_fn(*g) for g in fine_grid]))
    return BoundAudit(name=name, constant=c, constant_refined=cf,
                      stable=bool(cf <= 2.0 * max(c, 1e-300)))


def kernel_bound_audit(spec: SpectralData, eps: float, t_bar: float = 1.0) -> list[BoundAudit]:
    """The bound audits with one ratio call per grid point; a half-line row per x."""
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
    dist = np.abs(np.subtract.outer(np.arange(n + 1), np.arange(n + 1)))

    def r_sup(t):
        dt = 0.5
        num = K(t)
        den = math.exp(dt) * K(t + dt)
        mask = den > 1e-12
        return float(np.max(num[mask] / den[mask]))
    audits.append(_audit_from_ratio_fn("kernel-time-comparison", r_sup,
                                       [(t,) for t in tgrid(6)], [(t,) for t in tgrid(12)]))

    def r_holder(t, v):
        dt = min(1.0, 0.5 * t)
        shape = min(1.0, t ** (-0.5 - v)) * dt ** v
        return float(np.max(np.abs(K(t + dt) - K(t)))) / shape
    grid_c = [(t, v) for t in tgrid(6) for v in (0.0, 0.5, 1.0)]
    grid_f = [(t, v) for t in tgrid(12) for v in (0.0, 0.5, 1.0)]
    audits.append(_audit_from_ratio_fn("kernel-time-holder", r_holder, grid_c, grid_f))

    def r_gauss(t, b):
        sc = min(1.0, t ** -0.5)
        shape = sc * np.exp(-b * dist * sc)
        return float(np.max(K(t) / shape))
    audits.append(_audit_from_ratio_fn("kernel-gaussian-envelope", r_gauss,
                                       [(t, b) for t in tgrid(6) for b in (0.0, 1.0)],
                                       [(t, b) for t in tgrid(12) for b in (0.0, 1.0)]))

    def r_grad(t, v, b=1.0):
        nn = max(1, int(math.ceil(math.sqrt(t))) // 2)
        ker = K(t)
        sc = min(1.0, t ** -0.5)
        shape = min(1.0, t ** (-(1 + v) / 2)) * nn ** v * np.exp(-b * dist[:n + 1 - nn] * sc)
        return float(np.max(np.abs(ker[nn:, :] - ker[:-nn, :]) / shape))
    audits.append(_audit_from_ratio_fn("kernel-gradient-envelope", r_grad,
                                       [(t, v) for t in tgrid(6) for v in (0.5, 1.0)],
                                       [(t, v) for t in tgrid(12) for v in (0.5, 1.0)]))

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

    xs_h = [0, 1, 3, 10]

    def r_sum_h(t, grad, a=1.0):
        r = _support_radius(t)
        best = 0.0
        for x in xs_h:
            ymax = x + r + 8 + grad
            row = halfline_robin_row(t, x, mu_a, ymax)
            if grad:
                row = np.abs(halfline_robin_row(t, x + 1, mu_a, ymax) - row)
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
