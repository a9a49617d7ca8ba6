"""Adaptive Gauss-Legendre panel quadrature for scalar or array integrands."""

from __future__ import annotations

import numpy as np

__all__ = ["adaptive_quad", "dyadic_panels", "integrate_decaying"]

_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(10)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(21)


def _gl(f, a: float, b: float, nodes, weights):
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = [np.asarray(f(mid + h * u), dtype=float) for u in nodes]
    acc = np.zeros_like(vals[0])
    for w, v in zip(weights, vals):
        acc = acc + w * v
    return h * acc


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10, max_depth: int = 14):
    """Recursive panel quadrature with a 10-vs-21-point error estimate.

    `f` may return scalars or arrays; the error is measured in max norm and
    the tolerance is distributed across subpanels.
    """

    def rec(a_, b_, tol_, depth):
        lo = _gl(f, a_, b_, _NODES_LO, _WEIGHTS_LO)
        hi = _gl(f, a_, b_, _NODES_HI, _WEIGHTS_HI)
        err = float(np.max(np.abs(hi - lo)))
        if err <= tol_ or depth >= max_depth:
            return hi
        m = 0.5 * (a_ + b_)
        return rec(a_, m, 0.5 * tol_, depth + 1) + rec(m, b_, 0.5 * tol_, depth + 1)

    return rec(a, b, tol, 0)


def dyadic_panels(t0: float, t1: float) -> list[tuple[float, float]]:
    """Panels [t0, 2 t0], [2 t0, 4 t0], ... covering [t0, t1]."""
    if t1 <= t0:
        return []
    edges = [t0]
    while edges[-1] < t1:
        edges.append(min(2.0 * edges[-1], t1))
    return list(zip(edges[:-1], edges[1:]))


def integrate_decaying(f, t_max: float, tol: float = 1e-10):
    """Integral over [0, t_max] of an integrand that decays after t ~ 1.

    [0, 1] is handled by one adaptive call, the rest by adaptive calls on
    dyadically growing panels (efficient for algebraic/exponential decay
    over many decades).
    """
    total = adaptive_quad(f, 0.0, min(1.0, t_max), tol=tol)
    for a, b in dyadic_panels(1.0, t_max):
        total = total + adaptive_quad(f, a, b, tol=tol)
    return total
