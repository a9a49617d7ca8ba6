"""Adaptive Gauss-Legendre panel quadrature, the reference integrator of the test
oracles (the c-star sums of `greens.c_star_estimate` among them).  Integrand
contract: `f(t)` takes a 1-D array of nodes and returns an array with the node
axis first, (len(t),) or (len(t), ...); `adaptive_quad` calls it once per panel."""

from __future__ import annotations

import numpy as np

__all__ = ["adaptive_quad", "integrate_decaying"]

_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(10)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(21)
_NODES = np.concatenate([_NODES_LO, _NODES_HI])


def _weighted_sum(weights, vals):
    # node by node in order, not by a BLAS dot: the sum is the same on any BLAS
    return (weights.reshape((-1,) + (1,) * (vals.ndim - 1)) * vals).sum(axis=0)


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10):
    """Recursive panel quadrature with a 10-vs-21-point error estimate.

    Each panel is one call of `f` on its 10 and 21 Gauss-Legendre nodes
    together (31 nodes, the 10 first).  The error is measured in max norm
    and the tolerance is distributed across subpanels, at most 14 levels deep.
    """

    def rec(a_, b_, tol_, depth):
        h, m = 0.5 * (b_ - a_), 0.5 * (a_ + b_)
        vals = np.asarray(f(m + h * _NODES), dtype=float)
        lo = h * _weighted_sum(_WEIGHTS_LO, vals[:len(_NODES_LO)])
        hi = h * _weighted_sum(_WEIGHTS_HI, vals[len(_NODES_LO):])
        if np.max(np.abs(hi - lo)) <= tol_ or depth >= 14:
            return hi
        return rec(a_, m, 0.5 * tol_, depth + 1) + rec(m, b_, 0.5 * tol_, depth + 1)

    return rec(a, b, tol, 0)


def integrate_decaying(f, t_max: float, tol: float = 1e-10):
    """Integral over [0, t_max] of an integrand that decays after t ~ 1.

    [0, 1] is handled by one adaptive call, the rest by adaptive calls on
    the dyadic panels [1, 2], [2, 4], ... (efficient for algebraic or
    exponential decay over many decades).
    """
    total = adaptive_quad(f, 0.0, min(1.0, t_max), tol=tol)
    a = 1.0
    while a < t_max:
        b = min(2.0 * a, t_max)
        total = total + adaptive_quad(f, a, b, tol=tol)
        a = b
    return total
