"""Exponential (Cole-Hopf) transform of the height function and its exact
discrete heat-equation structure.

Z_t(x) = exp(-lam h_t(x) + nu t) with lam = log(q/p)/2 and nu = p+q-1.
Under the two-parameter boundary family the drift of Z equals Laplacian/2
with ghost values Z(-1) = mu_A Z(0) and Z(N+1) = mu_B Z(N), exactly, for
every configuration (the tests check it per configuration with
`drift_identity_residual` in tests/oracles.py).
"""

from __future__ import annotations

import numpy as np

from .params import ModelParams

__all__ = ["z_field"]

_LOG_GUARD = 500.0


def z_field(h, t: float, params: ModelParams) -> np.ndarray:
    """Z(x) = exp(-lam h(x) + nu t) from an integer height array (any leading
    axes; t broadcasts against it).  Raises OverflowError where some
    |log Z| > 500, beyond which Z leaves the safe float range."""
    log_z = -params.lam * np.asarray(h).astype(float) + params.nu * t
    if np.max(np.abs(log_z)) > _LOG_GUARD:
        raise OverflowError("Z field exponent beyond safe range; work in log space")
    return np.exp(log_z)

