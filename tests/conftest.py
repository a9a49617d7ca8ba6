import time

import numpy as np
import pytest

from asepkpz.cli import numpy_openblas
from asepkpz.she import run_interval_ensemble

# Acceptance-scale ensembles (A = B = 0, Bernoulli(1/2) start, T = 0.1) shared
# by the microscopic-SHE, martingale, and convergence criteria.  Generated
# once per session; generation time is attributed to the first criterion that
# requests the fixture.

ENSEMBLE_SEED = 31415
ENSEMBLE_T = 0.1
ENSEMBLE_REPLICAS = 2000


def _ensemble(n: int, martingale: bool = False) -> dict:
    t0 = time.time()
    ens = run_interval_ensemble(n, 0.0, 0.0, ENSEMBLE_T, ENSEMBLE_REPLICAS, (ENSEMBLE_SEED, n),
                                martingale=martingale)
    print(f"\n[fixture] eps=1/{n} ensemble: {ENSEMBLE_REPLICAS} replicas "
          f"in {time.time() - t0:.1f}s ({ens['events'] / ens['sampler_s']:.3g} events/s)")
    return ens


@pytest.fixture(scope="session")
def ensemble32():
    # the coarsest ensemble carries the martingale diagnostics, as in `compare`
    return _ensemble(32, martingale=True)


@pytest.fixture(scope="session")
def ensemble64():
    return _ensemble(64)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def openblas_thread_setter():
    """The run-time thread-count setter of the OpenBLAS that numpy loaded, and
    its count now, from the CLI's own lookup; skips the test where either
    cannot be found (no OpenBLAS of numpy's own)."""
    blas = numpy_openblas()
    if blas.get("set") is None:
        pytest.skip(f"numpy: {blas.get('reason', 'no thread setter')}")
    return blas["set"], blas["get"]()
