import time

import numpy as np
import pytest

from asepkpz.cli import Blocks, numpy_openblas, write_csv
from asepkpz.she import COMPARE_COLUMNS, compare

# The acceptance-scale comparison (A = B = 0, Bernoulli(1/2) start, T = 0.1,
# 2000 replicas at eps = 1/32 and 1/64) shared by the microscopic-SHE,
# martingale, and convergence criteria.  Run once per session; its time is
# attributed to the first criterion that requests the fixture.

COMPARE_SEED = 31415
COMPARE_T = 0.1
COMPARE_REPLICAS = 2000
COMPARE_SIZES = (32, 64)
COMPARE_X_POINTS = 9


def run_compare(threads: int = 1) -> dict:
    """`she.compare` at the acceptance settings."""
    return compare(COMPARE_SIZES, 0.0, 0.0, COMPARE_T, COMPARE_X_POINTS, COMPARE_REPLICAS,
                   COMPARE_SEED, threads=threads)


def write_compare_table(result: dict, path):
    """Writes a `she.compare` result's table to path as the `compare` kind
    writes compare.csv; returns path."""
    write_csv(str(path), COMPARE_COLUMNS, Blocks(result["table"]))
    return path


@pytest.fixture(scope="session")
def compare_result():
    t0 = time.time()
    result = run_compare()
    print(f"\n[fixture] compare: {COMPARE_REPLICAS} replicas at eps = "
          + ", ".join(f"1/{n}" for n in COMPARE_SIZES) + f" in {time.time() - t0:.1f}s")
    return result


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
