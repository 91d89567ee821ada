import math
import os

# one BLAS thread: the exact layer's small eigensolves run several times
# slower at two threads on a 2-CPU host; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


def binomial_margin(p: float, trials: int, nsigma: float) -> float:
    """Half-width of the nsigma band for an empirical frequency."""
    return nsigma * math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def assert_frequency(count: int, trials: int, p: float, nsigma: float) -> None:
    """Assert an empirical frequency sits within nsigma of a binomial mean.

    With p at 0 or 1 the band is empty and the check is exact.
    """
    freq = count / trials
    margin = binomial_margin(p, trials, nsigma)
    assert abs(freq - p) <= margin, (
        f"frequency {freq:.6f} outside {p:.6f} +/- {margin:.6f} "
        f"({nsigma} sigma, {trials} trials)"
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
