"""Information metrics and security predicates.

Binary entropy, plug-in mutual information over joint symbol counts, and
the implication-style security conditions evaluated by the protocol
drivers. Also hosts the probe-family sweep used to calibrate the default
quantum error threshold: per coupling angle theta, with c = cos theta, the
closed forms of the disturbance e = (1 - c)/2 seen on conjugate-basis
check states, the legitimate channel rate 1 - h(e), and the
eavesdropper's Holevo information h((1 + c)/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .quantum import ProbeAttackSpec
# an alias the benchmark's self-test (bench/test_bench.py) expects the tracer
# to rebind; retires with the benchmark refresh (ROADMAP direction 1)
from .quantum import holevo_information  # noqa: F401

__all__ = [
    "DEFAULT_QUANTUM_THRESHOLD",
    "JointCounts",
    "MetricsError",
    "SecurityVerdict",
    "SweepPoint",
    "binary_entropy",
    "calibrated_threshold",
    "check_qkd_condition",
    "check_qsdc_condition",
    "information_crossing",
    "mutual_information",
    "probe_family_sweep",
]

# Error rate at which the legitimate rate 1 - h(e) meets the probe
# family's Holevo information h(e); regenerated by calibrated_threshold().
DEFAULT_QUANTUM_THRESHOLD = 0.11002786443835955


class MetricsError(ValueError):
    """Raised for out-of-domain metric inputs."""


def binary_entropy(e: float) -> float:
    """Shannon binary entropy in bits, with h(0) = h(1) = 0."""
    if not 0.0 <= e <= 1.0:
        raise MetricsError(f"binary entropy needs e in [0, 1], got {e}")
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


@dataclass(frozen=True)
class JointCounts:
    """Co-occurrence counts of two symbol streams on a K x K grid."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.counts)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
            raise MetricsError(f"counts must be a square K x K table, K >= 2, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise MetricsError("counts must be integers")
        if (arr < 0).any():
            raise MetricsError("counts must be nonnegative")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], num_symbols: int = 2) -> "JointCounts":
        table = np.zeros((num_symbols, num_symbols), dtype=np.int64)
        for a, b in pairs:
            table[a][b] += 1
        return cls(table)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _entropy_of(probs: np.ndarray) -> float:
    nz = probs[probs > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def mutual_information(counts: JointCounts) -> float:
    """Plug-in mutual information I = H(A) + H(B) - H(A,B), in bits.

    Maximum-likelihood estimate on empirical frequencies, no bias
    correction. Clamped at zero against rounding, since the exact
    quantity is nonnegative.
    """
    total = counts.total
    if total == 0:
        raise MetricsError("mutual information is undefined on an empty table")
    joint = counts.counts / total
    info = _entropy_of(joint.sum(axis=1)) + _entropy_of(joint.sum(axis=0)) - _entropy_of(joint.reshape(-1))
    return max(0.0, info)


@dataclass(frozen=True)
class SecurityVerdict:
    """Outcome of a security-condition check.

    advantage_holds is the raw information comparison; condition_holds is
    the implication "error rate within threshold implies the advantage",
    which is vacuously true when the run would have aborted anyway.
    """

    error_rate: float
    threshold: float
    info_ab: float
    info_ae: float
    advantage_holds: bool
    condition_holds: bool
    block_size: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate <= 1.0:
            raise MetricsError(f"error rate out of range: {self.error_rate}")
        if not 0.0 <= self.threshold <= 1.0:
            raise MetricsError(f"threshold out of range: {self.threshold}")
        if self.info_ab < 0.0 or self.info_ae < 0.0:
            raise MetricsError("information values must be nonnegative")


def check_qkd_condition(
    error_rate: float, threshold: float, info_ab: float, info_ae: float
) -> SecurityVerdict:
    """Key-distribution security: e <= e0 implies I(A:B) >= I(A:E)."""
    advantage = info_ab >= info_ae
    return SecurityVerdict(
        error_rate=error_rate,
        threshold=threshold,
        info_ab=info_ab,
        info_ae=info_ae,
        advantage_holds=advantage,
        condition_holds=(error_rate > threshold) or advantage,
    )


def check_qsdc_condition(
    error_rate: float,
    threshold: float,
    info_ab: float,
    info_ae_prime: float,
    block_size: int,
) -> SecurityVerdict:
    """Direct-communication security: e <= e0 implies I(A:B) > I'(A:E).

    info_ae_prime is the eavesdropper information about the block-encoded
    payload, which permutation scrambling drives below the streaming
    value; the verdict records it so decay with block size is reportable.
    """
    if block_size < 1:
        raise MetricsError(f"block size must be positive, got {block_size}")
    advantage = info_ab > info_ae_prime
    return SecurityVerdict(
        error_rate=error_rate,
        threshold=threshold,
        info_ab=info_ab,
        info_ae=info_ae_prime,
        advantage_holds=advantage,
        condition_holds=(error_rate > threshold) or advantage,
        block_size=block_size,
    )


@dataclass(frozen=True)
class SweepPoint:
    """One probe-family operating point: angle, disturbance, both rates."""

    theta: float
    error_rate: float
    info_ab: float
    info_ae: float


def _sweep_point(theta: float) -> SweepPoint:
    ProbeAttackSpec(theta)  # the range check
    c = math.cos(theta)
    error = (1.0 - c) / 2.0
    return SweepPoint(
        theta=theta,
        error_rate=error,
        info_ab=1.0 - binary_entropy(error),
        info_ae=binary_entropy((1.0 + c) / 2.0),
    )


def probe_family_sweep(thetas: Sequence[float]) -> list[SweepPoint]:
    """Exact sweep of the controlled-rotation probe family, in closed form.

    Per angle, with c = cos theta: Eve's probe couples to the
    computational basis, so a conjugate-basis check state flips with
    probability e = (1 - c)/2, the observed error rate; the legitimate
    channel is scored as 1 - h(e); and Eve's information is the Holevo
    quantity of her two equiprobable pure probe states, whose overlap is
    c, which is h((1 + c)/2).
    """
    return [_sweep_point(float(t)) for t in thetas]


def information_crossing(
    lo: float = 0.0, hi: float = math.pi / 2, iterations: int = 60
) -> SweepPoint:
    """Bisect for the angle where I(A:B) = I(A:E) on the probe sweep.

    The gap is strictly decreasing from +1 at zero coupling to -1 at full
    coupling, so plain bisection converges; 60 halvings push the bracket
    far below the 1e-6 agreement demanded downstream.
    """

    def gap(theta: float) -> float:
        point = _sweep_point(theta)
        return point.info_ab - point.info_ae

    if not (gap(lo) > 0.0 > gap(hi)):
        raise MetricsError("crossing bracket does not straddle a sign change")
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return _sweep_point(0.5 * (lo + hi))


def calibrated_threshold() -> float:
    """Error rate at the information crossing; the default quantum e0."""
    return information_crossing().error_rate
