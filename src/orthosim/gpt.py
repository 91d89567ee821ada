"""Generalized-local-theory state engine.

A theory is fixed by a :class:`FiducialSpec`: J fiducial measurements with
K outcomes each.  A state is a J-by-K table of outcome probabilities, one
row per fiducial.  Pure "gbits" assign a definite outcome to every
fiducial, so any single fiducial distinguishes two pure gbits that differ
there in one shot.

Measurement is maximally disturbing: the measured row collapses to the
observed outcome and every other row is reset to the uniform distribution.
That reset, rather than any uncertainty relation, is what the protocols
built on top of this module use to expose an intercepting adversary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

ROW_SUM_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12

_QUBIT_EIGENSTATES = ("X+", "X-", "Y+", "Y-", "Z+", "Z-")


class GptError(ValueError):
    """Base error for violations of the state-table contract."""


class GptValidationError(GptError):
    """Raised when a spec, state, assignment, or weight vector is malformed."""


@dataclass(frozen=True, slots=True)
class FiducialSpec:
    """Measurement structure of a theory: ``num_fiducials`` fiducial
    measurements, each with ``num_outcomes`` outcomes."""

    num_fiducials: int
    num_outcomes: int

    def __post_init__(self) -> None:
        if not isinstance(self.num_fiducials, int) or self.num_fiducials < 1:
            raise GptValidationError(
                f"num_fiducials must be an integer >= 1, got {self.num_fiducials!r}"
            )
        if not isinstance(self.num_outcomes, int) or self.num_outcomes < 2:
            raise GptValidationError(
                f"num_outcomes must be an integer >= 2, got {self.num_outcomes!r}"
            )


@dataclass(frozen=True, slots=True)
class GptState:
    """Probability table over fiducial outcomes.

    ``probs[mu][alpha]`` is the probability of outcome ``alpha`` when
    fiducial ``mu`` is measured.  Rows must be normalized within
    ``ROW_SUM_TOL``.  Instances are immutable; operations return new
    states.
    """

    spec: FiducialSpec
    probs: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(float(p) for p in row) for row in self.probs)
        object.__setattr__(self, "probs", rows)
        if len(rows) != self.spec.num_fiducials:
            raise GptValidationError(
                f"expected {self.spec.num_fiducials} rows, got {len(rows)}"
            )
        for mu, row in enumerate(rows):
            if len(row) != self.spec.num_outcomes:
                raise GptValidationError(
                    f"row {mu}: expected {self.spec.num_outcomes} entries, got {len(row)}"
                )
            for alpha, p in enumerate(row):
                if not (0.0 <= p <= 1.0):
                    raise GptValidationError(
                        f"row {mu}, outcome {alpha}: probability {p!r} outside [0, 1]"
                    )
            if abs(math.fsum(row) - 1.0) > ROW_SUM_TOL:
                raise GptValidationError(
                    f"row {mu} sums to {math.fsum(row)!r}, not 1 within {ROW_SUM_TOL}"
                )

    def row(self, fiducial: int) -> tuple[float, ...]:
        _check_fiducial(self.spec, fiducial)
        return self.probs[fiducial]


@dataclass(frozen=True, slots=True)
class PureGbit:
    """Definite-outcome state: one outcome index per fiducial."""

    spec: FiducialSpec
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        assignment = tuple(int(a) for a in self.assignment)
        object.__setattr__(self, "assignment", assignment)
        if len(assignment) != self.spec.num_fiducials:
            raise GptValidationError(
                f"assignment length {len(assignment)} != {self.spec.num_fiducials} fiducials"
            )
        for mu, alpha in enumerate(assignment):
            if not (0 <= alpha < self.spec.num_outcomes):
                raise GptValidationError(
                    f"assignment[{mu}] = {alpha} outside outcome range "
                    f"[0, {self.spec.num_outcomes})"
                )

    def to_state(self) -> GptState:
        return gbit_pure(self.spec, self.assignment)


class PrBox:
    """Bipartite no-signaling resource with outputs satisfying
    ``a XOR b == x AND y`` and uniform marginals."""

    def sample(self, x: int, y: int, rng) -> tuple[int, int]:
        return pr_box_sample(x, y, rng)


@lru_cache(maxsize=None)
def _uniform_row(num_outcomes: int) -> tuple[float, ...]:
    return (1.0 / num_outcomes,) * num_outcomes


@lru_cache(maxsize=None)
def _point_row(num_outcomes: int, outcome: int) -> tuple[float, ...]:
    return tuple(1.0 if a == outcome else 0.0 for a in range(num_outcomes))


def _check_fiducial(spec: FiducialSpec, fiducial: int) -> None:
    if not (0 <= fiducial < spec.num_fiducials):
        raise GptValidationError(
            f"fiducial index {fiducial} outside [0, {spec.num_fiducials})"
        )


@lru_cache(maxsize=4096)
def _pure_table(spec: FiducialSpec, assignment: tuple[int, ...]) -> GptState:
    rows = tuple(_point_row(spec.num_outcomes, a) for a in assignment)
    return GptState(spec, rows)


def gbit_pure(spec: FiducialSpec, assignment: Sequence[int]) -> GptState:
    """Build the pure-gbit table: row ``mu`` is a point mass at
    ``assignment[mu]``."""
    gbit = PureGbit(spec, tuple(assignment))
    return _pure_table(spec, gbit.assignment)


def mix(states: Sequence[GptState], weights: Sequence[float]) -> GptState:
    """Convex mixture of states sharing one spec.

    Weights must be nonnegative and sum to 1 within ``WEIGHT_SUM_TOL``.
    """
    if len(states) == 0:
        raise GptValidationError("mix requires at least one state")
    if len(states) != len(weights):
        raise GptValidationError(
            f"{len(states)} states but {len(weights)} weights"
        )
    spec = states[0].spec
    for s in states[1:]:
        if s.spec != spec:
            raise GptValidationError("all mixed states must share one FiducialSpec")
    ws = [float(w) for w in weights]
    for w in ws:
        if w < 0.0:
            raise GptValidationError(f"negative weight {w!r}")
    if abs(math.fsum(ws) - 1.0) > WEIGHT_SUM_TOL:
        raise GptValidationError(
            f"weights sum to {math.fsum(ws)!r}, not 1 within {WEIGHT_SUM_TOL}"
        )
    # weights summing to 1 within tolerance can push an entry just past
    # [0, 1], e.g. to 1.0000000000000002; clamp such rounding back in
    rows = tuple(
        tuple(
            _clamp_unit(math.fsum(w * s.probs[mu][alpha] for w, s in zip(ws, states)))
            for alpha in range(spec.num_outcomes)
        )
        for mu in range(spec.num_fiducials)
    )
    return GptState(spec, rows)


def _clamp_unit(p: float) -> float:
    if -ROW_SUM_TOL <= p < 0.0:
        return 0.0
    if 1.0 < p <= 1.0 + ROW_SUM_TOL:
        return 1.0
    return p


def embed_qubit(eigenstate: str) -> GptState:
    """Fiducial table of a Pauli eigenstate under the (X, Y, Z) fiducials.

    The eigenstate's own axis is a point mass and the two conjugate axes
    are uniform, e.g. ``Z+`` maps to rows ((1/2, 1/2), (1/2, 1/2), (1, 0)).
    """
    if eigenstate not in _QUBIT_EIGENSTATES:
        raise GptValidationError(
            f"eigenstate must be one of {_QUBIT_EIGENSTATES}, got {eigenstate!r}"
        )
    spec = FiducialSpec(3, 2)
    axis = "XYZ".index(eigenstate[0])
    outcome = 0 if eigenstate[1] == "+" else 1
    rows = tuple(
        _point_row(2, outcome) if mu == axis else _uniform_row(2)
        for mu in range(3)
    )
    return GptState(spec, rows)


def _sample_row(row: tuple[float, ...], rng) -> int:
    u = rng.random()
    acc = 0.0
    for alpha, p in enumerate(row):
        acc += p
        if u < acc:
            return alpha
    return len(row) - 1


def sample_outcome(state: GptState, fiducial: int, rng) -> int:
    """Sample an outcome of one fiducial without constructing the
    post-measurement state."""
    _check_fiducial(state.spec, fiducial)
    return _sample_row(state.probs[fiducial], rng)


@lru_cache(maxsize=4096)
def _disturbed_table(spec: FiducialSpec, fiducial: int, outcome: int) -> GptState:
    k = spec.num_outcomes
    rows = tuple(
        _point_row(k, outcome) if mu == fiducial else _uniform_row(k)
        for mu in range(spec.num_fiducials)
    )
    return GptState(spec, rows)


def measure_fiducial(state: GptState, fiducial: int, rng) -> tuple[int, GptState]:
    """Measure one fiducial: sample an outcome from its row, then return
    the maximally disturbed post-state.

    The measured row becomes a point mass at the sampled outcome; every
    other row is reset to uniform, whatever it held before. The post
    state depends only on what was measured, so instances are shared.
    """
    _check_fiducial(state.spec, fiducial)
    outcome = _sample_row(state.probs[fiducial], rng)
    return outcome, _disturbed_table(state.spec, fiducial, outcome)


def distinguishing_fiducial(a: PureGbit, b: PureGbit) -> Optional[int]:
    """Least fiducial index where the two assignments differ.

    Pure gbits that differ anywhere are perfectly distinguishable by a
    single shot of that fiducial.  Returns None only when ``a == b``.
    """
    if a.spec != b.spec:
        raise GptValidationError("gbits live in different theories")
    for mu, (x, y) in enumerate(zip(a.assignment, b.assignment)):
        if x != y:
            return mu
    return None


def pr_box_sample(x: int, y: int, rng) -> tuple[int, int]:
    """One use of the no-signaling box: uniform ``a``, then
    ``b = a XOR (x AND y)``."""
    if x not in (0, 1) or y not in (0, 1):
        raise GptValidationError(f"inputs must be bits, got x={x!r} y={y!r}")
    a = int(rng.integers(0, 2))
    b = a ^ (x & y)
    return a, b
