"""Generalized-local-theory state engine, one array model per gbit block.

A theory is fixed by a :class:`FiducialSpec`: J fiducial measurements with
K outcomes each.  A state is a J-by-K table of outcome probabilities, one
row per fiducial (fiducial-table states as in Barrett, PRA 75, 032304
(2007)).  The protocols reach only two kinds of table:

- a codeword, which answers every fiducial with one definite outcome;
- a measured state.  Measurement is maximally disturbing: the measured row
  collapses to the observed outcome and every other row is reset to the
  uniform distribution, whatever it held before.

So a :class:`GbitBlock` describes each gbit by two integers: its definite
outcome, and the fiducial that a measurement forced it in (-1 while the
gbit is a pristine codeword).  That reset, rather than any uncertainty
relation, is what the protocols built on top of this module use to expose
an intercepting adversary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


class GptError(ValueError):
    """Base error for violations of the state-table contract."""


class GptValidationError(GptError):
    """Raised when a spec, block, or fiducial choice is malformed."""


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


def _indices(values, name: str) -> np.ndarray:
    """values as an intp array; non-empty ones of a non-integer dtype are refused."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise GptValidationError(f"{name} must be integers, got dtype {values.dtype}")
    return values.astype(np.intp, copy=False)


@dataclass(frozen=True, eq=False)
class GbitBlock:
    """Gbits as index arrays, one entry per gbit.

    Where ``fiducials[i]`` is -1, gbit ``i`` is the pristine codeword that
    answers every fiducial with ``outcomes[i]``.  Otherwise a measurement
    of fiducial ``fiducials[i]`` saw ``outcomes[i]``: that row is a point
    mass there and every other row is uniform.  A block is checked when
    built; :meth:`take`, :meth:`put` and :func:`measure_fiducial` build
    theirs unchecked.  Blocks compare by identity.
    """

    spec: FiducialSpec
    outcomes: np.ndarray
    fiducials: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        outcomes = _indices(self.outcomes, "outcomes").reshape(-1)
        fiducials = np.broadcast_to(
            _indices(-1 if self.fiducials is None else self.fiducials, "fiducials"),
            outcomes.shape,
        )
        if outcomes.size and (outcomes.min() < 0 or outcomes.max() >= self.spec.num_outcomes):
            raise GptValidationError(
                f"outcomes must lie in [0, {self.spec.num_outcomes})"
            )
        if fiducials.size and (fiducials.min() < -1 or fiducials.max() >= self.spec.num_fiducials):
            raise GptValidationError(
                f"fiducials must lie in [-1, {self.spec.num_fiducials})"
            )
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "fiducials", fiducials)

    def __len__(self) -> int:
        return self.outcomes.size

    def take(self, index) -> "GbitBlock":
        """The gbits at ``index`` (gather semantics, or a mask)."""
        outcomes, fiducials = self.outcomes[index], self.fiducials[index]
        return _unchecked(self.spec, outcomes.reshape(-1), fiducials.reshape(-1))

    def put(self, index, block: "GbitBlock") -> "GbitBlock":
        """This block with the gbits at ``index`` replaced by ``block``'s."""
        if block.spec != self.spec:
            raise GptValidationError(f"cannot put gbits of {block.spec} into gbits of {self.spec}")
        outcomes, fiducials = self.outcomes.copy(), self.fiducials.copy()
        outcomes[index], fiducials[index] = block.outcomes, block.fiducials
        return _unchecked(self.spec, outcomes, fiducials)


def _unchecked(spec: FiducialSpec, outcomes: np.ndarray, fiducials: np.ndarray) -> GbitBlock:
    """A block of 1-D intp arrays already valid for ``spec``, not checked again."""
    block = object.__new__(GbitBlock)
    block.__dict__.update(spec=spec, outcomes=outcomes, fiducials=fiducials)
    return block


def _check_fiducials(block: GbitBlock, fiducials) -> np.ndarray:
    fiducials = np.broadcast_to(_indices(fiducials, "fiducial indices"), (len(block),))
    if fiducials.size and (fiducials.min() < 0 or fiducials.max() >= block.spec.num_fiducials):
        raise GptValidationError(
            f"fiducial indices must lie in [0, {block.spec.num_fiducials})"
        )
    return fiducials


def sample_outcome(block: GbitBlock, fiducials, rng) -> np.ndarray:
    """Sample the outcome of measuring ``fiducials[i]`` on gbit ``i``,
    without building the post-measurement block.

    A pristine codeword, or a gbit measured before in the same fiducial,
    gives its definite outcome; any other row is uniform.  One uniform
    draw is made per gbit.
    """
    fiducials = _check_fiducials(block, fiducials)
    uniform = rng.integers(0, block.spec.num_outcomes, size=len(block))
    definite = (block.fiducials < 0) | (block.fiducials == fiducials)
    return np.where(definite, block.outcomes, uniform)


def measure_fiducial(block: GbitBlock, fiducials, rng) -> tuple[np.ndarray, GbitBlock]:
    """Measure ``fiducials[i]`` on gbit ``i``: sample the outcomes, then
    return them with the maximally disturbed post-measurement block."""
    outcomes = sample_outcome(block, fiducials, rng)  # checks the fiducials
    fiducials = np.broadcast_to(np.asarray(fiducials, dtype=np.intp), outcomes.shape)
    return outcomes, _unchecked(block.spec, outcomes, fiducials)
