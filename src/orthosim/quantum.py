"""Pair engine for the Bell-pair protocols.

:class:`QuantumRegistry` holds each pair of a protocol run as one int8
state code, a Pauli frame on a singlet or a product of Z/X eigenstates,
and runs every operation as a lookup in tables built at import, on
particle blocks checked once, when they are built.  Beside it: the Bell
outcomes, memoryless noise channels as Pauli mixtures, and
the probe-attack spec, whose probes the engine traces out as Z flips.

The module also keeps a small density-matrix Holevo helper set
(:class:`DensityMatrix`, :func:`von_neumann_entropy`,
:func:`holevo_information`) that no protocol path calls; the benchmark
tracer pins it by name.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Sequence

import numpy as np

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Pauli index 2x + z of each Pauli, applied as X^x Z^z; Y is XZ up to the
# global phase i, which no measurement sees
_PAULI_INDEX = ((PAULI_I, 0), (PAULI_X, 2), (PAULI_Y, 3), (PAULI_Z, 1))


class QuantumError(ValueError):
    """Base error for the qubit engine."""


class QuantumValidationError(QuantumError):
    """Malformed state, operator, or argument."""


class BellOutcome(IntEnum):
    PHI_PLUS = 0
    PHI_MINUS = 1
    PSI_PLUS = 2
    PSI_MINUS = 3


# --------------------------------------------------------------- noise


@dataclass(frozen=True)
class NoiseChannel:
    """Single-qubit memoryless channel, applied independently per use.

    ``depolarizing`` mixes toward the maximally mixed state with weight
    ``probability``; ``bit-flip`` applies X with that probability.
    """

    kind: str
    probability: float
    _cumulative: np.ndarray = field(init=False, repr=False, compare=False)
    _codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("depolarizing", "bit-flip"):
            raise QuantumValidationError(f"unknown channel kind {self.kind!r}")
        if not (0.0 <= self.probability <= 1.0):
            raise QuantumValidationError(
                f"channel probability {self.probability!r} outside [0, 1]"
            )
        mixture = self.pauli_mixture()
        # a draw past the last cumulative weight (rounding) gets the trailing identity
        codes = [next(i for op, i in _PAULI_INDEX if op is m) for _, m in mixture]
        assert codes[0] == 0, "a draw under the first weight must be the identity"
        # read-only: one channel per noise spec is shared across runs
        cumulative, codes = np.cumsum([w for w, _ in mixture]), np.array(codes + [0])
        cumulative.flags.writeable = codes.flags.writeable = False
        object.__setattr__(self, "_cumulative", cumulative)
        object.__setattr__(self, "_codes", codes)

    def pauli_mixture(self) -> list[tuple[float, np.ndarray]]:
        """The channel as a random-Pauli process (used for trajectories)."""
        p = self.probability
        if self.kind == "bit-flip":
            return [(1.0 - p, PAULI_I), (p, PAULI_X)]
        return [
            (1.0 - 0.75 * p, PAULI_I),
            (0.25 * p, PAULI_X),
            (0.25 * p, PAULI_Y),
            (0.25 * p, PAULI_Z),
        ]

    def sample_codes(self, count: int, rng) -> np.ndarray:
        """One trajectory per use: the code 2x + z of X^x Z^z drawn with
        the mixture weights, one uniform per use."""
        hit, hit_codes = self.sample_hits(count, rng)
        codes = np.zeros(count, dtype=self._codes.dtype)
        codes[hit] = hit_codes
        return codes

    def sample_hits(self, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`sample_codes` as the uses whose draw reaches past the
        leading identity weight, and their codes: only those draws are
        looked up in the mixture's intervals."""
        draws = rng.random(count)
        hit = np.flatnonzero(draws >= self._cumulative[0])
        return hit, self._codes[np.searchsorted(self._cumulative, draws[hit], side="right")]


# --------------------------------------------------------------- probe family


@dataclass(frozen=True)
class ProbeAttackSpec:
    """One-parameter entangling-probe family.

    The probe interaction acts on (system qubit, fresh probe qubit in
    ``|0>``) as identity when the system is 0 and as a rotation of the
    probe by ``2*theta`` when the system is 1.  ``theta=0`` is transparent;
    ``theta=pi/2`` copies the system's computational bit onto the probe.
    """

    theta: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta <= math.pi / 2 + 1e-12):
            raise QuantumValidationError(
                f"theta {self.theta!r} outside [0, pi/2]"
            )


# --------------------------------------------------------------- pair engine


def _pack(bases: list[int], values: list[int]) -> int:
    """Code of a product of eigenstates, from its basis and value per half."""
    return 4 + 4 * (2 * bases[0] + values[0]) + 2 * bases[1] + values[1]


def _pair_tables() -> tuple[np.ndarray, ...]:
    """Each registry operation applied once to each pair code: the code
    after X^x Z^z (half, 2x + z, code), a measurement's p0 (half, basis,
    code) and code after it (half, basis, seen, code), the cumulative
    Born probabilities of a Bell measurement (first three outcomes, code),
    and its outcome at each quarter of the draw (code, floor(4 draw))."""
    pauli, p0 = np.empty((2, 4, 20), np.int8), np.empty((2, 2, 20))
    after, bell = np.zeros((2, 2, 2, 20), np.int8), np.empty((3, 20))
    quarter = np.empty((20, 4), np.int8)
    for code in range(20):
        if code < 4:
            frame, bases, values = code, [-1, -1], [0, 0]
        else:
            frame, s = -1, divmod(code - 4, 4)
            bases, values = [t >> 1 for t in s], [t & 1 for t in s]
        for half, xz in itertools.product((0, 1), range(4)):
            # a Pauli on either half of a singlet is the same Pauli on half
            # 0, up to a phase; X flips a Z eigenstate and Z an X eigenstate
            flipped = values.copy()
            flipped[half] ^= xz >> (1 - bases[half]) & 1
            pauli[half, xz, code] = code ^ xz if frame >= 0 else _pack(bases, flipped)
        for half, basis, seen in itertools.product((0, 1), repeat=3):
            # an eigenstate of the basis has p0 of 0 or 1, anything else 1/2
            p0[half, basis, code] = 1 - values[half] if bases[half] == basis else 0.5
            b, v = bases.copy(), values.copy()
            if frame >= 0:  # the partner collapses onto the correlated eigenstate
                b[1 - half], v[1 - half] = basis, seen ^ 1 ^ (frame >> (1 - basis) & 1)
            b[half], v[half] = basis, seen
            after[half, basis, seen, code] = _pack(b, v)
        # a frame fixes both frame bits; a product fixes the Z parity (x)
        # if both halves are in Z, the X parity (z) if both are in X
        parity = 1 ^ values[0] ^ values[1]
        bits = (frame >> 1, frame & 1) if frame >= 0 else (parity, parity)
        fixed = [frame >= 0 or bases == [i, i] for i in (0, 1)]
        # BellOutcome k is frame 3 - k: PHI+, PHI-, PSI+, PSI- = X^x Z^z (half 0) |PSI->
        probs = [
            math.prod(float((f >> (1 - i) & 1) == bits[i]) if fixed[i] else 0.5 for i in (0, 1))
            for f in (3, 2, 1, 0)
        ]
        bell[:, code] = cumulative = list(itertools.accumulate(probs))[:3]
        # a draw u meets cumulatives on the quarter grid as floor(4u) does
        assert all(4 * c % 1 == 0 for c in cumulative), "a Born cumulative off the quarter grid"
        quarter[code] = [sum(q >= 4 * c for c in cumulative) for q in range(4)]
    return pauli, p0, after, bell, quarter


_PAULI, _P0, _AFTER, _BELL_CUMULATIVE, _BELL_QUARTER = _pair_tables()


# a duplicate check marks one byte per value over the values' span while
# that span is under this many bytes per value, and sorts them otherwise
_MARK_SPAN = 8


def _repeats(values: np.ndarray) -> bool:
    """Whether any of these nonnegative integers appears twice, in time
    and memory that grow with their count, not with their largest value."""
    if values.size < 2:
        return False
    limit = _MARK_SPAN * values.size
    high = int(values.max())
    low = int(values.min()) if high >= limit else 0
    if high - low >= limit:
        ordered = np.sort(values)
        return bool((ordered[1:] == ordered[:-1]).any())
    seen = np.zeros(high - low + 1, dtype=bool)
    seen[values - low if low else values] = True
    return np.count_nonzero(seen) < values.size


def _indices(values, name: str) -> np.ndarray:
    """values as an intp array; non-empty ones of a non-integer dtype are refused."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise QuantumValidationError(f"{name} must be integers, got dtype {values.dtype}")
    return values.astype(np.intp, copy=False)


def _halves(slots: np.ndarray) -> list[tuple[int, np.ndarray | slice, np.ndarray]]:
    """Validated slots by half, half 0 first: (half, call positions, pairs)."""
    odd = slots & 1
    count = np.count_nonzero(odd)
    if count in (0, slots.size):
        return [(int(count > 0), slice(None), slots >> 1)] if slots.size else []
    ones, zeros = odd.nonzero()[0], (odd ^ 1).nonzero()[0]
    return [(0, zeros, slots[zeros] >> 1), (1, ones, slots[ones] >> 1)]


class QuantumRegistry:
    """Batched pair engine: every pair of a run as one int8 state code.

    Qubits 0 and 1 are a pair's halves. A pair is either a Bell frame,
    the state X^x Z^z (half 0) |singlet>, whose bit x flips the halves' Z
    correlation and z their X correlation: code 2x + z (0-3); or, once a
    half is measured, a product of eigenstates with s = 2 basis + value
    per half (basis 0 = Z, 1 = X): code 4 + 4 s0 + s1 (4-19). Paulis and
    Z, X and Bell measurements keep this exact (Pauli-frame tracking) as
    lookups in tables built at import; probes are traced out as they attach.

    The per-half operations take a :class:`ParticleBlock`, whose
    particles were checked once, when it was built, and check none of
    them again; :meth:`bell_measure` takes pair indices and checks them.
    """

    def __init__(self) -> None:
        self._code = np.zeros(0, dtype=np.int8)

    @property
    def num_pairs(self) -> int:
        return self._code.size

    def allocate(self, count: int = 1) -> np.ndarray:
        """Add ``count`` singlets; returns their pair indices."""
        if count < 1:
            raise QuantumValidationError(f"count must be positive, got {count}")
        first = self.num_pairs
        self._code = np.concatenate([self._code, np.zeros(count, dtype=np.int8)])
        return np.arange(first, first + count)

    def slots(self, pairs, qubits=None) -> np.ndarray:
        """Slot 2 pair + half of each listed particle, checked by
        :meth:`_checked`.  Without ``qubits``, ``pairs`` lists the slots
        themselves and they come back as the checked array; with them,
        the slots are a new array."""
        checked = self._checked(pairs, qubits)
        if qubits is None or np.ndim(qubits):  # already the slots
            return checked
        half = int(qubits)  # one half, checked, for every pair
        return checked << 1 | half if half else checked << 1

    def _checked(self, pairs, qubits) -> np.ndarray:
        """The listed particles validated in one pass: halves by a bitwise
        test, pairs by an unsigned range test, duplicates by
        :func:`_repeats` (on the pairs when one half covers the call).
        Returns the checked pairs as a 1-D intp array when one half
        covers the call, else the slots (the pairs themselves without
        ``qubits``, range-tested against twice the pair count)."""
        pairs = _indices(pairs, "slots" if qubits is None else "pair indices").reshape(-1)
        if qubits is None or isinstance(qubits, (int, np.integer)):  # one half for the call
            halves_ok = qubits in (None, 0, 1)
        else:
            qubits = _indices(qubits, "halves")
            if qubits.shape not in ((), pairs.shape):
                raise QuantumValidationError(f"{qubits.size} halves for {pairs.size} pairs")
            halves_ok = not np.count_nonzero(qubits & -2)
        if not halves_ok:
            raise QuantumValidationError("a pair holds qubits 0 and 1 only")
        limit = 2 * self._code.size if qubits is None else self._code.size
        if pairs.size and pairs.view(np.uintp).max() >= limit:
            raise QuantumValidationError(f"pair index outside [0, {self.num_pairs})")
        checked = pairs << 1 | qubits if np.ndim(qubits) else pairs
        if _repeats(checked):
            raise QuantumValidationError("a particle appears twice in one call")
        return checked

    def _slots_of(self, block: ParticleBlock) -> np.ndarray:
        """A block's slots, checked when it was built; only its registry is
        checked here."""
        if block.registry is not self:
            raise QuantumValidationError("the block holds particles of another registry")
        return block.slots

    def _apply(self, slots: np.ndarray, xz) -> None:
        """X^x Z^z on validated slots, xz = 2x + z per particle or shared."""
        shared = not isinstance(xz, np.ndarray)
        for half, where, group in _halves(slots):
            part = xz if shared else xz[where]
            # one flat take from the half's (4, 20) table, at 20 xz + code
            self._code[group] = _PAULI[half].take(20 * part + self._code[group])

    def apply_pauli(self, block: ParticleBlock, x, z) -> None:
        """Apply X^x Z^z to each particle of the block, with 0/1 exponents
        per particle (a scalar covers the call).  Dense coding of the bits
        (b0, b1) is (x, z) = (b1, b0) on a pair's half 0."""
        slots = self._slots_of(block)
        x, z = np.asarray(x), np.asarray(z)
        if np.count_nonzero((x | z) & -2):
            raise QuantumValidationError(
                f"Pauli exponents must be 0 or 1, got x in {np.unique(x).tolist()}"
                f" and z in {np.unique(z).tolist()}"
            )
        xz = 2 * x + z
        if xz.ndim and xz.shape != slots.shape:
            raise QuantumValidationError(f"{xz.size} exponents for {slots.size} particles")
        self._apply(slots, xz)

    def apply_noise(self, block: ParticleBlock, channel: NoiseChannel, rng) -> None:
        """One stochastic trajectory of the channel on each particle of
        the block: a random Pauli drawn with the channel's mixture weights."""
        slots = self._slots_of(block)
        hit, xz = channel.sample_hits(slots.size, rng)
        self._apply(slots[hit], xz)

    def measure(self, block: ParticleBlock, bases, rng) -> np.ndarray:
        """Projective measurement of each particle of the block in its
        basis, "Z" or "X" (X outcome 0 is the +1 eigenstate); returns the
        outcomes and leaves each qubit in the observed eigenstate.  Outcome
        1 is ``draw >= p0``, one uniform per particle; half 0 collapses
        first.
        """
        slots = self._slots_of(block)
        bases = np.asarray(bases)
        is_x = bases == "X"
        if not (is_x | (bases == "Z")).all():
            raise QuantumValidationError(f"bases must be 'Z' or 'X', got {np.unique(bases)}")
        basis = np.zeros(slots.size, dtype=np.int8) + is_x  # a scalar basis covers the call
        draws = rng.random(slots.size)
        outcomes = np.empty(slots.size, dtype=np.int8)
        for half, where, group in _halves(slots):
            b, code = basis[where], self._code[group]
            seen = (draws[where] >= _P0[half, b, code]).view(np.int8)
            self._code[group] = _AFTER[half, b, seen, code]
            outcomes[where] = seen
        return outcomes

    def attach_probe(self, block: ParticleBlock, spec: ProbeAttackSpec, rng) -> None:
        """Entangle a fresh ``|0>`` probe with each particle of the block
        and trace it out: the half takes a Z flip with probability
        (1 - cos theta)/2, one uniform per particle from ``rng``."""
        slots = self._slots_of(block)
        flip = rng.random(slots.size) < (1.0 - math.cos(spec.theta)) / 2.0
        self._apply(slots[flip], 1)

    def bell_measure(self, pairs, rng) -> np.ndarray:
        """Bell-basis measurement of each listed pair's two halves;
        returns BellOutcome values and leaves each pair in that Bell state.

        One uniform per pair meets the cumulative Born probabilities of
        the pair's code in BellOutcome order: a frame fixes the outcome, a
        product in a shared basis fixes one frame bit, and the rest is
        uniform.  Those are multiples of 1/4, so the outcome is read from
        :data:`_BELL_QUARTER` at the draw's quarter.
        """
        pairs = self._checked(pairs, 0)
        quarters = (rng.random(pairs.size) * 4).astype(np.int8)
        outcomes = _BELL_QUARTER.take(quarters + 4 * self._code[pairs])
        self._code[pairs] = 3 - outcomes  # BellOutcome k is frame 3 - k
        return outcomes


class ParticleBlock:
    """Quantum particles in transit, as slots into a pair engine.

    Particle ``i`` is half ``slots[i] & 1`` of pair ``slots[i] >> 1`` in
    ``registry``.  The block is checked once, when it is built from pair
    indices and halves (a scalar half covers the block) or from slots
    alone: every pair in the registry, every half 0 or 1, no particle
    twice.  Its parts (:meth:`take`) and the registry operations that
    take it check none of its particles again.
    """

    __slots__ = ("registry", "slots")

    def __init__(self, registry: QuantumRegistry, pairs, qubits=None) -> None:
        self.registry = registry
        self.slots = registry.slots(pairs, qubits)

    @property
    def pairs(self) -> np.ndarray:
        return self.slots >> 1

    @property
    def qubits(self) -> np.ndarray:
        return self.slots & 1

    def __len__(self) -> int:
        return self.slots.size

    def take(self, index) -> ParticleBlock:
        """The particles at ``index`` (gather semantics, a slice, or a
        mask), not checked again: ``index`` must not repeat a position."""
        part = object.__new__(ParticleBlock)
        part.registry, part.slots = self.registry, self.slots[index]
        return part


# --------------------------------------------------------------- Holevo helpers
# No protocol path calls these.  The benchmark tracer (bench/tracing.py)
# resolves holevo_information by name, and the rest are what it needs; all
# of them retire with the benchmark refresh (ROADMAP direction 1).

# kept for the tracer-pinned holevo_information, as are the names below
MAX_QUBITS = 14
TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
WEIGHT_SUM_TOL = 1e-12


# kept for the tracer-pinned holevo_information
class ResourceLimitError(QuantumError):
    """A register would exceed MAX_QUBITS."""


def _num_qubits_for(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise QuantumValidationError(f"dimension {dim} is not a power of two")
    return n


# kept for the tracer-pinned holevo_information
@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator.

    ``spectrum`` holds the ascending eigenvalues that the positivity
    check computes, so entropies need no second eigensolve.
    """

    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise QuantumValidationError(f"matrix shape {mat.shape} is not square")
        n = _num_qubits_for(mat.shape[0])
        if n > MAX_QUBITS:
            raise ResourceLimitError(
                f"{n} qubits exceeds the MAX_QUBITS={MAX_QUBITS} guard"
            )
        if not np.allclose(mat, mat.conj().T, atol=HERMITICITY_TOL, rtol=0.0):
            raise QuantumValidationError("matrix is not Hermitian within tolerance")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > TRACE_TOL:
            raise QuantumValidationError(
                f"trace {trace!r} deviates from 1 by more than {TRACE_TOL}"
            )
        spectrum = np.linalg.eigvalsh(mat)
        smallest = float(spectrum[0])
        if smallest < EIGENVALUE_FLOOR:
            raise QuantumValidationError(
                f"eigenvalue {smallest!r} below the {EIGENVALUE_FLOOR} floor"
            )
        mat.flags.writeable = False
        spectrum.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def num_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


# kept for the tracer-pinned holevo_information
def von_neumann_entropy(dm: DensityMatrix) -> float:
    """Entropy in bits; eigenvalues in [-1e-10, 0) are clipped to zero."""
    eigs = dm.spectrum
    eigs = np.where((eigs < 0.0) & (eigs >= EIGENVALUE_FLOOR), 0.0, eigs)
    positive = eigs[eigs > 0.0]
    return float(-(positive * np.log2(positive)).sum())


# pinned by the benchmark tracer; retires with the benchmark refresh
def holevo_information(ensemble: Sequence[tuple[float, DensityMatrix]]) -> float:
    """Entropy of the average state minus the average entropy, in bits.

    Upper-bounds any classical information extractable from the ensemble.
    """
    if not ensemble:
        raise QuantumValidationError("ensemble must be nonempty")
    weights = [float(p) for p, _ in ensemble]
    if any(w < 0.0 for w in weights):
        raise QuantumValidationError("ensemble probabilities must be nonnegative")
    if abs(math.fsum(weights) - 1.0) > WEIGHT_SUM_TOL:
        raise QuantumValidationError("ensemble probabilities must sum to 1")
    dim = ensemble[0][1].matrix.shape[0]
    for _, dm in ensemble:
        if dm.matrix.shape[0] != dim:
            raise QuantumValidationError("ensemble states must share one dimension")
    avg = sum(p * dm.matrix for p, dm in ensemble)
    mean_entropy = math.fsum(p * von_neumann_entropy(dm) for p, dm in ensemble)
    return von_neumann_entropy(DensityMatrix(avg)) - mean_entropy
