"""Exact little-endian qubit engine.

Amplitude index ``i`` encodes qubit ``q`` in bit ``(i >> q) & 1``, so qubit
0 is the least significant bit.  States here are dense and exact, which
is why register sizes are capped at ``MAX_QUBITS``.

Also houses the Bell-pair toolbox (singlet preparation, dense coding, Bell
projection), the probe-interaction family used by eavesdropping models,
memoryless noise channels, and :class:`QuantumRegistry`, the batched pair
engine that holds each pair of a protocol run as one int8 state code, a
Pauli frame on a singlet or a product of eigenstates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Sequence

import numpy as np

MAX_QUBITS = 14
NORM_TOL = 1e-10
TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
WEIGHT_SUM_TOL = 1e-12

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


class QuantumError(ValueError):
    """Base error for the qubit engine."""


class QuantumValidationError(QuantumError):
    """Malformed state, operator, or argument."""


class ResourceLimitError(QuantumError):
    """A register would exceed MAX_QUBITS."""


def _num_qubits_for(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise QuantumValidationError(f"dimension {dim} is not a power of two")
    return n


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over ``num_qubits`` qubits."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        n = _num_qubits_for(amps.size)
        if n > MAX_QUBITS:
            raise ResourceLimitError(
                f"{n} qubits exceeds the MAX_QUBITS={MAX_QUBITS} guard"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise QuantumValidationError(
                f"state norm {norm!r} deviates from 1 by more than {NORM_TOL}"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1


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


class BellOutcome(IntEnum):
    PHI_PLUS = 0
    PHI_MINUS = 1
    PSI_PLUS = 2
    PSI_MINUS = 3


_SQ2 = 1.0 / math.sqrt(2)
# rows indexed by BellOutcome; columns by local index 2*bit_first + bit_second
_BELL_BASIS = np.array(
    [
        [_SQ2, 0, 0, _SQ2],
        [_SQ2, 0, 0, -_SQ2],
        [0, _SQ2, _SQ2, 0],
        [0, _SQ2, -_SQ2, 0],
    ],
    dtype=complex,
)


def basis_state(num_qubits: int, index: int) -> StateVector:
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def singlet() -> StateVector:
    """Antisymmetric Bell pair, amplitudes (0, 1/sqrt2, -1/sqrt2, 0)."""
    return StateVector(np.array([0.0, _SQ2, -_SQ2, 0.0], dtype=complex))


def ry(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def controlled_gate(gate: np.ndarray) -> np.ndarray:
    """Two-qubit block gate: identity on control 0, ``gate`` on control 1.

    Local ordering is (control, target): index = 2*control_bit + target_bit.
    """
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = np.asarray(gate, dtype=complex)
    return out


def _axis(num_qubits: int, qubit: int) -> int:
    if not (0 <= qubit < num_qubits):
        raise QuantumValidationError(
            f"qubit index {qubit} outside [0, {num_qubits})"
        )
    return num_qubits - 1 - qubit


def _apply_gate_vec(amps: np.ndarray, gate: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Apply a (2^k x 2^k) gate to qubits of a raw amplitude vector.

    ``qubits[0]`` is the most significant local index of the gate.
    """
    n = amps.size.bit_length() - 1
    axes = [_axis(n, q) for q in qubits]
    if len(set(qubits)) != len(qubits):
        raise QuantumValidationError(f"duplicate qubits in {qubits}")
    k = len(qubits)
    arr = amps.reshape([2] * n)
    arr = np.moveaxis(arr, axes, range(k))
    arr = (np.asarray(gate, dtype=complex) @ arr.reshape(2**k, -1)).reshape([2] * n)
    arr = np.moveaxis(arr, range(k), axes)
    return arr.reshape(-1)


def apply_single_qubit_gate(state: StateVector, gate: np.ndarray, qubit: int) -> StateVector:
    return StateVector(_apply_gate_vec(state.amplitudes, gate, [qubit]))


_DENSE_OPS = {
    (0, 0): PAULI_I,
    (0, 1): PAULI_X,
    (1, 0): PAULI_Z,
    (1, 1): PAULI_X @ PAULI_Z,
}


def dense_encode(two_bits: Sequence[int], pair: StateVector, which: int = 0) -> StateVector:
    """Encode two classical bits on one half of an entangled pair.

    Bit pairs 00/01/10/11 map to I/X/Z/XZ on qubit ``which``.  Applied to
    the four bit pairs on a shared singlet this produces the four mutually
    orthogonal Bell states, so both bits are recoverable from one Bell
    measurement of the pair.
    """
    bits = tuple(int(b) for b in two_bits)
    if len(bits) != 2 or any(b not in (0, 1) for b in bits):
        raise QuantumValidationError(f"two_bits must be a pair of bits, got {two_bits!r}")
    op = _DENSE_OPS[bits]
    return apply_single_qubit_gate(pair, op, which)


def bell_measure(state: StateVector, qubit_a: int, qubit_b: int, rng) -> tuple[BellOutcome, StateVector]:
    """Projective Bell-basis measurement of two qubits.

    Outcome probabilities follow the Born rule; the returned state is the
    renormalized projection (for a bare pair, the Bell state itself).
    """
    n = state.num_qubits
    if qubit_a == qubit_b:
        raise QuantumValidationError("bell measurement needs two distinct qubits")
    axes = (_axis(n, qubit_a), _axis(n, qubit_b))
    arr = np.moveaxis(state.amplitudes.reshape([2] * n), axes, (0, 1)).reshape(4, -1)
    coeffs = _BELL_BASIS.conj() @ arr              # (4, rest)
    probs = np.einsum("kr,kr->k", coeffs, coeffs.conj()).real
    total = float(probs.sum())
    probs = probs / total
    outcome = int((rng.random() >= np.cumsum(probs)[:3]).sum())
    residual = coeffs[outcome] / math.sqrt(max(float(probs[outcome]) * total, 1e-300))
    post = np.outer(_BELL_BASIS[outcome], residual).reshape([2] * n)
    post = np.moveaxis(post, (0, 1), axes).reshape(-1)
    return BellOutcome(outcome), StateVector(post)


def density(state: StateVector) -> DensityMatrix:
    return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()))


def reduced_state(state: StateVector, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix of a pure state over the kept qubits."""
    n = state.num_qubits
    keep_sorted = sorted(set(keep))
    if not keep_sorted:
        raise QuantumValidationError("keep must name at least one qubit")
    traced_axes = [_axis(n, q) for q in range(n) if q not in keep_sorted]
    psi = state.amplitudes.reshape([2] * n)
    rho = np.tensordot(psi, psi.conj(), axes=(traced_axes, traced_axes))
    dim = 2 ** len(keep_sorted)
    return DensityMatrix(rho.reshape(dim, dim))


def von_neumann_entropy(dm: DensityMatrix) -> float:
    """Entropy in bits; eigenvalues in [-1e-10, 0) are clipped to zero."""
    eigs = dm.spectrum
    eigs = np.where((eigs < 0.0) & (eigs >= EIGENVALUE_FLOOR), 0.0, eigs)
    positive = eigs[eigs > 0.0]
    return float(-(positive * np.log2(positive)).sum())


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


# --------------------------------------------------------------- noise


@dataclass(frozen=True)
class NoiseChannel:
    """Single-qubit memoryless channel, applied independently per use.

    ``depolarizing`` mixes toward the maximally mixed state with weight
    ``probability``; ``bit-flip`` applies X with that probability.
    """

    kind: str
    probability: float

    def __post_init__(self) -> None:
        if self.kind not in ("depolarizing", "bit-flip"):
            raise QuantumValidationError(f"unknown channel kind {self.kind!r}")
        if not (0.0 <= self.probability <= 1.0):
            raise QuantumValidationError(
                f"channel probability {self.probability!r} outside [0, 1]"
            )

    def kraus_operators(self) -> list[np.ndarray]:
        p = self.probability
        if self.kind == "bit-flip":
            return [math.sqrt(1.0 - p) * PAULI_I, math.sqrt(p) * PAULI_X]
        return [
            math.sqrt(1.0 - 0.75 * p) * PAULI_I,
            math.sqrt(0.25 * p) * PAULI_X,
            math.sqrt(0.25 * p) * PAULI_Y,
            math.sqrt(0.25 * p) * PAULI_Z,
        ]

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


# --------------------------------------------------------------- probe family


@dataclass(frozen=True)
class ProbeAttackSpec:
    """One-parameter entangling-probe family.

    The unitary acts on (system qubit, fresh probe qubit in ``|0>``) as
    identity when the system is 0 and as a rotation of the probe by
    ``2*theta`` when the system is 1.  ``theta=0`` is transparent;
    ``theta=pi/2`` copies the system's computational bit onto the probe.
    """

    theta: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta <= math.pi / 2 + 1e-12):
            raise QuantumValidationError(
                f"theta {self.theta!r} outside [0, pi/2]"
            )
        u = self.unitary()
        if not np.allclose(u.conj().T @ u, np.eye(4), atol=1e-10, rtol=0.0):
            raise QuantumValidationError("probe unitary failed the unitarity check")

    def unitary(self) -> np.ndarray:
        """4x4 matrix on (system, probe) local ordering."""
        return controlled_gate(ry(2.0 * self.theta))


def probe_interact(system: StateVector, spec: ProbeAttackSpec, system_qubit: int = 0) -> StateVector:
    """Append the probe as a fresh highest-index qubit in ``|0>`` and
    entangle it with ``system_qubit`` via the attack's controlled rotation."""
    joint = np.kron([1.0, 0.0], system.amplitudes)
    n = system.num_qubits + 1  # StateVector enforces MAX_QUBITS
    return StateVector(_apply_gate_vec(joint, spec.unitary(), [system_qubit, n - 1]))


# --------------------------------------------------------------- pair engine


# Pauli index 2x + z of each Pauli, applied as X^x Z^z; Y is XZ up to the
# global phase i, which no measurement sees
_PAULI_INDEX = ((PAULI_I, 0), (PAULI_X, 2), (PAULI_Y, 3), (PAULI_Z, 1))


def _pack(bases: list[int], values: list[int]) -> int:
    """Code of a product of eigenstates, from its basis and value per half."""
    return 4 + 4 * (2 * bases[0] + values[0]) + 2 * bases[1] + values[1]


def _pair_tables() -> tuple[np.ndarray, ...]:
    """Each registry operation applied once to each pair code: the code
    after X^x Z^z (half, 2x + z, code), a measurement's p0 (half, basis,
    code) and code after it (half, basis, seen, code), and the cumulative
    Born probabilities of a Bell measurement (first three outcomes, code)."""
    pauli, p0 = np.empty((2, 4, 20), np.int8), np.empty((2, 2, 20))
    after, bell = np.zeros((2, 2, 2, 20), np.int8), np.empty((3, 20))
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
        bell[:, code] = np.cumsum(probs)[:3]
    return pauli, p0, after, bell


_PAULI, _P0, _AFTER, _BELL_CUMULATIVE = _pair_tables()


class QuantumRegistry:
    """Batched pair engine: every pair of a run as one int8 state code.

    Qubits 0 and 1 are a pair's halves. A pair is either a Bell frame,
    the state X^x Z^z (half 0) |singlet>, whose bit x flips the halves' Z
    correlation and z their X correlation: code 2x + z (0-3); or, once a
    half is measured, a product of eigenstates with s = 2 basis + value
    per half (basis 0 = Z, 1 = X): code 4 + 4 s0 + s1 (4-19). Paulis and
    Z, X and Bell measurements keep this exact (Pauli-frame tracking) as
    lookups in tables built at import; probes are traced out as they attach.

    Operations take index arrays, ``pairs`` and the halves hit in each
    (a scalar broadcasts); a (pair, half) may appear once per call.
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

    def _pairs(self, pairs) -> np.ndarray:
        """Validated pair indices, each at most once."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= self.num_pairs):
            raise QuantumValidationError(f"pair index outside [0, {self.num_pairs})")
        if np.bincount(pairs, minlength=1).max() > 1:
            raise QuantumValidationError("a particle appears twice in one call")
        return pairs

    def _groups(self, pairs, qubits) -> list[tuple[int, np.ndarray | slice, np.ndarray]]:
        """Split a call's particles by half, half 0 first: (half,
        positions in the call, pair indices), all validated in one pass.
        A scalar ``qubits`` makes one group covering the whole call."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1)
        qubits = np.asarray(qubits, dtype=np.intp)
        if qubits.ndim:
            qubits = np.broadcast_to(qubits, pairs.shape)
        if not pairs.size:
            return []
        if qubits.min() < 0 or qubits.max() > 1:
            raise QuantumValidationError("a pair holds qubits 0 and 1 only")
        if pairs.min() < 0 or pairs.max() >= self.num_pairs:
            raise QuantumValidationError(f"pair index outside [0, {self.num_pairs})")
        if np.bincount(2 * pairs + qubits).max() > 1:
            raise QuantumValidationError("a particle appears twice in one call")
        if not qubits.ndim:
            return [(int(qubits), slice(None), pairs)]
        groups = []
        for half in (0, 1):
            where = np.flatnonzero(qubits == half)
            if where.size:
                groups.append((half, where, pairs[where]))
        return groups

    def apply_pauli(self, pairs, qubits, x, z) -> None:
        """Apply X^x Z^z to each listed half, with 0/1 exponents per
        particle.  Dense coding of the bits (b0, b1) is (x, z) = (b1, b0)
        on a pair's half 0."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1)
        x, z = np.broadcast_arrays(x, z, pairs)[:2]
        if ((x | z) & ~1).any():
            raise QuantumValidationError(
                f"Pauli exponents must be 0 or 1, got x in {np.unique(x).tolist()}"
                f" and z in {np.unique(z).tolist()}"
            )
        xz = 2 * x + z
        for half, where, group in self._groups(pairs, qubits):
            self._code[group] = _PAULI[half, xz[where], self._code[group]]

    def apply_noise(self, pairs, qubits, channel: NoiseChannel, rng) -> None:
        """One stochastic trajectory of the channel on each listed qubit:
        a random Pauli drawn with the channel's mixture weights."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1)
        qubits = np.broadcast_to(np.asarray(qubits, dtype=np.intp), pairs.shape)
        mixture = channel.pauli_mixture()
        # past the last cumulative weight (rounding) draws the identity
        paulis = np.array([next(i for op, i in _PAULI_INDEX if op is m) for _, m in mixture] + [0])
        cumulative = np.cumsum([w for w, _ in mixture])
        xz = paulis[np.searchsorted(cumulative, rng.random(pairs.size), side="right")]
        hit = np.flatnonzero(xz)
        self.apply_pauli(pairs[hit], qubits[hit], xz[hit] >> 1, xz[hit] & 1)

    def measure(self, pairs, qubits, bases, rng) -> np.ndarray:
        """Projective measurement of each listed qubit in its basis, "Z"
        or "X" (X outcome 0 is the +1 eigenstate); returns the outcomes
        and leaves each qubit in the observed eigenstate.  Outcome 1 is
        ``draw >= p0``, one uniform per particle; half 0 collapses first.
        """
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1)
        bases = np.broadcast_to(np.asarray(bases), pairs.shape)
        if not np.isin(bases, ("Z", "X")).all():
            raise QuantumValidationError(f"bases must be 'Z' or 'X', got {np.unique(bases)}")
        draws = rng.random(pairs.size)
        outcomes = np.empty(pairs.size, dtype=np.int8)
        for half, where, group in self._groups(pairs, qubits):
            basis = (bases[where] == "X").view(np.int8)
            code = self._code[group]
            seen = (draws[where] >= _P0[half, basis, code]).view(np.int8)
            self._code[group] = _AFTER[half, basis, seen, code]
            outcomes[where] = seen
        return outcomes

    def attach_probe(self, pairs, qubits, spec: ProbeAttackSpec, rng) -> None:
        """Entangle a fresh ``|0>`` probe with each listed half and trace
        it out: the half takes a Z flip with probability (1 - cos theta)/2,
        one uniform per particle from ``rng``."""
        flip = rng.random(np.size(pairs)) < (1.0 - math.cos(spec.theta)) / 2.0
        self.apply_pauli(pairs, qubits, x=0, z=flip)

    def bell_measure(self, pairs, rng) -> np.ndarray:
        """Bell-basis measurement of each listed pair's two halves;
        returns BellOutcome values and leaves each pair in that Bell state.

        One uniform per pair meets the cumulative Born probabilities of
        the pair's code in BellOutcome order: a frame fixes the outcome, a
        product in a shared basis fixes one frame bit, and the rest is
        uniform.
        """
        pairs = self._pairs(pairs)
        cumulative = _BELL_CUMULATIVE.take(self._code[pairs], axis=1)
        outcomes = (rng.random(pairs.size) >= cumulative).sum(axis=0)
        self._code[pairs] = 3 - outcomes  # BellOutcome k is frame 3 - k
        return outcomes
