"""Exact little-endian qubit engine.

Amplitude index ``i`` encodes qubit ``q`` in bit ``(i >> q) & 1``, so qubit
0 is the least significant bit.  Everything here is dense and exact, which
is why register sizes are capped at ``MAX_QUBITS``.

Also houses the Bell-pair toolbox (singlet preparation, dense coding, Bell
projection), the probe-interaction family used by eavesdropping models,
memoryless noise channels, and :class:`QuantumRegistry`, the batched pair
engine that holds every pair of a protocol run in one array.
"""

from __future__ import annotations

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


def _project_bell(amps: np.ndarray, qubit_a: int, qubit_b: int, rng) -> tuple[int, np.ndarray]:
    """Sample a Bell outcome on two qubits of a raw vector and collapse it."""
    n = amps.size.bit_length() - 1
    if qubit_a == qubit_b:
        raise QuantumValidationError("bell measurement needs two distinct qubits")
    axes = (_axis(n, qubit_a), _axis(n, qubit_b))
    arr = np.moveaxis(amps.reshape([2] * n), axes, (0, 1)).reshape(4, -1)
    coeffs = _BELL_BASIS.conj() @ arr              # (4, rest)
    probs = np.einsum("kr,kr->k", coeffs, coeffs.conj()).real
    total = float(probs.sum())
    probs = probs / total
    u = rng.random()
    outcome = 3
    acc = 0.0
    for k in range(4):
        acc += probs[k]
        if u < acc:
            outcome = k
            break
    residual = coeffs[outcome] / math.sqrt(max(float(probs[outcome]) * total, 1e-300))
    post = np.outer(_BELL_BASIS[outcome], residual).reshape([2] * n)
    post = np.moveaxis(post, (0, 1), axes).reshape(-1)
    return outcome, post


def bell_measure(state: StateVector, qubit_a: int, qubit_b: int, rng) -> tuple[BellOutcome, StateVector]:
    """Projective Bell-basis measurement of two qubits.

    Outcome probabilities follow the Born rule; the returned state is the
    renormalized projection (for a bare pair, the Bell state itself).
    """
    outcome, post = _project_bell(state.amplitudes, qubit_a, qubit_b, rng)
    return BellOutcome(outcome), StateVector(post)


def density(state: StateVector) -> DensityMatrix:
    return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()))


def _partial_trace_raw(mat: np.ndarray, num_qubits: int, keep: Sequence[int]) -> np.ndarray:
    keep_sorted = sorted(set(keep))
    for q in keep_sorted:
        _axis(num_qubits, q)
    traced = [q for q in range(num_qubits) if q not in keep_sorted]
    cur = mat
    cur_n = num_qubits
    for q in sorted(traced, reverse=True):
        low = 2**q
        high = 2 ** (cur_n - q - 1)
        six = cur.reshape(high, 2, low, high, 2, low)
        cur = np.einsum("abcdbf->acdf", six).reshape(2 ** (cur_n - 1), 2 ** (cur_n - 1))
        cur_n -= 1
    return cur


def partial_trace(dm: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out all qubits not in ``keep``.

    Kept qubits preserve their relative order and are renumbered from 0.
    """
    if len(set(keep)) == 0:
        raise QuantumValidationError("keep must name at least one qubit")
    return DensityMatrix(_partial_trace_raw(dm.matrix, dm.num_qubits, keep))


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


def _permute_qubits_raw(mat: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    """Relabel qubits of a density matrix: new qubit ``j`` is old qubit
    ``perm[j]``."""
    n = _num_qubits_for(mat.shape[0])
    if sorted(perm) != list(range(n)):
        raise QuantumValidationError(f"{perm!r} is not a permutation of 0..{n - 1}")
    row_order = [n - 1 - perm[n - 1 - t] for t in range(n)]
    order = row_order + [n + a for a in row_order]
    return (
        mat.reshape([2] * (2 * n)).transpose(order).reshape(mat.shape)
    )


def permute_qubits(dm: DensityMatrix, perm: Sequence[int]) -> DensityMatrix:
    """Density matrix with qubits relabeled so that new qubit ``j`` holds
    what old qubit ``perm[j]`` held."""
    return DensityMatrix(_permute_qubits_raw(dm.matrix, perm))


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


def _apply_gate_dm(mat: np.ndarray, gate: np.ndarray, qubit: int) -> np.ndarray:
    n = _num_qubits_for(mat.shape[0])
    axis = _axis(n, qubit)
    arr = mat.reshape([2] * (2 * n))
    arr = np.moveaxis(arr, axis, 0).reshape(2, -1)
    arr = (gate @ arr).reshape([2] * (2 * n))
    arr = np.moveaxis(arr, 0, axis)
    # same rotation on the column index
    arr = np.moveaxis(arr, n + axis, 0).reshape(2, -1)
    arr = (gate.conj() @ arr).reshape([2] * (2 * n))
    arr = np.moveaxis(arr, 0, n + axis)
    return arr.reshape(mat.shape)


def apply_channel(state, channel: NoiseChannel, qubit: int) -> DensityMatrix:
    """Exact channel action on one qubit; accepts a StateVector or
    DensityMatrix and returns the output DensityMatrix."""
    if isinstance(state, StateVector):
        dm = density(state)
    elif isinstance(state, DensityMatrix):
        dm = state
    else:
        raise QuantumValidationError(f"unsupported state type {type(state)!r}")
    out = np.zeros_like(dm.matrix)
    for kraus in channel.kraus_operators():
        out = out + _apply_gate_dm(dm.matrix, kraus, qubit)
    return DensityMatrix(out)


# --------------------------------------------------------------- probe family


def _default_probe_state() -> StateVector:
    return basis_state(1, 0)


@dataclass(frozen=True)
class ProbeAttackSpec:
    """One-parameter entangling-probe family.

    The unitary acts on (system qubit, fresh probe qubit) as identity when
    the system is 0 and as a rotation of the probe by ``2*theta`` when the
    system is 1.  ``theta=0`` is transparent; ``theta=pi/2`` copies the
    system's computational bit onto the probe.
    """

    theta: float
    probe_state: StateVector = field(default_factory=_default_probe_state)

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta <= math.pi / 2 + 1e-12):
            raise QuantumValidationError(
                f"theta {self.theta!r} outside [0, pi/2]"
            )
        if self.probe_state.num_qubits != 1:
            raise QuantumValidationError("probe must be a single qubit")
        u = self.unitary()
        if not np.allclose(u.conj().T @ u, np.eye(4), atol=1e-10, rtol=0.0):
            raise QuantumValidationError("probe unitary failed the unitarity check")

    def unitary(self) -> np.ndarray:
        """4x4 matrix on (system, probe) local ordering."""
        return controlled_gate(ry(2.0 * self.theta))


def probe_interact(system: StateVector, spec: ProbeAttackSpec, system_qubit: int = 0) -> StateVector:
    """Append the probe as a fresh highest-index qubit and entangle it
    with ``system_qubit`` via the attack's controlled rotation."""
    joint = np.kron(spec.probe_state.amplitudes, system.amplitudes)
    n = system.num_qubits + 1
    if n > MAX_QUBITS:
        raise ResourceLimitError(f"{n} qubits exceeds MAX_QUBITS={MAX_QUBITS}")
    out = _apply_gate_vec(joint, spec.unitary(), [system_qubit, n - 1])
    return StateVector(out)


# --------------------------------------------------------------- pair engine


# (X, Z) exponents of each Pauli, applied as X^x Z^z; Y is XZ up to the
# global phase i, which no measurement sees
_PAULI_BITS = ((PAULI_I, 0, 0), (PAULI_X, 1, 0), (PAULI_Y, 1, 1), (PAULI_Z, 0, 1))

_PAIR_QUBITS_MAX = 4  # two halves plus one probe on each


class QuantumRegistry:
    """Batched pair engine: every pair of a run in one amplitude array.

    The array has shape ``(pairs, 2, ..., 2)``, one axis per qubit in the
    little-endian order of this module: qubits 0 and 1 are the two halves
    of every pair (the last two axes) and probes are the higher qubits.
    A probe attach takes the pair's next free probe qubit, 2 and then 3
    (within one call, half-0 particles before half-1 ones); the array
    gains an axis when the first pair needs one, and pairs that never use
    it hold ``|0>`` there.  Registers never span pairs.

    Operations take index arrays, ``pairs`` and the ``qubits`` hit in
    each (a scalar broadcasts), so one call acts on a whole block; a
    (pair, qubit) may appear at most once per call.
    """

    def __init__(self) -> None:
        self._amps = np.zeros((0, 2, 2), dtype=complex)
        self._probes = np.zeros(0, dtype=np.int8)  # probes attached per pair

    @property
    def num_pairs(self) -> int:
        return self._amps.shape[0]

    @property
    def num_qubits(self) -> int:
        return self._amps.ndim - 1

    def _axis(self, qubit: int) -> int:
        return self._amps.ndim - 1 - qubit

    def allocate(self, state: StateVector, count: int = 1) -> np.ndarray:
        """Add ``count`` pairs, each in the two-qubit ``state``; returns
        their pair indices."""
        if state.num_qubits != 2:
            raise QuantumValidationError("the pair engine allocates two-qubit states")
        if count < 1:
            raise QuantumValidationError(f"count must be positive, got {count}")
        block = np.zeros((count,) + self._amps.shape[1:], dtype=complex)
        block[(slice(None),) + (0,) * (self.num_qubits - 2)] = state.amplitudes.reshape(2, 2)
        first = self.num_pairs
        self._amps = np.concatenate([self._amps, block])
        self._probes = np.concatenate([self._probes, np.zeros(count, dtype=np.int8)])
        return np.arange(first, first + count)

    def _pairs(self, pairs) -> np.ndarray:
        """Validated pair indices, each at most once."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= self.num_pairs):
            raise QuantumValidationError(f"pair index outside [0, {self.num_pairs})")
        if np.bincount(pairs, minlength=1).max() > 1:
            raise QuantumValidationError("a particle appears twice in one call")
        return pairs

    def _groups(self, pairs, qubits) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Split a call's particles by qubit: (qubit, positions in the
        call, pair indices)."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1)
        qubits = np.broadcast_to(np.asarray(qubits, dtype=np.intp), pairs.shape)
        if pairs.size and (qubits.min() < 0 or qubits.max() >= self.num_qubits):
            raise QuantumValidationError(f"qubit index outside [0, {self.num_qubits})")
        groups = []
        for qubit in range(self.num_qubits):
            where = np.flatnonzero(qubits == qubit)
            if where.size:
                groups.append((qubit, where, self._pairs(pairs[where])))
        return groups

    def state_vector(self, pair: int) -> StateVector:
        """Copy of one pair's register, probes included."""
        if not 0 <= pair < self.num_pairs:
            raise QuantumValidationError(f"unknown pair {pair}")
        return StateVector(self._amps[pair].reshape(-1).copy())

    def reduced_density(self, pair: int, qubits: Sequence[int]) -> DensityMatrix:
        """Reduced state of some qubits of one pair, with output qubit
        ``j`` holding ``qubits[j]``."""
        ascending = reduced_state(self.state_vector(pair), qubits)
        order = sorted(qubits)
        return permute_qubits(ascending, [order.index(q) for q in qubits])

    def apply_pauli(self, pairs, qubits, x, z) -> None:
        """Apply X^x Z^z (Z first) to each listed qubit, with 0/1
        exponents per particle.  Dense coding of the bits (b0, b1) is
        (x, z) = (b1, b0) on a pair's half 0."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1)
        x = np.broadcast_to(np.asarray(x, dtype=bool), pairs.shape)
        z = np.broadcast_to(np.asarray(z, dtype=bool), pairs.shape)
        for qubit, where, group in self._groups(pairs, qubits):
            xs, zs = x[where], z[where]
            if not (xs.any() or zs.any()):
                continue
            sub = self._amps[group]
            bit = np.moveaxis(sub, self._axis(qubit), -1)  # view: last axis is the qubit
            bit[zs, ..., 1] *= -1.0
            bit[xs] = bit[xs][..., ::-1]
            self._amps[group] = sub

    def apply_noise(self, pairs, qubits, channel: NoiseChannel, rng) -> None:
        """One stochastic trajectory of the channel on each listed qubit:
        a random Pauli drawn with the channel's mixture weights."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1)
        qubits = np.broadcast_to(np.asarray(qubits, dtype=np.intp), pairs.shape)
        mixture = channel.pauli_mixture()
        # past the last cumulative weight (rounding) draws the identity
        bits = [next((x, z) for op, x, z in _PAULI_BITS if op is m) for _, m in mixture]
        table = np.array(bits + [(0, 0)], dtype=bool)
        cumulative = np.cumsum([w for w, _ in mixture])
        branch = (rng.random(pairs.size)[:, None] >= cumulative).sum(axis=1)
        hit = np.flatnonzero(table[branch].any(axis=1))
        self.apply_pauli(pairs[hit], qubits[hit], table[branch[hit], 0], table[branch[hit], 1])

    def measure(self, pairs, qubits, bases, rng) -> np.ndarray:
        """Projective measurement of each listed qubit in its basis, "Z"
        or "X" (X outcome 0 is the +1 eigenstate); returns the outcomes
        and leaves each qubit in the observed eigenstate."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1)
        bases = np.broadcast_to(np.asarray(bases), pairs.shape)
        if not np.isin(bases, ("Z", "X")).all():
            raise QuantumValidationError(f"bases must be 'Z' or 'X', got {np.unique(bases)}")
        draws = rng.random(pairs.size)
        outcomes = np.empty(pairs.size, dtype=np.int8)
        for qubit, where, group in self._groups(pairs, qubits):
            sub = self._amps[group]
            bit = np.moveaxis(sub, self._axis(qubit), -1)
            in_x = bases[where] == "X"
            bit[in_x] = bit[in_x] @ HADAMARD  # X-basis coefficients
            weight = (np.abs(bit) ** 2).reshape(group.size, -1, 2).sum(axis=1)
            seen = (draws[where] >= weight[:, 0] / weight.sum(axis=1)).astype(np.int8)
            rows = np.arange(group.size)
            bit[rows, ..., 1 - seen] = 0.0
            bit /= np.sqrt(np.maximum(weight[rows, seen], 1e-300)).reshape(
                (-1,) + (1,) * (bit.ndim - 1)
            )
            bit[in_x] = bit[in_x] @ HADAMARD
            self._amps[group] = sub
            outcomes[where] = seen
        return outcomes

    def attach_probe(self, pairs, qubits, spec: ProbeAttackSpec) -> np.ndarray:
        """Entangle a fresh probe with each listed half via the attack
        unitary; returns the qubit each probe took (2 or 3)."""
        # the new probe qubit holds |0>: the map from the system's bit c to
        # the joint (system, probe) output is the gate applied to c and the
        # probe state, with local index 2*system + probe as in the gate
        fresh = spec.unitary().reshape(4, 2, 2) @ spec.probe_state.amplitudes
        taken = np.empty(np.size(pairs), dtype=np.intp)
        for qubit, where, group in self._groups(pairs, qubits):
            if qubit > 1:
                raise QuantumValidationError("probes attach to pair halves, qubits 0 and 1")
            target = 2 + self._probes[group]
            if target.max(initial=0) >= _PAIR_QUBITS_MAX:
                raise ResourceLimitError(
                    f"a pair register holds at most {_PAIR_QUBITS_MAX} qubits"
                )
            for probe in np.unique(target).tolist():
                if probe == self.num_qubits:  # first pair to need this probe qubit
                    grown = np.zeros((self.num_pairs, 2) + self._amps.shape[1:], dtype=complex)
                    grown[:, 0] = self._amps
                    self._amps = grown
                mine = target == probe
                axes = (self._axis(qubit), self._axis(probe))
                sub = np.moveaxis(self._amps[group[mine]], axes, (-2, -1))
                joint = (sub[..., 0].reshape(-1, 2) @ fresh.T).reshape(sub.shape)
                joint = np.moveaxis(joint, (-2, -1), axes)
                self._amps[group[mine]] = np.ascontiguousarray(joint)
                taken[where[mine]] = probe
            self._probes[group] += 1
        return taken

    def _bell_weights(self, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bell coefficients, shape (pairs, probe states, 4), and their
        Born weights, shape (pairs, 4)."""
        # _BELL_BASIS columns: local index 2*bit0 + bit1, qubit 0 first
        halves = self._amps[pairs].swapaxes(-1, -2).reshape(-1, 4)
        coeffs = (halves @ _BELL_BASIS.conj().T).reshape(pairs.size, -1, 4)
        return coeffs, (np.abs(coeffs) ** 2).sum(axis=1)

    def bell_probabilities(self, pairs) -> np.ndarray:
        """Born probabilities of the four Bell outcomes on each listed
        pair's halves, shape (pairs, 4), without measuring."""
        weight = self._bell_weights(self._pairs(pairs))[1]
        return weight / weight.sum(axis=1, keepdims=True)

    def bell_measure(self, pairs, rng) -> np.ndarray:
        """Bell-basis measurement of each listed pair's two halves;
        returns BellOutcome values and collapses the halves onto them."""
        pairs = self._pairs(pairs)
        coeffs, weight = self._bell_weights(pairs)
        probs = weight / weight.sum(axis=1, keepdims=True)
        draws = rng.random(pairs.size)
        outcomes = (draws[:, None] >= np.cumsum(probs, axis=1)[:, :3]).sum(axis=1)
        rows = np.arange(pairs.size)
        residual = coeffs[rows, :, outcomes] / np.sqrt(
            np.maximum(weight[rows, outcomes], 1e-300)
        )[:, None]
        post = residual[:, :, None] * _BELL_BASIS[outcomes][:, None, :]
        post = post.reshape((pairs.size,) + self._amps.shape[1:]).swapaxes(-1, -2)
        self._amps[pairs] = np.ascontiguousarray(post)  # strided scatter is far slower
        return outcomes
