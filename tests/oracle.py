"""Test-side references for the orthosim engines.

``ReferenceRegistry`` is the Pauli-frame pair engine in its three-array
form: a Bell frame ``(x, z)`` and a basis and value per half, each a
``(pairs, 2)`` int8 array updated by fancy index, with every rule
written out as array arithmetic.  ``orthosim.quantum.QuantumRegistry``
packs the same state into one code per pair and runs the same rules as
table lookups; it must match this engine draw for draw.

``apply_channel`` is the exact Kraus-sum action of a noise channel on
one qubit, the oracle for the engines' trajectory noise.
"""

import math

import numpy as np

from orthosim.quantum import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    NoiseChannel,
    ProbeAttackSpec,
    QuantumValidationError,
    StateVector,
    density,
)


def kron_op(op, qubit, n):
    """Independent little-endian operator lift: qubit 0 is the low bit."""
    mats = [PAULI_I] * n
    mats[qubit] = op
    out = np.eye(1, dtype=complex)
    for m in mats:  # highest qubit becomes the leftmost kron factor
        out = np.kron(m, out)
    return out


def apply_channel(state, channel: NoiseChannel, qubit: int) -> DensityMatrix:
    """Exact channel action on one qubit of a StateVector or
    DensityMatrix, as the sum of its lifted Kraus operators."""
    rho = density(state).matrix if isinstance(state, StateVector) else state.matrix
    n = rho.shape[0].bit_length() - 1
    lifted = [kron_op(k, qubit, n) for k in channel.kraus_operators()]
    return DensityMatrix(sum(k @ rho @ k.conj().T for k in lifted))


# (X, Z) exponents of each Pauli, applied as X^x Z^z; Y is XZ up to the
# global phase i, which no measurement sees
_PAULI_BITS = ((PAULI_I, 0, 0), (PAULI_X, 1, 0), (PAULI_Y, 1, 1), (PAULI_Z, 0, 1))

# frame (x, z) of each BellOutcome: PHI+, PHI-, PSI+, PSI- = X^x Z^z (half 0) |PSI->
_OUTCOME_FRAME = np.array([(1, 1), (1, 0), (0, 1), (0, 0)])


class ReferenceRegistry:
    """Batched pair engine: every pair of a run as a few integers.

    Qubits 0 and 1 are a pair's halves. A pair is either a Bell frame
    ``(x, z)``, the state X^x Z^z (half 0) |singlet>, whose bit x flips
    the halves' Z correlation and z their X correlation, with basis -1 on
    both halves; or, once a half is measured, a product of eigenstates: a
    basis (0 = Z, 1 = X) and a value per half. Paulis and Z, X and Bell
    measurements keep this exact (Pauli-frame tracking), and probes are
    traced out as they attach.

    Operations take index arrays, ``pairs`` and the halves hit in each
    (a scalar broadcasts); a (pair, half) may appear once per call.
    Exponents of ``apply_pauli`` are not checked.
    """

    def __init__(self) -> None:
        self._frame = np.zeros((0, 2), dtype=np.int8)  # (x, z)
        self._basis = np.zeros((0, 2), dtype=np.int8)  # per half
        self._value = np.zeros((0, 2), dtype=np.int8)

    @property
    def num_pairs(self) -> int:
        return self._frame.shape[0]

    def allocate(self, count: int = 1) -> np.ndarray:
        """Add ``count`` singlets; returns their pair indices."""
        if count < 1:
            raise QuantumValidationError(f"count must be positive, got {count}")
        first = self.num_pairs
        self._frame, self._basis, self._value = (
            np.concatenate([a, np.full((count, 2), fill, a.dtype)])
            for a, fill in ((self._frame, 0), (self._basis, -1), (self._value, 0))
        )
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
        """Split a call's particles by half, half 0 first: (half,
        positions in the call, pair indices), all validated up front."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1)
        qubits = np.broadcast_to(np.asarray(qubits, dtype=np.intp), pairs.shape)
        if pairs.size and (qubits.min() < 0 or qubits.max() > 1):
            raise QuantumValidationError("a pair holds qubits 0 and 1 only")
        groups = []
        for half in (0, 1):
            where = np.flatnonzero(qubits == half)
            if where.size:
                groups.append((half, where, self._pairs(pairs[where])))
        return groups

    def apply_pauli(self, pairs, qubits, x, z) -> None:
        """Apply X^x Z^z to each listed half, with 0/1 exponents per
        particle.  Dense coding of the bits (b0, b1) is (x, z) = (b1, b0)
        on a pair's half 0."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1)
        xz = np.stack(np.broadcast_arrays(x, z, pairs)[:2], axis=1).astype(np.int8)
        for half, where, group in self._groups(pairs, qubits):
            product = self._basis[group, half] >= 0
            # a Pauli on either half of a singlet is the same Pauli on
            # half 0, up to a phase
            self._frame[group[~product]] ^= xz[where[~product]]
            # X flips a Z eigenstate and Z an X eigenstate
            hit = group[product]
            self._value[hit, half] ^= xz[where[product], self._basis[hit, half]]

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
            basis = (bases[where] == "X").astype(np.int8)
            # an eigenstate of the basis has p0 of 0 or 1, anything else 1/2
            known = self._basis[group, half] == basis
            p0 = np.where(known, 1 - self._value[group, half], 0.5)
            seen = (draws[where] >= p0).astype(np.int8)
            # a frame half collapses its partner onto the correlated eigenstate
            fresh = self._basis[group, half] < 0
            pair, b = group[fresh], basis[fresh]
            self._basis[pair, 1 - half] = b
            self._value[pair, 1 - half] = seen[fresh] ^ 1 ^ self._frame[pair, b]
            self._basis[group, half] = basis
            self._value[group, half] = seen
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

        One uniform per pair meets the cumulative Born probabilities in
        BellOutcome order. A frame fixes both frame bits; a product fixes
        the Z parity (x) if both halves are in Z, the X parity (z) if both
        are in X, and leaves the rest uniform.
        """
        pairs = self._pairs(pairs)
        basis, value = self._basis[pairs], self._value[pairs]
        product = basis[:, 0] >= 0
        shared = np.where(basis[:, 0] == basis[:, 1], basis[:, 0], -1)
        fixed = ~product[:, None] | (shared[:, None] == [0, 1])
        bits = np.where(product[:, None], (1 ^ value[:, :1] ^ value[:, 1:]), self._frame[pairs])
        marginal = np.where(fixed[..., None], np.eye(2)[bits], 0.5)  # (pair, frame bit, value)
        probs = marginal[:, 0, _OUTCOME_FRAME[:, 0]] * marginal[:, 1, _OUTCOME_FRAME[:, 1]]
        draws = rng.random(pairs.size)
        outcomes = (draws[:, None] >= np.cumsum(probs, axis=1)[:, :3]).sum(axis=1)
        self._frame[pairs] = _OUTCOME_FRAME[outcomes]
        self._basis[pairs] = -1
        return outcomes
