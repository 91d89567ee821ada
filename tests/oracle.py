"""Test-side references for the orthosim engines.

``ReferenceRegistry`` is the Pauli-frame pair engine in its three-array
form: a Bell frame ``(x, z)`` and a basis and value per half, each a
``(pairs, 2)`` int8 array updated by fancy index, with every rule
written out as array arithmetic.  ``orthosim.quantum.QuantumRegistry``
packs the same state into one code per pair and runs the same rules as
table lookups; it must match this engine draw for draw.

The dense toolbox is the exact little-endian state-vector path: amplitude
index ``i`` encodes qubit ``q`` in bit ``(i >> q) & 1``, so qubit 0 is the
least significant bit, and registers are capped at ``MAX_QUBITS``.  It
holds singlets, gates, dense coding, Bell projection, partial traces, the
probe interaction ``probe_interact``, and ``apply_channel``, the exact
Kraus-sum action of a noise channel on one qubit, which is the oracle for
the engines' trajectory noise.  ``dense_sweep_point`` computes one point
of the probe-family sweep on that path, the oracle for the closed forms
in ``orthosim.metrics``.

The PoP (permutation of particles) references build Eve's probe states by
dense enumeration of every placement, the oracles for
``orthosim.adversary.pop_eve_information``.

``RecordingHook`` is a transparent wiretap that keeps every block the
channel hands it, so tests can audit exactly what the adversary saw.

``reference_bell_rule`` and ``reference_noise_codes`` are the pair
engine's lookups as first written, over every draw: a Bell outcome as the
count of the code's cumulative Born probabilities a draw reaches, and a
noise Pauli as a search of every draw in the mixture's cumulative
weights.  ``QuantumRegistry.bell_measure`` reads the first from a table
at the draw's quarter, and ``apply_noise`` looks up only the draws past
the identity weight; both must match these draw for draw.

``reference_glt_exchange`` is the GLT-2S exchange as first written: it
selects the check coordinates by argsort and gathers them with
``take_along_axis`` whatever the check fraction, and its intercept-resend
copies the attacked gbits out and back in through fully checked blocks
even when every gbit is attacked.  ``orthosim.protocols._glt_exchange``
skips that work where it selects everything; it must match this exchange
draw for draw.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from orthosim.adversary import AdversaryError
from orthosim.gpt import GbitBlock, sample_outcome
from orthosim.metrics import SweepPoint, binary_entropy
from orthosim.quantum import (
    MAX_QUBITS,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BellOutcome,
    DensityMatrix,
    NoiseChannel,
    ProbeAttackSpec,
    QuantumValidationError,
    ResourceLimitError,
    _BELL_CUMULATIVE,
    _num_qubits_for,
    holevo_information,
)
from orthosim.transport import EveHook

NORM_TOL = 1e-10
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_SQ2 = 1.0 / math.sqrt(2)


# ---------------------------------------------------------------- dense toolbox


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


def kraus_operators(channel: NoiseChannel) -> list[np.ndarray]:
    """Kraus operators of a noise channel; their Pauli weights are the
    channel's ``pauli_mixture``."""
    p = channel.probability
    if channel.kind == "bit-flip":
        return [math.sqrt(1.0 - p) * PAULI_I, math.sqrt(p) * PAULI_X]
    return [
        math.sqrt(1.0 - 0.75 * p) * PAULI_I,
        math.sqrt(0.25 * p) * PAULI_X,
        math.sqrt(0.25 * p) * PAULI_Y,
        math.sqrt(0.25 * p) * PAULI_Z,
    ]


def probe_unitary(theta: float) -> np.ndarray:
    """The probe attack's 4x4 unitary on (system, probe) local ordering:
    rotate the probe by 2*theta when the system is 1."""
    return controlled_gate(ry(2.0 * theta))


def probe_interact(system: StateVector, spec: ProbeAttackSpec, system_qubit: int = 0) -> StateVector:
    """Append the probe as a fresh highest-index qubit in ``|0>`` and
    entangle it with ``system_qubit`` via the attack's controlled rotation."""
    joint = np.kron([1.0, 0.0], system.amplitudes)
    n = system.num_qubits + 1  # StateVector enforces MAX_QUBITS
    return StateVector(_apply_gate_vec(joint, probe_unitary(spec.theta), [system_qubit, n - 1]))


def dense_sweep_point(theta: float) -> SweepPoint:
    """One probe-family sweep point on the state-vector path: the flip
    rate of the conjugate check state |+>, the rate 1 - h(e), and the
    Holevo information of Eve's two reduced probe states."""
    spec = ProbeAttackSpec(theta)
    # disturbance: probability a conjugate-basis check state flips
    plus = StateVector(np.array([_SQ2, _SQ2]))
    rho = reduced_state(probe_interact(plus, spec), [0]).matrix
    minus = np.array([_SQ2, -_SQ2])
    error = float(np.real(minus.conj() @ rho @ minus))
    error = min(max(error, 0.0), 1.0)
    # eavesdropper side: Holevo information of the two probe states
    ensemble = []
    for bit in (0, 1):
        joint = probe_interact(basis_state(1, bit), spec)
        ensemble.append((0.5, reduced_state(joint, [1])))
    return SweepPoint(
        theta=theta,
        error_rate=error,
        info_ab=1.0 - binary_entropy(error),
        info_ae=holevo_information(ensemble) + 0.0,  # normalize -0.0
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
    lifted = [kron_op(k, qubit, n) for k in kraus_operators(channel)]
    return DensityMatrix(sum(k @ rho @ k.conj().T for k in lifted))


def permute_qubits_raw(mat, perm):
    """Relabel qubits of a density matrix: new qubit ``j`` is old qubit
    ``perm[j]``."""
    n = mat.shape[0].bit_length() - 1
    assert sorted(perm) == list(range(n)), f"{perm!r} is not a permutation of 0..{n - 1}"
    row_order = [n - 1 - perm[n - 1 - t] for t in range(n)]
    order = row_order + [n + a for a in row_order]
    return mat.reshape([2] * (2 * n)).transpose(order).reshape(mat.shape)


# Bell states over the little-endian index bit0 + 2*bit1, built here
# independently of the pair engine's tables and of bell_measure's basis
ORACLE_BELL = {
    BellOutcome.PHI_PLUS: np.array([_SQ2, 0, 0, _SQ2]),
    BellOutcome.PHI_MINUS: np.array([_SQ2, 0, 0, -_SQ2]),
    BellOutcome.PSI_PLUS: np.array([0, _SQ2, _SQ2, 0]),
    BellOutcome.PSI_MINUS: np.array([0, _SQ2, -_SQ2, 0]),
}

# (X, Z) exponents of each Pauli, applied as X^x Z^z; Y is XZ up to the
# global phase i, which no measurement sees
ORACLE_PAULIS = ((PAULI_I, 0, 0), (PAULI_X, 1, 0), (PAULI_Y, 1, 1), (PAULI_Z, 0, 1))


# ---------------------------------------------------------------- pair engine

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
        bits = [next((x, z) for op, x, z in ORACLE_PAULIS if op is m) for _, m in mixture]
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


def reference_bell_rule(codes, draws) -> tuple[np.ndarray, np.ndarray]:
    """Bell outcomes of pairs in these engine codes, one draw each, by
    the cumulative comparison: the (3, pairs) gather of the codes' Born
    cumulatives, each compared with its pair's draw and the hits counted.
    Returns the outcomes and the codes left (BellOutcome k is frame 3 - k)."""
    cumulative = _BELL_CUMULATIVE.take(np.asarray(codes, dtype=np.intp), axis=1)
    outcomes = np.add.reduce(np.asarray(draws) >= cumulative, axis=0)
    return outcomes, 3 - outcomes


def reference_noise_codes(channel: NoiseChannel, draws) -> np.ndarray:
    """The Pauli code 2x + z a channel draws for each use: every draw
    searched in the cumulative mixture weights, past the last one (a
    rounding shortfall) the trailing identity."""
    return channel._codes[np.searchsorted(channel._cumulative, draws, side="right")]


# ---------------------------------------------------------------- PoP probe states


def perfect_matchings(items: Iterable) -> Iterator[tuple[tuple, ...]]:
    """Yield every partition of items into unordered pairs."""
    pool = list(items)
    if len(pool) % 2:
        raise AdversaryError("perfect matchings need an even number of items")
    if not pool:
        yield ()
        return
    first, rest = pool[0], pool[1:]
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for tail in perfect_matchings(remaining):
            yield ((first, partner),) + tail


def pair_probe_state(theta, bits):
    """Eve's joint 2-probe state for one encoded pair, both halves probed,
    on the exact state-vector path: the oracle for the closed forms."""
    encoded = dense_encode(bits, singlet())
    spec = ProbeAttackSpec(theta)
    joint = probe_interact(encoded, spec, system_qubit=0)
    joint = probe_interact(joint, spec, system_qubit=1)
    return reduced_state(joint, [2, 3]).matrix


def pair_states(theta):
    return {
        bits: pair_probe_state(theta, bits)
        for bits in itertools.product((0, 1), repeat=2)
    }


def exhaustive_pop_state(sigma, message):
    """Reference: the probe state of ``message`` averaged over every
    placement, each perfect matching times each assignment of pairs to
    matched edges."""
    n = len(message)
    placements = [
        (matching, assignment)
        for matching in perfect_matchings(range(2 * n))
        for assignment in itertools.permutations(range(n))
    ]
    dim = 4**n
    acc = np.zeros((dim, dim), dtype=complex)
    canonical = np.eye(1, dtype=complex)
    for bits in message:  # pair i sits at qubits (2i, 2i+1)
        canonical = np.kron(sigma[bits], canonical)
    for matching, assignment in placements:
        perm = [0] * (2 * n)
        for edge_index, (a, b) in enumerate(matching):
            i = assignment[edge_index]
            perm[min(a, b)] = 2 * i
            perm[max(a, b)] = 2 * i + 1
        acc += permute_qubits_raw(canonical, perm)
    return acc / len(placements)


def exhaustive_pop_information(theta, num_pairs):
    """Reference for pop_eve_information: one ensemble state per message,
    each averaged over every placement."""
    sigma = pair_states(theta)
    messages = list(itertools.product(list(sigma), repeat=num_pairs))
    ensemble = [
        (1.0 / len(messages), DensityMatrix(exhaustive_pop_state(sigma, message)))
        for message in messages
    ]
    return holevo_information(ensemble) / num_pairs


def matching_perms(num_pairs):
    """One qubit relabeling per perfect matching of the 2N probe positions:
    the canonical product's pair i lands on the matching's i-th edge."""
    perms = []
    for matching in perfect_matchings(range(2 * num_pairs)):
        perm = [0] * (2 * num_pairs)
        for i, (a, b) in enumerate(matching):  # a < b in every yielded edge
            perm[a], perm[b] = 2 * i, 2 * i + 1
        perms.append(perm)
    return perms


def pop_multiset_state(sigma, multiset, perms):
    """The placement-averaged probe state shared by every message whose
    dense-coded symbols form ``multiset``, and the number of those messages.

    Averaging over the assignments of pairs to matched edges is averaging
    the canonical product (pair i on qubits 2i, 2i+1) over the distinct
    orderings of the multiset; the matchings in ``perms`` do the rest.
    """
    orderings = sorted(set(itertools.permutations(multiset)))
    dim = 4 ** len(multiset)
    symmetric = np.zeros((dim, dim), dtype=complex)
    for ordering in orderings:
        canonical = np.eye(1, dtype=complex)
        for bits in ordering:
            canonical = np.kron(sigma[bits], canonical)
        symmetric += canonical
    symmetric /= len(orderings)
    acc = np.zeros((dim, dim), dtype=complex)
    for perm in perms:
        acc += permute_qubits_raw(symmetric, perm)
    return len(orderings), acc / len(perms)


def multiset_pop_information(theta, num_pairs):
    """Reference for pop_eve_information up to N = 4: one ensemble state
    per symbol multiset, weighted by its number of orderings, each averaged
    over the perfect matchings."""
    sigma = pair_states(theta)
    perms = matching_perms(num_pairs)
    ensemble = []
    for multiset in itertools.combinations_with_replacement(sigma, num_pairs):
        count, state = pop_multiset_state(sigma, multiset, perms)
        ensemble.append((count / 4**num_pairs, DensityMatrix(state)))
    return holevo_information(ensemble) / num_pairs


# ---------------------------------------------------------------- channel audit


class RecordingHook(EveHook):
    """Pass every block on unchanged, keeping each one in ``blocks``."""

    def __init__(self) -> None:
        self.blocks: list = []

    def intercept(self, carrier):
        self.blocks.append(carrier)
        return carrier


# ---------------------------------------------------------------- GLT-2S exchange


class ReferenceGltInterceptResend:
    """Fiducial intercept-resend drawing as ``GltInterceptResend`` does,
    with every block it builds checked: the attacked gbits, the
    post-measurement gbits and the forwarded block."""

    def __init__(self, rng: np.random.Generator, attack_fraction: float) -> None:
        self.rng = rng
        self.attack_fraction = attack_fraction
        self.observations: list[tuple[np.ndarray, np.ndarray]] = []
        self.rounds_attacked = 0

    def intercept(self, carrier: GbitBlock) -> GbitBlock:
        spec = carrier.spec
        attacked = np.arange(len(carrier))
        if self.attack_fraction < 1.0:
            attacked = np.flatnonzero(self.rng.random(len(carrier)) < self.attack_fraction)
        part = GbitBlock(spec, carrier.outcomes[attacked], carrier.fiducials[attacked])
        fiducials = self.rng.integers(0, spec.num_fiducials, size=attacked.size)
        outcomes = sample_outcome(part, fiducials, self.rng)
        post = GbitBlock(spec, outcomes, fiducials)
        self.observations.append((fiducials, outcomes))
        self.rounds_attacked += attacked.size
        merged_outcomes, merged_fiducials = carrier.outcomes.copy(), carrier.fiducials.copy()
        merged_outcomes[attacked], merged_fiducials[attacked] = post.outcomes, post.fiducials
        return GbitBlock(spec, merged_outcomes, merged_fiducials)


def reference_glt_exchange(config, rng, rng_eve, trials: int):
    """``trials`` gbit exchanges on the streams of ``_glt_exchange``,
    without its channel log.

    Returns (hook, bits, outcomes, check_coords, events), the hook a
    ``ReferenceGltInterceptResend`` or None without an adversary.
    """
    theory = config.fiducial
    top = theory.num_outcomes - 1
    shape = (trials, config.num_gbits)
    bits = rng.integers(0, 2, size=shape)
    delivered = GbitBlock(theory, bits * top)
    hook = None
    if config.adversary is not None:
        hook = ReferenceGltInterceptResend(rng_eve, config.adversary.attack_fraction)
        delivered = hook.intercept(delivered)
    fiducials = rng.integers(0, theory.num_fiducials, size=len(delivered))
    outcomes = sample_outcome(delivered, fiducials, rng).reshape(shape)
    num_checks = round(config.check_fraction * config.num_gbits)
    check_coords = np.sort(np.argsort(rng.random(shape), axis=1)[:, :num_checks], axis=1)
    checked = np.take_along_axis(outcomes, check_coords, axis=1)
    events = checked != np.take_along_axis(bits, check_coords, axis=1) * top
    return hook, bits, outcomes, check_coords, events
