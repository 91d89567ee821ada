import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthosim import quantum
from orthosim.quantum import (
    MAX_QUBITS,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BellOutcome,
    DensityMatrix,
    NoiseChannel,
    ParticleBlock,
    ProbeAttackSpec,
    QuantumRegistry,
    QuantumValidationError,
    ResourceLimitError,
    holevo_information,
    von_neumann_entropy,
)
from conftest import assert_frequency
from oracle import (
    HADAMARD,
    ORACLE_BELL,
    ORACLE_PAULIS,
    ReferenceRegistry,
    StateVector,
    apply_channel,
    apply_single_qubit_gate,
    basis_state,
    bell_measure,
    dense_encode,
    density,
    kraus_operators,
    kron_op,
    permute_qubits_raw,
    probe_interact,
    probe_unitary,
    reduced_state,
    ry,
    singlet,
)

S2 = 1.0 / math.sqrt(2)


def random_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(v / np.linalg.norm(v))


def random_density(rng, n, rank=3):
    dim = 2**n
    acc = np.zeros((dim, dim), dtype=complex)
    weights = rng.random(rank) + 0.1
    weights /= weights.sum()
    for w in weights:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        acc += w * np.outer(v, v.conj())
    return DensityMatrix(acc)


# ---------------------------------------------------------------- validation


def test_state_vector_norm_and_guard():
    with pytest.raises(QuantumValidationError):
        StateVector(np.array([1.0, 1.0]))
    StateVector(np.array([1.0, 0.0]))
    with pytest.raises(ResourceLimitError):
        amps = np.zeros(2 ** (MAX_QUBITS + 1))
        amps[0] = 1.0
        StateVector(amps)
    with pytest.raises(QuantumValidationError):
        StateVector(np.array([1.0, 0.0, 0.0]))  # not a power of two


def test_state_vector_immutable():
    state = singlet()
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0


def test_density_matrix_validation():
    DensityMatrix(np.eye(2) / 2)
    with pytest.raises(QuantumValidationError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(QuantumValidationError):
        DensityMatrix(np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not Hermitian
    with pytest.raises(QuantumValidationError):
        DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue


# ---------------------------------------------------------------- pairs and coding


def test_singlet_amplitudes():
    np.testing.assert_allclose(
        singlet().amplitudes, np.array([0.0, S2, -S2, 0.0]), atol=1e-15
    )


def test_dense_encode_matches_matrix_oracle():
    pair = singlet()
    ops = {(0, 0): PAULI_I, (0, 1): PAULI_X, (1, 0): PAULI_Z, (1, 1): PAULI_X @ PAULI_Z}
    for bits, op in ops.items():
        expected = kron_op(op, 0, 2) @ pair.amplitudes
        got = dense_encode(bits, pair, which=0)
        np.testing.assert_allclose(got.amplitudes, expected, atol=1e-12)
    # the 01 encoding in particular
    np.testing.assert_allclose(
        dense_encode((0, 1), pair).amplitudes, np.array([S2, 0.0, 0.0, -S2]), atol=1e-15
    )


def test_dense_encodings_are_mutually_orthogonal():
    states = [dense_encode(b, singlet()).amplitudes for b in
              [(0, 0), (0, 1), (1, 0), (1, 1)]]
    for i in range(4):
        for j in range(4):
            overlap = abs(np.vdot(states[i], states[j]))
            assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_dense_coding_roundtrip():
    # outcome map fixed by the singlet baseline
    expected = {
        (0, 0): BellOutcome.PSI_MINUS,
        (0, 1): BellOutcome.PHI_MINUS,
        (1, 0): BellOutcome.PSI_PLUS,
        (1, 1): BellOutcome.PHI_PLUS,
    }
    rng = np.random.default_rng(17)
    for bits, outcome in expected.items():
        for _ in range(20):
            encoded = dense_encode(bits, singlet())
            got, post = bell_measure(encoded, 0, 1, rng)
            assert got == outcome
            # residual equals the projected Bell state up to phase
            assert abs(abs(np.vdot(post.amplitudes, encoded.amplitudes)) - 1.0) < 1e-12


def test_bell_measure_born_statistics():
    # |00> overlaps PHI+ and PHI- equally and the PSI states not at all
    rng = np.random.default_rng(41)
    trials = 20_000
    counts = {o: 0 for o in BellOutcome}
    for _ in range(trials):
        outcome, _ = bell_measure(basis_state(2, 0), 0, 1, rng)
        counts[outcome] += 1
    assert counts[BellOutcome.PSI_PLUS] == 0
    assert counts[BellOutcome.PSI_MINUS] == 0
    assert_frequency(counts[BellOutcome.PHI_PLUS], trials, 0.5, 5.0)
    assert_frequency(counts[BellOutcome.PHI_MINUS], trials, 0.5, 5.0)


def test_bell_measure_needs_distinct_qubits():
    rng = np.random.default_rng(0)
    with pytest.raises(QuantumValidationError):
        bell_measure(singlet(), 0, 0, rng)


# ---------------------------------------------------------------- gates


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
@settings(max_examples=40)
def test_single_qubit_gates_preserve_norm(seed, n):
    rng = np.random.default_rng(seed)
    state = random_state(rng, n)
    qubit = int(rng.integers(0, n))
    gate = [PAULI_X, PAULI_Y, PAULI_Z, HADAMARD, ry(rng.random() * math.pi)][
        int(rng.integers(0, 5))
    ]
    out = apply_single_qubit_gate(state, gate, qubit)
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_gate_argument_errors():
    state = singlet()
    with pytest.raises(QuantumValidationError):
        apply_single_qubit_gate(state, PAULI_X, 2)


# ---------------------------------------------------------------- reductions


def test_singlet_reductions_are_maximally_mixed():
    for keep in ([0], [1]):
        np.testing.assert_allclose(
            reduced_state(singlet(), keep).matrix, np.eye(2) / 2, atol=1e-12
        )


def einsum_partial_trace(mat, n, keep):
    row = [chr(ord("a") + i) for i in range(n)]
    col = []
    out_row, out_col = [], []
    nxt = n
    for q_axis in range(n):
        qubit = n - 1 - q_axis
        if qubit in keep:
            col.append(chr(ord("a") + nxt))
            nxt += 1
            out_row.append(row[q_axis])
            out_col.append(col[-1])
        else:
            col.append(row[q_axis])
    sub = "".join(row) + "".join(col) + "->" + "".join(out_row) + "".join(out_col)
    k = len(keep)
    return np.einsum(sub, mat.reshape([2] * (2 * n))).reshape(2**k, 2**k)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_partial_trace_matches_einsum_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    state = random_state(rng, n)
    keep = sorted(
        rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist()
    )
    got = reduced_state(state, keep)
    np.testing.assert_allclose(
        got.matrix, einsum_partial_trace(density(state).matrix, n, set(keep)), atol=1e-10
    )


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_partial_trace_composes(seed):
    # tracing out qubits one at a time agrees with tracing jointly
    rng = np.random.default_rng(seed)
    state = random_state(rng, 4)
    joint = reduced_state(state, [0, 2])
    step = reduced_state(state, [0, 2, 3])  # drop 1, then drop (renumbered) 3
    step = einsum_partial_trace(step.matrix, 3, {0, 1})
    np.testing.assert_allclose(joint.matrix, step, atol=1e-10)


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    a /= np.linalg.norm(a)
    b = rng.normal(size=2) + 1j * rng.normal(size=2)
    b /= np.linalg.norm(b)
    state = StateVector(np.kron(b, a))  # qubit0 = a, qubit1 = b
    np.testing.assert_allclose(
        reduced_state(state, [0]).matrix, np.outer(a, a.conj()), atol=1e-12
    )
    np.testing.assert_allclose(
        reduced_state(state, [1]).matrix, np.outer(b, b.conj()), atol=1e-12
    )


def test_permute_qubits_on_basis_state():
    # |q1 q0> = |01> has qubit0=1; swapping labels moves the excitation
    dm = density(basis_state(2, 1))
    swapped = permute_qubits_raw(dm.matrix, [1, 0])
    np.testing.assert_allclose(swapped, density(basis_state(2, 2)).matrix)


# ---------------------------------------------------------------- entropies


def test_von_neumann_entropy_values():
    assert von_neumann_entropy(density(singlet())) == pytest.approx(0.0, abs=1e-12)
    dm = DensityMatrix(np.diag([0.75, 0.25]))
    assert von_neumann_entropy(dm) == pytest.approx(0.8112781244591328, abs=1e-12)
    dm = DensityMatrix(np.eye(8) / 8)
    assert von_neumann_entropy(dm) == pytest.approx(3.0, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_entropy_bounds(seed, n):
    rng = np.random.default_rng(seed)
    dm = random_density(rng, n, rank=4)
    s = von_neumann_entropy(dm)
    assert -1e-12 <= s <= n + 1e-12


def test_holevo_values():
    zero = density(basis_state(1, 0))
    one = density(basis_state(1, 1))
    plus = density(StateVector(np.array([S2, S2])))
    assert holevo_information([(0.5, zero), (0.5, zero)]) == pytest.approx(0.0, abs=1e-12)
    assert holevo_information([(0.5, zero), (0.5, one)]) == pytest.approx(1.0, abs=1e-12)
    assert holevo_information([(0.5, zero), (0.5, plus)]) == pytest.approx(
        0.6008760366928562, abs=1e-12
    )
    with pytest.raises(QuantumValidationError):
        holevo_information([(0.7, zero), (0.7, one)])
    with pytest.raises(QuantumValidationError):
        holevo_information([])


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_holevo_bounds(seed, count):
    rng = np.random.default_rng(seed)
    states = [random_density(rng, 1) for _ in range(count)]
    w = rng.random(count) + 0.05
    w /= w.sum()
    chi = holevo_information(list(zip(w.tolist(), states)))
    assert -1e-12 <= chi <= math.log2(count) + 1e-12


# ---------------------------------------------------------------- probe family


def test_probe_spec_unitarity_and_limits():
    for theta in np.linspace(0.0, math.pi / 2, 9):
        u = probe_unitary(float(theta))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(probe_unitary(0.0), np.eye(4), atol=1e-12)
    with pytest.raises(QuantumValidationError):
        ProbeAttackSpec(-0.1)
    with pytest.raises(QuantumValidationError):
        ProbeAttackSpec(2.0)


def test_probe_spec_theta_range_boundary():
    # the range check admits a rounding slack of 1e-12 above pi/2, no more
    assert ProbeAttackSpec(math.pi / 2 + 1e-13).theta == math.pi / 2 + 1e-13
    for theta in (-0.1, 2.0, math.pi / 2 + 1e-9):
        with pytest.raises(QuantumValidationError, match="outside"):
            ProbeAttackSpec(theta)


def test_probe_interact_transparent_at_zero():
    state = StateVector(np.array([S2, S2]))
    joint = probe_interact(state, ProbeAttackSpec(0.0))
    np.testing.assert_allclose(
        joint.amplitudes, np.kron([1.0, 0.0], state.amplitudes), atol=1e-12
    )


def test_probe_interact_copies_at_full_strength():
    # theta = pi/2 on |1>|0> gives |1>|1>
    joint = probe_interact(basis_state(1, 1), ProbeAttackSpec(math.pi / 2))
    np.testing.assert_allclose(joint.amplitudes, [0.0, 0.0, 0.0, 1.0], atol=1e-12)
    # and erases the conjugate-basis coherence of |+>
    plus = StateVector(np.array([S2, S2]))
    joint = probe_interact(plus, ProbeAttackSpec(math.pi / 2))
    np.testing.assert_allclose(
        reduced_state(joint, [0]).matrix, np.eye(2) / 2, atol=1e-12
    )


def test_probe_disturbance_closed_form():
    # error probability on the conjugate check state is (1 - cos theta)/2
    minus = np.array([S2, -S2])
    for theta in np.linspace(0.0, math.pi / 2, 7):
        plus = StateVector(np.array([S2, S2]))
        joint = probe_interact(plus, ProbeAttackSpec(float(theta)))
        rho = reduced_state(joint, [0]).matrix
        e = float((minus.conj() @ rho @ minus).real)
        assert e == pytest.approx((1.0 - math.cos(theta)) / 2.0, abs=1e-12)


def test_probe_monotonicity_grid():
    # eavesdropper information rises with theta, conjugate-basis error too
    thetas = np.linspace(0.0, math.pi / 2, 16)
    errors, infos = [], []
    minus = np.array([S2, -S2])
    for theta in thetas:
        spec = ProbeAttackSpec(float(theta))
        joint = probe_interact(StateVector(np.array([S2, S2])), spec)
        rho = reduced_state(joint, [0]).matrix
        errors.append(float((minus.conj() @ rho @ minus).real))
        ensemble = []
        for bit in (0, 1):
            joint_b = probe_interact(basis_state(1, bit), spec)
            ensemble.append((0.5, reduced_state(joint_b, [1])))
        infos.append(holevo_information(ensemble))
    assert errors[0] == pytest.approx(0.0, abs=1e-12)
    assert infos[0] == pytest.approx(0.0, abs=1e-12)
    for a, b in zip(errors, errors[1:]):
        assert b >= a - 1e-12
    for a, b in zip(infos, infos[1:]):
        assert b >= a - 1e-12


# ---------------------------------------------------------------- channels


def test_channel_kraus_completeness():
    for channel in (NoiseChannel("depolarizing", 0.3), NoiseChannel("bit-flip", 0.12)):
        acc = sum(k.conj().T @ k for k in kraus_operators(channel))
        np.testing.assert_allclose(acc, np.eye(2), atol=1e-12)
    with pytest.raises(QuantumValidationError):
        NoiseChannel("amplitude-damping", 0.1)
    with pytest.raises(QuantumValidationError):
        NoiseChannel("bit-flip", 1.5)


def test_depolarizing_full_strength_gives_maximally_mixed():
    out = apply_channel(basis_state(1, 0), NoiseChannel("depolarizing", 1.0), 0)
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_bit_flip_error_rate():
    p = 0.23
    out = apply_channel(basis_state(1, 0), NoiseChannel("bit-flip", p), 0)
    assert float(out.matrix[1, 1].real) == pytest.approx(p, abs=1e-12)
    # the engine's trajectories reproduce the same rate on Z eigenstates
    rng = np.random.default_rng(77)
    trials = 50_000
    reg = QuantumRegistry()
    pairs = reg.allocate(trials)
    before = reg.measure(ParticleBlock(reg, pairs, 0), "Z", rng)
    reg.apply_noise(ParticleBlock(reg, pairs, 0), NoiseChannel("bit-flip", p), rng)
    flips = int((reg.measure(ParticleBlock(reg, pairs, 0), "Z", rng) != before).sum())
    assert_frequency(flips, trials, p, 5.0)


def test_trajectories_average_to_exact_channel():
    # a depolarized singlet is Bell-diagonal, so the Bell-outcome
    # frequencies of the engine's trajectories pin down the exact state
    rng = np.random.default_rng(123)
    channel = NoiseChannel("depolarizing", 0.4)
    exact = apply_channel(singlet(), channel, 0).matrix
    trials = 60_000
    reg = QuantumRegistry()
    pairs = reg.allocate(trials)
    reg.apply_noise(ParticleBlock(reg, pairs, 0), channel, rng)
    counts = np.bincount(reg.bell_measure(pairs, rng), minlength=4)
    for outcome in BellOutcome:
        bell = ORACLE_BELL[outcome]
        born = float((bell.conj() @ exact @ bell).real)
        assert_frequency(int(counts[outcome]), trials, born, 5.0)


def test_channel_on_chosen_qubit_of_register():
    out = apply_channel(singlet(), NoiseChannel("bit-flip", 1.0), 0)
    expected = dense_encode((0, 1), singlet())
    np.testing.assert_allclose(out.matrix, density(expected).matrix, atol=1e-12)


# ---------------------------------------------------------------- pair engine


def test_registry_singlet_roundtrip():
    rng = np.random.default_rng(31)
    reg = QuantumRegistry()
    pairs = reg.allocate()
    assert reg.bell_measure(pairs, rng).tolist() == [BellOutcome.PSI_MINUS]


def test_registry_pauli_and_probe():
    rng = np.random.default_rng(32)
    reg = QuantumRegistry()
    pairs = reg.allocate()
    reg.apply_pauli(ParticleBlock(reg, pairs, 0), x=1, z=0)
    assert reg.bell_measure(pairs, rng).tolist() == [BellOutcome.PHI_MINUS]
    # a full-strength probe leaves computational bits alone and
    # randomizes conjugate ones
    trials = 4000
    reg2 = QuantumRegistry()
    pairs2 = reg2.allocate(trials)
    z_bits = reg2.measure(ParticleBlock(reg2, pairs2, 0), "Z", rng)
    x_bits = reg2.measure(ParticleBlock(reg2, pairs2, 1), "X", rng)
    for half in (0, 1):
        reg2.attach_probe(ParticleBlock(reg2, pairs2, half), ProbeAttackSpec(math.pi / 2), rng)
    assert (reg2.measure(ParticleBlock(reg2, pairs2, 0), "Z", rng) == z_bits).all()
    changed = int((reg2.measure(ParticleBlock(reg2, pairs2, 1), "X", rng) != x_bits).sum())
    assert_frequency(changed, trials, 0.5, 5.0)


def test_registry_unknown_particle():
    reg = QuantumRegistry()
    with pytest.raises(QuantumValidationError):
        ParticleBlock(reg, [99], 0)
    reg.allocate()
    with pytest.raises(QuantumValidationError):
        ParticleBlock(reg, [0], 2)  # a pair holds two qubits
    with pytest.raises(QuantumValidationError):
        ParticleBlock(reg, [0, 0], 1)  # one particle twice in one block
    with pytest.raises(QuantumValidationError):
        reg.measure(ParticleBlock(reg, [0], 0), "Y", np.random.default_rng(0))
    other = QuantumRegistry()
    other.allocate()
    for op in _block_ops(reg, np.random.default_rng(0)).values():
        with pytest.raises(QuantumValidationError, match="another registry"):
            op(ParticleBlock(other, [0], 0))
    for qubits in (2, [2]):
        with pytest.raises(QuantumValidationError, match="qubits 0 and 1 only"):
            ParticleBlock(reg, [0], qubits)
    with pytest.raises(QuantumValidationError, match="appears twice"):
        ParticleBlock(reg, [0, 0, 0], [0, 1, 0])  # (0, half 0) twice, mixed halves
    reg.apply_pauli(ParticleBlock(reg, [0, 0], [0, 1]), x=1, z=0)  # X X |singlet>, both halves
    # no rejected call touched the pair, and X on both halves is a phase
    assert reg.bell_measure([0], np.random.default_rng(0)).tolist() == [BellOutcome.PSI_MINUS]


def test_duplicate_check_cost_grows_with_the_call_not_the_pair_index():
    # one pair near the end of a large registry: no table over every slot
    reg = QuantumRegistry()
    last = reg.allocate(3_000_000)[-1]
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        outcome = reg.bell_measure([last], rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.tolist() == [BellOutcome.PSI_MINUS]
    assert peak < 1e6
    # far-apart particles, checked by sorting: a repeat is still found
    with pytest.raises(QuantumValidationError, match="appears twice"):
        ParticleBlock(reg, [last, 0, 5, last], 1)
    with pytest.raises(QuantumValidationError, match="appears twice"):
        ParticleBlock(reg, [last, 0, 5, last], [0, 1, 1, 0])
    assert len(ParticleBlock(reg, [last, 0, 5, last], [0, 1, 1, 1])) == 4


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 2**40), max_size=30),
    st.lists(st.integers(0, 40), max_size=30),
)
def test_repeats_agrees_with_a_set(sparse, dense):
    # sparse values take the sort, dense ones the byte marks
    for values in (sparse, dense, sparse + dense):
        got = quantum._repeats(np.array(values, dtype=np.intp))
        assert got == (len(set(values)) < len(values))


def _block_ops(reg, rng):
    """Each per-half registry operation as f(block)."""
    return {
        "apply_pauli": lambda b: reg.apply_pauli(b, x=1, z=1),
        "apply_noise": lambda b: reg.apply_noise(b, NoiseChannel("bit-flip", 0.0), rng),
        "attach_probe": lambda b: reg.attach_probe(b, ProbeAttackSpec(math.pi / 2), rng),
        "measure": lambda b: reg.measure(b, "X", rng),
    }


@pytest.mark.parametrize("op", ["apply_pauli", "apply_noise", "attach_probe", "measure"])
def test_registry_halves_never_alias_a_neighbour(op):
    # on two pairs, qubit 2 of pair 0 would be slot 2 (pair 1, half 0) and
    # qubit -1 of pair 1 slot 1 (pair 0, half 1): the qubit check comes first
    rng = np.random.default_rng(41)
    reg = QuantumRegistry()
    reg.allocate(2)
    block_op = _block_ops(reg, rng)[op]

    def call(pairs, qubits):
        block_op(ParticleBlock(reg, pairs, qubits))

    for pairs, qubits in (([0], [2]), ([1], [-1]), ([0], 2), ([1], -1), ([0, 1], [0, 2])):
        with pytest.raises(QuantumValidationError, match="qubits 0 and 1 only"):
            call(pairs, qubits)
    for pairs in ([-1], [0, -1], [2]):
        with pytest.raises(QuantumValidationError, match="outside"):
            call(pairs, [1] * len(pairs))
    with pytest.raises(QuantumValidationError, match="halves for"):
        call([0, 1], [0, 1, 0])
    # no rejected call touched either pair
    assert reg.bell_measure([0, 1], rng).tolist() == [BellOutcome.PSI_MINUS] * 2


def test_noise_checks_every_particle_even_when_nothing_is_hit():
    reg = QuantumRegistry()
    reg.allocate(2)
    clean = NoiseChannel("depolarizing", 0.0)
    with pytest.raises(QuantumValidationError, match="appears twice"):
        reg.apply_noise(ParticleBlock(reg, [1, 0, 1], [0, 1, 0]), clean, np.random.default_rng(0))


def test_noise_channel_tables_stay_out_of_equality_and_repr():
    a, b = NoiseChannel("depolarizing", 0.25), NoiseChannel("depolarizing", 0.25)
    assert a == b and hash(a) == hash(b) and a != NoiseChannel("bit-flip", 0.25)
    assert repr(a) == "NoiseChannel(kind='depolarizing', probability=0.25)"
    # each draw lands on the Pauli of its cumulative mixture interval
    draws = np.array([0.0, 0.8124, 0.8126, 0.8749, 0.8751, 0.9374, 0.9376, 1.0])
    codes = [0, 0, 2, 2, 3, 3, 1, 0]

    class Fixed:
        def random(self, count):
            assert count == draws.size
            return draws

    assert a.sample_codes(draws.size, Fixed()).tolist() == codes


@pytest.mark.parametrize(
    "x, z, named", [(2, 0, "x in [2]"), (0, 3, "z in [3]"), (-1, 0, "x in [-1]"), (1, -2, "z in [-2]")]
)
def test_registry_rejects_exponents_other_than_0_and_1(x, z, named):
    # on a frame pair and on a product pair; a rejected call changes nothing
    rng = np.random.default_rng(37)
    reg = QuantumRegistry()
    frame, product = reg.allocate(2)
    before = reg.measure(ParticleBlock(reg, [product], 0), "Z", rng)
    for pair in (frame, product):
        with pytest.raises(QuantumValidationError, match=re.escape(named)):
            reg.apply_pauli(ParticleBlock(reg, [pair], 1), x=x, z=z)
    assert reg.bell_measure([frame], rng).tolist() == [BellOutcome.PSI_MINUS]
    assert (reg.measure(ParticleBlock(reg, [product], 0), "Z", rng) == before).all()


def test_registry_dense_codes_match_exact_encoding():
    # dense codes on either half give Bell states, whose Bell measurement
    # is certain on the engine and on the exact path alike
    rng = np.random.default_rng(33)
    codes = [(0, 0), (0, 1), (1, 0), (1, 1)]
    bits = np.array(codes)
    for half in (0, 1):
        reg = QuantumRegistry()
        pairs = reg.allocate(len(codes))
        reg.apply_pauli(ParticleBlock(reg, pairs, half), x=bits[:, 1], z=bits[:, 0])
        exact = [bell_measure(dense_encode(c, singlet(), half), 0, 1, rng)[0] for c in codes]
        assert reg.bell_measure(pairs, rng).tolist() == exact


def test_registry_measure_matches_exact_measurement():
    # X-basis measurement of half 0 of a singlet: both outcomes equally
    # likely, and the half is left in the observed eigenstate
    rng = np.random.default_rng(34)
    trials = 20_000
    reg = QuantumRegistry()
    pairs = reg.allocate(trials)
    outcomes = reg.measure(ParticleBlock(reg, pairs, 0), "X", rng)
    assert_frequency(int(outcomes.sum()), trials, 0.5, 5.0)
    again = reg.measure(ParticleBlock(reg, pairs, 0), "X", rng)
    assert (again == outcomes).all()
    # the far half is left in the opposite X eigenstate
    assert (reg.measure(ParticleBlock(reg, pairs, 1), "X", rng) == 1 - outcomes).all()


def test_registry_collapses_half_0_before_half_1_in_one_call():
    # both halves in one call, half 1 listed first: half 0 still collapses
    # first, on its own draw, and half 1 then reads the anticorrelated partner
    trials = 1000
    reg = QuantumRegistry()
    pairs = reg.allocate(trials)
    block = ParticleBlock(reg, np.repeat(pairs, 2), np.tile([1, 0], trials))
    got = reg.measure(block, "Z", np.random.default_rng(36))
    half0 = np.random.default_rng(36).random(2 * trials)[1::2] >= 0.5
    assert (got[1::2] == half0).all()
    assert (got[0::2] == 1 - half0).all()


def test_registry_noise_trajectory_frequencies():
    # each non-identity Pauli on half 0 moves the singlet to a different
    # Bell state, so outcome frequencies read the mixture weights
    rng = np.random.default_rng(35)
    trials = 40_000
    p = 0.4
    reg = QuantumRegistry()
    pairs = reg.allocate(trials)
    reg.apply_noise(ParticleBlock(reg, pairs, 0), NoiseChannel("depolarizing", p), rng)
    counts = np.bincount(reg.bell_measure(pairs, rng), minlength=4)
    for outcome in BellOutcome:
        expected = 1.0 - 0.75 * p if outcome == BellOutcome.PSI_MINUS else 0.25 * p
        assert_frequency(int(counts[outcome]), trials, expected, 5.0)


def _pauli_exponents(op):
    return next((x, z) for ref, x, z in ORACLE_PAULIS if np.array_equal(ref, op))


def _exact_bell_probabilities(code, theta, channel):
    """dense_encode -> probe each half -> channel on each half -> Bell
    projectors, all on the exact StateVector / DensityMatrix path."""
    spec = ProbeAttackSpec(theta)
    joint = probe_interact(dense_encode(code, singlet()), spec, system_qubit=0)
    joint = probe_interact(joint, spec, system_qubit=1)  # probes are qubits 2, 3
    rho = density(joint)
    if channel is not None:
        rho = apply_channel(apply_channel(rho, channel, 0), channel, 1)
    blocks = rho.matrix.reshape(4, 4, 4, 4)  # (probes, halves, probes', halves')
    halves = np.einsum("pipj->ij", blocks)
    return np.array(
        [float((ORACLE_BELL[k].conj() @ halves @ ORACLE_BELL[k]).real) for k in BellOutcome]
    )


@pytest.mark.parametrize("theta", [0.0, math.pi / 6, math.pi / 4, math.pi / 2])
@pytest.mark.parametrize(
    "channel",
    [None, NoiseChannel("depolarizing", 0.3), NoiseChannel("bit-flip", 0.2)],
    ids=["clean", "depolarizing", "bit-flip"],
)
def test_engine_bell_probabilities_match_exact_oracle(theta, channel):
    # a traced-out probe is a Z flip with probability q; every (probe
    # flip, noise Pauli) branch on each half runs as its own frame pair,
    # and weighting their certain Bell outcomes by the branch weights must
    # give the exact probabilities
    q = (1.0 - math.cos(theta)) / 2.0
    mixture = [(1.0, PAULI_I)] if channel is None else channel.pauli_mixture()
    per_half = [
        (wf * wn, flip, _pauli_exponents(op))
        for wf, flip in ((1.0 - q, 0), (q, 1))
        for wn, op in mixture
    ]
    branches = list(itertools.product(per_half, repeat=2))
    weights = np.array([a[0] * b[0] for a, b in branches])
    for code in ((0, 0), (0, 1), (1, 0), (1, 1)):
        reg = QuantumRegistry()
        pairs = reg.allocate(len(branches))
        reg.apply_pauli(ParticleBlock(reg, pairs, 0), x=code[1], z=code[0])
        for half in (0, 1):  # per half: intercept, then noise
            flips = np.array([branch[half][1] for branch in branches])
            reg.apply_pauli(ParticleBlock(reg, pairs, half), x=0, z=flips)
            xz = np.array([branch[half][2] for branch in branches])
            reg.apply_pauli(ParticleBlock(reg, pairs, half), x=xz[:, 0], z=xz[:, 1])
        outcomes = reg.bell_measure(pairs, np.random.default_rng(0))
        engine = np.bincount(outcomes, weights=weights, minlength=4)
        np.testing.assert_allclose(
            engine, _exact_bell_probabilities(code, theta, channel), rtol=0.0, atol=1e-12
        )


# ---------------------------------------------------------------- packed codes


class _FixedDraws:
    """Stands in for a Generator: ``random(size)`` returns these draws."""

    def __init__(self, *draws):
        self.draws = np.array(draws, dtype=float)

    def random(self, size):
        assert size == self.draws.size
        return self.draws.copy()


def _reference_codes(ref):
    """Pair codes of a reference registry's pairs: 2x + z for a frame,
    4 + 4 s0 + s1 with s = 2 basis + value per half for a product."""
    frame = 2 * ref._frame[:, 0] + ref._frame[:, 1]
    s = 2 * ref._basis.astype(int) + ref._value
    return np.where(ref._basis[:, 0] < 0, frame, 4 + 4 * s[:, 0] + s[:, 1])


def _reference_pair(code):
    """A one-pair reference registry in the state of ``code``."""
    ref = ReferenceRegistry()
    ref.allocate()
    if code < 4:
        ref._frame[0] = divmod(code, 2)
    else:
        s = np.array(divmod(code - 4, 4))
        ref._basis[0], ref._value[0] = s >> 1, s & 1
    return ref


# on and one ulp below each multiple of 1/4 in [0, 1), where every p0 and
# every cumulative Born probability of the pair engine lies
_EDGE_DRAWS = sorted({float(v) for k in range(5) for v in (k / 4, np.nextafter(k / 4, 0))} - {1.0})


def test_pair_tables_match_reference_rules():
    # every table entry a draw can reach, for all 20 codes, against the
    # rules of the three-array engine
    assert set(np.unique(quantum._P0)) <= {0.0, 0.5, 1.0}
    assert (quantum._BELL_CUMULATIVE * 4 % 1 == 0).all()
    for code in range(20):
        assert _reference_codes(_reference_pair(code)).tolist() == [code]
        for half, x, z in itertools.product((0, 1), repeat=3):
            ref = _reference_pair(code)
            ref.apply_pauli([0], half, x, z)
            assert quantum._PAULI[half, 2 * x + z, code] == _reference_codes(ref)[0]
        for half, basis, draw in itertools.product((0, 1), (0, 1), _EDGE_DRAWS):
            ref = _reference_pair(code)
            seen = int(ref.measure([0], half, "ZX"[basis], _FixedDraws(draw))[0])
            assert seen == int(draw >= quantum._P0[half, basis, code])
            assert quantum._AFTER[half, basis, seen, code] == _reference_codes(ref)[0]
        for draw in _EDGE_DRAWS:
            ref = _reference_pair(code)
            outcome = int(ref.bell_measure([0], _FixedDraws(draw))[0])
            assert outcome == int((draw >= quantum._BELL_CUMULATIVE[:, code]).sum())
            assert _reference_codes(ref)[0] == 3 - outcome  # the frame code stored


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_registry_matches_reference_in_lockstep(seed):
    # one random script drives both engines from equal seeds: outcomes and
    # pair states agree after every call, and the generators end equal
    script = np.random.default_rng(seed)
    engines = (QuantumRegistry(), ReferenceRegistry())
    rngs = [np.random.default_rng(500 + seed) for _ in engines]
    channels = [NoiseChannel(k, p) for k in ("depolarizing", "bit-flip") for p in (0.0, 0.3, 1.0)]
    for reg in engines:
        reg.allocate(8)
    for _ in range(300):
        n = engines[0].num_pairs
        # particles in random order, often both halves of a pair
        particles = script.permutation(2 * n)[: script.integers(1, 2 * n + 1)]
        pairs, halves = particles // 2, particles % 2
        op = script.integers(6)
        if op == 0:
            name, args = "allocate", (int(script.integers(1, 4)),)
        elif op == 1:
            name, args = "apply_pauli", (pairs, halves, *script.integers(0, 2, size=(2, pairs.size)))
        elif op == 2:
            name, args = "apply_noise", (pairs, halves, channels[script.integers(len(channels))])
        elif op == 3:
            spec = ProbeAttackSpec(script.uniform(0.0, math.pi / 2))
            name, args = "attach_probe", (pairs, halves, spec)
        elif op == 4:
            bases = np.array(["Z", "X"])[script.integers(0, 2, size=pairs.size)]
            name, args = "measure", (pairs, halves, bases)
        else:
            name, args = "bell_measure", (script.permutation(n)[: script.integers(1, n + 1)],)
        draws = name not in ("allocate", "apply_pauli")  # these take no generator
        # the engine takes the particles as one block, the reference as (pairs, halves)
        engine_args = args
        if name not in ("allocate", "bell_measure"):
            engine_args = (ParticleBlock(engines[0], *args[:2]), *args[2:])
        got, want = (
            getattr(reg, name)(*a, *[rng][:draws])
            for reg, a, rng in zip(engines, (engine_args, args), rngs)
        )
        assert np.array_equal(got, want) if want is not None else got is None
        assert engines[0]._code.tolist() == _reference_codes(engines[1]).tolist()
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


_SINGLET_OUTCOME = {
    "I": BellOutcome.PSI_MINUS, "X": BellOutcome.PHI_MINUS,
    "Y": BellOutcome.PHI_PLUS, "Z": BellOutcome.PSI_PLUS,
}


@pytest.mark.parametrize("engine", [QuantumRegistry, ReferenceRegistry])
@pytest.mark.parametrize(
    "channel, paulis",
    [
        (NoiseChannel("depolarizing", 0.0), "I"),
        (NoiseChannel("depolarizing", 0.01), "IXXYYZZI"),
        (NoiseChannel("depolarizing", 1.0), "IXXYYZZ"),
        (NoiseChannel("bit-flip", 0.0), "I"),
        (NoiseChannel("bit-flip", 1.0), "XX"),
    ],
    ids=["dep-0", "dep-0.01", "dep-1", "flip-0", "flip-1"],
)
def test_noise_branch_edges(engine, channel, paulis):
    # draws on each cumulative weight, one ulp below it, and 1 - 2**-53,
    # in [0, 1) and ascending: a draw on a weight takes the next branch,
    # and one past the last weight (at depolarizing p = 0.01 the weights
    # sum to 1 - 2**-53) takes the identity
    cumulative = np.cumsum([w for w, _ in channel.pauli_mixture()])
    edges = {*cumulative, *np.nextafter(cumulative, 0), 1 - 2**-53}
    draws = sorted(float(d) for d in edges if 0 <= d < 1)
    reg = engine()
    pairs = reg.allocate(len(draws))
    particles = (ParticleBlock(reg, pairs, 0),) if engine is QuantumRegistry else (pairs, 0)
    reg.apply_noise(*particles, channel, _FixedDraws(*draws))
    outcomes = reg.bell_measure(pairs, np.random.default_rng(0)).tolist()
    assert outcomes == [_SINGLET_OUTCOME[p] for p in paulis]
