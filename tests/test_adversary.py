import itertools
import math

import numpy as np
import pytest

from orthosim.adversary import (
    AdversaryError,
    AttackReport,
    GltInterceptResend,
    ProbeAttack,
    QuantumInterceptResend,
    _matching_perms,
    _pair_probe_state,
    _pop_multiset_state,
    escape_probability,
    escape_probability_checked,
    matching_count,
    perfect_matchings,
    permutation_attack,
    pop_eve_information,
    sample_matching,
    stream_eve_information,
)
from orthosim.gpt import FiducialSpec, GbitBlock, sample_outcome
from orthosim.metrics import JointCounts, mutual_information
from orthosim.quantum import (
    BellOutcome,
    DensityMatrix,
    ProbeAttackSpec,
    QuantumRegistry,
    StateVector,
    _permute_qubits_raw,
    basis_state,
    holevo_information,
    singlet,
)
from orthosim.transport import ParticleBlock
from conftest import assert_frequency

S2 = 1.0 / math.sqrt(2)

# exact Holevo values for the probe attacker, streaming vs permuted blocks
BLOCK_ADVANTAGE_TABLE = {
    math.pi / 8: (0.08881439227557669, 0.018225512555751333, 0.0062226267506339345),
    math.pi / 4: (0.3904739489265793, 0.13212610286187454, 0.053022026301030735),
    math.pi / 2: (1.0, 0.5778195311147831, 0.38981742307119926),
}


# ---------------------------------------------------------------- escape formula


def test_escape_probability_values():
    assert escape_probability(2, 2, 1) == pytest.approx(0.75, abs=1e-15)
    assert escape_probability(3, 2, 1) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert escape_probability(5, 7, 0) == 1.0
    assert escape_probability(2, 2, 10) == pytest.approx(0.75**10, abs=1e-15)
    for j in (2, 3, 4):
        for k in (2, 3, 4):
            per_round = 1.0 - ((j - 1) / j) * ((k - 1) / k)
            assert escape_probability(j, k, 5) == pytest.approx(per_round**5, abs=1e-15)


def test_escape_probability_domain():
    for bad in ((0, 2, 1), (2, 1, 1), (2, 2, -1)):
        with pytest.raises(AdversaryError):
            escape_probability(*bad)


def test_escape_probability_checked():
    assert escape_probability_checked(2, 2, 4, 1.0) == pytest.approx(
        escape_probability(2, 2, 4), abs=1e-15
    )
    assert escape_probability_checked(2, 2, 9, 0.0) == 1.0
    assert escape_probability_checked(2, 2, 1, 0.5) == pytest.approx(1 - 0.5 * 0.25, abs=1e-15)
    with pytest.raises(AdversaryError):
        escape_probability_checked(2, 2, 1, 1.5)


# ---------------------------------------------------------------- matchings


def test_matching_counts():
    assert [matching_count(n) for n in (0, 1, 2, 3, 4)] == [1, 1, 3, 15, 105]
    for n in (1, 2, 3, 4):
        assert len(list(perfect_matchings(range(2 * n)))) == matching_count(n)
    with pytest.raises(AdversaryError):
        list(perfect_matchings([1, 2, 3]))
    with pytest.raises(AdversaryError):
        matching_count(-1)


def test_perfect_matchings_are_partitions():
    items = list(range(6))
    seen = set()
    for matching in perfect_matchings(items):
        flat = sorted(x for pair in matching for x in pair)
        assert flat == items
        key = frozenset(frozenset(p) for p in matching)
        assert key not in seen
        seen.add(key)


def test_sample_matching_uniform():
    rng = np.random.default_rng(404)
    counts = {}
    trials = 30_000
    for _ in range(trials):
        key = frozenset(frozenset(p) for p in sample_matching(range(4), rng))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 3
    for c in counts.values():
        assert_frequency(c, trials, 1.0 / 3.0, 5.0)
    with pytest.raises(AdversaryError):
        sample_matching([1, 2, 3], rng)


# ---------------------------------------------------------------- GLT intercept


def test_glt_intercept_learns_codewords_exactly():
    # both codewords assign a definite outcome in every fiducial, so any
    # fiducial choice reads the bit deterministically: one full bit per gbit
    spec = FiducialSpec(2, 2)
    hook = GltInterceptResend(np.random.default_rng(1))
    bits = np.arange(2000) % 2
    hook.intercept(GbitBlock(spec, bits))
    _, outcomes = hook.observations[-1]
    pairs = list(zip(bits.tolist(), outcomes.tolist()))
    assert mutual_information(JointCounts.from_pairs(pairs)) == pytest.approx(1.0, abs=1e-12)
    assert len(outcomes) == hook.rounds_attacked == 2000


def test_glt_intercept_learns_codewords_general_spec():
    spec = FiducialSpec(3, 4)
    hook = GltInterceptResend(np.random.default_rng(2))
    bits = np.arange(1200) % 2
    hook.intercept(GbitBlock(spec, bits * 3))
    pairs = list(zip(bits.tolist(), hook.observations[-1][1].tolist()))
    counts = JointCounts.from_pairs(pairs, num_symbols=4)
    assert mutual_information(counts) == pytest.approx(1.0, abs=1e-12)


def test_glt_intercept_disturbance_pattern():
    spec = FiducialSpec(2, 2)
    hook = GltInterceptResend(np.random.default_rng(3))
    forwarded = hook.intercept(GbitBlock(spec, np.zeros(50, dtype=int)))
    fiducials, outcomes = hook.observations[-1]
    assert (outcomes == 0).all()
    # the measured row is a point mass at the outcome, the other uniform
    assert (forwarded.fiducials == fiducials).all()
    assert (forwarded.outcomes == 0).all()


def test_glt_intercept_attack_fraction():
    hook = GltInterceptResend(np.random.default_rng(15), attack_fraction=0.3)
    trials = 20_000
    forwarded = hook.intercept(GbitBlock(FiducialSpec(3, 3), np.full(trials, 2)))
    assert_frequency(hook.rounds_attacked, trials, 0.3, 5.0)
    fiducials, outcomes = hook.observations[-1]
    assert len(fiducials) == len(outcomes) == hook.rounds_attacked
    measured = forwarded.fiducials >= 0
    assert int(measured.sum()) == hook.rounds_attacked
    assert (forwarded.fiducials[measured] == fiducials).all()
    assert (forwarded.outcomes == 2).all()  # codewords read exactly or left pristine


def test_glt_intercept_rejects_particles():
    reg = QuantumRegistry()
    pairs = reg.allocate(singlet())
    hook = GltInterceptResend(np.random.default_rng(0))
    with pytest.raises(AdversaryError):
        hook.intercept(ParticleBlock(reg, pairs, 0))


def test_detection_decomposition():
    # P(detect per checked gbit) = (J-1)/J * (K-1)/K: the receiver must
    # pick a different fiducial and the uniformized row must miss
    rng = np.random.default_rng(55)
    trials = 20_000
    for j, k in ((2, 2), (3, 2), (2, 3), (3, 4)):
        spec = FiducialSpec(j, k)
        hook = GltInterceptResend(rng)
        values = (np.arange(trials) % 2) * (k - 1)
        block = hook.intercept(GbitBlock(spec, values))
        outcomes = sample_outcome(block, rng.integers(0, j, size=trials), rng)
        detected = int((outcomes != values).sum())
        expected = ((j - 1) / j) * ((k - 1) / k)
        assert_frequency(detected, trials, expected, 5.0)


# ---------------------------------------------------------------- quantum intercept


def test_quantum_intercept_transparent_on_z_eigenstates():
    rng = np.random.default_rng(8)
    hook = QuantumInterceptResend("Z", rng)
    for bit in (0, 1):
        reg = QuantumRegistry()
        pairs = reg.allocate(basis_state(2, bit))  # half 0 holds bit, half 1 holds 0
        hook.intercept(ParticleBlock(reg, pairs, 0))
        bases, outcomes = hook.observations[-1]
        assert list(zip(bases.tolist(), outcomes.tolist())) == [("Z", bit)]
        expected = np.zeros(4)
        expected[bit] = 1.0
        np.testing.assert_allclose(reg.state_vector(0).amplitudes, expected, atol=1e-12)


def test_quantum_intercept_disturbs_conjugate_states():
    rng = np.random.default_rng(9)
    hook = QuantumInterceptResend("Z", rng)
    trials = 20_000
    reg = QuantumRegistry()
    pairs = reg.allocate(StateVector(np.array([S2, S2, 0.0, 0.0])), trials)  # |+> on half 0
    hook.intercept(ParticleBlock(reg, pairs, 0))
    errors = int(reg.measure(pairs, 0, "X", rng).sum())  # |+> is X outcome 0
    assert_frequency(errors, trials, 0.5, 5.0)


def test_quantum_intercept_singlet_bell_distribution():
    # measuring both halves in Z collapses the singlet to |01> or |10>,
    # which overlap only the two psi Bell states, half and half
    rng = np.random.default_rng(10)
    hook = QuantumInterceptResend("Z", rng)
    trials = 20_000
    counts = {o: 0 for o in BellOutcome}
    wrong_bits = 0
    decode = {
        BellOutcome.PSI_MINUS: (0, 0),
        BellOutcome.PHI_MINUS: (0, 1),
        BellOutcome.PSI_PLUS: (1, 0),
        BellOutcome.PHI_PLUS: (1, 1),
    }
    reg = QuantumRegistry()
    pairs = reg.allocate(singlet(), trials)
    hook.intercept(ParticleBlock(reg, pairs, 0))
    hook.intercept(ParticleBlock(reg, pairs, 1))
    for outcome in reg.bell_measure(pairs, rng).tolist():
        counts[outcome] += 1
        bits = decode[outcome]
        wrong_bits += bits[0] + bits[1]  # truth is (0, 0)
    assert counts[BellOutcome.PHI_PLUS] == 0
    assert counts[BellOutcome.PHI_MINUS] == 0
    assert_frequency(counts[BellOutcome.PSI_PLUS], trials, 0.5, 5.0)
    assert_frequency(counts[BellOutcome.PSI_MINUS], trials, 0.5, 5.0)
    # per-bit error rate 1/4: only the psi-plus branch flips one of two bits
    e = wrong_bits / (2 * trials)
    assert abs(e - 0.25) < 5.0 * 0.25 / math.sqrt(trials)


def test_quantum_intercept_random_basis_error_rate():
    rng = np.random.default_rng(11)
    hook = QuantumInterceptResend("random", rng)
    trials = 20_000
    decode = {
        BellOutcome.PSI_MINUS: (0, 0),
        BellOutcome.PHI_MINUS: (0, 1),
        BellOutcome.PSI_PLUS: (1, 0),
        BellOutcome.PHI_PLUS: (1, 1),
    }
    wrong_bits = 0
    reg = QuantumRegistry()
    pairs = reg.allocate(singlet(), trials)
    hook.intercept(ParticleBlock(reg, pairs, 0))
    hook.intercept(ParticleBlock(reg, pairs, 1))
    for outcome in reg.bell_measure(pairs, rng).tolist():
        bits = decode[outcome]
        wrong_bits += bits[0] + bits[1]
    e = wrong_bits / (2 * trials)
    # exact rate 3/8 from the density-matrix computation; generous 5-sigma bound
    assert abs(e - 0.375) < 5.0 * 1.0 / (2 * math.sqrt(trials))


def test_quantum_intercept_attack_fraction():
    rng = np.random.default_rng(14)
    hook = QuantumInterceptResend("Z", rng, attack_fraction=0.3)
    trials = 20_000
    reg = QuantumRegistry()
    pairs = reg.allocate(singlet(), trials)
    hook.intercept(ParticleBlock(reg, pairs, 0))
    assert_frequency(hook.rounds_attacked, trials, 0.3, 5.0)
    bases, outcomes = hook.observations[-1]
    assert len(bases) == len(outcomes) == hook.rounds_attacked


def test_quantum_intercept_validation():
    with pytest.raises(AdversaryError):
        QuantumInterceptResend("Y", np.random.default_rng(0))
    hook = QuantumInterceptResend("Z", np.random.default_rng(0))
    with pytest.raises(AdversaryError):
        hook.intercept(GbitBlock(FiducialSpec(2, 2), [0]))


# ---------------------------------------------------------------- probe attack


def test_probe_attack_transparent_at_zero():
    rng = np.random.default_rng(12)
    hook = ProbeAttack(ProbeAttackSpec(0.0))
    reg = QuantumRegistry()
    pairs = reg.allocate(singlet())
    for half in (0, 1):
        hook.intercept(ParticleBlock(reg, pairs, half))
    assert len(hook.probes) == 2
    assert hook.rounds_attacked == 2
    np.testing.assert_allclose(
        reg.reduced_density(0, [0, 1]).matrix,
        np.outer(singlet().amplitudes, singlet().amplitudes.conj()),
        atol=1e-12,
    )
    assert reg.bell_measure(pairs, rng).tolist() == [BellOutcome.PSI_MINUS]


def test_probe_attack_copies_computational_bits():
    rng = np.random.default_rng(13)
    hook = ProbeAttack(ProbeAttackSpec(math.pi / 2))
    for bit in (0, 1):
        reg = QuantumRegistry()
        pairs = reg.allocate(basis_state(2, bit))  # half 0 holds bit
        hook.intercept(ParticleBlock(reg, pairs, 0))
        probe = hook.probes[-1]
        assert probe.registry.measure(probe.pairs, probe.qubits, "Z", rng).tolist() == [bit]


def test_probe_attack_rejects_gbits():
    hook = ProbeAttack(ProbeAttackSpec(0.3))
    with pytest.raises(AdversaryError):
        hook.intercept(GbitBlock(FiducialSpec(2, 2), [0]))


# ---------------------------------------------------------------- Holevo evaluations


def _pair_states(theta):
    return {
        bits: _pair_probe_state(theta, bits)
        for bits in itertools.product((0, 1), repeat=2)
    }


def _exhaustive_pop_state(sigma, message):
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
        acc += _permute_qubits_raw(canonical, perm)
    return acc / len(placements)


def _exhaustive_pop_information(theta, num_pairs):
    """Reference for pop_eve_information: one ensemble state per message,
    each averaged over every placement."""
    sigma = _pair_states(theta)
    messages = list(itertools.product(list(sigma), repeat=num_pairs))
    ensemble = [
        (1.0 / len(messages), DensityMatrix(_exhaustive_pop_state(sigma, message)))
        for message in messages
    ]
    return holevo_information(ensemble) / num_pairs


def test_pair_probe_states_symmetric_under_swap():
    for theta in BLOCK_ADVANTAGE_TABLE:
        for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
            sigma = _pair_probe_state(theta, bits)
            np.testing.assert_allclose(
                sigma, _permute_qubits_raw(sigma, [1, 0]), atol=1e-12
            )


def test_stream_information_endpoints():
    assert stream_eve_information(0.0) == pytest.approx(0.0, abs=1e-12)
    assert stream_eve_information(math.pi / 2) == pytest.approx(1.0, abs=1e-12)


def test_block_advantage_exact_values():
    for theta, (stream, pop2, pop3) in BLOCK_ADVANTAGE_TABLE.items():
        got_stream = stream_eve_information(theta)
        got_pop2 = pop_eve_information(theta, 2)
        got_pop3 = pop_eve_information(theta, 3)
        assert got_stream == pytest.approx(stream, abs=1e-9)
        assert got_pop2 == pytest.approx(pop2, abs=1e-9)
        assert got_pop3 == pytest.approx(pop3, abs=1e-9)
        # scrambling strictly hurts the attacker, more so with bigger blocks
        assert got_pop2 < got_stream
        assert got_pop3 < got_pop2


def test_pop_information_trivial_block_matches_streaming():
    # a single pair leaves nothing to scramble
    for theta in (math.pi / 8, math.pi / 3):
        assert pop_eve_information(theta, 1) == pytest.approx(
            stream_eve_information(theta), abs=1e-12
        )


def test_pop_information_guards():
    with pytest.raises(AdversaryError):
        pop_eve_information(0.3, 0)
    with pytest.raises(AdversaryError):
        pop_eve_information(0.3, 5)


@pytest.mark.parametrize("theta", [0.0, math.pi / 8, 0.3, math.pi / 4, math.pi / 2])
@pytest.mark.parametrize("num_pairs", [1, 2, 3])
def test_pop_information_matches_exhaustive_placements(theta, num_pairs):
    assert pop_eve_information(theta, num_pairs) == pytest.approx(
        _exhaustive_pop_information(theta, num_pairs), abs=1e-12
    )


@pytest.mark.parametrize(
    "message",
    [((1, 1), (0, 0), (1, 0), (0, 1)), ((1, 1), (0, 1), (1, 1), (0, 1))],
    ids=["four-symbols", "two-repeated"],
)
def test_pop_multiset_state_matches_exhaustive_placements_at_four_pairs(message):
    # the only independent check of N = 4: one multiset state against the
    # average over all 105 matchings x 24 assignments of an unsorted message
    sigma = _pair_states(0.3)
    count, state = _pop_multiset_state(sigma, tuple(sorted(message)), _matching_perms(4))
    assert count == len(set(itertools.permutations(message)))
    np.testing.assert_allclose(
        state, _exhaustive_pop_state(sigma, message), rtol=0.0, atol=1e-12
    )


# ---------------------------------------------------------------- pairing guess


def test_permutation_attack_single_pair_always_succeeds():
    rng = np.random.default_rng(21)
    report = permutation_attack([(0, 1)], rng, trials=50)
    assert report.guess_success_analytic == 1.0
    assert report.guess_success_empirical == 1.0
    assert report.rounds_attacked == 1


def test_permutation_attack_success_rates():
    rng = np.random.default_rng(22)
    trials = 20_000
    report2 = permutation_attack([(0, 2), (1, 3)], rng, trials=trials)
    assert report2.guess_success_analytic == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert_frequency(
        round(report2.guess_success_empirical * trials), trials, 1.0 / 3.0, 5.0
    )
    report3 = permutation_attack([(0, 5), (1, 4), (2, 3)], rng, trials=trials)
    assert report3.guess_success_analytic == pytest.approx(1.0 / 15.0, abs=1e-15)
    assert_frequency(
        round(report3.guess_success_empirical * trials), trials, 1.0 / 15.0, 5.0
    )
    assert len(report3.detection_events) == trials


def test_permutation_attack_guess_rate_underflows_at_large_blocks():
    # 1 / matching_count(n) leaves the float range at n = 151
    rng = np.random.default_rng(25)

    def adjacent(n):
        return [(2 * i, 2 * i + 1) for i in range(n)]

    exact = permutation_attack(adjacent(150), rng).guess_success_analytic
    assert exact == 1.0 / matching_count(150)
    assert 0.0 < permutation_attack(adjacent(151), rng).guess_success_analytic < 1e-300
    assert permutation_attack(adjacent(400), rng).guess_success_analytic == 0.0


def test_permutation_attack_carries_block_information():
    rng = np.random.default_rng(23)
    report = permutation_attack([(0, 1), (2, 3)], rng, trials=10, theta=math.pi / 4)
    assert report.eve_information == pytest.approx(0.13212610286187454, abs=1e-9)
    assert report.strategy == "pairing-guess"


def test_permutation_attack_validation():
    rng = np.random.default_rng(24)
    with pytest.raises(AdversaryError):
        permutation_attack([(0, 0)], rng)
    with pytest.raises(AdversaryError):
        permutation_attack([(0, 1), (1, 2)], rng)
    with pytest.raises(AdversaryError):
        permutation_attack([], rng)
    with pytest.raises(AdversaryError):
        permutation_attack([(0, 1)], rng, trials=0)


def test_attack_report_validation():
    with pytest.raises(AdversaryError):
        AttackReport("x", rounds_attacked=-1)
    with pytest.raises(AdversaryError):
        AttackReport("x", 1, empirical_detection=1.5)
    with pytest.raises(AdversaryError):
        AttackReport(
            "x", 2, detection_events=(True, False), empirical_detection=0.75
        )
    report = AttackReport("x", 2, detection_events=(True, False), empirical_detection=0.5)
    assert report.empirical_detection == 0.5
