import itertools
import math

import numpy as np
import pytest
from scipy.stats import hypergeom

from orthosim import adversary
from orthosim.adversary import (
    _POP_ENUMERATION_LIMIT,
    AdversaryError,
    AttackReport,
    GltInterceptResend,
    ProbeAttack,
    QuantumInterceptResend,
    _pop_information,
    _pop_log_weights,
    _pop_state_entropies,
    escape_probability,
    escape_probability_sampled,
    matching_count,
    permutation_attack,
    pop_eve_information,
    sample_matching,
    stream_eve_information,
)
from orthosim.gpt import FiducialSpec, GbitBlock, sample_outcome
from orthosim.metrics import JointCounts, binary_entropy, mutual_information
from orthosim.quantum import (
    BellOutcome,
    DensityMatrix,
    ProbeAttackSpec,
    QuantumRegistry,
    holevo_information,
)
from orthosim.transport import ParticleBlock
from conftest import assert_frequency
from oracle import (
    ORACLE_BELL,
    dense_encode,
    exhaustive_pop_information,
    exhaustive_pop_state,
    matching_perms,
    multiset_pop_information,
    pair_probe_state,
    pair_states,
    perfect_matchings,
    permute_qubits_raw,
    pop_multiset_state,
    singlet,
)

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


def test_escape_probability_attack_fraction():
    assert escape_probability(2, 2, 4, 1.0) == pytest.approx(
        escape_probability(2, 2, 4), abs=1e-15
    )
    assert escape_probability(2, 2, 9, 0.0) == 1.0
    assert escape_probability(2, 2, 1, 0.5) == pytest.approx(1 - 0.5 * 0.25, abs=1e-15)
    with pytest.raises(AdversaryError):
        escape_probability(2, 2, 1, 1.5)


def test_escape_probability_sampled_matches_hypergeometric_sum():
    # checks drawn without replacement: E[(1 - p)^H], H hypergeometric
    for j, k, n, attacked, checks in (
        (2, 2, 20, 20, 10), (2, 3, 40, 16, 20), (3, 2, 40, 19, 20),
        (4, 4, 7, 3, 5), (2, 2, 10, 0, 4), (2, 2, 10, 7, 10), (3, 3, 30, 25, 12),
    ):
        survive = 1.0 - ((j - 1) / j) * ((k - 1) / k)
        exact = sum(
            math.comb(attacked, h) * math.comb(n - attacked, checks - h) * survive**h
            for h in range(min(attacked, checks) + 1)
        ) / math.comb(n, checks)
        got = escape_probability_sampled(j, k, n, attacked, checks)
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0)
    # a full attack at f = 0.5 escapes like (3/4)^10, not (1 - 0.5/4)^20
    assert escape_probability_sampled(2, 2, 20, 20, 10) == 0.75**10
    # every coordinate checked: bit-identical to the independent-rounds form
    for attacked in (0, 1, 7, 40):
        assert escape_probability_sampled(3, 2, 40, attacked, 40) == (
            escape_probability(3, 2, attacked, 1.0)
        )
    with pytest.raises(AdversaryError):
        escape_probability_sampled(2, 2, 10, 11, 5)


def test_escape_probability_sampled_at_large_blocks():
    n, attacked, checks = 100_000, 30, 50_000
    law = hypergeom(n, attacked, checks)
    h = np.arange(attacked + 1)
    reference = float((law.pmf(h) * 0.75**h).sum())
    assert escape_probability_sampled(2, 2, n, attacked, checks) == pytest.approx(
        reference, rel=1e-9
    )
    assert escape_probability_sampled(2, 2, n, n // 2, checks) == 0.0  # underflows cleanly


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
    pairs = reg.allocate().pairs[::2]
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
    reg = QuantumRegistry()
    pairs = reg.allocate(64).pairs[::2]
    prepared = reg.measure(ParticleBlock(reg, pairs, 0), "Z", rng)  # half 0 holds a Z eigenstate
    assert 0 < prepared.sum() < 64
    hook.intercept(ParticleBlock(reg, pairs, 0))
    bases, outcomes = hook.observations[-1]
    assert (bases == "Z").all()
    assert (outcomes == prepared).all()
    # both halves are left as they were: the eigenstate and its anticorrelated partner
    assert (reg.measure(ParticleBlock(reg, pairs, 0), "Z", rng) == prepared).all()
    assert (reg.measure(ParticleBlock(reg, pairs, 1), "Z", rng) == 1 - prepared).all()


def test_quantum_intercept_disturbs_conjugate_states():
    rng = np.random.default_rng(9)
    hook = QuantumInterceptResend("Z", rng)
    trials = 20_000
    reg = QuantumRegistry()
    pairs = reg.allocate(trials).pairs[::2]
    prepared = reg.measure(ParticleBlock(reg, pairs, 0), "X", rng)  # half 0 holds an X eigenstate
    hook.intercept(ParticleBlock(reg, pairs, 0))
    errors = int((reg.measure(ParticleBlock(reg, pairs, 0), "X", rng) != prepared).sum())
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
    pairs = reg.allocate(trials).pairs[::2]
    hook.intercept(ParticleBlock(reg, pairs, 0))
    hook.intercept(ParticleBlock(reg, pairs, 1))
    for outcome in reg.bell_measure(ParticleBlock(reg, pairs, 0), rng).tolist():
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
    pairs = reg.allocate(trials).pairs[::2]
    hook.intercept(ParticleBlock(reg, pairs, 0))
    hook.intercept(ParticleBlock(reg, pairs, 1))
    for outcome in reg.bell_measure(ParticleBlock(reg, pairs, 0), rng).tolist():
        bits = decode[outcome]
        wrong_bits += bits[0] + bits[1]
    e = wrong_bits / (2 * trials)
    # exact rate 3/8 from the density-matrix computation; generous 5-sigma bound
    assert abs(e - 0.375) < 5.0 * 1.0 / (2 * math.sqrt(trials))


class _PresetDraws:
    """Generator stand-in: each ``random``/``integers`` call returns the
    next preset array."""

    def __init__(self, *calls):
        self.calls = list(calls)

    def random(self, size):
        return self.calls.pop(0)

    def integers(self, low, high, size):
        return self.calls.pop(0)


def _exact_joint(code, bases):
    """P(Eve's outcomes e0, e1; Bob's Bell outcome) for a dense-coded
    singlet whose halves are measured in ``bases``, by projectors on the
    exact state vector; shape (2, 2, 4)."""
    eigen = {"Z": np.eye(2), "X": np.array([[S2, S2], [S2, -S2]])}  # rows: outcome 0, 1
    psi = dense_encode(code, singlet()).amplitudes
    joint = np.zeros((2, 2, 4))
    for e0, e1 in itertools.product((0, 1), repeat=2):
        v0, v1 = eigen[bases[0]][e0], eigen[bases[1]][e1]
        post = np.kron(np.outer(v1, v1), np.outer(v0, v0)) @ psi  # qubit 0 is the low bit
        for k in BellOutcome:
            joint[e0, e1, k] = abs(ORACLE_BELL[k].conj() @ post) ** 2
    return joint


@pytest.mark.parametrize("basis", ["Z", "X", "random"])
def test_intercept_resend_joint_outcomes_match_exact_oracle(basis):
    # Eve measures both halves of every dense-coded pair, then Bob
    # Bell-measures.  Every threshold a uniform meets is a multiple of 1/4
    # (Born weights 0, 1/4, 1/2, 3/4, 1), so running each of the 4^3 cells
    # of (half-0, half-1, Bell) uniforms at its midpoint weighs the joint
    # outcomes exactly; "random" also runs the four basis choices.
    mids = (np.arange(4) + 0.5) / 4
    cells = np.array(list(itertools.product(mids, repeat=3)))  # (64, 3)
    combos = list(itertools.product("ZX", repeat=2)) if basis == "random" else [(basis,) * 2]
    choice = np.repeat(np.arange(len(combos)), len(cells))  # basis combo per pair
    cells = np.tile(cells, (len(combos), 1))
    n = len(cells)
    for code in ((0, 0), (0, 1), (1, 0), (1, 1)):
        reg = QuantumRegistry()
        pairs = reg.allocate(n).pairs[::2]
        reg.apply_pauli(ParticleBlock(reg, pairs, 0), x=code[1], z=code[0])
        halves = np.tile([0, 1], n)
        draws = cells[:, :2].ravel()  # the stream is half 0, half 1 of each pair
        if basis == "random":  # the hook draws "Z" = 0, "X" = 1 per particle
            index = np.array([[combos[c][h] == "X" for h in (0, 1)] for c in choice])
            rng = _PresetDraws(index.ravel().astype(int), draws)
        else:
            rng = _PresetDraws(draws)
        hook = QuantumInterceptResend(basis, rng)
        hook.intercept(ParticleBlock(reg, np.repeat(pairs, 2), halves))
        eve = hook.observations[-1][1].reshape(n, 2)
        bob = reg.bell_measure(ParticleBlock(reg, pairs, 0), _PresetDraws(cells[:, 2]))
        for c, bases in enumerate(combos):
            mine = choice == c
            engine = np.zeros((2, 2, 4))
            np.add.at(engine, (eve[mine, 0], eve[mine, 1], bob[mine]), 1.0 / mine.sum())
            np.testing.assert_allclose(
                engine, _exact_joint(code, bases), rtol=0.0, atol=1e-12
            )


def test_quantum_intercept_attack_fraction():
    rng = np.random.default_rng(14)
    hook = QuantumInterceptResend("Z", rng, attack_fraction=0.3)
    trials = 20_000
    reg = QuantumRegistry()
    pairs = reg.allocate(trials).pairs[::2]
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
    hook = ProbeAttack(ProbeAttackSpec(0.0), np.random.default_rng(0))
    reg = QuantumRegistry()
    pairs = reg.allocate(1000).pairs[::2]
    for half in (0, 1):
        hook.intercept(ParticleBlock(reg, pairs, half))
    assert hook.rounds_attacked == 2000
    assert (reg.bell_measure(ParticleBlock(reg, pairs, 0), rng) == BellOutcome.PSI_MINUS).all()


def test_probe_attack_flips_from_the_eve_stream():
    # each probed half takes a Z flip with probability (1 - cos theta)/2,
    # one uniform per particle from the attacker's generator
    theta, trials = 0.9, 40_000
    q = (1.0 - math.cos(theta)) / 2.0
    hook = ProbeAttack(ProbeAttackSpec(theta), np.random.default_rng(21))
    reg = QuantumRegistry()
    pairs = reg.allocate(trials).pairs[::2]
    hook.intercept(ParticleBlock(reg, pairs, 0))
    flipped = reg.bell_measure(ParticleBlock(reg, pairs, 0), np.random.default_rng(0)) == BellOutcome.PSI_PLUS
    assert (flipped == (np.random.default_rng(21).random(trials) < q)).all()
    assert_frequency(int(flipped.sum()), trials, q, 5.0)


def test_probe_attack_rejects_gbits():
    hook = ProbeAttack(ProbeAttackSpec(0.3), np.random.default_rng(0))
    with pytest.raises(AdversaryError):
        hook.intercept(GbitBlock(FiducialSpec(2, 2), [0]))


# ---------------------------------------------------------------- Holevo evaluations


def _gram_pop_information(theta, num_pairs):
    """Reference for pop_eve_information with no spin sectors: each rho_k
    = sum_x p_x f_x f_x^T through its dense Gram matrix D^1/2 M^(x)2N D^1/2
    over all 4^N strings x, weights from exact integer binomials, and the
    average state through the same Gram with the averaged weights."""
    n, c = num_pairs, math.cos(theta)
    gram = np.ones((1, 1))
    for _ in range(2 * n):
        gram = np.kron(gram, [[1.0, c], [c, 1.0]])
    ones = np.array([bin(x).count("1") for x in range(4**n)])

    def entropy(weights):
        root = np.sqrt(weights)
        eigs = np.linalg.eigvalsh(root[:, None] * gram * root[None, :])
        eigs = eigs[eigs > eigs[-1] * 1e-14]
        return float(-(eigs * np.log2(eigs)).sum())

    average = np.zeros(4**n)
    mean_entropy = 0.0
    for k in range(n + 1):
        p_k = math.comb(n, k) / 2**n
        weights = np.zeros(4**n)
        for both_f1 in range(k + 1):
            w = n - k + 2 * both_f1
            weights[ones == w] = math.comb(k, both_f1) / 2**k / math.comb(2 * n, w)
        average += p_k * weights
        mean_entropy += p_k * entropy(weights)
    return (entropy(average) - mean_entropy) / n


@pytest.mark.parametrize("bits", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_pair_probe_states_have_the_closed_form(bits):
    # the X code bit b1 alone picks sigma0 = (f0 f1 + f1 f0)/2 (b1 = 0) or
    # sigma1 = (f0 f0 + f1 f1)/2 (b1 = 1)
    for theta in (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2):
        f = [np.array([1.0, 0.0]), np.array([math.cos(theta), math.sin(theta)])]
        pairs = ((0, 0), (1, 1)) if bits[1] else ((0, 1), (1, 0))
        # the second probe (qubit 3) is the high kron factor
        closed = sum(np.kron(np.outer(f[b], f[b]), np.outer(f[a], f[a])) for a, b in pairs) / 2
        np.testing.assert_allclose(pair_probe_state(theta, bits), closed, rtol=0.0, atol=1e-12)


def test_pair_probe_states_symmetric_under_swap():
    for theta in BLOCK_ADVANTAGE_TABLE:
        for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
            sigma = pair_probe_state(theta, bits)
            np.testing.assert_allclose(
                sigma, permute_qubits_raw(sigma, [1, 0]), atol=1e-12
            )


def test_stream_information_endpoints():
    assert stream_eve_information(0.0) == pytest.approx(0.0, abs=1e-12)
    assert stream_eve_information(math.pi / 2) == pytest.approx(1.0, abs=1e-12)


def test_stream_information_closed_form_matches_pair_states():
    # Holevo quantity of the four equiprobable 2-probe states, exactly
    for theta in np.linspace(0.0, math.pi / 2, 8):
        ensemble = [(0.25, DensityMatrix(s)) for s in pair_states(theta).values()]
        assert stream_eve_information(theta) == pytest.approx(
            holevo_information(ensemble), abs=1e-14
        )


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
    with pytest.raises(AdversaryError, match=f"num_pairs <= {_POP_ENUMERATION_LIMIT}"):
        pop_eve_information(0.3, 65)
    with pytest.raises(AdversaryError):
        pop_eve_information(-0.1, 2)


@pytest.mark.parametrize("theta", [0.0, math.pi / 8, 0.3, math.pi / 4, math.pi / 2])
@pytest.mark.parametrize("num_pairs", [1, 2, 3])
def test_pop_information_matches_exhaustive_placements(theta, num_pairs):
    assert pop_eve_information(theta, num_pairs) == pytest.approx(
        exhaustive_pop_information(theta, num_pairs), abs=1e-12
    )


@pytest.mark.parametrize(
    "message",
    [((1, 1), (0, 0), (1, 0), (0, 1)), ((1, 1), (0, 1), (1, 1), (0, 1))],
    ids=["four-symbols", "two-repeated"],
)
def test_pop_multiset_state_matches_exhaustive_placements_at_four_pairs(message):
    # the multiset oracle itself: one multiset state against the average
    # over all 105 matchings x 24 assignments of an unsorted message
    sigma = pair_states(0.3)
    count, state = pop_multiset_state(sigma, tuple(sorted(message)), matching_perms(4))
    assert count == len(set(itertools.permutations(message)))
    np.testing.assert_allclose(
        state, exhaustive_pop_state(sigma, message), rtol=0.0, atol=1e-12
    )


def test_pop_information_matches_multiset_oracle_at_four_pairs():
    assert pop_eve_information(0.3, 4) == pytest.approx(
        multiset_pop_information(0.3, 4), abs=1e-12
    )


@pytest.mark.parametrize("theta", [math.pi / 8, 0.3, math.pi / 2])
@pytest.mark.parametrize("num_pairs", [1, 2, 3, 4, 5])
def test_pop_information_matches_dense_gram(theta, num_pairs):
    assert pop_eve_information(theta, num_pairs) == pytest.approx(
        _gram_pop_information(theta, num_pairs), abs=1e-12
    )


@pytest.mark.parametrize("theta", [math.pi / 8, math.pi / 4, math.pi / 2])
def test_pop_information_at_large_blocks(theta):
    # an absolute eigenvalue cutoff drops the many tiny eigenvalues of the
    # large sectors and reports more than the streaming value per pair
    stream = stream_eve_information(theta)
    previous = stream
    for n in (1, 2, 4, 8, 16, 32, 64):
        info = pop_eve_information(theta, n)
        assert 0.0 <= info <= stream + 1e-12
        assert info <= previous + 1e-12
        previous = info
        # each rho_k's weights sum to 1 over the strings, and its spectrum,
        # summed over the spin sectors with their multiplicities, keeps that
        strings = np.array([math.comb(2 * n, w) for w in range(2 * n, -1, -1)], dtype=float)
        np.testing.assert_allclose(np.exp(_pop_log_weights(n)) @ strings, 1.0, rtol=0, atol=1e-12)
        traces = _pop_state_entropies(theta, n)[1]
        np.testing.assert_allclose(traces, 1.0, rtol=0, atol=1e-12)


def test_pop_information_cache_matches_uncached_computation():
    _pop_information.cache_clear()
    for theta, n in ((0.3, 2), (math.pi / 8, 5), (math.pi / 2, 17)):
        first = pop_eve_information(theta, n)
        assert pop_eve_information(theta, n) == first
        entropy = _pop_state_entropies(theta, n)[0]
        mean = math.fsum(math.comb(n, k) / 2**n * entropy[k] for k in range(n + 1))
        assert first == (2 * n * binary_entropy(math.cos(theta / 2.0) ** 2) - mean) / n
    info = _pop_information.cache_info()
    assert (info.misses, info.hits) == (3, 3)


def test_pop_information_lost_trace_raises_on_every_call(monkeypatch):
    # a failed trace check is not cached: the next call checks again
    def lossy(theta, n):
        return np.zeros(n + 1), np.full(n + 1, 1.0 + 1e-6)

    monkeypatch.setattr(adversary, "_pop_state_entropies", lossy)
    _pop_information.cache_clear()
    for _ in range(2):
        with pytest.raises(FloatingPointError, match="lost trace"):
            pop_eve_information(0.3, 3)
    monkeypatch.undo()
    assert pop_eve_information(0.3, 3) > 0.0


def test_pop_information_block_size_must_be_an_integer_even_when_cached():
    cached = pop_eve_information(0.3, 2)
    with pytest.raises(TypeError):
        pop_eve_information(0.3, 2.0)
    assert pop_eve_information(0.3, np.int64(2)) == cached
    assert pop_eve_information(0.3, True) == pop_eve_information(0.3, 1)


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


def test_permutation_attack_information_up_to_the_exact_limit():
    rng = np.random.default_rng(26)
    truth = [(2 * i, 2 * i + 1) for i in range(20)]
    report = permutation_attack(truth, rng, theta=0.3)
    assert report.eve_information == pop_eve_information(0.3, 20)
    truth = [(2 * i, 2 * i + 1) for i in range(_POP_ENUMERATION_LIMIT + 1)]
    assert permutation_attack(truth, rng, theta=0.3).eve_information is None


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
