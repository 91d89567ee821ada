"""Eavesdropper strategies and their analytics.

Channel hooks implementing fiducial intercept-resend on gbit blocks,
projective intercept-resend on quantum particle blocks, and per-particle
entangling probes, plus the closed-form escape probability, perfect-matching
machinery for pairing attacks on permuted blocks, and exact Holevo
evaluations of the eavesdropper's information in streaming versus
permuted-block transmission.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .gpt import GbitBlock, measure_fiducial
from .quantum import (
    DensityMatrix,
    ProbeAttackSpec,
    _permute_qubits_raw,
    dense_encode,
    holevo_information,
    probe_interact,
    reduced_state,
    singlet,
)
from .transport import EveHook, ParticleBlock

__all__ = [
    "AdversaryError",
    "AttackReport",
    "GltInterceptResend",
    "ProbeAttack",
    "QuantumInterceptResend",
    "escape_probability",
    "escape_probability_checked",
    "escape_probability_sampled",
    "matching_count",
    "perfect_matchings",
    "permutation_attack",
    "pop_eve_information",
    "sample_matching",
    "stream_eve_information",
]

_POP_ENUMERATION_LIMIT = 4


class AdversaryError(ValueError):
    """Raised for strategy misuse: wrong carrier kind, bad parameters."""


def _check_probability(name: str, value: Optional[float]) -> None:
    if value is not None and not -1e-12 <= value <= 1.0 + 1e-12:
        raise AdversaryError(f"{name} must be a probability, got {value}")


@dataclass(frozen=True)
class AttackReport:
    """Summary of one adversary strategy's run.

    detection_events are per-round flags (detected / guess-correct,
    depending on strategy); escape and information entries are analytic
    where available. Pairing attacks fill the guess-success fields.
    """

    strategy: str
    rounds_attacked: int
    detection_events: tuple[bool, ...] = ()
    empirical_detection: Optional[float] = None
    analytic_escape: Optional[float] = None
    eve_information: Optional[float] = None
    guess_success_analytic: Optional[float] = None
    guess_success_empirical: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rounds_attacked < 0:
            raise AdversaryError("rounds_attacked must be nonnegative")
        _check_probability("empirical_detection", self.empirical_detection)
        _check_probability("analytic_escape", self.analytic_escape)
        _check_probability("guess_success_analytic", self.guess_success_analytic)
        _check_probability("guess_success_empirical", self.guess_success_empirical)
        if self.eve_information is not None and self.eve_information < -1e-12:
            raise AdversaryError("eve_information must be nonnegative")
        if self.detection_events and self.empirical_detection is not None:
            mean = sum(self.detection_events) / len(self.detection_events)
            if abs(mean - self.empirical_detection) > 1e-12:
                raise AdversaryError("empirical_detection inconsistent with events")


# ---------------------------------------------------------------- escape analytics


def escape_probability(num_fiducials: int, num_outcomes: int, rounds: int) -> float:
    """Chance an intercept-resend attack survives full checking.

    Per checked round the attack is caught when the receiver measures a
    different fiducial than the attacker (probability (J-1)/J) and the
    uniformized row then misses the codeword value ((K-1)/K).
    """
    if num_fiducials < 1 or num_outcomes < 2 or rounds < 0:
        raise AdversaryError(
            f"need J >= 1, K >= 2, n >= 0, got ({num_fiducials}, {num_outcomes}, {rounds})"
        )
    j, k = num_fiducials, num_outcomes
    per_round = 1.0 - ((j - 1) / j) * ((k - 1) / k)
    return per_round**rounds


def escape_probability_checked(
    num_fiducials: int, num_outcomes: int, rounds: int, check_fraction: float
) -> float:
    """Escape probability when each of ``rounds`` rounds is exposed
    (attacked and checked) independently with probability check_fraction.

    Escape tallies pass the checked rounds and the attack fraction, since
    each gbit is attacked independently. A run's own report checks a
    fixed number of coordinates; see escape_probability_sampled.
    """
    if not 0.0 <= check_fraction <= 1.0:
        raise AdversaryError(f"check fraction must lie in [0, 1], got {check_fraction}")
    if num_fiducials < 1 or num_outcomes < 2 or rounds < 0:
        raise AdversaryError("need J >= 1, K >= 2, n >= 0")
    j, k = num_fiducials, num_outcomes
    per_round = 1.0 - check_fraction * ((j - 1) / j) * ((k - 1) / k)
    return per_round**rounds


def escape_probability_sampled(
    num_fiducials: int, num_outcomes: int, gbits: int, attacked: int, checks: int
) -> float:
    """Escape probability of a run that checks ``checks`` of its ``gbits``
    coordinates, drawn without replacement, after ``attacked`` gbits were
    attacked: E[(1 - p)^H] with p = (J-1)/J * (K-1)/K and H, the attacked
    checked count, Hypergeometric(gbits, attacked, checks).  The pmf is
    summed in log space from its term ratios, so large blocks stay cheap.
    """
    if not 0 <= attacked <= gbits or not 0 <= checks <= gbits:
        raise AdversaryError(
            f"need 0 <= attacked, checks <= gbits, got ({attacked}, {checks}, {gbits})"
        )
    survive = escape_probability(num_fiducials, num_outcomes, 1)
    low, high = max(0, checks + attacked - gbits), min(attacked, checks)
    if low == high:  # H is certain, e.g. when every coordinate is checked
        return survive**low
    h = np.arange(low, high, dtype=float)
    ratio = (attacked - h) * (checks - h) / ((h + 1.0) * (gbits - attacked - checks + h + 1.0))
    log_pmf = np.concatenate([[0.0], np.cumsum(np.log(ratio))])  # up to a constant
    log_terms = log_pmf + np.arange(low, high + 1) * math.log(survive)
    return math.exp(np.logaddexp.reduce(log_terms) - np.logaddexp.reduce(log_pmf))


# ---------------------------------------------------------------- intercept-resend


def _validate_fraction(attack_fraction: float) -> float:
    if not 0.0 <= attack_fraction <= 1.0:
        raise AdversaryError(f"attack_fraction must lie in [0, 1], got {attack_fraction}")
    return attack_fraction


class GltInterceptResend(EveHook):
    """Measure passing gbits in a uniformly chosen fiducial each.

    The post-measurement block is forwarded, so every other fiducial row
    is uniformized. Each intercepted block adds one (fiducials, outcomes)
    pair of arrays to observations; with attack_fraction < 1, each gbit
    is attacked independently with that probability and passed through
    otherwise.
    """

    strategy = "glt-intercept-resend"

    def __init__(self, rng: np.random.Generator, attack_fraction: float = 1.0) -> None:
        super().__init__()
        self.rng = rng
        self.attack_fraction = _validate_fraction(attack_fraction)
        self.observations: list[tuple[np.ndarray, np.ndarray]] = []
        self.rounds_attacked = 0

    def intercept(self, carrier):
        super().intercept(carrier)
        if not isinstance(carrier, GbitBlock):
            raise AdversaryError("fiducial intercept-resend needs a gbit block")
        attacked = np.arange(len(carrier))
        if self.attack_fraction < 1.0:
            attacked = np.flatnonzero(self.rng.random(len(carrier)) < self.attack_fraction)
        fiducials = self.rng.integers(0, carrier.spec.num_fiducials, size=attacked.size)
        outcomes, post = measure_fiducial(carrier.take(attacked), fiducials, self.rng)
        self.observations.append((fiducials, outcomes))
        self.rounds_attacked += attacked.size
        return carrier.put(attacked, post)


class QuantumInterceptResend(EveHook):
    """Projectively measure passing particles and resend the eigenstate.

    basis is "Z", "X", or "random" (fresh uniform choice per particle).
    Each intercepted block adds one (bases, outcomes) pair of arrays to
    observations; with attack_fraction < 1, each particle is attacked
    independently with that probability.
    """

    strategy = "quantum-intercept-resend"

    def __init__(
        self, basis: str, rng: np.random.Generator, attack_fraction: float = 1.0
    ) -> None:
        super().__init__()
        if basis not in ("Z", "X", "random"):
            raise AdversaryError(f"basis must be Z, X, or random, got {basis!r}")
        self.basis = basis
        self.rng = rng
        self.attack_fraction = _validate_fraction(attack_fraction)
        self.observations: list[tuple[np.ndarray, np.ndarray]] = []
        self.rounds_attacked = 0

    def intercept(self, carrier):
        super().intercept(carrier)
        if not isinstance(carrier, ParticleBlock):
            raise AdversaryError("projective intercept-resend needs a particle block")
        block = carrier
        if self.attack_fraction < 1.0:
            block = block.take(self.rng.random(len(block)) < self.attack_fraction)
        if self.basis == "random":
            bases = np.array(["Z", "X"])[self.rng.integers(0, 2, size=len(block))]
        else:
            bases = np.full(len(block), self.basis)
        outcomes = block.registry.measure(block.pairs, block.qubits, bases, self.rng)
        self.observations.append((bases, outcomes))
        self.rounds_attacked += len(block)
        return carrier


class ProbeAttack(EveHook):
    """Entangle a private probe with every passing particle.

    No protocol reads a probe, so the pair engine traces each one out as
    it attaches: the half takes a Z flip with probability
    (1 - cos theta)/2, drawn from rng. The attacker's information is
    scored by the exact Holevo evaluators.
    """

    strategy = "probe"

    def __init__(self, spec: ProbeAttackSpec, rng: np.random.Generator) -> None:
        super().__init__()
        self.spec = spec
        self.rng = rng
        self.rounds_attacked = 0

    def intercept(self, carrier):
        super().intercept(carrier)
        if not isinstance(carrier, ParticleBlock):
            raise AdversaryError("probe attack needs a particle block")
        carrier.registry.attach_probe(carrier.pairs, carrier.qubits, self.spec, self.rng)
        self.rounds_attacked += len(carrier)
        return carrier


# ---------------------------------------------------------------- pairing attacks


def matching_count(num_pairs: int) -> int:
    """Number of perfect matchings of 2n elements: (2n)! / (2^n n!)."""
    if num_pairs < 0:
        raise AdversaryError("num_pairs must be nonnegative")
    return math.factorial(2 * num_pairs) // (2**num_pairs * math.factorial(num_pairs))


def _matching_probability(num_pairs: int) -> float:
    """1 / matching_count(n) as a float, underflowing to 0.0 for large n.

    Exact while the count fits a float; beyond that it comes from log
    space, since forming (2n)! gets slow and 1.0 / count overflows.
    """
    n = num_pairs
    log_count = math.lgamma(2 * n + 1) - n * math.log(2.0) - math.lgamma(n + 1)
    if log_count < 709.0:  # the count fits a float
        return 1.0 / matching_count(n)
    return math.exp(-log_count)


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


def sample_matching(items: Sequence, rng: np.random.Generator) -> list[tuple]:
    """Draw a uniformly random perfect matching.

    Pairing the first unmatched element with a uniform choice among the
    rest gives each matching probability 1/(2n-1)!!, which is uniform.
    """
    pool = list(items)
    if len(pool) % 2:
        raise AdversaryError("cannot match an odd number of items")
    pairs = []
    while pool:
        first = pool.pop(0)
        partner = pool.pop(int(rng.integers(0, len(pool))))
        pairs.append((first, partner))
    return pairs


def permutation_attack(
    true_pairs: Sequence[tuple[int, int]],
    rng: np.random.Generator,
    trials: int = 1,
    theta: Optional[float] = None,
) -> AttackReport:
    """Guess the hidden pairing of a permuted block uniformly at random.

    true_pairs is the ground-truth pairing over carrier positions as the
    adversary saw them. Each trial draws an independent uniform matching
    guess; success means the full pairing is exactly right. With theta
    given, the report also carries the exact per-pair block information
    available to a probe attacker of that strength.
    """
    if trials < 1:
        raise AdversaryError("trials must be positive")
    truth = set()
    seen: set[int] = set()
    for pair in true_pairs:
        if len(pair) != 2 or pair[0] == pair[1]:
            raise AdversaryError(f"malformed pair {pair}")
        if pair[0] in seen or pair[1] in seen:
            raise AdversaryError("pairs must be disjoint")
        seen.update(pair)
        truth.add(frozenset(pair))
    num_pairs = len(truth)
    if num_pairs == 0:
        raise AdversaryError("need at least one pair")
    positions = sorted(seen)
    events = []
    for _ in range(trials):
        guess = sample_matching(positions, rng)
        events.append({frozenset(p) for p in guess} == truth)
    info = None
    if theta is not None:
        info = pop_eve_information(theta, num_pairs) if num_pairs <= _POP_ENUMERATION_LIMIT else None
    return AttackReport(
        strategy="pairing-guess",
        rounds_attacked=num_pairs,
        detection_events=tuple(events),
        empirical_detection=None,
        analytic_escape=None,
        eve_information=info,
        guess_success_analytic=_matching_probability(num_pairs),
        guess_success_empirical=sum(events) / trials,
    )


# ---------------------------------------------------------------- Holevo evaluations


def _pair_probe_state(theta: float, bits: tuple[int, int]) -> np.ndarray:
    """Eve's joint 2-probe state for one encoded pair, both halves probed."""
    encoded = dense_encode(bits, singlet())
    spec = ProbeAttackSpec(theta)
    joint = probe_interact(encoded, spec, system_qubit=0)
    joint = probe_interact(joint, spec, system_qubit=1)
    return reduced_state(joint, [2, 3]).matrix


def stream_eve_information(theta: float) -> float:
    """Exact per-pair Holevo information of a streaming probe attacker.

    The attacker probes both halves of every dense-coded pair; with the
    pairing public (streaming transmission), her information per pair is
    the Holevo quantity of the four equiprobable 2-probe states.
    """
    ensemble = [
        (0.25, DensityMatrix(_pair_probe_state(theta, bits)))
        for bits in itertools.product((0, 1), repeat=2)
    ]
    return holevo_information(ensemble)


def _matching_perms(num_pairs: int) -> list[list[int]]:
    """One qubit relabeling per perfect matching of the 2N probe positions:
    the canonical product's pair i lands on the matching's i-th edge."""
    perms = []
    for matching in perfect_matchings(range(2 * num_pairs)):
        perm = [0] * (2 * num_pairs)
        for i, (a, b) in enumerate(matching):  # a < b in every yielded edge
            perm[a], perm[b] = 2 * i, 2 * i + 1
        perms.append(perm)
    return perms


def _pop_multiset_state(
    sigma: dict[tuple[int, int], np.ndarray],
    multiset: tuple[tuple[int, int], ...],
    perms: Sequence[Sequence[int]],
) -> tuple[int, np.ndarray]:
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
        acc += _permute_qubits_raw(symmetric, perm)
    return len(orderings), acc / len(perms)


def pop_eve_information(theta: float, num_pairs: int) -> float:
    """Exact per-pair Holevo information under permutation ignorance.

    With uniform permutation scrambling the attacker holds 2N probes but
    does not know which positions pair up nor which pair carries which
    message slot, so her state per message is the average over every
    placement: each perfect matching of the 2N positions combined with
    each assignment of pairs to matched edges.  (Probe-pair states are
    symmetric under swapping the two probes, so orientation within an
    edge does not matter.)  That average depends only on the multiset of
    the message's dense-coded symbols, so the ensemble has one state per
    multiset (20 at N = 3, 35 at N = 4, against 4^N messages), weighted
    by its number of orderings.  Each state is the canonical product
    symmetrized over those orderings, which is the assignment average,
    then averaged over the (2N-1)!! perfect matchings.  Exact, hence
    limited to N <= 4.
    """
    if num_pairs < 1:
        raise AdversaryError("num_pairs must be positive")
    if num_pairs > _POP_ENUMERATION_LIMIT:
        raise AdversaryError(
            f"exact placement averaging supports num_pairs <= {_POP_ENUMERATION_LIMIT}"
        )
    sigma = {
        bits: _pair_probe_state(theta, bits)
        for bits in itertools.product((0, 1), repeat=2)
    }
    perms = _matching_perms(num_pairs)
    ensemble = []
    for multiset in itertools.combinations_with_replacement(sigma, num_pairs):
        count, state = _pop_multiset_state(sigma, multiset, perms)
        ensemble.append((count / 4**num_pairs, DensityMatrix(state)))
    return holevo_information(ensemble) / num_pairs
