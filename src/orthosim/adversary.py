"""Eavesdropper strategies and their analytics.

Channel hooks implementing fiducial intercept-resend on gbit blocks,
projective intercept-resend on quantum particle blocks, and per-particle
entangling probes, plus the closed-form escape probability, perfect-matching
counts and sampling for pairing attacks on permuted blocks, and exact Holevo
evaluations of the eavesdropper's information in streaming versus
permuted-block transmission.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .gpt import GbitBlock, measure_fiducial
from .metrics import binary_entropy
from .quantum import ParticleBlock, ProbeAttackSpec
from .transport import EveHook

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
    "permutation_attack",
    "pop_eve_information",
    "sample_matching",
    "stream_eve_information",
]

_POP_ENUMERATION_LIMIT = 64
_POP_TRACE_TOL = 1e-9
_POP_CACHE_SIZE = 1024  # exact values kept per process, one per (theta, N)


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
    num_fiducials: int, num_outcomes: int, rounds: int, attack_fraction: float
) -> float:
    """Escape probability over ``rounds`` checked rounds, each attacked
    independently with probability attack_fraction = a:
    (1 - a * p)^rounds, with p = (J-1)/J * (K-1)/K the chance that one
    attacked, checked round is caught.

    This is the escape-tally reference, whose checked rounds are fixed and
    whose gbits are attacked independently. A run's own report instead
    knows its attacked count; see escape_probability_sampled.
    """
    _validate_fraction(attack_fraction)
    if num_fiducials < 1 or num_outcomes < 2 or rounds < 0:
        raise AdversaryError("need J >= 1, K >= 2, n >= 0")
    j, k = num_fiducials, num_outcomes
    per_round = 1.0 - attack_fraction * ((j - 1) / j) * ((k - 1) / k)
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
        self.rng = rng
        self.attack_fraction = _validate_fraction(attack_fraction)
        self.observations: list[tuple[np.ndarray, np.ndarray]] = []
        self.rounds_attacked = 0

    def intercept(self, carrier):
        if not isinstance(carrier, GbitBlock):
            raise AdversaryError("fiducial intercept-resend needs a gbit block")
        attacked = None  # every gbit: measured in place, no copies
        if self.attack_fraction < 1.0:
            attacked = np.flatnonzero(self.rng.random(len(carrier)) < self.attack_fraction)
        target = carrier if attacked is None else carrier.take(attacked)
        fiducials = self.rng.integers(0, carrier.spec.num_fiducials, size=len(target))
        outcomes, post = measure_fiducial(target, fiducials, self.rng)
        self.observations.append((fiducials, outcomes))
        self.rounds_attacked += len(target)
        return post if attacked is None else carrier.put(attacked, post)


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
        if basis not in ("Z", "X", "random"):
            raise AdversaryError(f"basis must be Z, X, or random, got {basis!r}")
        self.basis = basis
        self.rng = rng
        self.attack_fraction = _validate_fraction(attack_fraction)
        self.observations: list[tuple[np.ndarray, np.ndarray]] = []
        self.rounds_attacked = 0

    def intercept(self, carrier):
        if not isinstance(carrier, ParticleBlock):
            raise AdversaryError("projective intercept-resend needs a particle block")
        block = carrier
        if self.attack_fraction < 1.0:
            block = block.take(self.rng.random(len(block)) < self.attack_fraction)
        if self.basis == "random":
            bases = np.array(["Z", "X"])[self.rng.integers(0, 2, size=len(block))]
        else:
            bases = np.full(len(block), self.basis)
        outcomes = block.registry.measure(block, bases, self.rng)
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
        self.spec = spec
        self.rng = rng
        self.rounds_attacked = 0

    def intercept(self, carrier):
        if not isinstance(carrier, ParticleBlock):
            raise AdversaryError("probe attack needs a particle block")
        carrier.registry.attach_probe(carrier, self.spec, self.rng)
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
#
# Eve's probe for a half in Z state 0 ends in f0 = |0>, for 1 in
# f1 = cos(theta)|0> + sin(theta)|1>.  The singlet's two Z branches stay
# orthogonal on the halves, so a dense-coded pair leaves its two probes in
# one of two mixtures, set by the code's X bit alone:
#   sigma0 = (f0 f1 + f1 f0) / 2 (anticorrelated halves),
#   sigma1 = (f0 f0 + f1 f1) / 2 (correlated halves),
# where f_a f_b is the product state.  Both are swap-symmetric.


def _check_theta(theta: float) -> float:
    if not 0.0 <= theta <= math.pi / 2 + 1e-12:
        raise AdversaryError(f"probe theta must lie in [0, pi/2], got {theta}")
    return theta


def stream_eve_information(theta: float) -> float:
    """Exact per-pair Holevo information of a streaming probe attacker.

    With the pairing public, the four codes leave sigma0 or sigma1 with
    probability 1/2 each.  Their average is tau (x) tau, tau = (f0 f0 +
    f1 f1) / 2 with spectrum (1 +- c)/2, and each is an equal mixture of two
    pure products with overlap c^2, so the information is
    2 h((1 + c)/2) - h((1 + c^2)/2) with c = cos theta.
    """
    c = math.cos(_check_theta(theta))
    return 2.0 * binary_entropy((1.0 + c) / 2.0) - binary_entropy((1.0 + c * c) / 2.0)


@functools.lru_cache(maxsize=_POP_ENUMERATION_LIMIT + 1)
def _jx_eigenvectors(spin: int) -> np.ndarray:
    """Eigenvectors of J_x for spin ``spin`` in the J_z basis (rows by
    ascending m), one column per J_x eigenvalue -spin..spin in order."""
    m = np.arange(-spin, spin)
    step = 0.5 * np.sqrt(spin * (spin + 1) - m * (m + 1.0))
    vectors = np.linalg.eigh(np.diag(step, 1) + np.diag(step, -1))[1]
    vectors.flags.writeable = False
    return vectors


def _pop_log_weights(num_pairs: int) -> np.ndarray:
    """log p_k(m), shape (N + 1, 2N + 1): the weight that rho_k, the
    placement-averaged state of k sigma1 pairs and N - k sigma0 pairs,
    gives each product of probe states f_x whose J_z = N - |x| is m
    (column m + N); -inf where it gives none.

    Of the k sigma1 pairs, ``ones`` ~ Binomial(k, 1/2) put f1 on both
    probes, so |x| = N - k + 2 ones, and the placement average spreads that
    weight evenly over the C(2N, |x|) strings of that weight.
    """
    n = num_pairs
    table = np.full((n + 1, 2 * n + 1), -np.inf)
    for k in range(n + 1):
        for ones in range(k + 1):
            m = k - 2 * ones
            table[k, m + n] = (
                math.log(math.comb(k, ones)) - k * math.log(2.0)
                - math.log(math.comb(2 * n, n - m))
            )
    return table


def _pop_state_entropies(theta: float, num_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """S(rho_k) in bits and the trace of its kept spectrum, for k = 0..N,
    from one small eigensolve per spin sector and parity class.

    rho_k = sum_x p_x f_x f_x^T has the nonzero spectrum of the Gram matrix
    D^1/2 M^(x)2N D^1/2, with D = diag(p_x) and M = [[1, c], [c, 1]].  Both
    factors commute with qubit permutations, so by Schur-Weyl duality they
    act on the spin-J sector (J = 0..N) as (2J+1)-square matrices, repeated
    C(2N, N-J) - C(2N, N-J-1) times: D as p_k(m) on J_z = m, and M^(x)2N
    as det(M)^(N-J) Sym^2J(M), diagonal in the J_x basis with entries
    4^N cos^2(theta/2)^(N+m_x) sin^2(theta/2)^(N-m_x).  p_k(m) is zero
    unless m = k mod 2, so each sector splits into two parity classes,
    solved for every k of that parity in one batched call.  Eigenvalues
    within rounding of zero relative to their block's largest are
    dropped.
    """
    n = num_pairs
    cos2, sin2 = math.cos(theta / 2.0) ** 2, math.sin(theta / 2.0) ** 2
    log_weights = _pop_log_weights(n)
    entropy, trace = np.zeros(n + 1), np.zeros(n + 1)
    for spin in range(n + 1):
        multiplicity = math.comb(2 * n, n - spin)
        if spin < n:
            multiplicity -= math.comb(2 * n, n - spin - 1)
        m = np.arange(-spin, spin + 1)  # the J_z and the J_x eigenvalues alike
        vectors = _jx_eigenvectors(spin)
        gram = (vectors * (4.0**n * cos2 ** (n + m) * sin2 ** (n - m))) @ vectors.T
        for parity in (0, 1):
            rows = m[(m - parity) % 2 == 0]
            if not rows.size:
                continue
            ks = np.arange(parity, n + 1, 2)
            root = np.exp(0.5 * log_weights[np.ix_(ks, rows + n)])
            block = root[:, :, None] * gram[np.ix_(rows + spin, rows + spin)] * root[:, None, :]
            eigs = np.linalg.eigvalsh(block)
            eigs[eigs <= eigs[:, -1:] * rows.size * np.finfo(float).eps] = 0.0
            trace[ks] += multiplicity * eigs.sum(axis=1)
            logs = np.log2(eigs, out=np.zeros_like(eigs), where=eigs > 0.0)
            entropy[ks] -= multiplicity * (eigs * logs).sum(axis=1)
    return entropy, trace


def pop_eve_information(theta: float, num_pairs: int) -> float:
    """Exact per-pair Holevo information under permutation ignorance.

    With uniform permutation scrambling the attacker holds 2N probes but
    does not know which positions pair up nor which pair carries which
    message slot, so the probe state per message is the average over every
    placement: matchings times assignments times orientations, which is
    the full average over the (2N)! permutations of the probes.  A
    message's state then depends only on k, its number of sigma1 pairs,
    which is Binomial(N, 1/2) over uniform messages; the average over
    messages is tau^(x)2N, of entropy 2N h((1 + cos theta)/2).  The
    entropies of the N + 1 states rho_k come from their spin-sector
    spectra (see _pop_state_entropies), so the cost grows like N^5 with
    no 4^N matrix; N up to 64 pairs takes well under a second.  Each
    value is computed once per (theta, N) per process and then reused;
    the arguments are checked on every call.
    """
    _check_theta(theta)
    if num_pairs < 1:
        raise AdversaryError("num_pairs must be positive")
    if num_pairs > _POP_ENUMERATION_LIMIT:
        raise AdversaryError(
            f"exact PoP information supports num_pairs <= {_POP_ENUMERATION_LIMIT}, "
            f"got {num_pairs}"
        )
    return _pop_information(float(theta), operator.index(num_pairs))


@functools.lru_cache(maxsize=_POP_CACHE_SIZE)
def _pop_information(theta: float, n: int) -> float:
    entropy, trace = _pop_state_entropies(theta, n)
    if np.abs(trace - 1.0).max() > _POP_TRACE_TOL:  # every rho_k has unit trace
        raise FloatingPointError(
            f"spin-sector spectra lost trace: max |trace - 1| = {np.abs(trace - 1.0).max():.3g}"
        )
    mean_entropy = math.fsum(math.comb(n, k) / 2**n * entropy[k] for k in range(n + 1))
    return (2 * n * binary_entropy(math.cos(theta / 2.0) ** 2) - mean_entropy) / n
