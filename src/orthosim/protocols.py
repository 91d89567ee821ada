"""Executable protocol state machines and class reductions.

Three runnable protocols: GLT-2S key distribution over gbits, streaming
deterministic Bell-pair QKD, and permutation-of-particles direct
communication (PoP QSDC). Plus the transformers that move configs
between security classes: block reduction (streaming key protocol to
permuted-block message protocol), key reduction (message protocol doing
key distribution), and the key-agreement derivation.

Every run is a sequential state machine driven by three independent
seeded streams (protocol randomness, adversary randomness, channel
noise), so a (config, seed) pair fixes the result bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

import numpy as np

from .adversary import (
    AttackReport,
    GltInterceptResend,
    ProbeAttack,
    QuantumInterceptResend,
    escape_probability,
    escape_probability_sampled,
    permutation_attack,
    pop_eve_information,
    stream_eve_information,
    _POP_ENUMERATION_LIMIT,
)
from .config import (
    ConfigValidationError,
    ProtocolConfig,
    config_digest,
    derive_seed,
    max_message_length,
    protocol_class,
    repetition_length,
)
from .gpt import GbitBlock, sample_outcome
from .metrics import (
    SecurityVerdict,
    binary_entropy,
    check_qkd_condition,
    check_qsdc_condition,
)
from .quantum import BellOutcome, ParticleBlock, ProbeAttackSpec, QuantumRegistry
from .transport import Channel, EveHook, Transcript, _indented_json

__all__ = [
    "EscapeEstimate",
    "ProtocolError",
    "RESULT_SCHEMA",
    "RunResult",
    "block_reduce",
    "decode_bell_bits",
    "derive_qka",
    "glt_escape_trials",
    "key_reduce",
    "run",
    "run_glt2s",
    "run_pop_qsdc",
    "run_stream_qkd",
]

RESULT_SCHEMA = "orthosim.run-result/v1"

# Bell outcome back to the message bits that produce it from a singlet
_BELL_DECODE = {
    BellOutcome.PSI_MINUS: (0, 0),
    BellOutcome.PHI_MINUS: (0, 1),
    BellOutcome.PSI_PLUS: (1, 0),
    BellOutcome.PHI_PLUS: (1, 1),
}
_BELL_BITS = np.array([_BELL_DECODE[BellOutcome(k)] for k in range(4)], dtype=np.int8)
# a singlet measures PSI_MINUS, the one outcome that decodes to (0, 0); a
# plain int, which arrays compare against several times faster than an enum
_SINGLET = int(BellOutcome.PSI_MINUS)


class ProtocolError(ValueError):
    """Raised for protocol-level misuse outside config validation."""


def decode_bell_bits(outcome: BellOutcome) -> tuple[int, int]:
    """Message bits whose dense encoding of a singlet yields outcome."""
    return _BELL_DECODE[outcome]


@dataclass(frozen=True)
class RunResult:
    """Everything one protocol run produced.

    Payloads are empty on abort. The verdict is present whenever both
    information quantities are computable (adversary-free runs score the
    eavesdropper at zero; probe adversaries get exact Holevo values);
    intercept-resend adversaries surface through attack_report only.
    Information rates are per payload bit throughout.
    """

    kind: str
    outcome: str
    error_rate: float
    threshold: float
    alice_payload: tuple[int, ...]
    bob_payload: tuple[int, ...]
    detection_events: tuple[bool, ...]
    transcript: Transcript
    verdict: Optional[SecurityVerdict] = None
    attack_report: Optional[AttackReport] = None
    error_rate_second: Optional[float] = None
    security_class: str = "QKD"

    def __post_init__(self) -> None:
        if self.outcome not in ("completed", "aborted"):
            raise ProtocolError(f"unknown outcome {self.outcome!r}")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ProtocolError(f"error rate out of range: {self.error_rate}")
        first_bad = self.error_rate > self.threshold
        second_bad = self.error_rate_second is not None and self.error_rate_second > max(
            self.error_rate, self.threshold
        )
        if self.outcome == "aborted" and not (first_bad or second_bad):
            raise ProtocolError("aborted without an exceeded threshold")
        if self.outcome == "completed" and (first_bad or second_bad):
            raise ProtocolError("completed despite an exceeded threshold")

    def _json_fields(self) -> dict:
        """Every document field but the transcript: scalars, flat lists
        and dicts of those."""
        # both records have flat fields, which asdict would run through deepcopy
        report = None
        if self.attack_report is not None:
            report = dict(vars(self.attack_report))
            report["detection_events"] = list(map(bool, report["detection_events"]))
        return {
            "schema": RESULT_SCHEMA,
            "kind": self.kind,
            "security_class": self.security_class,
            "outcome": self.outcome,
            "error_rate": self.error_rate,
            "error_rate_second": self.error_rate_second,
            "threshold": self.threshold,
            "alice_payload": list(self.alice_payload),
            "bob_payload": list(self.bob_payload),
            "detection_events": list(map(bool, self.detection_events)),
            "verdict": dict(vars(self.verdict)) if self.verdict else None,
            "attack_report": report,
        }

    def to_json_dict(self) -> dict:
        return {**self._json_fields(), "transcript": self.transcript.to_dicts()}

    def write_json(self, handle: TextIO) -> None:
        """Write ``json.dumps(self.to_json_dict(), indent=2, sort_keys=True)``
        and a newline, streaming the transcript from its runs."""
        fields = self._json_fields()
        separator = "{"
        for key in sorted([*fields, "transcript"]):
            handle.write(f"{separator}\n  {json.dumps(key)}: ")
            if key == "transcript":
                self.transcript.write_json(handle, level=1)
            else:
                handle.write(_indented_json(fields[key], level=1))
            separator = ","
        handle.write("\n}\n")


# ---------------------------------------------------------------- shared plumbing


def _rng_streams(config: ProtocolConfig, seed: int):
    # independent streams so attaching an adversary or a noise model
    # never perturbs the legitimate parties' randomness; one digest
    # feeds all three because generator seeding dominates short runs
    digest = hashlib.sha256(f"{seed}:streams".encode()).digest()

    def generator(k: int) -> np.random.Generator:  # default_rng(s), without its dispatch
        return np.random.Generator(np.random.PCG64(int.from_bytes(digest[8 * k : 8 * k + 8], "big")))

    eve = generator(1) if config.adversary is not None else None
    return generator(0), eve, generator(2) if config.noise is not None else None


def _build_hook(config: ProtocolConfig, rng_eve: np.random.Generator) -> Optional[EveHook]:
    spec = config.adversary
    if spec is None:
        return None
    if spec.kind == "glt-intercept-resend":
        return GltInterceptResend(rng_eve, spec.attack_fraction)
    if spec.kind == "quantum-intercept-resend":
        return QuantumInterceptResend(spec.basis, rng_eve, spec.attack_fraction)
    return ProbeAttack(ProbeAttackSpec(spec.theta), rng_eve)


def _build_channel(config: ProtocolConfig, hook, rng_noise) -> Channel:
    noise = config.noise.to_channel() if config.noise is not None else None
    return Channel(eve_hook=hook, noise=noise, noise_rng=rng_noise if noise else None)


def _mean(events: Sequence[bool]) -> float:
    return sum(events) / len(events) if events else 0.0


def _package(
    config: ProtocolConfig,
    channel: Channel,
    hook: Optional[EveHook],
    aborted: bool,
    error_rate: float,
    alice_payload: tuple[int, ...],
    bob_payload: tuple[int, ...],
    events: tuple[bool, ...],
    eve_info: Optional[float],
    error_rate_second: Optional[float] = None,
    **report_fields,
) -> RunResult:
    """One run's RunResult, with an AttackReport when an adversary was
    attached and a verdict whenever the eavesdropper's information per
    payload bit (eve_info) is known."""
    report = None
    if hook is not None:
        report = AttackReport(
            strategy=hook.strategy,
            rounds_attacked=hook.rounds_attacked,
            detection_events=events,
            empirical_detection=_mean(events),
            eve_information=eve_info,
            **report_fields,
        )
    verdict = None
    if eve_info is not None:
        legitimate = 1.0 - binary_entropy(error_rate)
        if config.kind == "pop-qsdc":
            verdict = check_qsdc_condition(
                error_rate, config.threshold, legitimate, eve_info, config.block_size
            )
        else:
            verdict = check_qkd_condition(error_rate, config.threshold, legitimate, eve_info)
    return RunResult(
        kind=config.kind,
        outcome="aborted" if aborted else "completed",
        error_rate=error_rate,
        threshold=config.threshold,
        alice_payload=alice_payload,
        bob_payload=bob_payload,
        detection_events=events,
        transcript=channel.transcript,
        verdict=verdict,
        attack_report=report,
        error_rate_second=error_rate_second,
        security_class=protocol_class(config),
    )


# ---------------------------------------------------------------- GLT-2S


def _glt_exchange(config: ProtocolConfig, rng, rng_eve, trials: int):
    """``trials`` independent gbit exchanges with their public checks, run
    over one channel as one block.

    Returns (channel, hook, bits, outcomes, check_coords, events); every
    array has one row per trial: codeword bits and Bob's outcomes are
    (trials, n), the sorted check coordinates and their detection events
    (trials, round(f * n)).
    """
    hook = _build_hook(config, rng_eve)
    channel = Channel(eve_hook=hook)
    theory = config.fiducial
    top = theory.num_outcomes - 1
    shape = (trials, config.num_gbits)

    bits = rng.integers(0, 2, size=shape)
    codewords = bits * top
    delivered = channel.send_block(GbitBlock(theory, codewords), None, sender="alice")
    fiducials = rng.integers(0, theory.num_fiducials, size=len(delivered))
    outcomes = sample_outcome(delivered, fiducials, rng).reshape(shape)

    num_checks = round(config.check_fraction * config.num_gbits)
    if num_checks == config.num_gbits:  # any order selects them all, so none is drawn
        check_coords = np.broadcast_to(np.arange(num_checks), shape)
        checked, expected = outcomes, codewords
    else:
        check_coords = np.sort(np.argsort(rng.random(shape), axis=1)[:, :num_checks], axis=1)
        checked = np.take_along_axis(outcomes, check_coords, axis=1)
        expected = np.take_along_axis(codewords, check_coords, axis=1)
    channel.broadcast(check_coords, "alice", f"check coords n={num_checks}")
    channel.broadcast(checked, "bob", f"check outcomes n={num_checks}")
    # codewords are deterministic in every fiducial, so expectation is exact
    events = checked != expected
    return channel, hook, bits, outcomes, check_coords, events


def run_glt2s(config: ProtocolConfig, seed: Optional[int] = None) -> RunResult:
    """Key distribution over gbits, secured by measurement disturbance.

    Alice encodes each key bit in a codeword gbit assigning that bit's
    outcome in every fiducial (all-zeros vs all-top); Bob measures one
    uniformly random fiducial per gbit, which reads the bit directly, so
    every raw bit is a sifted bit. A public check on a fraction of
    coordinates estimates the mismatch rate against the deterministic
    expectation and aborts above threshold. seed overrides config.seed
    for this run, letting trial loops share one validated config.
    """
    config.ensure_valid()
    if config.kind != "glt2s":
        raise ConfigValidationError([f"run_glt2s got kind {config.kind!r}"])
    rng, rng_eve, _ = _rng_streams(config, config.seed if seed is None else seed)
    channel, hook, bits, outcomes, check_coords, events = _glt_exchange(
        config, rng, rng_eve, trials=1
    )
    theory = config.fiducial
    n = config.num_gbits
    num_checks = check_coords.shape[1]
    error_rate = int(events.sum()) / num_checks
    aborted = error_rate > config.threshold

    if aborted:
        alice_key = bob_key = ()
    else:
        kept = np.ones(n, dtype=bool)
        kept[check_coords[0]] = False
        alice_key = tuple(bits[0, kept].tolist())
        bob_key = tuple((outcomes[0, kept] == theory.num_outcomes - 1).astype(int).tolist())

    eve_info, escape = 0.0, None
    if hook is not None:
        # each attacked codeword is read exactly (separable in any fiducial)
        eve_info = hook.rounds_attacked / n
        escape = escape_probability_sampled(
            theory.num_fiducials, theory.num_outcomes, n, hook.rounds_attacked, num_checks
        )
    return _package(
        config, channel, hook, aborted, error_rate, alice_key, bob_key,
        tuple(events[0].tolist()), eve_info, analytic_escape=escape,
    )


@dataclass(frozen=True)
class EscapeEstimate:
    """Monte Carlo tally of how often an attack passes every public check."""

    trials: int
    escapes: int
    analytic: float

    @property
    def escape_rate(self) -> float:
        return self.escapes / self.trials

    @property
    def std_error(self) -> float:
        return math.sqrt(self.analytic * (1.0 - self.analytic) / self.trials)


def glt_escape_trials(
    config: ProtocolConfig, trials: int, seed: Optional[int] = None
) -> EscapeEstimate:
    """Escape-frequency estimate over repeated full gbit exchanges.

    Each trial is a complete exchange (encoding, channel with any
    attached adversary, measurement, public check); escape means no
    checked coordinate disagreed, independent of the abort threshold.
    All trials run as one block on one stream pair, so the tally is
    reproducible from (config, seed) and large counts stay cheap. The
    analytic reference is exact: each of the round(f * n) checked gbits
    is attacked independently with the attack fraction a (0 without an
    adversary) and then caught with probability (J-1)/J * (K-1)/K.
    """
    config.ensure_valid()
    if config.kind != "glt2s":
        raise ConfigValidationError([f"glt_escape_trials got kind {config.kind!r}"])
    if trials < 1:
        raise ProtocolError(f"trials must be positive, got {trials}")
    rng, rng_eve, _ = _rng_streams(config, config.seed if seed is None else seed)
    events = _glt_exchange(config, rng, rng_eve, trials)[5]
    escapes = trials - int(events.any(axis=1).sum())
    theory = config.fiducial
    attack = 0.0 if config.adversary is None else config.adversary.attack_fraction
    analytic = escape_probability(
        theory.num_fiducials,
        theory.num_outcomes,
        round(config.check_fraction * config.num_gbits),
        attack,
    )
    return EscapeEstimate(trials=trials, escapes=escapes, analytic=analytic)


# ---------------------------------------------------------------- streaming QKD


def _dense_encode(halves: ParticleBlock, bits: np.ndarray) -> None:
    # bits (b0, b1) per pair select I/X/Z/XZ = X^b1 Z^b0 on half 0
    halves.registry.apply_pauli(halves, x=bits[:, 1], z=bits[:, 0])


def run_stream_qkd(config: ProtocolConfig, seed: Optional[int] = None) -> RunResult:
    """Deterministic Bell-pair QKD with sequential particle streaming.

    Per round Alice dense-encodes two fresh key bits on one half of a
    singlet and streams both halves one particle at a time with the
    pairing public; Bob Bell-measures and decodes. A public comparison
    on a fraction of rounds estimates the per-bit error rate. The rounds
    run as one block: pairs are independent, so the stream (half 0 then
    half 1 of each pair, in round order) goes through the channel in a
    single send, logged as one transcript run of per-particle records.
    """
    config.ensure_valid()
    if config.kind != "stream-qkd":
        raise ConfigValidationError([f"run_stream_qkd got kind {config.kind!r}"])
    rng, rng_eve, rng_noise = _rng_streams(config, config.seed if seed is None else seed)
    hook = _build_hook(config, rng_eve)
    channel = _build_channel(config, hook, rng_noise)
    registry = QuantumRegistry()
    rounds = config.block_size

    stream = registry.allocate(rounds)  # half 0, then half 1 of each pair
    alice_bits = rng.integers(0, 2, size=(rounds, 2))
    encoded = stream.take(slice(0, None, 2))  # half 0 of each pair
    _dense_encode(encoded, alice_bits)
    channel.send_block(stream, None, stream=True)
    bob_bits = _BELL_BITS.take(registry.bell_measure(encoded, rng), axis=0)

    num_checks = round(config.check_fraction * rounds)
    check_rounds = np.sort(rng.choice(rounds, size=num_checks, replace=False))
    # row gathers by take: fancy-indexing rows of a 2-column array is several times slower
    bob_checked = bob_bits.take(check_rounds, axis=0)
    channel.broadcast(check_rounds, "alice", f"check rounds n={num_checks}")
    channel.broadcast(bob_checked, "bob", f"check bits n={num_checks}")
    wrong = alice_bits.take(check_rounds, axis=0) != bob_checked
    events = tuple((wrong[:, 0] | wrong[:, 1]).tolist())
    error_rate = int(np.count_nonzero(wrong)) / (2 * num_checks)
    aborted = error_rate > config.threshold

    if aborted:
        alice_key = bob_key = ()
    else:
        kept = np.ones(rounds, dtype=bool)
        kept[check_rounds] = False
        alice_key = tuple(alice_bits.compress(kept, axis=0).ravel().tolist())
        bob_key = tuple(bob_bits.compress(kept, axis=0).ravel().tolist())

    eve_info: Optional[float] = 0.0
    if isinstance(hook, ProbeAttack):
        eve_info = stream_eve_information(hook.spec.theta) / 2.0
    elif hook is not None:
        eve_info = None  # no closed form tracked for intercept-resend
    return _package(
        config, channel, hook, aborted, error_rate, alice_key, bob_key, events, eve_info
    )


# ---------------------------------------------------------------- PoP QSDC


def _bell_check(halves: ParticleBlock, compared: np.ndarray, rng) -> tuple[np.ndarray, int]:
    """Bell-measure the pairs of these halves, which should still be
    singlets; returns the detection event of each compared pair
    (positions into halves), in block order, and their count of wrong bits."""
    outcomes = halves.registry.bell_measure(halves, rng).take(np.sort(compared))
    return outcomes != _SINGLET, int(np.count_nonzero(_BELL_BITS.take(outcomes, axis=0)))


def _send_block1(channel: Channel, registry: QuantumRegistry, check_pairs: np.ndarray, rng):
    """Steps (a) and (b) of a PoP run: the 3N singlets, and block 1 (both
    halves of each check pair, half 1 of the rest, in slot order) sent
    under a fresh uniform permutation.  Returns half 0 of each check pair
    and block 2 (half 0 of the rest), in pair order, and the only parts
    of block 1 read later: the delivery positions of both halves of each
    check pair, and of half 1 of each retained pair in block-2 order."""
    n_pairs = check_pairs.size
    near = 2 * check_pairs  # the slot (2 pair + half) of half 0 of each check pair
    sent = np.zeros(6 * n_pairs, dtype=bool)
    sent[1::2] = True
    sent[near] = True
    particles = registry.allocate(3 * n_pairs)  # every slot, in slot order
    check_halves, block1, block2 = particles.take(near), particles.take(sent), particles.take(~sent)
    del particles  # only its parts are read from here on
    delivered = channel.send_block(block1, rng.permutation(4 * n_pairs), sender="alice")
    del block1  # delivered holds its particles, in delivery order
    position = np.full(sent.size, -1, dtype=np.intp)  # -1 at slots not delivered in block 1
    position[delivered.slots] = np.arange(len(delivered))
    check_position = position.reshape(-1, 2).take(check_pairs, axis=0)
    return check_halves, block2, check_position, position.take(block2.slots + 1)


def run_pop_qsdc(config: ProtocolConfig, seed: Optional[int] = None) -> RunResult:
    """Permutation-of-particles direct communication over singlets.

    (a) Alice prepares 3N singlets, picks N check pairs uniformly, and
    scrambles the 4N-particle block (both halves of every check pair,
    one half of everything else) with a fresh uniform permutation.
    (b) She transmits the block. (c) She reveals where the check pairs
    landed; Bob Bell-measures them and a public comparison on a fraction
    of them estimates the error rate, aborting above threshold.
    (d) Alice repetition-codes the message, dense-encodes the coded bits
    on N of her 2N retained halves, and transmits all retained halves.
    (e) The untouched half of them forms a second check, which must not
    exceed the first estimate (or threshold); then Alice reveals the
    message pairing and code parameters, and Bob decodes.
    """
    config.ensure_valid()
    if config.kind != "pop-qsdc":
        raise ConfigValidationError([f"run_pop_qsdc got kind {config.kind!r}"])
    rng, rng_eve, rng_noise = _rng_streams(config, config.seed if seed is None else seed)
    hook = _build_hook(config, rng_eve)
    channel = _build_channel(config, hook, rng_noise)
    registry = QuantumRegistry()

    n_pairs = config.block_size
    message = config.message_bits
    code_len = repetition_length(config.threshold)

    check_pairs = np.sort(rng.choice(3 * n_pairs, size=n_pairs, replace=False))
    check_halves, block2, check_position, far_position = _send_block1(
        channel, registry, check_pairs, rng
    )

    # (c) first check: reveal check-pair positions, Bell-check a fraction
    num_compared = round(config.check_fraction * n_pairs)
    compared = rng.choice(n_pairs, size=num_compared, replace=False)
    # each reveal travels as the index arrays it is read from: pair, then positions
    channel.broadcast((check_pairs, check_position), "alice", f"check-pair reveal n={n_pairs}")
    events_first, wrong_first = _bell_check(check_halves, compared, rng)
    channel.broadcast(check_pairs[compared], "bob", f"compared checks n={num_compared}")
    error_first = wrong_first / (2 * num_compared)

    eve_info: Optional[float] = 0.0
    if isinstance(hook, ProbeAttack) and n_pairs <= _POP_ENUMERATION_LIMIT:
        eve_info = pop_eve_information(hook.spec.theta, n_pairs) / 2.0
    elif hook is not None:
        eve_info = None
    if error_first > config.threshold:
        return _package(
            config, channel, hook, True, error_first, (), (),
            tuple(events_first.tolist()), eve_info,
        )

    # (d) repetition-code the message and dense-encode on N retained halves
    coded = np.zeros(2 * n_pairs, dtype=np.int8)
    coded[: code_len * len(message)] = np.array(message, dtype=np.int8).repeat(code_len)
    # sorted positions in block 2, which is in pair order, give sorted pairs
    message_index = np.sort(rng.choice(len(block2), size=n_pairs, replace=False))
    is_second = np.ones(len(block2), dtype=bool)
    is_second[message_index] = False
    second_index = is_second.nonzero()[0]
    message_halves, second_halves = block2.take(message_index), block2.take(second_index)
    _dense_encode(message_halves, coded.reshape(n_pairs, 2))
    channel.send_block(block2, None, sender="alice")

    # (e) second check on the untouched pairs, then message reveal
    compared2 = rng.choice(len(second_halves), size=num_compared, replace=False)
    channel.broadcast(
        (second_halves.pairs, far_position.take(second_index), second_index), "alice",
        f"second-check reveal n={len(second_halves)}",
    )
    events_second, wrong_second = _bell_check(second_halves, compared2, rng)
    error_second = wrong_second / (2 * num_compared)
    events = tuple(events_first.tolist() + events_second.tolist())
    if error_second > max(error_first, config.threshold):
        return _package(
            config, channel, hook, True, error_first, (), (), events, eve_info, error_second
        )

    message_position = far_position.take(message_index)
    reveal3 = (message_halves.pairs, message_position, message_index, np.arange(n_pairs))
    channel.broadcast(
        {"pairs": reveal3, "repetition": code_len, "length": len(message)},
        "alice",
        f"message reveal n={n_pairs} r={code_len}",
    )
    decoded = _BELL_BITS.take(registry.bell_measure(message_halves, rng), axis=0).ravel()
    votes = decoded[: code_len * len(message)].reshape(-1, code_len).sum(1)
    bob_message = tuple((votes * 2 > code_len).astype(int).tolist())
    guess_fields = {}
    if hook is not None and config.adversary.guess_pairing:
        # message pair p: half 1 at its block-1 position, half 0 at 4N + its block-2 index
        truth = zip(message_position.tolist(), (4 * n_pairs + message_index).tolist())
        guess = permutation_attack(
            list(truth),
            rng_eve,
            trials=1,
            theta=hook.spec.theta if isinstance(hook, ProbeAttack) else None,
        )
        guess_fields = dict(
            guess_success_analytic=guess.guess_success_analytic,
            guess_success_empirical=guess.guess_success_empirical,
        )
    return _package(
        config, channel, hook, False, error_first, tuple(message), bob_message, events,
        eve_info, error_second, **guess_fields,
    )


# ---------------------------------------------------------------- dispatch


_RUNNERS = {"glt2s": run_glt2s, "stream-qkd": run_stream_qkd, "pop-qsdc": run_pop_qsdc}


def run(config: ProtocolConfig, seed: Optional[int] = None) -> RunResult:
    """Validate and execute a config with its kind's state machine.

    seed, when given, overrides config.seed for this run only: trial
    loops can reuse one validated config across many seeds.
    """
    runner = _RUNNERS.get(config.kind)
    if runner is None:
        raise ConfigValidationError([f"unknown protocol kind {config.kind!r}"])
    return runner(config, seed)  # each runner validates the config once


# ---------------------------------------------------------------- reductions


def block_reduce(config: ProtocolConfig) -> ProtocolConfig:
    """Turn a streaming key protocol into a permuted-block message one.

    Physical parameters (block size, threshold, check fraction, noise,
    adversary) transport unchanged; the key payload becomes a message
    slot sized to what the repetition code can carry, filled with a
    placeholder all-zeros message; derived_from records the source digest.
    A block whose repetition code fits no message bit is refused here, as
    key_reduce refuses a key it cannot carry.
    """
    if config.kind != "stream-qkd":
        raise ConfigValidationError(
            [f"block reduction expects a stream-qkd config, got {config.kind!r}"]
        )
    length = max_message_length(config.block_size, config.threshold)
    if length < 1:
        raise ConfigValidationError([
            f"block reduction at N={config.block_size}, e0={config.threshold} carries no"
            f" message bit: the runnable message length is at most {length}"
        ])
    return ProtocolConfig(
        kind="pop-qsdc",
        seed=config.seed,
        check_fraction=config.check_fraction,
        threshold=config.threshold,
        block_size=config.block_size,
        message_bits=(0,) * length,
        payload_role="message",
        adversary=config.adversary,
        noise=config.noise,
        derived_from=f"block-reduction:{config_digest(config)}",
    )


def key_reduce(config: ProtocolConfig, key_length: int) -> ProtocolConfig:
    """Turn a message protocol into key distribution.

    The message slot is filled with fresh uniform bits from a dedicated
    seeded stream and relabeled as a key, so the run's delivered payload
    is a shared secret rather than chosen content.
    """
    if config.kind != "pop-qsdc":
        raise ConfigValidationError(
            [f"key reduction expects a pop-qsdc config, got {config.kind!r}"]
        )
    limit = max_message_length(config.block_size, config.threshold)
    if not 1 <= key_length <= limit:
        raise ConfigValidationError(
            [f"key_length {key_length} outside the runnable range [1, {limit}]"]
        )
    key_rng = np.random.default_rng(derive_seed(config.seed, "key-reduce"))
    bits = tuple(int(b) for b in key_rng.integers(0, 2, size=key_length))
    return ProtocolConfig(
        kind="pop-qsdc",
        seed=config.seed,
        check_fraction=config.check_fraction,
        threshold=config.threshold,
        block_size=config.block_size,
        message_bits=bits,
        payload_role="key",
        adversary=config.adversary,
        noise=config.noise,
        derived_from=f"key-reduction:{config_digest(config)}",
    )


def derive_qka(key_bits: Sequence[int], rng: np.random.Generator) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Key agreement from an established key: keep a random half.

    The receiver announces a uniform subset of half the coordinates; the
    agreed key is the bits at those coordinates, so both parties shape
    the result equally.
    """
    m = len(key_bits)
    if m % 2:
        raise ProtocolError(f"key agreement needs an even key length, got {m}")
    coords = tuple(sorted(int(c) for c in rng.choice(m, size=m // 2, replace=False)))
    return coords, tuple(int(key_bits[c]) for c in coords)
