"""End-to-end protocol runs, attack signatures, and reductions."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from orthosim.adversary import escape_probability, pop_eve_information, stream_eve_information
from orthosim.config import (
    AdversarySpec,
    ConfigValidationError,
    NoiseSpec,
    ProtocolConfig,
    derive_seed,
)
from orthosim import gpt
from orthosim.gpt import FiducialSpec, GbitBlock
from orthosim.metrics import binary_entropy
from orthosim.protocols import (
    EscapeEstimate,
    ProtocolError,
    RESULT_SCHEMA,
    RunResult,
    _glt_exchange,
    _rng_streams,
    block_reduce,
    decode_bell_bits,
    derive_qka,
    glt_escape_trials,
    key_reduce,
    run,
    run_glt2s,
    run_pop_qsdc,
    run_stream_qkd,
)
from orthosim.quantum import BellOutcome, QuantumRegistry
from orthosim.transport import Transcript

from conftest import assert_frequency, binomial_margin
from oracle import reference_glt_exchange
from test_golden import CONFIGS as GOLDEN_CONFIGS


def glt(seed=0, n=100, f=0.5, **kw):
    return ProtocolConfig(
        kind="glt2s", seed=seed, fiducial=FiducialSpec(2, 2), num_gbits=n,
        check_fraction=f, **kw,
    )


def stream(seed=0, n=50, f=0.5, **kw):
    return ProtocolConfig(kind="stream-qkd", seed=seed, block_size=n, check_fraction=f, **kw)


def pop(seed=0, n=4, message=(1, 0, 1, 1, 0, 0, 1, 0), **kw):
    return ProtocolConfig(
        kind="pop-qsdc", seed=seed, block_size=n, message_bits=message,
        check_fraction=kw.pop("f", 0.5), **kw,
    )


# ---------------------------------------------------------------- completeness


@pytest.mark.parametrize("seed", range(5))
def test_glt2s_noiseless_completes_exactly(seed):
    res = run(glt(seed=seed))
    assert res.outcome == "completed"
    assert res.error_rate == 0.0
    assert res.alice_payload == res.bob_payload
    assert len(res.alice_payload) == 100 - 50  # every unchecked gbit is a key bit
    assert res.security_class == "QKD"
    assert res.verdict.condition_holds


@pytest.mark.parametrize("seed", range(5))
def test_stream_qkd_noiseless_completes_exactly(seed):
    res = run(stream(seed=seed))
    assert res.outcome == "completed"
    assert res.error_rate == 0.0
    assert res.alice_payload == res.bob_payload
    assert len(res.alice_payload) == 2 * (50 - 25)  # two bits per unchecked round
    assert res.verdict.info_ab == 1.0


@pytest.mark.parametrize("seed", range(5))
def test_pop_qsdc_noiseless_delivers_the_message(seed):
    res = run(pop(seed=seed))
    assert res.outcome == "completed"
    assert res.error_rate == 0.0
    assert res.error_rate_second == 0.0
    assert res.bob_payload == (1, 0, 1, 1, 0, 0, 1, 0)
    assert res.alice_payload == res.bob_payload
    assert res.security_class == "QSDC"


def test_runs_are_deterministic():
    for cfg in (glt(seed=9), stream(seed=9), pop(seed=9)):
        assert run(cfg).to_json_dict() == run(cfg).to_json_dict()


def test_runner_kind_mismatch_rejected():
    with pytest.raises(ConfigValidationError):
        run_glt2s(stream())
    with pytest.raises(ConfigValidationError):
        run_stream_qkd(pop())
    with pytest.raises(ConfigValidationError):
        run_pop_qsdc(glt())


def test_run_rejects_invalid_config():
    with pytest.raises(ConfigValidationError):
        run(ProtocolConfig(kind="stream-qkd", block_size=0))


# ---------------------------------------------------------------- attack signatures


def test_glt_intercept_forces_quarter_error():
    # random-fiducial intercept-resend on a two-fiducial two-outcome theory
    res = run(glt(seed=1, n=4000, threshold=1.0,
                  adversary=AdversarySpec("glt-intercept-resend")))
    assert abs(res.error_rate - 0.25) <= binomial_margin(0.25, 2000, nsigma=5)
    assert res.attack_report.rounds_attacked == 4000
    assert res.attack_report.eve_information == 1.0  # reads every codeword exactly


def test_stream_z_intercept_error_rate():
    res = run(stream(seed=3, n=2000, threshold=0.5,
                     adversary=AdversarySpec("quantum-intercept-resend", basis="Z")))
    assert abs(res.error_rate - 0.25) <= binomial_margin(0.25, 4000, nsigma=5)
    assert res.verdict is None  # no information value tracked for this strategy
    assert res.attack_report.eve_information is None
    assert res.attack_report.rounds_attacked == 4000  # both halves of every pair


def test_stream_random_intercept_error_rate():
    res = run(stream(seed=3, n=2000, threshold=0.5,
                     adversary=AdversarySpec("quantum-intercept-resend", basis="random")))
    assert abs(res.error_rate - 0.375) <= binomial_margin(0.375, 4000, nsigma=5)


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 3])
def test_stream_probe_error_and_information(theta):
    res = run(stream(seed=3, n=2000, threshold=0.5,
                     adversary=AdversarySpec("probe", theta=theta)))
    expected = math.sin(theta) ** 2 / 4.0
    assert abs(res.error_rate - expected) <= binomial_margin(expected, 4000, nsigma=5)
    per_bit = stream_eve_information(theta) / 2.0
    assert res.attack_report.eve_information == per_bit
    assert res.verdict.info_ae == per_bit
    assert res.verdict.info_ab == 1.0 - binary_entropy(res.error_rate)
    assert res.attack_report.rounds_attacked == 4000


def test_zero_intensity_probe_is_invisible():
    base = run(stream(seed=42))
    probed = run(stream(seed=42, adversary=AdversarySpec("probe", theta=0.0)))
    assert probed.alice_payload == base.alice_payload
    assert probed.bob_payload == base.bob_payload
    assert probed.error_rate == 0.0
    assert probed.attack_report.eve_information == 0.0


def test_attack_fraction_scales_glt_exposure():
    res = run(glt(seed=2, n=500, threshold=1.0,
                  adversary=AdversarySpec("glt-intercept-resend", attack_fraction=0.3)))
    attacked = res.attack_report.rounds_attacked
    assert_frequency(attacked, 500, 0.3, nsigma=5)
    assert res.attack_report.eve_information == attacked / 500


def test_attack_fraction_zero_touches_nothing():
    res = run(glt(seed=2, n=500,
                  adversary=AdversarySpec("glt-intercept-resend", attack_fraction=0.0)))
    assert res.attack_report.rounds_attacked == 0
    assert res.outcome == "completed"
    assert res.error_rate == 0.0


def test_glt_full_attack_abort_frequency_matches_escape_curve():
    # with every gbit checked, survival means no disturbance anywhere
    trials = 2000
    for n in (1, 2, 5):
        completed = sum(
            run(glt(seed=s, n=n, f=1.0,
                    adversary=AdversarySpec("glt-intercept-resend"))).outcome
            == "completed"
            for s in range(trials)
        )
        assert_frequency(completed, trials, 0.75**n, nsigma=5)


def test_glt_report_escape_counts_sampled_checks():
    # the check draws round(f * n) coordinates without replacement, so a
    # full attack at n = 20, f = 0.5 escapes with (3/4)^10 = 0.0563, not
    # with (1 - 0.5 / 4)^20 = 0.0692
    attack = AdversarySpec("glt-intercept-resend")
    res = run(glt(seed=1, n=20, f=0.5, threshold=1.0, adversary=attack))
    assert res.attack_report.analytic_escape == pytest.approx(0.0563, abs=5e-5)
    assert res.attack_report.analytic_escape == 0.75**10
    # with every coordinate checked the report is unchanged, bit for bit
    full = run(glt(seed=1, n=7, f=1.0, threshold=1.0, adversary=attack))
    assert full.attack_report.analytic_escape == escape_probability(2, 2, 7)


def test_escape_trials_agrees_with_per_run_tally():
    # the batch estimator samples the same process as repeated full runs
    cfg = glt(n=2, f=1.0, threshold=0.0,
              adversary=AdversarySpec("glt-intercept-resend"))
    trials = 2000
    est = glt_escape_trials(cfg, trials, seed=31)
    assert est.trials == trials
    assert est.analytic == pytest.approx(0.75**2)
    assert_frequency(est.escapes, trials, est.analytic, nsigma=5)
    tallied = sum(
        not any(run(cfg, seed=s).detection_events) for s in range(trials)
    )
    assert_frequency(tallied, trials, est.analytic, nsigma=5)


def test_escape_trials_is_deterministic():
    cfg = glt(n=5, f=1.0, adversary=AdversarySpec("glt-intercept-resend"))
    assert glt_escape_trials(cfg, 500, seed=1) == glt_escape_trials(cfg, 500, seed=1)


def test_escape_trials_ignores_abort_threshold():
    # escape counts channel disturbance, not the abort decision
    kw = dict(n=2, f=1.0, adversary=AdversarySpec("glt-intercept-resend"))
    a = glt_escape_trials(glt(threshold=0.0, **kw), 400, seed=9)
    b = glt_escape_trials(glt(threshold=1.0, **kw), 400, seed=9)
    assert a.escapes == b.escapes


def test_escape_estimate_rate_and_std_error():
    est = EscapeEstimate(trials=400, escapes=100, analytic=0.25)
    assert est.escape_rate == 0.25
    assert est.std_error == pytest.approx(math.sqrt(0.25 * 0.75 / 400))


def test_escape_trials_rejects_bad_requests():
    with pytest.raises(ConfigValidationError):
        glt_escape_trials(stream(), 10)
    with pytest.raises(ProtocolError):
        glt_escape_trials(
            glt(f=1.0, adversary=AdversarySpec("glt-intercept-resend")), 0
        )


@pytest.mark.parametrize("f, a", [(0.5, 1.0), (1.0, 0.5)])
def test_escape_trials_reference_counts_checked_and_attacked_rounds(f, a):
    # each of the round(f*n) checked gbits is attacked with probability a
    # and then caught with probability 1/4, independently
    cfg = glt(n=20, f=f, threshold=1.0,
              adversary=AdversarySpec("glt-intercept-resend", attack_fraction=a))
    trials = 20_000
    est = glt_escape_trials(cfg, trials, seed=3)
    assert est.analytic == (1.0 - a * 0.25) ** round(f * 20)
    assert_frequency(est.escapes, trials, est.analytic, nsigma=5)


def test_escape_trials_reference_is_bit_identical_at_full_check_and_attack():
    for j, k, n in ((2, 2, 7), (3, 2, 10), (4, 3, 5)):
        cfg = ProtocolConfig(
            kind="glt2s", fiducial=FiducialSpec(j, k), num_gbits=n, check_fraction=1.0,
            adversary=AdversarySpec("glt-intercept-resend"),
        )
        assert glt_escape_trials(cfg, 1, seed=0).analytic == escape_probability(j, k, n)


@settings(max_examples=80, deadline=None)
@given(
    j=st.integers(2, 4), k=st.integers(2, 4), n=st.integers(1, 12),
    f=st.sampled_from((0.3, 0.5, 1.0)), a=st.sampled_from((None, 0.3, 0.5, 1.0)),
    trials=st.integers(1, 50), seed=st.integers(0, 2**32 - 1),
)
def test_glt_exchange_matches_reference_draw_for_draw(j, k, n, f, a, trials, seed):
    # no sort for a full check and no copies for a full attack, with every
    # draw and every result as in the exchange that did both
    assume(round(f * n) >= 1)
    adversary = None if a is None else AdversarySpec("glt-intercept-resend", attack_fraction=a)
    cfg = ProtocolConfig(kind="glt2s", fiducial=FiducialSpec(j, k), num_gbits=n,
                         check_fraction=f, adversary=adversary)
    streams, ref_streams = _rng_streams(cfg, seed)[:2], _rng_streams(cfg, seed)[:2]
    _, hook, bits, outcomes, coords, events = _glt_exchange(cfg, *streams, trials)
    ref_hook, ref_bits, ref_outcomes, ref_coords, ref_events = reference_glt_exchange(
        cfg, *ref_streams, trials)
    for got, want in ((bits, ref_bits), (outcomes, ref_outcomes),
                      (coords, ref_coords), (events, ref_events)):
        assert got.shape == want.shape and (got == want).all()
    for got, want in zip(streams, ref_streams):  # every stream ends where it did
        assert got is want is None or got.bit_generator.state == want.bit_generator.state
    escapes = trials - int(ref_events.any(axis=1).sum())
    assert glt_escape_trials(cfg, trials, seed=seed).escapes == escapes
    if a is None:
        assert hook is None and ref_hook is None
        return
    assert hook.rounds_attacked == ref_hook.rounds_attacked
    assert len(hook.observations) == len(ref_hook.observations) == 1
    for got, want in zip(hook.observations[0], ref_hook.observations[0]):
        assert (got == want).all()


@pytest.mark.parametrize("a", [None, 0.5, 1.0])
@pytest.mark.parametrize("f", [0.5, 1.0])
def test_glt_exchange_draws_only_what_its_outputs_read(f, a):
    # Eve reads pristine codewords without a uniform draw, and a full check
    # draws no order: each stream ends where replaying the kept draws on a
    # fresh stream of the same seed leaves it
    j, k, n, trials = 3, 4, 6, 7
    adversary = None if a is None else AdversarySpec("glt-intercept-resend", attack_fraction=a)
    cfg = ProtocolConfig(kind="glt2s", fiducial=FiducialSpec(j, k), num_gbits=n,
                         check_fraction=f, adversary=adversary)
    rng, rng_eve = _rng_streams(cfg, 5)[:2]
    hook = _glt_exchange(cfg, rng, rng_eve, trials)[1]
    want, want_eve = _rng_streams(cfg, 5)[:2]
    want.integers(0, 2, size=(trials, n))  # Alice's bits
    want.integers(0, j, size=trials * n)  # Bob's fiducials
    want.integers(0, k, size=trials * n)  # Bob's uniforms
    if f < 1:
        want.random((trials, n))  # the check order
    assert rng.bit_generator.state == want.bit_generator.state
    if a is None:
        assert rng_eve is want_eve is None
        return
    attacked = trials * n
    if a < 1:
        attacked = int(np.count_nonzero(want_eve.random(trials * n) < a))
    want_eve.integers(0, j, size=attacked)  # Eve's fiducials
    assert hook.rounds_attacked == attacked
    assert rng_eve.bit_generator.state == want_eve.bit_generator.state


def test_glt_escape_memory_stays_small():
    # a full check sorts nothing and a full attack copies nothing, so
    # 10**6 gbit-trials hold about seven int64 arrays at the peak
    cfg = ProtocolConfig(kind="glt2s", fiducial=FiducialSpec(3, 2), num_gbits=10,
                         check_fraction=1.0, adversary=AdversarySpec("glt-intercept-resend"))
    glt_escape_trials(cfg, 10, seed=1)  # warm imports and caches
    tracemalloc.start()
    try:
        est = glt_escape_trials(cfg, 100_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.trials == 100_000
    assert peak < 70e6


def test_each_gbit_block_is_checked_once(monkeypatch):
    # Alice's codewords are the one block checked; Eve's and Bob's
    # fiducial choices are checked once each
    blocks, fiducials = [], []
    check_block, check_fiducials = GbitBlock.__post_init__, gpt._check_fiducials

    def counted_block(block):
        blocks.append(np.size(block.outcomes))
        check_block(block)

    def counted_fiducials(block, chosen):
        fiducials.append(len(block))
        return check_fiducials(block, chosen)

    monkeypatch.setattr(GbitBlock, "__post_init__", counted_block)
    monkeypatch.setattr(gpt, "_check_fiducials", counted_fiducials)
    attack = AdversarySpec("glt-intercept-resend")
    glt_escape_trials(glt(n=10, f=1.0, adversary=attack), 30, seed=1)
    assert blocks == [300] and fiducials == [300, 300]
    blocks.clear()
    fiducials.clear()
    res = run(glt(n=10, f=0.5, adversary=dataclasses.replace(attack, attack_fraction=0.5)))
    assert blocks == [10] and fiducials == [res.attack_report.rounds_attacked, 10]


def test_escape_deviations_are_calibrated_across_seeds():
    # seed sweep: the standardized escape deviations of 200 derived seeds
    # must look like N(0, 1), at a full-check and a partial-check point
    points = {
        "full": ProtocolConfig(
            kind="glt2s", fiducial=FiducialSpec(3, 2), num_gbits=5, check_fraction=1.0,
            adversary=AdversarySpec("glt-intercept-resend"),
        ),
        "partial": glt(n=10, f=0.5, threshold=1.0,
                       adversary=AdversarySpec("glt-intercept-resend", attack_fraction=0.5)),
    }
    trials = 2000
    for name, cfg in points.items():
        deviations = []
        for i in range(200):
            est = glt_escape_trials(cfg, trials, seed=derive_seed(20261018, name, i))
            deviations.append((est.escape_rate - est.analytic) / est.std_error)
        result = kstest(deviations, "norm")
        assert result.pvalue > 0.01, (name, result)


# ---------------------------------------------------------------- aborts


def test_glt_abort_empties_payloads():
    res = run(glt(seed=1, n=200, adversary=AdversarySpec("glt-intercept-resend")))
    assert res.outcome == "aborted"
    assert res.alice_payload == ()
    assert res.bob_payload == ()
    assert res.error_rate > res.threshold


def test_pop_aborts_on_first_check_under_heavy_noise():
    res = run(pop(seed=0, n=7, message=(1, 0), threshold=0.05,
                  noise=NoiseSpec("bit-flip", 0.5)))
    assert res.outcome == "aborted"
    assert res.error_rate > 0.05
    assert res.error_rate_second is None  # never reached the second block
    assert res.bob_payload == ()


def test_result_invariants_are_enforced():
    with pytest.raises(ProtocolError):
        RunResult(kind="stream-qkd", outcome="completed", error_rate=0.4,
                  threshold=0.1, alice_payload=(), bob_payload=(),
                  detection_events=(), transcript=Transcript())
    with pytest.raises(ProtocolError):
        RunResult(kind="stream-qkd", outcome="aborted", error_rate=0.0,
                  threshold=0.1, alice_payload=(), bob_payload=(),
                  detection_events=(), transcript=Transcript())
    with pytest.raises(ProtocolError):
        RunResult(kind="stream-qkd", outcome="paused", error_rate=0.0,
                  threshold=0.1, alice_payload=(), bob_payload=(),
                  detection_events=(), transcript=Transcript())


# ---------------------------------------------------------------- noisy delivery


@pytest.mark.parametrize("seed", range(5))
def test_pop_repetition_code_rides_through_mild_noise(seed):
    res = run(pop(seed=seed, n=7, message=(1, 0), threshold=0.05,
                  noise=NoiseSpec("depolarizing", 0.01)))
    assert res.outcome == "completed"
    assert res.bob_payload == (1, 0)


def test_pop_probe_information_matches_enumeration():
    res = run(pop(seed=11, n=2, message=(1,), threshold=0.01,
                  adversary=AdversarySpec("probe", theta=0.3)))
    assert res.attack_report.rounds_attacked == 12  # 4N + 2N probed particles
    assert res.attack_report.eve_information == pop_eve_information(0.3, 2) / 2.0
    assert res.verdict.block_size == 2


def test_pop_probe_information_at_large_blocks():
    res = run(pop(seed=11, n=20, message=(1, 0), threshold=0.05,
                  adversary=AdversarySpec("probe", theta=0.3)))
    assert res.attack_report.eve_information == pop_eve_information(0.3, 20) / 2.0
    assert res.verdict.info_ae == res.attack_report.eve_information
    assert res.verdict.block_size == 20


def test_pop_probe_information_beyond_the_exact_limit():
    # pop_eve_information refuses N = 65, so the run reports no information
    res = run(pop(seed=11, n=65, message=(1, 0), threshold=0.05,
                  adversary=AdversarySpec("probe", theta=0.3)))
    assert res.attack_report.eve_information is None
    assert res.verdict is None


def test_pop_pairing_guess_reported():
    res = run(pop(seed=11, n=2, message=(1,), threshold=0.01,
                  adversary=AdversarySpec("probe", theta=0.3, guess_pairing=True)))
    assert res.outcome == "completed"
    assert res.attack_report.guess_success_analytic == pytest.approx(1 / 3)
    assert res.attack_report.guess_success_empirical in (0.0, 1.0)


def test_pop_pairing_guess_at_large_blocks():
    # 1 / matching_count(151) is below the float range: it must underflow, not raise
    res = run(pop(seed=3, n=151, message=(1, 0), threshold=0.05,
                  adversary=AdversarySpec("probe", theta=0.1, guess_pairing=True)))
    assert res.outcome == "completed"
    assert 0.0 <= res.attack_report.guess_success_analytic < 1e-300
    assert res.attack_report.guess_success_empirical == 0.0
    assert res.attack_report.rounds_attacked == 6 * 151


# ---------------------------------------------------------------- transcripts


def test_glt_transcript_shape():
    res = run(glt(seed=4, n=20))
    records = res.transcript.records
    carriers = [r for r in records if r.channel == "carrier"]
    classical = [r for r in records if r.channel == "classical"]
    assert len(carriers) == 1  # one record per block transmission
    assert len(classical) == 2  # coordinate reveal, outcome announcement
    assert all(not r.tampered for r in carriers)


def test_attacked_transcript_marks_tampering():
    res = run(stream(seed=4, n=10, threshold=0.5,
                     adversary=AdversarySpec("quantum-intercept-resend", basis="Z")))
    carriers = [r for r in res.transcript.records if r.channel == "carrier"]
    assert len(carriers) == 20
    assert all(r.tampered for r in carriers)


def test_pop_transcript_shape_and_serialization():
    res = run(pop(seed=5, n=4))
    records = res.transcript.records
    carriers = [r for r in records if r.channel == "carrier"]
    classical = [r for r in records if r.channel == "classical"]
    assert len(carriers) == 2  # scrambled block, then retained halves
    assert len(classical) == 4
    text = res.transcript.to_jsonl()
    assert Transcript.from_jsonl(text).records == records


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_transcript_document_matches_record_oracle(name):
    res = run(GOLDEN_CONFIGS[name], seed=1)
    expected = [dataclasses.asdict(r) for r in res.transcript.records]
    assert res.to_json_dict()["transcript"] == expected


def test_stream_transcript_has_a_record_per_particle():
    n = 25
    res = run(stream(seed=3, n=n, adversary=AdversarySpec("probe", theta=0.4)))
    records = res.transcript.records
    assert [r.round_index for r in records] == list(range(1, 2 * n + 3))
    assert [r.channel for r in records] == ["carrier"] * (2 * n) + ["classical"] * 2
    assert len(res.transcript.runs) == 3


def test_large_stream_run_memory_stays_small():
    # a streamed block is one transcript run, so the log adds no per-particle
    # objects; the pair engine itself is a few bytes per pair
    config = stream(seed=2, n=100_000, threshold=0.2,
                    adversary=AdversarySpec("probe", theta=0.4),
                    noise=NoiseSpec("depolarizing", 0.01))
    run(stream(seed=2, n=10, threshold=0.2))  # warm imports and caches
    tracemalloc.start()
    try:
        res = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.outcome == "completed"
    assert peak < 30e6


def test_large_pop_run_memory_stays_small():
    # a particle block holds one slot array, and no second per-particle one
    config = pop(seed=2, n=100_000, message=(1, 0, 1), threshold=0.1,
                 adversary=AdversarySpec("probe", theta=0.4),
                 noise=NoiseSpec("depolarizing", 0.01))
    run(pop(seed=2, n=100, message=(1,), threshold=0.1))  # warm imports and caches
    tracemalloc.start()
    try:
        res = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.outcome == "completed"
    assert peak < 36e6


@pytest.mark.parametrize(
    "config, gate",
    [
        (stream(seed=2, n=1_000_000, threshold=0.2), 85e6),
        (pop(seed=2, n=1_000_000, message=(1, 0, 1), threshold=0.1), 240e6),
    ],
    ids=["stream-qkd", "pop-qsdc"],
)
def test_million_pair_run_memory_stays_under_its_gate(config, gate):
    # probed and noisy at N = 10**6, a stream run peaks at 78 MB and a pop
    # run at 220 MB under tracemalloc; each gate is its peak plus under 10%
    config = dataclasses.replace(
        config, adversary=AdversarySpec("probe", theta=0.4), noise=NoiseSpec("depolarizing", 0.01)
    )
    run(dataclasses.replace(config, block_size=100))  # warm imports and caches
    tracemalloc.start()
    try:
        res = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.outcome == "completed"
    assert peak < gate


def test_each_particle_block_is_validated_once(monkeypatch):
    # the channel, the probe and the noise act on blocks checked when they
    # were built: a stream run checks its stream and its Bell pairs, a pop
    # run its two blocks and its three Bell-measured pair sets
    calls = []
    validate = QuantumRegistry._checked  # behind slots and bell_measure

    def counted(registry, pairs, qubits):
        calls.append(np.size(pairs))
        return validate(registry, pairs, qubits)

    monkeypatch.setattr(QuantumRegistry, "_checked", counted)
    attack = dict(adversary=AdversarySpec("probe", theta=0.4),
                  noise=NoiseSpec("depolarizing", 0.01))
    res = run(stream(seed=3, n=200, threshold=0.2, **attack))
    assert res.outcome == "completed" and res.attack_report.rounds_attacked == 400
    assert calls == [400, 200]
    calls.clear()
    res = run(pop(seed=3, n=200, message=(1, 0, 1), threshold=0.1, **attack))
    assert res.outcome == "completed" and res.bob_payload == (1, 0, 1)
    assert calls == [800, 200, 400, 200, 200]


def test_result_serializes_to_plain_json():
    res = run(pop(seed=11, n=2, message=(1,), threshold=0.01,
                  adversary=AdversarySpec("probe", theta=0.3)))
    doc = res.to_json_dict()
    assert doc["schema"] == RESULT_SCHEMA
    assert doc["security_class"] == "QSDC"
    assert doc["attack_report"]["rounds_attacked"] == 12
    round_trip = json.loads(json.dumps(doc))
    assert round_trip["bob_payload"] == [1]


# ---------------------------------------------------------------- bell decode


def test_decode_bell_bits_matches_dense_coding():
    assert decode_bell_bits(BellOutcome.PSI_MINUS) == (0, 0)
    assert decode_bell_bits(BellOutcome.PHI_MINUS) == (0, 1)
    assert decode_bell_bits(BellOutcome.PSI_PLUS) == (1, 0)
    assert decode_bell_bits(BellOutcome.PHI_PLUS) == (1, 1)


# ---------------------------------------------------------------- reductions


def test_block_reduce_carries_parameters_over():
    source = stream(seed=6, n=4)
    reduced = block_reduce(source)
    assert reduced.kind == "pop-qsdc"
    assert reduced.block_size == 4
    assert reduced.seed == 6
    assert reduced.message_bits == (0,) * 8  # noiseless capacity is two per pair
    assert reduced.derived_from.startswith("block-reduction:")
    assert reduced.validate() == []
    res = run(reduced)
    assert res.outcome == "completed"
    assert res.bob_payload == reduced.message_bits


def test_block_reduce_respects_repetition_fit():
    reduced = block_reduce(stream(seed=6, n=7, threshold=0.05))
    # capacity floor(14 * (1-h(.05))) = 9 but only two length-7 codewords fit
    assert len(reduced.message_bits) == 2
    assert run(reduced).outcome == "completed"


def test_block_reduce_is_injective_on_distinct_sources():
    a = block_reduce(stream(seed=1, n=4))
    b = block_reduce(stream(seed=2, n=4))
    c = block_reduce(stream(seed=1, n=5))
    assert len({a.derived_from, b.derived_from, c.derived_from}) == 3


def test_block_reduce_rejects_other_kinds():
    with pytest.raises(ConfigValidationError):
        block_reduce(pop())
    with pytest.raises(ConfigValidationError):
        block_reduce(glt())


def test_key_reduce_relabels_payload_and_fills_random_bits():
    base = pop(seed=8, n=4)
    derived = key_reduce(base, 6)
    assert derived.payload_role == "key"
    assert len(derived.message_bits) == 6
    assert derived.derived_from.startswith("key-reduction:")
    assert key_reduce(base, 6).message_bits == derived.message_bits  # deterministic
    assert derived.validate() == []
    res = run(derived)
    assert res.security_class == "QKD"
    assert res.bob_payload == derived.message_bits


def test_key_reduce_bits_are_unbiased_across_seeds():
    ones = total = 0
    for seed in range(200):
        bits = key_reduce(pop(seed=seed, n=4), 8).message_bits
        ones += sum(bits)
        total += len(bits)
    assert_frequency(ones, total, 0.5, nsigma=5)


def test_key_reduce_rejects_bad_requests():
    with pytest.raises(ConfigValidationError):
        key_reduce(stream(), 4)
    with pytest.raises(ConfigValidationError):
        key_reduce(pop(n=4), 0)
    with pytest.raises(ConfigValidationError):
        key_reduce(pop(n=4), 9)  # eight dense-coded bits available at most


def test_reduction_chain_composes():
    chained = key_reduce(block_reduce(stream(seed=13, n=5)), 4)
    res = run(chained)
    assert res.outcome == "completed"
    assert res.security_class == "QKD"
    assert res.alice_payload == res.bob_payload == chained.message_bits


def test_derive_qka_keeps_a_random_half():
    key = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1)
    coords, agreed = derive_qka(key, np.random.default_rng(derive_seed(3, "qka")))
    assert len(coords) == 5
    assert list(coords) == sorted(set(coords))
    assert all(0 <= c < 10 for c in coords)
    assert agreed == tuple(key[c] for c in coords)


def test_derive_qka_rejects_odd_length():
    with pytest.raises(ProtocolError):
        derive_qka((1, 0, 1), np.random.default_rng(0))


def test_derive_qka_coordinate_frequency_is_uniform():
    # every coordinate should be kept about half the time
    trials = 400
    counts = np.zeros(8)
    for seed in range(trials):
        coords, _ = derive_qka((0,) * 8, np.random.default_rng(seed))
        counts[list(coords)] += 1
    margin = binomial_margin(0.5, trials, nsigma=5)
    assert all(abs(c / trials - 0.5) <= margin for c in counts)
