import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthosim.gpt import FiducialSpec, GbitBlock
from orthosim import quantum
from orthosim.quantum import NoiseChannel, QuantumRegistry, QuantumValidationError
from orthosim import transport
from orthosim.transport import (
    Channel,
    EveHook,
    ParticleBlock,
    Permutation,
    Transcript,
    TranscriptRecord,
    TransportError,
)

from oracle import RecordingHook


def tagged_gbits(n=4):
    # codeword values 0..n-1 of a 16-outcome theory make distinguishable tags
    return GbitBlock(FiducialSpec(2, 16), np.arange(n))


# ---------------------------------------------------------------- permutations


def test_permutation_validation():
    Permutation((0, 1, 2))
    with pytest.raises(TransportError):
        Permutation((0, 0, 1))
    with pytest.raises(TransportError):
        Permutation((1, 2, 3))


def test_reversal_delivery_order():
    perm = Permutation((3, 2, 1, 0))
    assert perm.apply(["a", "b", "c", "d"]) == ["d", "c", "b", "a"]


def test_identity_is_noop():
    perm = Permutation.identity(5)
    seq = list(range(5))
    assert perm.apply(seq) == seq


@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 12))
@settings(max_examples=60)
def test_inverse_and_compose(seed, size):
    rng = np.random.default_rng(seed)
    perm = Permutation.random(size, rng)
    assert perm.compose(perm.inverse()).mapping == tuple(range(size))
    assert perm.inverse().compose(perm).mapping == tuple(range(size))
    seq = list(rng.integers(0, 100, size=size))
    assert perm.inverse().apply(perm.apply(seq)) == seq


def test_apply_size_mismatch():
    with pytest.raises(TransportError):
        Permutation.identity(3).apply([1, 2])
    with pytest.raises(TransportError):
        Permutation.identity(3).compose(Permutation.identity(2))


def test_random_permutation_covers_group():
    rng = np.random.default_rng(7)
    seen = {Permutation.random(3, rng).mapping for _ in range(500)}
    assert len(seen) == 6


# ---------------------------------------------------------------- channel sends


def test_send_block_identity_no_hook():
    channel = Channel()
    carriers = tagged_gbits(4)
    delivered = channel.send_block(carriers, None)
    assert delivered.outcomes.tolist() == carriers.outcomes.tolist()
    assert len(channel.transcript.records) == 1
    record = channel.transcript.records[0]
    assert record.channel == "carrier" and not record.tampered


def test_hook_sees_transit_order_for_every_permutation():
    carriers = tagged_gbits(4)
    for mapping in itertools.permutations(range(4)):
        hook = RecordingHook()
        channel = Channel(eve_hook=hook)
        delivered = channel.send_block(carriers, np.array(mapping))
        assert len(hook.blocks) == 1  # one hook call for the block
        assert hook.blocks[0].outcomes.tolist() == delivered.outcomes.tolist()
        assert hook.blocks[0].outcomes.tolist() == list(mapping)
        assert channel.transcript.records[-1].payload == "block len=4 kinds=GbitCarrier"
        assert channel.transcript.records[-1].tampered


def test_conservation_of_carriers():
    rng = np.random.default_rng(3)
    channel = Channel()
    for size in (1, 4, 9):
        block = tagged_gbits(size)
        delivered = channel.send_block(block, Permutation.random(size, rng).mapping)
        assert len(delivered) == size
        assert sorted(delivered.outcomes.tolist()) == block.outcomes.tolist()


def test_duplicate_particles_in_one_block_rejected():
    # the block is checked once, by the pair engine, when it is built
    reg = QuantumRegistry()
    reg.allocate()
    with pytest.raises(QuantumValidationError):
        Channel().send_block(ParticleBlock(reg, [0, 0], [1, 1]), np.arange(2))
    Channel().send_block(ParticleBlock(reg, [0, 0], [0, 1]), np.arange(2))


@pytest.mark.parametrize(
    "pairs, qubits, named",
    [
        ([0, 5], [7, 0], "qubits 0 and 1 only"),
        ([0, 5], [1, 0], "outside"),
        ([0, 9], [3, 1], "qubits 0 and 1 only"),
        ([0, 9], [0, 1], "outside"),
        ([-1, 0], [1, 0], "outside"),
        ([0, 1], [4, 0], "qubits 0 and 1 only"),  # not pair 1's half 0 twice
        ([1, 0, 1], [0, 1, 0], "appears twice"),
        ([0, 1], [0, 1, 1], "halves for"),
        ([0, 1], 2, "qubits 0 and 1 only"),  # a scalar half for the whole block
    ],
)
def test_particle_block_rejects_particles_not_in_the_registry(pairs, qubits, named):
    reg = QuantumRegistry()
    reg.allocate(2)
    with pytest.raises(QuantumValidationError, match=named):
        ParticleBlock(reg, pairs, qubits)


def test_particle_blocks_compare_by_identity():
    # generated field-wise equality would compare the index arrays as
    # booleans and raise on any block of two or more particles
    reg = QuantumRegistry()
    reg.allocate(2)
    a = ParticleBlock(reg, [0, 1], [0, 1])
    b = ParticleBlock(reg, [0, 1], [0, 1])
    assert a == a and a != b
    assert len({a, b}) == 2  # hashable, by identity
    assert a.take([1, 0]) != a


def test_particle_block_is_the_pair_engine_block():
    import orthosim

    assert transport.ParticleBlock is quantum.ParticleBlock is orthosim.ParticleBlock


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_take_keeps_the_slots_of_the_taken_particles(data):
    # a part is never checked again, so its slots must be the source's own
    num_pairs = data.draw(st.integers(1, 10))
    particles = data.draw(st.lists(st.integers(0, 2 * num_pairs - 1), min_size=1, unique=True))
    reg = QuantumRegistry()
    reg.allocate(num_pairs)
    source = ParticleBlock(reg, np.array(particles) >> 1, np.array(particles) & 1)
    size = len(source)
    gather = np.array(
        data.draw(st.lists(st.integers(0, size - 1), unique=True)), dtype=np.intp
    )
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    step = slice(data.draw(st.integers(0, size)), None, data.draw(st.integers(1, 3)))
    for index in (gather, mask, step):
        part = source.take(index)
        assert part.registry is reg
        assert part.slots.tolist() == (2 * source.pairs[index] + source.qubits[index]).tolist()


@pytest.mark.parametrize(
    "perm, named",
    [
        (np.array([0.5, 1.0]), "float64"),  # truncation would make it the identity
        (np.array([0.0, 1.0]), "float64"),
        (np.array([True, False]), "bool"),
        (np.array([-1, 0]), "outside"),
        (np.array([0, 2]), "outside"),
        (np.array([2**63, 0], dtype=np.uint64), "outside"),
        (np.array([1, 1]), "twice"),
        (np.arange(3), "shape"),
    ],
)
def test_send_block_rejects_anything_but_an_integer_bijection(perm, named):
    reg = QuantumRegistry()
    reg.allocate(2)
    block = ParticleBlock(reg, [0, 1], [0, 1])
    for carriers in (block, tagged_gbits(2)):
        with pytest.raises(TransportError, match=named):
            Channel(eve_hook=EveHook()).send_block(carriers, perm)


def test_send_block_accepts_any_integer_permutation_dtype():
    reg = QuantumRegistry()
    reg.allocate(2)
    block = ParticleBlock(reg, [0, 0, 1], [0, 1, 1])
    for perm in ([2, 0, 1], np.array([2, 0, 1], dtype=np.int32), np.array([2, 0, 1], dtype=np.uint8)):
        delivered = Channel().send_block(block, perm)
        assert delivered.pairs.tolist() == [1, 0, 0]
        assert delivered.qubits.tolist() == [1, 0, 1]
    assert len(Channel().send_block(tagged_gbits(0), [])) == 0


def test_particle_block_travels_whole_in_transit_order():
    reg = QuantumRegistry()
    reg.allocate(2)
    block = ParticleBlock(reg, [0, 0, 1, 1], [0, 1, 0, 1])
    hook = RecordingHook()
    channel = Channel(eve_hook=hook)
    delivered = channel.send_block(block, np.array([2, 0, 3, 1]))
    assert len(hook.blocks) == 1  # one hook call for the block
    assert hook.blocks[0].pairs.tolist() == [1, 0, 1, 0]
    assert hook.blocks[0].qubits.tolist() == [0, 0, 1, 1]
    assert delivered.pairs.tolist() == [1, 0, 1, 0]
    assert channel.transcript.records[-1].payload == "block len=4 kinds=ParticleCarrier"
    with pytest.raises(TransportError):
        Channel().send_block(block, np.array([0, 0, 1, 2]))
    with pytest.raises(TransportError):
        Channel().send_block(block, np.arange(3))


def test_streamed_block_logs_one_record_per_particle():
    reg = QuantumRegistry()
    reg.allocate(3)
    channel = Channel(eve_hook=EveHook())
    channel.broadcast("hello", sender="bob", description="greeting")
    channel.send_block(ParticleBlock(reg, [0, 0, 1, 1, 2, 2], [0, 1] * 3), None, stream=True)
    records = channel.transcript.records
    assert [r.round_index for r in records] == list(range(1, 8))
    assert all(r.payload == "block len=1 kinds=ParticleCarrier" for r in records[1:])
    assert all(r.tampered and r.channel == "carrier" for r in records[1:])


def test_block_size_must_match_permutation():
    with pytest.raises(TransportError):
        Channel().send_block(tagged_gbits(3), Permutation.identity(4).mapping)


# ---------------------------------------------------------------- noise plumbing


def test_noise_requires_rng_and_quantum_carriers():
    with pytest.raises(TransportError):
        Channel(noise=NoiseChannel("bit-flip", 0.1))
    channel = Channel(
        noise=NoiseChannel("bit-flip", 0.1), noise_rng=np.random.default_rng(0)
    )
    with pytest.raises(TransportError):
        channel.send_block(tagged_gbits(1), None)


def test_full_strength_bit_flip_in_transit():
    reg = QuantumRegistry()
    pairs = reg.allocate().pairs[::2]
    channel = Channel(
        noise=NoiseChannel("bit-flip", 1.0), noise_rng=np.random.default_rng(0)
    )
    channel.send_block(ParticleBlock(reg, pairs, 0), None)
    rng = np.random.default_rng(5)
    a = reg.measure(ParticleBlock(reg, pairs, 0), "Z", rng)
    b = reg.measure(ParticleBlock(reg, pairs, 1), "Z", rng)
    assert a == b  # the flip turns anticorrelation into correlation


# ---------------------------------------------------------------- broadcasts


def test_broadcast_logs_once_untampered():
    channel = Channel(eve_hook=EveHook())
    payload = {"coords": [1, 2, 3]}
    returned = channel.broadcast(payload, sender="bob", description="check coords")
    assert returned is payload
    records = [r for r in channel.transcript.records if r.channel == "classical"]
    assert len(records) == 1
    assert not records[0].tampered


def test_classical_records_never_tampered():
    with pytest.raises(TransportError):
        TranscriptRecord(1, "classical", "alice", "x", True)
    with pytest.raises(TransportError):
        TranscriptRecord(1, "radio", "alice", "x", False)


# ---------------------------------------------------------------- transcripts


def test_round_indices_strictly_increase():
    transcript = Transcript()
    transcript.append(TranscriptRecord(1, "classical", "alice", "a", False))
    with pytest.raises(TransportError):
        transcript.append(TranscriptRecord(1, "classical", "alice", "b", False))
    transcript.append(TranscriptRecord(2, "carrier", "alice", "c", False))


def test_streamed_block_is_one_run():
    reg = QuantumRegistry()
    reg.allocate(3)
    channel = Channel()
    channel.send_block(ParticleBlock(reg, [0, 0, 1, 1, 2, 2], [0, 1] * 3), None, stream=True)
    channel.send_block(ParticleBlock(reg, [0, 1], [0, 0]), None, stream=True)
    channel.broadcast([1], sender="bob", description="bits n=1")
    transcript = channel.transcript
    assert [count for _, count in transcript.runs] == [8, 1]  # the second stream continues
    assert transcript.last_round == 9
    restored = Transcript.from_jsonl(transcript.to_jsonl())
    assert restored.records == transcript.records
    assert len(restored.runs) == len(transcript.runs)
    assert restored == transcript


def test_round_inside_a_stored_run_is_rejected():
    transcript = Transcript()
    transcript.append(TranscriptRecord(1, "carrier", "alice", "block len=1", False), count=5)
    for round_index in (1, 3, 5):
        with pytest.raises(TransportError):
            transcript.append(TranscriptRecord(round_index, "classical", "bob", "b", False))
    with pytest.raises(TransportError):
        transcript.append(TranscriptRecord(6, "classical", "bob", "b", False), count=-1)
    transcript.append(TranscriptRecord(6, "carrier", "alice", "block len=1", True))
    assert [count for _, count in transcript.runs] == [5, 1]  # tampering breaks the run


def test_channel_continues_a_given_transcript():
    transcript = Transcript()
    transcript.append(TranscriptRecord(1, "classical", "alice", "hello", False))
    channel = Channel(transcript=transcript)
    channel.broadcast([0], sender="bob", description="reply")
    assert [r.round_index for r in transcript.records] == [1, 2]


def test_transcript_jsonl_roundtrip():
    channel = Channel()
    channel.send_block(tagged_gbits(2), None)
    channel.broadcast([0, 1], sender="alice", description="bits n=2")
    text = channel.transcript.to_jsonl()
    assert text.count("\n") == 2
    restored = Transcript.from_jsonl(text)
    assert restored.records == channel.transcript.records
    assert restored.to_jsonl() == text


def written_json(transcript, level):
    buffer = io.StringIO()
    transcript.write_json(buffer, level)
    return buffer.getvalue()


def nested_json(records, level):
    """json.dumps of the records nested ``level`` dicts deep, and where they sit."""
    doc = records
    for _ in range(level):
        doc = {"t": doc}
    text = json.dumps(doc, indent=2, sort_keys=True)
    head = "".join("{\n" + "  " * (i + 1) + '"t": ' for i in range(level))
    tail = "".join("\n" + "  " * i + "}" for i in reversed(range(level)))
    assert text.startswith(head) and text.endswith(tail)
    return text[len(head): len(text) - len(tail)]


@settings(max_examples=60, deadline=None)
@given(
    runs=st.lists(
        st.tuples(
            st.booleans(),
            st.sampled_from(["alice", "bob", "e\u00e9"]),
            st.one_of(st.text(max_size=12), st.just('x "round_index": 7, \\"')),
            st.booleans(),
            st.integers(1, 6),
        ),
        max_size=5,
    ),
    level=st.integers(0, 3),
)
def test_transcript_json_matches_the_encoder(runs, level):
    transcript = Transcript()
    for carrier, sender, payload, tampered, count in runs:
        channel = "carrier" if carrier else "classical"
        transcript.append(TranscriptRecord(
            transcript.last_round + 1, channel, sender, payload, tampered and carrier
        ), count)
    assert written_json(transcript, level) == nested_json(transcript.to_dicts(), level)


def test_transcript_json_spans_write_chunks(monkeypatch):
    monkeypatch.setattr(transport, "_CHUNK", 2)
    transcript = Transcript()
    for count in (1, 2, 3, 5):
        transcript.append(TranscriptRecord(
            transcript.last_round + 1, "carrier", "alice", f"len={count}", False
        ), count)
    assert written_json(transcript, 1) == nested_json(transcript.to_dicts(), 1)
    assert written_json(transcript, 0) == json.dumps(transcript.to_dicts(), indent=2, sort_keys=True)


def test_transcript_determinism_same_seed():
    def run(seed):
        rng = np.random.default_rng(seed)
        channel = Channel(
            noise=NoiseChannel("depolarizing", 0.3), noise_rng=np.random.default_rng(seed + 1)
        )
        reg = QuantumRegistry()
        reg.allocate()
        perm = Permutation.random(2, rng)
        channel.send_block(ParticleBlock(reg, [0, 0], [0, 1]), perm.mapping)
        channel.broadcast(list(perm.mapping), sender="alice", description=f"perm L={perm.size}")
        return channel.transcript.to_jsonl()

    assert run(42) == run(42)
    # the log holds descriptions, never drawn values, so it leaks no drawn
    # permutation: seeds 42 and 43 draw different ones and log the same
    mappings = [Permutation.random(2, np.random.default_rng(s)).mapping for s in (42, 43)]
    assert mappings[0] != mappings[1]
    assert run(42) == run(43)
