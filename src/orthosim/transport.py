"""Simulated channel layer.

An authenticated classical channel (readable but not writable by the
adversary), a tamperable carrier channel with an adversary interposition
hook, permuted block transmission, and line-oriented transcript logging.
Carriers travel as whole blocks: a gbit block (``gpt.GbitBlock``), or
a particle block (``quantum.ParticleBlock``, re-exported here): pair
halves as slots into one batched pair engine, checked once, when the
block is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence, TextIO

import numpy as np

from .gpt import GbitBlock
from .quantum import NoiseChannel, ParticleBlock, _repeats

__all__ = [
    "Channel",
    "EveHook",
    "ParticleBlock",
    "Permutation",
    "Transcript",
    "TranscriptRecord",
    "TransportError",
]


class TransportError(ValueError):
    """Raised for channel misuse: bad permutations, noise on gbits."""


# ---------------------------------------------------------------- permutations


# no protocol path uses it; the benchmark tracer pins random and inverse, and
# it retires with the benchmark refresh (ROADMAP direction 1)
@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..size-1} with gather semantics.

    apply(seq)[i] = seq[mapping[i]], so mapping[i] names which original
    coordinate lands at delivery position i.
    """

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        mapping = tuple(int(v) for v in self.mapping)
        if sorted(mapping) != list(range(len(mapping))):
            raise TransportError(f"mapping is not a bijection: {mapping}")
        object.__setattr__(self, "mapping", mapping)

    @property
    def size(self) -> int:
        return len(self.mapping)

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls(tuple(range(size)))

    @classmethod
    def random(cls, size: int, rng: np.random.Generator) -> "Permutation":
        return cls(tuple(int(v) for v in rng.permutation(size)))

    def apply(self, seq: Sequence) -> list:
        if len(seq) != self.size:
            raise TransportError(f"permutation size {self.size} != sequence length {len(seq)}")
        return [seq[j] for j in self.mapping]

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """Permutation acting as self.apply(other.apply(seq))."""
        if other.size != self.size:
            raise TransportError("cannot compose permutations of different sizes")
        return Permutation(tuple(other.mapping[j] for j in self.mapping))


# ---------------------------------------------------------------- carriers


# transcript label of each carrier kind, stable across engine designs
_CARRIER_KINDS = {GbitBlock: "GbitCarrier", ParticleBlock: "ParticleCarrier"}


# ---------------------------------------------------------------- adversary hook


class EveHook:
    """Adversary interposition point on the carrier channel.

    The channel hands over each block of carriers as a whole, in
    transit (delivery) order, and never exposes the permutation. The
    base class is a transparent wiretap: it passes every block on as is.
    """

    def intercept(self, carrier: GbitBlock | ParticleBlock) -> GbitBlock | ParticleBlock:
        return carrier


# ---------------------------------------------------------------- transcript


def _indented_json(value, level: int) -> str:
    """The text ``json.dumps(value, indent=2, sort_keys=True)`` places at
    nesting ``level``, for a scalar, a flat list, or a dict of scalars and
    flat lists; each flat list or dict of scalars is one C-encoder call,
    with the indent folded into the item separator."""
    if not value or not isinstance(value, (list, dict)):
        return json.dumps(value)
    outer = "\n" + "  " * level
    inner = outer + "  "
    if isinstance(value, dict) and any(isinstance(v, (list, dict)) for v in value.values()):
        items = (f"{json.dumps(k)}: {_indented_json(value[k], level + 1)}" for k in sorted(value))
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    text = json.dumps(value, sort_keys=True, separators=("," + inner, ": "))
    return text[0] + inner + text[1:-1] + outer + text[-1]


@dataclass(frozen=True)
class TranscriptRecord:
    round_index: int
    channel: str  # "classical" | "carrier"
    sender: str
    payload: str
    tampered: bool

    def __post_init__(self) -> None:
        if self.channel not in ("classical", "carrier"):
            raise TransportError(f"unknown channel kind: {self.channel}")
        if self.channel == "classical" and self.tampered:
            raise TransportError("classical records are authenticated, never tampered")


@dataclass
class Transcript:
    """Ordered protocol log, one record per channel event.

    The records are held as runs: a first record and a count, standing
    for that record repeated on consecutive rounds. A streamed block is
    one run, expanded to one record per carrier only when read.
    """

    runs: list[tuple[TranscriptRecord, int]] = field(default_factory=list)

    @property
    def last_round(self) -> int:
        """Round of the last record, 0 while the log is empty."""
        return self.runs[-1][0].round_index + self.runs[-1][1] - 1 if self.runs else 0

    def append(self, record: TranscriptRecord, count: int = 1) -> None:
        """Log record and its repeats on the next count - 1 rounds."""
        if count < 0:
            raise TransportError(f"negative record count {count}")
        if self.runs:
            first, run = self.runs[-1]
            after = first.round_index + run  # the round after the last
            if record.round_index < after:
                raise TransportError("round indices must be strictly increasing")
            if count and record.round_index == after and _template(first) == _template(record):
                self.runs[-1] = (first, run + count)
                return
        if count:
            self.runs.append((record, count))

    def log(self, channel: str, sender: str, payload: str, tampered: bool, count: int = 1) -> None:
        """Append a record of this event on the round after the last, and
        its repeats on the next count - 1 rounds."""
        self.append(TranscriptRecord(self.last_round + 1, channel, sender, payload, tampered), count)

    @property
    def records(self) -> list[TranscriptRecord]:
        """Every record, one per round, expanded from the runs."""
        return [TranscriptRecord(first.round_index + i, *_template(first))
                for first, count in self.runs for i in range(count)]

    def to_dicts(self) -> list[dict]:
        """The records as plain dicts, in field order, built from the runs."""
        out = []
        for first, count in self.runs:
            tail = dict(zip(_FIELDS[1:], _template(first)))
            out += [{"round_index": first.round_index + i, **tail} for i in range(count)]
        return out

    def write_json(self, handle: TextIO, level: int = 0) -> None:
        """Write the text ``json.dumps(self.to_dicts(), indent=2,
        sort_keys=True)`` places at nesting ``level``, straight from the runs.

        Each run's record is encoded once with the C encoder; its rounds
        are spliced in at the encoded ``"round_index": `` key, which no
        escaped string value can contain, and written in chunks.
        """
        if not self.runs:
            handle.write("[]")
            return
        outer = "\n" + "  " * (level + 1)
        separator = "["
        for first, count in self.runs:
            entry = dict(zip(_FIELDS, (0, *_template(first))))
            before, key, after = _indented_json(entry, level + 1).partition('"round_index": ')
            head = outer + before + key
            tail = after[1:]  # after[0] is the placeholder round 0
            glue = tail + "," + head
            end = first.round_index + count
            for start in range(first.round_index, end, _CHUNK):
                rounds = map(str, range(start, min(start + _CHUNK, end)))
                handle.write(separator + head + glue.join(rounds) + tail)
                separator = ","
        handle.write(outer[:-2] + "]")

    def to_jsonl(self) -> str:
        return "".join(json.dumps(d) + "\n" for d in self.to_dicts())

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        transcript = cls()
        for line in text.splitlines():
            if line.strip():
                raw = json.loads(line)
                transcript.append(TranscriptRecord(*(raw[key] for key in _FIELDS)))
        return transcript


_FIELDS = ("round_index", "channel", "sender", "payload", "tampered")
# records per write when a run is streamed as JSON
_CHUNK = 4096


def _template(record: TranscriptRecord) -> tuple:
    """Everything of a record but its round, shared along a run."""
    return record.channel, record.sender, record.payload, record.tampered


# ---------------------------------------------------------------- channel


def _gather_index(perm, size: int) -> np.ndarray:
    """perm as a gather index, checked in O(size) to be a bijection on
    range(size): integer entries, each in range and none twice."""
    index = np.asarray(perm)
    if index.shape != (size,) or (size and index.dtype.kind not in "iu"):
        raise TransportError(f"perm of {index.dtype} shape {index.shape} cannot order {size} carriers")
    index = index.astype(np.intp, copy=False)
    if not size:
        return index
    high = int(index.view(np.uintp).max())  # the range test's max spans the marks too
    if high >= size:
        raise TransportError(f"perm has an entry outside [0, {size})")
    if _repeats(index, high):  # one byte per carrier
        raise TransportError("perm has an entry twice")
    return index


class Channel:
    """One run's transport fabric: carrier sends, broadcasts, logging.

    An attached EveHook sees every carrier in transit order; classical
    broadcasts go to the public transcript. Channel noise, when
    configured, hits quantum carriers after any interception, modeling a
    noisy final hop.
    """

    def __init__(
        self,
        eve_hook: Optional[EveHook] = None,
        noise: Optional[NoiseChannel] = None,
        noise_rng: Optional[np.random.Generator] = None,
        transcript: Optional[Transcript] = None,
    ) -> None:
        if noise is not None and noise_rng is None:
            raise TransportError("channel noise requires a sampling rng")
        self.eve_hook = eve_hook
        self.noise = noise
        self.noise_rng = noise_rng
        self.transcript = transcript if transcript is not None else Transcript()

    def send_block(
        self,
        carriers: GbitBlock | ParticleBlock,
        perm: Optional[np.ndarray],
        sender: str = "alice",
        stream: bool = False,
    ) -> GbitBlock | ParticleBlock:
        """Deliver a block of carriers in permuted order through Eve and noise.

        The block travels whole: perm is an integer gather index array or
        None (order kept), and Eve and the noise each act once on the block.
        stream=True logs one record per carrier, as a stream of
        one-carrier sends, instead of one for the block; the transcript
        stores them as one run.
        """
        kind = _CARRIER_KINDS[type(carriers)]
        if self.noise is not None and isinstance(carriers, GbitBlock):
            raise TransportError("quantum channel noise cannot act on gbit carriers")
        block = carriers
        if perm is not None:
            block = block.take(_gather_index(perm, len(block)))
        if self.eve_hook is not None:
            block = self.eve_hook.intercept(block)
        if self.noise is not None:
            block.registry.apply_noise(block, self.noise, self.noise_rng)
        count, size = (len(block), 1) if stream else (1, len(block))
        self.transcript.log(
            "carrier", sender, f"block len={size} kinds={kind}", self.eve_hook is not None, count
        )
        return block

    def broadcast(self, payload: object, sender: str, description: str) -> object:
        """Authenticated classical broadcast, logged in the public
        transcript; Eve cannot write it."""
        self.transcript.log("classical", sender, description, False)
        return payload
