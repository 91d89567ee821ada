"""Declarative protocol configuration.

Dataclass configs for the three protocol kinds, validation with
human-readable diagnostics, INI-style load/dump (flat key/value with
sections), stable content digests, deterministic seed derivation, and
the capacity and repetition-code arithmetic shared by the direct
communication protocol and its reductions.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .gpt import FiducialSpec
from .metrics import binary_entropy
from .quantum import NoiseChannel

__all__ = [
    "AdversarySpec",
    "CONFIG_SCHEMA",
    "ConfigValidationError",
    "NoiseSpec",
    "ProtocolConfig",
    "config_digest",
    "derive_seed",
    "dump_config",
    "load_config",
    "max_message_length",
    "message_capacity",
    "protocol_class",
    "repetition_length",
]

CONFIG_SCHEMA = "orthosim.config/v1"

PROTOCOL_KINDS = ("glt2s", "stream-qkd", "pop-qsdc")
ADVERSARY_KINDS = ("glt-intercept-resend", "quantum-intercept-resend", "probe")
PAYLOAD_ROLES = ("message", "key")

_REPETITION_FAILURE_BOUND = 1e-3
_REPETITION_MAX_LENGTH = 501


class ConfigValidationError(ValueError):
    """Raised when a config fails validation; carries all diagnostics."""

    def __init__(self, diagnostics: list[str]) -> None:
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(diagnostics))


def derive_seed(base_seed: int, *parts: object) -> int:
    """Stable 64-bit subseed from a base seed and a label path."""
    text = ":".join([str(base_seed), *[str(p) for p in parts]])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def message_capacity(block_size: int, threshold: float) -> int:
    """Payload bits supportable by N pairs at design error rate e0.

    2N dense-coded bits discounted by the symmetric-channel rate 1 - h(e0),
    rounded down.
    """
    if block_size < 1:
        raise ConfigValidationError([f"block_size must be positive, got {block_size}"])
    return math.floor(2 * block_size * (1.0 - binary_entropy(threshold)))


def max_message_length(block_size: int, threshold: float) -> int:
    """Longest runnable message at N pairs and design error rate e0: at
    most the capacity, and only as many bits as their repetition code
    fits in the 2N coded slots."""
    fit = (2 * block_size) // repetition_length(threshold)
    return min(message_capacity(block_size, threshold), fit)


@functools.lru_cache(maxsize=256)  # a pop run asks up to three times; errors are not cached
def repetition_length(threshold: float, max_failure: float = _REPETITION_FAILURE_BOUND) -> int:
    """Smallest odd repetition length whose majority vote fails rarely.

    Failure means more than half of r transmitted copies flip at error
    rate e0; the analytic binomial tail must not exceed max_failure.
    """
    if not 0.0 <= threshold < 0.5:
        raise ConfigValidationError(
            [f"repetition coding needs e0 in [0, 0.5), got {threshold}"]
        )
    for r in range(1, _REPETITION_MAX_LENGTH + 1, 2):
        tail = sum(
            math.comb(r, k) * threshold**k * (1.0 - threshold) ** (r - k)
            for k in range(r // 2 + 1, r + 1)
        )
        if tail <= max_failure:
            return r
    raise ConfigValidationError(
        [f"no repetition length up to {_REPETITION_MAX_LENGTH} meets {max_failure} at e0={threshold}"]
    )


@dataclass(frozen=True)
class NoiseSpec:
    """Channel noise declaration, resolvable to a quantum channel."""

    kind: str
    probability: float

    def diagnostics(self) -> list[str]:
        out = []
        if self.kind not in ("depolarizing", "bit-flip"):
            out.append(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            out.append(f"noise probability out of [0, 1]: {self.probability}")
        return out

    @functools.lru_cache(maxsize=64)  # one read-only channel per spec, shared across runs
    def to_channel(self) -> NoiseChannel:
        return NoiseChannel(self.kind, self.probability)


@dataclass(frozen=True)
class AdversarySpec:
    """Eavesdropper declaration.

    kind selects the strategy; basis applies to quantum intercept-resend,
    theta to the probe family, attack_fraction to the intercept
    strategies (probability of attacking each passing carrier), and
    guess_pairing asks a pop-qsdc adversary to also guess the hidden
    pairing. A field set away from its default where it does not apply
    is a diagnostic, never silently ignored.
    """

    kind: str
    basis: str = "random"
    theta: float = 0.0
    attack_fraction: float = 1.0
    guess_pairing: bool = False

    def diagnostics(self) -> list[str]:
        out = []
        if self.kind not in ADVERSARY_KINDS:
            out.append(f"unknown adversary kind {self.kind!r}")
        if self.kind == "quantum-intercept-resend" and self.basis not in ("Z", "X", "random"):
            out.append(f"intercept basis must be Z, X, or random, got {self.basis!r}")
        if self.kind == "probe" and not 0.0 <= self.theta <= math.pi / 2 + 1e-12:
            out.append(f"probe theta must lie in [0, pi/2], got {self.theta}")
        if not 0.0 <= self.attack_fraction <= 1.0:
            out.append(f"attack_fraction out of [0, 1]: {self.attack_fraction}")
        if self.kind == "probe" and self.attack_fraction != 1.0:
            out.append(
                "attack_fraction does not apply to the probe adversary, which probes"
                f" every particle; got {self.attack_fraction}"
            )
        if self.kind != "probe" and self.theta != 0.0:
            out.append(
                f"theta applies only to the probe adversary, got {self.theta} on {self.kind!r}"
            )
        if self.kind != "quantum-intercept-resend" and self.basis != "random":
            out.append(
                f"basis applies only to quantum-intercept-resend,"
                f" got {self.basis!r} on {self.kind!r}"
            )
        return out


@dataclass(frozen=True)
class ProtocolConfig:
    """One protocol instance, fully determined together with its seed."""

    kind: str
    seed: int = 0
    check_fraction: float = 0.5
    threshold: float = 0.0
    fiducial: Optional[FiducialSpec] = None  # glt2s theory spec
    num_gbits: Optional[int] = None  # glt2s key length
    block_size: Optional[int] = None  # quantum protocols: N pairs
    message_bits: Optional[tuple[int, ...]] = None  # pop-qsdc payload
    payload_role: str = "message"
    adversary: Optional[AdversarySpec] = None
    noise: Optional[NoiseSpec] = None
    derived_from: Optional[str] = None

    schema = CONFIG_SCHEMA  # the INI layout version, not a field

    def __post_init__(self) -> None:
        if self.message_bits is not None:
            object.__setattr__(self, "message_bits", tuple(map(int, self.message_bits)))

    # -------------------------------------------------------- validation

    def validate(self) -> list[str]:
        """All diagnostics; empty means the config is runnable."""
        out = []
        if self.kind not in PROTOCOL_KINDS:
            out.append(f"unknown protocol kind {self.kind!r}")
            return out
        if not 0.0 < self.check_fraction <= 1.0:
            out.append(f"check_fraction must lie in (0, 1], got {self.check_fraction}")
        if not 0.0 <= self.threshold <= 1.0:
            out.append(f"threshold must lie in [0, 1], got {self.threshold}")
        if self.payload_role not in PAYLOAD_ROLES:
            out.append(f"payload_role must be message or key, got {self.payload_role!r}")
        if self.adversary is not None:
            out.extend(self.adversary.diagnostics())
            if self.adversary.guess_pairing and self.kind != "pop-qsdc":
                out.append(f"guess_pairing applies only to pop-qsdc, not {self.kind}")
        if self.noise is not None:
            out.extend(self.noise.diagnostics())
        if self.kind == "glt2s":
            out.extend(self._validate_glt2s())
        else:
            out.extend(self._validate_quantum())
        return out

    def _validate_glt2s(self) -> list[str]:
        out = []
        if self.fiducial is None:
            out.append("glt2s needs a fiducial theory spec")
        elif self.fiducial.num_fiducials < 2:
            out.append("glt2s needs at least two fiducials")
        if self.num_gbits is None or self.num_gbits < 1:
            out.append(f"glt2s needs num_gbits >= 1, got {self.num_gbits}")
        elif round(self.check_fraction * self.num_gbits) < 1:
            out.append("check_fraction too small: no gbit would be checked")
        if self.block_size is not None:
            out.append("block_size does not apply to glt2s")
        if self.message_bits is not None:
            out.append("message_bits do not apply to glt2s")
        if self.noise is not None:
            out.append("channel noise models are quantum-only; glt2s does not accept one")
        if self.adversary is not None and self.adversary.kind != "glt-intercept-resend":
            out.append(f"glt2s supports only the fiducial intercept adversary, got {self.adversary.kind!r}")
        return out

    def _validate_quantum(self) -> list[str]:
        out = []
        if self.fiducial is not None:
            out.append("fiducial specs apply only to glt2s")
        if self.num_gbits is not None:
            out.append("num_gbits applies only to glt2s")
        if self.block_size is None or self.block_size < 1:
            out.append(f"{self.kind} needs block_size >= 1, got {self.block_size}")
            return out
        if round(self.check_fraction * self.block_size) < 1:
            out.append("check_fraction too small: no round would be checked")
        if self.adversary is not None and self.adversary.kind == "glt-intercept-resend":
            out.append("the fiducial intercept adversary applies only to glt2s")
        if self.kind == "stream-qkd":
            if self.message_bits is not None:
                out.append("stream-qkd carries no message payload")
        else:
            out.extend(self._validate_pop_payload())
        return out

    def _validate_pop_payload(self) -> list[str]:
        out = []
        if self.message_bits is None:
            out.append("pop-qsdc needs message_bits")
            return out
        if not {0, 1}.issuperset(self.message_bits):
            out.append("message_bits must be 0/1")
        if len(self.message_bits) < 1:
            out.append("message must hold at least one bit")
            return out
        try:
            limit = max_message_length(self.block_size, self.threshold)
        except ConfigValidationError as err:
            return out + err.diagnostics
        if len(self.message_bits) > limit:
            out.append(
                f"message length {len(self.message_bits)} exceeds capacity {limit} at"
                f" N={self.block_size}, e0={self.threshold}: a longer message either exceeds"
                f" floor(2N(1-h(e0))) bits or its repetition code does not fit the"
                f" 2N = {2 * self.block_size} coded slots"
            )
        return out

    def ensure_valid(self) -> "ProtocolConfig":
        # memoized: instances are frozen, so one clean pass settles it
        if not getattr(self, "_known_valid", False):
            diagnostics = self.validate()
            if diagnostics:
                raise ConfigValidationError(diagnostics)
            object.__setattr__(self, "_known_valid", True)
        return self


def protocol_class(config: ProtocolConfig) -> str:
    """Security class of the configured protocol: QKD or QSDC."""
    if config.kind in ("glt2s", "stream-qkd"):
        return "QKD"
    return "QKD" if config.payload_role == "key" else "QSDC"


# ---------------------------------------------------------------- persistence


def _parse_bits(text: str) -> tuple[int, ...]:
    if text.strip("01"):  # empty exactly when every character is 0 or 1
        raise ConfigValidationError([f"message must be a 0/1 string, got {text!r}"])
    return tuple(map(int, text))


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"Not a boolean: {text}") from None


_DEFAULT = object()  # a missing key takes its dataclass default


class _Entry(NamedTuple):
    """One INI entry: its place, the config field it holds (``name`` or
    ``name.subname``, also its digest key), how its text parses, and
    what a file with the section but not the key loads."""

    section: str
    key: str
    path: str
    parse: Callable[[str], object]
    fallback: object = _DEFAULT


# every entry, in the order dump_config writes them
_LAYOUT = (
    _Entry("protocol", "schema", "schema", str),
    _Entry("protocol", "kind", "kind", str, ""),
    _Entry("protocol", "seed", "seed", int),
    _Entry("protocol", "check_fraction", "check_fraction", float),
    _Entry("protocol", "threshold", "threshold", float),
    _Entry("protocol", "payload_role", "payload_role", str),
    _Entry("protocol", "block_size", "block_size", int),
    _Entry("protocol", "message", "message_bits", _parse_bits),
    _Entry("protocol", "derived_from", "derived_from", str),
    _Entry("glt", "num_fiducials", "fiducial.num_fiducials", int, None),
    _Entry("glt", "num_outcomes", "fiducial.num_outcomes", int, None),
    _Entry("glt", "num_gbits", "num_gbits", int),
    _Entry("adversary", "kind", "adversary.kind", str, ""),
    _Entry("adversary", "basis", "adversary.basis", str),
    _Entry("adversary", "theta", "adversary.theta", float),
    _Entry("adversary", "attack_fraction", "adversary.attack_fraction", float),
    _Entry("adversary", "guess_pairing", "adversary.guess_pairing", _parse_bool),
    _Entry("noise", "kind", "noise.kind", str, ""),
    _Entry("noise", "probability", "noise.probability", float, 0.0),
)
_ENTRIES = {(e.section, e.key): e for e in _LAYOUT}
_FALLBACKS = tuple(e for e in _LAYOUT if e.fallback is not _DEFAULT)
_SPECS = {"fiducial": FiducialSpec, "adversary": AdversarySpec, "noise": NoiseSpec}
# (entry, field, subfield or "") in dump order, and in digest key order
_DUMP_ORDER = tuple((e, *e.path.partition(".")[::2]) for e in _LAYOUT)
_DIGEST_ORDER = tuple(sorted(_DUMP_ORDER, key=lambda item: item[0].path))


def _texts(config: ProtocolConfig, order: tuple) -> list[tuple[_Entry, str]]:
    """(entry, value text) of each entry whose field is set, in order."""
    out = []
    for entry, name, subname in order:
        value = getattr(config, name)
        if value is None:
            continue
        if subname:
            value = getattr(value, subname)
        out.append((entry, "".join(map(str, value)) if entry.parse is _parse_bits else str(value)))
    return out


def config_digest(config: ProtocolConfig) -> str:
    """Stable content hash of a config, independent of field order."""
    # memoized on the instance, as ensure_valid is: configs are frozen
    digest = vars(config).get("_digest")
    if digest is None:
        canonical = "\n".join(f"{entry.path}={text}" for entry, text in _texts(config, _DIGEST_ORDER))
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        object.__setattr__(config, "_digest", digest)
    return digest


def dump_config(config: ProtocolConfig, path: Optional[str] = None) -> str:
    """Serialize to INI text; optionally write it to path."""
    sections: dict[str, str] = {}
    for entry, text in _texts(config, _DUMP_ORDER):
        if entry.parse is _parse_bool:
            text = text.lower()
        text = text.replace("\n", "\n\t")  # configparser's continuation lines
        sections[entry.section] = sections.get(entry.section, "") + f"{entry.key} = {text}\n"
    text = "".join(f"[{name}]\n{lines}\n" for name, lines in sections.items())
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def load_config(source: str, from_path: bool = True) -> ProtocolConfig:
    """Parse an INI config from a file path (or raw text).

    Every entry the file has is parsed; an entry outside the layout, or
    a value that does not parse, is a diagnostic, all raised together.
    """
    # values are read raw, as dump_config writes them, and [DEFAULT] is a
    # section like any other: its keys do not spread into the layout
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        if from_path:
            read = parser.read(source)
            if not read:
                raise ConfigValidationError([f"config file not found: {source}"])
        else:
            parser.read_string(source)
    except configparser.Error as err:  # message carries the offending line
        raise ConfigValidationError([f"config parse failure: {err}"]) from err
    head = _LAYOUT[0]  # the schema entry, in the one section every config has
    if head.section not in parser:
        raise ConfigValidationError([f"missing [{head.section}] section"])
    schema = parser[head.section].get(head.key, CONFIG_SCHEMA)
    if schema != CONFIG_SCHEMA:
        raise ConfigValidationError([f"unsupported config schema {schema!r}"])
    values, diagnostics = {}, []
    for section in parser.sections():
        for key, text in parser.items(section):
            entry = _ENTRIES.get((section, key))
            if entry is None:
                diagnostics.append(f"unknown config entry [{section}] {key}")
                continue
            try:
                values[entry.path] = entry.parse(text)
            except ValueError as err:  # int, float, boolean and bit-string parse failures
                diagnostics.append(f"malformed config value: {err}")
    if diagnostics:
        raise ConfigValidationError(diagnostics)
    for entry in _FALLBACKS:
        if entry.section in parser:
            values.setdefault(entry.path, entry.fallback)
    kwargs: dict = {}
    for path, value in values.items():
        name, _, subname = path.partition(".")
        if subname:
            kwargs.setdefault(name, {})[subname] = value
        elif path != head.path:  # checked above
            kwargs[name] = value
    try:  # a spec holding only None fallbacks (a [glt] without a fiducial) is not built
        for name, spec in _SPECS.items():
            parts = kwargs.pop(name, {})
            if any(v is not None for v in parts.values()):
                kwargs[name] = spec(**parts)
    except ValueError as err:  # a fiducial spec out of range
        raise ConfigValidationError([f"malformed config value: {err}"]) from err
    return ProtocolConfig(**kwargs)
