"""Declarative protocol configuration.

Dataclass configs for the three protocol kinds, validation with
human-readable diagnostics, INI-style load/dump (flat key/value with
sections), stable content digests, deterministic seed derivation, and
the capacity and repetition-code arithmetic shared by the direct
communication protocol and its reductions.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, fields
from typing import Optional

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


def _flat_items(config: ProtocolConfig) -> list[tuple[str, str]]:
    items: list[tuple[str, str]] = [("schema", CONFIG_SCHEMA)]
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None:
            continue
        if isinstance(value, FiducialSpec):
            items.append(("fiducial.num_fiducials", str(value.num_fiducials)))
            items.append(("fiducial.num_outcomes", str(value.num_outcomes)))
        elif isinstance(value, AdversarySpec):
            for sub in fields(value):
                items.append((f"adversary.{sub.name}", str(getattr(value, sub.name))))
        elif isinstance(value, NoiseSpec):
            for sub in fields(value):
                items.append((f"noise.{sub.name}", str(getattr(value, sub.name))))
        elif isinstance(value, tuple):
            items.append((f.name, "".join(map(str, value))))
        else:
            items.append((f.name, str(value)))
    return items


def config_digest(config: ProtocolConfig) -> str:
    """Stable content hash of a config, independent of field order."""
    canonical = "\n".join(f"{k}={v}" for k, v in sorted(_flat_items(config)))
    return hashlib.sha256(canonical.encode()).hexdigest()


def dump_config(config: ProtocolConfig, path: Optional[str] = None) -> str:
    """Serialize to INI text; optionally write it to path."""
    parser = configparser.ConfigParser()
    parser["protocol"] = {"schema": CONFIG_SCHEMA, "kind": config.kind, "seed": str(config.seed)}
    parser["protocol"]["check_fraction"] = repr(config.check_fraction)
    parser["protocol"]["threshold"] = repr(config.threshold)
    parser["protocol"]["payload_role"] = config.payload_role
    if config.block_size is not None:
        parser["protocol"]["block_size"] = str(config.block_size)
    if config.message_bits is not None:
        parser["protocol"]["message"] = "".join(map(str, config.message_bits))
    if config.derived_from is not None:
        parser["protocol"]["derived_from"] = config.derived_from
    if config.fiducial is not None or config.num_gbits is not None:
        parser["glt"] = {}
        if config.fiducial is not None:
            parser["glt"]["num_fiducials"] = str(config.fiducial.num_fiducials)
            parser["glt"]["num_outcomes"] = str(config.fiducial.num_outcomes)
        if config.num_gbits is not None:
            parser["glt"]["num_gbits"] = str(config.num_gbits)
    if config.adversary is not None:
        parser["adversary"] = {
            "kind": config.adversary.kind,
            "basis": config.adversary.basis,
            "theta": repr(config.adversary.theta),
            "attack_fraction": repr(config.adversary.attack_fraction),
            "guess_pairing": str(config.adversary.guess_pairing).lower(),
        }
    if config.noise is not None:
        parser["noise"] = {
            "kind": config.noise.kind,
            "probability": repr(config.noise.probability),
        }
    buffer = io.StringIO()
    parser.write(buffer)
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def _parse_bits(text: str) -> tuple[int, ...]:
    if text.strip("01"):  # empty exactly when every character is 0 or 1
        raise ConfigValidationError([f"message must be a 0/1 string, got {text!r}"])
    return tuple(map(int, text))


def load_config(source: str, from_path: bool = True) -> ProtocolConfig:
    """Parse an INI config from a file path (or raw text)."""
    parser = configparser.ConfigParser()
    try:
        if from_path:
            read = parser.read(source)
            if not read:
                raise ConfigValidationError([f"config file not found: {source}"])
        else:
            parser.read_string(source)
    except configparser.Error as err:  # message carries the offending line
        raise ConfigValidationError([f"config parse failure: {err}"]) from err
    if "protocol" not in parser:
        raise ConfigValidationError(["missing [protocol] section"])
    proto = parser["protocol"]
    schema = proto.get("schema", CONFIG_SCHEMA)
    if schema != CONFIG_SCHEMA:
        raise ConfigValidationError([f"unsupported config schema {schema!r}"])
    try:
        kwargs: dict = {
            "kind": proto.get("kind", ""),
            "seed": proto.getint("seed", 0),
            "check_fraction": proto.getfloat("check_fraction", 0.5),
            "threshold": proto.getfloat("threshold", 0.0),
            "payload_role": proto.get("payload_role", "message"),
        }
        if "block_size" in proto:
            kwargs["block_size"] = proto.getint("block_size")
        if "message" in proto:
            kwargs["message_bits"] = _parse_bits(proto["message"])
        if "derived_from" in proto:
            kwargs["derived_from"] = proto["derived_from"]
        if "glt" in parser:
            glt = parser["glt"]
            if "num_fiducials" in glt or "num_outcomes" in glt:
                kwargs["fiducial"] = FiducialSpec(
                    glt.getint("num_fiducials"), glt.getint("num_outcomes")
                )
            if "num_gbits" in glt:
                kwargs["num_gbits"] = glt.getint("num_gbits")
        if "adversary" in parser:
            adv = parser["adversary"]
            kwargs["adversary"] = AdversarySpec(
                kind=adv.get("kind", ""),
                basis=adv.get("basis", "random"),
                theta=adv.getfloat("theta", 0.0),
                attack_fraction=adv.getfloat("attack_fraction", 1.0),
                guess_pairing=adv.getboolean("guess_pairing", False),
            )
        if "noise" in parser:
            noise = parser["noise"]
            kwargs["noise"] = NoiseSpec(
                kind=noise.get("kind", ""), probability=noise.getfloat("probability", 0.0)
            )
    except ValueError as err:  # getint/getfloat parse failures
        raise ConfigValidationError([f"malformed config value: {err}"]) from err
    return ProtocolConfig(**kwargs)
