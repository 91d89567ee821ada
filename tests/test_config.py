"""Config validation, persistence, digests, and code arithmetic."""

import ast
import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from orthosim.config import (
    AdversarySpec,
    CONFIG_SCHEMA,
    ConfigValidationError,
    NoiseSpec,
    ProtocolConfig,
    config_digest,
    derive_seed,
    dump_config,
    load_config,
    message_capacity,
    protocol_class,
    repetition_length,
)
from orthosim.gpt import FiducialSpec
from orthosim.metrics import DEFAULT_QUANTUM_THRESHOLD, binary_entropy
from orthosim.quantum import NoiseChannel

REPO = Path(__file__).resolve().parent.parent


def glt_config(**overrides):
    base = dict(kind="glt2s", fiducial=FiducialSpec(2, 2), num_gbits=10)
    base.update(overrides)
    return ProtocolConfig(**base)


def stream_config(**overrides):
    base = dict(kind="stream-qkd", block_size=8)
    base.update(overrides)
    return ProtocolConfig(**base)


def pop_config(**overrides):
    base = dict(kind="pop-qsdc", block_size=4, message_bits=(1, 0, 1))
    base.update(overrides)
    return ProtocolConfig(**base)


# ---------------------------------------------------------------- seeds


def test_derive_seed_deterministic_and_label_sensitive():
    assert derive_seed(7, "eve") == derive_seed(7, "eve")
    assert derive_seed(7, "eve") != derive_seed(7, "noise")
    assert derive_seed(7, "eve") != derive_seed(8, "eve")
    assert derive_seed(7, "a", 1) != derive_seed(7, "a", 2)
    assert 0 <= derive_seed(0) < 2**64


# ---------------------------------------------------------------- capacity


def test_message_capacity_noiseless_is_two_per_pair():
    for n in (1, 3, 10):
        assert message_capacity(n, 0.0) == 2 * n


def test_message_capacity_discounts_by_channel_rate():
    # floor(2N (1 - h(e0))) checked against the entropy directly
    for n, e0 in ((2, 0.01), (4, 0.11), (7, 0.05)):
        expected = math.floor(2 * n * (1.0 - binary_entropy(e0)))
        assert message_capacity(n, e0) == expected
    assert message_capacity(2, 0.01) == 3
    assert message_capacity(1, 0.5) == 0


def test_message_capacity_rejects_bad_block():
    with pytest.raises(ConfigValidationError):
        message_capacity(0, 0.1)


def test_repetition_length_known_values():
    assert repetition_length(0.0) == 1
    assert repetition_length(0.05) == 7
    assert repetition_length(0.11) == 11
    assert repetition_length(DEFAULT_QUANTUM_THRESHOLD) == 11


@pytest.mark.parametrize("e0", [0.02, 0.05, 0.11, 0.2])
def test_repetition_length_is_minimal_odd(e0):
    r = repetition_length(e0)
    assert r % 2 == 1
    # independent tail via scipy: majority fails iff more than r/2 flips
    assert stats.binom.sf(r // 2, r, e0) <= 1e-3
    if r > 1:
        prev = r - 2
        assert stats.binom.sf(prev // 2, prev, e0) > 1e-3


def test_repetition_length_domain_errors():
    for bad in (-0.01, 0.5, 0.7):
        with pytest.raises(ConfigValidationError):
            repetition_length(bad)
    with pytest.raises(ConfigValidationError, match="no repetition length"):
        repetition_length(0.45)


def test_repetition_length_cache_keeps_raising_and_answers_once():
    # lru_cache stores results, never exceptions: a rejected threshold
    # raises on every call, and a valid one is computed once
    repetition_length.cache_clear()
    for _ in range(3):
        for bad in (0.5, 0.45):
            with pytest.raises(ConfigValidationError):
                repetition_length(bad)
    assert [repetition_length(0.05) for _ in range(3)] == [7, 7, 7]
    info = repetition_length.cache_info()
    assert (info.hits, info.currsize) == (2, 1)


# ---------------------------------------------------------------- spec diagnostics


def test_noise_spec_diagnostics():
    assert NoiseSpec("depolarizing", 0.1).diagnostics() == []
    assert NoiseSpec("bit-flip", 1.0).diagnostics() == []
    assert any("kind" in d for d in NoiseSpec("thermal", 0.1).diagnostics())
    assert any("probability" in d for d in NoiseSpec("bit-flip", 1.5).diagnostics())
    assert isinstance(NoiseSpec("bit-flip", 0.2).to_channel(), NoiseChannel)


def test_equal_noise_specs_share_one_read_only_channel():
    channel = NoiseSpec("depolarizing", 0.01).to_channel()
    assert NoiseSpec("depolarizing", 0.01).to_channel() is channel
    assert NoiseSpec("depolarizing", 0.02).to_channel() is not channel
    # the shared channel's tables cannot be changed by one run for the next
    for table in (channel._cumulative, channel._codes):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


def test_adversary_spec_diagnostics():
    assert AdversarySpec("probe", theta=0.4).diagnostics() == []
    assert AdversarySpec("quantum-intercept-resend", basis="X").diagnostics() == []
    assert any("kind" in d for d in AdversarySpec("clone").diagnostics())
    assert any(
        "basis" in d
        for d in AdversarySpec("quantum-intercept-resend", basis="Y").diagnostics()
    )
    assert any("theta" in d for d in AdversarySpec("probe", theta=-0.1).diagnostics())
    assert any("theta" in d for d in AdversarySpec("probe", theta=2.0).diagnostics())
    assert any(
        "attack_fraction" in d
        for d in AdversarySpec("probe", theta=0.1, attack_fraction=1.2).diagnostics()
    )


def test_probe_rejects_attack_fraction():
    diagnostics = AdversarySpec("probe", theta=0.3, attack_fraction=0.1).diagnostics()
    assert any("attack_fraction does not apply to the probe" in d for d in diagnostics)
    assert AdversarySpec("glt-intercept-resend", attack_fraction=0.1).diagnostics() == []


def test_intercept_kinds_reject_theta():
    for kind in ("glt-intercept-resend", "quantum-intercept-resend"):
        diagnostics = AdversarySpec(kind, theta=0.3).diagnostics()
        assert any("theta applies only to the probe" in d for d in diagnostics)


def test_basis_only_on_quantum_intercept():
    for kind in ("glt-intercept-resend", "probe"):
        diagnostics = AdversarySpec(kind, basis="Z").diagnostics()
        assert any("basis applies only to quantum-intercept-resend" in d for d in diagnostics)


def test_guess_pairing_only_on_pop_qsdc():
    guess = AdversarySpec("probe", theta=0.3, guess_pairing=True)
    for config in (stream_config(adversary=guess),
                   glt_config(adversary=AdversarySpec("glt-intercept-resend",
                                                      guess_pairing=True))):
        assert any("guess_pairing applies only to pop-qsdc" in d for d in config.validate())
    assert pop_config(adversary=guess).validate() == []


# ---------------------------------------------------------------- config validation


def test_valid_configs_have_no_diagnostics():
    assert glt_config().validate() == []
    assert stream_config().validate() == []
    assert pop_config().validate() == []
    assert glt_config(adversary=AdversarySpec("glt-intercept-resend")).validate() == []
    assert (
        stream_config(
            adversary=AdversarySpec("probe", theta=0.3),
            noise=NoiseSpec("depolarizing", 0.02),
        ).validate()
        == []
    )


@pytest.mark.parametrize(
    "config, fragment",
    [
        (ProtocolConfig(kind="bb84"), "unknown protocol kind"),
        (glt_config(check_fraction=0.0), "check_fraction"),
        (glt_config(check_fraction=1.5), "check_fraction"),
        (glt_config(threshold=-0.2), "threshold"),
        (glt_config(payload_role="secret"), "payload_role"),
        (glt_config(fiducial=None), "fiducial theory spec"),
        (glt_config(fiducial=FiducialSpec(1, 3)), "at least two fiducials"),
        (glt_config(num_gbits=0), "num_gbits"),
        (glt_config(num_gbits=10, check_fraction=0.01), "no gbit would be checked"),
        (glt_config(block_size=4), "block_size does not apply"),
        (glt_config(message_bits=(1,)), "message_bits do not apply"),
        (glt_config(noise=NoiseSpec("bit-flip", 0.1)), "quantum-only"),
        (glt_config(adversary=AdversarySpec("probe", theta=0.2)), "fiducial intercept"),
        (stream_config(block_size=None), "block_size >= 1"),
        (stream_config(block_size=0), "block_size >= 1"),
        (stream_config(fiducial=FiducialSpec(2, 2)), "only to glt2s"),
        (stream_config(num_gbits=5), "only to glt2s"),
        (stream_config(message_bits=(1, 0)), "no message payload"),
        (stream_config(block_size=10, check_fraction=0.01), "no round would be checked"),
        (
            stream_config(adversary=AdversarySpec("glt-intercept-resend")),
            "applies only to glt2s",
        ),
        (pop_config(message_bits=None), "needs message_bits"),
        (pop_config(message_bits=()), "at least one bit"),
        (pop_config(message_bits=(0, 2)), "must be 0/1"),
        (pop_config(block_size=2, message_bits=(1,) * 5), "exceeds capacity"),
        (
            pop_config(block_size=4, threshold=0.11, message_bits=(1, 0)),
            "does not fit",
        ),
    ],
)
def test_invalid_configs_name_the_problem(config, fragment):
    diagnostics = config.validate()
    assert any(fragment in d for d in diagnostics), diagnostics


def test_ensure_valid_round_trips_or_raises():
    cfg = stream_config()
    assert cfg.ensure_valid() is cfg
    with pytest.raises(ConfigValidationError) as err:
        pop_config(message_bits=()).ensure_valid()
    assert err.value.diagnostics


def test_message_bits_coerced_to_int_tuple():
    cfg = pop_config(message_bits=[True, False, 1])
    assert cfg.message_bits == (1, 0, 1)
    assert all(type(b) is int for b in cfg.message_bits)


# ---------------------------------------------------------------- class labels


def test_protocol_class_labels():
    assert protocol_class(glt_config()) == "QKD"
    assert protocol_class(stream_config()) == "QKD"
    assert protocol_class(pop_config()) == "QSDC"
    assert protocol_class(pop_config(payload_role="key")) == "QKD"


# ---------------------------------------------------------------- persistence


ROUNDTRIP_CONFIGS = [
    glt_config(seed=3, adversary=AdversarySpec("glt-intercept-resend", attack_fraction=0.25)),
    stream_config(
        seed=12,
        check_fraction=0.25,
        adversary=AdversarySpec("probe", theta=0.7853981633974483),
        noise=NoiseSpec("depolarizing", 0.015),
    ),
    pop_config(
        seed=99,
        threshold=0.05,
        block_size=7,
        message_bits=(1, 0),
        derived_from="block-reduction:abc123",
    ),
    pop_config(payload_role="key", message_bits=(0, 1, 1)),
]


@pytest.mark.parametrize("config", ROUNDTRIP_CONFIGS)
def test_dump_load_roundtrip(config):
    text = dump_config(config)
    assert f"schema = {CONFIG_SCHEMA}" in text
    assert load_config(text, from_path=False) == config


def test_dump_load_via_file(tmp_path):
    cfg = ROUNDTRIP_CONFIGS[1]
    path = tmp_path / "run.ini"
    dump_config(cfg, str(path))
    assert load_config(str(path)) == cfg


@given(
    seed=st.integers(0, 2**31),
    block=st.integers(1, 12),
    frac=st.sampled_from([0.25, 0.5, 1.0]),
    theta=st.floats(0.0, 1.5),
)
@settings(max_examples=40, deadline=None)
def test_roundtrip_property_over_stream_configs(seed, block, frac, theta):
    cfg = ProtocolConfig(
        kind="stream-qkd",
        seed=seed,
        block_size=block,
        check_fraction=frac,
        adversary=AdversarySpec("probe", theta=theta),
    )
    assert load_config(dump_config(cfg), from_path=False) == cfg


def test_load_rejects_bad_sources(tmp_path):
    with pytest.raises(ConfigValidationError, match="not found"):
        load_config(str(tmp_path / "missing.ini"))
    with pytest.raises(ConfigValidationError, match="missing \\[protocol\\]"):
        load_config("[other]\nx = 1\n", from_path=False)
    with pytest.raises(ConfigValidationError, match="schema"):
        load_config("[protocol]\nschema = orthosim.config/v9\nkind = glt2s\n", from_path=False)
    with pytest.raises(ConfigValidationError, match="malformed"):
        load_config("[protocol]\nkind = stream-qkd\nseed = twelve\n", from_path=False)
    for message in ("10x", "x10", "1x0", "1 0", "12"):
        with pytest.raises(ConfigValidationError) as err:
            load_config(f"[protocol]\nkind = pop-qsdc\nmessage = {message}\n", from_path=False)
        assert err.value.diagnostics == [
            f"malformed config value: message must be a 0/1 string, got {message!r}"
        ]
    loaded = load_config("[protocol]\nkind = pop-qsdc\nmessage = 0110\n", from_path=False)
    assert loaded.message_bits == (0, 1, 1, 0)
    assert all(type(b) is int for b in loaded.message_bits)


def test_loaded_config_still_validates():
    text = dump_config(pop_config())
    assert load_config(text, from_path=False).validate() == []


# ---------------------------------------------------------------- digests


def test_config_digest_stable_and_content_sensitive():
    a = pop_config(seed=5)
    assert config_digest(a) == config_digest(pop_config(seed=5))
    assert config_digest(a) != config_digest(pop_config(seed=6))
    assert config_digest(a) != config_digest(pop_config(seed=5, threshold=0.01))
    assert config_digest(a) != config_digest(pop_config(seed=5, message_bits=(1, 0, 0)))
    with_adv = pop_config(seed=5, adversary=AdversarySpec("probe", theta=0.1))
    assert config_digest(a) != config_digest(with_adv)
    assert config_digest(with_adv) != config_digest(
        pop_config(seed=5, adversary=AdversarySpec("probe", theta=0.2))
    )


def test_config_digest_is_memoized_per_instance():
    config = pop_config(seed=5)
    digest = config_digest(config)
    assert config_digest(config) is digest  # computed once, then reused
    assert digest == config_digest(pop_config(seed=5))
    # a replaced copy is a new instance, with its own digest
    moved = dataclasses.replace(config, seed=6)
    assert config_digest(moved) == config_digest(pop_config(seed=6)) != digest
    assert config_digest(config) == digest


# digests of the shipped configs, recorded before the bit-string parsing
# moved to C-level calls; config_digest must not move
SHIPPED_DIGESTS = {
    "glt2s_baseline.ini": "f6b2230bf78bc2a80e794b0ecaf2ea50d7d723bfba74c225a8250202badf3997",
    "pop_qsdc_noisy.ini": "c4b8914922e73864d446b6477e6bb436ba1d18c09905e552dbaafe65d54bb28b",
    "stream_qkd_probe.ini": "984cc5d229575f00720e0aa7b21e002799dcde9f66cc7c120064d8ab1b5c29ed",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_DIGESTS))
def test_shipped_config_digests_are_stable(name):
    path = REPO / "configs" / name
    assert config_digest(load_config(str(path))) == SHIPPED_DIGESTS[name]


def test_long_message_digest_is_stable_through_persistence():
    # 285 bits, as many as N = 1000 carries at e0 = 0.05
    config = ProtocolConfig(
        kind="pop-qsdc", seed=4, block_size=1000, threshold=0.05,
        message_bits=tuple((i * i + 1) % 3 % 2 for i in range(285)),
        noise=NoiseSpec("depolarizing", 0.01),
    )
    expected = "d5dbf81f7ab357482f5d7457fe7adac14d969514226b9419690f824303d5a78c"
    assert config_digest(config) == expected
    assert config_digest(load_config(dump_config(config), from_path=False)) == expected


def test_config_digest_survives_persistence():
    cfg = ROUNDTRIP_CONFIGS[2]
    loaded = load_config(dump_config(cfg), from_path=False)
    assert config_digest(loaded) == config_digest(cfg)


# ---------------------------------------------------------------- layout pins


# dump_config text of each ROUNDTRIP_CONFIGS entry, recorded before the
# INI layout became one table; the bytes must not move
ROUNDTRIP_TEXTS = [
    "[protocol]\nschema = orthosim.config/v1\nkind = glt2s\nseed = 3\ncheck_fraction = 0.5\n"
    "threshold = 0.0\npayload_role = message\n\n"
    "[glt]\nnum_fiducials = 2\nnum_outcomes = 2\nnum_gbits = 10\n\n"
    "[adversary]\nkind = glt-intercept-resend\nbasis = random\ntheta = 0.0\n"
    "attack_fraction = 0.25\nguess_pairing = false\n\n",
    "[protocol]\nschema = orthosim.config/v1\nkind = stream-qkd\nseed = 12\n"
    "check_fraction = 0.25\nthreshold = 0.0\npayload_role = message\nblock_size = 8\n\n"
    "[adversary]\nkind = probe\nbasis = random\ntheta = 0.7853981633974483\n"
    "attack_fraction = 1.0\nguess_pairing = false\n\n"
    "[noise]\nkind = depolarizing\nprobability = 0.015\n\n",
    "[protocol]\nschema = orthosim.config/v1\nkind = pop-qsdc\nseed = 99\ncheck_fraction = 0.5\n"
    "threshold = 0.05\npayload_role = message\nblock_size = 7\nmessage = 10\n"
    "derived_from = block-reduction:abc123\n\n",
    "[protocol]\nschema = orthosim.config/v1\nkind = pop-qsdc\nseed = 0\ncheck_fraction = 0.5\n"
    "threshold = 0.0\npayload_role = key\nblock_size = 4\nmessage = 011\n\n",
]


@pytest.mark.parametrize("config, text", list(zip(ROUNDTRIP_CONFIGS, ROUNDTRIP_TEXTS)))
def test_dump_text_is_pinned(config, text):
    assert dump_config(config) == text


# sets every entry of the layout (so it is no runnable protocol)
EVERY_ENTRY = ProtocolConfig(
    kind="pop-qsdc", seed=17, check_fraction=0.75, threshold=0.05,
    fiducial=FiducialSpec(3, 2), num_gbits=6, block_size=9, message_bits=(1, 0, 1, 1),
    payload_role="key",
    adversary=AdversarySpec("quantum-intercept-resend", basis="X", theta=0.25,
                            attack_fraction=0.5, guess_pairing=True),
    noise=NoiseSpec("bit-flip", 0.02), derived_from="key-reduction:abc123",
)


def test_every_entry_digest_and_dump_are_pinned():
    text = dump_config(EVERY_ENTRY)
    assert text == (
        "[protocol]\nschema = orthosim.config/v1\nkind = pop-qsdc\nseed = 17\n"
        "check_fraction = 0.75\nthreshold = 0.05\npayload_role = key\nblock_size = 9\n"
        "message = 1011\nderived_from = key-reduction:abc123\n\n"
        "[glt]\nnum_fiducials = 3\nnum_outcomes = 2\nnum_gbits = 6\n\n"
        "[adversary]\nkind = quantum-intercept-resend\nbasis = X\ntheta = 0.25\n"
        "attack_fraction = 0.5\nguess_pairing = true\n\n"
        "[noise]\nkind = bit-flip\nprobability = 0.02\n\n"
    )
    expected = "26cad0b74b8684354d1fe5abb4704cbe14cf37b9619274ffbb08c43daac94863"
    assert config_digest(EVERY_ENTRY) == expected
    loaded = load_config(text, from_path=False)
    assert loaded == EVERY_ENTRY
    assert config_digest(loaded) == expected


# ---------------------------------------------------------------- unknown entries


@pytest.mark.parametrize(
    "text, diagnostics",
    [
        # a misspelled section would run unattacked
        ("[protocol]\nkind = stream-qkd\nblock_size = 8\n"
         "[adversery]\nkind = probe\ntheta = 0.4\n",
         ["unknown config entry [adversery] kind", "unknown config entry [adversery] theta"]),
        # a misspelled key would leave a probe at theta = 0
        ("[protocol]\nkind = stream-qkd\nblock_size = 8\n[adversary]\nkind = probe\nthetta = 0.4\n",
         ["unknown config entry [adversary] thetta"]),
        # a misspelled block size would be dropped
        ("[protocol]\nkind = glt2s\nblok_size = 9\n"
         "[glt]\nnum_fiducials = 2\nnum_outcomes = 2\nnum_gbits = 10\n",
         ["unknown config entry [protocol] blok_size"]),
        # configparser would copy [DEFAULT] keys into every section
        ("[DEFAULT]\nseed = 3\n[protocol]\nkind = stream-qkd\nblock_size = 8\n",
         ["unknown config entry [DEFAULT] seed"]),
    ],
    ids=["misspelled-section", "misspelled-key", "misspelled-block-size", "default-section"],
)
def test_unknown_entries_are_diagnostics(text, diagnostics):
    with pytest.raises(ConfigValidationError) as err:
        load_config(text, from_path=False)
    assert err.value.diagnostics == diagnostics


def test_values_round_trip_verbatim():
    # dump_config writes strings as they are, so load_config must not
    # interpolate them
    config = pop_config(derived_from="block-reduction:%(x)s 50%")
    assert load_config(dump_config(config), from_path=False) == config


def test_unknown_entries_and_malformed_values_are_raised_together():
    text = "[protocol]\nkind = stream-qkd\nseed = x\nblok_size = 9\n[noise]\nkind = bit-flip\n"
    with pytest.raises(ConfigValidationError) as err:
        load_config(text, from_path=False)
    assert err.value.diagnostics == [
        "malformed config value: invalid literal for int() with base 10: 'x'",
        "unknown config entry [protocol] blok_size",
    ]


def _pop_cli_ini() -> str:
    """The benchmark's pop-cli config, read as source (its message
    placeholder filled with as many bits as the benchmark sends)."""
    tree = ast.parse((REPO / "bench" / "workloads.py").read_text())
    values = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("POP_CLI_INI", "POP_CLI_MESSAGE_BITS")
    }
    return values["POP_CLI_INI"].format(message="1" * values["POP_CLI_MESSAGE_BITS"])


def test_shipped_and_benchmark_configs_load_clean():
    for path in sorted((REPO / "configs").glob("*.ini")):
        assert load_config(str(path)).validate() == [], path.name
    assert load_config(_pop_cli_ini(), from_path=False).validate() == []
