"""Golden digests: a (config, seed) pair fixes a run's document bit-exactly.

Each digest is the SHA-256 of the ``.result.json`` bytes that
``orthosim run --config`` writes for that run, through
``RunResult.write_json``; ``json.dumps(doc, indent=2, sort_keys=True)``
of the document dict stays the oracle those bytes must equal.  A change that alters
which draws a seed produces must say so and commit new digests; print
them with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import dataclasses
import hashlib
import io
import json

import pytest

from orthosim.config import AdversarySpec, NoiseSpec, ProtocolConfig
from orthosim.gpt import FiducialSpec
from orthosim.protocols import run

CONFIGS = {
    "glt2s-clean": ProtocolConfig(kind="glt2s", fiducial=FiducialSpec(2, 2), num_gbits=40),
    "glt2s-attacked": ProtocolConfig(
        kind="glt2s", fiducial=FiducialSpec(3, 2), num_gbits=40, threshold=1.0,
        adversary=AdversarySpec("glt-intercept-resend"),
    ),
    "glt2s-partial": ProtocolConfig(
        kind="glt2s", fiducial=FiducialSpec(2, 3), num_gbits=40, check_fraction=0.5,
        threshold=1.0, adversary=AdversarySpec("glt-intercept-resend", attack_fraction=0.5),
    ),
    "stream-clean": ProtocolConfig(kind="stream-qkd", block_size=40),
    "stream-noisy": ProtocolConfig(
        kind="stream-qkd", block_size=40, threshold=0.2,
        noise=NoiseSpec("depolarizing", 0.1),
    ),
    "stream-probed": ProtocolConfig(
        kind="stream-qkd", block_size=40, threshold=0.2,
        adversary=AdversarySpec("probe", theta=0.4),
        noise=NoiseSpec("bit-flip", 0.02),
    ),
    "stream-intercepted": ProtocolConfig(
        kind="stream-qkd", block_size=40, threshold=0.5,
        adversary=AdversarySpec("quantum-intercept-resend", attack_fraction=0.5),
    ),
    "pop-clean": ProtocolConfig(
        kind="pop-qsdc", block_size=8, message_bits=(1, 0, 1, 1, 0, 0, 1, 0),
    ),
    "pop-noisy": ProtocolConfig(
        kind="pop-qsdc", block_size=14, threshold=0.05, message_bits=(1, 0, 1, 1),
        noise=NoiseSpec("depolarizing", 0.03),
    ),
    "pop-probed": ProtocolConfig(
        kind="pop-qsdc", block_size=20, threshold=0.05, message_bits=(1, 0),
        adversary=AdversarySpec("probe", theta=0.3, guess_pairing=True),
    ),
    "pop-probed-exact": ProtocolConfig(
        kind="pop-qsdc", block_size=2, threshold=0.01, message_bits=(1,),
        adversary=AdversarySpec("probe", theta=0.3),
    ),
    # measurement inside a permuted block: product codes 4-19 in the engine
    "pop-intercepted": ProtocolConfig(
        kind="pop-qsdc", block_size=40, threshold=0.3, message_bits=(1,),
        adversary=AdversarySpec("quantum-intercept-resend", attack_fraction=0.3),
    ),
    # probes and noise on both blocks; seed 2 aborts on the second check
    "pop-probed-noisy": ProtocolConfig(
        kind="pop-qsdc", block_size=32, threshold=0.1, message_bits=(1, 0, 1),
        adversary=AdversarySpec("probe", theta=0.4),
        noise=NoiseSpec("depolarizing", 0.05),
    ),
    "stream-1000": ProtocolConfig(
        kind="stream-qkd", block_size=1000, threshold=0.11, check_fraction=0.5,
        adversary=AdversarySpec("probe", theta=0.4),
        noise=NoiseSpec("depolarizing", 0.01),
    ),
}
SEEDS = (1, 2)

# clean and exactly scored pop-qsdc documents hold no seed-dependent field,
# so their two seeds share a digest
GOLDEN = {
    ('glt2s-attacked', 1): 'e9ae13a395c06bed0a7d6df879553a0822c1abc1436f864effe50c9ea9c95487',
    ('glt2s-attacked', 2): 'a64a6c2ef275e388898aaa112efda199ca56295dcf7cc01747c999d455dd6ad4',
    ('glt2s-clean', 1): '3cd077e4ec292cb003427a4c8b20496a8a9c05a5bc563d7fb45898a1990795f4',
    ('glt2s-clean', 2): '487c2e0d2908eeb140017e938c4662cae6c1c1cff97097b1c4380aada7bb8447',
    ('glt2s-partial', 1): '2da5ad58972fc4135885c39847343f0d3fddfe29acff7af965525b2b2df9aed6',
    ('glt2s-partial', 2): '4ab20ac44be867e9f987a40c0191c19b431fa84fea50e65d9c7fcd3eb37f8555',
    ('pop-clean', 1): 'ec4209f994db799371a1464a64f7b34c6e4d637a43b0dac79c5b524bf2ef87f3',
    ('pop-clean', 2): 'ec4209f994db799371a1464a64f7b34c6e4d637a43b0dac79c5b524bf2ef87f3',
    ('pop-intercepted', 1): '584e6033ac6ba923eca26b3b7cb10d4c704826d8d135d404cd849b9becf2b331',
    ('pop-intercepted', 2): '39d6a3096c523859c64dc42b0d5d090e725f37c7d6ab60e1fa717e91a559fb58',
    ('pop-noisy', 1): 'a1be7741d69a50a2bdf165ea0bd41e2cb2cf1302a669bb69d4d03b048a317190',
    ('pop-noisy', 2): 'bbee07e1fac11ed2ac573f2d34965eb88b4dcb69c82691f83da51c5a2591fb1b',
    ('pop-probed', 1): '60aa7a1559c118079501f85fcfa240929d3d5c8c7380f1476efd0c71fd7fc3b3',
    ('pop-probed', 2): '492c27a1a4d982627cb43d9fdd36895bfe8b9e1704d7d784809fb56451419669',
    ('pop-probed-exact', 1): '168abb5ded3a11b6525fd5fcde50fd580e33248aa6541555bf73699988dd5f9c',
    ('pop-probed-exact', 2): '168abb5ded3a11b6525fd5fcde50fd580e33248aa6541555bf73699988dd5f9c',
    ('pop-probed-noisy', 1): 'f2d7c148ca47ac38f165e0e63e7d2a6fc9e78b336cac0676839d2369cda51cc1',
    ('pop-probed-noisy', 2): '45f6b44245fe966393d0d99703a65fa27eb4d582d6964f63ae403cf1ee7da097',
    ('stream-1000', 1): 'bb40da98b6af5aa9ec03c12219e20661a6aba7453d6ee72bac3ad146eed43f37',
    ('stream-1000', 2): '5949186f20ebb7b1ab4291cf69358ce5bf6f2adf74bcf1f54c5e5cac39747806',
    ('stream-clean', 1): 'abadb0b27c871d0ac75c48f852123d7e03eb57e74c9d48de247f706fdfaa742c',
    ('stream-clean', 2): '9f5a35339d5c861fecdce1ddac4aedc327f488711a3792cd6a0791d9159d8c7a',
    ('stream-intercepted', 1): 'f63487b4a9470ee04ecd0b1f0aafc118f8131617a06bd086c539655e9607008f',
    ('stream-intercepted', 2): '4a4a0e3c46d032f98f95baeab3ccfa761337859a7007816f6af05b965fe85ede',
    ('stream-noisy', 1): '40199f11c417ab3c79399b5b2eecb7357563774f9c699ffaefa454de89bc37bb',
    ('stream-noisy', 2): '151dcb420f1583e76f0112e5d106424a2d214bd48c50f7d2ee2513fe7a4be65b',
    ('stream-probed', 1): '5a76e32c7ff503fa80dd0eea888519a09522694d345f200e16451e0538d4c6cc',
    ('stream-probed', 2): '7b2f6a8195acec6b9d161c6ed0b1c1c2a02708ea9a8c3fa602ba6459b9e406fa',
}


def document_text(result) -> str:
    """The run document exactly as ``RunResult.write_json`` writes it."""
    buffer = io.StringIO()
    result.write_json(buffer)
    return buffer.getvalue()


def result_digest(name: str, seed: int) -> str:
    text = document_text(run(CONFIGS[name], seed=seed))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_result_document_digest(name, seed):
    assert result_digest(name, seed) == GOLDEN[(name, seed)]


# runs beyond the goldens whose documents take the writer's other branches
EXTRA_RESULTS = {
    # payloads are [] on abort; the attack report's events are a list
    "stream-aborted": lambda: run(ProtocolConfig(
        kind="stream-qkd", block_size=40, threshold=0.0,
        adversary=AdversarySpec("quantum-intercept-resend"),
    ), seed=3),
    # no attack report and no verdict: both null
    "no-report-no-verdict": lambda: dataclasses.replace(
        run(CONFIGS["stream-clean"], seed=1), verdict=None, attack_report=None
    ),
    # a pairing guess past the exact limit: guess fields set, information null
    "pop-guess-large": lambda: run(ProtocolConfig(
        kind="pop-qsdc", block_size=70, threshold=0.05, message_bits=(1, 0, 1),
        adversary=AdversarySpec("probe", theta=0.2, guess_pairing=True),
    ), seed=4),
    # a transcript run longer than one write chunk
    "stream-10k": lambda: run(ProtocolConfig(
        kind="stream-qkd", block_size=10_000, threshold=0.2,
        adversary=AdversarySpec("probe", theta=0.4), noise=NoiseSpec("depolarizing", 0.01),
    ), seed=5),
}
ORACLE_CASES = [(name, seed) for name in sorted(CONFIGS) for seed in SEEDS] + [
    (name, None) for name in EXTRA_RESULTS
]


@pytest.mark.parametrize("name, seed", ORACLE_CASES)
def test_written_document_matches_json_dumps(name, seed):
    result = run(CONFIGS[name], seed=seed) if seed is not None else EXTRA_RESULTS[name]()
    doc = result.to_json_dict()
    assert document_text(result) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if name == "stream-aborted":
        assert result.outcome == "aborted" and doc["alice_payload"] == []
    if name == "no-report-no-verdict":
        assert doc["verdict"] is None and doc["attack_report"] is None
    if name == "pop-guess-large":
        assert doc["attack_report"]["guess_success_empirical"] is not None


if __name__ == "__main__":
    for name in sorted(CONFIGS):
        for seed in SEEDS:
            print(f"    ({name!r}, {seed}): {result_digest(name, seed)!r},")
