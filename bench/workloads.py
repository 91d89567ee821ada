"""The benchmark's four workloads: configs, one op each, output checks.

Each workload is closed-loop with one client: the harness calls ``call``
(the timed part), then ``collect`` and ``check`` (untimed).  Per-op seeds
come from ``op_seed`` over the benchmark's workload seed and the op
index; orthosim only ever sees the configs and those seeds.  The checks
use reference values recorded here, never values the program computes
during the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import orthosim

RESULT_SCHEMA = "orthosim.run-result/v1"

# stream-qkd, probe theta=0.4: exact streaming Holevo information per payload bit
STREAM_PROBE_EVE_INFORMATION = 0.04621024858758632

POP_EXACT_THETAS = (math.pi / 8, math.pi / 4, math.pi / 2)
# per theta: pop_eve_information(theta, 3) / 2 and stream_eve_information(theta) / 2
POP_EXACT_EVE_INFORMATION = (0.003111313375315968, 0.026511013150513667, 0.1949087115355986)
STREAM_EVE_INFORMATION = (0.04440719613778818, 0.19523697446328947, 0.5)

# pop-cli: fixed message filling the capacity (2N // r = 2000 // 7 = 285 bits)
POP_CLI_MESSAGE_BITS = 285
_MESSAGE_DIGEST = hashlib.sha512(b"orthosim pop-cli benchmark message").digest()
POP_CLI_MESSAGE = tuple((_MESSAGE_DIGEST[i // 8] >> (i % 8)) & 1 for i in range(POP_CLI_MESSAGE_BITS))
# the repetition code's per-bit design failure bound for the message
REPETITION_DESIGN_BOUND = 1e-3


def op_seed(workload_seed: int, *parts: object) -> int:
    """Seed for one op (or one point of an op), fixed by the workload seed."""
    text = ":".join(str(p) for p in (workload_seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


class GltEscape:
    """One escape curve: J=3, K=2, full check, full intercept-resend."""

    name = "glt-escape"
    unit = "gbit-trials"
    fiducials, outcomes = 3, 2
    gbit_counts = (1, 2, 5, 10)
    trials = 1000
    units_per_op = trials * sum(gbit_counts)

    def __init__(self, workdir: Path) -> None:
        self.configs = [
            orthosim.ProtocolConfig(
                kind="glt2s", num_gbits=n,
                fiducial=orthosim.FiducialSpec(self.fiducials, self.outcomes),
                check_fraction=1.0, threshold=0.0,
                adversary=orthosim.AdversarySpec("glt-intercept-resend"),
            ).ensure_valid()
            for n in self.gbit_counts
        ]

    def call(self, seed: int, index: int):
        return tuple(
            orthosim.glt_escape_trials(cfg, self.trials, seed=op_seed(seed, index, k))
            for k, cfg in enumerate(self.configs)
        )

    def collect(self, raw, index: int):
        return raw

    def check(self, estimates, index: int) -> bool:
        if len(estimates) != len(self.gbit_counts):
            return False
        j, k = self.fiducials, self.outcomes
        for n, est in zip(self.gbit_counts, estimates):
            exact = (1.0 - (j - 1) / j * (k - 1) / k) ** n
            if est.trials != self.trials or abs(est.analytic - exact) > 1e-12:
                return False
            sigma = math.sqrt(exact * (1.0 - exact) / self.trials)
            if abs(est.escapes / self.trials - exact) > 5.0 * sigma:
                return False
        return True


class StreamProbe:
    """stream-qkd, N=1000, probe theta=0.4, depolarizing p=0.01."""

    name = "stream-probe"
    unit = "pairs"
    block_size = 1000
    units_per_op = block_size

    def __init__(self, workdir: Path) -> None:
        self.config = orthosim.ProtocolConfig(
            kind="stream-qkd", block_size=self.block_size, threshold=0.11,
            check_fraction=0.5,
            adversary=orthosim.AdversarySpec("probe", theta=0.4),
            noise=orthosim.NoiseSpec("depolarizing", 0.01),
        ).ensure_valid()

    def call(self, seed: int, index: int):
        return orthosim.run(self.config, seed=op_seed(seed, index))

    def collect(self, raw, index: int) -> dict:
        return raw.to_json_dict()

    def check(self, doc: dict, index: int) -> bool:
        key_bits = 2 * (self.block_size - round(0.5 * self.block_size))
        report = doc["attack_report"] or {}
        return (
            doc["outcome"] == "completed"
            and len(doc["alice_payload"]) == key_bits
            and len(doc["bob_payload"]) == key_bits
            and report.get("eve_information") is not None
            and abs(report["eve_information"] - STREAM_PROBE_EVE_INFORMATION) <= 1e-9
        )


POP_CLI_INI = """\
[protocol]
schema = orthosim.config/v1
kind = pop-qsdc
seed = 4
check_fraction = 0.5
threshold = 0.05
payload_role = message
block_size = 1000
message = {message}

[noise]
kind = depolarizing
probability = 0.01
"""


class PopCli:
    """``orthosim run --config`` on pop-qsdc, N=1000, noisy, one trial."""

    name = "pop-cli"
    unit = "pairs"
    units_per_op = 3 * 1000
    stem = "pop_qsdc_noisy"

    def __init__(self, workdir: Path) -> None:
        self.ini = workdir / f"{self.stem}.ini"
        self.out = workdir / "out"
        self.ini.write_text(
            POP_CLI_INI.format(message="".join(map(str, POP_CLI_MESSAGE))), encoding="utf-8"
        )
        orthosim.load_config(str(self.ini)).ensure_valid()
        self.bits_sent = 0
        self.bits_flipped = 0
        self.flipped_ops: list[int] = []

    def call(self, seed: int, index: int):
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI prints one line per run
            return orthosim.cli.main(
                ["run", "--config", str(self.ini), "--seed", str(op_seed(seed, index)),
                 "--out", str(self.out)]
            )

    def collect(self, exit_code, index: int) -> dict:
        """Read and remove what the op wrote, so the next op starts clean."""
        files = {}
        for suffix in (".csv", ".meta.json", ".result.json"):
            path = self.out / f"{self.stem}{suffix}"
            files[suffix] = path.read_text(encoding="utf-8") if path.exists() else None
        shutil.rmtree(self.out, ignore_errors=True)
        return {"exit": exit_code, "files": files}

    def check(self, output: dict, index: int) -> bool:
        files = output["files"]
        if output["exit"] != 0 or any(text is None for text in files.values()):
            return False
        doc = json.loads(files[".result.json"])
        if doc.get("schema") != RESULT_SCHEMA or doc.get("outcome") != "completed":
            return False
        if tuple(doc["alice_payload"]) != POP_CLI_MESSAGE:
            return False
        received = doc["bob_payload"]
        if len(received) != POP_CLI_MESSAGE_BITS:
            return False
        flipped = sum(a != b for a, b in zip(POP_CLI_MESSAGE, received))
        self.bits_sent += POP_CLI_MESSAGE_BITS
        self.bits_flipped += flipped
        if flipped:
            self.flipped_ops.append(index)
        return True

    def failed_in_aggregate(self) -> list[int]:
        """Ops to count as failed when the run's bit-error rate breaks the design bound.

        One op may legitimately flip a bit; only the aggregate rate over
        the run is held to the bound, with five binomial sigmas of slack.
        """
        mean = self.bits_sent * REPETITION_DESIGN_BOUND
        slack = 5.0 * math.sqrt(mean * (1.0 - REPETITION_DESIGN_BOUND)) + 1.0
        return list(self.flipped_ops) if self.bits_flipped > mean + slack else []


class PopExact:
    """run(block_reduce(stream-qkd N=3 with a probe)), theta cycling by op."""

    name = "pop-exact"
    unit = "reduced-runs"
    units_per_op = 1

    def __init__(self, workdir: Path) -> None:
        self.sources = [
            orthosim.ProtocolConfig(
                kind="stream-qkd", block_size=3, threshold=0.01, check_fraction=0.5,
                adversary=orthosim.AdversarySpec("probe", theta=theta),
            ).ensure_valid()
            for theta in POP_EXACT_THETAS
        ]

    def call(self, seed: int, index: int):
        config = orthosim.block_reduce(self.sources[index % len(self.sources)])
        return orthosim.run(config, seed=op_seed(seed, index))

    def collect(self, raw, index: int) -> dict:
        return raw.to_json_dict()

    def check(self, doc: dict, index: int) -> bool:
        k = index % len(POP_EXACT_THETAS)
        info = (doc["attack_report"] or {}).get("eve_information")
        return (
            doc["kind"] == "pop-qsdc"
            and info is not None
            and abs(info - POP_EXACT_EVE_INFORMATION[k]) <= 1e-9
            and info < STREAM_EVE_INFORMATION[k]
        )


WORKLOADS = {w.name: w for w in (GltEscape, StreamProbe, PopCli, PopExact)}
