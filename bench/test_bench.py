"""Self-tests of the benchmark harness; run with ``python3 -m pytest bench``.

They check the three properties the numbers rely on: tracing does not
change what an op computes, tracing leaves orthosim exactly as it found
it, and a wrong output is counted as failed.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

orthosim = run.import_orthosim()

from tracing import TRACED, Tracer, _resolve  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 20261017


@pytest.fixture
def workdir():
    path = run.WORK / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _output(workload, index):
    return workload.collect(workload.call(SEED, index), index)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_op_returns_the_untraced_result(name, workdir):
    workload = WORKLOADS[name](workdir)
    index = 4  # pop-exact: theta = pi/4
    plain = _output(workload, index)
    tracer = Tracer()
    tracer.op_id = index
    tracer.install()
    try:
        traced = _output(workload, index)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert workload.check(traced, index)
    assert len(tracer.start) > 0


def test_tracer_puts_every_original_back(workdir):
    originals = {(owner, attr): _resolve(owner).__dict__[attr] for _, owner, attr in TRACED}
    workload = WORKLOADS["pop-cli"](workdir)
    tracer = Tracer()
    tracer.install()
    try:
        rebound = tracer.rebound()
        # module-level aliases made by ``from ... import`` are wrapped too
        assert orthosim.cli.run is not originals[("orthosim.protocols", "run")]
        assert orthosim.protocols.sample_outcome is not originals[("orthosim.gpt", "sample_outcome")]
        assert orthosim.metrics.holevo_information is not originals[
            ("orthosim.quantum", "holevo_information")
        ]
        workload.collect(workload.call(SEED, 0), 0)
    finally:
        tracer.uninstall()
    assert len(rebound) > len(TRACED)
    for owner, key, original in rebound:
        current = owner[key] if isinstance(owner, dict) else vars(owner)[key]
        assert current is original, (owner, key)
    for (owner, attr), original in originals.items():
        assert _resolve(owner).__dict__[attr] is original


def _corrupt(name, output):
    if name == "glt-escape":
        first = output[0]
        return (type(first)(first.trials, first.trials, first.analytic),) + output[1:]
    if name == "pop-cli":
        doc = output["files"][".result.json"].replace('"outcome": "completed"', '"outcome": "aborted"')
        return {**output, "files": {**output["files"], ".result.json": doc}}
    report = dict(output["attack_report"], eve_information=output["attack_report"]["eve_information"] + 1e-6)
    return {**output, "attack_report": report}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_output_counts_as_failed(name, workdir, monkeypatch):
    base = WORKLOADS[name]

    class Corrupted(base):
        def collect(self, raw, index):
            return _corrupt(name, super().collect(raw, index))

    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    args = argparse.Namespace(workload=name, seed=SEED, seconds=0.01)
    measured = run.run_untraced(args, Corrupted(workdir))
    assert measured["times"]
    assert len(measured["failed"]) == len(measured["times"])


def test_flipped_message_bits_beyond_the_design_bound_fail_the_run(workdir):
    workload = WORKLOADS["pop-cli"](workdir)
    output = _output(workload, 0)
    assert workload.check(output, 0) and workload.failed_in_aggregate() == []
    parsed = json.loads(output["files"][".result.json"])
    parsed["bob_payload"] = [1 - b for b in parsed["bob_payload"]]
    output["files"][".result.json"] = json.dumps(parsed)
    assert workload.check(output, 1)
    assert workload.failed_in_aggregate() == [1]
