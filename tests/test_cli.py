"""Experiment driver: subcommands, outputs, determinism, exit codes."""

import csv
import json
import math
import tracemalloc
from pathlib import Path

import pytest

from orthosim.adversary import stream_eve_information
from orthosim.cli import BUILTINS, COLUMNS, main
from orthosim.config import AdversarySpec, NoiseSpec, ProtocolConfig, dump_config, load_config
from orthosim.protocols import RESULT_SCHEMA, run

from conftest import assert_frequency
from oracle import exhaustive_pop_information, multiset_pop_information

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


# ---------------------------------------------------------------- shipped configs


@pytest.mark.parametrize(
    "name", ["glt2s_baseline.ini", "stream_qkd_probe.ini", "pop_qsdc_noisy.ini"]
)
def test_shipped_configs_validate(name, capsys):
    assert load_config(str(CONFIG_DIR / name)).validate() == []
    assert main(["validate", "--config", str(CONFIG_DIR / name)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


# ---------------------------------------------------------------- validate


def test_validate_reports_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[protocol]\nkind = pop-qsdc\nblock_size = 2\nmessage = 11111\n")
    assert main(["validate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "exceeds capacity" in err


def test_validate_missing_file(capsys):
    assert main(["validate", "--config", "/nonexistent/x.ini"]) == 1
    assert "not found" in capsys.readouterr().err


def test_validate_parse_failure_names_position(tmp_path, capsys):
    bad = tmp_path / "mangled.ini"
    bad.write_text("[protocol\nkind = glt2s\n")
    assert main(["validate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "parse failure" in err
    assert "line" in err  # parser reports the offending line


# ---------------------------------------------------------------- list-builtins


def test_list_builtins_names_everything(capsys):
    assert main(["list-builtins"]) == 0
    out = capsys.readouterr().out
    for name in BUILTINS:
        assert name in out


# ---------------------------------------------------------------- built-in runs


def test_escape_curve_table(tmp_path):
    assert main(["run", "--builtin", "escape-curve", "--trials", "400",
                 "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "escape-curve.csv")
    assert [r["value"] for r in rows] == [str(n) for n in range(1, 11)]
    for row in rows:
        n = int(row["value"])
        assert float(row["escape_analytic"]) == pytest.approx(0.75**n)
        survived = round(float(row["escape_empirical"]) * 400)
        assert_frequency(survived, 400, 0.75**n, nsigma=5)
    meta = json.loads((tmp_path / "escape-curve.meta.json").read_text())
    assert meta["schema"] == "orthosim.experiment/v1"
    assert meta["builtin"] == "escape-curve"
    assert meta["columns"] == list(COLUMNS)


def test_theta_sweep_is_exact_and_monotone(tmp_path):
    assert main(["run", "--builtin", "theta-sweep", "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "theta-sweep.csv")
    assert len(rows) == 16
    errors = [float(r["error_rate"]) for r in rows]
    info_ab = [float(r["info_ab"]) for r in rows]
    info_ae = [float(r["info_ae"]) for r in rows]
    assert errors[0] == 0.0
    assert info_ae[0] == 0.0
    assert all(a <= b + 1e-12 for a, b in zip(errors, errors[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(info_ab, info_ab[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(info_ae, info_ae[1:]))
    assert float(rows[-1]["value"]) == pytest.approx(math.pi / 2)


def test_block_advantage_matches_enumeration(tmp_path):
    assert main(["run", "--builtin", "block-advantage", "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "block-advantage.csv")
    assert len(rows) == 21
    for row in rows:
        theta = float(row["value"])
        oracle = {
            "stream": stream_eve_information,
            "pop-2": lambda t: exhaustive_pop_information(t, 2),
            "pop-3": lambda t: exhaustive_pop_information(t, 3),
            "pop-4": lambda t: multiset_pop_information(t, 4),
        }.get(row["variant"])
        if oracle is not None:
            assert float(row["info_ae"]) == pytest.approx(oracle(theta), abs=1e-12)
    for theta in {row["value"] for row in rows}:
        # per-pair information falls as the permuted block grows
        info = [float(r["info_ae"]) for r in rows if r["value"] == theta]
        assert all(b < a for a, b in zip(info, info[1:]))


def test_pairing_guess_frequencies(tmp_path):
    assert main(["run", "--builtin", "pairing-guess", "--trials", "3000",
                 "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "pairing-guess.csv")
    expected = {"2": 1 / 3, "3": 1 / 15}
    for row in rows:
        p = expected[row["value"]]
        assert float(row["guess_analytic"]) == pytest.approx(p)
        hits = round(float(row["guess_empirical"]) * 3000)
        assert_frequency(hits, 3000, p, nsigma=5)


def test_baseline_agreement_all_protocols(tmp_path):
    assert main(["run", "--builtin", "baseline-agreement", "--trials", "10",
                 "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "baseline-agreement.csv")
    assert [r["kind"] for r in rows] == ["glt2s", "stream-qkd", "pop-qsdc"]
    for row in rows:
        assert row["completed"] == "10"
        assert float(row["error_rate"]) == 0.0
        assert float(row["agreement"]) == 1.0


# ---------------------------------------------------------------- config runs


def test_config_run_writes_table_sidecar_and_document(tmp_path):
    assert main(["run", "--config", str(CONFIG_DIR / "pop_qsdc_noisy.ini"),
                 "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "pop_qsdc_noisy.csv")
    assert len(rows) == 1
    assert rows[0]["kind"] == "pop-qsdc"
    assert rows[0]["completed"] == "1"
    meta = json.loads((tmp_path / "pop_qsdc_noisy.meta.json").read_text())
    assert meta["config_digest"]
    doc = json.loads((tmp_path / "pop_qsdc_noisy.result.json").read_text())
    assert doc["schema"] == RESULT_SCHEMA
    assert doc["outcome"] == "completed"


def test_single_trial_config_runs_the_protocol_once(tmp_path, monkeypatch):
    import orthosim.cli as cli
    from orthosim.config import derive_seed
    from orthosim.protocols import run

    calls = []

    def counting_run(config, seed=None):
        calls.append(seed)
        return run(config, seed=seed)

    monkeypatch.setattr(cli, "run", counting_run)
    config_path = CONFIG_DIR / "pop_qsdc_noisy.ini"
    assert main(["run", "--config", str(config_path), "--seed", "9",
                 "--out", str(tmp_path)]) == 0
    assert calls == [derive_seed(9, 0, 0)]
    # the one run feeds both the table and the run document
    expected = run(load_config(str(config_path)), seed=derive_seed(9, 0, 0))
    doc = (tmp_path / "pop_qsdc_noisy.result.json").read_text()
    assert doc == json.dumps(expected.to_json_dict(), indent=2, sort_keys=True) + "\n"
    rows = read_rows(tmp_path / "pop_qsdc_noisy.csv")
    assert float(rows[0]["error_rate"]) == expected.error_rate


def test_probed_pop_config_computes_exact_information_once(tmp_path, monkeypatch):
    import orthosim.adversary as adversary

    calls = []
    entropies = adversary._pop_state_entropies

    def counting_entropies(theta, num_pairs):
        calls.append((theta, num_pairs))
        return entropies(theta, num_pairs)

    monkeypatch.setattr(adversary, "_pop_state_entropies", counting_entropies)
    adversary._pop_information.cache_clear()
    config_path = tmp_path / "pop_probe.ini"
    config_path.write_text(
        (CONFIG_DIR / "pop_qsdc_noisy.ini").read_text()
        + "\n[adversary]\nkind = probe\ntheta = 0.3\n"
    )
    assert main(["run", "--config", str(config_path), "--trials", "3",
                 "--out", str(tmp_path / "out")]) == 0
    assert calls == [(0.3, 7)]


def test_config_run_is_byte_deterministic(tmp_path):
    argv = ["run", "--config", str(CONFIG_DIR / "stream_qkd_probe.ini"),
            "--trials", "2"]
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    for name in ("stream_qkd_probe.csv", "stream_qkd_probe.meta.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_seed_override_changes_trials(tmp_path):
    base = ["run", "--config", str(CONFIG_DIR / "glt2s_baseline.ini")]
    assert main(base + ["--out", str(tmp_path / "a"), "--seed", "1"]) == 0
    assert main(base + ["--out", str(tmp_path / "b"), "--seed", "2"]) == 0
    a = json.loads((tmp_path / "a" / "glt2s_baseline.result.json").read_text())
    b = json.loads((tmp_path / "b" / "glt2s_baseline.result.json").read_text())
    assert a["alice_payload"] != b["alice_payload"]


def test_trials_override_respected(tmp_path):
    assert main(["run", "--config", str(CONFIG_DIR / "glt2s_baseline.ini"),
                 "--trials", "3", "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "glt2s_baseline.csv")
    assert rows[0]["trials"] == "3"
    assert not (tmp_path / "glt2s_baseline.result.json").exists()


def test_invalid_trial_count_fails_validation(tmp_path):
    assert main(["run", "--config", str(CONFIG_DIR / "glt2s_baseline.ini"),
                 "--trials", "0", "--out", str(tmp_path)]) == 1


def test_unwritable_output_is_runtime_failure(tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("file, not a directory")
    code = main(["run", "--builtin", "theta-sweep", "--out", str(blocker)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- metrics


def make_result(tmp_path, config_name="stream_qkd_probe.ini"):
    out = tmp_path / "runout"
    assert main(["run", "--config", str(CONFIG_DIR / config_name),
                 "--out", str(out)]) == 0
    return out / f"{Path(config_name).stem}.result.json"


def test_metrics_reports_saved_run(tmp_path, capsys):
    path = make_result(tmp_path)
    assert main(["metrics", "--result", str(path)]) == 0
    out = capsys.readouterr().out
    assert "kind = stream-qkd" in out
    assert "info_ab = " in out
    assert "info_ae = " in out
    assert "tampered_records = " in out
    assert "condition_holds = " in out


def test_streamed_run_document_lists_every_particle(tmp_path, capsys):
    ini = (CONFIG_DIR / "stream_qkd_probe.ini").read_text()
    config_path = tmp_path / "probe50.ini"
    config_path.write_text(ini.replace("block_size = 500", "block_size = 50"))
    path = make_result(tmp_path, config_path)
    assert len(json.loads(path.read_text())["transcript"]) == 102
    capsys.readouterr()
    assert main(["metrics", "--result", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "transcript_records = 102" in out
    assert "tampered_records = 100" in out


def test_large_probed_stream_document_is_written_in_small_memory(tmp_path, capsys):
    # the writer expands the transcript runs chunk by chunk: json.dumps of
    # the document dict peaked at 288 MB here, for a 36.9 MB file
    config = ProtocolConfig(
        kind="stream-qkd", seed=2, block_size=100_000, threshold=0.2,
        adversary=AdversarySpec("probe", theta=0.4), noise=NoiseSpec("depolarizing", 0.01),
    )
    result = run(config)
    path = tmp_path / "large.result.json"
    tracemalloc.start()
    try:
        with open(path, "w", encoding="utf-8") as handle:
            result.write_json(handle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6
    assert main(["metrics", "--result", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "transcript_records = 200002" in out
    assert "tampered_records = 200000" in out


def test_parser_is_built_once_per_process(tmp_path, capsys):
    import orthosim.cli as cli

    assert main(["list-builtins"]) == 0
    before = cli._build_parser.cache_info()
    assert main(["validate", "--config", str(CONFIG_DIR / "glt2s_baseline.ini")]) == 0
    assert main(["list-builtins"]) == 0
    after = cli._build_parser.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 2)
    # a reused parser keeps no state from one parse to the next
    listed = capsys.readouterr().out.split("ok\n")
    assert listed[0] == listed[1]
    with pytest.raises(SystemExit):
        main(["run", "--config", "a.ini", "--builtin", "theta-sweep"])
    assert main(["run", "--builtin", "theta-sweep", "--out", str(tmp_path)]) == 0


def test_metrics_threshold_override(tmp_path, capsys):
    path = make_result(tmp_path)
    assert main(["metrics", "--result", str(path), "--threshold", "0.2"]) == 0
    assert "threshold = 0.2" in capsys.readouterr().out


def test_metrics_rejects_wrong_schema(tmp_path, capsys):
    doc = tmp_path / "claims.json"
    doc.write_text(json.dumps({"schema": "other/v1"}))
    assert main(["metrics", "--result", str(doc)]) == 1
    assert "schema" in capsys.readouterr().err


def test_metrics_rejects_malformed_json(tmp_path, capsys):
    doc = tmp_path / "broken.json"
    doc.write_text("{not json")
    assert main(["metrics", "--result", str(doc)]) == 1
    assert "malformed" in capsys.readouterr().err


def test_metrics_missing_file(capsys):
    assert main(["metrics", "--result", "/nonexistent/run.json"]) == 1
    assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------- roundtrip


def test_dump_then_run_loaded_config(tmp_path):
    cfg = load_config(str(CONFIG_DIR / "pop_qsdc_noisy.ini"))
    path = tmp_path / "copy.ini"
    dump_config(cfg, str(path))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "copy.result.json").exists()
