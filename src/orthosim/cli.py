"""Experiment driver.

Subcommands:
  run            execute a config file (or a named built-in experiment)
                 over seeded trials; emits a CSV table plus a JSON
                 metadata sidecar, and the full run document when a
                 single trial is requested
  validate       check a config file and report every diagnostic
  metrics        re-derive security metrics from a saved run document
  list-builtins  enumerate the built-in experiments

Exit codes: 0 success, 1 validation failure, 2 runtime failure.

Per-trial seeds are derive_seed(seed_base, point_index, trial_index), so
a fixed seed base reproduces every trial bit-for-bit regardless of
execution order, and outputs carry no timestamps: rerunning a fixed
(spec, seed) pair writes byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .adversary import (
    escape_probability,
    permutation_attack,
    pop_eve_information,
    stream_eve_information,
)
from .config import (
    AdversarySpec,
    ConfigValidationError,
    ProtocolConfig,
    config_digest,
    derive_seed,
    load_config,
)
from .gpt import FiducialSpec
from .metrics import (
    binary_entropy,
    check_qkd_condition,
    check_qsdc_condition,
    probe_family_sweep,
)
from .protocols import RESULT_SCHEMA, _glt_exchange, _rng_streams, run

__all__ = [
    "BUILTINS",
    "EXPERIMENT_SCHEMA",
    "ExperimentPoint",
    "main",
]

EXPERIMENT_SCHEMA = "orthosim.experiment/v1"

logger = logging.getLogger("orthosim")


@dataclass(frozen=True)
class ResultRow:
    """One aggregate line of an experiment table; None renders empty."""

    label: str
    kind: str
    variant: str = ""
    axis: str = ""
    value: object = ""
    trials: int = 0
    completed: Optional[int] = None
    error_rate: Optional[float] = None
    agreement: Optional[float] = None
    detection_rate: Optional[float] = None
    escape_analytic: Optional[float] = None
    escape_empirical: Optional[float] = None
    info_ab: Optional[float] = None
    info_ae: Optional[float] = None
    guess_analytic: Optional[float] = None
    guess_empirical: Optional[float] = None

    def cells(self) -> list[str]:
        values = (getattr(self, name) for name in COLUMNS)
        return ["" if v is None else repr(v) if isinstance(v, float) else str(v) for v in values]


# CSV columns: the ResultRow fields in order
COLUMNS = tuple(f.name for f in fields(ResultRow))


@dataclass(frozen=True)
class ExperimentPoint:
    """One config to run for a number of seeded trials."""

    config: ProtocolConfig
    trials: int
    seed_base: int
    label: str

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigValidationError(
                [f"trial count must be >= 1, got {self.trials} for {self.label!r}"]
            )
        self.config.ensure_valid()


def _run_point(point: ExperimentPoint, index: int) -> list:
    results = [
        run(point.config, seed=derive_seed(point.seed_base, index, t))
        for t in range(point.trials)
    ]
    logger.info("point %s: %d trials done", point.label, point.trials)
    return results


def _aggregate_point(point: ExperimentPoint, results: Sequence) -> ResultRow:
    completed = [r for r in results if r.outcome == "completed"]
    agreement = (
        sum(r.alice_payload == r.bob_payload for r in completed) / len(completed)
        if completed
        else None
    )
    escapes = [r.analytic_escape for r in (res.attack_report for res in results) if r]
    escapes = [e for e in escapes if e is not None]
    attacked = any(res.attack_report is not None for res in results)
    info_ab = [r.verdict.info_ab for r in results if r.verdict is not None]
    info_ae = [r.verdict.info_ae for r in results if r.verdict is not None]
    return ResultRow(
        label=point.label,
        kind=point.config.kind,
        trials=point.trials,
        completed=len(completed),
        error_rate=float(np.mean([r.error_rate for r in results])),
        agreement=agreement,
        detection_rate=sum(any(r.detection_events) for r in results) / len(results),
        escape_analytic=float(np.mean(escapes)) if escapes else None,
        escape_empirical=(
            sum(not any(r.detection_events) for r in results) / len(results)
            if attacked
            else None
        ),
        info_ab=float(np.mean(info_ab)) if info_ab else None,
        info_ae=float(np.mean(info_ae)) if info_ae else None,
    )


def _write_table(
    rows: Sequence[ResultRow], out_dir: str, stem: str, meta: dict
) -> tuple[Path, Path]:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    table_path = directory / f"{stem}.csv"
    with open(table_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow(row.cells())
    meta_doc = {"schema": EXPERIMENT_SCHEMA, "stem": stem, "rows": len(rows),
                "columns": list(COLUMNS), **meta}
    meta_path = directory / f"{stem}.meta.json"
    meta_path.write_text(json.dumps(meta_doc, indent=2, sort_keys=True) + "\n")
    return table_path, meta_path


# ---------------------------------------------------------------- built-ins


def _builtin_escape_curve(trials: int, seed: int) -> list[ResultRow]:
    rows = []
    for n in range(1, 11):
        cfg = ProtocolConfig(
            kind="glt2s", fiducial=FiducialSpec(2, 2), num_gbits=n,
            check_fraction=1.0,
            adversary=AdversarySpec("glt-intercept-resend"),
        ).ensure_valid()
        # every trial is a full exchange of one block; with every gbit
        # checked, a trial's error rate is the mean of its detection events
        rng, rng_eve, _ = _rng_streams(cfg, derive_seed(seed, n))
        events = _glt_exchange(cfg, rng, rng_eve, trials)[5]
        survived = trials - int(events.any(axis=1).sum())
        logger.info("escape-curve n=%d done", n)
        rows.append(ResultRow(
            label="escape-curve", kind="glt2s", axis="num_gbits", value=n,
            trials=trials, error_rate=float(events.mean(axis=1).mean()),
            detection_rate=1.0 - survived / trials,
            escape_analytic=escape_probability(2, 2, n), escape_empirical=survived / trials,
        ))
    return rows


def _builtin_theta_sweep(trials: int, seed: int) -> list[ResultRow]:
    grid = [i * math.pi / 30 for i in range(16)]
    return [
        ResultRow(
            label="theta-sweep", kind="stream-qkd", variant="exact",
            axis="theta", value=p.theta, trials=0,
            error_rate=p.error_rate, info_ab=p.info_ab, info_ae=p.info_ae,
        )
        for p in probe_family_sweep(grid)
    ]


def _builtin_block_advantage(trials: int, seed: int) -> list[ResultRow]:
    rows = []
    for theta in (math.pi / 8, math.pi / 4, math.pi / 2):
        rows.append(ResultRow(
            label="block-advantage", kind="stream-qkd", variant="stream",
            axis="theta", value=theta, trials=0,
            info_ae=stream_eve_information(theta),
        ))
        for n in (2, 3, 4, 8, 16, 32):
            rows.append(ResultRow(
                label="block-advantage", kind="pop-qsdc", variant=f"pop-{n}",
                axis="theta", value=theta, trials=0,
                info_ae=pop_eve_information(theta, n),
            ))
    return rows


def _builtin_pairing_guess(trials: int, seed: int) -> list[ResultRow]:
    rows = []
    for n in (2, 3):
        truth = [(2 * i, 2 * i + 1) for i in range(n)]
        report = permutation_attack(
            truth, np.random.default_rng(derive_seed(seed, n)), trials=trials
        )
        rows.append(ResultRow(
            label="pairing-guess", kind="pop-qsdc", axis="block_size", value=n,
            trials=trials,
            guess_analytic=report.guess_success_analytic,
            guess_empirical=report.guess_success_empirical,
        ))
    return rows


def _builtin_baseline_agreement(trials: int, seed: int) -> list[ResultRow]:
    configs = [
        ProtocolConfig(kind="glt2s", fiducial=FiducialSpec(2, 2), num_gbits=40),
        ProtocolConfig(kind="stream-qkd", block_size=20),
        ProtocolConfig(kind="pop-qsdc", block_size=4,
                       message_bits=(1, 0, 1, 1, 0, 0, 1, 0)),
    ]
    points = [ExperimentPoint(cfg, trials, seed, cfg.kind) for cfg in configs]
    return [_aggregate_point(p, _run_point(p, i)) for i, p in enumerate(points)]


BUILTINS: dict[str, tuple[str, int, Callable[[int, int], list[ResultRow]]]] = {
    "escape-curve": (
        "full intercept-resend survival vs gbit count, against (3/4)^n",
        2000, _builtin_escape_curve,
    ),
    "theta-sweep": (
        "exact probe-family (error, information) curves on a 16-point grid",
        0, _builtin_theta_sweep,
    ),
    "block-advantage": (
        "per-pair adversary information: streaming vs permuted blocks of 2 to 32 pairs",
        0, _builtin_block_advantage,
    ),
    "pairing-guess": (
        "uniform pairing-guess success at block sizes 2 and 3",
        20000, _builtin_pairing_guess,
    ),
    "baseline-agreement": (
        "noiseless completeness of all three protocols over seeded trials",
        100, _builtin_baseline_agreement,
    ),
}


# ---------------------------------------------------------------- subcommands


def _cmd_run(args: argparse.Namespace) -> int:
    if args.builtin is not None:
        description, default_trials, fn = BUILTINS[args.builtin]
        trials = args.trials if args.trials is not None else default_trials
        seed = args.seed if args.seed is not None else 0
        logger.info("running built-in %s: %s", args.builtin, description)
        rows = fn(trials, seed)
        _write_table(rows, args.out, args.builtin, {
            "builtin": args.builtin, "seed_base": seed, "trials": trials,
            "config_digest": None,
        })
        print(f"wrote {Path(args.out) / (args.builtin + '.csv')}")
        return 0
    config = load_config(args.config).ensure_valid()
    seed = args.seed if args.seed is not None else config.seed
    trials = args.trials if args.trials is not None else 1
    stem = Path(args.config).stem
    point = ExperimentPoint(config, trials, seed, stem)
    results = _run_point(point, 0)
    _write_table([_aggregate_point(point, results)], args.out, stem, {
        "seed_base": seed, "config_digest": config_digest(config), "trials": trials,
    })
    if trials == 1:  # the table's one run is also the full run document
        result = results[0]
        doc_path = Path(args.out) / f"{stem}.result.json"
        with open(doc_path, "w", encoding="utf-8") as handle:
            result.write_json(handle)
    print(f"wrote {Path(args.out) / (stem + '.csv')}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config)
    except ConfigValidationError as err:
        for d in err.diagnostics:
            print(f"diagnostic: {d}", file=sys.stderr)
        return 1
    diagnostics = config.validate()
    if diagnostics:
        for d in diagnostics:
            print(f"diagnostic: {d}", file=sys.stderr)
        return 1
    print("ok")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    path = Path(args.result)
    if not path.exists():
        print(f"diagnostic: result file not found: {path}", file=sys.stderr)
        return 1
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        print(f"diagnostic: malformed result document: {err}", file=sys.stderr)
        return 1
    if doc.get("schema") != RESULT_SCHEMA:
        print(f"diagnostic: unsupported result schema {doc.get('schema')!r}",
              file=sys.stderr)
        return 1
    error_rate = doc["error_rate"]
    threshold = args.threshold if args.threshold is not None else doc["threshold"]
    info_ab = 1.0 - binary_entropy(error_rate)
    verdict_doc = doc.get("verdict")
    report = doc.get("attack_report")
    info_ae = None
    if verdict_doc is not None:
        info_ae = verdict_doc["info_ae"]
    elif report is not None and report.get("eve_information") is not None:
        info_ae = report["eve_information"]
    records = doc.get("transcript", [])
    tampered = sum(1 for r in records if r.get("tampered"))
    print(f"kind = {doc['kind']}")
    print(f"security_class = {doc['security_class']}")
    print(f"outcome = {doc['outcome']}")
    print(f"error_rate = {error_rate!r}")
    print(f"threshold = {threshold!r}")
    print(f"info_ab = {info_ab!r}")
    print(f"info_ae = {'unknown' if info_ae is None else repr(info_ae)}")
    print(f"transcript_records = {len(records)}")
    print(f"tampered_records = {tampered}")
    print(f"detection_events = {sum(bool(e) for e in doc['detection_events'])}")
    if info_ae is not None:
        if doc["security_class"] == "QSDC" and verdict_doc and verdict_doc.get("block_size"):
            verdict = check_qsdc_condition(
                error_rate, threshold, info_ab, info_ae, verdict_doc["block_size"]
            )
        else:
            verdict = check_qkd_condition(error_rate, threshold, info_ab, info_ae)
        print(f"advantage_holds = {verdict.advantage_holds}")
        print(f"condition_holds = {verdict.condition_holds}")
    return 0


def _cmd_list_builtins(args: argparse.Namespace) -> int:
    for name, (description, default_trials, _) in sorted(BUILTINS.items()):
        suffix = f" (default trials: {default_trials})" if default_trials else " (exact)"
        print(f"{name}: {description}{suffix}")
    return 0


@functools.lru_cache(maxsize=1)  # parsing leaves the parser unchanged; build it once
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthosim",
        description="seeded protocol simulations and parameter sweeps",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log per-point progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config or built-in experiment")
    source = p_run.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="INI config file to run")
    source.add_argument("--builtin", choices=sorted(BUILTINS),
                        help="named built-in experiment")
    p_run.add_argument("--seed", type=int, default=None,
                       help="seed base override (default: config seed, or 0)")
    p_run.add_argument("--trials", type=int, default=None,
                       help="trial count override")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.set_defaults(handler=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(handler=_cmd_validate)

    p_met = sub.add_parser("metrics", help="metrics from a saved run document")
    p_met.add_argument("--result", required=True,
                       help="run document written by `run --trials 1`")
    p_met.add_argument("--threshold", type=float, default=None,
                       help="re-evaluate against this threshold")
    p_met.set_defaults(handler=_cmd_metrics)

    p_list = sub.add_parser("list-builtins", help="list built-in experiments")
    p_list.set_defaults(handler=_cmd_list_builtins)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(message)s", stream=sys.stderr,
    )
    try:
        return args.handler(args)
    except ConfigValidationError as err:
        for d in err.diagnostics:
            print(f"diagnostic: {d}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
