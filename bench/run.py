"""Run one orthosim benchmark workload and print its metrics.

From the root of a source checkout:

    python3 bench/run.py --workload stream-probe --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics plus ``trace_overhead_frac``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  orthosim is imported from
``src/`` next to this directory and nowhere else; without it the
benchmark exits with code 2 and prints no result.

Timings are scaled to a reference speed.  The host's speed drifts by up
to 2x between and within runs, so after every op the harness times a
fixed pure-Python loop (``reference_loop``), and every reported time is
multiplied by ``REFERENCE_LOOP_MS`` over that loop's median in the same
process: it reads as milliseconds on a machine where the loop takes
``REFERENCE_LOOP_MS``.  The raw medians are printed beside them.
"""

import time

_STARTED = time.perf_counter()  # a --setup-probe child counts setup_s from here

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"
TRACES = BENCH / "traces"

# about the median time of reference_loop on the 2-CPU machine of the baseline;
# fixed, so scaled times from different runs and commits compare directly
REFERENCE_LOOP_MS = 0.25
REFERENCE_CHUNKS_PER_OP = 10
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 60
# highest percentile with at least ten ops beyond it at the default run length
TAIL_PERCENTILE = {"glt-escape": 85, "stream-probe": 80, "pop-cli": 70, "pop-exact": 85}

END_TO_END = (
    ("units_per_s", "units/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def reference_loop() -> int:
    """Fixed pure-Python work that measures how fast the host runs right now."""
    acc = 0
    for k in range(3000):
        acc += k * k % 7
    return acc


def time_reference(chunks: int, into: list) -> None:
    for _ in range(chunks):
        t0 = time.perf_counter()
        reference_loop()
        into.append(time.perf_counter() - t0)


def speed_scale(reference_s: list) -> float:
    """Factor that turns a raw time into a time at the reference speed."""
    return REFERENCE_LOOP_MS / 1000.0 / statistics.median(reference_s)


def import_orthosim():
    """Import orthosim from ``src/`` beside the benchmark, or raise BenchError."""
    if not (SRC / "orthosim" / "__init__.py").is_file():
        raise BenchError(f"no orthosim sources at {SRC / 'orthosim'}")
    # one BLAS thread, set before numpy loads: each op is one client on one
    # thread, and a second BLAS thread contending with it made the
    # exact-analytics ops up to 4x slower
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import orthosim
    import orthosim.cli  # noqa: F401 - the pop-cli workload calls orthosim.cli.main

    if Path(orthosim.__file__).resolve().parent != (SRC / "orthosim").resolve():
        raise BenchError(f"orthosim imported from {orthosim.__file__}, not {SRC}")
    return orthosim


def machine_info() -> dict:
    import numpy

    blas_threads = None
    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
                break
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads,
        "platform": platform.platform(),
    }


def one_op(workload, seed: int, index: int):
    """Time one op; returns (seconds, output or None, ok)."""
    t0 = time.perf_counter()
    try:
        raw = workload.call(seed, index)
    except Exception:  # noqa: BLE001 - a raising op counts as failed
        elapsed = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return elapsed, None, False
    elapsed = time.perf_counter() - t0
    try:
        output = workload.collect(raw, index)
        return elapsed, output, bool(workload.check(output, index))
    except Exception:  # noqa: BLE001 - an unreadable output counts as failed
        traceback.print_exc(file=sys.stderr)
        return elapsed, None, False


def make_workload(name: str, seed: int, workdir: Path):
    """Build the workload's configs and run its untimed warm-up op."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](workdir)
    _, _, ok = one_op(workload, seed, -1)
    if not ok:
        raise BenchError(f"{name}: warm-up op failed its output check")
    return workload


def percentile(values: list, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# ---------------------------------------------------------------- set-up probe


def setup_probe(args) -> int:
    """Child process: import, build configs, warm up; print the set-up time."""
    workdir = WORK / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import_orthosim()
        make_workload(args.workload, args.seed, workdir)
        print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def setup_once(args, repeat: int) -> float:
    """Raw set-up time of one fresh interpreter running setup_probe."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed + repeat)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"set-up probe exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------- runs


def run_untraced(args, workload) -> dict:
    """Closed loop of ops for args.seconds, with SETUP_REPEATS set-up probes spread over it.

    The probes run between ops at even points of the op window, so they
    see the same host speed as the ops and share their scale; the time
    they take is not counted against the window.
    """
    times, reference, failed, setup = [], [], [], []
    time_reference(REFERENCE_CHUNKS_PER_OP, reference)
    start = time.perf_counter()
    paused = 0.0
    index = 0
    while time.perf_counter() - paused - start < args.seconds:
        window = time.perf_counter() - paused - start
        if len(setup) < SETUP_REPEATS and window >= len(setup) * args.seconds / SETUP_REPEATS:
            t0 = time.perf_counter()
            setup.append(setup_once(args, len(setup)))
            paused += time.perf_counter() - t0
        elapsed, _, ok = one_op(workload, args.seed, index)
        times.append(elapsed)
        if not ok:
            failed.append(index)
        time_reference(REFERENCE_CHUNKS_PER_OP, reference)
        index += 1
    while len(setup) < SETUP_REPEATS:  # only when ops outlast the window's slots
        setup.append(setup_once(args, len(setup)))
    return {"times": times, "reference": reference, "failed": failed, "setup": setup}


def run_traced(args, workload, tracer) -> dict:
    """Alternate untraced (even index) and traced (odd index) ops."""
    untraced, traced, failed, traced_ids = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while time.perf_counter() < deadline:
        traced_op = index % 2 == 1
        if traced_op:
            tracer.op_id = index
            tracer.install()
        try:
            elapsed, _, ok = one_op(workload, args.seed, index)
        finally:
            if traced_op:
                tracer.uninstall()
        (traced if traced_op else untraced).append(elapsed)
        if traced_op:
            traced_ids.append(index)
        if not ok:
            failed.append(index)
        index += 1
    return {"untraced": untraced, "traced": traced, "failed": failed, "traced_ids": traced_ids}


def end_to_end_metrics(args, workload, measured: dict) -> dict:
    times = measured["times"]
    scale = speed_scale(measured["reference"])
    tail_pct = TAIL_PERCENTILE[args.workload]
    values = {
        "units_per_s": workload.units_per_op * len(times) / (sum(times) * scale),
        "op_ms_p50": statistics.median(times) * scale * 1000.0,
        "op_ms_tail": percentile(times, tail_pct) * scale * 1000.0,
        "setup_s": statistics.median(measured["setup"]) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"ops={len(times)} tail=p{tail_pct} unit={workload.unit} "
          f"units_per_op={workload.units_per_op} speed_scale={scale:.4f}")
    print(f"raw: op_ms_p50={statistics.median(times) * 1000:.3f} "
          f"op_ms_tail={percentile(times, tail_pct) * 1000:.3f} "
          f"setup_s={statistics.median(measured['setup']):.4f}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)

    import_orthosim()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            measured = run_traced(args, workload, tracer)
            ops = len(measured["untraced"]) + len(measured["traced"])
        else:
            measured = run_untraced(args, workload)
            ops = len(measured["times"])
        failed = set(measured["failed"])
        if hasattr(workload, "failed_in_aggregate"):
            # the warm-up op (index -1) is checked but not attempted
            failed.update(i for i in workload.failed_in_aggregate() if i >= 0)
        if args.trace:
            metrics = traced_metrics(args, tracer, measured)
        else:
            metrics = end_to_end_metrics(args, workload, measured)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"failed_frac = {len(failed) / ops:.6g} ratio ({len(failed)} of {ops} ops)")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not failed, "attempted": ops, "failed": len(failed),
                      "metrics": metrics}))
    return 0


def traced_metrics(args, tracer, measured: dict) -> dict:
    from tracing import per_layer_metric_names

    TRACES.mkdir(parents=True, exist_ok=True)
    spans_path = TRACES / f"{args.workload}.spans.tsv.gz"
    written = tracer.write_spans(spans_path)
    untraced_p50 = statistics.median(measured["untraced"])
    traced_p50 = statistics.median(measured["traced"])
    print(f"spans={written} -> {spans_path.relative_to(BENCH.parent)}")
    print(f"raw: untraced op_ms_p50={untraced_p50 * 1000:.3f} "
          f"traced op_ms_p50={traced_p50 * 1000:.3f}")
    values = tracer.per_op_metrics(measured["traced_ids"])
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in per_layer_metric_names()}
    metrics["trace_overhead_frac"] = {"value": traced_p50 / untraced_p50 - 1.0, "unit": "ratio"}
    return metrics


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)
