"""gaplab benchmark: run one workload in fresh processes and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs closed-loop with one caller, through gaplab.cli.run, in
processes of its own that import gaplab from the checkout's src/ with BLAS
pinned to one thread.  Untraced, SETUP_PROCESSES processes run one after
another: each measures its own set-up and then times the whole rounds of
ops that fit in its part of --seconds.  Traced, one process times ops
untraced and then under the span recorder.  The report lines name every
metric with its unit and sample count; the last line is one JSON object
with correct, attempted, failed and the metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import ERROR_FLOOR, WORKLOADS  # noqa: E402

# each untraced run sets up this many fresh processes; two keep a ladder
# run (two set-ups and two timed ops of 7-12 s) within the time budget
SETUP_PROCESSES = 2
RUN_LIMIT_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10
DOUBLE_DIGITS = 16.0


class BenchError(RuntimeError):
    pass


def provenance(seed: int) -> dict:
    info = {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "cpu": "unknown", "numpy": "unknown",
            "blas": "unknown", "commit": _git_commit()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy as np

        info["numpy"] = np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError, ValueError):
        pass
    return info


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(name: str, seed: int, seconds: float, trace: int, probe: int, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--probe", str(probe)]
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONPATH", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{name}: out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: worker exceeded {RUN_LIMIT_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _tail(values: list[float], q: int) -> float | None:
    """The q-th percentile, when at least TAIL_SAMPLES samples lie beyond it."""
    if len(values) * (100 - q) / 100 < TAIL_SAMPLES:
        return None
    return statistics.quantiles(values, n=100)[q - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result, its metrics and the report rows."""
    wl = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        workers = [_worker(name, seed, seconds, 1, 0, deadline)]
    else:
        # every process times at least one round, so even the ladder op
        # gets one timed sample per process
        workers = [
            _worker(name, seed, seconds / SETUP_PROCESSES, 0,
                    int(wl.max_level_probe and k == SETUP_PROCESSES - 1), deadline)
            for k in range(SETUP_PROCESSES)
        ]
    ops = [d for w in workers for d in w["op_s"]]
    timed_failed = sum(w["timed_failed"] for w in workers)
    accuracy = min(w["accuracy_digits"] for w in workers)
    residuals = [r for w in workers for r in w["residuals"]]
    rows = []  # (metric, value, unit, samples)

    def row(metric, value, unit, samples):
        rows.append((metric, value, unit, samples))

    if not trace:
        row("setup_s", statistics.median(w["setup_s"] for w in workers), "s", len(workers))
    row("op_p50_s", statistics.median(ops), "s", len(ops))
    p90 = _tail(ops, 90)
    if p90 is not None:
        row("op_p90_s", p90, "s", len(ops))
    row("ops_per_s", len(ops) / sum(ops), "1/s", len(ops))
    row("error_rate", timed_failed / len(ops), "failed/attempted", len(ops))
    if not trace:
        row("peak_rss_mb", statistics.median(w["peak_rss_mb"] for w in workers), "MB", len(workers))
    values = sum(w["oracle_values"] for w in workers)
    row("accuracy_digits", accuracy, "digits", values)
    row("digits_lost", DOUBLE_DIGITS - accuracy, "digits", values)
    if residuals:
        worst = max(max(abs(r) for r in residuals), ERROR_FLOOR)
        row("sumrule_digits", -math.log10(worst), "digits", len(residuals))
    for w in workers:
        if "max_level" in w:
            row("max_level", w["max_level"], "level", 1)
    if trace:
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
        for metric, value in workers[0]["layers"].items():
            row(metric, value, units[metric], len(ops))

    failed = sum(w["failed"] for w in workers)
    return {
        "correct": failed == 0,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": failed,
        "rows": rows,
        "failures": list(dict.fromkeys(f for w in workers for f in w["failures"]))[:5],
    }


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def listed_metrics(result: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json lists for this mode, with their units."""
    values = {metric: value for metric, value, _, _ in result["rows"]}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in _spec()["per_layer" if trace else "end_to_end"]}


def report(name: str, seed: int, seconds: float, trace: bool, result: dict) -> None:
    print(f"# workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("# provenance " + json.dumps(provenance(seed), sort_keys=True))
    print(f"# correct {result['correct']}  attempted {result['attempted']}  failed {result['failed']}")
    for failure in result["failures"]:
        print(f"# first misses: {failure}")
    print(f"{'metric':52s} {'value':>16s} {'unit':>17s} {'samples':>8s}")
    for metric, value, unit, samples in result["rows"]:
        print(f"{metric:52s} {value:16.6g} {unit:>17s} {samples:8d}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gaplab", "cli.py")):
        print(f"bench: no gaplab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, trace)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        report(name, args.seed, args.seconds, trace, result)
        print(json.dumps({
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": listed_metrics(result, trace),
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
