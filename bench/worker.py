"""One fresh benchmark process: set a workload up, time its ops, print JSON.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --probe 0|1

``run.py`` starts this script with BLAS pinned to one thread and reads the
JSON line it prints.  The set-up timer starts before numpy and gaplab are
imported and stops when the first op (the warm-up) returns.  Ops then run
in the whole rounds that fit in ``--seconds``, at least one; with
``--trace 1`` half of that time runs untraced and half under the span
recorder.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


class Runner:
    """Runs ops closed-loop and judges each output."""

    def __init__(self, cli, workload: str, items, new_checks):
        self.cli = cli
        self.workload = workload
        self.items = items
        self.new_checks = new_checks
        self.reference: dict[int, list[str]] = {}
        self.attempted = 0
        self.failed = 0  # misses, raises, warnings and changed bytes
        self.max_error = 0.0
        self.oracle_values = 0
        self.residuals: list[float] = []
        self.failures: list[str] = []

    def call(self, i: int):
        """Run item i's configs; the returned duration covers only cli.run."""
        outs, error = [], None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                for cfg in self.items[i].configs:
                    outs.append(self.cli.run(cfg))
            except Exception as exc:  # an op that raises is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            duration = time.perf_counter() - start
        return duration, outs, error, [str(w.message) for w in caught]

    def judge(self, i: int, outs, error, caught) -> str:
        """Check one op; returns 'ok', 'known' or 'failed'."""
        self.attempted += 1
        item = self.items[i]
        ck = self.new_checks()
        if error is not None:
            ck.misses.append(f"raised {error}")
        elif caught:
            ck.misses.append(f"warned {caught[0]}")
        else:
            ref = self.reference.setdefault(i, outs)
            if outs != ref:
                ck.misses.append("output bytes differ from this item's first output")
            try:
                item.check([json.loads(text) for text in outs], ck)
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                ck.misses.append(f"malformed output: {type(exc).__name__}: {exc}")
        self.max_error = max([self.max_error, *ck.errors])
        self.oracle_values += len(ck.errors)
        self.residuals.extend(ck.residuals)
        if ck.misses or ck.known:
            if len(self.failures) < 5:
                self.failures.append(f"{item.label}: {(ck.misses or ck.known)[0]}")
        if ck.misses:
            self.failed += 1
            return "failed"
        return "known" if ck.known else "ok"


def timed_rounds(runner: Runner, seconds: float, before=None, after=None):
    """The whole rounds that fit in `seconds`, at least one; op durations and statuses.

    A round starts only if one more round as long as the last one still
    ends within `seconds`.
    """
    durations, statuses = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i in range(len(runner.items)):
            if before:
                before(len(durations))
            duration, outs, error, caught = runner.call(i)
            if after:
                after()
            durations.append(duration)
            statuses.append(runner.judge(i, outs, error, caught))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return durations, statuses


def traced_rounds(runner: Runner, seconds: float) -> tuple[list[float], dict]:
    from gaplab import potential
    from spans import SPAN_NAMES, SpanRecorder

    rec = SpanRecorder()
    probe = {"assemble_s": 0.0, "residual_max": 0.0}

    def before(op_id):
        rec.op = op_id
        rec.models.clear()
        rec.active = True

    def after():
        # probes run outside every span and outside the op timer
        rec.active = False
        for model in rec.models:
            start = time.perf_counter()
            potential.model_from_json(potential.model_to_json(model))
            probe["assemble_s"] += time.perf_counter() - start
            res = potential.period_residuals(model)
            if len(res):
                probe["residual_max"] = max(probe["residual_max"], float(max(abs(res))))

    rec.install()
    try:
        durations, _ = timed_rounds(runner, seconds, before, after)
    finally:
        rec.uninstall()
    ops = len(durations)
    self_s = rec.self_times()
    calls = rec.call_counts()
    layers = {}
    for name in SPAN_NAMES:
        layers[f"{name}.calls"] = calls[name] / ops
        layers[f"{name}.self_s"] = self_s[name] / ops
    c = rec.counts
    layers["potential.assemble_s"] = probe["assemble_s"] / ops
    layers["potential.period_solve_s"] = (
        layers["potential.solve_green.self_s"] - layers["potential.assemble_s"])
    layers["potential.period_residual_max"] = probe["residual_max"]
    layers["jacobi.sturm_count.evals"] = c["jacobi.sturm_count.evals"] / ops
    layers["jacobi.coefficients_from_measure.pairs"] = c["jacobi.coefficients_from_measure.pairs"] / ops
    candidates = c["jacobi.stable_gap_eigenvalues.candidates"]
    layers["jacobi.stable_gap_eigenvalues.kept_ratio"] = (
        c["jacobi.stable_gap_eigenvalues.kept"] / candidates if candidates else 0.0)
    layers["jacobi.stable_gap_eigenvalues.candidates"] = candidates / ops
    os.makedirs(OUT_DIR, exist_ok=True)
    rec.write(os.path.join(OUT_DIR, f"spans-{runner.workload}.jsonl.gz"),
              {"workload": runner.workload, "ops": ops})
    return durations, layers


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from gaplab import cli
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    runner = Runner(cli, wl.name, wl.build(args.seed), workloads.Checks)
    _, outs, error, caught = runner.call(0)
    setup_s = time.perf_counter() - T0
    runner.judge(0, outs, error, caught)

    result = {"setup_s": setup_s}
    seconds = args.seconds / 2 if args.trace else args.seconds
    durations, statuses = timed_rounds(runner, seconds)
    result["op_s"] = durations
    result["timed_failed"] = sum(s != "ok" for s in statuses)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        traced, layers = traced_rounds(runner, seconds)
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(durations)
        result["layers"] = layers
    if args.probe and wl.max_level_probe:
        ladder = runner.reference.get(0)
        rows = json.loads(ladder[0])["rows"] if ladder else []
        result["max_level"] = workloads.max_level(cli, [row[3] for row in rows])
    floor, ceiling = workloads.ERROR_FLOOR, workloads.ERROR_CEILING
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        oracle_values=runner.oracle_values,
        accuracy_digits=-math.log10(max(runner.max_error, floor) if runner.oracle_values else ceiling),
        residuals=runner.residuals,
        failures=runner.failures,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
