"""Run each workload twice on the same commit and compare the metrics that
must repeat exactly: error and accuracy figures, max_level, and the traced
counts (calls, evals, pairs, candidates, kept_ratio, period residual).

    python3 bench/selfcheck.py --seed 1 --seconds 2

Exits 1 if any of them differs between the two runs.
"""

from __future__ import annotations

import argparse
import sys

from run import WORKLOADS, run_workload

EXACT = {"error_rate", "accuracy_digits", "digits_lost", "sumrule_digits", "max_level",
         "potential.period_residual_max", "jacobi.stable_gap_eigenvalues.kept_ratio"}
EXACT_SUFFIXES = (".calls", ".evals", ".pairs", ".candidates")


def exact_rows(result: dict) -> dict:
    return {m: v for m, v, _, _ in result["rows"] if m in EXACT or m.endswith(EXACT_SUFFIXES)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=2.0)
    args = p.parse_args(argv)
    mismatches = 0
    for name in WORKLOADS:
        for trace in (False, True):
            first, second = (exact_rows(run_workload(name, args.seed, args.seconds, trace))
                             for _ in range(2))
            bad = sorted(m for m in first.keys() | second.keys() if first.get(m) != second.get(m))
            mismatches += len(bad)
            print(f"{name:18s} trace={int(trace)}  {len(first)} exact metrics  "
                  + ("repeat" if not bad else "DIFFER: " + ", ".join(bad)))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
