"""Span recorder that times gaplab's public functions from outside the package.

``SpanRecorder.install`` replaces each listed function, under its own name,
in every gaplab module that binds it (``jacobi`` has its own binding of
``potential.green_value``, ``cli`` of ``potential.solve_green``, and so on),
so calls between modules are timed as well as calls from the benchmark.
``uninstall`` puts the originals back.

Spans are kept in memory as (name, start, end, parent, op) and written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np

TRACED = {
    "potential": ("solve_green", "green_value", "pw_sum", "equilibrium_quadrature"),
    "jacobi": ("make_measure", "coefficients_from_measure", "sturm_count", "gap_eigenvalues",
               "stable_gap_eigenvalues", "measure_m_boundary", "eigenvalue_green_sum"),
    "sumrule": ("n_step_sum_rule", "theorem_upper_bound", "relative_entropy",
                "equilibrium_coefficients"),
    "realset": ("locate", "fat_cantor"),
    "cli": ("run",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.op = -1
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # counters kept at the same boundaries as the spans
        self.counts: dict[str, float] = defaultdict(float)
        self.models: list = []  # GreenModels returned by solve_green this op
        self._candidates: dict[int, int] = {}  # stable_gap span -> size-N candidates

    # -- wrapping --------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "gaplab" or k.startswith("gaplab."))]
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"gaplab.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        rec = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = len(rec.names)
            rec.names.append(name)
            rec.parents.append(rec._stack[-1] if rec._stack else -1)
            rec.ops.append(rec.op)
            rec.ends.append(0.0)
            rec._stack.append(idx)
            rec.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.ends[idx] = clock()
                rec._stack.pop()
            rec._count(name, idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _count(self, name: str, idx: int, args, kwargs, result) -> None:
        c = self.counts
        if name == "jacobi.sturm_count":
            x = _arg(args, kwargs, 2, "x")
            c["jacobi.sturm_count.evals"] += np.size(x) * int(_arg(args, kwargs, 1, "N"))
        elif name == "jacobi.coefficients_from_measure":
            c["jacobi.coefficients_from_measure.pairs"] += int(_arg(args, kwargs, 1, "n"))
        elif name == "jacobi.gap_eigenvalues":
            parent = self.parents[idx]
            if (parent >= 0 and self.names[parent] == "jacobi.stable_gap_eigenvalues"
                    and parent not in self._candidates):
                # the first child runs at the parent's own size N
                self._candidates[parent] = len(result)
        elif name == "jacobi.stable_gap_eigenvalues":
            c["jacobi.stable_gap_eigenvalues.kept"] += len(result)
            c["jacobi.stable_gap_eigenvalues.candidates"] += self._candidates.pop(idx, 0)
        elif name == "potential.solve_green":
            self.models.append(result)

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child coverage."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros_like(dur)
        parents = np.asarray(self.parents, dtype=int)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, s in zip(self.names, dur - child):
            out[name] += float(s)
        return out

    def call_counts(self) -> dict[str, int]:
        out = dict.fromkeys(SPAN_NAMES, 0)
        for name in self.names:
            out[name] += 1
        return out

    def write(self, path: str, header: dict) -> None:
        """One JSON header line, then one [name, start, end, parent, op] per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header) + "\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                fh.write(json.dumps(row) + "\n")
