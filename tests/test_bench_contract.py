"""What bench/spans.py reads of gaplab: the traced names, the arguments its
counters take by position and name, and the call order one counter assumes.

A refactor that renames a traced function, reorders its arguments or
changes which size stable_gap_eigenvalues certifies first would otherwise
only show when ``bench/run.py --trace 1`` runs.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import pytest

import gaplab as G
from gaplab import jacobi

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(spans):
    for mod_name, fns in spans.TRACED.items():
        module = importlib.import_module(f"gaplab.{mod_name}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"gaplab.{mod_name}.{fn}"


def _counted_arguments():
    """(span name, position, parameter name) of every _arg call in SpanRecorder._count."""
    tree = ast.parse(SPANS_PATH.read_text())
    count = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "_count")
    out = []
    for branch in ast.walk(count):
        if not (isinstance(branch, ast.If) and isinstance(branch.test, ast.Compare)):
            continue
        span = branch.test.comparators[0].value
        for stmt in branch.body:
            for call in ast.walk(stmt):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg":
                    out.append((span, call.args[2].value, call.args[3].value))
    return out


def test_counted_arguments_keep_their_positions_and_names():
    found = _counted_arguments()
    assert {(s, p, n) for s, p, n in found} >= {
        ("jacobi.sturm_count", 2, "x"), ("jacobi.sturm_count", 1, "N"),
        ("jacobi.coefficients_from_measure", 1, "n"),
    }
    for span, pos, name in found:
        mod_name, fn = span.split(".")
        params = list(inspect.signature(getattr(getattr(G, mod_name), fn)).parameters)
        assert params[pos] == name, (span, params)


def test_candidates_are_the_first_gap_eigenvalues_call(spans, model_pm12, je_pm12, monkeypatch):
    # the recorder takes the candidates of a stable_gap_eigenvalues span from
    # its first gap_eigenvalues child, which must run at the span's own size N
    N = 60
    sizes = []
    real = jacobi.gap_eigenvalues

    def spy(J, model, n):
        sizes.append(n)
        return real(J, model, n)

    monkeypatch.setattr(jacobi, "gap_eigenvalues", spy)
    G.stable_gap_eigenvalues(je_pm12, model_pm12, N)
    assert sizes[0] == N
    monkeypatch.undo()

    rec = spans.SpanRecorder()
    rec.install()
    try:
        rec.active, rec.op = True, 0
        G.stable_gap_eigenvalues(je_pm12, model_pm12, N)
    finally:
        rec.active = False
        rec.uninstall()
    want = len(G.gap_eigenvalues(je_pm12, model_pm12, N))
    assert rec.counts["jacobi.stable_gap_eigenvalues.candidates"] == want
    assert rec.call_counts()["jacobi.gap_eigenvalues"] == 3
