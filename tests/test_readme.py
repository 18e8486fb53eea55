"""The README's library tour and shell examples run as written, so an API or
CLI change cannot leave them stale."""

import ast
import dataclasses
import inspect
import pathlib
import re
import shlex

import gaplab
from gaplab import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_readme_shell_examples_run(tmp_path, monkeypatch):
    # --out and --plot write their files into the working directory
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    commands = [
        shlex.split(line)
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("gaplab ")
    ]
    assert commands
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv


def test_readme_config_keys_are_the_cli_keys():
    # README's list of config keys, in its order, is what the CLI accepts
    text = re.search(r"same keys as the\s+flags \((.*?)\)", README.read_text(), flags=re.S)
    assert re.findall(r"`(\w+)`", text.group(1)) == list(cli.CONFIG_KEYS)


def _words(text: str) -> set[str]:
    return set(re.findall(r"\w+", text))


PACKAGE = pathlib.Path(gaplab.__file__).parent


def _exported() -> set[str]:
    return {
        alias.asname or alias.name
        for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _modules():
    """Parsed package modules other than __init__."""
    return [ast.parse(p.read_text()) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]


def test_every_public_name_is_reached():
    # each exported name is used by the package itself (an identifier in code,
    # not its own def or class line, not a docstring), by the benchmark, or by
    # an executed README example; the tests alone do not keep a name alive
    exported = _exported()
    reached = set()
    for tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif isinstance(node, ast.alias):
                reached.add(node.asname or node.name)
    for path in (README.parent / "bench").glob("*.py"):
        reached |= _words(path.read_text())
    for block in re.findall(r"```(?:python|sh)\n(.*?)```", README.read_text(), flags=re.S):
        reached |= _words(block)
    assert sorted(exported - reached) == []


def _set_arguments(trees) -> dict:
    """Called name -> what its calls set: keyword names, positional indices,
    and None where a * or ** argument may set any parameter."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                hit = out.setdefault(name, set())
                hit.update(range(len(node.args)))
                hit.update(kw.arg for kw in node.keywords)  # a ** argument's arg is None
                if any(isinstance(a, ast.Starred) for a in node.args):
                    hit.add(None)
    return out


def test_every_parameter_default_is_overridden():
    # each parameter with a default, of each exported function or class, is
    # set by some call in the package, the benchmark, an executed README
    # example or the acceptance tests (the spec's criteria); a value only
    # the other tests set is an option no caller needs
    sources = [p.read_text() for p in (README.parent / "bench").glob("*.py")]
    sources += re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    sources.append((README.parent / "tests" / "test_acceptance.py").read_text())
    calls = _set_arguments(_modules() + [ast.parse(text) for text in sources])
    unset = []
    for name in sorted(_exported()):
        obj = getattr(gaplab, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        hit = calls.get(name, set())
        for i, p in enumerate(inspect.signature(obj).parameters.values()):
            positional = p.kind is p.POSITIONAL_OR_KEYWORD and i in hit
            if p.default is not p.empty and not (positional or p.name in hit or None in hit):
                unset.append(f"{name}.{p.name}")
    assert unset == []



def test_every_private_helper_is_reached():
    # each module-level _name (a function, class or constant) of the package
    # is named in the package outside its own definition; a helper that only
    # the tests call is dead code
    defined, reached = set(), set()
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name}
            else:
                targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            defined |= {name for name in own if name.startswith("_") and not name.startswith("__")}
            used = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.asname or node.name)
            reached |= used - own
    assert defined and sorted(defined - reached) == []


def _enclosing_functions(pattern: str) -> list[str]:
    """Names of the innermost package functions with a line containing pattern."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        text = path.read_text()
        funcs = [n for n in ast.walk(ast.parse(text)) if isinstance(n, ast.FunctionDef)]
        for i, line in enumerate(text.splitlines(), 1):
            if pattern in line:
                around = [f for f in funcs if f.lineno <= i <= f.end_lineno]
                found.add(max(around, key=lambda f: f.lineno).name if around else "<module>")
    return sorted(found)


def test_one_cosine_transform_pair():
    # every cosine series on the cosine points goes through one transform
    # pair and one blocked sine sum; the ray's sin^2 sum is the one other
    # sine table, and no caller halves _dct's a_0 again
    assert _enclosing_functions("np.fft") == ["_dct", "_idct"]
    assert _enclosing_functions("np.sin(np.multiply.outer(") == ["_sine_sums", "green_value"]
    assert _enclosing_functions("0] /= 2") == []


def test_no_log1p_per_far_source():
    # the far field is powers of r/(c - s): log1p sizes an interval's rule
    # or series from its nearest source, and the kernels take it at no node
    # or source; the ray takes one per gap and sample, a factor that tends
    # to 1 at infinity, and green_value one per outer point, log1p(y)
    assert _enclosing_functions("np.log1p") == ["_far_terms", "_gap_orders", "_ray_samples",
                                                "green_value"]


def test_no_long_double():
    # the Robin constant is the ray's integral to infinity, in double; no
    # potential sum is carried in long double anywhere in the package
    assert _enclosing_functions("longdouble") == []


def test_kernel_called_by_the_pass_sampler_and_the_band_rule():
    # one _log_sums call per period pass and one for the band rule, which
    # only the measure's readers build; the gate and the gap series read
    # the confirming pass's samples (the def lines are the functions' own)
    assert _enclosing_functions("_log_sums(") == ["_band_rule", "_log_sums", "_pass_samples"]
    assert _enclosing_functions("_band_rule(") == ["_band_rule", "equilibrium_quadrature"]


def test_one_direct_log_sum():
    # _near_sums is the only direct log-sum: _log_sums takes it at every
    # interval's near window, and _log_g_prime, behind the densities and
    # m_E, over one window of all sources (the def lines are their own)
    assert _enclosing_functions("_near_sums(") == ["_log_g_prime", "_log_sums", "_near_sums"]
    assert _enclosing_functions("_log_g_prime(") == ["_g_prime", "_log_f_e", "_log_g_prime"]


def test_the_measure_owns_its_band_rule():
    # the model keeps no order and no privileged rule: make_measure picks the
    # order, and equilibrium_quadrature builds and keeps each order's rule
    assert _enclosing_functions("_default_order(") == ["_default_order", "make_measure"]
    names = {f.name for f in dataclasses.fields(gaplab.GreenModel)}
    assert "quad_order" not in names and "quad" not in names
    assert not hasattr(gaplab.GreenModel, "quad")


def test_period_correction_reached_only_from_the_solve():
    # the period system is built only to move roots: the solve builds it when
    # the pass's diagonal step says the roots are not final, and the gate,
    # the loads and period_residuals never do (the def line is its own)
    assert _enclosing_functions("_period_correction(") == ["_period_correction", "_solve"]


def test_one_pivot_sweep_behind_every_count():
    # one LDL^T sweep serves every count: the truncations' Sturm counts, the
    # glued heads' shifted counts and the certification's count closure,
    # which also reads the last pivot F (the def line is its own)
    assert _enclosing_functions("_negative_pivots(") == ["_batch_bisect", "_negative_pivots",
                                                         "glued_eigenvalues", "sturm_count"]
