"""The README's library tour and shell examples run as written, so an API or
CLI change cannot leave them stale."""

import ast
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


def test_every_public_name_is_reached():
    # each exported name is used by the package itself (an identifier in code,
    # not its own def or class line, not a docstring), by the benchmark, or by
    # an executed README example; the tests alone do not keep a name alive
    package = pathlib.Path(gaplab.__file__).parent
    exported = {
        alias.asname or alias.name
        for node in ast.parse((package / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    reached = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
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
