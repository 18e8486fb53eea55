"""The README's library tour and shell examples run as written, so an API or
CLI change cannot leave them stale."""

import pathlib
import re
import shlex

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
