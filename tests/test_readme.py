"""The README's library tour runs as written, so an API change cannot leave it stale."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
