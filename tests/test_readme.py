"""README's Python examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:  # the second example reuses the first one's `world`
        exec(compile(block, str(README), "exec"), namespace)
    out = capsys.readouterr().out
    assert out.startswith("bundle=webserver context=benign world=0")
    assert "FAIL" not in out
