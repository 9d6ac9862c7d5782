"""README's Python and context-language examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

from seclink.demos import logging_bundle, run_scenario, webserver_bundle

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


def test_readme_context_language_examples_load_and_pass():
    # the fenced blocks that open with a lambda: the logging context, then the handler
    blocks = re.findall(r"```\n(\\.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert [block.split(":", 1)[0] for block in blocks] == ["\\log", "\\c"]
    for block, bundle in zip(blocks, (logging_bundle(), webserver_bundle())):
        bundle.dsl_sources["readme"] = block  # loaded against the bundle's boundary type
        for i, world in enumerate(bundle.worlds[:3]):
            report = run_scenario(bundle, "readme", world, i)
            assert report.ok, report.render_text()
