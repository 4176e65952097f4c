"""Runs the README's "Library use" example, so the documented API cannot drift."""

import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def library_use_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert len(blocks) == 1, "expected one fenced Python block under 'Library use'"
    return blocks[0]


def test_library_use_example_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the example names fixtures relative to the repo root
    exec(compile(library_use_example(), "README.md", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.strip()
