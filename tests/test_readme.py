"""The README's quick start runs as written."""

import re
import shlex
from pathlib import Path

from meridian4.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    """Each ```python block runs, in order, in one namespace (the second
    uses names the first imports), so a renamed or deleted public name
    fails here before it breaks the quick start."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["profile"].truncation_reason is None


def test_readme_command_lines_exit_0(tmp_path, monkeypatch, capsys):
    """Each ``meridian4`` line of the README runs through ``main`` and exits
    0; run from tmp_path, its --out and --report files land there."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [ln for block in blocks for ln in block.replace("\\\n", " ").splitlines()
             if ln.startswith("meridian4 ")]
    assert len(lines) == 4
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["minimal.obj", "report.json"]


def test_readme_layout_counts_the_source_lines():
    """Layout's "src/meridian4/ (N lines)" is the line count (``wc -l``) of
    src/meridian4/*.py, the size the roadmap tracks."""
    stated = re.search(r"^src/meridian4/\s+\(([\d,]+) lines\)$", README.read_text(), re.M)
    assert stated, "README Layout lost its line count"
    sources = (README.parent / "src" / "meridian4").glob("*.py")
    assert int(stated.group(1).replace(",", "")) == sum(p.read_bytes().count(b"\n")
                                                        for p in sources)
