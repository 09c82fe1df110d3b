"""The README's quick start runs as written."""

import re
from pathlib import Path

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
