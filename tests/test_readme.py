"""The README's library example runs as written, so the documented API
cannot drift from the package unnoticed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    # the ```python block of the "## Library" section builds the fixture,
    # mines it, re-reads the rules and asserts that all 68 reference rules match
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    block = re.search(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    assert block is not None, "no python block under ## Library"
    namespace: dict = {}
    exec(compile(block.group(1), f"{README.name} (## Library)", "exec"), namespace)
    assert namespace["report"].ok
