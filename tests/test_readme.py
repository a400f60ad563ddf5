"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    match = re.search(r"## Library example\n.*?```python\n(.*?)```", text, re.S)
    # padded with newlines so that a traceback gives README line numbers
    code = "\n" * text.count("\n", 0, match.start(1)) + match.group(1)
    exec(compile(code, str(README), "exec"), {})
