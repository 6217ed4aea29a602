"""README's library example runs as written, so the documented API
cannot drift from the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    (block,) = re.findall(r"^## Library\n\n```python\n(.*?)^```", README.read_text(), re.M | re.S)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == "12690"
