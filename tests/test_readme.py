"""The README's Python API example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_block_runs(capsys):
    # a renamed or deleted export fails here instead of in a reader's shell
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Python API"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README.name} Python API block", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("(5, 8) ") and out[1].startswith("True ")
    assert out[2].startswith("31 ")
