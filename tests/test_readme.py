"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_use_block_runs_as_written(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README}:Library use", "exec"), {})
    # its replace line shows the check a config makes when it is built
    assert "not a config: " in capsys.readouterr().out
