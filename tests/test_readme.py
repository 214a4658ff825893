"""The README's Library example and Command line examples run as written
against the package."""
from __future__ import annotations

import re
import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_command_line_examples_run():
    """Every line of the sh block under "Command line" exits 0 when run as
    ``python -m boxdet ...``, and ``charpoly 3`` prints what its comment says."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    lines = block.splitlines()
    assert len(lines) == 6
    for line in lines:
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "boxdet", line
        proc = subprocess.run(
            [sys.executable, "-m", "boxdet", *argv],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, (line, proc.stderr)
        if argv == ["charpoly", "3"]:
            assert proc.stdout == '["0", "2", "0", "-1"]\n'
            assert comment.strip().startswith(proc.stdout.strip()), line
