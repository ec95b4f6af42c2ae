"""The README's library quick start runs as written."""

import contextlib
import io
import re
from pathlib import Path

from wds.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(capsys):
    """The block prints h[1], U[2] and the first flow of L on sl3 minimal;
    the flow is the one `wds hierarchy` prints for d/dt_1 L."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start_code(), str(README), "exec"), {})
    h1, u2, flow = out.getvalue().splitlines()
    assert " (x) [" in h1 and " (x) [" in u2
    assert main(["hierarchy", "--algebra", "sl3", "--nilpotent", "minimal"]) == 0
    cli_flow = next(line for line in capsys.readouterr().out.splitlines()
                    if line.strip().startswith("d/dt_1 L:"))
    assert cli_flow.split(": ", 1)[1] == flow
