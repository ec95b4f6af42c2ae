"""Byte-for-byte guards on CLI and demo output.

The references in tests/golden/ were captured from the engine before the
adapted-basis refactor; the README promises byte-identical output for a
fixed configuration, so any change here is a behaviour change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wds.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CLI_CASES = json.loads((GOLDEN / "cli.json").read_text())
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_golden(name, capsys):
    case = CLI_CASES[name]
    try:
        code = main(list(case["argv"]))
    except SystemExit as e:
        code = e.code
    assert code == case["status"]
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "demos" / f"{demo.stem}.out").read_text()
