"""The benchmark's per-layer tracer still finds what it wraps.

perfbench/tracer.py wraps engine functions by name after import and reads
some results by position (the h of `solve_dressing` as `result[1]`).  A
refactor of src/wds that it no longer matches makes the traced benchmark
fail or read 0, so a small traced run is checked here.  It reads
perfbench/ and changes nothing there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# runs in a child, so the tracer's wrappers never reach this process
TRACED_RUN = """
import contextlib, io, json, sys
from tracer import Tracer
tracer = Tracer()
tracer.install()
from wds import cli
statuses = []
for argv in (["hierarchy", "--algebra", "sl2", "--n", "1",
              "--max-degree", "3"],
             ["verify-all", "--algebra", "sl2", "--seed", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        statuses.append(cli.main(argv))
print(json.dumps({"statuses": statuses, "metrics": tracer.metrics()}))
"""


def test_traced_sl2_run():
    """Under the tracer, `hierarchy` and `verify-all` on sl2 exit 0, and
    the h of each solve_dressing is counted."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["statuses"] == [0, 0]
    metrics = got["metrics"]
    assert metrics["hierarchy.h_terms"] > 0
    assert metrics["hierarchy.solve_dressing_s"] > 0
    assert metrics["hierarchy.dressing_defect_s"] > 0
