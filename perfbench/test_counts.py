"""Self-test: per-layer counts repeat exactly under different hash seeds.

Two traced runs of a workload, one under PYTHONHASHSEED=0 and one under
PYTHONHASHSEED=12345, must report identical counts (`*_calls`, `*_terms_*`,
`h_terms`).  Run from the repository root:

    python3 perfbench/test_counts.py [workload ...]   # default: dress_sl4_short_d8

It also runs under pytest (`pytest perfbench/test_counts.py`).  Each traced
run of the default workload takes about 40 s.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
HASH_SEEDS = ("0", "12345")


def is_count(name: str) -> bool:
    return name.endswith("calls") or "_terms" in name


def traced_counts(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--trace", "1"],
        env=env, stdout=subprocess.PIPE, check=True, timeout=300)
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload}: output check failed")
    return {k: m["value"] for k, m in result["metrics"].items() if is_count(k)}


def check_workload(workload: str) -> None:
    first, second = (traced_counts(workload, s) for s in HASH_SEEDS)
    diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    if diff:
        raise AssertionError(f"{workload}: counts differ across hash seeds: {diff}")
    print(f"{workload}: {len(first)} counts identical under PYTHONHASHSEED "
          f"{' and '.join(HASH_SEEDS)}")


def test_counts_repeat_across_hash_seeds():
    check_workload("dress_sl4_short_d8")


if __name__ == "__main__":
    for name in sys.argv[1:] or ["dress_sl4_short_d8"]:
        check_workload(name)
