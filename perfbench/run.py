"""Benchmark of the wds command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lm_sl4_min --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, as a table

Each workload is a short sequence of ``wds`` operations.  Every operation
runs as its own child process, one at a time (a closed loop with one client
and no threads).  With ``--trace 0`` the run reports the end-to-end metrics:
the main operation (and any known-defect probe) repeats until ``--seconds``
have passed, at least once; ``wds setup`` runs before and after it, at least
three times and for at least 3 s in all, for ``setup_s``.  With ``--trace 1``
the run executes each operation once inside this process, with the tracer of
``tracer.py`` installed, and reports the per-layer metrics.

Every operation's exit status and stdout bytes are compared with the
references in ``refs/``, captured from the unmodified engine with
``--write-refs``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
SRC = HERE.parent / "src"

SEED = "{seed}"
# `wds setup` runs before and after the main operations, at least
# SETUP_MIN_REPEATS times and for at least SETUP_MIN_S seconds in all: the
# host's speed drifts over seconds, and spreading a sub-second set-up's
# samples over the run steadies their median
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 3.0
OP_TIMEOUT_S = 150.0

SL4_MIN = ["--algebra", "sl4", "--nilpotent", "minimal"]
SL4_SHORT = ["--algebra", "sl4", "--nilpotent", "short"]
SL4_SYM = SL4_SHORT + ["--s", "diag:s1,s2"]


@dataclass
class Workload:
    setup: list
    main: list
    # known-defect probes: they run with the workload and pass only once
    # the defect is fixed; they have no reference output
    probes: list = field(default_factory=list)


# Why each workload is here, and which layer it stresses: perfbench/README.md
WORKLOADS = {
    "lm_sl4_min": Workload(
        ["setup"] + SL4_MIN,
        ["verify-all"] + SL4_MIN + ["--seed", SEED]),
    "dress_sl4_short_d8": Workload(
        ["setup"] + SL4_SHORT,
        ["verify-all"] + SL4_SHORT + ["--max-degree", "8", "--seed", SEED]),
    "sym_sl4_short": Workload(
        ["setup"] + SL4_SYM,
        ["hierarchy"] + SL4_SYM + ["--n", "1", "--max-degree", "3"],
        probes=[["hierarchy"] + SL4_SYM
                + ["--a-choice", "center", "--n", "1", "--max-degree", "2"]]),
}


@dataclass
class Result:
    status: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("WDS_MAX_DEGREE", None)  # it changes the default --max-degree
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def _drain(proc: subprocess.Popen, deadline: float) -> tuple[bytes, bytes]:
    """Read stdout and stderr to EOF without threads; kill at the deadline."""
    bufs = {proc.stdout: bytearray(), proc.stderr: bytearray()}
    with selectors.DefaultSelector() as sel:
        for f in bufs:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                proc.kill()
                left = None
            for key, _ in sel.select(left):
                chunk = os.read(key.fd, 65536)
                if chunk:
                    bufs[key.fileobj] += chunk
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return bytes(bufs[proc.stdout]), bytes(bufs[proc.stderr])


def run_child(argv: list) -> Result:
    """One `wds` operation in a child process, with its wall time and the
    child's own rusage."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "wds.cli"] + argv,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env())
    try:
        out, err = _drain(proc, t0 + OP_TIMEOUT_S)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    _, wstatus, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(wstatus)
    return Result(proc.returncode, out, err, wall,
                  ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def run_inprocess(argv: list) -> Result:
    """One `wds` operation inside this process (for the traced run)."""
    from wds import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed operation, not a crash here
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            status = 1
    wall = time.perf_counter() - t0
    return Result(status, out.getvalue().encode("utf-8"),
                  err.getvalue().encode("utf-8"), wall)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def load_refs() -> dict:
    return json.loads((REFS / "index.json").read_text())


def stderr_tail(res: Result) -> list:
    return res.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]


def check_output(res: Result, ref: dict, ref_stdout: bytes) -> str | None:
    """None when the operation matches its reference, else the reason."""
    if res.status != ref["exit"]:
        return f"exit {res.status}, want {ref['exit']} {stderr_tail(res)}"
    lines = res.stdout.decode("utf-8", "replace").splitlines()
    fails = [ln for ln in lines if ln.startswith("[FAIL]")]
    if fails:
        return f"verification failed: {fails[0]}"
    if res.stdout != ref_stdout:
        want = ref_stdout.decode("utf-8", "replace").splitlines()
        for i, (got, exp) in enumerate(zip(lines, want)):
            if got != exp:
                return f"stdout line {i + 1}: got {got!r}, want {exp!r}"
        n = min(len(lines), len(want))
        return f"stdout has {len(lines)} lines, want {len(want)} (first {n} agree)"
    return None


def check_probe(res: Result) -> str | None:
    """A known-defect probe passes on exit 0 with an `int g_0` line."""
    if res.status == 0 and any(
            ln.startswith("int g_0") for ln in res.stdout.decode().splitlines()):
        return None
    return f"known defect: exit {res.status} {stderr_tail(res)}"


class Checker:
    """Checks each operation of one workload and keeps the tallies."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.refs = load_refs()
        self.attempted = 0
        self.failed = 0
        self.defects = 0

    def argv(self, template: list) -> list:
        return [str(self.seed) if a == SEED else a for a in template]

    def check(self, role: str, res: Result) -> None:
        self.attempted += 1
        if role == "probe":
            why = check_probe(res)
            if why:
                self.defects += 1
        else:
            ref = self.refs[f"{self.workload}.{role}"]
            why = check_output(res, ref, (REFS / ref["file"]).read_bytes())
            if why:
                self.failed += 1
        if why:
            log(f"{self.workload} {role} FAIL: {why}")

    @property
    def fail_share(self) -> float:
        return (self.failed + self.defects) / self.attempted


# ---------------------------------------------------------------------------
# the host-speed probe
# ---------------------------------------------------------------------------


def host_ref_s() -> float:
    """Seconds for a fixed stdlib Fraction loop, median of three.  It shows
    host-speed drift between runs; no claim may rest on it."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 10001):
            acc += Fraction(i % 13, 7) * Fraction(5, i % 11 + 1)
            acc -= Fraction(i % 13, 7) * Fraction(5, i % 11 + 1)
        if acc:
            raise ArithmeticError("host probe lost exactness")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_setups(chk: Checker, template: list, min_n: int, min_s: float) -> list:
    out = []
    t0 = time.perf_counter()
    while len(out) < min_n or time.perf_counter() - t0 < min_s:
        res = run_child(chk.argv(template))
        chk.check("setup", res)
        out.append(res)
    return out


def untraced_run(name: str, seed: int, seconds: float) -> tuple[Checker, dict]:
    wl, chk = WORKLOADS[name], Checker(name, seed)
    host = host_ref_s()
    setups = run_setups(chk, wl.setup, SETUP_MIN_REPEATS - 1, SETUP_MIN_S / 2)
    mains, probes = [], []
    t0 = time.perf_counter()
    while not mains or time.perf_counter() - t0 < seconds:
        res = run_child(chk.argv(wl.main))
        chk.check("main", res)
        mains.append(res)
        for probe in wl.probes:
            res = run_child(chk.argv(probe))
            chk.check("probe", res)
            probes.append(res)
    setups += run_setups(chk, wl.setup, 1, SETUP_MIN_S / 2)
    everything = setups + mains + probes
    log(f"{name} seed={seed}: {len(setups)} setup run(s), {len(mains)} main run(s), "
        f"{chk.defects} known-defect probe failure(s), "
        f"bench.host_ref_s={host:.4f}")
    return chk, {
        "wall_s": metric(statistics.median(r.wall_s for r in mains), "s"),
        "cpu_s": metric(statistics.median(r.cpu_s for r in mains), "s"),
        "setup_s": metric(statistics.median(r.wall_s for r in setups), "s"),
        "peak_rss_mb": metric(max(r.rss_mb for r in everything), "MB"),
    }


def traced_run(name: str, seed: int) -> tuple[Checker, dict]:
    from tracer import Tracer, scalar_probes

    wl, chk = WORKLOADS[name], Checker(name, seed)
    host = host_ref_s()
    untraced = run_child(chk.argv(wl.main))
    chk.check("main", untraced)
    sys.path.insert(0, str(SRC))
    probes = scalar_probes()
    tracer = Tracer()
    tracer.install()
    traced_wall = 0.0
    ops = [("setup", wl.setup), ("main", wl.main)] + [("probe", p) for p in wl.probes]
    for role, template in ops:
        res = run_inprocess(chk.argv(template))
        chk.check(role, res)
        traced_wall += res.wall_s
        if role == "main":
            overhead = res.wall_s / untraced.wall_s
    layers = tracer.metrics()
    layers.update(probes)
    layers.update({
        "bench.host_ref_s": host,
        "bench.traced_wall_s": traced_wall,
        "bench.trace_overhead": overhead,
        "bench.fail_share": chk.fail_share,
    })
    out = {key: metric(value, per_layer_unit(key)) for key, value in layers.items()}
    return chk, out


def per_layer_unit(key: str) -> str:
    base = key.split(".deg_")[0]
    if base.endswith("calls"):
        return "count"
    if "_terms" in base:
        return "terms"
    if base.endswith(("_growth", "_overhead", "_share")):
        return "ratio"
    if base.endswith("_us"):
        return "us"
    return "s"


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def write_refs(seed: int) -> None:
    """Capture the reference output of every checked operation."""
    REFS.mkdir(exist_ok=True)
    index = {}
    for name, wl in WORKLOADS.items():
        for role, template in (("setup", wl.setup), ("main", wl.main)):
            argv = [str(seed) if a == SEED else a for a in template]
            res = run_child(argv)
            key = f"{name}.{role}"
            fname = f"{key}.stdout"
            (REFS / fname).write_bytes(res.stdout)
            index[key] = {"argv": template, "exit": res.status, "file": fname,
                          "sha256": hashlib.sha256(res.stdout).hexdigest()}
            log(f"{key}: exit {res.status}, {len(res.stdout)} bytes, {res.wall_s:.1f} s")
    (REFS / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-refs", action="store_true",
                    help="capture reference outputs from the current engine")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "wds" / "cli.py").is_file():
        sys.exit(f"error: no wds sources at {SRC}")
    if args.write_refs:
        write_refs(args.seed)
        return 0
    if not (REFS / "index.json").is_file():
        sys.exit("error: no reference outputs; run with --write-refs first")

    if args.workload == "all":
        return run_all(args)
    if args.trace:
        chk, metrics = traced_run(args.workload, args.seed)
    else:
        chk, metrics = untraced_run(args.workload, args.seed, args.seconds)
    print(json.dumps({"correct": chk.failed == 0, "attempted": chk.attempted,
                      "failed": chk.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process as the single-workload form
    runs it, printed as a table."""
    report = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, check=True)
        rep = report[name] = json.loads(proc.stdout.decode().splitlines()[-1])
        print(f"{name}: correct={rep['correct']} attempted={rep['attempted']} "
              f"failed={rep['failed']}")
        for key, m in rep["metrics"].items():
            print(f"  {key:<44} {m['value']:>14.6g} {m['unit']}", flush=True)
    print(json.dumps(report))
    return 0 if all(rep["correct"] for rep in report.values()) else 1

if __name__ == "__main__":
    sys.exit(main())
