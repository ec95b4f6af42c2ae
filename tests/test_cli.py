import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wds.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tables_sl3_minimal(capsys):
    code, out, _ = run(capsys, "tables", "--algebra", "sl3",
                       "--nilpotent", "minimal")
    assert code == 0
    assert "PASS" in out


def test_tables_sl4_short(capsys):
    code, out, _ = run(capsys, "tables", "--algebra", "sl4",
                       "--nilpotent", "short")
    assert code == 0
    assert "PASS" in out


def test_hierarchy_sl4_short_svinolupov(capsys):
    code, out, _ = run(capsys, "hierarchy", "--algebra", "sl4",
                       "--nilpotent", "short", "--s", "e", "--n", "1",
                       "--reduce")
    assert code == 0
    assert "int g_0" in out and "int g_1" in out
    assert "d/dt_1" in out
    # the reduced flow of each weight-1 generator vanishes
    assert "d/dt_1 phi(H1 + H3): 0" in out


def test_verify_all_sp4_isotropic_usage_error(capsys):
    code, out, err = run(capsys, "verify-all", "--algebra", "sp4",
                         "--nilpotent", "minimal", "--s", "isotropic")
    assert code == 2
    assert "no embeddable element" in err


def test_verify_all_sl3(capsys):
    code, out, _ = run(capsys, "verify-all", "--algebra", "sl3",
                       "--nilpotent", "minimal", "--n", "1")
    assert code == 0
    assert "all verifications passed" in out
    assert "[PASS] lenard-magri recursion" in out


def test_setup_dump_json(capsys):
    code, out, _ = run(capsys, "setup", "--algebra", "sl3",
                       "--nilpotent", "minimal", "--dump-setup",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["setup"]["kind"] == "minimal"
    assert doc["setup"]["grading"]["1/2"] == ["E12", "E23"]
    assert doc["algebra"]["dim"] == 8
    assert "E12,E21,H1" in doc["algebra"]["structure"]


def test_generators_emission(capsys):
    code, out, _ = run(capsys, "generators", "--algebra", "sl3",
                       "--nilpotent", "minimal")
    assert code == 0
    assert "L:" in out and "Ltilde:" in out
    code, out, _ = run(capsys, "generators", "--algebra", "sl3",
                       "--nilpotent", "minimal", "--format", "json")
    doc = json.loads(out)
    assert any(k.startswith("psi") for k in doc)


def test_deterministic_output(capsys):
    args = ("hierarchy", "--algebra", "sl3", "--nilpotent", "minimal",
            "--n", "1", "--format", "json", "--seed", "7")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_isotropic_tables_cli(capsys):
    code, out, _ = run(capsys, "tables", "--algebra", "sl3",
                       "--nilpotent", "minimal", "--s", "isotropic")
    assert code == 0
    assert "isotropic_k_brackets" in out
    assert "FAIL" not in out and out.count("PASS") > 10


def test_unknown_algebra_usage_error(capsys):
    code, out, err = run(capsys, "tables", "--algebra", "so8")
    assert code == 2


def test_short_odd_sl_usage_error(capsys):
    code, out, err = run(capsys, "tables", "--algebra", "sl3",
                         "--nilpotent", "short")
    assert code == 2
    assert "short" in err


def test_explicit_f_and_s(capsys):
    code, out, _ = run(capsys, "tables", "--algebra", "sl3",
                       "--nilpotent", "minimal", "--f", "E31",
                       "--s", "explicit:E13")
    assert code == 0
    assert "PASS" in out


def test_max_degree_env_override(capsys, monkeypatch):
    monkeypatch.setenv("WDS_MAX_DEGREE", "2")
    code, out, _ = run(capsys, "hierarchy", "--algebra", "sl3",
                       "--nilpotent", "minimal", "--n", "0")
    assert code == 0
    assert "int g_0" in out


def test_non_homogeneous_s_usage_error(capsys):
    for command in ("setup", "hierarchy"):
        code, out, err = run(capsys, command, "--algebra", "sl4",
                             "--nilpotent", "short",
                             "--s", "explicit:E13,E12")
        assert code == 2
        assert err.count("\n") == 1 and "homogeneous" in err


@pytest.mark.parametrize("argv, env", [
    (("verify-all", "--algebra", "sl2", "--n", "-1"), None),
    (("hierarchy", "--algebra", "sl2", "--n", "-1"), None),
    (("hierarchy", "--algebra", "sl2", "--max-degree", "0"), None),
    (("hierarchy", "--algebra", "sl2", "--max-degree", "-3"), None),
    (("hierarchy", "--algebra", "sl2", "--nilpotent", "minimal", "--n", "2"),
     None),
    (("setup", "--algebra", "sl1"), None),
    (("setup", "--algebra", "sp3"), None),
    (("setup", "--algebra", "sl3", "--f", "E12,E99"), None),
    (("hierarchy", "--algebra", "sl2"), "x"),
    (("hierarchy", "--algebra", "sl3", "--s", "explicit:E99"), None),
    (("hierarchy", "--algebra", "sl3", "--s", "explicit:0*E13"), None),
    (("hierarchy", "--algebra", "sl3", "--s", "explicit:E12"), None),
    (("verify-all", "--algebra", "sl3", "--s", "explicit:E12,E23"), None),
    (("tables", "--algebra", "sl3", "--s", "explicit:E12,E23"), None),
    (("setup", "--algebra", "sl3", "--f", "H1"), None),
    (("setup", "--algebra", "sl3", "--nilpotent", "short", "--f", "E31"),
     None),
    (("setup", "--algebra", "sl2", "--nilpotent", "short", "--s=diag:1/0"),
     None),
    (("setup", "--algebra", "sl2", "--nilpotent", "short", "--s=diag:a-b"),
     None),
    (("setup", "--algebra", "sl2", "--s=explicit:1/0*E12"), None),
    (("tables", "--algebra", "sl2", "--nilpotent", "short",
      "--s=diag:s1,s2"), None),
    (("tables", "--algebra", "sl4", "--nilpotent", "short", "--s=diag:a"),
     None),
    (("setup", "--algebra", "sl2", "--s=--"), None),
    (("hierarchy", "--algebra", "sl2", "--a-choice=--"), None),
    (("hierarchy", "--algebra", "sl2", "--n=--"), None),
    (("hierarchy", "--algebra", "sl2", "--max-degree=--"), None),
    (("setup", "--algebra", "sl2", "--f=--"), None),
    (("setup", "--algebra", "sl2", "--form-scale=--"), None),
    (("setup", "--algebra", "sl2", "--seed=--"), None),
    (("setup", "--algebra=--"), None),
    (("hierarchy", "--algebra", "sl3", "--a-choice", "centerfoo"), None),
    (("setup", "--algebra", "sl3", "--s", "explicit:E13,2*E13"), None),
    (("setup", "--algebra", "sl3", "--f", "E31,E31"), None),
    (("setup", "--algebra", "sl\u00b2"), None),
    (("setup", "--algebra", "sp\u2074"), None),
    (("setup", "--algebra", "sl99999999999999999999"), None),
    (("setup", "--algebra", "sp99999999999999999998"), None),
], ids=["verify_n_neg", "hierarchy_n_neg", "max_degree_0",
        "max_degree_neg", "n_past_window", "sl1", "sp3", "unknown_f_label", "env_max_degree",
        "unknown_s_label", "s_not_semisimple", "s_in_g_half",
        "verify_s_not_in_g1", "tables_s_not_in_g1", "f_not_nilpotent",
        "f_wrong_kind", "diag_zero_denominator", "diag_bad_name",
        "explicit_zero_denominator", "diag_too_many", "diag_too_few",
        "s_dashes", "a_choice_dashes", "n_dashes", "max_degree_dashes",
        "f_dashes", "form_scale_dashes", "seed_dashes", "algebra_dashes",
        "a_choice_unknown", "explicit_repeated_label", "f_repeated_label",
        "sl_superscript_digit", "sp_superscript_digit", "sl_overflow",
        "sp_overflow"])
def test_bad_input_usage_error(argv, env, capsys, monkeypatch):
    if env is None:
        monkeypatch.delenv("WDS_MAX_DEGREE", raising=False)
    else:
        monkeypatch.setenv("WDS_MAX_DEGREE", env)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    if argv[-1].endswith("=--"):  # the option argparse read as []
        assert err.startswith(f"error: {argv[-1][:-3]} ")
    assert "Traceback" not in err + out
    assert "Fraction(" not in err


@pytest.mark.parametrize("argv, reason", [
    (("setup", "--algebra", "sl6", "--nilpotent", "short",
      "--f", "E21,E32,E43,E54,E65"),
     "eigenvalues [-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5] invalid for kind short"),
    (("setup", "--algebra", "sl3", "--nilpotent", "short", "--f", "E31"),
     "eigenvalues [-1, -1/2, 0, 1/2, 1] invalid for kind short"),
    (("setup", "--algebra", "sl2", "--s", "explicit:2*E12*3"),
     "'2*E12*3' is neither COEFF*LABEL nor LABEL"),
    (("hierarchy", "--algebra", "sl2", "--nilpotent", "minimal",
      "--form-scale", "2", "--n", "1", "--max-degree", "4"),
     "--form-scale '2' is not a parameter name"),
    (("setup", "--algebra", "sl2", "--form-scale", "1/0"),
     "--form-scale '1/0' is not a parameter name"),
    (("setup", "--algebra", "sl2", "--form-scale", "0"),
     "--form-scale '0' is not a parameter name"),
    (("setup", "--algebra", "sl2", "--form-scale="),
     "--form-scale '' is not a parameter name"),
    (("setup", "--algebra", "sp4", "--form-scale", "c"),
     "--form-scale c: sp4 has no scaled trace form"),
    (("setup", "--algebra", "sl3", "--s", "explicit:E13,2*E13"),
     "--s explicit:E13,2*E13: label 'E13' is repeated"),
    (("setup", "--algebra", "sl3", "--f", "E31,E31"),
     "--f E31,E31: label 'E31' is repeated"),
    (("setup", "--algebra", "sl3", "--f", ","),
     "--f ,: unknown basis label ''"),
    (("setup", "--algebra", "sl3", "--s", "explicit:,"),
     "--s explicit:,: unknown basis label ''"),
    (("setup", "--algebra", "sl99999999999999999999"),
     "--algebra sl99999999999999999999: n is too large"),
], ids=["f_deep_grading", "f_wrong_kind", "explicit_two_stars",
        "form_scale_number", "form_scale_zero_denominator", "form_scale_zero",
        "form_scale_empty", "form_scale_on_sp", "explicit_repeated_label",
        "f_repeated_label", "f_empty_label", "explicit_empty_label",
        "sl_overflow"])
def test_usage_error_reason(argv, reason, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2 and err.count("\n") == 1
    assert reason in err


def test_s_outside_g1_and_not_semisimple_reasons(capsys):
    """An s outside g_1 is refused before any reduction runs; an s in g_1
    with f + s not semisimple is refused by the dressing."""
    for s, reason in (("explicit:E12", "s is not in g_1"),
                      ("explicit:0*E13", "f + s is not semisimple")):
        code, out, err = run(capsys, "hierarchy", "--algebra", "sl3",
                             "--s", s)
        assert code == 2 and reason in err


def test_center_choice_short_symbolic(capsys):
    """The center of the centralizer of s in g_0^f: for sl4 short with
    s = diag(s1, s2) that is the span of H1 + H3."""
    code, out, err = run(capsys, "hierarchy", "--algebra", "sl4",
                         "--nilpotent", "short", "--s", "diag:s1,s2",
                         "--a-choice", "center", "--n", "1",
                         "--max-degree", "2")
    assert code == 0, err
    assert "int g_0" in out


def test_verify_all_prints_failing_entries(capsys, monkeypatch):
    import wds.cli
    monkeypatch.setattr(wds.cli, "verify_lenard_magri", lambda *a: ["x"])
    code, out, _ = run(capsys, "verify-all", "--algebra", "sl2")
    assert code == 1
    assert "[FAIL] lenard-magri recursion\n  x\n" in out
    assert "1 verification group(s) failed" in out
    code, out, _ = run(capsys, "verify-all", "--algebra", "sl2",
                       "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["failed"] == 1
    bad = [grp for grp in doc["groups"] if not grp["passed"]]
    assert bad == [{"name": "lenard-magri recursion", "passed": False,
                    "failures": ["x"]}]


def test_verify_all_json_pass(capsys):
    argv = ("verify-all", "--algebra", "sl3", "--nilpotent", "minimal")
    code, text, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    names = [grp["name"] for grp in doc["groups"]]
    # the same groups, in the same order, as the text report
    assert [f"[PASS] {name}" for name in names] == text.splitlines()[:-1]
    assert all(grp["passed"] and grp["failures"] == [] for grp in doc["groups"])


# -- fuzz over flag combinations -----------------------------------------------

LABELS = {
    "sl2": ["E12", "E21", "H1"],
    "sl3": ["E12", "E13", "E21", "E23", "E31", "E32", "H1", "H2"],
    "sp4": ["A11", "A12", "A21", "A22", "B11", "B12", "B22", "C11", "C12",
            "C22"],
}
S_CHOICES = ["e", "isotropic", "diag:s1", "diag:1", "diag:s1,s2", "diag:",
             "diag:1/0", "diag:a-b", "explicit:E12", "explicit:2*E13",
             "explicit:E99", "explicit:", "explicit:1/0*E12",
             "explicit:x*E12", "bogus"]


def optional(values):
    return st.one_of(st.none(), values)


@st.composite
def cli_argv(draw):
    algebra = draw(st.sampled_from(sorted(LABELS)))
    junk = st.text(alphabet="diagexplct:E123*,/0s-", max_size=10)
    labels = st.lists(st.sampled_from(LABELS[algebra] + ["E99", "X", ""]),
                      min_size=1, max_size=3).map(",".join)
    options = {
        "--nilpotent": optional(st.sampled_from(["minimal", "short"])),
        "--s": optional(st.sampled_from(S_CHOICES) | junk),
        "--f": optional(labels),
        "--a-choice": optional(st.sampled_from(
            ["f_plus_ze", "e_plus_s_star", "center", "junk"])),
        "--format": optional(st.sampled_from(["text", "latex", "json"])),
        "--n": optional(st.integers(-2, 3)),
        "--max-degree": optional(st.integers(-1, 5)),
    }
    argv = [draw(st.sampled_from(["setup", "generators", "tables"])),
            "--algebra", algebra]
    for flag, values in options.items():
        value = draw(values)
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_argv())
@example(["setup", "--algebra", "sl2", "--s=--"])
def test_cli_fuzz_exits_cleanly(capsys, argv):
    """Any flag combination exits 0, 1 or 2, and never with a traceback."""
    try:
        code, out, err = run(capsys, *argv)
    except Exception as e:  # an uncaught engine error is the failure
        pytest.fail(f"{argv}: {type(e).__name__}: {e}")
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in out + err, argv
    if code == 2:
        assert err.count("\n") >= 1 and "error:" in err, (argv, err)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["sl2", "sl3"]), st.integers(1, 3), st.integers(0, 3),
       st.sampled_from(["f_plus_ze", "center"]))
def test_hierarchy_fuzz_exits_cleanly(capsys, algebra, max_degree, n, a_choice):
    """hierarchy exits 0 with every density up to --n, or 2 with one line;
    never with a traceback."""
    argv = ["hierarchy", "--algebra", algebra, "--nilpotent", "minimal",
            f"--max-degree={max_degree}", f"--n={n}", f"--a-choice={a_choice}"]
    try:
        code, out, err = run(capsys, *argv)
    except Exception as e:  # an uncaught engine error is the failure
        pytest.fail(f"{argv}: {type(e).__name__}: {e}")
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in out + err, argv
    if code == 0:
        assert f"int g_{n}:" in out, argv
    else:
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)


def test_n_past_window_names_the_degree(capsys, monkeypatch):
    monkeypatch.delenv("WDS_MAX_DEGREE", raising=False)
    code, out, err = run(capsys, "hierarchy", "--algebra", "sl2", "--n", "2")
    assert (code, out, err) == (
        2, "", "error: --n 2 needs --max-degree >= 5\n")
    code, out, err = run(capsys, "verify-all", "--algebra", "sl2",
                         "--n", "3", "--max-degree", "1")
    assert code == 2 and err == "error: --n 3 needs --max-degree >= 7\n"


# -- invariants that survive python -O ---------------------------------------


def test_no_assert_statements_in_src():
    """Runtime invariants raise real exceptions: python -O strips asserts."""
    found = []
    for path in sorted((ROOT / "src" / "wds").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_imports_in_src():
    """Every name a module of src/wds imports is read in it; the package
    __init__ counts its __all__ as a use."""
    found = []
    for path in sorted((ROOT / "src" / "wds").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        found += [f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used]
    assert found == []


def test_no_unused_private_defs_in_src():
    """Every private function, method or class (`_name`, not a dunder)
    defined in src/wds is referenced somewhere in src/wds: a helper that
    only the tests call belongs in the tests."""
    defs, used = [], set()
    for path in sorted((ROOT / "src" / "wds").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defs.append((f"{path.name}:{node.lineno}", node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defs
    assert [f"{where} {name}" for where, name in defs if name not in used] == []


def test_closed_pipe_exits_quietly():
    """A reader that closes stdout early (`wds ... | head -c 100`) ends the
    run with status 1 and no traceback: the 1.8 MB of JSON overflow the
    pipe, so the write fails once the reader is gone."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("WDS_MAX_DEGREE", None)
    argv = ["-m", "wds.cli", "hierarchy", "--algebra", "sl4", "--nilpotent",
            "short", "--n", "3", "--max-degree", "8", "--format", "json"]
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 1, err
    assert len(head) == 100 and "Traceback" not in err and not err


def test_verify_all_same_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("WDS_MAX_DEGREE", None)
    argv = ["-m", "wds.cli", "verify-all", "--algebra", "sl3",
            "--nilpotent", "minimal"]
    plain, optimized = [
        subprocess.run([sys.executable, *flags, *argv], capture_output=True,
                       text=True, env=env, cwd=ROOT, timeout=300)
        for flags in ([], ["-O"])]
    assert plain.returncode == 0, plain.stderr
    assert (optimized.returncode, optimized.stdout) == (
        plain.returncode, plain.stdout)
