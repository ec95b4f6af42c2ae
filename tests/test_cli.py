import argparse
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wds import linalg
from wds.cli import check_ranges, main, make_frame, parse_a_choice
from wds.diffpoly import B, MAX_ORDER
from wds.hierarchy import check_central, solve_dressing
from wds.lie import EmbeddableData

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
    for args in (("hierarchy", "--algebra", "sl3", "--nilpotent", "minimal",
                  "--n", "1", "--format", "json"),
                 ("verify-all", "--algebra", "sl3", "--nilpotent", "minimal",
                  "--n", "1", "--format", "json", "--seed", "7")):
        code, out1, _ = run(capsys, *args)
        assert code == 0 and run(capsys, *args) == (0, out1, "")


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


def test_max_degree_env_is_not_read(capsys, monkeypatch):
    """--max-degree is the one way to set the dressing degree: a
    WDS_MAX_DEGREE in the environment changes nothing."""
    argv = ("hierarchy", "--algebra", "sl2", "--n", "1")
    plain = run(capsys, *argv)
    monkeypatch.setenv("WDS_MAX_DEGREE", "2")
    assert run(capsys, *argv) == plain
    assert plain[0] == 0 and "int g_1" in plain[1]


def test_non_homogeneous_s_usage_error(capsys):
    for command in ("setup", "hierarchy"):
        code, out, err = run(capsys, command, "--algebra", "sl4",
                             "--nilpotent", "short",
                             "--s", "explicit:E13,E12")
        assert code == 2
        assert err.count("\n") == 1 and "homogeneous" in err


# the g_0^f-centralizer of s has a center, but ker ad(f+zs) has no degree-0
# center: the run stops with a usage error, not an InvalidCenter traceback
SP6_SHORT_CENTER = ("--algebra", "sp6", "--nilpotent", "short",
                    "--f", "C11,C22,C33", "--s", "explicit:B11,B22,2*B33",
                    "--a-choice", "center")


@pytest.mark.parametrize("argv", [
    ("verify-all", "--algebra", "sl2", "--n", "-1"),
    ("hierarchy", "--algebra", "sl2", "--n", "-1"),
    ("hierarchy", "--algebra", "sl2", "--max-degree", "0"),
    ("hierarchy", "--algebra", "sl2", "--max-degree", "-3"),
    ("hierarchy", "--algebra", "sl2", "--nilpotent", "minimal", "--n", "2"),
    ("setup", "--algebra", "sl1"),
    ("setup", "--algebra", "sp3"),
    ("setup", "--algebra", "sl3", "--f", "E12,E99"),
    ("hierarchy", "--algebra", "sl3", "--s", "explicit:E99"),
    ("hierarchy", "--algebra", "sl3", "--s", "explicit:0*E13"),
    ("hierarchy", "--algebra", "sl3", "--s", "explicit:E12"),
    ("verify-all", "--algebra", "sl3", "--s", "explicit:E12,E23"),
    ("tables", "--algebra", "sl3", "--s", "explicit:E12,E23"),
    ("setup", "--algebra", "sl3", "--f", "H1"),
    ("setup", "--algebra", "sl3", "--nilpotent", "short", "--f", "E31"),
    ("setup", "--algebra", "sl2", "--nilpotent", "short", "--s=diag:1/0"),
    ("setup", "--algebra", "sl2", "--nilpotent", "short", "--s=diag:a-b"),
    ("setup", "--algebra", "sl2", "--s=explicit:1/0*E12"),
    ("tables", "--algebra", "sl2", "--nilpotent", "short",
     "--s=diag:s1,s2"),
    ("tables", "--algebra", "sl4", "--nilpotent", "short", "--s=diag:a"),
    ("setup", "--algebra", "sl2", "--s=--"),
    ("hierarchy", "--algebra", "sl2", "--a-choice=--"),
    ("hierarchy", "--algebra", "sl2", "--n=--"),
    ("hierarchy", "--algebra", "sl2", "--max-degree=--"),
    ("setup", "--algebra", "sl2", "--f=--"),
    ("setup", "--algebra", "sl2", "--form-scale=--"),
    ("verify-all", "--algebra", "sl2", "--seed=--"),
    ("setup", "--algebra=--"),
    ("hierarchy", "--algebra", "sl3", "--a-choice", "centerfoo"),
    ("setup", "--algebra", "sl3", "--s", "explicit:E13,2*E13"),
    ("setup", "--algebra", "sl3", "--f", "E31,E31"),
    ("setup", "--algebra", "sl\u00b2"),
    ("setup", "--algebra", "sp\u2074"),
    ("setup", "--algebra", "sl99999999999999999999"),
    ("setup", "--algebra", "sp99999999999999999998"),
    ("hierarchy", "--algebra", "sl2", "--max-degree", "99999999999999999999"),
    ("hierarchy",) + SP6_SHORT_CENTER,
    ("verify-all",) + SP6_SHORT_CENTER,
], ids=["verify_n_neg", "hierarchy_n_neg", "max_degree_0",
        "max_degree_neg", "n_past_window", "sl1", "sp3", "unknown_f_label",
        "unknown_s_label", "s_not_semisimple", "s_in_g_half",
        "verify_s_not_in_g1", "tables_s_not_in_g1", "f_not_nilpotent",
        "f_wrong_kind", "diag_zero_denominator", "diag_bad_name",
        "explicit_zero_denominator", "diag_too_many", "diag_too_few",
        "s_dashes", "a_choice_dashes", "n_dashes", "max_degree_dashes",
        "f_dashes", "form_scale_dashes", "seed_dashes", "algebra_dashes",
        "a_choice_unknown", "explicit_repeated_label", "f_repeated_label",
        "sl_superscript_digit", "sp_superscript_digit", "sl_overflow",
        "sp_overflow", "max_degree_past_order_bound",
        "hierarchy_sp6_short_no_center",
        "verify_sp6_short_no_center"])
def test_bad_input_usage_error(argv, capsys):
    def too_slow(signum, frame):
        raise TimeoutError(f"{argv} ran for 10 s without a usage error")

    # bad input is refused before the work starts, not after it
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        code, out, err = run(capsys, *argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    if argv[-1].endswith("=--"):  # the option argparse read as []
        assert err.startswith(f"error: {argv[-1][:-3]} ")
    assert "Traceback" not in err + out
    assert "Fraction(" not in err
    if argv[1:] == SP6_SHORT_CENTER:  # the degree-0 center is what is empty
        assert err == ("error: the degree-0 center of ker ad(f+zs) is "
                       "trivial; no center element\n")


@pytest.mark.parametrize("argv, reason", [
    (("setup", "--algebra", "sl6", "--nilpotent", "short",
      "--f", "E21,E32,E43,E54,E65"),
     "eigenvalues [-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5] invalid for kind short"),
    (("setup", "--algebra", "sl3", "--nilpotent", "short", "--f", "E31"),
     "eigenvalues [-1, -1/2, 0, 1/2, 1] invalid for kind short"),
    (("setup", "--algebra", "sl2", "--s", "explicit:2*E12*3"),
     "'2*E12*3' is neither COEFF*LABEL nor LABEL"),
    (("setup", "--algebra", "sl4", "--s", "explicit:E14*2"),
     "'E14*2' is neither COEFF*LABEL nor LABEL"),
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
    (("setup", "--algebra", "sl3", "--f", "E12\nX"),
     "--f E12\\nX: unknown basis label 'E12\\nX'"),
], ids=["f_deep_grading", "f_wrong_kind", "explicit_two_stars",
        "explicit_label_first",
        "form_scale_number", "form_scale_zero_denominator", "form_scale_zero",
        "form_scale_empty", "form_scale_on_sp", "explicit_repeated_label",
        "f_repeated_label", "f_empty_label", "explicit_empty_label",
        "sl_overflow", "f_label_with_newline"])
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
    """The degree-0 center of ker ad(f+zs): for sl4 short with
    s = diag(s1, s2) that is the span of H1 + H3."""
    code, out, err = run(capsys, "hierarchy", "--algebra", "sl4",
                         "--nilpotent", "short", "--s", "diag:s1,s2",
                         "--a-choice", "center", "--n", "1",
                         "--max-degree", "2")
    assert code == 0, err
    assert "int g_0" in out


def g0f_center_oracle(frame):
    """The first vector of the center of the centralizer of s in g_0^f,
    from two kernel_spans: the degree-0 kernel alone, with none of the
    other loop degrees of ker ad(f+zs) that a center must commute with."""
    setup, g = frame.setup, frame.algebra
    base = [setup.basis[i] for i in setup.g0f_indices]
    cent = linalg.kernel_span(base, lambda v: [g.bracket(v, frame.s)], g.ring)
    ker = linalg.kernel_span(cent, lambda v: [g.bracket(v, w) for w in cent],
                             g.ring)
    return ker[0] if ker else None


@pytest.mark.parametrize("algebra, nilpotent, f, s", [
    (f"sl{n}", "minimal", None, "e") for n in range(2, 7)] + [
    (f"sl{n}", "minimal", None, "isotropic") for n in (3, 4, 5)] + [
    ("sp4", "minimal", None, "e"),
    ("sp6", "minimal", None, "e"),
    ("sp6", "short", "C11,C22,C33", "e"),
    ("sp6", "short", "C11,C22,C33", "explicit:B11,B22,2*B33"),
    ("sl4", "short", None, "e"),
    ("sl4", "short", None, "diag:s1,s2"),
    ("sl4", "short", None, "diag:2,3"),
    ("sl4", "short", None, "explicit:E13,2*E24,E14"),
    ("sl6", "short", None, "e"),
    ("sl6", "short", None, "diag:1,2,3"),
    ("sl6", "short", None, "diag:1,1,2"),
    ("sl6", "short", None, "diag:s1,s2,s3"),
])
def test_center_choice_matches_g0f_oracle(algebra, nilpotent, f, s, capsys):
    """--a-choice center is the vector the g_0^f construction finds, and
    it is empty where that one is; on sp6 short with the explicit s the
    g_0^f element is not central in ker ad(f+zs), and the choice is a
    usage error."""
    args = argparse.Namespace(algebra=algebra, nilpotent=nilpotent, f=f, s=s,
                              form_scale=None)
    frame, s_star = make_frame(args)[2:]
    dr = solve_dressing(frame, 1)
    want = g0f_center_oracle(frame)
    if s == "explicit:B11,B22,2*B33":
        assert not check_central(frame, dr.dec, {0: want})
        want = None
    if want is None:
        with pytest.raises(SystemExit) as e:
            parse_a_choice(dr, s_star, "center")
        assert e.value.code == 2
        assert "no center element" in capsys.readouterr().err
    else:
        assert parse_a_choice(dr, s_star, "center") == {0: want}


def test_isotropic_s_star_checked_once(capsys, monkeypatch):
    """--a-choice e_plus_s_star takes s* from the isotropic search, which
    solved and checked it: one EmbeddableData.check for the chosen s."""
    calls = []
    check = EmbeddableData.check

    def counted(self):
        calls.append(tuple(self.s))
        return check(self)

    monkeypatch.setattr(EmbeddableData, "check", counted)
    code, out, err = run(capsys, "hierarchy", "--algebra", "sl4",
                         "--s", "isotropic", "--a-choice", "e_plus_s_star",
                         "--n", "0", "--max-degree", "2")
    assert code == 0, err
    assert calls and calls.count(calls[-1]) == 1


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


def test_verify_all_names_a_non_skew_w_table_entry(capsys, monkeypatch):
    """A W table whose entry (1, 0) is not the skew of entry (0, 1) fails
    the lenard-magri recursion group, which names that pair."""
    from wds.diffpoly import LambdaPoly
    from wds.pva import BracketTable
    from wds.walgebra import WGenerators
    build, labels = WGenerators.table.func, []

    def broken(self):
        if "_broken" not in self.__dict__:
            table = build(self)
            out = self._broken = BracketTable(table.ctx)
            out.entries = dict(table.entries)
            h, k = table.get(1, 0)
            out.entries[(1, 0)] = (h + LambdaPoly(table.ctx,
                                                  [table.ctx.gen(0)]), k)
            labels[:] = table.ctx.labels[:2]
        return self._broken

    monkeypatch.setattr(WGenerators, "table", property(broken))
    code, out, _ = run(capsys, "verify-all", "--algebra", "sl3",
                       "--nilpotent", "minimal", "--format", "json")
    assert code == 1
    group = {grp["name"]: grp for grp in json.loads(out)["groups"]}[
        "lenard-magri recursion"]
    assert not group["passed"]
    assert [line for line in group["failures"] if "skew" in line] == [
        f"W table skew ({labels[0]},{labels[1]})"]


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


# -- the options of each command ---------------------------------------------

EVERY_COMMAND = ("--algebra", "--nilpotent", "--f", "--s", "--form-scale",
                 "--format")
# the options each command reads; it refuses every other one
READS = {
    "setup": EVERY_COMMAND + ("--dump-setup",),
    "generators": EVERY_COMMAND,
    "tables": EVERY_COMMAND,
    "hierarchy": EVERY_COMMAND + ("--a-choice", "--n", "--max-degree",
                                  "--reduce"),
    "verify-all": EVERY_COMMAND + ("--a-choice", "--n", "--max-degree",
                                   "--seed"),
}
FORMATS = {"setup": ("text", "json"), "generators": ("text", "latex", "json"),
           "tables": ("text", "json"), "hierarchy": ("text", "latex", "json"),
           "verify-all": ("text", "json")}
# a value of each option that a run on sl2 takes (None: a flag)
SL2_VALUES = {"--nilpotent": "minimal", "--f": "E21", "--s": "e",
              "--form-scale": "c", "--format": "json", "--dump-setup": None,
              "--a-choice": "f_plus_ze", "--n": "0", "--max-degree": "3",
              "--reduce": None, "--seed": "5"}


@pytest.mark.parametrize("command, option", [
    (command, option) for command in READS for option in SL2_VALUES])
def test_each_command_takes_only_the_options_it_reads(command, option, capsys):
    """An option the command reads runs; any other exits 2 with one line."""
    value = SL2_VALUES[option]
    given = [option] if value is None else [option, value]
    code, out, err = run(capsys, command, "--algebra", "sl2", *given)
    if option in READS[command]:
        assert (code, err) == (0, ""), err
    else:
        assert (code, out, err) == (
            2, "", f"error: unrecognized arguments: {' '.join(given)}\n")


@pytest.mark.parametrize("command", sorted(READS))
def test_help_lists_the_options_read(command, capsys):
    """-h lists exactly the options the command reads, and the formats it
    prints; a format it does not print exits 2 with one line."""
    code, out, err = run(capsys, command, "-h")
    assert (code, err) == (0, "")
    listed = re.findall(r"^  (-[-\w]+)", out.split("options:", 1)[1], re.M)
    assert listed == ["-h", *READS[command]]
    assert f"--format {{{','.join(FORMATS[command])}}}" in out
    for fmt in ("text", "latex", "json"):
        if fmt not in FORMATS[command]:
            code, out, err = run(capsys, command, "--algebra", "sl2",
                                 "--format", fmt)
            assert (code, out) == (2, "") and err.count("\n") == 1
            assert err.startswith("error: argument --format: invalid choice:")


@pytest.mark.parametrize("argv, reason", [
    ((), "the following arguments are required: command"),
    (("frobnicate",), "argument command: invalid choice:"),
    (("setup",), "the following arguments are required: --algebra"),
    (("setup", "--algebra", "sl3", "--nilpotent", "foo"),
     "argument --nilpotent: invalid choice:"),
    (("hierarchy", "--algebra", "sl2", "--n", "x"),
     "argument --n: invalid int value: 'x'"),
    (("setup", "--algebra", "sl2", "--n", "1"),
     "unrecognized arguments: --n 1"),
    (("setup", "--alg", "sl2"),
     "the following arguments are required: --algebra"),
    (("setup", "--algebra", "sl2", "a\nb"),
     "unrecognized arguments: a\\nb\n"),
], ids=["command_missing", "command_unknown", "algebra_missing",
        "nilpotent_unknown_choice", "n_not_integer",
        "n_not_an_abbreviation_of_nilpotent", "no_abbreviated_options",
        "newline_in_argument"])
def test_argparse_errors_are_one_line(argv, reason, capsys):
    """argparse's own refusals are one `error:` line with exit status 2, no
    usage block, like the engine's; a long option is never abbreviated."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.startswith(f"error: {reason}")


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
    """setup, generators or tables, with values drawn for options that the
    command reads, and no other option: an ignored one stops the run before
    the engine."""
    command = draw(st.sampled_from(["setup", "generators", "tables"]))
    algebra = draw(st.sampled_from(sorted(LABELS)))
    junk = st.text(alphabet="diagexplct:E123*,/0s-", max_size=10)
    labels = st.lists(st.sampled_from(LABELS[algebra] + ["E99", "X", ""]),
                      min_size=1, max_size=3).map(",".join)
    options = {
        "--nilpotent": optional(st.sampled_from(["minimal", "short"])),
        "--s": optional(st.sampled_from(S_CHOICES) | junk),
        "--f": optional(labels),
        "--format": optional(st.sampled_from(FORMATS[command])),
    }
    argv = [command, "--algebra", algebra]
    for flag, values in options.items():
        assert flag in READS[command]
        value = draw(values)
        if value is not None:
            argv.append(f"{flag}={value}")
    if command == "setup" and draw(st.booleans()):
        argv.append("--dump-setup")
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


def test_n_past_window_names_the_degree(capsys):
    code, out, err = run(capsys, "hierarchy", "--algebra", "sl2", "--n", "2")
    assert (code, out, err) == (
        2, "", "error: --n 2 needs --max-degree >= 5\n")
    code, out, err = run(capsys, "verify-all", "--algebra", "sl2",
                         "--n", "3", "--max-degree", "1")
    assert code == 2 and err == "error: --n 3 needs --max-degree >= 7\n"


@pytest.mark.parametrize("argv, reason", [
    (SP6_SHORT_CENTER,
     "the degree-0 center of ker ad(f+zs) is trivial; no center element"),
    (("--algebra", "sl3", "--n", "9", "--max-degree", "2"),
     "--n 9 needs --max-degree >= 19"),
], ids=["no_center", "n_past_window"])
def test_verify_all_refuses_before_it_prints(argv, reason, capsys):
    """verify-all solves the dressing, picks a(z) and takes the densities
    before its first report, so a refused run prints no group: stdout is
    empty and stderr is one error: line."""
    code, out, err = run(capsys, "verify-all", *argv)
    assert (code, out, err) == (2, "", f"error: {reason}\n")


def test_max_degree_past_the_order_bound_names_it(capsys):
    """The dressing to loop degree D differentiates up to order D, and a
    monomial holds orders up to 2**B - 1: a larger --max-degree is refused
    at once, with the bound in the message."""
    assert MAX_ORDER == 2 ** B - 1
    code, out, err = run(capsys, "hierarchy", "--algebra", "sl2",
                         "--max-degree", str(MAX_ORDER + 1))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --max-degree must be <= {MAX_ORDER}, ")
    check_ranges(argparse.Namespace(n=0, max_degree=MAX_ORDER))  # accepted


# -- invariants that survive python -O ---------------------------------------


def test_closed_pipe_exits_quietly():
    """A reader that closes stdout early (`wds ... | head -c 100`) ends the
    run with status 1 and no traceback: the 1.8 MB of JSON overflow the
    pipe, so the write fails once the reader is gone."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
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
    argv = ["-m", "wds.cli", "verify-all", "--algebra", "sl3",
            "--nilpotent", "minimal"]
    plain, optimized = [
        subprocess.run([sys.executable, *flags, *argv], capture_output=True,
                       text=True, env=env, cwd=ROOT, timeout=300)
        for flags in ([], ["-O"])]
    assert plain.returncode == 0, plain.stderr
    assert (optimized.returncode, optimized.stdout) == (
        plain.returncode, plain.stdout)
