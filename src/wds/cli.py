"""Batch front-end: build a configuration, run verifications, emit results.

Exit status 0 means every requested verification passed; usage errors from
invalid flag combinations exit with status 2.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from fractions import Fraction

from . import linalg
from .diffpoly import MAX_ORDER, DiffPoly
from .lie import (GradedSetup, GradeMismatch, InvalidDimension, MINIMAL,
                  NotNilpotent, SHORT, UnknownLabel, WrongKind, build_sl,
                  build_sp, coords_in, index_label)
from .pva import ReductionFrame, check_pva_axioms
from .walgebra import WGenerators, verify_table
from .hierarchy import (NotSemisimple, WindowOverflow, center_of_h,
                        conserved_densities, dressing_defect, hierarchy_flow,
                        reduce_mod_jk, solve_dressing, verify_lenard_magri)


class UsageError(SystemExit):
    def __init__(self, msg: str):
        print("error: " + msg.replace("\n", "\\n"), file=sys.stderr)
        super().__init__(2)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's own refusals: one line, exit 2
        raise UsageError(message)


def build_algebra(name: str, params: list[str], form_scale: str | None):
    kind, n = name[:2], name[2:]
    try:
        if kind == "sl" and n.isascii() and n.isdigit():
            return build_sl(int(n), params, form_scale)
        if kind == "sp" and n.isascii() and n.isdigit():
            return build_sp(int(n), params)
    except InvalidDimension as e:
        raise UsageError(f"--algebra {name}: {e}") from None
    except OverflowError:
        raise UsageError(f"--algebra {name}: n is too large") from None
    raise UsageError(f"unknown algebra {name!r}; use slN or spN")


def unique_terms(option: str, pairs) -> dict:
    """{label: coefficient} of (label, coefficient) pairs; an empty label,
    or a label given twice, is refused."""
    terms = {}
    for label, c in pairs:
        if not label:
            raise UsageError(f"{option}: unknown basis label ''")
        if label in terms:
            raise UsageError(f"{option}: label {label!r} is repeated")
        terms[label] = c
    return terms


def default_nilpotent(g, name: str, kind: str):
    """Deterministic representative: lowest-root vector, or the half-rank
    block for a short element."""
    n = int(name[2:])
    if kind == MINIMAL:
        return g.parse({index_label("E", n, 1) if name.startswith("sl")
                        else "C11": 1})
    if not name.startswith("sl") or n % 2:
        raise UsageError(f"no short nilpotent constructor for {name}")
    m = n // 2
    return g.parse({index_label("E", m + i, i): 1 for i in range(1, m + 1)})


def find_isotropic_s(setup: GradedSetup):
    """(s, s*) for the first embeddable s over small integer coefficient
    patterns, s* the solution of [s, s*] = 2x that find_embeddable checked."""
    g = setup.algebra
    half = [setup.basis[i] for i in setup.eig_indices(Fraction(1, 2))]
    for coeffs in itertools.product((1, 0, -1), repeat=len(half)):
        if not any(coeffs):
            continue
        s = linalg.combine([g.ring.const(c) for c in coeffs], half)
        s_star = setup.find_embeddable(s)
        if s_star is not None:
            return s, s_star
    raise UsageError(
        "no embeddable element exists in g_1/2 for this algebra "
        "(small-coefficient search exhausted; e.g. sp4 minimal admits none)")


def diag_entries(choice: str) -> list:
    """The entries of --s diag:a,b,...: Fractions, or parameter names."""
    out = []
    for ent in choice[5:].split(","):
        try:
            out.append(Fraction(ent))
        except ValueError:
            if not ent.isidentifier():
                raise UsageError(f"--s {choice}: {ent!r} is neither a number "
                                 "nor a parameter name") from None
            out.append(ent)
        except ZeroDivisionError:
            raise UsageError(f"--s {choice}: zero denominator in {ent!r}") from None
    return out


def parse_s(setup: GradedSetup, choice: str):
    """(s, s*), s* None unless s is the embeddable s of the isotropic
    variant."""
    g = setup.algebra
    if choice == "e":
        return setup.e, None
    if choice == "isotropic":
        if setup.kind != MINIMAL:
            raise UsageError("isotropic s requires a minimal nilpotent")
        return find_isotropic_s(setup)
    if choice.startswith("diag:"):
        if setup.kind != SHORT:
            raise UsageError("diag s requires a short nilpotent")
        entries = diag_entries(choice)
        m = len(entries)
        coeffs = [g.ring.param(e) if isinstance(e, str) else g.ring.const(e)
                  for e in entries]
        try:
            vecs = [g.parse({index_label("E", i, m + i): 1})
                    for i in range(1, m + 1)]
            for v in vecs:
                coords_in(setup, v, setup.eig_indices(1), "not in g_1")
        except (UnknownLabel, GradeMismatch):
            raise UsageError(
                f"--s {choice}: the sum of the E_i,i+{m} is not in g_1; "
                "give one entry per row of the top block") from None
        return linalg.combine(coeffs, vecs), None
    if choice.startswith("explicit:"):
        pairs = []
        try:
            for part in choice[9:].split(","):
                co, star, lab = part.rpartition("*")
                try:
                    pairs.append((lab, Fraction(co) if star else 1))
                except ValueError:
                    raise UsageError(f"--s {choice}: {part!r} is neither "
                                     "COEFF*LABEL nor LABEL") from None
            return g.parse(unique_terms(f"--s {choice}", pairs)), None
        except ValueError as e:
            raise UsageError(f"--s {choice}: {e}") from None
        except ZeroDivisionError:
            raise UsageError(f"--s {choice}: zero denominator") from None
    raise UsageError(f"unknown s choice {choice!r}")


def parse_a_choice(dr, s_star, choice: str):
    """a(z) for --a-choice, as {z power: g vector}; the center is read off
    the dressing's decomposition."""
    frame = dr.dec.frame
    setup = frame.setup
    if choice == "f_plus_ze":
        return {0: setup.f, 1: frame.s}
    if choice == "e_plus_s_star":
        if s_star is None:
            raise UsageError("e_plus_s_star needs an embeddable isotropic s")
        return {0: setup.e, -1: s_star}
    if choice == "center":
        # the first basis vector of the degree-0 center of ker ad(f+zs),
        # a constant loop on slice(0) = g_0
        center = center_of_h(frame, dr.dec, [0])[0]
        if not center:
            raise UsageError("the degree-0 center of ker ad(f+zs) is trivial; "
                             "no center element")
        terms = center[0].terms
        return {0: linalg.combine([p.const_term() for p in terms.values()],
                                  [frame.basis[i] for i, _ in terms])}
    raise UsageError(f"unknown a(z) choice {choice!r}")


def make_frame(args):
    params, scale = [], None
    if args.s.startswith("diag:"):
        params = [e for e in diag_entries(args.s) if isinstance(e, str)]
        if params and args.form_scale is None:
            scale = "c"
    if args.form_scale is not None:
        if not args.form_scale.isidentifier():
            raise UsageError(f"--form-scale {args.form_scale!r} is not a "
                             "parameter name; give an identifier such as c")
        scale = args.form_scale
    g = build_algebra(args.algebra, params, scale)
    if args.form_scale is not None and args.algebra.startswith("sp"):
        raise UsageError(f"--form-scale {args.form_scale}: {args.algebra} has "
                         "no scaled trace form; only slN takes one")
    kind = MINIMAL if args.nilpotent == "minimal" else SHORT
    if args.f:
        try:
            f = g.parse(unique_terms(f"--f {args.f}",
                                     ((p, 1) for p in args.f.split(","))))
        except UnknownLabel as e:
            raise UsageError(f"--f {args.f}: {e}") from None
    else:
        f = default_nilpotent(g, args.algebra, kind)
    try:
        setup = GradedSetup(g, f, kind)
    except (NotNilpotent, WrongKind) as e:
        raise UsageError(f"--f {g.vec_str(f)}: {e}") from None
    s, s_star = parse_s(setup, args.s)
    try:
        frame = ReductionFrame(setup, s, isotropic=s_star is not None)
        if not frame.isotropic:  # the reduction takes s in g_1
            coords_in(setup, s, setup.eig_indices(1), "s is not in g_1")
    except GradeMismatch as e:
        raise UsageError(f"--s {args.s}: {e}") from None
    return g, setup, frame, s_star


def emit(doc, args, indent=0):
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    for k, v in doc.items():
        if isinstance(v, dict):
            print(" " * indent + f"{k}:")
            emit(v, args, indent + 2)
        else:
            print(" " * indent + f"{k}: {v}")


def fmt_poly(p: DiffPoly, args) -> str:
    return {"latex": DiffPoly.latex, "json": DiffPoly.to_json}.get(args.format, str)(p)


def cmd_setup(args):
    g, setup, frame, _ = make_frame(args)
    doc = {"algebra": g.to_json() if args.dump_setup else {"dim": g.dim},
           "setup": setup.to_json(),
           "s": g.vec_str(frame.s)}
    emit(doc, args)
    return 0


def cmd_generators(args):
    gens = WGenerators(make_frame(args)[2])
    doc = {name: fmt_poly(p, args) for name, p in gens.all_generators()}
    doc["Ltilde"] = fmt_poly(gens.Ltilde, args)
    emit(doc, args)
    return 0


def cmd_tables(args):
    frame = make_frame(args)[2]
    tables = verify_table(frame, WGenerators(frame))
    emit({which: {entry: "FAIL" if bad else "PASS"
                  for entry, bad in rows.items()}
          for which, rows in tables.items()}, args)
    return int(any(any(rows.values()) for rows in tables.values()))


def dress(frame, s_star, args):
    """(Dressing, densities): the dressing solved to --max-degree and its
    densities up to --n for --a-choice, with an s that makes f + s
    non-semisimple, or an --n past the solved window, reported as a usage
    error."""
    try:
        dr = solve_dressing(frame, args.max_degree)
    except NotSemisimple as e:
        raise UsageError(f"--s {args.s}: {e}") from None
    a_z = parse_a_choice(dr, s_star, args.a_choice)
    try:
        return dr, conserved_densities(dr, a_z, n_max=args.n)
    except WindowOverflow as e:
        raise UsageError(f"--n {args.n} needs --max-degree >= "
                         f"{math.ceil(e.needed)}") from None


def cmd_hierarchy(args):
    frame, s_star = make_frame(args)[2:]
    gens = WGenerators(frame)
    dens = dress(frame, s_star, args)[1]
    doc = {f"int g_{n}": fmt_poly(gn, args) for n, gn in enumerate(dens)}
    for n in range(min(args.n, len(dens) - 1) + 1):
        eqs = {}
        flow = hierarchy_flow(frame, gens, dens[n])
        for name, w in gens.all_generators():
            eq = flow(w)
            if args.reduce:
                eq = reduce_mod_jk(frame, eq)
            eqs[f"d/dt_{n} {name}"] = fmt_poly(eq, args)
        doc[f"time_index {n}"] = eqs
    emit(doc, args)
    return 0


def cmd_verify_all(args):
    g, setup, frame, s_star = make_frame(args)
    # what can refuse the input runs before the first report, as in hierarchy
    dr, dens = dress(frame, s_star, args)
    groups = []

    def report(name, bad):
        groups.append({"name": name, "passed": not bad,
                       "failures": [str(entry) for entry in bad]})
        if args.format == "json":
            return
        print(f"[{'PASS' if not bad else 'FAIL'}] {name}")
        for entry in bad:
            print(f"  {entry}")

    report("lie algebra axioms", g.check_axioms())
    grading_ok = sum(len(v) for v in setup.grading.values()) == g.dim
    report("grading completeness", [] if grading_ok else ["dimension mismatch"])
    report("affine bracket PVA axioms",
           check_pva_axioms(frame.full_table, seed=args.seed, samples=8,
                            gens_cap=min(g.dim, 8)))
    gens = WGenerators(frame)
    memb = [name for name, p in gens.all_generators()
            if not frame.is_in_w(p)]
    report("generator membership", memb)
    for which, rows in verify_table(frame, gens).items():
        report(f"bracket table {which}", [m for bad in rows.values() for m in bad])
    defect = dressing_defect(dr)
    report("dressing conjugation oracle", [] if not defect else ["nonzero"])
    report("lenard-magri recursion", verify_lenard_magri(frame, gens, dens))
    failed = sum(not group["passed"] for group in groups)
    if args.format == "json":
        print(json.dumps({"groups": groups, "failed": failed}, indent=2))
    elif failed:
        print(f"{failed} verification group(s) failed")
    else:
        print("all verifications passed")
    return int(failed > 0)


def check_ranges(args):
    """Reject values argparse accepts but the engine cannot use."""
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse reads --opt=-- as []
            raise UsageError(f"--{name.replace('_', '-')} needs a value, "
                             "got '--'")
    # defaults that pass, for the commands without --n and --max-degree
    n, max_degree = getattr(args, "n", 0), getattr(args, "max_degree", 1)
    if n < 0:
        raise UsageError(f"--n must be >= 0, got {n}")
    if max_degree < 1:
        raise UsageError(f"--max-degree must be >= 1, got {max_degree}")
    # the dressing to loop degree D differentiates up to order D
    if max_degree > MAX_ORDER:
        raise UsageError(f"--max-degree must be <= {MAX_ORDER}, the highest "
                         f"derivative order a monomial holds, got {max_degree}")


def main(argv=None) -> int:
    parser = _Parser(prog="wds", description="classical W-algebras and "
                     "Drinfeld-Sokolov hierarchies, exactly")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {"setup": cmd_setup, "generators": cmd_generators,
                "tables": cmd_tables, "hierarchy": cmd_hierarchy,
                "verify-all": cmd_verify_all}
    dressing = ("hierarchy", "verify-all")
    # each option, the commands that read it (no other takes it), settings
    options = (
        ("--algebra", commands, dict(required=True, help="slN or spN")),
        ("--nilpotent", commands,
         dict(choices=("minimal", "short"), default="minimal")),
        ("--f", commands,
         dict(help="explicit nilpotent as comma-separated basis labels")),
        ("--s", commands, dict(
            default="e", help="e | isotropic | diag:a,b | explicit:LABEL,...")),
        ("--form-scale", commands,
         dict(help="scale the trace form by a named parameter")),
        ("--format", ("generators", "hierarchy"),
         dict(choices=("text", "latex", "json"), default="text")),
        ("--format", ("setup", "tables", "verify-all"),
         dict(choices=("text", "json"), default="text")),
        ("--dump-setup", ("setup",), dict(action="store_true")),
        ("--a-choice", dressing,
         dict(default="f_plus_ze", help="f_plus_ze | e_plus_s_star | center")),
        ("--n", dressing,
         dict(type=int, default=1, help="highest hierarchy time index")),
        ("--max-degree", dressing,
         dict(type=int, default=4, help="highest loop degree of the dressing")),
        ("--reduce", ("hierarchy",), dict(action="store_true", help=(
            "apply the J_K reduction to printed equations"))),
        ("--seed", ("verify-all",), dict(type=int, default=1729)),
    )
    for name, fn in commands.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(fn=fn)
        for option, readers, settings in options:
            if name in readers:
                p.add_argument(option, **settings)
    args = parser.parse_args(argv)
    check_ranges(args)
    try:
        status = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): exit quietly, with stdout
        # on devnull so that the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
