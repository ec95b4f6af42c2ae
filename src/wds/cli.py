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
from .diffpoly import DiffPoly
from .lie import (GradedSetup, GradeMismatch, InvalidDimension, MINIMAL,
                  NotNilpotent, SHORT, UnknownLabel, WrongKind, build_sl,
                  build_sp, coords_in, index_label)
from .pva import ReductionFrame, check_pva_axioms
from .walgebra import WGenerators, verify_table
from .hierarchy import (NotSemisimple, WindowOverflow, conserved_densities,
                        dressing_defect, hierarchy_equation, reduce_mod_jk,
                        solve_dressing, verify_lenard_magri)


class UsageError(SystemExit):
    def __init__(self, msg: str):
        print(f"error: {msg}", file=sys.stderr)
        super().__init__(2)


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
        if name.startswith("sl"):
            return g.parse({index_label("E", n, 1): 1})
        return g.parse({"C11": 1})
    if not name.startswith("sl") or n % 2:
        raise UsageError(f"no short nilpotent constructor for {name}")
    m = n // 2
    return g.parse({index_label("E", m + i, i): 1 for i in range(1, m + 1)})


def find_isotropic_s(setup: GradedSetup):
    """First embeddable element over small integer coefficient patterns."""
    g = setup.algebra
    half = [setup.basis[i] for i in setup.eig_indices(Fraction(1, 2))]
    for coeffs in itertools.product((1, 0, -1), repeat=len(half)):
        if not any(coeffs):
            continue
        s = linalg.combine([g.ring.const(c) for c in coeffs], half)
        if setup.find_embeddable(s) is not None:
            return s
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
    g = setup.algebra
    if choice == "e":
        return setup.e, False
    if choice == "isotropic":
        if setup.kind != MINIMAL:
            raise UsageError("isotropic s requires a minimal nilpotent")
        return find_isotropic_s(setup), True
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
        return linalg.combine(coeffs, vecs), False
    if choice.startswith("explicit:"):
        pairs = []
        try:
            for part in choice[9:].split(","):
                if part.count("*") > 1:
                    raise UsageError(f"--s {choice}: {part!r} is neither "
                                     "COEFF*LABEL nor LABEL")
                if "*" in part:
                    co, lab = part.split("*")
                    pairs.append((lab, Fraction(co)))
                else:
                    pairs.append((part, 1))
            return g.parse(unique_terms(f"--s {choice}", pairs)), False
        except ValueError as e:
            raise UsageError(f"--s {choice}: {e}") from None
        except ZeroDivisionError:
            raise UsageError(f"--s {choice}: zero denominator") from None
    raise UsageError(f"unknown s choice {choice!r}")


def parse_a_choice(setup, frame, choice: str, emb_s_star=None):
    g = setup.algebra
    if choice == "f_plus_ze":
        return {0: setup.f, 1: frame.s}
    if choice == "e_plus_s_star":
        if emb_s_star is None:
            raise UsageError("e_plus_s_star needs an embeddable isotropic s")
        return {0: setup.e, -1: emb_s_star}
    if choice == "center":
        # a central element of the centralizer of s in g_0^f
        base = [setup.basis[i] for i in setup.g0f_indices]
        cent = linalg.kernel_span(base, lambda v: [g.bracket(v, frame.s)], g.ring)
        ker = linalg.kernel_span(cent, lambda v: [g.bracket(v, w) for w in cent],
                                 g.ring)
        if not ker:
            raise UsageError("the centralizer core is trivial; no center element")
        return {0: ker[0]}
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
    s, isotropic = parse_s(setup, args.s)
    try:
        frame = ReductionFrame(setup, s, isotropic=isotropic)
        if not isotropic:  # the reduction takes s in g_1
            coords_in(setup, s, setup.eig_indices(1), "s is not in g_1")
    except GradeMismatch as e:
        raise UsageError(f"--s {args.s}: {e}") from None
    return g, setup, frame


def emit(doc, args):
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        def walk(d, indent=0):
            for k, v in d.items():
                if isinstance(v, dict):
                    print(" " * indent + f"{k}:")
                    walk(v, indent + 2)
                else:
                    print(" " * indent + f"{k}: {v}")
        walk(doc)


def fmt_poly(p: DiffPoly, args) -> str:
    if args.format == "latex":
        return p.latex()
    if args.format == "json":
        return p.to_json()
    return str(p)


def cmd_setup(args):
    g, setup, frame = make_frame(args)
    doc = {"algebra": g.to_json() if args.dump_setup else {"dim": g.dim},
           "setup": setup.to_json(),
           "s": g.vec_str(frame.s)}
    emit(doc, args)
    return 0


def cmd_generators(args):
    g, setup, frame = make_frame(args)
    gens = WGenerators(frame)
    doc = {name: fmt_poly(p, args) for name, p in gens.all_generators()}
    doc["Ltilde"] = fmt_poly(gens.Ltilde, args)
    emit(doc, args)
    return 0


def cmd_tables(args):
    g, setup, frame = make_frame(args)
    tables = verify_table(frame, WGenerators(frame))
    emit({which: {entry: "FAIL" if bad else "PASS"
                  for entry, bad in rows.items()}
          for which, rows in tables.items()}, args)
    return int(any(any(rows.values()) for rows in tables.values()))


def dress(frame, max_deg, args):
    """solve_dressing, with an s that makes f + s non-semisimple reported
    as a usage error."""
    try:
        return solve_dressing(frame, max_deg, projected=True)
    except NotSemisimple as e:
        raise UsageError(f"--s {args.s}: {e}") from None


def densities(frame, h, a_z, dec, args):
    """conserved_densities up to --n, with an --n past the solved window
    reported as a usage error."""
    try:
        return conserved_densities(frame, h, a_z, n_max=args.n, dec=dec)
    except WindowOverflow as e:
        raise UsageError(f"--n {args.n} needs --max-degree >= "
                         f"{math.ceil(e.needed)}") from None


def cmd_hierarchy(args):
    g, setup, frame = make_frame(args)
    gens = WGenerators(frame)
    max_deg = Fraction(args.max_degree)
    U, h, dec = dress(frame, max_deg, args)
    emb_star = None
    if frame.isotropic:
        emb_star = setup.find_embeddable(frame.s)
    a_z = parse_a_choice(setup, frame, args.a_choice, emb_star)
    dens = densities(frame, h, a_z, dec, args)
    doc = {}
    for n, gn in enumerate(dens):
        doc[f"int g_{n}"] = fmt_poly(gn, args)
    for n in range(min(args.n, len(dens) - 1) + 1):
        eqs = {}
        for name, w in gens.all_generators():
            eq = hierarchy_equation(frame, gens, dens[n], w)
            if args.reduce:
                eq = reduce_mod_jk(frame, eq)
            eqs[f"d/dt_{n} {name}"] = fmt_poly(eq, args)
        doc[f"time_index {n}"] = eqs
    emit(doc, args)
    return 0


def cmd_verify_all(args):
    g, setup, frame = make_frame(args)
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
    max_deg = Fraction(args.max_degree)
    U, h, dec = dress(frame, max_deg, args)
    defect = dressing_defect(frame, U, h, max_deg)
    report("dressing conjugation oracle", [] if not defect else ["nonzero"])
    emb_star = setup.find_embeddable(frame.s) if frame.isotropic else None
    a_z = parse_a_choice(setup, frame, args.a_choice, emb_star)
    dens = densities(frame, h, a_z, dec, args)
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
    if args.max_degree is None:
        env = os.environ.get("WDS_MAX_DEGREE", "4")
        try:
            args.max_degree = int(env)
        except ValueError:
            raise UsageError(
                f"WDS_MAX_DEGREE must be an integer, got {env!r}") from None
    if args.n < 0:
        raise UsageError(f"--n must be >= 0, got {args.n}")
    if args.max_degree < 1:
        raise UsageError(f"--max-degree must be >= 1, got {args.max_degree}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wds",
        description="classical W-algebras and Drinfeld-Sokolov hierarchies, exactly",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("setup", cmd_setup),
        ("generators", cmd_generators),
        ("tables", cmd_tables),
        ("hierarchy", cmd_hierarchy),
        ("verify-all", cmd_verify_all),
    ):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--algebra", required=True, help="slN or spN")
        p.add_argument("--nilpotent", choices=("minimal", "short"),
                       default="minimal")
        p.add_argument("--f", default=None,
                       help="explicit nilpotent as comma-separated basis labels")
        p.add_argument("--s", default="e",
                       help="e | isotropic | diag:a,b | explicit:LABEL,...")
        p.add_argument("--a-choice", default="f_plus_ze",
                       help="f_plus_ze | e_plus_s_star | center")
        p.add_argument("--n", type=int, default=1,
                       help="highest hierarchy time index")
        p.add_argument("--max-degree", type=int, default=None,
                       help="highest loop degree of the dressing "
                            "(default: $WDS_MAX_DEGREE, else 4)")
        p.add_argument("--format", choices=("text", "latex", "json"),
                       default="text")
        p.add_argument("--seed", type=int, default=1729)
        p.add_argument("--reduce", action="store_true",
                       help="apply the J_K reduction to printed equations")
        p.add_argument("--dump-setup", action="store_true")
        p.add_argument("--form-scale", default=None,
                       help="scale the trace form by a named parameter")
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
