"""Outside-in per-layer tracing of the wds engine.

The tracer wraps public functions and methods of each ``wds`` module after
import, from the benchmark's own files; nothing under ``src/`` is edited.
``wds.cli`` and other modules bind some functions by name
(``from .walgebra import verify_table``), so every module attribute that is
the original function object is rebound to its wrapper.

A span records calls, inclusive time and self time (its duration minus the
time covered by spans opened inside it).  Spans are aggregated per name in
memory; individual spans are not kept, because ``DiffPoly`` products alone
number in the hundreds of thousands.  Hot scalar operations are counted
without timing, which keeps the tracing overhead small.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from fractions import Fraction

perf = time.perf_counter

MODULES = ("scalars", "linalg", "lie", "diffpoly", "pva", "walgebra",
           "hierarchy", "cli")

# loop degrees visited by solve_dressing in any workload: -1/2 .. 8
DRESSING_DEGREES = [Fraction(k, 2) for k in range(-1, 17)]


def degree_name(deg) -> str:
    return f"hierarchy.exp_ad_apply_s.deg_{float(deg)}"


def _dp_terms(lp) -> int:
    """Total DiffPoly terms in a LambdaPoly."""
    return sum(len(c.terms) for c in lp.coeffs)


def _loop_terms(parts: dict) -> int:
    """Total DiffPoly terms in a {degree: LoopElement} map."""
    return sum(len(p.terms) for el in parts.values() for p in el.terms.values())


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.amount = defaultdict(int)
        self.open = defaultdict(int)  # span name -> nesting depth
        self._child = []  # per open span: time covered by its child spans

    # -- wrappers ------------------------------------------------------

    def span(self, name, fn, outermost=False, after=None, extra=None):
        """Wrap fn in a span.  outermost: nested calls of the same span
        (recursion, or rref inside kernel) run unwrapped.  after(args,
        result) records amounts; extra(args) names a second time bucket, or
        returns None."""
        calls, total, self_t = self.calls, self.time, self.self_time
        depth, child = self.open, self._child

        def wrapper(*args, **kwargs):
            if outermost and depth[name]:
                return fn(*args, **kwargs)
            depth[name] += 1
            child.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                inner = child.pop()
                if child:
                    child[-1] += dt
                depth[name] -= 1
                calls[name] += 1
                total[name] += dt
                self_t[name] += dt - inner
                if extra is not None:
                    bucket = extra(args)
                    if bucket:
                        total[bucket] += dt
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        def wrapper(a, b):
            calls[name] += 1
            return fn(a, b)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"wds.{m}") for m in MODULES}
        sc, la, lie, dp = mods["scalars"], mods["linalg"], mods["lie"], mods["diffpoly"]
        pva, wa, hi = mods["pva"], mods["walgebra"], mods["hierarchy"]
        amount = self.amount

        def bracket_terms(args, result):
            g, h = args[1], args[2]
            amount["pva.master_bracket_terms_in"] += len(g.terms) + len(h.terms)
            amount["pva.master_bracket_terms_out"] += sum(map(_dp_terms, result))

        def pi_inverse_terms(args, result):
            amount["walgebra.pi_inverse_terms_in"] += len(args[1].terms)
            amount["walgebra.pi_inverse_terms_out"] += len(result.terms)

        def mul_terms(args, result):
            amount["diffpoly.mul_terms_out"] += len(result.terms)

        def h_terms(args, result):
            amount["hierarchy.h_terms"] += _loop_terms(result[1])

        def dressing_degree(args):
            if self.open["hierarchy.solve_dressing"]:
                return degree_name(args[2])
            return None

        functions = [
            (sc, "mp_gcd", "scalars.gcd", dict(outermost=True)),
            (lie, "build_sl", "lie.build", {}),
            (lie, "build_sp", "lie.build", {}),
            (pva, "master_bracket", "pva.master_bracket", dict(after=bracket_terms)),
            (pva, "check_pva_axioms", "pva.check_pva_axioms", {}),
            (wa, "verify_table", "walgebra.verify_table", {}),
            (hi, "solve_dressing", "hierarchy.solve_dressing", dict(after=h_terms)),
            (hi, "dressing_defect", "hierarchy.dressing_defect", {}),
            (hi, "exp_ad_apply", "hierarchy.exp_ad_apply", dict(extra=dressing_degree)),
            (hi, "conserved_densities", "hierarchy.conserved_densities", {}),
            (hi, "hierarchy_equation", "hierarchy.hierarchy_equation", {}),
            (hi, "verify_lenard_magri", "hierarchy.lenard_magri", {}),
        ] + [(la, fn, "linalg", dict(outermost=True))
             for fn in ("rref", "kernel", "inverse", "solve")]
        methods = [
            (lie.GradedSetup, "__init__", "lie.graded_setup", {}),
            (pva.ReductionFrame, "__init__", "pva.frame", {}),
            (wa.WGenerators, "__init__", "walgebra.generators", {}),
            (wa.WGenerators, "pi_inverse", "walgebra.pi_inverse", dict(after=pi_inverse_terms)),
            (hi.HDecomposition, "__init__", "hierarchy.decomposition", {}),
            (dp.DiffPoly, "__mul__", "diffpoly.mul", dict(after=mul_terms)),
        ]

        # A name the engine no longer has is skipped, and its metrics read 0,
        # so the benchmark keeps running across refactors of src/.
        rebind = {}
        for mod, attr, name, options in functions:
            fn = getattr(mod, attr, None)
            if fn is not None:
                rebind[fn] = self.span(name, fn, **options)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in rebind:
                    setattr(mod, attr, rebind[value])
        for cls, attr, name, options in methods:
            fn = getattr(cls, attr, None)
            if fn is not None:
                self._patch_method(cls, self.span(name, fn, **options))
        for attr, name in (("__mul__", "scalars.mul"), ("__add__", "scalars.add")):
            self._patch_method(sc.Scalar, self.counter(name, getattr(sc.Scalar, attr)))

    @staticmethod
    def _patch_method(cls, wrapper):
        """Rebind the wrapped method and every alias of it (__rmul__ = __mul__)."""
        orig = wrapper.__wrapped__
        for name, value in list(vars(cls).items()):
            if value is orig:
                setattr(cls, name, wrapper)

    # -- report --------------------------------------------------------

    def metrics(self) -> dict:
        c, t, a = self.calls, self.time, self.amount
        pi_in = a["walgebra.pi_inverse_terms_in"]
        out = {
            "scalars.mul_calls": c["scalars.mul"],
            "scalars.add_calls": c["scalars.add"],
            "scalars.gcd_calls": c["scalars.gcd"],
            "scalars.gcd_s": t["scalars.gcd"],
            "linalg.calls": c["linalg"],
            "linalg.s": t["linalg"],
            "lie.build_s": t["lie.build"],
            "lie.graded_setup_s": t["lie.graded_setup"],
            "diffpoly.mul_calls": c["diffpoly.mul"],
            "diffpoly.mul_s": t["diffpoly.mul"],
            "diffpoly.mul_terms_out": a["diffpoly.mul_terms_out"],
            "pva.frame_s": t["pva.frame"],
            "pva.master_bracket_calls": c["pva.master_bracket"],
            "pva.master_bracket_s": t["pva.master_bracket"],
            "pva.master_bracket_self_s": self.self_time["pva.master_bracket"],
            "pva.master_bracket_terms_in": a["pva.master_bracket_terms_in"],
            "pva.master_bracket_terms_out": a["pva.master_bracket_terms_out"],
            "pva.check_pva_axioms_s": t["pva.check_pva_axioms"],
            "walgebra.generators_s": t["walgebra.generators"],
            "walgebra.pi_inverse_calls": c["walgebra.pi_inverse"],
            "walgebra.pi_inverse_growth":
                a["walgebra.pi_inverse_terms_out"] / pi_in if pi_in else 0.0,
            "walgebra.verify_table_s": t["walgebra.verify_table"],
            "hierarchy.decomposition_s": t["hierarchy.decomposition"],
            "hierarchy.solve_dressing_s": t["hierarchy.solve_dressing"],
            "hierarchy.dressing_defect_s": t["hierarchy.dressing_defect"],
        }
        for deg in DRESSING_DEGREES:
            out[degree_name(deg)] = t[degree_name(deg)]
        out.update({
            "hierarchy.h_terms": a["hierarchy.h_terms"],
            "hierarchy.conserved_densities_s": t["hierarchy.conserved_densities"],
            "hierarchy.hierarchy_equation_calls": c["hierarchy.hierarchy_equation"],
            "hierarchy.hierarchy_equation_s": t["hierarchy.hierarchy_equation"],
            "hierarchy.lenard_magri_s": t["hierarchy.lenard_magri"],
        })
        return out


def _muladd_us(a, b, c, reps: int) -> float:
    """Microseconds per a*b + c, median of five timed batches."""
    times = []
    for _ in range(5):
        t0 = perf()
        for _ in range(reps):
            a * b + c
        times.append((perf() - t0) / reps * 1e6)
    times.sort()
    return times[2]


def scalar_probes() -> dict:
    """Fixed-input cost of one mul+add: Scalar over Q, over Q(s1,s2), and
    bare Fraction.  Run before the tracer is installed."""
    from wds import scalars as sc

    q = sc.Q
    qa, qb, qc = q.const(Fraction(3, 7)), q.const(Fraction(-5, 11)), q.const(Fraction(2, 3))
    r = sc.ParamRing(["s1", "s2"])
    s1, s2 = r.param("s1"), r.param("s2")
    pa = (s1 + 2) / (s2 - 1)
    pb = (s1 * s2 - 3) / (s1 + s2)
    pc = s2 / (s1 - 1)
    return {
        "scalars.q_muladd_us": _muladd_us(qa, qb, qc, 4000),
        "scalars.qp_muladd_us": _muladd_us(pa, pb, pc, 30),
        "scalars.fraction_muladd_us":
            _muladd_us(Fraction(3, 7), Fraction(-5, 11), Fraction(2, 3), 20000),
    }
