"""A symbolic deformation: short sl4 with s = diag(s1, s2) in the top block.

Everything runs over the exact rational-function field Q(c, s1, s2): the
bilinear form is scaled by c, and the semisimple deformation direction
carries two independent parameters.  The kernel of ad(f + zs) now depends
on the parameters, and so do the conserved densities and flows.
"""

from wds import GradedSetup, ReductionFrame, SHORT, WGenerators, build_sl
from wds.hierarchy import (conserved_densities, hierarchy_flow,
                           reduce_mod_jk, solve_dressing)

g = build_sl(4, params=["s1", "s2"], form_scale="c")
ring = g.ring
s1, s2 = ring.param("s1"), ring.param("s2")

setup = GradedSetup(g, g.parse({"E31": 1, "E42": 1}), SHORT)
s = g.parse({"E13": s1, "E24": s2})
print("form scale:", g.pair(g.parse({"E13": 1}), g.parse({"E31": 1})))
print("s =", g.vec_str(s))
print("f + s semisimple:",
      setup.is_semisimple(g.parse({"E31": 1, "E42": 1, "E13": s1, "E24": s2})))

frame = ReductionFrame(setup, s)
gens = WGenerators(frame)

dressing = solve_dressing(frame, 2)
from fractions import Fraction as F
for d in (F(0), F(1), F(2)):
    if d in dressing.h:
        print(f"\npi h(z)_{d} =", dressing.h[d])

A11 = g.parse({"H1": 1, "H3": 1})
dens = conserved_densities(dressing, {0: A11}, n_max=1)
print("\nA11-family:  int g_0 =", dens[0])
print("             int g_1 =", dens[1])

print("\nreduced t_1 flow of psi(E32):")
eq = reduce_mod_jk(frame, hierarchy_flow(frame, gens, dens[1])(
    gens.psi(g.parse({"E32": 1}))))
print("  ", eq)
