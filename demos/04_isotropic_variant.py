"""The maximal-isotropic variant on sl3.

Outside type C one can pick a maximal isotropic subspace l of g_1/2 and an
embeddable s in l ([s, s*] = 2x for some s* in g_-1/2); f + zs is then
semisimple in the loop algebra and drives a further pair of hierarchies.
"""

from wds import GradedSetup, MINIMAL, ReductionFrame, WGenerators, build_sl
from wds.hierarchy import (conserved_densities, hierarchy_flow,
                           solve_dressing, verify_lenard_magri)
from wds.walgebra import verify_table

g = build_sl(3)
setup = GradedSetup(g, g.parse({"E31": 1}), MINIMAL)

s = g.parse({"E12": 1, "E23": 1})
s_star = setup.find_embeddable(s)
print("s  =", g.vec_str(s))
print("s* =", g.vec_str(s_star), "  with [s, s*] = 2x:",
      g.bracket(s, s_star) == {i: 2 * c for i, c in setup.x.items()})

frame = ReductionFrame(setup, s, isotropic=True)
l, lp = frame.l_pairs
print("l  = span{", ", ".join(g.vec_str(v) for v in l), "}")
print("l' = span{", ", ".join(g.vec_str(v) for v in lp), "}")

gens = WGenerators(frame)
print("\nL_l =", gens.L)
for which, rows in verify_table(frame, gens).items():
    bad = [m for ms in rows.values() for m in ms]
    print(which, ":", "all entries PASS" if not bad else bad)

dressing = solve_dressing(frame, 3)
dens_b = conserved_densities(dressing, {0: setup.e, -1: s_star}, n_max=1)
dens_c = conserved_densities(dressing, {0: setup.f, 1: s}, n_max=1)
print("\ne + s*/z family:  int g_0 =", dens_b[0])
print("f + zs  family:   int g_0 =", dens_c[0])

print("\nfirst flow of the e + s*/z family:")
flow = hierarchy_flow(frame, gens, dens_b[0])
for name, w in gens.all_generators():
    print(f"  d({name})/dt_0 =", flow(w))

ok = not (verify_lenard_magri(frame, gens, dens_b)
          or verify_lenard_magri(frame, gens, dens_c))
print("\nLenard-Magri for both families:", "PASS" if ok else "FAIL")
