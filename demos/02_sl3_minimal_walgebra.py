"""The W-algebra of the minimal nilpotent of sl3, end to end.

Builds the grading through f = E31, the generators L, phi(a), psi(u),
verifies the closed-form bracket table, solves the dressing equation, and
derives both conserved-density families with their first two flows,
including the coupled-KdV reduction.
"""

from wds import GradedSetup, MINIMAL, ReductionFrame, WGenerators, build_sl
from wds.hierarchy import (conserved_densities, hierarchy_flow,
                           reduce_mod_jk, solve_dressing)
from wds.walgebra import verify_table

g = build_sl(3)
setup = GradedSetup(g, g.parse({"E31": 1}), MINIMAL)
frame = ReductionFrame(setup, setup.e)
gens = WGenerators(frame)

print("== the graded setup ==")
print("x =", g.vec_str(setup.x), "  e =", g.vec_str(setup.e))
print("grading:", {str(k): [setup.labels[i] for i in v]
                   for k, v in sorted(setup.grading.items())})
print("(x|x) =", setup.xx(), "  Killing number kappa(x,x) =",
      setup.dual_coxeter())

print("\n== generators of W ==")
for name, p in gens.all_generators():
    print(f"{name} = {p}")
print("Ltilde =", gens.Ltilde)

print("\n== bracket table ==")
for rows in verify_table(frame, gens).values():
    bad = [m for ms in rows.values() for m in ms]
    print("closed-form table:", "all entries PASS" if not bad else bad)

a = g.parse({"H1": 1, "H2": -1})  # E11 - 2E22 + E33
phi = gens.phi(a)
psi_p, psi_m = gens.psi(g.parse({"E21": 1})), gens.psi(g.parse({"E32": 1}))
h, k = frame.w_bracket(psi_p, psi_m)
print("\n{psi+ lam psi-}  H:", h.map_coeffs(frame.pi, frame.w_ctx))
print("                 K:", k.map_coeffs(frame.pi, frame.w_ctx))

print("\n== hierarchies ==")
dressing = solve_dressing(frame, 4)
dens_a = conserved_densities(dressing, {0: a}, n_max=1)
dens_b = conserved_densities(dressing, {0: setup.f, 1: setup.e}, n_max=1)
print("central-element family:   int g_0 =", dens_a[0],
      " int g_1 =", dens_a[1])
print("f + ze family:            int g_0 =", dens_b[0])
print("                          int g_1 =", dens_b[1])

print("\nsecond flow of the f + ze family:")
flow = hierarchy_flow(frame, gens, dens_b[1])
for name, w in gens.all_generators():
    print(f"  d({name})/dt_1 =", flow(w))

print("\nreduced (weight-1 ideal set to zero) -> coupled KdV:")
for name, w in gens.all_generators():
    eq = reduce_mod_jk(frame, flow(w))
    print(f"  d({name})/dt_1 =", eq)
