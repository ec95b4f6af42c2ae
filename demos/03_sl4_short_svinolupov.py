"""A short nilpotent of sl4 and the Svinolupov equation.

The -1 eigenspace of a short grading carries a Jordan product
a o b = [[e, a], b]; reducing the second hierarchy flow modulo the
K-central weight-1 ideal produces the Jordan-algebra evolution equation

    d psi(u)/dt_1 = 1/4 psi(u)''' + 3/4 sum_{h,k} (u^k * u^h | u)
                    psi(u_h) psi(u_k)'.
"""

from wds import GradedSetup, ReductionFrame, SHORT, WGenerators, build_sl
from wds.hierarchy import (conserved_densities, hierarchy_flow,
                           reduce_mod_jk, solve_dressing)
from wds.walgebra import verify_table

g = build_sl(4)
setup = GradedSetup(g, g.parse({"E31": 1, "E42": 1}), SHORT)
frame = ReductionFrame(setup, setup.e)
gens = WGenerators(frame)

print("grading dimensions:", {str(k): len(v)
                              for k, v in sorted(setup.grading.items())})

u = g.parse({"E32": 1})
print("\nJordan product on g_-1:  f o u = ",
      g.vec_str(setup.jordan(setup.f, u)), " (= -2u)")

print("\npsi(f) =", gens.psi(setup.f))
print("L - psi(f) is quadratic in the weight-1 generators:",
      gens.L - gens.psi(setup.f))

for rows in verify_table(frame, gens).values():
    bad = [m for ms in rows.values() for m in ms]
    print("\nclosed-form bracket table:", "all entries PASS" if not bad else bad)

dens = conserved_densities(solve_dressing(frame, 4),
                           {0: setup.f, 1: setup.e}, n_max=1)
print("\nint g_0 =", dens[0])
print("int g_1 =", dens[1])

print("\nreduced t_1 flow (the Svinolupov equation):")
flow = hierarchy_flow(frame, gens, dens[1])
for i in setup.eig_indices(-1):
    uvec = setup.basis[i]
    eq = reduce_mod_jk(frame, flow(gens.psi(uvec)))
    print(f"  d psi({g.vec_str(uvec)})/dt_1 =", eq)
