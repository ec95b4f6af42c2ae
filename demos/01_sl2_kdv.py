"""KdV from sl2.

For the (unique) nilpotent of sl2 the W-algebra is generated by the single
energy-momentum element L, and the bi-Hamiltonian hierarchy attached to
f + ze collapses to the KdV hierarchy: the first nontrivial flow is

    dL/dt1 = 1/4 L''' - 3/(4(x|x)) L L'.
"""

from wds import GradedSetup, MINIMAL, ReductionFrame, WGenerators, build_sl
from wds.hierarchy import conserved_densities, hierarchy_flow, \
    solve_dressing, verify_lenard_magri

g = build_sl(2)
setup = GradedSetup(g, g.parse({"E21": 1}), MINIMAL)
frame = ReductionFrame(setup, setup.e)
gens = WGenerators(frame)

print("sl2 grading:", {str(k): [setup.labels[i] for i in v]
                       for k, v in sorted(setup.grading.items())})
print("L =", gens.L)
print("L lies in W:", frame.is_in_w(gens.L))

h, k = frame.w_bracket(gens.L, gens.L)
print("\n{L lam L} H-part:", h.map_coeffs(frame.pi, frame.w_ctx))
print("{L lam L} K-part:", k.map_coeffs(frame.pi, frame.w_ctx))

dressing = solve_dressing(frame, 4)
dens = conserved_densities(dressing, {0: setup.f, 1: setup.e}, n_max=1)
print("\nconserved densities (V(g^f) coordinates, E21 is the L-coordinate):")
for n, d in enumerate(dens):
    print(f"  int g_{n} =", d)

print("\nflows:")
for n in (0, 1):
    print(f"  dL/dt_{n} =", hierarchy_flow(frame, gens, dens[n])(gens.L))

print("\nLenard-Magri recursion:",
      "PASS" if not verify_lenard_magri(frame, gens, dens) else "FAIL")
