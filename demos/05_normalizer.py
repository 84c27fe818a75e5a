"""The birational automorphism group via intertwiners.

The permutation action on the hyperplane is an irreducible 4-dimensional
representation.  Each of the four linear characters has a unique intertwiner
up to scalar, a Gauss-sum circulant restricted to the hyperplane; the ones
preserving the quadratic form generate, with the represented group, the
quadric-preserving projective normalizer: order 40, a direct product of the
group with a central involution that exchanges the two length-5 orbits.
"""

from dp5links import (
    assemble_normalizer,
    characters_of_g20,
    orbit_census,
    quadric_surface,
    standard_groups,
)
from dp5links.normalizer import apply_on_hyperplane, involution_swaps_orbits

g20 = standard_groups()["G20"]
for lam in characters_of_g20(g20):
    gen = next(h for h in g20.elements if h.to_cycles() == "(2354)")
    print(f"character {lam.label}: order {lam.order()}, value on (2354) = {lam(gen)}")

result = assemble_normalizer(g20)
print("\nassembled normalizer order:", result.order)
print("structure:", result.structure)

for t in result.intertwiners:
    print(f"  intertwiner for {t.character}: invertible={t.invertible}, "
          f"quadric-preserving={t.quadric_preserving}")

census = orbit_census(quadric_surface(), g20, 8)
k1, k2 = census.orbits_by_length[5]
print("\nextra involution maps K1 onto K2:",
      involution_swaps_orbits(result, list(k1), list(k2)))
print("sample: first point of K1 maps to",
      apply_on_hyperplane(result.involution, list(k1)[0]))
