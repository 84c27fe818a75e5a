"""The link calculus in the Picard lattice.

The lattice of the cubic is rebuilt from line incidence, the two equivariant
contractions are carried out as orthogonal complements, the divisor relations
of the link are verified as exact integer vectors, and the composite
self-map of the degree-5 surface is evaluated on a rank-12 resolution
lattice: anticanonical degree 10, so it is not biregular.
"""

from dp5links import (
    clebsch_surface,
    contract,
    divisor_relation_check,
    invariant_rank,
    lines27,
    orbit_census,
    quadric_surface,
    reconstruct_picard,
    ruling_blowup_check,
    selfmap_degree,
    standard_groups,
)

groups = standard_groups()
g20, d10 = groups["G20"], groups["D10"]
cfg = lines27(clebsch_surface(), g20)
pic = reconstruct_picard(cfg, g20)
print("cubic lattice: rank", pic.rank, " (-K)^2 =", pic.degree(),
      " invariant rank =", invariant_rank(pic))

t5, _ = contract(pic, ["E1", "E2"])
print("contract {E1, E2}:  rank", t5.rank, " degree", t5.degree(),
      " invariant rank", invariant_rank(t5))
t8, _ = contract(pic, ["L1", "L2", "L3", "L4", "L5"])
print("contract {L1..L5}:  rank", t8.rank, " degree", t8.degree(),
      " invariant rank", invariant_rank(t8), " gram", t8.lattice.gram)

rel = divisor_relation_check(pic)
print("\ndivisor relations verified:")
print("  ", rel["relation_sigma_H"])
print("  ", rel["relation_sum_F"])
print("  pushforward bidegrees:", rel["pushforward_bidegrees"])

quadric = quadric_surface()
rb = ruling_blowup_check(quadric)
print("\nblowing up the length-4 orbit gives", rb["minus_two_count"],
      "classes of square -2: not a del Pezzo surface")

census_q = orbit_census(quadric, g20, 8)
k1, k2 = census_q.orbits_by_length[5]
cert = selfmap_degree(quadric, g20, list(k1), list(k2), d10)
print("\ncomposite self-map: pairing", cert["pairing"], "=> degree",
      cert["degree"], "(identity composite pairs to", str(cert["identity_pairing"]) + ")")
print("non-biregular:", cert["non_biregular"])
