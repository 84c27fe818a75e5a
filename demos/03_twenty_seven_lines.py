"""The 27 lines of the diagonal cubic in closed form.

Fifteen lines have the equations x_a + x_b = x_c + x_d = 0.  The other twelve
are x_i = a zeta_5^(2 s(i)) + b zeta_5^(3 s(i)) for the bijections s of the
coordinates onto Z/5, up to shifts and sign.  Two of them join points of the
length-4 orbit; each of the remaining ten is certified as the third component
of a plane section through two meeting lines of the first seventeen, read off
three exact values of the cubic on that plane.  The invariant skew families
of the result are the two extremal contractions of the surface.
"""

from dp5links import (
    clebsch_surface,
    invariant_skew_families,
    lines27,
    standard_groups,
)
from dp5links.census import line_orbits

clebsch = clebsch_surface()
g20 = standard_groups()["G20"]
cfg = lines27(clebsch, g20)
print("lines found:", len(cfg.lines))
print("provenance: ",
      {tag: cfg.tags.count(tag) for tag in ("coordinate", "pair-line", "residuation")})
print("every line meets", sum(cfg.incidence[0]), "others")

print("\nthe five contraction lines:")
for k in range(1, 6):
    lab = f"L{k}"
    line = cfg.by_label(lab)
    print(f"  {lab}: reduced echelon basis {line.basis[0]} / {line.basis[1]}")

orbits = line_orbits(cfg, g20)
print("\nline orbit sizes under the group:", sorted(len(o) for o in orbits))

print("\ninvariant skew families (g-stable sets of pairwise disjoint lines):")
for fam in invariant_skew_families(cfg, g20):
    flag = "maximal" if fam.maximal else "       "
    print(f"  {flag}  size {fam.size()}: {', '.join(fam.labels)}")
