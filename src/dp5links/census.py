"""Orbit censuses, the 27 lines, skew families and smoothness certificates.

The two surfaces of interest are cut out of P^4 by the hyperplane sum x_i = 0
together with the power sums sum x_i^3 (diagonal cubic) and sum x_i^2
(quadric).  Orbit censuses below a length bound are computed from stabilizer
fixed loci: an orbit of length r consists of points whose stabilizer has
order |G|/r, and those points are simultaneous eigenvectors of the stabilizer,
so enumerating subgroups and their fixed loci is exhaustive over the complex
numbers, not merely over the field of definition.

The 27-line enumeration is seeded with closed-form lines and completed by
tritangent-plane residuation, which reads the residual line off three exact
values of the cubic on the plane, and by transport under the coordinate
permutations that fix the surface; no polynomial system is ever solved.  A
tritangent plane is residuated at most once, and the closure stops at 27
lines, all a smooth cubic surface carries.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, cached_property

from .cyclo import FieldElement, Frozen, ONE, ZERO, ZETA5, rational
from .groups import (
    FiniteGroup,
    Permutation,
    closure,
    fixed_locus,
    orbit_and_stabilizer,
    subgroups_of_order,
)
from .linalg import mat_mul, rank, transpose
from .projgeo import (
    HomogeneousForm,
    ProjLine,
    ProjPoint,
    hyperplane_basis_grid,
    line_in_surface,
    line_through,
    membership,
    power_sum_form,
    residual_line,
)


class PositiveDimensionalFixedLocus(RuntimeError):
    """A restricted fixed component has projective dimension >= 1."""


class EnumerationIncomplete(RuntimeError):
    """Residuation closure did not stabilize at 27 lines."""


class ActionNotClosed(RuntimeError):
    """A group element maps a configuration line outside the configuration."""


class DuplicatePoints(ValueError):
    """General-position input contains a repeated point."""


class UnsupportedShape(ValueError):
    """Smoothness certificate only covers the shapes it can decide exactly."""


class NormNotConstant(ArithmeticError):
    """The sign-pattern norm kept a square-root term (an arithmetic defect)."""


class Surface(Frozen):
    """Surface in P^4 cut by the hyperplane form and one defining form."""

    __slots__ = ("name", "hyperplane", "form")

    @property
    def degree(self) -> int:
        return self.form.degree

    def contains(self, p: ProjPoint) -> bool:
        return membership(p, [self.hyperplane, self.form])


def clebsch_surface() -> Surface:
    return Surface("clebsch-cubic", power_sum_form(5, 1), power_sum_form(5, 3))


def quadric_surface() -> Surface:
    return Surface("quadric", power_sum_form(5, 1), power_sum_form(5, 2))


def length4_orbit_points() -> list[ProjPoint]:
    """The four eigenvector points (1 : z^a : z^2a : z^3a : z^4a), z = zeta_5."""
    return [ProjPoint.of([ZETA5 ** ((a * j) % 5) for j in range(5)]) for a in (1, 2, 3, 4)]


# -- orbit census -------------------------------------------------------------


class OrbitCensus(Frozen):
    __slots__ = ("surface", "group_order", "bound", "orbits_by_length", "artifacts")

    def serialize(self) -> dict:
        return {
            "surface": self.surface,
            "group_order": self.group_order,
            "bound": self.bound,
            "orbits": {
                str(r): [[p.serialize() for p in orb] for orb in orbs]
                for r, orbs in sorted(self.orbits_by_length.items())
            },
            "artifacts": self.artifacts,
            # a positive-dimensional fixed locus raises, so a census has none
            "incidents": [],
        }


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@cache
def _fixed_point_orbits(g: FiniteGroup, q: int) -> tuple:
    """The surface-independent part of a census, once per (group, order).

    For each conjugacy class of order-q subgroups: the class, and for each
    fixed-locus component of its first member the component with, when it
    is a point, the point with its orbit and stabilizer under g.
    """
    out = []
    for cls in subgroups_of_order(g, q):
        components = []
        for comp in fixed_locus(cls[0]):
            if comp.positive_dimensional:
                components.append((comp, None, None, None))
                continue
            p = comp.point()
            orbit, stab = orbit_and_stabilizer(g, p)
            components.append((comp, p, tuple(orbit), stab))
        out.append((cls, tuple(components)))
    return tuple(out)


def orbit_census(s: Surface, g: FiniteGroup, bound: int) -> OrbitCensus:
    """All orbits of length r < bound on the surface, with proof artifacts.

    Raises PositiveDimensionalFixedLocus if some stabilizer subgroup fixes a
    positive-dimensional locus after restriction (its surface points could
    then fail to be enumerable in K).  Only the membership of
    each fixed point depends on the surface: the subgroup classes, their
    fixed loci and the fixed points' orbits are computed once per group and
    order, and shared by every census over that group.
    """
    if bound > g.order():
        raise ValueError("bound must not exceed the group order")
    orbits_by_length: dict[int, list[tuple[ProjPoint, ...]]] = {}
    artifacts: list[dict] = []
    seen: set[tuple[ProjPoint, ...]] = set()  # orbits are sorted tuples
    for r in _divisors(g.order()):
        if r >= bound:
            continue
        q = g.order() // r
        for cls, components in _fixed_point_orbits(g, q):
            h = cls[0]
            gens = [p.to_cycles() for p in h.generators]
            entry = {
                "length": r,
                "stabilizer_order": q,
                "stabilizer_generators": gens,
                "class_size": len(cls),
                "fixed_points": [],
            }
            for comp, p, orbit, stab in components:
                if comp.positive_dimensional:
                    raise PositiveDimensionalFixedLocus(
                        f"subgroup <{' '.join(gens)}> fixes a component of projective "
                        f"dimension {comp.projective_dimension}"
                    )
                on_surface = s.contains(p)
                entry["fixed_points"].append({
                    "point": p.serialize(),
                    "on_surface": on_surface,
                    "full_stabilizer_order": stab.order(),
                })
                if not on_surface or stab.order() != q:
                    continue
                if orbit not in seen:
                    seen.add(orbit)
                    orbits_by_length.setdefault(len(orbit), []).append(orbit)
            artifacts.append(entry)
    for r in orbits_by_length:
        orbits_by_length[r].sort(key=lambda orb: tuple(p.sort_key() for p in orb))
    return OrbitCensus(s.name, g.order(), bound, orbits_by_length, artifacts)


# -- the 27 lines --------------------------------------------------------------


class LineConfiguration(Frozen):
    """The lines of a surface with labels, tags and incidence.

    The cached line permutations live in the instance dict.
    """

    __slots__ = ("surface", "lines", "labels", "tags", "incidence", "__dict__", "__weakref__")

    def __eq__(self, other) -> bool:
        if other.__class__ is not LineConfiguration:
            return NotImplemented
        return ((self.surface, self.lines, self.labels, self.tags, self.incidence)
                == (other.surface, other.lines, other.labels, other.tags, other.incidence))

    def __hash__(self) -> int:
        return hash((self.surface, self.lines, self.labels, self.tags, self.incidence))

    def by_label(self, label: str) -> ProjLine:
        return self.lines[self.labels.index(label)]

    @cached_property
    def _permutations(self) -> dict[Permutation, tuple[int, ...]]:
        """induced_line_permutation results, filled by lines27 and on request."""
        return {}

    def serialize(self) -> dict:
        return {
            "surface": self.surface,
            "labels": list(self.labels),
            "tags": list(self.tags),
            "lines": [l.serialize() for l in self.lines],
            "incidence": [list(row) for row in self.incidence],
        }


def _coordinate_lines() -> list[tuple[ProjLine, tuple[int, tuple]]]:
    """The 15 lines {x_a + x_b = 0, x_c + x_d = 0}, keyed by singleton/pairs."""
    out = []
    for single in range(5):
        rest = [i for i in range(5) if i != single]
        for partner in rest[1:]:
            pair1 = (rest[0], partner)
            pair2 = tuple(i for i in rest if i not in pair1)
            v1 = [ZERO] * 5
            v1[pair1[0]], v1[pair1[1]] = ONE, -ONE
            v2 = [ZERO] * 5
            v2[pair2[0]], v2[pair2[1]] = ONE, -ONE
            out.append((ProjLine.span(v1, v2), (single, (pair1, pair2))))
    return out


def _contraction_line_label(single: int, pairs) -> str | None:
    """L_{k+1} has singleton k and pairs {k+-1}, {k+-2} mod 5."""
    want = {frozenset(((single + 1) % 5, (single - 1) % 5)),
            frozenset(((single + 2) % 5, (single - 2) % 5))}
    have = {frozenset(pairs[0]), frozenset(pairs[1])}
    return f"L{single + 1}" if want == have else None


def _preserving_generators(s: Surface, g: FiniteGroup) -> tuple[Permutation, ...]:
    """The generators of g whose coordinate permutation fixes both forms of s."""
    def fixes(p: Permutation, f: HomogeneousForm) -> bool:
        return {tuple(p.apply_vector(m)): c for m, c in f.coeffs} == dict(f.coeffs)

    return tuple(p for p in g.generators if fixes(p, s.hyperplane) and fixes(p, s.form))


def _transport(line: ProjLine, p: Permutation) -> ProjLine:
    """Image of a line under a coordinate permutation."""
    return ProjLine.span(p.apply_vector(line.basis[0]), p.apply_vector(line.basis[1]))


def lines27(s: Surface, g: FiniteGroup) -> LineConfiguration:
    """All 27 lines by seeded residuation closure, with exact incidence.

    Seeds are the 15 coordinate lines plus those pair-lines of the length-4
    orbit that actually lie on the cubic (exactly two do; the other four lie
    on the quadric instead and are rejected by the on-surface filter).  Every
    other line is tagged "residuation": it is the residual line of a
    tritangent plane, or its image under a generator of g that fixes both
    forms of s (such a permutation maps lines of s to lines of s).  The
    closure stops at 27 lines, which is sound because a smooth cubic surface
    carries exactly 27 (Cayley-Salmon) and the smoothness of the cubic is
    certified separately: 27 distinct lines on s are all of them.

    The incidence is decided once per orbit of line pairs under those
    generators: a coordinate permutation is a linear automorphism of P^4, so
    it maps meeting pairs to meeting pairs.  The generators' permutations of
    the lines are kept on the returned configuration.
    """
    if s.degree != 3:
        raise UnsupportedShape("line enumeration expects a cubic surface")
    seeds: list[tuple[ProjLine, str]] = []
    coord_meta: dict[ProjLine, tuple] = {}
    for line, meta in _coordinate_lines():
        if line_in_surface(line, s.form) and line_in_surface(line, s.hyperplane):
            seeds.append((line, "coordinate"))
            coord_meta[line] = meta
    orbit4 = [p for p in length4_orbit_points() if s.contains(p)]
    pair_line_points: dict[ProjLine, tuple[int, int]] = {}
    if len(orbit4) == 4:
        for i, j in itertools.combinations(range(4), 2):
            line = line_through(orbit4[i], orbit4[j])
            if line_in_surface(line, s.form) and line_in_surface(line, s.hyperplane):
                seeds.append((line, "pair-line"))
                pair_line_points[line] = (i, j)
    tags: dict[ProjLine, str] = {}
    for line, tag in seeds:
        tags.setdefault(line, tag)
    lines = list(tags)
    if len(lines) < 2:
        raise EnumerationIncomplete("need at least two starting lines on the surface")
    gens = _preserving_generators(s, g)
    index = {line: k for k, line in enumerate(lines)}
    # images[a][i]: index of the image of line i under gens[a], once known
    images: list[dict[int, int]] = [{} for _ in gens]

    def add(line: ProjLine) -> int:
        index[line] = len(lines)
        lines.append(line)
        tags[line] = "residuation"
        return index[line]

    def image(a: int, t: int) -> int:
        """Index of the image of line t under gens[a], added if new."""
        if t not in images[a]:
            line = _transport(lines[t], gens[a])
            images[a][t] = index[line] if line in index else add(line)
        return images[a][t]

    # residuation closure: each unordered pair (i, j), i < j, is decided once.
    # A meeting pair spans a tritangent plane holding its residual k, so the
    # pairs (i, k) and (j, k) meet too, and their residuals j and i are known.
    meets: dict[tuple[int, int], bool] = {}

    def pair(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    while len(lines) < 27:
        todo = [
            ij for ij in itertools.combinations(range(len(lines)), 2)
            if ij not in meets
        ]
        if not todo:
            break
        for i, j in todo:
            if (i, j) in meets:
                continue
            meets[(i, j)] = lines[i].meets(lines[j])
            if not meets[(i, j)]:
                continue
            c = residual_line(s.form, lines[i], lines[j], s.hyperplane)
            k = index.get(c)
            if k is None:
                # a new line brings its orbit under gens, in discovery order
                k = add(c)
                closure([k], range(len(gens)), image)
            meets[pair(i, k)] = meets[pair(j, k)] = True
            if len(lines) >= 27:
                break
    if len(lines) != 27:
        raise EnumerationIncomplete(f"closure stopped at {len(lines)} lines, expected 27")
    for a, p in enumerate(gens):
        for t in range(27):
            if image(a, t) >= 27:
                raise ActionNotClosed(f"{p.to_cycles()} maps a line outside the configuration")
    # one decision per orbit of pairs: a pair the closure decided, else a meets call
    for i, j in itertools.combinations(range(27), 2):
        if (i, j) in meets:
            continue
        orbit = closure([(i, j)], images, lambda perm, ab: pair(perm[ab[0]], perm[ab[1]]))
        known = next((meets[q] for q in orbit if q in meets), None)
        value = lines[i].meets(lines[j]) if known is None else known
        for q in orbit:
            meets[q] = value
    # canonical order: the five contraction lines, other coordinate lines, pair lines, residuals
    def label_for(line: ProjLine) -> tuple[int, str]:
        tag = tags[line]
        if tag == "coordinate":
            single, pairs = coord_meta[line]
            lab = _contraction_line_label(single, pairs)
            if lab:
                return (0, lab)
            return (1, "")
        if tag == "pair-line":
            i, j = pair_line_points[line]
            return (2, f"E{1 if (i, j) == (0, 3) else 2}")
        return (3, "")

    keyed = sorted(lines, key=lambda l: (label_for(l)[0], label_for(l)[1], l.sort_key()))
    labels: list[str] = []
    m_count = r_count = 0
    for line in keyed:
        rank_, lab = label_for(line)
        if rank_ == 0 or rank_ == 2:
            labels.append(lab)
        elif rank_ == 1:
            m_count += 1
            labels.append(f"M{m_count}")
        else:
            r_count += 1
            labels.append(f"R{r_count}")
    pos = [index[line] for line in keyed]
    incidence = tuple(
        tuple(int(a != b and meets[pair(a, b)]) for b in pos) for a in pos
    )
    cfg = LineConfiguration(s.name, tuple(keyed), tuple(labels), tuple(tags[l] for l in keyed),
                            incidence)
    where = {k: c for c, k in enumerate(pos)}
    for p, perm in zip(gens, images):
        cfg._permutations[p] = tuple(where[perm[k]] for k in pos)
    return cfg


def induced_line_permutation(cfg: LineConfiguration, g: Permutation) -> tuple[int, ...]:
    """Index permutation of the configuration under a coordinate permutation.

    Computed once per (configuration, element) and kept on the configuration.
    """
    perm = cfg._permutations.get(g)
    if perm is None:
        index = {line: i for i, line in enumerate(cfg.lines)}
        out = []
        for line in cfg.lines:
            k = index.get(_transport(line, g))
            if k is None:
                raise ActionNotClosed(f"{g.to_cycles()} maps a line outside the configuration")
            out.append(k)
        perm = cfg._permutations[g] = tuple(out)
    return perm


def line_orbits(cfg: LineConfiguration, g: FiniteGroup) -> list[list[int]]:
    """Orbit partition of the line indices: each orbit, sorted, is the closure
    of its least index under the generators' line permutations."""
    perms = [induced_line_permutation(cfg, el) for el in g.generators]
    seen: set[int] = set()
    orbits = []
    for start in range(len(cfg.lines)):
        if start not in seen:
            orbit = closure([start], perms, tuple.__getitem__)
            seen.update(orbit)
            orbits.append(sorted(orbit))
    return orbits


class SkewFamily(Frozen):
    __slots__ = ("labels", "indices", "maximal")

    def size(self) -> int:
        return len(self.indices)


def invariant_skew_families(cfg: LineConfiguration, g: FiniteGroup) -> list[SkewFamily]:
    """Every g-stable union of line orbits whose lines are pairwise disjoint."""
    orbits = line_orbits(cfg, g)

    def pairwise_skew(indices: list[int]) -> bool:
        return all(
            cfg.incidence[i][j] == 0
            for i, j in itertools.combinations(indices, 2)
        )

    atoms = [orb for orb in orbits if pairwise_skew(orb)]
    families: list[tuple[int, ...]] = []
    for picks in range(1, len(atoms) + 1):
        for combo in itertools.combinations(range(len(atoms)), picks):
            indices = sorted(i for k in combo for i in atoms[k])
            if pairwise_skew(indices):
                families.append(tuple(indices))
    result = []
    for fam in sorted(set(families), key=lambda f: (len(f), f)):
        maximal = not any(set(fam) < set(other) for other in families if other != fam)
        result.append(SkewFamily(tuple(cfg.labels[i] for i in fam), fam, maximal))
    return result


# -- general position ----------------------------------------------------------


def general_position_on_quadric(points: list[ProjPoint], q: Surface) -> dict:
    """No two points on a line inside the quadric, no four on a plane.

    Returns a certificate dict with the verdict and every violation found.
    """
    if len(set(points)) != len(points):
        raise DuplicatePoints("input points are not distinct")
    for p in points:
        if not q.contains(p):
            raise ValueError(f"point {p!r} is not on {q.name}")
    pair_violations = []
    pair_records = []
    for i, j in itertools.combinations(range(len(points)), 2):
        line = line_through(points[i], points[j])
        inside = line_in_surface(line, q.form)
        pair_records.append({"pair": [i, j], "line_in_quadric": inside})
        if inside:
            pair_violations.append([i, j])
    plane_violations = []
    for combo in itertools.combinations(range(len(points)), 4):
        m = [list(points[k].coords) for k in combo]
        if rank(m) < 4:
            plane_violations.append(list(combo))
    ok = not pair_violations and not plane_violations
    return {
        "points": [p.serialize() for p in points],
        "pass": ok,
        "pairs": pair_records,
        "pair_violations": pair_violations,
        "coplanar_violations": plane_violations,
    }


# -- smoothness -----------------------------------------------------------------


def _diagonal_cubic_coefficients(f: HomogeneousForm) -> list[FieldElement] | None:
    coeffs = [ZERO] * f.nvars
    for mono, c in f.coeffs:
        support = [i for i, e in enumerate(mono) if e]
        if len(support) != 1 or mono[support[0]] != 3:
            return None
        coeffs[support[0]] = c
    if any(c.is_zero() for c in coeffs):
        return None
    return coeffs


def _quadratic_gram(f: HomogeneousForm) -> list[list[FieldElement]]:
    n = f.nvars
    half = rational(Fraction(1, 2))
    gram = [[ZERO] * n for _ in range(n)]
    for mono, c in f.coeffs:
        support = [i for i, e in enumerate(mono) if e]
        if len(support) == 1:
            gram[support[0]][support[0]] = c
        else:
            i, j = support
            gram[i][j] = c * half
            gram[j][i] = c * half
    return gram


# the sign choices (eps_1..eps_4) of the square roots s_i in smoothness_check
_SIGN_PATTERNS = tuple(itertools.product((1, -1), repeat=4))


def smoothness_check(s: Surface) -> dict:
    """Exact smoothness certificate for the quadric and diagonal cubics.

    Quadric: the restriction of the quadratic form to the hyperplane must
    have full rank.  Diagonal cubic sum a_i x_i^3: a singular point needs
    3 a_i x_i^2 all equal and nonzero, so x_i = s_i * x_0 with s_i^2 = a_0/a_i;
    the defining equation is then automatic (f = (1/3) sum x_i d_i f), and the
    surface is singular iff 1 + s_1 + s_2 + s_3 + s_4 = 0 has a solution for
    some choice of the square roots.  The product of 1 + sum(eps_i s_i) over
    all sign patterns is computed exactly in K[s]/(s_i^2 - a_0/a_i); it lies
    in K and vanishes iff some factor does.
    """
    if s.degree == 2:
        gram5 = _quadratic_gram(s.form)
        hyper = hyperplane_basis_grid()
        r = rank(mat_mul(transpose(hyper), mat_mul(gram5, hyper)))
        return {
            "surface": s.name,
            "method": "restricted-quadratic-rank",
            "rank": r,
            "smooth": r == 4,
        }
    if s.degree == 3:
        diag = _diagonal_cubic_coefficients(s.form)
        if diag is None:
            raise UnsupportedShape("smoothness certificate needs a diagonal cubic")
        ratios = [diag[0] / diag[i] for i in range(1, 5)]
        # arithmetic in K[s1..s4]/(s_i^2 - ratios[i]); elements keyed by bitmask
        def ring_mul(a: dict[int, FieldElement], b: dict[int, FieldElement]) -> dict:
            out: dict[int, FieldElement] = {}
            for m1, c1 in a.items():
                for m2, c2 in b.items():
                    coeff = c1 * c2
                    common = m1 & m2
                    for bit in range(4):
                        if common >> bit & 1:
                            coeff = coeff * ratios[bit]
                    key = m1 ^ m2
                    out[key] = out.get(key, ZERO) + coeff
            return {k: v for k, v in out.items() if not v.is_zero()}

        product: dict[int, FieldElement] = {0: ONE}
        for signs in _SIGN_PATTERNS:
            factor = {0: ONE}
            for bit, sign in enumerate(signs):
                factor[1 << bit] = ONE if sign == 1 else -ONE
            product = ring_mul(product, factor)
        if not set(product) <= {0}:
            raise NormNotConstant("the product over all sign patterns must lie in K")
        norm = product.get(0, ZERO)
        cert = {
            "surface": s.name,
            "method": "sign-pattern-norm",
            "norm": norm.serialize(),
            "smooth": not norm.is_zero(),
        }
        if all(r == ONE for r in ratios):
            cert["sign_pattern_sums"] = [1 + sum(sg) for sg in _SIGN_PATTERNS]
        return cert
    raise UnsupportedShape(f"degree {s.degree} surfaces are not supported")
