"""Orbit censuses, the 27 lines, skew families and smoothness certificates.

The two surfaces of interest are cut out of P^4 by the hyperplane sum x_i = 0
together with the power sums sum x_i^3 (diagonal cubic) and sum x_i^2
(quadric).  Orbit censuses below a length bound are computed from stabilizer
fixed loci: an orbit of length r consists of points whose stabilizer has
order |G|/r, and those points are simultaneous eigenvectors of the stabilizer,
so enumerating subgroups and their fixed loci is exhaustive over the complex
numbers, not merely over the field of definition.

The 27 lines of the diagonal cubic are listed in closed form: 15 sign lines
and 12 lines over Q(sqrt 5) spanned by two Fourier modes.  Each is checked on
the surface, their incidence is decided once per orbit of line pairs, and
each line tagged "residuation" is certified as the residual line of a
tritangent plane, read off three exact values of the cubic on the plane; no
polynomial system is ever solved.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property

from .cyclo import FieldElement, Frozen, ONE, ZERO, ZETA5, root_of_unity
from .groups import (
    FiniteGroup,
    Permutation,
    closure,
    fixed_locus,
    orbit_and_stabilizer,
    subgroups_of_order,
)
from .linalg import rank
from .projgeo import (
    HomogeneousForm,
    ProjLine,
    ProjPoint,
    hyperplane_gram,
    line_in_surface,
    line_through,
    membership,
    power_sum_form,
    residual_line,
)


class PositiveDimensionalFixedLocus(RuntimeError):
    """A restricted fixed component has projective dimension >= 1."""


class EnumerationIncomplete(RuntimeError):
    """The listed lines are not 27 distinct lines of the surface, or a
    "residuation" line is not the residual line of two listed lines."""


class ActionNotClosed(RuntimeError):
    """A group element maps a configuration line outside the configuration."""


class DuplicatePoints(ValueError):
    """General-position input contains a repeated point."""


class UnsupportedShape(ValueError):
    """Smoothness certificate only covers the shapes it can decide exactly."""


class NormNotConstant(ArithmeticError):
    """The sign-pattern norm kept a square-root term (an arithmetic defect)."""


class Surface(Frozen, eq=True):
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


class LineConfiguration(Frozen, eq=True):
    """The lines of a surface with labels, tags and incidence.

    The cached line permutations live in the instance dict.
    """

    __slots__ = ("surface", "lines", "labels", "tags", "incidence", "__dict__", "__weakref__")

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


def sign_line(p1: tuple[int, int], p2: tuple[int, int]) -> ProjLine:
    """The line {x_a + x_b = x_c + x_d = 0} of the hyperplane, for the pairs
    p1 = (a, b) and p2 = (c, d): the span of e_a - e_b and e_c - e_d."""
    def difference(a: int, b: int) -> list[FieldElement]:
        v = [ZERO] * 5
        v[a], v[b] = ONE, -ONE
        return v

    return ProjLine.span(difference(*p1), difference(*p2))


def _coordinate_lines() -> list[tuple[ProjLine, str | None]]:
    """The 15 sign lines, each with its contraction label or None: L_{k+1}
    has singleton k and pairs {k+-1}, {k+-2} mod 5."""
    out = []
    for k in range(5):
        a, *rest = (i for i in range(5) if i != k)
        contraction = {frozenset(((k + 1) % 5, (k - 1) % 5)),
                       frozenset(((k + 2) % 5, (k - 2) % 5))}
        for b in rest:
            c, d = (i for i in rest if i != b)
            label = f"L{k + 1}" if {frozenset((a, b)), frozenset((c, d))} == contraction else None
            out.append((sign_line((a, b), (c, d)), label))
    return out


def _fourier_lines() -> list[tuple[ProjLine, str | None]]:
    """The 12 lines x_i = a zeta_5^(2 sigma(i)) + b zeta_5^(3 sigma(i)), each with
    its exceptional label or None.

    sigma runs over the bijections of the coordinates onto Z/5 with sigma(0) = 0
    and sigma(1) in {1, 2}: the span of the Fourier modes 2 and 3 is the same
    for sigma + t and -sigma.  The cubic vanishes on it, since sum x_i^3 only
    has the modes 6, 7, 8 and 9, none 0 mod 5.  When sigma(i) = m i the line
    joins the length-4 orbit points with a = 2m and a = 3m: E1 (a = 1, 4) for
    m = 2 and E2 (a = 2, 3) for m = 1.
    """
    out = []
    for m in (1, 2):
        for tail in itertools.permutations([v for v in range(1, 5) if v != m]):
            sigma = (0, m, *tail)
            line = ProjLine.span(*([root_of_unity(5, e * v % 5) for v in sigma] for e in (2, 3)))
            linear = all(v == m * i % 5 for i, v in enumerate(sigma))
            out.append((line, f"E{3 - m}" if linear else None))
    return out


def _preserving_generators(s: Surface, g: FiniteGroup) -> tuple[Permutation, ...]:
    """The generators of g whose coordinate permutation fixes both forms of s."""
    def fixes(p: Permutation, f: HomogeneousForm) -> bool:
        return {tuple(p.apply_vector(m)): c for m, c in f.coeffs} == dict(f.coeffs)

    return tuple(p for p in g.generators if fixes(p, s.hyperplane) and fixes(p, s.form))


def _transport(line: ProjLine, p: Permutation) -> ProjLine:
    """Image of a line under a coordinate permutation."""
    return ProjLine.span(p.apply_vector(line.basis[0]), p.apply_vector(line.basis[1]))


def _line_permutation(lines: tuple[ProjLine, ...], index: dict[ProjLine, int],
                      p: Permutation) -> tuple[int, ...]:
    """The index of each line's image under p, or ActionNotClosed."""
    images = tuple(index.get(_transport(line, p)) for line in lines)
    if None in images:
        raise ActionNotClosed(f"{p.to_cycles()} maps a line outside the configuration")
    return images


def lines27(s: Surface, g: FiniteGroup) -> LineConfiguration:
    """The 27 lines of Clebsch's diagonal cubic in closed form, with exact incidence.

    They are the 15 sign lines tagged "coordinate" and the 12 Fourier lines
    (Hirzebruch 1976; Dolgachev, Classical Algebraic Geometry, 9.5), of which
    E1 and E2, through two points of the length-4 orbit each, are tagged
    "pair-line" and the other 10 "residuation".  Unless all 27 are distinct
    and lie on s, EnumerationIncomplete is raised.  They are all the lines of
    s, because a smooth cubic surface carries exactly 27 (Cayley-Salmon) and
    the smoothness of the cubic is certified separately.

    The generators of g that fix both forms of s map lines of s to lines of
    s.  They must permute the 27 lines (else ActionNotClosed), so testing
    one line per orbit on s certifies every listed line on s.  The incidence
    is decided once per orbit of line pairs under them: a coordinate
    permutation is a linear automorphism of P^4, so it maps meeting pairs to
    meeting pairs.  Each "residuation" line is then certified as the
    residual line of the first pair of meeting lines with other tags that
    both meet it (three pairwise meeting lines of a smooth cubic are
    coplanar); residual_line does not test that pair on s again.  The
    generators' permutations of the lines are kept on the returned
    configuration.
    """
    if s.degree != 3:
        raise UnsupportedShape("line enumeration expects a cubic surface")
    # canonical order: the five contraction lines, other coordinate lines, E1, E2, residuals
    records = [(0 if lab else 1, lab or "M", line) for line, lab in _coordinate_lines()]
    records += [(2 if lab else 3, lab or "R", line) for line, lab in _fourier_lines()]
    records.sort(key=lambda rec: (rec[0], rec[1], rec[2].sort_key()))
    lines = tuple(line for *_, line in records)
    tags = [("coordinate", "coordinate", "pair-line", "residuation")[rank] for rank, *_ in records]
    index = {line: k for k, line in enumerate(lines)}
    if len(index) != 27:
        raise EnumerationIncomplete("the 27 listed lines are not distinct")
    perms = {p: _line_permutation(lines, index, p) for p in _preserving_generators(s, g)}
    unchecked = set(range(27))
    while unchecked:
        k = min(unchecked)
        if not (line_in_surface(lines[k], s.form) and line_in_surface(lines[k], s.hyperplane)):
            raise EnumerationIncomplete(f"a listed line does not lie on {s.name}")
        unchecked -= closure([k], perms.values(), tuple.__getitem__).keys()
    numbers = {"M": itertools.count(1), "R": itertools.count(1)}
    labels = [lab + str(next(numbers[lab])) if lab in numbers else lab for _, lab, _ in records]

    def image(perm: tuple[int, ...], ab: tuple[int, int]) -> tuple[int, int]:
        return perm[ab[0]], perm[ab[1]]

    incidence = [[0 if a == b else None for b in range(27)] for a in range(27)]
    for i, j in itertools.combinations(range(27), 2):
        if incidence[i][j] is None:
            value = int(lines[i].meets(lines[j]))
            for a, b in closure([(i, j)], perms.values(), image):
                incidence[a][b] = incidence[b][a] = value
    others = [k for k, tag in enumerate(tags) if tag != "residuation"]
    for k in (k for k, tag in enumerate(tags) if tag == "residuation"):
        plane = next(((lines[a], lines[b]) for a, b in itertools.combinations(others, 2)
                      if incidence[a][b] and incidence[a][k] and incidence[b][k]), None)
        if plane is None or residual_line(s.form, *plane) != lines[k]:
            raise EnumerationIncomplete(f"{labels[k]} is not certified as a residual line")
    incidence = tuple(map(tuple, incidence))
    cfg = LineConfiguration(s.name, lines, tuple(labels), tuple(tags), incidence)
    cfg._permutations.update(perms)
    return cfg


def induced_line_permutation(cfg: LineConfiguration, g: Permutation) -> tuple[int, ...]:
    """Index permutation of the configuration under a coordinate permutation.

    Computed once per (configuration, element) and kept on the configuration.
    """
    perm = cfg._permutations.get(g)
    if perm is None:
        index = {line: i for i, line in enumerate(cfg.lines)}
        perm = cfg._permutations[g] = _line_permutation(cfg.lines, index, g)
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
        r = rank(hyperplane_gram(s.form))
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
