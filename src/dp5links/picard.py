"""Lattice models of the surfaces in the link diagram.

The Picard lattice of the cubic is rebuilt from pure line incidence: a sixer
of pairwise disjoint lines gives an exceptional basis e_1..e_6, the class of
any line is forced by its incidence vector with the sixer, and the group
action matrices are forced by the induced permutation of the 27 lines.
Everything downstream of that - invariant ranks, the two equivariant
contractions, the divisor relations of the link, the (-2)-obstruction on the
quadric side and the degree of the composite self-map - is integer matrix
arithmetic against the reconstructed intersection form.  The numerical
(-1)-classes of a lattice head + <-1>^m are listed exactly: Cauchy-Schwarz
bounds the head coefficients, and the exceptional part is enumerated by its
prescribed norm and sum, so no search box has to be trusted.
"""

from __future__ import annotations

import functools
import itertools
import math

from .census import (
    LineConfiguration,
    Surface,
    induced_line_permutation,
    length4_orbit_points,
)
from .cyclo import Frozen
from .groups import FiniteGroup
from .linalg import (
    IntGrid,
    IntLattice,
    coordinates_in_basis,
    hyperbolic_basis,
    int_rank,
    orthogonal_complement,
)
from .projgeo import ProjPoint, line_in_surface, line_through

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


class NoSixer(RuntimeError):
    """No six pairwise disjoint lines found; the configuration is corrupt."""


class InconsistentIncidence(RuntimeError):
    """Assigned classes fail to reproduce the incidence matrix."""


class NotContractible(ValueError):
    """Family is not a disjoint g-stable set of (-1)-classes."""


class RelationFailed(AssertionError):
    """A divisor relation failed as an exact vector identity."""


class OrbitsNotDisjoint(ValueError):
    """The two length-5 orbits were expected to be disjoint."""


class DivisorClass(Frozen, eq=True):
    __slots__ = ("label", "vector")


class PicardLattice(Frozen, eq=True):
    __slots__ = ("lattice", "anticanonical", "marked", "actions", "action_names")

    @property
    def rank(self) -> int:
        return self.lattice.rank

    def pair(self, u, v) -> int:
        return self.lattice.pair(list(u), list(v))

    def degree(self) -> int:
        return self.pair(self.anticanonical, self.anticanonical)

    def marked_vector(self, label: str) -> IntVec:
        for dc in self.marked:
            if dc.label == label:
                return dc.vector
        raise KeyError(label)

    def check_action_invariants(self) -> None:
        pair, gram = self.lattice.pair, self.lattice.gram
        for m in self.actions:
            # M^T G M = G: the images of the basis pair as the basis does
            cols = list(zip(*m))
            if any(pair(u, v) != x for u, row in zip(cols, gram) for v, x in zip(cols, row)):
                raise InconsistentIncidence("action matrix is not a gram isometry")
            img = apply_matrix(m, self.anticanonical)
            if img != tuple(self.anticanonical):
                raise InconsistentIncidence("action matrix moves the anticanonical class")

    def serialize(self) -> dict:
        return {
            "lattice": self.lattice.serialize(),
            "anticanonical": [str(x) for x in self.anticanonical],
            "marked": {dc.label: [str(x) for x in dc.vector] for dc in self.marked},
            "actions": {
                name: [[str(x) for x in row] for row in m]
                for name, m in zip(self.action_names, self.actions)
            },
        }


def apply_matrix(m, v) -> IntVec:
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


# heads of the lattices head + <-1>^m below: <1> (the cubic's h) and the
# hyperbolic plane U (the quadric's rulings f1, f2)
_H_HEAD = ((1,),)
_U_HEAD = ((0, 1), (1, 0))


def _minus_one_extension(head_gram, m: int, labels) -> IntLattice:
    """The lattice head + <-1>^m, basis labelled in order."""
    r = len(head_gram)
    gram = [list(row) + [0] * m for row in head_gram]
    gram += [[0] * (r + m) for _ in range(m)]
    for i in range(r, r + m):
        gram[i][i] = -1
    return IntLattice.from_gram(gram, labels)


# -- reconstruction -----------------------------------------------------------


def find_sixers(cfg: LineConfiguration, limit: int = 1) -> list[tuple[int, ...]]:
    """Pairwise disjoint sextuples of line indices, deterministic order."""
    n = len(cfg.lines)
    inc = cfg.incidence
    found: list[tuple[int, ...]] = []

    def extend(partial: list[int], start: int):
        if len(found) >= limit:
            return
        if len(partial) == 6:
            found.append(tuple(partial))
            return
        for k in range(start, n):
            if all(inc[k][p] == 0 for p in partial):
                extend(partial + [k], k + 1)
                if len(found) >= limit:
                    return

    extend([], 0)
    return found


def reconstruct_picard(cfg: LineConfiguration, g: FiniteGroup,
                       sixer: tuple[int, ...] | None = None) -> PicardLattice:
    """Rank-7 Picard lattice with line classes and group action matrices.

    The sixer's classes are e_1..e_6, and h = c_b + e_i + e_j for the first
    line b meeting exactly the sixer members i and j.  So a generator's
    matrix is written down from its line permutation: column h is the image
    of c_b + e_i + e_j and column e_k that of sixer line k.  Each matrix is
    then checked on all 27 line classes.
    """
    if sixer is None:
        sixers = find_sixers(cfg, limit=1)
        if not sixers:
            raise NoSixer("no six pairwise disjoint lines in the configuration")
        sixer = sixers[0]
    n = len(cfg.lines)
    lattice = _minus_one_extension(_H_HEAD, 6, ("h",) + tuple(f"e{i}" for i in range(1, 7)))
    classes: list[IntVec] = []
    h_lines = None  # b, sixer member i, sixer member j
    for idx in range(n):
        v = [0] * 7
        if idx in sixer:
            v[1 + sixer.index(idx)] = 1
        else:
            meets = [k for k, s in enumerate(sixer) if cfg.incidence[idx][s] == 1]
            if len(meets) not in (2, 5):
                raise InconsistentIncidence(
                    f"line {cfg.labels[idx]} meets the sixer in {len(meets)} members"
                )
            v[0] = 1 if len(meets) == 2 else 2  # h - e_i - e_j, or the conic 2h - sum of five
            for k in meets:
                v[1 + k] = -1
            if len(meets) == 2 and h_lines is None:
                h_lines = (idx, sixer[meets[0]], sixer[meets[1]])
        classes.append(tuple(v))
    anticanonical = (3, -1, -1, -1, -1, -1, -1)
    for i in range(n):
        if lattice.pair(classes[i], classes[i]) != -1:
            raise InconsistentIncidence("line class with self-intersection != -1")
        if lattice.pair(classes[i], anticanonical) != 1:
            raise InconsistentIncidence("line class with anticanonical degree != 1")
        for j in range(i + 1, n):
            if lattice.pair(classes[i], classes[j]) != cfg.incidence[i][j]:
                raise InconsistentIncidence(
                    f"classes of {cfg.labels[i]}, {cfg.labels[j]} disagree with incidence"
                )
    if h_lines is None:
        raise InconsistentIncidence("no line meets exactly two sixer members")
    actions = []
    names = []
    for gen in g.generators:
        perm = induced_line_permutation(cfg, gen)
        h_image = tuple(map(sum, zip(*(classes[perm[k]] for k in h_lines))))
        m = tuple(zip(h_image, *(classes[perm[k]] for k in sixer)))
        for idx in range(n):
            if apply_matrix(m, classes[idx]) != classes[perm[idx]]:
                raise InconsistentIncidence("action matrix fails on a line class")
        actions.append(m)
        names.append(gen.to_cycles())
    marked = tuple(DivisorClass(cfg.labels[i], classes[i]) for i in range(n))
    pic = PicardLattice(lattice, anticanonical, marked, tuple(actions), tuple(names))
    pic.check_action_invariants()
    return pic


# -- invariant rank and contraction --------------------------------------------


def invariant_rank(pic: PicardLattice) -> int:
    """Rank over Q of the common fixed space of all action matrices."""
    n = pic.rank
    if not pic.actions:
        return n
    stacked = []
    for m in pic.actions:
        for i in range(n):
            stacked.append([m[i][j] - (1 if i == j else 0) for j in range(n)])
    return n - int_rank(stacked)


def contract(pic: PicardLattice, family: list[str]) -> tuple[PicardLattice, IntGrid]:
    """Blow down a g-stable orthogonal family of marked (-1)-classes.

    Returns the target lattice and the embedding of its basis into the
    source, one row of source coordinates per target basis vector.
    """
    vectors = [pic.marked_vector(lab) for lab in family]
    for v in vectors:
        if pic.pair(v, v) != -1:
            raise NotContractible("family member with self-intersection != -1")
    for u, v in itertools.combinations(vectors, 2):
        if pic.pair(u, v) != 0:
            raise NotContractible("family members meet")
    family_set = set(vectors)
    for m in pic.actions:
        for v in vectors:
            if apply_matrix(m, v) not in family_set:
                raise NotContractible("family is not stable under the group action")
    comp_labels = [f"c{i}" for i in range(pic.rank - len(vectors))]
    target_lattice, basis = orthogonal_complement(pic.lattice, vectors, comp_labels)
    src_k = list(pic.anticanonical)
    shifted = [a + sum(v[i] for v in vectors) for i, a in enumerate(src_k)]
    k_coords = coordinates_in_basis(basis, [shifted])[0]
    if k_coords is None:
        raise NotContractible("-K + sum(family) does not lie in the complement")
    target_actions = []
    for m in pic.actions:
        cols = coordinates_in_basis(basis, [apply_matrix(m, b) for b in basis])
        if None in cols:
            raise NotContractible("the group action does not preserve the complement")
        target_actions.append(tuple(
            tuple(cols[j][i] for j in range(len(basis))) for i in range(len(basis))
        ))
    target = PicardLattice(
        target_lattice,
        tuple(k_coords),
        (),
        tuple(target_actions),
        pic.action_names,
    )
    target.check_action_invariants()
    return target, basis


@functools.cache
def contraction(pic: PicardLattice, family: tuple[str, ...]) -> tuple[PicardLattice, IntMat]:
    """contract(pic, family), once per (lattice, family) and immutable: three checks share two.
    Lattices compare by value, so every report shares the same two entries."""
    target, basis = contract(pic, list(family))
    return target, tuple(map(tuple, basis))


def pushforward(pic: PicardLattice, family: list[str], basis: IntGrid, vector) -> IntVec:
    """Image of a class under the blow-down: project along the family."""
    vectors = [pic.marked_vector(lab) for lab in family]
    v = list(vector)
    for c in vectors:
        t = pic.pair(v, c)
        v = [x + t * y for x, y in zip(v, c)]
    coords = coordinates_in_basis(basis, [v])[0]
    if coords is None:
        raise NotContractible("the projected class does not lie in the complement")
    return tuple(coords)


# -- link calculus ---------------------------------------------------------------


def divisor_relation_check(pic: PicardLattice) -> dict:
    """The two exact divisor identities of the link, plus pushforward data."""
    e_labels = ["E1", "E2"]
    f_labels = ["L1", "L2", "L3", "L4", "L5"]
    rank2, basis = contraction(pic, tuple(f_labels))
    hb = hyperbolic_basis(rank2.lattice, positive_against=list(rank2.anticanonical))
    if hb is None:
        raise RelationFailed("the rank-2 contraction target is not hyperbolic")
    f1, f2 = hb
    minus_k2 = tuple(2 * a + 2 * b for a, b in zip(f1, f2))
    if minus_k2 != tuple(rank2.anticanonical):
        raise RelationFailed("anticanonical class is not 2f1 + 2f2 in the ruling basis")
    h_down = [a + b for a, b in zip(f1, f2)]
    sigma_h = tuple(sum(c * b[i] for c, b in zip(h_down, basis)) for i in range(pic.rank))
    e1 = pic.marked_vector("E1")
    e2 = pic.marked_vector("E2")
    e_sum = tuple(a + b for a, b in zip(e1, e2))
    pullback_k5 = tuple(a + b for a, b in zip(pic.anticanonical, e_sum))
    rhs1 = tuple(2 * a - 3 * b for a, b in zip(pullback_k5, e_sum))
    if sigma_h != rhs1:
        raise RelationFailed(
            f"sigma*(H) relation failed, difference {tuple(x - y for x, y in zip(sigma_h, rhs1))}"
        )
    f_sum = tuple(
        sum(pic.marked_vector(lab)[i] for lab in f_labels) for i in range(pic.rank)
    )
    rhs2 = tuple(3 * a - 5 * b for a, b in zip(pullback_k5, e_sum))
    if f_sum != rhs2:
        raise RelationFailed(
            f"sum(F) relation failed, difference {tuple(x - y for x, y in zip(f_sum, rhs2))}"
        )
    push_e = {}
    for lab in e_labels:
        coords = pushforward(pic, f_labels, basis, pic.marked_vector(lab))
        a = rank2.pair(coords, f2)  # coefficient of f1
        b = rank2.pair(coords, f1)  # coefficient of f2
        push_e[lab] = (a, b)
    bidegrees = sorted(push_e.values())
    if bidegrees != [(1, 2), (2, 1)]:
        raise RelationFailed(f"pushforward bidegrees {bidegrees} != {{(1,2),(2,1)}}")
    f_degrees = [pic.pair(pic.marked_vector(lab), pullback_k5) for lab in f_labels]
    if f_degrees != [3, 3, 3, 3, 3]:
        raise RelationFailed(f"F_i . pullback(-K) = {f_degrees}, expected all 3")
    return {
        "pullback_anticanonical": [str(x) for x in pullback_k5],
        "sigma_star_H": [str(x) for x in sigma_h],
        "relation_sigma_H": "sigma*(H) = 2 pi*(-K) - 3(E1+E2)",
        "relation_sum_F": "F1+...+F5 = 3 pi*(-K) - 5(E1+E2)",
        "sum_F": [str(x) for x in f_sum],
        "pushforward_bidegrees": {lab: list(v) for lab, v in push_e.items()},
        "F_degree_downstairs": f_degrees,
        "ruling_convention": "f1, f2 are the isotropic classes pairing to 1, "
                             "signs fixed by positivity against -K; the swap is conventional",
    }


# -- quadric-side lattices ---------------------------------------------------------


@functools.cache
def _ruling_data(quadric: Surface) -> tuple[tuple[ProjPoint, ...], tuple[tuple[IntVec, int], ...]]:
    """The length-4 orbit on the quadric and its on-quadric pair lines, once
    per quadric (by value, so once for every report) and immutable: each line
    as its two point indices and its ruling, 0 for the first line's and 1 for
    the other (same iff disjoint)."""
    pts = tuple(length4_orbit_points())
    lines = {}
    for i, j in itertools.combinations(range(4), 2):
        line = line_through(pts[i], pts[j])
        if line_in_surface(line, quadric.form):
            lines[i, j] = line
    first = next(iter(lines.values()), None)
    return pts, tuple((ij, 0 if line == first or not first.meets(line) else 1)
                      for ij, line in lines.items())


def ruling_blowup_check(quadric: Surface) -> dict:
    """Blowing up the length-4 orbit creates four (-2)-classes.

    The four on-quadric pair lines are the rulings through two of the four
    points; in the rank-6 lattice (hyperbolic plane + four exceptional
    classes) each proper transform f - g_i - g_j has square -2, which kills
    ampleness of the anticanonical class.  Blowing up a length-5 orbit
    instead gives a lattice carrying exactly 27 (-1)-classes of degree 1.
    """
    pts, rulings = _ruling_data(quadric)
    if len(rulings) != 4:
        raise InconsistentIncidence(f"expected 4 on-quadric pair lines, found {len(rulings)}")
    lattice = _minus_one_extension(_U_HEAD, 4, ("f1", "f2", "g1", "g2", "g3", "g4"))
    minus_k = (2, 2, -1, -1, -1, -1)
    transforms = []
    for (i, j), fam in rulings:
        v = [0] * 6
        v[fam] = 1
        v[2 + i] = -1
        v[2 + j] = -1
        transforms.append({
            "ruling_points": [i, j],
            "family": "f1" if fam == 0 else "f2",
            "class": v,
            "square": lattice.pair(v, v),
            "anticanonical_degree": lattice.pair(v, minus_k),
        })
    squares = [t["square"] for t in transforms]
    if squares != [-2, -2, -2, -2]:
        raise RelationFailed(f"proper transform squares {squares} != all -2")
    del_pezzo = blowup5_minus_one_classes()
    return {
        "orbit_points": [p.serialize() for p in pts],
        "on_quadric_pairs": [list(ij) for ij, _ in rulings],
        "proper_transforms": transforms,
        "minus_two_count": len(transforms),
        "five_point_blowup_minus_one_classes": len(del_pezzo),
        "lattice": lattice.serialize(),
    }


def cubic_minus_one_classes() -> list[IntVec]:
    """All c with c^2 = -1, c.(-K) = 1 in the rank-7 cubic lattice.

    The lattice is <1> + <-1>^6 with -K = (3, -1, ..., -1); the enumeration is
    exact (see _minus_one_classes) and finds h in {0, 1, 2}.  The 27 line
    classes of a smooth cubic exhaust this set, which certifies that the 27
    geometric lines realize every numerical (-1)-class.
    """
    return _minus_one_classes(_H_HEAD, (3,), 6)


def blowup5_minus_one_classes() -> list[IntVec]:
    """All c with c^2 = -1, c.(-K) = 1 in the 5-point quadric blow-up lattice.

    The lattice is the hyperbolic plane (f1, f2) + <-1>^5 with
    -K = (2, 2, -1, ..., -1); the enumeration is exact (see
    _minus_one_classes) and finds (f1, f2) coefficients in [0, 2].
    """
    return _minus_one_classes(_U_HEAD, (2, 2), 5)


class UnboundedRegion(ArithmeticError):
    """The quadratic part of a search region is not negative definite."""


def _minus_one_classes(head_gram, head_k, m: int) -> list[IntVec]:
    """All c = (h, e) with c^2 = -1 and c.(-K) = 1 in head + <-1>^m.

    -K = (head_k, -1, ..., -1).  With w = head_gram . head_k, the two
    conditions read sum e_i^2 = h^2 + 1 and sum e_i = 1 - w.h, and
    Cauchy-Schwarz, (sum e_i)^2 <= m sum e_i^2, confines h to
    F(h) = m (h^2 + 1) - (1 - w.h)^2 >= 0.  The quadratic part m G - w w^T
    of F is negative definite for both lattices used here ((-K)^2 = 3 > 0),
    so the region is bounded; _region_points checks this and lists the
    region exactly, and every e is then listed exactly too.
    """
    r = len(head_gram)
    w = [sum(head_gram[i][j] * head_k[j] for j in range(r)) for i in range(r)]
    quad = [[m * head_gram[i][j] - w[i] * w[j] for j in range(r)] for i in range(r)]
    out = []
    for h in _region_points(quad, [2 * x for x in w], m - 1):
        norm = _quad_value(head_gram, h) + 1
        total = 1 - _dot(w, h)
        out.extend(h + e for e in _norm_sum_vectors(m, norm, total))
    return sorted(out)


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _quad_value(quad, x) -> int:
    return sum(quad[i][j] * x[i] * x[j] for i in range(len(x)) for j in range(len(x)))


def _region_points(quad, lin, const: int) -> list[IntVec]:
    """All integer x with x.quad.x + lin.x + const >= 0, quad negative definite.

    The last coordinate z enters as s z^2 + b(y) z + c(y) with s < 0.  A real
    z exists iff b(y)^2 - 4 s c(y) >= 0, which is again such a region in the
    other coordinates y; for each of its points z runs over the integers
    between the two roots, bounded exactly with an integer square root.
    """
    r = len(quad)
    if r == 0:
        return [()] if const >= 0 else []
    s = quad[-1][-1]
    if s >= 0:
        raise UnboundedRegion("the quadratic part is not negative definite")
    q = [quad[i][-1] for i in range(r - 1)]
    rest = [row[:-1] for row in quad[:-1]]
    lz = lin[-1]
    outer = _region_points(
        [[4 * q[i] * q[j] - 4 * s * rest[i][j] for j in range(r - 1)] for i in range(r - 1)],
        [4 * lz * q[i] - 4 * s * lin[i] for i in range(r - 1)],
        lz * lz - 4 * s * const,
    )
    out = []
    a = -2 * s
    for y in outer:
        b = 2 * _dot(q, y) + lz
        c = _quad_value(rest, y) + _dot(lin[:-1], y) + const
        root = math.isqrt(b * b - 4 * s * c)
        # s z^2 + b z + c >= 0 exactly for (b - sqrt) / a <= z <= (b + sqrt) / a
        out.extend(y + (z,) for z in range(-((root - b) // a), (b + root) // a + 1))
    return out


def _norm_sum_vectors(m: int, norm: int, total: int) -> list[IntVec]:
    """All integer m-tuples e with sum e_i^2 = norm and sum e_i = total."""
    if m == 0:
        return [()] if norm == 0 and total == 0 else []
    if total * total > m * norm:  # Cauchy-Schwarz; also rejects norm < 0
        return []
    bound = math.isqrt(norm)
    return [
        (x,) + rest
        for x in range(-bound, bound + 1)
        for rest in _norm_sum_vectors(m - 1, norm - x * x, total - x)
    ]


# the E-classes over the first orbit of the resolution: the pair f_a + 2 f_b - sum(g)
_E_BLOCK = ((1, 2, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0),
           (2, 1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0))


def selfmap_degree(quadric: Surface, g: FiniteGroup,
                   orbit_k1: list[ProjPoint], orbit_k2: list[ProjPoint],
                   d10: FiniteGroup) -> dict:
    """Degree of the composite self-map on the common resolution lattice.

    The resolution blows up both length-5 orbits on the quadric; the two
    pullbacks of the degree-5 anticanonical class pair to 50, so the composite
    acts on the anticanonical system with degree 10 > 1: not biregular.
    """
    if set(orbit_k1) & set(orbit_k2):
        raise OrbitsNotDisjoint("the two length-5 orbits intersect")
    rank = 12
    labels = ("f1", "f2") + tuple(f"g{i}" for i in range(1, 6)) + tuple(f"g'{i}" for i in range(1, 6))
    lattice = _minus_one_extension(_U_HEAD, 10, labels)
    pts, rulings = _ruling_data(quadric)
    family = dict(rulings)
    actions = []
    swap_flags = []
    for gen in g.generators:
        # does the generator preserve the two ruling families?  Permuting the
        # orbit points by sigma, it maps the pair line {i, j} onto {sigma i, sigma j}
        sigma = [pts.index(gen.apply_point(p)) for p in pts]
        images = [tuple(sorted((sigma[i], sigma[j]))) for i, j in family]
        if any(ij not in family for ij in images):
            raise InconsistentIncidence("a generator moves a ruling off the four rulings")
        swaps = [family[ij] for ij in images] != list(family.values())
        in_d10 = gen in d10
        if swaps == in_d10:
            raise InconsistentIncidence(
                "ruling swap disagrees with membership in the index-2 subgroup"
            )
        tau1 = [orbit_k1.index(gen.apply_point(p)) for p in orbit_k1]
        tau2 = [orbit_k2.index(gen.apply_point(p)) for p in orbit_k2]
        m = [[0] * rank for _ in range(rank)]
        if swaps:
            m[0][1] = m[1][0] = 1
        else:
            m[0][0] = m[1][1] = 1
        for i, j in enumerate(tau1):
            m[2 + j][2 + i] = 1
        for i, j in enumerate(tau2):
            m[7 + j][7 + i] = 1
        actions.append(tuple(tuple(row) for row in m))
        swap_flags.append(swaps)
    minus_k_res = (2, 2) + (-1,) * 10
    pic = PicardLattice(lattice, minus_k_res, (), tuple(actions),
                        tuple(gen.to_cycles() for gen in g.generators))
    pic.check_action_invariants()
    if any(lattice.pair(v, v) != -1 for v in _E_BLOCK):
        raise NotContractible("E-class with self-intersection != -1")
    for m in actions:
        if {apply_matrix(m, v) for v in _E_BLOCK} != set(_E_BLOCK):
            raise NotContractible("the E-classes do not form a size-2 orbit")
    minus_k_cubic_left = (2, 2, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0)
    left = tuple(k + a + b for k, a, b in zip(minus_k_cubic_left, *_E_BLOCK))
    if left != (5, 5, -3, -3, -3, -3, -3, 0, 0, 0, 0, 0):
        raise RelationFailed(f"left pullback {left} != (5, 5, -3^5, 0^5)")
    right = (5, 5, 0, 0, 0, 0, 0, -3, -3, -3, -3, -3)
    pairing = lattice.pair(left, right)
    identity_pairing = lattice.pair(left, left)
    if pairing % 5 != 0:
        raise RelationFailed("pairing must be divisible by the degree 5")
    degree = pairing // 5
    for m in actions:
        if apply_matrix(m, left) != left or apply_matrix(m, right) != right:
            raise RelationFailed("pullback classes must be fixed by the group action")
        # block embeddings commute with the action: the (f, g) block is preserved
        for row in range(2, 7):
            if any(m[row][col] for col in range(7, 12)):
                raise RelationFailed("action mixes the two exceptional blocks")
    return {
        "lattice": lattice.serialize(),
        "left_pullback": [str(x) for x in left],
        "right_pullback": [str(x) for x in right],
        "pairing": pairing,
        "degree": degree,
        "identity_pairing": identity_pairing,
        "identity_degree": identity_pairing // 5,
        "non_biregular": degree > 1,
        "ruling_swap_by_generator": {
            gen.to_cycles(): bool(flag)
            for gen, flag in zip(g.generators, swap_flags)
        },
        "orbit_assignment_note": "blowing up K2 first instead of K1 gives the mirror "
                                 "certificate; the two assignments differ by the "
                                 "normalizer involution exchanging the orbits",
    }
