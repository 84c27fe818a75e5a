"""The birational automorphism group as a projective normalizer computation.

The group of order 20 acts on the hyperplane {sum x_i = 0} through the
restriction of the permutation representation, a 4-dimensional irreducible.
Every projective transformation normalizing the represented group while
fixing each group element's class is an intertwiner T with

    T rho(h) = lambda(h) rho(h) T        for a linear character lambda,

and since the group is its own automorphism group, the full projective
normalizer is generated by the representation together with these
intertwiners.  The characters factor through (Z/5)^x, so by Schur's lemma
each intertwiner is a Gauss-sum circulant, written down in closed form on
the hyperplane; the ones preserving the quadratic form (up to scalar)
generate, with rho(G), the quadric-preserving normalizer.

Identities over the whole group are tested on its generators only: rho is a
homomorphism and lambda a character, so from the identity at a and at b,
T rho(ab) = lambda(a) rho(a) T rho(b) = lambda(ab) rho(ab) T.  The same
argument lets the central involution be tested for commutation with the
generators.

The normalizer's classes N, those of T_lambda rho(g) for the characters
lambda in Lambda_Q whose T_lambda preserves the quadric and g in G, are
listed, not closed.  Lambda_Q is checked closed under products, and each
T_lambda T_mu to lie in N, say in the class of T_nu rho(k).  As
rho(g) T_mu = mu(g)^-1 T_mu rho(g), the classes of T_lambda rho(g) and
T_mu rho(h) multiply to that of T_nu rho(kgh): N is closed under products,
so it is the group the generators generate.  Its order, 20 |Lambda_Q|, is
checked by counting N: the cosets are disjoint and rho projectively faithful.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable

from .cyclo import FieldElement, Frozen, ZERO, rational, root_of_unity
from .groups import FiniteGroup, Permutation
from .linalg import Grid, identity_grid, mat_mul, mat_vec, rank, serialize_grid, transpose
from .projgeo import HYPERPLANE_BASIS, ProjPoint, hyperplane_gram, power_sum_form


class WrongGroup(ValueError):
    """Expected the order-20 subgroup with a normal cyclic 5-part."""


class NotOnHyperplane(ValueError):
    """A point expected in {sum x_i = 0} has a nonzero coordinate sum."""


class IntertwiningFailure(ArithmeticError):
    """A matrix fails T rho(h) = lambda(h) rho(h) T; for a closed form, an arithmetic defect."""


class CosetsNotAGroup(ArithmeticError):
    """The listed normalizer classes are not closed under products, or overlap."""


def restricted_representation(g: FiniteGroup) -> dict[Permutation, Grid]:
    """4x4 matrices of the permutation action on the hyperplane basis, in closed form.

    The basis is b_j = e_j - e_{j+1}, so a hyperplane vector's coordinate c_i
    is its prefix sum x_0 + ... + x_i (see apply_on_hyperplane).  h maps b_j
    to e_{h(j)} - e_{h(j+1)}, whose i-th prefix sum is [h(j) <= i] - [h(j+1) <= i].
    """
    return {h: [[rational((h.images[j] <= i) - (h.images[j + 1] <= i)) for j in range(4)]
                for i in range(4)] for h in g.elements}


def canonical_projective(m: Grid) -> tuple:
    """Hashable key of the projective class of m: the (numerators, denominator)
    pairs, which are canonical (see cyclo), of its row-major entries scaled by
    ProjPoint.of.  Equal keys mean equal classes, and keys of matrices of one
    shape sort as the row-major entries do."""
    return tuple((x.num, x.den) for x in ProjPoint.of([x for row in m for x in row]).coords)


class Character(Frozen):
    """Linear character of the order-20 group, values in {1, i, -1, -i}."""

    __slots__ = ("label", "values")

    def __call__(self, h: Permutation) -> FieldElement:
        return self.values[h]

    def order(self) -> int:
        imgs = {tuple(v.coeffs) for v in self.values.values()}
        return len(imgs)


def _semidirect_generators(g: FiniteGroup) -> tuple[Permutation, Permutation, int]:
    """t, c and u in 1..4 with t c t^-1 = c^u, for the first elements t of order 4
    and c of order 5 of g; WrongGroup unless g has order 20 and they exist.
    Then the 20 products t^a c^b are all of g: <c> is its only order-5 subgroup."""
    if g.order() != 20:
        raise WrongGroup(f"group has order {g.order()}, expected 20")
    t = next((h for h in g.elements if h.order() == 4), None)
    c = next((h for h in g.elements if h.order() == 5), None)
    if t is None or c is None:
        raise WrongGroup("no element of order 4, or none of order 5")
    conjugate, power, u = t * c * t.inverse(), c, 1
    while power != conjugate and u < 4:
        power, u = power * c, u + 1
    if power != conjugate:
        raise WrongGroup(f"{t.to_cycles()} does not normalise <{c.to_cycles()}>")
    return t, c, u


def characters_of_g20(g: FiniteGroup) -> list[Character]:
    """The four linear characters, factoring through the C4 quotient g/<c>."""
    t, c, _ = _semidirect_generators(g)
    cosets, h = {}, Permutation.identity()
    for a in range(4):
        for _ in range(5):  # h runs over t^a c^b and, as c^5 = 1, ends at t^a
            cosets[h], h = a, h * c
        h = t * h
    chars = []
    for k in range(4):
        values = {h: root_of_unity(4, k * a) for h, a in cosets.items()}
        chars.append(Character(label=f"chi{k}", values=values))
    return chars


class Intertwiner(Frozen):
    __slots__ = ("character", "matrix", "invertible", "quadric_preserving", "square_in_group")

    def serialize(self) -> dict:
        return {
            "character": self.character,
            "matrix": serialize_grid(self.matrix),
            "invertible": self.invertible,
            "quadric_preserving": self.quadric_preserving,
            "square_in_group": self.square_in_group,
        }


def _group_tables(rep: dict[Permutation, Grid], g: FiniteGroup) -> tuple:
    """What every character's intertwiner needs: the pairs (u^n mod 5, t^-n),
    n = 0..3, for the first element t of order 4 and the unit u with
    t c t^-1 = c^u for the elements c of order 5; the projective classes of
    the represented group, each with a rho(h); and the quadric's gram."""
    t, _, u = _semidirect_generators(g)
    units = [(1, Permutation.identity())]
    while len(units) < 4:
        k, h = units[-1]
        units.append((k * u % 5, h * t.inverse()))
    group_classes = {canonical_projective(rep[h]): rep[h] for h in g.elements}
    return units, group_classes, hyperplane_gram(power_sum_form(5, 2))


def require_intertwining(t: Grid, lam: Character, rep: dict[Permutation, Grid],
                         hs: Iterable[Permutation]) -> None:
    """Raise IntertwiningFailure unless T rho(h) = lambda(h) rho(h) T for each h in hs.

    Passing the generators of the group decides the identity on the whole
    group (see the module docstring).
    """
    for h in hs:
        lhs = mat_mul(t, rep[h])
        rhs = [[lam(h) * x for x in row] for row in mat_mul(rep[h], t)]
        if lhs != rhs:
            raise IntertwiningFailure(f"{lam.label} intertwining fails at {h.to_cycles()}")


def intertwiner(lam: Character, rep: dict[Permutation, Grid],
                g: FiniteGroup, tables: tuple | None = None) -> Intertwiner:
    """T with T rho(h) = lambda(h) rho(h) T, written down as a Gauss-sum circulant.

    An element h with h c h^-1 = c^a for the 5-cycles c maps x to a x + b on
    the coordinates.  The circulant T_chi[i][j] = (1/5) sum_{k != 0} chi(k)
    zeta_5^(k(i-j)) acts as chi(k) on the Fourier mode k, as 0 on mode 0,
    and T_chi P_h = chi(a)^-1 P_h T_chi; so it is lambda's intertwiner for
    chi(u^n) = lambda(t^-n), with t and u read off g.  On the hyperplane
    basis b_j = e_j - e_{j+1} the prefix sums of column j telescope to
    tau(i - j) - tau(-1 - j), with tau(d) = T_chi[d][0], d mod 5.  This is
    scaled by 5 T_chibar[0][0] (T_chibar is T_chi^-1 on the hyperplane):
    by Schur's lemma the average of lambda(h) rho(h) E_rc rho(h^-1) over g
    is 5 (T^-1)[c][r] T, so it is the seed average of E_00.  That entry is
    1 for the trivial character and otherwise -1/5 times a Gauss sum, of
    absolute value sqrt 5, so never 0.  The identity is checked at the
    generators of g, which decides it at every element.  ``tables`` is
    ``_group_tables(rep, g)``, passed in when several characters share one
    representation.
    """
    units, group_classes, gram = tables or _group_tables(rep, g)
    chi = {k: lam(h) for k, h in units}

    def fourier(values: dict[int, FieldElement]) -> list[FieldElement]:
        """5 T[d][0] for d in Z/5, for the character values {k: chi(k)}."""
        return [sum((x * root_of_unity(5, k * d % 5) for k, x in values.items()), ZERO)
                for d in range(5)]

    tau = fourier(chi)
    tau_bar = fourier({pow(k, -1, 5): x for k, x in chi.items()})
    scale = (tau_bar[0] - tau_bar[-1]) * rational(Fraction(1, 5))
    total = [[scale * (tau[i - j] - tau[-1 - j]) for j in range(4)] for i in range(4)]
    require_intertwining(total, lam, rep, g.generators)
    # preserving: T^t gram T is a nonzero multiple of the gram
    transported = mat_mul(mat_mul(transpose(total), gram), total)
    entries = [(x, y) for tr, gr in zip(transported, gram) for x, y in zip(tr, gr)]
    scales = {x / y for x, y in entries if not y.is_zero()}
    preserving = (len(scales) == 1 and ZERO not in scales
                  and all(x.is_zero() for x, y in entries if y.is_zero()))
    square = mat_mul(total, total)
    square_in_group = (
        not all(x.is_zero() for row in square for x in row)
        and canonical_projective(square) in group_classes
    )
    return Intertwiner(
        character=lam.label,
        matrix=total,
        invertible=rank(total) == 4,
        quadric_preserving=preserving,
        square_in_group=square_in_group,
    )


class NormalizerResult(Frozen):
    __slots__ = ("order", "generator_matrices", "structure", "involution", "intertwiners")

    def serialize(self) -> dict:
        return {
            "order": self.order,
            "hyperplane_basis": [list(r) for r in HYPERPLANE_BASIS],
            "generators": [serialize_grid(m) for m in self.generator_matrices],
            "structure": self.structure,
            "involution": serialize_grid(self.involution),
            "intertwiners": [t.serialize() for t in self.intertwiners],
        }


def apply_on_hyperplane(m: Grid, p: ProjPoint) -> ProjPoint:
    """Image of a hyperplane point of P^4 under a 4x4 matrix in basis coords.

    In the basis b_j = e_j - e_{j+1}, x = sum c_j b_j has x_0 = c_0,
    x_i = c_i - c_{i-1} and x_4 = -c_3: the c_j are the prefix sums of x,
    and the full sum is zero exactly on the hyperplane.
    """
    *coords, total = itertools.accumulate(p.coords)
    if total:
        raise NotOnHyperplane(f"point {p!r} is not on the hyperplane")
    c = mat_vec(m, coords)
    return ProjPoint.of([c[0], c[1] - c[0], c[2] - c[1], c[3] - c[2], -c[3]])


def normalizer_classes(g: FiniteGroup, rep: dict[Permutation, Grid], group_classes: dict,
                       preserving: list[tuple[Character, Grid]]) -> dict:
    """{key: first matrix} of the classes T_lambda rho(h), h in g, over the preserving
    (lambda, T_lambda), checked a group as the module docstring says (else CosetsNotAGroup)."""
    ident_key = canonical_projective(identity_grid(4))
    elements: dict = {}
    for _, t in preserving:
        coset = group_classes.items() if canonical_projective(t) == ident_key else (
            (canonical_projective(m), m) for m in (mat_mul(t, rep[h]) for h in g.elements))
        for key, m in coset:
            elements.setdefault(key, m)
    values = [[lam(h) for h in g.generators] for lam, _ in preserving]
    for (lam, s), (mu, t) in itertools.product(preserving, repeat=2):
        if [lam(h) * mu(h) for h in g.generators] not in values:
            raise CosetsNotAGroup(f"{lam.label} {mu.label} is not a preserving character")
        if canonical_projective(mat_mul(s, t)) not in elements:
            raise CosetsNotAGroup(f"T_{lam.label} T_{mu.label} lies outside the cosets")
    if len(elements) != g.order() * len(preserving):
        raise CosetsNotAGroup(f"{len(preserving)} cosets give {len(elements)} classes")
    return elements


def assemble_normalizer(g: FiniteGroup) -> NormalizerResult:
    """Quadric-preserving projective normalizer, with structure certificate."""
    rep = restricted_representation(g)
    tables = _group_tables(rep, g)
    group_classes = tables[1]
    tws, preserving = [], []
    for lam in characters_of_g20(g):
        t = intertwiner(lam, rep, g, tables)
        tws.append(t)
        if t.quadric_preserving and t.invertible:
            preserving.append((lam, t.matrix))
    generators = [rep[h] for h in g.generators] + [m for _, m in preserving]
    ident_key = canonical_projective(identity_grid(4))
    elements = normalizer_classes(g, rep, group_classes, preserving)
    order = len(elements)
    # central involution: projectively order 2, commutes with the whole
    # represented group (tested at the generators), not itself represented
    involution = None
    for key, m in sorted(elements.items()):
        if key in group_classes:
            continue
        if canonical_projective(mat_mul(m, m)) != ident_key:
            continue
        if all(
            canonical_projective(mat_mul(m, rep[h])) == canonical_projective(mat_mul(rep[h], m))
            for h in g.generators
        ):
            involution = m
            break
    structure = {
        "represented_group_classes": len(group_classes),
        "index": order // len(group_classes) if order % len(group_classes) == 0 else None,
        "quadric_preserving_characters": sorted(lam.label for lam, _ in preserving),
        "central_involution": involution is not None,
        "direct_product_c2_x_g20": (involution is not None and len(group_classes) == 20
                                    and order == 2 * len(group_classes)),
    }
    return NormalizerResult(
        order=order,
        generator_matrices=tuple(generators),
        structure=structure,
        involution=involution if involution is not None else identity_grid(4),
        intertwiners=tuple(tws),
    )


def involution_swaps_orbits(result: NormalizerResult,
                            orbit_a: list[ProjPoint],
                            orbit_b: list[ProjPoint]) -> bool:
    """Does the extra involution map the first point set onto the second?"""
    images = {apply_on_hyperplane(result.involution, p) for p in orbit_a}
    return images == set(orbit_b)
