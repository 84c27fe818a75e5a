"""Permutation groups on 5 letters acting on exact projective coordinates.

Index convention, used everywhere: the classical permutation letter
j in {1,...,5} acts on coordinate x_{j-1}, and a permutation moves entries,
new[p(j)] = old[j].  Under this convention the classical point lists for the
orbit calculus on the diagonal cubic come out verbatim; the convention is
pinned by the acceptance tests.

Subgroups are enumerated on a group's Cayley table, built on first use: its
sorted elements are indices 0..N-1 (sort_key order, so the identity is 0),
products and inverses are lookups, and a subgroup is a frozenset of indices.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterable, Sequence

from .cyclo import FieldElement, Frozen, ONE, ZERO, root_of_unity
from .linalg import Vector, identity_grid, kernel_basis, rref, transpose
from .projgeo import ProjPoint


class OrbitStabilizerViolation(RuntimeError):
    """|orbit| * |stabilizer| != |group|: the point action is inconsistent."""


class ConjugateNotFound(RuntimeError):
    """A conjugate of a found subgroup is missing from the enumeration (a defect)."""


class UnsupportedEigenvalue(ValueError):
    """Eigenvalue is a root of unity that does not lie in Q(zeta_20)."""


class Permutation(Frozen, eq=True):
    """Bijection of {0,...,4} (coordinate indices)."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection: {images}")
        super().__init__(images)

    @staticmethod
    def identity(n: int = 5) -> "Permutation":
        return Permutation(tuple(range(n)))

    @staticmethod
    def from_cycles(text: str, n: int = 5) -> "Permutation":
        """Parse cycle notation on letters 1..n, e.g. "(12345)" or "(25)(34)"."""
        images = list(range(n))
        body = text.strip()
        if body in ("()", "e", ""):
            return Permutation(tuple(images))
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError(f"bad cycle string {text!r}")
        for cyc in body[1:-1].split(")("):
            letters = [int(ch) - 1 for ch in cyc]
            if len(set(letters)) != len(letters):
                raise ValueError(f"repeated letter in {text!r}")
            for a, b in zip(letters, letters[1:] + letters[:1]):
                images[a] = b
        return Permutation(tuple(images))

    def _cycles(self) -> list[list[int]]:
        """The cycles, fixed points included, each starting at its least index."""
        seen = [False] * len(self.images)
        cycles = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            cycles.append(cyc)
        return cycles

    def to_cycles(self) -> str:
        """Canonical cycle string; identity prints as "()"."""
        cycles = [cyc for cyc in self._cycles() if len(cyc) > 1]
        if not cycles:
            return "()"
        return "".join("(" + "".join(str(k + 1) for k in cyc) + ")" for cyc in cycles)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (self * other)(j) = self(other(j)): other applied first
        if len(self.images) != len(other.images):
            raise ValueError(f"cannot compose {self.images} with {other.images}")
        return Permutation(tuple([self.images[j] for j in other.images]))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for j, i in enumerate(self.images):
            inv[i] = j
        return Permutation(tuple(inv))

    def order(self) -> int:
        """The lcm of the cycle lengths."""
        return math.lcm(*(len(cyc) for cyc in self._cycles()))

    def apply_point(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint.of(self.apply_vector(p.coords))

    def apply_vector(self, v: Sequence[FieldElement]) -> list[FieldElement]:
        new = [ZERO] * len(self.images)
        for j, c in enumerate(v):
            new[self.images[j]] = c
        return new

    def sort_key(self) -> tuple[int, ...]:
        return self.images


class FiniteGroup(Frozen, eq=True):
    """Closure of a generating set, element list sorted canonically.

    The cached member set and Cayley table live in the instance dict.
    """

    __slots__ = ("generators", "elements", "__dict__", "__weakref__")

    def order(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def _members(self) -> frozenset[Permutation]:
        return frozenset(self.elements)

    @functools.cached_property
    def _table(self) -> tuple[tuple, tuple, tuple]:
        """(mul, inv, cyclic) on element indices: mul[i][j] indexes elements[i] *
        elements[j], inv[i] the inverse, and cyclic[i] is <elements[i]>."""
        images = [p.images for p in self.elements]
        index = {x: k for k, x in enumerate(images)}
        mul = tuple(tuple(index[tuple([a[j] for j in b])] for b in images) for a in images)
        return (mul, tuple(row.index(0) for row in mul),
                tuple(index_closure(mul, (a,)) for a in range(len(mul))))

    def __contains__(self, p: Permutation) -> bool:
        return p in self._members

    def element_set(self) -> frozenset[Permutation]:
        return self._members


def closure(seeds: Iterable, generators: Iterable, act: Callable,
            key: Callable | None = None) -> dict:
    """The closure of seeds under act(g, x) for the generators g.

    Returns {key(x): x} (key defaults to x itself) in discovery order, seeds
    first; of elements with equal keys the first found is kept.  Elements are
    taken in discovery order and each is acted on by every generator in turn,
    so act is called exactly once per (generator, element) pair.
    """
    generators = tuple(generators)
    found: dict = {}
    queue: list = []

    def visit(x) -> None:
        k = x if key is None else key(x)
        if k not in found:
            found[k] = x
            queue.append(x)

    for x in seeds:
        visit(x)
    for x in queue:
        for g in generators:
            visit(act(g, x))
    return found


def subgroup_closure(gens: Iterable[Permutation], n: int = 5) -> FiniteGroup:
    """The generated subgroup: the closure of the identity under left products."""
    gens = tuple(gens)
    elements = closure([Permutation.identity(n)], gens, Permutation.__mul__)
    return FiniteGroup(gens, tuple(sorted(elements.values(), key=Permutation.sort_key)))


def index_closure(mul: Sequence[Sequence[int]], gens: Iterable[int]) -> frozenset[int]:
    """The indices of the subgroup generated by the element indices gens."""
    return frozenset(closure([0], gens, lambda a, x: mul[a][x]))


def group_from_cycles(*texts: str) -> FiniteGroup:
    return subgroup_closure(Permutation.from_cycles(t) for t in texts)


def standard_groups() -> dict[str, FiniteGroup]:
    """The subgroup chain used throughout: C4, D10, G20."""
    return {
        "C4": group_from_cycles("(2354)"),
        "D10": group_from_cycles("(12345)", "(25)(34)"),
        "G20": group_from_cycles("(12345)", "(2354)"),
    }


@functools.cache
def subgroups_of_order(g: FiniteGroup, n: int) -> tuple[tuple[FiniteGroup, ...], ...]:
    """All order-n subgroups, grouped into conjugacy classes.

    Found by closing generator subsets of size <= 2; every subgroup of the
    symmetric group on 5 letters is 2-generated, so this is exhaustive here.
    A pair lying in an order-n subgroup K already found is not closed: it
    generates a subgroup of K, which is K itself (kept from its first pair)
    or too small.  So the pruned enumeration keeps the same subgroups with
    the same generators.  Conjugates are index sets g x g^-1, each looked
    up among the found subgroups; the enumeration is exhaustive, so a miss
    raises ConjugateNotFound.  All of this runs on g's Cayley table, and only
    the subgroups found become FiniteGroups.  Computed once per (group, order)
    as immutable tuples: both censuses and the normalizer ask for them.
    """
    if n <= 0 or g.order() % n != 0:
        return ()
    mul, inv, cyclic = g._table
    found: dict[frozenset[int], tuple[int, ...]] = {}  # subgroup -> generator indices
    candidates = [a for a, e in enumerate(g.elements) if n % e.order() == 0]
    if n == 1:
        found[frozenset([0])] = ()
    for a in candidates:
        if len(cyclic[a]) == n:
            found.setdefault(cyclic[a], (a,))
    for a, b in itertools.combinations(candidates, 2):
        # then <a, b> is <a> or <b>, or a subgroup of a K found already: K or too small
        if b in cyclic[a] or a in cyclic[b] or any(a in k and b in k for k in found):
            continue
        h = index_closure(mul, (a, b))
        if len(h) == n:
            found.setdefault(h, (a, b))
    classes: list[tuple[FiniteGroup, ...]] = []
    assigned: set[frozenset[int]] = set()
    for key in sorted(found, key=sorted):
        if key in assigned:
            continue
        cls = []
        for c in range(len(mul)):
            ck = frozenset(mul[mul[c][x]][inv[c]] for x in key)
            if ck not in found:
                raise ConjugateNotFound(
                    f"a conjugate by {g.elements[c].to_cycles()} of an order-{n} subgroup "
                    f"was not enumerated")
            if ck not in assigned:
                assigned.add(ck)
                cls.append(ck)
        classes.append(tuple(
            FiniteGroup(tuple(g.elements[a] for a in found[k]),
                        tuple(g.elements[x] for x in sorted(k)))
            for k in sorted(cls, key=sorted)))
    return tuple(classes)


def orbit_and_stabilizer(g: FiniteGroup, p: ProjPoint) -> tuple[list[ProjPoint], FiniteGroup]:
    """Orbit (sorted) and stabilizer of p = ProjPoint.of(...), lead coordinate p_i = 1: the
    orbit is closed under the generators, and el fixes p when it maps p's coordinates to v
    with p's zeros and v = v_i p.  |orbit| |stabilizer| = |g| checks one against the other."""
    orbit = closure([p], g.generators, Permutation.apply_point)
    zeros = [c.is_zero() for c in p.coords]
    lead = zeros.index(False)
    images = [(el, el.apply_vector(p.coords)) for el in g.elements]
    stab_elements = [el for el, v in images if [x.is_zero() for x in v] == zeros
                     and all(x == v[lead] * y for x, y, z in zip(v, p.coords, zeros) if not z)]
    stab = FiniteGroup(tuple(stab_elements), tuple(sorted(stab_elements, key=Permutation.sort_key)))
    if len(orbit) * stab.order() != g.order():
        raise OrbitStabilizerViolation(
            f"orbit of length {len(orbit)} and stabilizer of order {stab.order()} "
            f"in a group of order {g.order()}")
    return sorted(orbit, key=ProjPoint.sort_key), stab


def eigenspaces_of_permutation(p: Permutation) -> dict[FieldElement, list[Vector]]:
    """Eigenvalue -> eigenspace basis of a coordinate permutation, in closed form.

    On a cycle c_0 -> c_1 -> ... -> c_{m-1} of p (a fixed point is a cycle of
    length 1), the vector with zeta_m^(-jk) at c_k and zero off the cycle has
    eigenvalue zeta_m^j: p moves the entry at c_k to c_{k+1}, where the vector
    holds zeta_m^-j times it.  The m vectors j < m of a cycle have distinct
    eigenvalues and different cycles have disjoint supports, so each list is
    independent, and the n vectors together span K^n: the lists are whole
    eigenspaces.  A cycle length divisible by 3 would need cube roots of unity,
    which do not lie in Q(zeta_20).
    """
    cycles = p._cycles()
    if any(len(cyc) % 3 == 0 for cyc in cycles):
        raise UnsupportedEigenvalue(
            "cycle of length divisible by 3: primitive cube roots of unity "
            "are not elements of Q(zeta_20)"
        )
    spaces: dict[FieldElement, list[Vector]] = {}
    for cyc in cycles:
        m = len(cyc)
        for j in range(m):
            v = [ZERO] * len(p.images)
            for k, c in enumerate(cyc):
                v[c] = root_of_unity(m, -j * k % m)
            spaces.setdefault(root_of_unity(m, j), []).append(v)
    return spaces


class FixedLocusComponent(Frozen):
    """Simultaneous eigenspace of a subgroup, with per-generator scalars."""

    __slots__ = ("character", "basis", "projective_dimension", "positive_dimensional")

    def point(self) -> ProjPoint:
        if self.projective_dimension != 0:
            raise ValueError("component is not a single point")
        return ProjPoint.of(list(self.basis[0]))


def _eigenvectors_in_span(basis: list[Vector], p: Permutation, lam: FieldElement) -> list[Vector]:
    """A basis of {v in span(basis) : p v = lam v}; the b_i must be independent."""
    if len(basis) == 1:  # an exact test, which stops at the first coordinate that differs
        b = basis[0]
        return basis if all(x == lam * y for x, y in zip(p.apply_vector(b), b)) else []
    shifted = [[x - lam * y for x, y in zip(p.apply_vector(b), b)] for b in basis]
    return [[sum((c * x for c, x in zip(u, col) if c), ZERO) for col in zip(*basis)]
            for u in kernel_basis(transpose(shifted))]


def fixed_locus(h: FiniteGroup) -> list[FixedLocusComponent]:
    """Fixed points of h in the hyperplane {sum x_i = 0} of P^4.

    A vector fixed projectively by every element of h is a common eigenvector
    of the generators: for one tuple of eigenvalues, it lies in the first
    generator's eigenspace and in each later generator's.  So restricting
    the first generator's eigenspace to the eigenvectors of each later one
    loses nothing (an exact test on a line, else one small kernel); the
    result is cut with {sum x_i = 0} in closed form, and rref makes it canonical.
    """
    gens = h.generators
    per_gen = [eigenspaces_of_permutation(g) for g in gens]
    keys = [sorted(d, key=lambda lam: tuple(lam.coeffs)) for d in per_gen]
    components = []
    for character in itertools.product(*keys):  # one empty tuple when h is trivial
        basis = per_gen[0][character[0]] if gens else identity_grid(5)
        for g, lam in zip(gens[1:], character[1:]):
            basis = _eigenvectors_in_span(basis, g, lam)
        # p permutes coordinates, so an eigenvector's sum s is lam s: it is 0 unless
        # every lam is 1; then with s_i = sum(b_i) and s_j the first nonzero one,
        # the b_i - s_i/s_j b_j span the cut
        sums = [sum(b[1:], b[0]) for b in basis] if set(character) <= {ONE} else []
        j = next((i for i, s in enumerate(sums) if s), None)
        if j is not None:
            inv = sums[j].inverse()
            basis = [[x - f * y for x, y in zip(b, basis[j])]
                     for i, (b, f) in enumerate(zip(basis, [s * inv for s in sums])) if i != j]
        if basis:
            red, pivots = rref(basis)
            dim = len(pivots) - 1
            components.append(FixedLocusComponent(
                character=character, basis=tuple(tuple(red[i]) for i in range(dim + 1)),
                projective_dimension=dim, positive_dimensional=dim >= 1))
    components.sort(key=lambda c: tuple(tuple(x.coeffs for x in row) for row in c.basis))
    return components
