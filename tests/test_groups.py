import itertools
import random

import pytest

from dp5links.cyclo import I_UNIT, ONE, ZERO, ZETA5
from dp5links import census, groups
from dp5links.groups import (
    ConjugateNotFound,
    FiniteGroup,
    OrbitStabilizerViolation,
    Permutation,
    UnsupportedEigenvalue,
    fixed_locus,
    group_from_cycles,
    orbit_and_stabilizer,
    standard_groups,
    subgroup_closure,
    subgroups_of_order,
)
from dp5links.projgeo import ProjPoint

from geometry_oracles import (
    fixed_locus_by_intersection,
    intersect_spans,
    orbit_and_stabilizer_by_images,
)

S5 = group_from_cycles("(12345)", "(12)")
C5 = group_from_cycles("(12345)")


def conjugate_subgroup(g: Permutation, h: FiniteGroup) -> FiniteGroup:
    """g h g^-1, closed from the conjugated generators."""
    gi = g.inverse()
    return subgroup_closure(g * x * gi for x in h.generators)


def test_cycle_notation_round_trips():
    assert Permutation.from_cycles("(12345)").images == (1, 2, 3, 4, 0)
    assert Permutation.from_cycles("(2354)").images == (0, 2, 4, 1, 3)
    assert Permutation.from_cycles("(25)(34)").to_cycles() == "(25)(34)"
    assert Permutation.identity().to_cycles() == "()"
    assert Permutation.from_cycles("()") == Permutation.identity()
    with pytest.raises(ValueError):
        Permutation.from_cycles("(11)")


def test_composition_applies_right_factor_first():
    a = Permutation.from_cycles("(12)")
    b = Permutation.from_cycles("(23)")
    assert (a * b).to_cycles() == "(123)"
    assert (b * a).to_cycles() == "(132)"


def test_composition_equals_the_checked_constructor_and_rejects_length_mismatch():
    s5 = S5.elements
    for a, b in itertools.product(s5, repeat=2):
        ab = a * b
        expected = Permutation(tuple(a.images[b.images[j]] for j in range(5)))
        assert ab == expected and hash(ab) == hash(expected)
    with pytest.raises(ValueError):
        Permutation.identity(5) * Permutation.identity(4)
    with pytest.raises(ValueError):
        Permutation.from_cycles("(123)", n=3) * Permutation.from_cycles("(12345)")


def test_permutations_and_groups_are_immutable_values():
    a, b = Permutation.from_cycles("(12345)"), Permutation((1, 2, 3, 4, 0))
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != Permutation.identity()
    assert a != a.images and a.images != a
    g, h = group_from_cycles("(12345)", "(2354)"), group_from_cycles("(12345)", "(2354)")
    assert g == h and hash(g) == hash(h) and g is not h
    # the generators are part of the value, not only the element set
    assert g != group_from_cycles("(2354)", "(12345)")
    assert g != (g.generators, g.elements)
    comp = fixed_locus(standard_groups()["C4"])[0]
    for obj, attr in ((a, "images"), (g, "elements"), (g, "extra"), (comp, "basis")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
    assert a.images == (1, 2, 3, 4, 0) and g.order() == 20


def test_membership_uses_one_cached_element_set():
    gs = standard_groups()
    g20, d10 = gs["G20"], gs["D10"]
    assert all(p in g20 for p in g20.elements)
    outside = [p for p in S5.elements if p not in g20]
    assert len(outside) == 100
    assert set(outside).isdisjoint(g20.elements)
    assert Permutation.from_cycles("(2354)") in g20
    assert Permutation.from_cycles("(2354)") not in d10
    assert g20.element_set() is g20.element_set()
    assert g20.element_set() == frozenset(g20.elements)


def _order_by_powers(p: Permutation) -> int:
    """The order as the least n with p^n = e, by repeated multiplication."""
    n, power, e = 1, p, Permutation.identity(len(p.images))
    while power != e:
        power = power * p
        n += 1
    return n


def test_order_from_cycle_lengths_matches_repeated_multiplication():
    s5 = S5.elements
    assert len(s5) == 120
    for p in s5:
        assert p.order() == _order_by_powers(p)
    assert sorted({p.order() for p in s5}) == [1, 2, 3, 4, 5, 6]
    assert Permutation.from_cycles("(12)(345)").order() == 6


def test_closure_orders():
    assert group_from_cycles("(12345)", "(2354)").order() == 20
    assert group_from_cycles("(12345)", "(25)(34)").order() == 10
    assert subgroup_closure([]).order() == 1
    assert S5.order() == 120
    gs = standard_groups()
    assert set(gs) == {"C4", "D10", "G20"}
    assert all(gs["G20"].order() % h.order() == 0 for h in (gs["C4"], C5, gs["D10"]))


def test_subgroups_of_g20_by_order():
    g20 = standard_groups()["G20"]
    by4 = subgroups_of_order(g20, 4)
    assert len(by4) == 1 and len(by4[0]) == 5  # one conjugacy class of five C4s
    by5 = subgroups_of_order(g20, 5)
    assert len(by5) == 1 and len(by5[0]) == 1
    assert subgroups_of_order(g20, 3) == ()
    nonempty = [n for n in range(1, 21) if subgroups_of_order(g20, n)]
    assert nonempty == [1, 2, 4, 5, 10, 20]


def _all_pairs_subgroups(g: FiniteGroup, n: int) -> tuple:
    """The unpruned enumeration: close every candidate and every pair."""
    if n <= 0 or g.order() % n != 0:
        return ()
    found = {}
    candidates = [e for e in g.elements if n % e.order() == 0]
    if n == 1:
        found[frozenset([Permutation.identity()])] = subgroup_closure([])
    for a in candidates:
        h = subgroup_closure([a])
        if h.order() == n:
            found.setdefault(h.element_set(), h)
    for a, b in itertools.combinations(candidates, 2):
        h = subgroup_closure([a, b])
        if h.order() == n:
            found.setdefault(h.element_set(), h)
    classes = []
    assigned = set()
    for key in sorted(found, key=lambda k: sorted(p.sort_key() for p in k)):
        if key in assigned:
            continue
        cls = []
        for g_el in g.elements:
            conj = conjugate_subgroup(g_el, found[key])
            if conj.element_set() not in assigned:
                assigned.add(conj.element_set())
                cls.append(found.get(conj.element_set(), conj))
        classes.append(tuple(sorted(cls, key=lambda s: sorted(p.sort_key() for p in s.elements))))
    return tuple(classes)


def _s4_fixing_letter_5() -> FiniteGroup:
    return group_from_cycles("(1234)", "(12)")


@pytest.mark.parametrize("name", ["G20", "D10", "C4", "C5", "S4"])
def test_subgroups_of_order_matches_all_pairs_closure(name):
    if name == "S4":
        g = _s4_fixing_letter_5()
    elif name == "C5":
        g = C5
    else:
        g = standard_groups()[name]
    assert g.order() == {"G20": 20, "D10": 10, "C4": 4, "C5": 5, "S4": 24}[name]
    for n in range(1, g.order() + 1):
        if g.order() % n:
            continue
        got, expected = subgroups_of_order(g, n), _all_pairs_subgroups(g, n)
        assert [[(h.generators, h.elements) for h in cls] for cls in got] == \
            [[(h.generators, h.elements) for h in cls] for cls in expected]


def test_a_conjugate_missing_from_the_enumeration_raises(monkeypatch):
    # hide one of the three cyclic subgroups of order 4 in S4: the index
    # closure that would produce it returns the trivial group instead
    s4 = _s4_fixing_letter_5()
    hidden = frozenset(s4.elements.index(p) for p in group_from_cycles("(1324)").elements)
    real = groups.index_closure

    def hiding(mul, gens):
        h = real(mul, gens)
        return real(mul, []) if h == hidden else h

    monkeypatch.setattr(groups, "index_closure", hiding)
    enumerate_uncached = subgroups_of_order.__wrapped__
    assert len(enumerate_uncached(s4, 3)) == 1  # nothing hidden at order 3
    with pytest.raises(ConjugateNotFound):
        enumerate_uncached(s4, 4)


@pytest.mark.parametrize("g", [standard_groups()["G20"], standard_groups()["D10"],
                               _s4_fixing_letter_5()], ids=["G20", "D10", "S4"])
def test_the_cayley_table_agrees_with_permutation_products(g):
    mul, inv, _ = g._table
    elements = g.elements
    assert elements[0] == Permutation.identity()
    for i, a in enumerate(elements):
        assert elements[inv[i]] == a.inverse()
        for j, b in enumerate(elements):
            assert elements[mul[i][j]] == a * b
    assert g._table is g._table  # built once


def test_cyclic_subgroups_come_from_the_table():
    g20 = standard_groups()["G20"]
    for a, indices in zip(g20.elements, g20._table[2]):
        assert [g20.elements[k] for k in sorted(indices)] == list(subgroup_closure([a]).elements)


def test_subgroups_of_order_is_computed_once_and_immutable():
    g20 = standard_groups()["G20"]
    by4 = subgroups_of_order(g20, 4)
    assert subgroups_of_order(standard_groups()["G20"], 4) is by4
    assert isinstance(by4, tuple) and all(isinstance(cls, tuple) for cls in by4)


def test_orbit_and_stabilizer_examples():
    g20 = standard_groups()["G20"]
    p = ProjPoint.of([ZETA5 ** j for j in range(5)])
    orbit, stab = orbit_and_stabilizer(g20, p)
    assert len(orbit) == 4 and stab.order() == 5
    u1 = ProjPoint.of([0, -I_UNIT, -ONE, ONE, I_UNIT])
    orbit, stab = orbit_and_stabilizer(g20, u1)
    assert len(orbit) == 5 and stab.order() == 4
    generic = ProjPoint.of([1, 2, 3, 4, -10])
    orbit, stab = orbit_and_stabilizer(g20, generic)
    assert len(orbit) == 20 and stab.order() == 1


def test_orbit_stabilizer_product_on_random_points():
    g20 = standard_groups()["G20"]
    rnd = random.Random(17)
    for _ in range(20):
        coords = [rnd.randint(-3, 3) for _ in range(5)]
        if all(c == 0 for c in coords):
            coords[0] = 1
        orbit, stab = orbit_and_stabilizer(g20, ProjPoint.of(coords))
        assert len(orbit) * stab.order() == 20


def test_orbit_stabilizer_violation_raises(monkeypatch):
    # every non-identity element sends every point to one fixed point q:
    # an orbit of 2 with a trivial stabilizer in a group of order 20
    g20 = standard_groups()["G20"]
    ident = Permutation.identity()
    q = ProjPoint.of([1, -1, 0, 0, 0])
    monkeypatch.setattr(Permutation, "apply_point", lambda self, p: p if self == ident else q)
    with pytest.raises(OrbitStabilizerViolation):
        orbit_and_stabilizer(g20, ProjPoint.of([1, 2, 3, 4, -10]))


def test_classical_point_lists_come_out_verbatim():
    """Pins the index convention: letter j acts on x_{j-1}, new[p(j)] = old[j]."""
    g20 = standard_groups()["G20"]
    i = I_UNIT
    u_list = [
        [0, -i, -ONE, ONE, i], [i, 0, -i, -ONE, ONE], [ONE, i, 0, -i, -ONE],
        [-ONE, ONE, i, 0, -i], [-i, -ONE, ONE, i, 0],
    ]
    u_points = [ProjPoint.of(c) for c in u_list]
    orbit, _ = orbit_and_stabilizer(g20, u_points[0])
    assert sorted(orbit, key=ProjPoint.sort_key) == sorted(u_points, key=ProjPoint.sort_key)
    # the 5-cycle must shift U_1 to U_2 exactly
    five = Permutation.from_cycles("(12345)")
    assert five.apply_point(u_points[0]) == u_points[1]


def test_fixed_locus_of_the_order4_subgroup_is_r1_to_r4():
    c4 = standard_groups()["C4"]
    comps = fixed_locus(c4)
    assert len(comps) == 4
    assert all(c.projective_dimension == 0 for c in comps)
    points = sorted((c.point() for c in comps), key=ProjPoint.sort_key)
    i = I_UNIT
    expected = sorted(
        (ProjPoint.of(c) for c in (
            [0, -1, 1, 1, -1], [0, -i, -ONE, ONE, i], [0, i, -ONE, ONE, -i], [-4, 1, 1, 1, 1],
        )),
        key=ProjPoint.sort_key,
    )
    assert points == expected


def test_fixed_locus_d10_empty_and_trivial_group_full():
    gs = standard_groups()
    assert fixed_locus(gs["D10"]) == []
    comps = fixed_locus(subgroup_closure([]))
    assert len(comps) == 1
    assert comps[0].projective_dimension == 3
    assert comps[0].positive_dimensional


def test_fixed_locus_points_are_genuinely_fixed():
    for h in (standard_groups()["C4"], C5):
        for comp in fixed_locus(h):
            vectors = [list(v) for v in comp.basis]
            generic = [sum(col, ZERO) for col in zip(*vectors)]
            for v in vectors + [generic]:
                p = ProjPoint.of(v)
                for gen in h.generators:
                    assert gen.apply_point(p) == p


def test_conjugation_permutes_fixed_loci():
    gs = standard_groups()
    g20, c4 = gs["G20"], gs["C4"]
    base_points = {c.point() for c in fixed_locus(c4)}
    for el in g20.elements:
        conj = conjugate_subgroup(el, c4)
        conj_points = {c.point() for c in fixed_locus(conj)}
        assert conj_points == {el.apply_point(p) for p in base_points}


def test_intersect_spans():
    a = [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]]
    b = [[ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    meet = intersect_spans(a, b)
    assert len(meet) == 1
    assert meet[0][0].is_zero() and not meet[0][1].is_zero() and meet[0][2].is_zero()


def _components(comps) -> list[tuple]:
    return [(c.character, c.basis, c.projective_dimension, c.positive_dimensional)
            for c in comps]


def _every_subgroup(g: FiniteGroup) -> list[FiniteGroup]:
    return [h for n in range(1, g.order() + 1) for cls in subgroups_of_order(g, n) for h in cls]


def test_fixed_locus_equals_the_intersection_oracle():
    gs = standard_groups()
    subgroups = _every_subgroup(gs["G20"])
    assert len(subgroups) == 1 + 5 + 5 + 1 + 1 + 1  # every conjugate, orders 1, 2, 4, 5, 10, 20
    for h in subgroups + [C5, gs["D10"], gs["C4"], subgroup_closure([])]:
        assert _components(fixed_locus(h)) == _components(fixed_locus_by_intersection(h))


def test_fixed_locus_and_its_oracle_both_reject_cube_roots_of_unity():
    s4 = group_from_cycles("(123)", "(1234)")
    assert s4.order() == 24
    for locus in (fixed_locus, fixed_locus_by_intersection):
        with pytest.raises(UnsupportedEigenvalue):
            locus(s4)
    # subgroups of S4 generated without a 3-cycle give the oracle's components
    compared = 0
    for h in _every_subgroup(_s4_fixing_letter_5()):
        try:
            expected = _components(fixed_locus_by_intersection(h))
        except UnsupportedEigenvalue:
            with pytest.raises(UnsupportedEigenvalue):
                fixed_locus(h)
            continue
        assert _components(fixed_locus(h)) == expected
        compared += 1
    assert compared > 0


def test_orbit_and_stabilizer_equals_the_oracle_on_every_fixed_point_of_the_censuses():
    g20 = standard_groups()["G20"]
    points = [p for q in (20, 10, 5, 4) for _, components in census._fixed_point_orbits(g20, q)
              for _, p, _, _ in components if p is not None]
    assert len(points) == 8
    for p in points:
        assert orbit_and_stabilizer(g20, p) == orbit_and_stabilizer_by_images(g20, p)
