"""Property tests of the orbit-closure primitive against independent oracles.

subgroup_closure, which closes the identity under left products, is checked
against sympy's group order on random generator sets of the symmetric group
on 5 letters.  groups.closure itself is checked for its contract: act is
called once per (generator, element) pair, the seeds come first, and a key
that merges elements keeps the first element found.
The index closure on the Cayley table of the symmetric group is checked
against subgroup_closure on the same generators, fixed_locus against the
span-intersection oracle on the groups random generators give, and
orbit_and_stabilizer against the oracle that canonicalises every image.
"""

from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation as SympyPermutation, PermutationGroup

from dp5links.cyclo import FieldElement
from dp5links.groups import (
    Permutation,
    UnsupportedEigenvalue,
    closure,
    fixed_locus,
    group_from_cycles,
    index_closure,
    orbit_and_stabilizer,
    standard_groups,
    subgroup_closure,
)
from dp5links.projgeo import ProjPoint

from geometry_oracles import fixed_locus_by_intersection, orbit_and_stabilizer_by_images

checked = settings(deadline=timedelta(milliseconds=2000), max_examples=100)

permutations = st.permutations(range(5)).map(lambda images: Permutation(tuple(images)))
generator_sets = st.lists(permutations, max_size=3)

S5 = group_from_cycles("(12345)", "(12)")


def counting(act):
    """act, recording every result in call order."""
    results = []

    def wrapped(g, x):
        results.append(act(g, x))
        return results[-1]

    return wrapped, results


@checked
@given(generator_sets)
def test_subgroup_closure_has_the_oracle_order_and_is_closed(gens):
    # the oracle's elements form a group, so equal sets give equal orders and closure
    h = subgroup_closure(gens)
    oracle = PermutationGroup([SympyPermutation(list(g.images)) for g in gens]
                              or [SympyPermutation(list(range(5)))])
    assert {p.images for p in h.elements} == {tuple(q.array_form) for q in oracle.elements}
    members = h.element_set()
    assert len(members) == h.order()


@checked
@given(st.lists(permutations, min_size=1, max_size=4, unique=True), generator_sets)
def test_closure_acts_once_per_pair_and_lists_the_seeds_first(seeds, gens):
    act, results = counting(Permutation.__mul__)
    found = closure(seeds, gens, act)
    assert len(results) == len(found) * len(gens)
    assert list(found)[:len(seeds)] == seeds
    assert all(k is v for k, v in found.items())
    # closed: every image of a found element was found
    assert set(results) <= set(found)


@checked
@given(st.lists(permutations, min_size=1, max_size=4), generator_sets,
       st.integers(0, 4))
def test_a_merging_key_keeps_the_first_element_found(seeds, gens, letter):
    # elements with the same image of one letter share a key
    def key(p):
        return p.images[letter]

    act, results = counting(Permutation.__mul__)
    found = closure(seeds, gens, act, key=key)
    assert len(results) == len(found) * len(gens)
    first = {}
    for x in seeds + results:
        first.setdefault(key(x), x)
    assert found == first


@checked
@given(generator_sets)
def test_the_index_closure_has_the_elements_of_subgroup_closure(gens):
    indices = index_closure(S5._table[0], [S5.elements.index(g) for g in gens])
    assert [S5.elements[k] for k in sorted(indices)] == list(subgroup_closure(gens).elements)


def components_or_error(locus, h):
    try:
        return [(c.character, c.basis, c.projective_dimension) for c in locus(h)]
    except UnsupportedEigenvalue:
        return UnsupportedEigenvalue


@checked
@given(generator_sets)
def test_fixed_locus_equals_the_intersection_oracle(gens):
    # generators may repeat or be the identity, so restrictions of spaces of
    # every dimension are reached
    h = subgroup_closure(gens)
    assert components_or_error(fixed_locus, h) == \
        components_or_error(fixed_locus_by_intersection, h)


# coordinates from few values, so that points with repeated, zero and
# negated coordinates, and hence nontrivial stabilizers, are common
coordinates = st.lists(st.integers(-2, 2), min_size=8, max_size=8).map(FieldElement)
points = st.lists(st.sampled_from([0, 1, -1]) | coordinates, min_size=5, max_size=5).filter(
    lambda cs: any(cs)).map(ProjPoint.of)


@checked
@given(points, st.sampled_from(sorted(standard_groups())))
def test_orbit_and_stabilizer_equals_the_oracle_that_canonicalises_every_image(p, name):
    g = standard_groups()[name]
    orbit, stab = orbit_and_stabilizer(g, p)
    oracle_orbit, oracle_stab = orbit_and_stabilizer_by_images(g, p)
    assert orbit == oracle_orbit
    assert stab == oracle_stab
