"""Property tests of line_in_surface against the restriction oracle.

line_in_surface decides whether a form vanishes along a line by evaluating
it at d + 1 points of the line; restrict_to_line expands the restricted
binary form symbolically.  The two must agree on every form and line.
Point and line sort keys must order as the Fraction coefficients do.
"""

from datetime import timedelta
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dp5links.cyclo import DEGREE, FieldElement, ONE, ZERO, rational
from dp5links.linalg import kernel_basis
from dp5links.projgeo import HomogeneousForm, ProjLine, ProjPoint, line_in_surface

from geometry_oracles import coeff_map, is_zero_form, poly_add, poly_mul, restrict_to_line

NVARS = 5

coefficient = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
scalars = st.dictionaries(st.integers(0, DEGREE - 1), coefficient, max_size=2).map(
    lambda terms: FieldElement([terms.get(k, 0) for k in range(DEGREE)]))
vectors = st.lists(scalars, min_size=NVARS, max_size=NVARS)


@st.composite
def lines(draw):
    v1, v2 = draw(vectors), draw(vectors)
    try:
        return ProjLine.span(v1, v2)
    except ValueError:
        assume(False)


def monomials(degree):
    if degree == 0:
        return [(0,) * NVARS]
    out = set()
    for m in monomials(degree - 1):
        for i in range(NVARS):
            out.add(tuple(e + (k == i) for k, e in enumerate(m)))
    return sorted(out)


def forms(degree, max_terms=5):
    return st.dictionaries(st.sampled_from(monomials(degree)), scalars,
                           max_size=max_terms).map(
        lambda terms: HomogeneousForm.of(NVARS, degree, terms))


def vanishing_on(line, degree, cofactors):
    """sum l_i g_i, where l_1, l_2, l_3 are linear forms cutting out the line."""
    cut = kernel_basis([list(line.basis[0]), list(line.basis[1])])
    total = {}
    for l, g in zip(cut, cofactors):
        lin = {tuple(int(k == i) for k in range(NVARS)): c
               for i, c in enumerate(l) if not c.is_zero()}
        total = poly_add(total, poly_mul(lin, coeff_map(g)))
    return HomogeneousForm.of(NVARS, degree, total)


checked = settings(deadline=timedelta(milliseconds=2000), max_examples=100)


@checked
@given(st.integers(1, 3).flatmap(forms), lines())
def test_line_in_surface_matches_restriction_on_random_forms(form, line):
    assert line_in_surface(line, form) == is_zero_form(restrict_to_line(form, line))


@checked
@given(st.integers(1, 3).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(forms(d - 1, 3), min_size=3, max_size=3))),
    lines())
def test_line_in_surface_on_lines_placed_on_the_surface(degree_and_cofactors, line):
    degree, cofactors = degree_and_cofactors
    on = vanishing_on(line, degree, cofactors)
    assert line_in_surface(line, on)
    assert is_zero_form(restrict_to_line(on, line))
    # adding x0^d moves the form off the line unless x0 vanishes on it
    bump = HomogeneousForm.of(NVARS, degree, poly_add(
        coeff_map(on), {(degree,) + (0,) * (NVARS - 1): ONE}))
    assert line_in_surface(line, bump) == is_zero_form(restrict_to_line(bump, line))


def test_the_last_evaluation_point_is_needed():
    # x0 x1 (x1 - x0) restricts to s t (t - s) on the line x2 = x3 = x4 = 0:
    # zero at (0 : 1), (1 : 0) and (1 : 1), but not at (1 : 2)
    unit = [[ONE if i == j else ZERO for j in range(NVARS)] for i in range(2)]
    line = ProjLine.span(unit[0], unit[1])
    form = HomogeneousForm.of(NVARS, 3, {(1, 2, 0, 0, 0): ONE, (2, 1, 0, 0, 0): -ONE})
    assert not line_in_surface(line, form)
    assert not is_zero_form(restrict_to_line(form, line))


# few values, so that equal numerators over different denominators are common
near = st.sampled_from([rational(q) * z for q in (0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))
                        for z in (ONE, FieldElement([0, 1]))])
mixed_vectors = st.lists(st.one_of(near, scalars), min_size=NVARS, max_size=NVARS)


def fraction_key(rows):
    return tuple(tuple(tuple(c.coeffs) for c in row) for row in rows)


@checked
@given(mixed_vectors, mixed_vectors, mixed_vectors, mixed_vectors)
def test_sort_keys_order_as_the_fraction_coefficients(v1, v2, v3, v4):
    assume(any(v1) and any(v2))
    p, q = ProjPoint.of(v1), ProjPoint.of(v2)
    assert (p.sort_key() < q.sort_key()) == (fraction_key([p.coords]) < fraction_key([q.coords]))
    assert (p.sort_key() == q.sort_key()) == (p == q)
    try:
        a, b = ProjLine.span(v1, v2), ProjLine.span(v3, v4)
    except ValueError:
        return
    assert (a.sort_key() < b.sort_key()) == (fraction_key(a.basis) < fraction_key(b.basis))
    assert (a.sort_key() == b.sort_key()) == (a == b)
