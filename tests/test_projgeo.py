import itertools
import random
from fractions import Fraction

import pytest

from dp5links.cyclo import I_UNIT, ONE, ZERO, ZETA5, rational
from dp5links.linalg import kernel_basis, rank
from dp5links.projgeo import (
    CoincidentPoints,
    FactorizationFailure,
    HomogeneousForm,
    ProjLine,
    ProjPoint,
    SkewLines,
    line_in_surface,
    line_through,
    membership,
    power_sum_form,
    residual_line,
)

from geometry_oracles import (
    coeff_map,
    divide_by_linear,
    is_zero_form,
    linear_form_in_plane,
    plane_of,
    point_at,
    poly_mul,
    pullback,
    residual_line_by_division,
    restrict_to_line,
    restrict_to_plane,
)

HYPER = power_sum_form(5, 1)
CUBIC = power_sum_form(5, 3)
QUADRIC = power_sum_form(5, 2)


def eigenpoint(a):
    return ProjPoint.of([ZETA5 ** ((a * j) % 5) for j in range(5)])


def coordinate_line(p1, p2):
    v1 = [ZERO] * 5
    v1[p1[0]], v1[p1[1]] = ONE, -ONE
    v2 = [ZERO] * 5
    v2[p2[0]], v2[p2[1]] = ONE, -ONE
    return ProjLine.span(v1, v2)


def test_membership_examples():
    assert membership(eigenpoint(1), [HYPER, CUBIC])
    assert not membership(ProjPoint.of([-4, 1, 1, 1, 1]), [HYPER, CUBIC])
    v1 = ProjPoint.of([0, -1, 1, 1, -1])
    assert not membership(v1, [HYPER, QUADRIC])
    assert QUADRIC.evaluate(v1.coords) == rational(4)


def test_point_normalization_is_idempotent_and_canonical():
    rnd = random.Random(2)
    for _ in range(50):
        coords = [rational(Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))) for _ in range(5)]
        if all(c.is_zero() for c in coords):
            coords[2] = ONE
        p = ProjPoint.of(coords)
        again = ProjPoint.of(list(p.coords))
        assert p == again
        lead = next(c for c in p.coords if not c.is_zero())
        assert lead == ONE
        scaled = ProjPoint.of([c * rational(Fraction(3, 7)) for c in coords])
        assert scaled == p
    with pytest.raises(ValueError):
        ProjPoint.of([0, 0, 0, 0, 0])


def test_line_through_is_symmetric_and_rejects_coincident():
    u1 = ProjPoint.of([0, -I_UNIT, -ONE, ONE, I_UNIT])
    w1 = ProjPoint.of([0, I_UNIT, -ONE, ONE, -I_UNIT])
    l1 = coordinate_line((1, 4), (2, 3))
    assert line_through(u1, w1) == l1
    assert line_through(w1, u1) == l1
    with pytest.raises(CoincidentPoints):
        line_through(u1, u1)


def test_line_in_surface_examples():
    l1 = coordinate_line((1, 4), (2, 3))
    assert line_in_surface(l1, CUBIC)
    assert line_in_surface(l1, HYPER)
    assert not line_in_surface(l1, QUADRIC)
    restricted = restrict_to_line(QUADRIC, l1)
    assert not is_zero_form(restricted)
    assert restricted.degree == 2


def test_pair_lines_of_the_length4_orbit_split_two_and_four():
    # the cubic carries the two lines joining inverse exponent patterns; the
    # other four pair lines are rulings of the quadric
    on_cubic, on_quadric = [], []
    pts = [eigenpoint(a) for a in (1, 2, 3, 4)]
    for i, j in itertools.combinations(range(4), 2):
        line = line_through(pts[i], pts[j])
        if line_in_surface(line, CUBIC):
            on_cubic.append((i + 1, j + 1))
        if line_in_surface(line, QUADRIC):
            on_quadric.append((i + 1, j + 1))
    assert on_cubic == [(1, 4), (2, 3)]
    assert on_quadric == [(1, 2), (1, 3), (2, 4), (3, 4)]


def test_certified_lines_contain_their_sampled_points():
    l1 = coordinate_line((1, 4), (2, 3))
    params = [(ONE, ZERO), (ZERO, ONE), (ONE, ONE), (ONE, -ONE), (ONE, ZETA5)]
    for s, t in params:
        p = point_at(l1, s, t)
        assert membership(p, [HYPER, CUBIC])
        assert l1.contains(p)


def test_residual_of_two_coordinate_lines():
    a = coordinate_line((0, 1), (3, 4))
    b = coordinate_line((0, 1), (2, 3))
    r = residual_line(CUBIC, a, b)
    assert r == coordinate_line((0, 1), (2, 4))
    assert line_in_surface(r, CUBIC)


def test_residual_output_is_always_on_surface_and_coplanar():
    pts = [eigenpoint(a) for a in (1, 2, 3, 4)]
    e1 = line_through(pts[0], pts[3])
    l1 = coordinate_line((1, 4), (2, 3))
    r = residual_line(CUBIC, e1, l1)
    assert line_in_surface(r, CUBIC) and line_in_surface(r, HYPER)
    stacked = [list(v) for v in e1.basis] + [list(v) for v in l1.basis] + [list(v) for v in r.basis]
    assert rank(stacked) == 3  # all three lines in one plane


def test_plane_section_is_exactly_the_product_of_three_linear_factors():
    """The restricted cubic equals alpha*beta*gamma with no scalar slack left over."""
    pts = [eigenpoint(a) for a in (1, 2, 3, 4)]
    e1 = line_through(pts[0], pts[3])
    l1 = coordinate_line((1, 4), (2, 3))
    r = residual_line(CUBIC, e1, l1)
    plane = plane_of(e1, l1)
    ternary = coeff_map(restrict_to_plane(CUBIC, plane))
    product = {(0, 0, 0): ONE}
    for line in (e1, l1, r):
        product = poly_mul(product, linear_form_in_plane(line, plane))
    mono = next(iter(ternary))
    scale = ternary[mono] / product[mono]
    assert not scale.is_zero()
    assert {m: c * scale for m, c in product.items()} == ternary


def test_residual_matches_division_on_every_meeting_pair(cfg):
    """All 135 meeting pairs of the 27 lines against the division oracle."""
    pairs = [(a, b) for a, b in itertools.combinations(cfg.lines, 2) if a.meets(b)]
    assert len(pairs) == 135
    branches, eckardt = set(), 0
    for a, b in pairs:
        r = residual_line(CUBIC, a, b)
        assert r == residual_line_by_division(CUBIC, a, b)
        p, q, u, v = meeting_coefficients(a, b)
        branches.add((q.is_zero(), v.is_zero()))
        x = ProjPoint.of([p * c0 + q * c1 for c0, c1 in zip(*a.basis)])
        eckardt += r.contains(x)
    # both choices of the second point on each line occur
    assert {q for q, _ in branches} == {True, False} == {v for _, v in branches}
    # 10 Eckardt planes, where the three lines are concurrent, each from 3 pairs
    assert eckardt == 30


def meeting_coefficients(a, b):
    """(p, q, u, v) with p a0 + q a1 = u b0 + v b1, the meeting point."""
    (a0, a1), (b0, b1) = a.basis, b.basis
    ker = kernel_basis([[p, q, -u, -v] for p, q, u, v in zip(a0, a1, b0, b1)])
    assert len(ker) == 1
    return ker[0]


def test_residual_of_a_plane_on_the_surface_raises_factorization_failure():
    # x0 x1 x2 vanishes on the whole plane {x0 = 0} of the hyperplane
    form = HomogeneousForm.of(5, 3, {(1, 1, 1, 0, 0): ONE})
    a = coordinate_line((1, 2), (3, 4))
    b = coordinate_line((1, 2), (2, 3))
    assert line_in_surface(a, form) and line_in_surface(b, form)
    with pytest.raises(FactorizationFailure):
        residual_line(form, a, b)


def test_residual_rejects_skew_lines():
    pts = [eigenpoint(a) for a in (1, 2, 3, 4)]
    e1 = line_through(pts[0], pts[3])
    e2 = line_through(pts[1], pts[2])
    with pytest.raises(SkewLines):
        residual_line(CUBIC, e1, e2)


@pytest.mark.parametrize("rows", [1])
def test_residual_with_degenerate_kernel_raises_factorization_failure(monkeypatch, rows):
    # the kernel of the residual linear form in plane coordinates
    import dp5links.projgeo as projgeo

    real = projgeo.kernel_basis
    monkeypatch.setattr(projgeo, "kernel_basis", lambda m: [] if len(m) == rows else real(m))
    a = coordinate_line((0, 1), (3, 4))
    b = coordinate_line((0, 1), (2, 3))
    with pytest.raises(FactorizationFailure):
        residual_line(CUBIC, a, b)


def test_divide_by_linear_detects_remainders():
    # (u + v) divides u^2 - v^2 but not u^2 + v^2
    u2_minus_v2 = {(2, 0): ONE, (0, 2): -ONE}
    alpha = {(1, 0): ONE, (0, 1): ONE}
    quotient = divide_by_linear(u2_minus_v2, alpha, 2)
    assert quotient == {(1, 0): ONE, (0, 1): -ONE}
    with pytest.raises(FactorizationFailure):
        divide_by_linear({(2, 0): ONE, (0, 2): ONE}, alpha, 2)


def test_homogeneous_form_validation_and_round_trip():
    with pytest.raises(ValueError):
        HomogeneousForm.of(3, 2, {(1, 0, 0): ONE})
    f = HomogeneousForm.of(2, 3, {(3, 0): ONE, (1, 2): -ONE, (0, 3): ZERO})
    assert len(f.coeffs) == 2  # zero coefficients dropped
    data = f.serialize()
    back = HomogeneousForm.deserialize(2, 3, data)
    assert back == f and hash(back) == hash(f) and back is not f


def test_pullback_degree_and_values_agree():
    m = [[ONE, ZERO], [ZERO, ONE], [ONE, ONE], [-ONE, ZERO], [-ONE, -rational(2)]]
    f = pullback(CUBIC, m)
    assert f.nvars == 2 and f.degree == 3
    for s, t in [(ONE, ZERO), (ONE, ONE), (rational(2), -ONE)]:
        point5 = [row[0] * s + row[1] * t for row in m]
        assert f.evaluate([s, t]) == CUBIC.evaluate(point5)


def test_line_and_point_serialization_round_trip():
    p = ProjPoint.of([0, -I_UNIT, -ONE, ONE, I_UNIT])
    back = ProjPoint.deserialize(p.serialize())
    assert back == p and hash(back) == hash(p) and back is not p
    l = coordinate_line((1, 4), (2, 3))
    back = ProjLine.deserialize(l.serialize())
    assert back == l and hash(back) == hash(l) and back is not l


def test_points_lines_and_forms_are_immutable_values():
    p = ProjPoint.of([1, 2, 3, 4, -10])
    l = coordinate_line((1, 4), (2, 3))
    assert p != ProjPoint.of([1, 2, 3, -10, 4]) and l != coordinate_line((1, 3), (2, 4))
    assert p != p.coords and l != l.basis and p != ProjLine((p.coords, p.coords))
    assert CUBIC != CUBIC.coeffs and CUBIC != QUADRIC
    for obj, attr in ((p, "coords"), (l, "basis"), (CUBIC, "degree")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
    assert CUBIC.degree == 3
