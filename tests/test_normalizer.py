import itertools
import signal

import pytest

from dp5links.census import length4_orbit_points
from dp5links.cyclo import FieldElement, I_UNIT, ONE, ZERO
from dp5links.groups import Permutation, group_from_cycles, subgroup_closure
from dp5links.linalg import mat_mul
from dp5links import normalizer
from dp5links.normalizer import (
    CosetsNotAGroup,
    Intertwiner,
    IntertwiningFailure,
    NotOnHyperplane,
    WrongGroup,
    apply_on_hyperplane,
    assemble_normalizer,
    canonical_projective,
    characters_of_g20,
    intertwiner,
    involution_swaps_orbits,
    normalizer_classes,
    require_intertwining,
    restricted_representation,
)
from dp5links.projgeo import HomogeneousForm, ProjPoint, hyperplane_gram, membership, power_sum_form

from geometry_oracles import (
    apply_on_hyperplane_by_solve,
    hyperplane_gram_by_products,
    intertwiner_by_seed_average,
    normalizer_classes_by_closure,
    point_at,
    restricted_representation_by_elimination,
    seed_averages,
)


def test_characters_exist_and_take_fourth_roots_on_the_generator(g20):
    chars = characters_of_g20(g20)
    assert len(chars) == 4
    t = next(h for h in g20.elements if h.to_cycles() == "(2354)")
    values = sorted(str(c(t)) for c in chars)
    assert values == sorted(str(v) for v in (ONE, I_UNIT, -ONE, -I_UNIT))


def test_characters_are_multiplicative_and_kill_the_five_part(g20):
    chars = characters_of_g20(g20)
    for lam in chars:
        for a in g20.elements:
            if a.order() == 5:
                assert lam(a) == ONE
            for b in g20.elements:
                assert lam(a * b) == lam(a) * lam(b)
    assert sorted(c.order() for c in chars) == [1, 2, 4, 4]


def test_normalizer_values_are_immutable(g20, normalizer_result):
    lam = characters_of_g20(g20)[0]
    t = normalizer_result.intertwiners[0]
    for obj, attr in ((lam, "values"), (t, "matrix"), (normalizer_result, "order")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
    assert normalizer_result.order == 40


def test_wrong_group_rejected():
    with pytest.raises(WrongGroup):
        characters_of_g20(group_from_cycles("(12345)", "(12)"))
    with pytest.raises(WrongGroup):
        characters_of_g20(group_from_cycles("(12345)"))


def _alarm(signum, frame):
    raise TimeoutError("assemble_normalizer did not return")


@pytest.mark.parametrize("group", [
    group_from_cycles("(12345)", "(12)"),
    group_from_cycles("(12345)"),
    group_from_cycles("(2354)"),
], ids=["S5", "C5", "C4"])
def test_assemble_normalizer_rejects_a_wrong_group_promptly(group):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(10)
    try:
        with pytest.raises(WrongGroup):
            assemble_normalizer(group)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_an_order_20_group_without_an_element_of_order_4_is_rejected():
    # D5 x C2 on seven letters: (12345)(67) has order 10, and no element order 4
    d5_c2 = subgroup_closure([Permutation.from_cycles("(12345)(67)", 7),
                              Permutation.from_cycles("(25)(34)", 7)], n=7)
    assert d5_c2.order() == 20
    with pytest.raises(WrongGroup, match="order 4"):
        characters_of_g20(d5_c2)


def test_representation_is_a_homomorphism(g20):
    rep = restricted_representation(g20)
    sample = list(g20.elements)[:6]
    for a in sample:
        for b in sample:
            assert mat_mul(rep[a], rep[b]) == rep[a * b]


def test_intertwiners_for_all_four_characters(g20):
    rep = restricted_representation(g20)
    chars = characters_of_g20(g20)
    by_order = {}
    for lam in chars:
        t = intertwiner(lam, rep, g20)
        assert t is not None
        assert t.invertible
        by_order.setdefault(lam.order(), []).append(t)
    # trivial character: projectively the identity (Schur)
    trivial = by_order[1][0]
    ident = [[ONE if i == j else ZERO for j in range(4)] for i in range(4)]
    assert canonical_projective(trivial.matrix) == canonical_projective(ident)
    # order-2 character: T^2 scalar, preserves the quadratic form
    invol = by_order[2][0]
    assert invol.quadric_preserving
    square = mat_mul(invol.matrix, invol.matrix)
    scalar = square[0][0]
    assert not scalar.is_zero()
    for i in range(4):
        for j in range(4):
            assert square[i][j] == (scalar if i == j else ZERO)
    # order-4 characters: intertwiners exist but do not preserve the quadric
    for t in by_order[4]:
        assert not t.quadric_preserving
        assert not t.square_in_group


def test_intertwining_identity_holds_for_every_element(g20):
    rep = restricted_representation(g20)
    lam = [c for c in characters_of_g20(g20) if c.order() == 2][0]
    t = intertwiner(lam, rep, g20).matrix
    for h in g20.elements:
        lhs = mat_mul(t, rep[h])
        rhs = [[lam(h) * x for x in row] for row in mat_mul(rep[h], t)]
        assert lhs == rhs


def _intertwines(t, lam, rep, hs) -> bool:
    try:
        require_intertwining(t, lam, rep, hs)
    except IntertwiningFailure:
        return False
    return True


def test_intertwining_on_generators_agrees_with_all_elements(g20):
    rep = restricted_representation(g20)
    chars = characters_of_g20(g20)
    tws = [intertwiner(lam, rep, g20).matrix for lam in chars]
    units = [[[ONE if (i, j) == (r, c) else ZERO for j in range(4)] for i in range(4)]
             for r, c in itertools.product(range(4), repeat=2)]
    candidates = tws + [rep[h] for h in g20.elements] + units
    for k, lam in enumerate(chars):
        verdicts = [_intertwines(t, lam, rep, g20.elements) for t in candidates]
        assert verdicts == [_intertwines(t, lam, rep, g20.generators) for t in candidates]
        # each character's own intertwiner passes and none of the others does
        assert verdicts[:4] == [j == k for j in range(4)]
        assert not all(verdicts[4:])


def test_a_matrix_intertwining_only_the_first_generator_is_refused(g20):
    rep = restricted_representation(g20)
    trivial = next(c for c in characters_of_g20(g20) if c.order() == 1)
    a, b = g20.generators
    assert (a.to_cycles(), b.to_cycles()) == ("(12345)", "(2354)")
    # rho(a) commutes with itself but not with rho(b): G20 is not abelian
    require_intertwining(rep[a], trivial, rep, [a])
    with pytest.raises(IntertwiningFailure, match=r"\(2354\)"):
        require_intertwining(rep[a], trivial, rep, g20.generators)


def test_each_intertwiner_is_checked_at_the_two_generators(g20, monkeypatch):
    rep = restricted_representation(g20)
    real_check, real_mul = normalizer.require_intertwining, normalizer.mat_mul
    checks = []

    def spy(t, lam, rep_, hs):
        products = []
        monkeypatch.setattr(normalizer, "mat_mul",
                            lambda a, b: products.append(1) or real_mul(a, b))
        real_check(t, lam, rep_, hs)
        monkeypatch.setattr(normalizer, "mat_mul", real_mul)
        checks.append((lam.label, tuple(hs), len(products)))

    monkeypatch.setattr(normalizer, "require_intertwining", spy)
    chars = characters_of_g20(g20)
    for lam in chars:
        intertwiner(lam, rep, g20)
    assert checks == [(lam.label, g20.generators, 4) for lam in chars]


def test_intertwiner_unique_up_to_scalar(g20):
    """Every nonzero seed average is a scalar multiple of the intertwiner."""
    rep = restricted_representation(g20)
    for lam in characters_of_g20(g20):
        key = canonical_projective(intertwiner(lam, rep, g20).matrix)
        averages = [m for _, m in seed_averages(lam, rep, g20)
                    if any(not x.is_zero() for row in m for x in row)]
        assert len(averages) >= 2
        assert all(canonical_projective(m) == key for m in averages)


def test_outer_product_average_equals_conjugated_seed_average(g20):
    """The intertwiner is the first nonzero average of rho(h) E_rc rho(h^-1),
    which the oracle takes as an average of outer products."""
    rep = restricted_representation(g20)
    inverses = {h: rep[h.inverse()] for h in g20.elements}
    for lam in characters_of_g20(g20):
        (r, c), first = next((rc, m) for rc, m in seed_averages(lam, rep, g20)
                             if any(not x.is_zero() for row in m for x in row))
        seed = [[ONE if (i, j) == (r, c) else ZERO for j in range(4)] for i in range(4)]
        total = [[ZERO] * 4 for _ in range(4)]
        for h in g20.elements:
            term = mat_mul(mat_mul(rep[h], seed), inverses[h])
            for i in range(4):
                for j in range(4):
                    total[i][j] = total[i][j] + lam(h) * term[i][j]
        assert first == total == intertwiner_by_seed_average(lam, rep, g20)
        assert intertwiner(lam, rep, g20).matrix == total


def test_restricted_representation_matches_the_elimination_on_all_20_elements(g20):
    rep = restricted_representation(g20)
    assert rep == restricted_representation_by_elimination(g20)
    assert list(rep) == list(g20.elements)


def test_apply_on_hyperplane_matches_the_solve_on_the_census_points(
        g20, normalizer_result, clebsch_census, quadric_census):
    points = [p for census in (clebsch_census, quadric_census)
              for orbits in census.orbits_by_length.values() for orbit in orbits for p in orbit]
    assert len(points) == 33
    rep = restricted_representation(g20)
    matrices = [normalizer_result.involution] + [rep[h] for h in g20.generators]
    for m, p in itertools.product(matrices, points):
        assert apply_on_hyperplane(m, p) == apply_on_hyperplane_by_solve(m, p)
    off = ProjPoint.of([ONE, ZERO, ZERO, ZERO, ZERO])
    assert apply_on_hyperplane_by_solve(normalizer_result.involution, off) is None
    with pytest.raises(NotOnHyperplane):
        apply_on_hyperplane(normalizer_result.involution, off)


def test_intertwining_failure_raises(g20, monkeypatch):
    # a product that adds 1 to every entry breaks T rho(h) = -rho(h) T
    rep = restricted_representation(g20)
    lam = [c for c in characters_of_g20(g20) if c.order() == 2][0]
    real = normalizer.mat_mul
    monkeypatch.setattr(normalizer, "mat_mul",
                        lambda a, b: [[x + ONE for x in row] for row in real(a, b)])
    with pytest.raises(IntertwiningFailure):
        intertwiner(lam, rep, g20)
    assert issubclass(IntertwiningFailure, ArithmeticError)


def test_assembled_normalizer_order_and_structure(normalizer_result):
    res = normalizer_result
    assert res.order == 40
    assert res.order % 20 == 0
    assert res.structure["represented_group_classes"] == 20
    assert res.structure["index"] == 2
    assert res.structure["quadric_preserving_characters"] == ["chi0", "chi2"]
    assert res.structure["central_involution"]
    assert res.structure["direct_product_c2_x_g20"]


def test_involution_swaps_the_two_length5_orbits(normalizer_result, quadric_census):
    k1, k2 = quadric_census.orbits_by_length[5]
    assert involution_swaps_orbits(normalizer_result, list(k1), list(k2))
    assert involution_swaps_orbits(normalizer_result, list(k2), list(k1))
    assert not involution_swaps_orbits(normalizer_result, list(k1), list(k1))


def test_involution_is_not_a_represented_element(normalizer_result, g20):
    rep = restricted_representation(g20)
    group_classes = {canonical_projective(rep[h]) for h in g20.elements}
    assert canonical_projective(normalizer_result.involution) not in group_classes


def test_involution_search_on_generators_agrees_with_all_elements(normalizer_result, g20):
    rep = restricted_representation(g20)
    group_classes = {canonical_projective(rep[h]) for h in g20.elements}
    ident = [[ONE if i == j else ZERO for j in range(4)] for i in range(4)]
    ident_key = canonical_projective(ident)
    elements = {ident_key: ident}
    boundary = [ident]
    while boundary:
        new_boundary = []
        for gen in normalizer_result.generator_matrices:
            for b in boundary:
                p = mat_mul(gen, b)
                key = canonical_projective(p)
                if key not in elements:
                    elements[key] = p
                    new_boundary.append(p)
        boundary = new_boundary
    assert len(elements) == 40

    def central(m, hs):
        return all(canonical_projective(mat_mul(m, rep[h]))
                   == canonical_projective(mat_mul(rep[h], m)) for h in hs)

    involutions = [key for key, m in sorted(elements.items())
                   if key not in group_classes
                   and canonical_projective(mat_mul(m, m)) == ident_key]
    for key in involutions:
        assert central(elements[key], g20.generators) == central(elements[key], g20.elements)
    # the oracle: the first candidate, in sorted order, central against every element
    oracle = next(key for key in involutions if central(elements[key], g20.elements))
    assert canonical_projective(normalizer_result.involution) == oracle


def test_involution_preserves_the_quadric_pointwise_sample(
        normalizer_result, quadric, quadric_census):
    m = normalizer_result.involution
    samples = [p for orbits in quadric_census.orbits_by_length.values()
               for orbit in orbits for p in orbit]
    # extend the sample to 20 quadric points using the rulings
    pts = length4_orbit_points()
    from dp5links.projgeo import line_through
    for i, j in itertools.combinations(range(4), 2):
        line = line_through(pts[i], pts[j])
        if len(samples) >= 20:
            break
        from dp5links.projgeo import line_in_surface
        if line_in_surface(line, quadric.form):
            for s, t in [(ONE, rational_two()), (ONE, -rational_two()), (rational_two(), ONE)]:
                candidate = point_at(line, s, t)
                if candidate not in samples:
                    samples.append(candidate)
    assert len(samples) >= 20
    for p in samples[:20]:
        assert membership(p, [quadric.hyperplane, quadric.form])
        image = apply_on_hyperplane(m, p)
        assert membership(image, [quadric.hyperplane, quadric.form])


def rational_two():
    return FieldElement([2])


def test_quadratic_gram_is_the_a4_form():
    gram = hyperplane_gram(power_sum_form(5, 2))
    expected = [
        [2, -1, 0, 0],
        [-1, 2, -1, 0],
        [0, -1, 2, -1],
        [0, 0, -1, 2],
    ]
    for i in range(4):
        for j in range(4):
            assert gram[i][j] == FieldElement([expected[i][j]])


def test_hyperplane_gram_matches_the_basis_products():
    # sum x_i^2, and a form with cross terms and a non-rational coefficient
    mixed = HomogeneousForm.of(5, 2, {(2, 0, 0, 0, 0): ONE, (1, 1, 0, 0, 0): I_UNIT,
                                      (0, 0, 1, 0, 1): FieldElement([3]), (0, 0, 0, 2, 0): -ONE})
    for form in (power_sum_form(5, 2), mixed):
        assert hyperplane_gram(form) == hyperplane_gram_by_products(form)


def _coset_inputs(g20):
    """The arguments of normalizer_classes, and the intertwiner of each character."""
    rep = restricted_representation(g20)
    group_classes = normalizer._group_tables(rep, g20)[1]
    chars = {lam.label: lam for lam in characters_of_g20(g20)}
    tws = {label: intertwiner(lam, rep, g20).matrix for label, lam in chars.items()}
    return rep, group_classes, chars, tws


def test_the_cosets_are_the_classes_of_the_closure(g20, normalizer_result):
    rep, group_classes, chars, tws = _coset_inputs(g20)
    listed = normalizer_classes(g20, rep, group_classes,
                                [(chars[k], tws[k]) for k in ("chi0", "chi2")])
    oracle = normalizer_classes_by_closure(normalizer_result)
    assert len(listed) == 40 and sorted(listed) == sorted(oracle)
    # both keep the chi2 intertwiner itself for its class, and it is the involution
    key = canonical_projective(tws["chi2"])
    assert listed[key] == oracle[key] == tws["chi2"] == normalizer_result.involution


@pytest.mark.parametrize("preserving, message", [
    # T_chi1^2 is T_chi2 up to scalar, outside rho(G20) and T_chi1 rho(G20)
    ((("chi0", "chi0"), ("chi2", "chi1")), "T_chi2 T_chi2 lies outside"),
    # chi1^2 = chi2 is not among the characters
    ((("chi0", "chi0"), ("chi1", "chi1")), "chi1 chi1 is not a preserving character"),
    # a scalar in place of T_chi2: its coset is rho(G20) again, so one coset is missing
    ((("chi0", "chi0"), ("chi2", "chi0")), "2 cosets give 20 classes"),
])
def test_a_seeded_defect_in_the_cosets_raises(g20, preserving, message):
    rep, group_classes, chars, tws = _coset_inputs(g20)
    with pytest.raises(CosetsNotAGroup, match=message):
        normalizer_classes(g20, rep, group_classes,
                           [(chars[lam], tws[t]) for lam, t in preserving])


def test_a_quadric_preserving_chi1_intertwiner_is_refused(g20, monkeypatch):
    # with T_chi1 declared quadric-preserving, the characters chi0, chi1 and chi2
    # are not closed: chi1 chi2 = chi3
    real = normalizer.intertwiner

    def chi1_preserves(lam, rep, g, tables=None):
        t = real(lam, rep, g, tables)
        if lam.label != "chi1":
            return t
        return Intertwiner(t.character, t.matrix, t.invertible, True, t.square_in_group)

    monkeypatch.setattr(normalizer, "intertwiner", chi1_preserves)
    with pytest.raises(CosetsNotAGroup, match="chi1 chi2 is not a preserving character"):
        assemble_normalizer(g20)


def test_closure_skips_the_scalar_generator(g20, monkeypatch):
    # the trivial character's intertwiner is 5 I, projectively the identity:
    # it stays a serialised generator, and its coset is the represented group,
    # listed with no products.  66 products per normalizer: 28 for the four
    # intertwiners (the gram is written entrywise), 20 for the coset of T_chi2,
    # 4 for the products of the two intertwiners and 14 for the involution search
    real = normalizer.mat_mul
    calls = []
    monkeypatch.setattr(normalizer, "mat_mul", lambda a, b: calls.append(1) or real(a, b))
    res = assemble_normalizer(g20)
    assert len(calls) == 66
    scalar = [[FieldElement([5 * (i == j)]) for j in range(4)] for i in range(4)]
    assert res.generator_matrices[2] == scalar
    assert len(res.generator_matrices) == 4 and res.order == 40


def test_closure_canonicalises_each_product_once(g20, monkeypatch):
    # 20 keys of the represented group, 4 squares of intertwiners, the identity
    # twice, one test per preserving intertwiner for a scalar, 20 keys of the
    # coset of T_chi2, 4 of the products of the two intertwiners and 14 in the
    # involution search
    real = normalizer.canonical_projective
    calls = []
    monkeypatch.setattr(normalizer, "canonical_projective",
                        lambda m: calls.append(1) or real(m))
    assert assemble_normalizer(g20).order == 40
    assert len(calls) == 66


def test_normalizer_serialization(normalizer_result):
    data = normalizer_result.serialize()
    assert data["order"] == 40
    assert len(data["hyperplane_basis"]) == 5
    assert len(data["involution"]) == 4
    assert all(len(row) == 4 for row in data["involution"])
    assert len(data["intertwiners"]) == 4
