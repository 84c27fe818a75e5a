import gc
import itertools
import time
import weakref

import pytest
import sympy

from dp5links import census, projgeo
from dp5links.census import (
    ActionNotClosed,
    DuplicatePoints,
    EnumerationIncomplete,
    LineConfiguration,
    NormNotConstant,
    PositiveDimensionalFixedLocus,
    Surface,
    UnsupportedShape,
    general_position_on_quadric,
    induced_line_permutation,
    length4_orbit_points,
    line_orbits,
    lines27,
    orbit_census,
    smoothness_check,
)
from dp5links.cyclo import I_UNIT, ONE, rational
from dp5links.groups import (
    Permutation,
    UnsupportedEigenvalue,
    fixed_locus,
    group_from_cycles,
    orbit_and_stabilizer,
    subgroup_closure,
    subgroups_of_order,
)
from dp5links.normalizer import WrongGroup, assemble_normalizer
from dp5links.picard import invariant_rank, reconstruct_picard
from dp5links.projgeo import (
    HomogeneousForm,
    ProjLine,
    ProjPoint,
    line_in_surface,
    line_through,
    membership,
    power_sum_form,
)

import geometry_oracles
from geometry_oracles import lines27_by_residuation


def test_clebsch_census_lengths(clebsch_census):
    lengths = {r: len(v) for r, v in clebsch_census.orbits_by_length.items()}
    assert lengths == {4: 1, 5: 3}


def test_quadric_census_lengths(quadric_census):
    lengths = {r: len(v) for r, v in quadric_census.orbits_by_length.items()}
    assert lengths == {4: 1, 5: 2}


def test_census_with_low_bound_is_empty(clebsch, g20):
    assert orbit_census(clebsch, g20, 4).orbits_by_length == {}


def test_census_rejects_bound_above_group_order(clebsch, g20):
    with pytest.raises(ValueError):
        orbit_census(clebsch, g20, 21)


def test_census_positive_dimensional_guard(clebsch, g20):
    # bound 11 reaches stabilizer order 2, whose fixed locus has positive
    # dimension in the hyperplane
    with pytest.raises(PositiveDimensionalFixedLocus):
        orbit_census(clebsch, g20, 11)


def test_census_orbits_lie_on_surface_and_lengths_divide(clebsch_census, clebsch, g20):
    for r, orbits in clebsch_census.orbits_by_length.items():
        assert g20.order() % r == 0
        for orbit in orbits:
            assert len(orbit) == r
            for p in orbit:
                assert clebsch.contains(p)


def test_census_orbits_are_pairwise_disjoint_and_stable(clebsch_census, g20):
    all_orbits = [orbit for orbits in clebsch_census.orbits_by_length.values()
                  for orbit in orbits]
    for a, b in itertools.combinations(all_orbits, 2):
        assert not (set(a) & set(b))
    for orbit in all_orbits:
        pts = set(orbit)
        for el in g20.generators:
            assert {el.apply_point(p) for p in pts} == pts


def test_census_completeness_against_raw_fixed_loci(clebsch, clebsch_census, g20):
    """Union of census orbits = all surface points with stabilizer order > 20/8."""
    census_points = {p for orbits in clebsch_census.orbits_by_length.values()
                     for orbit in orbits for p in orbit}
    raw = set()
    for q in (4, 5, 10, 20):
        for cls in subgroups_of_order(g20, q):
            for h in cls:
                for comp in fixed_locus(h):
                    if comp.projective_dimension != 0:
                        continue
                    p = comp.point()
                    if not clebsch.contains(p):
                        continue
                    _, stab = orbit_and_stabilizer(g20, p)
                    if stab.order() > 20 // 8:
                        raw.add(p)
    assert raw == census_points


def test_lines27_basics(cfg, clebsch):
    assert len(cfg.lines) == 27
    assert len(set(cfg.lines)) == 27
    assert all(sum(row) == 10 for row in cfg.incidence)
    for i in range(27):
        for j in range(27):
            assert cfg.incidence[i][j] == cfg.incidence[j][i]
        assert cfg.incidence[i][i] == 0
    for line in cfg.lines:
        assert line_in_surface(line, clebsch.form)
        assert line_in_surface(line, clebsch.hyperplane)
    assert cfg.tags.count("coordinate") == 15
    assert cfg.tags.count("pair-line") == 2
    assert cfg.tags.count("residuation") == 10
    # E1 joins the length-4 orbit points with a = 1 and a = 4, E2 those with a = 2 and 3
    pts = length4_orbit_points()
    assert cfg.by_label("E1") == line_through(pts[0], pts[3])
    assert cfg.by_label("E2") == line_through(pts[1], pts[2])


def test_census_values_are_immutable(clebsch, clebsch_census, cfg, families):
    copy = LineConfiguration(cfg.surface, cfg.lines, cfg.labels, cfg.tags, cfg.incidence)
    assert copy == cfg and hash(copy) == hash(cfg) and copy is not cfg
    assert copy != LineConfiguration(cfg.surface, cfg.lines, cfg.labels, cfg.tags[::-1],
                                     cfg.incidence)
    assert copy != cfg.lines
    for obj, attr in ((clebsch, "form"), (clebsch_census, "bound"), (cfg, "lines"),
                      (cfg, "_permutations"), (families[0], "maximal")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
    assert len(cfg.lines) == 27 and clebsch_census.bound == 8


def test_lines27_residuates_once_per_tritangent_plane(clebsch, cfg, g20, monkeypatch):
    real_residual, real_meets = census.residual_line, ProjLine.meets
    real_in_surface = census.line_in_surface
    planes, meets_calls, tested = [], [], []

    def residual(cubic, a, b):
        c = real_residual(cubic, a, b)
        planes.append((a, b, c))
        return c

    def meets(self, other):
        meets_calls.append((self, other))
        return real_meets(self, other)

    monkeypatch.setattr(census, "residual_line", residual)
    monkeypatch.setattr(ProjLine, "meets", meets)
    for module in (census, projgeo):
        monkeypatch.setattr(module, "line_in_surface",
                            lambda line, form: tested.append(line) or real_in_surface(line, form))
    fresh = lines27(clebsch, g20)
    monkeypatch.undo()
    assert fresh == cfg
    # one line of each of the 4 line orbits is tested on both forms, and
    # residual_line tests none of its certified inputs again
    assert len(tested) == 8 and len(set(tested)) == len(line_orbits(cfg, g20)) == 4
    # one certificate per residuation line, each on its own tritangent plane
    # through two lines of the other tags
    tag = dict(zip(fresh.lines, fresh.tags))
    assert len(planes) == len({frozenset(p) for p in planes}) == 10
    assert {c for _, _, c in planes} == {line for line, t in tag.items() if t == "residuation"}
    assert all(tag[a] != "residuation" != tag[b] for a, b, _ in planes)
    # one meets call per orbit of line pairs under G20
    index = {line: k for k, line in enumerate(cfg.lines)}
    perms = [induced_line_permutation(cfg, el) for el in g20.elements]

    def orbit(pair):
        return frozenset(frozenset(perm[k] for k in pair) for perm in perms)

    orbits = {orbit(ij) for ij in itertools.combinations(range(27), 2)}
    called = [orbit({index[a], index[b]}) for a, b in meets_calls]
    assert len(called) == len(set(called)) == len(orbits) == 27
    # the lines and tags are those of the residuation closure, and the
    # incidence equals a fresh pairwise recomputation
    assert tag == lines27_by_residuation(clebsch, g20.generators)
    for i, j in itertools.combinations(range(27), 2):
        assert fresh.incidence[i][j] == int(fresh.lines[i].meets(fresh.lines[j]))
    # the generators' permutations it keeps are those a bare configuration computes
    bare = LineConfiguration(cfg.surface, cfg.lines, cfg.labels, cfg.tags, cfg.incidence)
    assert set(fresh._permutations) == set(g20.generators)
    for el in g20.generators:
        assert fresh._permutations[el] == induced_line_permutation(bare, el)


def test_lines27_transports_each_line_once_per_generator(clebsch, cfg, g20, monkeypatch):
    # 27 lines, 2 generators fixing the Clebsch cubic
    real = census._transport
    calls = []
    monkeypatch.setattr(census, "_transport", lambda *a: calls.append(a) or real(*a))
    assert lines27(clebsch, g20) == cfg
    assert len(calls) == len(set(calls)) == 54


def test_lines27_under_the_trivial_group_is_pure_residuation(clebsch, cfg, monkeypatch):
    # with no group to transport by, the closure residuates 25 meeting pairs;
    # the closed form gives the same configuration with no permutations kept
    residuals = []
    real = geometry_oracles.residual_line
    monkeypatch.setattr(geometry_oracles, "residual_line",
                        lambda *a: residuals.append(a) or real(*a))
    assert lines27_by_residuation(clebsch, ()) == dict(zip(cfg.lines, cfg.tags))
    assert len(residuals) == 25
    trivial = subgroup_closure([])
    assert census._preserving_generators(clebsch, trivial) == ()
    plain = lines27(clebsch, trivial)
    assert plain == cfg
    assert plain._permutations == {}


def test_lines27_skips_a_generator_that_moves_a_form(clebsch, cfg, g20):
    # sum x_i^3 + x_0^2 * sum x_i is the Clebsch cubic on the hyperplane, so
    # the lines are the same; but of the two generators only (2354), which
    # fixes x_0, fixes the form itself
    extra = [(tuple(2 * (k == 0) + (k == i) for k in range(5)), ONE) for i in range(5)]
    form = HomogeneousForm.of(5, 3, list(clebsch.form.coeffs) + extra)
    tilted = Surface(clebsch.name, clebsch.hyperplane, form)
    c4 = Permutation.from_cycles("(2354)")
    assert census._preserving_generators(clebsch, g20) == g20.generators
    assert census._preserving_generators(tilted, g20) == (c4,)
    fresh = lines27(tilted, g20)
    assert fresh == cfg
    assert set(fresh._permutations) == {c4}
    assert fresh._permutations[c4] == cfg._permutations[c4]


def test_lines27_group_action_closes(cfg, g20):
    for el in g20.elements:
        perm = induced_line_permutation(cfg, el)
        assert sorted(perm) == list(range(27))


def test_induced_line_permutation_is_computed_once_per_configuration(cfg, g20, monkeypatch):
    fresh = LineConfiguration(cfg.surface, cfg.lines, cfg.labels, cfg.tags, cfg.incidence)
    spans = []
    real_span = ProjLine.span
    monkeypatch.setattr(ProjLine, "span", staticmethod(lambda *v: spans.append(v) or real_span(*v)))
    for el in g20.generators:
        perm = induced_line_permutation(fresh, el)
        assert induced_line_permutation(fresh, el) is perm
        expected = [
            fresh.lines.index(real_span(el.apply_vector(list(l.basis[0])),
                                        el.apply_vector(list(l.basis[1]))))
            for l in fresh.lines
        ]
        assert list(perm) == expected
    line_orbits(fresh, g20)
    assert len(spans) == 27 * len(g20.generators)
    # the cache lives on the configuration, so nothing else keeps it alive
    ref = weakref.ref(fresh)
    del fresh
    gc.collect()
    assert ref() is None


def test_induced_line_permutation_rejects_an_unclosed_configuration(cfg, g20):
    partial = LineConfiguration(cfg.surface, cfg.lines[:26], cfg.labels[:26], cfg.tags[:26],
                                tuple(row[:26] for row in cfg.incidence[:26]))
    with pytest.raises(ActionNotClosed):
        for el in g20.elements:
            induced_line_permutation(partial, el)


def test_line_orbit_sizes(cfg, g20):
    sizes = sorted(len(o) for o in line_orbits(cfg, g20))
    assert sizes == [2, 5, 10, 10]
    assert sum(sizes) == 27
    assert all(20 % s == 0 for s in sizes)


def test_skew_families(families, cfg):
    maximal = [f for f in families if f.maximal]
    assert sorted(f.size() for f in maximal) == [2, 5]
    by_size = {f.size(): f for f in maximal}
    assert list(by_size[2].labels) == ["E1", "E2"]
    assert list(by_size[5].labels) == ["L1", "L2", "L3", "L4", "L5"]
    # E1.E2 = 0 and each E meets each L exactly once
    e1, e2 = cfg.labels.index("E1"), cfg.labels.index("E2")
    assert cfg.incidence[e1][e2] == 0
    for k in range(1, 6):
        lk = cfg.labels.index(f"L{k}")
        assert cfg.incidence[e1][lk] == 1
        assert cfg.incidence[e2][lk] == 1


def test_lines27_closure_failure_reports(g20):
    # x0^3 + x1^3 + x2^3 + x3^3 + 2 x4^3: only three of the listed lines lie on it
    terms = {tuple(3 if i == j else 0 for i in range(5)): (rational(2) if j == 4 else ONE)
             for j in range(5)}
    lopsided = Surface("lopsided", power_sum_form(5, 1), HomogeneousForm.of(5, 3, terms))
    assert census._preserving_generators(lopsided, g20) == ()
    with pytest.raises(EnumerationIncomplete):
        lines27(lopsided, g20)


def test_general_position_of_k1(quadric, quadric_census):
    k1 = list(quadric_census.orbits_by_length[5][0])
    cert = general_position_on_quadric(k1, quadric)
    assert cert["pass"]
    assert cert["pair_violations"] == []
    assert cert["coplanar_violations"] == []


def test_general_position_fails_for_length4_orbit(quadric):
    cert = general_position_on_quadric(length4_orbit_points(), quadric)
    assert not cert["pass"]
    assert len(cert["pair_violations"]) == 4  # the four rulings
    assert cert["coplanar_violations"] == []


def test_general_position_detects_coplanar_points(quadric):
    i = I_UNIT
    coplanar = [
        ProjPoint.of([0, ONE, i, -ONE, -i]),
        ProjPoint.of([0, ONE, -i, -ONE, i]),
        ProjPoint.of([0, ONE, -ONE, i, -i]),
        ProjPoint.of([0, ONE, -ONE, -i, i]),
    ]
    for p in coplanar:
        assert membership(p, [quadric.hyperplane, quadric.form])
    cert = general_position_on_quadric(coplanar, quadric)
    assert not cert["pass"]
    assert cert["coplanar_violations"] == [[0, 1, 2, 3]]


def test_general_position_rejects_duplicates(quadric):
    p = length4_orbit_points()[0]
    with pytest.raises(DuplicatePoints):
        general_position_on_quadric([p, p], quadric)


def test_smoothness_certificates(clebsch, quadric):
    cert = smoothness_check(clebsch)
    assert cert["smooth"]
    assert cert["norm"][0] == "-1215/1"
    assert sorted(cert["sign_pattern_sums"]) == sorted(
        [5] + [3] * 4 + [1] * 6 + [-1] * 4 + [-3]
    )
    cert_q = smoothness_check(quadric)
    assert cert_q["smooth"] and cert_q["rank"] == 4


def test_smoothness_detects_singular_diagonal_cubic():
    # x0^3+x1^3+x2^3+4x3^3+4x4^3 is singular at (1:-1:-1:1/2:1/2)
    coeffs = [1, 1, 1, 4, 4]
    terms = {tuple(3 if i == j else 0 for i in range(5)): rational(coeffs[j])
             for j in range(5)}
    singular = Surface("singular-cubic", power_sum_form(5, 1),
                       HomogeneousForm.of(5, 3, terms))
    cert = smoothness_check(singular)
    assert not cert["smooth"]
    witness = ProjPoint.of([rational(1), rational(-1), rational(-1),
                            rational(1) / 2, rational(1) / 2])
    assert membership(witness, [singular.hyperplane, singular.form])


def test_smoothness_norm_of_a_diagonal_cubic_matches_sympy():
    # ratios a_0/a_i other than 1: the norm is the product of
    # 1 + sum(eps_i sqrt(a_0/a_i)) over all sign patterns, a nonzero rational
    coeffs = [2, 1, 3, 5, 7]
    terms = {tuple(3 if i == j else 0 for i in range(5)): rational(coeffs[j])
             for j in range(5)}
    cert = smoothness_check(Surface("diagonal-cubic", power_sum_form(5, 1),
                                    HomogeneousForm.of(5, 3, terms)))
    roots = [sympy.sqrt(sympy.Rational(coeffs[0], a)) for a in coeffs[1:]]
    expected = sympy.Integer(1)
    for signs in itertools.product((1, -1), repeat=4):
        expected = sympy.expand(expected * (1 + sum(e * r for e, r in zip(signs, roots))))
    assert expected.is_Rational and expected != 0
    assert cert["smooth"]
    assert cert["norm"] == [f"{expected.p}/{expected.q}"] + ["0/1"] * 7


def test_smoothness_rejects_a_norm_left_with_square_root_terms(clebsch, monkeypatch):
    # one factor 1 + s1 + ... + s4 alone is not invariant under the sign flips
    monkeypatch.setattr(census, "_SIGN_PATTERNS", census._SIGN_PATTERNS[:1])
    with pytest.raises(NormNotConstant):
        smoothness_check(clebsch)


def test_smoothness_unsupported_shapes():
    quartic = Surface("quartic", power_sum_form(5, 1), power_sum_form(5, 4))
    with pytest.raises(UnsupportedShape):
        smoothness_check(quartic)
    mixed = HomogeneousForm.of(5, 3, {(2, 1, 0, 0, 0): ONE, (0, 0, 3, 0, 0): ONE})
    with pytest.raises(UnsupportedShape):
        smoothness_check(Surface("mixed", power_sum_form(5, 1), mixed))


def test_length4_orbit_lies_on_both_surfaces(clebsch, quadric):
    for p in length4_orbit_points():
        assert clebsch.contains(p)
        assert quadric.contains(p)


# The five transitive subgroups of the symmetric group on 5 letters, as
# inputs the report never gives: the 27 lines' orbit sizes, the invariant
# Picard rank, and the error type by which orbit_census (bound 8) and
# assemble_normalizer refuse the group (None: the group is accepted).  The A5
# and S5 rows are the classical Clebsch cubic's: 15 lines over Q in one
# orbit, and a double-six over Q(sqrt 5) whose halves A5 keeps and odd
# permutations swap (Dolgachev, Classical Algebraic Geometry, section 9.5).
TRANSITIVE_SUBGROUPS = {
    "C5": (("(12345)",), [1, 1, 5, 5, 5, 5, 5], 3, ValueError, WrongGroup),
    "D10": (("(12345)", "(25)(34)"), [1, 1, 5, 5, 5, 5, 5], 3,
            PositiveDimensionalFixedLocus, WrongGroup),
    "G20": (("(12345)", "(2354)"), [2, 5, 10, 10], 2, None, None),
    "A5": (("(12345)", "(123)"), [6, 6, 15], 2, UnsupportedEigenvalue, WrongGroup),
    "S5": (("(12345)", "(12)"), [12, 15], 1, UnsupportedEigenvalue, WrongGroup),
}


@pytest.mark.parametrize("name", TRANSITIVE_SUBGROUPS)
def test_lines_ranks_and_refusals_under_each_transitive_subgroup(clebsch, name):
    gens, orbit_sizes, rank, census_error, normalizer_error = TRANSITIVE_SUBGROUPS[name]
    g = group_from_cycles(*gens)
    cfg = lines27(clebsch, g)
    assert sorted(len(orbit) for orbit in line_orbits(cfg, g)) == orbit_sizes
    assert invariant_rank(reconstruct_picard(cfg, g)) == rank
    refusals = ((lambda: orbit_census(clebsch, g, 8), census_error),
                (lambda: assemble_normalizer(g), normalizer_error))
    for refused, error in refusals:
        if error is None:
            continue
        start = time.perf_counter()
        with pytest.raises(error) as raised:
            refused()
        assert raised.type is error  # C5's ValueError is the base of two of the others
        # the S5 census takes about 0.4 s before it refuses
        assert time.perf_counter() - start < 5.0
