"""Acceptance criteria, one test per criterion, all at zero tolerance.

Every assertion is an exact equality in Q(zeta_20) or Z.  Each test prints
one PASS line for its criterion (visible with pytest -s or in captured
output); an assertion failure is the corresponding FAIL.
"""

import itertools
import random
from fractions import Fraction

from dp5links.census import general_position_on_quadric
from dp5links.cyclo import (
    DEGREE,
    FieldElement,
    I_UNIT,
    ONE,
    ZERO,
    ZETA5,
    galois_apply,
    rational,
)
from dp5links.groups import orbit_and_stabilizer
from dp5links.picard import (
    apply_matrix,
    contract,
    divisor_relation_check,
    invariant_rank,
    ruling_blowup_check,
    selfmap_degree,
)
from dp5links.projgeo import ProjLine, ProjPoint, membership
from dp5links.report import Context, run_checks


def _ok(n, text):
    label = f"{n:02d}" if isinstance(n, int) else str(n)
    print(f"[ACCEPTANCE {label}] PASS - {text}")


def _points(coord_lists):
    return sorted((ProjPoint.of(c) for c in coord_lists), key=ProjPoint.sort_key)


def verbatim_orbit4():
    return _points([[ZETA5 ** ((a * j) % 5) for j in range(5)] for a in (1, 2, 3, 4)])


def verbatim_orbit5():
    i = I_UNIT
    return {
        "O1": _points([
            [0, -1, 1, 1, -1], [-1, 0, -1, 1, 1], [1, -1, 0, -1, 1],
            [1, 1, -1, 0, -1], [-1, 1, 1, -1, 0]]),
        "O2": _points([
            [0, -i, -ONE, ONE, i], [i, 0, -i, -ONE, ONE], [ONE, i, 0, -i, -ONE],
            [-ONE, ONE, i, 0, -i], [-i, -ONE, ONE, i, 0]]),
        "O3": _points([
            [0, i, -ONE, ONE, -i], [-i, 0, i, -ONE, ONE], [ONE, -i, 0, i, -ONE],
            [-ONE, ONE, -i, 0, i], [i, -ONE, ONE, -i, 0]]),
    }


def closed_form_line(p1, p2):
    v1 = [ZERO] * 5
    v1[p1[0]], v1[p1[1]] = ONE, -ONE
    v2 = [ZERO] * 5
    v2[p2[0]], v2[p2[1]] = ONE, -ONE
    return ProjLine.span(v1, v2)


def test_criterion_01_clebsch_orbit_census(clebsch_census):
    lengths = {r: len(v) for r, v in clebsch_census.orbits_by_length.items()}
    assert lengths == {4: 1, 5: 3}
    assert 1 not in lengths and 2 not in lengths
    orbit4 = sorted(clebsch_census.orbits_by_length[4][0], key=ProjPoint.sort_key)
    assert orbit4 == verbatim_orbit4()
    fives = [sorted(o, key=ProjPoint.sort_key) for o in clebsch_census.orbits_by_length[5]]
    verbatim = verbatim_orbit5()
    for name in ("O1", "O2", "O3"):
        assert verbatim[name] in fives
    _ok(1, "cubic census of length < 8 matches the verbatim point lists")


def test_criterion_02_r4_fixed_but_off_surface(groups, clebsch):
    r4 = ProjPoint.of([-4, 1, 1, 1, 1])
    for el in groups["C4"].elements:
        assert el.apply_point(r4) == r4
    assert not membership(r4, [clebsch.hyperplane, clebsch.form])
    raw = [rational(c) for c in (-4, 1, 1, 1, 1)]
    assert clebsch.form.evaluate(raw) == rational(-60)  # cubes do not sum to zero
    _ok(2, "(-4:1:1:1:1) is fixed by the order-4 subgroup and is not on the cubic")


def test_criterion_03_twenty_seven_lines(cfg):
    assert len(cfg.lines) == 27
    assert len(set(cfg.lines)) == 27
    assert all(sum(row) == 10 for row in cfg.incidence)
    equations = {
        "L1": ((1, 4), (2, 3)), "L2": ((0, 2), (3, 4)), "L3": ((0, 4), (1, 3)),
        "L4": ((0, 1), (2, 4)), "L5": ((0, 3), (1, 2)),
    }
    verbatim = verbatim_orbit5()
    u_list = verbatim["O2"]
    w_list = verbatim["O3"]
    i_unit = I_UNIT
    u_ordered = [ProjPoint.of(c) for c in (
        [0, -i_unit, -ONE, ONE, i_unit], [i_unit, 0, -i_unit, -ONE, ONE],
        [ONE, i_unit, 0, -i_unit, -ONE], [-ONE, ONE, i_unit, 0, -i_unit],
        [-i_unit, -ONE, ONE, i_unit, 0])]
    w_ordered = [ProjPoint.of(c) for c in (
        [0, i_unit, -ONE, ONE, -i_unit], [-i_unit, 0, i_unit, -ONE, ONE],
        [ONE, -i_unit, 0, i_unit, -ONE], [-ONE, ONE, -i_unit, 0, i_unit],
        [i_unit, -ONE, ONE, -i_unit, 0])]
    for k in range(1, 6):
        lab = f"L{k}"
        line = cfg.by_label(lab)
        assert line == closed_form_line(*equations[lab])
        assert line.contains(u_ordered[k - 1])
        assert line.contains(w_ordered[k - 1])
    for a, b in itertools.combinations(range(1, 6), 2):
        ia, ib = cfg.labels.index(f"L{a}"), cfg.labels.index(f"L{b}")
        assert cfg.incidence[ia][ib] == 0
    _ok(3, "27 lines, 10 meets each, L1..L5 verbatim through U_i and W_i, disjoint")


def test_criterion_04_two_maximal_skew_families(families):
    maximal = [f for f in families if f.maximal]
    assert sorted(f.size() for f in maximal) == [2, 5]
    _ok(4, "exactly two maximal invariant skew families, sizes 2 and 5")


def test_criterion_05_picard_reconstruction_and_invariant_ranks(pic):
    assert pic.rank == 7
    assert pic.degree() == 3
    assert invariant_rank(pic) == 2
    t5, _ = contract(pic, ["E1", "E2"])
    assert invariant_rank(t5) == 1
    t8, _ = contract(pic, ["L1", "L2", "L3", "L4", "L5"])
    assert invariant_rank(t8) == 1
    _ok(5, "rank 7, (-K)^2 = 3; invariant ranks 2 / 1 / 1 along the link")


def test_criterion_06_divisor_relations(pic):
    cert = divisor_relation_check(pic)
    e_sum = tuple(a + b for a, b in zip(pic.marked_vector("E1"), pic.marked_vector("E2")))
    pullback = tuple(a + b for a, b in zip(pic.anticanonical, e_sum))
    sigma_h = tuple(int(x) for x in cert["sigma_star_H"])
    assert sigma_h == tuple(2 * a - 3 * b for a, b in zip(pullback, e_sum))
    f_sum = tuple(sum(pic.marked_vector(f"L{k}")[i] for k in range(1, 6))
                  for i in range(7))
    assert f_sum == tuple(3 * a - 5 * b for a, b in zip(pullback, e_sum))
    assert sorted(tuple(v) for v in cert["pushforward_bidegrees"].values()) == [(1, 2), (2, 1)]
    _ok(6, "sigma*(H) and sum(F_i) relations hold exactly; bidegrees {(2,1),(1,2)}")


def test_criterion_07_quadric_census_and_rulings(quadric, quadric_census):
    lengths = {r: len(v) for r, v in quadric_census.orbits_by_length.items()}
    assert lengths == {4: 1, 5: 2}
    k1, k2 = quadric_census.orbits_by_length[5]
    assert general_position_on_quadric(list(k1), quadric)["pass"]
    assert general_position_on_quadric(list(k2), quadric)["pass"]
    orbit4 = list(quadric_census.orbits_by_length[4][0])
    cert = general_position_on_quadric(orbit4, quadric)
    assert not cert["pass"]
    assert len(cert["pair_violations"]) == 4  # exactly 4 of the 6 pair lines in Q
    ruling_cert = ruling_blowup_check(quadric)
    assert ruling_cert["minus_two_count"] == 4
    assert all(t["square"] == -2 for t in ruling_cert["proper_transforms"])
    _ok(7, "quadric census 4:1, 5:2; K1, K2 in general position; 4 rulings go to (-2)")


def test_criterion_08_selfmap_pairing(quadric, quadric_census, groups):
    # independent recomputation of the pairing in the rank-12 gram
    gram = [[0] * 12 for _ in range(12)]
    gram[0][1] = gram[1][0] = 1
    for i in range(2, 12):
        gram[i][i] = -1
    left = [5, 5, -3, -3, -3, -3, -3, 0, 0, 0, 0, 0]
    right = [5, 5, 0, 0, 0, 0, 0, -3, -3, -3, -3, -3]
    oracle = sum(left[i] * gram[i][j] * right[j] for i in range(12) for j in range(12))
    assert oracle == 50
    oracle_identity = sum(left[i] * gram[i][j] * left[j] for i in range(12) for j in range(12))
    assert oracle_identity == 5
    k1, k2 = quadric_census.orbits_by_length[5]
    cert = selfmap_degree(quadric, groups["G20"], list(k1), list(k2), groups["D10"])
    assert cert["pairing"] == 50
    assert cert["degree"] == 10
    assert cert["non_biregular"]
    assert cert["identity_pairing"] == 5
    assert cert["identity_degree"] == 1
    _ok(8, "composite pairing 50 (degree 10, not biregular); identity composite 5")


def test_criterion_09_normalizer_order_40(normalizer_result, quadric_census):
    res = normalizer_result
    assert res.order == 40
    assert res.structure["direct_product_c2_x_g20"]
    k1, k2 = quadric_census.orbits_by_length[5]
    from dp5links.normalizer import involution_swaps_orbits
    assert involution_swaps_orbits(res, list(k1), list(k2))
    _ok(9, "normalizer order 40, structure C2 x G20, involution swaps K1 and K2")


def test_criterion_10a_field_axioms_thousand_samples():
    rnd = random.Random(101)

    def element():
        return FieldElement([
            Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)) for _ in range(DEGREE)
        ])

    for _ in range(1000):
        a, b, c = element(), element(), element()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * (ONE / a) == ONE
        for k in (3, 19):
            assert galois_apply(k, a * b) == galois_apply(k, a) * galois_apply(k, b)
            assert galois_apply(k, a + b) == galois_apply(k, a) + galois_apply(k, b)
    _ok("10a", "field axioms and Galois homomorphism on 1000 random samples")


def test_criterion_10b_orbit_stabilizer_everywhere(clebsch_census, quadric_census, g20):
    count = 0
    for census in (clebsch_census, quadric_census):
        for orbits in census.orbits_by_length.values():
            for orbit in orbits:
                _, stab = orbit_and_stabilizer(g20, orbit[0])
                assert len(orbit) * stab.order() == g20.order()
                count += 1
    assert count == 7  # 1 + 3 orbits on the cubic, 1 + 2 on the quadric
    _ok("10b", "orbit-stabilizer identity on every computed orbit")


def test_criterion_10c_action_matrices_are_isometries(pic):
    g = pic.lattice.gram
    n = pic.rank
    for m in pic.actions:
        for i in range(n):
            for j in range(n):
                assert sum(m[a][i] * g[a][b] * m[b][j]
                           for a in range(n) for b in range(n)) == g[i][j]
        assert apply_matrix(m, pic.anticanonical) == pic.anticanonical
    _ok("10c", "every action matrix is a gram isometry fixing -K")


def test_criterion_10d_verify_all_is_byte_deterministic():
    first = run_checks(context=Context())
    second = run_checks(context=Context())
    assert first.overall == "pass"
    assert first.to_json() == second.to_json()
    assert first.to_markdown() == second.to_markdown()
    _ok("10d", "verify-all output is byte-identical across two consecutive runs")
