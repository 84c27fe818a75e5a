import itertools
import random

import pytest

from dp5links import picard
from dp5links.census import LineConfiguration
from dp5links.linalg import IntLattice
from dp5links.picard import (
    InconsistentIncidence,
    NoSixer,
    NotContractible,
    OrbitsNotDisjoint,
    PicardLattice,
    RelationFailed,
    apply_matrix,
    UnboundedRegion,
    _minus_one_classes,
    blowup5_minus_one_classes,
    contract,
    cubic_minus_one_classes,
    divisor_relation_check,
    find_sixers,
    invariant_rank,
    pushforward,
    reconstruct_picard,
    ruling_blowup_check,
    selfmap_degree,
)

from geometry_oracles import picard_actions_by_inversion


def test_reconstruction_rank_and_degree(pic):
    assert pic.rank == 7
    assert pic.degree() == 3
    assert pic.lattice.gram[0][0] == 1
    assert all(pic.lattice.gram[i][i] == -1 for i in range(1, 7))


def test_picard_values_are_immutable(pic):
    for obj, attr in ((pic, "anticanonical"), (pic.marked[0], "vector")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
    assert pic.degree() == 3


def test_all_line_classes_are_minus_one_degree_one(pic):
    for dc in pic.marked:
        assert pic.pair(dc.vector, dc.vector) == -1
        assert pic.pair(dc.vector, pic.anticanonical) == 1


def test_gram_reproduces_incidence(pic, cfg):
    classes = {dc.label: dc.vector for dc in pic.marked}
    for i, j in itertools.combinations(range(27), 2):
        a, b = cfg.labels[i], cfg.labels[j]
        assert pic.pair(classes[a], classes[b]) == cfg.incidence[i][j]


def test_action_matrices_are_isometries_fixing_anticanonical(pic):
    pic.check_action_invariants()
    for m in pic.actions:
        assert apply_matrix(m, pic.anticanonical) == pic.anticanonical


def test_action_invariants_agree_with_the_entrywise_sum(pic):
    """check_action_invariants raises exactly when sum_ab m_ai g_ab m_bj != g_ij
    for some i, j or when the anticanonical class moves."""
    g, n = pic.lattice.gram, pic.rank
    rnd = random.Random(5)
    shear = [[int(i == j) for j in range(n)] for i in range(n)]
    shear[0][1] = 1
    reflection = [[int(i == j) * (-1 if i == 1 else 1) for j in range(n)] for i in range(n)]
    randoms = [[[rnd.randint(-1, 1) for _ in range(n)] for _ in range(n)] for _ in range(20)]
    for m in list(pic.actions) + [shear, reflection] + randoms:
        isometry = all(
            sum(m[a][i] * g[a][b] * m[b][j] for a in range(n) for b in range(n)) == g[i][j]
            for i in range(n) for j in range(n)
        )
        fixes_k = apply_matrix(m, pic.anticanonical) == pic.anticanonical
        candidate = PicardLattice(pic.lattice, pic.anticanonical, (), (m,), ("m",))
        if isometry and fixes_k:
            candidate.check_action_invariants()
        else:
            with pytest.raises(InconsistentIncidence) as err:
                candidate.check_action_invariants()
            word = "isometry" if not isometry else "anticanonical"
            assert word in str(err.value)
    # the reflection in e1 is an isometry that moves -K
    assert apply_matrix(reflection, pic.anticanonical) != pic.anticanonical


def test_invariant_ranks_along_the_link(pic):
    assert invariant_rank(pic) == 2
    t5, _ = contract(pic, ["E1", "E2"])
    assert (t5.rank, t5.degree(), invariant_rank(t5)) == (5, 5, 1)
    t8, _ = contract(pic, ["L1", "L2", "L3", "L4", "L5"])
    assert (t8.rank, t8.degree(), invariant_rank(t8)) == (2, 8, 1)
    assert t8.lattice.gram in (((0, 1), (1, 0)), ((-0, 1), (1, -0)))


def test_invariant_rank_drop_equals_family_orbit_count(pic):
    # each contracted family is a single group orbit, so the rank drops by one
    for family in (["E1", "E2"], ["L1", "L2", "L3", "L4", "L5"]):
        target, _ = contract(pic, family)
        assert invariant_rank(target) == invariant_rank(pic) - 1


def test_contract_rejects_meeting_or_unstable_families(pic):
    with pytest.raises(NotContractible):
        contract(pic, ["E1", "L1"])  # E1.L1 = 1
    with pytest.raises(NotContractible):
        contract(pic, ["L1", "L2"])  # stable only as the full five


def test_contraction_embedding_is_isometric(pic):
    target, basis = contract(pic, ["E1", "E2"])
    assert len(basis) == target.rank
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            assert pic.pair(u, v) == target.lattice.gram[i][j]


def test_sixer_stability(cfg, g20):
    sixers = find_sixers(cfg, limit=3)
    assert len(sixers) == 3
    for sixer in sixers:
        alt = reconstruct_picard(cfg, g20, sixer=sixer)
        assert alt.degree() == 3
        assert invariant_rank(alt) == 2


def test_action_matrices_match_the_basis_inversion(cfg, g20):
    # the default sixer and three alternatives
    sixers = find_sixers(cfg, limit=4)
    assert len(sixers) == 4 and sixers[0] == find_sixers(cfg, limit=1)[0]
    for sixer in sixers:
        pic = reconstruct_picard(cfg, g20, sixer=sixer)
        assert list(pic.actions) == picard_actions_by_inversion(cfg, g20, pic, sixer)


def test_a_sixer_alone_has_no_line_to_write_h_with(cfg, g20):
    sixer = find_sixers(cfg, limit=1)[0]
    alone = LineConfiguration(
        cfg.surface,
        tuple(cfg.lines[k] for k in sixer),
        tuple(cfg.labels[k] for k in sixer),
        tuple(cfg.tags[k] for k in sixer),
        tuple(tuple(cfg.incidence[i][j] for j in sixer) for i in sixer),
    )
    with pytest.raises(InconsistentIncidence, match="exactly two"):
        reconstruct_picard(alone, g20)


def test_no_sixer_on_truncated_configuration(cfg, g20):
    small = LineConfiguration(
        cfg.surface,
        cfg.lines[:5],
        cfg.labels[:5],
        cfg.tags[:5],
        tuple(tuple(row[:5]) for row in cfg.incidence[:5]),
    )
    with pytest.raises(NoSixer):
        reconstruct_picard(small, g20)


def test_inconsistent_incidence_detected(cfg, g20):
    doctored = [list(row) for row in cfg.incidence]
    doctored[0][1] ^= 1
    doctored[1][0] ^= 1
    bad = LineConfiguration(cfg.surface, cfg.lines, cfg.labels, cfg.tags,
                            tuple(tuple(r) for r in doctored))
    with pytest.raises(InconsistentIncidence):
        reconstruct_picard(bad, g20)


def test_divisor_relations(pic):
    cert = divisor_relation_check(pic)
    assert sorted(cert["pushforward_bidegrees"].values()) == [[1, 2], [2, 1]]
    assert cert["F_degree_downstairs"] == [3, 3, 3, 3, 3]
    # sigma*(H) = 2 pi*(-K) - 3(E1+E2) re-checked through the serialized vectors
    pullback = [int(x) for x in cert["pullback_anticanonical"]]
    e_sum = [a + b for a, b in zip(pic.marked_vector("E1"), pic.marked_vector("E2"))]
    expected = [2 * a - 3 * b for a, b in zip(pullback, e_sum)]
    assert [int(x) for x in cert["sigma_star_H"]] == expected


def test_contract_raises_when_the_anticanonical_shift_has_no_coordinates(pic, monkeypatch):
    monkeypatch.setattr(picard, "coordinates_in_basis", lambda basis, vs: [None] * len(vs))
    with pytest.raises(NotContractible, match="-K"):
        contract(pic, ["E1", "E2"])


def test_contract_raises_when_the_action_leaves_the_complement(pic, monkeypatch):
    real = picard.coordinates_in_basis
    calls = []

    def only_the_first(basis, vs):
        calls.append(vs)
        return real(basis, vs) if len(calls) == 1 else [None] * len(vs)

    monkeypatch.setattr(picard, "coordinates_in_basis", only_the_first)
    with pytest.raises(NotContractible, match="group action"):
        contract(pic, ["E1", "E2"])


def test_pushforward_raises_when_the_class_has_no_coordinates(pic, monkeypatch):
    monkeypatch.setattr(picard, "coordinates_in_basis", lambda basis, vs: [None] * len(vs))
    with pytest.raises(NotContractible, match="projected class"):
        pushforward(pic, ["L1", "L2", "L3", "L4", "L5"], ((1,) * 7,), pic.marked_vector("E1"))


def test_divisor_relations_raise_without_a_hyperbolic_basis(pic, monkeypatch):
    monkeypatch.setattr(picard, "hyperbolic_basis", lambda lattice, positive_against: None)
    with pytest.raises(RelationFailed, match="not hyperbolic"):
        divisor_relation_check(pic)


def _g(k: int) -> tuple[int, ...]:
    """The exceptional class with index k (0-based) in the rank-12 resolution."""
    return tuple(-1 if i == k else 0 for i in range(12))


@pytest.mark.parametrize("e_block, error, message", [
    # f1 and f2 are isotropic, not (-1)-classes
    (((1,) + (0,) * 11, (0, 1) + (0,) * 10), NotContractible, "self-intersection"),
    # one exceptional class over each orbit: squares -1, but the 5-cycle moves them
    ((_g(2), _g(7)), NotContractible, "size-2 orbit"),
    # f_a + 2 f_b + sum(g): a stable pair of (-1)-classes with the wrong pullback
    (((1, 2) + (1,) * 5 + (0,) * 5, (2, 1) + (1,) * 5 + (0,) * 5), RelationFailed, "left pullback"),
])
def test_selfmap_degree_raises_on_wrong_e_classes(quadric, quadric_census, groups, monkeypatch,
                                                  e_block, error, message):
    k1, k2 = quadric_census.orbits_by_length[5]
    monkeypatch.setattr(picard, "_E_BLOCK", e_block)
    with pytest.raises(error, match=message):
        selfmap_degree(quadric, groups["G20"], list(k1), list(k2), groups["D10"])


def test_ruling_blowup_minus_two_classes(quadric):
    cert = ruling_blowup_check(quadric)
    assert cert["minus_two_count"] == 4
    assert all(t["square"] == -2 for t in cert["proper_transforms"])
    assert all(t["anticanonical_degree"] == 0 for t in cert["proper_transforms"])
    fams = [t["family"] for t in cert["proper_transforms"]]
    assert sorted(fams) == ["f1", "f1", "f2", "f2"]
    pair_sets = {tuple(t["ruling_points"]) for t in cert["proper_transforms"]}
    assert pair_sets == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_line_classes_exhaust_the_numerical_minus_one_classes(pic):
    from dp5links.picard import cubic_minus_one_classes
    numerical = set(cubic_minus_one_classes())
    assert len(numerical) == 27
    assert numerical == {dc.vector for dc in pic.marked}


def test_five_point_blowup_carries_27_minus_one_classes():
    classes = blowup5_minus_one_classes()
    assert len(classes) == 27
    lattice = IntLattice.from_gram(
        [[0, 1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0]]
        + [[0] * i + [-1] + [0] * (6 - i) for i in range(2, 7)]
    )
    minus_k = [2, 2, -1, -1, -1, -1, -1]
    for c in classes:
        assert lattice.pair(c, c) == -1
        assert lattice.pair(c, minus_k) == 1
    # the two E-classes f_a + 2 f_b - sum(g) are among them
    assert (1, 2, -1, -1, -1, -1, -1) in classes
    assert (2, 1, -1, -1, -1, -1, -1) in classes


def _padded_box_minus_one_classes(gram, minus_k, head_range, tail_range):
    """The former brute-force scan, kept as an independent oracle."""
    lattice = IntLattice.from_gram(gram)
    r = len(minus_k) - sum(1 for i in range(len(gram)) if gram[i][i] == -1)
    out = []
    for head in itertools.product(head_range, repeat=r):
        for tail in itertools.product(tail_range, repeat=len(minus_k) - r):
            v = list(head) + list(tail)
            if lattice.pair(v, v) == -1 and lattice.pair(v, minus_k) == 1:
                out.append(tuple(v))
    return sorted(out)


def _block_gram(head, m):
    r = len(head)
    return [list(row) + [0] * m for row in head] + [
        [0] * (r + i) + [-1] + [0] * (m - 1 - i) for i in range(m)
    ]


def test_cubic_minus_one_enumeration_equals_the_padded_box_scan():
    oracle = _padded_box_minus_one_classes(
        _block_gram([[1]], 6), [3] + [-1] * 6, range(-1, 4), range(-2, 3))
    assert cubic_minus_one_classes() == oracle
    assert len(oracle) == 27


def test_blowup5_minus_one_enumeration_equals_the_padded_box_scan():
    oracle = _padded_box_minus_one_classes(
        _block_gram([[0, 1], [1, 0]], 5), [2, 2] + [-1] * 5, range(-1, 4), range(-2, 3))
    assert blowup5_minus_one_classes() == oracle
    assert len(oracle) == 27


@pytest.mark.parametrize("head, head_k, m", [
    ([[1]], (3,), 2),
    ([[1]], (3,), 4),
    ([[0, 1], [1, 0]], (2, 2), 1),
    ([[0, 1], [1, 0]], (2, 2), 3),
])
def test_minus_one_enumeration_equals_the_box_scan_on_smaller_lattices(head, head_k, m):
    oracle = _padded_box_minus_one_classes(
        _block_gram(head, m), list(head_k) + [-1] * m, range(-1, 4), range(-3, 4))
    assert _minus_one_classes(head, head_k, m) == oracle


# (-1)-classes of the plane blown up in n points: 1, 3, 6, 10, 16, 27, 56, 240;
# the quadric blown up in n points is the plane blown up in n + 1
@pytest.mark.parametrize("n, count", enumerate([1, 3, 6, 10, 16, 27, 56, 240], start=1))
def test_minus_one_class_counts_of_every_del_pezzo_lattice(n, count):
    assert len(_minus_one_classes([[1]], (3,), n)) == count
    if n > 1:
        assert len(_minus_one_classes([[0, 1], [1, 0]], (2, 2), n - 1)) == count


def test_minus_one_enumeration_rejects_a_non_positive_anticanonical_square():
    # degree 9 - 9 = 0: the Cauchy-Schwarz region is unbounded
    with pytest.raises(UnboundedRegion):
        _minus_one_classes([[1]], (3,), 9)


def test_selfmap_degree_certificate(quadric, quadric_census, groups):
    k1, k2 = quadric_census.orbits_by_length[5]
    cert = selfmap_degree(quadric, groups["G20"], list(k1), list(k2), groups["D10"])
    assert cert["pairing"] == 50
    assert cert["degree"] == 10
    assert cert["identity_pairing"] == 5
    assert cert["identity_degree"] == 1
    assert cert["non_biregular"]
    swaps = cert["ruling_swap_by_generator"]
    assert swaps["(12345)"] is False  # inside the index-2 subgroup
    assert swaps["(2354)"] is True


def test_selfmap_rejects_identical_orbits(quadric, quadric_census, groups):
    k1, _ = quadric_census.orbits_by_length[5]
    with pytest.raises(OrbitsNotDisjoint):
        selfmap_degree(quadric, groups["G20"], list(k1), list(k1), groups["D10"])


def test_picard_serialization_shape(pic):
    data = pic.serialize()
    assert data["lattice"]["rank"] == 7
    assert data["anticanonical"] == ["3", "-1", "-1", "-1", "-1", "-1", "-1"]
    assert set(data["actions"]) == {"(12345)", "(2354)"}
    assert len(data["marked"]) == 27
