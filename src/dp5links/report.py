"""Check catalog, certificates and report assembly.

Every check certifies one named mathematical claim in the classification of
the equivariant birational models of the quintic del Pezzo surface under the
order-20 group.  Checks are pure: given the shared exact-geometry context
they either produce a certificate payload (pass), raise CheckFailure (fail),
or raise something else (error).  Reports are fully deterministic: results
ordered by check id, sorted orbit listings, no timestamps; wall times and
the stages each check built are kept on the in-memory results only and
never serialized, so consecutive runs are byte-identical.
"""

from __future__ import annotations

import io
import itertools
import time
from functools import cached_property
from typing import Callable

from . import __version__
from .census import (
    clebsch_surface,
    general_position_on_quadric,
    invariant_skew_families,
    length4_orbit_points,
    line_orbits,
    lines27,
    orbit_census,
    quadric_surface,
    sign_line,
    smoothness_check,
)
from .cyclo import I_UNIT, ONE
from .groups import orbit_and_stabilizer, standard_groups
from .jsontext import write_json
from .normalizer import assemble_normalizer, involution_swaps_orbits
from .picard import (
    contraction,
    cubic_minus_one_classes,
    divisor_relation_check,
    find_sixers,
    invariant_rank,
    reconstruct_picard,
    ruling_blowup_check,
    selfmap_degree,
)
from .projgeo import ProjLine, ProjPoint, line_in_surface, line_through, membership


class UnknownCheckId(ValueError):
    """Requested check id is not in the catalog."""


class CheckFailure(AssertionError):
    """A certified claim failed; the message carries the discrepancy."""


SCHEMA_VERSION = 1

CONVENTIONS = {
    "index_convention": "permutation letter j in {1..5} acts on coordinate x_{j-1}; "
                        "a permutation moves entries, new[p(j)] = old[j]",
    "group_generators": "(12345) and (2354), generating the order-20 group",
    "exceptional_labels": "E1 joins the length-4 orbit points with exponent patterns "
                          "a = 1 and a = 4; E2 joins a = 2 and a = 3",
    "ruling_labels": "f1, f2 are the isotropic classes of the rank-2 quotient with "
                     "pairing 1, signs fixed against -K; the f1/f2 swap is conventional",
    "orbit_assignment": "K1 is the orbit of (0 : -i : -1 : 1 : i), K2 its complex "
                        "conjugate; the normalizer involution interchanges them",
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


class Context:
    """Shared exact-geometry artifacts, built lazily and cached per run."""

    def __init__(self):
        groups = standard_groups()
        self.g20 = groups["G20"]
        self.c4 = groups["C4"]
        self.d10 = groups["D10"]
        self.clebsch = clebsch_surface()
        self.quadric = quadric_surface()

    @cached_property
    def clebsch_census(self):
        return orbit_census(self.clebsch, self.g20, 8)

    @cached_property
    def quadric_census(self):
        return orbit_census(self.quadric, self.g20, 8)

    @cached_property
    def cfg(self):
        return lines27(self.clebsch, self.g20)

    @cached_property
    def pic(self):
        return reconstruct_picard(self.cfg, self.g20)

    @cached_property
    def families(self):
        return invariant_skew_families(self.cfg, self.g20)

    @cached_property
    def normalizer(self):
        return assemble_normalizer(self.g20)

    def quadric_orbits5(self):
        k1, k2 = self.quadric_census.orbits_by_length[5]
        u1 = ProjPoint.of([0, -I_UNIT, -ONE, ONE, I_UNIT])
        if u1 in set(k2):
            k1, k2 = k2, k1
        return list(k1), list(k2)


# -- verbatim point lists -------------------------------------------------------

def _verbatim_orbit5() -> dict[str, list[ProjPoint]]:
    i = I_UNIT
    o1 = [
        [0, -1, 1, 1, -1], [-1, 0, -1, 1, 1], [1, -1, 0, -1, 1],
        [1, 1, -1, 0, -1], [-1, 1, 1, -1, 0],
    ]
    o2 = [
        [0, -i, -ONE, ONE, i], [i, 0, -i, -ONE, ONE], [ONE, i, 0, -i, -ONE],
        [-ONE, ONE, i, 0, -i], [-i, -ONE, ONE, i, 0],
    ]
    o3 = [
        [0, i, -ONE, ONE, -i], [-i, 0, i, -ONE, ONE], [ONE, -i, 0, i, -ONE],
        [-ONE, ONE, -i, 0, i], [i, -ONE, ONE, -i, 0],
    ]
    return {
        "O1": [ProjPoint.of(c) for c in o1],
        "O2": [ProjPoint.of(c) for c in o2],
        "O3": [ProjPoint.of(c) for c in o3],
    }


def _closed_form_lines() -> dict[str, ProjLine]:
    """L_k as pairs of sign forms: L1: x1+x4 = x2+x3 = 0 and its shifts."""
    data = {
        "L1": ((1, 4), (2, 3)),
        "L2": ((0, 2), (3, 4)),
        "L3": ((0, 4), (1, 3)),
        "L4": ((0, 1), (2, 4)),
        "L5": ((0, 3), (1, 2)),
    }
    return {lab: sign_line(p1, p2) for lab, (p1, p2) in data.items()}


def _orbit_as_sorted(points) -> list:
    return sorted(points, key=ProjPoint.sort_key)


def _points_equal(a, b) -> bool:
    return _orbit_as_sorted(a) == _orbit_as_sorted(b)


# -- the checks -------------------------------------------------------------------

# The catalog: id -> claim and id -> function, in definition order.  The
# functions stay a plain dict read at run time so callers can replace entries.
# Each run records the Context stages its check built (CheckResult.built).
STATEMENTS: dict[str, str] = {}
CHECK_FUNCTIONS: dict[str, Callable[[Context], dict]] = {}


def check(cid: str, statement: str):
    """Register the decorated function as the check `cid` certifying `statement`."""
    def register(fn):
        STATEMENTS[cid] = statement
        CHECK_FUNCTIONS[cid] = fn
        return fn
    return register


@check("clebsch-smooth",
       "the diagonal cubic {sum x_i = sum x_i^3 = 0} and the quadric "
       "{sum x_i = sum x_i^2 = 0} are smooth")
def check_clebsch_smooth(ctx: Context) -> dict:
    cert = smoothness_check(ctx.clebsch)
    _require(cert["smooth"], "cubic smoothness certificate failed")
    cert_q = smoothness_check(ctx.quadric)
    _require(cert_q["smooth"], "quadric smoothness certificate failed")
    return {"cubic": cert, "quadric": cert_q}


@check("clebsch-orbit-4",
       "unique length-4 orbit on the cubic: the four eigenpoints "
       "(1 : z^a : z^2a : z^3a : z^4a) of the 5-cycle")
def check_clebsch_orbit4(ctx: Context) -> dict:
    orbits = ctx.clebsch_census.orbits_by_length.get(4, [])
    _require(len(orbits) == 1, f"expected one length-4 orbit, found {len(orbits)}")
    _require(
        _points_equal(orbits[0], length4_orbit_points()),
        "length-4 orbit does not match the verbatim eigenpoint list",
    )
    _, stab = orbit_and_stabilizer(ctx.g20, orbits[0][0])
    _require(stab.order() == 5, "stabilizer of the length-4 orbit must be the 5-part")
    return {
        "orbit": [p.serialize() for p in _orbit_as_sorted(orbits[0])],
        "stabilizer_order": stab.order(),
    }


@check("clebsch-orbit-5",
       "exactly three length-5 orbits on the cubic (the V, U, W point lists); "
       "(-4:1:1:1:1) is fixed by the order-4 subgroup but is not on the cubic")
def check_clebsch_orbit5(ctx: Context) -> dict:
    orbits = ctx.clebsch_census.orbits_by_length.get(5, [])
    _require(len(orbits) == 3, f"expected three length-5 orbits, found {len(orbits)}")
    verbatim = _verbatim_orbit5()
    matched = {}
    for name, pts in verbatim.items():
        hits = [k for k, orb in enumerate(orbits) if _points_equal(orb, pts)]
        _require(len(hits) == 1, f"verbatim orbit {name} not matched exactly once")
        matched[name] = hits[0]
    r4 = ProjPoint.of([-4, 1, 1, 1, 1])
    fixed_by_c4 = all(el.apply_point(r4) == r4 for el in ctx.c4.elements)
    _require(fixed_by_c4, "(-4:1:1:1:1) must be fixed by the order-4 subgroup")
    on_cubic = membership(r4, [ctx.clebsch.hyperplane, ctx.clebsch.form])
    _require(not on_cubic, "(-4:1:1:1:1) must fail cubic membership")
    cubes = ctx.clebsch.form.evaluate(r4.coords)
    return {
        "orbit_labels": matched,
        "R4": r4.serialize(),
        "R4_fixed_by_c4": fixed_by_c4,
        "R4_on_cubic": on_cubic,
        "R4_cube_sum": cubes.serialize(),
    }


@check("clebsch-census-lt8",
       "complete orbit census of length < 8 on the cubic: one orbit of length 4, "
       "three of length 5, none of length 1 or 2")
def check_clebsch_census(ctx: Context) -> dict:
    lengths = {r: len(v) for r, v in ctx.clebsch_census.orbits_by_length.items()}
    _require(lengths == {4: 1, 5: 3}, f"census lengths {lengths} != {{4: 1, 5: 3}}")
    return ctx.clebsch_census.serialize()


@check("lines-27",
       "the cubic carries exactly 27 lines, each meeting 10 others; L1..L5 have "
       "their closed-form equations, pass through U_i and W_i, and are disjoint")
def check_lines27(ctx: Context) -> dict:
    cfg = ctx.cfg
    _require(len(cfg.lines) == 27, f"found {len(cfg.lines)} lines")
    _require(len(set(cfg.lines)) == 27, "lines are not distinct")
    row_sums = sorted({sum(row) for row in cfg.incidence})
    _require(row_sums == [10], f"incidence row sums {row_sums} != [10]")
    closed = _closed_form_lines()
    verb5 = _verbatim_orbit5()
    for k in range(1, 6):
        lab = f"L{k}"
        _require(cfg.by_label(lab) == closed[lab], f"{lab} does not match its closed form")
        u_k, w_k = verb5["O2"][k - 1], verb5["O3"][k - 1]
        _require(closed[lab].contains(u_k), f"{lab} must pass through U{k}")
        _require(closed[lab].contains(w_k), f"{lab} must pass through W{k}")
    for a, b in itertools.combinations(range(1, 6), 2):
        ia, ib = cfg.labels.index(f"L{a}"), cfg.labels.index(f"L{b}")
        _require(cfg.incidence[ia][ib] == 0, f"L{a} and L{b} must be disjoint")
    # line calculus of the length-4 orbit: 2 of 6 pairs on the cubic, 4 on the quadric
    pts = length4_orbit_points()
    on_cubic, on_quadric = [], []
    for i, j in itertools.combinations(range(4), 2):
        line = line_through(pts[i], pts[j])
        if line_in_surface(line, ctx.clebsch.form):
            on_cubic.append([i + 1, j + 1])
        if line_in_surface(line, ctx.quadric.form):
            on_quadric.append([i + 1, j + 1])
    _require(on_cubic == [[1, 4], [2, 3]], f"on-cubic pair lines {on_cubic}")
    _require(len(on_quadric) == 4, f"{len(on_quadric)} on-quadric pair lines")
    return {
        "line_count": 27,
        "meets_per_line": 10,
        "labels": list(cfg.labels),
        "tags": list(cfg.tags),
        "pair_lines_on_cubic": on_cubic,
        "pair_lines_on_quadric": on_quadric,
        "configuration": cfg.serialize(),
    }


@check("skew-families",
       "exactly two maximal invariant skew families of lines: {E1, E2} and "
       "{L1..L5} (the two extremal contractions)")
def check_skew_families(ctx: Context) -> dict:
    maximal = [f for f in ctx.families if f.maximal]
    sizes = sorted(f.size() for f in maximal)
    _require(sizes == [2, 5], f"maximal family sizes {sizes} != [2, 5]")
    labels = {f.size(): list(f.labels) for f in maximal}
    _require(labels[2] == ["E1", "E2"], f"size-2 family is {labels[2]}")
    _require(labels[5] == ["L1", "L2", "L3", "L4", "L5"], f"size-5 family is {labels[5]}")
    orbit_sizes = sorted(len(o) for o in line_orbits(ctx.cfg, ctx.g20))
    _require(sum(orbit_sizes) == 27, "line orbits must partition the 27 lines")
    _require(all(20 % s == 0 for s in orbit_sizes), "line orbit sizes must divide 20")
    return {
        "families": [
            {"labels": list(f.labels), "size": f.size(), "maximal": f.maximal}
            for f in ctx.families
        ],
        "line_orbit_sizes": orbit_sizes,
    }


@check("quadric-census-lt8",
       "complete orbit census of length < 8 on the quadric: one orbit of length 4 "
       "(the same eigenpoints) and exactly two of length 5 (K1, K2)")
def check_quadric_census(ctx: Context) -> dict:
    lengths = {r: len(v) for r, v in ctx.quadric_census.orbits_by_length.items()}
    _require(lengths == {4: 1, 5: 2}, f"census lengths {lengths} != {{4: 1, 5: 2}}")
    orbit4 = ctx.quadric_census.orbits_by_length[4][0]
    _require(
        _points_equal(orbit4, length4_orbit_points()),
        "the length-4 orbit on the quadric must reuse the cubic's eigenpoint orbit",
    )
    k1, k2 = ctx.quadric_orbits5()
    verb = _verbatim_orbit5()
    _require(_points_equal(k1, verb["O2"]), "K1 must equal the orbit O2")
    _require(_points_equal(k2, verb["O3"]), "K2 must equal the orbit O3")
    v_on_quadric = membership(ProjPoint.of([0, -1, 1, 1, -1]),
                              [ctx.quadric.hyperplane, ctx.quadric.form])
    _require(not v_on_quadric, "the orbit O1 must not lie on the quadric")
    return ctx.quadric_census.serialize()


@check("general-position-k1-k2",
       "K1 and K2 are in general position on the quadric (no 2 points on a line "
       "in the quadric, no 4 coplanar); the length-4 orbit is not")
def check_general_position(ctx: Context) -> dict:
    k1, k2 = ctx.quadric_orbits5()
    cert1 = general_position_on_quadric(k1, ctx.quadric)
    cert2 = general_position_on_quadric(k2, ctx.quadric)
    _require(cert1["pass"], "K1 must be in general position")
    _require(cert2["pass"], "K2 must be in general position")
    cert_k = general_position_on_quadric(length4_orbit_points(), ctx.quadric)
    _require(not cert_k["pass"], "the length-4 orbit must fail general position")
    _require(
        len(cert_k["pair_violations"]) == 4,
        f"{len(cert_k['pair_violations'])} of 6 pair lines lie on the quadric, expected 4",
    )
    return {"K1": cert1, "K2": cert2, "length4_orbit": cert_k}


@check("ruling-minus2",
       "blowing up the length-4 orbit on the quadric creates four (-2)-classes "
       "(one per ruling through two points): not a del Pezzo surface")
def check_ruling_minus2(ctx: Context) -> dict:
    cert = ruling_blowup_check(ctx.quadric)
    _require(cert["minus_two_count"] == 4, "expected exactly four (-2)-classes")
    _require(
        cert["five_point_blowup_minus_one_classes"] == 27,
        "five-point blow-up must carry exactly 27 (-1)-classes",
    )
    return cert


@check("picard-reconstruct",
       "the cubic's Picard lattice has rank 7 and (-K)^2 = 3, rebuilt from line "
       "incidence alone and stable across sixer choices")
def check_picard_reconstruct(ctx: Context) -> dict:
    pic = ctx.pic
    _require(pic.rank == 7, f"rank {pic.rank} != 7")
    _require(pic.degree() == 3, f"(-K)^2 = {pic.degree()} != 3")
    # basis stability: three distinct sixers give matching invariant data
    sixers = find_sixers(ctx.cfg, limit=3)
    _require(len(sixers) == 3, "expected at least three sixers")
    ranks = []
    for sixer in sixers:
        alt = reconstruct_picard(ctx.cfg, ctx.g20, sixer=sixer)
        _require(alt.degree() == 3, "alternative sixer gives wrong degree")
        ranks.append(invariant_rank(alt))
    _require(ranks == [2, 2, 2], f"invariant ranks across sixers: {ranks}")
    # the 27 geometric lines exhaust the numerical (-1)-classes, so the only
    # negative curves on the blow-up are the (-1)-lines: a del Pezzo surface
    numerical = set(cubic_minus_one_classes())
    geometric = {dc.vector for dc in pic.marked}
    _require(len(numerical) == 27, f"{len(numerical)} numerical (-1)-classes, expected 27")
    _require(numerical == geometric, "line classes must exhaust the (-1)-classes")
    return {
        "rank": pic.rank,
        "anticanonical_square": pic.degree(),
        "sixers_checked": [list(s) for s in sixers],
        "invariant_ranks_across_sixers": ranks,
        "numerical_minus_one_classes": len(numerical),
        "lines_exhaust_minus_one_classes": True,
        "lattice": pic.serialize(),
    }


@check("invariant-ranks",
       "invariant Picard ranks: 2 on the cubic, 1 after contracting {E1, E2}, "
       "1 after contracting {L1..L5}")
def check_invariant_ranks(ctx: Context) -> dict:
    pic = ctx.pic
    r_cubic = invariant_rank(pic)
    t5, _ = contraction(pic, ("E1", "E2"))
    t8, _ = contraction(pic, ("L1", "L2", "L3", "L4", "L5"))
    r5, r8 = invariant_rank(t5), invariant_rank(t8)
    _require(r_cubic == 2, f"invariant rank of the cubic is {r_cubic}, expected 2")
    _require(r5 == 1, f"invariant rank after contracting E1, E2 is {r5}, expected 1")
    _require(r8 == 1, f"invariant rank after contracting L1..L5 is {r8}, expected 1")
    return {
        "cubic": r_cubic,
        "after_contracting_pair": r5,
        "after_contracting_five": r8,
    }


@check("contractions-two",
       "the two families contract to surfaces of degree 5 (rank 5) and degree 8 "
       "(rank 2, hyperbolic intersection form)")
def check_contractions_two(ctx: Context) -> dict:
    maximal = [f for f in ctx.families if f.maximal]
    _require(len(maximal) == 2, f"{len(maximal)} maximal families, expected 2")
    certs = {}
    for fam in maximal:
        target, _ = contraction(ctx.pic, fam.labels)
        certs[",".join(fam.labels)] = {
            "rank": target.rank,
            "degree": target.degree(),
            "gram": [[int(x) for x in row] for row in target.lattice.gram],
        }
    degrees = sorted(c["degree"] for c in certs.values())
    _require(degrees == [5, 8], f"contraction degrees {degrees} != [5, 8]")
    return {
        "contractions": certs,
        "link_type": "I",
        "link_description": "both contraction targets are minimal del Pezzo surfaces "
                            "(degrees 5 and 8), so the induced link is of type I: "
                            "del Pezzo blown up on both sides of a common resolution",
    }


@check("divisor-relations",
       "sigma*(H) = 2 pi*(-K) - 3(E1+E2) and F1+...+F5 = 3 pi*(-K) - 5(E1+E2) "
       "hold exactly; E1, E2 push forward with bidegrees (2,1) and (1,2)")
def check_divisor_relations(ctx: Context) -> dict:
    return divisor_relation_check(ctx.pic)


@check("selfmap-degree",
       "the composite self-map pairs the two anticanonical pullbacks to 50 in "
       "the rank-12 resolution lattice: degree 10, hence not biregular")
def check_selfmap_degree(ctx: Context) -> dict:
    k1, k2 = ctx.quadric_orbits5()
    cert = selfmap_degree(ctx.quadric, ctx.g20, k1, k2, ctx.d10)
    _require(cert["pairing"] == 50, f"pairing {cert['pairing']} != 50")
    _require(cert["degree"] == 10, f"degree {cert['degree']} != 10")
    _require(cert["identity_pairing"] == 5, "identity composite must pair to 5")
    _require(cert["non_biregular"], "degree > 1 must certify non-biregularity")
    cert["link_type"] = "composition of two type-I links"
    return cert


@check("dp5-orbit-descent",
       "descent to the quintic surface: the unique orbit of length < 5 is the "
       "length-2 image of the contracted pair of lines")
def check_dp5_orbit_descent(ctx: Context) -> dict:
    lengths = set(ctx.clebsch_census.orbits_by_length)
    _require(1 not in lengths and 2 not in lengths,
             "cubic census must contain no orbits of length 1 or 2")
    orbit4 = ctx.clebsch_census.orbits_by_length[4]
    _require(len(orbit4) == 1, "cubic census must contain exactly one length-4 orbit")
    pts = length4_orbit_points()
    e1 = ctx.cfg.by_label("E1")
    e2 = ctx.cfg.by_label("E2")
    on_e1 = [a + 1 for a, p in enumerate(pts) if e1.contains(p)]
    on_e2 = [a + 1 for a, p in enumerate(pts) if e2.contains(p)]
    _require(on_e1 == [1, 4], f"E1 contains orbit points {on_e1}, expected [1, 4]")
    _require(on_e2 == [2, 3], f"E2 contains orbit points {on_e2}, expected [2, 3]")
    orbits = line_orbits(ctx.cfg, ctx.g20)
    two_orbit = [o for o in orbits if len(o) == 2]
    _require(len(two_orbit) == 1, "the E-lines must form the unique size-2 line orbit")
    labels = sorted(ctx.cfg.labels[i] for i in two_orbit[0])
    _require(labels == ["E1", "E2"], f"size-2 line orbit is {labels}")
    return {
        "no_short_orbits_on_cubic": sorted(lengths),
        "orbit4_points_on_E1": on_e1,
        "orbit4_points_on_E2": on_e2,
        "e_lines_swapped": True,
        "length_three_excluded": "3 does not divide 20",
        "conclusion": "the unique orbit of length < 5 downstairs is the length-2 "
                      "image of the contracted pair",
        "line_orbit_sizes": sorted({len(o) for o in orbits}),
    }


@check("thm-g40",
       "the quadric-preserving projective normalizer of the represented group "
       "has order 40 and structure C2 x G20; its extra involution swaps K1 and K2")
def check_thm_g40(ctx: Context) -> dict:
    res = ctx.normalizer
    _require(res.order == 40, f"normalizer order {res.order} != 40")
    _require(res.structure["direct_product_c2_x_g20"], "structure must be C2 x G20")
    _require(res.structure["index"] == 2, "represented group must have index 2")
    k1, k2 = ctx.quadric_orbits5()
    swaps = involution_swaps_orbits(res, k1, k2)
    _require(swaps, "the extra involution must map K1 onto K2")
    return {
        "order": res.order,
        "structure": res.structure,
        "involution_swaps_K1_K2": swaps,
        "intertwiners": [t.serialize() for t in res.intertwiners],
        "result": res.serialize(),
    }


class CheckResult:
    def __init__(self, check_id: str, statement: str, status: str, certificate: dict,
                 wall_time_ms: float = 0.0, built: tuple[str, ...] = ()):
        self.check_id = check_id
        self.statement = statement
        self.status = status  # pass | fail | error
        self.certificate = certificate
        self.wall_time_ms = wall_time_ms
        self.built = built  # the Context stages this run built, in build order

    def serialize(self) -> dict:
        # wall time and built stages are left out: reports must be byte-deterministic
        return {"id": self.check_id, "statement": self.statement, "status": self.status,
                "certificate": self.certificate}


class Report:
    def __init__(self, version: str, conventions: dict, checks: list[CheckResult] | None = None):
        self.version = version
        self.conventions = conventions
        self.checks = [] if checks is None else checks

    @property
    def overall(self) -> str:
        return "pass" if all(c.status == "pass" for c in self.checks) else "fail"

    def serialize(self) -> dict:
        return {"version": self.version, "schema_version": SCHEMA_VERSION,
                "conventions": self.conventions, "checks": [c.serialize() for c in self.checks],
                "overall": self.overall}

    def write_json(self, fh) -> None:
        """Write the JSON report to the text file fh as it is produced."""
        write_json(self.serialize(), fh)
        fh.write("\n")

    def write_markdown(self, fh) -> None:
        """Write the markdown report to the text file fh as it is produced."""
        write = fh.write
        write(f"# Verification report\n\nTool version: {self.version} (schema {SCHEMA_VERSION})"
              "\n\n## Conventions\n\n")
        for key in sorted(self.conventions):
            write(f"- **{key}**: {self.conventions[key]}\n")
        write("\n## Summary\n\n| check | status | claim |\n| --- | --- | --- |\n")
        for c in self.checks:
            write(f"| `{c.check_id}` | {c.status.upper()} | {c.statement} |\n")
        write(f"\n**Overall: {self.overall.upper()}**\n\n## Certificates\n")
        for c in self.checks:
            write(f"\n### `{c.check_id}`\n\n{c.statement}\n\n```json\n")
            write_json(c.certificate, fh)
            write("\n```\n")

    def to_json(self) -> str:
        return _written(self.write_json)

    def to_markdown(self) -> str:
        return _written(self.write_markdown)


def _written(writer) -> str:
    """The text that writer writes to a file."""
    buf = io.StringIO()
    writer(buf)
    return buf.getvalue()


def _run_check(cid: str, ctx: Context) -> CheckResult:
    # a cached stage enters vars(ctx) when its build returns, so the names
    # that are new after the check are the stages it built, in build order
    present = set(vars(ctx))
    start = time.perf_counter()
    try:
        certificate = CHECK_FUNCTIONS[cid](ctx)
        status = "pass"
    except CheckFailure as exc:
        certificate = {"failure": str(exc)}
        status = "fail"
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        certificate = {"error": f"{type(exc).__name__}: {exc}"}
        status = "error"
    elapsed = (time.perf_counter() - start) * 1000.0
    built = tuple(name for name in vars(ctx) if name not in present)
    return CheckResult(cid, STATEMENTS[cid], status, certificate, elapsed, built)


def _selected(selection: list[str] | None) -> list[str]:
    """The ids of `selection` (all by default) in catalog order."""
    if not selection:
        return list(STATEMENTS)
    unknown = [s for s in selection if s not in STATEMENTS]
    if unknown:
        raise UnknownCheckId(", ".join(unknown))
    return [cid for cid in STATEMENTS if cid in set(selection)]


def run_checks(selection: list[str] | None = None,
               context: Context | None = None) -> Report:
    """Run the selected checks (all by default) in this process and assemble
    the report, ordered by check id; a passed `context` is used, and so
    filled in, by the checks."""
    ctx = context if context is not None else Context()
    results = [_run_check(cid, ctx) for cid in _selected(selection)]
    results.sort(key=lambda r: r.check_id)
    return Report(__version__, dict(CONVENTIONS), results)
