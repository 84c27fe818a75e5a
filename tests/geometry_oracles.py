"""Helpers that only the tests need: symbolic restriction, division, line points.

The package decides line membership and residual lines by evaluating forms at
points.  These expand a form symbolically on a line or a plane and divide it
by linear forms, as an independent reference implementation.  Polynomials
are sparse dicts from exponent tuples to field elements.

The package writes a permutation's eigenspaces down in closed form; the
reference here takes the kernel of P - lambda for each candidate root of
unity.  The package finds fixed loci by restricting one generator's
eigenspace; the reference intersects every generator's eigenspace, found
by elimination, and then the hyperplane, one span intersection each.  The
package closes a point's orbit under the generators and tests each element
for fixing it; the reference canonicalises the point's image under every
element.  The package lists the normalizer's classes as cosets; the
reference closes the projective group under its generators.  The package
reads hyperplane coordinates as prefix sums; the reference solves for them
in the basis.  The package lists the 27 lines in closed form; the reference
closes seed lines under residuation and the group.  The package writes each
intertwiner down as a Gauss-sum circulant; the reference averages seed
matrices over the group.  The package writes a quadratic form's gram on the
hyperplane entrywise; the reference multiplies B^T G B.  The package writes
the Picard action matrices from the line permutation; the reference inverts
the matrix of a basis of line classes.
"""

import itertools
from typing import Sequence

from dp5links.census import LineConfiguration, Surface, induced_line_permutation
from dp5links.cyclo import FieldElement, ONE, ZERO, rational, root_of_unity
from dp5links.groups import (
    FiniteGroup,
    FixedLocusComponent,
    OrbitStabilizerViolation,
    Permutation,
    UnsupportedEigenvalue,
    closure,
)
from dp5links.linalg import (
    Grid,
    Vector,
    coordinates_in_basis,
    identity_grid,
    kernel_basis,
    mat_mul,
    mat_vec,
    rref,
    solve,
    transpose,
)
from dp5links.normalizer import Character, NormalizerResult, canonical_projective
from dp5links.picard import PicardLattice
from dp5links.projgeo import (
    HYPERPLANE_BASIS,
    FactorizationFailure,
    HomogeneousForm,
    ProjLine,
    ProjPoint,
    SkewLines,
    line_in_surface,
    line_through,
    residual_line,
)


def coeff_map(form: HomogeneousForm) -> dict:
    return dict(form.coeffs)


def is_zero_form(form: HomogeneousForm) -> bool:
    return not form.coeffs


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, ZERO) + c
        if s.is_zero():
            out.pop(m, None)
        else:
            out[m] = s
    return out


def poly_scale(a: dict, c: FieldElement) -> dict:
    if c.is_zero():
        return {}
    return {m: v * c for m, v in a.items()}


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            s = out.get(m, ZERO) + c1 * c2
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
    return out


def pullback(form: HomogeneousForm, matrix: Sequence[Sequence[FieldElement]]) -> HomogeneousForm:
    """Substitute x_i = sum_j matrix[i][j] y_j; matrix is nvars x m."""
    m = len(matrix[0])
    lin = []
    for i in range(form.nvars):
        row = {}
        for j in range(m):
            if not matrix[i][j].is_zero():
                mono = [0] * m
                mono[j] = 1
                row[tuple(mono)] = matrix[i][j]
        lin.append(row)
    unit = {tuple([0] * m): ONE}
    total: dict = {}
    for mono, c in form.coeffs:
        term = dict(unit)
        for i, e in enumerate(mono):
            for _ in range(e):
                term = poly_mul(term, lin[i])
        total = poly_add(total, poly_scale(term, c))
    return HomogeneousForm.of(m, form.degree, total)


def divide_by_linear(poly: dict, alpha: dict, nvars: int) -> dict:
    """Exact quotient poly / alpha for a linear form alpha; raises on remainder."""
    pivot = None
    pivot_coeff = None
    for m, c in sorted(alpha.items()):
        k = next((i for i, e in enumerate(m) if e), None)
        if k is not None:
            pivot, pivot_coeff = k, c
            break
    if pivot is None:
        raise ValueError("alpha is not a linear form")
    inv = pivot_coeff.inverse()
    g = dict(poly)
    quotient: dict = {}
    while g:
        # highest pivot-degree monomial
        mono = max(g, key=lambda m: (m[pivot], m))
        if mono[pivot] == 0:
            raise FactorizationFailure("exact division left a remainder")
        tm = list(mono)
        tm[pivot] -= 1
        t = {tuple(tm): g[mono] * inv}
        quotient = poly_add(quotient, t)
        g = poly_add(g, poly_scale(poly_mul(t, alpha), -ONE))
    return quotient


def restrict_to_line(form: HomogeneousForm, line: ProjLine) -> HomogeneousForm:
    """Binary form in the line parameters (s, t)."""
    matrix = [[a, b] for a, b in zip(line.basis[0], line.basis[1])]
    return pullback(form, matrix)


def point_at(line: ProjLine, s: FieldElement, t: FieldElement) -> ProjPoint:
    """The point s * row0 + t * row1 of the line's basis."""
    return ProjPoint.of([s * a + t * b for a, b in zip(line.basis[0], line.basis[1])])


def plane_of(a: ProjLine, b: ProjLine) -> list[list[FieldElement]]:
    """Reduced 3-row basis of the plane spanned by two meeting lines."""
    red, pivots = rref([list(r) for r in a.basis] + [list(r) for r in b.basis])
    if len(pivots) != 3:
        raise SkewLines("lines do not meet")
    return red[:3]


def restrict_to_plane(form: HomogeneousForm, plane: list[list[FieldElement]]) -> HomogeneousForm:
    """Ternary form in the coordinates of a 3-row plane basis."""
    return pullback(form, [[plane[j][i] for j in range(3)] for i in range(len(plane[0]))])


def linear_form_in_plane(line: ProjLine, plane: list[list[FieldElement]]) -> dict:
    """The linear form, in plane coordinates, that cuts the line out of the plane."""
    cols = [[plane[j][i] for j in range(3)] for i in range(len(plane[0]))]
    coords = []
    for row in line.basis:
        c = solve(cols, list(row))
        if c is None:
            raise ValueError("line does not lie in the plane")
        coords.append(c)
    ker = kernel_basis(coords)
    if len(ker) != 1:
        raise FactorizationFailure("the line does not cut one linear form")
    return {tuple(int(i == k) for i in range(3)): ker[0][k]
            for k in range(3) if not ker[0][k].is_zero()}


def residual_line_by_division(cubic: HomogeneousForm, a: ProjLine, b: ProjLine) -> ProjLine:
    """Residual line of two meeting lines: divide the plane section by a and b."""
    plane = plane_of(a, b)
    ternary = coeff_map(restrict_to_plane(cubic, plane))
    quotient = divide_by_linear(ternary, linear_form_in_plane(a, plane), 3)
    gamma = divide_by_linear(quotient, linear_form_in_plane(b, plane), 3)
    gamma_vec = [ZERO, ZERO, ZERO]
    for mono, c in gamma.items():
        gamma_vec[mono.index(1)] = c
    params = kernel_basis([gamma_vec])
    if len(params) != 2:
        raise FactorizationFailure("the residual factor is not a linear form")
    points = [[sum((cu * row[i] for cu, row in zip(u, plane)), ZERO) for i in range(len(plane[0]))]
              for u in params]
    return ProjLine.span(points[0], points[1])


def intersect_spans(basis_a: list[Vector], basis_b: list[Vector]) -> list[Vector]:
    """Basis of the intersection of two row-span subspaces of K^n."""
    if not basis_a or not basis_b:
        return []
    # x in both spans: x = sum u_i a_i = sum v_j b_j; solve [A^T | -B^T] kernel.
    n = len(basis_a[0])
    stacked = [
        [basis_a[i][r] for i in range(len(basis_a))]
        + [-basis_b[j][r] for j in range(len(basis_b))]
        for r in range(n)
    ]
    out = []
    for ker in kernel_basis(stacked):
        coeffs = ker[: len(basis_a)]
        vec = [ZERO] * n
        for c, a_row in zip(coeffs, basis_a):
            if not c.is_zero():
                vec = [x + c * y for x, y in zip(vec, a_row)]
        if any(not x.is_zero() for x in vec):
            out.append(vec)
    red, pivots = rref(out) if out else ([], [])
    return [red[i] for i in range(len(pivots))]


def permutation_matrix(images: Sequence[int]) -> Grid:
    """Matrix P with P e_j = e_{images[j]} (columns permuted onto rows)."""
    n = len(images)
    return [[ONE if images[j] == i else ZERO for j in range(n)] for i in range(n)]


def eigenspaces_by_elimination(p: Permutation) -> dict[FieldElement, list[Vector]]:
    """groups.eigenspaces_of_permutation, as the kernel of P - lambda for each
    m-th root of unity lambda, m a cycle length of p (1 for fixed points)."""
    n = len(p.images)
    lengths = {1}
    for start in range(n):
        m, j = 1, p.images[start]
        while j != start:
            m, j = m + 1, p.images[j]
        lengths.add(m)
    if any(m % 3 == 0 for m in lengths):
        raise UnsupportedEigenvalue("cube roots of unity are not elements of Q(zeta_20)")
    mat = permutation_matrix(p.images)
    spaces: dict[FieldElement, list[Vector]] = {}
    for lam in {root_of_unity(m, j) for m in lengths for j in range(m)}:
        ker = kernel_basis([[x - lam if i == j else x for j, x in enumerate(row)]
                            for i, row in enumerate(mat)])
        if ker:
            spaces[lam] = ker
    if sum(map(len, spaces.values())) != n:
        raise ArithmeticError(f"eigenspaces of {p.to_cycles()} do not span K^{n}")
    return spaces


def fixed_locus_by_intersection(h: FiniteGroup) -> list[FixedLocusComponent]:
    """groups.fixed_locus, by intersecting per-generator eigenspaces over all
    tuples of candidate eigenvalues, then with {sum x_i = 0}."""
    n = 5
    gens = h.generators
    if not gens:
        spaces = [([tuple([ONE if i == j else ZERO for j in range(n)]) for i in range(n)], ())]
    else:
        per_gen = [eigenspaces_by_elimination(g) for g in gens]
        spaces = []
        keys = [sorted(d.keys(), key=lambda lam: tuple(lam.coeffs)) for d in per_gen]
        for combo in itertools.product(*keys):
            basis = per_gen[0][combo[0]]
            for k in range(1, len(gens)):
                basis = intersect_spans(basis, per_gen[k][combo[k]])
                if not basis:
                    break
            if basis:
                spaces.append(([tuple(v) for v in basis], tuple(combo)))
    hyper_kernel = kernel_basis([[ONE] * n])
    components = []
    for basis, character in spaces:
        vecs = intersect_spans([list(v) for v in basis], hyper_kernel)
        if not vecs:
            continue
        red, pivots = rref(vecs)
        vecs = [tuple(red[i]) for i in range(len(pivots))]
        dim = len(vecs) - 1
        components.append(FixedLocusComponent(
            character=character,
            basis=tuple(vecs),
            projective_dimension=dim,
            positive_dimensional=dim >= 1,
        ))
    components.sort(key=lambda c: tuple(tuple(x.coeffs for x in row) for row in c.basis))
    return components


def orbit_and_stabilizer_by_images(g: FiniteGroup, p: ProjPoint) -> tuple[list[ProjPoint],
                                                                         FiniteGroup]:
    """groups.orbit_and_stabilizer, by canonicalising the image of p under
    every element of g."""
    images = [el.apply_point(p) for el in g.elements]
    orbit = set(images)
    stab_elements = [el for el, q in zip(g.elements, images) if q == p]
    stab = FiniteGroup(tuple(stab_elements), tuple(sorted(stab_elements, key=Permutation.sort_key)))
    if len(orbit) * stab.order() != g.order():
        raise OrbitStabilizerViolation(
            f"orbit of length {len(orbit)} and stabilizer of order {stab.order()} "
            f"in a group of order {g.order()}")
    return sorted(orbit, key=ProjPoint.sort_key), stab


def normalizer_classes_by_closure(result: NormalizerResult) -> dict:
    """The normalizer's classes {key: first matrix found}, by closing the
    identity under the generators that are not projectively the identity."""
    ident = identity_grid(4)
    ident_key = canonical_projective(ident)
    movers = [m for m in result.generator_matrices if canonical_projective(m) != ident_key]
    return closure([ident], movers, mat_mul, key=canonical_projective)


def restricted_representation_by_elimination(g: FiniteGroup) -> dict[Permutation, Grid]:
    """normalizer.restricted_representation, by one batched elimination for
    the coordinates of every image of a hyperplane basis vector."""
    basis = [[row[j] for row in HYPERPLANE_BASIS] for j in range(4)]
    coords = coordinates_in_basis(basis, [h.apply_vector(v) for h in g.elements for v in basis])
    return {h: [[rational(coords[4 * k + j][i]) for j in range(4)] for i in range(4)]
            for k, h in enumerate(g.elements)}


def hyperplane_basis_grid() -> list[list[FieldElement]]:
    """HYPERPLANE_BASIS as a 5x4 matrix B over K."""
    return [[rational(x) for x in row] for row in HYPERPLANE_BASIS]


def hyperplane_gram_by_products(form: HomogeneousForm) -> Grid:
    """projgeo.hyperplane_gram, as B^T G B for the polar matrix G of the form."""
    g = [[ZERO] * 5 for _ in range(5)]
    for mono, c in form.coeffs:
        support = [i for i, e in enumerate(mono) if e]
        if len(support) == 1:
            g[support[0]][support[0]] = c
        else:
            i, j = support
            g[i][j] = g[j][i] = c / rational(2)
    b = hyperplane_basis_grid()
    return mat_mul(transpose(b), mat_mul(g, b))


def picard_actions_by_inversion(cfg: LineConfiguration, g: FiniteGroup, pic: PicardLattice,
                                sixer: Sequence[int]) -> list[tuple[tuple[int, ...], ...]]:
    """picard.reconstruct_picard's action matrices, by inverting the matrix of a
    basis of line classes: the sixer, then the first line meeting exactly two
    of its members.  A generator's matrix is the images of the basis classes
    times the inverse."""
    classes = [dc.vector for dc in pic.marked]
    two = next(k for k in range(len(classes))
               if k not in sixer and sum(cfg.incidence[k][s] for s in sixer) == 2)
    basis_idx = list(sixer) + [two]
    # column j of the inverse of the basis matrix: the coordinates of e_j
    inverse_cols = coordinates_in_basis([classes[k] for k in basis_idx],
                                        [[int(i == j) for i in range(7)] for j in range(7)])
    assert None not in inverse_cols
    out = []
    for gen in g.generators:
        perm = induced_line_permutation(cfg, gen)
        images = [classes[perm[k]] for k in basis_idx]
        out.append(tuple(
            tuple(sum(img[i] * c for img, c in zip(images, col)) for col in inverse_cols)
            for i in range(7)))
    return out


def apply_on_hyperplane_by_solve(m: Grid, p: ProjPoint) -> ProjPoint | None:
    """normalizer.apply_on_hyperplane, solving for p's coordinates in the
    hyperplane basis; None when p is off the hyperplane."""
    b = hyperplane_basis_grid()
    coords = solve(b, list(p.coords))
    return None if coords is None else ProjPoint.of(mat_vec(b, mat_vec(m, coords)))


def lines27_by_residuation(s: Surface, gens: Sequence[Permutation]) -> dict[ProjLine, str]:
    """census.lines27's lines and tags {line: tag}, in discovery order, by
    residuation closure.

    The seeds are the sign lines {x_a + x_b = x_c + x_d = 0} and the lines
    through two points of the length-4 orbit that lie on s.  Each pair of
    known lines is decided once; a meeting pair adds its residual line
    (tagged "residuation") with the residual's orbit under gens, which must
    fix both forms of s, and the residual meets both lines of the pair.  The
    closure stops at 27 lines or when every pair is decided.
    """
    def on_s(line: ProjLine) -> bool:
        return line_in_surface(line, s.form) and line_in_surface(line, s.hyperplane)

    def difference(a: int, b: int) -> list[FieldElement]:
        return [ONE if i == a else -ONE if i == b else ZERO for i in range(5)]

    def transport(p: Permutation, line: ProjLine) -> ProjLine:
        return ProjLine.span(p.apply_vector(line.basis[0]), p.apply_vector(line.basis[1]))

    seeds = []
    for single in range(5):
        a, *rest = [i for i in range(5) if i != single]
        for b in rest:
            c, d = [i for i in rest if i != b]
            seeds.append((ProjLine.span(difference(a, b), difference(c, d)), "coordinate"))
    orbit4 = [ProjPoint.of([root_of_unity(5, a * j % 5) for j in range(5)]) for a in range(1, 5)]
    seeds += [(line_through(p, q), "pair-line") for p, q in itertools.combinations(orbit4, 2)]
    tags: dict[ProjLine, str] = {}
    for line, tag in seeds:
        if on_s(line):
            tags.setdefault(line, tag)
    lines = list(tags)
    index = {line: k for k, line in enumerate(lines)}
    meets: dict[tuple[int, int], bool] = {}
    while len(lines) < 27:
        todo = [ij for ij in itertools.combinations(range(len(lines)), 2) if ij not in meets]
        if not todo:
            break
        for i, j in todo:
            if (i, j) in meets:
                continue
            meets[i, j] = lines[i].meets(lines[j])
            if not meets[i, j]:
                continue
            residual = residual_line(s.form, lines[i], lines[j])
            for line in closure([residual], gens, transport):
                if line not in index:
                    index[line] = len(lines)
                    lines.append(line)
                    tags[line] = "residuation"
            k = index[residual]
            meets[min(i, k), max(i, k)] = meets[min(j, k), max(j, k)] = True
            if len(lines) >= 27:
                break
    return tags


def seed_averages(lam: Character, rep: dict[Permutation, Grid], g: FiniteGroup):
    """((r, c), sum over g of lam(h) rho(h) E_rc rho(h^-1)) for the matrix units
    E_rc in row-major order.  rho(h) E_rc rho(h^-1) is the outer product of
    column r of rho(h) and row c of rho(h^-1)."""
    for r, c in itertools.product(range(4), repeat=2):
        total = [[ZERO] * 4 for _ in range(4)]
        for h in g.elements:
            inv_row = rep[h.inverse()][c]
            for i, row in enumerate(rep[h]):
                x = lam(h) * row[r]
                total[i] = [acc + x * y for acc, y in zip(total[i], inv_row)]
        yield (r, c), total


def intertwiner_by_seed_average(lam: Character, rep: dict[Permutation, Grid],
                                g: FiniteGroup) -> Grid:
    """normalizer.intertwiner's matrix, as the first nonzero seed average."""
    return next(m for _, m in seed_averages(lam, rep, g)
                if any(not x.is_zero() for row in m for x in row))
