"""Exact projective geometry in P^4 and its hyperplane {sum x_i = 0}.

Points are normalized so the first nonzero coordinate is 1; lines are stored
as 2x5 row spans in reduced echelon form, so equality of geometric objects
is equality of canonical representatives.  Surfaces stay in P^4 as pairs
(hyperplane form, defining form) rather than having a variable eliminated,
which keeps every coordinate directly comparable with the classical models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .cyclo import FieldElement, ONE, ZERO, rational
from .linalg import kernel_basis, rank, rref, solve


class CoincidentPoints(ValueError):
    """line_through needs two distinct points."""


class SkewLines(ValueError):
    """Residuation needs two coplanar (meeting) lines."""


class NotOnSurface(ValueError):
    """A line required to lie on the surface does not."""


class FactorizationFailure(ArithmeticError):
    """Exact division left a remainder; input was not a plane section triple."""


@dataclass(frozen=True)
class ProjPoint:
    """Point of P^4 with normalized exact coordinates."""

    coords: tuple[FieldElement, ...]

    @staticmethod
    def of(coords: Iterable) -> "ProjPoint":
        cs = [c if isinstance(c, FieldElement) else rational(c) for c in coords]
        lead = next((c for c in cs if not c.is_zero()), None)
        if lead is None:
            raise ValueError("all coordinates are zero")
        inv = lead.inverse()
        return ProjPoint(tuple(c * inv for c in cs))

    def __len__(self) -> int:
        return len(self.coords)

    def serialize(self) -> list[list[str]]:
        return [c.serialize() for c in self.coords]

    @staticmethod
    def deserialize(data: Sequence[Sequence[str]]) -> "ProjPoint":
        return ProjPoint.of([FieldElement.deserialize(c) for c in data])

    def sort_key(self) -> tuple:
        return tuple(tuple(c.coeffs) for c in self.coords)

    def __repr__(self) -> str:
        return "(" + " : ".join(repr(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class ProjLine:
    """Line of P^4 as a canonical 2-row reduced echelon span."""

    basis: tuple[tuple[FieldElement, ...], tuple[FieldElement, ...]]

    @staticmethod
    def span(v1: Sequence[FieldElement], v2: Sequence[FieldElement]) -> "ProjLine":
        red, pivots = rref([list(v1), list(v2)])
        if len(pivots) != 2:
            raise ValueError("vectors do not span a line")
        return ProjLine((tuple(red[0]), tuple(red[1])))

    def contains(self, p: ProjPoint) -> bool:
        return rank([list(self.basis[0]), list(self.basis[1]), list(p.coords)]) == 2

    def meets(self, other: "ProjLine") -> bool:
        stacked = [list(r) for r in self.basis] + [list(r) for r in other.basis]
        return rank(stacked) <= 3

    def serialize(self) -> list[list[list[str]]]:
        return [[c.serialize() for c in row] for row in self.basis]

    @staticmethod
    def deserialize(data) -> "ProjLine":
        rows = [[FieldElement.deserialize(c) for c in row] for row in data]
        return ProjLine.span(rows[0], rows[1])

    def sort_key(self) -> tuple:
        return tuple(tuple(tuple(c.coeffs) for c in row) for row in self.basis)

    def __repr__(self) -> str:
        return f"ProjLine{self.basis!r}"


def line_through(p: ProjPoint, q: ProjPoint) -> ProjLine:
    """Canonical line through two distinct points."""
    if p == q:
        raise CoincidentPoints(f"coincident points {p!r}")
    return ProjLine.span(list(p.coords), list(q.coords))


# -- homogeneous forms --------------------------------------------------------

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class HomogeneousForm:
    """Homogeneous polynomial with exact coefficients, sparse exponent map."""

    nvars: int
    degree: int
    coeffs: tuple[tuple[Monomial, FieldElement], ...]

    @staticmethod
    def of(nvars: int, degree: int, terms: Mapping[Monomial, FieldElement] | Iterable
           ) -> "HomogeneousForm":
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        cleaned: dict[Monomial, FieldElement] = {}
        for mono, c in items:
            mono = tuple(int(e) for e in mono)
            c = c if isinstance(c, FieldElement) else rational(c)
            if len(mono) != nvars:
                raise ValueError(f"monomial {mono} has wrong arity")
            if sum(mono) != degree:
                raise ValueError(f"monomial {mono} is not of degree {degree}")
            if not c.is_zero():
                cleaned[mono] = cleaned.get(mono, ZERO) + c
        cleaned = {m: c for m, c in cleaned.items() if not c.is_zero()}
        return HomogeneousForm(nvars, degree, tuple(sorted(cleaned.items())))

    def coeff_map(self) -> dict[Monomial, FieldElement]:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, point: Sequence[FieldElement]) -> FieldElement:
        total = ZERO
        for mono, c in self.coeffs:
            term = c
            for x, e in zip(point, mono):
                for _ in range(e):
                    term = term * x
            total = total + term
        return total

    def serialize(self) -> list[dict]:
        return [
            {"exponents": list(m), "coefficient": c.serialize()}
            for m, c in self.coeffs
        ]

    @staticmethod
    def deserialize(nvars: int, degree: int, data: Iterable[dict]) -> "HomogeneousForm":
        return HomogeneousForm.of(
            nvars, degree,
            {tuple(d["exponents"]): FieldElement.deserialize(d["coefficient"]) for d in data},
        )


def power_sum_form(nvars: int, degree: int) -> HomogeneousForm:
    """x_0^d + ... + x_{n-1}^d."""
    terms = {}
    for i in range(nvars):
        mono = [0] * nvars
        mono[i] = degree
        terms[tuple(mono)] = ONE
    return HomogeneousForm.of(nvars, degree, terms)


# hyperplane basis: columns of B span {sum x_i = 0} in K^5
HYPERPLANE_BASIS: tuple[tuple[int, ...], ...] = (
    (1, 0, 0, 0),
    (-1, 1, 0, 0),
    (0, -1, 1, 0),
    (0, 0, -1, 1),
    (0, 0, 0, -1),
)


def hyperplane_basis_grid() -> list[list[FieldElement]]:
    """HYPERPLANE_BASIS as a 5x4 matrix over K."""
    return [[rational(x) for x in row] for row in HYPERPLANE_BASIS]


# sparse polynomial helpers on exponent-tuple dicts

def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, ZERO) + c
        if s.is_zero():
            out.pop(m, None)
        else:
            out[m] = s
    return out


def _poly_scale(a: dict, c: FieldElement) -> dict:
    if c.is_zero():
        return {}
    return {m: v * c for m, v in a.items()}


def _poly_mul(a: dict, b: dict) -> dict:
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
                term = _poly_mul(term, lin[i])
        total = _poly_add(total, _poly_scale(term, c))
    return HomogeneousForm.of(m, form.degree, total)


def line_in_surface(line: ProjLine, form: HomogeneousForm) -> bool:
    """True iff the form vanishes identically along the line.

    Restricted to the line, a form of degree d is a binary form of degree d,
    and a nonzero one has at most d zeros on P^1; so it is zero iff it
    vanishes at the d + 1 distinct parameters (0 : 1) and (1 : k), k < d.
    """
    b0, b1 = line.basis
    if not form.evaluate(b1).is_zero():
        return False
    return all(
        form.evaluate([a + rational(k) * b for a, b in zip(b0, b1)]).is_zero()
        for k in range(form.degree)
    )


def membership(p: ProjPoint, forms: Iterable[HomogeneousForm]) -> bool:
    """True iff every form vanishes exactly at the point."""
    return all(f.evaluate(p.coords).is_zero() for f in forms)


def divide_by_linear(poly: dict, alpha: dict, nvars: int) -> dict:
    """Exact quotient poly / alpha for a linear form alpha; raises on remainder."""
    # pivot variable: first one appearing in alpha
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
        quotient = _poly_add(quotient, t)
        g = _poly_add(g, _poly_scale(_poly_mul(t, alpha), -ONE))
    return quotient


def _line_coordinates_in_plane(line: ProjLine, plane_rows: list[list[FieldElement]]
                               ) -> list[list[FieldElement]]:
    """Coordinates of the line's basis in a 3-row plane basis."""
    cols = [[plane_rows[j][i] for j in range(3)] for i in range(len(plane_rows[0]))]
    out = []
    for row in line.basis:
        c = solve(cols, list(row))
        if c is None:
            raise ValueError("line does not lie in the plane")
        out.append(c)
    return out


def residual_line(cubic: HomogeneousForm, a: ProjLine, b: ProjLine,
                  hyperplane: HomogeneousForm) -> ProjLine:
    """Third line of the plane section spanned by two meeting lines.

    The plane through a and b cuts the cubic surface in a, b and one residual
    line; it is found by restricting the cubic to the plane and dividing off
    the two linear forms cutting a and b, asserting zero remainder.
    """
    if a == b:
        raise ValueError("the two lines must be distinct")
    for line in (a, b):
        if not (line_in_surface(line, cubic) and line_in_surface(line, hyperplane)):
            raise NotOnSurface(f"line {line!r} is not on the surface")
    stacked = [list(r) for r in a.basis] + [list(r) for r in b.basis]
    red, pivots = rref(stacked)
    if len(pivots) != 3:
        raise SkewLines("lines do not meet")
    plane = [red[0], red[1], red[2]]
    ternary = pullback(cubic, [[plane[j][i] for j in range(3)] for i in range(len(plane[0]))])
    alphas = []
    for line in (a, b):
        coords = _line_coordinates_in_plane(line, plane)
        ker = kernel_basis(coords)
        if len(ker) != 1:
            raise FactorizationFailure("a line of the pair does not cut one linear form")
        alphas.append({
            tuple(1 if i == k else 0 for i in range(3)): ker[0][k]
            for k in range(3) if not ker[0][k].is_zero()
        })
    quotient = divide_by_linear(ternary.coeff_map(), alphas[0], 3)
    gamma = divide_by_linear(quotient, alphas[1], 3)
    gamma_vec = [ZERO, ZERO, ZERO]
    for mono, c in gamma.items():
        k = next(i for i, e in enumerate(mono) if e)
        gamma_vec[k] = c
    params = kernel_basis([gamma_vec])
    if len(params) != 2:
        raise FactorizationFailure("the residual factor is not a linear form")
    points = []
    for u in params:
        vec = [ZERO] * len(plane[0])
        for cu, row in zip(u, plane):
            if not cu.is_zero():
                vec = [x + cu * y for x, y in zip(vec, row)]
        points.append(vec)
    return ProjLine.span(points[0], points[1])
