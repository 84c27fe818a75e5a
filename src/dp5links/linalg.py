"""Exact dense linear algebra over Q(zeta_20) and integer-lattice routines.

Matrices are plain row grids, and they are tiny (at most 12x12), so one
routine, ``rref``, does every elimination over K: fraction-preserving Gaussian
elimination with first-nonzero pivoting, deterministic, no pivot heuristics.
Left of each pivot column the pivot row is zero, so ``rref`` scales and
eliminates only the columns right of the pivot, and skips the pivot row's
zero entries.
Integer ranks and coordinates are taken over the rationals inside K; Smith
normal form with arbitrary-precision ints serves only saturated kernels.
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

def rref(m) -> tuple[Grid, list[int]]:
    """Reduced row echelon form and pivot column indices.

    Pivoting takes the first row with a nonzero entry in the current column;
    exact arithmetic makes this deterministic and safe.
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
        inv = row[c].inverse()
        # row[:c] is zero, so only the columns right of c change anywhere
        tail = [x * inv for x in row[c + 1:]]
        a[r] = row[:c] + [ONE] + tail
        for i in range(nrows):
            f = a[i][c]
            if i != r and f:
                other = a[i]
                a[i] = other[:c] + [ZERO] + [x - f * y if y else x
                                             for x, y in zip(other[c + 1:], tail)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def rank(m) -> int:
    return len(rref(m)[1])


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
    ga, gb = _as_grid(a), _as_grid(b)
    n, k = len(ga), len(gb)
    m = len(gb[0]) if k else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = ZERO
            for t in range(k):
                if ga[i][t] and gb[t][j]:
                    s = s + ga[i][t] * gb[t][j]
            row.append(s)
        out.append(row)
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


class IntLattice(Frozen):
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

    def __eq__(self, other) -> bool:
        if other.__class__ is not IntLattice:
            return NotImplemented
        return (self.rank, self.gram, self.labels) == (other.rank, other.gram, other.labels)

    def __hash__(self) -> int:
        return hash((self.rank, self.gram, self.labels))

    @staticmethod
    def from_gram(gram: Sequence[Sequence[int]], labels: Sequence[str] | None = None) -> "IntLattice":
        n = len(gram)
        if labels is None:
            labels = [f"b{i}" for i in range(n)]
        return IntLattice(n, tuple(tuple(int(x) for x in row) for row in gram), tuple(labels))

    def pair(self, u: Sequence[int], v: Sequence[int]) -> int:
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
    """U, D, V with U m V = D diagonal, U and V unimodular."""
    a: IntGrid = [[int(x) for x in row] for row in m]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_op(i, j, f):  # row_i -= f * row_j
        a[i] = [x - f * y for x, y in zip(a[i], a[j])]
        u[i] = [x - f * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, f):  # col_i -= f * col_j
        for row in a:
            row[i] -= f * row[j]
        for row in v:
            row[i] -= f * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nr, nc):
        # find nonzero pivot
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear column t with row ops
            done = True
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    if a[i][t] % a[t][t] == 0:
                        row_op(i, t, a[i][t] // a[t][t])
                    else:
                        q = a[i][t] // a[t][t]
                        row_op(i, t, q)
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    if a[t][j] % a[t][t] == 0:
                        col_op(j, t, a[t][j] // a[t][t])
                    else:
                        q = a[t][j] // a[t][t]
                        col_op(j, t, q)
                        swap_cols(t, j)
                        done = False
            if done and all(a[i][t] == 0 for i in range(t + 1, nr)) and all(
                a[t][j] == 0 for j in range(t + 1, nc)
            ):
                break
        t += 1
    # normalize signs and enforce divisibility chain
    for i in range(min(nr, nc)):
        if a[i][i] < 0:
            for j in range(nc):
                a[i][j] = -a[i][j]
            for j in range(nr):
                u[i][j] = -u[i][j]
    changed = True
    while changed:
        changed = False
        for i in range(min(nr, nc) - 1):
            d1, d2 = a[i][i], a[i + 1][i + 1]
            if d1 and d2 and d2 % d1 != 0:
                # standard fixup: fold the pair to (gcd, lcm)
                col_op(i, i + 1, -1)
                for _ in range(64):
                    if a[i + 1][i] == 0 and a[i][i + 1] == 0:
                        break
                    if a[i + 1][i] != 0:
                        q = a[i + 1][i] // a[i][i] if a[i][i] else 0
                        if a[i][i] and a[i + 1][i] % a[i][i] == 0:
                            row_op(i + 1, i, q)
                        else:
                            row_op(i + 1, i, q)
                            swap_rows(i, i + 1)
                    if a[i][i + 1] != 0:
                        q = a[i][i + 1] // a[i][i] if a[i][i] else 0
                        if a[i][i] and a[i][i + 1] % a[i][i] == 0:
                            col_op(i + 1, i, q)
                        else:
                            col_op(i + 1, i, q)
                            swap_cols(i, i + 1)
                if a[i][i] < 0:
                    for j in range(nc):
                        a[i][j] = -a[i][j]
                    for j in range(nr):
                        u[i][j] = -u[i][j]
                if a[i + 1][i + 1] < 0:
                    for j in range(nc):
                        a[i + 1][j] = -a[i + 1][j]
                    for j in range(nr):
                        u[i + 1][j] = -u[i + 1][j]
                changed = True
    return u, a, v


def int_kernel(m: Sequence[Sequence[int]]) -> IntGrid:
    """Saturated basis of {x : m x = 0} over Z (columns of V past the rank)."""
    if not m:
        return []
    nc = len(m[0])
    _, d, v = smith_normal_form(m)
    r = sum(1 for i in range(min(len(d), nc)) if i < len(d) and d[i][i] != 0)
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
