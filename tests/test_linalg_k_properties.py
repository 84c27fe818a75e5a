"""Property tests of elimination over K = Q(zeta_20).

Matrices are small (1-5 rows, 1-6 columns) and sparse, with forced zero
columns and rows that are combinations of earlier rows.  On rational entries
``rref`` is compared with sympy's ``Matrix.rref()``.  On entries from K the
reduced row echelon form is unique, so it is checked for its defining shape
and for invariance under row permutations and invertible row operations;
``rank``, ``kernel_basis`` and ``solve`` are checked against each other,
and ``rank``, which stops at an echelon form, against sympy's rank on
rational entries and against the pivots of ``rref`` on entries from K.
"""

from datetime import timedelta
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dp5links.cyclo import ONE, ZERO, FieldElement, rational
from dp5links.linalg import kernel_basis, mat_vec, rank, rref, solve, transpose

checked = settings(deadline=timedelta(milliseconds=2000), max_examples=100)

small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
rational_entries = st.one_of(st.just(ZERO), st.just(ZERO), small.map(rational))
# zero, rationals, rational multiples of roots of unity and two-term sums
monomials = st.builds(lambda q, k: rational(q) * FieldElement.zeta_power(k),
                      small, st.integers(0, 19))
k_entries = st.one_of(st.just(ZERO), st.just(ZERO), small.map(rational), monomials,
                      st.builds(lambda a, b: a + b, monomials, monomials))
nonzero_k = k_entries.filter(bool)
# pivots of exactly +-1, which elimination treats apart, besides general ones
unit_k_entries = st.one_of(st.just(ONE), st.just(-ONE), k_entries)


@st.composite
def matrices(draw, entries):
    """A sparse matrix with some zero columns and some dependent rows."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 6))
    zero_columns = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols - 1))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, len(rows) - 1))
            s, t = draw(entries), draw(entries)
            rows.append([s * x + t * y for x, y in zip(rows[i], rows[j])])
        else:
            rows.append([ZERO if c in zero_columns else draw(entries) for c in range(ncols)])
    return rows


@st.composite
def row_operations(draw, nrows):
    """Invertible row operations: swaps, scalings by nonzero entries, additions."""
    ops = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("swap", "scale", "add")))
        i = draw(st.integers(0, nrows - 1))
        j = draw(st.integers(0, nrows - 1))
        if kind == "add" and i == j:
            continue
        ops.append((kind, i, j, draw(nonzero_k)))
    return ops


def apply_operations(m, ops):
    a = [list(row) for row in m]
    for kind, i, j, f in ops:
        if kind == "swap":
            a[i], a[j] = a[j], a[i]
        elif kind == "scale":
            a[i] = [f * x for x in a[i]]
        else:
            a[i] = [x + f * y for x, y in zip(a[i], a[j])]
    return a


def is_reduced_echelon(red, pivots, ncols) -> bool:
    if pivots != sorted(set(pivots)) or any(not 0 <= p < ncols for p in pivots):
        return False
    for i, p in enumerate(pivots):
        if any(red[i][:p]):
            return False
        if [red[k][p] for k in range(len(red))] != [ONE if k == i else ZERO
                                                   for k in range(len(red))]:
            return False
    return not any(x for row in red[len(pivots):] for x in row)


def to_sympy(m) -> sympy.Matrix:
    assert all(not any(x.num[1:]) for row in m for x in row)
    return sympy.Matrix([[sympy.Rational(x.num[0], x.den) for x in row] for row in m])


@checked
@given(matrices(rational_entries))
def test_rref_of_rational_matrices_matches_sympy(m):
    red, pivots = rref(m)
    expected, expected_pivots = to_sympy(m).rref()
    assert to_sympy(red) == expected
    assert pivots == list(expected_pivots)


@checked
@given(matrices(rational_entries))
def test_rank_of_rational_matrices_matches_sympy(m):
    assert rank(m) == to_sympy(m).rank()


@checked
@given(matrices(unit_k_entries), st.data())
def test_rank_counts_the_pivots_of_rref_and_of_the_transpose(m, data):
    zero_rows = data.draw(st.sets(st.integers(0, len(m) - 1), max_size=len(m)))
    m = [[ZERO] * len(row) if i in zero_rows else row for i, row in enumerate(m)]
    assert rank(m) == len(rref(m)[1]) == rank(transpose(m))


@checked
@given(matrices(k_entries))
def test_rref_is_reduced_echelon_and_idempotent(m):
    red, pivots = rref(m)
    assert len(red) == len(m)
    assert is_reduced_echelon(red, pivots, len(m[0]))
    assert rref(red) == (red, pivots)


@checked
@given(matrices(k_entries), st.data())
def test_rref_is_unchanged_by_row_permutations(m, data):
    order = data.draw(st.permutations(range(len(m))))
    assert rref([m[i] for i in order]) == rref(m)


@checked
@given(matrices(k_entries), st.data())
def test_rref_is_unchanged_by_invertible_row_operations(m, data):
    ops = data.draw(row_operations(len(m)))
    assert rref(apply_operations(m, ops)) == rref(m)


@checked
@given(matrices(k_entries))
def test_rank_and_nullity_add_up_and_the_kernel_is_annihilated(m):
    ncols = len(m[0])
    kernel = kernel_basis(m)
    assert rank(m) + len(kernel) == ncols
    for v in kernel:
        assert not any(mat_vec(m, v))
    if kernel:
        assert rank(kernel) == len(kernel)


@checked
@given(matrices(k_entries), st.data())
def test_solve_is_consistent(m, data):
    ncols = len(m[0])
    x0 = data.draw(st.lists(k_entries, min_size=ncols, max_size=ncols))
    b = mat_vec(m, x0)
    x = solve(m, b)
    assert x is not None and mat_vec(m, x) == b
    other = data.draw(st.lists(k_entries, min_size=len(m), max_size=len(m)))
    y = solve(m, other)
    augmented = [row + [c] for row, c in zip(m, other)]
    if y is None:
        assert rank(augmented) == rank(m) + 1
    else:
        assert mat_vec(m, y) == other
