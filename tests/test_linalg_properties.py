"""Property tests of the integer-lattice routines against independent oracles.

Coordinates in a lattice basis, one vector or a mixed batch at a time, and
integer ranks are checked against sympy over QQ.  Bases are the first k rows of a random unimodular matrix, so they
are saturated, and the remaining rows give vectors outside their span.  The
hyperbolic basis is checked against a brute-force search over a box.
"""

import itertools
import math
from datetime import timedelta

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dp5links.linalg import IntLattice, coordinates_in_basis, hyperbolic_basis, int_rank

checked = settings(deadline=timedelta(milliseconds=2000), max_examples=100)


@st.composite
def saturated_bases(draw):
    """(basis, complement, coefficients): rows of a unimodular n x n matrix split at k."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1))
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, f in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.integers(-3, 3)), max_size=20)):
        if i != j:
            u[i] = [a + f * b for a, b in zip(u[i], u[j])]
    coeffs = draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k))
    return u[:k], u[k:], coeffs


def combination(coeffs, rows) -> list[int]:
    return [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(len(rows[0]))]


def oracle(basis, vector):
    """Coordinates of vector in basis from sympy over QQ: a list of Rationals or None."""
    try:
        sol, params = sympy.Matrix(basis).T.gauss_jordan_solve(sympy.Matrix(vector))
    except ValueError:  # inconsistent: outside the span
        return None
    assert params.shape[0] == 0, "a basis has unique coordinates"
    return list(sol)


@checked
@given(saturated_bases())
def test_integer_combinations_get_their_coordinates(data):
    basis, _, coeffs = data
    v = combination(coeffs, basis)
    assert coordinates_in_basis(basis, [v]) == [coeffs]
    assert oracle(basis, v) == coeffs


@checked
@given(saturated_bases(), st.data())
def test_non_integral_combinations_give_none(data, draw):
    basis, _, coeffs = data
    j = draw.draw(st.integers(0, len(basis) - 1))
    d = draw.draw(st.integers(2, 5))
    coeffs[j] = d * coeffs[j] + draw.draw(st.integers(1, d - 1))
    v = combination(coeffs, basis)
    scaled = [[d * x for x in row] if i == j else row for i, row in enumerate(basis)]
    assert coordinates_in_basis(scaled, [v]) == [None]
    expected = oracle(scaled, v)
    assert expected is not None and not expected[j].is_integer


@checked
@given(saturated_bases(), st.integers(1, 5))
def test_vectors_outside_the_span_give_none(data, m):
    basis, complement, coeffs = data
    v = [a + m * b for a, b in zip(combination(coeffs, basis), complement[0])]
    assert coordinates_in_basis(basis, [v]) == [None]
    assert oracle(basis, v) is None


@checked
@given(saturated_bases(), st.integers(2, 5),
       st.lists(st.tuples(st.sampled_from(["integral", "non-integral", "outside"]),
                          st.lists(st.integers(-20, 20), min_size=7, max_size=7)),
                min_size=1, max_size=6))
def test_a_mixed_batch_matches_the_oracle_vector_by_vector(data, d, specs):
    basis, complement, _ = data
    k = len(basis)
    # the first basis row scaled by d: coordinates are integral iff d divides coefficient 0
    scaled = [[d * x for x in basis[0]]] + basis[1:]
    vectors = []
    for kind, raw in specs:
        coeffs = raw[:k]
        coeffs[0] = d * coeffs[0] + (1 if kind == "non-integral" else 0)
        v = combination(coeffs, basis)
        if kind == "outside":
            v = [a + b for a, b in zip(v, complement[0])]
        vectors.append(v)
    expected = []
    for v in vectors:
        sol = oracle(scaled, v)
        expected.append(None if sol is None or not all(x.is_integer for x in sol)
                        else [int(x) for x in sol])
    assert coordinates_in_basis(scaled, vectors) == expected
    assert [e is None for e in expected] == [kind != "integral" for kind, _ in specs]


@checked
@given(st.integers(1, 6).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-9, 9), min_size=cols, max_size=cols), min_size=1, max_size=6)))
def test_int_rank_matches_sympy(m):
    assert int_rank(m) == sympy.Matrix(m).rank()


def box_hyperbolic_basis(lattice, positive_against=None, bound=12):
    """Search every primitive vector with coordinates in [-bound, bound]."""
    isotropic = [list(v) for v in itertools.product(range(-bound, bound + 1), repeat=2)
                 if math.gcd(*v) == 1 and lattice.pair(v, v) == 0]
    for u in isotropic:
        for v in isotropic:
            if lattice.pair(u, v) == 1:
                if positive_against is not None and (
                        lattice.pair(u, positive_against) <= 0
                        or lattice.pair(v, positive_against) <= 0):
                    continue
                return u, v
    return None


small = st.integers(-6, 6)


@checked
@given(small, small, small, st.none() | st.lists(small, min_size=2, max_size=2))
def test_hyperbolic_basis_matches_the_box_search(a, b, c, positive_against):
    lattice = IntLattice.from_gram([[a, b], [b, c]])
    assert hyperbolic_basis(lattice, positive_against) == box_hyperbolic_basis(
        lattice, positive_against)
