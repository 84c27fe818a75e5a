import itertools
import random
import signal

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form
from sympy.polys.domains import ZZ

from dp5links.cyclo import I_UNIT, ONE, ZERO, ZETA5, rational
from dp5links.groups import Permutation, UnsupportedEigenvalue, eigenspaces_of_permutation
from dp5links.linalg import (
    DependentClasses,
    IntLattice,
    coordinates_in_basis,
    hyperbolic_basis,
    int_kernel,
    int_rank,
    kernel_basis,
    mat_vec,
    orthogonal_complement,
    rank,
    rref,
    smith_normal_form,
)
from geometry_oracles import eigenspaces_by_elimination, permutation_matrix

CUBIC_GRAM = [
    [1, 0, 0, 0, 0, 0, 0],
    [0, -1, 0, 0, 0, 0, 0],
    [0, 0, -1, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0, 0],
    [0, 0, 0, 0, -1, 0, 0],
    [0, 0, 0, 0, 0, -1, 0],
    [0, 0, 0, 0, 0, 0, -1],
]


def unit(i, n=7):
    return [1 if j == i else 0 for j in range(n)]


def test_kernel_of_shifted_five_cycle_is_the_stated_eigenvector():
    p = permutation_matrix([1, 2, 3, 4, 0])
    shifted = [[p[i][j] - (ZETA5 if i == j else ZERO) for j in range(5)] for i in range(5)]
    ker = kernel_basis(shifted)
    assert len(ker) == 1
    expected = [ONE, ZETA5 ** 4, ZETA5 ** 3, ZETA5 ** 2, ZETA5]
    scale = ker[0][0] / expected[0]
    assert all(a == scale * b for a, b in zip(ker[0], expected))


def test_kernel_of_zero_and_invertible_matrices():
    zero = [[ZERO] * 5 for _ in range(5)]
    assert len(kernel_basis(zero)) == 5
    invertible = [[rational(1 if i == j else 0) + (rational(1) if j == i + 1 else ZERO)
                   for j in range(4)] for i in range(4)]
    assert kernel_basis(invertible) == []


def test_rank_plus_nullity_on_random_matrices():
    rnd = random.Random(7)
    for _ in range(50):
        rows, cols = rnd.randint(1, 5), rnd.randint(1, 5)
        m = [[rational(rnd.randint(-3, 3)) + ZETA5 * rnd.randint(-1, 1)
              for _ in range(cols)] for _ in range(rows)]
        assert rank(m) + len(kernel_basis(m)) == cols


def test_eigenspaces_five_cycle_and_four_cycle():
    spaces = eigenspaces_of_permutation(Permutation.from_cycles("(12345)"))
    assert len(spaces) == 5
    assert all(len(v) == 1 for v in spaces.values())
    eigenvalues = {tuple(lam.coeffs) for lam in spaces}
    assert eigenvalues == {tuple((ZETA5 ** k).coeffs) for k in range(5)}

    spaces4 = eigenspaces_of_permutation(Permutation.from_cycles("(2354)"))
    dims = {}
    for lam, basis in spaces4.items():
        dims[lam] = len(basis)
    assert dims[ONE] == 2
    assert dims[I_UNIT] == 1 and dims[-ONE] == 1 and dims[-I_UNIT] == 1


def test_eigenspaces_identity_and_unsupported_order_three():
    spaces = eigenspaces_of_permutation(Permutation.identity())
    assert list(spaces) == [ONE] and len(spaces[ONE]) == 5
    with pytest.raises(UnsupportedEigenvalue):
        eigenspaces_of_permutation(Permutation.from_cycles("(123)"))
    with pytest.raises(UnsupportedEigenvalue):
        eigenspaces_of_permutation(Permutation.from_cycles("(123)(45)"))


def test_closed_form_eigenspaces_agree_with_elimination_on_all_120_permutations():
    unsupported = 0
    for images in itertools.permutations(range(5)):
        p = Permutation(images)
        try:
            expected = eigenspaces_by_elimination(p)
        except UnsupportedEigenvalue:  # a 3-cycle
            unsupported += 1
            with pytest.raises(UnsupportedEigenvalue):
                eigenspaces_of_permutation(p)
            continue
        spaces = eigenspaces_of_permutation(p)
        assert set(spaces) == set(expected), images
        mat = permutation_matrix(images)
        for lam, basis in spaces.items():
            assert rref(basis) == rref(expected[lam]), (images, lam)
            assert all(mat_vec(mat, v) == [lam * x for x in v] for v in basis), (images, lam)
    assert unsupported == 40


def random_int_matrices() -> list[list[list[int]]]:
    """40 seeded integer matrices, 1..5 x 1..5, entries in [-8, 8]."""
    rnd = random.Random(12)
    matrices = []
    for _ in range(40):
        nr, nc = rnd.randint(1, 5), rnd.randint(1, 5)
        matrices.append([[rnd.randint(-8, 8) for _ in range(nc)] for _ in range(nr)])
    return matrices


def wide_int_matrices() -> list[list[list[int]]]:
    """150 seeded integer matrices, 1..6 x 1..7, entries in [-30, 30].

    A Smith normal form that alternates row and column Euclid steps never
    ends on 26 of them (the first is #5): its entries grow without bound.
    """
    rnd = random.Random(7)
    matrices = []
    for _ in range(150):
        nr, nc = rnd.randint(1, 6), rnd.randint(1, 7)
        matrices.append([[rnd.randint(-30, 30) for _ in range(nc)] for _ in range(nr)])
    return matrices


def _snf_timed_out(signum, frame):
    raise TimeoutError("smith_normal_form did not finish within the time bound")


def test_smith_normal_form_properties():
    matrices = random_int_matrices() + wide_int_matrices()
    # the whole batch takes well under a second; a non-terminating pass does not
    previous = signal.signal(signal.SIGALRM, _snf_timed_out)
    signal.alarm(20)
    try:
        forms = [smith_normal_form(m) for m in matrices]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def mm(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
                 for j in range(len(b[0]))] for i in range(len(a))]

    for m, (u, d, v) in zip(matrices, forms):
        nr, nc = len(m), len(m[0])
        assert mm(mm(u, m), v) == d
        for i in range(len(d)):
            for j in range(len(d[0])):
                if i != j:
                    assert d[i][j] == 0
        diag = [d[i][i] for i in range(min(nr, nc))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0
        reference = sympy_smith_normal_form(sympy.Matrix(m), domain=ZZ)
        assert diag == [abs(reference[i, i]) for i in range(min(nr, nc))]
        # unimodularity via sympy's exact determinant
        for sq in (u, v):
            assert sympy.Matrix(sq).det() in (1, -1)
        for k in int_kernel(m):
            assert all(sum(m[i][j] * k[j] for j in range(nc)) == 0 for i in range(nr))


def test_int_kernel_has_the_nullity_and_is_saturated():
    for m in random_int_matrices():
        nc = len(m[0])
        kernel = int_kernel(m)
        assert len(kernel) == nc - sympy.Matrix(m).rank()
        if kernel:
            # saturated: the maximal minors of the basis have gcd 1
            basis = sympy.Matrix(kernel)
            minors = [basis.extract(list(range(len(kernel))), list(cols)).det()
                      for cols in itertools.combinations(range(nc), len(kernel))]
            assert sympy.gcd_list(minors) == 1


def test_orthogonal_complement_rank_counts():
    lat = IntLattice.from_gram(CUBIC_GRAM)
    comp2, _ = orthogonal_complement(lat, [unit(1), unit(2)])
    assert comp2.rank == 5
    comp0, _ = orthogonal_complement(lat, [unit(i) for i in range(7)])
    assert comp0.rank == 0
    with pytest.raises(DependentClasses):
        orthogonal_complement(lat, [unit(1), [0, 2, 0, 0, 0, 0, 0]])


def test_orthogonal_complement_of_quintuple_is_hyperbolic():
    # e1..e4 and h - e5 - e6: five disjoint (-1)-classes in the cubic lattice
    classes = [unit(1), unit(2), unit(3), unit(4), [1, 0, 0, 0, 0, -1, -1]]
    lat = IntLattice.from_gram(CUBIC_GRAM)
    comp, basis = orthogonal_complement(lat, classes)
    assert comp.rank == 2
    minus_k = [3, -1, -1, -1, -1, -1, -1]
    shifted = [k + sum(c[i] for c in classes) for i, k in enumerate(minus_k)]
    [coords] = coordinates_in_basis(basis, [shifted])
    assert coords is not None
    assert comp.pair(coords, coords) == 8
    hb = hyperbolic_basis(comp, positive_against=coords)
    assert hb is not None
    f1, f2 = hb
    assert comp.pair(f1, f1) == 0 and comp.pair(f2, f2) == 0 and comp.pair(f1, f2) == 1


def test_complement_of_complement_restores_the_span():
    lat = IntLattice.from_gram(CUBIC_GRAM)
    rnd = random.Random(9)
    for _ in range(20):
        k = rnd.randint(1, 3)
        vs = []
        while int_rank(vs) < k:
            vs = [[rnd.randint(-2, 2) for _ in range(7)] for _ in range(k)]
        comp, basis = orthogonal_complement(lat, vs)
        comp2, basis2 = orthogonal_complement(lat, basis)
        assert comp2.rank == k
        assert int_rank(basis2 + vs) == k  # same span over Q


def test_gram_of_complement_is_restriction():
    lat = IntLattice.from_gram(CUBIC_GRAM)
    comp, basis = orthogonal_complement(lat, [unit(1)])
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            assert comp.gram[i][j] == lat.pair(u, v)


def test_intlattice_serialization_round_trip():
    lat = IntLattice.from_gram([[0, 1], [1, 0]], ["f1", "f2"])
    data = lat.serialize()
    assert data == {"rank": 2, "gram": [["0", "1"], ["1", "0"]], "labels": ["f1", "f2"]}
    back = IntLattice.deserialize(data)
    assert back == lat and hash(back) == hash(lat) and back is not lat
    assert lat != IntLattice.from_gram([[0, 1], [1, 0]], ["f2", "f1"]) and lat != lat.gram
    with pytest.raises(AttributeError):
        lat.gram = ((1, 0), (0, 1))
    assert lat.pair([1, 2], [3, 4]) == 10
    with pytest.raises(ValueError):
        IntLattice.from_gram([[0, 1], [2, 0]])


def test_unit_vector_coordinates_invert_a_lattice_basis():
    basis = [[1, 2, 0], [0, 1, 3], [1, 0, -5]]  # rows, determinant 1
    cols = coordinates_in_basis(basis, [unit(j, 3) for j in range(3)])
    # column j of the inverse holds the coordinates of e_j: B^T C = I
    for i in range(3):
        for j in range(3):
            assert sum(b[i] * c for b, c in zip(basis, cols[j])) == int(i == j)
    # a basis of index 2 leaves some e_j without integer coordinates
    doubled = [[2 * x for x in basis[0]]] + basis[1:]
    assert None in coordinates_in_basis(doubled, [unit(j, 3) for j in range(3)])


def test_hyperbolic_basis_outside_the_old_search_box():
    # the isotropic vector (13, 1) has a coordinate beyond |x| <= 12
    lat = IntLattice.from_gram([[0, 1], [1, -26]])
    u, v = hyperbolic_basis(lat)
    assert lat.pair(u, u) == 0 and lat.pair(v, v) == 0 and lat.pair(u, v) == 1
    assert sorted(map(abs, u + v)) == [0, 1, 1, 13]
    assert hyperbolic_basis(IntLattice.from_gram([[1, 0], [0, -2]])) is None  # 2 not a square
    assert hyperbolic_basis(IntLattice.from_gram([[0, 0], [0, 0]])) is None
