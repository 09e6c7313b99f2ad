import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from proflq import snf


def invert_unimodular(u: list[list[int]]) -> list[list[int]]:
    """Reference: exact inverse of a unimodular matrix by Gauss-Jordan over Q.

    This is how the library inverted the left SNF transform before
    smith_normal_form returned the inverse itself.
    """
    n = len(u)
    if n == 0:
        return []
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(u)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    inv = [[row[n + j] for j in range(n)] for row in aug]
    out = []
    for row in inv:
        orow = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            orow.append(int(x))
        out.append(orow)
    return out


def check_snf(matrix):
    left, d, right, left_inv = snf.smith_normal_form(matrix)
    assert snf.mat_mul(snf.mat_mul(left, matrix), right) == d
    diag = snf.diagonal_of(d)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert all(x >= 0 for x in diag)
    # off-diagonal zero
    for i, row in enumerate(d):
        for j, v in enumerate(row):
            if i != j:
                assert v == 0
    # transforms unimodular, and the returned inverse is the inverse
    assert left_inv == invert_unimodular(left)
    assert snf.mat_mul(left, left_inv) == snf.identity(len(left))
    invert_unimodular(right)
    return diag


def test_two_by_two_coprime_diagonal():
    diag = check_snf([[2, 0], [0, 3]])
    assert diag == [1, 6]


def test_identity():
    assert check_snf(snf.identity(3)) == [1, 1, 1]


def test_zero_one_by_one():
    assert check_snf([[0]]) == [0]


def test_empty_matrix():
    left, d, right, left_inv = snf.smith_normal_form([])
    assert d == [] and left_inv == []


@pytest.mark.parametrize("seed", range(30))
def test_random_matrices(seed):
    rng = random.Random(seed)
    rows = rng.randint(1, 5)
    cols = rng.randint(1, 5)
    m = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
    check_snf(m)


def test_integer_kernel():
    m = [[1, 2, 3], [2, 4, 6]]
    k = snf.integer_kernel(m)
    assert len(k) == 3 and len(k[0]) == 2
    assert snf.mat_mul(m, k) == snf.zeros(2, 2)


def test_integer_kernel_injective_map():
    assert snf.integer_kernel([[1, 0], [0, 1], [3, 5]]) == [[], []]


def test_solve_integer():
    a = [[2, 0], [0, 3]]
    b = [[4], [9]]
    x = snf.solve_integer(a, b)
    assert snf.mat_mul(a, x) == b


def test_solve_integer_rejects_nonintegral():
    with pytest.raises(ValueError):
        snf.solve_integer([[2]], [[3]])


def test_invert_unimodular_roundtrip():
    u = [[1, 2], [0, 1]]
    inv = invert_unimodular(u)
    assert snf.mat_mul(u, inv) == snf.identity(2)


def test_invert_rejects_nonunimodular():
    with pytest.raises(ValueError):
        invert_unimodular([[2, 0], [0, 1]])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1, 3, 20]))
def test_left_inverse_matches_the_reference(rows, cols, seed, bound):
    # sizes as in the library's use; past about 6 x 6 with entries near 10
    # this pivoting strategy can grow its entries without bound
    rng = random.Random(seed)
    m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    left, _, _, left_inv = snf.smith_normal_form(m)
    assert left_inv == invert_unimodular(left)
    assert snf.mat_mul(left, left_inv) == snf.identity(rows)
    assert snf.mat_mul(left_inv, left) == snf.identity(rows)
