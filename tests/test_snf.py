import itertools
import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from proflq import finring, snf
from proflq.finring import FiniteRing

from .reference import full_scan_smith_normal_form, integer_smith_normal_form, mat_mul


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
    left, d, right, left_inv = integer_smith_normal_form(matrix)
    assert mat_mul(mat_mul(left, matrix), right) == d
    diag = [d[i][i] for i in range(min(len(d), len(right)))]
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
    assert mat_mul(left, left_inv) == snf.identity(len(left))
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
    left, d, right, left_inv = integer_smith_normal_form([])
    assert d == [] and left_inv == []


@pytest.mark.parametrize("seed", range(30))
def test_random_matrices(seed):
    rng = random.Random(seed)
    rows = rng.randint(1, 5)
    cols = rng.randint(1, 5)
    m = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
    check_snf(m)


def test_reference_returns_where_floor_pivoting_grew():
    # an augmented inclusion matrix drawn by the finring reference test; a
    # pivot kept through a whole Euclid sequence grew its entries past
    # 10^5 bits here and did not return
    m = [[17, 129, 185, 0, 0], [166, 154, 0, 185, 0], [110, 49, 0, 0, 185]]
    assert check_snf(m) == [1, 37, 185]


def test_invert_unimodular_roundtrip():
    u = [[1, 2], [0, 1]]
    inv = invert_unimodular(u)
    assert mat_mul(u, inv) == snf.identity(2)


def test_invert_rejects_nonunimodular():
    with pytest.raises(ValueError):
        invert_unimodular([[2, 0], [0, 1]])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1, 3, 20]))
def test_left_inverse_matches_the_reference(rows, cols, seed, bound):
    # sizes as in the library's use
    rng = random.Random(seed)
    m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    left, _, _, left_inv = integer_smith_normal_form(m)
    assert left_inv == invert_unimodular(left)
    assert mat_mul(left, left_inv) == snf.identity(rows)
    assert mat_mul(left_inv, left) == snf.identity(rows)


# -- Smith normal form over Z/m --------------------------------------------------

MODULI = [2, 4, 6, 8, 9, 12, 30, 36, 60, 64, 210, 360]


def check_mod_snf(matrix, m):
    """The defining properties of snf.smith_normal_form(matrix, m)."""
    rows = len(matrix)
    left, d, left_inv = snf.smith_normal_form(matrix, m)
    assert len(d) == min(rows, len(matrix[0]) if matrix else 0)
    eye = snf.identity(rows)
    assert [[x % m for x in r] for r in mat_mul(left, left_inv)] == eye
    assert [[x % m for x in r] for r in mat_mul(left_inv, left)] == eye
    assert all(m % di == 0 for di in d)
    assert all(b % a == 0 for a, b in zip(d, d[1:]))
    # rows past the diagonal are zero mod m
    for row, di in zip(mat_mul(left, matrix), d + [m] * rows):
        assert all(x % di == 0 for x in row)
    return d


def test_mod_snf_of_units_and_zero():
    assert check_mod_snf([[7, 0], [0, 0]], 12) == [1, 12]
    assert check_mod_snf([[0, 0, 0]], 6) == [6]
    assert snf.smith_normal_form([], 5) == ([], [], [])


def test_mod_snf_coprime_diagonal():
    # Z/4 + Z/3 = Z/12 inside Z/12
    assert check_mod_snf([[4, 0], [0, 3]], 12) == [1, 12]


def test_mod_snf_pivot_dividing_an_equal_entry():
    # equal entries are cleared by plain elimination, not swapped forever
    assert check_mod_snf([[6, 6], [6, 6]], 12) == [6, 12]


def test_mod_snf_dense_matrix_that_grows_the_integer_form():
    # a 6 x 6 integer matrix on which the library's former integer
    # algorithm does not return; the reference does
    matrix = [[-21, 23, -22, -9, -23, 9], [7, 20, 29, -6, -26, 6],
              [5, -16, 6, -25, 30, -13], [-7, 27, -12, 6, 4, 29],
              [-23, -1, 27, -13, -24, 20], [-28, 22, -12, -30, 9, 12]]
    diag = check_snf(matrix)
    for m in MODULI:
        assert check_mod_snf(matrix, m) == [gcd(d, m) for d in diag]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(MODULI))
def test_mod_snf_properties(rows, cols, seed, m):
    rng = random.Random(seed)
    matrix = [[rng.randrange(m) for _ in range(cols)] for _ in range(rows)]
    check_mod_snf(matrix, m)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(MODULI))
def test_mod_snf_matches_the_integer_reference(rows, cols, seed, m):
    # Z -> Z/m is onto, so the Smith form over Z/m is the integer one mod m
    rng = random.Random(seed)
    matrix = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
    _, d, _, _ = integer_smith_normal_form(matrix)
    expected = [gcd(d[i][i], m) for i in range(min(rows, cols))]
    assert check_mod_snf(matrix, m) == expected


# -- the pivot search against the full scan it replaced --------------------------

SCAN_MODULI = [2, 3, 4, 6, 8, 9, 12, 36, 256]


def divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def diagonal_matrix(entries: list[int]) -> list[list[int]]:
    return [[x if i == j else 0 for j in range(len(entries))]
            for i, x in enumerate(entries)]


@st.composite
def scan_cases(draw):
    """A matrix over Z/m, m in SCAN_MODULI, with entries in [-m, m]: any
    entries, or zeros and non-units with one unit at a drawn place (so
    the first unit may come early or late), or no unit at all; or a
    diagonal matrix, or a cokernel's [F | diag(c)]."""
    m = draw(st.sampled_from(SCAN_MODULI))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    values = range(-m, m + 1)
    units = [x for x in values if gcd(x, m) == 1]
    others = [x for x in values if gcd(x, m) > 1]
    kind = draw(st.sampled_from(["any", "one unit", "no unit", "diagonal", "cokernel"]))
    if kind == "diagonal":
        # the sums of `from_cyclic` have divisors of m on the diagonal
        entries = [draw(st.one_of(st.sampled_from(divisors(m)), st.sampled_from(values)))
                   for _ in range(rows)]
        return diagonal_matrix(entries), m
    if kind == "cokernel":
        # the [F | diag(c)] of `finring.cokernel`: c a divisor chain of m
        factors, c = [], 1
        for _ in range(rows):
            c = lcm(c, draw(st.sampled_from(divisors(m))))
            factors.append(c)
        f = [[draw(st.sampled_from(values)) for _ in range(cols)] for _ in range(rows)]
        return [row + diag for row, diag in zip(f, diagonal_matrix(factors))], m
    pool = values if kind == "any" else [0, 0, 0] + others
    matrix = [[draw(st.sampled_from(pool)) for _ in range(cols)] for _ in range(rows)]
    if kind == "one unit" and rows and cols:
        place = draw(st.integers(0, rows * cols - 1))
        matrix[place // cols][place % cols] = draw(st.sampled_from(units))
    return matrix, m


@settings(max_examples=600, deadline=None)
@given(scan_cases())
def test_mod_snf_equals_the_full_scan(case):
    matrix, m = case
    left, d, left_inv = full_scan_smith_normal_form(matrix, m)
    assert snf.smith_normal_form(matrix, m) == (left, d, left_inv)
    # untracked, L^-1 is None, and L and d are the same
    assert snf.smith_normal_form(matrix, m, inverse=False) == (left, d, None)


@pytest.mark.parametrize("matrix, m", [
    ([], 4),                                   # 0 x 0
    ([[], [], []], 6),                         # 3 x 0
    ([[0, 0, 0, 0]], 12),                      # 1 x 4, all zero
    ([[1, 2, 3], [2, 4, 6]], 4),               # a unit first
    ([[2, 4, 6], [6, 4, 2], [8, 0, 3]], 12),   # the only unit last
    ([[2, 0], [0, 3]], 12),                    # no unit: 2 does not divide 3
    ([[-3, 9], [-6, -27]], 36),                # negative entries
    ([[0, 5, 7], [11, 0, 1]], 256),            # several units, not the first
])
def test_mod_snf_equals_the_full_scan_at_the_edges(matrix, m):
    left, d, left_inv = full_scan_smith_normal_form(matrix, m)
    assert snf.smith_normal_form(matrix, m) == (left, d, left_inv)
    assert snf.smith_normal_form(matrix, m, inverse=False) == (left, d, None)


# -- the diagonal form against the whole loop ----------------------------------------

def is_permutation(matrix: list[list[int]]) -> bool:
    return all(sorted(row) == [0] * (len(row) - 1) + [1] for row in matrix) \
        and all(sorted(col) == [0] * (len(col) - 1) + [1] for col in zip(*matrix))


def swaps_suffice(entries: list[int], m: int) -> bool:
    """Whether the loop's divisibility fixes never fire on diag(entries):
    the gcds with m, in increasing order, form a divisibility chain."""
    gs = sorted(gcd(x, m) for x in entries)
    return all(b % a == 0 for a, b in zip(gs, gs[1:]))


def check_diagonal(entries: list[int], m: int) -> bool:
    """diagonal_smith_form(entries, m) is the Smith form of the matrix; its
    L is a permutation exactly when swaps suffice."""
    form = snf.diagonal_smith_form(entries, m)
    assert form == snf.smith_normal_form(diagonal_matrix(entries), m), (entries, m)
    swap_only = swaps_suffice(entries, m)
    assert is_permutation(form[0]) == swap_only, (entries, m)
    if swap_only:
        assert form[2] == [list(col) for col in zip(*form[0])], (entries, m)
    return swap_only


@pytest.mark.parametrize("m", [2, 4, 6, 8, 9, 12, 36, 60])
def test_diagonal_form_on_every_short_diagonal_of_divisors(m):
    outcomes = set()
    for n in range(5):
        for entries in itertools.product(divisors(m), repeat=n):
            outcomes.add(check_diagonal(list(entries), m))
    # a prime power modulus never needs a fix; the others reach both cases
    assert outcomes == ({True} if m in (2, 4, 8, 9) else {True, False})


@pytest.mark.parametrize("seed", range(4))
def test_diagonal_form_on_random_long_diagonals(seed):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(300):
        m = rng.choice([6, 12, 30, 36, 60, 72, 210, 360])
        entries = [rng.choice(divisors(m)) if rng.random() < 0.8
                   else rng.randint(-2 * m, 2 * m) for _ in range(rng.randint(5, 9))]
        outcomes.add(check_diagonal(entries, m))
    assert outcomes == {True, False}


@pytest.mark.parametrize("orders", [(4, 4, 4), (2, 4, 12), (4, 2), (4, 3), (2, 3, 4, 12)])
def test_from_cyclic_runs_no_smith_loop(monkeypatch, orders):
    # every sum, with or without a divisibility fix, is read off its diagonal
    calls, smith_normal_form = [], snf.smith_normal_form

    def counted(*args, **kwargs):
        calls.append(args)
        return smith_normal_form(*args, **kwargs)

    monkeypatch.setattr(snf, "smith_normal_form", counted)
    module, to_normal, from_normal = finring.from_cyclic(FiniteRing(12), list(orders))
    assert calls == []
    assert module.order == prod(orders)
    # mutually inverse, each product read modulo the factors of its target
    for first, then, factors in ((to_normal, from_normal, orders),
                                 (from_normal, to_normal, module.factors)):
        assert [[x % c for x in row] for row, c in zip(mat_mul(then, first), factors)] \
            == snf.identity(len(factors))
