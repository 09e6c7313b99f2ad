"""Differential and invariant tests for the F_p elimination layer.

The packed rows (p = 2 and p = 3) are checked against the numpy path run
at the same p, and both against the defining invariants at p in
{2, 3, 5, 7}.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proflq import catalog, groupcoh as gc, linalg

from .reference import bytes_pack, object_rref

PRIMES = (2, 3, 5, 7)


@st.composite
def matrices(draw, p=None, max_side=12):
    """(matrix, p): shapes include zero rows or columns; some rows repeat."""
    p = draw(st.sampled_from(PRIMES)) if p is None else p
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    density = draw(st.sampled_from([0.1, 0.5, 1.0]))
    a = rng.integers(0, p, (rows, cols)) * (rng.random((rows, cols)) < density)
    if rows >= 2 and draw(st.booleans()):
        a[-1] = (a[0] * rng.integers(1, p + 1)) % p  # a dependent row
    return a.astype(np.int64), p


def contains(space, v):
    return next(space.outside(np.reshape(v, (1, -1))), None) is None


def is_rref(r, pivots, p):
    rank = len(pivots)
    if (r[rank:] != 0).any() or list(pivots) != sorted(pivots):
        return False
    for i, c in enumerate(pivots):
        if (r[i, :c] != 0).any() or r[i, c] != 1:
            return False
        if np.count_nonzero(r[:rank, c]) != 1:
            return False
    return ((r >= 0) & (r < p)).all()


class TestBitsetAgainstNumpy:
    @settings(max_examples=300, deadline=None)
    @given(matrices(p=2, max_side=80))
    def test_rref_rank_nullspace(self, case):
        a, _ = case
        before = a.copy()
        r_bits, piv_bits = linalg._rref_packed(a, 2)
        r_np, piv_np = linalg._rref_fp(a, 2)
        assert (a == before).all()  # the input is not reduced in place
        assert piv_bits == piv_np
        assert r_bits.dtype == np.int64 and r_bits.shape == r_np.shape
        assert (r_bits == r_np).all()
        assert linalg._rank_packed(a, 2) == linalg._rank_fp(a, 2) == len(piv_np)
        assert np.array_equal(linalg.nullspace(a, 2),
                              linalg._kernel(r_np, piv_np, 2))

    @settings(max_examples=100, deadline=None)
    @given(matrices(p=2, max_side=20))
    def test_any_integer_input(self, case):
        # negative and narrow unsigned entries reduce like their int64 residues
        a, _ = case
        for b in (a - 2 * a, (a + 2).astype(np.uint8), a.astype(np.int32) + 4):
            assert linalg.rank(b, 2) == linalg._rank_fp(b, 2)
            assert np.array_equal(linalg.rref(b, 2)[0], linalg._rref_fp(b, 2)[0])

    def test_one_dimensional_input(self):
        # a vector is a column, as for the numpy path
        v = np.array([1, 0, 1])
        assert np.array_equal(linalg.rref(v, 2)[0], linalg._rref_fp(v, 2)[0])
        assert linalg.rank(v, 2) == linalg._rank_fp(v, 2) == 1

    def test_wide_rows_cross_word_boundaries(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 2, (40, 200))
        a[:, 63:66] = 0
        r, piv = linalg._rref_packed(a, 2)
        r2, piv2 = linalg._rref_fp(a, 2)
        assert piv == piv2 and (r == r2).all()


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("cols", [0, 1, 63, 64, 65, 128, 129])
@pytest.mark.parametrize("rows", [0, 1, 70])
def test_word_packed_rows_equal_the_bytes_oracle(p, cols, rows):
    # rows of at most 64 columns are read as 64-bit words, wider ones from
    # their bytes; F-ordered input is what the stored differentials are
    rng = np.random.default_rng(1000 * cols + rows)
    a = rng.integers(0, p, (rows, cols)) * (rng.random((rows, cols)) < 0.5)
    for b in (a.astype(np.uint8), a.astype(np.int64), a.astype(bool),
              np.asfortranarray(a.astype(np.uint8)),
              np.ascontiguousarray(a.transpose()).transpose(),
              np.repeat(a, 2, axis=1)[:, ::2]):
        packed = linalg._pack(b, p)
        assert packed == bytes_pack(b, p), (b.dtype, b.flags.c_contiguous)
        assert np.array_equal(linalg._unpack(packed[0], rows, cols, p),
                              b.astype(np.int64) % p)


def same_as_numpy(a, p):
    """The packed rref, pivots, rank and nullspace of `a` equal the numpy path's."""
    r, pivots = linalg._rref_packed(a, p)
    r_np, piv_np = linalg._rref_fp(a, p)
    assert pivots == piv_np
    assert r.dtype == np.int64 and r.shape == r_np.shape
    assert (r == r_np).all()
    assert linalg.rank(a, p) == linalg._rank_fp(a, p) == len(piv_np)
    assert np.array_equal(linalg.nullspace(a, p), linalg._kernel(r_np, piv_np, p))


class TestF3AgainstNumpy:
    @settings(max_examples=300, deadline=None)
    @given(matrices(p=3, max_side=80))
    def test_rref_rank_nullspace(self, case):
        a, _ = case
        before = a.copy()
        same_as_numpy(a, 3)
        assert (a == before).all()  # the input is not reduced in place

    @settings(max_examples=100, deadline=None)
    @given(matrices(p=3, max_side=20))
    def test_any_integer_input(self, case):
        # negative and narrow entries reduce like their int64 residues
        a, _ = case
        for b in (a - 3 * a, -a - 1, (a + 3).astype(np.uint8),
                  (a * 85).astype(np.uint8), a.astype(np.int8) - 5,
                  a.astype(np.int32) + 4):
            same_as_numpy(b, 3)

    def test_coboundaries(self):
        # the uint8 coboundaries and the differentials of real resolutions
        for name in ("S3", "A4", "SL(2,3)", "C3xQ8"):
            g = catalog.by_name(name)
            res = gc.free_resolution(g, 3, 4)
            for d in res.differentials:
                same_as_numpy(d, 3)
            for module in (gc.trivial_module(g, 3), gc.coset_module(g, [0], 3)):
                for k in range(3):
                    delta = gc._hom_coboundary(gc._coefficients(res, k), module)
                    assert delta.dtype.kind == "u"
                    same_as_numpy(delta, 3)

    def test_a_leading_two_is_scaled_to_one(self):
        # rows with distinct leading columns: the echelon form only scales
        a = np.array([[0, 2, 1, 0], [2, 0, 0, 1], [0, 0, 0, 2]])
        r, pivots = linalg.rref(a, 3)
        assert pivots == [0, 1, 3]
        assert r.tolist() == [[1, 0, 0, 0], [0, 1, 2, 0], [0, 0, 0, 1]]
        same_as_numpy(a, 3)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (1, 1), (3, 4)])
    def test_empty_and_zero(self, shape):
        for a in (np.zeros(shape, dtype=np.int64), np.full(shape, 3)):
            same_as_numpy(a, 3)
            assert linalg.rank(a, 3) == 0
            assert linalg.nullspace(a, 3).shape == (shape[1], shape[1])

    @pytest.mark.parametrize("cols", [63, 64, 65, 127, 128, 129, 200])
    def test_widths_across_word_boundaries(self, cols):
        rng = np.random.default_rng(cols)
        for density in (0.02, 0.3, 1.0):
            a = rng.integers(0, 3, (50, cols)) * (rng.random((50, cols)) < density)
            a[:, 60:67] = 0
            a[-1] = 2 * a[0] + a[1]  # a dependent row
            same_as_numpy(a, 3)
            same_as_numpy(a.transpose(), 3)

    @settings(max_examples=300, deadline=None)
    @given(matrices(p=3, max_side=70), st.integers(1, 5), st.data())
    def test_row_space(self, case, chunks, data):
        # add, dim and membership against the numpy rank of the stacked rows
        a, _ = case
        cols = a.shape[1]
        space = linalg.RowSpace(3, cols)
        added = np.zeros((0, cols), dtype=np.int64)
        for part in np.array_split(a, chunks):
            space.add(part)
            added = np.vstack([added, part])
            assert space.dim == linalg._rank_fp(added, 3)
        base = linalg._rank_fp(added, 3)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        probes = [row for row in a] + [(2 * a[0] + a[-1]) - 3 if len(a) else
                                       np.zeros(cols, dtype=np.int64)]
        probes += [rng.integers(-3, 6, cols) for _ in range(3)]
        for v in probes:
            inside = linalg._rank_fp(np.vstack([added, v.reshape(1, -1)]), 3) == base
            assert contains(space, v) == inside


class TestInvariants:
    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_rref_is_reduced_and_spans_the_rows(self, case):
        a, p = case
        paths = [linalg._rref_fp] + ([linalg._rref_packed] if p <= 3 else [])
        for path in paths:
            r, pivots = path(a, p)
            assert is_rref(r, pivots, p)
            assert linalg._rank_fp(np.vstack([a, r]), p) == len(pivots)

    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_nullspace(self, case):
        a, p = case
        cols = a.shape[1]
        paths = [(linalg.nullspace, linalg.rank),
                 (lambda m, q: linalg._kernel(*linalg._rref_fp(m, q), q), linalg._rank_fp)]
        for nullspace, rank in paths:
            n = nullspace(a, p)
            assert n.shape == (cols, cols - rank(a, p))
            assert not (a @ n % p).any()
            assert rank(n.transpose(), p) == n.shape[1]

    @settings(max_examples=300, deadline=None)
    @given(matrices(), st.integers(1, 4), st.data())
    def test_row_space(self, case, chunks, data):
        a, p = case
        cols = a.shape[1]
        space = linalg.RowSpace(p, cols)
        added = np.zeros((0, cols), dtype=np.int64)
        for part in np.array_split(a, chunks):
            space.add(part)
            added = np.vstack([added, part])
            assert space.dim == linalg.rank(added, p)
        probes = [row for row in a] + [
            np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=cols,
                                        max_size=cols)), dtype=np.int64)
            for _ in range(3)]
        base = linalg.rank(added, p)
        for v in probes:
            inside = linalg.rank(np.vstack([added, v.reshape(1, -1)]), p) == base
            assert contains(space, v) == inside


@settings(max_examples=200, deadline=None)
@given(matrices(max_side=30))
def test_outside_sees_the_rows_added_in_between(case):
    # the greedy choice of the resolution builder, against numpy ranks
    a, p = case
    space = linalg.RowSpace(p, a.shape[1])
    chosen = []
    for i in space.outside(a):
        chosen.append(i)
        space.add(a[i:i + 1])
    expected, span = [], a[:0]
    for i, row in enumerate(a):
        grown = np.vstack([span, row[None]])
        if linalg._rank_fp(grown, p) > linalg._rank_fp(span, p):
            expected.append(i)
            span = grown
    assert chosen == expected
    assert space.dim == len(expected)

def test_row_space_starts_empty():
    for p in PRIMES:
        space = linalg.RowSpace(p, 3)
        assert space.dim == 0
        assert contains(space, np.zeros(3, dtype=np.int64))
        assert not contains(space, np.array([0, 1, 0]))
        space.add(np.zeros((0, 3), dtype=np.int64))
        assert space.dim == 0


@pytest.mark.parametrize("p", [3, 101, 65537, 2 ** 31 - 1, 3037000493])
def test_rank_and_rref_are_exact_for_large_p(p):
    # 3037000493 is the largest prime with p(p - 1) <= 2^63 - 1
    rng = np.random.default_rng(p)
    a = rng.integers(0, p, (6, 9))
    a[:, 4] = p - 1  # the largest residue, in every row
    a[-1] = (a[0].astype(object) * (p - 1) + a[1]) % p  # a dependent row
    r, pivots = object_rref(a, p)
    assert linalg.rank(a, p) == len(pivots) == 5
    got, got_pivots = linalg.rref(a, p)
    assert got_pivots == pivots and (got.astype(object) == r).all()
    space = linalg.RowSpace(p, a.shape[1])
    space.add(a[:2])
    assert contains(space, a[-1]) and not contains(space, a[2])
    space.add(a[2:])
    assert space.dim == len(pivots)


@pytest.mark.parametrize("p", [3037000507, 4294967311])
def test_p_beyond_the_int64_bound_is_refused(p):
    # the primes just above the bound, and the smallest one above 2^32
    a = np.eye(2, dtype=np.int64)
    message = r"p\(p - 1\) must be at most 2\^63 - 1, so p <= 3037000493"
    space = linalg.RowSpace(p, 2)
    for call in (lambda: linalg.rank(a, p), lambda: linalg.rref(a, p),
                 lambda: linalg.nullspace(a, p), lambda: space.add(a),
                 lambda: next(space.outside(a))):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("p", [5, 7, 3037000493])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(0, 8),
       cols=st.integers(1, 10), split=st.integers(0, 8))
def test_outside_matches_the_rank_of_the_stacked_rows(p, seed, rows, cols, split):
    # the pivot-by-pivot membership test against ranks in Python ints,
    # with the largest residue and combinations of the stored rows probed
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, (rows, cols))
    a[rng.random((rows, cols)) < 0.3] = p - 1
    stored = a[:split]
    space = linalg.RowSpace(p, cols)
    space.add(stored)
    probes = list(a[split:]) + [rng.integers(0, p, cols), np.full(cols, p - 1)]
    if len(stored):
        coefficients = rng.integers(0, p, len(stored)).astype(object)
        probes.append((coefficients @ stored.astype(object)) % p)
    probes = np.array(probes, dtype=np.int64)
    base = len(object_rref(stored, p)[1])
    expected = [i for i, v in enumerate(probes)
                if len(object_rref(np.vstack([stored, v[None]]), p)[1]) > base]
    assert list(space.outside(probes)) == expected
