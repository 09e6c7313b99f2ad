"""Differential and invariant tests for the F_p elimination layer.

The bitset path (p = 2) is checked against the numpy path run at p = 2,
and both against the defining invariants at p in {2, 3, 5, 7}.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proflq import linalg

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
        r_bits, piv_bits = linalg._rref_f2(a)
        r_np, piv_np = linalg._rref_fp(a, 2)
        assert (a == before).all()  # the input is not reduced in place
        assert piv_bits == piv_np
        assert r_bits.dtype == np.int64 and r_bits.shape == r_np.shape
        assert (r_bits == r_np).all()
        assert linalg._rank_f2(a) == linalg._rank_fp(a, 2) == len(piv_np)
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
        r, piv = linalg._rref_f2(a)
        r2, piv2 = linalg._rref_fp(a, 2)
        assert piv == piv2 and (r == r2).all()


class TestInvariants:
    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_rref_is_reduced_and_spans_the_rows(self, case):
        a, p = case
        paths = [linalg._rref_fp] + ([lambda m, _: linalg._rref_f2(m)] if p == 2 else [])
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
            assert space.contains(v) == inside


def test_row_space_starts_empty():
    for p in PRIMES:
        space = linalg.RowSpace(p, 3)
        assert space.dim == 0
        assert space.contains(np.zeros(3, dtype=np.int64))
        assert not space.contains(np.array([0, 1, 0]))
        space.add(np.zeros((0, 3), dtype=np.int64))
        assert space.dim == 0


@pytest.mark.parametrize("p", [3, 101, 65537, 2 ** 31 - 1, 3037000493])
def test_mulmod_is_exact_for_large_p(p):
    rng = np.random.default_rng(p)
    a = rng.integers(0, p, (5, 40))
    b = rng.integers(0, p, (40, 7))
    ref = (a.astype(object) @ b.astype(object)) % p
    assert (linalg._mulmod(a, b, p).astype(object) == ref).all()
