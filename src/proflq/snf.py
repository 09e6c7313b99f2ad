"""Smith normal form over Z/m.

Every lattice the library reduces contains m·Z^n, so its normal forms are
computed in (Z/m)^n with every entry kept in range(m) (Storjohann and
Mulders, "Fast algorithms for linear algebra modulo N", ESA 1998).  The
entries never grow, so every call terminates quickly.  Matrices are lists
of lists of plain ints.  Only `finring` imports this module.
"""

from __future__ import annotations

from math import gcd


def zeros(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> list[list[int]]:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, u) with s*a + u*b == g == gcd(a, b), for a, b >= 0."""
    s0, s1, u0, u1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        u0, u1 = u1, u0 - q * u1
    return a, s0, u0


def smith_normal_form(matrix: list[list[int]], m: int, inverse: bool = True) -> tuple[
        list[list[int]], list[int], list[list[int]] | None]:
    """Return (L, d, L^-1): L·matrix·R ≡ diag(d) (mod m) for some R.

    L and R are invertible mod m and d has min(rows, cols) entries, each a
    divisor of m, with d_1 | d_2 | ...; d_i = m marks a zero diagonal entry.
    Diagonal entries are fixed only up to units, which R absorbs, so row i
    of L·matrix is ≡ 0 mod d_i.  Every row operation on L is matched by the
    inverse column operation on L^-1, so the two stay inverse throughout.
    With `inverse` false, L^-1 is not tracked and None stands in for it;
    L and d are the same.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    a = [[x % m for x in r] for r in matrix]
    left = identity(rows)
    # untracked, L^-1 has no rows, and the column operations on it do nothing
    left_inv = identity(rows) if inverse else []

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]
        for r in left_inv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]

    def mix_rows(i, j, s, u, v, w):
        # (row_i, row_j) <- (s·row_i + u·row_j, v·row_i + w·row_j), s·w - u·v = 1
        for mat in (a, left):
            ri, rj = mat[i], mat[j]
            mat[i] = [(s * x + u * y) % m for x, y in zip(ri, rj)]
            mat[j] = [(v * x + w * y) % m for x, y in zip(ri, rj)]
        for r in left_inv:
            r[i], r[j] = (w * r[i] - v * r[j]) % m, (s * r[j] - u * r[i]) % m

    def mix_cols(i, j, s, u, v, w):
        for r in a:
            r[i], r[j] = (s * r[i] + u * r[j]) % m, (v * r[i] + w * r[j]) % m

    def eliminate(mix, p, e, i, j):
        # zero e against the pivot p by the unimodular 2x2 step mix on i, j
        if e % p == 0:
            mix(i, j, 1, 0, -(e // p), 1)
        else:
            g, s, u = _bezout(p, e)
            mix(i, j, s, u, -(e // g), p // g)

    d = [m] * min(rows, cols)
    for t in range(len(d)):
        # the first entry of least gcd with m in row-major order; a zero
        # (gcd m) never wins, and a unit is least, so the first ends it
        best, piv = m, None
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                if row[j]:
                    g = gcd(row[j], m)
                    if g < best:
                        best, piv = g, (i, j)
                        if g == 1:
                            break
            if best == 1:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        # clear column and row t; each Bézout step shrinks the pivot
        while True:
            i = next((i for i in range(t + 1, rows) if a[i][t]), None)
            if i is not None:
                eliminate(mix_rows, a[t][t], a[i][t], t, i)
                continue
            j = next((j for j in range(t + 1, cols) if a[t][j]), None)
            if j is not None:
                eliminate(mix_cols, a[t][t], a[t][j], t, j)
                continue
            # divisibility: gcd(pivot, m) must divide every later entry;
            # a unit pivot divides them all
            d[t] = gcd(a[t][t], m)
            bad = None if d[t] == 1 else next(
                (i for i in range(t + 1, rows) if any(x % d[t] for x in a[i][t + 1:])),
                None)
            if bad is None:
                break
            mix_rows(t, bad, 1, 1, 0, 1)
    return left, d, left_inv if inverse else None
