"""Smith normal form over Z/m.

Every lattice the library reduces contains m·Z^n, so its normal forms are
computed in (Z/m)^n with every entry kept in range(m) (Storjohann and
Mulders, "Fast algorithms for linear algebra modulo N", ESA 1998).  The
entries never grow, so every call terminates quickly.  Matrices are lists
of lists of plain ints.  Only `finring` imports this module.

`smith_normal_form` is one loop with its steps written inline; the 2x2
step that zeroes an entry against the pivot is the one rule `_step`.
`diagonal_smith_form` gives the loop's output on a diagonal matrix from
the diagonal alone, for the direct sums of `finring.from_cyclic`: there
the loop only swaps, except where a divisibility fix mixes two rows, and
then its steps touch one 2x2 block, which is cleared by the same steps.
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


def _step(p: int, e: int) -> tuple[int, int, int, int]:
    """(s, u, v, w), s·w - u·v = 1, with v·p + w·e = 0: the 2x2 step that
    zeroes the entry e against the pivot p.  (1, 0, -e/p, 1) when p
    divides e, else Bézout's (s, u, -e/g, p/g) with s·p + u·e = g; u is
    0 exactly in the first case."""
    if e % p == 0:
        return 1, 0, -(e // p), 1
    g, s, u = _bezout(p, e)
    return s, u, -(e // g), p // g


def diagonal_smith_form(diagonal: list[int], m: int) -> tuple[
        list[list[int]], list[int], list[list[int]]]:
    """`smith_normal_form` of the matrix diag(diagonal), with the same
    (L, d, L^-1), read off the diagonal alone.

    The loop's pivot is the first diagonal entry left of least gcd with m,
    and swapping its row and column together keeps the matrix diagonal,
    so nothing is eliminated: where the pivot's gcd divides every later
    entry, L is the permutation of the swaps and L^-1 its transpose.  A
    divisibility fix adds a later row b to row t, and the loop then clears
    the 2x2 block of rows and columns t, b, which no other entry shares;
    the block is cleared here by the same steps, and the matrix is
    diagonal again after it.
    """
    n = len(diagonal)
    a = [x % m for x in diagonal]
    gs = [gcd(x, m) for x in a]  # m for a zero, which never wins
    left, left_inv = identity(n), identity(n)
    d = [m] * n
    for t in range(n):
        g = min(gs[t:])
        if g == m:
            break
        i = gs.index(g, t)
        if i != t:
            a[t], a[i], gs[t], gs[i] = a[i], a[t], g, gs[t]
            left[t], left[i] = left[i], left[t]
            for r in left_inv:
                r[t], r[i] = r[i], r[t]
        p = a[t]
        while True:
            d[t] = g
            b = 0 if g == 1 else next((i for i in range(t + 1, n) if gs[i] % g), 0)
            if not b:
                break
            # row t += row b: the block [[p, x], [y, z]] is [[p, z], [0, z]]
            left[t] = [(x + y) % m for x, y in zip(left[t], left[b])]
            for r in left_inv:
                r[b] = (r[b] - r[t]) % m
            x, y, z = a[b], 0, a[b]
            while True:
                if y:  # a step on rows t and b
                    s, u, v, w = _step(p, y)
                    p, x, y, z = ((s * p + u * y) % m, (s * x + u * z) % m,
                                  (v * p + w * y) % m, (v * x + w * z) % m)
                    lt, lb = left[t], left[b]
                    left[t] = [(s * e + u * f) % m for e, f in zip(lt, lb)]
                    left[b] = [(v * e + w * f) % m for e, f in zip(lt, lb)]
                    for r in left_inv:
                        r[t], r[b] = (w * r[t] - v * r[b]) % m, (s * r[b] - u * r[t]) % m
                if not x:
                    break
                s, u, v, w = _step(p, x)  # a step on columns t and b
                p, x, y, z = ((s * p + u * x) % m, (v * p + w * x) % m,
                              (s * y + u * z) % m, (v * y + w * z) % m)
            a[b], gs[b] = z, gcd(z, m)
            g = gcd(p, m)
    return left, d, left_inv


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
    d = [m] * min(rows, cols)
    for t in range(len(d)):
        # the first entry of least gcd with m in row-major order; a zero
        # (gcd m) never wins, and a unit is least, so the first ends it
        best, pi, pj = m, -1, -1
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                if row[j]:
                    g = gcd(row[j], m)
                    if g < best:
                        best, pi, pj = g, i, j
                        if g == 1:
                            break
            if best == 1:
                break
        if pi < 0:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            left[t], left[pi] = left[pi], left[t]
            for r in left_inv:
                r[t], r[pi] = r[pi], r[t]
        if pj != t:
            for r in a:
                r[t], r[pj] = r[pj], r[t]
        while True:
            # clear column t; a step on rows t and i leaves the rows between
            # them zero in column t, so the scan goes on below i
            for i in range(t + 1, rows):
                if a[i][t]:
                    s, u, v, w = _step(a[t][t], a[i][t])
                    at, ai, lt, li = a[t], a[i], left[t], left[i]
                    if u:
                        a[t] = [(s * x + u * y) % m for x, y in zip(at, ai)]
                        left[t] = [(s * x + u * y) % m for x, y in zip(lt, li)]
                    # else row t stays: row i += v·row t
                    a[i] = [(v * x + w * y) % m for x, y in zip(at, ai)]
                    left[i] = [(v * x + w * y) % m for x, y in zip(lt, li)]
                    for r in left_inv:
                        r[t], r[i] = (w * r[t] - v * r[i]) % m, (s * r[i] - u * r[t]) % m
            # then row t, one column step at a time; a column step can
            # refill column t, so the column is cleared again after it
            at = a[t]
            j = next((j for j in range(t + 1, cols) if at[j]), 0)
            if j:
                s, u, v, w = _step(at[t], at[j])
                if u:
                    for r in a:
                        r[t], r[j] = (s * r[t] + u * r[j]) % m, (v * r[t] + w * r[j]) % m
                else:  # column j += v·column t
                    for r in a:
                        r[j] = (v * r[t] + r[j]) % m
                continue
            # divisibility: gcd(pivot, m) must divide every later entry;
            # a unit pivot divides them all
            d[t] = g = gcd(at[t], m)
            bad = 0 if g == 1 else next(
                (i for i in range(t + 1, rows) if any(x % g for x in a[i][t + 1:])), 0)
            if not bad:
                break
            # row t += row bad, and column bad -= column t on L^-1
            a[t] = [(x + y) % m for x, y in zip(at, a[bad])]
            left[t] = [(x + y) % m for x, y in zip(left[t], left[bad])]
            for r in left_inv:
                r[bad] = (r[bad] - r[t]) % m
    return left, d, left_inv if inverse else None
