"""Smith normal form over Z/m.

Every lattice the library reduces contains m·Z^n, so its normal forms are
computed in (Z/m)^n with every entry kept in range(m) (Storjohann and
Mulders, "Fast algorithms for linear algebra modulo N", ESA 1998).  The
entries never grow, and a loop past its step bound raises InvariantError.
Matrices are lists of lists of plain ints.  Only `finring` imports this
module.

`smith_normal_form` is one loop with its steps written inline; the 2x2
step that zeroes an entry against the pivot is the one rule `_step`.
`diagonal_smith_form` gives the loop's d on a diagonal matrix from the
diagonal alone, for the direct sums of `finring.from_cyclic`: there the
loop only swaps, except where a divisibility fix mixes two rows, and then
its steps touch one 2x2 block, which is cleared by the same steps.  It
builds no matrix and returns the row steps it took; `replay`, the one
builder of a sum's L and L^-1, applies them to the identity when a caller
first reads a map of the sum.
"""

from __future__ import annotations

from math import gcd

from .errors import InvariantError


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


def diagonal_smith_form(diagonal: list[int], m: int) -> tuple[list[int], list[tuple]]:
    """The d that `smith_normal_form` gives on the matrix diag(diagonal),
    read off the diagonal alone, with the row steps of its L, which
    `replay` turns into (L, L^-1).

    The loop's pivot is the first diagonal entry left of least gcd with m,
    and swapping its row and column together keeps the matrix diagonal,
    so nothing is eliminated: where the pivot's gcd divides every later
    entry, the steps are the swaps (t, i).  A divisibility fix adds a
    later row b to row t, the step (t, b, 1, 1, 0, 1), and the loop then
    clears the 2x2 block of rows and columns t, b, which no other entry
    shares; the block is cleared here by the same steps, its row steps
    recorded as (t, b, s, u, v, w), and the matrix is diagonal again after
    it.  Every round of the block but the last two makes the pivot fall to
    a proper divisor, so past 2·bits(m) rounds the block raises
    InvariantError.
    """
    n = len(diagonal)
    a = [x % m for x in diagonal]
    gs = [gcd(x, m) for x in a]  # m for a zero, which never wins
    steps = []
    d = [m] * n
    bits = m.bit_length()
    for t in range(n):
        g = min(gs[t:])
        if g == m:
            break
        i = gs.index(g, t)
        if i != t:
            a[t], a[i], gs[t], gs[i] = a[i], a[t], g, gs[t]
            steps.append((t, i))
        p = a[t]
        while True:
            d[t] = g
            b = 0 if g == 1 else next((i for i in range(t + 1, n) if gs[i] % g), 0)
            if not b:
                break
            # row t += row b: the block [[p, x], [y, z]] is [[p, z], [0, z]]
            steps.append((t, b, 1, 1, 0, 1))
            x, y, z = a[b], 0, a[b]
            for _ in range(2 * bits):
                if y:  # a step on rows t and b
                    s, u, v, w = _step(p, y)
                    p, x, y, z = ((s * p + u * y) % m, (s * x + u * z) % m,
                                  (v * p + w * y) % m, (v * x + w * z) % m)
                    steps.append((t, b, s, u, v, w))
                if not x:
                    break
                s, u, v, w = _step(p, x)  # a step on columns t and b
                p, x, y, z = ((s * p + u * x) % m, (v * p + w * x) % m,
                              (s * y + u * z) % m, (v * y + w * z) % m)
            else:
                raise InvariantError("2x2 Smith block past its step bound",
                                     {"diagonal": diagonal, "m": m, "pivot": t})
            a[b], gs[b] = z, gcd(z, m)
            g = gcd(p, m)
    return d, steps


def replay(steps: list[tuple], n: int, m: int) -> tuple[
        list[list[int]], list[list[int]]]:
    """(L, L^-1): the row steps of `diagonal_smith_form` applied, in order,
    to the n x n identity, with every entry in range(m).

    A swap (t, i) swaps rows t and i of L and columns t and i of L^-1; a
    step (t, b, s, u, v, w) sends rows t, b of L to s·t + u·b, v·t + w·b
    and columns t, b of L^-1 to w·t - v·b, s·b - u·t, its inverse, since
    s·w - u·v = 1.
    """
    left, left_inv = identity(n), identity(n)
    for step in steps:
        if len(step) == 2:
            t, i = step
            left[t], left[i] = left[i], left[t]
            for r in left_inv:
                r[t], r[i] = r[i], r[t]
        else:
            t, b, s, u, v, w = step
            lt, lb = left[t], left[b]
            left[t] = [(s * e + u * f) % m for e, f in zip(lt, lb)]
            left[b] = [(v * e + w * f) % m for e, f in zip(lt, lb)]
            for r in left_inv:
                r[t], r[b] = (w * r[t] - v * r[b]) % m, (s * r[b] - u * r[t]) % m
    return left, left_inv


def smith_normal_form(matrix: list[list[int]], m: int) -> tuple[
        list[list[int]], list[int]]:
    """Return (L, d): L·matrix·R ≡ diag(d) (mod m) for some R.

    L and R are invertible mod m and d has min(rows, cols) entries, each a
    divisor of m, with d_1 | d_2 | ...; d_i = m marks a zero diagonal entry.
    Diagonal entries are fixed only up to units, which R absorbs, so row i
    of L·matrix is ≡ 0 mod d_i.

    A Bézout step leaves a pivot that is a proper divisor of the old one,
    a fix is followed by such a fall, and an entry of row t zeroed by a
    divisible step stays zero until the next fall or fix; so pivot t takes
    fewer than 2·bits(m)·(cols - t) column steps and fixes, and past that
    the loop raises InvariantError.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    a = [[x % m for x in r] for r in matrix]
    left = identity(rows)
    d = [m] * min(rows, cols)
    bits = m.bit_length()
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
        if pj != t:
            for r in a:
                r[t], r[pj] = r[pj], r[t]
        for _ in range(2 * bits * (cols - t)):
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
            a[t] = [(x + y) % m for x, y in zip(at, a[bad])]
            left[t] = [(x + y) % m for x, y in zip(left[t], left[bad])]
        else:
            raise InvariantError("Smith loop past its step bound",
                                 {"matrix": matrix, "m": m, "pivot": t})
    return left, d
