"""Exact integer matrix normal forms.

Smith normal form with unimodular transforms (and the inverse of the left
one), integer kernels and exact linear solves.  Everything runs on plain
Python ints (arbitrary precision), matrices are lists of lists.  Sizes here
are desk scale; clarity over speed.
"""

from __future__ import annotations


def zeros(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> list[list[int]]:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch in mat_mul")
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = zeros(len(a), cols)
    for i, row in enumerate(a):
        for k in range(inner):
            aik = row[k]
            if aik == 0:
                continue
            brow = b[k]
            orow = out[i]
            for j in range(cols):
                orow[j] += aik * brow[j]
    return out


def transpose(a: list[list[int]]) -> list[list[int]]:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def smith_normal_form(matrix: list[list[int]]) -> tuple[
        list[list[int]], list[list[int]], list[list[int]], list[list[int]]]:
    """Return (L, D, R, L^-1) with L @ matrix @ R == D.

    L and R are unimodular, D is diagonal with d_1 | d_2 | ... and
    nonnegative entries.  Empty matrices are allowed.  Every row operation
    on L is matched by the inverse column operation on L^-1, so the two
    stay inverse to each other throughout.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    a = [list(r) for r in matrix]
    left = identity(rows)
    left_inv = identity(rows)
    right = identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]
        for r in left_inv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in right:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        # row_dst += c * row_src
        arow, lrow = a[src], left[src]
        for j in range(cols):
            a[dst][j] += c * arow[j]
        for j in range(rows):
            left[dst][j] += c * lrow[j]
        for r in left_inv:
            r[src] -= c * r[dst]

    def add_col(src, dst, c):
        for r in a:
            r[dst] += c * r[src]
        for r in right:
            r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]
        for r in left_inv:
            r[i] = -r[i]

    t = 0
    while t < min(rows, cols):
        # find a pivot: nonzero entry of minimal absolute value in a[t:, t:]
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        # clear row and column t
        while True:
            progressed = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                    progressed = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                    progressed = True
            if not progressed:
                break
        # divisibility: a[t][t] must divide every later entry
        d = a[t][t]
        fixed = True
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % d:
                    add_row(i, t, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if a[t][t] < 0:
                negate_row(t)
            t += 1

    diag = zeros(rows, cols)
    for i in range(min(rows, cols)):
        diag[i][i] = a[i][i]
    return left, diag, right, left_inv


def diagonal_of(d: list[list[int]]) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def integer_kernel(matrix: list[list[int]]) -> list[list[int]]:
    """Basis (as columns) of {x in Z^cols : matrix @ x = 0}."""
    rows = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    if cols == 0:
        return []
    if rows == 0:
        return identity(cols)
    _, d, right, _ = smith_normal_form(matrix)
    diag = diagonal_of(d)
    free = [j for j in range(cols) if j >= len(diag) or diag[j] == 0]
    # columns of `right` indexed by `free` span the kernel
    return [[right[i][j] for j in free] for i in range(cols)]


def solve_integer(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Solve a @ x = b exactly where an integer solution is known to exist.

    Used for lattice quotients (a's columns a basis, b's columns inside the
    lattice), so a has full column rank and the solution is unique.
    """
    rows = len(a)
    cols = len(a[0]) if a else 0
    bcols = len(b[0]) if b else 0
    if cols == 0:
        if any(any(r) for r in b):
            raise ValueError("inconsistent system")
        return zeros(0, bcols)
    left, d, right, _ = smith_normal_form(a)
    lb = mat_mul(left, b)
    diag = diagonal_of(d)
    y = zeros(cols, bcols)
    for i in range(rows):
        di = diag[i] if i < len(diag) else 0
        for j in range(bcols):
            v = lb[i][j]
            if di == 0:
                if v != 0:
                    raise ValueError("inconsistent system")
            else:
                q, r = divmod(v, di)
                if r:
                    raise ValueError("no integer solution")
                if i < cols:
                    y[i][j] = q
    return mat_mul(right, y)
