"""Dense exact linear algebra over the prime fields F_p.

Two elimination designs, chosen from p:

* p in {2, 3}: packed rows of Python ints, with column 0 the highest bit
  (`np.packbits`, then `int.from_bytes`; the packed-row design of M4RI:
  Albrecht, Bard and Hart, ACM TOMS 37(1), 2010).  At p = 2 a row is one
  int and rows add by XOR.  At p = 3 a row is two bit planes
  `(ones, twos)`, the columns that hold 1 and those that hold 2
  (bitslicing: Boothby and Bradshaw, arXiv:0901.1413); two rows add in
  seven bitwise operations and a row is negated by swapping its planes.
  A row echelon form is a dict from leading bit length to a row whose
  leading coefficient is 1.  `rank` stops there; `rref` back-substitutes
  over the pivot bits a row has.
* p >= 5: Gaussian elimination on numpy int64 arrays with all arithmetic
  reduced mod p (`_eliminate`).  Columns that are zero throughout are
  skipped, each pivot updates only the columns from the pivot on, and
  `rank` only the rows below it.  At p = 2 and 3 this path is the
  reference the packed rows are tested against.

`RowSpace` is a row space that grows by `add` and names the rows
`outside` it; the free-resolution builder uses it to pick generators.
At p >= 5 it is an `rref`, re-eliminated with each `add`, and a row is
tested by clearing it against the pivots one at a time.

Every int64 value of an elimination stays within p(p - 1) in absolute
value, so `_eliminate` refuses, with a ValueError, any p above that
bound: p(p - 1) <= 2^63 - 1, that is p <= 3037000493 among the primes.
No floating point anywhere.
"""

from __future__ import annotations

import numpy as np

_INT64_MAX = np.iinfo(np.int64).max


def _as_2d(a: np.ndarray) -> np.ndarray:
    if a.ndim != 2:
        a = a.reshape(a.shape[0], -1) if a.size else a.reshape(0, 0)
    return a


def _mod(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p: numpy divides by a scalar several times faster than it
    takes a remainder, and floor division gives the same residues."""
    return a - a // p * p


def as_fp(matrix, p: int) -> np.ndarray:
    return _as_2d(_mod(np.asarray(matrix, dtype=np.int64), p))


# ---------------------------------------------------------------------------
# p in {2, 3}: rows as Python ints


def _ints(bits: np.ndarray) -> list[int]:
    """Rows of a 0/1 array as ints; column c is bit cols - 1 - c.  Rows of
    at most 64 columns are read as big-endian words by one `tolist`."""
    rows, cols = bits.shape
    packed = np.packbits(bits, axis=1)
    shift = packed.shape[1] * 8 - cols
    if cols <= 64:
        words = np.zeros((rows, 8), dtype=np.uint8)  # C-ordered, as view needs
        words[:, 8 - packed.shape[1]:] = packed
        return (words.view(">u8")[:, 0] >> shift).tolist()
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i:i + width], "big") >> shift
            for i in range(0, len(data), width)]


def _bits(ints, cols: int) -> np.ndarray:
    """The inverse of `_ints`, as uint8."""
    width = (cols + 7) // 8
    shift = width * 8 - cols
    data = b"".join((x << shift).to_bytes(width, "big") for x in ints)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8).reshape(-1, width),
                         axis=1)
    return bits[:, :cols]


def _pack(matrix, p: int) -> tuple[list, int]:
    """Rows of an F_p matrix, p in {2, 3}, packed; and the number of columns.

    A row is an int at p = 2 and a pair (ones, twos) of ints at p = 3.
    Any integer dtype is read as its residues mod p.
    """
    a = np.asarray(matrix)
    if a.dtype.kind not in "iu":
        a = np.asarray(a, dtype=np.int64)
    a = _as_2d(a)
    if p == 2:
        return _ints(a & 1), a.shape[1]
    a = _mod(a, 3)
    ints = _ints(np.concatenate([a == 1, a == 2]))
    rows = a.shape[0]
    return list(zip(ints[:rows], ints[rows:])), a.shape[1]


def _unpack(packed: list, rows: int, cols: int, p: int) -> np.ndarray:
    """The inverse of `_pack`, padded with zero rows to `rows`."""
    out = np.zeros((rows, cols), dtype=np.int64)
    if packed and cols:
        if p == 2:
            out[:len(packed)] = _bits(packed, cols)
        else:
            ones, twos = zip(*packed)
            out[:len(packed)] = _bits(ones, cols) + 2 * _bits(twos, cols)
    return out


def _reduce_f2(x: int, lead: dict[int, int]) -> int:
    """x with leading bits XOR-ed away while the echelon form has them."""
    while x:
        r = lead.get(x.bit_length())
        if r is None:
            return x
        x ^= r
    return 0


def _echelon_f2(ints, lead: dict[int, int]) -> None:
    """Insert rows into an echelon form kept as {leading bit length: row}."""
    for x in ints:  # the loop of _reduce_f2, inline: this is the hot path
        while x:
            b = x.bit_length()
            r = lead.get(b)
            if r is None:
                lead[b] = x
                break
            x ^= r


def _reduce_f3(x1: int, x2: int, lead: dict) -> tuple[int, int]:
    """(x1, x2) with leading entries cleared while the echelon form has them.

    The planes are disjoint, so the one with the leading entry is the
    larger int.  A leading 2 adds the pivot row y, a leading 1 adds -y.
    For x + y, with t = (x1 | y2) ^ (x2 | y1), the ones are (x2 | y2) ^ t
    and the twos (x1 | y1) ^ t: seven operations on whole rows.
    """
    while x1 or x2:
        if x1 > x2:  # -y is y with its planes swapped
            r = lead.get(x1.bit_length())
            if r is None:
                return x1, x2
            y2, y1 = r
        else:
            r = lead.get(x2.bit_length())
            if r is None:
                return x1, x2
            y1, y2 = r
        t = (x1 | y2) ^ (x2 | y1)
        x1, x2 = (x2 | y2) ^ t, (x1 | y1) ^ t
    return 0, 0


def _echelon_f3(rows, lead: dict) -> None:
    """Insert rows into an echelon form kept as {leading bit length: row},
    each row scaled (by 2 = -1, a plane swap) to a leading 1."""
    for x1, x2 in rows:
        x1, x2 = _reduce_f3(x1, x2, lead)
        if x1 > x2:
            lead[x1.bit_length()] = (x1, x2)
        elif x2:
            lead[x2.bit_length()] = (x2, x1)


def _echelon(rows, lead: dict, p: int) -> None:
    (_echelon_f2 if p == 2 else _echelon_f3)(rows, lead)


def _back_substitute(lead: dict, p: int) -> dict:
    """The reduced echelon form of an echelon form.

    From the rightmost pivot on: a reduced row has no entry at any other
    pivot, so adding a multiple of it clears one pivot entry and sets none.
    """
    reduced: dict = {}
    pivot_bits = 0
    for b in sorted(lead):
        x = lead[b]
        if p == 2:
            t = x & pivot_bits
            while t:
                c = t.bit_length()
                x ^= reduced[c]
                t ^= 1 << (c - 1)
        else:
            x1, x2 = x
            t = (x1 | x2) & pivot_bits
            while t:
                c = t.bit_length()
                y1, y2 = reduced[c]
                if x1 >> (c - 1) & 1:  # an entry 1 at c: add -y
                    y1, y2 = y2, y1
                u = (x1 | y2) ^ (x2 | y1)
                x1, x2 = (x2 | y2) ^ u, (x1 | y1) ^ u
                t ^= 1 << (c - 1)
            x = (x1, x2)
        reduced[b] = x
        pivot_bits |= 1 << (b - 1)
    return reduced


def _rref_packed(matrix, p: int) -> tuple[np.ndarray, list[int]]:
    rows, cols = _pack(matrix, p)
    lead: dict = {}
    _echelon(rows, lead, p)
    reduced = _back_substitute(lead, p)
    order = sorted(reduced, reverse=True)
    return (_unpack([reduced[b] for b in order], len(rows), cols, p),
            [cols - b for b in order])


def _rank_packed(matrix, p: int) -> int:
    lead: dict = {}
    _echelon(_pack(matrix, p)[0], lead, p)
    return len(lead)


# ---------------------------------------------------------------------------
# p >= 5 (and the reference at p in {2, 3}): numpy int64


def _check_int64_bound(p: int) -> None:
    if p * (p - 1) > _INT64_MAX:
        raise ValueError(f"p = {p} is too large for int64 arithmetic over F_p: "
                         "p(p - 1) must be at most 2^63 - 1, so p <= 3037000493")


def _eliminate(a: np.ndarray, p: int, reduce_above: bool) -> list[int]:
    """Row-reduce `a` in place; with `reduce_above`, to reduced echelon form."""
    _check_int64_bound(p)
    rows = a.shape[0]
    pivots: list[int] = []
    r = 0
    # a column that is zero stays zero under row operations
    for c in np.flatnonzero(a.any(axis=0)).tolist():
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + nz[0]
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p) if p > 2 else 1
        if inv != 1:
            a[r, c:] = (a[r, c:] * inv) % p
        if reduce_above:
            mask = np.nonzero(a[:, c])[0]
            mask = mask[mask != r]
        else:
            mask = np.nonzero(a[r + 1:, c])[0] + (r + 1)
        if mask.size:
            a[mask, c:] = _mod(a[mask, c:] - np.outer(a[mask, c], a[r, c:]), p)
        pivots.append(c)
        r += 1
    return pivots


def _rref_fp(matrix, p: int) -> tuple[np.ndarray, list[int]]:
    a = as_fp(matrix, p)  # a new array, so the caller's is not touched
    return a, _eliminate(a, p, True)


def _rank_fp(matrix, p: int) -> int:
    return len(_eliminate(as_fp(matrix, p), p, False))


# ---------------------------------------------------------------------------
# the public interface


def rref(matrix, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over F_p; returns (R, pivot_columns)."""
    return _rref_packed(matrix, p) if p <= 3 else _rref_fp(matrix, p)


def rank(matrix, p: int) -> int:
    return _rank_packed(matrix, p) if p <= 3 else _rank_fp(matrix, p)


def _kernel(r: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Kernel basis (as columns) read off a reduced row-echelon form."""
    cols = r.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.nonzero(is_free)[0]
    basis = np.zeros((cols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = (-r[:len(pivots), free]) % p
    return basis


def nullspace(matrix, p: int) -> np.ndarray:
    """Columns form a basis of {x : matrix @ x = 0 (mod p)}."""
    return _kernel(*rref(matrix, p), p)


class RowSpace:
    """A subspace of F_p^ncols that grows by `add`.

    At p in {2, 3} it is the packed echelon form (leading bit length ->
    row with leading coefficient 1), grown by inserting the new rows; a
    row is in the space when it reduces to zero against it.  At p >= 5
    it is the nonzero rows of an `rref`, re-eliminated with the new rows
    stacked below on each `add`; a row is in the space when clearing its
    entry at each pivot, one pivot at a time, leaves zero.
    """

    def __init__(self, p: int, ncols: int):
        self.p = p
        self._lead: dict = {}                                  # p <= 3
        self._rows = np.zeros((0, ncols), dtype=np.int64)      # p >= 5
        self._pivots: list[int] = []                           # p >= 5

    @property
    def dim(self) -> int:
        return len(self._lead) if self.p <= 3 else len(self._rows)

    def add(self, rows) -> None:
        if self.p <= 3:
            _echelon(_pack(rows, self.p)[0], self._lead, self.p)
            return
        r, pivots = _rref_fp(np.vstack([self._rows, as_fp(rows, self.p)]), self.p)
        self._rows, self._pivots = r[:len(pivots)], pivots

    def outside(self, rows):
        """Yield the index of each row that is not in the space when it is
        reached.  The caller may `add` in between: the rows are read
        once, and each is tested against the space as it is then."""
        p, lead = self.p, self._lead
        if p == 2:
            for i, x in enumerate(_pack(rows, 2)[0]):
                if _reduce_f2(x, lead):
                    yield i
        elif p == 3:
            for i, (x1, x2) in enumerate(_pack(rows, 3)[0]):
                if any(_reduce_f3(x1, x2, lead)):
                    yield i
        else:
            _check_int64_bound(p)
            for i, row in enumerate(as_fp(rows, p)):
                # the other rows of an rref are 0 at a pivot, so clearing
                # one pivot leaves the entries at the others as they were
                for r, c in zip(self._rows, self._pivots):
                    if row[c]:
                        row = _mod(row - row[c] * r, p)
                if row.any():
                    yield i
