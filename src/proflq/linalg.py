"""Dense exact linear algebra over the prime fields F_p.

Two elimination paths, chosen from p:

* p = 2: each row is a Python int (`np.packbits`, then `int.from_bytes`,
  so column 0 is the highest bit).  A row echelon form is a dict from
  leading bit to row, built by XOR-ing away leading bits; `rank` stops
  there, `rref` back-substitutes (the packed-row idea of M4RI: Albrecht,
  Bard and Hart, ACM TOMS 37(1), 2010).
* odd p: Gaussian elimination on numpy int64 arrays with all arithmetic
  reduced mod p.  Columns that are zero throughout are skipped, each
  pivot updates only the columns from the pivot on, and `rank` only the
  rows below it.  At p = 2 this path is the reference the bitset path
  is tested against.

`RowSpace` is a row space that grows by `add` and answers `contains`;
the free-resolution builder uses it to pick generators.  p stays small
(2, 3, 5, ...), so int64 never overflows.  No floating point anywhere.
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
# p = 2: rows as Python ints


def _pack(matrix) -> tuple[list[int], int]:
    """Rows of an F_2 matrix as ints (column c is bit cols - 1 - c), and cols."""
    a = np.asarray(matrix)
    if a.dtype.kind not in "iu":
        a = np.asarray(a, dtype=np.int64)
    a = _as_2d(a)
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return [0] * rows, cols
    packed = np.packbits(a & 1, axis=1)
    shift = packed.shape[1] * 8 - cols
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i * width:(i + 1) * width], "big") >> shift
            for i in range(rows)], cols


def _unpack(ints: list[int], rows: int, cols: int) -> np.ndarray:
    """The inverse of `_pack`, padded with zero rows to `rows`."""
    out = np.zeros((rows, cols), dtype=np.int64)
    if ints and cols:
        width = (cols + 7) // 8
        shift = width * 8 - cols
        data = b"".join((x << shift).to_bytes(width, "big") for x in ints)
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8).reshape(-1, width),
                             axis=1)
        out[:len(ints)] = bits[:, :cols]
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


def _rref_f2(matrix) -> tuple[np.ndarray, list[int]]:
    ints, cols = _pack(matrix)
    lead: dict[int, int] = {}
    _echelon_f2(ints, lead)
    # back-substitute from the rightmost pivot on: a reduced row has no bit
    # at any other pivot, so XOR-ing it in clears one pivot bit and sets none
    reduced: dict[int, int] = {}
    pivot_bits = 0
    for b in sorted(lead):
        x = lead[b]
        t = x & pivot_bits
        while t:
            c = t.bit_length()
            x ^= reduced[c]
            t ^= 1 << (c - 1)
        reduced[b] = x
        pivot_bits |= 1 << (b - 1)
    order = sorted(reduced, reverse=True)
    return _unpack([reduced[b] for b in order], len(ints), cols), [cols - b for b in order]


def _rank_f2(matrix) -> int:
    ints, _ = _pack(matrix)
    lead: dict[int, int] = {}
    _echelon_f2(ints, lead)
    return len(lead)


# ---------------------------------------------------------------------------
# odd p (and the p = 2 reference): numpy int64


def _eliminate(a: np.ndarray, p: int, reduce_above: bool) -> list[int]:
    """Row-reduce `a` in place; with `reduce_above`, to reduced echelon form."""
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
    return _rref_f2(matrix) if p == 2 else _rref_fp(matrix, p)


def rank(matrix, p: int) -> int:
    return _rank_f2(matrix) if p == 2 else _rank_fp(matrix, p)


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


def _mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, split along the inner dimension so int64 cannot overflow."""
    step = max(1, (_INT64_MAX - p) // max((p - 1) ** 2, 1))
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, a.shape[1], step):
        out = (out + a[:, s:s + step] @ b[s:s + step]) % p
    return out


class RowSpace:
    """A subspace of F_p^ncols that grows by `add`.

    At p = 2 it is a bitset echelon form (leading bit -> row).  At odd p
    it is a full reduced row-echelon form, updated on each `add` by
    reducing the new rows against it with one product and clearing the
    new pivot columns from it with another.
    """

    def __init__(self, p: int, ncols: int):
        self.p = p
        self._lead: dict[int, int] = {}                        # p = 2
        self._rows = np.zeros((0, ncols), dtype=np.int64)      # odd p
        self._pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self._lead) if self.p == 2 else len(self._pivots)

    def _reduce(self, rows: np.ndarray) -> np.ndarray:
        rows = as_fp(rows, self.p)
        coef = rows[:, self._pivots]
        used = np.flatnonzero(coef.any(axis=0))  # basis rows that take part
        if not used.size:
            return rows
        return (rows - _mulmod(coef[:, used], self._rows[used], self.p)) % self.p

    def add(self, rows) -> None:
        if self.p == 2:
            _echelon_f2(_pack(rows)[0], self._lead)
            return
        new, pivots = _rref_fp(self._reduce(rows), self.p)
        if not pivots:
            return
        new = new[:len(pivots)]
        old = (self._rows - _mulmod(self._rows[:, pivots], new, self.p)) % self.p
        merged = self._pivots + pivots
        order = np.argsort(merged, kind="stable")
        self._rows = np.vstack([old, new])[order]
        self._pivots = [merged[i] for i in order]

    def contains(self, vec) -> bool:
        if self.p == 2:
            return not _reduce_f2(_pack(np.reshape(vec, (1, -1)))[0][0], self._lead)
        return not self._reduce(np.reshape(vec, (1, -1))).any()
