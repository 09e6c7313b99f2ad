"""Finite modules over Z/m in invariant-factor normal form.

A module is a direct sum Z/d_1 + ... + Z/d_k with d_1 | d_2 | ... | d_k,
all d_i > 1 dividing the ambient modulus m.  Maps are integer matrices
read modulo the target factors.  All arithmetic is over Z/m: a cokernel
reads L and d of one Smith form over Z/m (`snf.smith_normal_form`), and
the invariant factors of a direct sum are the Smith form of its diagonal
of orders, read off the diagonal with no matrix, with the row steps that
`snf.replay` turns into L and L^-1 (`snf.diagonal_smith_form`); a
kernel is the dual of the cokernel of the dual map, since Pontryagin
duality (Hom into Z/m, standing in for Q/Z at exponent m) is exact; an
image is the cokernel of the kernel inclusion.
Composites, and sums of them, are one `sum_of_composites` each, and
`composites_agree` compares two such sums without building either.

Each map is built once, and only when something reads it.  A cokernel
and a dual are computed once per map, and a direct sum normalized once
per tuple of summands, and all are kept in `proflq.cache`, so their maps
are shared: a `ModuleMap` cannot be changed after it is built.  The
projection onto a cokernel, and the injection and projection of a
summand of a `DirectSum`, are built the first time one is read; a
`DirectSum` replays its steps into L and L^-1 on the first read of any
of its maps, once, and `hom_module`, which reads the factors alone,
replays none.  Modules and maps are hashed once, when built, so the
cache lookups rehash nothing.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import gcd, isqrt, prod

from . import cache, snf


def is_prime(n: int) -> bool:
    """Primality by trial division up to the square root of n."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


@dataclass(frozen=True)
class FiniteRing:
    """The coefficient ring Z/m, m >= 2."""

    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")


@dataclass(frozen=True)
class FiniteModule:
    ring: FiniteRing
    factors: tuple[int, ...]

    def __post_init__(self):
        # the caches key on modules, so the factors are kept as a tuple of
        # ints and hashed once, here
        try:
            factors = tuple(map(operator.index, self.factors))
        except TypeError:
            raise ValueError(f"factors {self.factors!r} are not all integers") from None
        object.__setattr__(self, "factors", factors)
        m = self.ring.modulus
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a:
                raise ValueError(f"factors {self.factors} are not a divisibility chain")
        for d in self.factors:
            if d <= 1 or m % d:
                raise ValueError(f"factor {d} invalid for modulus {m}")
        object.__setattr__(self, "_hash", hash((self.ring, factors)))

    def __hash__(self):
        return self._hash

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def is_zero(self) -> bool:
        return not self.factors

    def elements(self):
        return itertools.product(*(range(d) for d in self.factors))

    def identity_map(self) -> "ModuleMap":
        return ModuleMap(self, self, snf.identity(self.rank))


def zero_module(ring: FiniteRing) -> FiniteModule:
    return FiniteModule(ring, ())


def cyclic(ring: FiniteRing, d: int) -> FiniteModule:
    return FiniteModule(ring, (d,)) if d > 1 else zero_module(ring)


class ModuleMap:
    """A homomorphism between finite modules, stored as an integer matrix.

    Entry (i, j) is read modulo the i-th target factor; well-definedness
    (source factor annihilates its column) is validated eagerly, once:
    the map is immutable after `__init__`, which also hashes it once.
    The source factors are a divisibility chain, so a row is tested only
    up to its first column whose factor the target factor divides.
    """

    __slots__ = ("source", "target", "matrix", "_hash")

    def __init__(self, source: FiniteModule, target: FiniteModule, matrix):
        if source.ring is not target.ring and source.ring != target.ring:
            raise ValueError("source and target live over different rings")
        t_factors, s_factors = target.factors, source.factors
        rows, cols = len(t_factors), len(s_factors)
        if len(matrix) != rows or any(map(cols.__ne__, map(len, matrix))):
            raise ValueError(f"matrix must be {rows}x{cols}")
        reduced = []
        for row, d in zip(matrix, t_factors):
            row = tuple([int(x) % d for x in row])
            for x, c in zip(row, s_factors):
                if c % d == 0:
                    break  # c, and each later factor, a multiple of c, kills Z/d
                if x * c % d:
                    i = len(reduced)
                    j = next(j for j, (x, c) in enumerate(zip(row, s_factors))
                             if x * c % d)
                    raise ValueError(f"entry ({i},{j}) does not define a homomorphism")
            reduced.append(row)
        reduced = tuple(reduced)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", reduced)
        object.__setattr__(self, "_hash", hash((source, target, reduced)))

    def __setattr__(self, name, value):
        raise AttributeError(f"ModuleMap is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ModuleMap is immutable: cannot delete {name!r}")

    def __call__(self, x) -> tuple[int, ...]:
        return tuple(
            sum(self.matrix[i][j] * x[j] for j in range(self.source.rank)) % d
            for i, d in enumerate(self.target.factors)
        )

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, ModuleMap)
            and self._hash == other._hash
            and self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"ModuleMap({self.source.factors}->{self.target.factors}, {self.matrix})"

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other: a sum of one composite."""
        return sum_of_composites(other.source, self.target, [(self, other)])

    @property
    def is_zero(self) -> bool:
        return all(all(e == 0 for e in row) for row in self.matrix)

    def is_injective(self) -> bool:
        # |ker f| = |A| |coker f| / |B|, so no kernel need be built
        return self.source.order * _cokernel(self)[0].order == self.target.order

    def is_surjective(self) -> bool:
        return _cokernel(self)[0].is_zero

    def is_isomorphism(self) -> bool:
        return (
            self.source.order == self.target.order
            and self.is_injective()
        )


def zero_map(source: FiniteModule, target: FiniteModule) -> ModuleMap:
    return ModuleMap(source, target, snf.zeros(target.rank, source.rank))


def sum_of_composites(source: FiniteModule, target: FiniteModule,
                      chains) -> ModuleMap:
    """The sum over `chains` of f_1 . f_2 . ... . f_n, as one ModuleMap.

    Each chain is a sequence of composable maps from `source` to `target`.
    The composites are summed as unreduced integer matrices and reduced
    once: every column of a well-defined map is killed by its source
    factor, so this is the map that composing and adding step by step
    gives, without a validated map for every intermediate.  The matrices
    are small and mostly zero, so each composite is built from right to
    left as rows of its nonzero (column, value) entries, and only those
    are added into the total.
    """
    return ModuleMap(source, target, _composite_total(source, target, chains))


def composites_agree(source: FiniteModule, target: FiniteModule,
                     chains, other_chains) -> bool:
    """Whether the sums of composites over `chains` and over `other_chains`
    are the same map from `source` to `target`.

    Both sums are well defined, so they are equal exactly when their
    unreduced totals agree modulo the target factors; no map is built.
    """
    return all((x - y) % d == 0
               for row, other, d in zip(_composite_total(source, target, chains),
                                        _composite_total(source, target, other_chains),
                                        target.factors)
               for x, y in zip(row, other))


def _composite_total(source: FiniteModule, target: FiniteModule, chains) -> list:
    """The unreduced integer matrix of `sum_of_composites`."""
    total = snf.zeros(target.rank, source.rank)
    for chain in chains:
        # the summands share their modules, so `is` settles most checks
        end, through_zero = target, False
        for f in chain:
            if f.target is not end and f.target != end:
                raise ValueError("maps are not composable")
            end = f.source
            through_zero = through_zero or end.is_zero
        if end is not source and end != source:
            raise ValueError("maps are not composable")
        if through_zero:
            continue  # the composite factors through 0
        if len(chain) == 1:
            sparse = [[(j, 1)] for j in range(source.rank)]
        else:
            sparse = [[(j, v) for j, v in enumerate(row) if v]
                      for row in chain[-1].matrix]
            for f in chain[-2:0:-1]:
                sparse = [_sparse_product(row, sparse) for row in f.matrix]
        for row, out in zip(chain[0].matrix, total):
            for x, entries in zip(row, sparse):
                if x:
                    for j, v in entries:
                        out[j] += x * v
    return total


def _sparse_product(row, sparse) -> list:
    """The (column, value) entries of `row` times the matrix whose rows
    are the entry lists of `sparse`; an entry that cancels stays, as 0."""
    acc = {}
    for x, entries in zip(row, sparse):
        if x:
            for j, v in entries:
                acc[j] = acc.get(j, 0) + x * v
    return list(acc.items())


def _cokernel(f: ModuleMap) -> list:
    """The `finring.cokernel` entry of f: [Q, the rows of L that give pi,
    the pair (Q, pi) once `cokernel` has built it, else None].

    One Smith form of [F | diag(c)] over Z/m, c the target factors: the
    rows of L with d_i > 1 project onto Q = Z/d_1 + ... .
    """
    entry = cache.lookup("finring.cokernel", f)
    if entry is None:
        tgt = f.target
        n, k = tgt.rank, f.source.rank
        aug = [list(row) + [0] * n for row in f.matrix]
        for i, c in enumerate(tgt.factors):
            aug[i][k + i] = c
        left, d = snf.smith_normal_form(aug, tgt.ring.modulus)
        kept = [i for i, di in enumerate(d) if di > 1]
        q = FiniteModule(tgt.ring, tuple(d[i] for i in kept))
        entry = cache.store("finring.cokernel", f, [q, [left[i] for i in kept], None])
    return entry


def cokernel(f: ModuleMap) -> tuple[FiniteModule, ModuleMap]:
    """(Q, pi) with pi: target -> Q the universal map killing im(f).

    Q is computed once per map and kept in the `finring.cokernel` region
    of `proflq.cache`; pi is built the first time it is asked for here,
    and kept with it.  `image`, `is_injective` and `is_surjective` read
    Q alone.
    """
    entry = _cokernel(f)
    if entry[2] is None:
        q, rows = entry[0], entry[1]
        entry[2] = (q, ModuleMap(f.target, q, rows))
    return entry[2]


def kernel(f: ModuleMap) -> tuple[FiniteModule, ModuleMap]:
    """(K, iota) with iota: K -> source the universal map killed by f.

    Pontryagin duality is exact and swaps kernels and cokernels: the dual
    of the projection onto coker(f^v) is the inclusion of ker(f).
    """
    q, proj = cokernel(dual_map(f))
    return q, dual_map(proj)


def image(f: ModuleMap) -> FiniteModule:
    """The image of f as an abstract module (no embedding returned)."""
    return _cokernel(kernel(f)[1])[0]


def from_cyclic(ring: FiniteRing, orders: list[int]):
    """Normalize a direct sum of cyclic groups Z/orders[l].

    Returns (M, steps): M is the invariant-factor module, read off the
    Smith form of diag(orders) by `snf.diagonal_smith_form`, and `steps`
    the row steps that `snf.replay` turns into the normalizing matrices L
    and L^-1 between the raw coordinate presentation and M.  No matrix is
    built here.  Order-1 summands are allowed and vanish.
    """
    m = ring.modulus
    for c in orders:
        if c < 1 or m % c:
            raise ValueError(f"cyclic order {c} invalid for modulus {m}")
    d, steps = snf.diagonal_smith_form(orders, m)
    return FiniteModule(ring, tuple(x for x in d if x > 1)), steps


class DirectSum:
    """A normalized direct sum: the total, with its injections and
    projections, the maps of summand i built the first time each is read
    and then kept.

    The total and the steps of its normal form come from one
    `from_cyclic`.  The first read of any map replays the steps into L
    and L^-1, once; summand i owns the coordinates in block i, and its
    injection reads those columns of the rows of L that the total keeps,
    its projection those rows of L^-1, cut to the columns it keeps.
    """

    __slots__ = ("summands", "total", "_steps", "_normal", "_injections",
                 "_projections")

    def __init__(self, summands: tuple[FiniteModule, ...]):
        orders = [d for m in summands for d in m.factors]
        self.summands = summands
        self.total, self._steps = from_cyclic(summands[0].ring, orders)
        self._normal = None
        self._injections = [None] * len(summands)
        self._projections = [None] * len(summands)

    def _normal_form(self) -> tuple:
        """(the rows of L the total keeps, L^-1, the blocks), from one replay."""
        if self._normal is None:
            ends = list(itertools.accumulate(m.rank for m in self.summands))
            n = ends[-1]
            left, left_inv = snf.replay(self._steps, n, self.total.ring.modulus)
            # the factors > 1 end the diagonal
            self._normal = (left[n - self.total.rank:], left_inv,
                            [slice(a, b) for a, b in zip([0, *ends], ends)])
        return self._normal

    def injection(self, i: int) -> ModuleMap:
        """The inclusion of summand i into the total."""
        inj = self._injections[i]
        if inj is None:
            to_normal, _, blocks = self._normal_form()
            block = blocks[i]
            inj = self._injections[i] = ModuleMap(
                self.summands[i], self.total, [row[block] for row in to_normal])
        return inj

    def projection(self, i: int) -> ModuleMap:
        """The projection of the total onto summand i."""
        proj = self._projections[i]
        if proj is None:
            _, left_inv, blocks = self._normal_form()
            kept = len(left_inv) - self.total.rank
            proj = self._projections[i] = ModuleMap(
                self.total, self.summands[i], [row[kept:] for row in left_inv[blocks[i]]])
        return proj


def lazy_direct_sum(modules: list[FiniteModule]) -> DirectSum:
    """The normalized direct sum of `modules`, its maps built on first read.

    The sum of each tuple of summands is computed once and kept in the
    `finring.direct_sum` region of `proflq.cache`, so the maps read once
    are shared by every later caller.
    """
    if not modules:
        raise ValueError("direct_sum of an empty list needs a ring; use zero_module")
    ring = modules[0].ring
    for m in modules:  # the summands mostly share one ring object
        if m.ring is not ring and m.ring != ring:
            raise ValueError("ring mismatch in direct_sum")
    key = tuple(modules)
    entry = cache.lookup("finring.direct_sum", key)
    if entry is None:
        entry = cache.store("finring.direct_sum", key, DirectSum(key))
    return entry


def direct_sum(modules: list[FiniteModule]):
    """Normalized direct sum with explicit injections and projections.

    Returns (total, injections, projections), the lists fresh on every
    call and holding every map; `lazy_direct_sum` builds only the maps a
    caller reads.
    """
    s = lazy_direct_sum(modules)
    summands = range(len(modules))
    return (s.total, [s.injection(i) for i in summands],
            [s.projection(i) for i in summands])


def hom_module(m: FiniteModule, n: FiniteModule) -> FiniteModule:
    """Hom(M, N), extended biadditively from Hom(Z/a, Z/b) = Z/gcd(a, b)."""
    if m.ring != n.ring:
        raise ValueError("ring mismatch")
    orders = [gcd(a, b) for a in m.factors for b in n.factors]
    return from_cyclic(m.ring, orders)[0]


def pontryagin_dual(m: FiniteModule) -> FiniteModule:
    """Hom(M, Z/m): finite cyclic groups are self-dual, so same factors."""
    return m


def dual_map(f: ModuleMap) -> ModuleMap:
    """f^v: N^v -> M^v defined by <f(x), xi> = <x, f^v(xi)>.

    Computed once per map and kept in the `finring.dual_map` region of
    `proflq.cache`, under f only: the dual of f^v is computed, and
    checked, on its own first call.
    """
    dual = cache.lookup("finring.dual_map", f)
    if dual is None:
        src, tgt = f.source, f.target
        matrix = [[row[j] * c // d for row, d in zip(f.matrix, tgt.factors)]
                  for j, c in enumerate(src.factors)]
        dual = cache.store("finring.dual_map", f, ModuleMap(
            pontryagin_dual(tgt), pontryagin_dual(src), matrix))
    return dual


def is_isomorphic(m: FiniteModule, n: FiniteModule) -> bool:
    if m.ring != n.ring:
        raise ValueError("ring mismatch")
    return m.factors == n.factors
