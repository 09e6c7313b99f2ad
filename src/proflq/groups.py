"""Finite groups as multiplication tables.

`FiniteGroup` is the one group kernel.  It holds the table as a numpy
int64 array (`table`, whose bytes key the cohomology caches) and as a
list of Python rows, so that `mul` and `inv` are plain list indexing;
the inverses are read off the rows once.  Beside them it keeps the
conjugation rows `conj_rows[g][x] = g x g⁻¹`, built in one numpy
gather, so that conjugating a set or a tuple by g is one `map` over a
row: subgroup conjugation, the subgroup class pass and the
conjugation sweeps of `repv`, `lq` and `sep` all read them.

`closure` is a breadth-first search from the identity that multiplies
only by the given generators.  `all_subgroups` computes the subgroup
lattice once per group object, by cyclic extension with a
coset-by-coset closure (table-based methods as in Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 3) that
reads the coset {h·x : h in S} from column x of the table.  It keeps
the lattice on the object and hands every caller a fresh list;
`generators_greedy` keeps its generator list the same way.  Per-element
helpers are private, so that an outside tracer of the public methods
does not time every lookup.

Every constructor is an element list and a product rule handed to one
builder, `_table_group`, which numbers the elements in the given order
(identity first) and fills the table: permutations closed by BFS in a
deterministic order, residues, pairs for direct and semidirect products
and for the dicyclic groups, the elements of a subgroup, and the cosets
of a normal subgroup.  `left_cosets` numbers the left cosets of a
subgroup by their first element; quotients and coset modules both read
it.  `subgroup_classes` splits the lattice into conjugacy classes once
per group object, in one orbit pass that also records the normalizer of
each class representative and, for every subgroup, the least element
conjugating its representative to it; the normalizer of any subgroup is
then that conjugate of its representative's.  `subgroups_up_to_conjugacy`
and `p_subgroups_up_to_conjugacy` read its representatives.  The
normalizer method and the conjugacy test of two arbitrary element sets
scan the group; everything stays at desk scale.
`GroupHom` checks f(ab) = f(a)f(b) on all pairs in one numpy comparison.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

DEFAULT_ORDER_BOUND = 360


class FiniteGroup:
    def __init__(self, table, name: str | None = None, validate: bool = True):
        table = np.asarray(table, dtype=np.int64)
        n = table.shape[0]
        if table.shape != (n, n):
            raise ValueError("multiplication table must be square")
        self.table = table
        self.order = n
        self.name = name
        if validate:
            self._validate()
        self._rows = table.tolist()
        self._inv = [row.index(0) for row in self._rows]
        # conj_rows[g][x] = g x g^{-1}, one gather (g x) then (g x) g^{-1}
        self.conj_rows = table[table, np.array(self._inv)[:, None]].tolist()
        self._subgroups = None  # the lattice, filled by all_subgroups
        self._generators = None  # filled by generators_greedy
        self._classes = None  # filled by subgroup_classes

    def _validate(self):
        t, n = self.table, self.order
        if not ((t >= 0) & (t < n)).all():
            raise ValueError("table entries out of range")
        if not (t[0] == np.arange(n)).all() or not (t[:, 0] == np.arange(n)).all():
            raise ValueError("element 0 must be the identity")
        has_inverse = (t == 0).any(axis=1)
        if not has_inverse.all():
            raise ValueError(f"element {int(np.argmin(has_inverse))} has no inverse")
        for a in range(n):
            # t[t[a]][b, c] = (ab)c and t[a][t][b, c] = a(bc): one row of the
            # n^3 triples at a time, so memory stays n^2
            if not (t[t[a]] == t[a][t]).all():
                raise ValueError("table is not associative")

    def mul(self, a: int, b: int) -> int:
        return self._rows[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def _conjugate(self, g: int, elements) -> frozenset[int]:
        """g S g^{-1} as a set; private, so per-element work is not traced."""
        return frozenset(map(self.conj_rows[g].__getitem__, elements))

    def element_order(self, a: int) -> int:
        rows = self._rows
        k, x = 1, a
        while x != 0:
            x = rows[x][a]
            k += 1
        return k

    def elements(self):
        return range(self.order)

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self._inv[a], -k)
        rows, out = self._rows, 0
        for _ in range(k):
            out = rows[out][a]
        return out

    def closure(self, elements) -> frozenset[int]:
        """The subgroup generated by `elements`.

        A breadth-first search from the identity that multiplies only by
        the generators: in a finite group every element of <S> is a
        product of elements of S, so this costs |<S>|·|S| lookups.
        """
        rows = self._rows
        gens = [x for x in set(elements) if x != 0]
        seen = {0}
        queue = [0]
        for a in queue:
            row = rows[a]
            for s in gens:
                c = row[s]
                if c not in seen:
                    seen.add(c)
                    queue.append(c)
        return frozenset(seen)

    def normalizer(self, subgroup_elements) -> list[int]:
        s = frozenset(subgroup_elements)
        return [g for g in range(self.order) if self._conjugate(g, s) == s]

    def generators_greedy(self) -> list[int]:
        """Generators picked by decreasing element order, computed once."""
        if self._generators is None:
            gens: list[int] = []
            span = frozenset({0})
            for x in sorted(range(self.order),
                            key=lambda a: -self.element_order(a)):
                if x not in span:
                    gens.append(x)
                    span = self.closure(gens)
                    if len(span) == self.order:
                        break
            self._generators = tuple(gens)
        return list(self._generators)

    def conjugate_subgroup(self, g: int, elements) -> frozenset[int]:
        return self._conjugate(g, elements)

    def are_conjugate_subgroups(self, a, b) -> bool:
        a, b = frozenset(a), frozenset(b)
        if len(a) != len(b):
            return False
        return any(self._conjugate(g, a) == b for g in range(self.order))

    def __repr__(self):
        return f"FiniteGroup(order={self.order}, name={self.name!r})"


def _table_group(elements, mul, name) -> FiniteGroup:
    """The group on `elements`, numbered in the given order with the
    identity first, whose table is filled from the product `mul`."""
    index = {x: i for i, x in enumerate(elements)}
    table = [[index[mul(a, b)] for b in elements] for a in elements]
    return FiniteGroup(table, name=name, validate=False)


def _subgroup_elements(g: FiniteGroup, elements) -> frozenset[int]:
    """`elements` as a set, refused unless it is a subgroup of g."""
    h = frozenset(elements)
    if not all(0 <= x < g.order for x in h) or g.closure(h) != h:
        raise ValueError(f"{sorted(h)} is not a subgroup of the group")
    return h


def left_cosets(g: FiniteGroup, elements) -> tuple[list[int], list[int]]:
    """(coset_of, reps) for the left cosets aH of the subgroup H given by
    `elements`: cosets are numbered by their first element, which is also
    their least one and their representative, so the coset of 0 is 0."""
    h = _subgroup_elements(g, elements)
    coset_of = [-1] * g.order
    reps = []
    for a in range(g.order):
        if coset_of[a] < 0:
            row = g._rows[a]
            for x in h:
                coset_of[row[x]] = len(reps)
            reps.append(a)
    return coset_of, reps


def _perm_compose(p, q):
    """(p . q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def group_from_permutations(generators, name=None,
                            order_bound: int = DEFAULT_ORDER_BOUND) -> FiniteGroup:
    """Close a set of permutations (tuples of 0-based images) under product.

    Elements are ordered by BFS over the generators with lexicographic
    tie-break, the identity first, so the numbering is deterministic.
    """
    if not generators:
        return _table_group([()], _perm_compose, name or "1")
    degree = len(generators[0])
    for g in generators:
        if sorted(g) != list(range(degree)):
            raise ValueError(f"{g} is not a permutation of 0..{degree - 1}")
    gens = sorted(tuple(g) for g in generators)
    elems = [tuple(range(degree))]
    seen = set(elems)
    for p in elems:  # a queue: BFS from the identity
        for g in gens:
            q = _perm_compose(p, g)
            if q not in seen:
                if len(elems) >= order_bound:
                    raise ValueError(f"group order exceeds bound {order_bound}")
                seen.add(q)
                elems.append(q)
    return _table_group(elems, _perm_compose, name)


def trivial_group() -> FiniteGroup:
    return _table_group([0], lambda a, b: 0, "1")


def cyclic_group(n: int) -> FiniteGroup:
    if n == 1:
        return trivial_group()
    return _table_group(range(n), lambda a, b: (a + b) % n, f"C{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup, name=None) -> FiniteGroup:
    return _table_group(
        [(a, b) for a in range(g.order) for b in range(h.order)],
        lambda x, y: (g.mul(x[0], y[0]), h.mul(x[1], y[1])),
        name or f"{g.name}x{h.name}")


def semidirect_cyclic(n: int, k: int, unit: int, name=None) -> FiniteGroup:
    """C_n x| C_k where the generator of C_k acts on C_n by x -> unit * x."""
    if pow(unit, k, n) != 1 % n:
        raise ValueError("unit does not define an action of C_k")
    return _table_group(
        [(i, j) for j in range(k) for i in range(n)],
        lambda x, y: ((x[0] + pow(unit, x[1], n) * y[0]) % n, (x[1] + y[1]) % k),
        name)


def semidirect_product(n_group: FiniteGroup, h_group: FiniteGroup,
                       action, name=None) -> FiniteGroup:
    """N x| H.  `action[h]` is the permutation of N's elements giving the
    automorphism by which h in H acts; multiplication is
    (n1, h1)(n2, h2) = (n1 * action[h1](n2), h1 h2)."""
    n, k = n_group.order, h_group.order
    action = [list(a) for a in action]
    if len(action) != k:
        raise ValueError("one automorphism per element of H required")
    for h in range(k):
        a = action[h]
        if sorted(a) != list(range(n)) or a[0] != 0:
            raise ValueError(f"action[{h}] is not a permutation fixing 1")
        for x in range(n):
            for y in range(n):
                if a[n_group.mul(x, y)] != n_group.mul(a[x], a[y]):
                    raise ValueError(f"action[{h}] is not an automorphism")
    for h1 in range(k):
        for h2 in range(k):
            composed = [action[h1][action[h2][x]] for x in range(n)]
            if composed != action[h_group.mul(h1, h2)]:
                raise ValueError("action is not a homomorphism H -> Aut(N)")
    return _table_group(
        [(x, h) for h in range(k) for x in range(n)],
        lambda a, b: (n_group.mul(a[0], action[a[1]][b[0]]), h_group.mul(a[1], b[1])),
        name)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the n-gon, order 2n."""
    return semidirect_cyclic(n, 2, n - 1, name=f"D{n}")


def dicyclic_group(n: int) -> FiniteGroup:
    """Dic_n of order 4n: <a, b | a^{2n} = 1, b^2 = a^n, b a b^{-1} = a^{-1}>.

    The element a^i b^j is the pair (i, j)."""
    m = 2 * n

    def mul(x, y):
        (i1, j1), (i2, j2) = x, y
        if j1 == 0:
            return (i1 + i2) % m, j2
        if j2 == 0:
            return (i1 - i2) % m, 1
        return (i1 - i2 + n) % m, 0

    return _table_group([(i, j) for j in range(2) for i in range(m)], mul, f"Dic{n}")


def symmetric_group(n: int) -> FiniteGroup:
    if n <= 1:
        return trivial_group()
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return group_from_permutations(gens, name=f"S{n}")


def alternating_group(n: int) -> FiniteGroup:
    if n <= 2:
        return trivial_group()
    threecycle = tuple([1, 2, 0] + list(range(3, n)))
    gens = [threecycle]
    if n > 3:
        if n % 2:
            gens.append(tuple(list(range(1, n)) + [0]))
        else:
            gens.append(tuple([0] + list(range(2, n)) + [1]))
    return group_from_permutations(gens, name=f"A{n}")


def quotient_group(g: FiniteGroup, normal_elements, name=None):
    """(Q, projection) for a normal subgroup given by its element set;
    coset i of Q is the left coset of `left_cosets` numbered i."""
    n_set = frozenset(normal_elements)
    proj, reps = left_cosets(g, n_set)
    if len(g.normalizer(n_set)) != g.order:
        raise ValueError("subgroup is not normal")
    return _table_group(range(len(reps)),
                        lambda i, j: proj[g.mul(reps[i], reps[j])], name), proj


def subgroup_group(g: FiniteGroup, elements, name=None):
    """(H, embedding) where embedding[i] is the parent index of element i."""
    elems = _subgroup_elements(g, elements)
    order = [0] + sorted(x for x in elems if x != 0)
    return _table_group(order, g.mul, name), order


def all_subgroups(g: FiniteGroup) -> list[frozenset[int]]:
    """Every subgroup of g, as element sets, by size then elements.

    The lattice is computed once per group object and kept on it; every
    call returns a fresh list, so a caller may change its list freely.
    """
    if g._subgroups is None:
        g._subgroups = tuple(_subgroup_lattice(g))
    return list(g._subgroups)


def _subgroup_lattice(g: FiniteGroup) -> list[frozenset[int]]:
    """Cyclic extension: every subgroup arises from {1} by adjoining one
    cyclic subgroup at a time, and <H, x> depends only on <x> and on the
    coset Hx, so one generator per cyclic subgroup and coset is tried."""
    rows, cols = g._rows, g.table.T.tolist()  # cols[x][h] = h x
    cyclic: dict[frozenset[int], int] = {}
    for x in range(1, g.order):
        powers, y = [0], x
        while y != 0:
            powers.append(y)
            y = rows[y][x]
        cyclic.setdefault(frozenset(powers), x)
    trivial = frozenset({0})
    gens_of = {trivial: ()}   # subgroup -> a generating tuple
    frontier = [trivial]
    while frontier:
        nxt = []
        for s in frontier:
            gens = gens_of[s]
            tried = set(s)
            for x in cyclic.values():
                if x in tried:
                    continue
                tried.update(map(cols[x].__getitem__, s))
                t = _adjoin(rows, cols, s, gens + (x,))
                if t not in gens_of:
                    gens_of[t] = gens + (x,)
                    nxt.append(t)
        frontier = nxt
    return sorted(gens_of, key=lambda s: (len(s), sorted(s)))


def _adjoin(rows, cols, s: frozenset[int], gens: tuple[int, ...]) -> frozenset[int]:
    """<gens> for gens that contain generators of the subgroup s, built
    one right coset s·r at a time (Dimino's algorithm): the union of the
    cosets found is closed under right multiplication by every generator
    once no rep·generator leaves it."""
    seen = set(s)
    reps = [0]
    for r in reps:
        row = rows[r]
        for x in gens:
            c = row[x]
            if c not in seen:
                seen.update(map(cols[c].__getitem__, s))
                reps.append(c)
    return frozenset(seen)


class SubgroupClasses(NamedTuple):
    """The conjugacy classes of subgroups of one group.

    `index` maps every subgroup to the number of its class; `reps[k]` is
    the first subgroup of class k in `all_subgroups` order, the classes
    numbered in the order of their representatives; `normalizers[k]` is
    N(reps[k]), the stabiliser of the class under conjugation, in
    increasing order.  `conjugators` maps every subgroup t to the least
    element c with c·reps[index[t]]·c⁻¹ = t, so N(t) = c·N(rep)·c⁻¹
    without a scan of the group.
    """

    index: Mapping[frozenset[int], int]
    reps: tuple[frozenset[int], ...]
    normalizers: tuple[tuple[int, ...], ...]
    conjugators: Mapping[frozenset[int], int]


def subgroup_classes(g: FiniteGroup) -> SubgroupClasses:
    """The subgroup conjugacy classes of g, computed once per group object.

    One pass conjugates each representative by every element of g, in
    increasing order, through the conjugation rows: the images are its
    class, the first element reaching an image is that image's conjugator,
    and the elements that fix it are its normalizer.
    """
    if g._classes is None:
        index: dict[frozenset[int], int] = {}
        conjugators: dict[frozenset[int], int] = {}
        reps, normalizers = [], []
        for s in all_subgroups(g):
            if s in index:
                continue
            stabiliser = []
            for x, row in enumerate(g.conj_rows):
                t = frozenset(map(row.__getitem__, s))
                if t not in index:
                    index[t] = len(reps)
                    conjugators[t] = x
                if t == s:
                    stabiliser.append(x)
            reps.append(s)
            normalizers.append(tuple(stabiliser))
        g._classes = SubgroupClasses(MappingProxyType(index), tuple(reps),
                                     tuple(normalizers),
                                     MappingProxyType(conjugators))
    return g._classes


def subgroups_up_to_conjugacy(g: FiniteGroup) -> list[frozenset[int]]:
    """One subgroup per conjugacy class, the first in `all_subgroups`
    order, as a fresh list."""
    return list(subgroup_classes(g).reps)


def p_subgroups_up_to_conjugacy(g: FiniteGroup, p: int) -> list[frozenset[int]]:
    return [s for s in subgroups_up_to_conjugacy(g) if _is_p_power(len(s), p)]


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


class GroupHom:
    """A homomorphism between table groups, stored as an image list."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, images):
        images = list(images)
        if len(images) != source.order:
            raise ValueError("one image per source element required")
        im = np.asarray(images)
        if im.dtype.kind not in "iu" or im.min() < 0 or im.max() >= target.order:
            raise ValueError(f"images must be integers in 0..{target.order - 1}")
        # f(ab) = f(a) f(b) for every pair (a, b), in one comparison
        if not (im[source.table] == target.table[im[:, None], im]).all():
            raise ValueError("images are not multiplicative")
        self.source = source
        self.target = target
        self.images = images

    def __call__(self, a: int) -> int:
        return self.images[a]

    @property
    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.target.order


def identity_hom(g: FiniteGroup) -> GroupHom:
    return GroupHom(g, g, list(range(g.order)))
