"""Finite groups as multiplication tables.

`FiniteGroup` is the one group kernel.  It owns a read-only int64 copy
of its table (`table`), serializes it once into `key`, the bytes every
cache key of `groupcoh` and `repv` starts with, and keeps it as a list
of Python rows, so that `mul` and `inv` are plain list indexing; the
inverses are read off the rows once.  Beside them it keeps the
conjugation table `conj[g, x] = g x g⁻¹`, built in one numpy gather and
kept read-only in the narrowest unsigned dtype that holds |G| - 1, and
its columns as lists, `conj_cols[x]`, the conjugates g x g⁻¹ of x for
every g in element order: conjugating x by a set of elements is one
`map` over column x, and conjugating a set by one g reads entry g of
each member's column.  Subgroup conjugation, the subgroup class pass and
the conjugation sweeps of `repv`, `sep` and `groupcoh` (normalizers and
their automorphisms, centralizer checks, conjugacy classes of elements)
read the columns, and `repv` conjugates all of hom(V, G) at once by
gathering from `conj`.  No other module builds an array from the columns.

`closure` is a breadth-first search from the identity that multiplies
only by the given generators.  `generators_greedy` is computed once per
group object and handed out as a fresh list.  Per-element helpers are
private, so that an outside tracer of the public methods does not time
every lookup.

Every constructor is an element list and a product rule handed to one
builder, `_table_group`, which numbers the elements in the given order
(identity first) and fills the table: permutations closed by BFS in a
deterministic order, residues, pairs for direct and semidirect products
and for the dicyclic groups, the elements of a subgroup, and the cosets
of a normal subgroup.  `left_cosets` numbers the left cosets of a
subgroup by their first element; quotients and coset modules both read
it.

`subgroup_classes` builds the subgroup lattice and its conjugacy classes
together, once per group object, by cyclic extension up to conjugacy
(table-based methods as in Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, 2005, ch. 3): only class representatives
are extended, each by one generator per cyclic subgroup, with a
coset-by-coset closure that reads the coset {h·x : h in S} from column x
of the table, and a subgroup whose class is known is dropped.  A new
class is made at once: its normalizer is the elements that conjugate
each generator into it, and one walk over the normalizer's left cosets
gives its conjugates, each with its least conjugator, so the normalizer
of any subgroup is that conjugate of its representative's.  The record
keeps a generating tuple of each representative.  `all_subgroups` reads
the lattice off its index, `subgroups_up_to_conjugacy` and
`p_subgroups_up_to_conjugacy` its representatives.  A quotient tests
normality on the greedy generators only; the conjugacy test of two
arbitrary element sets scans the group; everything stays at desk scale.
`GroupHom` checks f(ab) = f(a)f(b) on all pairs in one numpy comparison.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import compress
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import require

DEFAULT_ORDER_BOUND = 360


class FiniteGroup:
    def __init__(self, table, name: str | None = None, validate: bool = True):
        # a copy of its own, read-only, so that `key` stays the table's bytes
        table = np.array(table, dtype=np.int64)
        table.flags.writeable = False
        n = table.shape[0]
        if table.shape != (n, n):
            raise ValueError("multiplication table must be square")
        self.table = table
        self.order = n
        self.name = name
        if validate:
            self._validate()
        self.key = table.tobytes()
        self._rows = table.tolist()
        self._inv = [row.index(0) for row in self._rows]
        # conj[g, x] = g x g^{-1}, one gather (g x) then (g x) g^{-1}
        conj = table[table, np.array(self._inv)[:, None]].astype(np.min_scalar_type(n - 1))
        conj.flags.writeable = False
        self.conj = conj
        self.conj_cols = conj.T.tolist()  # conj_cols[x][g] = g x g^{-1}
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
        cols = self.conj_cols
        return frozenset([cols[x][g] for x in elements])

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
        """a^k, any integer k: a^|G| = 1, so k is read mod |G|."""
        rows, out = self._rows, 0
        for _ in range(k % self.order):
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


def _not_a_subgroup(h) -> ValueError:
    return ValueError(f"{sorted(h)} is not a subgroup of the group")


def left_cosets(g: FiniteGroup, elements) -> tuple[list[int], list[int]]:
    """(coset_of, reps) for the left cosets aH of the subgroup H given by
    `elements`: cosets are numbered by their first element, which is also
    their least one and their representative, so the coset of 0 is 0.
    A set that is not a subgroup is refused."""
    h = frozenset(elements)
    if not all(0 <= x < g.order for x in h) or g.closure(h) != h:
        raise _not_a_subgroup(h)
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


def group_from_permutations(generators, name=None) -> FiniteGroup:
    """Close a set of permutations (tuples of 0-based images) under product.

    Elements are ordered by BFS over the generators with lexicographic
    tie-break, the identity first, so the numbering is deterministic.  A
    group of more than `DEFAULT_ORDER_BOUND` elements is refused.
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
                if len(elems) >= DEFAULT_ORDER_BOUND:
                    raise ValueError(f"group order exceeds bound {DEFAULT_ORDER_BOUND}")
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
    coset i of Q is the left coset of `left_cosets` numbered i.

    N is normal when each generator conjugates it onto itself: the
    elements that do form a subgroup, so it is then all of G."""
    n_set = frozenset(normal_elements)
    proj, reps = left_cosets(g, n_set)
    if any(g._conjugate(x, n_set) != n_set for x in g.generators_greedy()):
        raise ValueError("subgroup is not normal")
    return _table_group(range(len(reps)),
                        lambda i, j: proj[g.mul(reps[i], reps[j])], name), proj


def subgroup_group(g: FiniteGroup, elements, name=None):
    """(H, embedding) where embedding[i] is the parent index of element i.

    Filling H's table is the subgroup check: a finite set that holds the
    identity and every product of its elements is a subgroup, and a
    product outside the set has no index in it.
    """
    elems = frozenset(elements)
    if 0 not in elems or not all(0 <= x < g.order for x in elems):
        raise _not_a_subgroup(elems)
    order = sorted(elems)
    try:
        return _table_group(order, g.mul, name), order
    except KeyError:
        raise _not_a_subgroup(elems) from None


def all_subgroups(g: FiniteGroup) -> list[frozenset[int]]:
    """Every subgroup of g, as element sets, by size then elements: the
    keys of the class index of `subgroup_classes`, kept in that order.
    Every call returns a fresh list, so a caller may change its list
    freely.
    """
    return list(subgroup_classes(g).index)


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

    `index` maps every subgroup to the number of its class, its keys in
    `all_subgroups` order; `reps[k]` is the first subgroup of class k in
    that order, the classes numbered in the order of their
    representatives; `normalizers[k]` is N(reps[k]), the stabiliser of
    the class under conjugation, in increasing order.  `conjugators`
    maps every subgroup t to the least element c with
    c·reps[index[t]]·c⁻¹ = t, so N(t) = c·N(rep)·c⁻¹ without a scan of
    the group.  `generators[k]` generates reps[k] with one element per
    step of the cyclic extension that found the class; each step at
    least doubles the order, so it has at most as many entries as
    |reps[k]| has prime factors, counted with multiplicity.
    """

    index: Mapping[frozenset[int], int]
    reps: tuple[frozenset[int], ...]
    normalizers: tuple[tuple[int, ...], ...]
    conjugators: Mapping[frozenset[int], int]
    generators: tuple[tuple[int, ...], ...]


def subgroup_classes(g: FiniteGroup) -> SubgroupClasses:
    """The subgroup conjugacy classes of g, computed once per group object.

    Cyclic extension up to conjugacy: every subgroup other than 1 is
    <K, x> for a maximal subgroup K and an x outside it, and
    a·<K, x>·a⁻¹ = <aKa⁻¹, axa⁻¹>, so extending one representative of
    each class by one generator of each cyclic subgroup meets every
    class.  <K, x> depends only on the coset Kx, so one x per coset is
    tried, and a subgroup already in the index of known conjugates is
    skipped; a new one is made a class at once by `_new_class`.
    """
    if g._classes is None:
        rows, cols = g._rows, g.table.T.tolist()  # cols[x][h] = h x
        cyclic: dict[frozenset[int], int] = {}  # <x> -> its least generator x
        for x in range(1, g.order):
            powers = [x]
            while powers[-1]:
                powers.append(rows[powers[-1]][x])
            cyclic.setdefault(frozenset(powers), x)
        classes = [_new_class(g, cols, frozenset({0}), ())]
        known = set(classes[0][3])  # every conjugate of every class found
        for rep, gens, _, _ in classes:  # a queue: each class is extended once
            tried = set(rep)
            for x in cyclic.values():
                if x not in tried:
                    tried.update(map(cols[x].__getitem__, rep))
                    t = _adjoin(rows, cols, rep, gens + (x,))
                    if t not in known:
                        classes.append(_new_class(g, cols, t, gens + (x,)))
                        known.update(classes[-1][3])
        classes.sort(key=lambda cls: (len(cls[0]), sorted(cls[0])))
        reps, generators, normalizers, conjugates = zip(*classes)
        conjugators = {t: c for d in conjugates for t, c in d.items()}
        number = {t: k for k, d in enumerate(conjugates) for t in d}
        index = {t: number[t] for t in sorted(number, key=lambda t: (len(t), sorted(t)))}
        g._classes = SubgroupClasses(MappingProxyType(index), reps, normalizers,
                                     MappingProxyType(conjugators), generators)
    return g._classes


def _new_class(g: FiniteGroup, cols, t: frozenset[int], gens: tuple[int, ...]):
    """(rep, its generators, N(rep), {conjugate: least conjugator}) for
    the class of t = <gens>, rep its least conjugate in `all_subgroups`
    order.

    N(t) is the set of elements that conjugate each generator into t.
    One walk over its left cosets aN(t), in increasing order, meets each
    conjugate a·t·a⁻¹ once.  With c the first element of the coset giving
    rep, b·rep·b⁻¹ is the conjugate of the coset that holds b·c, so one
    pass over b in increasing order reads the least conjugator of each
    conjugate and N(rep) off that column of the table.
    """
    rows, conj_cols = g._rows, g.conj_cols
    normalizer = range(g.order)
    for x in gens:  # keep the a whose a·x·a⁻¹, read from column x, lies in t
        normalizer = list(compress(normalizer, map(
            t.__contains__, map(conj_cols[x].__getitem__, normalizer))))
    if len(normalizer) == g.order:  # t is normal: its own class
        return t, gens, tuple(normalizer), {t: 0}
    coset_of, firsts, conjugates = [-1] * g.order, [], []
    for a in range(g.order):
        if coset_of[a] < 0:
            for y in map(rows[a].__getitem__, normalizer):
                coset_of[y] = len(firsts)
            firsts.append(a)
            conjugate = frozenset([conj_cols[x][a] for x in t])
            # a wrong table must fail here: the lattice built on it runs away
            require(len(conjugate) == len(t) and 0 in conjugate,
                    "a conjugate of a subgroup is not a subgroup of its order")
            conjugates.append(conjugate)
    k = min(range(len(conjugates)), key=lambda j: sorted(conjugates[j]))
    c = firsts[k]
    cosets = list(map(coset_of.__getitem__, cols[c]))  # cols[c][b] = b c
    # coset -> least b in it: later pairs overwrite earlier
    least = dict(zip(reversed(cosets), range(g.order - 1, -1, -1)))
    rep_normalizer = tuple(compress(range(g.order), map(k.__eq__, cosets)))
    return (conjugates[k], tuple([conj_cols[x][c] for x in gens]),
            rep_normalizer, {conjugates[j]: b for j, b in least.items()})


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
