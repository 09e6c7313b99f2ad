"""Rep(V, G) for elementary abelian V = (Z/p)^r and finite G.

hom(V, G) is the set of r-tuples of pairwise-commuting elements of order
dividing p, enumerated lexicographically; G acts by simultaneous
conjugation and Rep(V, G) is the orbit set.  The action is one integer
array, action[g, i] the index of g·rho_i·g⁻¹, found for all g and i at
once by coding tuples in base |G| (by their ranks once |G|^r passes
the int64 range; `_codes`, `_conjugation_action`); `rep_classes`
reads each orbit, centralizer and set of Weyl candidates (the least
element of each coset of the centralizer) from a column of it, and
`lq.symonds_module` hands the same array to `permutation_module`.
Each class carries its canonical representative (lex-smallest tuple),
orbit, image rank, centralizer and Weyl image: the normalizer of the
image acting as automorphism matrices over F_p in an echelonized basis
drawn from the representative's entries.  `repv` is the one module that
computes these facts.

hom(V, G), and Rep(V, G) with the action whose orbits it is (stored
read-only), are memoized per (group key, p, r) in `cache`, so every
caller asking about the same group shares one enumeration; the budget
is checked before the lookup, and each call returns fresh lists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import cache
from .errors import BudgetError, require
from .finring import is_prime
from .groups import FiniteGroup
from .groupcoh import GroupTower

DEFAULT_HOM_BUDGET = 1 << 20


@dataclass(frozen=True)
class ElementaryAbelian:
    p: int
    r: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError("p must be prime")
        if self.r < 0:
            raise ValueError("rank must be non-negative")

    @property
    def order(self):
        return self.p ** self.r


def _memo_key(v: ElementaryAbelian, group: FiniteGroup, budget: int) -> tuple:
    """The cache key of (V, G), once |G|^r is known to be within budget."""
    if group.order ** v.r > budget:
        raise BudgetError(f"|G|^r = {group.order ** v.r} exceeds budget")
    return group.key, v.p, v.r


def _codes(rows: np.ndarray, tuples: np.ndarray) -> np.ndarray:
    """codes[g, i]: one integer for the tuple of rows[g, x], x in tuples[i],
    ordered as the tuples are and equal only for equal tuples.

    The tuple in base n = rows.shape[1], its first entry the most
    significant digit, one gather per entry added in place, while n^r
    fits in an int64; past that the sums would wrap, and the code is the
    tuple's rank among all the image tuples instead.
    """
    n, r = rows.shape[1], tuples.shape[1]
    if n ** r >= 1 << 63:
        images = rows[:, tuples].reshape(-1, r)
        _, rank = np.unique(images, axis=0, return_inverse=True)
        return rank.reshape(len(rows), len(tuples))
    codes = np.zeros((len(rows), len(tuples)), dtype=np.int64)
    for column in tuples.T:
        codes *= n
        codes += rows[:, column]
    return codes


def _conjugation_action(v: ElementaryAbelian, group: FiniteGroup,
                        homs) -> np.ndarray:
    """action[g, i] = j where g·homs[i]·g⁻¹ = homs[j], read-only.

    The codes of the image tuples are gathered through the conjugation
    rows, whose row 0 (the identity) codes the homs themselves; each is
    found by `searchsorted` among those sorted codes, and must be found
    there, since a conjugate of a hom is a hom.
    """
    images = _codes(np.asarray(group.conj_rows),
                    np.array(homs, dtype=np.int64).reshape(len(homs), v.r))
    action = np.searchsorted(images[0], images)
    require(not (images[0].take(action, mode="clip") != images).any(),
            "a conjugate of a hom V -> G is not in hom(V, G)",
            {"group": group.name or f"order{group.order}", "p": v.p, "r": v.r})
    action.flags.writeable = False
    return action


def hom_enumerate(v: ElementaryAbelian, group: FiniteGroup,
                  budget: int = DEFAULT_HOM_BUDGET) -> list[tuple[int, ...]]:
    """All homomorphisms V -> G as r-tuples of images, lex order."""
    key = _memo_key(v, group, budget)
    homs = cache.lookup("repv.hom_enumerate", key)
    if homs is None:
        torsion = [x for x in group.elements()
                   if group.power(x, v.p) == 0]
        homs = [()]
        for _ in range(v.r):
            homs = [t + (x,) for t in homs for x in torsion
                    if all(group.mul(x, y) == group.mul(y, x) for y in t)]
        homs = cache.store("repv.hom_enumerate", key, tuple(sorted(homs)))
    return list(homs)


def conjugation_action(v: ElementaryAbelian, group: FiniteGroup,
                       budget: int = DEFAULT_HOM_BUDGET) -> np.ndarray:
    """The action of G on hom(V, G) by conjugation, as a read-only array
    shared by every caller: action[g, i] is the index, in `hom_enumerate`
    order, of g·rho·g⁻¹ for rho the i-th hom.  It is kept with Rep(V, G),
    its orbit set."""
    return _classes(v, group, budget)[2]


def echelon_basis(group: FiniteGroup, hom: tuple[int, ...]) -> list[int]:
    """Basis of the image subgroup, greedily drawn from the tuple entries."""
    basis: list[int] = []
    span = frozenset({0})
    for x in hom:
        if x not in span:
            basis.append(x)
            span = group.closure(basis)
    return basis


def _discrete_log_table(group: FiniteGroup, basis: list[int],
                        p: int) -> dict[int, tuple[int, ...]]:
    """element of the image subgroup -> exponent vector in the basis."""
    table = {}
    for exps in itertools.product(range(p), repeat=len(basis)):
        x = 0
        for b, e in zip(basis, exps):
            x = group.mul(x, group.power(b, e))
        table.setdefault(x, exps)
    return table


def _realizers(group: FiniteGroup, hom: tuple[int, ...], p: int,
               elements) -> dict[tuple[tuple[int, ...], ...], int]:
    """{matrix: first n realizing it} over the n of `elements` that
    normalize rho(V): n does exactly when it conjugates every basis element
    into the image, that is into the keys of the discrete-log table."""
    basis = echelon_basis(group, hom)
    logs = _discrete_log_table(group, basis, p)
    rows = group.conj_rows
    realizers = {}
    for n in elements:
        cols = [logs.get(rows[n][b]) for b in basis]
        if None not in cols:
            realizers.setdefault(tuple(cols), n)
    return realizers


def weyl_image(group: FiniteGroup, hom: tuple[int, ...],
               p: int) -> dict[tuple[tuple[int, ...], ...], int]:
    """Image of N_G(rho(V)) -> Aut(rho(V)), as {matrix: least n realizing it}.

    Matrices are i x i over F_p and act on exponent vectors in the
    echelonized basis, column j the image of basis vector j.  One pass
    over the conjugation rows in increasing order.
    """
    return _realizers(group, hom, p, range(group.order))


@dataclass(frozen=True)
class RepClass:
    representative: tuple[int, ...]
    orbit: tuple[tuple[int, ...], ...]
    image_rank: int
    centralizer: tuple[int, ...]
    weyl: tuple = field(default=(), compare=False)

    @property
    def orbit_size(self):
        return len(self.orbit)


def rep_classes(v: ElementaryAbelian, group: FiniteGroup,
                budget: int = DEFAULT_HOM_BUDGET):
    """(classes, orbit_map): orbits of hom(V,G) under conjugation.

    orbit_map[i] is the class index of the i-th homomorphism in the
    lexicographic enumeration.
    """
    classes, orbit_map, _ = _classes(v, group, budget)
    return list(classes), list(orbit_map)


def _classes(v: ElementaryAbelian, group: FiniteGroup, budget: int) -> tuple:
    """(classes, orbit_map, action), computed once per (table, p, r): the
    enumeration is read once, the action built from it and its orbits
    read from the action."""
    key = _memo_key(v, group, budget)
    found = cache.lookup("repv.rep_classes", key)
    if found is None:
        homs = hom_enumerate(v, group, budget)
        action = _conjugation_action(v, group, homs)
        found = cache.store("repv.rep_classes", key,
                            (*_orbits(v, group, homs, action), action))
    return found


def _orbits(v: ElementaryAbelian, group: FiniteGroup, homs,
            action: np.ndarray) -> tuple:
    """(classes, orbit_map) as tuples, computed from the lex-ordered homs
    and the conjugation action on them.

    The first hom not yet placed is the least of its orbit, so it is the
    representative.  Its column of the action holds the indices of its
    images under every element in increasing order: their set is its
    orbit and the elements that fix it are its centralizer C.  The
    elements reaching one image form a coset gC, and conjugation by g and
    by gc agree on rho(V), so the least element of each coset gives every
    Weyl matrix.
    """
    orbit_map = [-1] * len(homs)
    classes = []
    for i, h in enumerate(homs):
        if orbit_map[i] != -1:
            continue
        images = action[:, i].tolist()
        # image -> least element reaching it: later pairs overwrite earlier
        least = dict(zip(reversed(images), range(len(images) - 1, -1, -1)))
        orbit = sorted(least)
        for j in orbit:
            orbit_map[j] = len(classes)
        weyl = sorted(_realizers(group, h, v.p, least.values()))
        classes.append(RepClass(
            representative=h,
            orbit=tuple(map(homs.__getitem__, orbit)),
            image_rank=len(weyl[0]),  # the matrices are rank x rank
            centralizer=tuple(itertools.compress(range(len(images)),
                                                 map(i.__eq__, images))),
            weyl=tuple(weyl),
        ))
    return tuple(classes), tuple(orbit_map)


def rank_strata(classes) -> list[list[int]]:
    """Class indices partitioned by image rank (index i = stratum i)."""
    top = max((c.image_rank for c in classes), default=0)
    strata = [[] for _ in range(top + 1)]
    for i, c in enumerate(classes):
        strata[c.image_rank].append(i)
    return strata


# ---------------------------------------------------------------------------
# towers


def induced_class_map(transition, upper_classes, lower_orbit_map,
                      lower_homs) -> list[int]:
    """Rep(V, G_{k+1}) -> Rep(V, G_k) on class indices."""
    pos = {h: i for i, h in enumerate(lower_homs)}
    out = []
    for c in upper_classes:
        image = tuple(transition(x) for x in c.representative)
        out.append(lower_orbit_map[pos[image]])
    return out


def rep_tower(v: ElementaryAbelian, tower: GroupTower,
              budget: int = DEFAULT_HOM_BUDGET) -> dict:
    """Levelwise Rep classes, induced maps, and thread analysis.

    A thread is a compatible sequence of class indices; it is determined
    by its deepest class.  The `persistent` flag marks threads whose
    image rank is constant across the last two levels — evidence of a
    genuine limit class, while a rank drop pins the thread as a
    truncation artifact.  No claim is made beyond the supplied depth.
    """
    levels = []
    for g in tower.levels:
        classes, orbit_map = rep_classes(v, g, budget)
        homs = hom_enumerate(v, g, budget)
        levels.append({"classes": classes, "orbit_map": orbit_map,
                       "homs": homs})
    maps = []
    for k, q in enumerate(tower.transitions):
        maps.append(induced_class_map(
            q, levels[k + 1]["classes"], levels[k]["orbit_map"], levels[k]["homs"]))
    threads = []
    depth = tower.depth
    for top in range(len(levels[-1]["classes"])):
        seq = [top]
        for k in range(depth - 2, -1, -1):
            seq.append(maps[k][seq[-1]])
        seq.reverse()
        ranks = [levels[k]["classes"][seq[k]].image_rank for k in range(depth)]
        persistent = depth < 2 or ranks[-1] == ranks[-2]
        threads.append({"classes": tuple(seq), "ranks": tuple(ranks),
                        "persistent": persistent})
    return {"levels": [lv["classes"] for lv in levels],
            "class_maps": maps,
            "threads": threads,
            "persistent_threads": [t["classes"] for t in threads
                                   if t["persistent"]]}
