"""Rep(V, G) for elementary abelian V = (Z/p)^r and finite G.

hom(V, G) is the set of r-tuples of pairwise-commuting elements of order
dividing p, enumerated lexicographically; G acts by simultaneous
conjugation and Rep(V, G) is the orbit set.  Each class carries its
canonical representative (lex-smallest tuple), orbit size, image rank,
centralizer and Weyl image: the normalizer of the image acting as
automorphism matrices over F_p in an echelonized basis drawn from the
representative's entries.  `repv` is the one module that computes
these facts, each in one pass over the conjugation rows of G.

hom(V, G) and Rep(V, G) are memoized per (group table, p, r) in
`cache`, so every caller asking about the same group shares one
enumeration; the budget is checked before the lookup, and each call
returns fresh lists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import cache
from .errors import BudgetError
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
    return group.table.tobytes(), v.p, v.r


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


def weyl_image(group: FiniteGroup, hom: tuple[int, ...],
               p: int) -> dict[tuple[tuple[int, ...], ...], int]:
    """Image of N_G(rho(V)) -> Aut(rho(V)), as {matrix: least n realizing it}.

    Matrices are i x i over F_p and act on exponent vectors in the
    echelonized basis, column j the image of basis vector j.  One pass
    over the conjugation rows in increasing order: n normalizes rho(V)
    exactly when it conjugates every basis element into the image, that
    is into the keys of the discrete-log table.
    """
    basis = echelon_basis(group, hom)
    logs = _discrete_log_table(group, basis, p)
    realizers = {}
    for n, row in enumerate(group.conj_rows):
        cols = [logs.get(row[b]) for b in basis]
        if None not in cols:
            realizers.setdefault(tuple(cols), n)
    return realizers


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
    key = _memo_key(v, group, budget)
    found = cache.lookup("repv.rep_classes", key)
    if found is None:
        found = cache.store("repv.rep_classes", key,
                            _orbits(v, group, hom_enumerate(v, group, budget)))
    classes, orbit_map = found
    return list(classes), list(orbit_map)


def _orbits(v: ElementaryAbelian, group: FiniteGroup, homs) -> tuple:
    """(classes, orbit_map) as tuples, computed from the lex-ordered homs.

    The first hom not yet placed is the least of its orbit, so it is the
    representative.  Its images under the conjugation rows, in increasing
    order, are its orbit and, where they equal it, its centralizer.
    """
    pos = {h: i for i, h in enumerate(homs)}
    orbit_map = [-1] * len(homs)
    classes = []
    for i, h in enumerate(homs):
        if orbit_map[i] != -1:
            continue
        images = [tuple(map(row.__getitem__, h)) for row in group.conj_rows]
        orbit = sorted(set(images))
        for t in orbit:
            orbit_map[pos[t]] = len(classes)
        weyl = sorted(weyl_image(group, h, v.p))
        classes.append(RepClass(
            representative=h,
            orbit=tuple(orbit),
            image_rank=len(weyl[0]),  # the matrices are rank x rank
            centralizer=tuple(g for g, t in enumerate(images) if t == h),
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
