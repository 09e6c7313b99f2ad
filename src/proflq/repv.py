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
orbit, image rank (the size of `echelon_basis`), centralizer and Weyl
image: the normalizer of the image acting as automorphism matrices over
F_p in an echelonized basis drawn from the representative's entries,
computed the first time it is read, from the least element of each
coset of the centralizer.  `repv` is the one module that computes these
facts, and checks the classes where they are made (`_check_classes`):
the orbits partition hom(V, G), and each centralizer is exactly
C_G(rho(V)).  `class_map` pushes Rep(V, G) forward along
a homomorphism G -> L, which is both the separability map of `sep` and
a transition of `rep_tower`.

Rep(V, G) is one record per (group key, p, r) in `cache`: the lex-ordered
homs, the checked classes, the orbit map and the action whose orbits
they are (stored read-only), so every caller asking about the same group
shares one enumeration and one check; the budget is checked before the
lookup, and each call returns fresh lists.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import cache
from .errors import BudgetError, InvariantError, require
from .finring import is_prime
from .groups import FiniteGroup, GroupHom
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


def _check_budget(v: ElementaryAbelian, group: FiniteGroup, budget: int) -> None:
    """Refuse (V, G) unless |G|^r, which bounds |hom(V, G)|, is within budget."""
    if group.order ** v.r > budget:
        raise BudgetError(f"|G|^r = {group.order ** v.r} exceeds budget")


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
    array `group.conj`, whose row 0 (the identity) codes the homs
    themselves; each is found by `searchsorted` among those sorted codes,
    and must be found there, since a conjugate of a hom is a hom.
    """
    images = _codes(group.conj,
                    np.array(homs, dtype=np.int64).reshape(len(homs), v.r))
    action = np.searchsorted(images[0], images)
    require(not (images[0].take(action, mode="clip") != images).any(),
            "a conjugate of a hom V -> G is not in hom(V, G)",
            {"group": group.name or f"order{group.order}", "p": v.p, "r": v.r})
    action.flags.writeable = False
    return action


def hom_enumerate(v: ElementaryAbelian, group: FiniteGroup,
                  budget: int = DEFAULT_HOM_BUDGET) -> list[tuple[int, ...]]:
    """All homomorphisms V -> G as r-tuples of images, lex order, uncached:
    `rep_classes` keeps them with the classes."""
    _check_budget(v, group, budget)
    torsion = [x for x in group.elements() if group.power(x, v.p) == 0]
    homs = [()]
    for _ in range(v.r):
        homs = [t + (x,) for t in homs for x in torsion
                if all(group.mul(x, y) == group.mul(y, x) for y in t)]
    return sorted(homs)


def conjugation_action(v: ElementaryAbelian, group: FiniteGroup,
                       budget: int = DEFAULT_HOM_BUDGET) -> np.ndarray:
    """The action of G on hom(V, G) by conjugation, as a read-only array
    shared by every caller: action[g, i] is the index, in `hom_enumerate`
    order, of g·rho·g⁻¹ for rho the i-th hom.  It is kept with Rep(V, G),
    its orbit set."""
    return _classes(v, group, budget)[3]


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


def _realizers(group: FiniteGroup, basis: tuple[int, ...], p: int,
               elements) -> dict[tuple[tuple[int, ...], ...], int]:
    """{matrix: first n realizing it} over the n of `elements` that
    normalize rho(V), `basis` its echelon basis: n does exactly when it
    conjugates every basis element into the image, that is into the keys
    of the discrete-log table."""
    logs, cols = _discrete_log_table(group, basis, p), group.conj_cols
    realizers = {}
    # n with the conjugates of the basis under n, one column per basis element
    for n, *images in zip(elements, *(map(cols[b].__getitem__, elements) for b in basis)):
        matrix = tuple(map(logs.get, images))
        if None not in matrix:
            realizers.setdefault(matrix, n)
    return realizers


def weyl_image(group: FiniteGroup, hom: tuple[int, ...],
               p: int) -> dict[tuple[tuple[int, ...], ...], int]:
    """Image of N_G(rho(V)) -> Aut(rho(V)), as {matrix: least n realizing it}.

    Matrices are i x i over F_p and act on exponent vectors in the
    echelonized basis, column j the image of basis vector j.  One pass
    over the conjugation columns of the basis, in increasing order of n.
    """
    return _realizers(group, echelon_basis(group, hom), p, range(group.order))


@dataclass(frozen=True)
class RepClass:
    """One class of Rep(V, G).  `weyl`, the matrices of `weyl_image` in
    sorted order, is computed the first time it is read, from `weyl_from`:
    (G, p, the echelon basis of the image, the least element of each
    coset of the centralizer), those elements between them giving every
    matrix."""

    representative: tuple[int, ...]
    orbit: tuple[tuple[int, ...], ...]
    image_rank: int
    centralizer: tuple[int, ...]
    weyl_from: tuple = field(compare=False, repr=False)

    @property
    def orbit_size(self):
        return len(self.orbit)

    @property
    def weyl(self) -> tuple:
        weyl = self.__dict__.get("_weyl")
        if weyl is None:
            group, p, basis, elements = self.weyl_from
            weyl = tuple(sorted(_realizers(group, basis, p, elements)))
            object.__setattr__(self, "_weyl", weyl)
        return weyl


def rep_classes(v: ElementaryAbelian, group: FiniteGroup,
                budget: int = DEFAULT_HOM_BUDGET):
    """(classes, orbit_map): orbits of hom(V,G) under conjugation.

    orbit_map[i] is the class index of the i-th homomorphism in the
    lexicographic enumeration.
    """
    _, classes, orbit_map, _ = _classes(v, group, budget)
    return list(classes), list(orbit_map)


def _classes(v: ElementaryAbelian, group: FiniteGroup, budget: int) -> tuple:
    """(homs, classes, orbit_map, action), computed and checked once per
    (table, p, r): the homs are enumerated once, the action built from
    them, its orbits read from the action and checked by `_check_classes`."""
    _check_budget(v, group, budget)
    key = group.key, v.p, v.r
    found = cache.lookup("repv.rep_classes", key)
    if found is None:
        homs = tuple(hom_enumerate(v, group, budget))
        action = _conjugation_action(v, group, homs)
        classes, orbit_map = _orbits(v, group, homs, action)
        _check_classes(group, homs, classes, orbit_map)
        found = cache.store("repv.rep_classes", key,
                            (homs, classes, orbit_map, action))
    return found


def _check_classes(group: FiniteGroup, homs, classes, orbit_map) -> None:
    """Require that each centralizer is C_G(rho(V)), the stabilizer of the
    representative rho, and that the orbits partition hom(V, G).

    Orbit-stabilizer holds, and every element of the centralizer fixes
    each entry of rho, which pins it exactly.  Each hom of an orbit is in
    hom(V, G) and `orbit_map` names that orbit's class for it, so no hom
    lies in two orbits; each representative is the least hom of its
    orbit; and the orbit sizes sum to the number of homs, so every hom
    lies in one.
    """
    name, cols = group.name or f"order{group.order}", group.conj_cols
    class_of = dict(zip(homs, orbit_map))
    for k, c in enumerate(classes):
        if len(c.centralizer) * c.orbit_size != group.order:
            raise InvariantError(
                f"orbit-stabilizer fails for {c.representative}: "
                f"|Stab| = {len(c.centralizer)}, orbit size {c.orbit_size}, "
                f"|G| = {group.order}",
                {"group": name, "class": c.representative,
                 "stabilizer": c.centralizer, "orbit_size": c.orbit_size})
        if any(set(map(cols[x].__getitem__, c.centralizer)) - {x}
               for x in c.representative):
            raise InvariantError(f"the centralizer of {c.representative} moves it",
                                 {"group": name, "class": c.representative,
                                  "centralizer": c.centralizer})
        named = list(map(class_of.get, c.orbit))  # None for a hom not in hom(V, G)
        if named != [k] * len(named):
            raise InvariantError(
                f"the orbit of {c.representative} must be one class of hom(V, G)",
                {"group": name, "class": k, "representative": c.representative,
                 "classes_named": named})
        if c.representative != min(c.orbit):
            raise InvariantError(f"{c.representative} must be the least hom of its orbit",
                                 {"group": name, "class": c.representative,
                                  "least": min(c.orbit)})
    if sum(c.orbit_size for c in classes) != len(homs):
        raise InvariantError("the orbit sizes must sum to the number of homs",
                             {"group": name, "homs": len(homs),
                              "orbit_sizes": [c.orbit_size for c in classes]})


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
    Weyl matrix; the class keeps those elements, and reads the matrices
    from them only when its `weyl` is read.
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
        basis = tuple(echelon_basis(group, h))
        classes.append(RepClass(
            representative=h,
            orbit=tuple(map(homs.__getitem__, orbit)),
            image_rank=len(basis),
            centralizer=tuple(itertools.compress(range(len(images)),
                                                 map(i.__eq__, images))),
            weyl_from=(group, v.p, basis, tuple(least.values())),
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
# along homomorphisms and towers


def class_map(v: ElementaryAbelian, f: GroupHom,
              budget: int = DEFAULT_HOM_BUDGET) -> list[int]:
    """Rep(V, G) -> Rep(V, L) along f: G -> L on class indices: entry i is
    the class of f∘rho, rho the representative of class i, found by
    bisection among the lex-ordered homs that Rep(V, L) keeps."""
    classes = _classes(v, f.source, budget)[1]
    homs, _, orbit_map, _ = _classes(v, f.target, budget)
    out = []
    for c in classes:
        image = tuple(map(f, c.representative))
        i = bisect.bisect_left(homs, image)
        require(i < len(homs) and homs[i] == image,
                "the image of a hom V -> G is not in hom(V, L)",
                {"representative": c.representative, "image": image})
        out.append(orbit_map[i])
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
    levels = [rep_classes(v, g, budget)[0] for g in tower.levels]
    maps = [class_map(v, q, budget) for q in tower.transitions]
    threads = []
    depth = tower.depth
    for top in range(len(levels[-1])):
        seq = [top]
        for k in range(depth - 2, -1, -1):
            seq.append(maps[k][seq[-1]])
        seq.reverse()
        ranks = [levels[k][seq[k]].image_rank for k in range(depth)]
        persistent = depth < 2 or ranks[-1] == ranks[-2]
        threads.append({"classes": tuple(seq), "ranks": tuple(ranks),
                        "persistent": persistent})
    return {"levels": levels,
            "class_maps": maps,
            "threads": threads,
            "persistent_threads": [t["classes"] for t in threads
                                   if t["persistent"]]}
