"""The memo tables of `proflq.cache` against the uncached computations.

`reference_hom_enumerate` and `reference_rep_classes` are the enumeration
and orbit split as they ran before `repv` memoized them, with the
centralizer and Weyl image of each class by scans of the group, and
`reference.uncached_direct_sum` is the direct sum before `finring` did;
every cached answer is compared with them, cold and warm.  A cokernel,
and the kernel and image read through it, is compared warm with the same
answer computed alone in an empty cache.
"""

import itertools
import random
from math import gcd

import numpy as np
import pytest

from proflq import cache, catalog, groupcoh as gc, lq, repv, tower
from proflq.errors import BudgetError
from proflq.finring import (FiniteModule, FiniteRing, ModuleMap, cokernel, cyclic,
                            direct_sum, dual_map, image, kernel, sum_of_composites,
                            zero_module)
from proflq.groups import all_subgroups, dihedral_group, subgroup_group, symmetric_group
from proflq.repv import ElementaryAbelian, RepClass

from .reference import (centralizer, conj, relative_product, relative_sum,
                        symonds_action, uncached_direct_sum, uncached_dual_map,
                        weyl_image)
from .test_tower import random_tower_map


def reference_hom_enumerate(v, group):
    torsion = [x for x in group.elements() if group.power(x, v.p) == 0]
    homs = [()]
    for _ in range(v.r):
        homs = [t + (x,) for t in homs for x in torsion
                if all(group.mul(x, y) == group.mul(y, x) for y in t)]
    return sorted(homs)


def reference_rep_classes(v, group):
    """(classes, orbit_map), each class paired with its Weyl image by the
    normalizer scan, as `_full` pairs the classes of `repv`."""
    homs = reference_hom_enumerate(v, group)
    pos = {h: i for i, h in enumerate(homs)}
    orbit_map = [-1] * len(homs)
    classes = []
    for i, h in enumerate(homs):
        if orbit_map[i] != -1:
            continue
        orbit = sorted({tuple(conj(group, g, x) for x in h)
                        for g in group.elements()})
        for t in orbit:
            orbit_map[pos[t]] = len(classes)
        rep = orbit[0]
        classes.append((RepClass(
            representative=rep, orbit=tuple(orbit),
            image_rank=len(repv.echelon_basis(group, rep)),
            centralizer=tuple(centralizer(group, rep)),
            weyl_from=()),
            tuple(sorted(weyl_image(group, rep, v.p)))))
    return classes, orbit_map


def _full(result):
    """(classes, orbit_map) with the Weyl images, which RepClass does not compare."""
    classes, orbit_map = result
    return [(c, c.weyl) for c in classes], orbit_map


CASES = [(g, ElementaryAbelian(p, r)) for g in catalog.all_groups()
         for p in (2, 3) for r in (1, 2)]


def test_warm_equals_cold_equals_reference():
    for g, v in CASES:
        cold_homs = repv.hom_enumerate(v, g)
        cold = _full(repv.rep_classes(v, g))
        warm = _full(repv.rep_classes(v, g))
        action = repv.conjugation_action(v, g)
        assert repv.hom_enumerate(v, g) == cold_homs \
            == reference_hom_enumerate(v, g), (g.name, v)
        assert warm == cold == reference_rep_classes(v, g), (g.name, v)
        assert np.array_equal(action, symonds_action(v, g)), (g.name, v)
        assert not action.flags.writeable
    n = len(CASES)
    # Rep(V, G) is one record with its homs and action: the cold rep_classes
    # call makes it, the warm call and conjugation_action read it, and
    # hom_enumerate, uncached, reads nothing
    assert cache.stats()["repv.rep_classes"] == {"entries": n, "hits": 2 * n,
                                                 "misses": n}


def test_returned_lists_are_fresh():
    v, g = ElementaryAbelian(2, 2), dihedral_group(4)
    homs = repv.hom_enumerate(v, g)
    classes, orbit_map = repv.rep_classes(v, g)
    expected = (list(homs), list(classes), list(orbit_map))
    homs.clear()
    classes.append(classes[0])
    classes.reverse()
    orbit_map[0] = -1
    assert repv.hom_enumerate(v, g) == expected[0]
    assert list(repv.rep_classes(v, g)) == list(expected[1:])


def test_budget_refused_after_a_warm_call():
    v, g = ElementaryAbelian(2, 2), symmetric_group(4)
    repv.rep_classes(v, g)
    with pytest.raises(BudgetError):
        repv.hom_enumerate(v, g, budget=10)
    with pytest.raises(BudgetError):
        repv.rep_classes(v, g, budget=10)
    assert all(lq.lq_check(v, g, 2)["verdict"])
    with pytest.raises(BudgetError):
        lq.lq_check(v, g, 2, dim_budget=10)
    with pytest.raises(BudgetError):
        lq.degree0(v, g, dim_budget=1)


def test_lq_budget_refused_after_a_warm_call():
    # C2^4 at p = 2, r = 2: 256 one-point orbits, and F_2 needs 20 cochains
    # in degree 2 on each of them and on each centralizer
    v, g = ElementaryAbelian(2, 2), catalog.by_name("C2xC2xC2xC2")
    rep = lq.lq_check(v, g, 2)
    assert rep["lhs"] == rep["rhs_total"] == (256, 1024, 2560)
    with pytest.raises(BudgetError, match="20 exceeds budget 10"):
        lq.lq_check(v, g, 2, dim_budget=10)
    # every class has C_G(rho) = G, and lq looks each distinct centralizer
    # up once per call: one lookup per budget, both missed, one stored
    assert cache.stats()["groupcoh.shapiro"] == {"entries": 1, "hits": 0,
                                                 "misses": 2}


# -- groupcoh.shapiro -------------------------------------------------------------


def test_shapiro_counts_k_max_and_budget():
    g = symmetric_group(3)
    h = [1, 0]  # C2, the centralizer of a transposition
    cold = gc.shapiro_check(g, h, 2, 2)                      # missed
    assert cold == {"lhs": (1, 1, 1), "rhs": (1, 1, 1), "equal": True,
                    "index": 3}
    assert gc.shapiro_check(g, {0, 1}, 2, 2) == cold         # the set is the key
    assert gc.shapiro_check(g, h, 2, 1)["lhs"] == (1, 1)     # k_max is: missed
    assert gc.shapiro_check(g, h, 2, 2, dim_budget=100) == cold  # so is the budget
    assert gc.shapiro_check(g, h, 3, 2)["lhs"] == (1, 0, 0)  # and p
    assert cache.stats()["groupcoh.shapiro"] == {"entries": 4, "hits": 1,
                                                 "misses": 4}
    key = (g.table.tobytes(), frozenset(h), 2, 2, gc.DEFAULT_DIM_BUDGET)
    assert cache.lookup("groupcoh.shapiro", key) == ((1, 1, 1), (1, 1, 1))
    # lq reads the same entries: one per class of Rep(V, G), C_G(1) = G too
    classes, _ = repv.rep_classes(ElementaryAbelian(2, 1), g)
    lq.lq_check(ElementaryAbelian(2, 1), g, 2)
    assert cache.stats()["groupcoh.shapiro"] == {"entries": 5, "hits": 3,
                                                 "misses": 5}
    assert sorted(c.centralizer for c in classes) == [(0, 1), tuple(range(6))]


def test_shapiro_warm_equals_cold_equals_uncached():
    g = symmetric_group(4)
    cases = [(s, p) for s in all_subgroups(g) for p in (2, 3)]
    cold = [gc.shapiro_check(g, s, p, 3) for s, p in cases]
    warm = [gc.shapiro_check(g, sorted(s), p, 3) for s, p in cases]
    n = len(cases)
    assert n == 60
    assert cache.stats()["groupcoh.shapiro"] == {"entries": n, "hits": n,
                                                 "misses": n}
    cache.clear()
    uncached = []
    for s, p in cases:
        h, _ = subgroup_group(g, s)
        uncached.append((gc.cohomology(g, gc.coset_module(g, s, p), 3),
                         gc.cohomology(h, gc.trivial_module(h, p), 3)))
    assert warm == cold
    assert [(r["lhs"], r["rhs"]) for r in warm] == uncached
    assert all(r["equal"] and r["index"] * len(s) == 24
               for r, (s, _) in zip(warm, cases))


def test_shapiro_budget_refused_after_a_warm_call():
    g, h = symmetric_group(4), [0, 3, 11]
    dims = gc.shapiro_check(g, h, 2, 3)
    # the lhs needs the index 8 times the largest of F_0 .. F_4 cochains
    need = max(gc.free_resolution(g, 2, 4).betti[:5]) * 8
    before = cache.stats()["groupcoh.shapiro"]
    with pytest.raises(BudgetError):
        gc.shapiro_check(g, h, 2, 3, dim_budget=need - 1)
    # looked up and missed, but nothing stored
    assert cache.stats()["groupcoh.shapiro"] == dict(
        before, misses=before["misses"] + 1)
    assert gc.shapiro_check(g, h, 2, 3, dim_budget=need) == dims


def test_shapiro_refuses_a_non_subgroup_after_a_warm_call():
    g = symmetric_group(4)
    gc.shapiro_check(g, [0, 3, 11], 2, 2)
    before = cache.stats()["groupcoh.shapiro"]
    with pytest.raises(ValueError, match="not a subgroup"):
        gc.shapiro_check(g, [0, 3], 2, 2)
    with pytest.raises(ValueError, match="not a subgroup"):
        gc.shapiro_check(g, [0, 3], 2, 2)
    assert cache.stats()["groupcoh.shapiro"]["entries"] == before["entries"]


def test_shapiro_returned_dicts_are_fresh():
    g = symmetric_group(4)
    first = gc.shapiro_check(g, [0, 3, 11], 2, 2)
    expected = dict(first)
    first["lhs"] = (9, 9, 9)
    first["equal"] = False
    del first["rhs"]
    again = gc.shapiro_check(g, [0, 3, 11], 2, 2)
    assert again == expected and again is not first
    assert cache.stats()["groupcoh.shapiro"] == {"entries": 1, "hits": 1,
                                                 "misses": 1}


# -- H^•(G; F_p) on the resolution ---------------------------------------------------


def uncached_one_point(g, p, k_max):
    """dims of H^•(G; F_p) ranked on a resolution of its own, past every memo."""
    res = gc.FreeResolution(g, p)
    res.extend_to(k_max + 1)
    point = gc.trivial_module(g, p)
    ranks = [0] + [gc._coboundary_rank(res, point, k) for k in range(k_max + 1)]
    return tuple(res.betti[k] - ranks[k + 1] - ranks[k] for k in range(k_max + 1))


def test_one_point_warm_equals_cold_equals_uncached(monkeypatch):
    cases = [(g, p) for g in catalog.all_groups() for p in (2, 3, 5)]
    assert len({(g.table.tobytes(), p) for g, p in cases}) == len(cases)
    ranked = []
    dims_of = gc._dims
    monkeypatch.setattr(gc, "_dims", lambda res, module, k_max: ranked.append(
        (res, module.dim, k_max)) or dims_of(res, module, k_max))

    def dims(k_max):
        return [gc.cohomology(g, gc.trivial_module(g, p), k_max) for g, p in cases]

    cold = dims(2)
    longer = dims(4)  # a larger k_max than is kept: ranked again and replaced
    warm, shorter = dims(4), dims(1)
    # the dims are kept on the resolution of G/O_p'(G): the 222 cases share
    # 43 resolutions (every group of order prime to p has the trivial
    # quotient), each ranked once per pass that adds degrees
    n = len(cases)
    assert (n, len(cache._ENTRIES["groupcoh.p_prime_quotients"])) == (222, 222)
    assert cache.stats()["groupcoh.resolutions"] == {
        "entries": 43, "hits": 4 * n - 43, "misses": 43}
    resolutions = list(cache._ENTRIES["groupcoh.resolutions"].values())
    assert sorted((id(res), d, k) for res, d, k in ranked) == sorted(
        (id(res), 1, k) for res in resolutions for k in (2, 4))
    cache.clear()
    uncached = [uncached_one_point(g, p, 4) for g, p in cases]
    assert cache.stats()["groupcoh.resolutions"] == {
        "entries": 0, "hits": 0, "misses": 0}
    assert warm == longer == uncached
    assert cold == [d[:3] for d in uncached] and shorter == [d[:2] for d in uncached]
    assert [res.one_point for res in resolutions] == [
        uncached_one_point(res.group, res.p, 4) for res in resolutions]


def test_one_point_budget_refused_after_a_warm_call():
    g = symmetric_group(4)
    point = gc.trivial_module(g, 2)
    dims = gc.cohomology(g, point, 4)
    res = gc.free_resolution(g, 2, 5)
    need = max(res.betti)  # the budget F_0 .. F_5 need
    assert res.one_point == dims
    before = cache.stats()["groupcoh.resolutions"]
    with pytest.raises(BudgetError):
        gc.cohomology(g, point, 4, dim_budget=need - 1)
    with pytest.raises(BudgetError):
        gc.cohomology(g, point, 5, dim_budget=need - 1)
    # refused after the resolution's lookup and before its dims are read:
    # one hit each, and the kept dims neither read nor replaced
    assert cache.stats()["groupcoh.resolutions"] == dict(
        before, hits=before["hits"] + 2)
    assert res.one_point == dims
    assert gc.cohomology(g, point, 4, dim_budget=need) == dims


# -- finring.direct_sum ----------------------------------------------------------

Z12 = FiniteRing(12)
# the fibers criterion 2 puts over its bases
FIBERS_Z12 = [cyclic(Z12, 2), cyclic(Z12, 4), cyclic(Z12, 3), cyclic(Z12, 12),
              zero_module(Z12)]
DUALITY_RINGS = [FiniteRing(m) for m in (4, 6, 8, 9, 12)]


def _random_chain(rng, ring):
    """A module over `ring` with 0 to 3 invariant factors."""
    factors = []
    for _ in range(rng.randrange(4)):
        options = [d for d in range(2, ring.modulus + 1) if ring.modulus % d == 0
                   and d % (factors[-1] if factors else 1) == 0]
        factors.append(rng.choice(options))
    return FiniteModule(ring, tuple(factors))


def _summand_lists():
    """Every list of up to three criterion-2 fibers, then random lists of
    one to four chains over each duality ring; no list twice."""
    lists = [list(pick) for n in (1, 2, 3)
             for pick in itertools.product(FIBERS_Z12, repeat=n)]
    rng = random.Random(12)
    for ring in DUALITY_RINGS:
        for _ in range(40):
            lists.append([_random_chain(rng, ring)
                          for _ in range(rng.randint(1, 4))])
    return list({tuple(modules): modules for modules in lists}.values())


def test_direct_sum_warm_equals_cold_equals_uncached():
    lists = _summand_lists()
    for modules in lists:
        cold = direct_sum(modules)
        warm = direct_sum(modules)
        assert warm == cold == uncached_direct_sum(modules), modules
        assert warm[1] is not cold[1] and warm[2] is not cold[2]
    n = len(lists)
    assert n > 5 + 25 + 125
    assert cache.stats()["finring.direct_sum"] == {"entries": n, "hits": n,
                                                   "misses": n}


def test_direct_sum_is_keyed_on_equal_modules():
    total, injections, _ = direct_sum([cyclic(Z12, 4), cyclic(Z12, 3)])
    again = direct_sum([FiniteModule(FiniteRing(12), (4,)),
                        FiniteModule(FiniteRing(12), (3,))])
    assert again[0] == total and again[1] == injections
    assert direct_sum([cyclic(Z12, 3), cyclic(Z12, 4)])[0] == total
    assert cache.stats()["finring.direct_sum"] == {"entries": 2, "hits": 1,
                                                   "misses": 2}


def test_direct_sum_lists_are_fresh():
    modules = [cyclic(Z12, 4), cyclic(Z12, 6), zero_module(Z12)]
    total, injections, projections = direct_sum(modules)
    expected = (total, list(injections), list(projections))
    injections.append(injections[0])
    injections.reverse()
    projections.clear()
    modules.pop()
    assert direct_sum([cyclic(Z12, 4), cyclic(Z12, 6), zero_module(Z12)]) \
        == expected
    with pytest.raises(AttributeError):
        expected[1][0].matrix = ((1,),)
    assert cache.stats()["finring.direct_sum"] == {"entries": 1, "hits": 1,
                                                   "misses": 1}


def test_direct_sum_refusals_after_a_warm_call():
    direct_sum([cyclic(Z12, 4)])
    before = cache.stats()["finring.direct_sum"]
    with pytest.raises(ValueError, match="empty list"):
        direct_sum([])
    with pytest.raises(ValueError, match="ring mismatch"):
        direct_sum([cyclic(Z12, 4), cyclic(FiniteRing(4), 4)])
    with pytest.raises(ValueError, match="ring mismatch"):
        direct_sum([cyclic(FiniteRing(4), 4), cyclic(Z12, 4)])
    # refused before any lookup: nothing counted, nothing stored
    assert cache.stats()["finring.direct_sum"] == before == {
        "entries": 1, "hits": 0, "misses": 1}


# -- finring.cokernel -------------------------------------------------------------

def test_cokernel_counts_per_map():
    # f: Z/12 -> Z/2 + Z/12, 1 |-> (1, 2), with kernel 6Z/12 and image Z/6
    f = ModuleMap(cyclic(Z12, 12), FiniteModule(Z12, (2, 12)), [[1], [2]])

    def counts():
        return cache.stats()["finring.cokernel"]

    first = cokernel(f)
    assert counts() == {"entries": 1, "hits": 0, "misses": 1}
    again = ModuleMap(cyclic(Z12, 12), FiniteModule(Z12, (2, 12)), [[13], [14]])
    assert cokernel(again) is first  # an equal map is the same key
    assert counts() == {"entries": 1, "hits": 1, "misses": 1}
    # the kernel is the cokernel of the dual map, a second key
    k = kernel(f)
    assert counts() == {"entries": 2, "hits": 1, "misses": 2}
    assert kernel(f) == k
    assert counts() == {"entries": 2, "hits": 2, "misses": 2}
    # the image reads the kernel, then the cokernel of its inclusion
    assert image(f) == cyclic(Z12, 6)
    assert counts() == {"entries": 3, "hits": 3, "misses": 3}
    assert image(f) == cyclic(Z12, 6)
    assert counts() == {"entries": 3, "hits": 5, "misses": 3}
    assert k[0] == cyclic(Z12, 2) and not f.is_injective()
    assert counts() == {"entries": 3, "hits": 6, "misses": 3}
    assert not f.is_surjective()
    assert counts() == {"entries": 3, "hits": 7, "misses": 3}


def test_cokernel_projection_is_built_when_first_read(monkeypatch):
    # Z/12 -> Z/2 + Z/12, 1 |-> (1, 2): is_injective and is_surjective read
    # the cokernel module alone, and build no map
    f = ModuleMap(cyclic(Z12, 12), FiniteModule(Z12, (2, 12)), [[1], [2]])
    built = []
    init = ModuleMap.__init__

    def counting(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(ModuleMap, "__init__", counting)
    assert not f.is_injective() and not f.is_surjective()
    assert built == []
    pair = cokernel(f)
    assert built == [pair[1]] and pair[0] == cyclic(Z12, 4)
    assert cokernel(f) is pair and not f.is_surjective()
    assert built == [pair[1]]
    assert cache.stats()["finring.cokernel"] == {"entries": 1, "hits": 4, "misses": 1}


def _random_maps():
    """Random maps over Z/4, Z/12, Z/36 and Z/256, with zero sources and
    zero targets, and maps that share a matrix but not their modules."""
    rng = random.Random(25)
    maps = []
    for ring in (FiniteRing(m) for m in (4, 12, 36, 256)):
        zero = zero_module(ring)
        for _ in range(40):
            src, dst = _random_chain(rng, ring), _random_chain(rng, ring)
            maps.append(ModuleMap(src, dst, [
                [rng.randrange(gcd(a, b)) * (b // gcd(a, b)) for a in src.factors]
                for b in dst.factors]))
            maps.append(ModuleMap(zero, dst, [[] for _ in dst.factors]))
            maps.append(ModuleMap(src, zero, []))
            # the zero matrix of this shape between other modules
            maps.append(ModuleMap(FiniteModule(ring, (ring.modulus,) * src.rank),
                                  FiniteModule(ring, (ring.modulus,) * dst.rank),
                                  [[0] * src.rank for _ in dst.factors]))
    return maps


def _answers(f):
    q, pi = cokernel(f)
    k, iota = kernel(f)
    return (q, pi, k, iota, image(f), f.is_injective(), f.is_surjective())


def test_cokernel_warm_equals_cold():
    maps = _random_maps()
    cold = []
    for f in maps:
        cache.clear()
        cold.append(_answers(f))
    cache.clear()
    first = [_answers(f) for f in maps]
    warm = [_answers(f) for f in maps]
    assert first == warm == cold
    assert any(f.source.is_zero for f in maps) and any(f.target.is_zero for f in maps)
    # six lookups per map and pass: cokernel, kernel, the kernel and the
    # cokernel in image, is_injective and is_surjective; at most three keys
    stats = cache.stats()["finring.cokernel"]
    assert stats["hits"] + stats["misses"] == 2 * 6 * len(maps)
    assert stats["misses"] == stats["entries"] < 3 * len(maps)


# -- finring.dual_map ------------------------------------------------------------

def test_dual_map_warm_equals_cold_equals_uncached():
    maps = _random_maps()
    cold = []
    for f in maps:
        cache.clear()
        cold.append(dual_map(f))
    cache.clear()
    first = [dual_map(f) for f in maps]
    warm = [dual_map(f) for f in maps]
    assert first == warm == cold == [uncached_dual_map(f) for f in maps]
    assert all(w is f for w, f in zip(warm, first))
    # one miss per distinct map, whichever object asks
    distinct = len(set(maps))
    assert distinct < len(maps)
    assert cache.stats()["finring.dual_map"] == {
        "entries": distinct, "hits": 2 * len(maps) - distinct, "misses": distinct}


def test_a_double_dual_is_computed_not_looked_up():
    # f: Z/4 -> Z/2, 1 |-> 1, whose dual Z/2 -> Z/4 sends 1 to 2
    f = ModuleMap(cyclic(Z12, 4), cyclic(Z12, 2), [[1]])

    def counts():
        return cache.stats()["finring.dual_map"]

    d = dual_map(f)
    assert d == ModuleMap(cyclic(Z12, 2), cyclic(Z12, 4), [[2]])
    assert counts() == {"entries": 1, "hits": 0, "misses": 1}
    # the dual is stored under f only, so dualizing it again is a miss
    dd = dual_map(d)
    assert dd == f and dd is not f
    assert counts() == {"entries": 2, "hits": 0, "misses": 2}
    assert dual_map(dual_map(f)) is dd and dual_map(f) is d
    assert counts() == {"entries": 2, "hits": 3, "misses": 2}


# -- tower.fiber_glue ------------------------------------------------------------

def _pushforward_cases():
    """(module, tower map) pairs: random tower maps over Z/4, Z/12 and Z/8,
    with equal modules and equal fiber shapes among them."""
    rng = random.Random(33)
    modules = [cyclic(Z12, 2), cyclic(Z12, 6), cyclic(FiniteRing(4), 4),
               FiniteModule(FiniteRing(8), (2, 8))]
    return [(rng.choice(modules), random_tower_map(rng)) for _ in range(24)]


def _fiber_transitions(cases):
    return [[dict(ft) for ft in build(a, pi).fiber_transitions]
            for a, pi in cases for build in (relative_product, relative_sum)]


def test_fiber_glue_warm_equals_cold_equals_uncached(monkeypatch):
    cases = _pushforward_cases()
    cold = []
    for case in cases:
        cache.clear()
        cold += _fiber_transitions([case])
    cache.clear()
    first = _fiber_transitions(cases)
    warm = _fiber_transitions(cases)
    stats = cache.stats()["tower.fiber_glue"]
    with monkeypatch.context() as m:
        m.setattr(tower, "_fiber_glue",
                  lambda *args: sum_of_composites(*tower._glue_chains(*args)))
        uncached = _fiber_transitions(cases)
    assert first == warm == cold == uncached
    assert all(w is f for ws, fs in zip(warm, first) for wk, fk in zip(ws, fs)
               for w, f in zip(wk.values(), fk.values()))
    # one miss per distinct gluing: the fibers' shapes recur
    calls = sum(len(ft) for per in first for ft in per)
    assert stats["misses"] == stats["entries"] < calls // 3
    assert stats["hits"] + stats["misses"] == 2 * calls


def test_cached_cokernel_refuses_setattr():
    f = ModuleMap(cyclic(Z12, 4), cyclic(Z12, 12), [[3]])
    q, pi = cokernel(f)
    expected = (q, ModuleMap(pi.source, pi.target, pi.matrix))
    with pytest.raises(AttributeError):
        pi.matrix = ((1,),)
    with pytest.raises(AttributeError):
        del pi.target
    with pytest.raises(AttributeError):
        q.factors = (12,)
    assert cokernel(f) == expected
    assert cache.stats()["finring.cokernel"] == {"entries": 1, "hits": 1,
                                                 "misses": 1}


def test_clear_and_stats():
    repv.rep_classes(ElementaryAbelian(2, 1), symmetric_group(3))
    stats = cache.stats()
    assert set(stats) == set(cache.REGIONS)
    assert stats["repv.rep_classes"] == {"entries": 1, "hits": 0, "misses": 1}
    cache.clear()
    assert all(s == {"entries": 0, "hits": 0, "misses": 0}
               for s in cache.stats().values())
    with pytest.raises(KeyError):
        cache.lookup("no.such.region", ())
