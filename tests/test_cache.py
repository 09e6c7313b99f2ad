"""The memo tables of `proflq.cache` against the uncached computations.

`reference_hom_enumerate` and `reference_rep_classes` are the enumeration
and orbit split as they ran before `repv` memoized them; every cached
answer is compared with them, cold and warm.
"""

import pytest

from proflq import cache, catalog, groupcoh as gc, lq, repv
from proflq.errors import BudgetError
from proflq.groups import dihedral_group, symmetric_group
from proflq.repv import ElementaryAbelian, RepClass


def reference_hom_enumerate(v, group):
    torsion = [x for x in group.elements() if group.power(x, v.p) == 0]
    homs = [()]
    for _ in range(v.r):
        homs = [t + (x,) for t in homs for x in torsion
                if all(group.mul(x, y) == group.mul(y, x) for y in t)]
    return sorted(homs)


def reference_rep_classes(v, group):
    homs = reference_hom_enumerate(v, group)
    pos = {h: i for i, h in enumerate(homs)}
    orbit_map = [-1] * len(homs)
    classes = []
    for i, h in enumerate(homs):
        if orbit_map[i] != -1:
            continue
        orbit = sorted({tuple(group.conj(g, x) for x in h)
                        for g in group.elements()})
        for t in orbit:
            orbit_map[pos[t]] = len(classes)
        rep = orbit[0]
        classes.append(RepClass(
            representative=rep, orbit=tuple(orbit),
            image_rank=repv.image_rank(group, rep, v.p),
            centralizer=tuple(group.centralizer(rep)),
            weyl=tuple(repv.weyl_image(group, rep, v.p))))
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
        assert repv.hom_enumerate(v, g) == cold_homs \
            == reference_hom_enumerate(v, g), (g.name, v)
        assert warm == cold == _full(reference_rep_classes(v, g)), (g.name, v)
    n = len(CASES)
    stats = cache.stats()
    assert stats["repv.rep_classes"] == {"entries": n, "hits": n, "misses": n}
    # each rep_classes miss reads the enumeration the cold call stored
    assert stats["repv.hom_enumerate"] == {"entries": n, "hits": 2 * n,
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
    assert lq.tv_lhs(v, g, 2)
    with pytest.raises(BudgetError):
        lq.tv_lhs(v, g, 2, dim_budget=10)
    with pytest.raises(BudgetError):
        lq.degree0(v, g, dim_budget=1)


def test_forced_orbit_route_is_computed_after_a_warm_direct_route():
    v, g = ElementaryAbelian(2, 1), symmetric_group(4)
    direct = lq._direct_lhs(v, g, 2, gc.DEFAULT_DIM_BUDGET)
    assert cache.stats()["lq.direct_lhs"]["misses"] == 1
    assert cache.stats()["lq.coset_dims"]["misses"] == 0
    classes, _ = repv.rep_classes(v, g)
    blocks = tuple(map(sum, zip(*lq._orbit_lhs(v, g, classes, 2,
                                                gc.DEFAULT_DIM_BUDGET))))
    stats = cache.stats()
    assert stats["lq.coset_dims"]["misses"] == len(classes)
    assert stats["lq.direct_lhs"] == {"entries": 1, "hits": 0, "misses": 1}
    assert direct == blocks


def test_direct_lhs_counts_and_k_max():
    v, g = ElementaryAbelian(2, 1), symmetric_group(3)
    assert lq.tv_lhs(v, g, 2) == (2, 2, 2)
    assert lq.tv_lhs(v, g, 1) == (2, 2)        # read from the k_max = 2 entry
    assert lq.degree0(v, g) == 2               # likewise
    assert lq.tv_lhs(v, g, 3) == (2, 2, 2, 2)  # too short: recomputed
    assert lq.tv_lhs(v, g, 3) == (2, 2, 2, 2)
    assert cache.stats()["lq.direct_lhs"] == {"entries": 1, "hits": 3,
                                              "misses": 2}


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
