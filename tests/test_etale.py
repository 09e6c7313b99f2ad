import itertools
import random

import numpy as np
import pytest

from proflq import cache, etale
from proflq.errors import BudgetError
from proflq.etale import (
    FiniteEtaleSpace,
    SkyscraperFamily,
    adjunction_check,
    constant_space,
    coproduct_finite,
    dual_etale,
    is_product,
    product_finite,
    sections,
    skyscraper_product,
)
from proflq.finring import (
    FiniteModule,
    FiniteRing,
    ModuleMap,
    cyclic,
    dual_map,
    hom_module,
    is_isomorphic,
    zero_module,
)

from proflq.tower import EtaleTower, SpaceTower, TowerMap

from .reference import hom_maps, uncached_direct_sum, zero_space
from .test_finring import random_module

Z12 = FiniteRing(12)

# the fibers of acceptance criterion 4
CRITERION_4_FIBERS = [cyclic(Z12, 2), cyclic(Z12, 3), cyclic(Z12, 4),
                      FiniteModule(Z12, (2, 2)), FiniteModule(Z12, (2, 6)),
                      cyclic(Z12, 12), zero_module(Z12), FiniteModule(Z12, (4, 4))]


def reference_adjunction_check(f, g, l, max_side=4096):
    """The currying check one table cell at a time, in plain Python.

    This is the loop `adjunction_check` used before it built the tables as
    one numpy product, kept as the reference for its reports.  Its
    additivity test compares one pair of homs only; on correct input both
    report True.
    """

    def add(module, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, module.factors))

    def smul(module, c, x):
        return tuple((c * a) % d for a, d in zip(x, module.factors))

    report = {"fibers": {}, "ok": True}
    for t in f.base:
        ft, gt, lt = f.fiber(t), g.fiber(t), l.fiber(t)
        gens = etale._raw_tensor_orders(ft, gt)
        lhs_count = 1
        choices = []
        for _, _, order in gens:
            imgs = list(etale._annihilated_elements(lt, order))
            choices.append(imgs)
            lhs_count *= len(imgs)
        rhs_count = hom_module(gt, hom_module(ft, lt)).order
        if lhs_count > max_side or rhs_count > max_side:
            raise ValueError(f"adjunction fiber at {t} exceeds size bound")
        gt_elts = list(gt.elements())
        ft_elts = list(ft.elements())

        def curried(images):
            table = []
            for y in gt_elts:
                row = []
                for x in ft_elts:
                    val = (0,) * lt.rank
                    for (jj, ii, order), img in zip(gens, images):
                        c = (x[jj] * y[ii]) % order
                        val = add(lt, val, smul(lt, c, img))
                    row.append(val)
                table.append(tuple(row))
            return tuple(table)

        seen = {}
        tables = set()
        all_images = list(itertools.product(*choices))
        for images in all_images:
            tab = curried(images)
            tables.add(tab)
            if len(tables) == len(seen):
                report["ok"] = False
                report["fibers"][t] = {"verdict": "collision"}
                break
            seen[images] = tab
        else:
            additive = True
            if len(all_images) >= 2:
                a, b = all_images[0], all_images[-1]
                s = tuple(add(lt, x, y) for x, y in zip(a, b))
                tab_ab = tuple(
                    tuple(add(lt, x, y) for x, y in zip(r1, r2))
                    for r1, r2 in zip(seen[a], curried(b))
                )
                additive = curried(s) == tab_ab
            fiber_ok = len(tables) == lhs_count == rhs_count and additive
            report["fibers"][t] = {
                "lhs": lhs_count,
                "rhs": rhs_count,
                "bijective": len(tables) == rhs_count,
                "additive": additive,
                "verdict": "iso" if fiber_ok else "mismatch",
            }
            if not fiber_ok:
                report["ok"] = False
    return report


def space_ab():
    return FiniteEtaleSpace(("a", "b"), {"a": cyclic(Z12, 2), "b": cyclic(Z12, 4)})


def random_space(rng, ring, max_points=4, max_rank=2):
    base = tuple(f"t{i}" for i in range(rng.randint(1, max_points)))
    return FiniteEtaleSpace(
        base, {t: random_module(rng, ring, max_rank=max_rank) for t in base}
    )


class TestSections:
    def test_full_base(self):
        s = sections(space_ab())
        assert s.module.order == 8
        assert s.module.factors == (2, 4)

    def test_empty_subset(self):
        assert sections(space_ab(), ()).module.is_zero

    def test_single_point(self):
        s = sections(space_ab(), ("a",))
        assert s.module.factors == (2,)

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            sections(space_ab(), ("zz",))

    def test_component_identities(self):
        # omicron_t . omega_t = id, omicron_s . omega_t = 0 for s != t
        rng = random.Random(3)
        for _ in range(10):
            e = random_space(rng, Z12)
            s = sections(e)
            for t in e.base:
                assert s.projections[t].compose(s.injections[t]) == e.fiber(t).identity_map()
                for u in e.base:
                    if u != t:
                        assert s.projections[u].compose(s.injections[t]).is_zero


def test_section_maps_are_built_on_first_read_and_kept(monkeypatch):
    """Each map of `sections` equals that of `reference.uncached_direct_sum`
    and is built the first time it is read, once: a second read, and a read
    through another section module over the same fibers, build nothing."""
    rng = random.Random(29)
    spaces = [random_space(rng, Z12, max_points=5) for _ in range(12)]
    built = []
    init = ModuleMap.__init__

    def counting(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(ModuleMap, "__init__", counting)
    for e in spaces:
        cache.clear()
        _, injections, projections = uncached_direct_sum([e.fiber(t) for t in e.base])
        sec = sections(e)
        for name, expected in (("injections", injections), ("projections", projections)):
            maps = getattr(sec, name)
            for t, want in zip(e.base, expected):
                built.clear()
                assert t not in maps
                got = maps[t]
                assert got == want and built == [got]
                assert maps[t] is got and getattr(sections(e), name)[t] is got
                assert built == [got]
        with pytest.raises(KeyError):
            sec.injections["not a point"]


class TestProductCoproduct:
    def test_three_fibers(self):
        e = constant_space(("x", "y", "z"), cyclic(Z12, 2))
        assert product_finite(e).module.order == 8

    def test_singleton_base(self):
        m = FiniteModule(Z12, (2, 6))
        e = FiniteEtaleSpace(("pt",), {"pt": m})
        s = product_finite(e)
        assert is_isomorphic(s.module, m)
        assert s.projections["pt"].compose(s.injections["pt"]) == m.identity_map()

    @pytest.mark.parametrize("seed", range(100))
    def test_dual_of_coproduct_is_product_of_duals(self, seed):
        rng = random.Random(seed)
        ring = FiniteRing(rng.choice([4, 6, 8, 9, 12]))
        e = random_space(rng, ring)
        lhs = product_finite(dual_etale(e)).module
        rhs = coproduct_finite(e).module  # self-dual factors
        assert is_isomorphic(lhs, rhs)

    def test_is_product_reads_the_maps(self):
        rng = random.Random(7)
        for _ in range(10):
            e = random_space(rng, Z12)
            assert is_product(e, product_finite(e))
        # two equal fibers with their injections swapped: the order is right,
        # but projection_a . injection_a is zero
        e = constant_space(("a", "b"), cyclic(Z12, 4))
        s = product_finite(e)
        s.injections["a"], s.injections["b"] = s.injections["b"], s.injections["a"]
        assert not is_product(e, s)

    def test_partition_splitting(self):
        # product over the base = product of the section modules of any partition
        rng = random.Random(11)
        for _ in range(5):
            e = random_space(rng, Z12, max_points=6)
            n = len(e.base)
            full = product_finite(e).module
            for labels in itertools.product(range(2), repeat=n):
                blocks = [
                    [t for t, l in zip(e.base, labels) if l == b] for b in range(2)
                ]
                blocks = [b for b in blocks if b]
                orders = [sections(e, b).module.order for b in blocks]
                prod = 1
                for o in orders:
                    prod *= o
                assert prod == full.order


class TestFiberwiseOps:
    # Hom of etale spaces is taken fiber by fiber; the tensor product
    # enters the adjunction check as the cyclic presentation of each fiber

    def test_hom_fibers(self):
        e = space_ab()
        f = constant_space(("a", "b"), cyclic(Z12, 4))
        assert hom_module(e.fiber("a"), f.fiber("a")).factors == (2,)
        assert hom_module(e.fiber("b"), f.fiber("b")).factors == (4,)
        # oracle: fiberwise enumeration
        assert sum(1 for _ in hom_maps(e.fiber("a"), f.fiber("a"))) == 2

    def test_hom_into_zero(self):
        e = space_ab()
        z = zero_space(e.base, Z12)
        assert all(hom_module(e.fiber(t), z.fiber(t)).is_zero for t in e.base)

    def test_hom_of_trivial_spaces(self):
        a, b = FiniteModule(Z12, (2, 4)), cyclic(Z12, 6)
        assert hom_module(a, b).order == sum(1 for _ in hom_maps(a, b))

    def test_tensor_unit(self):
        e = space_ab()
        unit = cyclic(Z12, 12)
        for pt in e.base:
            orders = [o for _, _, o in etale._raw_tensor_orders(e.fiber(pt), unit)]
            assert orders == list(e.fiber(pt).factors)

    def test_tensor_fiber(self):
        assert etale._raw_tensor_orders(cyclic(Z12, 4), cyclic(Z12, 6)) \
            == [(0, 0, 2)]

    def test_tensor_with_zero(self):
        e = space_ab()
        assert all(etale._raw_tensor_orders(e.fiber(t), zero_module(Z12)) == []
                   for t in e.base)

    def test_base_mismatch_rejected(self):
        c = constant_space(("a",), cyclic(Z12, 2))
        with pytest.raises(ValueError):
            adjunction_check(space_ab(), c, c)


class TestMorphism:
    def test_malformed_fiber_map_rejected(self):
        # a fiber map of an etale tower runs between the fibers it joins:
        # down and surjective (pro), or up and injective (ind)
        t = SpaceTower([("a",), ("a",)], [{"a": "a"}])
        z2, z4 = cyclic(Z12, 2), cyclic(Z12, 4)
        levels = [constant_space(("a",), z2), constant_space(("a",), z4)]
        surj, inj = ModuleMap(z4, z2, [[1]]), ModuleMap(z2, z4, [[2]])
        assert EtaleTower("pro", t, levels,
                          [{"a": surj}]).fiber_transitions == [{"a": surj}]
        assert EtaleTower("ind", t, levels,
                          [{"a": inj}]).fiber_transitions == [{"a": inj}]
        for kind, f in (("pro", inj), ("ind", surj)):
            with pytest.raises(ValueError):
                EtaleTower(kind, t, levels, [{"a": f}])
        flat = [constant_space(("a",), z4)] * 2
        double = ModuleMap(z4, z4, [[2]])
        for kind in ("pro", "ind"):
            with pytest.raises(ValueError):
                EtaleTower(kind, t, flat, [{"a": double}])
            assert EtaleTower(kind, t, flat, [{"a": double}],
                              strict=False).strict is False


class TestDuality:
    @pytest.mark.parametrize("seed", range(100))
    def test_double_dual(self, seed):
        rng = random.Random(seed)
        e = random_space(rng, FiniteRing(rng.choice([4, 6, 8, 12])))
        dd = dual_etale(dual_etale(e))
        assert dd == e

    def test_dual_of_zero(self):
        z = zero_space(("a", "b"), Z12)
        assert dual_etale(z) == z

    def test_dual_swaps_injection_surjection(self):
        ring = FiniteRing(4)
        e = constant_space(("t",), cyclic(ring, 4))
        f = constant_space(("t",), cyclic(ring, 2))
        d = dual_map(ModuleMap(e.fiber("t"), f.fiber("t"), [[1]]))
        assert (d.source, d.target) == (dual_etale(f).fiber("t"),
                                        dual_etale(e).fiber("t"))
        assert d.is_injective()
        assert not d.is_surjective()


class TestPushPull:
    # The pushforward along psi has the sections over psi^{-1}(s) as its
    # fiber at s; the pullback repeats the fiber at psi(t) at t.

    def test_collapse_pairs(self):
        e = constant_space(("1", "2", "3", "4"), cyclic(Z12, 2))
        psi = {"1": "x", "2": "x", "3": "y", "4": "y"}
        for s in ("x", "y"):
            pre = [t for t in e.base if psi[t] == s]
            assert sections(e, pre).module.factors == (2, 2)

    def test_pushforward_identity(self):
        e = space_ab()
        assert all(sections(e, [t]).module == e.fiber(t) for t in e.base)

    def test_pushforward_to_point(self):
        rng = random.Random(5)
        e = random_space(rng, Z12)
        assert is_isomorphic(sections(e, e.base).module, product_finite(e).module)

    def test_non_surjective_rejected(self):
        # the pushforward of a tower along pi, the product side of
        # tower.decomposition_check, needs pi onto at every level
        t = SpaceTower([("a", "b")], [])
        s = SpaceTower([("x", "y")], [])
        with pytest.raises(ValueError):
            TowerMap(t, s, [{"a": "x", "b": "x"}])

    @pytest.mark.parametrize("seed", range(20))
    def test_sections_of_pullback(self, seed):
        # sections of psi^* E over psi^{-1}(U) = product of |psi^{-1}(u)| copies
        rng = random.Random(seed)
        e = random_space(rng, Z12, max_points=3)
        t_base = tuple(f"s{i}" for i in range(rng.randint(1, 5)))
        psi = {t: rng.choice(e.base) for t in t_base}
        pb = FiniteEtaleSpace(t_base, {t: e.fiber(psi[t]) for t in t_base})
        u = [pt for pt in e.base if rng.random() < 0.6]
        pre = [t for t in t_base if psi[t] in u]
        got = sections(pb, pre).module.order
        expected = 1
        for t in pre:
            expected *= e.fiber(psi[t]).order
        assert got == expected


class TestSkyscraper:
    def test_single_support(self):
        m = FiniteModule(Z12, (2, 4))
        k = SkyscraperFamily(("a", "b", "c", "d", "e"), ("c",), {"c": m})
        assert is_isomorphic(skyscraper_product(k), m)

    def test_empty_support(self):
        k = SkyscraperFamily(("a", "b"), (), {}, ring=Z12)
        assert skyscraper_product(k).is_zero

    def test_full_support_matches_product(self):
        e = space_ab()
        k = SkyscraperFamily(e.base, e.base, dict(e.fibers))
        assert is_isomorphic(skyscraper_product(k), product_finite(e).module)

    def test_a_module_over_another_ring_is_refused(self):
        # Z/4 over Z/4 is not a module of a family over Z/12: its product
        # would be a Z/4 module
        z4 = cyclic(FiniteRing(4), 4)
        with pytest.raises(ValueError, match="ring"):
            SkyscraperFamily(("a", "b"), ("a",), {"a": z4}, ring=Z12)
        with pytest.raises(ValueError, match="ring"):
            SkyscraperFamily(("a", "b"), ("a", "b"), {"a": cyclic(Z12, 4), "b": z4})


class TestCountDistinct:
    # each dtype np.min_scalar_type picks in adjunction_check, against the
    # sort-based count of np.unique, on rows drawn with many repeats
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
    def test_against_np_unique(self, dtype):
        rng = np.random.default_rng(25)
        for n, width, high in [(1, 1, 1), (7, 1, 1), (40, 3, 2), (60, 5, 255),
                               (80, 2, int(np.iinfo(dtype).max))]:
            base = rng.integers(0, high, size=(n, width), dtype=dtype, endpoint=True)
            rows = base[rng.integers(0, n, size=2 * n)]
            for view in (rows, rows[::-1, ::2], rows.T.copy().T):
                assert etale._count_distinct(view) == len(np.unique(view, axis=0))

    def test_rows_apart_in_a_high_byte(self):
        rows = np.array([[0, 1], [256, 1], [0, 257], [0, 1]], dtype=np.uint16)
        assert etale._count_distinct(rows) == len(np.unique(rows, axis=0)) == 3

    @pytest.mark.parametrize("n", [1, 5])
    def test_zero_width_rows_count_one(self, n):
        for dtype in (np.uint8, np.uint64):
            rows = np.zeros((n, 0), dtype=dtype)
            assert etale._count_distinct(rows) == len(np.unique(rows, axis=0)) == 1
        # hom(Z/2 (x) Z/2, 0) is one table of width 0
        two = constant_space(("a",), cyclic(Z12, 2))
        zero = constant_space(("a",), zero_module(Z12))
        assert adjunction_check(two, two, zero)["fibers"]["a"] == {
            "lhs": 1, "rhs": 1, "bijective": True, "additive": True, "verdict": "iso"}

    def test_entries_past_64_bits(self):
        rng = np.random.default_rng(26)
        base = rng.integers(0, 3, size=(30, 4), dtype=np.uint64)
        rows = base[rng.integers(0, 30, size=60)]
        wide = rows.astype(object) + 2 ** 70
        assert wide.dtype == object
        assert etale._count_distinct(wide) == len(np.unique(rows, axis=0))


class TestAdjunction:
    def test_constant_z2(self):
        ring = FiniteRing(2)
        c = constant_space(("a", "b"), cyclic(ring, 2))
        report = adjunction_check(c, c, c)
        assert report["ok"]
        # hom(Z/2 (x) Z/2, Z/2) has 2 elements per fiber: order 4 over the base
        lhs_total = rhs_total = 1
        for t in ("a", "b"):
            lhs_total *= report["fibers"][t]["lhs"]
            rhs_total *= report["fibers"][t]["rhs"]
        assert lhs_total == rhs_total == 4

    def test_zero_middle(self):
        e = space_ab()
        z = zero_space(e.base, Z12)
        report = adjunction_check(e, z, e)
        assert report["ok"]
        assert all(f["lhs"] == 1 for f in report["fibers"].values())

    def test_trivial_first_argument(self):
        # F = constant Z/m: both sides reduce to hom(G, L)
        g = space_ab()
        l = constant_space(g.base, cyclic(Z12, 6))
        unit = constant_space(g.base, cyclic(Z12, 12))
        report = adjunction_check(unit, g, l)
        assert report["ok"]
        for t in g.base:
            assert report["fibers"][t]["rhs"] == hom_module(g.fiber(t), l.fiber(t)).order

    def test_repeated_element_is_a_collision(self, monkeypatch):
        # a hom listed twice curries to the same table: the injectivity
        # check must report it, not a count mismatch
        from proflq import cache, etale

        elements = etale._annihilated_elements

        def repeated(module, order):
            out = list(elements(module, order))
            return out + out[-1:]

        monkeypatch.setattr(etale, "_annihilated_elements", repeated)
        c = constant_space(("a",), cyclic(FiniteRing(2), 2))
        report = adjunction_check(c, c, c)
        assert not report["ok"]
        assert report["fibers"]["a"] == {"verdict": "collision"}

    @pytest.mark.parametrize("fi", range(len(CRITERION_4_FIBERS)))
    def test_reports_match_the_reference(self, fi):
        # every single-point triple of criterion 4's fibers within MAX_SIDE
        point = lambda m: FiniteEtaleSpace((0,), {0: m})
        f = point(CRITERION_4_FIBERS[fi])
        compared = 0
        for gm, lm in itertools.product(CRITERION_4_FIBERS, repeat=2):
            g, l = point(gm), point(lm)
            try:
                want = reference_adjunction_check(f, g, l)
            except ValueError:
                with pytest.raises(BudgetError):
                    adjunction_check(f, g, l)
                continue
            assert adjunction_check(f, g, l) == want
            compared += 1
        assert compared

    def test_oversized_fiber_is_a_budget_refusal(self):
        # hom(Z/4 (x) (Z/4)^2, (Z/4)^3) has 4^6 = 4096 elements, MAX_SIDE;
        # hom((Z/4)^2 (x) (Z/4)^2, (Z/4)^2) has 16^4 = 65536
        def point(*factors):
            return constant_space(("a",), FiniteModule(Z12, factors))

        assert etale.MAX_SIDE == 4096
        report = adjunction_check(point(4), point(4, 4), point(4, 4, 4))
        assert report["ok"] and report["fibers"]["a"]["lhs"] == 4096
        square = point(4, 4)
        with pytest.raises(BudgetError, match="exceeds size bound"):
            adjunction_check(square, square, square)

    def test_entries_past_64_bits(self):
        ring = FiniteRing(2 ** 70)
        two = constant_space(("a",), cyclic(ring, 2))
        for l in (cyclic(ring, 2 ** 70), FiniteModule(ring, (2, 2 ** 69))):
            big = constant_space(("a",), l)
            report = adjunction_check(two, two, big)
            assert report == reference_adjunction_check(two, two, big)
            assert report["ok"]

    def test_perturbed_table_is_not_additive(self, monkeypatch):
        # hom(Z/2 (x) Z/2, Z/2 + Z/2) has four homs; one table off the
        # diagonal is changed at x = y = 0 and stays distinct from the
        # others, so only the additivity check can see it.  The zero hom
        # and the last hom are untouched, which is the one pair the
        # reference compares.
        tables_of = etale._curried_tables

        def perturbed(*args):
            tables = tables_of(*args).copy()
            tables[1, 0, 0] ^= 1
            return tables

        monkeypatch.setattr(etale, "_curried_tables", perturbed)
        f = constant_space(("a",), cyclic(FiniteRing(2), 2))
        l = constant_space(("a",), FiniteModule(FiniteRing(2), (2, 2)))
        report = adjunction_check(f, f, l)
        assert report["fibers"]["a"] == {"lhs": 4, "rhs": 4, "bijective": True,
                                         "additive": False, "verdict": "mismatch"}
        assert not report["ok"]

    def test_images_are_checked_by_index(self):
        # T(a + e) is looked up at the mixed-radix index of a + e; when the
        # images are not in that order the lookup is wrong, even for
        # additive tables, and the check must not pass
        l = FiniteModule(Z12, (2, 6))
        choices = [list(etale._annihilated_elements(l, 6))]
        images = etale._image_array(choices, l.rank, np.uint16)
        tables = images.reshape(len(images), 1, l.rank)
        factors = np.array(l.factors, dtype=np.uint16)
        radices = etale._annihilated_radices(l, 6)
        assert etale._is_additive(images, tables, radices, factors)
        order = np.random.default_rng(0).permutation(len(images))
        assert not etale._is_additive(images[order], tables[order], radices, factors)
        assert not etale._is_additive(images[order], tables, radices, factors)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_instances(self, seed):
        rng = random.Random(seed)
        ring = FiniteRing(rng.choice([4, 6, 8])) if seed % 2 else FiniteRing(4)
        base = ("t0", "t1")
        small = lambda: FiniteEtaleSpace(
            base, {t: cyclic(ring, rng.choice([1, 2, ring.modulus])) for t in base}
        )
        report = adjunction_check(small(), small(), small())
        assert report["ok"]
