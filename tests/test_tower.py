import random

import pytest

from proflq.etale import FiniteEtaleSpace, constant_space, sections
from proflq.finring import (
    FiniteModule,
    FiniteRing,
    ModuleMap,
    composites_agree,
    cyclic,
    image,
    is_isomorphic,
    kernel,
    sum_of_composites,
    zero_map,
    zero_module,
)
from proflq.tower import (
    BudgetError,
    EtaleTower,
    ModuleTower,
    SpaceTower,
    TowerMap,
    canonical_components,
    constant_ind_etale,
    constant_pro_etale,
    coproduct_pro,
    decomposition_check,
    dual_tower,
    free_product,
    free_sum,
    levelwise_isomorphic,
    product_ind,
)

from proflq import tower

from .reference import (Relabeled, add_maps, dense_compose, dense_sum_of_composites,
                        point_tower, relative_product, relative_sum, restrict_tower,
                        zero_space)
from .test_finring import random_map, random_module

F2 = FiniteRing(2)
Z4 = FiniteRing(4)


def binary_tower(depth):
    levels = [tuple("b" + format(i, f"0{k}b") if k else "b" for i in range(2 ** k))
              for k in range(depth + 1)]
    transitions = [{p: p[:-1] for p in levels[k + 1]} for k in range(depth)]
    return SpaceTower(levels, transitions)


def chain_tower(sizes, rng=None):
    """A tower with the given level sizes and surjective transitions."""
    levels = [tuple(f"L{k}_{i}" for i in range(n)) for k, n in enumerate(sizes)]
    transitions = []
    for k in range(len(sizes) - 1):
        lo, hi = levels[k], levels[k + 1]
        tr = {}
        for i, p in enumerate(hi):
            if i < len(lo):
                tr[p] = lo[i]
            else:
                tr[p] = (rng or random).choice(lo)
        transitions.append(tr)
    return SpaceTower(levels, transitions)


def random_tower(rng, max_depth=3, max_size=6):
    sizes = [rng.randint(1, max_size)]
    for _ in range(rng.randint(0, max_depth)):
        sizes.append(rng.randint(sizes[-1], max_size + 2))
    return chain_tower(sizes, rng)


def random_tower_map(rng, depth=2, max_top=4):
    """A levelwise tower surjection whose fibers stay fiberwise surjective."""
    t = random_tower(rng, max_depth=depth, max_size=max_top)
    s_levels = []
    s_transitions = []
    pis = []
    # level 0: random partition of T_0
    blocks = {}
    n0 = rng.randint(1, len(t.levels[0]))
    for i, p in enumerate(t.levels[0]):
        blocks[p] = f"S0_{i % n0}"
    s_levels.append(tuple(sorted(set(blocks.values()))))
    pis.append(blocks)
    for k in range(t.depth):
        pi_k = pis[k]
        pi_next = {}
        s_next = []
        tr = {}
        for s in s_levels[k]:
            fiber = [u for u in t.levels[k] if pi_k[u] == s]
            pre = [u for u in t.levels[k + 1] if t.transitions[k][u] in fiber]
            mult = min(
                sum(1 for u in pre if t.transitions[k][u] == f) for f in fiber
            )
            nblocks = rng.randint(1, min(mult, 2))
            names = [f"S{k + 1}_{s}_{b}" for b in range(nblocks)]
            # round-robin the preimages of each fiber point across the blocks
            for f in fiber:
                ups = [u for u in pre if t.transitions[k][u] == f]
                for i, u in enumerate(ups):
                    pi_next[u] = names[i % nblocks]
            for name in names:
                tr[name] = s
                s_next.append(name)
        s_levels.append(tuple(s_next))
        s_transitions.append(tr)
        pis.append(pi_next)
    s = SpaceTower(s_levels, s_transitions)
    return TowerMap(t, s, pis)


class TestSpaceTower:
    def test_threads_of_binary_tower(self):
        t = binary_tower(3)
        threads = t.threads()
        assert len(threads) == 8
        assert len(set(threads)) == 8
        assert all(t.transitions[k][th[k + 1]] == th[k]
                   for th in threads for k in range(t.depth))

    def test_non_surjective_transition_rejected(self):
        with pytest.raises(ValueError):
            SpaceTower([("a", "b"), ("c",)], [{"c": "a"}])

    def test_point_tower(self):
        t = point_tower(3)
        assert t.threads() == [("pt",) * 4]


class TestFreeProduct:
    def test_binary_tower_f2(self):
        a = cyclic(F2, 2)
        fp = free_product(a, binary_tower(3))
        assert [m.order for m in fp.levels] == [2, 4, 16, 256]

    def test_one_point_tower(self):
        a = FiniteModule(Z4, (2, 4))
        fp = free_product(a, point_tower(2))
        assert all(is_isomorphic(m, a) for m in fp.levels)

    def test_zero_module(self):
        fp = free_product(zero_module(F2), binary_tower(2))
        assert all(m.is_zero for m in fp.levels)

    def test_budget(self):
        with pytest.raises(BudgetError):
            free_product(cyclic(F2, 2), binary_tower(5), bit_budget=4)

    def test_transitions_injective(self):
        fp = free_product(cyclic(Z4, 4), binary_tower(2))
        assert all(f.is_injective() for f in fp.transitions)


class TestFreeSum:
    def test_growing_chain(self):
        a = cyclic(Z4, 4)
        fs = free_sum(a, chain_tower([1, 2, 3]))
        assert [m.factors for m in fs.levels] == [(4,), (4, 4), (4, 4, 4)]

    def test_one_point_tower(self):
        a = FiniteModule(Z4, (2, 4))
        fs = free_sum(a, point_tower(3))
        assert all(is_isomorphic(m, a) for m in fs.levels)

    def test_dual_of_free_product_is_free_sum(self):
        rng = random.Random(2)
        for _ in range(10):
            ring = FiniteRing(rng.choice([4, 6, 8]))
            a = random_module(rng, ring, max_rank=2)
            t = random_tower(rng, max_depth=2, max_size=4)
            lhs = dual_tower(free_product(a, t))
            rhs = free_sum(a, t)
            assert levelwise_isomorphic(lhs, rhs)
            assert lhs.kind == "pro"

    def test_transitions_surjective(self):
        fs = free_sum(cyclic(Z4, 4), binary_tower(2))
        assert all(f.is_surjective() for f in fs.transitions)


class TestProductInd:
    def test_constant_equals_free_product(self):
        a = FiniteModule(Z4, (2, 4))
        t = binary_tower(2)
        p = product_ind(constant_ind_etale(a, t))
        fp = free_product(a, t)
        assert levelwise_isomorphic(p, fp)
        for f, g in zip(p.transitions, fp.transitions):
            assert f == g

    def test_single_level(self):
        a = cyclic(Z4, 4)
        t = SpaceTower([("x", "y")], [])
        p = product_ind(constant_ind_etale(a, t))
        assert p.levels[0].order == 16
        assert p.transitions == []

    def test_zero_fibers(self):
        t = binary_tower(1)
        e = EtaleTower(
            "ind", t,
            [zero_space(lv, F2) for lv in t.levels],
            [{s: zero_map(zero_module(F2), zero_module(F2)) for s in t.levels[1]}],
        )
        p = product_ind(e)
        assert all(m.is_zero for m in p.levels)


    def test_zero_fiber_beside_a_nonzero_one(self):
        # each block composes through its fiber; a zero fiber gives a zero block
        t = SpaceTower([("a", "b"), ("a", "b")], [{"a": "a", "b": "b"}])
        z, c = zero_module(Z4), cyclic(Z4, 4)
        levels = [FiniteEtaleSpace(("a", "b"), {"a": z, "b": c})] * 2
        ind = product_ind(EtaleTower("ind", t, levels, [{"a": z.identity_map(),
                                                       "b": c.identity_map()}]))
        assert ind.transitions[0] == c.identity_map()
        pro = coproduct_pro(EtaleTower("pro", t, levels, [{"a": z.identity_map(),
                                                         "b": c.identity_map()}]))
        assert pro.transitions[0] == c.identity_map()


class TestCoproductPro:
    def test_constant_equals_free_sum(self):
        a = cyclic(Z4, 2)
        t = binary_tower(2)
        c = coproduct_pro(constant_pro_etale(a, t))
        assert levelwise_isomorphic(c, free_sum(a, t))

    def test_duality_with_product(self):
        rng = random.Random(5)
        for _ in range(10):
            ring = FiniteRing(rng.choice([4, 6, 9]))
            a = random_module(rng, ring, max_rank=2)
            t = random_tower(rng, max_depth=2, max_size=4)
            e = constant_pro_etale(a, t)
            lhs = dual_tower(coproduct_pro(e))
            rhs = product_ind(dual_tower(e))
            assert levelwise_isomorphic(lhs, rhs)
            for f, g in zip(lhs.transitions, rhs.transitions):
                assert f.matrix == g.matrix


class TestDualTower:
    @pytest.mark.parametrize("seed", range(100))
    def test_double_dual_is_identity(self, seed):
        rng = random.Random(seed)
        ring = FiniteRing(rng.choice([4, 6, 8, 9, 12]))
        a = random_module(rng, ring, max_rank=2)
        t = random_tower(rng, max_depth=3, max_size=4)
        for x in (free_product(a, t), free_sum(a, t)):
            dd = dual_tower(dual_tower(x))
            assert type(dd) is type(x)
            assert dd.levels == x.levels
            for f, g in zip(dd.transitions, x.transitions):
                assert f.matrix == g.matrix

    def test_dual_swaps_kinds_and_transition_type(self):
        a = cyclic(Z4, 4)
        t = chain_tower([1, 3])
        fs = free_sum(a, t)
        d = dual_tower(fs)
        assert d.kind == "ind"
        assert all(f.is_injective() for f in d.transitions)

    def test_dual_of_constant_pro_etale(self):
        a = cyclic(Z4, 4)
        t = binary_tower(1)
        d = dual_tower(constant_pro_etale(a, t))
        assert d.kind == "ind"


class TestTransitionChecks:
    def test_module_towers_check_direction(self):
        # pro transitions run down and onto, ind transitions up and into
        z2, z4 = cyclic(Z4, 2), cyclic(Z4, 4)
        surj, inj = ModuleMap(z4, z2, [[1]]), ModuleMap(z2, z4, [[2]])
        assert ModuleTower("pro", [z2, z4], [surj]).transitions == [surj]
        assert ModuleTower("ind", [z2, z4], [inj]).transitions == [inj]
        for kind, f in (("pro", inj), ("ind", surj)):
            with pytest.raises(ValueError):
                ModuleTower(kind, [z2, z4], [f])
        double = ModuleMap(z4, z4, [[2]])
        for kind in ("pro", "ind"):
            with pytest.raises(ValueError):
                ModuleTower(kind, [z4, z4], [double])
            assert not ModuleTower(kind, [z4, z4], [double], strict=False).strict

    @pytest.mark.parametrize("kind", ["Pro", "both"])
    def test_a_kind_other_than_pro_or_ind_is_refused(self, kind):
        # the transition check reads every kind but "pro" as ind, so the
        # kind itself must be checked, also on a tower without transitions
        z4 = cyclic(Z4, 4)
        t = SpaceTower([("a",), ("a",)], [{"a": "a"}])
        levels = [constant_space(("a",), z4)] * 2
        with pytest.raises(ValueError, match="kind"):
            ModuleTower(kind, [z4, z4], [z4.identity_map()])
        with pytest.raises(ValueError, match="kind"):
            ModuleTower(kind, [z4], [])
        with pytest.raises(ValueError, match="kind"):
            EtaleTower(kind, t, levels, [{"a": z4.identity_map()}])


class TestRelative:
    def test_identity_map(self):
        a = cyclic(F2, 2)
        t = binary_tower(2)
        pi = TowerMap(t, t, [{p: p for p in lv} for lv in t.levels])
        rel = relative_product(a, pi)
        for k, lv in enumerate(t.levels):
            for s in lv:
                assert is_isomorphic(rel.levels[k].fiber(s), a)

    def test_map_to_point(self):
        a = cyclic(Z4, 2)
        t = binary_tower(2)
        s = point_tower(2)
        pi = TowerMap(t, s, [{p: "pt" for p in lv} for lv in t.levels])
        rel = relative_product(a, pi)
        fp = free_product(a, t)
        for k in range(3):
            assert is_isomorphic(rel.levels[k].fiber("pt"), fp.levels[k])
        rels = relative_sum(a, pi)
        fs = free_sum(a, t)
        for k in range(3):
            assert is_isomorphic(rels.levels[k].fiber("pt"), fs.levels[k])

    def test_stalk_orders_along_thread(self):
        # fiber sizes 1, 2, 2 over the thread -> orders |A|, |A|^2, |A|^2
        a = FiniteModule(Z4, (4,))
        t = SpaceTower(
            [("t0",), ("a", "b"), ("aa", "ab", "ba", "bb")],
            [{"a": "t0", "b": "t0"},
             {"aa": "a", "ab": "a", "ba": "b", "bb": "b"}],
        )
        s = SpaceTower([("s0",), ("s0a",), ("s0aa", "s0ab")],
                       [{"s0a": "s0"}, {"s0aa": "s0a", "s0ab": "s0a"}])
        pi = TowerMap(t, s, [
            {"t0": "s0"},
            {"a": "s0a", "b": "s0a"},
            {"aa": "s0aa", "ba": "s0aa", "ab": "s0ab", "bb": "s0ab"},
        ])
        rel = relative_product(a, pi)
        stalk = [rel.levels[k].fiber(s) for k, s in enumerate(("s0", "s0a", "s0aa"))]
        assert [m.order for m in stalk] == [4, 16, 16]
        # matches the free product over the tower of fibers of pi
        fibers = SpaceTower([("t0",), ("a", "b"), ("aa", "ba")],
                            [{"a": "t0", "b": "t0"}, {"aa": "a", "ba": "b"}])
        assert [m.factors for m in free_product(a, fibers).levels] \
            == [m.factors for m in stalk]


class TestDecomposition:
    def test_binary_tower_levelshift(self):
        a = cyclic(F2, 2)
        t = binary_tower(3)
        s = binary_tower(3)
        # quotient by forgetting the last bit at each positive level
        pis = [{p: p if k == 0 else p[:-1] or "b" for p in t.levels[k]}
               for k in range(4)]
        s_levels = [tuple(sorted(set(pi.values()))) for pi in pis]
        s = SpaceTower(
            s_levels,
            [{q: q[:-1] if len(q) > 1 else "b" for q in s_levels[k + 1]}
             for k in range(3)],
        )
        pi = TowerMap(t, s, pis)
        report = decomposition_check(a, pi)
        assert report["ok"]
        assert all(lv["product_iso"] and lv["sum_iso"] for lv in report["levels"])

    def test_identity_map(self):
        a = cyclic(Z4, 4)
        t = chain_tower([2, 3])
        pi = TowerMap(t, t, [{p: p for p in lv} for lv in t.levels])
        assert decomposition_check(a, pi)["ok"]

    def test_map_to_point(self):
        a = cyclic(F2, 2)
        t = binary_tower(2)
        pi = TowerMap(t, point_tower(2), [{p: "pt" for p in lv} for lv in t.levels])
        assert decomposition_check(a, pi)["ok"]

    @pytest.mark.parametrize("seed", range(30))
    def test_random_tower_maps(self, seed):
        rng = random.Random(seed)
        pi = random_tower_map(rng)
        ring = FiniteRing(rng.choice([2, 4, 6]))
        a = random_module(rng, ring, max_rank=1)
        report = decomposition_check(a, pi, bit_budget=64)
        assert report["ok"]

    @pytest.mark.parametrize("seed", range(5))
    def test_fiber_sections_are_built_once_per_level(self, seed, monkeypatch):
        built = []
        build = tower._fiber_sections

        def counted(a, pi, k):
            built.append(k)
            return build(a, pi, k)

        rng = random.Random(seed)
        pi = random_tower_map(rng, depth=3)
        monkeypatch.setattr(tower, "_fiber_sections", counted)
        assert decomposition_check(cyclic(Z4, 2), pi)["ok"]
        assert built == list(range(len(pi.source.levels)))

    def test_a_regrouping_that_is_not_natural_fails(self, monkeypatch):
        """Sending each summand one point along its fiber is an isomorphism
        at every level, but it does not commute with the transitions."""
        def twisted(outer, inner_secs, flat):
            chains = []
            for s in outer.points:
                pts = inner_secs[s].points
                chains += [(flat.injection(pts[(i + 1) % len(pts)]),
                            inner_secs[s].projection(u), outer.projection(s))
                           for i, u in enumerate(pts)]
            return sum_of_composites(outer.module, flat.module, chains)

        a = cyclic(F2, 2)
        t = binary_tower(2)
        pi = TowerMap(t, point_tower(2), [{p: "pt" for p in lv} for lv in t.levels])
        monkeypatch.setattr(tower, "_regrouping_map", twisted)
        report = decomposition_check(a, pi)
        assert not report["ok"]
        # levels 0 and 1 keep the diagonal; the square 1 -> 2 breaks
        assert [(lv["product_iso"], lv["sum_iso"]) for lv in report["levels"]] \
            == [(True, True), (False, False), (True, True)]


def chain_sum(source, target, chains):
    """Reference: compose by dense products and add one validated map at a
    time, as the tower builders did before they summed unreduced matrices;
    `ModuleMap.compose` is itself a sum of composites, so it is not used."""
    out = zero_map(source, target)
    for chain in chains:
        comp = chain[0]
        for f in chain[1:]:
            comp = dense_compose(comp, f)
        out = add_maps(out, comp)
    return out


def fiber_sections(a, pi, k):
    return {s: sections(constant_space(
        tuple(u for u in pi.source.levels[k] if pi.level_maps[k][u] == s), a))
        for s in pi.target.levels[k]}


class TestSumOfComposites:
    """`finring.sum_of_composites` against dense references, alone and in
    the maps the tower builders make with it."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_chains(self, seed):
        rng = random.Random(seed)
        ring = FiniteRing(rng.choice([4, 6, 12]))
        source = random_module(rng, ring)
        target = random_module(rng, ring)
        chains = []
        for _ in range(rng.randint(0, 4)):
            mods = [target] + [random_module(rng, ring)
                               for _ in range(rng.randint(0, 2))] + [source]
            chains.append([random_map(rng, mods[i + 1], mods[i])
                           for i in range(len(mods) - 1)])
        assert (sum_of_composites(source, target, chains)
                == chain_sum(source, target, chains))

    @pytest.mark.parametrize("seed", range(60))
    def test_sparse_sums_equal_the_dense_ones(self, seed):
        """Chains of one to four maps over Z/4, Z/12 and Z/36, some through
        the zero module, against the dense sums they replace and against
        composing and adding validated maps."""
        rng = random.Random(seed)
        ring = FiniteRing(rng.choice([4, 12, 36]))
        source, target = random_module(rng, ring), random_module(rng, ring)
        chains = []
        for _ in range(rng.randint(1, 6)):
            length = rng.randint(1, 4)
            mods = [target] + [random_module(rng, ring) for _ in range(length - 1)] \
                + [source]
            if length > 1 and rng.random() < 0.3:
                mods[rng.randint(1, length - 1)] = zero_module(ring)
            chains.append([random_map(rng, mods[i + 1], mods[i]) for i in range(length)])
        summed = sum_of_composites(source, target, chains)
        assert summed == dense_sum_of_composites(source, target, chains)
        assert summed == chain_sum(source, target, chains)

    def test_endpoints_are_checked(self):
        a, b = cyclic(Z4, 4), cyclic(Z4, 2)
        z = zero_module(Z4)
        f = ModuleMap(a, b, [[1]])
        for source, target, chain in [
                (a, b, [f, f]),                        # b -> a in the middle
                (b, b, [f]),                           # wrong source
                (a, a, [f]),                           # wrong target
                (a, b, [zero_map(z, b), zero_map(a, a)]),  # through 0, mismatched
        ]:
            with pytest.raises(ValueError, match="maps are not composable"):
                sum_of_composites(source, target, [chain])

    @pytest.mark.parametrize("seed", range(40))
    def test_composites_agree_as_the_built_maps_do(self, seed):
        """Against equality of the built sums: two random sums (mostly
        unequal), a sum against its own reduced map (equal, although the
        unreduced totals differ by multiples of the target factors), and a
        sum against its chains in reverse order."""
        rng = random.Random(seed)
        ring = FiniteRing(rng.choice([4, 12, 36]))
        source, target = random_module(rng, ring), random_module(rng, ring)

        def random_chains():
            chains = []
            for _ in range(rng.randint(1, 4)):
                mods = [target] + [random_module(rng, ring)
                                   for _ in range(rng.randint(1, 3))] + [source]
                chains.append([random_map(rng, mods[i + 1], mods[i])
                               for i in range(len(mods) - 1)])
            return chains

        left, right = random_chains(), random_chains()
        reduced = [[sum_of_composites(source, target, left)]]
        for a, b in [(left, right), (right, left), (left, reduced),
                     (reduced, left), (right, reduced), (left, left[::-1])]:
            assert composites_agree(source, target, a, b) == (
                chain_sum(source, target, a) == chain_sum(source, target, b))
        assert composites_agree(source, target, left, reduced)

    def test_composites_agree_reduces_by_each_target_factor(self):
        """2 and 2 . 2 = 4 agree as maps Z/4 -> Z/2, not as maps Z/4 -> Z/4."""
        z4, z2 = cyclic(Z4, 4), cyclic(Z4, 2)
        to_z2, to_z4 = ModuleMap(z4, z2, [[1]]), z4.identity_map()
        twice = ModuleMap(z4, z4, [[2]])
        assert composites_agree(z4, z2, [(to_z2, twice)], [(to_z2, twice, twice)])
        assert not composites_agree(z4, z4, [(to_z4, twice)], [(to_z4, twice, twice)])
        with pytest.raises(ValueError, match="maps are not composable"):
            composites_agree(z4, z2, [(to_z2,)], [(to_z4,)])

    @pytest.mark.parametrize("seed", range(15))
    def test_tower_maps_match_the_step_by_step_sums(self, seed):
        rng = random.Random(seed)
        pi = random_tower_map(rng)
        t = pi.source
        a = random_module(rng, FiniteRing(rng.choice([2, 4, 6])), max_rank=2)
        fp, fs = free_product(a, t), free_sum(a, t)
        rel, rel_sum = relative_product(a, pi), relative_sum(a, pi)
        for k in range(t.depth):
            tr = t.transitions[k]
            lo, hi = fp.section_levels[k], fp.section_levels[k + 1]
            assert fp.transitions[k] == chain_sum(lo.module, hi.module, [
                (hi.injection(u), a.identity_map(), lo.projection(tr[u]))
                for u in t.levels[k + 1]])
            lo, hi = fs.section_levels[k], fs.section_levels[k + 1]
            assert fs.transitions[k] == chain_sum(hi.module, lo.module, [
                (lo.injection(tr[u]), a.identity_map(), hi.projection(u))
                for u in t.levels[k + 1]])
            lower, upper = fiber_sections(a, pi, k), fiber_sections(a, pi, k + 1)
            for s in pi.target.levels[k + 1]:
                lo = lower[pi.target.transitions[k][s]]
                hi = upper[s]
                assert rel.fiber_transitions[k][s] == chain_sum(
                    lo.module, hi.module,
                    [(hi.injection(u), a.identity_map(), lo.projection(tr[u]))
                     for u in hi.points])
                assert rel_sum.fiber_transitions[k][s] == chain_sum(
                    hi.module, lo.module,
                    [(lo.injection(tr[u]), a.identity_map(), hi.projection(u))
                     for u in hi.points])
        for k in range(len(t.levels)):
            grouped = sections(rel.levels[k])
            inner = fiber_sections(a, pi, k)
            flat = fp.section_levels[k]
            assert tower._regrouping_map(grouped, inner, flat) == chain_sum(
                grouped.module, flat.module,
                [(flat.injection(u), inner[s].projection(u), grouped.projection(s))
                 for s in grouped.points for u in inner[s].points])

    @pytest.mark.parametrize("seed", range(10))
    def test_etale_towers_match_the_step_by_step_sums(self, seed):
        rng = random.Random(seed)
        t = random_tower(rng, max_depth=2, max_size=3)
        ring = FiniteRing(12)
        e_ind = constant_ind_etale(random_module(rng, ring, 2), t)
        e_pro = constant_pro_etale(random_module(rng, ring, 2), t)
        ind, pro = product_ind(e_ind), coproduct_pro(e_pro)
        for k in range(t.depth):
            tr = t.transitions[k]
            lo, hi = ind.section_levels[k], ind.section_levels[k + 1]
            assert ind.transitions[k] == chain_sum(lo.module, hi.module, [
                (hi.injection(u), e_ind.fiber_transitions[k][u], lo.projection(tr[u]))
                for u in t.levels[k + 1]])
            lo, hi = pro.section_levels[k], pro.section_levels[k + 1]
            assert pro.transitions[k] == chain_sum(hi.module, lo.module, [
                (lo.injection(tr[u]), e_pro.fiber_transitions[k][u], hi.projection(u))
                for u in t.levels[k + 1]])


class TestStalks:
    def test_constant_tower(self):
        a = FiniteModule(Z4, (2, 4))
        t = binary_tower(2)
        e = constant_ind_etale(a, t)
        thread = ("b", "b0", "b00")
        assert all(e.levels[k].fiber(s) == a for k, s in enumerate(thread))
        assert all(e.fiber_transitions[k][thread[k + 1]] == a.identity_map()
                   for k in range(t.depth))

    def test_invalid_thread_rejected(self):
        t = binary_tower(2)
        assert ("b", "b1", "b00") not in t.threads()

    def test_zero_fiber_stalk(self):
        t = binary_tower(1)
        e = EtaleTower(
            "pro", t,
            [zero_space(lv, F2) for lv in t.levels],
            [{s: zero_map(zero_module(F2), zero_module(F2)) for s in t.levels[1]}],
        )
        assert all(e.levels[k].fiber(s).is_zero for k, s in enumerate(("b", "b0")))
        assert all(m.is_zero for m in coproduct_pro(e).levels)


def twist_a_projection(x):
    """x with one projection replaced: at the first level with two points,
    the first point's projection reads the second point's component."""
    for k, sec in enumerate(x.section_levels):
        if len(sec.points) >= 2:
            a, b = sec.points[:2]
            x.section_levels[k] = Relabeled(sec, projection={a: b})
            break
    return x


class TestCanonicalComponents:
    def test_two_separated_threads(self):
        a = cyclic(F2, 2)
        t = binary_tower(2)
        p = product_ind(constant_ind_etale(a, t))
        report = canonical_components(p, [("b", "b0", "b00"), ("b", "b1", "b10")])
        assert report["ok"]
        assert all(lv["joint_kernel_trivial"] for lv in report["levels"])
        # at level >= 1 the two threads are distinguished and jointly surjective
        assert report["levels"][1]["joint_surjective"]

    def test_a_twisted_projection_leaves_a_joint_kernel(self):
        a = cyclic(F2, 2)
        p = twist_a_projection(product_ind(constant_ind_etale(a, binary_tower(2))))
        report = canonical_components(p, [("b", "b0", "b00"), ("b", "b1", "b10")])
        assert not report["ok"]
        assert [lv["joint_kernel_trivial"] for lv in report["levels"]] \
            == [True, False, True]

    def test_single_thread_point_tower(self):
        a = cyclic(Z4, 4)
        p = product_ind(constant_ind_etale(a, point_tower(0)))
        report = canonical_components(p, [("pt",)])
        assert report == {"levels": [{"level": 0, "joint_surjective": True,
                                      "joint_kernel_trivial": True}], "ok": True}
        assert p.section_levels[0].projection("pt") == a.identity_map()

    def test_density_of_inclusions(self):
        a = cyclic(F2, 2)
        t = binary_tower(2)
        c = coproduct_pro(constant_pro_etale(a, t))
        threads = t.threads()  # transversal covering every level
        report = canonical_components(c, threads)
        assert report["ok"]
        assert all(lv["dense"] for lv in report["levels"])

    def test_duplicate_threads_reported(self):
        a = cyclic(F2, 2)
        p = product_ind(constant_ind_etale(a, point_tower(1)))
        with pytest.raises(ValueError, match="threads must be distinct"):
            canonical_components(p, [("pt", "pt"), ("pt", "pt")])


class TestClopenSplitting:
    @pytest.mark.parametrize("seed", range(15))
    def test_product_splits_over_top_partition(self, seed):
        rng = random.Random(seed)
        ring = FiniteRing(rng.choice([2, 4, 6]))
        a = random_module(rng, ring, max_rank=1)
        t = random_tower(rng, max_depth=2, max_size=4)
        full = free_product(a, t, bit_budget=64)
        pts = list(t.levels[0])
        if len(pts) < 2:
            pytest.skip("nothing to split")
        cut = rng.randint(1, len(pts) - 1)
        blocks = [pts[:cut], pts[cut:]]
        orders = []
        for b in blocks:
            sub = restrict_tower(t, b)
            orders.append([m.order for m in free_product(a, sub, bit_budget=64).levels])
        for k in range(len(t.levels)):
            assert full.levels[k].order == orders[0][k] * orders[1][k]


class TestExactness:
    @pytest.mark.parametrize("seed", range(15))
    def test_product_and_sum_preserve_exactness_levelwise(self, seed):
        # 0 -> K -> A -> Q -> 0 of constant towers stays exact at every level
        rng = random.Random(seed)
        ring = FiniteRing(rng.choice([4, 6, 8, 9]))
        a = random_module(rng, ring, max_rank=2)
        b = random_module(rng, ring, max_rank=2)
        from .test_finring import random_map
        from proflq.finring import cokernel

        f = random_map(rng, a, b)
        kmod, incl = kernel(f)
        qmod, proj = cokernel(incl)
        t = random_tower(rng, max_depth=2, max_size=3)
        for builder in (free_product, free_sum):
            tk = builder(kmod, t, bit_budget=64)
            ta = builder(a, t, bit_budget=64)
            tq = builder(qmod, t, bit_budget=64)
            for k in range(len(t.levels)):
                si, sa, sq = tk.section_levels[k], ta.section_levels[k], tq.section_levels[k]
                pts = sa.points
                lift_i = zero_map(si.module, sa.module)
                lift_p = zero_map(sa.module, sq.module)
                for ptt in pts:
                    lift_i = add_maps(lift_i, sa.injection(ptt).compose(incl)
                                      .compose(si.projection(ptt)))
                    lift_p = add_maps(lift_p, sq.injection(ptt).compose(proj)
                                      .compose(sa.projection(ptt)))
                assert lift_i.is_injective()
                assert lift_p.is_surjective()
                assert lift_p.compose(lift_i).is_zero
                assert image(lift_i).order == kernel(lift_p)[0].order
