"""Tests for group cohomology: resolution engine vs bar oracle, Shapiro,
inflation ranks (the chain-map route vs bar cochains) and tower reports."""

import random
import tracemalloc

import numpy as np
import pytest

from proflq import cache, catalog, cli, groupcoh as gc, jsonio, linalg, lq
from proflq.errors import InvariantError
from proflq.groups import (
    GroupHom,
    all_subgroups,
    cyclic_group,
    dihedral_group,
    direct_product,
    quotient_group,
    symmetric_group,
    trivial_group,
)
from proflq.repv import ElementaryAbelian

from .reference import (bar_cohomology, bar_inflation_ranks,
                        constant_group_tower, coset_action, dense,
                        direct_sum_module, normalizer, regular_module)
from .test_golden import INPUTS as GOLDEN_INPUTS


class TestGModule:
    def test_trivial(self):
        m = gc.trivial_module(symmetric_group(3), 2)
        assert m.dim == 1 and (m.action == 0).all()

    def test_regular_dimension(self):
        g = symmetric_group(3)
        assert regular_module(g, 2).dim == 6

    def test_permutation_module_rejects_bad_action(self):
        g = cyclic_group(2)
        with pytest.raises(ValueError):
            gc.permutation_module(g, [[0, 1], [0, 0]], 2)
        with pytest.raises(ValueError):
            gc.permutation_module(g, [[1, 0], [0, 1]], 2)

    def test_a_validated_action_cannot_change(self):
        # a writable array is copied into a read-only one, a read-only
        # int64 array is kept as it is
        g = cyclic_group(2)
        action = np.array([[0, 1], [1, 0]])
        m = gc.permutation_module(g, action, 2)
        action[1] = [0, 1]
        assert m.action.tolist() == [[0, 1], [1, 0]]
        with pytest.raises(ValueError, match="read-only"):
            m.action[1, 0] = 0
        assert gc.permutation_module(g, m.action, 2).action is m.action

    def test_permutation_module_checks_every_element(self):
        # only one row off, at an element that is not a generator: the
        # generator-only check must still see it
        g = symmetric_group(4)
        action = [[g.mul(a, x) for x in range(g.order)] for a in range(g.order)]
        gens = set(g.generators_greedy())
        bad = next(x for x in range(1, g.order) if x not in gens)
        action[bad] = action[next(x for x in range(1, g.order) if x != bad)]
        with pytest.raises(ValueError, match="associative"):
            gc.permutation_module(g, action, 2)
        action[bad] = action[bad][1:] + action[bad][:1]
        with pytest.raises(ValueError, match="associative"):
            gc.permutation_module(g, action, 2)

    def test_homomorphism_validated(self):
        # both non-identity elements of C3 swap two points: each row is a
        # permutation, but g.(g.x) = x while g^2 . x swaps
        g = cyclic_group(3)
        gc.permutation_module(g, [[0, 1], [0, 1], [0, 1]], 2)
        with pytest.raises(ValueError, match="associative"):
            gc.permutation_module(g, [[0, 1], [1, 0], [1, 0]], 2)

    def test_one_wrong_permutation_in_a_large_group(self):
        # |G| = 100 acting on Z/4 by translation: the wrong row sits at an
        # element that none of 60 pairs drawn with seeds 0 and 1 touches,
        # so only an exact check rejects it; it is a permutation, so a
        # row-by-row check passes it
        g = cyclic_group(100)
        n = g.order
        a = np.random.default_rng(0).integers(0, n, 60)
        b = np.random.default_rng(1).integers(0, n, 60)
        sampled = set(a) | set(b) | {g.mul(int(x), int(y)) for x, y in zip(a, b)}
        x = next(e for e in range(1, n) if e not in sampled)
        action = [[(h + y) % 4 for y in range(4)] for h in range(n)]
        gc.permutation_module(g, action, 3)
        action[x] = [(x + 1 + y) % 4 for y in range(4)]
        with pytest.raises(ValueError, match="associative"):
            gc.permutation_module(g, action, 3)

    def test_direct_sum(self):
        g = cyclic_group(2)
        m = direct_sum_module(gc.trivial_module(g, 2),
                                 regular_module(g, 2))
        assert m.dim == 3
        assert gc.cohomology(g, m, 2) == (2, 1, 1)

    @pytest.mark.parametrize("other", [
        cyclic_group(3),                                    # another order
        direct_product(cyclic_group(2), cyclic_group(2)),  # another table
    ], ids=["C3", "C2xC2"])
    def test_module_over_another_group_is_refused(self, other):
        m = regular_module(cyclic_group(4), 2)
        with pytest.raises(ValueError, match="module is not over the given group"):
            gc.cohomology(other, m, 1)

    def test_act(self):
        g = cyclic_group(4)
        m = regular_module(g, 3)
        assert list(m.action[1]) == [1, 2, 3, 0]
        v = np.zeros(4, dtype=np.int64)
        v[0] = 1
        assert list(dense(m)[1] @ v % 3) == [0, 1, 0, 0]


class TestCosetActionAgainstReference:
    @pytest.mark.parametrize("name", ["S4", "SL(2,3)", "C2xC2xS3"])
    def test_every_subgroup(self, name):
        # the one gather coset_of[table[:, reps]] against a product per entry
        g = catalog.by_name(name)
        for s in all_subgroups(g):
            for p in (2, 3):
                m = gc.coset_module(g, s, p)
                assert np.array_equal(m.action, coset_action(g, s)), sorted(s)
                assert m.dim * len(s) == g.order and m.p == p


class TestCohomologyOracles:
    def test_cyclic_p(self):
        for p in (2, 3, 5):
            g = cyclic_group(p)
            assert gc.cohomology(g, gc.trivial_module(g, p), 4) == (1,) * 5

    def test_cyclic_prime_power(self):
        for n, p in ((4, 2), (8, 2), (9, 3)):
            g = cyclic_group(n)
            assert gc.cohomology(g, gc.trivial_module(g, p), 3) == (1, 1, 1, 1)

    def test_coprime_vanishing(self):
        g = cyclic_group(3)
        assert gc.cohomology(g, gc.trivial_module(g, 2), 3) == (1, 0, 0, 0)
        g = symmetric_group(3)
        assert gc.cohomology(g, gc.trivial_module(g, 5), 3) == (1, 0, 0, 0)

    def test_klein_four_kunneth(self):
        k4 = direct_product(cyclic_group(2), cyclic_group(2))
        assert gc.cohomology(k4, gc.trivial_module(k4, 2), 4) == (1, 2, 3, 4, 5)

    def test_s3_mod2_and_mod3(self):
        g = symmetric_group(3)
        assert gc.cohomology(g, gc.trivial_module(g, 2), 3) == (1, 1, 1, 1)
        # mod 3 cohomology of S_3 is 4-periodic: 1,0,0,1
        assert gc.cohomology(g, gc.trivial_module(g, 3), 4) == (1, 0, 0, 1, 1)

    def test_q8_period_four(self):
        q8 = catalog.quaternion_group()
        assert gc.cohomology(q8, gc.trivial_module(q8, 2), 4) == (1, 2, 2, 1, 1)

    def test_d4_poincare_series(self):
        d4 = dihedral_group(4)
        assert gc.cohomology(d4, gc.trivial_module(d4, 2), 4) == (1, 2, 3, 4, 5)

    def test_trivial_group(self):
        g = trivial_group()
        m = gc.permutation_module(g, [[0, 1, 2]], 2)  # three fixed points
        assert gc.cohomology(g, m, 3) == (3, 0, 0, 0)

    def test_regular_module_acyclic(self):
        for g in (symmetric_group(3), dihedral_group(4), cyclic_group(4)):
            for p in (2, 3):
                dims = gc.cohomology(g, regular_module(g, p), 3)
                assert dims[0] == 1 and dims[1:] == (0, 0, 0)

    def test_h0_is_invariants(self):
        g = symmetric_group(3)
        m = gc.permutation_module(
            g, [[g.mul(a, x) for x in range(6)] for a in range(6)], 2)
        # invariants of the regular module are spanned by the orbit sum
        assert gc.cohomology(g, m, 0) == (1,)

    def test_zero_module(self):
        g = cyclic_group(2)
        m = gc.permutation_module(g, [[], []], 2)
        assert gc.cohomology(g, m, 2) == (0, 0, 0)

    def test_budget(self):
        g = symmetric_group(4)
        with pytest.raises(gc.BudgetError):
            gc.cohomology(g, regular_module(g, 2), 3, dim_budget=10)


class TestBarOracle:
    def test_matches_resolution_on_small_groups(self):
        for g in (cyclic_group(2), cyclic_group(3), cyclic_group(4),
                  direct_product(cyclic_group(2), cyclic_group(2)),
                  symmetric_group(3)):
            for p in (2, 3):
                m = gc.trivial_module(g, p)
                assert bar_cohomology(g, m, 2, dim_budget=10 ** 6) == \
                    gc.cohomology(g, m, 2)

    def test_matches_on_nontrivial_coefficients(self):
        rng = random.Random(3)
        g = symmetric_group(3)
        subs = [s for s in all_subgroups(g) if len(s) in (2, 3)]
        for _ in range(6):
            s = rng.choice(subs)
            p = rng.choice([2, 3])
            m = gc.coset_module(g, s, p)
            assert bar_cohomology(g, m, 2, dim_budget=10 ** 6) == \
                gc.cohomology(g, m, 2)

    def test_bar_budget(self):
        g = symmetric_group(4)
        with pytest.raises(gc.BudgetError):
            bar_cohomology(g, gc.trivial_module(g, 2), 3)


class TestShapiro:
    def test_s3_c2_p2(self):
        g = symmetric_group(3)
        c2 = next(s for s in all_subgroups(g) if len(s) == 2)
        rep = gc.shapiro_check(g, c2, 2, 3)
        assert rep["equal"] and rep["lhs"] == (1, 1, 1, 1)

    def test_s3_c3_p3(self):
        g = symmetric_group(3)
        c3 = next(s for s in all_subgroups(g) if len(s) == 3)
        rep = gc.shapiro_check(g, c3, 3, 2)
        assert rep["equal"] and rep["lhs"] == (1, 1, 1)

    def test_whole_group(self):
        g = dihedral_group(4)
        rep = gc.shapiro_check(g, range(8), 2, 3)
        assert rep["equal"] and rep["index"] == 1
        # F_2[G/G] is the one-point module, so both sides read one memo
        # entry; the known dims keep the check from being only that
        assert rep["lhs"] == gc.cohomology(g, gc.trivial_module(g, 2), 3) \
            == (1, 2, 3, 4)

    def test_trivial_subgroup_gives_regular(self):
        g = symmetric_group(3)
        rep = gc.shapiro_check(g, {0}, 2, 3)
        assert rep["equal"] and rep["lhs"] == (1, 0, 0, 0)

    def test_random_pairs(self):
        rng = random.Random(11)
        pool = [dihedral_group(4), catalog.quaternion_group(),
                symmetric_group(4), catalog.by_name("Dic3")]
        for _ in range(8):
            g = rng.choice(pool)
            s = rng.choice(all_subgroups(g))
            assert gc.shapiro_check(g, s, rng.choice([2, 3]), 2)["equal"]

    @pytest.mark.parametrize("p", [2, 3])
    def test_lhs_on_the_quotient_equals_the_coset_module_over_g(self, p):
        """Where O_p'(G) != 1 the lhs is the coset module of HN/N over G/N;
        against F_p[G/H] built over G and reduced by `cohomology`, for every
        subgroup H of every such catalog group."""
        groups = [g for g in catalog.all_groups()
                  if gc._p_prime_quotient(g, p) is not None]
        assert len(groups) >= 10
        for g in groups:
            for h in all_subgroups(g):
                assert gc.shapiro_check(g, h, p, 3)["lhs"] == gc.cohomology(
                    g, gc.coset_module(g, h, p), 3), (g.name, sorted(h))


class TestInflation:
    def test_identity_inflation_full_rank(self):
        g = symmetric_group(3)
        q = GroupHom(g, g, list(range(6)))
        dims = gc.cohomology(g, gc.trivial_module(g, 2), 2)
        assert gc.inflation_ranks(q, 2, 2, dim_budget=10 ** 6) == dims

    def test_cyclic_tower_ranks(self):
        t = gc.cyclic_p_tower(2, 2)
        # H^1 classes survive inflation, H^2 classes die
        assert gc.inflation_ranks(t.transitions[0], 2, 3) == (1, 1, 0, 0)

    def test_onto_trivial(self):
        g = cyclic_group(3)
        q = GroupHom(g, trivial_group(), [0, 0, 0])
        assert gc.inflation_ranks(q, 3, 2, dim_budget=10 ** 5) == (1, 0, 0)

    def test_largest_accepted_p_matches_p_5(self):
        # 3037000493 is the largest prime linalg accepts; neither it nor 5
        # divides 24, so both see the same dims and inflation ranks, on the
        # golden tower C2 <- S3 and on S4 -> S4/V4 = S3
        s4 = catalog.by_name("S4")
        v4 = next(s for s in all_subgroups(s4) if len(s) == 4
                  and len(normalizer(s4, s)) == s4.order)
        s3, proj = quotient_group(s4, v4)
        towers = [jsonio.load_group_tower(GOLDEN_INPUTS["gt.json"]),
                  gc.GroupTower([s3, s4], [GroupHom(s4, s3, proj)])]
        for t in towers:
            small, large = (gc.continuous_cohomology(t, p, 4) for p in (5, 3037000493))
            assert (large["dims"], large["inflation_ranks"]) \
                == (small["dims"], small["inflation_ranks"])
            assert small["inflation_ranks"] == [(1, 0, 0, 0, 0)]


def _normal_quotients(max_order):
    """G -> G/N for every proper nontrivial normal N of the catalog groups."""
    for g in catalog.all_groups(max_order):
        for s in all_subgroups(g):
            if 1 < len(s) < g.order and len(normalizer(g, s)) == g.order:
                quotient, proj = quotient_group(g, s)
                yield GroupHom(g, quotient, proj)


class TestInflationAgainstBarOracle:
    """The chain-map route against the pullback of bar cocycles."""

    @pytest.mark.parametrize("max_order, count, p, k_max", [
        (12, 66, 2, 2), (12, 66, 3, 2), (12, 66, 5, 2), (8, 37, 2, 3)])
    def test_normal_quotients(self, max_order, count, p, k_max):
        quotients = list(_normal_quotients(max_order))
        assert len(quotients) == count
        for q in quotients:
            assert gc.inflation_ranks(q, p, k_max) == \
                bar_inflation_ranks(q, p, k_max), (q.source.name, q.target.order)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_zero_betti_numbers(self, p):
        # the trivial group has Betti numbers 1, 0, 0, ...: lifting steps
        # with no generators on either side
        one = trivial_group()
        homs = [GroupHom(one, one, [0])]
        homs += [GroupHom(g, one, [0] * g.order) for g in catalog.all_groups(8)]
        for q in homs:
            assert gc.inflation_ranks(q, p, 3) == \
                bar_inflation_ranks(q, p, 3) == (1, 0, 0, 0), q.source.name
        cp = cyclic_group(p)
        rep = gc.continuous_cohomology(
            gc.GroupTower([one, cp], [GroupHom(cp, one, [0] * p)]), p, 4)
        assert rep["inflation_ranks"] == [(1, 0, 0, 0, 0)]

    def test_p5_cyclic_and_dihedral(self):
        q = gc.cyclic_p_tower(5, 2).transitions[0]
        assert gc.inflation_ranks(q, 5, 1) == bar_inflation_ranks(q, 5, 1)
        assert gc.inflation_ranks(q, 5, 4) == (1, 1, 0, 0, 0)
        # the dihedral group of order 20 onto D5, C2xC2 and three times C2
        quotients = [q for q in _normal_quotients(20) if q.source.name == "D10"]
        assert sorted(q.target.order for q in quotients) == [2, 2, 2, 4, 10]
        for q in quotients:
            for p in (2, 5):
                assert gc.inflation_ranks(q, p, 2) == \
                    bar_inflation_ranks(q, p, 2, dim_budget=10 ** 4)


class TestInflationReach:
    """Towers the bar cochains could not reach under the default budget."""

    def test_cyclic_tower_to_degree_4(self):
        t = gc.cyclic_p_tower(2, 3)
        with pytest.raises(gc.BudgetError):
            bar_inflation_ranks(t.transitions[-1], 2, 4)
        rep = gc.continuous_cohomology(t, 2, 4)
        assert rep["inflation_ranks"] == [(1, 1, 0, 0, 0)] * 2

    @pytest.mark.parametrize("p, depth", [(2, 6), (3, 4)])
    def test_long_cyclic_towers_to_degree_8(self, p, depth):
        rep = gc.continuous_cohomology(gc.cyclic_p_tower(p, depth), p, 8)
        assert rep["dims"] == [(1,) * 9] * depth
        # the colimit is H*(Z_p; F_p): exterior on one class of degree 1
        assert rep["inflation_ranks"] == [(1, 1) + (0,) * 7] * (depth - 1)
        assert rep["stable_degrees"] == [0, 1]

    def test_small_budget_still_refuses(self):
        # the levels' cochains fit (one generator per degree, trivial
        # coefficients), but the lift works in F_k = (F_2 Z/8)^1
        t = gc.cyclic_p_tower(2, 3)
        gc.continuous_cohomology(t, 2, 4, dim_budget=8)
        with pytest.raises(gc.BudgetError):
            gc.continuous_cohomology(t, 2, 4, dim_budget=7)


class TestChainMapInvariant:
    @pytest.mark.parametrize("p", [2, 3])
    def test_a_twisted_lift_is_refused(self, p, monkeypatch):
        # translating by q(g)^-1 is not a G'-action on S3 (not abelian), so
        # some lifting system has no solution
        s4 = symmetric_group(4)
        v4 = next(s for s in all_subgroups(s4) if len(s) == 4
                  and len(normalizer(s4, s)) == s4.order)
        s3, proj = quotient_group(s4, v4)
        q = GroupHom(s4, s3, proj)
        gc.inflation_ranks(q, p, 3)
        monkeypatch.setattr(q, "images", [s3.inv(x) for x in q.images])
        with pytest.raises(InvariantError, match="no lift"):
            gc.inflation_ranks(q, p, 3)


class TestGroupTower:
    def test_validation(self):
        g = cyclic_group(4)
        h = cyclic_group(2)
        q = GroupHom(g, h, [0, 1, 0, 1])
        gc.GroupTower([h, g], [q])
        with pytest.raises(ValueError):
            gc.GroupTower([g, h], [q])
        inj = GroupHom(h, g, [0, 2])
        with pytest.raises(ValueError):
            gc.GroupTower([g, h], [inj])

    def test_cyclic_p_tower_shape(self):
        t = gc.cyclic_p_tower(3, 3)
        assert [g.order for g in t.levels] == [3, 9, 27]
        assert all(q.is_surjective for q in t.transitions)

    def test_continuous_cohomology_zp(self):
        for p in (2, 3):
            t = gc.cyclic_p_tower(p, 3)
            rep = gc.continuous_cohomology(t, p, 2, dim_budget=10 ** 6)
            assert rep["dims"] == [(1, 1, 1)] * 3
            # H^0 and H^1 stabilize (limit Z_p has dims 1,1,0,...);
            # degree 2 classes die along inflation, so it never stabilizes
            assert rep["inflation_ranks"] == [(1, 1, 0)] * 2
            assert rep["stable_degrees"] == [0, 1]
            assert rep["growing_degrees"] == [2]

    def test_constant_tower_stabilizes(self):
        g = symmetric_group(3)
        rep = gc.continuous_cohomology(constant_group_tower(g, 3), 2, 2,
                                       dim_budget=10 ** 5)
        assert rep["stable_degrees"] == [0, 1, 2]

    def test_trivial_tower(self):
        rep = gc.continuous_cohomology(
            constant_group_tower(trivial_group(), 3), 2, 3)
        assert rep["dims"] == [(1, 0, 0, 0)] * 3


class TestRandomizedConsistency:
    def test_resolution_vs_bar_random_coset_modules(self):
        rng = random.Random(23)
        pool = [g for g in catalog.all_groups(8) if g.order <= 8]
        for _ in range(12):
            g = rng.choice(pool)
            s = rng.choice(all_subgroups(g))
            p = rng.choice([2, 3])
            m = gc.coset_module(g, s, p)
            assert gc.cohomology(g, m, 2) == \
                bar_cohomology(g, m, 2, dim_budget=10 ** 6)

    def test_h0_equals_invariants_dimension(self):
        rng = random.Random(5)
        from proflq import linalg
        for _ in range(10):
            g = rng.choice([symmetric_group(3), dihedral_group(4)])
            s = rng.choice(all_subgroups(g))
            p = rng.choice([2, 3])
            m = gc.coset_module(g, s, p)
            stacked = np.vstack([mats - np.eye(m.dim, dtype=np.int64)
                                 for mats in dense(m)])
            inv_dim = m.dim - linalg.rank(stacked, p)
            assert gc.cohomology(g, m, 0) == (inv_dim,)


# ---------------------------------------------------------------------------
# the resolution engine against the plain builders it replaced


def _reference_in_row_space(vec, basis_rref, pivots, p):
    v = np.asarray(vec, dtype=np.int64) % p
    for i, c in enumerate(pivots):
        if v[c]:
            v = (v - v[c] * basis_rref[i]) % p
    return not v.any()


def _reference_resolution(group, p, length):
    """(betti, differentials): re-echelonize the whole span per generator."""
    n = group.order
    left = np.array([[group.mul(g, h) for h in range(n)] for g in range(n)])

    def translate(g, vec, blocks):
        out = np.zeros_like(vec)
        out.reshape(blocks, n)[:, left[g]] = vec.reshape(blocks, n)
        return out

    betti, diffs = [1], []
    for i in range(length):
        prev = np.ones((1, n), dtype=np.int64) if i == 0 else diffs[-1]
        r, pivots = linalg._rref_fp(prev, p)
        kernel = linalg._kernel(r, pivots, p).transpose()
        blocks = betti[i]
        gens = []
        span = np.zeros((0, blocks * n), dtype=np.int64)
        span_pivots = []
        for v in kernel:
            if not v.any() or _reference_in_row_space(v, span, span_pivots, p):
                continue
            gens.append(v)
            translates = np.stack([translate(g, v, blocks) for g in range(n)])
            span, span_pivots = linalg._rref_fp(np.vstack([span, translates]), p)
            span = span[:len(span_pivots)]
            if span.shape[0] == kernel.shape[0]:
                break
        d = np.zeros((blocks * n, len(gens) * n), dtype=np.int64)
        for j, v in enumerate(gens):
            for g in range(n):
                d[:, j * n + g] = translate(g, v, blocks)
        betti.append(len(gens))
        diffs.append(d)
    return betti, diffs


def _reference_coboundary(res, module, i):
    n, p, d = res.group.order, res.p, module.dim
    b_src, b_dst = res.betti[i], res.betti[i + 1]
    diff = res.differentials[i]
    mats = dense(module)
    out = np.zeros((b_dst * d, b_src * d), dtype=np.int64)
    for k in range(b_dst):
        col = diff[:, k * n].reshape(b_src, n)
        for j in range(b_src):
            block = np.zeros((d, d), dtype=np.int64)
            for g in range(n):
                c = int(col[j, g])
                if c:
                    block += c * mats[g]
            out[k * d:(k + 1) * d, j * d:(j + 1) * d] = block % p
    return out


class TestAgainstReferenceBuilders:
    @pytest.mark.parametrize("p", [2, 3])
    def test_every_catalog_group(self, p):
        length = 3
        for g in catalog.all_groups(24):
            betti, diffs = _reference_resolution(g, p, length)
            res = gc.FreeResolution(g, p)
            res.extend_to(length)
            assert res.betti == betti, g.name
            for mine, ref in zip(res.differentials, diffs):
                assert mine.shape == ref.shape and (mine == ref).all(), g.name
            subs = all_subgroups(g)
            modules = [gc.trivial_module(g, p), gc.coset_module(g, subs[len(subs) // 2], p)]
            for m in modules:
                for i in range(length - 1):
                    delta = gc._hom_coboundary(gc._coefficients(res, i), m)
                    assert np.array_equal(delta, _reference_coboundary(res, m, i)), g.name

    def test_large_coefficient_blocks(self):
        # the regular module and two coset modules of S4, d = 24, 24, 12
        g = symmetric_group(4)
        for p in (2, 3):
            res = gc.free_resolution(g, p, 3)
            for m in (regular_module(g, p), gc.coset_module(g, [0], p),
                      gc.coset_module(g, all_subgroups(g)[3], p)):
                for i in range(3):
                    assert np.array_equal(
                        gc._hom_coboundary(gc._coefficients(res, i), m),
                        _reference_coboundary(res, m, i))

    @pytest.mark.parametrize("p", [2, 3])
    def test_symonds_modules(self, p):
        # the Symonds modules of the LQ sweep, with d <= 16 and with d > 16
        dims = set()
        for g in (symmetric_group(3), dihedral_group(4), symmetric_group(4),
                  catalog.by_name("Dic3")):
            res = gc.free_resolution(g, p, 3)
            for r in (1, 2):
                m = lq.symonds_module(ElementaryAbelian(p, r), g)
                dims.add(m.dim)
                for i in range(3):
                    assert np.array_equal(
                        gc._hom_coboundary(gc._coefficients(res, i), m),
                        _reference_coboundary(res, m, i)), g.name
        assert min(dims) <= 16 < max(dims)


class TestFreeRowKernels:
    """The builder eliminates only the rows of d_i at the free coordinates
    of ker d_{i-1}; its kernel must be that of the whole differential."""

    @pytest.mark.parametrize("p, groups", [
        (2, None), (3, None), (5, ["D10"])])
    def test_equal_to_the_nullspace_of_the_whole_differential(self, p, groups):
        pool = (catalog.all_groups(24) if groups is None
                else [catalog.by_name(name) for name in groups])
        for g in pool:
            res = gc.FreeResolution(g, p)
            for i in range(6):  # ker d_0 (the augmentation) .. ker d_5
                whole = (res.differentials[-1] if i else
                         np.ones((1, g.order), dtype=res.dtype))
                ref = linalg.nullspace(whole, p).transpose()
                mine = res.kernel()
                assert (mine.shape, mine.dtype) == (ref.shape, ref.dtype), (g.name, i)
                assert mine.tobytes() == ref.tobytes(), (g.name, i)
                res.extend_to(i + 1)


class TestCoboundaryRowBlocks:
    """The coboundary ranks built a block of rows at a time."""

    @staticmethod
    def _modules(g, p):
        subs = all_subgroups(g)
        return [gc.trivial_module(g, p), gc.coset_module(g, subs[len(subs) // 2], p),
                lq.symonds_module(ElementaryAbelian(p, 1), g)]

    @pytest.mark.parametrize("p, groups", [
        (2, None), (3, None), (5, ["D10"])])
    def test_one_block_row_at_a_time(self, p, groups, monkeypatch):
        # every block is one block row, so every multi-row coboundary is
        # ranked from several blocks in one echelon form
        k_max = 2
        pool = (catalog.all_groups(24) if groups is None
                else [catalog.by_name(name) for name in groups])
        whole = {g.name: [gc.cohomology(g, m, k_max) for m in self._modules(g, p)]
                 for g in pool}
        cache.clear()  # so the one-point modules are ranked again below
        monkeypatch.setattr(gc, "_BLOCK_CELLS", 1)
        for g in pool:
            res = gc.free_resolution(g, p, k_max + 1)
            for m, dims in zip(self._modules(g, p), whole[g.name]):
                assert gc.cohomology(g, m, k_max) == dims, g.name
                for i in range(k_max + 1):
                    ref = linalg._rank_fp(_reference_coboundary(res, m, i), p)
                    assert gc._coboundary_rank(res, m, i) == ref, (g.name, m.dim, i)


    def test_coefficients_read_once_per_coboundary(self, monkeypatch):
        g = symmetric_group(4)
        res = gc.free_resolution(g, 2, 3)
        m = lq.symonds_module(ElementaryAbelian(2, 1), g)
        reads = []
        coefficients = gc._coefficients
        monkeypatch.setattr(gc, "_coefficients",
                            lambda res, i: reads.append(i) or coefficients(res, i))
        monkeypatch.setattr(gc, "_BLOCK_CELLS", 1)
        for i in range(3):
            gc._coboundary_rank(res, m, i)
        # several blocks per coboundary, one read of d_{i+1} each
        assert min(res.betti[1:4]) > 1 and reads == [0, 1, 2]


class TestResolutionMemory:
    def test_largest_lq_sweep_check_stays_small(self):
        # C2xC2xS3 at p = 2 is ranked on G/C3 (Betti numbers 1, 3, 6, 10,
        # 15), and the check peaks near 0.2 MB; with a resolution of G lifted
        # from G/C3 it peaked near 1.2 MB, with the greedy one of G near 1.9 MB
        g = catalog.by_name("C2xC2xS3")
        cache.clear()
        tracemalloc.start()
        try:
            lq.lq_check(ElementaryAbelian(2, 2), g, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_cached_differentials_are_uint8(self):
        g = catalog.by_name("C2xC2xS3")
        for p in (2, 3):
            lq.lq_check(ElementaryAbelian(p, 1), g, 3)
        resolutions = list(cache._ENTRIES["groupcoh.resolutions"].values())
        assert {res.p for res in resolutions} == {2, 3}
        for res in resolutions:
            for d in res.differentials:
                assert d.dtype == np.uint8 and (d < res.p).all()


# ---------------------------------------------------------------------------
# cohomology read on G/O_p'(G)


def _scanned_core(g, p):
    """The largest normal subgroup of order prime to p, from the lattice."""
    return max((s for s in all_subgroups(g) if len(s) % p
                and len(normalizer(g, s)) == g.order), key=len)


class TestLiftedResolution:
    """Cohomology over G reduced to G/O_p'(G), which replaced the
    resolutions lifted from that quotient, against the greedy resolution
    of G itself."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_core_is_the_largest_normal_p_prime_subgroup(self, p):
        for g in catalog.all_groups():
            assert gc._p_prime_core(g, p) == _scanned_core(g, p), g.name

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_dims_equal_the_greedy_builders(self, p):
        # the trivial, a coset and the r = 1 Symonds module, reduced and
        # ranked on G/O_p'(G), against the same module ranked on G; at
        # p = 5 the greedy builder of G runs the numpy path
        reduced = 0
        for g in catalog.all_groups():
            greedy = gc.FreeResolution(g, p)
            greedy.extend_to(5)
            subs = all_subgroups(g)
            for m in (gc.trivial_module(g, p),
                      gc.coset_module(g, subs[len(subs) // 2], p),
                      lq.symonds_module(ElementaryAbelian(p, 1), g)):
                assert gc.cohomology(g, m, 4) == gc._dims(greedy, m, 4), (g.name, m.dim)
            reduced += gc._p_prime_quotient(g, p) is not None
        assert reduced == sum(len(_scanned_core(g, p)) > 1
                              for g in catalog.all_groups())

    def test_quotient_resolution_shares_the_region(self):
        # C2xC2xS3 at p = 2 is ranked on G/C3 = C2xC2xC2, whose resolution
        # is the only one built, in the region of every other group's
        g = catalog.by_name("C2xC2xS3")
        gc.cohomology(g, gc.coset_module(g, [0], 2), 4)
        (res,) = cache._ENTRIES["groupcoh.resolutions"].values()
        assert res.group.order == 8 and res.betti == [1, 3, 6, 10, 15, 21]
        assert cache.stats()["groupcoh.p_prime_quotients"]["entries"] == 1

    @pytest.mark.parametrize("core", [
        [0, 1],     # a subgroup of order 2: not normal in S3
        [0, 2, 5],  # A3: normal, but its order is 3
        [0, 2],     # order 2, but not closed: 2 has order 3
    ])
    def test_a_wrong_core_is_an_invariant_error(self, core, monkeypatch, tmp_path):
        s3 = symmetric_group(3)
        subgroup = frozenset(core)
        if subgroup in all_subgroups(s3):
            assert (len(normalizer(s3, subgroup)) == 6) == (len(subgroup) == 3)
        else:
            assert len(s3.closure(subgroup)) == 3  # [0, 2] generates A3
        monkeypatch.setattr(gc, "_p_prime_core", lambda g, p: subgroup)
        with pytest.raises(InvariantError, match="normal p'-subgroup"):
            gc.cohomology(s3, gc.trivial_module(s3, 3), 2)
        (tmp_path / "s3.json").write_text('{"catalog": "S3"}')
        monkeypatch.chdir(tmp_path)
        assert cli.main(["cohomology", "--group", "s3.json", "--p", "3"]) == 3
