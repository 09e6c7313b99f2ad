"""Tests for the Lannes-Quillen engine (small instances; the full
order-<=24 sweep lives in the acceptance suite)."""

import dataclasses
import random

import numpy as np
import pytest

from proflq import cache, catalog, cli, groupcoh as gc, lq, repv
from proflq.errors import BudgetError, InvariantError
from proflq.groups import (
    all_subgroups,
    cyclic_group,
    dihedral_group,
    symmetric_group,
    trivial_group,
)
from proflq.repv import ElementaryAbelian

from .reference import conj, constant_group_tower, symonds_action, whole_module_lhs


V2 = ElementaryAbelian(2, 1)
V3 = ElementaryAbelian(3, 1)


class TestSymondsModule:
    def test_s3_dimension(self):
        m = lq.symonds_module(V2, symmetric_group(3))
        assert m.dim == 4

    def test_rank_zero_trivial(self):
        m = lq.symonds_module(ElementaryAbelian(2, 0), symmetric_group(3))
        assert m.dim == 1

    def test_abelian_trivial_action(self):
        m = lq.symonds_module(V2, cyclic_group(4))
        assert m.dim == 2 and m.p == 2
        assert m.action.tolist() == [[0, 1]] * 4

    def test_prime_is_the_prime_of_v(self):
        assert lq.symonds_module(V3, symmetric_group(3)).p == 3

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_action_against_the_per_tuple_reference(self, p, r):
        # the coded gather and searchsorted of repv against a dict lookup
        # of every conjugate tuple, for every catalog group
        v = ElementaryAbelian(p, r)
        for g in catalog.all_groups():
            expected = np.array(symonds_action(v, g))
            action = repv.conjugation_action(v, g)
            assert np.array_equal(action, expected), g.name
            # the module holds the array repv keeps, not a copy of it
            assert lq.symonds_module(v, g).action is action

    def test_action_past_the_int64_codes(self):
        # 24^14 > 2^64: base-24 codes of 14-tuples would wrap in int64 (and
        # two tuples could share one), so the tuples are ranked instead
        v, g, budget = ElementaryAbelian(2, 14), cyclic_group(24), 10 ** 20
        action = repv.conjugation_action(v, g, budget)
        assert action.shape == (24, 2 ** 14)
        assert np.array_equal(action, np.array(symonds_action(v, g, budget)))


class TestTvBothRoutes:
    def test_s3_spec_example(self):
        rep = lq.lq_check(V2, symmetric_group(3), 3)
        assert rep["lhs"] == rep["rhs_total"] == (2, 2, 2, 2)
        assert rep["rhs"] == [(1, 1, 1, 1), (1, 1, 1, 1)]

    def test_z2(self):
        assert lq.lq_check(V2, cyclic_group(2), 3)["lhs"] == (2, 2, 2, 2)

    def test_z3_mod2(self):
        assert lq.lq_check(V2, cyclic_group(3), 3)["lhs"] == (1, 0, 0, 0)

    def test_trivial_group(self):
        assert lq.lq_check(V2, trivial_group(), 3)["lhs"] == (1, 0, 0, 0)

    def test_q8_doubled(self):
        q8 = catalog.quaternion_group()
        trivial = gc.cohomology(q8, gc.trivial_module(q8, 2), 3)
        cache.clear()  # the fibers are one-point modules too: compute them afresh
        rep = lq.lq_check(V2, q8, 3)
        assert rep["rhs"] == [trivial, trivial]
        assert rep["rhs_total"] == tuple(2 * d for d in trivial)


class TestWholeModuleOracle:
    def test_tv_lhs_equals_the_whole_module_on_the_sweep(self):
        # the instances of criterion 6: catalog, p in {2, 3}, r in {1, 2}
        cases = [(g, ElementaryAbelian(p, r)) for g in catalog.all_groups()
                 for p in (2, 3) for r in (1, 2)]
        assert len(cases) == 296
        for g, v in cases:
            budget = gc.DEFAULT_DIM_BUDGET
            if (g.name, v.p, v.r) == ("C2xC2xC2xC2", 2, 2):
                # the 256-dim whole module needs 35 * 256 = 8960 cochains;
                # G is abelian, so each orbit block is one point
                with pytest.raises(BudgetError):
                    whole_module_lhs(v, g, 3)
                budget = 10**4
            assert lq.lq_check(v, g, 3, budget)["lhs"] \
                == whole_module_lhs(v, g, 3, budget), (g.name, v)


class TestLqCheck:
    def test_spec_examples(self):
        assert lq.lq_check(V2, symmetric_group(3), 3)["lhs"] == (2, 2, 2, 2)
        assert lq.lq_check(V2, cyclic_group(3), 3)["lhs"] == (1, 0, 0, 0)
        assert lq.lq_check(V3, trivial_group(), 2)["lhs"] == (1, 0, 0)

    def test_report_shape(self):
        rep = lq.lq_check(V2, dihedral_group(4), 2)
        assert rep["rhs_total"] == tuple(sum(f[k] for f in rep["rhs"])
                                         for k in range(3))
        assert all(rep["verdict"])
        assert len(rep["classes"]) == len(rep["rhs"])

    def test_rank_two(self):
        rep = lq.lq_check(ElementaryAbelian(2, 2), dihedral_group(4), 2)
        assert all(rep["verdict"])

    def test_mismatch_dumps_the_blocks_it_summed(self, monkeypatch):
        g = symmetric_group(4)
        classes, _ = repv.rep_classes(V2, g)
        blocks = [gc.cohomology(g, gc.coset_module(g, c.centralizer, 2), 2)
                  for c in classes]
        lq.lq_check(V2, g, 2)
        real = gc.shapiro_check

        def shifted(*args):  # every rhs fiber one too large in each degree
            sides = real(*args)
            return dict(sides, rhs=tuple(d + 1 for d in sides["rhs"]))

        monkeypatch.setattr(gc, "shapiro_check", shifted)
        hits = cache.stats()["groupcoh.shapiro"]["hits"]
        with pytest.raises(InvariantError, match="lq mismatch") as err:
            lq.lq_check(V2, g, 2)
        # the sides of each class are looked up once, and the dump reports
        # the blocks that were summed
        assert cache.stats()["groupcoh.shapiro"]["hits"] == hits + len(classes)
        dump = err.value.dump
        assert dump["orbit_lhs"] == blocks
        assert dump["report"]["lhs"] == tuple(map(sum, zip(*blocks)))
        assert dump["centralizers"] == [c.centralizer for c in classes]

    def test_random_sample_of_sweep(self):
        rng = random.Random(2)
        pool = catalog.all_groups()
        for _ in range(10):
            g = rng.choice(pool)
            p = rng.choice([2, 3])
            r = rng.choice([1, 2])
            assert all(lq.lq_check(ElementaryAbelian(p, r), g, 2)["verdict"])


class TestDegree0:
    def test_examples(self):
        assert lq.degree0(V2, symmetric_group(3)) == 2
        assert lq.degree0(V2, cyclic_group(2)) == 2
        assert lq.degree0(ElementaryAbelian(2, 0), symmetric_group(3)) == 1

    def test_equals_rep_count(self):
        rng = random.Random(9)
        for _ in range(8):
            g = rng.choice(catalog.all_groups(16))
            p, r = rng.choice([(2, 1), (3, 1), (2, 2)])
            v = ElementaryAbelian(p, r)
            classes, _ = repv.rep_classes(v, g)
            assert lq.degree0(v, g) == len(classes)


class TestStrataSplit:
    def test_s3(self):
        rep = lq.strata_split(V2, symmetric_group(3), 3)
        assert rep["stratum_dims"] == [(1, 1, 1, 1), (1, 1, 1, 1)]
        assert rep["stratum0_is_group_cohomology"]
        assert rep["totals_match_lhs"]

    def test_q8(self):
        rep = lq.strata_split(V2, catalog.quaternion_group(), 3)
        assert rep["stratum_dims"][0] == rep["stratum_dims"][1]

    def test_rank_zero(self):
        rep = lq.strata_split(ElementaryAbelian(2, 0), dihedral_group(4), 2)
        assert rep["strata_sizes"] == [1]
        assert rep["stratum0_is_group_cohomology"]

    def test_verdicts_catch_a_wrong_rank_split(self, monkeypatch):
        # each verdict compares two sums of the same orbit blocks, so the
        # verdicts are what check the classes `repv.rank_strata` returns
        v, g = ElementaryAbelian(2, 2), symmetric_group(4)
        real = repv.rank_strata
        rep = lq.strata_split(v, g, 3)
        assert rep["strata_sizes"] == [1, 6, 4]
        assert rep["stratum0_is_group_cohomology"] and rep["totals_match_lhs"]

        def dropped(classes):  # one rank-1 class in no stratum
            strata = real(classes)
            return [strata[0], strata[1][1:], *strata[2:]]

        monkeypatch.setattr(repv, "rank_strata", dropped)
        rep = lq.strata_split(v, g, 3)
        assert rep["stratum0_is_group_cohomology"]
        assert not rep["totals_match_lhs"]

        def promoted(classes):  # one rank-1 class beside the trivial one
            strata = real(classes)
            return [strata[0] + strata[1][:1], strata[1][1:], *strata[2:]]

        monkeypatch.setattr(repv, "rank_strata", promoted)
        rep = lq.strata_split(v, g, 3)
        assert not rep["stratum0_is_group_cohomology"]
        assert rep["totals_match_lhs"]


class TestProfiniteLq:
    def test_2adic_tower(self):
        rep = lq.profinite_lq(V2, gc.cyclic_p_tower(2, 3), 3)
        for level in rep["levels"]:
            assert all(level["verdict"])
            assert len(level["classes"]) == 2
            assert level["lhs"] == (2, 2, 2, 2)
        assert rep["nontrivial_limit_classes"] == []
        assert rep["persistent_threads"] == [(0, 0, 0)]

    def test_constant_tower(self):
        s3 = symmetric_group(3)
        rep = lq.profinite_lq(V2, constant_group_tower(s3, 2), 2)
        assert rep["levels"][0]["lhs"] == rep["levels"][1]["lhs"]
        assert len(rep["nontrivial_limit_classes"]) == 1

    def test_trivial_tower(self):
        rep = lq.profinite_lq(V2,
                              constant_group_tower(trivial_group(), 3), 2)
        assert all(level["lhs"] == (1, 0, 0) for level in rep["levels"])


class TestMechanism:
    def test_tuple_stabilizer_is_centralizer(self):
        # Stab_G(rho) = C_G(rho(V)): fixing each generator fixes the image
        for g in (symmetric_group(4), catalog.by_name("SL(2,3)")):
            classes, _ = repv.rep_classes(V2, g)
            for c in classes:
                stab = [x for x in g.elements()
                        if all(conj(g, x, y) == y for y in c.representative)]
                assert sorted(stab) == sorted(c.centralizer)

    def test_orbitwise_shapiro_dims(self):
        # each orbit block of the lhs equals the centralizer cohomology
        g = symmetric_group(4)
        classes, _ = repv.rep_classes(V2, g)
        blocks = [gc.cohomology(g, gc.coset_module(g, c.centralizer, 2), 2)
                  for c in classes]
        cache.clear()  # F_2[G/G] and C_G(1) = G would share a one-point entry
        assert lq.lq_check(V2, g, 2)["rhs"] == blocks

    def test_codes_in_the_wrong_radix_order_are_refused(self, monkeypatch):
        # with the last entry the most significant digit, the codes of the
        # lex-ordered homs are not sorted, so searchsorted finds other homs
        def reversed_codes(rows, tuples):
            codes = np.zeros((len(rows), len(tuples)), dtype=np.int64)
            for column in tuples.T[::-1]:
                codes = codes * rows.shape[1] + rows[:, column]
            return codes

        monkeypatch.setattr(repv, "_codes", reversed_codes)
        with pytest.raises(InvariantError, match="is not in hom"):
            repv.rep_classes(ElementaryAbelian(2, 2), symmetric_group(4))
        with pytest.raises(InvariantError, match="is not in hom"):
            lq.lq_check(ElementaryAbelian(2, 2), symmetric_group(3), 2)

    def test_an_action_by_inverse_conjugation_is_refused(self):
        # rho -> g⁻¹·rho·g is a right action; S3 acts faithfully on its
        # transpositions and is not abelian, so it is not a left action
        g = symmetric_group(3)
        for v in (V2, ElementaryAbelian(2, 2)):
            action = repv.conjugation_action(v, g)
            gc.permutation_module(g, action, v.p)
            inverse = action[[g.inv(x) for x in range(g.order)]]
            with pytest.raises(ValueError, match="not associative"):
                gc.permutation_module(g, inverse, v.p)

    def test_orbit_stabilizer_checks_the_class_centralizer(self, monkeypatch):
        # the blocks use c.centralizer, so a wrong one must not pass; it is
        # refused where the classes are made, before `shapiro_check`, whose
        # cosets would raise ValueError
        real = repv._orbits

        def shortened(v, group, homs, action):
            classes, orbit_map = real(v, group, homs, action)
            return tuple(dataclasses.replace(c, centralizer=c.centralizer[:-1])
                         for c in classes), orbit_map

        monkeypatch.setattr(repv, "_orbits", shortened)
        with pytest.raises(InvariantError, match="orbit-stabilizer"):
            lq.lq_check(V2, symmetric_group(4), 2)

    def test_a_centralizer_of_the_same_order_is_refused(self, monkeypatch):
        # another subgroup of the centralizer's order passes orbit-stabilizer
        # and Shapiro, so only the fixed-point check can see it
        real = repv._orbits

        def swapped(v, group, homs, action):
            classes, orbit_map = real(v, group, homs, action)
            subgroups = all_subgroups(group)
            return tuple(dataclasses.replace(c, centralizer=tuple(sorted(next(
                (s for s in subgroups if len(s) == len(c.centralizer)
                 and s != frozenset(c.centralizer)), c.centralizer))))
                for c in classes), orbit_map

        monkeypatch.setattr(repv, "_orbits", swapped)
        with pytest.raises(InvariantError, match="centralizer of .* moves it"):
            lq.lq_check(V2, symmetric_group(4), 2)
        cache.clear()
        assert cli.main(["selftest", "--criterion", "6"]) == 3
