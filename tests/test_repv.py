"""Tests for Rep(V, G) enumeration, strata, Weyl images and rep towers."""

import pytest

from proflq import catalog, groupcoh as gc, repv
from proflq.groups import (
    GroupHom,
    all_subgroups,
    alternating_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    subgroup_group,
    symmetric_group,
)
from proflq.repv import (
    ElementaryAbelian,
    echelon_basis,
    hom_enumerate,
    rank_strata,
    rep_classes,
    rep_tower,
    weyl_image,
)

from . import reference
from .reference import constant_group_tower

V3 = ElementaryAbelian(3, 1)


class TestElementaryAbelian:
    def test_valid(self):
        v = ElementaryAbelian(3, 2)
        assert v.order == 9

    def test_rank_zero(self):
        assert ElementaryAbelian(2, 0).order == 1

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            ElementaryAbelian(4, 1)
        with pytest.raises(ValueError):
            ElementaryAbelian(2, -1)


class TestHomEnumerate:
    def test_s3_rank1(self):
        homs = hom_enumerate(ElementaryAbelian(2, 1), symmetric_group(3))
        assert len(homs) == 4  # trivial + three transpositions

    def test_rank_zero_single(self):
        assert hom_enumerate(ElementaryAbelian(2, 0), symmetric_group(3)) == [()]

    def test_q8_unique_involution(self):
        homs = hom_enumerate(ElementaryAbelian(2, 1), catalog.quaternion_group())
        assert len(homs) == 2

    def test_lexicographic_and_contains_trivial(self):
        homs = hom_enumerate(ElementaryAbelian(2, 2), dihedral_group(4))
        assert homs == sorted(homs)
        assert homs[0] == (0, 0)

    def test_commuting_constraint(self):
        g = symmetric_group(3)
        homs = hom_enumerate(ElementaryAbelian(2, 2), g)
        for h in homs:
            assert g.mul(h[0], h[1]) == g.mul(h[1], h[0])
        # pairs of commuting involutions in S_3 need a common axis
        assert len(homs) == 1 + 3 + 3 + 3  # (e,e), (e,t), (t,e), (t,t)

    def test_abelian_count(self):
        # hom((Z/2)^2, (Z/2)^2) = 16
        k4 = direct_product(cyclic_group(2), cyclic_group(2))
        assert len(hom_enumerate(ElementaryAbelian(2, 2), k4)) == 16

    def test_budget(self):
        with pytest.raises(repv.BudgetError):
            hom_enumerate(ElementaryAbelian(2, 2), symmetric_group(4), budget=10)
        with pytest.raises(repv.BudgetError):
            repv.conjugation_action(ElementaryAbelian(2, 2), symmetric_group(4),
                                    budget=10)

    def test_the_stored_action_is_read_only(self):
        # every caller shares the array in the memo entry
        v, g = ElementaryAbelian(2, 2), symmetric_group(4)
        action = repv.conjugation_action(v, g)
        assert action.shape == (g.order, len(hom_enumerate(v, g)))
        with pytest.raises(ValueError, match="read-only"):
            action[0, 0] = 1
        assert repv.conjugation_action(v, g) is action


class TestRepClasses:
    def test_s3(self):
        classes, orbit_map = rep_classes(ElementaryAbelian(2, 1), symmetric_group(3))
        assert len(classes) == 2
        assert classes[0].representative == (0,)
        assert {c.orbit_size for c in classes} == {1, 3}

    def test_orbit_map_consistent(self):
        v = ElementaryAbelian(2, 1)
        g = dihedral_group(4)
        classes, orbit_map = rep_classes(v, g)
        homs = hom_enumerate(v, g)
        for i, h in enumerate(homs):
            assert h in classes[orbit_map[i]].orbit

    def test_orbit_counting(self):
        for g in catalog.all_groups(12):
            for p, r in ((2, 1), (3, 1), (2, 2)):
                v = ElementaryAbelian(p, r)
                classes, _ = rep_classes(v, g)
                assert sum(c.orbit_size for c in classes) == \
                    len(hom_enumerate(v, g))

    def test_abelian_all_singletons(self):
        v = ElementaryAbelian(2, 1)
        g = cyclic_group(8)
        classes, _ = rep_classes(v, g)
        assert all(c.orbit_size == 1 for c in classes)
        assert len(classes) == 2

    def test_representative_is_lex_smallest(self):
        classes, _ = rep_classes(ElementaryAbelian(2, 1), symmetric_group(4))
        for c in classes:
            assert c.representative == min(c.orbit)

    def test_centralizer_times_orbit(self):
        # stabilizer of the tuple = centralizer of the image (pointwise)
        for g in (symmetric_group(4), dihedral_group(6)):
            classes, _ = rep_classes(ElementaryAbelian(2, 1), g)
            for c in classes:
                assert len(c.centralizer) * c.orbit_size == g.order

    def test_a4_3cycles(self):
        classes, _ = rep_classes(ElementaryAbelian(3, 1), alternating_group(4))
        nontrivial = [c for c in classes if c.image_rank == 1]
        assert len(nontrivial) == 2  # the two A_4-classes of order-3 subgroup gens
        assert all(c.orbit_size == 4 for c in nontrivial)


class TestStrata:
    def test_s3(self):
        classes, _ = rep_classes(ElementaryAbelian(2, 1), symmetric_group(3))
        assert [len(s) for s in rank_strata(classes)] == [1, 1]

    def test_stratum0_singleton(self):
        for g in catalog.all_groups(16):
            for p, r in ((2, 1), (2, 2), (3, 1)):
                classes, _ = rep_classes(ElementaryAbelian(p, r), g)
                strata = rank_strata(classes)
                assert strata[0] == [0]
                assert sum(len(s) for s in strata) == len(classes)

    def test_d4_rank2(self):
        classes, _ = rep_classes(ElementaryAbelian(2, 2), dihedral_group(4))
        strata = rank_strata(classes)
        assert len(strata) == 3
        assert sum(len(s) for s in strata) == len(classes)


class TestWeylImage:
    def test_trivial_hom(self):
        assert weyl_image(symmetric_group(3), (0,), 2) == {(): 0}

    def test_a4_versus_s4(self):
        a4, s4 = alternating_group(4), symmetric_group(4)
        rho_a4 = next(c.representative for c in
                      rep_classes(ElementaryAbelian(3, 1), a4)[0]
                      if c.image_rank == 1)
        rho_s4 = next(c.representative for c in
                      rep_classes(ElementaryAbelian(3, 1), s4)[0]
                      if c.image_rank == 1)
        assert len(weyl_image(a4, rho_a4, 3)) == 1      # trivial
        assert len(weyl_image(s4, rho_s4, 3)) == 2      # full Aut(Z/3)

    def test_weyl_is_group(self):
        import numpy as np
        g = symmetric_group(4)
        classes, _ = rep_classes(ElementaryAbelian(2, 2), g)
        for c in classes:
            if c.image_rank == 0:
                continue
            mats = {tuple(m) for m in c.weyl}
            i = c.image_rank
            # closure under product (columns are images of basis vectors)
            for a in mats:
                for b in mats:
                    am = np.array(a).transpose()
                    bm = np.array(b).transpose()
                    prod = (am @ bm) % 2
                    assert tuple(map(tuple, prod.transpose())) in mats

    def test_orbit_formula_injective(self):
        # |Aut(V) . rho| * |eta(N)| = |Aut(V)| for injective rho
        for g in catalog.all_groups(16):
            for p, r in ((2, 1), (3, 1), (2, 2)):
                v = ElementaryAbelian(p, r)
                classes, orbit_map = rep_classes(v, g)
                homs = hom_enumerate(v, g)
                pos = {h: i for i, h in enumerate(homs)}
                aut = _aut_matrices(p, r)
                for ci, c in enumerate(classes):
                    if c.image_rank != r:
                        continue
                    orbit_classes = set()
                    for m in aut:
                        image = _apply_aut(g, c.representative, m, p)
                        orbit_classes.add(orbit_map[pos[image]])
                    assert len(orbit_classes) * len(c.weyl) == len(aut)


def test_weyl_images_are_computed_on_first_read(monkeypatch):
    # the classes are made without a Weyl matrix; each class reads its own
    # from the cosets of its centralizer when `weyl` is first read, once
    real = repv._realizers
    calls = []

    def counting(group, basis, p, elements):
        calls.append((basis, tuple(elements)))
        return real(group, basis, p, elements)

    monkeypatch.setattr(repv, "_realizers", counting)
    g = symmetric_group(4)
    classes, _ = rep_classes(ElementaryAbelian(2, 2), g)
    assert calls == []
    for c in classes:
        w = c.weyl
        assert c.weyl is w and calls[-1][0] == tuple(echelon_basis(g, c.representative))
        # one element per coset of the centralizer
        assert len(calls[-1][1]) * len(c.centralizer) == g.order
    assert len(calls) == len(classes)
    assert rep_classes(ElementaryAbelian(2, 2), g)[0][0].weyl is classes[0].weyl
    assert len(calls) == len(classes)


class TestAgainstTheScans:
    """The one conjugation pass against the scans it replaced: the centralizer
    against `reference.centralizer`, and the Weyl image against
    `reference.weyl_image`, which keeps for each matrix the least element of
    the scanned normalizer giving it, so equal dicts mean equal matrices and
    least realizers."""

    def test_every_catalog_class(self):
        for g in catalog.all_groups():
            for p in (2, 3):
                for r in (1, 2):
                    for c in rep_classes(ElementaryAbelian(p, r), g)[0]:
                        rep = c.representative
                        realizers = weyl_image(g, rep, p)
                        assert realizers == reference.weyl_image(g, rep, p), \
                            (g.name, p, rep)
                        assert c.centralizer == tuple(reference.centralizer(g, rep))
                        assert c.weyl == tuple(sorted(realizers))
                        assert c.image_rank == len(echelon_basis(g, rep))

    def test_a4_classes_pushed_into_s4(self):
        # the tuples `sep.fullness_check` reads in S4, some of them not
        # the representatives of their S4 classes
        s4 = symmetric_group(4)
        a4 = next(s for s in all_subgroups(s4) if len(s) == 12)
        small, emb = subgroup_group(s4, a4)
        s4_reps = {c.representative for c in rep_classes(V3, s4)[0]}
        pushed = [tuple(emb[x] for x in c.representative)
                  for c in rep_classes(V3, small)[0]]
        assert set(pushed) - s4_reps
        for hom in pushed:
            assert weyl_image(s4, hom, 3) == reference.weyl_image(s4, hom, 3), hom

    def test_class_map_along_every_catalog_inclusion(self):
        # the class of f∘rho is the one whose representative lies in the
        # orbit of f∘rho, conjugated by every element of L
        for l in catalog.all_groups():
            for s in all_subgroups(l):
                h, emb = subgroup_group(l, s)
                f = GroupHom(h, l, emb)
                for p in (2, 3):
                    v = ElementaryAbelian(p, 1)
                    targets = [c.representative for c in rep_classes(v, l)[0]]
                    expected = []
                    for c in rep_classes(v, h)[0]:
                        image = [f(x) for x in c.representative]
                        orbit = {tuple(reference.conj(l, g, x) for x in image)
                                 for g in range(l.order)}
                        expected.append(next(j for j, t in enumerate(targets)
                                             if t in orbit))
                    assert repv.class_map(v, f) == expected, (l.name, sorted(s), p)


def _aut_matrices(p, r):
    """All invertible r x r matrices over F_p."""
    import itertools

    import numpy as np

    from proflq import linalg
    mats = []
    for entries in itertools.product(range(p), repeat=r * r):
        m = np.array(entries, dtype=np.int64).reshape(r, r)
        if linalg.rank(m, p) == r:
            mats.append(m)
    return mats


def _apply_aut(group, hom, mat, p):
    """Precompose a homomorphism tuple with an automorphism of V."""
    out = []
    for j in range(len(hom)):
        x = 0
        for i in range(len(hom)):
            x = group.mul(x, group.power(hom[i], int(mat[i, j])))
        out.append(x)
    return tuple(out)


class TestRepTower:
    def test_cyclic_2adic(self):
        t = gc.cyclic_p_tower(2, 3)
        rt = rep_tower(ElementaryAbelian(2, 1), t)
        assert [len(l) for l in rt["levels"]] == [2, 2, 2]
        assert rt["persistent_threads"] == [(0, 0, 0)]

    def test_cyclic_3adic(self):
        t = gc.cyclic_p_tower(3, 3)
        rt = rep_tower(ElementaryAbelian(3, 1), t)
        assert [len(l) for l in rt["levels"]] == [3, 3, 3]
        assert rt["persistent_threads"] == [(0, 0, 0)]

    def test_constant_tower(self):
        g = symmetric_group(3)
        t = constant_group_tower(g, 3)
        rt = rep_tower(ElementaryAbelian(2, 1), t)
        assert len(rt["threads"]) == 2
        assert all(th["persistent"] for th in rt["threads"])

    def test_class_maps_compose(self):
        # maps commute with transition composition on a 3-level tower
        t = gc.cyclic_p_tower(2, 3)
        rt = rep_tower(ElementaryAbelian(2, 1), t)
        m10, m21 = rt["class_maps"]
        composed = [m10[m21[i]] for i in range(len(rt["levels"][2]))]
        q = GroupHom(t.levels[2], t.levels[0],
                     [t.transitions[0](t.transitions[1](x))
                      for x in range(t.levels[2].order)])
        assert composed == repv.class_map(ElementaryAbelian(2, 1), q)

    def test_s3_times_c2_tower(self):
        s3 = symmetric_group(3)
        big = direct_product(s3, cyclic_group(2))
        proj = GroupHom(big, s3, [x // 2 for x in range(12)])
        t = gc.GroupTower([s3, big], [proj])
        rt = rep_tower(ElementaryAbelian(2, 1), t)
        # threads are in bijection with top-level classes
        assert len(rt["threads"]) == len(rt["levels"][1])


class TestEchelonBasis:
    def test_basis_size(self):
        g = dihedral_group(4)
        classes, _ = rep_classes(ElementaryAbelian(2, 2), g)
        for c in classes:
            basis = echelon_basis(g, c.representative)
            assert len(basis) == c.image_rank

    def test_redundant_entries_skipped(self):
        g = cyclic_group(2)
        assert echelon_basis(g, (1, 1)) == [1]
        classes, _ = rep_classes(ElementaryAbelian(2, 2), g)
        assert classes[-1].representative == (1, 1)
        assert classes[-1].image_rank == 1
