"""Tests for the separability checks of `sep`."""

import hashlib
import json
import random

import pytest

from proflq import catalog, groupcoh as gc, repv, sep
from proflq.errors import InvariantError
from proflq.groups import (
    GroupHom,
    all_subgroups,
    cyclic_group,
    dihedral_group,
    direct_product,
    identity_hom,
    p_subgroups_up_to_conjugacy,
    quotient_group,
    subgroup_classes,
    subgroup_group,
    symmetric_group,
)
from proflq.repv import ElementaryAbelian

from . import reference
from .reference import conj, constant_group_tower, normalizer, trivial_hom

V2 = ElementaryAbelian(2, 1)
V3 = ElementaryAbelian(3, 1)


def embed_subgroup(big, elements, name=None):
    small, emb = subgroup_group(big, elements, name=name)
    return small, GroupHom(small, big, emb)


def a4_in_s4():
    s4 = symmetric_group(4)
    a4_elems = next(s for s in all_subgroups(s4) if len(s) == 12)
    a4, f = embed_subgroup(s4, a4_elems, name="A4")
    return a4, s4, f


def s3_in_s4():
    s4 = symmetric_group(4)
    s3_elems = next(s for s in all_subgroups(s4) if len(s) == 6)
    s3, f = embed_subgroup(s4, s3_elems, name="S3")
    return s3, s4, f


def zero_conjugators(monkeypatch):
    """Make `sep` read class tables whose stored conjugators are all 0."""
    table = sep.subgroup_classes

    def zeroed(g):
        classes = table(g)
        return classes._replace(conjugators=dict.fromkeys(classes.conjugators, 0))

    monkeypatch.setattr(sep, "subgroup_classes", zeroed)


class TestFvMap:
    def test_s3_into_s4_injective_not_surjective(self):
        _, _, f = s3_in_s4()
        rep = sep.fv_map(V2, f)
        assert rep["injective"]
        assert not rep["surjective"]
        assert rep["missed_classes"]  # the double-transposition class

    def test_identity_bijective(self):
        g = dihedral_group(4)
        rep = sep.fv_map(V2, identity_hom(g))
        assert rep["injective"] and rep["surjective"]
        assert rep["mapping"] == list(range(len(rep["mapping"])))

    def test_trivial_map_collapses(self):
        g = symmetric_group(3)
        rep = sep.fv_map(V2, trivial_hom(g))
        assert rep["surjective"]
        assert not rep["injective"]  # |Rep(V, S_3)| = 2 > 1
        assert rep["collisions"] == [(0, 1)]

    def test_injective_class_never_hits_trivial(self):
        # injective rho composed with injective f stays injective
        _, _, f = a4_in_s4()
        src_classes, _ = repv.rep_classes(V3, f.source)
        rep = sep.fv_map(V3, f)
        for i, c in enumerate(src_classes):
            if c.image_rank == 1:
                assert rep["mapping"][i] != 0


class TestFullness:
    def test_a4_in_s4_failure_with_transposition_witness(self):
        a4, s4, f = a4_in_s4()
        classes, _ = repv.rep_classes(V3, a4)
        found = False
        for i, c in enumerate(classes):
            if c.image_rank != 1:
                continue
            rep = sep.fullness_check(V3, f, i)
            assert not rep["skipped"]
            assert rep["injective"] and not rep["surjective"]
            assert rep["eta_order"] == 1 and rep["mu_order"] == 2
            w = rep["witness"]
            assert w is not None and w["matrix"] == ((2,),)
            # the witnessing normalizer element is a transposition
            assert s4.element_order(w["realized_by"]) == 2
            assert w["realized_by"] not in set(f.images)
            found = True
        assert found

    def test_a_wrong_stored_conjugator_is_an_invariant_error(self, monkeypatch):
        # fullness reads no class table, so the stored conjugators are
        # checked through sp_functor_check, the only reader of
        # `sep._normalizer`: the embedding of A4 is twisted by conjugation
        # in S4 until the image of its Sylow 3-subgroup is not the first
        # subgroup of its class
        a4, s4, f = a4_in_s4()
        sylow = p_subgroups_up_to_conjugacy(a4, 3)[-1]
        conjugators = subgroup_classes(s4).conjugators
        x = next(x for x in s4.elements()
                 if conjugators[frozenset(conj(s4, x, f(y)) for y in sylow)] != 0)
        twisted = GroupHom(a4, s4, [conj(s4, x, y) for y in f.images])
        zero_conjugators(monkeypatch)
        with pytest.raises(InvariantError, match="stored conjugator"):
            sep.sp_functor_check(twisted, 3)

    def test_identity_always_bijective(self):
        g = dihedral_group(4)
        classes, _ = repv.rep_classes(V2, g)
        for i, c in enumerate(classes):
            rep = sep.fullness_check(V2, identity_hom(g), i)
            if not rep["skipped"]:
                assert rep["bijective"]

    def test_c2_in_s3_trivial_aut(self):
        s3 = symmetric_group(3)
        x = next(a for a in range(6) if s3.element_order(a) == 2)
        c2, f = embed_subgroup(s3, {0, x})
        rep = sep.fullness_check(V2, f, 1)
        assert rep["bijective"]
        assert rep["eta_order"] == rep["mu_order"] == 1

    def test_noninjective_class_skipped(self):
        _, _, f = a4_in_s4()
        rep = sep.fullness_check(V3, f, 0)  # trivial class
        assert rep["skipped"]

    def test_noninjective_f_skipped(self):
        g = cyclic_group(2)
        rep = sep.fullness_check(V2, trivial_hom(g), 1)
        assert rep["skipped"]


class TestSpFunctor:
    def test_identity_on_d4(self):
        rep = sep.sp_functor_check(identity_hom(dihedral_group(4)), 2)
        assert rep["equivalence"]

    def test_a4_in_s4_not_full(self):
        _, _, f = a4_in_s4()
        rep = sep.sp_functor_check(f, 3)
        assert rep["a_conjugacy_reflected"]
        assert not rep["b_full"]
        assert rep["c_dense"]
        assert not rep["equivalence"]

    def test_c2_into_klein_misses_diagonal(self):
        c2 = cyclic_group(2)
        k4 = direct_product(c2, c2)
        f = GroupHom(c2, k4, [0, 2])
        rep = sep.sp_functor_check(f, 2)
        assert not rep["c_dense"]
        assert [0, 3] in rep["c_witnesses"]  # the diagonal subgroup
        assert rep["a_conjugacy_reflected"] and rep["b_full"]

    def test_composition_monotonicity(self):
        # g o f fails density whenever f does and g is injective on images
        c2 = cyclic_group(2)
        k4 = direct_product(c2, c2)
        f = GroupHom(c2, k4, [0, 2])
        big = direct_product(k4, cyclic_group(2))
        g = GroupHom(k4, big, [0, 2, 4, 6])
        composed = GroupHom(c2, big, [g(f(x)) for x in c2.elements()])
        assert not sep.sp_functor_check(f, 2)["c_dense"]
        assert not sep.sp_functor_check(composed, 2)["c_dense"]

    def test_identity_sweep_small(self):
        rng = random.Random(17)
        for g in rng.sample(catalog.all_groups(), 12):
            for p in (2, 3):
                assert sep.sp_functor_check(identity_hom(g), p)["equivalence"]


    def test_an_image_outside_the_class_table_is_an_invariant_error(
            self, monkeypatch):
        _, s4, f = s3_in_s4()
        table = sep.subgroup_classes

        def without_index(g):
            return table(g)._replace(index={}) if g is s4 else table(g)

        monkeypatch.setattr(sep, "subgroup_classes", without_index)
        with pytest.raises(InvariantError, match="must be a subgroup"):
            sep.sp_functor_check(f, 2)


    def test_a_wrong_stored_conjugator_is_an_invariant_error(self, monkeypatch):
        # the last S3 of S4: its order-2 subgroup is not the first of its
        # S4 class, so a conjugator of 0 cannot carry the class
        # representative to it
        s4 = symmetric_group(4)
        s3_elems = [s for s in all_subgroups(s4) if len(s) == 6][-1]
        _, f = embed_subgroup(s4, s3_elems)
        image = next(s for s in all_subgroups(s4) if len(s) == 2 and s <= s3_elems)
        assert subgroup_classes(s4).conjugators[image] != 0
        zero_conjugators(monkeypatch)
        with pytest.raises(InvariantError, match="stored conjugator"):
            sep.sp_functor_check(f, 2)

    def test_transported_normalizers_match_the_scans(self):
        for g in catalog.all_groups():
            for t in all_subgroups(g):
                assert sep._normalizer(g, t) == normalizer(g, t), \
                    (g.name, sorted(t))

    def test_automorphisms_on_generators_match_the_element_form(self):
        # an automorphism recorded by its generator images, against the
        # whole permutation of the sorted subgroup from the scans
        for g in catalog.all_groups():
            classes = subgroup_classes(g)
            for p in (2, 3):
                for s in p_subgroups_up_to_conjugacy(g, p):
                    k = classes.index[s]
                    gens = classes.generators[k]
                    pos = {x: i for i, x in enumerate(sorted(s))}
                    got = sep._aut_perms(g, gens, classes.normalizers[k], sorted(s))
                    full = reference._aut_perms(g, s)
                    assert got == {tuple(perm[pos[x]] for x in gens) for perm in full}, \
                        (g.name, p, sorted(s))
                    assert len(got) == len(full), (g.name, p, sorted(s))


def pinned_homs():
    """(name, f) for the homs whose S_p reports are pinned: the trivial hom
    S4 -> C2, the quotient S4 -> S3 and every subgroup inclusion into S4
    and SL(2,3)."""
    s4 = symmetric_group(4)
    v4 = next(s for s in all_subgroups(s4)
              if len(s) == 4 and normalizer(s4, s) == list(range(24)))
    s3, proj = quotient_group(s4, v4)
    homs = [("S4->C2", trivial_hom(s4, cyclic_group(2))),
            ("S4->S4/V4", GroupHom(s4, s3, proj))]
    for big in (s4, catalog.sl23()):
        homs += [(f"{sorted(s)}<{big.name}", embed_subgroup(big, s)[1])
                 for s in all_subgroups(big)]
    return homs


# SHA-256 of the JSON of every pinned report, as the whole-group scans of
# `reference.sp_functor_check` produce them.
PINNED_REPORTS_SHA256 = ("6d0a53ab998ced01f9a30d2f3deff7ce"
                         "c0efb9971484ee14715b59f6c233ea71")


class TestSpFunctorPinned:
    def test_reports_match_the_scans_and_the_pinned_digest(self):
        reports = []
        for name, f in pinned_homs():
            for p in (2, 3):
                rep = sep.sp_functor_check(f, p)
                assert rep == reference.sp_functor_check(f, p), (name, p)
                reports.append([name, p, rep])
        # every kind of failure is exercised, with its witnesses
        for key in ("a_witnesses", "b_witnesses", "b_skipped", "c_witnesses"):
            assert any(rep[key] for _, _, rep in reports), key
        assert any(rep["equivalence"] for _, _, rep in reports)
        digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode())
        assert digest.hexdigest() == PINNED_REPORTS_SHA256


class TestDistinguished:
    def test_different_orders_level0(self):
        s3 = symmetric_group(3)
        t = constant_group_tower(s3, 2)
        x = next(a for a in range(6) if s3.element_order(a) == 2)
        y = next(a for a in range(6) if s3.element_order(a) == 3)
        rep = sep.conjugacy_distinguished([x, x], [y, y], t)
        assert rep == {"separated": True, "level": 0, "x": x, "y": y}

    def test_conjugate_thread_exhausted(self):
        s3 = symmetric_group(3)
        t = constant_group_tower(s3, 3)
        xs = [a for a in range(6) if s3.element_order(a) == 2]
        rep = sep.conjugacy_distinguished([xs[0]] * 3, [xs[1]] * 3, t)
        assert not rep["separated"]
        assert rep["levels_checked"] == 3

    def test_klein_d4_tower(self):
        # two order-2 threads merge in the abelianization but split in D_4
        d4 = dihedral_group(4)
        k4, proj_list = None, None
        from proflq.groups import quotient_group
        k4, proj = quotient_group(d4, {0, 2})  # D_4 / center
        q = GroupHom(d4, k4, proj)
        t = gc.GroupTower([k4, d4], [q])
        # a reflection and the central rotation: non-conjugate in D_4
        r2 = 2
        refl = next(a for a in range(8) if a >= 4 and d4.element_order(a) == 2)
        assert d4.element_order(r2) == 2
        x_thread = [proj[r2], r2]
        y_thread = [proj[refl], refl]
        rep = sep.conjugacy_distinguished(x_thread, y_thread, t)
        assert rep["separated"] and rep["level"] in (0, 1)

    def test_incompatible_thread_rejected(self):
        t = gc.cyclic_p_tower(2, 2)
        with pytest.raises(ValueError):
            sep.conjugacy_distinguished([1, 2], [0, 0], t)

    def test_subgroup_version(self):
        s4 = symmetric_group(4)
        t = constant_group_tower(s4, 2)
        kleins = [s for s in all_subgroups(s4)
                  if len(s) == 4 and
                  all(s4.element_order(x) <= 2 for x in s)]
        normal = next(s for s in kleins
                      if normalizer(s4, s) == list(range(24)))
        other = next(s for s in kleins if s != normal)
        rep = sep.conjugacy_distinguished(
            [normal, normal], [other, other], t)
        assert rep == {"separated": True, "level": 0,
                       "a": sorted(normal), "b": sorted(other)}

    def test_element_and_subgroup_threads_do_not_mix(self):
        t = constant_group_tower(symmetric_group(3), 2)
        with pytest.raises(ValueError):
            sep.conjugacy_distinguished([0, 0], [{0}, {0}], t)

    def test_a_set_that_is_not_a_subgroup_is_refused(self):
        """{1, (12), (23)} lies over {1, sign -1} under the sign map, so the
        thread is compatible, but it is not a subgroup of S3."""
        s3, c2 = symmetric_group(3), cyclic_group(2)
        sign = GroupHom(s3, c2, [int(s3.element_order(x) == 2) for x in range(6)])
        t = gc.GroupTower([c2, s3], [sign])
        odd = [x for x in range(6) if s3.element_order(x) == 2]
        a, b = [{0, 1}, {0, odd[0]}], [{0, 1}, {0, *odd[:2]}]
        assert sep.conjugacy_distinguished(a, a, t)["separated"] is False
        with pytest.raises(ValueError, match="level 1 is not a subgroup"):
            sep.conjugacy_distinguished(a, b, t)
        with pytest.raises(ValueError, match="level 1 is not a subgroup"):
            sep.conjugacy_distinguished(b, a, t)

    def test_subgroup_same_thread_exhausted(self):
        g = dihedral_group(4)
        t = constant_group_tower(g, 2)
        s = next(x for x in all_subgroups(g) if len(x) == 2)
        rep = sep.conjugacy_distinguished([s, s], [s, s], t)
        assert not rep["separated"]

    def test_subgroup_different_orders(self):
        g = dihedral_group(4)
        t = constant_group_tower(g, 2)
        subs = all_subgroups(g)
        s2 = next(x for x in subs if len(x) == 2)
        s4_ = next(x for x in subs if len(x) == 4)
        rep = sep.conjugacy_distinguished([s2, s2], [s4_, s4_], t)
        assert rep["separated"] and rep["level"] == 0


class TestOrbitFormulaConsistency:
    def test_weyl_eta_subset_everywhere(self):
        # eta computed through any embedding is contained in mu
        rng = random.Random(4)
        s4 = symmetric_group(4)
        subs = [s for s in all_subgroups(s4) if 1 < len(s) < 24]
        for _ in range(10):
            elems = rng.choice(subs)
            small, f = embed_subgroup(s4, elems)
            p = rng.choice([2, 3])
            v = ElementaryAbelian(p, 1)
            classes, _ = repv.rep_classes(v, small)
            for i, c in enumerate(classes):
                rep = sep.fullness_check(v, f, i)
                if not rep["skipped"]:
                    assert rep["injective"]
