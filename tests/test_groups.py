"""Tests for the group layer and the order-<=24 catalog."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import proflq
from proflq import catalog
from proflq.groups import (
    FiniteGroup,
    GroupHom,
    all_subgroups,
    alternating_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    group_from_permutations,
    identity_hom,
    left_cosets,
    p_subgroups_up_to_conjugacy,
    quotient_group,
    semidirect_cyclic,
    subgroup_classes,
    subgroup_group,
    subgroups_up_to_conjugacy,
    symmetric_group,
)

from . import reference
from .reference import (are_isomorphic, center, centralizer, conjugacy_classes,
                        fingerprint, hom_from_generators, is_abelian, normalizer,
                        trivial_hom)


class TestPermutationClosure:
    def test_transposition_and_cycle_give_s3(self):
        g = group_from_permutations([(1, 0, 2), (1, 2, 0)])
        assert g.order == 6
        assert not is_abelian(g)

    def test_dihedral_on_four_points(self):
        g = group_from_permutations([(1, 2, 3, 0), (2, 1, 0, 3)])
        assert g.order == 8
        assert are_isomorphic(g, dihedral_group(4))

    def test_identity_is_zero(self):
        g = group_from_permutations([(1, 2, 0)])
        assert g.mul(0, 1) == 1 and g.mul(1, 0) == 1

    def test_deterministic_numbering(self):
        g1 = group_from_permutations([(1, 0, 2), (0, 2, 1)])
        g2 = group_from_permutations([(1, 0, 2), (0, 2, 1)])
        assert (g1.table == g2.table).all()

    def test_order_bound_enforced(self):
        # a transposition and a 6-cycle generate S6, of order 720 > 360
        with pytest.raises(ValueError, match="exceeds bound 360"):
            group_from_permutations([(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)])
        assert group_from_permutations([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]).order == 120

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            group_from_permutations([(0, 0, 1)])

    def test_empty_generators(self):
        assert group_from_permutations([]).order == 1


class TestTableValidation:
    def test_non_identity_rejected(self):
        with pytest.raises(ValueError):
            FiniteGroup([[1, 0], [0, 1]])

    def test_non_associative_rejected(self):
        # a quasigroup table that is not associative
        with pytest.raises(ValueError):
            FiniteGroup([[0, 1, 2, 3, 4],
                         [1, 0, 3, 4, 2],
                         [2, 4, 0, 1, 3],
                         [3, 2, 4, 0, 1],
                         [4, 3, 1, 2, 0]])

    def test_non_associative_order_65_rejected(self):
        # Z/65 with two entries of row 1 swapped: identity 0 and inverses
        # survive, and about 500 of the 65^3 triples fail associativity,
        # none of them among 2000 triples drawn at random from seed 0
        n = 65
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        table[1][26], table[1][27] = table[1][27], table[1][26]
        assert table[0] == list(range(n)) and [r[0] for r in table] == list(range(n))
        assert all(0 in row for row in table)
        with pytest.raises(ValueError, match="associative"):
            FiniteGroup(table)

    def test_valid_c4(self):
        g = FiniteGroup([[(a + b) % 4 for b in range(4)] for a in range(4)])
        assert g.element_order(1) == 4
        assert g.inv(1) == 3


class TestReadOnlyTables:
    def test_the_group_owns_a_read_only_copy(self):
        # group.key is the table's bytes, taken once: sound only while the
        # table cannot change
        table = np.array([[(a + b) % 4 for b in range(4)] for a in range(4)])
        g = FiniteGroup(table)
        key = g.key
        with pytest.raises(ValueError, match="read-only"):
            g.table[1, 1] = 0
        table[1, 1] = 3  # the caller's array is not the group's
        assert g.table[1, 1] == 2 and g.key == key == g.table.tobytes()

    def test_every_constructor_keys_its_table(self):
        for g in catalog.all_groups(12):
            assert not g.table.flags.writeable
            assert g.key == g.table.tobytes()

    @pytest.mark.parametrize("order, dtype", [(1, np.uint8), (256, np.uint8),
                                              (257, np.uint16)])
    def test_conj_is_a_read_only_table_in_the_narrowest_dtype(self, order, dtype):
        g = cyclic_group(order)
        assert g.conj.dtype == dtype and g.conj.shape == (order, order)
        with pytest.raises(ValueError, match="read-only"):
            g.conj[0, 0] = 1

    def test_conj_and_its_columns_are_the_conjugation_table(self):
        # conj[g, x] = (g x) g^{-1} = conj_cols[x][g], on every catalog group
        # and a relabelled copy of each
        rng = random.Random(35)
        for g in catalog.all_groups():
            for h in (g, relabelled(g, rng)[0]):
                t = h.table
                inverse = (t == 0).argmax(axis=1)
                assert h.conj.dtype == np.min_scalar_type(h.order - 1), g.name
                assert not h.conj.flags.writeable, g.name
                assert (h.conj == t[t, inverse[:, None]]).all(), g.name
                cols = h.conj_cols
                assert cols == h.conj.T.tolist() and len(cols) == h.order, g.name
                assert all(cols[x][a] == reference.conj(h, a, x)
                           for x in h.elements() for a in h.elements()), g.name


class TestBasicOps:
    def test_element_orders_in_s3(self):
        g = symmetric_group(3)
        assert sorted(g.element_order(x) for x in g.elements()) == [1, 2, 2, 2, 3, 3]

    def test_center_of_d4(self):
        assert len(center(dihedral_group(4))) == 2

    def test_center_of_q8(self):
        assert len(center(catalog.quaternion_group())) == 2

    def test_conjugacy_classes_s4(self):
        sizes = sorted(len(c) for c in conjugacy_classes(symmetric_group(4)))
        assert sizes == [1, 3, 6, 6, 8]

    def test_conjugacy_classes_partition(self):
        g = dicyclic_group(3)
        classes = conjugacy_classes(g)
        assert sorted(x for c in classes for x in c) == list(range(g.order))

    def test_centralizer_of_element(self):
        g = symmetric_group(3)
        x = next(a for a in g.elements() if g.element_order(a) == 3)
        assert len(centralizer(g, [x])) == 3

    def test_normalizer_of_sylow(self):
        g = symmetric_group(3)
        x = next(a for a in g.elements() if g.element_order(a) == 2)
        assert len(normalizer(g, {0, x})) == 2

    def test_power(self):
        g = cyclic_group(6)
        assert g.power(1, 4) == 4
        assert g.power(1, -1) == 5

    @pytest.mark.parametrize("name", ["S4", "Q8", "C2xC2xS3"])
    def test_power_matches_repeated_products(self, name):
        g = catalog.by_name(name)
        n = g.order
        for x in g.elements():
            # up[k] = x^k and down[k] = (x^-1)^k by one product at a time
            up, down = [0], [0]
            for _ in range(2 * n):
                up.append(g.mul(up[-1], x))
                down.append(g.mul(down[-1], g.inv(x)))
            for k in range(-2 * n, 2 * n):
                assert g.power(x, k) == (up[k] if k >= 0 else down[-k])

    def test_closure(self):
        g = symmetric_group(4)
        x = next(a for a in g.elements() if g.element_order(a) == 4)
        assert len(g.closure([x])) == 4


class TestConstructions:
    def test_dihedral_order(self):
        for n in range(2, 9):
            assert dihedral_group(n).order == 2 * n

    def test_dicyclic_relations(self):
        g = dicyclic_group(3)
        assert g.order == 12
        # the unique involution is central
        invs = [x for x in g.elements() if g.element_order(x) == 2]
        assert len(invs) == 1 and invs[0] in center(g)

    def test_semidirect_needs_action(self):
        with pytest.raises(ValueError):
            semidirect_cyclic(5, 3, 3)  # 3^3 = 27 != 1 mod 5

    def test_symmetric_orders(self):
        assert [symmetric_group(n).order for n in range(1, 5)] == [1, 2, 6, 24]

    def test_alternating_orders(self):
        assert [alternating_group(n).order for n in range(3, 6)] == [3, 12, 60]

    def test_direct_product_abelian(self):
        g = direct_product(cyclic_group(2), cyclic_group(3))
        assert is_abelian(g) and are_isomorphic(g, cyclic_group(6))

    def test_generators_computed_once_and_handed_out_fresh(self, monkeypatch):
        g = symmetric_group(4)
        gens = g.generators_greedy()
        assert g.closure(gens) == frozenset(range(g.order))
        gens.append(5)
        monkeypatch.setattr(type(g), "closure", None)  # a second search fails
        assert g.generators_greedy() == gens[:-1]


class TestSubgroupsQuotients:
    def test_subgroup_counts(self):
        assert len(all_subgroups(cyclic_group(12))) == 6
        assert len(all_subgroups(symmetric_group(3))) == 6
        assert len(all_subgroups(dihedral_group(4))) == 10
        assert len(all_subgroups(catalog.quaternion_group())) == 6
        assert len(all_subgroups(symmetric_group(4))) == 30

    def test_subgroups_up_to_conjugacy_s4(self):
        assert len(subgroups_up_to_conjugacy(symmetric_group(4))) == 11

    def test_p_subgroups(self):
        g = symmetric_group(4)
        subs2 = p_subgroups_up_to_conjugacy(g, 2)
        assert max(len(s) for s in subs2) == 8
        subs3 = p_subgroups_up_to_conjugacy(g, 3)
        assert sorted(len(s) for s in subs3) == [1, 3]

    def test_subgroup_group_embedding(self):
        g = symmetric_group(4)
        elems = next(s for s in all_subgroups(g) if len(s) == 8)
        h, emb = subgroup_group(g, elems)
        assert h.order == 8
        for a in range(8):
            for b in range(8):
                assert emb[h.mul(a, b)] == g.mul(emb[a], emb[b])

    @pytest.mark.parametrize("elements", [{0, 9}, {0, -1}, {0, 2}, {1, 2}, set()],
                             ids=["out-of-range", "negative", "not-closed",
                                  "no-identity", "empty"])
    def test_subgroup_group_rejects_a_set_that_is_not_a_subgroup(self, elements):
        with pytest.raises(ValueError, match="is not a subgroup"):
            subgroup_group(symmetric_group(3), elements)

    def test_quotient_s4_mod_v4(self):
        g = symmetric_group(4)
        v4 = next(s for s in all_subgroups(g)
                  if len(s) == 4 and normalizer(g, s) == list(range(24)))
        q, proj = quotient_group(g, v4)
        assert are_isomorphic(q, symmetric_group(3))
        for a in range(24):
            for b in range(24):
                assert proj[g.mul(a, b)] == q.mul(proj[a], proj[b])

    def test_quotient_rejects_non_normal(self):
        g = symmetric_group(3)
        x = next(a for a in g.elements() if g.element_order(a) == 2)
        with pytest.raises(ValueError):
            quotient_group(g, {0, x})

    def test_quotient_refuses_exactly_the_subgroups_the_scan_finds_not_normal(self):
        # normality is tested on the greedy generators only
        for g in catalog.all_groups(24):
            for n in all_subgroups(g):
                normal = len(normalizer(g, n)) == g.order
                try:
                    quotient_group(g, n)
                except ValueError as e:
                    assert not normal and "not normal" in str(e), (g.name, sorted(n))
                else:
                    assert normal, (g.name, sorted(n))

    @pytest.mark.parametrize("elements", [{0, 6}, {0, 2}, set()],
                             ids=["out-of-range", "not-closed", "empty"])
    def test_quotient_rejects_a_set_that_is_not_a_subgroup(self, elements):
        with pytest.raises(ValueError, match="is not a subgroup"):
            quotient_group(symmetric_group(3), elements)

    def test_left_cosets_are_numbered_by_their_first_element(self):
        g = symmetric_group(4)
        for h in all_subgroups(g):
            coset_of, reps = left_cosets(g, h)
            assert reps == sorted({min(g.mul(a, x) for x in h) for a in g.elements()})
            for a in g.elements():
                assert coset_of[a] == reps.index(min(g.mul(a, x) for x in h))


class TestHoms:
    def test_identity_and_trivial(self):
        g = symmetric_group(3)
        assert len(set(identity_hom(g).images)) == g.order
        assert trivial_hom(g).target.order == 1

    def test_sign_hom(self):
        g = symmetric_group(3)
        c2 = cyclic_group(2)
        gens = {x: 1 for x in g.elements() if g.element_order(x) == 2}
        h = hom_from_generators(g, c2, gens)
        assert h.is_surjective and len(set(h.images)) < g.order

    def test_inconsistent_images_rejected(self):
        g = cyclic_group(4)
        with pytest.raises(ValueError):
            hom_from_generators(g, cyclic_group(2), {1: 1, 2: 1})

    def test_non_multiplicative_rejected(self):
        g = cyclic_group(3)
        with pytest.raises(ValueError):
            GroupHom(g, cyclic_group(3), [0, 1, 1])

    @pytest.mark.parametrize("images", [[0, 2], [0, -1], [0, 1.0], [True, False]],
                             ids=["too-large", "negative", "float", "bool"])
    def test_images_outside_the_target_are_a_value_error(self, images):
        with pytest.raises(ValueError, match="images must be integers"):
            GroupHom(cyclic_group(2), cyclic_group(2), images)

    def test_compose(self):
        g = cyclic_group(8)
        q4, p4 = quotient_group(g, {0, 4})
        q2, p2 = quotient_group(q4, {0, q4.mul(p4[2], 0)})
        f = GroupHom(g, q4, p4)
        s = GroupHom(q4, q2, p2)
        composite = GroupHom(g, q2, [s(f(x)) for x in g.elements()])
        assert composite.is_surjective


class TestIsomorphism:
    def test_c4_vs_klein(self):
        assert not are_isomorphic(cyclic_group(4), catalog.abelian_group(2, 2))

    def test_d4_vs_q8(self):
        assert not are_isomorphic(dihedral_group(4), catalog.quaternion_group())
        assert fingerprint(dihedral_group(4)) != fingerprint(catalog.quaternion_group())

    def test_d3_is_s3(self):
        assert are_isomorphic(dihedral_group(3), symmetric_group(3))

    def test_dic3_is_c3_semi_c4(self):
        assert are_isomorphic(dicyclic_group(3), semidirect_cyclic(3, 4, 2))

    def test_self_isomorphic(self):
        for g in (symmetric_group(4), catalog.sl23(), catalog.pauli_group()):
            assert are_isomorphic(g, g)


class TestCatalog:
    def test_counts_per_order(self):
        for n, count in catalog.GROUP_COUNTS.items():
            gs = catalog.groups_of_order(n)
            assert len(gs) == count, n
            for g in gs:
                assert g.order == n

    def test_total(self):
        assert len(catalog.all_groups()) == 74

    def test_pairwise_nonisomorphic(self):
        for n in range(1, 25):
            gs = catalog.groups_of_order(n)
            for a, b in itertools.combinations(range(len(gs)), 2):
                assert not are_isomorphic(gs[a], gs[b]), (n, gs[a].name, gs[b].name)

    def test_abelian_counts(self):
        abelians = [g for g in catalog.all_groups() if is_abelian(g)]
        assert len(abelians) == 37

    def test_sl23_has_unique_involution(self):
        g = catalog.sl23()
        assert sum(1 for x in g.elements() if g.element_order(x) == 2) == 1

    def test_pauli_exponent(self):
        g = catalog.pauli_group()
        assert g.order == 16
        assert max(g.element_order(x) for x in g.elements()) == 4
        assert not is_abelian(g)

    def test_by_name(self):
        assert catalog.by_name("S4").order == 24
        with pytest.raises(KeyError):
            catalog.by_name("monster")

    def test_tables_and_names_are_pinned(self):
        """Every catalog table and name, element numbering included."""
        blob = json.dumps([[g.name, g.table.tolist()] for g in catalog.all_groups()])
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "0cdb7d52972aae45fa80ad008f894400938b1d3cb3a7eff6edb53c3d4e20d571")


class TestRandomized:
    def test_random_subgroups_closed(self):
        rng = random.Random(7)
        pool = catalog.all_groups(12)
        for _ in range(25):
            g = rng.choice(pool)
            seed = rng.sample(range(g.order), min(2, g.order))
            s = g.closure(seed)
            assert all(g.mul(a, b) in s for a in s for b in s)
            assert all(g.inv(a) in s for a in s)

    def test_lagrange(self):
        for g in catalog.all_groups(16):
            for s in all_subgroups(g):
                assert g.order % len(s) == 0


def reference_closure(table, elements) -> frozenset:
    """Multiply all pairs until nothing new appears."""
    s = set(elements) | {0}
    while True:
        new = {table[a][b] for a in s for b in s} - s
        if not new:
            return frozenset(s)
        s |= new


def reference_subgroups(g) -> list:
    """Every subgroup, by adjoining each element to each subgroup found."""
    table = g.table.tolist()
    subs = {frozenset({0})}
    frontier = list(subs)
    while frontier:
        nxt = []
        for s in frontier:
            for x in range(1, g.order):
                if x not in s:
                    t = reference_closure(table, s | {x})
                    if t not in subs:
                        subs.add(t)
                        nxt.append(t)
        frontier = nxt
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def prime_factor_count(n: int) -> int:
    """The number of prime factors of n, counted with multiplicity."""
    count, d = 0, 2
    while n > 1:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    return count


def relabelled(g, rng):
    """The same group with element x renamed perm[x], the identity fixed."""
    perm = [0] + rng.sample(range(1, g.order), g.order - 1)
    table = [[0] * g.order for _ in range(g.order)]
    for a, row in enumerate(g.table.tolist()):
        for b, ab in enumerate(row):
            table[perm[a]][perm[b]] = perm[ab]
    return FiniteGroup(table), perm


class TestKernelAgainstReference:
    """The list-backed kernel against the table and slow references."""

    def test_mul_inv_conj_agree_with_table(self):
        for g in catalog.all_groups():
            t = g.table
            inverse = (t == 0).argmax(axis=1)  # the identity's column in each row
            for a in g.elements():
                assert g.inv(a) == inverse[a] and t[a, inverse[a]] == 0
                for b in g.elements():
                    assert g.mul(a, b) == t[a, b]
                    assert g.conj_cols[b][a] == t[t[a, b], inverse[a]]

    def test_closure_matches_reference(self):
        rng = random.Random(11)
        for g in catalog.all_groups():
            table = g.table.tolist()
            for _ in range(8):
                subset = rng.sample(range(g.order), rng.randint(0, min(3, g.order)))
                assert g.closure(subset) == reference_closure(table, subset)

    def test_all_subgroups_match_reference_under_relabelling(self):
        rng = random.Random(5)
        for g in catalog.all_groups():
            expected = reference_subgroups(g)
            assert all_subgroups(g) == expected, g.name
            h, perm = relabelled(g, rng)
            moved = sorted((frozenset(perm[x] for x in s) for s in expected),
                           key=lambda s: (len(s), sorted(s)))
            assert all_subgroups(h) == moved, g.name

    def test_cached_lattice_is_isolated_from_callers(self):
        g = symmetric_group(4)
        first = all_subgroups(g)
        expected = list(first)
        first.clear()
        second = all_subgroups(g)
        assert second == expected and len(second) == 30
        second.reverse()
        assert all_subgroups(g) == expected


def accepts(source, target, images) -> bool:
    try:
        GroupHom(source, target, images)
    except ValueError:
        return False
    return True


class TestSetConjugationAgainstScans:
    """Conjugating a set by one element against `reference.conj` scans of
    the table, on every non-abelian catalog group and a relabelled copy
    of each: in an abelian group every conjugation is trivial, so a
    transposed read of the conjugation columns would not show there."""

    @staticmethod
    def groups():
        rng = random.Random(36)
        for g in catalog.all_groups():
            if not is_abelian(g):
                yield g
                yield relabelled(g, rng)[0]

    def test_conjugate_subgroup(self):
        for g in self.groups():
            for s in all_subgroups(g):
                for a in g.elements():
                    assert g.conjugate_subgroup(a, s) == \
                        {reference.conj(g, a, x) for x in s}, (g.name, a, sorted(s))

    def test_are_conjugate_subgroups(self):
        for g in self.groups():
            subs = all_subgroups(g)
            for s in subs:
                orbit = {frozenset(reference.conj(g, a, x) for x in s)
                         for a in g.elements()}
                for t in subs:
                    assert g.are_conjugate_subgroups(s, t) == (t in orbit), \
                        (g.name, sorted(s), sorted(t))

    def test_quotient_refuses_exactly_the_subgroups_that_are_not_normal(self):
        for g in self.groups():
            for n in all_subgroups(g):
                normal = all(reference.conj(g, a, x) in n
                             for a in g.elements() for x in n)
                try:
                    quotient_group(g, n)
                except ValueError as e:
                    assert not normal and "not normal" in str(e), (g.name, sorted(n))
                else:
                    assert normal, (g.name, sorted(n))


class TestHomCheckAgainstReference:
    """The one numpy comparison of `GroupHom` against the row-by-row loop
    of `tests/reference.py`, on image lists for catalog groups of order
    <= 12: homs (trivial, inner automorphisms, quotient maps), random
    lists, homs with one image changed, and homs with one image moved
    out of range, negative or past the target's order."""

    def image_lists(self, g, h, rng):
        valid = [[0] * g.order]
        if h is g:
            valid += g.conj[:4].tolist()  # inner automorphisms
        lists = list(valid)
        for images in valid:
            changed = list(images)
            changed[rng.randrange(g.order)] = rng.randrange(h.order)
            lists.append(changed)
            for bad in (-1, -rng.randint(1, h.order), h.order,
                        h.order + rng.randrange(5)):
                moved = list(images)
                moved[rng.randrange(g.order)] = bad
                lists.append(moved)
        lists += [[rng.randrange(h.order) for _ in range(g.order)] for _ in range(3)]
        return lists

    def test_numpy_check_matches_the_loop(self):
        rng = random.Random(16)
        groups = catalog.all_groups(12)
        verdicts = []
        for g in groups:
            pairs = [(h, self.image_lists(g, h, rng))
                     for h in [g, *rng.sample(groups, 3)]]
            for n in all_subgroups(g):
                if len(normalizer(g, n)) == g.order:
                    q, proj = quotient_group(g, n)
                    pairs.append((q, [proj, [-x for x in proj], proj[:-1] + [q.order]]))
            for h, lists in pairs:
                for images in lists:
                    verdict = reference.is_hom(g, h, images)
                    assert accepts(g, h, images) == verdict, (g.name, h.name, images)
                    verdicts.append(verdict)
        assert verdicts.count(True) > 200 and verdicts.count(False) > 1000


class TestSubgroupClassesAgainstScans:
    """`subgroup_classes` against `are_conjugate_subgroups`, `normalizer`
    and the scan-based class representatives of `tests/reference.py`."""

    def test_equal_class_index_iff_conjugate(self):
        for g in catalog.all_groups():
            subs = all_subgroups(g)
            index = subgroup_classes(g).index
            assert sorted(index, key=subs.index) == subs, g.name
            for a, b in itertools.combinations(subs, 2):
                assert (index[a] == index[b]) == g.are_conjugate_subgroups(a, b), \
                    (g.name, sorted(a), sorted(b))

    def test_representatives_and_normalizers(self):
        for g in catalog.all_groups():
            classes = subgroup_classes(g)
            assert list(classes.reps) == reference.subgroups_up_to_conjugacy(g), g.name
            assert [classes.index[s] for s in classes.reps] == \
                list(range(len(classes.reps)))
            assert [list(n) for n in classes.normalizers] == \
                [normalizer(g, s) for s in classes.reps], g.name

    def test_conjugators_are_the_least_conjugating_elements(self):
        for g in catalog.all_groups():
            t = g.table
            inverse = (t == 0).argmax(axis=1)
            classes = subgroup_classes(g)
            for s in all_subgroups(g):
                rep = classes.reps[classes.index[s]]
                assert classes.conjugators[s] == next(
                    x for x in g.elements()
                    if {t[t[x, y], inverse[x]] for y in rep} == s), (g.name, sorted(s))

    def test_class_table_matches_the_scans_under_relabelling(self):
        rng = random.Random(31)
        for g in catalog.all_groups():
            for h in (g, relabelled(g, rng)[0]):
                subs = reference_subgroups(h)
                index, reps, normalizers, conjugators = \
                    reference.subgroup_classes(h, subs)
                classes = subgroup_classes(h)
                assert all_subgroups(h) == subs == list(classes.index), g.name
                assert dict(classes.index) == index and classes.reps == reps, g.name
                assert classes.normalizers == normalizers, g.name
                assert dict(classes.conjugators) == conjugators, g.name

    def test_generators_generate_each_representative(self):
        # each cyclic extension step at least doubles the order
        rng = random.Random(32)
        for g in catalog.all_groups():
            for h in (g, relabelled(g, rng)[0]):
                classes = subgroup_classes(h)
                table = h.table.tolist()
                assert len(classes.generators) == len(classes.reps)
                for gens, rep in zip(classes.generators, classes.reps):
                    assert reference_closure(table, gens) == rep, (g.name, gens)
                    assert len(gens) <= prime_factor_count(len(rep)), (g.name, gens)

    def test_p_subgroup_classes_match_the_scans(self):
        for g in catalog.all_groups():
            for p in (2, 3, 5):
                assert p_subgroups_up_to_conjugacy(g, p) == \
                    reference.p_subgroups_up_to_conjugacy(g, p), (g.name, p)

    def test_s4_classes_of_equal_order_are_told_apart(self):
        # two classes of order-2 subgroups and two of Klein four-groups
        g = symmetric_group(4)
        orders = [len(s) for s in subgroups_up_to_conjugacy(g)]
        assert orders == [1, 2, 2, 3, 4, 4, 4, 6, 8, 12, 24]

    def test_class_lists_are_isolated_from_callers(self):
        g = symmetric_group(4)
        for get in (subgroups_up_to_conjugacy,
                    lambda g: p_subgroups_up_to_conjugacy(g, 2)):
            first = get(g)
            expected = list(first)
            first.clear()
            second = get(g)
            assert second == expected and second
            second.reverse()
            assert get(g) == expected
        classes = subgroup_classes(g)
        with pytest.raises(TypeError):
            classes.index[frozenset({0})] = 1
        assert subgroup_classes(g) is classes


# Builds every catalog group with its conjugation columns replaced by the
# rows, the transposed read, and prints the names of the groups whose
# class pass does not raise InvariantError, with whether their class table
# is still the true one.
TRANSPOSED_COLUMNS = """
import json
import resource

# a lattice built on a wrong table grew past 700 MB before the check
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

from proflq import catalog
from proflq.errors import InvariantError
from proflq.groups import FiniteGroup, subgroup_classes

passed = []
for g in catalog.all_groups():
    h = FiniteGroup(g.table)
    h.conj_cols = h.conj.tolist()
    try:
        classes = subgroup_classes(h)
    except InvariantError:
        continue
    passed.append([g.name, classes == subgroup_classes(g)])
print(json.dumps(passed))
"""


def test_transposed_conjugation_columns_are_an_invariant_error():
    """Each conjugate `_new_class` builds must be a set of |t| elements
    holding the identity; with the columns read transposed the class pass
    raises at once instead of running away (in a child process, under a
    timeout and a memory limit).  Only the trivial group and the groups of
    prime order, where the transposed read changes nothing the lattice
    uses, pass, with their true class tables."""
    env = dict(os.environ, PYTHONPATH=str(Path(proflq.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", TRANSPOSED_COLUMNS],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    unrefused = [g.name for g in catalog.all_groups()
                 if g.order == 1 or all(g.order % d for d in range(2, g.order))]
    assert json.loads(proc.stdout) == [[name, True] for name in unrefused]
