import random
from math import prod

import pytest

from proflq import etale
from proflq.finring import (
    FiniteModule,
    FiniteRing,
    ModuleMap,
    cokernel,
    cyclic,
    direct_sum,
    dual_map,
    hom_module,
    image,
    is_isomorphic,
    is_prime,
    kernel,
    pontryagin_dual,
    zero_map,
    zero_module,
)

from .reference import dual_pairing, hom_maps

Z12 = FiniteRing(12)


def random_module(rng, ring, max_rank=3):
    divisors = [d for d in range(2, ring.modulus + 1) if ring.modulus % d == 0]
    factors = []
    cur = None
    for _ in range(rng.randint(0, max_rank)):
        opts = [d for d in divisors if cur is None or d % cur == 0]
        if not opts:
            break
        cur = rng.choice(opts)
        factors.append(cur)
    return FiniteModule(ring, tuple(factors))


def random_map(rng, source, target):
    matrix = []
    for i, b in enumerate(target.factors):
        row = []
        for a in source.factors:
            from math import gcd

            g = gcd(a, b)
            row.append(rng.randrange(g) * (b // g))
        matrix.append(row)
    return ModuleMap(source, target, matrix)


def brute_kernel_order(f):
    zero = (0,) * f.target.rank
    return sum(1 for x in f.source.elements() if f(x) == zero)


def brute_image_size(f):
    return len({f(x) for x in f.source.elements()})


class TestRing:
    def test_modulus_bound(self):
        with pytest.raises(ValueError):
            FiniteRing(1)

    def test_is_prime_matches_a_sieve(self):
        sieve = [True] * 2000
        sieve[0] = sieve[1] = False
        for d in range(2, 45):
            sieve[d * d::d] = [False] * len(sieve[d * d::d])
        assert [n for n in range(-3, 2000) if is_prime(n)] == \
            [n for n in range(2000) if sieve[n]]
        assert is_prime(10_000_019) and not is_prime(10_000_019 * 7)


class TestModule:
    def test_divisibility_chain_enforced(self):
        with pytest.raises(ValueError):
            FiniteModule(Z12, (4, 6))

    def test_factor_must_divide_modulus(self):
        with pytest.raises(ValueError):
            FiniteModule(Z12, (5,))

    def test_order(self):
        assert FiniteModule(Z12, (2, 6)).order == 12
        assert zero_module(Z12).order == 1


class TestKernelCokernel:
    def test_times_two_on_z4(self):
        z4 = cyclic(FiniteRing(4), 4)
        f = ModuleMap(z4, z4, [[2]])
        k, incl = kernel(f)
        assert k.factors == (2,)
        # oracle: enumerate all four elements
        assert brute_kernel_order(f) == 2
        assert f.compose(incl).is_zero

    def test_zero_map(self):
        m = FiniteModule(Z12, (2, 4))
        n = FiniteModule(Z12, (3,))
        f = zero_map(m, n)
        k, _ = kernel(f)
        q, _ = cokernel(f)
        assert is_isomorphic(k, m)
        assert is_isomorphic(q, n)

    def test_identity_map(self):
        m = FiniteModule(Z12, (2, 6))
        f = m.identity_map()
        assert kernel(f)[0].is_zero
        assert cokernel(f)[0].is_zero

    def test_cokernel_of_doubling_on_z8(self):
        z8 = cyclic(FiniteRing(8), 8)
        f = ModuleMap(z8, z8, [[2]])
        q, proj = cokernel(f)
        assert q.factors == (2,)
        # oracle: image has 4 elements, quotient order 2
        assert brute_image_size(f) == 4
        assert proj.compose(f).is_zero
        assert proj.is_surjective()

    @pytest.mark.parametrize("seed", range(40))
    def test_counting_identities(self, seed):
        rng = random.Random(seed)
        ring = FiniteRing(rng.choice([4, 6, 8, 9, 12]))
        src = random_module(rng, ring)
        tgt = random_module(rng, ring)
        if src.order > 256 or tgt.order > 256:
            pytest.skip("enumeration bound")
        f = random_map(rng, src, tgt)
        k, incl = kernel(f)
        q, proj = cokernel(f)
        im = image(f)
        assert k.order == brute_kernel_order(f)
        assert im.order == brute_image_size(f)
        assert im.order == src.order // k.order
        assert q.order == tgt.order // im.order
        assert f.compose(incl).is_zero
        assert proj.compose(f).is_zero
        assert incl.is_injective()
        assert proj.is_surjective()


class TestHomTensor:
    def test_hom_z4_z6_over_z12(self):
        z4 = cyclic(Z12, 4)
        z6 = cyclic(Z12, 6)
        h = hom_module(z4, z6)
        assert h.factors == (2,)
        # oracle: count the homomorphisms directly
        assert sum(1 for _ in hom_maps(z4, z6)) == 2

    def test_tensor_unit(self):
        # the cyclic presentation of M (x) N that the adjunction check uses
        m = FiniteModule(Z12, (2, 6))
        unit = cyclic(Z12, 12)
        assert [order for _, _, order in etale._raw_tensor_orders(m, unit)] \
            == list(m.factors)

    def test_hom_from_zero(self):
        assert hom_module(zero_module(Z12), FiniteModule(Z12, (6,))).is_zero

    def test_tensor_z4_z6(self):
        assert etale._raw_tensor_orders(cyclic(Z12, 4), cyclic(Z12, 6)) \
            == [(0, 0, 2)]

    def test_hom_order_matches_enumeration(self):
        m = FiniteModule(Z12, (2, 4))
        n = FiniteModule(Z12, (6,))
        h = hom_module(m, n)
        assert h.order == sum(1 for _ in hom_maps(m, n))


class TestDuality:
    def test_cyclic_self_dual(self):
        z6 = cyclic(Z12, 6)
        assert is_isomorphic(pontryagin_dual(z6), z6)

    def test_dual_of_surjection_z4_to_z2(self):
        ring = FiniteRing(4)
        f = ModuleMap(cyclic(ring, 4), cyclic(ring, 2), [[1]])
        fd = dual_map(f)
        assert fd.matrix == ((2,),)
        assert fd.is_injective()
        # oracle: characters of Z/2 inside Z/4 are 0 and the order-2 element
        assert fd((1,)) == (2,)

    @pytest.mark.parametrize("seed", range(100))
    def test_double_dual_is_identity(self, seed):
        rng = random.Random(1000 + seed)
        ring = FiniteRing(rng.choice([4, 6, 8, 9, 12]))
        f = random_map(rng, random_module(rng, ring), random_module(rng, ring))
        assert dual_map(dual_map(f)).matrix == f.matrix

    def test_pairing_adjoint_identity(self):
        rng = random.Random(7)
        ring = Z12
        src = FiniteModule(ring, (2, 6))
        tgt = FiniteModule(ring, (4, 12))
        f = random_map(rng, src, tgt)
        fd = dual_map(f)
        for x in src.elements():
            for xi in pontryagin_dual(tgt).elements():
                assert dual_pairing(tgt, f(x), xi) == dual_pairing(src, x, fd(xi))

    @pytest.mark.parametrize("seed", range(25))
    def test_duality_exactness(self, seed):
        # 0 -> K -> A -> Q -> 0 dualizes to an exact sequence
        rng = random.Random(seed)
        ring = FiniteRing(rng.choice([4, 6, 8, 9, 12]))
        a = random_module(rng, ring)
        f = random_map(rng, a, random_module(rng, ring))
        k, incl = kernel(f)
        q, proj = cokernel(incl)
        di, dp = dual_map(incl), dual_map(proj)
        assert dp.is_injective()
        assert di.is_surjective()
        assert di.compose(dp).is_zero
        assert image(dp).order == kernel(di)[0].order

    def test_hom_into_ambient_agrees_with_dual(self):
        for factors in [(), (2,), (2, 6), (4, 12), (3, 3)]:
            m = FiniteModule(Z12, factors)
            assert is_isomorphic(hom_module(m, cyclic(Z12, 12)), pontryagin_dual(m))


class TestIsomorphic:
    def test_klein_vs_z4(self):
        ring = FiniteRing(4)
        assert not is_isomorphic(FiniteModule(ring, (2, 2)), FiniteModule(ring, (4,)))

    def test_self(self):
        m = FiniteModule(Z12, (2, 2))
        assert is_isomorphic(m, m)

    def test_cokernel_normal_form(self):
        ring = FiniteRing(8)
        f = ModuleMap(cyclic(ring, 8), cyclic(ring, 8), [[2]])
        assert is_isomorphic(cokernel(f)[0], cyclic(ring, 2))


def test_compose_through_the_zero_module():
    a, b = cyclic(Z12, 4), FiniteModule(Z12, (2, 6))
    z = zero_module(Z12)
    composite = zero_map(z, b).compose(zero_map(a, z))
    assert composite == zero_map(a, b)


class TestDirectSum:
    def test_mixed_cyclic_normalization(self):
        ring = FiniteRing(6)
        total, injs, projs = direct_sum([cyclic(ring, 2), cyclic(ring, 3)])
        assert total.factors == (6,)
        for inj, proj in zip(injs, projs):
            assert proj.compose(inj) == inj.source.identity_map()
        assert projs[0].compose(injs[1]).is_zero

    @pytest.mark.parametrize("seed", range(20))
    def test_projections_and_injections(self, seed):
        rng = random.Random(seed)
        ring = FiniteRing(rng.choice([4, 6, 12]))
        mods = [random_module(rng, ring, max_rank=2) for _ in range(rng.randint(1, 3))]
        total, injs, projs = direct_sum(mods)
        assert total.order == prod(m.order for m in mods)
        for i, (inj, proj) in enumerate(zip(injs, projs)):
            assert proj.compose(inj) == mods[i].identity_map()
            for j, proj2 in enumerate(projs):
                if i != j:
                    assert proj2.compose(inj).is_zero
