import random
import time
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proflq import acceptance, etale, finring
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

from .reference import dense_compose, dual_pairing, hom_maps, integer_smith_normal_form

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
            g = gcd(a, b)
            row.append(rng.randrange(g) * (b // g))
        matrix.append(row)
    return ModuleMap(source, target, matrix)


@st.composite
def module_maps(draw, max_rank):
    """A random map between modules of rank <= max_rank over Z/m, m <= 360."""
    m = draw(st.integers(2, 360))
    ring = FiniteRing(m)
    divisors = [d for d in range(2, m + 1) if m % d == 0]

    def module():
        factors = [1]
        for d in draw(st.lists(st.sampled_from(divisors), max_size=max_rank)):
            factors.append(lcm(factors[-1], d))
        return FiniteModule(ring, tuple(factors[1:]))

    source, target = module(), module()
    # Hom(Z/a, Z/b) is generated by b / gcd(a, b)
    matrix = [[draw(st.integers(0, m - 1)) * (b // gcd(a, b)) for a in source.factors]
              for b in target.factors]
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

    @pytest.mark.parametrize("factors", [[2, 4], (np.int64(2), np.int32(4)),
                                         [np.uint8(2), 4]])
    def test_factors_are_kept_as_a_tuple_of_ints(self, factors):
        m = FiniteModule(Z12, factors)
        assert m == FiniteModule(Z12, (2, 4)) and hash(m) == hash(FiniteModule(Z12, (2, 4)))
        assert type(m.factors) is tuple and all(type(d) is int for d in m.factors)
        # the caches key on modules
        assert direct_sum([m, m])[0].factors == (2, 2, 4, 4)
        assert cokernel(m.identity_map())[0].is_zero

    @pytest.mark.parametrize("factors", [(2.0, 4), [2, 4.0], ("2",), (2, None)])
    def test_non_integer_factors_are_refused(self, factors):
        with pytest.raises(ValueError, match="not all integers"):
            FiniteModule(Z12, factors)


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


class TestInjectivityByOrder:
    """`is_injective` compares |A| |coker f| with |B| instead of building
    the kernel; the kernel route is the reference."""

    def test_agrees_with_the_kernel_on_the_criterion_1_maps(self):
        # criterion 1's draws at the default seed, and the maps it builds
        rng = random.Random(1)
        rings = [FiniteRing(m) for m in (4, 6, 8, 9, 12)]
        verdicts = []
        for _ in range(500):
            ring = rng.choice(rings)
            a = acceptance._random_module(rng, ring)
            b = acceptance._random_module(rng, ring)
            f = acceptance._random_map(rng, a, b)
            inc = kernel(f)[1]
            proj = cokernel(inc)[1]
            for g in (f, inc, dual_map(inc), dual_map(proj)):
                verdicts.append(g.is_injective())
                assert verdicts[-1] == kernel(g)[0].is_zero, g
        assert verdicts.count(True) > 500 and verdicts.count(False) > 100

    @pytest.mark.parametrize("modulus", range(4, 13))
    def test_agrees_with_the_kernel_on_random_maps(self, modulus):
        rng = random.Random(modulus)
        ring = FiniteRing(modulus)
        verdicts = set()
        for _ in range(60):
            f = random_map(rng, random_module(rng, ring), random_module(rng, ring))
            verdicts.add(f.is_injective())
            assert f.is_injective() == kernel(f)[0].is_zero, f
            if f.source.order <= 4096:
                assert f.is_injective() == (brute_kernel_order(f) == 1), f
        assert verdicts == {True, False}


# the slowest call seen on these sizes takes a few ms
CALL_BOUND_S = 0.5


def timed(fn, f):
    start = time.perf_counter()
    out = fn(f)
    assert time.perf_counter() - start < CALL_BOUND_S
    return out


@settings(max_examples=200, deadline=None)
@given(module_maps(max_rank=8))
def test_random_maps_up_to_8x8(f):
    k, incl = timed(kernel, f)
    q, proj = timed(cokernel, f)
    im = timed(image, f)
    assert k.order * im.order == f.source.order
    assert im.order * q.order == f.target.order
    assert f.compose(incl).is_zero and proj.compose(f).is_zero
    assert incl.is_injective() and proj.is_surjective()
    if f.source.order <= 4096:
        assert k.order == brute_kernel_order(f)


def reference_cokernel(f):
    """Invariant factors of coker(f) from the integer SNF of [F | diag(c)]."""
    c = f.target.factors
    aug = [list(row) + [c[i] if j == i else 0 for j in range(len(c))]
           for i, row in enumerate(f.matrix)]
    _, d, _, _ = integer_smith_normal_form(aug)
    m = f.target.ring.modulus
    return tuple(g for g in (gcd(d[i][i], m) for i in range(len(c))) if g > 1)


@settings(max_examples=200, deadline=None)
@given(module_maps(max_rank=3))
def test_invariant_factors_match_the_integer_reference(f):
    k, incl = kernel(f)
    assert cokernel(f)[0].factors == reference_cokernel(f)
    assert k.factors == reference_cokernel(dual_map(f))
    assert image(f).factors == reference_cokernel(incl)


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


class TestCompose:
    """`ModuleMap.compose`, a sum of one composite, against one dense
    product (`reference.dense_compose`)."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_pairs_match_the_dense_product(self, seed):
        rng = random.Random(seed)
        ring = FiniteRing(rng.randint(4, 12))
        a, b, c = (random_module(rng, ring) for _ in range(3))
        if seed % 4 == 0:
            # through 0 the dense product has no rows to keep its width
            b = zero_module(ring)
            a, c = (FiniteModule(ring, (ring.modulus,) * rng.randint(1, 3))
                    for _ in range(2))
        f, g = random_map(rng, b, c), random_map(rng, a, b)
        assert f.compose(g) == dense_compose(f, g)
        other = random_module(rng, ring)
        if other != b:
            h = random_map(rng, a, other)
            for compose in (ModuleMap.compose, dense_compose):
                with pytest.raises(ValueError, match="maps are not composable"):
                    compose(f, h)

    def test_mismatched_endpoints_are_refused(self):
        a, b, z = cyclic(Z12, 4), FiniteModule(Z12, (2, 6)), zero_module(Z12)
        for f, g in [(zero_map(b, a), zero_map(a, a)),   # a -> a, then b -> a
                     (zero_map(z, a), zero_map(a, b)),   # into b, then out of 0
                     (zero_map(a, z), zero_map(z, z))]:  # into 0, then out of a
            for compose in (ModuleMap.compose, dense_compose):
                with pytest.raises(ValueError, match="maps are not composable"):
                    compose(f, g)


class TestModuleMapRefusals:
    # source Z/2 + Z/6 and target Z/4 + Z/12: every entry of row 0 must be
    # even, and row 1 needs a multiple of 6, then an even entry
    SOURCE, TARGET = FiniteModule(Z12, (2, 6)), FiniteModule(Z12, (4, 12))

    def test_ring_mismatch(self):
        with pytest.raises(ValueError, match="different rings"):
            ModuleMap(cyclic(FiniteRing(4), 2), cyclic(FiniteRing(8), 2), [[1]])

    @pytest.mark.parametrize("matrix", [[[0, 0]], [[0, 0], [0, 0], [0, 0]], []])
    def test_wrong_row_count(self, matrix):
        with pytest.raises(ValueError, match="matrix must be 2x2"):
            ModuleMap(self.SOURCE, self.TARGET, matrix)

    @pytest.mark.parametrize("matrix", [[[0, 0], [0]], [[1, 1], [0, 0, 0]]])
    def test_ragged_row(self, matrix):
        # the shape is refused before any entry, bad or not, is read
        with pytest.raises(ValueError, match="matrix must be 2x2"):
            ModuleMap(self.SOURCE, self.TARGET, matrix)

    @pytest.mark.parametrize("matrix, entry", [
        ([[0, 1], [1, 0]], "(0,1)"),     # the first in row-major order, not (1,0)
        ([[1, 0], [0, 1]], "(0,0)"),
        ([[0, 0], [6, 1]], "(1,1)"),     # only the last row is bad
        ([[2, 4], [1, 0]], "(1,0)"),
        ([[2, 2], [6, 1]], "(1,1)"),     # row 0 is good mod 4, though not mod 12
    ])
    def test_the_first_bad_entry_is_named(self, matrix, entry):
        with pytest.raises(ValueError) as refusal:
            ModuleMap(self.SOURCE, self.TARGET, matrix)
        assert str(refusal.value) == f"entry {entry} does not define a homomorphism"

    def test_the_accept_set_of_one_entry_maps(self):
        # Z/c -> Z/d, 1 |-> x, is a map exactly when x·c ≡ 0 (mod d)
        divisors = [2, 3, 4, 6, 12]
        for c in divisors:
            for d in divisors:
                for x in range(d):
                    if x * c % d == 0:
                        assert ModuleMap(cyclic(Z12, c), cyclic(Z12, d), [[x]]).matrix \
                            == ((x,),)
                    else:
                        with pytest.raises(ValueError, match=r"entry \(0,0\)"):
                            ModuleMap(cyclic(Z12, c), cyclic(Z12, d), [[x]])

    def test_an_unscaled_dual_is_refused(self):
        # the dual of Z/4 -> Z/2 (entry 1) has entry 2; entry 1 is no map Z/2 -> Z/4
        ring = FiniteRing(4)
        f = ModuleMap(cyclic(ring, 4), cyclic(ring, 2), [[1]])
        assert dual_map(f).matrix == ((2,),)
        with pytest.raises(ValueError, match="does not define a homomorphism"):
            ModuleMap(cyclic(ring, 2), cyclic(ring, 4), [[1]])

    def test_numpy_and_negative_entries_are_reduced(self):
        f = ModuleMap(self.SOURCE, self.TARGET,
                      np.array([[-2, np.int64(6)], [-6, -14]], dtype=np.int64))
        assert f.matrix == ((2, 2), (6, 10))
        assert all(type(x) is int for row in f.matrix for x in row)
        assert type(f.matrix) is tuple and all(type(r) is tuple for r in f.matrix)


def test_module_map_is_immutable():
    f = ModuleMap(cyclic(Z12, 4), cyclic(Z12, 2), [[1]])
    for name, value in [("source", cyclic(Z12, 2)), ("target", cyclic(Z12, 4)),
                        ("matrix", ((0,),)), ("note", 1)]:
        with pytest.raises(AttributeError):
            setattr(f, name, value)
    for name in ("source", "matrix"):
        with pytest.raises(AttributeError):
            delattr(f, name)
    assert not hasattr(f, "__dict__")
    assert (f.source, f.target, f.matrix) == (cyclic(Z12, 4), cyclic(Z12, 2), ((1,),))


def test_equal_hashes_do_not_make_maps_equal(monkeypatch):
    # every module and map hashed to 0: equality must still read the
    # modules and the matrix, not stop at the hash
    monkeypatch.setattr(finring, "hash", lambda value: 0, raising=False)
    a, b = cyclic(Z12, 4), FiniteModule(Z12, (2, 4))
    f = ModuleMap(a, b, [[1], [1]])
    g = ModuleMap(a, b, [[0], [1]])
    h = ModuleMap(a, b, [[3], [5]])  # f, read modulo the target factors
    assert hash(f) == hash(g) == hash(h) == hash(a) == hash(b) == 0
    assert f != g and g != f and f == h and h == f and f != a
    assert len({f, g, h}) == 2 and {f: 1, g: 2}[h] == 1
    assert ModuleMap(b, b, [[1, 0], [0, 1]]) != ModuleMap(b, b, [[1, 0], [0, 3]])


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
