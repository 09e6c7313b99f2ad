"""Finite-level etale spaces: a finite base set with one finite module
per point.

Sections over subsets, stalkwise duality, skyscraper families, the
finite case of the product/coproduct functors and the tensor-Hom
adjunction.  Over a finite base the product and the coproduct both
coincide with the module of global sections; `is_product` checks that
from the universal maps alone.  A section module reads its per-point maps
from the `finring.DirectSum` of its fibers, so each map is built on its
first read, once, and shared by every section module over the same fibers;
a section module whose maps are never read, such as one that only gives
its module's order, builds neither its point index nor the normalizing
matrices of the sum.
"""

from __future__ import annotations

import itertools
from math import gcd, prod

import numpy as np

from .errors import BudgetError
from .finring import (
    FiniteModule,
    FiniteRing,
    ModuleMap,
    hom_module,
    lazy_direct_sum,
    pontryagin_dual,
    zero_map,
    zero_module,
)

# `adjunction_check` refuses a fiber with more homs than this on either side
MAX_SIDE = 4096


class FiniteEtaleSpace:
    """A finite base (ordered point ids) with a module fiber per point."""

    def __init__(self, base, fibers: dict):
        base = tuple(base)
        if not base:
            raise ValueError("an etale space needs at least one base point")
        if len(set(base)) != len(base):
            raise ValueError("duplicate point ids in base")
        if set(fibers) != set(base):
            raise ValueError("fibers must be given at exactly the base points")
        rings = {m.ring for m in fibers.values()}
        if len(rings) > 1:
            raise ValueError("all fibers must share one ring")
        self.base = base
        self.fibers = dict(fibers)
        self.ring = rings.pop()

    def fiber(self, t) -> FiniteModule:
        return self.fibers[t]

    def __eq__(self, other):
        return (
            isinstance(other, FiniteEtaleSpace)
            and self.base == other.base
            and self.fibers == other.fibers
        )

    def __repr__(self):
        return f"FiniteEtaleSpace({self.base}, {self.fibers})"


def constant_space(base, module: FiniteModule) -> FiniteEtaleSpace:
    return FiniteEtaleSpace(base, {t: module for t in base})


class SectionModule:
    """Sections over a subset, with the canonical per-point maps.

    projection(t) is the evaluation map at t ("omicron"), injection(t) the
    inclusion of the fiber at t ("omega"): the maps of the summand at t of
    the direct sum of the fibers, which `finring.DirectSum` builds the
    first time each is read and keeps.  The point index is built on the
    first read too.  A point outside `points` is a KeyError.
    """

    __slots__ = ("module", "points", "_summed", "_index")

    def __init__(self, module: FiniteModule, points: tuple, summed=None):
        self.module = module
        self.points = points
        self._summed = summed
        self._index = None

    def _summand(self, t) -> int:
        if self._index is None:
            self._index = {t: i for i, t in enumerate(self.points)}
        return self._index[t]

    def injection(self, t) -> ModuleMap:
        return self._summed.injection(self._summand(t))

    def projection(self, t) -> ModuleMap:
        return self._summed.projection(self._summand(t))


def sections(e: FiniteEtaleSpace, subset=None) -> SectionModule:
    """The module of sections of e over `subset` (default: the whole base)."""
    if subset is None:
        pts = tuple(e.base)
    else:
        wanted = set(subset)
        pts = tuple(t for t in e.base if t in wanted)
        unknown = wanted - set(e.base)
        if unknown:
            raise ValueError(f"unknown point ids: {sorted(unknown)}")
    if not pts:
        return SectionModule(zero_module(e.ring), ())
    summed = lazy_direct_sum([e.fiber(t) for t in pts])
    return SectionModule(summed.total, pts, summed)


def product_finite(e: FiniteEtaleSpace) -> SectionModule:
    """The product over a finite base: the module of global sections."""
    return sections(e)


def coproduct_finite(e: FiniteEtaleSpace) -> SectionModule:
    """Over a finite base the coproduct equals the product."""
    return sections(e)


def is_product(e: FiniteEtaleSpace, sec: SectionModule) -> bool:
    """Whether `sec`, with its maps, is the product of the fibers of e.

    Checked from the maps, not from how `sec` was built: its order is
    the product of the fiber orders, and projection_s . injection_t is
    the identity for s = t and zero otherwise.  The injections then embed
    the direct sum of the fibers, which has the same order.
    """
    if sec.module.order != prod(e.fiber(t).order for t in e.base):
        return False
    return all(sec.projection(s).compose(sec.injection(t))
               == (e.fiber(t).identity_map() if s == t
                   else zero_map(e.fiber(t), e.fiber(s)))
               for s in e.base for t in e.base)


def dual_etale(e: FiniteEtaleSpace) -> FiniteEtaleSpace:
    return FiniteEtaleSpace(e.base, {t: pontryagin_dual(e.fiber(t)) for t in e.base})


class SkyscraperFamily:
    """Modules supported on a subset of the base.

    Kept distinct from etale spaces with zero fibers: over profinite bases
    skyscrapers fall outside the Hausdorff category, and only their
    products are used here.
    """

    def __init__(self, base, support, modules: dict, ring: FiniteRing | None = None):
        base = tuple(base)
        wanted = set(support)
        if not wanted <= set(base):
            raise ValueError("support must be a subset of the base")
        support = tuple(s for s in base if s in wanted)
        if set(modules) != set(support):
            raise ValueError("one module per support point required")
        if ring is None:
            if not modules:
                raise ValueError("an empty family must name its ring")
            ring = next(iter(modules.values())).ring
        if any(m.ring is not ring and m.ring != ring for m in modules.values()):
            raise ValueError("every module of the family must live over its ring")
        self.base = base
        self.support = support
        self.modules = dict(modules)
        self.ring = ring


def skyscraper_product(k: SkyscraperFamily) -> FiniteModule:
    """Product over the base of a skyscraper family: only the support counts."""
    mods = [k.modules[s] for s in k.support]
    if not mods:
        return zero_module(k.ring)
    return lazy_direct_sum(mods).total


def _annihilated_radices(module: FiniteModule, order: int) -> list[int]:
    """Orders of the cyclic factors of {z in module : order * z = 0}."""
    return [gcd(order, b) for b in module.factors]


def _annihilated_elements(module: FiniteModule, order: int):
    """Elements z of `module` with order * z = 0, in mixed-radix order."""
    ranges = [[t * (b // r) for t in range(r)]
              for r, b in zip(_annihilated_radices(module, order), module.factors)]
    return itertools.product(*ranges)


def _raw_tensor_orders(m: FiniteModule, n: FiniteModule):
    return [(j, i, gcd(a, b)) for j, a in enumerate(m.factors)
            for i, b in enumerate(n.factors)]


def _image_array(choices: list, rank: int, dtype) -> np.ndarray:
    """Every tuple of images, one per generator, as an (N, gens, rank) array.

    Rows run through itertools.product(*choices): the last generator
    varies fastest.
    """
    sizes = [len(c) for c in choices]
    count = prod(sizes)
    picks = np.indices(sizes).reshape(len(sizes), count)
    images = np.empty((count, len(choices), rank), dtype=dtype)
    for g, c in enumerate(choices):
        images[:, g] = np.array(c, dtype=dtype).reshape(len(c), rank)[picks[g]]
    return images


def _curried_tables(ft: FiniteModule, gt: FiniteModule, lt: FiniteModule,
                    gens, images: np.ndarray) -> np.ndarray:
    """The curried table y |-> (x |-> phi(x (x) y)) of every hom phi.

    phi sends the tensor generator (j, i) to images[:, g]; the table of
    phi is (|G|*|F|, rank L), rows running over y, then over x.  It is
    bilinear in the images, so all tables are one product of a
    coefficient array (|G|*|F|, gens) with the images, reduced once.
    """
    x = np.array(list(ft.elements()), dtype=object).reshape(ft.order, ft.rank)
    y = np.array(list(gt.elements()), dtype=object).reshape(gt.order, gt.rank)
    coef = np.empty((gt.order * ft.order, len(gens)), dtype=images.dtype)
    for g, (jj, ii, order) in enumerate(gens):
        coef[:, g] = (np.outer(y[:, ii], x[:, jj]) % order).ravel()
    factors = np.array(lt.factors, dtype=images.dtype)
    tables = np.matmul(coef, images) % factors
    return tables.astype(np.min_scalar_type(max(lt.factors, default=1) - 1))


def _count_distinct(rows: np.ndarray) -> int:
    """The number of distinct rows: rows of one integer dtype are equal
    exactly when their bytes are, and rows of width 0 count as one."""
    if rows.dtype == object:  # entries past 64 bits
        return len(set(map(tuple, rows.tolist())))
    return len(set(map(bytes, np.ascontiguousarray(rows))))


def _is_additive(images: np.ndarray, tables: np.ndarray, radices: list[int],
                 factors: np.ndarray) -> bool:
    """T(a + e) == T(a) + T(e) for every image tuple a and generator e.

    The image tuples are indexed in mixed radix (`radices`, last fastest),
    so a + e is found by index; its image tuple is checked too.  By
    induction on a word in the generators this is additivity on all pairs.
    """
    n = len(tables)
    if prod(radices) != n:
        return False
    idx = np.arange(n)
    stride = n
    for r in radices:
        stride //= r
        if r == 1:
            continue
        nxt = np.where(idx // stride % r == r - 1, idx - (r - 1) * stride, idx + stride)
        for arr in (images, tables):
            shifted = np.add(arr, arr[stride], dtype=images.dtype) % factors
            if not np.array_equal(arr[nxt], shifted):
                return False
    return True


def adjunction_check(f: FiniteEtaleSpace, g: FiniteEtaleSpace,
                     l: FiniteEtaleSpace) -> dict:
    """Verify hom(F (x) G, L) = hom(G, Hom(F, L)) by explicit enumeration.

    Works fiberwise: both hom sets decompose over the base, and the
    currying bijection phi |-> (y |-> (x |-> phi(x (x) y))) is checked to
    be an additive bijection at every point.  A fiber whose hom sets
    exceed `MAX_SIDE` is refused with BudgetError before anything is
    built.
    """
    if not (f.base == g.base == l.base):
        raise ValueError("common base required")
    report = {"fibers": {}, "ok": True}
    for t in f.base:
        ft, gt, lt = f.fiber(t), g.fiber(t), l.fiber(t)
        # a generator of order 1 has only the zero image
        gens = [gen for gen in _raw_tensor_orders(ft, gt) if gen[2] > 1]
        choices = [list(_annihilated_elements(lt, order)) for _, _, order in gens]
        lhs_count = prod(len(c) for c in choices)
        rhs_count = hom_module(gt, hom_module(ft, lt)).order
        if lhs_count > MAX_SIDE or rhs_count > MAX_SIDE:
            raise BudgetError(f"adjunction fiber at {t} exceeds size bound")

        # no overflow: in the products below, nor in a sum of two entries
        top = max(lt.factors, default=1) - 1
        bound = max(sum(order - 1 for _, _, order in gens) * top, 2 * top)
        dtype = np.min_scalar_type(bound)
        images = _image_array(choices, lt.rank, dtype)
        tables = _curried_tables(ft, gt, lt, gens, images)
        distinct = _count_distinct(tables.reshape(lhs_count, tables[0].size))
        if distinct < lhs_count:
            report["ok"] = False
            report["fibers"][t] = {"verdict": "collision"}
            continue
        radices = [r for _, _, order in gens
                   for r in _annihilated_radices(lt, order)]
        additive = _is_additive(images, tables, radices,
                                np.array(lt.factors, dtype=dtype))
        fiber_ok = distinct == lhs_count == rhs_count and additive
        report["fibers"][t] = {
            "lhs": lhs_count,
            "rhs": rhs_count,
            "bijective": distinct == rhs_count,
            "additive": additive,
            "verdict": "iso" if fiber_ok else "mismatch",
        }
        if not fiber_ok:
            report["ok"] = False
    return report
