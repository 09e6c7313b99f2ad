"""The acceptance suite: eight oracle-backed criteria.

Each criterion_N() function runs one battery and returns a report dict
with a boolean `passed`, a `detail` payload and its `elapsed` seconds.
The CLI `selftest` subcommand and the test suite both drive these, so
there is exactly one definition of "done".  Randomized batteries read
their seed from the PROFLQ_SEED environment variable (default 0).
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time

from . import catalog, etale, groupcoh as gc, lq, repv, sep, tower
from .errors import BudgetError, require
from .finring import (
    FiniteRing,
    FiniteModule,
    ModuleMap,
    cokernel,
    cyclic,
    dual_map,
    kernel,
    image,
    lazy_direct_sum,
    pontryagin_dual,
    sum_of_composites,
    zero_module,
)
from .groups import (
    GroupHom,
    all_subgroups,
    cyclic_group,
    direct_product,
    identity_hom,
    subgroup_group,
    symmetric_group,
)
from .repv import ElementaryAbelian


# instances per randomized battery
DUALITY_TRIALS = 500
TOWER_MAP_TRIALS = 100
ADJUNCTION_TRIALS = 100


def _seed() -> int:
    return int(os.environ.get("PROFLQ_SEED", "0"))


def _timed(fn):
    def wrapper():
        t0 = time.monotonic()
        report = fn()
        report["elapsed"] = round(time.monotonic() - t0, 3)
        return report
    return wrapper


# -- shared random generators ------------------------------------------------


def _random_module(rng, ring):
    factors = []
    order = 1
    divisors = [d for d in range(2, ring.modulus + 1) if ring.modulus % d == 0]
    while divisors and rng.random() < 0.7:
        d = rng.choice([x for x in divisors if x % (factors[-1] if factors else 1) == 0]
                       or divisors)
        if factors and d % factors[-1] != 0:
            continue
        if order * d > 256:
            break
        factors.append(d)
        order *= d
    return FiniteModule(ring, tuple(factors))


def _random_map(rng, src, dst):
    rows = []
    for b in dst.factors:
        row = []
        for a in src.factors:
            g = math.gcd(a, b)
            row.append(rng.randrange(g) * (b // g))
        rows.append(row)
    return ModuleMap(src, dst, rows)


# -- criteria ----------------------------------------------------------------


@_timed
def criterion_1() -> dict:
    """Duality suite: double dual, exactness reversal, (sum)^dual = prod."""
    rng = random.Random(_seed() + 1)
    rings = [FiniteRing(m) for m in (4, 6, 8, 9, 12)]
    checked = 0
    for _ in range(DUALITY_TRIALS):
        ring = rng.choice(rings)
        a = _random_module(rng, ring)
        b = _random_module(rng, ring)
        f = _random_map(rng, a, b)
        # double dual naturality: dualizing twice gives back the matrix
        dd = dual_map(dual_map(f))
        require(dd.matrix == f.matrix, "double dual is not the identity")
        # exactness reversal on 0 -> K -> A -> A/K -> 0 with K = ker f
        k, inc = kernel(f)
        q, proj = cokernel(inc)
        inc_d, proj_d = dual_map(inc), dual_map(proj)
        require(proj_d.is_injective(), "dual of a surjection must inject")
        require(inc_d.is_surjective(), "dual of an injection must surject")
        mid_ker, _ = kernel(inc_d)
        mid_img = image(proj_d)
        require(mid_ker.order == mid_img.order, "dual sequence inexact")
        require(image(inc_d.compose(proj_d)).order == 1, "dual comp not zero")
        # (A + B)^dual -> A^dual + B^dual, xi -> (xi . inj_A, xi . inj_B),
        # is an isomorphism
        s = lazy_direct_sum([a, b])
        duals = lazy_direct_sum([pontryagin_dual(a), pontryagin_dual(b)])
        psi = sum_of_composites(pontryagin_dual(s.total), duals.total, [
            (duals.injection(i), dual_map(s.injection(i))) for i in (0, 1)])
        require(psi.is_isomorphism(), "duality does not swap sum/product")
        checked += 1
    return {"name": "duality suite", "passed": True,
            "detail": {"instances": checked}}


@_timed
def criterion_2() -> dict:
    """Products/coproducts: sections, clopen splitting, skyscrapers,
    truncation components, levelwise density."""
    ring = FiniteRing(12)
    mods = [cyclic(ring, 2), cyclic(ring, 4), cyclic(ring, 3),
            cyclic(ring, 12), zero_module(ring)]
    bases = 0
    for n in range(1, 7):
        for pick in itertools.product(range(len(mods)), repeat=min(n, 3)):
            fam = {i: mods[pick[i % len(pick)]] for i in range(n)}
            space = etale.FiniteEtaleSpace(range(n), fam)
            sec = etale.sections(space, list(range(n)))
            # product over the base = module of global sections
            prod = etale.product_finite(space)
            require(etale.is_product(space, prod), "product != sections")
            # clopen splitting: sections over a partition multiply up
            s1 = etale.sections(space, list(range(n // 2)))
            s2 = etale.sections(space, list(range(n // 2, n)))
            require(s1.module.order * s2.module.order == sec.module.order,
                    "clopen splitting fails")
            # skyscraper products agree with the plain product
            sky = etale.skyscraper_product(
                etale.SkyscraperFamily(range(n), range(n), fam, ring=ring))
            require(sky.order == prod.module.order, "skyscraper product differs")
            bases += 1
    # truncation-level components and density over small towers
    towers = 0
    rng = random.Random(_seed() + 2)
    for depth in (1, 2, 3):
        for _ in range(6):
            t = _random_space_tower(rng, depth, max_points=8)
            threads = t.threads()
            ind = tower.product_ind(
                tower.constant_ind_etale(cyclic(ring, 3), t))
            comp = tower.canonical_components(ind, threads)
            require(all(lv["joint_kernel_trivial"] for lv in comp["levels"]),
                    "components have a joint kernel", comp)
            pro = tower.coproduct_pro(
                tower.constant_pro_etale(cyclic(ring, 4), t))
            comp2 = tower.canonical_components(pro, threads)
            require(comp2["ok"], "density fails at a truncation", comp2)
            towers += 1
    return {"name": "product/coproduct suite", "passed": True,
            "detail": {"bases": bases, "towers": towers}}


def _random_space_tower(rng, depth, max_points):
    """Random chain of surjections with `depth` transitions."""
    sizes = [rng.randrange(1, max_points + 1)]
    for _ in range(depth):
        sizes.append(rng.randrange(sizes[-1], max_points + 1))
    levels = [list(range(s)) for s in sizes]
    transitions = []
    for k in range(depth):
        lo, hi = sizes[k], sizes[k + 1]
        images = list(range(lo)) + [rng.randrange(lo) for _ in range(hi - lo)]
        rng.shuffle(images)
        transitions.append({x: images[x] for x in range(hi)})
    return tower.SpaceTower(levels, transitions)


def _random_tower_map(rng):
    """A fiberwise-surjective TowerMap onto a random base tower of depth 2
    with at most 5 points a level."""
    depth = 2
    base = _random_space_tower(rng, depth, max_points=5)
    sizes = [len(lv) for lv in base.levels]
    src_sizes = [s + rng.randrange(0, 3) for s in sizes]
    vertical = []
    for k in range(depth + 1):
        v = list(range(sizes[k])) + [rng.randrange(sizes[k])
                                     for _ in range(src_sizes[k] - sizes[k])]
        vertical.append({x: v[x] for x in range(src_sizes[k])})
    src_transitions = []
    for k in range(depth):
        t = {}
        used = set()
        for x in range(src_sizes[k + 1]):
            down = base.transitions[k][vertical[k + 1][x]]
            choices = [y for y in range(src_sizes[k]) if vertical[k][y] == down]
            t[x] = rng.choice(choices)
            used.add(t[x])
        for y in range(src_sizes[k]):
            if y in used:
                continue
            fiber = [x for x in range(src_sizes[k + 1])
                     if base.transitions[k][vertical[k + 1][x]] == vertical[k][y]]
            if not fiber:
                return None
            t[rng.choice(fiber)] = y
        if set(t.values()) != set(range(src_sizes[k])):
            return None
        src_transitions.append(t)
    try:
        src = tower.SpaceTower([list(range(s)) for s in src_sizes],
                               src_transitions)
        return tower.TowerMap(src, base, vertical)
    except ValueError:
        return None


@_timed
def criterion_3() -> dict:
    """Free sum/product and the decomposition theorem on tower maps."""
    rng = random.Random(_seed() + 3)
    ring = FiniteRing(12)
    module = cyclic(ring, 4)
    done = 0
    while done < TOWER_MAP_TRIALS:
        tm = _random_tower_map(rng)
        if tm is None:
            continue
        report = tower.decomposition_check(module, tm)
        require(report["ok"], "decomposition theorem fails", report)
        done += 1
    return {"name": "free sum/product decomposition", "passed": True,
            "detail": {"tower_maps": done}}


@_timed
def criterion_4() -> dict:
    """Tensor-Hom adjunction by explicit bijection."""
    rng = random.Random(_seed() + 4)
    ring = FiniteRing(12)
    mods = [cyclic(ring, 2), cyclic(ring, 3), cyclic(ring, 4),
            FiniteModule(ring, (2, 2)), FiniteModule(ring, (2, 6)),
            cyclic(ring, 12), zero_module(ring), FiniteModule(ring, (4, 4))]

    def space(n):
        return etale.FiniteEtaleSpace(
            range(n), {i: rng.choice(mods) for i in range(n)})

    done = 0
    while done < ADJUNCTION_TRIALS:
        n = rng.randrange(1, 4)
        f, g, l = space(n), space(n), space(n)
        if any(f.fiber(t).order > 16 or g.fiber(t).order > 16
               or l.fiber(t).order > 16 for t in range(n)):
            continue
        try:
            report = etale.adjunction_check(f, g, l)
        except BudgetError:
            continue
        require(report["ok"], "tensor-hom adjunction fails", report)
        done += 1
    return {"name": "tensor-hom adjunction", "passed": True,
            "detail": {"instances": done}}


@_timed
def criterion_5() -> dict:
    """Cohomology oracles and the exhaustive Shapiro sweep."""
    for p in (2, 3, 5):
        g = cyclic_group(p)
        require(gc.cohomology(g, gc.trivial_module(g, p), 4) == (1,) * 5,
                f"H^*(C{p}; F_{p}) oracle fails")
    k4 = direct_product(cyclic_group(2), cyclic_group(2))
    require(gc.cohomology(k4, gc.trivial_module(k4, 2), 4) == (1, 2, 3, 4, 5),
            "H^*(C2 x C2; F_2) oracle fails")
    coprime = 0
    for g in catalog.all_groups():
        for p in (2, 3, 5):
            if g.order % p == 0:
                continue
            dims = gc.cohomology(g, gc.trivial_module(g, p), 3)
            require(dims == (1, 0, 0, 0), f"H^*({g.name}; F_{p}) = {dims}")
            coprime += 1
    shapiro_pairs = 0
    for g in catalog.all_groups():
        for s in all_subgroups(g):
            for p in (2, 3):
                rep = gc.shapiro_check(g, s, p, 3)
                require(rep["equal"], f"Shapiro fails in {g.name} at p={p}",
                        {"subgroup": s, "report": rep})
                shapiro_pairs += 1
    return {"name": "cohomology oracle", "passed": True,
            "detail": {"coprime_instances": coprime,
                       "shapiro_pairs": shapiro_pairs}}


@_timed
def criterion_6() -> dict:
    """Lannes-Quillen conformance sweep over all groups of order <= 24."""
    checks = 0
    for g in catalog.all_groups():
        for p in (2, 3):
            for r in (1, 2):
                v = ElementaryAbelian(p, r)
                report = lq.lq_check(v, g, 3)
                case = f"{g.name}, p={p}, r={r}"
                require(all(report["verdict"]), f"lq_check fails: {case}", report)
                classes, _ = repv.rep_classes(v, g)
                require(lq.degree0(v, g) == len(classes), f"degree 0: {case}")
                split = lq.strata_split(v, g, 3)
                require(split["stratum0_is_group_cohomology"],
                        f"stratum 0 is not H^*(G): {case}", split)
                require(split["totals_match_lhs"], f"strata totals: {case}", split)
                checks += 1
    return {"name": "lannes-quillen conformance", "passed": True,
            "detail": {"instances": checks}}


@_timed
def criterion_7() -> dict:
    """Profinite levelwise run over Z/2 <- Z/4 <- Z/8."""
    t = gc.cyclic_p_tower(2, 3)
    report = lq.profinite_lq(ElementaryAbelian(2, 1), t, 3)
    for level in report["levels"]:
        require(all(level["verdict"]), "a level fails lq_check", level)
        require(len(level["classes"]) == 2, "a level has other than 2 classes", level)
    require(report["nontrivial_limit_classes"] == [], "a nontrivial limit class",
            report["nontrivial_limit_classes"])
    require(report["persistent_threads"] == [(0, 0, 0)], "persistent threads",
            report["persistent_threads"])
    return {"name": "profinite levelwise run", "passed": True,
            "detail": {"levels": [level["lhs"] for level in report["levels"]],
                       "threads": [t_["classes"]
                                   for t_ in report["rep_tower"]["threads"]]}}


@_timed
def criterion_8() -> dict:
    """Separability findings: A4 in S4 fails fullness, S3 in S4 injects,
    identities pass everywhere."""
    s4 = symmetric_group(4)
    a4_elems = next(s for s in all_subgroups(s4) if len(s) == 12)
    a4, emb = subgroup_group(s4, a4_elems, name="A4")
    f = GroupHom(a4, s4, emb)
    v3 = ElementaryAbelian(3, 1)
    classes, _ = repv.rep_classes(v3, a4)
    witnesses = []
    for i, c in enumerate(classes):
        if c.image_rank != 1:
            continue
        rep = sep.fullness_check(v3, f, i)
        require(not rep["surjective"], "A4 in S4 must fail fullness", rep)
        w = rep["witness"]
        require(w is not None and s4.element_order(w["realized_by"]) == 2,
                "no involution witnesses fullness", rep)
        witnesses.append(w["realized_by"])
    require(witnesses, "A4 in S4 has no fullness witness")

    s3_elems = next(s for s in all_subgroups(s4) if len(s) == 6)
    s3, emb3 = subgroup_group(s4, s3_elems, name="S3")
    fv = sep.fv_map(ElementaryAbelian(2, 1), GroupHom(s3, s4, emb3))
    require(fv["injective"], "S3 in S4 must be injective on Rep", fv)

    identity_checks = 0
    for g in catalog.all_groups():
        for p in (2, 3):
            fid = identity_hom(g)
            require(sep.fv_map(ElementaryAbelian(p, 1), fid)["injective"],
                    f"identity of {g.name} not injective at p={p}")
            require(sep.sp_functor_check(fid, p)["equivalence"],
                    f"identity of {g.name} not an S_p equivalence at p={p}")
            identity_checks += 1
    return {"name": "separability findings", "passed": True,
            "detail": {"a4_witnesses": witnesses,
                       "identity_checks": identity_checks}}


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8]

