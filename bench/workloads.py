"""The four benchmark workloads, their seeded inputs and their checks.

A workload is a sweep over inputs: `catalog_inputs(seed, max_order,
relabel)` builds the groups of the three group workloads and
`towers_inputs(seed)` the instances of `module_towers`.  A sweep is a list
of units, and a unit yields `(key, check)` pairs.  A check is a callable that runs the
public API of the library, raises `Mismatch` when an internal
consistency condition fails and returns its result in a form that does
not depend on element labelling.  `run_checks` times each check, compares
the result with `expected.json` under its key and counts what failed.

Every seed hands the library the catalog's groups as bare multiplication
tables through `jsonio.load_group({"table": ...})`, in the catalog's own
element labelling and order, which is what `proflq selftest` and
`{"catalog": ...}` inputs see.  The seed drives the maps and transitions
of the `module_towers` instances; the group workloads are the same at
every seed.

`relabel=True` renames the elements of every group by a random permutation
that fixes the identity, drawn from the seed.  The results must not change
(the tests check this), but the work does: free-resolution size depends on
element numbering.  Timed runs therefore keep the catalog labelling; see
README.md for the measurements behind this and behind the fixed order.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from pathlib import Path

import numpy as np

from proflq import catalog, etale, groupcoh as gc, jsonio, lq, repv, sep, tower
from proflq.finring import (
    FiniteModule,
    FiniteRing,
    ModuleMap,
    cokernel,
    cyclic,
    direct_sum,
    dual_map,
    image,
    is_isomorphic,
    kernel,
    pontryagin_dual,
    zero_module,
)
from proflq.groups import GroupHom, all_subgroups, identity_hom, subgroup_group
from proflq.repv import ElementaryAbelian

EXPECTED_PATH = Path(__file__).with_name("expected.json")
BUDGET_ERRORS = (gc.BudgetError, repv.BudgetError, tower.BudgetError)
K_MAX = 3


class Mismatch(Exception):
    """A check whose result contradicts theory or the expected value."""


def _require(condition, message):
    if not condition:
        raise Mismatch(message)


# -- inputs ------------------------------------------------------------------


def relabelled_table(table, rng: random.Random) -> list:
    """The table of the same group after renaming element x to perm[x]."""
    n = len(table)
    perm = np.array([0] + rng.sample(range(1, n), n - 1), dtype=np.int64)
    out = np.empty((n, n), dtype=np.int64)
    out[np.ix_(perm, perm)] = perm[np.asarray(table)]
    return out.tolist()


def catalog_inputs(seed: int, max_order: int, relabel: bool = False) -> list:
    rng = random.Random(seed)
    return [jsonio.load_group({"name": g.name, "table": relabelled_table(g.table, rng)
                               if relabel else g.table.tolist()})
            for g in catalog.all_groups(max_order)]


# -- coh_shapiro ---------------------------------------------------------------


def coh_shapiro(groups: list) -> list:
    return [_coh_group(g) for g in groups]


def _coh_group(g):
    subs = []

    def subgroups():
        subs.extend(all_subgroups(g))
        return sorted(len(s) for s in subs)

    yield f"coh|{g.name}|subgroups", subgroups
    for s in subs:
        for p in (2, 3):
            yield f"coh|{g.name}|shapiro|p{p}", lambda s=s, p=p: _shapiro(g, s, p)
    for p in (2, 3, 5):
        if g.order % p:
            yield f"coh|{g.name}|coprime|p{p}", lambda p=p: _coprime(g, p)


def _coprime(g, p):
    dims = gc.cohomology(g, gc.trivial_module(g, p), K_MAX)
    _require(dims == (1,) + (0,) * K_MAX, f"coprime H^*({g.name}; F_{p}) = {dims}")
    return dims


def _shapiro(g, s, p):
    rep = gc.shapiro_check(g, s, p, K_MAX)
    _require(rep["equal"], f"Shapiro fails for {g.name}, |H|={len(s)}, p={p}: {rep}")
    return [len(s), rep["rhs"]]


# -- lq_sweep ------------------------------------------------------------------


def lq_sweep(groups: list) -> list:
    return [_one(f"lq|{g.name}|p{p}|r{r}", lambda g=g, p=p, r=r: _lq(g, p, r))
            for g in groups for p in (2, 3) for r in (1, 2)]


def _one(key, check):
    yield key, check


def _lq(g, p, r):
    v = ElementaryAbelian(p, r)
    report = lq.lq_check(v, g, K_MAX)
    classes, _ = repv.rep_classes(v, g)
    _require(lq.degree0(v, g) == len(classes), f"degree0 != |Rep| for {g.name}")
    split = lq.strata_split(v, g, K_MAX)
    _require(split["stratum0_is_group_cohomology"] and split["totals_match_lhs"],
             f"strata do not reconcile for {g.name}, p={p}, r={r}")
    return {"lhs": report["lhs"], "rhs_total": report["rhs_total"],
            "classes": len(classes)}


# -- sep_sweep -----------------------------------------------------------------


def sep_sweep(groups: list) -> list:
    units = [_one(f"sep|{g.name}|p{p}", lambda g=g, p=p: _sep_identity(g, p))
             for g in groups for p in (2, 3)]
    s4 = next((g for g in groups if g.name == "S4"), None)
    if s4 is not None:
        units += [_a4_in_s4(s4), _one("sep|S3<S4|fv|p2", lambda: _s3_in_s4(s4))]
    return units


def _sep_identity(g, p):
    fid = identity_hom(g)
    fv = sep.fv_map(ElementaryAbelian(p, 1), fid)
    _require(fv["injective"] and fv["surjective"], f"identity of {g.name} not bijective")
    sp = sep.sp_functor_check(fid, p)
    _require(sp["equivalence"], f"identity of {g.name} fails S_{p}: {sp}")
    return {"classes": len(fv["mapping"])}


def _subgroup_hom(s4, order):
    elems = next(s for s in all_subgroups(s4) if len(s) == order)
    sub, emb = subgroup_group(s4, elems)
    return GroupHom(sub, s4, emb)


def _a4_in_s4(s4):
    """A4 in S4 at p = 3 fails fullness, with an order-2 witness per class."""
    v = ElementaryAbelian(3, 1)
    state = {}

    def classes():
        state["f"] = _subgroup_hom(s4, 12)
        found, _ = repv.rep_classes(v, state["f"].source)
        state["rank1"] = [i for i, c in enumerate(found) if c.image_rank == 1]
        return len(state["rank1"])

    yield "sep|A4<S4|rank1_classes|p3", classes
    for i in state.get("rank1", ()):
        yield "sep|A4<S4|fullness|p3", lambda i=i: _a4_fullness(s4, state["f"], v, i)


def _a4_fullness(s4, f, v, i):
    rep = sep.fullness_check(v, f, i)
    witness = rep["witness"]
    _require(not rep["surjective"] and witness is not None,
             "A4 in S4 must fail fullness at p = 3, with a witness")
    return {"surjective": rep["surjective"], "eta_order": rep["eta_order"],
            "mu_order": rep["mu_order"],
            "witness_order": s4.element_order(witness["realized_by"])}


def _s3_in_s4(s4):
    fv = sep.fv_map(ElementaryAbelian(2, 1), _subgroup_hom(s4, 6))
    return {"injective": fv["injective"], "surjective": fv["surjective"]}


# -- module_towers -------------------------------------------------------------

# The instances of acceptance criteria 1-4, in the same numbers and at the
# same sizes, drawn by this module from public constructors.
COUNTS = {"duality": 500, "sections": 530, "truncation": 18, "decomposition": 100,
          "adjunction": 100}
DUALITY_RINGS = (4, 6, 8, 9, 12)
TOWER_RING = 12
ADJUNCTION_SIDE = 4096  # adjunction_check's default max_side, as in criterion 4


def _divisor_chain(rng, m, max_order):
    """A random invariant-factor chain d_1 | d_2 | ... of divisors of m."""
    factors, order = [], 1
    while rng.random() < 0.7:
        options = [d for d in range(2, m + 1)
                   if m % d == 0 and d % (factors[-1] if factors else 1) == 0
                   and order * d <= max_order]
        if not options:
            break
        factors.append(rng.choice(options))
        order *= factors[-1]
    return tuple(factors)


def _random_map(rng, src, dst):
    """Each generator of Z/a goes to a multiple of b / gcd(a, b) in Z/b."""
    return ModuleMap(src, dst, [[rng.randrange(math.gcd(a, b)) * (b // math.gcd(a, b))
                                 for a in src.factors] for b in dst.factors])


def _random_space_tower(shape, rng, depth, max_points):
    sizes = [shape.randint(1, max_points)]
    transitions = []
    for _ in range(depth):
        lo = sizes[-1]
        hi = shape.randint(lo, max_points)
        images = list(range(lo)) + [rng.randrange(lo) for _ in range(hi - lo)]
        rng.shuffle(images)
        transitions.append(dict(enumerate(images)))
        sizes.append(hi)
    return tower.SpaceTower([range(s) for s in sizes], transitions)


def _fiber_sizes(shape, points):
    """One source point over each base point, and up to two more."""
    sizes = dict.fromkeys(points, 1)
    for _ in range(shape.randrange(3)):
        sizes[shape.choice(points)] += 1
    return sizes


def _random_tower_map(shape, rng, depth, max_points):
    """A TowerMap onto a random base, with a few base points covered twice."""
    base = _random_space_tower(shape, rng, depth, max_points)
    fibers = [_fiber_sizes(shape, base.levels[0])]
    transitions = []
    for k, tr in enumerate(base.transitions):
        upper = _fiber_sizes(shape, base.levels[k + 1])
        for s_low in base.levels[k]:
            over = [s for s in base.levels[k + 1] if tr[s] == s_low]
            while sum(upper[s] for s in over) < fibers[k][s_low]:
                upper[rng.choice(over)] += 1
        fibers.append(upper)
        step = {}
        for s_low in base.levels[k]:
            points = [(s, i) for s in base.levels[k + 1] if tr[s] == s_low
                      for i in range(upper[s])]
            rng.shuffle(points)
            m = fibers[k][s_low]
            for j, pt in enumerate(points):
                step[pt] = (s_low, j if j < m else rng.randrange(m))
        transitions.append(step)
    levels = [[(s, i) for s, n in f.items() for i in range(n)] for f in fibers]
    source = tower.SpaceTower(levels, transitions)
    return tower.TowerMap(source, base, [{pt: pt[0] for pt in lv} for lv in levels])


def _fiber_count(module, order):
    """Number of elements of `module` killed by `order`."""
    return math.prod(math.gcd(order, d) for d in module.factors)


def _adjunction_side(f, g, l):
    """|hom(F (x) G, L)| for one fiber triple, from the invariant factors."""
    return math.prod(_fiber_count(l, math.gcd(a, b)) for a in f.factors for b in g.factors)


def _shape(kind, i):
    """The generator of instance i's sizes: the same at every seed."""
    return random.Random(f"{kind}{i}")


def towers_inputs(seed: int) -> list:
    """The module_towers instances for one seed.

    The sizes of each instance (rings, modules, tower levels) come from
    `_shape`, so every seed gets the same mix of sizes and about the same
    work.  The seed draws the maps of the duality instances and the
    transitions of the towers and tower maps.  On an earlier mix, sizes
    drawn from the seed too made the p90 of check times spread 0.15
    between seeds.
    """
    rng, instances = random.Random(seed), []
    for i in range(COUNTS["duality"]):
        shape = _shape("duality", i)
        ring = FiniteRing(shape.choice(DUALITY_RINGS))
        a = FiniteModule(ring, _divisor_chain(shape, ring.modulus, 256))
        b = FiniteModule(ring, _divisor_chain(shape, ring.modulus, 256))
        instances.append(("duality", _random_map(rng, a, b)))
    ring = FiniteRing(TOWER_RING)
    # Criterion 2's bases: every pattern of up to three of these fibers,
    # repeated around bases of 1 to 6 points.
    fibers = [cyclic(ring, 2), cyclic(ring, 4), cyclic(ring, 3), cyclic(ring, 12),
              zero_module(ring)]
    for n in range(1, 7):
        for pick in itertools.product(fibers, repeat=min(n, 3)):
            family = {t: pick[t % len(pick)] for t in range(n)}
            instances.append(("sections", etale.FiniteEtaleSpace(range(n), family)))
    for i in range(COUNTS["truncation"]):
        depth = 1 + i * 3 // COUNTS["truncation"]
        space_tower = _random_space_tower(_shape("truncation", i), rng, depth, 8)
        instances.append(("truncation", (ring, space_tower)))
    module = cyclic(ring, 4)
    for i in range(COUNTS["decomposition"]):
        tower_map = _random_tower_map(_shape("decomposition", i), rng, 2, 5)
        instances.append(("decomposition", (module, tower_map)))
    # Criterion 4's fibers; a triple whose hom set exceeds ADJUNCTION_SIDE
    # is skipped, as adjunction_check would refuse it.
    fibers = [cyclic(ring, 2), cyclic(ring, 3), cyclic(ring, 4),
              FiniteModule(ring, (2, 2)), FiniteModule(ring, (2, 6)), cyclic(ring, 12),
              zero_module(ring), FiniteModule(ring, (4, 4))]
    tried = made = 0
    while made < COUNTS["adjunction"]:
        shape = _shape("adjunction", tried)
        tried += 1
        n = shape.randint(1, 3)
        f, g, l = ({t: shape.choice(fibers) for t in range(n)} for _ in range(3))
        if any(_adjunction_side(f[t], g[t], l[t]) > ADJUNCTION_SIDE for t in range(n)):
            continue
        instances.append(("adjunction", tuple(etale.FiniteEtaleSpace(range(n), s)
                                              for s in (f, g, l))))
        made += 1
    assert len(instances) == sum(COUNTS.values())
    return instances


def module_towers(instances: list) -> list:
    checks = {"duality": _duality, "sections": _sections, "truncation": _truncation,
              "decomposition": _decomposition, "adjunction": _adjunction}
    return [_one(f"towers|{kind}", lambda c=checks[kind], x=x: c(x))
            for kind, x in instances]


def _duality(f):
    _require(dual_map(dual_map(f)).matrix == f.matrix, "double dual is not the identity")
    k, inc = kernel(f)
    q, proj = cokernel(inc)
    inc_d, proj_d = dual_map(inc), dual_map(proj)
    _require(proj_d.is_injective() and inc_d.is_surjective(),
             "dualizing 0 -> K -> A -> A/K -> 0 is not exact at the ends")
    _require(k.order * q.order == f.source.order, "|K| |A/K| != |A|")
    _require(kernel(inc_d)[0].order == image(proj_d).order, "dual sequence inexact")
    total, _, _ = direct_sum([f.source, f.target])
    dual_sum, _, _ = direct_sum([pontryagin_dual(f.source), pontryagin_dual(f.target)])
    _require(is_isomorphic(pontryagin_dual(total), dual_sum),
             "duality does not turn sums into products")
    return None


def _sections(space):
    orders = {t: space.fiber(t).order for t in space.base}
    whole = etale.product_finite(space)
    _require(whole.module.order == math.prod(orders.values()), "sections != product")
    half = len(space.base) // 2
    lo, hi = space.base[:half], space.base[half:]
    _require(etale.sections(space, lo).module.order
             * etale.sections(space, hi).module.order == whole.module.order,
             "clopen splitting fails")
    support = [t for t in space.base if orders[t] > 1]
    sky = etale.SkyscraperFamily(space.base, support,
                                 {t: space.fiber(t) for t in support}, ring=space.ring)
    _require(etale.skyscraper_product(sky).order == whole.module.order,
             "skyscraper product != product")
    return None


def _truncation(instance):
    """Components at every truncation: a product tower and a coproduct tower."""
    ring, space_tower = instance
    threads = space_tower.threads()
    ind = tower.product_ind(tower.constant_ind_etale(cyclic(ring, 3), space_tower))
    report = tower.canonical_components(ind, threads)
    _require(all(lv["joint_kernel_trivial"] for lv in report["levels"]),
             "product tower: a truncation has a nontrivial joint kernel")
    pro = tower.coproduct_pro(tower.constant_pro_etale(cyclic(ring, 4), space_tower))
    _require(tower.canonical_components(pro, threads)["ok"],
             "coproduct tower: density fails at a truncation")
    return None


def _decomposition(instance):
    module, pi = instance
    report = tower.decomposition_check(module, pi)
    _require(report["ok"], f"decomposition fails: {report}")
    for k, level in enumerate(report["levels"]):
        _require(level["grouped_order"] == level["flat_order"]
                 == module.order ** len(pi.source.levels[k]), "free product order")
    return None


def _adjunction(spaces):
    f, g, l = spaces
    report = etale.adjunction_check(f, g, l)
    _require(report["ok"], f"adjunction fails: {report}")
    for t in f.base:
        _require(report["fibers"][t]["lhs"] == _adjunction_side(
            f.fiber(t), g.fiber(t), l.fiber(t)), f"|hom| miscounted at {t}")
    return None


WORKLOADS = {"coh_shapiro": coh_shapiro, "lq_sweep": lq_sweep, "sep_sweep": sep_sweep,
             "module_towers": module_towers}


# -- running -------------------------------------------------------------------


def canonical(value):
    """JSON round trip: tuples become lists, so results compare as stored."""
    return json.loads(json.dumps(value))


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def run_checks(units, expected: dict | None, between=None) -> dict:
    """Run every check in a closed loop; expected=None records results.

    `between`, when given, is called before each check, outside its time.
    A check fails on an exception, on a budget refusal or on a result that
    differs from the expected one.  The outcomes are counted apart, since a
    budget refusal is a failure but not a wrong answer.
    """
    remaining = {k: list(v) for k, v in (expected or {}).items()}
    recorded: dict = {}
    times, failures = [], []
    status = {"ok": 0, "budget": 0, "mismatch": 0, "error": 0}
    for unit in units:
        for key, check in unit:
            if between is not None:
                between()
            t0 = time.perf_counter()
            try:
                value = check()
                outcome = "ok"
            except BUDGET_ERRORS as exc:
                outcome, value = "budget", repr(exc)
            except (Mismatch, lq.LqError) as exc:
                outcome, value = "mismatch", repr(exc)
            except Exception as exc:  # any crash is a failed check, counted and reported
                outcome, value = "error", repr(exc)
            times.append(time.perf_counter() - t0)
            if outcome == "ok" and value is not None:
                value = canonical(value)
                if expected is None:
                    recorded.setdefault(key, []).append(value)
                elif value in remaining.get(key, ()):
                    remaining[key].remove(value)
                else:
                    outcome, value = "mismatch", f"unexpected {value!r}"
            status[outcome] += 1
            if outcome != "ok":
                failures.append({"key": key, "outcome": outcome, "detail": value[:300]})
    return {"check_s": times, "status": status, "failures": failures,
            "recorded": recorded}
