"""Truncated pro/ind systems presenting profinite spaces and modules.

A space tower is a finite chain of finite sets with surjective
transitions; its threads stand in for the points of the presented
profinite space.  A `ModuleTower` or `EtaleTower` carries its kind:
surjective transitions pointing down (pro) or injective ones pointing up
(ind), and Pontryagin duality swaps the two kinds levelwise.  Each pro
construction is the dual of an ind one and is written once with it, its
kind a parameter: the free product A^T and the free sum A[[T]], the
product and coproduct of an etale tower, and their relative versions
along a tower map, are all levels of section modules glued up (ind) or
down (pro) by one helper.  The relative
versions are the grouped sides of `decomposition_check`, which builds
the fiber sections of each level once and pushes the constant tower
forward over them.  Every map among them is one
`finring.sum_of_composites`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cache
from .errors import BudgetError
from .etale import (FiniteEtaleSpace, SectionModule, constant_space, dual_etale,
                    sections)
from .finring import (
    FiniteModule,
    ModuleMap,
    composites_agree,
    dual_map,
    is_isomorphic,
    kernel,
    lazy_direct_sum,
    pontryagin_dual,
    sum_of_composites,
)

DEFAULT_BIT_BUDGET = 64
_DUAL_KIND = {"pro": "ind", "ind": "pro"}


class SpaceTower:
    """Finite chain T_0 <- T_1 <- ... <- T_n of finite sets."""

    def __init__(self, levels, transitions):
        levels = [tuple(lv) for lv in levels]
        if not levels:
            raise ValueError("a tower needs at least one level")
        if not all(levels):
            raise ValueError("every tower level needs at least one point")
        if len(transitions) != len(levels) - 1:
            raise ValueError("need exactly one transition per consecutive pair")
        for k, tr in enumerate(transitions):
            if set(tr) != set(levels[k + 1]):
                raise ValueError(f"transition {k} must be defined on level {k + 1}")
            if set(tr.values()) != set(levels[k]):
                raise ValueError(f"transition {k} is not surjective")
        self.levels = levels
        self.transitions = [dict(tr) for tr in transitions]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def threads(self) -> list[tuple]:
        """All compatible coordinate sequences through every level."""
        out = [(t,) for t in self.levels[0]]
        for tr in self.transitions:
            out = [th + (t,) for th in out for t, u in tr.items() if u == th[-1]]
        return out


def _check_transition(kind: str, f: ModuleMap, lower, upper, strict: bool,
                      where: str):
    """A pro transition runs upper -> lower and is surjective, an ind one
    runs lower -> upper and is injective; `strict` checks the second part."""
    pro = kind == "pro"
    if (f.source, f.target) != ((upper, lower) if pro else (lower, upper)):
        raise ValueError(f"{where} has wrong endpoints")
    if strict and not (f.is_surjective() if pro else f.is_injective()):
        raise ValueError(f"{kind} {where} is not "
                         f"{'surjective' if pro else 'injective'}")


def _check_kind(kind: str):
    if kind not in _DUAL_KIND:
        raise ValueError(f"tower kind must be 'pro' or 'ind', not {kind!r}")


@dataclass
class ModuleTower:
    """Chain of finite modules: a pro tower has surjective transitions
    level+1 -> level, an ind tower injective ones level -> level+1."""

    kind: str
    levels: list[FiniteModule]
    transitions: list[ModuleMap]
    section_levels: list[SectionModule] | None = None
    strict: bool = True

    def __post_init__(self):
        _check_kind(self.kind)
        for k, f in enumerate(self.transitions):
            _check_transition(self.kind, f, self.levels[k], self.levels[k + 1],
                              self.strict, f"transition {k}")


class EtaleTower:
    """Etale spaces over the tower levels: fiberwise surjective downwards
    (pro) or fiberwise injective upwards (ind)."""

    def __init__(self, kind: str, space_tower: SpaceTower, levels,
                 fiber_transitions, strict: bool = True):
        _check_kind(kind)
        if len(levels) != len(space_tower.levels):
            raise ValueError("one etale space per tower level required")
        for k, e in enumerate(levels):
            if e.base != space_tower.levels[k]:
                raise ValueError(f"etale space {k} sits over the wrong base")
        if len(fiber_transitions) != space_tower.depth:
            raise ValueError("one fiber transition family per consecutive pair")
        for k, ft in enumerate(fiber_transitions):
            tr = space_tower.transitions[k]
            if set(ft) != set(space_tower.levels[k + 1]):
                raise ValueError(
                    f"fiber transitions at level {k} must cover level {k + 1}")
            for s, f in ft.items():
                _check_transition(kind, f, levels[k].fiber(tr[s]),
                                  levels[k + 1].fiber(s), strict,
                                  f"fiber transition at {s}")
        self.kind = kind
        self.space_tower = space_tower
        self.levels = list(levels)
        self.fiber_transitions = [dict(ft) for ft in fiber_transitions]
        self.strict = strict


def _constant_etale(kind: str, a: FiniteModule, t: SpaceTower):
    levels = [constant_space(lv, a) for lv in t.levels]
    identity = a.identity_map()
    fts = [dict.fromkeys(t.levels[k + 1], identity) for k in range(t.depth)]
    return EtaleTower(kind, t, levels, fts)


def constant_ind_etale(a: FiniteModule, t: SpaceTower) -> EtaleTower:
    return _constant_etale("ind", a, t)


def constant_pro_etale(a: FiniteModule, t: SpaceTower) -> EtaleTower:
    return _constant_etale("pro", a, t)


def _check_budget(order: int, n_points: int, bit_budget: int):
    if order > 1 and n_points * order.bit_length() > bit_budget:
        raise BudgetError(
            f"{n_points} points with fiber order {order} exceed "
            f"the {bit_budget}-bit level budget"
        )


def _glue_chains(kind: str, lo: SectionModule, hi: SectionModule, down: dict,
                 fiber_maps: dict | None = None) -> tuple:
    """(source, target, chains) of the transition between the section
    modules of level k and k+1, for `sum_of_composites`.

    `down` sends each point u of `hi` to a point of `lo`, and f_u is
    fiber_maps[u], or the identity when there are none.  An ind
    transition sends `lo` up as the sum of inj_u . f_u . proj_down(u); a
    pro transition sends `hi` down as the sum of inj_down(u) . f_u . proj_u.
    """
    chains = []
    for u in hi.points:
        mid = () if fiber_maps is None else (fiber_maps[u],)
        if kind == "ind":
            chains.append((hi.injections[u], *mid, lo.projections[down[u]]))
        else:
            chains.append((lo.injections[down[u]], *mid, hi.projections[u]))
    if kind == "ind":
        return lo.module, hi.module, tuple(chains)
    return hi.module, lo.module, tuple(chains)


def _fiber_glue(kind: str, lo: SectionModule, hi: SectionModule,
                down: dict) -> ModuleMap:
    """The transition between two levels of a fiber of a pushforward, kept per
    (source, target, chains) in the `tower.fiber_glue` region of
    `proflq.cache`: the fibers are sections of one module over a few
    points, whose maps `finring.direct_sum` shares, so most recur."""
    key = _glue_chains(kind, lo, hi, down)
    glue = cache.lookup("tower.fiber_glue", key)
    if glue is None:
        glue = cache.store("tower.fiber_glue", key, sum_of_composites(*key))
    return glue


def _section_tower(kind: str, t: SpaceTower, spaces, fiber_transitions=None,
                   strict: bool = True):
    """The module tower of sections of one etale space per level of t."""
    secs = [sections(e) for e in spaces]
    transitions = [
        sum_of_composites(*_glue_chains(
            kind, secs[k], secs[k + 1], t.transitions[k],
            None if fiber_transitions is None else fiber_transitions[k]))
        for k in range(t.depth)]
    return ModuleTower(kind, [s.module for s in secs], transitions,
                       section_levels=secs, strict=strict)


def _constant_levels(a: FiniteModule, t: SpaceTower, bit_budget: int):
    for lv in t.levels:
        _check_budget(a.order, len(lv), bit_budget)
    return [constant_space(lv, a) for lv in t.levels]


def free_product(a: FiniteModule, t: SpaceTower,
                 bit_budget: int = DEFAULT_BIT_BUDGET) -> ModuleTower:
    """A^T levelwise: maps(T_k, A) with precomposition transitions."""
    return _section_tower("ind", t, _constant_levels(a, t, bit_budget))


def free_sum(a: FiniteModule, t: SpaceTower,
             bit_budget: int = DEFAULT_BIT_BUDGET) -> ModuleTower:
    """A[[T]] levelwise: A[T_k] with fiberwise coordinate sums."""
    return _section_tower("pro", t, _constant_levels(a, t, bit_budget))


def product_ind(e: EtaleTower) -> ModuleTower:
    """The product over T of an ind-etale tower, as sections per level."""
    return _section_tower("ind", e.space_tower, e.levels,
                          e.fiber_transitions, e.strict)


def coproduct_pro(e: EtaleTower) -> ModuleTower:
    """The coproduct over T of a pro-etale tower: fiberwise sums per level."""
    return _section_tower("pro", e.space_tower, e.levels,
                          e.fiber_transitions, e.strict)


def dual_tower(x):
    """Levelwise Pontryagin dual; pro and ind kinds swap."""
    if isinstance(x, ModuleTower):
        return ModuleTower(
            _DUAL_KIND[x.kind], [pontryagin_dual(m) for m in x.levels],
            [dual_map(f) for f in x.transitions], strict=x.strict)
    if isinstance(x, EtaleTower):
        return EtaleTower(
            _DUAL_KIND[x.kind], x.space_tower, [dual_etale(e) for e in x.levels],
            [{s: dual_map(f) for s, f in ft.items()}
             for ft in x.fiber_transitions], strict=x.strict)
    raise TypeError(f"cannot dualize {type(x).__name__}")


class TowerMap:
    """Levelwise surjections T_k -> S_k commuting with both chains."""

    def __init__(self, source: SpaceTower, target: SpaceTower, level_maps):
        if len(source.levels) != len(target.levels):
            raise ValueError("towers must have equal depth")
        if len(level_maps) != len(source.levels):
            raise ValueError("one map per level required")
        for k, pi in enumerate(level_maps):
            if set(pi) != set(source.levels[k]):
                raise ValueError(f"level map {k} must cover T_{k}")
            if set(pi.values()) != set(target.levels[k]):
                raise ValueError(f"level map {k} is not surjective")
        for k in range(source.depth):
            for s in source.levels[k + 1]:
                left = target.transitions[k][level_maps[k + 1][s]]
                right = level_maps[k][source.transitions[k][s]]
                if left != right:
                    raise ValueError(f"level maps do not commute at level {k + 1}")
        self.source = source
        self.target = target
        self.level_maps = [dict(pi) for pi in level_maps]


def _fiber_sections(a: FiniteModule, pi: TowerMap, k: int) -> dict:
    """Sections of the constant space A over each fiber of pi at level k."""
    return {s: sections(constant_space(
        tuple(u for u in pi.source.levels[k] if pi.level_maps[k][u] == s), a))
        for s in pi.target.levels[k]}


def _relative_sections(a: FiniteModule, pi: TowerMap, bit_budget: int) -> list:
    """The sections of A over each fiber of pi, level by level, each level
    checked against the budget before it is built."""
    secs = []
    for k, lv in enumerate(pi.source.levels):
        _check_budget(a.order, len(lv), bit_budget)
        secs.append(_fiber_sections(a, pi, k))
    return secs


def _relative(kind: str, pi: TowerMap, secs: list):
    """Pushforward of a constant tower along pi: the fiber at s is the
    module of sections of A over pi^{-1}(s), secs[k][s] at level k (from
    `_relative_sections`), glued by `_fiber_glue`.  The ind kind is the
    relative product, A^{pi^{-1}(s)}; the pro kind the relative sum,
    A[[pi^{-1}(s)]]."""
    t, s_tower = pi.source, pi.target
    levels = [FiniteEtaleSpace(lv, {s: secs[k][s].module for s in lv})
              for k, lv in enumerate(s_tower.levels)]
    fts = [{s: _fiber_glue(kind, secs[k][s_tower.transitions[k][s]], secs[k + 1][s],
                           t.transitions[k])
            for s in s_tower.levels[k + 1]}
           for k in range(s_tower.depth)]
    return EtaleTower(kind, s_tower, levels, fts, strict=False)


def _regrouping_map(outer: SectionModule, inner_secs: dict,
                    flat: SectionModule) -> ModuleMap:
    """⊕_s (⊕_{t in fiber(s)} A)  ->  ⊕_t A, forgetting the grouping."""
    return sum_of_composites(
        outer.module, flat.module,
        [(flat.injections[t], inner_secs[s].projections[t], outer.projections[s])
         for s in outer.points for t in inner_secs[s].points])


def decomposition_check(a: FiniteModule, pi: TowerMap,
                        bit_budget: int = DEFAULT_BIT_BUDGET) -> dict:
    """Compare grouped and plain free products/sums along pi, levelwise.

    At level k the natural regrouping map r_k sends the sections of the
    grouped tower, ⊕_s (⊕_{t over s} A), to ⊕_t A; at a finite level the
    grouped product and the grouped sum have the same sections, and so do
    the plain ones, so one r_k serves both sides.  The product side holds
    at k when r_k is an isomorphism that commutes with the ind
    transitions k -> k+1, the sum side when it is one that commutes with
    the pro transitions k+1 -> k; a failure names the level.  The two
    composites of each square are compared by `finring.composites_agree`,
    so neither is built as a map.  The fiber sections of each level are
    built once, for both sides and r_k.
    """
    t = pi.source
    secs = _relative_sections(a, pi, bit_budget)
    grouped = product_ind(_relative("ind", pi, secs))
    grouped_sum = coproduct_pro(_relative("pro", pi, secs))
    flat = free_product(a, t, bit_budget)
    flat_sum = free_sum(a, t, bit_budget)
    regroup = [_regrouping_map(grouped.section_levels[k], secs[k],
                               flat.section_levels[k])
               for k in range(len(t.levels))]
    report = {"levels": [], "ok": True}
    for k, r in enumerate(regroup):
        prod_ok = sum_ok = r.is_isomorphism()
        if k < t.depth:
            up = regroup[k + 1]
            prod_ok = prod_ok and composites_agree(
                r.source, up.target, [(flat.transitions[k], r)],
                [(up, grouped.transitions[k])])
            sum_ok = sum_ok and composites_agree(
                up.source, r.target, [(flat_sum.transitions[k], up)],
                [(r, grouped_sum.transitions[k])])
        report["levels"].append({
            "level": k,
            "product_iso": prod_ok,
            "sum_iso": sum_ok,
            "grouped_order": grouped.levels[k].order,
            "flat_order": flat.levels[k].order,
        })
        if not (prod_ok and sum_ok):
            report["ok"] = False
    return report


def _joint_projection(level: FiniteModule, projections) -> ModuleMap:
    """The map of `level` into the direct sum of the projections' targets.

    Its kernel is the joint kernel of the projections.  The sum is built
    afresh from the targets, so the map reads the projections alone, not
    the injections the level's own sections carry.
    """
    summed = lazy_direct_sum([c.target for c in projections])
    return sum_of_composites(level, summed.total,
                             [(summed.injection(i), c) for i, c in enumerate(projections)])


def canonical_components(x, threads) -> dict:
    """Evaluation maps at threads (ind) or inclusions (pro), with checks.

    For a product tower, checks joint surjectivity onto the finite
    sub-product and joint-kernel triviality at every truncation; for a
    coproduct tower, checks levelwise density (the inclusions span).
    """
    if x.section_levels is None:
        raise ValueError("tower carries no per-point section structure")
    threads = [tuple(th) for th in threads]
    tower_len = len(x.levels)
    for th in threads:
        if len(th) != tower_len:
            raise ValueError("thread length must match the tower depth")
    report = {"threads": threads, "levels": [], "ok": True,
              "indistinguishable_pairs": []}
    for i, a in enumerate(threads):
        for b in threads[i + 1:]:
            if a == b:
                report["indistinguishable_pairs"].append((a, b))
    if report["indistinguishable_pairs"]:
        report["ok"] = False
        return report

    ind = x.kind == "ind"
    for k in range(tower_len):
        sec = x.section_levels[k]
        pts = [th[k] for th in threads]
        if ind:
            surj = None
            if len(set(pts)) == len(pts):
                joint = _joint_projection(x.levels[k], [sec.projections[p] for p in pts])
                surj = joint.is_surjective()
            stalks = _joint_projection(x.levels[k],
                                       [sec.projections[p] for p in sec.points])
            trivial_kernel = kernel(stalks)[0].is_zero
            entry = {"level": k, "joint_surjective": surj,
                     "joint_kernel_trivial": trivial_kernel}
            if surj is False or not trivial_kernel:
                report["ok"] = False
        else:
            comps = [sec.injections[p] for p in pts]
            summed = lazy_direct_sum([c.source for c in comps])
            joint = sum_of_composites(summed.total, x.levels[k],
                                      [(c, summed.projection(i)) for i, c in enumerate(comps)])
            dense = joint.is_surjective()
            entry = {"level": k, "dense": dense,
                     "covers_level": set(pts) == set(sec.points)}
            if entry["covers_level"] and not dense:
                report["ok"] = False
        report["levels"].append(entry)
    report["components"] = {
        th: [x.section_levels[k].projections[th[k]] if ind
             else x.section_levels[k].injections[th[k]]
             for k in range(tower_len)]
        for th in threads
    }
    return report


def levelwise_isomorphic(x, y) -> bool:
    return (len(x.levels) == len(y.levels)
            and all(is_isomorphic(a, b) for a, b in zip(x.levels, y.levels)))
