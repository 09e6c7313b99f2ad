"""Truncated pro/ind systems presenting profinite spaces and modules.

A space tower is a finite chain of finite sets with surjective
transitions; its threads stand in for the points of the presented
profinite space.  Module and etale towers carry surjective (pro) or
injective (ind) transitions, Pontryagin duality swaps the two kinds
levelwise, and the free product A^T / free sum A[[T]] together with
their relative versions along a tower map are computed level by level.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import snf
from .errors import BudgetError
from .etale import FiniteEtaleSpace, SectionModule, constant_space, sections
from .finring import (
    FiniteModule,
    ModuleMap,
    direct_sum,
    dual_map,
    kernel,
    pontryagin_dual,
)

DEFAULT_BIT_BUDGET = 64


class SpaceTower:
    """Finite chain T_0 <- T_1 <- ... <- T_n of finite sets."""

    def __init__(self, levels, transitions):
        levels = [tuple(lv) for lv in levels]
        if not levels:
            raise ValueError("a tower needs at least one level")
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

    def is_thread(self, coords) -> bool:
        coords = tuple(coords)
        if len(coords) != len(self.levels):
            return False
        if any(c not in lv for c, lv in zip(coords, self.levels)):
            return False
        return all(tr[coords[k + 1]] == coords[k]
                   for k, tr in enumerate(self.transitions))


def point_tower(depth: int) -> SpaceTower:
    return SpaceTower([("pt",)] * (depth + 1),
                      [{"pt": "pt"}] * depth)


@dataclass
class ProModule:
    """Chain of finite modules with surjective transitions level+1 -> level."""

    levels: list[FiniteModule]
    transitions: list[ModuleMap]
    section_levels: list[SectionModule] | None = None
    strict: bool = True

    def __post_init__(self):
        for k, f in enumerate(self.transitions):
            if f.source != self.levels[k + 1] or f.target != self.levels[k]:
                raise ValueError(f"transition {k} has wrong endpoints")
            if self.strict and not f.is_surjective():
                raise ValueError(f"pro transition {k} is not surjective")

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


@dataclass
class IndModule:
    """Chain of finite modules with injective transitions level -> level+1."""

    levels: list[FiniteModule]
    transitions: list[ModuleMap]
    section_levels: list[SectionModule] | None = None
    strict: bool = True

    def __post_init__(self):
        for k, f in enumerate(self.transitions):
            if f.source != self.levels[k] or f.target != self.levels[k + 1]:
                raise ValueError(f"transition {k} has wrong endpoints")
            if self.strict and not f.is_injective():
                raise ValueError(f"ind transition {k} is not injective")

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


class ProEtale:
    """Etale spaces over the tower levels, fiberwise surjective downwards."""

    kind = "pro"

    def __init__(self, space_tower: SpaceTower, levels, fiber_transitions,
                 strict: bool = True):
        _check_etale_tower(space_tower, levels, fiber_transitions,
                           downward=True, strict=strict)
        self.space_tower = space_tower
        self.levels = list(levels)
        self.fiber_transitions = [dict(ft) for ft in fiber_transitions]
        self.strict = strict


class IndEtale:
    """Etale spaces over the tower levels, fiberwise injective upwards."""

    kind = "ind"

    def __init__(self, space_tower: SpaceTower, levels, fiber_transitions,
                 strict: bool = True):
        _check_etale_tower(space_tower, levels, fiber_transitions,
                           downward=False, strict=strict)
        self.space_tower = space_tower
        self.levels = list(levels)
        self.fiber_transitions = [dict(ft) for ft in fiber_transitions]
        self.strict = strict


def _check_etale_tower(space_tower, levels, fiber_transitions, downward, strict):
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
            raise ValueError(f"fiber transitions at level {k} must cover level {k + 1}")
        for s, f in ft.items():
            up, down = levels[k + 1].fiber(s), levels[k].fiber(tr[s])
            want = (up, down) if downward else (down, up)
            if (f.source, f.target) != want:
                raise ValueError(f"fiber transition at {s} has wrong endpoints")
            if strict:
                ok = f.is_surjective() if downward else f.is_injective()
                if not ok:
                    raise ValueError(
                        f"fiber transition at {s} fails the "
                        f"{'surjectivity' if downward else 'injectivity'} requirement"
                    )


def constant_ind_etale(a: FiniteModule, t: SpaceTower) -> IndEtale:
    levels = [constant_space(lv, a) for lv in t.levels]
    fts = [{s: a.identity_map() for s in t.levels[k + 1]} for k in range(t.depth)]
    return IndEtale(t, levels, fts)


def constant_pro_etale(a: FiniteModule, t: SpaceTower) -> ProEtale:
    levels = [constant_space(lv, a) for lv in t.levels]
    fts = [{s: a.identity_map() for s in t.levels[k + 1]} for k in range(t.depth)]
    return ProEtale(t, levels, fts)


def _sum_of_composites(source: FiniteModule, target: FiniteModule,
                       chains) -> ModuleMap:
    """The sum over `chains` of f_1 . f_2 . ... . f_n, as one ModuleMap.

    Each chain is a sequence of composable maps from `source` to `target`.
    The composites are summed as unreduced integer matrices and reduced
    once: every column of a well-defined map is killed by its source
    factor, so this is the map that composing and adding step by step
    gives, without a validated map for every intermediate.
    """
    total = snf.zeros(target.rank, source.rank)
    for chain in chains:
        if (chain[0].target != target or chain[-1].source != source
                or any(f.source != g.target for f, g in zip(chain, chain[1:]))):
            raise ValueError("maps are not composable")
        if any(f.source.is_zero for f in chain):
            continue  # the composite factors through 0
        product = chain[0].matrix
        for f in chain[1:]:
            product = snf.mat_mul(product, f.matrix)
        for row, summand in zip(total, product):
            for j, v in enumerate(summand):
                row[j] += v
    return ModuleMap(source, target, total)


def _check_budget(order: int, n_points: int, bit_budget: int):
    if order > 1 and n_points * order.bit_length() > bit_budget:
        raise BudgetError(
            f"{n_points} points with fiber order {order} exceed "
            f"the {bit_budget}-bit level budget"
        )


def free_product(a: FiniteModule, t: SpaceTower,
                 bit_budget: int = DEFAULT_BIT_BUDGET) -> IndModule:
    """A^T levelwise: maps(T_k, A) with precomposition transitions."""
    secs = []
    for lv in t.levels:
        _check_budget(a.order, len(lv), bit_budget)
        secs.append(sections(constant_space(lv, a)))
    transitions = [
        _sum_of_composites(secs[k].module, secs[k + 1].module,
                           [(secs[k + 1].injections[s],
                             secs[k].projections[t.transitions[k][s]])
                            for s in t.levels[k + 1]])
        for k in range(t.depth)]
    return IndModule([s.module for s in secs], transitions, section_levels=secs)


def free_sum(a: FiniteModule, t: SpaceTower,
             bit_budget: int = DEFAULT_BIT_BUDGET) -> ProModule:
    """A[[T]] levelwise: A[T_k] with fiberwise coordinate sums."""
    secs = []
    for lv in t.levels:
        _check_budget(a.order, len(lv), bit_budget)
        secs.append(sections(constant_space(lv, a)))
    transitions = [
        _sum_of_composites(secs[k + 1].module, secs[k].module,
                           [(secs[k].injections[t.transitions[k][s]],
                             secs[k + 1].projections[s])
                            for s in t.levels[k + 1]])
        for k in range(t.depth)]
    return ProModule([s.module for s in secs], transitions, section_levels=secs)


def product_ind(e: IndEtale) -> IndModule:
    """The product over T of an ind-etale tower, as sections per level."""
    t = e.space_tower
    secs = [sections(e.levels[k]) for k in range(len(t.levels))]
    transitions = [
        _sum_of_composites(secs[k].module, secs[k + 1].module,
                           [(secs[k + 1].injections[s], e.fiber_transitions[k][s],
                             secs[k].projections[t.transitions[k][s]])
                            for s in t.levels[k + 1]])
        for k in range(t.depth)]
    return IndModule([s.module for s in secs], transitions,
                     section_levels=secs, strict=e.strict)


def coproduct_pro(e: ProEtale) -> ProModule:
    """The coproduct over T of a pro-etale tower: fiberwise sums per level."""
    t = e.space_tower
    secs = [sections(e.levels[k]) for k in range(len(t.levels))]
    transitions = [
        _sum_of_composites(secs[k + 1].module, secs[k].module,
                           [(secs[k].injections[t.transitions[k][s]],
                             e.fiber_transitions[k][s], secs[k + 1].projections[s])
                            for s in t.levels[k + 1]])
        for k in range(t.depth)]
    return ProModule([s.module for s in secs], transitions,
                     section_levels=secs, strict=e.strict)


def dual_tower(x):
    """Levelwise Pontryagin dual; pro and ind kinds swap."""
    from .etale import dual_etale

    if isinstance(x, ProModule):
        return IndModule([pontryagin_dual(m) for m in x.levels],
                         [dual_map(f) for f in x.transitions], strict=x.strict)
    if isinstance(x, IndModule):
        return ProModule([pontryagin_dual(m) for m in x.levels],
                         [dual_map(f) for f in x.transitions], strict=x.strict)
    if isinstance(x, ProEtale):
        return IndEtale(x.space_tower, [dual_etale(e) for e in x.levels],
                        [{s: dual_map(f) for s, f in ft.items()}
                         for ft in x.fiber_transitions], strict=x.strict)
    if isinstance(x, IndEtale):
        return ProEtale(x.space_tower, [dual_etale(e) for e in x.levels],
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

    def fiber_tower(self, thread) -> SpaceTower:
        """The tower of fibers over a thread of the target."""
        levels = []
        for k, pi in enumerate(self.level_maps):
            levels.append(tuple(t for t in self.source.levels[k]
                                if pi[t] == thread[k]))
        transitions = [
            {t: self.source.transitions[k][t] for t in levels[k + 1]}
            for k in range(len(levels) - 1)
        ]
        return SpaceTower(levels, transitions)


def relative_product(a: FiniteModule, pi: TowerMap,
                     bit_budget: int = DEFAULT_BIT_BUDGET) -> IndEtale:
    """Pushforward of the constant tower: fiber at s is A^{pi^{-1}(s)}."""
    t, s_tower = pi.source, pi.target
    levels = []
    fiber_secs = []
    for k, lv in enumerate(s_tower.levels):
        _check_budget(a.order, len(t.levels[k]), bit_budget)
        secs = {}
        for s in lv:
            pre = [u for u in t.levels[k] if pi.level_maps[k][u] == s]
            secs[s] = sections(constant_space(tuple(pre), a))
        fiber_secs.append(secs)
        levels.append(FiniteEtaleSpace(lv, {s: sec.module for s, sec in secs.items()}))
    fts = []
    for k in range(s_tower.depth):
        ft = {}
        for s in s_tower.levels[k + 1]:
            down = s_tower.transitions[k][s]
            src_sec = fiber_secs[k][down]
            dst_sec = fiber_secs[k + 1][s]
            ft[s] = _sum_of_composites(
                src_sec.module, dst_sec.module,
                [(dst_sec.injections[u], src_sec.projections[t.transitions[k][u]])
                 for u in dst_sec.points])
        fts.append(ft)
    return IndEtale(s_tower, levels, fts, strict=False)


def relative_sum(a: FiniteModule, pi: TowerMap,
                 bit_budget: int = DEFAULT_BIT_BUDGET) -> ProEtale:
    """Dual construction: fiber at s is A[[pi^{-1}(s)]]."""
    t, s_tower = pi.source, pi.target
    levels = []
    fiber_secs = []
    for k, lv in enumerate(s_tower.levels):
        _check_budget(a.order, len(t.levels[k]), bit_budget)
        secs = {}
        for s in lv:
            pre = [u for u in t.levels[k] if pi.level_maps[k][u] == s]
            secs[s] = sections(constant_space(tuple(pre), a))
        fiber_secs.append(secs)
        levels.append(FiniteEtaleSpace(lv, {s: sec.module for s, sec in secs.items()}))
    fts = []
    for k in range(s_tower.depth):
        ft = {}
        for s in s_tower.levels[k + 1]:
            down = s_tower.transitions[k][s]
            src_sec = fiber_secs[k + 1][s]
            dst_sec = fiber_secs[k][down]
            ft[s] = _sum_of_composites(
                src_sec.module, dst_sec.module,
                [(dst_sec.injections[t.transitions[k][u]], src_sec.projections[u])
                 for u in src_sec.points])
        fts.append(ft)
    return ProEtale(s_tower, levels, fts, strict=False)


def _regrouping_map(outer: SectionModule, inner_secs: dict,
                    flat: SectionModule) -> ModuleMap:
    """⊕_s (⊕_{t in fiber(s)} A)  ->  ⊕_t A, forgetting the grouping."""
    return _sum_of_composites(
        outer.module, flat.module,
        [(flat.injections[t], inner_secs[s].projections[t], outer.projections[s])
         for s in outer.points for t in inner_secs[s].points])


def decomposition_check(a: FiniteModule, pi: TowerMap,
                        bit_budget: int = DEFAULT_BIT_BUDGET) -> dict:
    """Compare grouped and plain free products/sums along pi, levelwise.

    Builds the natural regrouping map at every level for both the product
    and the sum side and verifies it is an isomorphism; a failure names
    the level.
    """
    t, s_tower = pi.source, pi.target
    rel = relative_product(a, pi, bit_budget)
    rel_sum = relative_sum(a, pi, bit_budget)
    flat = free_product(a, t, bit_budget)
    flat_sum = free_sum(a, t, bit_budget)
    report = {"levels": [], "ok": True}
    for k in range(len(t.levels)):
        grouped = sections(rel.levels[k])
        inner = {
            s: sections(constant_space(
                tuple(u for u in t.levels[k] if pi.level_maps[k][u] == s), a))
            for s in s_tower.levels[k]
        }
        cmp_prod = _regrouping_map(grouped, inner, flat.section_levels[k])
        prod_ok = cmp_prod.is_isomorphism()
        grouped_sum = sections(rel_sum.levels[k])
        cmp_sum = _regrouping_map(grouped_sum, inner, flat_sum.section_levels[k])
        sum_ok = cmp_sum.is_isomorphism()
        report["levels"].append({
            "level": k,
            "product_iso": prod_ok,
            "sum_iso": sum_ok,
            "grouped_order": grouped.module.order,
            "flat_order": flat.levels[k].order,
        })
        if not (prod_ok and sum_ok):
            report["ok"] = False
    return report


def stalk_at_thread(e, thread):
    """Fibers along a thread with the induced transitions."""
    t = e.space_tower
    if not t.is_thread(thread):
        raise ValueError(f"{thread} is not a thread of the tower")
    levels = [e.levels[k].fiber(thread[k]) for k in range(len(t.levels))]
    transitions = [e.fiber_transitions[k][thread[k + 1]] for k in range(t.depth)]
    if isinstance(e, ProEtale):
        return ProModule(levels, transitions, strict=False)
    return IndModule(levels, transitions, strict=False)


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

    ind = isinstance(x, IndModule)
    for k in range(tower_len):
        sec = x.section_levels[k]
        pts = [th[k] for th in threads]
        if ind:
            comps = [sec.projections[p] for p in pts]
            fibers = [c.target for c in comps]
            total, injs, _ = direct_sum(fibers) if fibers else (None, [], [])
            joint = _sum_of_composites(x.levels[k], total, list(zip(injs, comps)))
            surj = joint.is_surjective() if len(set(pts)) == len(pts) else None
            full_pts = sec.points
            full_maps = [sec.projections[p] for p in full_pts]
            ftotal, finjs, _ = direct_sum([m.target for m in full_maps])
            fjoint = _sum_of_composites(x.levels[k], ftotal,
                                        list(zip(finjs, full_maps)))
            trivial_kernel = kernel(fjoint)[0].is_zero
            entry = {"level": k, "joint_surjective": surj,
                     "joint_kernel_trivial": trivial_kernel}
            if surj is False or not trivial_kernel:
                report["ok"] = False
        else:
            comps = [sec.injections[p] for p in pts]
            srcs = [c.source for c in comps]
            total, _, projs = direct_sum(srcs) if srcs else (None, [], [])
            joint = _sum_of_composites(total, x.levels[k], list(zip(comps, projs)))
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
    from .finring import is_isomorphic

    return (len(x.levels) == len(y.levels)
            and all(is_isomorphic(a, b) for a, b in zip(x.levels, y.levels)))


def restrict_tower(t: SpaceTower, top_block) -> SpaceTower:
    """The clopen sub-tower hitting a block of T_0."""
    keep = [tuple(p for p in t.levels[0] if p in set(top_block))]
    trs = []
    for k in range(t.depth):
        nxt = tuple(p for p in t.levels[k + 1]
                    if t.transitions[k][p] in set(keep[k]))
        trs.append({p: t.transitions[k][p] for p in nxt})
        keep.append(nxt)
    return SpaceTower(keep, trs)
