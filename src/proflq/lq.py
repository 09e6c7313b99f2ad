"""The Lannes–Quillen engine.

T_V H^•(G) is computed two independent ways and compared degreewise:

* lhs — cohomology of G with coefficients in the Symonds module, the
  permutation module on hom(V, G) with the conjugation action that
  `repv.conjugation_action` keeps.  It is taken orbit by orbit: the
  Symonds module splits G-equivariantly into coset modules
  F_p[G / Stab(rho)], and cohomology is additive, so each block is fed
  to the resolution engine separately (honest G-cohomology of induced
  modules, never the subgroup shortcut).
* rhs — the centralizer decomposition: one copy of H^•(C_G(rho(V)); F_p)
  per class of Rep(V, G).

Equality of the two is the theorem; a mismatch is by definition an
internal error and raises with a diagnostic dump.

Per class the two sides are the two sides of Shapiro's lemma for
Stab(rho) = C_G(rho(V)), so both are read from `groupcoh.shapiro_check`,
kept in `cache` per exact subgroup, p, k_max and dim_budget: a warm
entry never skips the budget.  Each call looks up each distinct
centralizer once; `repv` has checked, when it made the classes, that
each centralizer is exactly the stabilizer C_G(rho(V)) that Shapiro's
lemma needs.  The block F_p[G/G] of the trivial class and its fiber
H^•(G; F_p) read the one entry that `groupcoh` keeps per (table of
G/O_p'(G), p).

`degree0` alone feeds the whole Symonds module to `cohomology`, in
degree 0 only.  Its G-set is the array whose columns `rep_classes`
walks for orbits, validated by `repv` (every conjugate of a hom is a
hom) and by `permutation_module` (the rows are permutations forming a
left action).  So degree0 keeps independence of the orbit walk and of
the block split, not of the G-set: it counts the orbits by a rank.
"""

from __future__ import annotations

from . import groupcoh as gc
from . import repv
from .errors import InvariantError, require
from .groups import FiniteGroup
from .repv import ElementaryAbelian


LqError = InvariantError  # the older name, kept for callers that catch it


def symonds_module(v: ElementaryAbelian, group: FiniteGroup) -> gc.GModule:
    """F_p-valued functions on hom(V, G) with the conjugation action, the
    array `repv` keeps with Rep(V, G)."""
    return gc.permutation_module(group, repv.conjugation_action(v, group), v.p)


def _total(dims, k_max: int) -> tuple[int, ...]:
    """The coordinatewise sum of a list of graded dims, k <= k_max."""
    return tuple(sum(d[k] for d in dims) for k in range(k_max + 1))


def _sides(v: ElementaryAbelian, group: FiniteGroup, k_max: int,
           dim_budget: int):
    """(classes, blocks, fibers): the classes of Rep(V, G), whose
    centralizers `repv` has checked, and, per class, the dims of its orbit
    block H^•(G; F_p[G/C_G(rho)]) and of its fiber H^•(C_G(rho(V)); F_p)."""
    classes, _ = repv.rep_classes(v, group)
    sides = {s: gc.shapiro_check(group, s, v.p, k_max, dim_budget)
             for s in dict.fromkeys(c.centralizer for c in classes)}
    return (classes, [sides[c.centralizer]["lhs"] for c in classes],
            [sides[c.centralizer]["rhs"] for c in classes])


def lq_check(v: ElementaryAbelian, group: FiniteGroup, k_max: int,
             dim_budget: int = gc.DEFAULT_DIM_BUDGET) -> dict:
    """Verify that the orbit blocks and the centralizer fibers add up to
    the same dims, degreewise; raise InvariantError on mismatch."""
    classes, blocks, fibers = _sides(v, group, k_max, dim_budget)
    lhs, total = _total(blocks, k_max), _total(fibers, k_max)
    verdict = [lhs[k] == total[k] for k in range(k_max + 1)]
    report = {
        "group": group.name or f"order{group.order}",
        "p": v.p, "r": v.r, "k_max": k_max,
        "lhs": lhs, "rhs": fibers, "rhs_total": total,
        "classes": [c.representative for c in classes],
        "verdict": verdict,
    }
    require(all(verdict), f"lq mismatch for {report['group']}, p={v.p}, "
            f"r={v.r}: lhs={lhs}, rhs={total}",
            {"report": report, "orbit_lhs": blocks,
             "centralizers": [c.centralizer for c in classes]})
    return report


def degree0(v: ElementaryAbelian, group: FiniteGroup,
            dim_budget: int = gc.DEFAULT_DIM_BUDGET) -> int:
    """dim T_V H^0(G) = dim of invariants of the Symonds module.

    The whole module is ranked in degree 0 alone, uncached: a count of
    the orbits of the validated G-set whose columns `repv.rep_classes`
    walks, by linear algebra rather than by that walk.
    """
    return gc.cohomology(group, symonds_module(v, group), 0, dim_budget)[0]


def strata_split(v: ElementaryAbelian, group: FiniteGroup, k_max: int,
                 dim_budget: int = gc.DEFAULT_DIM_BUDGET) -> dict:
    """Split the Symonds module along rank strata and reconcile the dims.

    Stratum 0 is the fixed point of the trivial homomorphism; its block
    must contribute exactly the dims of H^•(G; F_p), and all strata
    together must add up to the lhs.  Both sides of each comparison are
    sums of the same orbit blocks, so the two verdicts check
    `repv.rank_strata`: `totals_match_lhs` that the strata partition the
    classes, `stratum0_is_group_cohomology` that the trivial class is
    alone in stratum 0.
    """
    classes, blocks, fibers = _sides(v, group, k_max, dim_budget)
    strata = repv.rank_strata(classes)
    stratum_dims = [_total([blocks[i] for i in stratum], k_max)
                    for stratum in strata]
    # the fiber of the trivial class is H^•(C_G(1); F_p) = H^•(G; F_p)
    trivial = next(f for c, f in zip(classes, fibers)
                   if not any(c.representative))
    lhs = _total(blocks, k_max)
    totals = _total(stratum_dims, k_max)
    return {
        "strata_sizes": [len(s) for s in strata],
        "stratum_dims": stratum_dims,
        "stratum0_is_group_cohomology": stratum_dims[0] == trivial,
        "totals_match_lhs": totals == lhs,
        "lhs": lhs,
    }


def profinite_lq(v: ElementaryAbelian, tower: gc.GroupTower, k_max: int,
                 dim_budget: int = gc.DEFAULT_DIM_BUDGET) -> dict:
    """Levelwise lq_check over a group tower plus the Rep-thread report.

    The per-level fibers (class -> centralizer cohomology dims) assemble
    the CohomologyEtale over the Rep tower; stabilization is read off
    the thread flags, with no claim beyond the supplied depth.
    """
    reports = [lq_check(v, g, k_max, dim_budget) for g in tower.levels]
    rt = repv.rep_tower(v, tower)
    fibers = [list(zip([c.representative for c in rt["levels"][k]],
                       reports[k]["rhs"])) for k in range(tower.depth)]
    return {
        "levels": reports,
        "rep_tower": rt,
        "fibers": fibers,
        "persistent_threads": rt["persistent_threads"],
        "nontrivial_limit_classes": [
            t["classes"] for t in rt["threads"]
            if t["persistent"] and t["ranks"][-1] > 0],
    }
