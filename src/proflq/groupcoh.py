"""Mod-p cohomology of finite groups.

Every coefficient module here is a permutation module F_p[X]: the
trivial module (X a point), the coset modules F_p[G/H] and the Symonds
module on hom(V, G).  So a `GModule` stores the G-set itself, an
(|G|, |X|) array with action[g, x] = g . x, and `permutation_module`
is its one constructor, which checks exactly, on the group's generators
against every element, that the rows are permutations and form an
action.

H^k(G; M) is computed from a free F_pG-resolution of the trivial module,
built once per (group table, prime) and kept in `cache`; applying
Hom_G(-, M) turns each differential into a small F_p block matrix, so
many coefficient modules reuse one resolution.  Inflation along a
tower transition, which the tower reports need, is computed on
inhomogeneous bar cochains with trivial coefficients, where the pullback
is explicit.

The resolution picks its generators greedily: a kernel vector becomes a
generator when it lies outside the span of the translates chosen so far,
which a `linalg.RowSpace` tracks incrementally.  Its differentials are
kept in uint8 (the narrowest unsigned dtype that holds p - 1), as they
live in the cache for the life of the process.  A coboundary matrix is
one scatter of the nonzero coefficients of the differential (about 3 %
of them on the LQ sweep) through the action, straight into its block
layout, in the narrowest unsigned dtype that holds an entry's sum.  Its
rank is taken by row blocks of at most `_BLOCK_CELLS` cells, one range
of target generators at a time, all reduced into one `linalg.RowSpace`,
so a coboundary larger than that is never held whole.

Conventions: C(X, F_p) and F_p[X] are identified through the
indicator-function basis, so a permutation module is its own function
space and no transposes appear downstream.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import cache, linalg
from .errors import BudgetError
from .groups import FiniteGroup, GroupHom, left_cosets, subgroup_group

DEFAULT_DIM_BUDGET = 5000


class GModule:
    """F_p[X] for a finite G-set X: `action[g, x]` is g . x, an (|G|, d) array.

    Build one with `permutation_module`, which checks the action.
    """

    def __init__(self, group: FiniteGroup, p: int, action: np.ndarray):
        self.group = group
        self.p = p
        self.action = action
        self.dim = action.shape[1]

    def __repr__(self):
        return f"GModule(p={self.p}, dim={self.dim}, |G|={self.group.order})"


def permutation_module(group: FiniteGroup, action, p: int) -> GModule:
    """F_p[X] for a G-set X given as action[g][x] = g . x."""
    action = [list(row) for row in action]
    n = group.order
    if len(action) != n:
        raise ValueError("one permutation per group element required")
    m = len(action[0])
    bad = [g for g, row in enumerate(action) if len(row) != m]
    if not bad:
        act = np.array(action, dtype=np.int64).reshape(n, m)
        bad = np.flatnonzero((np.sort(act, axis=1) != np.arange(m)).any(axis=1))
    if len(bad):
        raise ValueError(f"action of element {bad[0]} is not a permutation of X")
    if (act[0] != np.arange(m)).any():
        raise ValueError("identity must act trivially")
    # (sg).x = s.(g.x) for the generators s and every g is exact: the w with
    # (wg).x = w.(g.x) for all g include e and are closed under left
    # multiplication by generators, so they are all of G.
    for s in group.generators_greedy():
        if (act[s][act] != act[group.table[s]]).any():
            raise ValueError("action is not associative")
    return GModule(group, p, act)


def trivial_module(group: FiniteGroup, p: int) -> GModule:
    """F_p with trivial action: the permutation module on one point."""
    return permutation_module(group, [[0]] * group.order, p)


def coset_module(group: FiniteGroup, subgroup_elements, p: int) -> GModule:
    """F_p[G/H]: the induced module on left cosets of H."""
    coset_of, reps = left_cosets(group, subgroup_elements)
    action = [[coset_of[group.mul(g, rep)] for rep in reps]
              for g in range(group.order)]
    return permutation_module(group, action, p)


# ---------------------------------------------------------------------------
# free resolutions


class FreeResolution:
    """... -> F_2 -> F_1 -> F_0 -> F_p -> 0 with F_i = (F_pG)^{betti[i]}.

    differentials[i] is the F_p matrix of d_i: F_i -> F_{i-1} in the
    basis {g . e_j}; column (j, g) holds g . d_i(e_j).  Its entries lie
    below p and are stored in `dtype`, the narrowest unsigned dtype that
    holds p - 1 (uint8 for every p < 257), since a cached resolution
    lives as long as the process.
    """

    def __init__(self, group: FiniteGroup, p: int):
        self.group = group
        self.p = p
        self.dtype = np.min_scalar_type(p - 1)
        self.betti = [1]
        self.differentials: list[np.ndarray] = []

    def _translates(self, vec, blocks: int) -> np.ndarray:
        """Row g is g . vec on F_p^{blocks * n}, blockwise left translation."""
        n = self.group.order
        out = np.zeros((n, blocks, n), dtype=self.dtype)
        # out[g, b, g h] = vec[b, h]; the table row g is h -> g h
        out[np.arange(n)[:, None, None], np.arange(blocks)[:, None],
            self.group.table[:, None, :]] = vec.reshape(blocks, n)
        return out.reshape(n, blocks * n)

    def extend_to(self, length: int):
        """Ensure differentials d_1 .. d_length exist."""
        while len(self.differentials) < length:
            self._extend_once()

    def _extend_once(self):
        n, p = self.group.order, self.p
        i = len(self.differentials)
        if i == 0:
            # kernel of the augmentation (F_pG)^1 -> F_p
            prev = np.ones((1, n), dtype=self.dtype)
        else:
            prev = self.differentials[-1]
        kernel = linalg.nullspace(prev, p).transpose()  # rows span ker d_i
        blocks = self.betti[i]
        # The kernel basis is the identity on the free columns, each the last
        # nonzero of its vector, so a kernel vector is fixed by its free
        # coordinates.  The translates stay in the kernel (a submodule), so
        # the span is kept in those coordinates only.
        free = (kernel.shape[1] - 1 - (kernel[:, ::-1] != 0).argmax(axis=1)
                if kernel.shape[1] else np.zeros(0, dtype=np.int64))
        # greedy: the first kernel vector outside the span of the translates
        # of those chosen so far becomes the next generator
        translates = []
        span = linalg.RowSpace(p, len(free))
        for i in span.outside(kernel[:, free]):
            translates.append(self._translates(kernel[i], blocks))
            span.add(translates[-1][:, free])
            if span.dim == kernel.shape[0]:
                break
        self.betti.append(len(translates))
        self.differentials.append(
            np.vstack(translates).transpose() if translates
            else np.zeros((blocks * n, 0), dtype=self.dtype))


def free_resolution(group: FiniteGroup, p: int, length: int) -> FreeResolution:
    key = (group.table.tobytes(), p)
    res = cache.lookup("groupcoh.resolutions", key)
    if res is None:
        res = cache.store("groupcoh.resolutions", key, FreeResolution(group, p))
    res.extend_to(length)
    return res


def _hom_coboundary(res: FreeResolution, module: GModule, i: int,
                    targets: slice = slice(None)) -> np.ndarray:
    """Matrix of Hom_G(F_i, M) -> Hom_G(F_{i+1}, M) on stacked coordinates.

    Only the rows of the target generators e_k, k in `targets`, are built.
    """
    n, p, d = res.group.order, res.p, module.dim
    b_src, b_dst = res.betti[i], res.betti[i + 1]
    # coef[k, j, g]: the coefficient of g.e_j in d_{i+1}(e_k), mostly zero
    coef = res.differentials[i][:, ::n].reshape(b_src, n, b_dst).transpose(2, 0, 1)
    coef = coef[targets]
    k, j, g = np.nonzero(coef)
    # block (k, j) is sum_g c * P_g over the terms c g.e_j of d_{i+1}(e_k),
    # P_g the permutation matrix of g: c lands at (g.x, x) for every x.  An
    # entry collects at most n terms, each below p.
    dtype = np.min_scalar_type(n * (p - 1))
    out = np.zeros((coef.shape[0], d, b_src, d), dtype=dtype)
    np.add.at(out, (k[:, None], module.action[g], j[:, None], np.arange(d)),
              coef[k, j, g].astype(dtype)[:, None])
    out -= out // p * p  # floor division by a scalar is faster than %
    return out.reshape(coef.shape[0] * d, b_src * d)


# A coboundary is ranked a block of rows at a time, each block at most this
# many cells, all reduced into one echelon form.  Nearly every coboundary of
# the LQ sweep fits in one block; the few that do not (delta_3 of C2xC2xS3
# with the r = 2 Symonds module at p = 2 has 10.6 M cells) would otherwise
# be built whole, with the mod-p and packing copies beside them, and set the
# peak memory of a whole run.
_BLOCK_CELLS = 1 << 20


def _coboundary_rank(res: FreeResolution, module: GModule, i: int) -> int:
    """rank of `_hom_coboundary(res, module, i)`, built by row blocks."""
    width = res.betti[i] * module.dim
    # target generators per block, each of which owns module.dim rows
    step = max(1, _BLOCK_CELLS // max(1, module.dim * width))
    if step >= res.betti[i + 1]:
        # one block: `rank` keeps p >= 5 free of back-substitution, and a
        # traced run reports the shape of each coboundary rank
        return linalg.rank(_hom_coboundary(res, module, i), res.p)
    span = linalg.RowSpace(res.p, width)
    for k in range(0, res.betti[i + 1], step):
        span.add(_hom_coboundary(res, module, i, slice(k, k + step)))
    return span.dim


def cohomology(group: FiniteGroup, module: GModule, k_max: int,
               dim_budget: int = DEFAULT_DIM_BUDGET) -> tuple[int, ...]:
    """Graded dimensions (dim H^0, ..., dim H^{k_max})."""
    if module.group is not group and \
            not (module.group.table == group.table).all():
        raise ValueError("module is not over the given group")
    p = module.p
    if module.dim == 0:
        return (0,) * (k_max + 1)
    res = free_resolution(group, p, k_max + 1)
    for b in res.betti[:k_max + 2]:
        if b * module.dim > dim_budget:
            raise BudgetError(f"cochain dimension {b * module.dim} "
                              f"exceeds budget {dim_budget}")
    dims = []
    prev_rank = 0
    for k in range(k_max + 1):
        r = _coboundary_rank(res, module, k)
        dims.append(res.betti[k] * module.dim - r - prev_rank)
        prev_rank = r
    return tuple(dims)


# ---------------------------------------------------------------------------
# bar cochains and explicit inflation maps


def _bar_coboundary(group: FiniteGroup, p: int, k: int) -> np.ndarray:
    """delta: C^k(G; F_p) -> C^{k+1}(G; F_p), inhomogeneous cochains."""
    n = group.order
    tuples_k1 = list(itertools.product(range(n), repeat=k + 1))
    pos = {t: i for i, t in enumerate(itertools.product(range(n), repeat=k))}
    out = np.zeros((len(tuples_k1), len(pos)), dtype=np.int64)
    for i, t in enumerate(tuples_k1):
        out[i, pos[t[1:]]] += 1
        sign = -1
        for m in range(k):
            out[i, pos[t[:m] + (group.mul(t[m], t[m + 1]),) + t[m + 2:]]] += sign
            sign = -sign
        out[i, pos[t[:-1]]] += sign
    return out % p


def _bar_pullback(q: GroupHom, k: int) -> np.ndarray:
    """Matrix of q^#: C^k(G; F_p) -> C^k(G'; F_p)."""
    pos = {t: i for i, t in
           enumerate(itertools.product(range(q.target.order), repeat=k))}
    tuples_dst = list(itertools.product(range(q.source.order), repeat=k))
    out = np.zeros((len(tuples_dst), len(pos)), dtype=np.int64)
    for i, t in enumerate(tuples_dst):
        out[i, pos[tuple(q(x) for x in t)]] = 1
    return out


def inflation_ranks(q: GroupHom, p: int, k_max: int,
                    dim_budget: int = DEFAULT_DIM_BUDGET) -> tuple[int, ...]:
    """rank of H^k(G; F_p) -> H^k(G'; F_p) along a surjection q, k <= k_max."""
    g, gp = q.target, q.source
    if max(g.order, gp.order) ** (k_max + 1) > dim_budget:
        raise BudgetError("bar cochain spaces exceed budget")
    ranks = []
    for k in range(k_max + 1):
        cocycles = linalg.nullspace(_bar_coboundary(g, p, k), p).transpose()
        pulled = (cocycles @ _bar_pullback(q, k).transpose()) % p
        if k == 0:
            coboundaries = np.zeros((0, gp.order ** k), dtype=np.int64)
        else:
            coboundaries = _bar_coboundary(gp, p, k - 1).transpose()
        base = linalg.rank(coboundaries, p)
        ranks.append(linalg.rank(np.vstack([coboundaries, pulled]), p) - base)
    return tuple(ranks)


# ---------------------------------------------------------------------------
# Shapiro and towers


def shapiro_check(group: FiniteGroup, subgroup_elements, p: int, k_max: int,
                  dim_budget: int = DEFAULT_DIM_BUDGET) -> dict:
    """Compare H^k(G; F_p[G/H]) with H^k(H; F_p), k <= k_max."""
    induced = coset_module(group, subgroup_elements, p)
    lhs = cohomology(group, induced, k_max, dim_budget)
    h, _ = subgroup_group(group, subgroup_elements)
    rhs = cohomology(h, trivial_module(h, p), k_max, dim_budget)
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs,
            "index": group.order // len(frozenset(subgroup_elements))}


class GroupTower:
    """G_0 <- G_1 <- ... with surjective transitions G_{k+1} -> G_k."""

    def __init__(self, levels, transitions):
        levels = list(levels)
        transitions = list(transitions)
        if len(transitions) != len(levels) - 1:
            raise ValueError("need one transition per consecutive pair")
        for k, q in enumerate(transitions):
            if q.source is not levels[k + 1] or q.target is not levels[k]:
                raise ValueError(f"transition {k} does not connect the levels")
            if not q.is_surjective:
                raise ValueError(f"transition {k} is not surjective")
        self.levels = levels
        self.transitions = transitions

    @property
    def depth(self):
        return len(self.levels)


def cyclic_p_tower(p: int, depth: int) -> GroupTower:
    """Z/p <- Z/p^2 <- ... <- Z/p^depth with reduction maps."""
    from .groups import cyclic_group
    levels = [cyclic_group(p ** (k + 1)) for k in range(depth)]
    transitions = [GroupHom(levels[k + 1], levels[k],
                            [x % p ** (k + 1) for x in range(p ** (k + 2))])
                   for k in range(depth - 1)]
    return GroupTower(levels, transitions)


def continuous_cohomology(tower: GroupTower, p: int, k_max: int,
                          dim_budget: int = DEFAULT_DIM_BUDGET) -> dict:
    """Levelwise dims plus inflation ranks, with stabilization flags.

    A degree is flagged stable when the last two inflation ranks equal the
    corresponding dimensions (the colimit has stopped moving at the
    supplied depth -- evidence, not proof).
    """
    dims = [cohomology(g, trivial_module(g, p), k_max, dim_budget)
            for g in tower.levels]
    ranks = [inflation_ranks(q, p, k_max, dim_budget)
             for q in tower.transitions]
    stable = []
    for k in range(k_max + 1):
        if len(ranks) >= 2:
            ok = all(r[k] == dims[i][k] == dims[i + 1][k]
                     for i, r in enumerate(ranks[-2:], start=len(ranks) - 2))
        else:
            ok = False
        stable.append(ok)
    return {"dims": [tuple(d) for d in dims],
            "inflation_ranks": [tuple(r) for r in ranks],
            "stable_degrees": [k for k in range(k_max + 1) if stable[k]],
            "growing_degrees": [k for k in range(k_max + 1) if not stable[k]],
            "k_max": k_max, "p": p, "depth": tower.depth}
