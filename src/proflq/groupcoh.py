"""Mod-p cohomology of finite groups.

Every coefficient module here is a permutation module F_p[X]: the
trivial module (X a point), the coset modules F_p[G/H] and the Symonds
module on hom(V, G).  So a `GModule` stores the G-set itself, an
(|G|, |X|) array with action[g, x] = g . x, and `permutation_module`
is its one constructor, which takes rows or an integer array (the coset
action is one gather, the Symonds action the array `repv` keeps) and
checks exactly, on the group's generators against every element, that
the rows are permutations and form an action.  The caches are keyed on
`FiniteGroup.key`, the table's bytes taken once.

H^k(G; M) is computed from a free F_pG-resolution of the trivial module,
built once per (group table, prime) and kept in `cache`; applying
Hom_G(-, M) turns each differential into a small F_p block matrix, so
many coefficient modules reuse one resolution.  Inflation along a
tower transition q: G' -> G uses the same resolutions, through a chain
map over q lifted one degree at a time.  So `dim_budget` has one meaning:
the Betti number times the width (dim M, or |G| for the chain map).

Mod-p cohomology cannot see a normal subgroup N of order prime to p:
H^j(N; M) = 0 for j > 0, so Hochschild-Serre collapses (Brown, Cohomology
of Groups, VII) to H^k(G; M) = H^k(G/N; M^N), and for M = F_p[X] the
invariants M^N are the permutation module F_p[X/N].  So `cohomology`
first reduces (G, F_p[X]) to (G/N, F_p[X/N]) for N = O_p'(G), the largest
normal subgroup of order prime to p (G/N = 1 when p does not divide |G|),
and ranks the reduced module on the resolution of G/N, with the width
in the budget still dim M of the module as given.

The resolution picks its generators greedily: a kernel vector becomes a
generator when it lies outside the span of the translates chosen so far,
which a `linalg.RowSpace` tracks incrementally.  ker d_i is taken from
the rows of d_i at the free coordinates of ker d_{i-1} alone.  Its
differentials are kept in uint8 (the narrowest unsigned dtype that holds
p - 1), as they live in the cache for the life of the process.  The
resolution of G/O_p'(G) also keeps H^•(G; F_p), read after the budget
is applied and replaced when a larger k_max is asked for.
A coboundary matrix is one scatter of the nonzero coefficients of the
differential (about 3 % of them on the LQ sweep) through the action,
straight into its block layout, in the narrowest unsigned dtype that
holds an entry's sum.  Its rank is taken by row blocks of at most
`_BLOCK_CELLS` cells, one range of target generators at a time, all
reduced into one `linalg.RowSpace`, so a coboundary larger than that is
never held whole.

`shapiro_check` keeps both of its sides, H^•(G; F_p[G/H]) and
H^•(H; F_p), per (table, H, p, k_max, dim_budget); `lq` reads the orbit
block and the centralizer fiber of each Rep(V, G) class from it.

Conventions: C(X, F_p) and F_p[X] are identified through the
indicator-function basis, so a permutation module is its own function
space and no transposes appear downstream.
"""

from __future__ import annotations

import numpy as np

from . import cache, linalg
from .errors import BudgetError, InvariantError, require
from .groups import (FiniteGroup, GroupHom, cyclic_group, left_cosets, quotient_group,
                     subgroup_group)

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
    """F_p[X] for a G-set X given as action[g][x] = g . x, as rows or as an
    integer array.  The module's action is read-only: a read-only int64
    array (the one `repv` keeps) is used as given, anything else copied."""
    n = group.order
    if not isinstance(action, np.ndarray):
        action = [list(row) for row in action]
        bad = [g for g, row in enumerate(action) if len(row) != len(action[0])]
        if bad:
            raise ValueError(f"action of element {bad[0]} is not a permutation of X")
    if isinstance(action, np.ndarray) and action.dtype == np.int64 \
            and not action.flags.writeable:
        act = action
    else:
        act = np.array(action, dtype=np.int64)
        act.flags.writeable = False
    if act.ndim != 2 or len(act) != n:
        raise ValueError("one permutation per group element required")
    m = act.shape[1]
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
    """F_p[G/H]: the induced module on left cosets of H, whose action is
    one gather, g . rH = coset_of[g r]."""
    coset_of, reps = left_cosets(group, subgroup_elements)
    return permutation_module(group, np.array(coset_of)[group.table[:, reps]], p)


# ---------------------------------------------------------------------------
# free resolutions


class FreeResolution:
    """... -> F_2 -> F_1 -> F_0 -> F_p -> 0 with F_i = (F_pG)^{betti[i]}.

    differentials[i] is the F_p matrix of d_i: F_i -> F_{i-1} in the
    basis {g . e_j}; column (j, g) holds g . d_i(e_j).  Its entries lie
    below p and are stored in `dtype`, the narrowest unsigned dtype that
    holds p - 1 (uint8 for every p < 257), since a cached resolution
    lives as long as the process.  `one_point` holds the dims of
    H^•(G; F_p) ranked on it so far, in degrees 0, 1, ...
    """

    def __init__(self, group: FiniteGroup, p: int):
        self.group = group
        self.p = p
        self.dtype = np.min_scalar_type(p - 1)
        self.betti = [1]
        self.differentials: list[np.ndarray] = []
        self.one_point: tuple[int, ...] = ()
        # the free coordinates of the last kernel taken, ker(F_p -> 0) at first
        self.free = np.zeros(1, dtype=np.int64)

    def kernel(self) -> np.ndarray:
        """Rows spanning ker d_i, i = len(differentials), d_0 the augmentation,
        from the rows of d_i at the free coordinates of ker d_{i-1}, which fix
        each vector of im d_i: so the kernel and its rref basis are d_i's."""
        prev = (self.differentials[-1] if self.differentials
                else np.ones((1, self.group.order), dtype=self.dtype))
        return linalg.nullspace(prev[self.free], self.p).transpose()

    def extend_to(self, length: int):
        """Ensure differentials d_1 .. d_length exist."""
        while len(self.differentials) < length:
            self._extend_once()

    def _extend_once(self):
        kernel = self.kernel()
        n, blocks = self.group.order, self.betti[-1]
        # The kernel basis is the identity on the free columns, each the last
        # nonzero of its vector, so a kernel vector is fixed by its free
        # coordinates.  The translates stay in the kernel (a submodule), so
        # the span is kept in those coordinates only.
        free = self.free = (
            kernel.shape[1] - 1 - (kernel[:, ::-1] != 0).argmax(axis=1)
            if kernel.shape[1] else np.zeros(0, dtype=np.int64))
        # row g of the translates of v is g . v, (g . v)[b, y] = v[b, g^-1 y]:
        # one gather through the table of g^-1 y
        at = (np.arange(blocks)[:, None],
              self.group.table[list(map(self.group.inv, range(n)))][:, None])
        # greedy: the first kernel vector outside the span of the translates
        # of those chosen so far becomes the next generator
        translates = []
        span = linalg.RowSpace(self.p, len(free))
        for i in span.outside(kernel[:, free]):
            translates.append(kernel[i].astype(self.dtype).reshape(blocks, n)[at]
                              .reshape(n, -1))
            span.add(translates[-1][:, free])
            if span.dim == kernel.shape[0]:
                break
        self.betti.append(len(translates))
        self.differentials.append(
            np.vstack(translates).transpose() if translates
            else np.zeros((kernel.shape[1], 0), dtype=self.dtype))


def _p_prime_core(group: FiniteGroup, p: int) -> frozenset[int]:
    """O_p'(G), the largest normal subgroup of order prime to p: the elements
    whose normal closure has order prime to p.  Such a closure is a normal
    p'-subgroup, so it lies in O_p'(G), which holds its elements' closures."""
    core, seen = set(), set()
    for x in range(group.order):
        if x not in seen:
            conjugates = set(group.conj_cols[x])
            seen |= conjugates
            if len(group.closure(conjugates)) % p:
                core |= conjugates
    return frozenset(core)


def free_resolution(group: FiniteGroup, p: int, length: int) -> FreeResolution:
    """The cached greedy resolution of F_p over F_pG through F_length."""
    key = (group.key, p)
    res = cache.lookup("groupcoh.resolutions", key)
    if res is None:
        res = cache.store("groupcoh.resolutions", key, FreeResolution(group, p))
    res.extend_to(length)
    return res


def _p_prime_quotient(group: FiniteGroup, p: int):
    """(G/N, reps, N, proj) for N = O_p'(G) != 1, reps[i] an element of coset
    i, N as an array and proj[g] the coset of g, or None when N = 1; kept
    per (table, p)."""
    key = (group.key, p)
    entry = cache.lookup("groupcoh.p_prime_quotients", key)
    if entry is None:
        core, entry = _p_prime_core(group, p), ()
        if len(core) > 1:
            # quotient_group refuses a core that is not a normal subgroup
            message = f"O_p'(G) is not a normal p'-subgroup: {sorted(core)} at p = {p}"
            evidence = {"group": group.name or f"order{group.order}", "p": p,
                        "core": sorted(core)}
            require(len(core) % p, message, evidence)
            try:
                quotient, proj = quotient_group(group, core)
            except ValueError as exc:
                raise InvariantError(message, evidence) from exc
            entry = (quotient, np.unique(proj, return_index=True)[1],
                     np.array(sorted(core)), proj)
        cache.store("groupcoh.p_prime_quotients", key, entry)
    return entry or None


def _reduced(module: GModule) -> GModule:
    """F_p[X/N] over G/N for N = O_p'(G), or the module itself when N = 1:
    each N-orbit is labelled by its least point, and coset i acts by reps[i]."""
    quotient = _p_prime_quotient(module.group, module.p)
    if quotient is None:
        return module
    group, reps, core, _ = quotient
    points, orbit = np.unique(module.action[core].min(axis=0), return_inverse=True)
    return GModule(group, module.p, orbit[module.action[reps][:, points]])


def _coefficients(res: FreeResolution, i: int) -> np.ndarray:
    """coef[k, j, g]: the coefficient of g.e_j in d_{i+1}(e_k), mostly zero."""
    n = res.group.order
    return res.differentials[i][:, ::n].reshape(
        res.betti[i], n, res.betti[i + 1]).transpose(2, 0, 1)


def _hom_coboundary(coef: np.ndarray, module: GModule) -> np.ndarray:
    """Matrix of Hom_G(F_i, M) -> Hom_G(F_{i+1}, M) on stacked coordinates,
    from `_coefficients(res, i)` or the rows of a range of its targets."""
    b_dst, b_src, n = coef.shape
    p, d = module.p, module.dim
    k, j, g = np.nonzero(coef)
    # block (k, j) is sum_g c * P_g over the terms c g.e_j of d_{i+1}(e_k),
    # P_g the permutation matrix of g: c lands at (g.x, x) for every x.  An
    # entry collects at most n terms, each below p.
    dtype = np.min_scalar_type(n * (p - 1))
    out = np.zeros((b_dst, d, b_src, d), dtype=dtype)
    np.add.at(out, (k[:, None], module.action[g], j[:, None], np.arange(d)),
              coef[k, j, g].astype(dtype)[:, None])
    out -= out // p * p  # floor division by a scalar is faster than %
    return out.reshape(b_dst * d, b_src * d)


# A coboundary is ranked a block of rows at a time, each block at most this
# many cells, all reduced into one echelon form.  Every coboundary of the LQ
# sweep fits in one block (the largest, delta_0 of the 256-dim r = 2 Symonds
# module of C2xC2xC2xC2 at p = 2 in `lq.degree0`, has 0.26 M cells); a larger
# one would otherwise be built whole, with the mod-p and packing copies
# beside it, and set the peak memory of a whole run.
_BLOCK_CELLS = 1 << 20


def _coboundary_rank(res: FreeResolution, module: GModule, i: int) -> int:
    """rank of the coboundary on Hom_G(F_i, M), built by row blocks."""
    coef = _coefficients(res, i)
    width = res.betti[i] * module.dim
    # target generators per block, each of which owns module.dim rows
    step = max(1, _BLOCK_CELLS // max(1, module.dim * width))
    if step >= res.betti[i + 1]:
        # one block: `rank` keeps p >= 5 free of back-substitution, and a
        # traced run reports the shape of each coboundary rank
        return linalg.rank(_hom_coboundary(coef, module), res.p)
    span = linalg.RowSpace(res.p, width)
    for k in range(0, res.betti[i + 1], step):
        span.add(_hom_coboundary(coef[k:k + step], module))
    return span.dim


def _budgeted_resolution(group: FiniteGroup, p: int, k_max: int, width: int,
                         dim_budget: int) -> FreeResolution:
    """The resolution through F_{k_max + 1}, if betti * width fits the budget."""
    res = free_resolution(group, p, k_max + 1)
    dim = max(res.betti[:k_max + 2]) * width
    if dim > dim_budget:
        raise BudgetError(f"cochain dimension {dim} exceeds budget {dim_budget}")
    return res


def _dims(res: FreeResolution, module: GModule, k_max: int) -> tuple[int, ...]:
    """dim H^k(G; M) for k <= k_max, ranked on a budgeted resolution."""
    ranks = [0] + [_coboundary_rank(res, module, k) for k in range(k_max + 1)]
    return tuple(res.betti[k] * module.dim - ranks[k + 1] - ranks[k]
                 for k in range(k_max + 1))


def _one_point_dims(group: FiniteGroup, p: int, k_max: int, dim_budget: int,
                    width: int = 1) -> tuple[int, ...]:
    """dims of H^•(G; F_p) = H^•(G/O_p'(G); F_p), kept on the resolution of
    the quotient and read after the budget is applied at `width` (the dim
    of the module as given, which reduced to the one point); they are
    ranked, on the one-point module, when they reach below k_max only."""
    quotient = _p_prime_quotient(group, p)
    if quotient is not None:
        group = quotient[0]
    res = _budgeted_resolution(group, p, k_max, width, dim_budget)
    if len(res.one_point) <= k_max:
        res.one_point = _dims(res, trivial_module(group, p), k_max)
    return res.one_point[:k_max + 1]


def cohomology(group: FiniteGroup, module: GModule, k_max: int,
               dim_budget: int = DEFAULT_DIM_BUDGET) -> tuple[int, ...]:
    """Graded dimensions (dim H^0, ..., dim H^{k_max}), ranked on G/O_p'(G)
    with the budget applied to the unreduced module."""
    if module.group is not group and module.group.key != group.key:
        raise ValueError("module is not over the given group")
    if module.dim == 0:
        return (0,) * (k_max + 1)
    if module.dim == 1:  # the one-point module
        return _one_point_dims(group, module.p, k_max, dim_budget)
    reduced = _reduced(module)
    return _dims(_budgeted_resolution(reduced.group, module.p, k_max, module.dim,
                                      dim_budget), reduced, k_max)


# ---------------------------------------------------------------------------
# inflation through a chain map between resolutions


def _chain_map(q: GroupHom, res: FreeResolution, res_src: FreeResolution,
               k_max: int) -> list[np.ndarray]:
    """phi_k: F'_k -> F_k, k <= k_max, a chain map over q: G' -> G from the
    resolution of G' to that of G (Brown, Cohomology of Groups, I.7).

    Column j of phi[k] is phi_k(e'_j).  phi_0(e') = e, and phi_k(e'_j) solves
    d_k x = phi_{k-1}(d'_k e'_j): the right side is a cycle, so as F is exact
    a solution exists, and each system is checked to have one.
    """
    group, p, n = res.group, res.p, res.group.order
    shift = group.table[[group.inv(h) for h in q.images]]  # y -> q(g')^-1 y
    phi = [np.eye(n, 1, dtype=np.int64)]
    for k, d in enumerate(res.differentials[:k_max], start=1):
        coef = _coefficients(res_src, k - 1).astype(np.int64)
        # cycle j is sum c q(g').phi_{k-1}(e'_i), and (h.v)[m, y] = v[m, h^-1 y]
        prev = phi[-1].transpose().reshape(coef.shape[1], res.betti[k - 1], n)
        cycles = np.einsum("jig,imgy->jmy", coef, prev[:, :, shift]) % p
        cycles = cycles.reshape(len(coef), d.shape[0]).transpose()
        r, pivots = linalg.rref(np.hstack([d, cycles]), p)
        require(not pivots or pivots[-1] < d.shape[1],
                f"no lift in degree {k}: d_k x = phi_(k-1)(d'_k e') is inconsistent",
                {"degree": k, "pivots": pivots})
        phi.append(np.zeros((d.shape[1], len(coef)), dtype=np.int64))
        phi[-1][pivots] = r[:len(pivots), d.shape[1]:]
    return phi


def inflation_ranks(q: GroupHom, p: int, k_max: int,
                    dim_budget: int = DEFAULT_DIM_BUDGET) -> tuple[int, ...]:
    """rank of H^k(G; F_p) -> H^k(G'; F_p) along a surjection q, k <= k_max.

    A cochain f pulls back to f . phi; as f(g.e_m) = f(e_m), the inflation
    matrix sums each block of phi_k(e'_j).  The rank is that of the pulled
    back cocycles of G modulo the coboundaries of G': what the cocycles add
    to a row space that holds the coboundaries.
    """
    g, gp = q.target, q.source
    res = _budgeted_resolution(g, p, k_max, g.order, dim_budget)
    res_src = _budgeted_resolution(gp, p, k_max, gp.order, dim_budget)
    trivial, trivial_src = trivial_module(g, p), trivial_module(gp, p)
    ranks = []
    for k, x in enumerate(_chain_map(q, res, res_src, k_max)):
        inflation = x.reshape(res.betti[k], g.order, res_src.betti[k]).sum(axis=1)
        delta = _hom_coboundary(_coefficients(res, k), trivial)
        span = linalg.RowSpace(p, res_src.betti[k])
        if k:
            span.add(_hom_coboundary(_coefficients(res_src, k - 1), trivial_src)
                     .transpose())
        base = span.dim
        span.add(linalg.nullspace(delta, p).transpose() @ inflation % p)
        ranks.append(span.dim - base)
    return tuple(ranks)


# ---------------------------------------------------------------------------
# Shapiro and towers


def shapiro_check(group: FiniteGroup, subgroup_elements, p: int, k_max: int,
                  dim_budget: int = DEFAULT_DIM_BUDGET) -> dict:
    """Compare H^k(G; F_p[G/H]) with H^k(H; F_p), k <= k_max; the pair is
    memoized with the budget in its key, and computed on a miss only.

    The lhs is what `cohomology` gives on F_p[G/H], but its reduction to
    N = O_p'(G) is built directly: F_p[G/H]^N = F_p[G/HN] is the coset
    module of HN/N over G/N, so F_p[G/H] itself is never built.  The
    budget width stays [G:H].
    """
    elements = frozenset(subgroup_elements)
    key = (group.key, elements, p, k_max, dim_budget)
    dims = cache.lookup("groupcoh.shapiro", key)
    if dims is None:
        h, _ = subgroup_group(group, elements)
        over, image = group, elements
        quotient = _p_prime_quotient(group, p)
        if quotient is not None:
            over, proj = quotient[0], quotient[3]
            image = {proj[x] for x in elements}
        index = group.order // len(elements)
        if len(image) == over.order:  # HN = G: F_p[G/HN] is the one-point module
            lhs = _one_point_dims(group, p, k_max, dim_budget, index)
        else:
            lhs = _dims(_budgeted_resolution(over, p, k_max, index, dim_budget),
                        coset_module(over, image, p), k_max)
        dims = cache.store("groupcoh.shapiro", key,
                           (lhs, _one_point_dims(h, p, k_max, dim_budget)))
    lhs, rhs = dims
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs,
            "index": group.order // len(elements)}


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
    last = range(len(ranks) - 2, len(ranks)) if len(ranks) >= 2 else ()
    stable = [k for k in range(k_max + 1) if last and all(
        ranks[i][k] == dims[i][k] == dims[i + 1][k] for i in last)]
    return {"dims": [tuple(d) for d in dims],
            "inflation_ranks": [tuple(r) for r in ranks],
            "stable_degrees": stable,
            "growing_degrees": [k for k in range(k_max + 1) if k not in stable],
            "k_max": k_max, "p": p, "depth": tower.depth}
