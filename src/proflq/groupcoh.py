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
tower transition q: G' -> G uses the same resolutions, through a chain
map over q lifted one degree at a time.  So `dim_budget` has one meaning:
the Betti number times the width (dim M, or |G| for the chain map).

The resolution of G is greedy when O_p'(G), the largest normal subgroup
of order prime to p, is trivial, and lifted from G/O_p'(G) otherwise.
The greedy builder picks its generators one at a time: a kernel vector
becomes a generator when it lies outside the span of the translates
chosen so far, which a `linalg.RowSpace` tracks incrementally.  ker d_i
is taken from the rows of d_i at the free coordinates of ker d_{i-1}
alone.  The lift rests on e = |N|^-1 sum_{x in N} x for N = O_p'(G): a
central idempotent with F_pG e = F_p[G/N] (Maschke; the collapse of
Hochschild-Serre, Brown, Cohomology of Groups, VII).  So the greedy
resolution P of G/N, with Betti numbers b_i, resolves F_p over G on the
e-half of free modules, and contractible pairs U (in the e-half) and W
(in the (1 - e)-half) pad both halves to one rank c_i: from c_0 = 1,
u_0 = 0 and w_0 = 1,

    c_i = max(b_i + u_{i-1}, w_{i-1}),  u_i = c_i - b_i - u_{i-1},
    w_i = c_i - w_{i-1}.

The factor |N|^-1 is what makes e idempotent: without it the W copies,
which map by 1 - e, would map by 1 - sum_{x in N} x, whose augmentation
1 - |N| is nonzero unless |N| = 1 (mod p).  When p does not divide |G|,
G/N = 1 and every Betti number is 1.  Differentials are kept in uint8
(the narrowest unsigned dtype that holds p - 1), as they live in the
cache for the life of the process, and H^•(G; F_p) once per (table, p),
looked up after the budget is applied.
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
from .errors import BudgetError, require
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
    """... -> F_2 -> F_1 -> F_0 -> F_p -> 0 with F_i = (F_pG)^{betti[i]},
    built greedily: `free_resolution` uses it when O_p'(G) = 1, which
    holds for every G/O_p'(G), and lifts from it otherwise.

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
            conjugates = {row[x] for row in group.conj_rows}
            seen |= conjugates
            if len(group.closure(conjugates)) % p:
                core |= conjugates
    return frozenset(core)


class LiftedResolution:
    """The resolution of F_p over F_pG lifted from that of Q = G/N, where
    N = O_p'(G) != 1 (see the module docstring for the ranks c_i, u_i and
    w_i of F_i = (P_i + U_i + U_{i-1}) e + (W_i + W_{i-1}) (1 - e)).

    The P-block of d_i is |N|^-1 D_Q read through the coset map: row (k, y)
    from (k, proj y) and column (j, g) from (j, proj g).  The U_{i-1} copies
    map by e onto their copies in F_{i-1}, the W_{i-1} copies by 1 - e, and
    U_i and W_i map to 0.  The generators of F_i hold, in e, P first, then
    U_{i-1}, then U_i; and in 1 - e, W_{i-1} first, then W_i.
    """

    def __init__(self, group: FiniteGroup, p: int, core: frozenset[int]):
        require(group.closure(core) == core and len(core) % p
                and all(row[x] in core for row in group.conj_rows for x in core),
                f"O_p'(G) is not a normal p'-subgroup: {sorted(core)} at p = {p}",
                {"group": group.name or f"order{group.order}", "p": p,
                 "core": sorted(core)})
        self.group = group
        self.p = p
        self._quotient, proj = quotient_group(group, core)
        self._proj = np.array(proj)
        # e and 1 - e in the basis {y}: column g of e is |N|^-1 on the coset
        # gN.  An entry of d_i adds at most two of these entries, each < p.
        self._acc = np.min_scalar_type(2 * (p - 1))
        self._scale = pow(len(core), -1, p)
        e = self._scale * (self._proj[:, None] == self._proj)
        self._e = e.astype(self._acc)
        self._not_e = ((np.eye(len(proj), dtype=np.int64) - e) % p).astype(self._acc)
        self.betti = [1]
        self.differentials: list[np.ndarray] = []
        self._pads = [(0, 0), (0, 1)]  # (u_i, w_i) for i = -1, 0

    def extend_to(self, length: int):
        """Ensure differentials d_1 .. d_length exist."""
        if len(self.differentials) < length:
            quotient = free_resolution(self._quotient, self.p, length)
            while len(self.differentials) < length:
                self._lift_once(quotient)

    def _lift_once(self, quotient):
        i = len(self.differentials) + 1
        p, n, m = self.p, self.group.order, self._quotient.order
        b_dst, b_src = quotient.betti[i - 1], quotient.betti[i]
        (u2, w2), (u1, w1) = self._pads[-2:]
        c = max(b_src + u1, w1)
        self._pads.append((c - b_src - u1, c - w1))
        d = np.zeros((self.betti[-1], n, c, n), dtype=self._acc)
        d_q = (quotient.differentials[i - 1].astype(np.int64) * self._scale % p
               ).reshape(b_dst, m, b_src, m)
        d[:b_dst, :, :b_src] = d_q[:, self._proj][..., self._proj]
        d[b_dst + u2 + np.arange(u1), :, b_src + np.arange(u1)] = self._e
        d[w2 + np.arange(w1), :, np.arange(w1)] += self._not_e
        d %= p
        self.betti.append(c)
        self.differentials.append(d.astype(np.min_scalar_type(p - 1), copy=False)
                                  .reshape(self.betti[-2] * n, c * n))


Resolution = FreeResolution | LiftedResolution


def free_resolution(group: FiniteGroup, p: int, length: int) -> Resolution:
    """The cached resolution of F_p over F_pG through F_length: lifted from
    G/O_p'(G) when O_p'(G) != 1, greedy otherwise."""
    key = (group.table.tobytes(), p)
    res = cache.lookup("groupcoh.resolutions", key)
    if res is None:
        core = _p_prime_core(group, p)
        res = cache.store("groupcoh.resolutions", key,
                          LiftedResolution(group, p, core) if len(core) > 1
                          else FreeResolution(group, p))
    res.extend_to(length)
    return res


def _coefficients(res: Resolution, i: int) -> np.ndarray:
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


def _coboundary_rank(res: Resolution, module: GModule, i: int) -> int:
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
                         dim_budget: int) -> Resolution:
    """The resolution through F_{k_max + 1}, if betti * width fits the budget."""
    res = free_resolution(group, p, k_max + 1)
    dim = max(res.betti[:k_max + 2]) * width
    if dim > dim_budget:
        raise BudgetError(f"cochain dimension {dim} exceeds budget {dim_budget}")
    return res


def _dims(res: Resolution, module: GModule, k_max: int) -> tuple[int, ...]:
    """dim H^k(G; M) for k <= k_max, ranked on a budgeted resolution."""
    ranks = [0] + [_coboundary_rank(res, module, k) for k in range(k_max + 1)]
    return tuple(res.betti[k] * module.dim - ranks[k + 1] - ranks[k]
                 for k in range(k_max + 1))


def _one_point_dims(group: FiniteGroup, p: int, k_max: int,
                    dim_budget: int) -> tuple[int, ...]:
    """dims of H^•(G; F_p), kept per (table, p) and looked up after the
    budget is applied; the one-point module is built on a miss only."""
    res = _budgeted_resolution(group, p, k_max, 1, dim_budget)
    key = (group.table.tobytes(), p)
    dims = cache.lookup("groupcoh.one_point_dims", key, lambda d: len(d) > k_max)
    if dims is None:
        dims = cache.store("groupcoh.one_point_dims", key,
                           _dims(res, trivial_module(group, p), k_max))
    return dims[:k_max + 1]


def cohomology(group: FiniteGroup, module: GModule, k_max: int,
               dim_budget: int = DEFAULT_DIM_BUDGET) -> tuple[int, ...]:
    """Graded dimensions (dim H^0, ..., dim H^{k_max})."""
    if module.group is not group and \
            not (module.group.table == group.table).all():
        raise ValueError("module is not over the given group")
    if module.dim == 0:
        return (0,) * (k_max + 1)
    if module.dim == 1:  # the one-point module
        return _one_point_dims(group, module.p, k_max, dim_budget)
    return _dims(_budgeted_resolution(group, module.p, k_max, module.dim, dim_budget),
                 module, k_max)


# ---------------------------------------------------------------------------
# inflation through a chain map between resolutions


def _chain_map(q: GroupHom, res: Resolution, res_src: Resolution,
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
    back cocycles of G modulo the coboundaries of G'.
    """
    g, gp = q.target, q.source
    res = _budgeted_resolution(g, p, k_max, g.order, dim_budget)
    res_src = _budgeted_resolution(gp, p, k_max, gp.order, dim_budget)
    trivial, trivial_src = trivial_module(g, p), trivial_module(gp, p)
    ranks = []
    for k, x in enumerate(_chain_map(q, res, res_src, k_max)):
        inflation = x.reshape(res.betti[k], g.order, res_src.betti[k]).sum(axis=1)
        delta = _hom_coboundary(_coefficients(res, k), trivial)
        pulled = linalg.nullspace(delta, p).transpose() @ inflation % p
        coboundaries = (_hom_coboundary(_coefficients(res_src, k - 1), trivial_src)
                        .transpose() if k else np.zeros((0, 1), dtype=np.int64))
        base = linalg.rank(coboundaries, p)
        ranks.append(linalg.rank(np.vstack([coboundaries, pulled]), p) - base)
    return tuple(ranks)


# ---------------------------------------------------------------------------
# Shapiro and towers


def shapiro_check(group: FiniteGroup, subgroup_elements, p: int, k_max: int,
                  dim_budget: int = DEFAULT_DIM_BUDGET) -> dict:
    """Compare H^k(G; F_p[G/H]) with H^k(H; F_p), k <= k_max; the pair is
    memoized with the budget in its key, and computed on a miss only."""
    elements = frozenset(subgroup_elements)
    key = (group.table.tobytes(), elements, p, k_max, dim_budget)
    dims = cache.lookup("groupcoh.shapiro", key)
    if dims is None:
        induced = coset_module(group, elements, p)
        h, _ = subgroup_group(group, elements)
        dims = cache.store("groupcoh.shapiro", key, (
            cohomology(group, induced, k_max, dim_budget),
            _one_point_dims(h, p, k_max, dim_budget)))
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
