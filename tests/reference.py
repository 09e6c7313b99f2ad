"""Reference implementations and fixtures the tests compare the library to.

None of this runs on a `proflq` command path: these are brute-force
oracles (bar cochains over any permutation module, inflation as the
pullback of bar cocycles, the Symonds module fed to `cohomology` whole,
hom enumeration, isomorphism search, the integer Smith normal form, the
Smith form over Z/m with a full pivot scan, the dense matrix product
and the composite and sum of composites built on it, the direct sum as
it ran before it was memoized, rows packed from their bytes, subgroup
conjugacy and the subgroup class table, centralizers, Weyl images and
the S_p functor check by whole-group scans, the row-by-row homomorphism
check, the conjugation action on hom(V, G) one tuple at a time and the
coset action one element at a time, the rref in Python ints) and small
builders of test inputs (regular and direct-sum modules, the dense
matrices of a module, constant group towers, point towers) and of the
relative product and sum along a tower map, which only
`tower.decomposition_check` builds in the library.
"""

import itertools
from math import gcd

import numpy as np

from proflq import groupcoh as gc, linalg, lq, repv, snf, tower
from proflq.errors import BudgetError
from proflq.etale import FiniteEtaleSpace
from proflq.finring import FiniteModule, ModuleMap, from_cyclic, zero_map, zero_module
from proflq.groups import (FiniteGroup, GroupHom, all_subgroups, identity_hom,
                           left_cosets, trivial_group)
from proflq.tower import DEFAULT_BIT_BUDGET, EtaleTower, SpaceTower, TowerMap

# -- groups -------------------------------------------------------------------


def conj(g: FiniteGroup, h: int, x: int) -> int:
    """h x h⁻¹ from the table, without the conjugation rows."""
    return g.mul(g.mul(h, x), g.inv(h))


def centralizer(g: FiniteGroup, subset) -> list[int]:
    """C_g(subset) in increasing order, by a scan of g."""
    subset = list(subset)
    return [h for h in range(g.order)
            if all(g.mul(h, x) == g.mul(x, h) for x in subset)]


def normalizer(g: FiniteGroup, subgroup_elements) -> list[int]:
    """N_g(subgroup) in increasing order, by a scan of g."""
    s = frozenset(subgroup_elements)
    return [h for h in range(g.order) if {conj(g, h, x) for x in s} == s]


def conjugacy_classes(g: FiniteGroup) -> list[tuple[int, ...]]:
    seen = [False] * g.order
    classes = []
    for x in range(g.order):
        if seen[x]:
            continue
        orbit = sorted({conj(g, h, x) for h in range(g.order)})
        for y in orbit:
            seen[y] = True
        classes.append(tuple(orbit))
    return classes


def center(g: FiniteGroup) -> list[int]:
    return centralizer(g, range(g.order))


def is_abelian(g: FiniteGroup) -> bool:
    return bool((g.table == g.table.transpose()).all())


def _close_partial_map(source: FiniteGroup, target: FiniteGroup,
                       images: dict[int, int], frontier) -> dict[int, int] | None:
    """Close a partial map under products with the elements of `frontier`,
    on both sides; return the closed copy, or None when two products
    force different images."""
    images = dict(images)
    frontier = list(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(images):
                for x, y in ((source.mul(a, b), target.mul(images[a], images[b])),
                             (source.mul(b, a), target.mul(images[b], images[a]))):
                    if x in images:
                        if images[x] != y:
                            return None
                    else:
                        images[x] = y
                        nxt.append(x)
        frontier = nxt
    return images


def hom_from_generators(source: FiniteGroup, target: FiniteGroup,
                        gen_images: dict[int, int]) -> GroupHom:
    """Extend images of generating elements to the whole group by closure."""
    start = {0: 0, **gen_images}
    images = _close_partial_map(source, target, start, start)
    if images is None:
        raise ValueError("generator images are inconsistent")
    if len(images) != source.order:
        raise ValueError("generators do not generate the source")
    return GroupHom(source, target, [images[a] for a in range(source.order)])


def trivial_hom(g: FiniteGroup, target: FiniteGroup | None = None) -> GroupHom:
    return GroupHom(g, target or trivial_group(), [0] * g.order)


def is_hom(source: FiniteGroup, target: FiniteGroup, images) -> bool:
    """Whether `images` lists a homomorphism source -> target: one image
    per element, each an element of the target, and f(ab) = f(a) f(b)
    checked row by row over the Python tables: the scalar form of the
    one numpy comparison in `GroupHom`."""
    images = list(images)
    if len(images) != source.order or \
            not all(0 <= image < target.order for image in images):
        return False
    target_rows = target.table.tolist()
    for row, image in zip(source.table.tolist(), images):
        image_row = target_rows[image]
        if any(images[ab] != image_row[images[b]] for b, ab in enumerate(row)):
            return False
    return True


def _element_invariant(g: FiniteGroup, x: int, class_size: dict[int, int]):
    return (g.element_order(x), class_size[x], len(centralizer(g, [x])))


def _class_sizes(g: FiniteGroup) -> dict[int, int]:
    return {x: len(cls) for cls in conjugacy_classes(g) for x in cls}


def fingerprint(g: FiniteGroup):
    """A cheap isomorphism invariant used to pre-filter iso testing."""
    class_size = _class_sizes(g)
    orders = sorted((g.element_order(x), class_size[x]) for x in range(g.order))
    return (g.order, is_abelian(g), len(center(g)), tuple(orders))


def are_isomorphic(g: FiniteGroup, h: FiniteGroup) -> bool:
    """Backtracking isomorphism search over generator images."""
    if fingerprint(g) != fingerprint(h):
        return False
    gens = g.generators_greedy()
    class_size_g, class_size_h = _class_sizes(g), _class_sizes(h)

    def search(i, assignment):
        if i == len(gens):
            return len(assignment) == g.order
        target_inv = _element_invariant(g, gens[i], class_size_g)
        for y in range(h.order):
            if _element_invariant(h, y, class_size_h) != target_inv:
                continue
            closed = _close_partial_map(g, h, {**assignment, gens[i]: y},
                                        [gens[i]])
            if closed is None or len(set(closed.values())) != len(closed):
                continue  # a clash, or the map is not injective
            if search(i + 1, closed):
                return True
        return False

    return search(0, {0: 0})


def subgroups_up_to_conjugacy(g: FiniteGroup, subs=None) -> list[frozenset[int]]:
    """The first subgroup of each conjugacy class met in `subs` (default:
    the whole lattice), found by conjugating it by every element of g."""
    subs = all_subgroups(g) if subs is None else list(subs)
    reps, seen = [], set()
    for s in subs:
        if s not in seen:
            seen.update(g.conjugate_subgroup(x, s) for x in range(g.order))
            reps.append(s)
    return reps


def subgroup_classes(g: FiniteGroup, subs) -> tuple:
    """(index, reps, normalizers, conjugators) of `groups.SubgroupClasses`
    for the lattice `subs`, given in `all_subgroups` order, by
    conjugating the first subgroup of each class met by every element
    of g in increasing order, products read from the table: the first
    element reaching an image is its conjugator, and the elements fixing
    the subgroup its normalizer."""
    index, conjugators, reps, normalizers = {}, {}, [], []
    for s in subs:
        if s in index:
            continue
        for x in range(g.order):
            t = frozenset(conj(g, x, y) for y in s)
            if t not in index:
                index[t], conjugators[t] = len(reps), x
        reps.append(s)
        normalizers.append(tuple(x for x in range(g.order)
                                 if frozenset(conj(g, x, y) for y in s) == s))
    return {t: index[t] for t in subs}, tuple(reps), tuple(normalizers), conjugators


def p_subgroups_up_to_conjugacy(g: FiniteGroup, p: int) -> list[frozenset[int]]:
    def is_p_power(n):
        while n % p == 0:
            n //= p
        return n == 1

    return subgroups_up_to_conjugacy(
        g, [s for s in all_subgroups(g) if is_p_power(len(s))])


def _aut_perms(group: FiniteGroup, sub) -> frozenset:
    elems = sorted(sub)
    pos = {x: i for i, x in enumerate(elems)}
    return frozenset(tuple(pos[conj(group, n, x)] for x in elems)
                     for n in normalizer(group, sub))


def sp_functor_check(f: GroupHom, p: int) -> dict:
    """`sep.sp_functor_check` by scans: every conjugacy question is a
    search over the whole target group."""
    g, l = f.source, f.target
    subs_g = p_subgroups_up_to_conjugacy(g, p)
    subs_l = p_subgroups_up_to_conjugacy(l, p)

    def image(s):
        return frozenset(f(x) for x in s)

    a_failures = [(sorted(subs_g[i]), sorted(subs_g[j]))
                  for i in range(len(subs_g)) for j in range(i + 1, len(subs_g))
                  if l.are_conjugate_subgroups(image(subs_g[i]), image(subs_g[j]))]
    b_failures, b_skipped = [], []
    for s in subs_g:
        if len(image(s)) != len(s):
            b_skipped.append(sorted(s))
            continue
        eta = _aut_perms(g, s)
        elems = sorted(s)
        img_order = {f(x): i for i, x in enumerate(elems)}
        mu = {tuple(img_order[conj(l, n, f(x))] for x in elems)
              for n in normalizer(l, image(s))}
        if eta != frozenset(mu):
            b_failures.append({"subgroup": elems,
                               "eta_order": len(eta), "mu_order": len(mu)})
    c_failures = [sorted(t) for t in subs_l
                  if not any(l.are_conjugate_subgroups(image(s), t) for s in subs_g)]
    return {
        "a_conjugacy_reflected": not a_failures,
        "a_witnesses": a_failures,
        "b_full": not b_failures,
        "b_witnesses": b_failures,
        "b_skipped": b_skipped,
        "c_dense": not c_failures,
        "c_witnesses": c_failures,
        "equivalence": not (a_failures or b_failures or c_failures),
    }


def weyl_image(group: FiniteGroup, hom, p: int) -> dict:
    """`repv.weyl_image` by a normalizer scan: N_G(rho(V)) is every element
    fixing the image subgroup, and each matrix is kept with the first
    element of N_G(rho(V)), in increasing order, that gives it."""
    basis = repv.echelon_basis(group, hom)
    logs = repv._discrete_log_table(group, basis, p)
    realizers = {}
    for n in normalizer(group, group.closure(hom)):
        realizers.setdefault(tuple(logs[conj(group, n, b)] for b in basis), n)
    return realizers


# -- F_p elimination -------------------------------------------------------------


def object_rref(matrix, p: int) -> tuple[np.ndarray, list[int]]:
    """The reduced row-echelon form over F_p in Python ints (an object
    array), which no p overflows; returns (R, pivot_columns)."""
    a = np.array(matrix, dtype=object) % p
    pivots: list[int] = []
    for c in range(a.shape[1]):
        r = len(pivots)
        nz = [i for i in range(r, a.shape[0]) if a[i, c]]
        if not nz:
            continue
        a[[r, nz[0]]] = a[[nz[0], r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        for i in range(a.shape[0]):
            if i != r:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
    return a, pivots


def bytes_ints(bits: np.ndarray) -> list[int]:
    """Rows of a 0/1 array as ints, each read from its bytes by
    `int.from_bytes`; column c is bit cols - 1 - c."""
    rows, cols = bits.shape
    if cols == 0:
        return [0] * rows
    packed = np.packbits(bits, axis=1)
    shift = packed.shape[1] * 8 - cols
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i:i + width], "big") >> shift
            for i in range(0, len(data), width)]


def bytes_pack(matrix, p: int) -> tuple[list, int]:
    """`linalg._pack` with every row read from its bytes: an int per row at
    p = 2, a pair (ones, twos) at p = 3; and the number of columns."""
    a = np.asarray(matrix, dtype=np.int64) % p
    if p == 2:
        return bytes_ints(a), a.shape[1]
    return list(zip(bytes_ints(a == 1), bytes_ints(a == 2))), a.shape[1]


# -- group cohomology -----------------------------------------------------------


def regular_module(group: FiniteGroup, p: int) -> gc.GModule:
    action = [[group.mul(g, x) for x in range(group.order)]
              for g in range(group.order)]
    return gc.permutation_module(group, action, p)


def direct_sum_module(a: gc.GModule, b: gc.GModule) -> gc.GModule:
    """F_p[X] + F_p[Y] = F_p[X + Y]: the disjoint union of the G-sets."""
    if a.group is not b.group or a.p != b.p:
        raise ValueError("summands must share group and prime")
    return gc.permutation_module(a.group, np.hstack([a.action, b.action + a.dim]),
                                 a.p)


def dense(module: gc.GModule) -> np.ndarray:
    """The (|G|, d, d) permutation matrices: column x of g is e_{g.x}."""
    n, d = module.action.shape
    mats = np.zeros((n, d, d), dtype=np.int64)
    mats[np.arange(n)[:, None], module.action, np.arange(d)] = 1
    return mats


def bar_coboundary(group: FiniteGroup, module: gc.GModule, k: int) -> np.ndarray:
    """delta: C^k(G; M) -> C^{k+1}(G; M), inhomogeneous cochains."""
    n, p, d = group.order, module.p, module.dim
    mats = dense(module)
    tuples_k = list(itertools.product(range(n), repeat=k))
    tuples_k1 = list(itertools.product(range(n), repeat=k + 1))
    pos = {t: i for i, t in enumerate(tuples_k)}
    out = np.zeros((len(tuples_k1) * d, len(tuples_k) * d), dtype=np.int64)
    for i, t in enumerate(tuples_k1):
        rows = slice(i * d, (i + 1) * d)
        j = pos[t[1:]]
        out[rows, j * d:(j + 1) * d] += mats[t[0]]
        sign = -1
        for m in range(k):
            merged = t[:m] + (group.mul(t[m], t[m + 1]),) + t[m + 2:]
            j = pos[merged]
            out[rows, j * d:(j + 1) * d] += sign * np.eye(d, dtype=np.int64)
            sign = -sign
        j = pos[t[:-1]]
        out[rows, j * d:(j + 1) * d] += sign * np.eye(d, dtype=np.int64)
    return out % p


def bar_cohomology(group: FiniteGroup, module: gc.GModule, k_max: int,
                   dim_budget: int = gc.DEFAULT_DIM_BUDGET) -> tuple[int, ...]:
    """The same dimensions as `cohomology`, by brute-force bar cochains."""
    n, d = group.order, module.dim
    if n ** (k_max + 1) * max(d, 1) > dim_budget:
        raise BudgetError("bar cochain spaces exceed budget")
    if d == 0:
        return (0,) * (k_max + 1)
    dims = []
    prev_rank = 0
    for k in range(k_max + 1):
        delta = bar_coboundary(group, module, k)
        r = linalg.rank(delta, module.p)
        dims.append(n ** k * d - r - prev_rank)
        prev_rank = r
    return tuple(dims)


def bar_pullback(q: GroupHom, k: int) -> np.ndarray:
    """Matrix of q^#: C^k(G; F_p) -> C^k(G'; F_p), inhomogeneous cochains."""
    pos = {t: i for i, t in
           enumerate(itertools.product(range(q.target.order), repeat=k))}
    tuples_src = list(itertools.product(range(q.source.order), repeat=k))
    out = np.zeros((len(tuples_src), len(pos)), dtype=np.int64)
    for i, t in enumerate(tuples_src):
        out[i, pos[tuple(q(x) for x in t)]] = 1
    return out


def bar_inflation_ranks(q: GroupHom, p: int, k_max: int,
                        dim_budget: int = gc.DEFAULT_DIM_BUDGET) -> tuple[int, ...]:
    """The same ranks as `inflation_ranks`, by pulling back bar cocycles."""
    g, gp = q.target, q.source
    if max(g.order, gp.order) ** (k_max + 1) > dim_budget:
        raise BudgetError("bar cochain spaces exceed budget")
    trivial, trivial_src = gc.trivial_module(g, p), gc.trivial_module(gp, p)
    ranks = []
    for k in range(k_max + 1):
        cocycles = linalg.nullspace(bar_coboundary(g, trivial, k), p).transpose()
        pulled = (cocycles @ bar_pullback(q, k).transpose()) % p
        if k == 0:
            coboundaries = np.zeros((0, 1), dtype=np.int64)
        else:
            coboundaries = bar_coboundary(gp, trivial_src, k - 1).transpose()
        base = linalg.rank(coboundaries, p)
        ranks.append(linalg.rank(np.vstack([coboundaries, pulled]), p) - base)
    return tuple(ranks)


def whole_module_lhs(v, group: FiniteGroup, k_max: int,
                     dim_budget: int = gc.DEFAULT_DIM_BUDGET) -> tuple[int, ...]:
    """dims of H^•(G; C(hom(V, G), F_p)) with the Symonds module fed whole,
    not split into its orbit blocks as `lq.lq_check` splits it."""
    return gc.cohomology(group, lq.symonds_module(v, group), k_max, dim_budget)


def symonds_action(v, group: FiniteGroup,
                   budget: int = repv.DEFAULT_HOM_BUDGET) -> list[list[int]]:
    """action[g][i]: the index of g·rho·g⁻¹ for rho the i-th hom, looked up
    one tuple at a time, as `lq.symonds_module` built it before `repv`
    kept the action as one array; the conjugation rows are rebuilt from
    the multiplication table, not read from `group.conj`."""
    homs = repv.hom_enumerate(v, group, budget)
    pos = {h: i for i, h in enumerate(homs)}
    rows = [[conj(group, g, x) for x in range(group.order)] for g in range(group.order)]
    return [[pos[tuple(map(row.__getitem__, h))] for h in homs] for row in rows]


def coset_action(group: FiniteGroup, subgroup_elements) -> list[list[int]]:
    """action[g][i]: the coset of g·r_i, one product at a time, as
    `groupcoh.coset_module` built it before it was one gather."""
    coset_of, reps = left_cosets(group, subgroup_elements)
    return [[coset_of[group.mul(g, rep)] for rep in reps]
            for g in range(group.order)]


def constant_group_tower(group: FiniteGroup, depth: int) -> gc.GroupTower:
    return gc.GroupTower([group] * depth,
                         [identity_hom(group) for _ in range(depth - 1)])


# -- finite modules -------------------------------------------------------------


def hom_maps(m: FiniteModule, n: FiniteModule):
    """All homomorphisms M -> N, enumerated as ModuleMaps.

    There are prod gcd(a_j, b_i) of them; use only at small orders.
    """
    if m.ring != n.ring:
        raise ValueError("ring mismatch")
    choices = []
    for i, b in enumerate(n.factors):
        for j, a in enumerate(m.factors):
            g = gcd(a, b)
            choices.append([t * (b // g) for t in range(g)])
    for flat in itertools.product(*choices):
        matrix = [
            [flat[i * m.rank + j] for j in range(m.rank)] for i in range(n.rank)
        ]
        yield ModuleMap(m, n, matrix)


def dual_pairing(m: FiniteModule, x, xi) -> int:
    """<x, xi> in Z/m, where xi are coordinates in the dual (same factors)."""
    mm = m.ring.modulus
    return sum(x_i * xi_i * (mm // d) for x_i, xi_i, d in zip(x, xi, m.factors)) % mm


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The dense integer product a·b, as `snf` computed it before map
    matrices were multiplied only in `finring.sum_of_composites`."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch in mat_mul")
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = snf.zeros(len(a), cols)
    for i, row in enumerate(a):
        for k in range(inner):
            aik = row[k]
            if aik == 0:
                continue
            brow = b[k]
            orow = out[i]
            for j in range(cols):
                orow[j] += aik * brow[j]
    return out


def dense_compose(f: ModuleMap, g: ModuleMap) -> ModuleMap:
    """f after g by one dense product, as `ModuleMap.compose` ran before it
    became a sum of one composite."""
    if g.target != f.source:
        raise ValueError("maps are not composable")
    if f.source.is_zero:
        # g.matrix has no rows, so the product would lose its width
        return zero_map(g.source, f.target)
    return ModuleMap(g.source, f.target, mat_mul(f.matrix, g.matrix))


def add_maps(f: ModuleMap, g: ModuleMap) -> ModuleMap:
    """f + g, validated as a new map."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("maps with different endpoints")
    return ModuleMap(f.source, f.target,
                     [[a + b for a, b in zip(r1, r2)]
                      for r1, r2 in zip(f.matrix, g.matrix)])


def uncached_direct_sum(modules: list[FiniteModule]):
    """`finring.direct_sum` as it ran before `proflq.cache` kept its
    results: every call normalizes the sum and builds fresh maps."""
    if not modules:
        raise ValueError("direct_sum of an empty list needs a ring; use zero_module")
    ring = modules[0].ring
    if any(m.ring != ring for m in modules):
        raise ValueError("ring mismatch in direct_sum")
    orders = [d for m in modules for d in m.factors]
    total, to_normal, from_normal = from_cyclic(ring, orders)
    injections, projections = [], []
    off = 0
    for m in modules:
        block = range(off, off + m.rank)
        inj = [[to_normal[i][j] for j in block] for i in range(total.rank)]
        proj = [from_normal[j] for j in block]
        injections.append(ModuleMap(m, total, inj))
        projections.append(ModuleMap(total, m, proj))
        off += m.rank
    return total, injections, projections


def uncached_dual_map(f: ModuleMap) -> ModuleMap:
    """`finring.dual_map` as it ran before `proflq.cache` kept its results:
    entry (j, i) of f^v is f_ij scaled by a_j / b_i, a and b the source
    and target factors, so that <f(x), xi> = <x, f^v(xi)>."""
    a, b = f.source.factors, f.target.factors
    return ModuleMap(f.target, f.source,
                     [[f.matrix[i][j] * a[j] // b[i] for i in range(len(b))]
                      for j in range(len(a))])


# -- integer Smith normal form ---------------------------------------------------

# The classic integer algorithm: the pivot is the entry of least absolute
# value in the part not yet diagonal, chosen afresh after every pass, and a
# pass reduces the pivot's row and column by the nearest quotient, so each
# remainder left is at most half the pivot.  The library's former version
# kept one pivot row through a whole Euclid sequence with floor quotients;
# its entries grew past 10^5 bits on a 3 x 5 matrix with entries below 200.


def integer_smith_normal_form(matrix: list[list[int]]) -> tuple[
        list[list[int]], list[list[int]], list[list[int]], list[list[int]]]:
    """Return (L, D, R, L^-1) with L @ matrix @ R == D over the integers.

    L and R are unimodular, D is diagonal with d_1 | d_2 | ... and
    nonnegative entries.  Empty matrices are allowed.  Every row operation
    on L is matched by the inverse column operation on L^-1, so the two
    stay inverse to each other throughout.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    a = [list(r) for r in matrix]
    left = snf.identity(rows)
    left_inv = snf.identity(rows)
    right = snf.identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]
        for r in left_inv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in right:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        # row_dst += c * row_src
        arow, lrow = a[src], left[src]
        for j in range(cols):
            a[dst][j] += c * arow[j]
        for j in range(rows):
            left[dst][j] += c * lrow[j]
        for r in left_inv:
            r[src] -= c * r[dst]

    def add_col(src, dst, c):
        for r in a:
            r[dst] += c * r[src]
        for r in right:
            r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]
        for r in left_inv:
            r[i] = -r[i]

    def nearest(x, p):
        # the quotient q with |x - q p| <= |p| / 2
        q, r = divmod(x, p)
        return q + 1 if 2 * abs(r) > abs(p) else q

    t = 0
    while t < min(rows, cols):
        # the pivot: a nonzero entry of least absolute value in a[t:, t:]
        piv = min(((abs(a[i][j]), i, j) for i in range(t, rows)
                   for j in range(t, cols) if a[i][j]), default=None)
        if piv is None:
            break
        swap_rows(t, piv[1])
        swap_cols(t, piv[2])
        p = a[t][t]
        for i in range(t + 1, rows):
            if a[i][t]:
                add_row(t, i, -nearest(a[i][t], p))
        for j in range(t + 1, cols):
            if a[t][j]:
                add_col(t, j, -nearest(a[t][j], p))
        # a remainder left in row or column t is a smaller pivot
        if any(a[i][t] for i in range(t + 1, rows)) or \
                any(a[t][j] for j in range(t + 1, cols)):
            continue
        # divisibility: a[t][t] must divide every later entry; adding a row
        # that breaks it leaves a remainder in row t for the next pass
        bad = next((i for i in range(t + 1, rows)
                    if any(a[i][j] % p for j in range(t + 1, cols))), None)
        if bad is not None:
            add_row(bad, t, 1)
            continue
        if p < 0:
            negate_row(t)
        t += 1

    diag = snf.zeros(rows, cols)
    for i in range(min(rows, cols)):
        diag[i][i] = a[i][i]
    return left, diag, right, left_inv


# -- Smith normal form over Z/m, before its pivot search skipped zeros -----------


def full_scan_smith_normal_form(matrix: list[list[int]], m: int) -> tuple[
        list[list[int]], list[int], list[list[int]]]:
    """`snf.smith_normal_form` as it ran before its pivot search skipped
    zeros and stopped at the first unit, and before it skipped the
    divisibility scan under a unit pivot: it takes the gcd of every entry
    with m at every step.  Returns the same (L, d, L^-1)."""
    rows = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    a = [[x % m for x in r] for r in matrix]
    left = snf.identity(rows)
    left_inv = snf.identity(rows)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]
        for r in left_inv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]

    def mix_rows(i, j, s, u, v, w):
        # (row_i, row_j) <- (s·row_i + u·row_j, v·row_i + w·row_j), s·w - u·v = 1
        for mat in (a, left):
            ri, rj = mat[i], mat[j]
            mat[i] = [(s * x + u * y) % m for x, y in zip(ri, rj)]
            mat[j] = [(v * x + w * y) % m for x, y in zip(ri, rj)]
        for r in left_inv:
            r[i], r[j] = (w * r[i] - v * r[j]) % m, (s * r[j] - u * r[i]) % m

    def mix_cols(i, j, s, u, v, w):
        for r in a:
            r[i], r[j] = (s * r[i] + u * r[j]) % m, (v * r[i] + w * r[j]) % m

    def eliminate(mix, p, e, i, j):
        # zero e against the pivot p by the unimodular 2x2 step mix on i, j
        if e % p == 0:
            mix(i, j, 1, 0, -(e // p), 1)
        else:
            g, s, u = snf._bezout(p, e)
            mix(i, j, s, u, -(e // g), p // g)

    d = [m] * min(rows, cols)
    for t in range(len(d)):
        best, piv = m, None
        for i in range(t, rows):
            for j in range(t, cols):
                g = gcd(a[i][j], m)
                if g < best:
                    best, piv = g, (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        # clear column and row t; each Bézout step shrinks the pivot
        while True:
            i = next((i for i in range(t + 1, rows) if a[i][t]), None)
            if i is not None:
                eliminate(mix_rows, a[t][t], a[i][t], t, i)
                continue
            j = next((j for j in range(t + 1, cols) if a[t][j]), None)
            if j is not None:
                eliminate(mix_cols, a[t][t], a[t][j], t, j)
                continue
            # divisibility: gcd(pivot, m) must divide every later entry
            d[t] = gcd(a[t][t], m)
            bad = next((i for i in range(t + 1, rows)
                        if any(x % d[t] for x in a[i][t + 1:])), None)
            if bad is None:
                break
            mix_rows(t, bad, 1, 1, 0, 1)
    return left, d, left_inv


# -- etale spaces and towers ------------------------------------------------------


def zero_space(base, ring) -> FiniteEtaleSpace:
    return FiniteEtaleSpace(base, {t: zero_module(ring) for t in base})


def point_tower(depth: int) -> SpaceTower:
    return SpaceTower([("pt",)] * (depth + 1), [{"pt": "pt"}] * depth)


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


def relative_product(a: FiniteModule, pi: TowerMap,
                     bit_budget: int = DEFAULT_BIT_BUDGET) -> EtaleTower:
    """The pushforward of the constant tower along pi, fiber A^{pi^{-1}(s)}
    at s: the product side of `tower.decomposition_check`, built alone."""
    return tower._relative("ind", pi, tower._relative_sections(a, pi, bit_budget))


def relative_sum(a: FiniteModule, pi: TowerMap,
                 bit_budget: int = DEFAULT_BIT_BUDGET) -> EtaleTower:
    """The dual pushforward, fiber A[[pi^{-1}(s)]] at s: the sum side of
    `tower.decomposition_check`, built alone."""
    return tower._relative("pro", pi, tower._relative_sections(a, pi, bit_budget))


def dense_sum_of_composites(source: FiniteModule, target: FiniteModule,
                            chains) -> ModuleMap:
    """`finring.sum_of_composites` as it ran before it summed sparsely: each
    composite of a chain is a dense product by `mat_mul`, added cell
    by cell into one unreduced total, which is reduced once."""
    total = snf.zeros(target.rank, source.rank)
    for chain in chains:
        if (chain[0].target != target or chain[-1].source != source
                or any(f.source != g.target for f, g in zip(chain, chain[1:]))):
            raise ValueError("maps are not composable")
        if any(f.source.is_zero for f in chain):
            continue  # the composite factors through 0
        product = chain[0].matrix
        for f in chain[1:]:
            product = mat_mul(product, f.matrix)
        for row, summand in zip(total, product):
            for j, v in enumerate(summand):
                row[j] += v
    return ModuleMap(source, target, total)
