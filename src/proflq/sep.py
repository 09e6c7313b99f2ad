"""Separability checks: how Rep(V, -) and the p-subgroup category see a
homomorphism f: G -> L.

`fv_map` pushes Rep(V, G) into Rep(V, L) along `repv.class_map`, the
push-forward `repv.rep_tower` takes along transitions, and reports
injectivity and surjectivity with witnesses; both Rep sets come with
centralizers `repv` has checked.  `fullness_check` compares the two Weyl
images eta(N_G(rho(V))) and mu(N_L(f rho(V))) after transporting the
basis along f; since conjugation by n and by f(n) give the same matrix,
eta sits inside mu and the question is whether the inclusion is onto.
`sp_functor_check` runs the analogous conditions over all finite
p-subgroups, reading conjugacy from the subgroup class tables of both
groups and comparing normalizer automorphisms by where they send the
generators the class table keeps for each representative: one read of
each generator's conjugation column over the whole normalizer, one tuple
per automorphism kept.
`conjugacy_distinguished` scans a quotient tower for the first level
separating two conjugacy threads, of elements or of subgroups alike.

Neither check builds N_L by a scan of L.  `fullness_check` reads mu and
its least realizers from the one pass of `repv.weyl_image` over L, and
`sp_functor_check` reads N_L(t) from the class table as c·N(rep)·c⁻¹,
with c the conjugator stored for t, after a `require` that c really
carries the representative to t.
"""

from __future__ import annotations

from numbers import Integral

from .groups import (FiniteGroup, GroupHom, p_subgroups_up_to_conjugacy,
                     subgroup_classes)
from .groupcoh import GroupTower
from . import repv
from .errors import require
from .repv import ElementaryAbelian


def fv_map(v: ElementaryAbelian, f: GroupHom,
           budget: int = repv.DEFAULT_HOM_BUDGET) -> dict:
    """The induced map Rep(V, G) -> Rep(V, L) with verdicts.

    Injectivity failures are witnessed by pairs of source classes that
    collide; surjectivity failures by the unhit target classes.
    """
    mapping = repv.class_map(v, f, budget)
    dst_classes, _ = repv.rep_classes(v, f.target, budget)
    collisions = {}
    for i, j in enumerate(mapping):
        collisions.setdefault(j, []).append(i)
    collision_witnesses = [tuple(v_) for v_ in collisions.values()
                           if len(v_) > 1]
    missed = sorted(set(range(len(dst_classes))) - set(mapping))
    return {
        "mapping": mapping,
        "injective": not collision_witnesses,
        "surjective": not missed,
        "collisions": collision_witnesses,
        "missed_classes": [dst_classes[i].representative for i in missed],
    }


def fullness_check(v: ElementaryAbelian, f: GroupHom, class_index: int,
                   budget: int = repv.DEFAULT_HOM_BUDGET) -> dict:
    """Compare eta(N_G(rho(V))) with mu(N_L(f rho(V))) for one class.

    Skips (with a note) classes whose representative is not injective,
    or on which f fails to be injective — the orbit formula behind the
    comparison needs a free Aut(V)-action.  eta is the Weyl image the
    class of Rep(V, G) carries.  Raises InvariantError if eta is not
    inside mu.  mu and its realizers come from one `repv.weyl_image`
    pass over L; the witness of a failure is the least element of
    N_L(f rho(V)) that realizes the least matrix of mu outside eta.
    """
    classes, _ = repv.rep_classes(v, f.source, budget)
    c = classes[class_index]
    if c.image_rank != v.r:
        return {"skipped": True,
                "note": "non-injective rho: fullness not asserted",
                "class": c.representative}
    realizers = repv.weyl_image(f.target, tuple(map(f, c.representative)),
                                 v.p)
    # mu acts on f(rho(V)), which has rank r exactly when f is injective on rho(V)
    if len(next(iter(realizers))) != v.r:
        return {"skipped": True,
                "note": "f is not injective on the image of rho",
                "class": c.representative}
    eta, mu = set(c.weyl), set(realizers)
    require(eta <= mu, "conjugation by f(n) must reproduce eta",
            {"not_in_mu": sorted(eta - mu)})
    witness = None
    if eta != mu:
        missing = min(mu - eta)
        witness = {"matrix": missing, "realized_by": realizers[missing]}
    return {
        "skipped": False,
        "class": c.representative,
        "eta_order": len(eta),
        "mu_order": len(mu),
        "injective": True,  # the transported map is a set inclusion
        "surjective": eta == mu,
        "bijective": eta == mu,
        "witness": witness,
    }


def _normalizer(group: FiniteGroup, t) -> list[int]:
    """N(t) in increasing order, read from the class table of `group`:
    with c the stored conjugator of t, N(t) = c·N(rep)·c⁻¹."""
    classes = subgroup_classes(group)
    k, c = classes.index[t], classes.conjugators[t]
    require(group.conjugate_subgroup(c, classes.reps[k]) == t,
            "the stored conjugator must carry the class representative to t",
            {"subgroup": sorted(t), "conjugator": c, "rep": sorted(classes.reps[k])})
    return sorted([group.conj_cols[n][c] for n in classes.normalizers[k]])


def _aut_perms(group: FiniteGroup, gens, normalizer, elems) -> frozenset:
    """Conjugation by each element of `normalizer`, recorded by where it
    sends `gens`, as positions in `elems`: an automorphism of the
    subgroup is fixed by the images of a generating set.

    The images of each generator under the whole normalizer are one read
    of its conjugation column; their distinct tuples, one per coset of
    the centralizer, are the automorphisms, and only those are mapped to
    positions.  No generator (the trivial subgroup) gives the identity."""
    cols, pos = group.conj_cols, {x: i for i, x in enumerate(elems)}.__getitem__
    images = set(zip(*(map(cols[x].__getitem__, normalizer) for x in gens))) or {()}
    return frozenset(tuple(map(pos, image)) for image in images)


def sp_functor_check(f: GroupHom, p: int) -> dict:
    """The Section-5 bullet conditions for f_p: S_p(G) -> S_p(L).

    (a) p-subgroups of G are conjugate iff their images are conjugate;
    (b) the normalizer automorphism images agree after transport
        (fullness at the level of finite p-subgroups);
    (c) every p-subgroup of L is conjugate to an image (density).

    Conjugacy in L is read from the class index of `subgroup_classes(L)`,
    and N_G of a class representative from that of G.  N_L of an image
    is the stored conjugate of its representative's normalizer, so no
    condition scans L.  In (b) an automorphism of s is recorded by the
    images of the generators of s kept in the class table of G, and one
    of f(s) by the images of f of the same generators; s is skipped when
    f is not injective on it.
    """
    g, l = f.source, f.target
    classes_g, classes_l = subgroup_classes(g), subgroup_classes(l)
    subs_g = p_subgroups_up_to_conjugacy(g, p)
    f_of = f.images.__getitem__
    images = [frozenset(map(f_of, s)) for s in subs_g]
    image_class = [classes_l.index.get(image) for image in images]
    require(None not in image_class, "the image of a subgroup must be a subgroup",
            {"images": [sorted(image) for image, k in zip(images, image_class)
                        if k is None]})

    # representatives of distinct classes are never conjugate: every pair
    # i < j whose images share a class fails, read off the class members
    members: dict[int, list[int]] = {}
    for i, k in enumerate(image_class):
        members.setdefault(k, []).append(i)
    a_failures = [(sorted(subs_g[i]), sorted(subs_g[j]))
                  for i, k in enumerate(image_class) for j in members[k] if j > i]

    b_failures = []
    b_skipped = []
    for s, image in zip(subs_g, images):
        if len(image) != len(s):
            b_skipped.append(sorted(s))
            continue
        # transport: index elements of the image by f of the sorted source
        elems, k = sorted(s), classes_g.index[s]
        gens = classes_g.generators[k]
        eta = _aut_perms(g, gens, classes_g.normalizers[k], elems)
        mu = _aut_perms(l, list(map(f_of, gens)), _normalizer(l, image),
                        list(map(f_of, elems)))
        if eta != mu:
            b_failures.append({"subgroup": elems,
                               "eta_order": len(eta), "mu_order": len(mu)})

    hit = set(image_class)
    c_failures = [sorted(t) for t in p_subgroups_up_to_conjugacy(l, p)
                  if classes_l.index[t] not in hit]

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


def _check_thread(tower: GroupTower, thread) -> tuple[list[frozenset[int]], bool]:
    """A thread of elements or of subgroups as one element set per level,
    checked against the transitions; the flag is set for elements.  Each
    entry lies in its level, and a subgroup entry is its own closure."""
    thread = list(thread)
    if len(thread) != tower.depth:
        raise ValueError("thread length must equal tower depth")
    elements = all(isinstance(x, Integral) for x in thread)
    sets = [frozenset([x]) if elements else frozenset(x) for x in thread]
    for k, (g, s) in enumerate(zip(tower.levels, sets)):
        if any(not 0 <= x < g.order for x in s):
            raise ValueError(f"thread entry at level {k} is not in 0..{g.order - 1}")
        if not elements and g.closure(s) != s:
            raise ValueError(f"thread entry at level {k} is not a subgroup")
    for k, q in enumerate(tower.transitions):
        if frozenset(map(q, sets[k + 1])) != sets[k]:
            raise ValueError(f"thread incompatible at transition {k}")
    return sets, elements


def conjugacy_distinguished(x_thread, y_thread, tower: GroupTower) -> dict:
    """Smallest level separating two threads, or an exhausted report.

    Both threads are of elements, reported as "x" and "y", or both of
    subgroups, reported as "a" and "b" (sorted element lists).  An
    element is compared as the one-point set it forms.
    """
    (x, elements), (y, y_elements) = (_check_thread(tower, x_thread),
                                      _check_thread(tower, y_thread))
    if elements != y_elements:
        raise ValueError("threads must both be of elements or of subgroups")
    for k, g in enumerate(tower.levels):
        if not g.are_conjugate_subgroups(x[k], y[k]):
            if elements:
                return {"separated": True, "level": k,
                        "x": min(x[k]), "y": min(y[k])}
            return {"separated": True, "level": k,
                    "a": sorted(x[k]), "b": sorted(y[k])}
    return {"separated": False, "levels_checked": tower.depth,
            "note": "all supplied levels conjugate; no claim beyond depth"}
