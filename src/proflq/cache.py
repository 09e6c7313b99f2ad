"""The memo tables the library keeps for the life of a process, in one place.

Each region is a plain dict under a fixed name.  The group regions are
keyed on `FiniteGroup.key`, the bytes of the group's read-only
multiplication table serialized once when the group is built (plus
whatever else fixes the result), so equal tables share entries whatever
the groups are called:

* `groupcoh.resolutions` — the greedy free resolution of F_p over
  F_p[G], per (table, p), extended in place when a longer one is asked
  for; its differentials are uint8 for every p < 257.  Cohomology is
  ranked on the resolutions of the quotients G/O_p'(G) below, inflation
  on those of a tower's levels.  The resolution of G/O_p'(G) also keeps
  the dims of H^•(G; F_p), replaced when a larger k_max is asked for;
* `groupcoh.p_prime_quotients` — per (table, p), the quotient G/N by
  N = O_p'(G), with a representative of each coset, the elements of N
  and the projection G -> G/N, or an empty tuple when N = 1;
* `groupcoh.shapiro` — the pair of dims of H^•(G; F_p[G/H]) and of
  H^•(H; F_p), per (table, frozenset of H, p, k_max, dim_budget);
* `repv.rep_classes` — Rep(V, G) per (table, p, r), as one record:
  hom(V, G) in lex order, the classes and orbit map as tuples, checked
  when they were made, and the read-only array of G's conjugation action
  on hom(V, G) whose orbits they are.

The module regions are keyed on the modules and maps themselves, which
are frozen and hashable, not on table bytes:

* `finring.direct_sum` — the normalized sum per tuple of summands, as a
  `finring.DirectSum`: the total and the normalizing matrices, with each
  injection and projection built the first time a caller reads it and
  kept from then on;
* `finring.cokernel` — per `ModuleMap` (its source, target and reduced
  matrix), the cokernel Q with the rows of the Smith transform that
  give pi, and the pair (Q, pi) of `finring.cokernel` once it has built
  pi; `kernel` reads the pair, and `image`, `is_injective` and
  `is_surjective` read Q alone;
* `finring.dual_map` — the dual f^v per `ModuleMap` f, stored under f
  only, never under f^v, so the double dual of a map is computed, not
  looked up;
* `tower.fiber_glue` — the gluing map between two levels of a fiber of
  a pushforward along a tower map (the grouped sides of
  `tower.decomposition_check`), per (source, target, chains of section
  maps); the fibers are sections of one module over a few points, built
  from the shared maps of `finring.direct_sum`, so equal gluings recur.

Modules and maps hash themselves once, when built, so a lookup rehashes
nothing.

`lookup` counts a hit or a miss per region.  Nothing is evicted: every
key is a group of desk-scale order, the summands of a desk-scale sum or
a map between desk-scale modules.
`clear()` empties every region and zeroes the counters; `stats()`
reports entries, hits and misses.
"""

from __future__ import annotations

from collections import Counter

REGIONS = ("groupcoh.resolutions", "groupcoh.p_prime_quotients",
           "groupcoh.shapiro", "repv.rep_classes", "finring.direct_sum",
           "finring.cokernel", "finring.dual_map", "tower.fiber_glue")

_ENTRIES = {name: {} for name in REGIONS}
_HITS: Counter = Counter()
_MISSES: Counter = Counter()


def lookup(region: str, key):
    """The entry of `region` under `key`, or None on a miss."""
    value = _ENTRIES[region].get(key)
    if value is None:
        _MISSES[region] += 1
        return None
    _HITS[region] += 1
    return value


def store(region: str, key, value):
    """Put `value` under `key` in `region` and return it."""
    _ENTRIES[region][key] = value
    return value


def clear() -> None:
    """Empty every region and zero every counter."""
    for entries in _ENTRIES.values():
        entries.clear()
    _HITS.clear()
    _MISSES.clear()


def stats() -> dict:
    """{region: {"entries", "hits", "misses"}} for every region."""
    return {name: {"entries": len(_ENTRIES[name]), "hits": _HITS[name],
                   "misses": _MISSES[name]} for name in REGIONS}
