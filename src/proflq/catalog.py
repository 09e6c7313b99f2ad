"""Catalog of every isomorphism type of group of order <= 24.

Each group is built by an explicit construction (cyclic, dihedral,
dicyclic, (semi)direct products, central products, matrix actions), so
the catalog doubles as a stress corpus: 74 groups in all, with the
familiar counts per order (14 of order 16, 15 of order 24, ...).
"""

from __future__ import annotations

from .errors import require
from .groups import (
    FiniteGroup,
    alternating_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    group_from_permutations,
    quotient_group,
    semidirect_cyclic,
    semidirect_product,
    symmetric_group,
    trivial_group,
)

GROUP_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2,
                10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14, 17: 1,
                18: 5, 19: 1, 20: 5, 21: 2, 22: 2, 23: 1, 24: 15}


def abelian_group(*invariants, name=None) -> FiniteGroup:
    g = cyclic_group(invariants[0])
    for n in invariants[1:]:
        g = direct_product(g, cyclic_group(n))
    g.name = name or "x".join(f"C{n}" for n in invariants)
    return g


def quaternion_group() -> FiniteGroup:
    g = dicyclic_group(2)
    g.name = "Q8"
    return g


def sl23() -> FiniteGroup:
    """SL(2, 3) acting on the eight nonzero vectors of F_3^2."""
    vecs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    pos = {v: i for i, v in enumerate(vecs)}

    def perm(m):
        return tuple(pos[((m[0][0] * a + m[0][1] * b) % 3,
                          (m[1][0] * a + m[1][1] * b) % 3)] for a, b in vecs)

    gens = [perm([[1, 1], [0, 1]]), perm([[0, 2], [1, 0]])]
    g = group_from_permutations(gens, name="SL(2,3)")
    require(g.order == 24, f"SL(2,3) has order {g.order}, not 24")
    return g


def pauli_group() -> FiniteGroup:
    """Central product D4 o C4 (order 16)."""
    d4 = dihedral_group(4)
    prod = direct_product(d4, cyclic_group(4))
    # identify the central involutions a^2 in D4 (index 2) and c^2 in C4
    g, _ = quotient_group(prod, {0, 2 * 4 + 2}, name="D4oC4")
    require(g.order == 16, f"D4oC4 has order {g.order}, not 16")
    return g


def _semidirect_via_quotient(n_group, h_group, kernel_test, name):
    """N x| H where h acts by inversion unless kernel_test(h)."""
    ident = list(range(n_group.order))
    inv = [n_group.inv(x) for x in range(n_group.order)]
    action = [ident if kernel_test(h) else inv for h in range(h_group.order)]
    return semidirect_product(n_group, h_group, action, name=name)


def groups_of_order(n: int) -> list[FiniteGroup]:
    """All isomorphism types of groups of order n (2 <= n <= 24)."""
    if n < 1 or n > 24:
        raise ValueError("catalog covers orders 1..24 only")
    return [builder() for builder in _BUILDERS[n]]


def all_groups(max_order: int = 24) -> list[FiniteGroup]:
    out = []
    for n in range(1, max_order + 1):
        out.extend(groups_of_order(n))
    return out


def by_name(name: str) -> FiniteGroup:
    for n in range(1, 25):
        for g in groups_of_order(n):
            if g.name == name:
                return g
    raise KeyError(name)


def _c(n):
    return lambda: cyclic_group(n)


def _ab(*ns):
    return lambda: abelian_group(*ns)


def _order16() -> list:
    def c4_semi_c4():
        return semidirect_cyclic(4, 4, 3, name="C4:C4")

    def c22_semi_c4():
        c22 = abelian_group(2, 2)
        swap = [0, 2, 1, 3]
        action = [list(range(4)) if j % 2 == 0 else swap for j in range(4)]
        return semidirect_product(c22, cyclic_group(4), action, name="C2^2:C4")

    return [
        _c(16), _ab(8, 2), _ab(4, 4), _ab(4, 2, 2), _ab(2, 2, 2, 2),
        lambda: dihedral_group(8),
        lambda: dicyclic_group(4),                               # Q16
        lambda: semidirect_cyclic(8, 2, 3, name="SD16"),         # semidihedral
        lambda: semidirect_cyclic(8, 2, 5, name="M16"),          # modular
        lambda: direct_product(dihedral_group(4), cyclic_group(2)),
        lambda: direct_product(quaternion_group(), cyclic_group(2)),
        c4_semi_c4,
        c22_semi_c4,
        pauli_group,
    ]


def _order24() -> list:
    def c3_semi_d4():
        # D4 acts on C3 through the quotient killing a reflection subgroup
        return _semidirect_via_quotient(
            cyclic_group(3), dihedral_group(4),
            kernel_test=lambda h: (h % 4) % 2 == 0, name="C3:D4")

    return [
        _c(24), _ab(12, 2), _ab(6, 2, 2),
        lambda: symmetric_group(4),
        sl23,
        lambda: direct_product(alternating_group(4), cyclic_group(2)),
        lambda: dihedral_group(12),
        lambda: dicyclic_group(6),
        lambda: semidirect_cyclic(3, 8, 2, name="C3:C8"),
        lambda: direct_product(cyclic_group(3), dihedral_group(4)),
        lambda: direct_product(cyclic_group(3), quaternion_group()),
        lambda: direct_product(cyclic_group(4), symmetric_group(3)),
        lambda: direct_product(cyclic_group(2), dicyclic_group(3)),
        lambda: direct_product(abelian_group(2, 2), symmetric_group(3)),
        c3_semi_d4,
    ]


_BUILDERS: dict[int, list] = {
    1: [trivial_group],
    2: [_c(2)],
    3: [_c(3)],
    4: [_c(4), _ab(2, 2)],
    5: [_c(5)],
    6: [_c(6), lambda: symmetric_group(3)],
    7: [_c(7)],
    8: [_c(8), _ab(4, 2), _ab(2, 2, 2),
        lambda: dihedral_group(4), quaternion_group],
    9: [_c(9), _ab(3, 3)],
    10: [_c(10), lambda: dihedral_group(5)],
    11: [_c(11)],
    12: [_c(12), _ab(6, 2),
         lambda: dihedral_group(6),
         lambda: dicyclic_group(3),
         lambda: alternating_group(4)],
    13: [_c(13)],
    14: [_c(14), lambda: dihedral_group(7)],
    15: [_c(15)],
    16: _order16(),
    17: [_c(17)],
    18: [_c(18), _ab(6, 3),
         lambda: dihedral_group(9),
         lambda: direct_product(cyclic_group(3), symmetric_group(3)),
         lambda: _semidirect_via_quotient(abelian_group(3, 3), cyclic_group(2),
                                          kernel_test=lambda h: h == 0,
                                          name="C3^2:C2")],
    19: [_c(19)],
    20: [_c(20), _ab(10, 2),
         lambda: dihedral_group(10),
         lambda: dicyclic_group(5),
         lambda: semidirect_cyclic(5, 4, 2, name="F20")],
    21: [_c(21), lambda: semidirect_cyclic(7, 3, 2, name="C7:C3")],
    22: [_c(22), lambda: dihedral_group(11)],
    23: [_c(23)],
    24: _order24(),
}
