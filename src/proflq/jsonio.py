"""Canonical JSON input/output for the command line.

All loaders take already-parsed JSON values (dicts/lists) and build the
library objects; `dumps` renders any report payload byte-identically
(sorted keys, compact separators, tuples/sets/numpy scalars flattened to
plain JSON values).  `digest` hashes input files so every report can
embed exactly what it was computed from.  Every integer a loader reads
must be a JSON integer: a bool, float or string raises ValueError rather
than being truncated.  Every object or list a loader reads must be one:
a value of another type raises a ValueError that names what was expected.
"""

from __future__ import annotations

import json

import numpy as np

from . import catalog
from .finring import FiniteModule, FiniteRing, ModuleMap
from .etale import FiniteEtaleSpace
from .groupcoh import GroupTower
from .groups import FiniteGroup, GroupHom, group_from_permutations
from .repv import RepClass
from .tower import SpaceTower, TowerMap


def plain(value):
    """Recursively convert a report payload to JSON-serializable data."""
    if isinstance(value, dict):
        return {_key(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(plain(v) for v in value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, RepClass):
        return {
            "representative": list(value.representative),
            "orbit_size": value.orbit_size,
            "image_rank": value.image_rank,
            "centralizer": sorted(value.centralizer),
            "weyl": plain(value.weyl),
        }
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def _key(k):
    if isinstance(k, str):
        return k
    if isinstance(k, (int, np.integer)):
        return str(int(k))
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return str(k)


def dumps(payload) -> str:
    return json.dumps(plain(payload), sort_keys=True,
                      separators=(",", ":"))


def digest(path: str) -> str:
    import hashlib  # here, not at the top: it loads libcrypto (~3.6 MB RSS)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


# -- modules and maps ---------------------------------------------------------


def _integers(values) -> list[int]:
    """`values` if it is a JSON list of integers, else a ValueError.

    A bool, float or string is refused rather than truncated by `int()`.
    """
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ValueError(f"expected a JSON list of integers, got {values!r}")
    return values


def _object(value, what: str) -> dict:
    """`value` if it is a JSON object, else a ValueError naming `what`."""
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object for {what}, got {value!r}")
    return value


def _list(value, what: str) -> list:
    """`value` if it is a JSON list, else a ValueError naming `what`."""
    if not isinstance(value, list):
        raise ValueError(f"expected a JSON list of {what}, got {value!r}")
    return value


def _integer_rows(rows) -> list[list[int]]:
    """`rows` if it is a JSON list of lists of integers, else a ValueError."""
    return [_integers(row) for row in _list(rows, "rows")]


def load_module(data: dict) -> FiniteModule:
    """{"m": 12, "factors": [2, 6]}"""
    data = _object(data, "a module")
    (m,) = _integers([data["m"]])
    return FiniteModule(FiniteRing(m), tuple(_integers(data["factors"])))


def load_map(data: dict) -> ModuleMap:
    """{"source": <module>, "target": <module>, "matrix": [[...]]}"""
    data = _object(data, "a module map")
    src = load_module(data["source"])
    dst = load_module(data["target"])
    return ModuleMap(src, dst, _integer_rows(data["matrix"]))


# -- etale spaces and space towers --------------------------------------------


def load_space(data: dict) -> FiniteEtaleSpace:
    """{"base": ["a", "b"], "fibers": {"a": <module>, ...}}"""
    data = _object(data, "an etale space")
    base = [str(t) for t in _list(data["base"], "points")]
    fibers = {str(t): load_module(m)
              for t, m in _object(data["fibers"], "the fibers").items()}
    return FiniteEtaleSpace(base, fibers)


def load_space_tower(data: dict) -> SpaceTower:
    """{"levels": [["a"], ["a0","a1"]], "transitions": [{"a0":"a",...}]}"""
    data = _object(data, "a space tower")
    levels = [[str(t) for t in _list(lv, "points")]
              for lv in _list(data["levels"], "levels")]
    transitions = [{str(s): str(t) for s, t in _object(tr, "a transition").items()}
                   for tr in _list(data["transitions"], "transitions")]
    return SpaceTower(levels, transitions)


def load_tower_map(data: dict) -> TowerMap:
    """{"source": <tower>, "target": <tower>, "level_maps": [{...}]}"""
    data = _object(data, "a tower map")
    src = load_space_tower(data["source"])
    dst = load_space_tower(data["target"])
    level_maps = [{str(s): str(t) for s, t in _object(lm, "a level map").items()}
                  for lm in _list(data["level_maps"], "level maps")]
    return TowerMap(src, dst, level_maps)


# -- groups, homomorphisms, group towers --------------------------------------


def load_group(data: dict) -> FiniteGroup:
    """Accepts {"perm_generators": [[2,1,3], ...]} (1-based one-line
    images), {"table": [[...]]} or {"catalog": "S4"}."""
    data = _object(data, "a group")
    if "perm_generators" in data:
        gens = [tuple(i - 1 for i in g)
                for g in _integer_rows(data["perm_generators"])]
        return group_from_permutations(gens)
    if "table" in data:
        return FiniteGroup(np.array(_integer_rows(data["table"]), dtype=np.int64),
                           name=data.get("name"))
    if "catalog" in data:
        return catalog.by_name(str(data["catalog"]))
    raise ValueError("group JSON needs perm_generators, table or catalog")


def load_group_hom(data: dict) -> GroupHom:
    """{"source": <group>, "target": <group>, "images": [j0, j1, ...]}"""
    data = _object(data, "a group homomorphism")
    src = load_group(data["source"])
    dst = load_group(data["target"])
    return GroupHom(src, dst, _integers(data["images"]))


def load_group_tower(data: dict) -> GroupTower:
    """{"levels": [<group>, ...], "transitions": [[j0, j1, ...], ...]}

    Transition k lists, per element of level k+1, its image in level k.
    """
    data = _object(data, "a group tower")
    levels = [load_group(g) for g in _list(data["levels"], "groups")]
    transitions = [GroupHom(levels[k + 1], levels[k], images)
                   for k, images in enumerate(_integer_rows(data["transitions"]))]
    return GroupTower(levels, transitions)


def load_thread(data) -> tuple:
    """A thread of elements, [g0, g1, ...], or of subgroups, [[...], [...], ...]."""
    if isinstance(data, list) and data and all(isinstance(x, list) for x in data):
        return tuple(tuple(_integers(x)) for x in data)
    return tuple(_integers(data))
