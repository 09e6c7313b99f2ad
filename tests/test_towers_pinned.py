"""The answers of the module layer on the benchmark's `module_towers`
instances, pinned by digest.

At seeds 1-3 the test recomputes, from the instances that
`bench/workloads.py` draws:

* `cokernel`, `kernel` and `image` of every duality map, as invariant
  factors and matrices;
* the full reports of `canonical_components` on the product and the
  coproduct tower of every truncation instance;
* the full reports of `decomposition_check` and `adjunction_check`.

Each kind is reduced to the SHA-256 of its canonical JSON and compared
with the digest taken before the layer memoized cokernels, so a memo
that shares an entry it should not, or a faster count that miscounts,
changes a digest.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from proflq import etale, tower
from proflq.finring import FiniteModule, ModuleMap, cokernel, cyclic, image, kernel

_SPEC = importlib.util.spec_from_file_location(
    "towers_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

# the adjunction instances take their sizes and fibers from the shape
# generators alone, so every seed draws the same ones
ADJUNCTION = "58714c715dfcef55c1c313142d19cac01b5e499d3ce0ffbab6aa86a385cd8b88"
PINNED = {
    1: {"cokernel": "146a4895cab81362e725823a23bc525c2208f7ed9958a1a4542c70b60239d734",
        "kernel": "e86559d00199d2bf55ae4e7c92ab08855ed41ba68066fd49d0b2404f880e0000",
        "image": "e760f7e9385644f316b664192573ce07154f7b665330e2082aff12225501ac09",
        "canonical_components":
            "fe79cebd47584a0b7eeaf21ae18a48544da2e52f9b52afc7414775f09052fa21",
        "decomposition_check":
            "be0dabd48545b29663359d79eb9978632dbb0371ff4247308f960fce32d7ccf9",
        "adjunction_check": ADJUNCTION},
    2: {"cokernel": "6547d23dbe325d8c1efffed0c82d2fc534990a6a1506725e7db40ad2208b5141",
        "kernel": "0a4063dc9de2857d89739109bc4246d720bff84492e357270cc4c066278857d3",
        "image": "fa9a93e87ee641744003f44d87f50e824f597ea40c4e153accc7c0c84e97f33a",
        "canonical_components":
            "cd83b71a6e364afdc84085f7df5b97162e66f96e61fa1eba7418ec03b65a3107",
        "decomposition_check":
            "285b0e9d03e2f7578bc8c97ce3d7b3cb60d70e49eaeb3334206449010f34ea86",
        "adjunction_check": ADJUNCTION},
    3: {"cokernel": "f07e292b7e948328c14eeef3fe6b3344be54fe21be0a924d52fe010419ae10a0",
        "kernel": "32412ff51ea0ebf1b9e63373171c51c498dde7aab3cbc3d2d7c2da5fee33c331",
        "image": "13f176dbb96a9fa4ee21b2e0030b0e2140b92a8e30ca27b331c447208aa3a737",
        "canonical_components":
            "5dcdb3cf43a1f41c6e122a79dc95176578fe9b8432a33150b522ed68a6d7a649",
        "decomposition_check":
            "612faac78d31b45a5ee4f8f287e51b0196b9243a35c557a8aee5160d3ada3f82",
        "adjunction_check": ADJUNCTION},
}


def _plain(value):
    """`value` as JSON data: modules and maps spelled out, dicts as
    [key, value] pairs in their own order, tuples as lists."""
    if isinstance(value, ModuleMap):
        return {"source": _plain(value.source), "target": _plain(value.target),
                "matrix": _plain(value.matrix)}
    if isinstance(value, FiniteModule):
        return {"modulus": value.ring.modulus, "factors": list(value.factors)}
    if isinstance(value, dict):
        return [[_plain(k), _plain(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _digest(values) -> str:
    text = json.dumps(_plain(values), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _answers(seed: int) -> dict:
    by_kind: dict = {}
    for kind, x in workloads.towers_inputs(seed):
        by_kind.setdefault(kind, []).append(x)
    ring = workloads.FiniteRing(workloads.TOWER_RING)
    components = []
    for _, space_tower in by_kind["truncation"]:
        threads = space_tower.threads()
        ind = tower.product_ind(tower.constant_ind_etale(cyclic(ring, 3), space_tower))
        pro = tower.coproduct_pro(tower.constant_pro_etale(cyclic(ring, 4), space_tower))
        components.append([tower.canonical_components(ind, threads),
                           tower.canonical_components(pro, threads)])
    maps = by_kind["duality"]
    return {
        "cokernel": _digest([cokernel(f) for f in maps]),
        "kernel": _digest([kernel(f) for f in maps]),
        "image": _digest([image(f) for f in maps]),
        "canonical_components": _digest(components),
        "decomposition_check": _digest([tower.decomposition_check(a, pi)
                                        for a, pi in by_kind["decomposition"]]),
        "adjunction_check": _digest([etale.adjunction_check(*spaces)
                                     for spaces in by_kind["adjunction"]]),
    }


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_module_towers_answers(seed):
    assert _answers(seed) == PINNED[seed]
