"""The eight acceptance criteria, each with its runtime bound."""

import importlib
import pkgutil

import pytest

import proflq
from proflq import acceptance, errors, etale, finring, jsonio, tower
from proflq.errors import InvariantError

from .test_tower import twist_a_projection


def _run(criterion, seconds):
    report = criterion()
    assert report["passed"]
    assert report["elapsed"] < seconds, (
        f"{report['name']} took {report['elapsed']}s, bound {seconds}s")
    return report


def test_criterion_1_duality():
    report = _run(acceptance.criterion_1, 30)
    assert report["detail"]["instances"] >= 500


def test_criterion_1_refuses_an_injection_that_reuses_summand_0(monkeypatch):
    # for A + A, injecting summand 1 as summand 0 makes the map
    # (A + A)^dual -> A^dual + A^dual twice one composite, not an isomorphism
    inject = finring.DirectSum.injection

    def reuse(self, i):
        return inject(self, 0 if self.summands[i] == self.summands[0] else i)

    monkeypatch.setattr(finring.DirectSum, "injection", reuse)
    with pytest.raises(InvariantError, match="sum/product"):
        acceptance.criterion_1()


def test_criterion_2_products_coproducts():
    _run(acceptance.criterion_2, 60)


def test_criterion_2_refuses_a_twisted_projection(monkeypatch):
    build = tower.product_ind
    monkeypatch.setattr(tower, "product_ind", lambda e: twist_a_projection(build(e)))
    with pytest.raises(InvariantError, match="joint kernel"):
        acceptance.criterion_2()


def test_criterion_3_decomposition():
    report = _run(acceptance.criterion_3, 60)
    assert report["detail"]["tower_maps"] >= 100


def test_criterion_4_adjunction():
    report = _run(acceptance.criterion_4, 120)
    assert report["detail"]["instances"] >= 100


def test_criterion_4_skips_only_budget_refusals(monkeypatch):
    # a crash inside one adjunction check must fail the criterion, not be
    # skipped like an instance over the size bound
    check = etale.adjunction_check
    calls = []

    def crash_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise ValueError("injected")
        return check(*args, **kwargs)

    monkeypatch.setattr(etale, "adjunction_check", crash_once)
    with pytest.raises(ValueError, match="injected"):
        acceptance.criterion_4()


def test_criterion_5_cohomology_oracle():
    _run(acceptance.criterion_5, 300)


def test_criterion_6_lannes_quillen():
    _run(acceptance.criterion_6, 600)


def test_criterion_7_profinite_run():
    report = _run(acceptance.criterion_7, 30)
    assert report["detail"]["levels"] == [(2, 2, 2, 2)] * 3


def test_criterion_8_separability():
    report = _run(acceptance.criterion_8, 60)
    assert report["detail"]["a4_witnesses"]


def test_every_invariant_dump_renders(monkeypatch):
    """Each `require` of the eight criteria gets a dump the CLI can print:
    `require` is wrapped, in every module that imports it by name, to
    render its dump whether or not the invariant holds."""
    rendered, require = [], errors.require

    def rendering(cond, message, dump=None):
        rendered.append(jsonio.dumps(dump))
        require(cond, message, dump)

    users = []
    for info in pkgutil.iter_modules(proflq.__path__):
        module = importlib.import_module(f"proflq.{info.name}")
        if module is not errors and vars(module).get("require") is require:
            monkeypatch.setattr(module, "require", rendering)
            users.append(info.name)
    assert {"acceptance", "groups", "lq", "sep"} <= set(users)
    for criterion in acceptance.ALL_CRITERIA:
        assert criterion()["passed"]
    assert len(rendered) > 5000
