"""Acceptance suite: one test per criterion, one printed line each."""

import pytest

from twoloop import acceptance
from twoloop.elliptic import j_function
from twoloop.errors import ValidationFailed
from twoloop.series import MultiSeries, PrefSeries, VarSpec


@pytest.mark.parametrize(
    "ident,name,fn", acceptance._CRITERIA, ids=[c[0] for c in acceptance._CRITERIA]
)
def test_criterion(ident, name, fn):
    result = acceptance.run_criterion(ident, name, fn)
    print(result.line())
    assert result.status == acceptance.PASS, result.detail


@pytest.mark.parametrize(
    "ident,name,reason",
    acceptance.NOT_CHECKED_ITEMS,
    ids=[i[0] for i in acceptance.NOT_CHECKED_ITEMS],
)
def test_not_checked_items_are_reported(ident, name, reason):
    results = {r.ident: r for r in acceptance.run_all() if r.status != acceptance.FAIL}
    assert ident in results, "item missing from the report"
    r = results[ident]
    print(r.line())
    assert r.status == acceptance.NOT_CHECKED
    assert r.detail == reason


def test_run_all_is_green():
    results = acceptance.run_all()
    assert len(results) == 16
    bad = [r for r in results if r.status == acceptance.FAIL]
    assert not bad, "\n".join(r.line() for r in bad)


def test_a_wrong_coefficient_fails_its_criterion(monkeypatch):
    # J with 196885 q in place of 196884 q
    q = PrefSeries(MultiSeries.constant(1, (VarSpec("q"),)), {"q": 1})
    monkeypatch.setattr(acceptance, "j_function", lambda order: j_function(order).add(q))
    result = acceptance.run_criterion("12", "J expansion", acceptance.c12_j_validation)
    assert result.status == acceptance.FAIL
    assert result.detail == "q coefficient is not 196884"
    assert not result.ok


def test_a_library_error_fails_its_criterion(monkeypatch):
    def broken(q_order, eps_order):
        raise ValidationFailed("product is not 1")

    monkeypatch.setattr(acceptance, "verify_f2", broken)
    result = acceptance.run_criterion("6", "g2 consistency", acceptance.c06_g2_consistency)
    assert result.status == acceptance.FAIL
    assert result.detail == "ValidationFailed: product is not 1"
