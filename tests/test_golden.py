"""Golden digests of the sewing layer.

Each entry of ``golden.json`` maps one builder call to the sha256 of its
canonical record: the ``to_json_dict`` JSON of each series it returns,
with the keys in stored order and the type name of each coefficient, so
the digest covers vars, prefactor, terms, term order and coefficient types.
The table is a pin, not an oracle: the refinement checks and the
independent routes stay the correctness tests.  A change that means to
move an output updates its entries and lists each one in ``CHANGES.md``.

    PYTHONPATH=src python tests/test_golden.py    # rewrites golden.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from twoloop.series import PrefSeries, to_json_dict
from twoloop.sewing import fourier_params, fourier_to_sewing, period_matrix
from twoloop.siegel import delta10, psi4_theta_candidate, t2_selfdual

TABLE = Path(__file__).with_name("golden.json")


def _sewn(form, q_order, eps_order):
    return lambda: [fourier_to_sewing(form(), fourier_params(period_matrix(q_order, eps_order)))]


def _periods(q_order, eps_order):
    sew = period_matrix(q_order, eps_order)
    return [sew.w11, sew.w12, sew.w22]


def _hats(q_order, eps_order):
    p = fourier_params(period_matrix(q_order, eps_order))
    return [p.qhat, p.shat, p.rhat, p.uhat]


CASES = {
    "period_matrix(4, 5)": lambda: _periods(4, 5),
    "period_matrix(12, 6)": lambda: _periods(12, 6),
    "fourier_params(period_matrix(4, 5))": lambda: _hats(4, 5),
    "fourier_params(period_matrix(12, 6))": lambda: _hats(12, 6),
    "fourier_to_sewing(delta10(6, 6).fourier_u) at (12, 6)":
        _sewn(lambda: delta10(6, 6).fourier_u, 12, 6),
    "fourier_to_sewing(delta10(6, 6).fourier_u) at (8, 8)":
        _sewn(lambda: delta10(6, 6).fourier_u, 8, 8),
    "fourier_to_sewing(delta10(4, 4).fourier_u) at (4, 5)":
        _sewn(lambda: delta10(4, 4).fourier_u, 4, 5),
    "fourier_to_sewing(delta10(4, 4).fourier) at (4, 5)":
        _sewn(lambda: delta10(4, 4).fourier, 4, 5),
    "fourier_to_sewing(psi4_theta_candidate(3, 3).fourier_u) at (3, 2)":
        _sewn(lambda: psi4_theta_candidate(3, 3).fourier_u, 3, 2),
    "fourier_to_sewing(t2_selfdual(1)) at (2, 2)": _sewn(lambda: t2_selfdual(1), 2, 2),
}


def _record(series) -> dict:
    body = PrefSeries.coerce(series).body
    return {"json": to_json_dict(series),
            "keys": [list(k) for k in body.terms],
            "types": [type(c).__name__ for c in body.terms.values()]}


def digest(name: str) -> str:
    text = json.dumps([_record(s) for s in CASES[name]()], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_the_table_covers_every_case():
    assert sorted(json.loads(TABLE.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert digest(name) == json.loads(TABLE.read_text())[name]


if __name__ == "__main__":
    TABLE.write_text(json.dumps({name: digest(name) for name in sorted(CASES)}, indent=2) + "\n")
