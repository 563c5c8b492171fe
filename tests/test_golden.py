"""Golden digests of the public builders.

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

from twoloop.elliptic import eisenstein_hat, j_function
from twoloop.lattice import builtin_lattice, theta_g1, theta_g2
from twoloop.partition import parse_theory, z1, z2
from twoloop.series import PrefSeries, to_json_dict
from twoloop.sewing import fourier_params, fourier_to_sewing, period_matrix
from twoloop.siegel import (
    all_characteristics,
    delta10,
    f12_siegel,
    psi4_theta_candidate,
    psi_reference,
    t2_selfdual,
    theta_char,
)

TABLE = Path(__file__).with_name("golden.json")


def _sewn(form, q_order, eps_order):
    return lambda: [fourier_to_sewing(form(), fourier_params(period_matrix(q_order, eps_order)))]


def _periods(q_order, eps_order):
    sew = period_matrix(q_order, eps_order)
    return [sew.w11, sew.w12, sew.w22]


def _hats(q_order, eps_order):
    p = fourier_params(period_matrix(q_order, eps_order))
    return [p.qhat, p.shat, p.uhat]


def _form(name, builder, q_order, s_order):
    """The r-form and u-form entries of a Siegel form."""
    return {f"{name}({q_order}, {s_order}).{part}":
            (lambda part=part: [getattr(builder(q_order, s_order), part)])
            for part in ("fourier", "fourier_u")}


def _partition(label, q_order):
    theory = parse_theory(label)
    return lambda: [z1(theory, q_order), z2(theory, q_order).pref]


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
    # unequal orders: the form's box and the hats' box differ in q and in eps
    "fourier_to_sewing(f12_siegel(3, 3).fourier_u) at (6, 4)":
        _sewn(lambda: f12_siegel(3, 3).fourier_u, 6, 4),
    "fourier_to_sewing(psi4_theta_candidate(4, 4).fourier_u) at (4, 6)":
        _sewn(lambda: psi4_theta_candidate(4, 4).fourier_u, 4, 6),
    "fourier_to_sewing(delta10(6, 6).fourier_u) at (8, 3)":
        _sewn(lambda: delta10(6, 6).fourier_u, 8, 3),
    "fourier_to_sewing(delta10(4, 4).fourier) at (6, 3)":
        _sewn(lambda: delta10(4, 4).fourier, 6, 3),
    "psi_reference(4)": lambda: [psi_reference(4)],
    "psi_reference(6)": lambda: [psi_reference(6)],
    "t2_selfdual(0)": lambda: [t2_selfdual(0)],
    "t2_selfdual(1)": lambda: [t2_selfdual(1)],
}
for _orders in ((4, 4), (3, 5)):
    for _name, _builder in (("delta10", delta10), ("f12_siegel", f12_siegel),
                            ("psi4_theta_candidate", psi4_theta_candidate)):
        CASES.update(_form(_name, _builder, *_orders))
    for _char in all_characteristics():
        CASES[f"theta_char({_char.label()}, {_orders[0]}, {_orders[1]})"] = \
            lambda c=_char, o=_orders: [theta_char(c, *o)]
    CASES[f"theta_g2(E8, {_orders[0]}, {_orders[1]})"] = \
        lambda o=_orders: [theta_g2(builtin_lattice("E8"), *o)]
for _orders in ((2, 2), (2, 3)):
    CASES[f"theta_g2(E8x3, {_orders[0]}, {_orders[1]})"] = \
        lambda o=_orders: [theta_g2(builtin_lattice("E8x3"), *o)]
for _q in (3, 5):
    for _lattice in ("E8", "E8x3"):
        CASES[f"theta_g1({_lattice}, {_q})"] = lambda n=_lattice, q=_q: [theta_g1(builtin_lattice(n), q)]
    # keyed by theory: z1 and the pref of z2, one entry per theory and order
    for _label in ("boson:24", "lattice:E8", "selfdual:0", "ghost"):
        CASES[f"z1/z2({_label}, {_q})"] = _partition(_label, _q)
    CASES[f"eisenstein_hat(2, 4, 6; {_q})"] = lambda q=_q: [eisenstein_hat(k, q) for k in (2, 4, 6)]
    CASES[f"j_function({_q})"] = lambda q=_q: [j_function(q)]


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
