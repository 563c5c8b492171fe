import json
from fractions import Fraction

import pytest

from twoloop import sewing
from twoloop.elliptic import dedekind_eta, eisenstein, eisenstein_hat, theta_jacobi
from twoloop.errors import DomainError, FractionalExponentUnsupported, InternalError
from twoloop.series import (
    MultiSeries,
    PrefSeries,
    VarSpec,
    add,
    coeff,
    equal_on_joint_validity,
    exp_series,
    mul,
    negate,
    scalar_mul,
    shift_var,
    substitute,
    to_json_dict,
)
from twoloop.sewing import (
    SewingExpansion,
    a_matrix,
    fourier_params,
    fourier_to_sewing,
    period_matrix,
    required_m_max,
    torus_pair,
)
from twoloop.siegel import delta10, psi4_theta_candidate

from conftest import assert_refines

F = Fraction


def test_a_matrix_low_entries():
    a = a_matrix(3, 4, "q", required_m_max(4))
    a11 = a[0][0]
    assert coeff(a11, {"q": 0, "eps": 1}) == F(-1, 12)
    assert coeff(a11, {"q": 1, "eps": 1}) == 2
    # A_12 = 3 eps^2 Ehat_4, A_21 = eps^2 Ehat_4: A is not symmetric
    a12 = a[0][1]
    a21 = a[1][0]
    e4 = eisenstein_hat(4, 3).body
    ok, why = equal_on_joint_validity(a12, mul(scalar_mul(3, e4),
                                               MultiSeries((a12.spec("eps"),), {(F(2),): 1})))
    assert ok, why
    assert coeff(a21, {"q": 0, "eps": 2}) == F(1, 720)
    assert coeff(a12, {"q": 0, "eps": 2}) == F(3, 720)


def test_period_matrix_printed_orders():
    sew = period_matrix(3, 5)
    # w11 = eps^2 Ehat_2(q2) + O(eps^4)
    assert coeff(sew.w11, {"q1": 0, "q2": 0, "eps": 2}) == F(-1, 12)
    assert coeff(sew.w11, {"q1": 0, "q2": 1, "eps": 2}) == 2
    assert coeff(sew.w11, {"q1": 1, "q2": 0, "eps": 2}) == 0
    # w12 = -eps (1 + Ehat_2(q1) Ehat_2(q2) eps^2) + O(eps^5)
    assert coeff(sew.w12, {"q1": 0, "q2": 0, "eps": 1}) == -1
    assert coeff(sew.w12, {"q1": 0, "q2": 0, "eps": 3}) == -F(1, 144)
    assert coeff(sew.w12, {"q1": 1, "q2": 0, "eps": 3}) == F(2, 12)
    assert coeff(sew.w12, {"q1": 1, "q2": 1, "eps": 3}) == -4


def test_period_matrix_swap_symmetry():
    sew = period_matrix(3, 6)
    swapped = sew.w11.rename_vars({"q1": "q2", "q2": "q1"})
    ok, why = equal_on_joint_validity(swapped, sew.w22)
    assert ok, why
    w12_swapped = sew.w12.rename_vars({"q1": "q2", "q2": "q1"})
    ok, why = equal_on_joint_validity(w12_swapped, sew.w12)
    assert ok, why


def test_period_matrix_eps_parity():
    sew = period_matrix(2, 6)
    i11 = sew.w11.var_index("eps")
    assert all(k[i11] % 2 == 0 for k in sew.w11.terms)
    assert all(k[sew.w22.var_index("eps")] % 2 == 0 for k in sew.w22.terms)
    assert all(k[sew.w12.var_index("eps")] % 2 == 1 for k in sew.w12.terms)


def test_neumann_truncation_stability(monkeypatch):
    base = period_matrix(2, 6)
    # one more row and column of the sewing matrix than the eps order needs
    calls = []
    monkeypatch.setattr(sewing, "required_m_max",
                        lambda eps_order: calls.append(eps_order) or required_m_max(eps_order) + 1)
    period_matrix.cache_clear()
    try:
        bigger = period_matrix(2, 6)
    finally:
        period_matrix.cache_clear()
    assert calls == [6]
    for w, wb in ((base.w11, bigger.w11), (base.w12, bigger.w12), (base.w22, bigger.w22)):
        ok, why = equal_on_joint_validity(w, wb)
        assert ok, why


def test_period_matrix_refines_with_order():
    lo, hi = period_matrix(6, 4), period_matrix(8, 6)
    for name in ("w11", "w12", "w22"):
        assert_refines(getattr(lo, name), getattr(hi, name))


def test_fourier_to_sewing_refines_with_order():
    def sewn(n):
        return fourier_to_sewing(delta10(n, n).fourier_u,
                                 fourier_params(period_matrix(n, n - 1)))

    assert_refines(sewn(4), sewn(6))
    # the form's q-order held below the sewing q-order: the only case in
    # which the hat caps bite, so the lower order must still claim no more
    held = fourier_to_sewing(delta10(4, 4).fourier_u, fourier_params(period_matrix(6, 5)))
    assert_refines(held, sewn(6))


def test_period_matrix_requires_eps_order():
    with pytest.raises(DomainError):
        period_matrix(2, 0)


# -- the sewing layer at eps -> c*eps ----------------------------------------

def _in_q1_eps(terms, valid=6):
    return MultiSeries((VarSpec("q1", valid=4), VarSpec("eps", valid=valid)),
                       {(F(q), F(e)): c for (q, e), c in terms.items()})


_A = _in_q1_eps({(0, 0): F(1, 3), (1, 1): -2, (0, 2): F(5, 7), (2, 3): 4})
_B = _in_q1_eps({(0, 1): F(-1, 12), (1, 0): 3, (3, 2): F(1, 2)})


def _same(got, want):
    assert type(got) is type(want)
    if isinstance(want, PrefSeries):
        assert got.prefactor == want.prefactor
        got, want = got.body, want.body
    assert got.vars == want.vars
    assert list(got.terms.items()) == list(want.terms.items())
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]


@pytest.mark.parametrize("c", [6, F(2, 3), F(-5, 4)])
def test_scale_eps_commutes_with_mul_and_add(c):
    scaled = sewing._scale_eps
    _same(scaled(mul(_A, _B), c), mul(scaled(_A, c), scaled(_B, c)))
    _same(scaled(add(_A, _B), c), add(scaled(_A, c), scaled(_B, c)))


@pytest.mark.parametrize("s", [
    pytest.param(_A, id="series"),
    pytest.param(PrefSeries(_B, {"eps": F(2), "q1": F(1, 24)}), id="eps2-prefactor"),
    pytest.param(PrefSeries(_in_q1_eps({(0, 0): F(1, 720)}), {"eps": F(-1)}), id="eps-pole"),
    pytest.param(PrefSeries(MultiSeries.constant(F(3, 4), (VarSpec("q1"),)), {"eps": F(2)}),
                 id="prefactor-only"),
])
@pytest.mark.parametrize("c", [360360, F(1, 60)])
def test_scale_eps_round_trip_returns_the_input(s, c):
    _same(sewing._scale_eps(sewing._scale_eps(s, c), 1 / F(c)), s)


def test_scale_eps_multiplies_each_term_by_c_to_its_absolute_eps_power():
    assert coeff(sewing._scale_eps(_A, 6), {"q1": 2, "eps": 3}) == 4 * 6 ** 3
    # the eps^2 prefactor counts too
    scaled = sewing._scale_eps(PrefSeries(_B, {"eps": F(2)}), 10)
    assert scaled.coeff({"q1": 0, "eps": 3}) == F(-1, 12) * 10 ** 3
    assert scaled.coeff({"q1": 1, "eps": 2}) == 3 * 10 ** 2


@pytest.mark.parametrize("s", [
    pytest.param(MultiSeries((VarSpec("eps", 2, F(0), F(4)),), {(F(1, 2),): 1}), id="key"),
    pytest.param(PrefSeries(_A, {"eps": F(1, 2)}), id="prefactor"),
])
def test_scale_eps_refuses_a_fractional_eps_exponent(s):
    with pytest.raises(InternalError, match="not an integer"):
        sewing._scale_eps(s, 6)


@pytest.mark.parametrize("q_order, eps_order", [(8, 6), (12, 6), (12, 10)])
def test_scaled_sewing_matrix_is_integral(q_order, eps_order):
    # the Neumann series runs on ints only while every scaled entry is one;
    # a Fraction here would keep the outputs but lose the speed quietly
    c = sewing._eps_scale(eps_order)
    for row in a_matrix(q_order, eps_order, "q1", required_m_max(eps_order)):
        for entry in row:
            scaled = sewing._scale_eps(entry, c)
            assert {type(x) for x in scaled.terms.values()} <= {int}
            assert len(scaled) == len(entry)


def test_fourier_params_printed_orders():
    params = fourier_params(period_matrix(3, 5))
    qhat = params.qhat
    assert qhat.prefactor == {"q1": 1}
    # q = q1 (1 + eps^2 Ehat_2(q2)) + O(eps^4)
    assert qhat.coeff({"q1": 1, "q2": 0, "eps": 2}) == F(-1, 12)
    assert qhat.coeff({"q1": 1, "q2": 1, "eps": 2}) == 2
    assert qhat.coeff({"q1": 1, "q2": 0, "eps": 0}) == 1
    assert qhat.coeff({"q1": 1, "q2": 0, "eps": 1}) == 0
    # u has leading term exactly eps^2 with coefficient 1
    uhat = params.uhat
    assert uhat.prefactor == {"eps": 2}
    assert uhat.coeff({"eps": 2}) == 1
    assert uhat.coeff({"eps": 3}) == 0
    # eps^4 coefficient of u at q1^0 q2^0: 1/12 + 2*(1/144) = 7/72
    assert uhat.coeff({"eps": 4}) == F(7, 72)
    assert uhat.coeff({"eps": 4, "q1": 1}) == 2 * 2 * F(-1, 12)
    # r at eps = 0 is 1
    assert params.rhat.coeff({}) == 1


@pytest.mark.parametrize("q_order, eps_order", [(4, 5), (6, 6)])
def test_fourier_params_mirror_images_match_direct_construction(q_order, eps_order):
    # shat and exp(-w12) are built from qhat and exp(w12) by symmetry; they
    # must equal the series exponentiated directly, down to the JSON bytes
    sew = period_matrix(q_order, eps_order)
    params = fourier_params(sew)
    shat = PrefSeries(exp_series(sew.w22), {"q2": 1})
    u = add(add(exp_series(sew.w12), exp_series(negate(sew.w12))),
            MultiSeries.constant(-2, ()))
    uhat = PrefSeries(shift_var(u.with_min_floor("eps", 2), "eps", -2), {"eps": 2})
    for got, want in ((params.shat, shat), (params.uhat, uhat)):
        assert json.dumps(to_json_dict(got)) == json.dumps(to_json_dict(want))


def test_fourier_params_refuses_w12_even_in_eps():
    sew = period_matrix(2, 3)
    eps2 = MultiSeries((VarSpec("eps", 1, F(0), F(4)),), {(F(2),): 1})
    bad = SewingExpansion(sew.w11, add(sew.w12, eps2), sew.w22)
    with pytest.raises(InternalError):
        fourier_params(bad)


def test_substitute_q_squared_example():
    # q^2 |-> q1^2 (1 + 2 eps^2 Ehat_2(q2)) + O(eps^4)
    params = fourier_params(period_matrix(3, 3))
    f = MultiSeries((VarSpec("q", 1, F(0), F(5)),), {(F(2),): 1})
    out = substitute(f, "q", params.qhat)
    assert out.coeff({"q1": 2, "q2": 0, "eps": 0}) == 1
    assert out.coeff({"q1": 2, "q2": 0, "eps": 2}) == 2 * F(-1, 12)
    assert out.coeff({"q1": 2, "q2": 1, "eps": 2}) == 4
    assert out.coeff({"q1": 1, "q2": 0, "eps": 0}) == 0


def test_fourier_to_sewing_single_u():
    params = fourier_params(period_matrix(2, 4))
    u = MultiSeries((VarSpec("u"),), {(F(1),): 1})
    out = fourier_to_sewing(u, params)
    ok, why = equal_on_joint_validity(out, params.uhat)
    assert ok, why


def test_fourier_to_sewing_rejects_fractional():
    params = fourier_params(period_matrix(2, 2))
    frac = MultiSeries((VarSpec("q", den=2, valid=F(3)),), {(F(1, 2),): 1})
    with pytest.raises(FractionalExponentUnsupported):
        fourier_to_sewing(frac, params)


def test_r_form_and_u_form_substitution_agree():
    # the r-route exercises negative powers of exp(w12); it must agree with
    # the u-route on the V-symmetric lattice theta series
    from twoloop.lattice import builtin_lattice, theta_g2
    from twoloop.series import r_to_u

    th = theta_g2(builtin_lattice("E8"), 2, 2)
    params = fourier_params(period_matrix(2, 2))
    via_r = fourier_to_sewing(th, params)
    via_u = fourier_to_sewing(r_to_u(th), params)
    ok, why = equal_on_joint_validity(via_r, via_u)
    assert ok, why


def test_substitution_inverts_rhat_at_most_once(monkeypatch):
    # the r-form needs r^-1 .. r^-4; all of them come from one inverse

    d = delta10(4, 4)
    params = fourier_params(period_matrix(4, 5))
    calls = []
    invert = PrefSeries.invert
    monkeypatch.setattr(PrefSeries, "invert", lambda self: calls.append(1) or invert(self))
    via_r = fourier_to_sewing(d.fourier, params)
    assert len(calls) == 1
    via_u = fourier_to_sewing(d.fourier_u, params)
    assert len(calls) == 1
    ok, why = equal_on_joint_validity(via_r, via_u)
    assert ok, why


def test_delta10_factorization_beyond_printed_order():
    # the theta-product data at box 5 (never printed in any table) must
    # still factorize exactly as eps^2 Delta(q1) Delta(q2) (1 - 10
    # Ehat2(q1) Ehat2(q2) eps^2 + O(eps^4)) through the sewing map
    from twoloop.elliptic import delta_cusp, eisenstein_hat
    from twoloop.series import PrefSeries

    order = 5
    d = delta10(order, order)
    params = fourier_params(period_matrix(order, 5))
    lhs = fourier_to_sewing(d.fourier_u, params)
    e2 = eisenstein_hat(2, order)
    e2_q1, e2_q2 = e2.rename_vars({"q": "q1"}), e2.rename_vars({"q": "q2"})
    eps2 = MultiSeries((VarSpec("eps", 1, F(0), F(4)),), {(F(2),): 1})
    bracket = PrefSeries.coerce(1).add(e2_q1.mul(e2_q2).scalar(-10).mul(PrefSeries(eps2)))
    delta = delta_cusp(order)
    rhs = (delta.rename_vars({"q": "q1"}).mul(delta.rename_vars({"q": "q2"}))
           .mul(bracket).shift("eps", 2))
    ok, why = equal_on_joint_validity(lhs, rhs)
    assert ok, why
    # the comparison really does cover the box of q-exponents up to 4
    assert lhs.body.spec("q1").valid + lhs.prefactor.get("q1", 0) == 5


def _uncapped_chain(f, params):
    """fourier_to_sewing without the hat caps: one substitution per Fourier
    variable, each at the hats' own orders."""
    out = PrefSeries.coerce(f)
    for var, hat in (("q", params.qhat), ("s", params.shat),
                     ("u", params.uhat), ("r", params.rhat)):
        out = substitute(out, var, hat)
    return out


def _q_unbounded_form():
    # a polynomial in q (exact to every order) known below s^3 only
    q, s, u = VarSpec("q"), VarSpec("s", valid=F(3)), VarSpec("u")
    return MultiSeries((q, s, u), {(F(0), F(0), F(0)): 1, (F(2), F(1), F(1)): 3,
                                   (F(5), F(2), F(0)): -2})


@pytest.mark.parametrize("form, sewing_orders", [
    pytest.param(lambda: delta10(6, 6).fourier_u, (12, 6), id="delta10-u-6-at-12-6"),
    pytest.param(lambda: delta10(4, 4).fourier, (4, 5), id="delta10-r-4-at-4-5"),
    pytest.param(lambda: psi4_theta_candidate(3, 3).fourier_u, (3, 2), id="psi4-u-3-at-3-2"),
    pytest.param(lambda: delta10(6, 6).fourier_u, (4, 3), id="delta10-u-6-at-4-3"),
    pytest.param(_q_unbounded_form, (4, 4), id="q-unbounded-at-4-4"),
])
def test_fourier_to_sewing_matches_uncapped_chain(form, sewing_orders):
    # capping the hats to the result's box changes no term, bound or order
    f = form()
    params = fourier_params(period_matrix(*sewing_orders))
    got, want = fourier_to_sewing(f, params), _uncapped_chain(f, params)
    assert got.body.vars == want.body.vars
    assert got.prefactor == want.prefactor
    assert list(got.body.terms.items()) == list(want.body.terms.items())


def test_fourier_to_sewing_validity_caps():
    params = fourier_params(period_matrix(4, 4))
    q = VarSpec("q", 1, F(0), F(2))  # valid to q^2 exclusive only
    f = MultiSeries((q,), {(F(0),): 1, (F(1),): 5})
    out = fourier_to_sewing(f, params)
    assert out.coeff({"q1": 1}) == 5
    from twoloop.errors import UnknownCoefficient
    with pytest.raises(UnknownCoefficient):
        out.coeff({"q1": 2})


def test_torus_pair_is_the_renamed_product():
    f = dedekind_eta(4).pow_int(-2)  # a body and a q^(-1/12) prefactor
    pair = torus_pair(f)
    ref = f.rename_vars({"q": "q1"}).mul(f.rename_vars({"q": "q2"}))
    assert to_json_dict(pair) == to_json_dict(ref)
    assert pair.prefactor == {"q1": F(-1, 12), "q2": F(-1, 12)}
    assert pair.coeff({"q1": F(-1, 12) + 1, "q2": F(-1, 12) + 1}) == 4
    swapped = pair.rename_vars({"q1": "q2", "q2": "q1"})
    assert equal_on_joint_validity(pair, swapped) == (True, None)


@pytest.mark.parametrize("f", [
    pytest.param(theta_jacobi(0, 0, 3).rename_vars({"q": "s"}), id="series-in-s"),
    pytest.param(eisenstein_hat(2, 3).rename_vars({"q": "q1"}), id="series-in-q1"),
    pytest.param(eisenstein(4, 3).shift("eps", 1), id="prefactor-in-eps"),
])
def test_torus_pair_refuses_other_variables(f):
    with pytest.raises(DomainError, match="q alone"):
        torus_pair(f)
