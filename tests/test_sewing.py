import json
import random
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
from twoloop.siegel import delta10, psi4_theta_candidate, t2_selfdual

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
    """fourier_to_sewing without the hat caps or the look-ahead: one plain
    substitution per Fourier variable, each at the hats' own orders, made at
    eps -> c*eps as fourier_to_sewing makes them."""
    steps = (("q", params.qhat), ("s", params.shat), ("u", params.uhat), ("r", params.rhat))
    c = sewing._eps_scale(max(sewing._eps_degree(hat) for _, hat in steps))
    out = sewing._scale_eps(PrefSeries.coerce(f), c)
    for var, hat in steps:
        out = substitute(out, var, sewing._scale_eps(hat, c))
    return sewing._scale_eps(out, F(1, c))


def _assert_same(got, want, context=None):
    """The same variables, prefactor and terms, in the same order, with each
    coefficient of the same type (``Fraction(2, 1) == 2`` would pass)."""
    assert got.body.vars == want.body.vars, context
    assert list(got.prefactor.items()) == list(want.prefactor.items()), context
    typed = [[(k, type(c), c) for k, c in s.body.terms.items()] for s in (got, want)]
    assert typed[0] == typed[1], context


def _q_unbounded_form():
    # a polynomial in q (exact to every order) known below s^3 only
    q, s, u = VarSpec("q"), VarSpec("s", valid=F(3)), VarSpec("u")
    return MultiSeries((q, s, u), {(F(0), F(0), F(0)): 1, (F(2), F(1), F(1)): 3,
                                   (F(5), F(2), F(0)): -2})


def _qsu(*terms):
    """A form in (q, s, u), exact in each, from (q, s, u, coefficient) rows."""
    return MultiSeries((VarSpec("q"), VarSpec("s"), VarSpec("u")),
                       {(F(a), F(b), F(k)): c for a, b, k, c in terms})


@pytest.mark.parametrize("form, sewing_orders", [
    pytest.param(lambda: delta10(6, 6).fourier_u, (12, 6), id="delta10-u-6-at-12-6"),
    pytest.param(lambda: delta10(4, 4).fourier, (4, 5), id="delta10-r-4-at-4-5"),
    pytest.param(lambda: psi4_theta_candidate(3, 3).fourier_u, (3, 2), id="psi4-u-3-at-3-2"),
    pytest.param(lambda: delta10(6, 6).fourier_u, (4, 3), id="delta10-u-6-at-4-3"),
    pytest.param(_q_unbounded_form, (4, 4), id="q-unbounded-at-4-4"),
    # a constant alone: no u-term to drop, and no eps variable to add
    pytest.param(lambda: t2_selfdual(1), (2, 2), id="t2-selfdual-1-at-2-2"),
    # u^2 is known below eps^7: a cap from the hats' eps^5 alone would
    # lower that, with or without a dead term beside it
    pytest.param(lambda: _qsu((0, 0, 2, 1)), (3, 4), id="u2-at-3-4"),
    pytest.param(lambda: _qsu((0, 0, 2, 1), (0, 0, 6, -2)), (3, 4), id="u2-u6-at-3-4"),
    # the same with q*s: the q- and s-images of u^2 are needed below eps^3
    pytest.param(lambda: _qsu((1, 1, 2, 1), (1, 1, 6, -2)), (3, 4), id="qsu2-qsu6-at-3-4"),
    # the s-free q*u and q*s*u^2 share the q-group of q^1 with different
    # raises: a raise read off the wrong term would prune q*u's image
    pytest.param(lambda: _qsu((1, 0, 1, 1), (1, 1, 2, 1)), (3, 4), id="qu-qsu2-at-3-4"),
    # the dead q*u^9 holds the least q-power, which sets the q1 prefactor
    pytest.param(lambda: _qsu((1, 0, 9, 1), (2, 0, 1, 1)), (4, 4), id="qu9-q2u-at-4-4"),
    pytest.param(lambda: _qsu((0, 0, 0, 3), (1, 1, 1, 1), (1, 1, 9, 1)), (4, 4),
                 id="3-qsu-qsu9-at-4-4"),
    # q^9*u lies past the hats' q1 bound and vanishes, so the least u-power
    # that reaches the u-step is 2 and the result is known below eps^7
    pytest.param(lambda: _qsu((9, 0, 1, 1), (1, 0, 2, -3), (1, 0, 5, 1)), (3, 4),
                 id="vanishing-q9u-at-3-4"),
    # the s-free q^2*u^7 lands past the result's eps bound, yet it holds the
    # least s-power, which sets the variable order and q2 prefactor of the
    # s-step
    pytest.param(lambda: _qsu((2, 0, 7, 2), (2, 2, 0, 3)), (3, 4), id="q2u7-q2s2-at-3-4"),
    # the same with q*u^7 alone in its q-group: the group forms no power of
    # qhat, and its dead term still holds the s-step's least s-power
    pytest.param(lambda: _qsu((1, 0, 7, 1), (2, 2, 0, 3)), (3, 4), id="qu7-q2s2-at-3-4"),
    # q^3*u^2 lies inside qhat's q1 bound but not inside shat's, so it
    # vanishes at the s-step, and the least u-power that reaches the u-step
    # is 3: the eps bound there is eps^9, not eps^7
    pytest.param(lambda: _qsu((0, 4, 6, 3), (2, 0, 3, 3), (3, 0, 2, 2)), (3, 4),
                 id="s4u6-q2u3-q3u2-at-3-4"),
    # known below q^1 only: a box cap in q1 would empty qhat and move the
    # leading exponents that the q-step reads for its q2 bound
    pytest.param(lambda: MultiSeries((VarSpec("q", valid=F(1)), VarSpec("s")),
                                     {(F(0), F(0)): 1, (F(0), F(2)): -3}),
                 (3, 4), id="1-3s2-below-q1-at-3-4"),
])
def test_fourier_to_sewing_matches_uncapped_chain(form, sewing_orders):
    # capping the hats to the result's box, and telling each substitution
    # what the later ones add, changes no term, bound, order or type
    f = form()
    params = fourier_params(period_matrix(*sewing_orders))
    _assert_same(fourier_to_sewing(f, params), _uncapped_chain(f, params))


def _random_form(rng):
    """Up to six terms in (q, s, u) with u-powers up to 9, each of q and s
    known to a random order or exact."""
    vars = (*(VarSpec(x) if rng.random() < 0.5 else VarSpec(x, valid=F(rng.randint(1, 7)))
              for x in ("q", "s")), VarSpec("u"))
    terms = {(F(rng.randint(0, 6)), F(rng.randint(0, 6)), F(rng.randint(0, 9))):
             F(rng.randint(-5, 5), rng.choice([1, 2, 3])) for _ in range(rng.randint(1, 6))}
    return MultiSeries(vars, terms)


def test_fourier_to_sewing_matches_uncapped_chain_on_random_forms():
    rng = random.Random(20071)
    for _ in range(200):
        f = _random_form(rng)
        params = fourier_params(period_matrix(*rng.choice([(3, 4), (4, 4), (5, 5)])))
        _assert_same(fourier_to_sewing(f, params), _uncapped_chain(f, params), f)


def _spy_substitute(monkeypatch):
    """The (variable, result) of each substitute call fourier_to_sewing makes."""
    seen = []
    substitute = sewing.substitute
    monkeypatch.setattr(sewing, "substitute", lambda f, var, g, *ahead: seen.append(
        (var, substitute(f, var, g, *ahead))) or seen[-1][1])
    return seen


def test_fourier_to_sewing_forms_no_term_past_its_eps_budget(monkeypatch):
    # uhat carries eps^2 and the result is known below eps^7, and shat
    # carries q2 and the result is known below q2^6: no q- or s-step term
    # may have q2-exponent + s-power >= 6, and the only terms with
    # eps-exponent + 2*(u-power) >= 7 are the carriers, one per term of
    # the form whose u-power alone passes the bound, each at eps^0
    seen = _spy_substitute(monkeypatch)
    f = delta10(6, 6).fourier_u
    fourier_to_sewing(f, fourier_params(period_matrix(12, 6)))
    dead = sum(2 * k[f.var_index("u")] >= 7 for k in f.terms)
    assert dead == 50
    assert [var for var, _ in seen[:2]] == ["q", "s"]
    for _, out in seen[:2]:
        carriers = 0
        for key in out.body.terms:
            exps = {v.name: F(k, v.den) + out.prefactor.get(v.name, 0)
                    for v, k in zip(out.body.vars, key)}
            assert exps.get("q2", 0) + exps.get("s", 0) < 6
            if exps.get("eps", 0) + 2 * exps.get("u", 0) >= 7:
                assert exps.get("eps", 0) == 0 and 2 * exps["u"] >= 7
                carriers += 1
        assert carriers == dead


@pytest.mark.parametrize("form, orders", [
    pytest.param(lambda: delta10(6, 6).fourier_u, (12, 6), id="delta10-u-6-at-12-6"),
    pytest.param(lambda: delta10(6, 6).fourier_u, (8, 8), id="delta10-u-6-at-8-8"),
    pytest.param(lambda: psi4_theta_candidate(3, 3).fourier_u, (3, 2), id="psi4-u-3-at-3-2"),
    pytest.param(lambda: delta10(4, 4).fourier, (4, 5), id="delta10-r-4-at-4-5"),
])
def test_fourier_to_sewing_substitutes_once_per_hat(monkeypatch, form, orders):
    seen = _spy_substitute(monkeypatch)
    fourier_to_sewing(form(), fourier_params(period_matrix(*orders)))
    assert [var for var, _ in seen] == ["q", "s", "u", "r"]


def test_fourier_params_is_cached_and_read_only():
    sew = period_matrix(3, 3)
    params = fourier_params(sew)
    assert fourier_params(sew) is params
    with pytest.raises(AttributeError):
        params.qhat = params.shat
    with pytest.raises(AttributeError):
        params.uhat.body = params.qhat.body
    with pytest.raises(TypeError):
        params.qhat.prefactor["q1"] = 2
    with pytest.raises(TypeError):
        params.rhat.body.terms[(0, 0, 0)] = 2


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
