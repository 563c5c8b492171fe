from fractions import Fraction
from math import factorial

import pytest

from twoloop.elliptic import (
    bernoulli,
    covariant_derivative,
    dedekind_eta,
    delta_cusp,
    eisenstein,
    eisenstein_hat,
    euler_product,
    f12_elliptic,
    j_function,
    sigma,
    theta_jacobi,
)
from twoloop.errors import DomainError
from twoloop.series import (
    GaussRat,
    MultiSeries,
    PrefSeries,
    VarSpec,
    coeff,
    equal_on_joint_validity,
    mul,
    shift_var,
)

from conftest import assert_refines

F = Fraction
HALF = F(1, 2)


def pentagonal_euler(order):
    """Independent oracle: prod(1-q^n) via the pentagonal number series."""
    coeffs = {0: 1}
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        if e1 >= order and e2 >= order:
            break
        s = 1 if k % 2 == 0 else -1
        if e1 < order:
            coeffs[e1] = s
        if e2 < order:
            coeffs[e2] = s
        k += 1
    return coeffs


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(12) == F(-691, 2730)
    with pytest.raises(DomainError):
        bernoulli(3)
    with pytest.raises(DomainError):
        bernoulli(-2)


def test_sigma():
    assert sigma(1, 6) == 12
    assert sigma(3, 2) == 9
    assert sigma(11, 1) == 1


def test_eisenstein_low_coefficients():
    e4 = eisenstein(4, 3)
    assert e4.coeff({"q": 0}) == GaussRat(1)
    assert e4.coeff({"q": 1}) == GaussRat(240)
    assert e4.coeff({"q": 2}) == GaussRat(2160)
    e6 = eisenstein(6, 2)
    assert e6.coeff({"q": 1}) == GaussRat(-504)
    s = e4.add(e6)
    assert s.coeff({"q": 0}) == GaussRat(2)
    assert s.coeff({"q": 1}) == GaussRat(-264)


def test_eisenstein_hat_normalization():
    e2 = eisenstein_hat(2, 3)
    assert e2.coeff({"q": 0}) == GaussRat(F(-1, 12))
    assert e2.coeff({"q": 1}) == GaussRat(2)
    for k2 in range(2, 18, 2):
        eh = eisenstein_hat(k2, 2)
        assert eh.coeff({"q": 0}) == GaussRat(-bernoulli(k2) / factorial(k2))
        assert eh.coeff({"q": 1}) == GaussRat(F(2 * k2, factorial(k2)))


def test_eta_matches_pentagonal_oracle():
    order = 20
    body = euler_product(order)
    oracle = pentagonal_euler(order)
    for n in range(order):
        assert coeff(body, {"q": n}) == GaussRat(oracle.get(n, 0)), n


@pytest.mark.parametrize("order", [2, 3, 10, 81])
def test_euler_product_equals_the_product_form(order):
    # the pentagonal sum against prod_{n < order} (1 - q^n), one mul per factor
    spec = VarSpec("q", valid=order)
    ref = MultiSeries.constant(1, (spec,))
    for n in range(1, order):
        ref = mul(ref, MultiSeries((spec,), {(F(0),): 1, (F(n),): -1}))
    got = euler_product(order)
    assert got.vars == ref.vars
    assert got.terms == ref.terms


def test_delta_expansion():
    d = delta_cusp(5)
    assert d.prefactor == {"q": 1}
    assert d.coeff({"q": 1}) == GaussRat(1)
    assert d.coeff({"q": 2}) == GaussRat(-24)
    assert d.coeff({"q": 3}) == GaussRat(252)
    assert d.coeff({"q": 4}) == GaussRat(-1472)


def test_invert_delta_long_division_oracle():
    # coefficients of 1/Delta from the recurrence Delta * (1/Delta) = 1
    order = 6
    d = delta_cusp(order)
    inv = d.invert()
    dvals = [d.coeff({"q": n}).re for n in range(1, order + 1)]
    c = [F(1)]
    for n in range(1, order - 1):
        c.append(-sum(dvals[j] * c[n - j] for j in range(1, n + 1)))
    for n, cn in enumerate(c):
        assert inv.coeff({"q": n - 1}) == GaussRat(cn)
    assert inv.coeff({"q": 0}) == GaussRat(24)
    assert inv.coeff({"q": 1}) == GaussRat(324)


def test_eta_log_derivative_identity():
    # q d/dq eta = -(1/2) Ehat_2 eta
    order = 8
    eta = dedekind_eta(order)
    lhs = eta.q_log_deriv("q")
    rhs = eisenstein_hat(2, order).mul(eta).scalar(F(-1, 2))
    ok, why = equal_on_joint_validity(lhs, rhs)
    assert ok, why


def test_covariant_derivative_delta_vanishes():
    d = covariant_derivative(delta_cusp(8), 12)
    assert d.body.is_zero()


def test_covariant_derivative_e4():
    order = 5
    de4 = covariant_derivative(eisenstein(4, order), 4)
    target = eisenstein(6, order).scalar(F(-1, 3))
    ok, why = equal_on_joint_validity(de4, target)
    assert ok, why


def test_covariant_derivative_weight_zero_constant():
    d = covariant_derivative(PrefSeries.coerce(1), 0)
    assert d.body.is_zero()


def test_covariant_derivative_refuses_shifted_exact_series():
    # q^2 * q^-1 is exact: its q-validity 10^9 - 1 is unbounded, so D must
    # refuse it rather than build Ehat_2 out to that order
    body = shift_var(MultiSeries((VarSpec("q"),), {(2,): 1}), "q", -1)
    with pytest.raises(DomainError, match="truncated"):
        covariant_derivative(PrefSeries(body), 2)


def test_theta_jacobi_even_series():
    th = theta_jacobi(0, 0, 5)
    assert th.coeff({"q": 0}) == GaussRat(1)
    assert th.coeff({"q": HALF}) == GaussRat(2)
    assert th.coeff({"q": 2}) == GaussRat(2)
    assert th.coeff({"q": 1}) == GaussRat(0)
    th4 = theta_jacobi(0, HALF, 5)
    assert th4.coeff({"q": HALF}) == GaussRat(-2)
    th2 = theta_jacobi(HALF, 0, 5)
    assert th2.coeff({"q": F(1, 8)}) == GaussRat(2)


def test_theta_jacobi_odd_cancels():
    th = theta_jacobi(HALF, HALF, 6)
    assert th.body.is_zero()


def test_f12_expansion():
    f = f12_elliptic(2)
    assert coeff(f, {"q": 0}) == GaussRat(1)
    assert coeff(f, {"q": 1}) == GaussRat(1104)
    assert f.spec("q").den == 1


def test_j_function_validated():
    j = j_function(2)
    assert j.coeff({"q": -1}) == GaussRat(1)
    assert j.coeff({"q": 0}) == GaussRat(0)
    assert j.coeff({"q": 1}) == GaussRat(196884)


@pytest.mark.parametrize("n1", [0, 24, 168])
def test_delta_times_j_plus_n1(n1):
    order = 4
    t = delta_cusp(order).mul(j_function(order).add(PrefSeries.coerce(n1)))
    assert t.coeff({"q": 0}) == GaussRat(1)
    assert t.coeff({"q": 1}) == GaussRat(n1 - 24)


def test_j_function_refines_with_order():
    assert_refines(j_function(4), j_function(6))
