"""Tail-perturbation oracle for the validity guarantee.

A series known below some bound stands for every series that agrees with it
there.  Each test rebuilds the inputs of an operation with their finite
bounds raised and random terms added where they knew nothing
(``conftest.perturb_tail``), recomputes, and checks that every coefficient
the original result claims comes out unchanged.  Unlike the refinement
oracle, which compares against the true tail, this catches a bound that is
too wide even where the true tail happens to agree.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twoloop.series import (
    MultiSeries,
    PrefSeries,
    add,
    equal_on_joint_validity,
    mul,
    pow_int,
    q_log_deriv,
    shift_var,
    substitute,
)
from twoloop import sewing
from twoloop.sewing import FourierParams, fourier_params, fourier_to_sewing, period_matrix
from twoloop.siegel import delta10, f12_siegel, psi4_theta_candidate

from conftest import V, perturb_tail, random_series, random_unit

F = Fraction

oracle = settings(derandomize=True, database=None, max_examples=15, deadline=None)


def _agree(claimed, perturbed):
    ok, why = equal_on_joint_validity(claimed, perturbed)
    assert ok, why


@oracle
@given(rng=st.randoms(use_true_random=False))
def test_mul_claims_nothing_its_tails_decide(rng):
    q, r = V("q", order=4, valid=rng.randint(1, 4)), V("r", min_exp=-2)
    a = random_series(rng, [q, V("eps", order=5, valid=rng.randint(1, 5)), r])
    b = random_series(rng, [V("q", min_exp=1, order=4), r])
    _agree(mul(a, b), mul(perturb_tail(a, rng), perturb_tail(b, rng)))


def _hat(rng):
    """A series in (t, w) with t-floor 1 and a t^1 term, so that every
    exponent it can hold, its tail's included, is at least its lead."""
    t, w = V("t", min_exp=1, order=5, valid=rng.randint(2, 5)), V("w", order=4, valid=3)
    terms = dict(random_series(rng, [t, w], max_exp=3).iter_terms())
    terms[(F(1), F(0))] = 1
    return PrefSeries(MultiSeries((t, w), terms))


def _unit_hat(rng):
    """t times a unit in (t, w): the form of the sewing hats, whose powers
    have a constant term."""
    unit = random_unit(rng, [V("t", order=5, valid=rng.randint(1, 5)), V("w", order=4, valid=3)])
    return PrefSeries(unit, {"t": F(1)})


@oracle
@given(rng=st.randoms(use_true_random=False))
def test_substitute_claims_nothing_its_tails_decide(rng):
    f = random_series(rng, [V("q", order=5, valid=rng.randint(1, 5)), V("s", order=3, valid=2)])
    g = _hat(rng)
    _agree(substitute(f, "q", g), substitute(perturb_tail(f, rng), "q", perturb_tail(g, rng)))


@oracle
@given(rng=st.randoms(use_true_random=False))
def test_add_claims_nothing_its_tails_decide(rng):
    a = random_series(rng, [V("q", order=4, valid=rng.randint(1, 4)), V("s", min_exp=-1)])
    b = random_series(rng, [V("s", min_exp=-2, order=3, valid=rng.randint(-1, 3)),
                            V("q", den=2, order=5, valid=rng.randint(1, 5))])
    _agree(add(a, b), add(perturb_tail(a, rng), perturb_tail(b, rng)))


@oracle
@given(rng=st.randoms(use_true_random=False))
def test_invert_claims_nothing_its_tail_decides(rng):
    u = PrefSeries(random_unit(rng, [V("q", order=4, valid=rng.randint(1, 4)),
                                     V("eps", den=2, order=3, valid=rng.randint(1, 3))]),
                   {"q": F(rng.randint(-2, 2), 3)})
    _agree(u.invert(), perturb_tail(u, rng).invert())


@oracle
@given(rng=st.randoms(use_true_random=False))
def test_pow_int_and_shift_var_claim_nothing_their_tails_decide(rng):
    a = random_series(rng, [V("q", min_exp=-1, order=4, valid=rng.randint(0, 4)),
                            V("eps", order=5, valid=rng.randint(1, 5))])
    tail = perturb_tail(a, rng)
    _agree(pow_int(a, 3), pow_int(tail, 3))
    amount = F(rng.randint(-3, 3), rng.choice([1, 2, 3]))
    _agree(shift_var(a, "q", amount), shift_var(tail, "q", amount))


@oracle
@given(rng=st.randoms(use_true_random=False))
def test_q_log_deriv_with_den_and_rename_vars_claim_nothing_their_tails_decide(rng):
    a = random_series(rng, [V("q", den=2, min_exp=-1, order=4, valid=rng.randint(0, 4)),
                            V("eps", order=5, valid=rng.randint(1, 5))])
    tail = perturb_tail(a, rng)
    _agree(q_log_deriv(a, "q"), q_log_deriv(tail, "q"))
    _agree(a.with_den("q", 6), tail.with_den("q", 6))
    _agree(a.rename_vars({"q": "s"}), tail.rename_vars({"q": "s"}))


@settings(oracle, max_examples=5)
@given(rng=st.randoms(use_true_random=False))
def test_period_matrix_claims_nothing_the_eisenstein_tails_decide(rng):
    # every Ehat_2k that the sewing matrix reads stands for the series it
    # truncates; the period matrix built from perturbed tails must agree
    # with the cached one wherever both are known
    want = period_matrix(4, 4)
    hat = sewing.eisenstein_hat
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sewing, "eisenstein_hat", lambda k, q: perturb_tail(hat(k, q), rng))
        got = period_matrix.__wrapped__(4, 4)
    for name in ("w11", "w12", "w22"):
        _agree(getattr(want, name), getattr(got, name))


def _chain(f, hats, bounds=None):
    """f with q and then s substituted, each step told what follows when
    ``bounds`` are given."""
    first = substitute(f, "q", hats[0], bounds and ({"s": hats[1].leading_exponents()}, bounds))
    return substitute(first, "s", hats[1], bounds and ({}, bounds))


@settings(oracle, max_examples=40)
@given(rng=st.randoms(use_true_random=False))
def test_substitute_told_what_follows_claims_no_more_than_the_plain_chain(rng):
    # whatever the bounds, the chain told what follows is the plain chain
    # below them; and where no input tail decides a coefficient that the
    # plain chain claims, none decides one that it claims.  (A plain chain
    # can claim one: a truncated tail can hold a power of the next step's
    # variable that its known terms lack, and the next step reads its least
    # power and bounds from the powers it holds.  The SEWN cases below
    # check fourier_to_sewing's forms against their tails directly.)
    f = random_series(rng, [V("q", order=5, valid=rng.randint(1, 5)),
                            V("s", order=5, valid=rng.randint(1, 5))], max_terms=8)
    hats = [_hat(rng) if rng.random() < 0.5 else _unit_hat(rng) for _ in range(2)]
    bounds = {"t": F(rng.randint(1, 6)), "w": F(rng.randint(1, 4))}
    got, plain = _chain(f, hats, bounds), _chain(f, hats)
    _agree(got, plain)
    tails = perturb_tail(f, rng), [perturb_tail(h, rng) for h in hats]
    if equal_on_joint_validity(plain, _chain(*tails))[0]:
        _agree(got, _chain(*tails, bounds))


SEWN = [
    pytest.param(lambda: delta10(4, 4).fourier_u, (4, 4), id="delta10-u-4-at-4-4"),
    pytest.param(lambda: psi4_theta_candidate(3, 3).fourier_u, (3, 3), id="psi4-u-3-at-3-3"),
    pytest.param(lambda: f12_siegel(3, 3).fourier_u, (4, 3), id="f12-u-3-at-4-3"),
]


@pytest.mark.parametrize("form, orders", SEWN)
@settings(oracle, max_examples=4)
@given(rng=st.randoms(use_true_random=False))
def test_fourier_to_sewing_claims_nothing_the_form_tail_decides(form, orders, rng):
    f, params = form(), fourier_params(period_matrix(*orders))
    _agree(fourier_to_sewing(f, params), fourier_to_sewing(perturb_tail(f, rng), params))


@pytest.mark.parametrize("form, orders", SEWN)
@settings(oracle, max_examples=4)
@given(rng=st.randoms(use_true_random=False))
def test_fourier_to_sewing_claims_nothing_the_hat_tails_decide(form, orders, rng):
    f, params = form(), fourier_params(period_matrix(*orders))
    hats = FourierParams(*(perturb_tail(h, rng) for h in
                           (params.qhat, params.shat, params.uhat)))
    _agree(fourier_to_sewing(f, params), fourier_to_sewing(f, hats))
