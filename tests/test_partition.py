from fractions import Fraction

import pytest

from twoloop.elliptic import (
    dedekind_eta,
    delta_cusp,
    eisenstein,
    eisenstein_hat,
)
from twoloop.errors import DomainError, Unsupported
from twoloop.lattice import builtin_lattice
from twoloop.partition import (
    CBoson,
    Ghost,
    LatticeTheory,
    SelfDual,
    g2_correction,
    parse_theory,
    t1_selfdual,
    t2_ratio,
    verify_f2,
    z1,
    z1_omega,
    z2,
    z2_ghost,
)
from twoloop.series import (
    GaussRat,
    PrefSeries,
    coeff,
    equal_on_joint_validity,
)
from twoloop.siegel import fk_eps_expansion, t2_selfdual
from twoloop.sewing import fourier_params, fourier_to_sewing, period_matrix

from conftest import assert_refines

F = Fraction


def test_z1_boson24_is_delta_inverse():
    z = z1(CBoson(24), 5)
    assert z.prefactor == {"q": -1}
    assert z.coeff({"q": -1}) == GaussRat(1)
    assert z.coeff({"q": 0}) == GaussRat(24)
    assert z.coeff({"q": 1}) == GaussRat(324)
    inv = delta_cusp(5).invert()
    ok, why = equal_on_joint_validity(z, inv)
    assert ok, why


def test_z1_selfdual_values():
    z = z1(SelfDual(0), 3)
    assert z.coeff({"q": -1}) == GaussRat(1)
    assert z.coeff({"q": 0}) == GaussRat(0)
    assert z.coeff({"q": 1}) == GaussRat(196884)
    z24 = z1(SelfDual(24), 3)
    assert z24.coeff({"q": 0}) == GaussRat(24)


def test_z1_lattice_e8():
    z = z1(LatticeTheory(builtin_lattice("E8")), 4)
    ref = eisenstein(4, 4).mul(
        dedekind_eta(4).pow_int(-8))
    ok, why = equal_on_joint_validity(z, ref)
    assert ok, why


def test_z1_ghost_is_eta_squared():
    z = z1(Ghost(), 4)
    assert z.prefactor == {"q": F(1, 12)}
    assert z.coeff({"q": F(1, 12)}) == GaussRat(1)


def test_z1_is_built_once_per_theory_and_order():
    # z2 needs z1 and z1_omega, and z1_omega needs z1 for both of its routes;
    # asking for all three again afterwards builds nothing new
    theory = CBoson(3)
    z2(theory, 4)
    before = z1.cache_info().misses, z1_omega.cache_info().misses
    z1_omega(theory, 4)
    z1(theory, 4)
    z2(theory, 4)
    assert (z1.cache_info().misses, z1_omega.cache_info().misses) == before
    assert z1(theory, 4) is z1(theory, 4)


REFINING_THEORIES = ("boson:24", "selfdual:0", "lattice:E8")


@pytest.mark.parametrize("text", REFINING_THEORIES)
def test_z1_refines_with_order(text):
    theory = parse_theory(text)
    assert_refines(z1(theory, 4), z1(theory, 6))


@pytest.mark.parametrize("text", REFINING_THEORIES)
def test_z2_refines_with_order(text):
    theory = parse_theory(text)
    assert_refines(z2(theory, 3).pref, z2(theory, 5).pref)


def test_t1_selfdual_q_expansion():
    t = t1_selfdual(24, 4)
    assert t.coeff({"q": 0}) == GaussRat(1)
    assert t.coeff({"q": 1}) == GaussRat(0)


def test_z1_omega_agreement_and_value():
    # q d/dq (1/eta^24) = 12 Ehat_2 / eta^24, checked to order 5
    w = z1_omega(CBoson(24), 6)
    ref = eisenstein_hat(2, 6).scalar(12).mul(dedekind_eta(6).pow_int(-24))
    ok, why = equal_on_joint_validity(w, ref)
    assert ok, why


def test_z1_omega_selfdual_route():
    w = z1_omega(SelfDual(0), 5)
    direct = z1(SelfDual(0), 5).q_log_deriv("q")
    ok, why = equal_on_joint_validity(w, direct)
    assert ok, why


def test_z1_omega_ghost_unsupported():
    with pytest.raises(Unsupported):
        z1_omega(Ghost(), 3)


def test_z2_boson24_eps2_term():
    zg = z2(CBoson(24), 4)
    assert zg.pref.prefactor["eps"] == -2
    assert not zg.conjectural
    # exponents are absolute: the eps^2 bracket term sits at eps^0 overall;
    # its value is 12 Ehat2 Ehat2/(Delta Delta) with Ehat2 constant -1/12,
    # so the q1^-1 q2^-1 eps^0 coefficient is 12/144 = 1/12
    assert zg.pref.coeff({"q1": -1, "q2": -1, "eps": -2}) == GaussRat(1)
    assert zg.pref.coeff({"q1": -1, "q2": -1, "eps": -1}) == GaussRat(0)
    assert zg.pref.coeff({"q1": -1, "q2": -1, "eps": 0}) == GaussRat(F(1, 12))


def test_z2_swap_symmetry_and_parity():
    for theory in (CBoson(2), SelfDual(24), LatticeTheory(builtin_lattice("E8"))):
        zg = z2(theory, 3)
        swapped = zg.pref.rename_vars({"q1": "q2", "q2": "q1"})
        ok, why = equal_on_joint_validity(zg.pref, swapped)
        assert ok, (theory.label(), why)
        i = zg.pref.body.var_index("eps")
        assert all(k[i] % 2 == 0 for k in zg.pref.body.terms)


def test_z2_eps0_is_z1_product():
    zg = z2(SelfDual(0), 3)
    from twoloop.series import limit_var_zero

    eps0 = limit_var_zero(zg.pref.body, "eps")
    z = z1(SelfDual(0), 3)
    prod = z.rename_vars({"q": "q1"}).mul(z.rename_vars({"q": "q2"}))
    got = PrefSeries(eps0, {k: v for k, v in zg.pref.prefactor.items() if k != "eps"})
    ok, why = equal_on_joint_validity(got, prod)
    assert ok, why


def test_z2_rejects_higher_eps_order():
    with pytest.raises(Unsupported):
        z2(CBoson(24), 3, eps_order=4)
    with pytest.raises(Unsupported):
        z2(Ghost(), 3)


@pytest.mark.parametrize("c", [1, 2, 8, 24, 26])
def test_z2_general_matches_closed_form(c):
    # the closed-form crosscheck runs inside z2 for every boson
    zg = z2(CBoson(c), 3)
    assert zg.pref.prefactor["eps"] == F(-c, 12)


def test_z2_tensor_multiplicativity():
    za = z2(CBoson(3), 3).pref
    zb = z2(CBoson(5), 3).pref
    zab = z2(CBoson(8), 3).pref
    ok, why = equal_on_joint_validity(za.mul(zb), zab)
    assert ok, why


def test_z2_tensor_power_law():
    z1p = z2(CBoson(1), 3).pref
    z8 = z2(CBoson(8), 3).pref
    ok, why = equal_on_joint_validity(z1p.pow_int(8), z8)
    assert ok, why


def test_z2_ghost_prefactor_and_flag():
    zg = z2_ghost(3)
    assert zg.conjectural
    assert zg.pref.prefactor["eps"] == F(1, 6)


def test_g2_correction_expansion():
    g = g2_correction(3)
    assert coeff(g, {"q1": 0, "q2": 0, "eps": 0}) == GaussRat(1)
    # eps^2 coefficient is -2 Ehat2(q1) Ehat2(q2): constant -2/144 = -1/72
    assert coeff(g, {"q1": 0, "q2": 0, "eps": 2}) == GaussRat(F(-1, 72))
    assert coeff(g, {"q1": 1, "q2": 0, "eps": 2}) == GaussRat(F(1, 3))


def test_verify_f2_holds():
    report = verify_f2(3, 4)
    assert report.ok, report.detail
    assert report.conjectural
    assert report.eps_valid >= 4
    assert report.q_valid >= 2


def test_t2_ratio_selfdual_leech_matches_fk_expansion():
    order = 3
    ratio = t2_ratio(SelfDual(24), order)
    t1 = t1_selfdual(24, order)
    fk = fk_eps_expansion(t1, 12)
    ok, why = equal_on_joint_validity(ratio, fk)
    assert ok, why


def test_t2_ratio_lattice_matches_fk_expansion():
    order = 3
    e8 = builtin_lattice("E8")
    ratio = t2_ratio(LatticeTheory(e8), order)
    from twoloop.lattice import theta_g1

    theta = PrefSeries(theta_g1(e8, order))
    fk = fk_eps_expansion(theta, 4)
    ok, why = equal_on_joint_validity(ratio, fk)
    assert ok, why


def test_t2_ratio_eps0_degeneration():
    ratio = t2_ratio(SelfDual(48), 2)
    # as eps -> 0 the ratio tends to (1 + (N1-24) q1)(1 + (N1-24) q2)
    assert ratio.coeff({"q1": 0, "q2": 0, "eps": 0}) == GaussRat(1)
    assert ratio.coeff({"q1": 1, "q2": 0, "eps": 0}) == GaussRat(24)
    assert ratio.coeff({"q1": 1, "q2": 1, "eps": 0}) == GaussRat(576)


def test_t2_ratio_rejects_boson():
    with pytest.raises(DomainError):
        t2_ratio(CBoson(24), 2)


def test_fk_cross_oracle_selfdual_vs_fourier():
    # weight 12: the eps expansion from torus data against the Fourier route
    order = 2
    t2f = t2_selfdual(1)
    params = fourier_params(period_matrix(order, 2))
    via_fourier = fourier_to_sewing(t2f, params)
    fk = fk_eps_expansion(t1_selfdual(24, order), 12)
    ok, why = equal_on_joint_validity(via_fourier, fk)
    assert ok, why


def test_fk_cross_oracle_weight4():
    from twoloop.siegel import psi4_theta_candidate

    order = 3
    cand = psi4_theta_candidate(order, order)
    params = fourier_params(period_matrix(order, 2))
    via_fourier = fourier_to_sewing(cand.fourier_u, params)
    theta = PrefSeries(__import__("twoloop.lattice", fromlist=["theta_g1"]).theta_g1(
        builtin_lattice("E8"), order))
    fk = fk_eps_expansion(theta, 4)
    ok, why = equal_on_joint_validity(via_fourier, fk)
    assert ok, why


@pytest.mark.parametrize("weight,builder", [
    (4, lambda: eisenstein(4, 3)),
    (6, lambda: eisenstein(6, 3)),
    (12, lambda: t1_selfdual(24, 3)),
])
def test_fk_eps2_constant_vanishes(weight, builder):
    # (1/k)(Df/f)(0)^2 - k Ehat2(0)^2 = (1/k)(k/12)^2 - k/144 = 0
    fk = fk_eps_expansion(builder(), weight)
    assert fk.coeff({"q1": 0, "q2": 0, "eps": 2}) == GaussRat(0)


def test_parse_theory():
    assert parse_theory("boson:24") == CBoson(24)
    assert parse_theory("selfdual:0") == SelfDual(0)
    assert parse_theory("ghost") == Ghost()
    assert parse_theory("lattice:E8").lattice.name == "E8"
    with pytest.raises(DomainError):
        parse_theory("orbifold:3")
