from fractions import Fraction

import pytest

from twoloop.elliptic import eisenstein, f12_elliptic
from twoloop.errors import DomainError, UnknownCoefficient
from twoloop.lattice import builtin_lattice, theta_g2
from twoloop.series import (
    GaussRat,
    equal_on_joint_validity,
    limit_var_zero,
    mul,
    r_to_u,
    set_var_one,
)
from twoloop.siegel import (
    Characteristic,
    all_characteristics,
    assert_support_condition,
    delta10,
    even_characteristics,
    f12_siegel,
    fk_fourier_pattern,
    psi4_theta_candidate,
    psi_reference,
    t2_coefficients,
    t2_selfdual,
    theta_char,
)

F = Fraction
HALF = F(1, 2)


def test_characteristic_parity_count():
    assert len(all_characteristics()) == 16
    evens = even_characteristics()
    assert len(evens) == 10
    odd = [c for c in all_characteristics() if not c.is_even]
    assert len(odd) == 6


def test_theta_char_basic_coefficients():
    c00 = Characteristic((F(0), F(0)), (F(0), F(0)))
    th = theta_char(c00, 3, 3)
    assert th.coeff_r(0, 0, 0) == GaussRat(1)
    # n = (1,1) and (-1,-1) both hit q^(1/2) r s^(1/2)
    assert th.coeff_r(HALF, 1, HALF) == GaussRat(2)
    assert th.coeff_r(HALF, -1, HALF) == GaussRat(2)
    assert th.coeff_r(HALF, 0, 0) == GaussRat(2)


def test_theta_char_odd_vanishes():
    for char in all_characteristics():
        if not char.is_even:
            th = theta_char(char, 3, 3)
            assert th.odd
            assert th.fourier.is_zero()


def test_theta_char_half_shift_vanishes_at_q_zero():
    # a1 = 1/2 puts every exponent at least 1/8 in q: the q -> 0 limit is 0
    for char in even_characteristics():
        if char.a[0] == HALF:
            th = theta_char(char, 3, 3)
            assert limit_var_zero(th.fourier, "q").is_zero(), char.label()


def test_theta_char_degenerates_to_jacobi():
    from twoloop.elliptic import theta_jacobi

    for char in even_characteristics():
        if char.a[0] != 0:
            continue
        th = theta_char(char, 3, 3)
        lim = limit_var_zero(limit_var_zero(th.fourier, "q"), "r")
        ref = theta_jacobi(char.a[1], char.b[1], 3).rename_vars({"q": "s"})
        phase = 1 if char.b[0] == 0 else 1  # n1 = 0 contributes no b1 phase
        ok, why = equal_on_joint_validity(lim, ref.body)
        assert ok, (char.label(), why)


def test_delta10_fourier_table():
    d = delta10(3, 3)
    expected = {
        (1, 1, 1): 1,
        (2, 1, 1): -24,
        (1, 2, 1): -24,
        (2, 2, 1): 576,
        (2, 1, 2): -2,
        (1, 2, 2): -2,
        (2, 2, 2): 144,
        (2, 2, 3): -16,
    }
    for (a, c, j), val in expected.items():
        assert d.coeff_u(a, c, j) == GaussRat(val), (a, c, j)
    # the u^4 slot allowed by the support condition vanishes
    assert d.coeff_u(2, 2, 4) == GaussRat(0)


def test_delta10_is_cuspidal():
    d = delta10(3, 3)
    assert limit_var_zero(d.fourier, "q").is_zero()
    assert limit_var_zero(d.fourier, "s").is_zero()
    at_r1 = set_var_one(d.fourier, "r")
    assert limit_var_zero(at_r1, "q").is_zero()
    assert limit_var_zero(r_to_u(d.fourier), "u").is_zero()


def test_f12_fourier_table():
    f = f12_siegel(2, 2)
    assert f.coeff_u(0, 0, 0) == GaussRat(1)
    assert f.coeff_u(1, 0, 0) == GaussRat(1104)
    assert f.coeff_u(0, 1, 0) == GaussRat(1104)
    assert f.coeff_u(1, 1, 1) == GaussRat(101568)
    assert f.coeff_u(1, 1, 2) == GaussRat(1104)
    assert GaussRat(F(1104 * 1104, 12)) == f.coeff_u(1, 1, 1)


def test_f12_degenerations():
    f = f12_siegel(2, 2)
    at_r1 = set_var_one(f.fourier, "r")
    f12q = f12_elliptic(2)
    f12s = f12q.rename_vars({"q": "s"})
    ok, why = equal_on_joint_validity(at_r1, mul(f12q, f12s))
    assert ok, why


def test_psi_reference_data():
    p4 = psi_reference(4)
    assert p4.coeff_u(1, 1, 1) == GaussRat(14400)
    assert p4.coeff_u(1, 1, 2) == GaussRat(240)
    assert p4.coeff_u(1, 1, 0) == GaussRat(240 * 240)
    p6 = psi_reference(6)
    assert p6.coeff_u(1, 1, 1) == GaussRat(42336)
    assert p6.coeff_u(1, 1, 2) == GaussRat(-504)
    # observed squares
    assert p4.coeff_u(1, 1, 1) == GaussRat(F(240 * 240, 4))
    assert p6.coeff_u(1, 1, 1) == GaussRat(F(504 * 504, 6))
    with pytest.raises(UnknownCoefficient):
        p4.coeff_u(2, 0, 0)
    with pytest.raises(DomainError):
        psi_reference(8)


def test_psi4_candidate_validates_and_extends():
    cand = psi4_theta_candidate(3, 3)
    assert cand.coeff_u(1, 1, 1) == GaussRat(14400)
    assert cand.coeff_u(1, 1, 2) == GaussRat(240)
    # beyond the reference box the candidate supplies new exact data
    assert cand.coeff_u(2, 0, 0) == GaussRat(2160)


def test_psi4_candidate_equals_lattice_theta():
    # the weight-4 space is one-dimensional: the theta-constant construction
    # and the rank-8 even unimodular lattice sum must agree everywhere
    cand = psi4_theta_candidate(3, 3)
    th = theta_g2(builtin_lattice("E8"), 3, 3)
    ok, why = equal_on_joint_validity(cand.fourier, th)
    assert ok, why


def test_psi4_candidate_eps0_degeneration():
    cand = psi4_theta_candidate(3, 3)
    e4q = eisenstein(4, 3).series.body
    e4s = e4q.rename_vars({"q": "s"})
    lim = limit_var_zero(cand.fourier_u, "u")
    ok, why = equal_on_joint_validity(lim, mul(e4q, e4s))
    assert ok, why


def test_t2_coefficients_exact():
    c1, c2 = t2_coefficients(0)
    assert c1 == F(1927, 1152)
    assert c2 == F(1457, 6336)
    # k = 31 reproduces the pure psi_4^3 combination (three copies of the
    # rank-8 lattice theory): c1 = 1, c2 = 0
    c1, c2 = t2_coefficients(31)
    assert c1 == 1 and c2 == 0


def test_t2_moonshine_table():
    t = t2_selfdual(0)
    assert t.coeff_u(0, 0, 0) == GaussRat(1)
    assert t.coeff_u(1, 0, 0) == GaussRat(-24)
    assert t.coeff_u(0, 1, 0) == GaussRat(-24)
    assert t.coeff_u(1, 1, 0) == GaussRat(576)
    assert t.coeff_u(1, 1, 1) == GaussRat(48)
    assert t.coeff_u(1, 1, 2) == GaussRat(-24)


def test_t2_leech_vanishing():
    t = t2_selfdual(1)
    assert t.coeff_u(1, 0, 0) == GaussRat(0)
    assert t.coeff_u(1, 1, 1) == GaussRat(0)
    assert t.coeff_u(1, 1, 2) == GaussRat(0)
    assert t.coeff_u(0, 0, 0) == GaussRat(1)


@pytest.mark.parametrize("k", [0, 1, 2, 7])
def test_t2_constant_term_is_one(k):
    assert t2_selfdual(k).coeff_u(0, 0, 0) == GaussRat(1)


@pytest.mark.parametrize("k", [0, 1])
def test_t2_matches_pattern(k):
    t = t2_selfdual(k)
    pattern = fk_fourier_pattern(24 * k - 24, 12)
    ok, why = equal_on_joint_validity(t.fourier_u, pattern.fourier_u)
    assert ok, why


def test_t2_k47_is_f12():
    # 1927 + 6k - k^2 and 1457 - 78k + k^2 both vanish at k = 47, so the
    # weight-12 combination collapses to the theta-power form; consistently,
    # N1 - 24 = 24*47 - 24 = 1104 is exactly the q-coefficient of f12
    c1, c2 = t2_coefficients(47)
    assert c1 == 0 and c2 == 0
    t = t2_selfdual(47)
    ok, why = equal_on_joint_validity(t.fourier_u, f12_siegel(2, 2).fourier_u)
    assert ok, why
    pattern = fk_fourier_pattern(1104, 12)
    ok, why = equal_on_joint_validity(t.fourier_u, pattern.fourier_u)
    assert ok, why


def test_t2_e8_cubed_is_psi4_cubed():
    from twoloop.series import pow_int

    t = t2_selfdual(31)
    cand = psi4_theta_candidate(2, 2)
    cubed = pow_int(cand.fourier_u, 3)
    ok, why = equal_on_joint_validity(t.fourier_u, cubed)
    assert ok, why


def test_fk_pattern_values():
    p = fk_fourier_pattern(1104, 12)
    assert p.coeff_u(1, 1, 1) == GaussRat(101568)
    p = fk_fourier_pattern(240, 4)
    assert p.coeff_u(1, 1, 1) == GaussRat(14400)
    p = fk_fourier_pattern(0, 6)
    assert p.coeff_u(0, 0, 0) == GaussRat(1)
    assert p.coeff_u(1, 1, 1) == GaussRat(0)
    with pytest.raises(DomainError):
        fk_fourier_pattern(1, 10)


def test_support_condition_on_products():
    assert_support_condition(delta10(3, 3).fourier, uform=False)
    assert_support_condition(f12_siegel(2, 2).fourier, uform=False)
    assert_support_condition(psi4_theta_candidate(3, 3).fourier, uform=False)
