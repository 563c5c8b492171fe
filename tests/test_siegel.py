from fractions import Fraction
from functools import reduce
from math import isqrt
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from twoloop import series, siegel
from twoloop.elliptic import eisenstein, f12_elliptic
from twoloop.errors import DomainError, InternalError, UnknownCoefficient
from twoloop.lattice import builtin_lattice, theta_g2
from twoloop.series import (
    UNBOUNDED,
    MultiSeries,
    VarSpec,
    add,
    coeff,
    equal_on_joint_validity,
    mul,
    pow_int,
    r_to_u,
    scalar_mul,
    to_json_dict,
)
from twoloop.siegel import (
    Characteristic,
    _even_theta_powers,
    _maass_lift,
    _phi10_1,
    _theta_form,
    _rung,
    _theta_rung,
    _translate,
    all_characteristics,
    assert_support_condition,
    delta10,
    even_characteristics,
    f12_siegel,
    psi4_theta_candidate,
    psi_reference,
    t2_coefficients,
    t2_selfdual,
    theta_char,
)

from conftest import assert_refines, limit_var_zero, set_var_one

F = Fraction
HALF = F(1, 2)

PATTERN_WEIGHTS = (4, 6, 8, 12)


def fk_fourier_pattern(a, weight):
    """The observed Fourier template, as a u-form, for a weight-k Siegel form
    that factorizes into f_k(q1) f_k(q2) with f_k = 1 + a q + O(q^2):

        (1 + a q)(1 + a s) + (a^2/k) q s u + a q s u^2 + O(q^2, s^2).
    """
    if weight not in PATTERN_WEIGHTS:
        raise DomainError(f"pattern stated for weights {PATTERN_WEIGHTS}")
    a = F(a)
    vars = (VarSpec("q", valid=2), VarSpec("s", valid=2), VarSpec("u"))
    terms = {
        (0, 0, 0): 1,
        (1, 0, 0): a,
        (0, 1, 0): a,
        (1, 1, 0): a * a,
        (1, 1, 1): a * a / weight,
        (1, 1, 2): a,
    }
    return MultiSeries(vars, terms)


def qsu(a, c, j):
    """The exponents of q^a s^c u^j, for reading a u-form with coeff."""
    return {"q": a, "s": c, "u": j}


def test_characteristic_parity_count():
    assert len(all_characteristics()) == 16
    evens = even_characteristics()
    assert len(evens) == 10
    odd = [c for c in all_characteristics() if not c.is_even]
    assert len(odd) == 6


def test_theta_char_basic_coefficients():
    c00 = Characteristic((F(0), F(0)), (F(0), F(0)))
    th = theta_char(c00, 3, 3)
    assert coeff(th, {"q": 0, "r": 0, "s": 0}) == 1
    # n = (1,1) and (-1,-1) both hit q^(1/2) r s^(1/2)
    assert coeff(th, {"q": HALF, "r": 1, "s": HALF}) == 2
    assert coeff(th, {"q": HALF, "r": -1, "s": HALF}) == 2
    assert coeff(th, {"q": HALF, "r": 0, "s": 0}) == 2


def test_theta_char_odd_vanishes():
    odd = [char for char in all_characteristics() if not char.is_even]
    assert len(odd) == 6
    for char in odd:
        assert theta_char(char, 3, 3).is_zero()


def test_theta_char_half_shift_vanishes_at_q_zero():
    # a1 = 1/2 puts every exponent at least 1/8 in q: the q -> 0 limit is 0
    for char in even_characteristics():
        if char.a[0] == HALF:
            th = theta_char(char, 3, 3)
            assert limit_var_zero(th, "q").is_zero(), char.label()


def test_theta_char_degenerates_to_jacobi():
    from twoloop.elliptic import theta_jacobi

    for char in even_characteristics():
        if char.a[0] != 0:
            continue
        th = theta_char(char, 3, 3)
        lim = limit_var_zero(limit_var_zero(th, "q"), "r")
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
        assert coeff(d.fourier_u, qsu(a, c, j)) == val, (a, c, j)
    # the u^4 slot allowed by the support condition vanishes
    assert coeff(d.fourier_u, qsu(2, 2, 4)) == 0


def test_delta10_is_cuspidal():
    d = delta10(3, 3)
    assert limit_var_zero(d.fourier, "q").is_zero()
    assert limit_var_zero(d.fourier, "s").is_zero()
    at_r1 = set_var_one(d.fourier, "r")
    assert limit_var_zero(at_r1, "q").is_zero()
    assert limit_var_zero(r_to_u(d.fourier), "u").is_zero()


def test_f12_fourier_table():
    f = f12_siegel(2, 2)
    assert coeff(f.fourier_u, qsu(0, 0, 0)) == 1
    assert coeff(f.fourier_u, qsu(1, 0, 0)) == 1104
    assert coeff(f.fourier_u, qsu(0, 1, 0)) == 1104
    assert coeff(f.fourier_u, qsu(1, 1, 1)) == 101568
    assert coeff(f.fourier_u, qsu(1, 1, 2)) == 1104
    assert F(1104 * 1104, 12) == coeff(f.fourier_u, qsu(1, 1, 1))


def test_f12_degenerations():
    f = f12_siegel(2, 2)
    at_r1 = set_var_one(f.fourier, "r")
    f12q = f12_elliptic(2)
    f12s = f12q.rename_vars({"q": "s"})
    ok, why = equal_on_joint_validity(at_r1, mul(f12q, f12s))
    assert ok, why


def test_psi_reference_data():
    p4 = psi_reference(4)
    assert coeff(p4, qsu(1, 1, 1)) == 14400
    assert coeff(p4, qsu(1, 1, 2)) == 240
    assert coeff(p4, qsu(1, 1, 0)) == 240 * 240
    p6 = psi_reference(6)
    assert coeff(p6, qsu(1, 1, 1)) == 42336
    assert coeff(p6, qsu(1, 1, 2)) == -504
    # observed squares
    assert coeff(p4, qsu(1, 1, 1)) == F(240 * 240, 4)
    assert coeff(p6, qsu(1, 1, 1)) == F(504 * 504, 6)
    with pytest.raises(UnknownCoefficient):
        coeff(p4, qsu(2, 0, 0))
    with pytest.raises(DomainError):
        psi_reference(8)


def test_psi4_candidate_validates_and_extends():
    cand = psi4_theta_candidate(3, 3)
    assert coeff(cand.fourier_u, qsu(1, 1, 1)) == 14400
    assert coeff(cand.fourier_u, qsu(1, 1, 2)) == 240
    # beyond the reference box the candidate supplies new exact data
    assert coeff(cand.fourier_u, qsu(2, 0, 0)) == 2160


def test_psi4_candidate_equals_lattice_theta():
    # the weight-4 space is one-dimensional: the theta-constant construction
    # and the rank-8 even unimodular lattice sum must agree everywhere
    cand = psi4_theta_candidate(3, 3)
    th = theta_g2(builtin_lattice("E8"), 3, 3)
    ok, why = equal_on_joint_validity(cand.fourier, th)
    assert ok, why


def test_psi4_candidate_eps0_degeneration():
    cand = psi4_theta_candidate(3, 3)
    e4q = eisenstein(4, 3).body
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
    assert coeff(t, qsu(0, 0, 0)) == 1
    assert coeff(t, qsu(1, 0, 0)) == -24
    assert coeff(t, qsu(0, 1, 0)) == -24
    assert coeff(t, qsu(1, 1, 0)) == 576
    assert coeff(t, qsu(1, 1, 1)) == 48
    assert coeff(t, qsu(1, 1, 2)) == -24


def test_t2_leech_vanishing():
    t = t2_selfdual(1)
    assert coeff(t, qsu(1, 0, 0)) == 0
    assert coeff(t, qsu(1, 1, 1)) == 0
    assert coeff(t, qsu(1, 1, 2)) == 0
    assert coeff(t, qsu(0, 0, 0)) == 1


@pytest.mark.parametrize("k", [0, 1, 2, 7])
def test_t2_constant_term_is_one(k):
    assert coeff(t2_selfdual(k), qsu(0, 0, 0)) == 1


@pytest.mark.parametrize("k", [0, 1])
def test_t2_matches_pattern(k):
    t = t2_selfdual(k)
    pattern = fk_fourier_pattern(24 * k - 24, 12)
    ok, why = equal_on_joint_validity(t, pattern)
    assert ok, why


def test_t2_k47_is_f12():
    # 1927 + 6k - k^2 and 1457 - 78k + k^2 both vanish at k = 47, so the
    # weight-12 combination collapses to the theta-power form; consistently,
    # N1 - 24 = 24*47 - 24 = 1104 is exactly the q-coefficient of f12
    c1, c2 = t2_coefficients(47)
    assert c1 == 0 and c2 == 0
    t = t2_selfdual(47)
    ok, why = equal_on_joint_validity(t, f12_siegel(2, 2).fourier_u)
    assert ok, why
    pattern = fk_fourier_pattern(1104, 12)
    ok, why = equal_on_joint_validity(t, pattern)
    assert ok, why


def test_t2_e8_cubed_is_psi4_cubed():
    from twoloop.series import pow_int

    t = t2_selfdual(31)
    cand = psi4_theta_candidate(2, 2)
    cubed = pow_int(cand.fourier_u, 3)
    ok, why = equal_on_joint_validity(t, cubed)
    assert ok, why


def test_fk_pattern_values():
    p = fk_fourier_pattern(1104, 12)
    assert coeff(p, qsu(1, 1, 1)) == 101568
    p = fk_fourier_pattern(240, 4)
    assert coeff(p, qsu(1, 1, 1)) == 14400
    p = fk_fourier_pattern(0, 6)
    assert coeff(p, qsu(0, 0, 0)) == 1
    assert coeff(p, qsu(1, 1, 1)) == 0
    with pytest.raises(DomainError):
        fk_fourier_pattern(1, 10)


def test_support_condition_on_products():
    assert_support_condition(delta10(3, 3).fourier)
    assert_support_condition(f12_siegel(2, 2).fourier)
    assert_support_condition(psi4_theta_candidate(3, 3).fourier)
    # a u-form is told apart by its variable u, whose exponent stands for b
    assert_support_condition(delta10(3, 3).fourier_u)
    u_vars = (VarSpec("q"), VarSpec("s"), VarSpec("u"))
    assert_support_condition(MultiSeries(u_vars, {(1, 1, 2): 1}))
    # read on scaled keys: b = 3/2 passes, and q^(1/2) r s^(1/4) fails
    fine = (VarSpec("q", 2), VarSpec("r", 2), VarSpec("s", 4))
    assert_support_condition(MultiSeries(fine, {(1, F(3, 2), 1): 1, (F(1, 2), 1, F(1, 2)): 1}))
    for ms in (MultiSeries(u_vars, {(1, 1, 3): 1}),
               MultiSeries((VarSpec("q"), VarSpec("r", 1, -3), VarSpec("s")), {(1, -3, 1): 1}),
               MultiSeries(fine, {(F(1, 2), 1, F(1, 4)): 1})):
        with pytest.raises(InternalError, match="support condition"):
            assert_support_condition(ms)


@pytest.mark.parametrize("den, exps, c, message", [
    pytest.param(1, (1, 0, 1), F(1, 2),
                 r"non-integral coefficient at \(Fraction\(1, 1\), Fraction\(0, 1\)",
                 id="non-integral-coefficient"),
    pytest.param(2, (F(1, 2), 0, 1), 1,
                 r"fractional exponent at \(Fraction\(1, 2\)", id="fractional-exponent"),
])
def test_theta_form_refuses_non_integral_data(den, exps, c, message):
    qrs = (VarSpec("q", den), VarSpec("r"), VarSpec("s"))
    with pytest.raises(InternalError, match=message):
        _theta_form("bad", F(1), MultiSeries(qrs, {exps: c}))


# -- Omega -> Omega + B translates --------------------------------------------

def test_translate_takes_theta_a0_to_every_even_theta_ab():
    for char in even_characteristics():
        top = Characteristic(char.a, (F(0), F(0)))
        got = _translate(theta_char(top, 4, 4), char.b)
        want = theta_char(char, 4, 4)
        assert got.vars == want.vars, char.label()
        assert got.terms == want.terms, char.label()


def test_translate_refuses_a_phase_off_the_quarter_grid():
    # q^(1/8) picks up exp(2*pi*i/8) under B11 = 1
    ms = MultiSeries((VarSpec("q", 8), VarSpec("r", 4), VarSpec("s", 8)),
                     {(F(1, 8), F(0), F(0)): 1})
    with pytest.raises(DomainError):
        _translate(ms, (HALF, F(0)))


def test_translate_refuses_an_imaginary_phase():
    # q^(1/4) picks up exp(2*pi*i/4) = i under B11 = 1: no rational coefficient
    ms = MultiSeries((VarSpec("q", 8), VarSpec("r", 4), VarSpec("s", 8)),
                     {(F(1, 4), F(0), F(0)): 1})
    with pytest.raises(InternalError, match="imaginary"):
        _translate(ms, (HALF, F(0)))


SHIFTS = [(HALF, F(0)), (F(0), HALF), (HALF, HALF)]
THETA_GRID = (
    VarSpec("q", 8, F(0), F(2)),
    VarSpec("r", 4, F(-2)),
    VarSpec("s", 8, F(0), F(3, 2)),
)
translate_properties = settings(derandomize=True, database=None, max_examples=25,
                                deadline=None)
theta_coeffs = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3]))


def theta_grid_series(b):
    """Series on the theta grid whose exponents all get a sign as their
    phase under the shift by ``b``."""
    b11, b12, b22 = 2 * b[0], 4 * b[0] * b[1], 2 * b[1]
    key = st.tuples(*(
        st.integers(int(v.min_exp * v.den), min(3 * v.den, v.kmax())).map(
            lambda k, den=v.den: F(k, den))
        for v in THETA_GRID)).filter(
        lambda e: (2 * (b11 * e[0] + b12 * e[1] + b22 * e[2])).denominator == 1)
    return st.dictionaries(key, theta_coeffs, max_size=6).map(
        lambda terms: MultiSeries(THETA_GRID, terms))


@pytest.mark.parametrize("b", SHIFTS, ids=["b1", "b2", "b1b2"])
@translate_properties
@given(data=st.data())
def test_translate_is_a_ring_homomorphism(b, data):
    f, g = data.draw(theta_grid_series(b)), data.draw(theta_grid_series(b))
    for lhs, rhs in (
        (_translate(mul(f, g), b), mul(_translate(f, b), _translate(g, b))),
        (_translate(add(f, g), b), add(_translate(f, b), _translate(g, b))),
    ):
        assert lhs.vars == rhs.vars
        assert lhs.terms == rhs.terms


# -- integer lattice sums, the squaring ladder and the mirror ------------------

def _fraction_theta_char(char, q_order, s_order):
    """The lattice sum of :func:`theta_char` in Fraction arithmetic: x = n +
    a over n = 0, -1, 1, -2, ..., the key (x^2/2, xy, y^2/2) and the phase
    exp(2*pi*i*(x b1 + y b2)) read as a sign."""
    qs, ss = VarSpec("q", 8, F(0), q_order), VarSpec("s", 8, F(0), s_order)
    if not char.is_even:
        return MultiSeries.zero((qs, VarSpec("r", 4), ss))

    def exponents(a, order):
        reach = isqrt(2 * order)
        xs = (m + a for n in range(reach + 1) for m in (n, -n - 1))
        return [x for x in xs if x * x < 2 * order]

    def phase(x):
        assert (2 * x).denominator == 1
        return -1 if (2 * x).numerator % 2 else 1

    (a1, a2), (b1, b2) = char.a, char.b
    terms = {}
    for x in exponents(a1, q_order):
        for y in exponents(a2, s_order):
            key = (x * x / 2, x * y, y * y / 2)
            terms[key] = terms.get(key, 0) + phase(x * b1 + y * b2)
    rmin = min((k[1] for k, c in terms.items() if c), default=F(0))
    return MultiSeries((qs, VarSpec("r", 4, min(rmin, F(0))), ss), terms)


@pytest.mark.parametrize("q_order, s_order", [(1, 1), (2, 3), (3, 2), (5, 5), (6, 4)])
def test_theta_char_matches_the_fraction_lattice_sum(q_order, s_order):
    for char in all_characteristics():
        got = theta_char(char, q_order, s_order)
        want = _fraction_theta_char(char, q_order, s_order)
        assert got.vars == want.vars, char.label()
        assert list(got.terms.items()) == list(want.terms.items()), char.label()


@pytest.mark.parametrize("q_order, s_order", [(3, 3), (2, 5), (5, 2)])
@pytest.mark.parametrize("n", [2, 8, 24])
def test_even_theta_powers_match_pow_int(n, q_order, s_order):
    # ladder rungs, the mirror at unequal orders and the translates, all in
    # pow_int's term order
    got = list(_even_theta_powers(n, q_order, s_order))
    assert len(got) == 10
    for char, power in zip(even_characteristics(), got):
        want = pow_int(theta_char(char, q_order, s_order), n)
        assert power.vars == want.vars, char.label()
        assert list(power.terms.items()) == list(want.terms.items()), char.label()


def test_psi4_after_f12_reads_the_ladder(monkeypatch):
    for f in vars(siegel).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    f12_siegel(5, 5)
    psi_reference(4)
    products = []

    def spy(a, b):
        products.append((a, b))
        return mul(a, b)

    # series.mul too: pow_int multiplies through it
    for module in (siegel, series):
        monkeypatch.setattr(module, "mul", spy)
    psi4_theta_candidate(5, 5)
    assert products == []
    # every rung the forms read is cached as its vars and terms, never a
    # series, and each read is a new series without kernel views
    misses = _theta_rung.cache_info().misses
    for a in ((F(0), F(0)), (F(0), HALF), (HALF, HALF)):
        for i in (0, 1, 3):
            _, terms = _theta_rung(a, i, 5, 5)
            assert type(terms) is MappingProxyType, (a, i)
            assert not hasattr(_rung(a, i, 5, 5), "_views"), (a, i)
    assert _theta_rung.cache_info().misses == misses


def test_mirror_guard_refuses_a_changed_theta(monkeypatch):
    mirrored = Characteristic((HALF, F(0)), (F(0), F(0)))
    exact = siegel.theta_char

    def mutant(char, q_order, s_order):
        theta = exact(char, q_order, s_order)
        if char != mirrored:
            return theta
        (key, c), *rest = theta.terms.items()
        return MultiSeries._of(theta.vars, {key: c + 1, **dict(rest)})

    monkeypatch.setattr(siegel, "theta_char", mutant)
    with pytest.raises(InternalError, match="mirror"):
        list(_even_theta_powers(2, 3, 3))


def _ten_power_reference(n, q_order, s_order):
    """A quarter of the sum of the n-th powers of all ten even theta
    series, each power formed by pow_int."""
    total = None
    for char in even_characteristics():
        p = pow_int(theta_char(char, q_order, s_order), n)
        total = p if total is None else add(total, p)
    return scalar_mul(F(1, 4), total).simplify_dens()


@pytest.mark.parametrize("form, n, order", [
    (f12_siegel, 24, 3),
    (psi4_theta_candidate, 8, 4),
], ids=["f12", "psi4"])
def test_power_sum_matches_ten_power_reference(form, n, order):
    got = form(order, order)
    ref = _ten_power_reference(n, order, order)
    assert to_json_dict(got.fourier) == to_json_dict(ref)
    assert to_json_dict(got.fourier_u) == to_json_dict(r_to_u(ref))


@pytest.mark.parametrize("form, low, high", [
    (f12_siegel, 2, 4),
    (psi4_theta_candidate, 3, 5),
    (delta10, 6, 9),
], ids=["f12", "psi4", "delta10"])
def test_power_sum_refines_with_order(form, low, high):
    lo, hi = form(low, low), form(high, high)
    assert_refines(lo.fourier, hi.fourier)
    assert_refines(lo.fourier_u, hi.fourier_u)


@pytest.mark.parametrize("form, order", [
    (f12_siegel, 2), (f12_siegel, 4), (delta10, 4),
], ids=["f12-2", "f12-4", "delta10-4"])
def test_r_validity_stays_exactly_unbounded(form, order):
    # each theta product adds r's Laurent floor to its unbounded bound
    assert form(order, order).fourier.spec("r").valid == UNBOUNDED


def test_r_form_json_prints_the_unbounded_sentinel():
    (r,) = [v for v in to_json_dict(delta10(4, 4).fourier)["vars"] if v["name"] == "r"]
    assert r["order"] == r["valid"] == "1000000000"


def _theta_delta10(q_order, s_order):
    """2^-12 times the product of the squares of the ten even theta series."""
    prod = reduce(mul, _even_theta_powers(2, q_order, s_order))
    return scalar_mul(F(1, 2**12), prod).simplify_dens()


def test_the_theta_route_of_delta10_leaves_the_rungs_bare(monkeypatch):
    # Theta[a; 0]^2 is rung 1 itself; multiplying the ten squares must not
    # leave kernel views on what a rung read hands out
    _theta_delta10(3, 3)
    for a in ((F(0), F(0)), (F(0), HALF), (HALF, HALF)):
        assert not hasattr(_rung(a, 1, 3, 3), "_views"), a
    # and the squares are read from the cached rung 1, not formed again
    products = []
    monkeypatch.setattr(siegel, "mul", lambda a, b: products.append(1) or mul(a, b))
    monkeypatch.setattr(series, "mul", siegel.mul)
    list(_even_theta_powers(2, 3, 3))
    assert products == []


@pytest.mark.parametrize("q_order, s_order", [(2, 2), (3, 3), (4, 4), (6, 6), (2, 5), (5, 2)])
def test_delta10_lift_equals_theta_product(q_order, s_order):
    got, ref = delta10(q_order, s_order), _theta_delta10(q_order, s_order)
    assert to_json_dict(got.fourier_u) == to_json_dict(r_to_u(ref))
    assert got.fourier.terms == ref.terms
    # r is exact, so its declared floor is the lowest stored r-exponent
    i = ref.var_index("r")
    assert got.fourier.spec("r").min_exp == min(k[i] for k in ref.terms)
    assert [v for v in got.fourier.vars if v.name != "r"] == \
        [v for v in ref.vars if v.name != "r"]


def test_phi10_1_leading_coefficients():
    # eta^18 theta_1^2 = q (r - 2 + 1/r) + q^2 (-2 r^2 - 16 r + 36 - 16/r - 2/r^2) + ...
    phi = _phi10_1(2)
    want = {(1, 1): 1, (1, 0): -2, (1, -1): 1,
            (2, 2): -2, (2, 1): -16, (2, 0): 36, (2, -1): -16, (2, -2): -2}
    for (n, r), c in want.items():
        assert coeff(phi, {"q": n, "r": r}) == c, (n, r)


def _with_terms(ms, terms):
    return MultiSeries._of(ms.vars, terms)


@pytest.mark.parametrize("edit, why", [
    (lambda t: {**t, (2, 1): t[(2, 1)] + 1}, "not a function"),
    (lambda t: {k: c for k, c in t.items() if k != (2, -1)}, "not a function"),
    (lambda t: {**t, (1, 2): 1}, "not a Jacobi cusp form"),
], ids=["changed", "dropped", "nonzero-at-D=0"])
def test_maass_lift_refuses_what_is_not_a_jacobi_cusp_form(edit, why):
    phi = _phi10_1(4)
    assert _maass_lift(phi, 10, 3, 3).terms == delta10(3, 3).fourier.terms
    with pytest.raises(InternalError, match=why):
        _maass_lift(_with_terms(phi, edit(dict(phi.terms))), 10, 3, 3)
    with pytest.raises(InternalError, match="known through"):
        _maass_lift(phi, 10, 4, 3)  # needs c through q^6


def gl2_violations(ms, q_order, s_order):
    """The coefficients of a (q, r, s) series in the box below q^q_order
    s^s_order, r^2 <= 4nm, that differ from the coefficient at an image in
    the box under q <-> s, r -> -r or one of the four unipotent moves.

    A Siegel form of even weight for the full modular group has a(T) =
    a(U^t T U) for every U in GL2(Z), with T = [[n, r/2], [r/2, m]]; the
    unipotent U = [[1, +-1], [0, 1]] and its transpose move (n, r, m) to
    (n, r +- 2n, n +- r + m) and (n +- r + m, r +- 2m, m)."""
    def a(n, r, m):
        return coeff(ms, {"q": n, "r": r, "s": m})

    bad = []
    for n in range(q_order):
        for m in range(s_order):
            reach = isqrt(4 * n * m)
            for r in range(-reach, reach + 1):
                images = [(m, r, n), (n, -r, m),
                          (n, r + 2 * n, n + r + m), (n, r - 2 * n, n - r + m),
                          (n + r + m, r + 2 * m, m), (n - r + m, r - 2 * m, m)]
                here = a(n, r, m)
                bad += [((n, r, m), img) for img in images
                        if img[0] < q_order and img[2] < s_order and a(*img) != here]
    return bad


@pytest.mark.parametrize("build, box", [
    (lambda: _theta_delta10(5, 5), (5, 5)),
    (lambda: delta10(6, 6).fourier, (6, 6)),
    (lambda: f12_siegel(5, 5).fourier, (5, 5)),
    (lambda: psi4_theta_candidate(5, 5).fourier, (5, 5)),
    (lambda: theta_g2(builtin_lattice("E8"), 4, 4), (4, 4)),
], ids=["delta10-theta-5", "delta10-lift-6", "f12-5", "psi4-5", "theta_g2-E8-4"])
def test_gl2_invariance(build, box):
    assert gl2_violations(build(), *box) == []


def test_gl2_oracle_sees_one_dropped_term():
    d = delta10(4, 4).fourier
    key = tuple(e * v.den for e, v in zip((1, 1, 2), d.vars))
    dropped = _with_terms(d, {k: c for k, c in d.terms.items() if k != key})
    bad = gl2_violations(dropped, 4, 4)
    assert bad and all((1, 1, 2) in pair for pair in bad)
