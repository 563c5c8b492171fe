import copy
import json
import pickle
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from twoloop.errors import (
    AsymmetryError,
    DomainError,
    FractionalExponentUnsupported,
    NonNilpotentExponent,
    NotAUnit,
    TruncationUnderflow,
    UnknownCoefficient,
)
from twoloop.series import (
    UNBOUNDED,
    GaussRat,
    MultiSeries,
    PrefSeries,
    VarSpec,
    add,
    coeff,
    equal_on_joint_validity,
    exp_series,
    from_json_dict,
    limit_var_zero,
    mul,
    negate,
    pow_int,
    q_log_deriv,
    r_to_u,
    set_var_one,
    shift_var,
    substitute,
    to_json_dict,
)

from twoloop import elliptic, series, sewing, siegel
from twoloop.elliptic import delta_cusp
from twoloop.sewing import period_matrix
from twoloop.siegel import delta10, psi4_theta_candidate

from conftest import V, random_series, random_unit


F = Fraction


def S(vars, terms):
    return MultiSeries(tuple(vars), {tuple(map(F, k)): v for k, v in terms.items()})


def test_gaussrat_field_ops():
    a = GaussRat(F(1, 2), F(3))
    b = GaussRat(F(-2), F(1, 5))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * a.inverse() == GaussRat(1)
    assert GaussRat(0, 1) * GaussRat(0, 1) == GaussRat(-1)


# -- GaussRat against plain Fraction pairs -----------------------------------

rationals = st.one_of(
    st.integers(-10**20, 10**20),
    st.fractions(max_denominator=10**6),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)
properties = settings(derandomize=True, database=None, max_examples=200)

coeffs = st.builds(
    GaussRat,
    st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3])),
    st.one_of(st.just(0), st.integers(-2, 2)),
)


def _canonical_parts(c):
    """Check the stored triple is canonical; return ``(re, im)`` Fractions."""
    x, y, d = c
    assert type(c) is GaussRat
    assert (type(x), type(y), type(d)) == (int, int, int)
    assert d > 0 and gcd(x, y, d) == 1
    assert (c.re, c.im) == (F(x, d), F(y, d))
    return c.re, c.im


@properties
@given(rationals, rationals, rationals, rationals)
def test_gaussrat_arithmetic_matches_fraction_pairs(a, b, c, d):
    p, q = GaussRat(a, b), GaussRat(c, d)
    a, b, c, d = map(F, (a, b, c, d))
    assert _canonical_parts(p) == (a, b)
    assert _canonical_parts(q) == (c, d)
    assert _canonical_parts(p + q) == (a + c, b + d)
    assert _canonical_parts(p - q) == (a - c, b - d)
    assert _canonical_parts(-p) == (-a, -b)
    assert _canonical_parts(p * q) == (a * c - b * d, a * d + b * c)
    assert _canonical_parts(p + c) == (a + c, b)
    assert _canonical_parts(c - p) == (c - a, -b)
    assert _canonical_parts(c * p) == (a * c, b * c)
    n = c * c + d * d
    if n:
        assert _canonical_parts(q.inverse()) == (c / n, -d / n)
        assert _canonical_parts(p / q) == ((a * c + b * d) / n, (b * c - a * d) / n)
        assert _canonical_parts(a / q) == (a * c / n, -a * d / n)
    else:
        with pytest.raises(ZeroDivisionError):
            q.inverse()
    assert complex(p) == complex(float(a), float(b))


@properties
@given(rationals, rationals)
@example(3, 0)
@example(F(1, 2), 0)
def test_gaussrat_eq_and_hash_agree_with_numbers(r, i):
    z = GaussRat(r)
    assert z == r and r == z and not z != r
    assert hash(z) == hash(r) == hash(F(r))
    assert len({z, r, F(r)}) == 1
    if F(r).denominator == 1:
        assert z == int(r) and hash(z) == hash(int(r))
    w = GaussRat(r, i)
    assert (w == r) is (not i)
    assert w == GaussRat(F(r), F(i)) and hash(w) == hash(GaussRat(F(r), F(i)))


def test_gaussrat_is_an_immutable_number_not_a_tuple():
    c = GaussRat(F(1, 2), F(-1, 3))
    assert tuple(c) == (3, -2, 6)
    for name in ("re", "im", "x"):
        with pytest.raises(AttributeError):
            setattr(c, name, F(1))
    assert (c.re, c.im) == (F(1, 2), F(-1, 3))
    with pytest.raises(TypeError):
        GaussRat(1) < GaussRat(2)
    with pytest.raises(TypeError):
        (0, 0, 1) < GaussRat(1)
    with pytest.raises(TypeError):
        len(c)
    with pytest.raises(TypeError):
        c + (1, 0, 1)
    assert GaussRat(1) != (1, 0, 1) and (1, 0, 1) != GaussRat(1)
    assert not GaussRat(0) and GaussRat(0, 1) and GaussRat(0).is_zero()
    assert copy.deepcopy(c) == c
    assert pickle.loads(pickle.dumps(c)) == c


def test_varspec_invariants():
    # the integer bounds of products and sums need an integer den
    for den in (0, -1, 2.0, F(3, 2), F(2), True, "2", None):
        with pytest.raises(DomainError):
            VarSpec("q", den=den)
    with pytest.raises(DomainError):
        VarSpec("q", 1, F(2), F(1))  # min above valid
    v = VarSpec("q", 2, F(0), F(3))
    assert v.valid == F(3)
    assert v.kmax() == 5  # largest k with k/2 < 3


def test_varspec_bounds_hash_and_equality_are_computed_once_and_agree():
    for den in (1, 2, 3, 6):
        for min_exp in (F(-2), F(-1, 2), F(0), F(1, 3)):
            for valid in (F(1, 3), F(1), F(5, 2), F(7, 3), UNBOUNDED):
                v = VarSpec("q", den, min_exp, valid)
                grid = range(-3 * den, 4 * den)
                kmax = max(k for k in grid if F(k, den) < valid) if valid < UNBOUNDED else \
                    UNBOUNDED * den - 1
                assert (v.kmin(), v.kmax()) == (min(k for k in grid if F(k, den) >= min_exp),
                                                kmax)
                # the hash a frozen dataclass gives, so set and dict order hold
                assert hash(v) == hash((v.name, v.den, v.min_exp, v.valid))
                w = VarSpec("q", den, min_exp, valid)
                assert w == v and hash(w) == hash(v) and w is not v
                assert pickle.loads(pickle.dumps(v)) == v
                assert copy.deepcopy(v) == v
    v = VarSpec("q", 2, F(-1), F(3))
    assert v != VarSpec("q", 2, F(-1), F(5, 2)) and v != VarSpec("q", 2, F(0), F(3))
    assert v != VarSpec("q", 4, F(-1), F(3)) and v != VarSpec("s", 2, F(-1), F(3))
    assert v != ("q", 2, F(-1), F(3))
    w = replace(v, valid=F(2))  # a replaced spec gets its own bounds
    assert (w.kmin(), w.kmax()) == (-2, 3)
    with pytest.raises(AttributeError):
        v.den = 3


def test_add_cancellation():
    q = V("q", order=8)
    a = S([q], {(0,): 1, (1,): 1})
    b = S([q], {(0,): -1, (1,): 1})
    out = add(a, b)
    assert coeff(out, {"q": 1}) == GaussRat(2)
    assert coeff(out, {"q": 0}) == GaussRat(0)
    assert len(out) == 1


def test_add_drops_terms_beyond_joint_validity():
    a = S([V("q", order=4), V("s", order=3)], {(0, 0): 1, (3, 0): 5, (0, 2): 7})
    b = S([V("q", order=2)], {(1,): 2})
    out = add(a, b)
    assert [(v.name, v.valid) for v in out.vars] == [("q", 2), ("s", 3)]
    assert dict(out.terms) == {(0, 0): GaussRat(1), (1, 0): GaussRat(2), (0, 2): GaussRat(7)}
    assert dict(add(b, b).terms) == {(1,): GaussRat(4)}


def test_add_identity(rng):
    q, s = V("q", den=2, order=4), V("s", order=4)
    f = random_series(rng, [q, s])
    z = MultiSeries.zero((q,))
    ok, why = equal_on_joint_validity(add(f, z), f)
    assert ok, why


def test_mul_bilinear_expansion():
    q, s = V("q", order=5), V("s", order=5)
    a = S([q], {(0,): 1, (1,): -24})
    b = S([s], {(0,): 1, (1,): -24})
    out = mul(a, b)
    assert coeff(out, {"q": 1, "s": 1}) == GaussRat(576)
    assert coeff(out, {"q": 1}) == GaussRat(-24)
    assert coeff(out, {"s": 1}) == GaussRat(-24)
    assert coeff(out, {}) == GaussRat(1)


def _naive_product(a, b, vars):
    # the operands may hold different variable sets: align exponents by name
    terms = {}
    for k1, c1 in a.iter_terms():
        e1 = dict(zip((v.name for v in a.vars), k1))
        for k2, c2 in b.iter_terms():
            e2 = dict(zip((v.name for v in b.vars), k2))
            key = tuple(e1.get(v.name, 0) + e2.get(v.name, 0) for v in vars)
            terms[key] = terms.get(key, GaussRat(0)) + c1 * c2
    return MultiSeries(vars, terms)


def _reference_merge(a_vars, b_vars, op):
    # the merged layout of op(a, b), built apart from the library: dens by
    # lcm; a product sums the floors and is known below the lower of one
    # bound plus the other floor, a sum keeps the lower floor and bound; a
    # variable one side lacks is exponent 0 there, floor 0 and unbounded
    a_by, b_by = {v.name: v for v in a_vars}, {v.name: v for v in b_vars}
    names = [v.name for v in a_vars] + [v.name for v in b_vars if v.name not in a_by]
    out = []
    for n in names:
        den = lcm(*(s[n].den for s in (a_by, b_by) if n in s))
        u, v = a_by.get(n, VarSpec(n, den)), b_by.get(n, VarSpec(n, den))
        if op is mul:
            floor, valid = u.min_exp + v.min_exp, min(u.valid + v.min_exp, v.valid + u.min_exp)
        else:
            floor, valid = min(u.min_exp, v.min_exp), min(u.valid, v.valid)
        out.append(VarSpec(n, den, floor, valid))
    return tuple(out)


def _naive_sum(a, b, vars):
    # both operands' terms by name, restricted to the box of ``vars``
    terms = {}
    for s in (a, b):
        for k, c in s.iter_terms():
            e = dict(zip((v.name for v in s.vars), k))
            key = tuple(e.get(v.name, F(0)) for v in vars)
            terms[key] = terms.get(key, GaussRat(0)) + c
    return MultiSeries(vars, terms)


def _ordered_product(a, b, vars):
    # the kernel's term order: left terms as stored, each against the right
    # terms in sorted key order (up to the first that overflows the first
    # variable), pairs outside the validity box skipped, each result key at
    # its first occurrence
    ta, tb = a._aligned_to(vars), sorted(b._aligned_to(vars).items())
    kmaxes = [v.kmax() for v in vars]
    terms = {}
    for k1, c1 in ta.items():
        for k2, c2 in tb:
            key = tuple(map(int.__add__, k1, k2))
            if key[0] > kmaxes[0]:
                break
            if all(map(int.__le__, key, kmaxes)):
                terms[key] = terms.get(key, GaussRat(0)) + c1 * c2
    return [(k, c) for k, c in terms.items() if c]


# no shrink phase: a failing kernel case is reported as generated, in
# seconds, instead of spending about 45 s shrinking each one
kernel_properties = settings(derandomize=True, database=None, max_examples=40,
                             deadline=None,
                             phases=[p for p in Phase if p is not Phase.shrink])


def box_series(vars, floor, max_terms=5, max_exp=3):
    """Nonempty series over ``vars`` with nonzero coefficients, each exponent
    drawn inside the validity box, from ``floor`` (default: the Laurent
    floor) up to ``max_exp``."""
    key = st.tuples(*(
        st.integers(int(F(floor.get(v.name, v.min_exp)) * v.den),
                    min(max_exp * v.den, v.kmax())).map(lambda k, den=v.den: F(k, den))
        for v in vars))
    return st.dictionaries(key, coeffs.filter(bool), min_size=1, max_size=max_terms).map(
        lambda terms: MultiSeries(tuple(vars), terms))


def kernel_case(id, vars_a, vars_b=None, floor={}, max_terms=5, square=False):
    return pytest.param(vars_a, vars_b, floor, max_terms, square, id=id)


@pytest.mark.parametrize("vars_a, vars_b, floor, max_terms, square", [
    kernel_case("two-vars", [V("q", den=2, order=4), V("r", min_exp=-2, order=4)]),
    kernel_case("one-var", [V("q", den=3, order=4)]),
    kernel_case("different-var-sets", [V("q1", order=4), V("eps", order=5)],
                [V("q2", order=4), V("eps", order=5)]),
    kernel_case("valid-below-order", [V("q", order=5, valid=3), V("s", den=2, order=4)]),
    kernel_case("unbounded", [V("q", order=4), V("r", min_exp=-2)]),
    # every stored q-exponent is 2, every product lands at q^4 > kmax = 2
    kernel_case("no-pair-in-box", [V("q", order=3), V("s", den=2, order=3)], floor={"q": 2}),
    # up to 12 terms a side, so that many left terms share a rounded room
    kernel_case("shared-rooms", [V("q1", order=4), V("eps", order=5)],
                [V("q2", order=4), V("eps", order=5)], max_terms=12),
    # the theta-product shape: a Laurent, unbounded r between q and s
    kernel_case("laurent-middle", [V("q", den=2, order=3), V("r", den=2, min_exp=-2),
                                   V("s", den=2, order=3)], max_terms=12),
    kernel_case("square", [V("q", order=4), V("r", min_exp=-2), V("s", den=2, order=3)],
                max_terms=12, square=True),
])
@kernel_properties
@given(data=st.data())
def test_mul_packed_kernel_matches_naive(vars_a, vars_b, floor, max_terms, square, data):
    # every product goes through denominator scaling, packed integer keys and
    # pruning against the result's validity box; it must agree with the
    # naive convolution for rational and Gaussian coefficients alike, and
    # keep its terms in the order of the ordered reference
    vars_b = vars_b or vars_a
    names = [v.name for v in vars_a]
    names += [v.name for v in vars_b if v.name not in names]
    a = data.draw(box_series(vars_a, floor, max_terms))
    b = a if square else data.draw(box_series(vars_b, floor, max_terms))
    assert not (a.is_zero() or b.is_zero())  # the kernel runs, not the shortcut
    fast = mul(a, b)
    assert [v.name for v in fast.vars] == names
    assert fast.vars == _reference_merge(a.vars, b.vars, mul)
    assert fast.terms == _naive_product(a, b, fast.vars).terms
    assert list(fast.terms.items()) == _ordered_product(a, b, fast.vars)
    assert not (floor and fast.terms)


@kernel_properties
@given(data=st.data())
def test_mul_reusing_a_kept_view_gives_the_same_product(data):
    # one right operand b in a sequence of products whose merged layout or
    # box changes, so that its kept views are built, reused and passed over;
    # every product must still be the naive one, in the reference's order
    q, s = V("q", order=4), V("s", den=2, order=3)

    def draw(*vars):
        return data.draw(box_series(vars, {}, max_terms=8))

    b, c = draw(q, s), draw(q, s)
    products = [
        (draw(q, s), b),                       # builds b's view for this box
        (draw(q, V("eps", order=5)), b),       # another variable set
        (draw(q, V("s", den=2, order=2)), b),  # lower s bound: other strides
        (draw(V("q", order=3), s), b),         # lower leading bound, same strides
        (b, b),                                # a square
        (b, c), (c, b),                        # b on the left, then on the right
    ]
    for x, y in products:
        out = mul(x, y)
        assert out.terms == _naive_product(x, y, out.vars).terms
        assert list(out.terms.items()) == _ordered_product(x, y, out.vars)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: period_matrix(8, 6), id="period_matrix-8-6"),
    pytest.param(lambda: psi4_theta_candidate(4, 4), id="psi4_theta_candidate-4-4"),
])
def test_mul_keeps_term_order_on_library_products(build, monkeypatch):
    # every product of a cold build, in the ordered reference's term order
    products = []

    def recording(a, b):
        out = mul(a, b)
        products.append((a, b, out))
        return out

    for module in (series, elliptic, sewing, siegel):
        if hasattr(module, "mul"):
            monkeypatch.setattr(module, "mul", recording)
        for f in vars(module).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
    build()
    assert len(products) > 10
    for a, b, out in products:
        assert list(out.terms.items()) == _ordered_product(a, b, out.vars)


_SIBLINGS = [
    (V("q", den=2, order=4), V("r", min_exp=-2, order=5)),
    (V("q", den=2, order=3), V("r", min_exp=-2, order=5)),  # one bound lower
    (V("q", den=2, order=4), V("r", min_exp=-1, order=5)),  # one floor higher
    (V("q", den=4, order=4), V("r", min_exp=-2, order=5)),  # one den finer
    (V("q", den=2, order=4), V("r", min_exp=-2)),           # one bound unbounded
]


@pytest.mark.parametrize("op", [mul, add], ids=["mul", "add"])
def test_merged_layout_matches_reference_merge(op, rng):
    # layouts that differ from a sibling in one bound, floor or den, each
    # merged after the sibling's plan is cached: a plan served for the
    # wrong layout would give the sibling's merged variables
    plans = series._merge_vars_mul if op is mul else series._merge_vars_add
    plans.cache_clear()
    others = [_SIBLINGS[0], (V("q", den=3, order=5), V("eps", order=6)),
              (V("s", order=2),)]
    for right in others:
        for left in _SIBLINGS + _SIBLINGS[::-1]:
            a, b = random_series(rng, left), random_series(rng, right)
            for x, y in ((a, b), (b, a)):
                out = op(x, y)
                assert out.vars == _reference_merge(x.vars, y.vars, op)
                naive = (_naive_product if op is mul else _naive_sum)(x, y, out.vars)
                assert out.terms == naive.terms
    # one plan per ordered pair of layouts; (_SIBLINGS[0], _SIBLINGS[0]) comes twice
    assert plans.cache_info().currsize == 2 * len(_SIBLINGS) * len(others) - 1


@pytest.mark.parametrize("vars_a, vars_b", [
    # b lacks s, whose merged bound is 0: b's terms, at s^0, are unknown
    ([V("q", order=3), V("s", min_exp=-2, valid=0)], [V("q", order=3)]),
    ([V("q", order=3), V("s", min_exp=-2, valid=F(-1, 2))], [V("q", order=3)]),
    # a's q bound is higher
    ([V("q", order=4), V("s", order=3)], [V("q", order=2), V("s", order=3)]),
    # dens 2 and 3 merge to 6, and b's bound 1 cuts a's q^1 and q^(3/2)
    ([V("q", den=2, order=2)], [V("q", den=3, order=1)]),
], ids=["missing-var-bound-0", "missing-var-bound-below-0", "higher-bound",
        "different-dens"])
def test_add_drops_what_lies_beyond_the_merged_box(vars_a, vars_b, rng):
    outside = 0
    for _ in range(30):
        a, b = random_series(rng, vars_a), random_series(rng, vars_b)
        for x, y in ((a, b), (b, a)):
            out = add(x, y)
            assert out.vars == _reference_merge(x.vars, y.vars, add)
            assert dict(out.terms) == dict(_naive_sum(x, y, out.vars).terms)
            for s in (x, y):
                for k, _ in s.iter_terms():
                    e = dict(zip((v.name for v in s.vars), k))
                    outside += any(e.get(v.name, 0) >= v.valid for v in out.vars)
    assert outside  # operands held terms the merged box cuts away


def test_mul_packed_kernel_matches_naive_int(rng):
    q, r = V("q", den=2, order=4), V("r", den=1, min_exp=-2, order=4)
    for _ in range(25):
        a = random_series(rng, [q, r])
        b = random_series(rng, [q, r])
        ai = MultiSeries(a.vars, {k: GaussRat(c.re.numerator, c.im.numerator)
                                  for k, c in a.iter_terms()})
        bi = MultiSeries(b.vars, {k: GaussRat(c.re.numerator, c.im.numerator)
                                  for k, c in b.iter_terms()})
        fast = mul(ai, bi)
        slow = _naive_product(ai, bi, fast.vars)
        ok, why = equal_on_joint_validity(fast, slow)
        assert ok, why


def test_ring_axioms(rng):
    q = V("q", den=2, order=3)
    s = V("s", order=3)
    for _ in range(30):
        a = random_series(rng, [q, s])
        b = random_series(rng, [q, s])
        c = random_series(rng, [q, s])
        assert mul(a, b).terms == mul(b, a).terms
        ok, _ = equal_on_joint_validity(mul(mul(a, b), c), mul(a, mul(b, c)))
        assert ok
        ok, _ = equal_on_joint_validity(
            mul(a, add(b, c)), add(mul(a, b), mul(a, c))
        )
        assert ok


def test_validity_propagation_mul():
    # product of a valid-to-2 series with q^1 is valid to 3, not beyond
    q = V("q", order=10, valid=2)
    f = S([q], {(0,): 1, (1,): 5})
    g = S([V("q", min_exp=1, order=10)], {(1,): 1})
    out = mul(f, g)
    assert coeff(out, {"q": 2}) == GaussRat(5)
    with pytest.raises(UnknownCoefficient):
        coeff(out, {"q": 3})


def test_validity_soundness_random(rng):
    # truncating an operand's validity must never change a claimed coefficient
    q, s = V("q", order=6), V("s", order=6)
    for _ in range(20):
        a = random_series(rng, [q, s], max_terms=6, max_exp=4)
        b = random_series(rng, [q, s], max_terms=6, max_exp=4)
        full = mul(a, b)
        cut = mul(a.with_validity(q=2), b)
        for exps, c in cut.iter_terms():
            k = {"q": exps[cut.var_index("q")], "s": exps[cut.var_index("s")]}
            assert coeff(full, k) == c


def test_unknown_coefficient_is_not_zero():
    q = V("q", order=4, valid=2)
    f = S([q], {(1,): 7})
    assert coeff(f, {"q": 0}) == GaussRat(0)  # known zero
    with pytest.raises(UnknownCoefficient):
        coeff(f, {"q": 2})  # unknown, despite nothing stored


def test_pow_and_negate(rng):
    q = V("q", order=5)
    f = random_series(rng, [q])
    ok, _ = equal_on_joint_validity(pow_int(f, 3), mul(f, mul(f, f)))
    assert ok
    assert add(f, negate(f)).is_zero()


def test_invert_unit_roundtrip(rng):
    q, s = V("q", den=2, order=3), V("s", order=3)
    for _ in range(100):
        u = PrefSeries(random_unit(rng, [q, s]))
        inv = u.invert()
        prod = u.mul(inv)
        one = MultiSeries.constant(1, prod.body.vars)
        ok, why = equal_on_joint_validity(prod, PrefSeries(one))
        assert ok, why
        back = inv.invert()
        ok, why = equal_on_joint_validity(back, u)
        assert ok, why


def test_invert_non_unit():
    q = V("q", order=4)
    with pytest.raises(NotAUnit):
        PrefSeries(S([q], {(1,): 1})).invert()


def test_invert_needs_truncation():
    q = V("q")  # unbounded order
    with pytest.raises(TruncationUnderflow):
        PrefSeries(S([q], {(0,): 1, (1,): 1})).invert()


def test_exp_basics():
    e = V("eps", order=4)
    zero = MultiSeries.zero((e,))
    assert exp_series(zero).constant_term() == GaussRat(1)
    f = S([e], {(1,): -1})
    out = exp_series(f)
    assert coeff(out, {"eps": 2}) == GaussRat(F(1, 2))
    assert coeff(out, {"eps": 3}) == GaussRat(F(-1, 6))


def test_exp_group_law(rng):
    q, e = V("q", order=3), V("eps", order=4)
    for _ in range(20):
        f = random_series(rng, [q, e])
        f = MultiSeries(f.vars, {k: c for k, c in f.iter_terms() if any(x > 0 for x in k)})
        prod = mul(exp_series(f), exp_series(negate(f)))
        one = MultiSeries.constant(1, prod.vars)
        ok, why = equal_on_joint_validity(prod, one)
        assert ok, why


def test_exp_rejects_constant():
    q = V("q", order=4)
    with pytest.raises(NonNilpotentExponent):
        exp_series(S([q], {(0,): 1}))


def test_substitute_identity(rng):
    q = V("q", den=1, order=4)
    s = V("s", order=4)
    f = random_series(rng, [q, s])
    g = PrefSeries(MultiSeries((V("q", order=4),), {(1,): 1}))
    out = substitute(f, "q", g)
    ok, why = equal_on_joint_validity(out, f)
    assert ok, why


substitute_properties = settings(derandomize=True, database=None, max_examples=20,
                                 deadline=None)


def series_over(vars, max_terms, max_exp):
    """Series over ``vars`` with up to ``max_terms`` terms whose exponents
    run from each floor to ``max_exp``."""
    key = st.tuples(*(
        st.integers(int(v.min_exp * v.den), max_exp * v.den).map(
            lambda k, den=v.den: F(k, den))
        for v in vars))
    return st.dictionaries(key, coeffs, max_size=max_terms).map(
        lambda terms: MultiSeries(tuple(vars), terms))


Q3, S3 = V("q", order=3), V("s", order=3)


@substitute_properties
@given(series_over([Q3, S3], 3, 2), series_over([Q3, S3], 3, 2))
def test_substitute_is_homomorphism(f, g):
    t = V("t", min_exp=1, order=4)
    h = MultiSeries((t,), {(F(1),): 1, (F(2),): GaussRat(F(1, 2))})
    hp = PrefSeries(h)
    lhs = substitute(mul(f, g), "q", hp)
    rhs = substitute(f, "q", hp).mul(substitute(g, "q", hp))
    ok, why = equal_on_joint_validity(lhs, rhs)
    assert ok, why


def test_substitute_validity_cap():
    # f known to q^2 exclusive; substituting q -> t must cap t-validity at 2
    q = V("q", order=10, valid=2)
    f = S([q], {(0,): 1, (1,): 3})
    g = PrefSeries(MultiSeries((V("t", order=UNBOUNDED),), {(1,): 1}))
    out = substitute(f, "q", g)
    assert out.coeff({"t": 1}) == GaussRat(3)
    with pytest.raises(UnknownCoefficient):
        out.coeff({"t": 2})


def test_substitute_squares_leading_exponent():
    # q -> t^2 pushes the validity cap to 4
    q = V("q", order=10, valid=2)
    f = S([q], {(1,): 1})
    g = PrefSeries(MultiSeries((V("t", order=UNBOUNDED),), {(2,): 1}))
    out = substitute(f, "q", g)
    assert out.coeff({"t": 2}) == GaussRat(1)
    assert out.coeff({"t": 3}) == GaussRat(0)
    with pytest.raises(UnknownCoefficient):
        out.coeff({"t": 4})


def test_substitute_cap_counts_laurent_floor_of_remaining_var():
    # f = e^-1 + q e^-1 is known below q^2 only: its unknown q^2 e^-1 term
    # lands on e^1, so e is known below e^1, not below e^2
    q, e = V("q", valid=2), V("e", min_exp=-1)
    f = S([q, e], {(0, -1): 1, (1, -1): 1})
    g = PrefSeries(MultiSeries((V("e"),), {(1,): 1}))
    out = substitute(f, "q", g)
    assert out.coeff({"e": -1}) == GaussRat(1)
    assert out.coeff({"e": 0}) == GaussRat(1)
    with pytest.raises(UnknownCoefficient):
        out.coeff({"e": 1})
    # the same f known one order further has e^1 coefficient 1, not 0
    longer = S([V("q", valid=3), e], {(0, -1): 1, (1, -1): 1, (2, -1): 1})
    assert substitute(longer, "q", g).coeff({"e": 1}) == GaussRat(1)


T6, W6 = V("t", min_exp=1, order=6), V("w", order=6)


@substitute_properties
@given(series_over([V("q", order=8)], 5, 5), series_over([T6, W6], 3, 2))
def test_substitute_validity_soundness_random(f, g_ms):
    # truncating f's validity before substitution must never change a
    # coefficient the result still claims to know
    g_terms = dict(g_ms.iter_terms())
    g_terms[(F(1), F(0))] = GaussRat(1)
    g = PrefSeries(MultiSeries((T6, W6), g_terms))
    full = substitute(f, "q", g)
    cut = substitute(f.with_validity(q=3), "q", g)
    for exps, c in cut.body.iter_terms():
        point = {v.name: e + cut.prefactor.get(v.name, F(0))
                 for v, e in zip(cut.body.vars, exps)}
        assert full.coeff(point) == c, point


@pytest.mark.parametrize("p", [2, -2])
def test_substitute_prefseries_integer_prefactor(p):
    # q^p carried in the prefactor is substituted along with the body, and
    # the validity cap counts it: q is known below q^(4 + p), so t is too
    q, s = V("q", order=4), V("s", order=4)
    body = S([q, s], {(0, 0): 1, (1, 0): 3, (2, 1): F(1, 2)})
    f = PrefSeries(body, {"q": p, "s": F(1, 3)})
    g = PrefSeries(S([V("t", order=6)], {(0,): 1, (1,): F(1, 2)}), {"t": 1})
    out = substitute(f, "q", g)
    ref = substitute(shift_var(body, "q", p), "q", g).shift("s", F(1, 3))
    ok, why = equal_on_joint_validity(out, ref)
    assert ok, why
    assert out.coeff({"t": p, "s": F(1, 3)}) == GaussRat(1)
    with pytest.raises(UnknownCoefficient):
        out.coeff({"t": 4 + p, "s": F(1, 3)})
    # a var that sits only in the prefactor is substituted too
    only = substitute(PrefSeries(S([s], {(1,): 5}), {"q": p}), "q", g)
    ok, why = equal_on_joint_validity(only, g.pow_int(p).mul(S([s], {(1,): 5})))
    assert ok, why


def test_substitute_prefseries_fractional_prefactor_raises():
    f = PrefSeries(S([V("q", order=4)], {(1,): 1}), {"q": F(1, 2)})
    g = PrefSeries(S([V("t", order=6)], {(1,): 1}))
    with pytest.raises(FractionalExponentUnsupported):
        substitute(f, "q", g)


def test_substitute_rejects_unorderable():
    q = V("q", order=4, valid=2)
    f = S([q], {(1,): 1})
    g = PrefSeries(S([V("t", min_exp=-1, order=3)], {(-1,): 1}))
    with pytest.raises(TruncationUnderflow):
        substitute(f, "q", g)


def test_limit_and_set_one():
    q = V("q", den=2, order=4)
    r = V("r", min_exp=-2)
    f = S([q, r], {(0, 1): 2, (0, -1): 2, (F(1, 2), 0): 5, (1, 2): 1})
    lim = limit_var_zero(f, "q")
    assert coeff(lim, {"r": 1}) == GaussRat(2)
    assert not lim.has_var("q")
    one = set_var_one(f, "r")
    assert coeff(one, {"q": 0}) == GaussRat(4)
    assert coeff(one, {"q": 1}) == GaussRat(1)


def test_r_to_u_definitions():
    r = V("r", min_exp=-3)
    f = S([r], {(1,): 1, (-1,): 1})
    out = r_to_u(f)
    assert coeff(out, {"u": 1}) == GaussRat(1)
    assert coeff(out, {"u": 0}) == GaussRat(2)
    f2 = S([r], {(2,): 1, (-2,): 1})
    out2 = r_to_u(f2)
    # r^2 + r^-2 = u^2 + 4u + 2
    assert coeff(out2, {"u": 2}) == GaussRat(1)
    assert coeff(out2, {"u": 1}) == GaussRat(4)
    assert coeff(out2, {"u": 0}) == GaussRat(2)


def test_r_to_u_asymmetry_detected():
    r = V("r", min_exp=-3)
    with pytest.raises(AsymmetryError):
        r_to_u(S([r], {(1,): 1}))


def test_r_to_u_roundtrip(rng):
    # substituting u = r + 1/r - 2 back into r_to_u(f) gives f, on the whole
    # Laurent range of r
    q = V("q", order=3)
    r = V("r", min_exp=-4)
    u_of_r = PrefSeries(S([V("r", min_exp=-1)], {(1,): 1, (-1,): 1, (0,): -2}))
    for _ in range(20):
        base = random_series(rng, [q, V("r", min_exp=0, order=UNBOUNDED)], max_exp=3)
        sym_terms = {}
        for exps, c in base.iter_terms():
            eq, er = exps
            sym_terms[(eq, er)] = sym_terms.get((eq, er), GaussRat(0)) + c
            sym_terms[(eq, -er)] = sym_terms.get((eq, -er), GaussRat(0)) + c
        f = MultiSeries((q, r), sym_terms)
        back = substitute(r_to_u(f), "u", u_of_r)
        ok, why = equal_on_joint_validity(back, f)
        assert ok, why
        assert all(v.valid >= 4 for v in back.body.vars if v.name == "r")


def test_prefseries_add_aligns_prefactors():
    q = V("q", order=5)
    a = PrefSeries(S([q], {(0,): 1}), {"q": F(-1)})      # q^-1
    b = PrefSeries(S([q], {(0,): 744}))                  # constant
    out = a.add(b)
    assert out.coeff({"q": -1}) == GaussRat(1)
    assert out.coeff({"q": 0}) == GaussRat(744)


def test_prefseries_fractional_prefactor():
    q = V("q", order=3)
    eta_like = PrefSeries(S([q], {(0,): 1, (1,): -1}), {"q": F(1, 24)})
    p24 = eta_like.pow_int(24)
    assert p24.prefactor["q"] == 1
    assert p24.coeff({"q": 1}) == GaussRat(1)
    assert p24.coeff({"q": 2}) == GaussRat(-24)


def test_q_log_deriv():
    q = V("q", den=2, order=4)
    f = S([q], {(F(1, 2),): 4, (2,): 3})
    out = q_log_deriv(f, "q")
    assert coeff(out, {"q": F(1, 2)}) == GaussRat(2)
    assert coeff(out, {"q": 2}) == GaussRat(6)


def test_json_roundtrip_and_canonical_order(rng):
    q = V("q", den=8, order=3)
    r = V("r", den=4, min_exp=-2, order=UNBOUNDED)
    f = random_series(rng, [q, r], max_terms=8)
    p = PrefSeries(f, {"eps": F(-2)})
    d = to_json_dict(p)
    assert d["prefactor"] == {"eps": "-2"}
    exps = [t["exp"] for t in d["terms"]]
    assert exps == sorted(exps, key=lambda e: [F(x) for x in e])
    back = from_json_dict(json.loads(json.dumps(d)))
    ok, why = equal_on_joint_validity(back, p)
    assert ok, why


def test_unbounded_laurent_floor_is_refused():
    # a floor of -10^9 would cancel an unbounded order in a product: times
    # the exact r, r^-1 + r would come out empty with r valid to 0
    d = to_json_dict(S([V("r", min_exp=-1)], {(-1,): 1, (1,): 1}))
    d["vars"][0]["min"] = str(-10**9)
    with pytest.raises(DomainError, match="unbounded"):
        from_json_dict(d)
    d["vars"][0]["min"] = "-1000"
    f = from_json_dict(d)
    assert mul(f.body, S([V("r")], {(1,): 1})).terms == {(0,): 1, (2,): 1}


def test_unbounded_bound_is_exact():
    # every bound at or past 10**8 is stored as UNBOUNDED itself, so adding
    # a Laurent floor to it in a product or a shift gives UNBOUNDED back
    assert VarSpec("r", 1, F(-72), UNBOUNDED - 72).valid == UNBOUNDED
    assert VarSpec("q", valid=10**8).valid == UNBOUNDED
    assert VarSpec("q", valid=10**8 - 1).valid == 10**8 - 1
    f = S([V("r", min_exp=-3)], {(-3,): 1, (2,): 1})
    assert mul(f, f).spec("r").valid == UNBOUNDED
    assert shift_var(f, "r", -5).spec("r").valid == UNBOUNDED


def test_json_valid_above_order_is_refused():
    d = to_json_dict(S([V("q", order=3)], {(1,): 1}))
    assert d["vars"][0]["order"] == d["vars"][0]["valid"] == "3"
    d["vars"][0]["valid"] = "4"
    with pytest.raises(DomainError, match="exceeds order"):
        from_json_dict(d)
    d["vars"][0]["valid"] = "2"
    assert from_json_dict(d).body.spec("q").valid == 2
    # a den that is not an int is refused, not rounded or read as a string
    for den in (2.5, "2", True):
        d["vars"][0]["den"] = den
        with pytest.raises(DomainError, match="den must be an int"):
            from_json_dict(d)


def _set_var(d, key, value):
    d["vars"][0][key] = value


def _set_term(d, key, value):
    d["terms"][0][key] = value


def _drop_var(d, key):
    del d["vars"][0][key]


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: _set_var(d, "valid", True), id="valid-true"),
    pytest.param(lambda d: _set_var(d, "valid", 0.1), id="valid-float"),
    pytest.param(lambda d: _set_var(d, "valid", 2), id="valid-int"),
    pytest.param(lambda d: _set_var(d, "min", "0.5"), id="min-decimal"),
    pytest.param(lambda d: _set_var(d, "order", " 3"), id="order-space"),
    pytest.param(lambda d: _drop_var(d, "order"), id="order-missing"),
    pytest.param(lambda d: _drop_var(d, "min"), id="min-missing"),
    pytest.param(lambda d: _set_term(d, "re", 0.1), id="re-float"),
    pytest.param(lambda d: _set_term(d, "im", "1e3"), id="im-exponent"),
    pytest.param(lambda d: d["terms"][0].pop("im"), id="im-missing"),
    pytest.param(lambda d: _set_term(d, "exp", [True]), id="exp-true"),
    pytest.param(lambda d: _set_term(d, "exp", ["1/0"]), id="exp-zero-den"),
    pytest.param(lambda d: _set_term(d, "exp", "1"), id="exp-not-a-list"),
    pytest.param(lambda d: d["prefactor"].update(eps=-2), id="prefactor-int"),
    # every top-level key is required, so none of these reads as a zero series
    pytest.param(lambda d: d.clear(), id="empty-object"),
    pytest.param(lambda d: d.update(term=d.pop("terms")), id="terms-misspelled"),
    pytest.param(lambda d: d.pop("prefactor"), id="prefactor-missing"),
    # a document that is not an object
    pytest.param([], id="not-an-object-list"),
    pytest.param("terms", id="not-an-object-str"),
    # two terms with one exponent: neither may win
    pytest.param(lambda d: d["terms"].append(dict(d["terms"][0], re="3")), id="exp-twice"),
])
def test_json_rationals_must_be_rational_strings(edit):
    d = to_json_dict(PrefSeries(S([V("q", order=3)], {(1,): 2}), {"eps": F(-2)}))
    back = from_json_dict(json.loads(json.dumps(d)))
    assert back.body.terms == {(1,): GaussRat(2)} and back.prefactor == {"eps": -2}
    if callable(edit):
        edit(d)
    else:
        d = edit
    with pytest.raises(DomainError):
        from_json_dict(d)


def test_simplify_dens():
    q = V("q", den=8, order=3)
    f = S([q], {(F(1, 2),): 1, (1,): 2})
    g = f.simplify_dens()
    assert g.spec("q").den == 2
    assert coeff(g, {"q": F(1, 2)}) == GaussRat(1)


def test_cached_series_are_read_only():
    d = delta10(3, 3)
    key = tuple({"q": 1, "s": 1, "u": 1}[v.name] * v.den for v in d.fourier_u.vars)
    with pytest.raises(TypeError):
        d.fourier_u.terms[key] = GaussRat(999)
    with pytest.raises(TypeError):
        delta_cusp(4).prefactor["q"] = F(2)
    assert coeff(delta10(3, 3).fourier_u, {"q": 1, "s": 1, "u": 1}) == GaussRat(1)
    assert delta_cusp(4).prefactor["q"] == 1


def test_cached_series_attributes_cannot_be_reassigned():
    body = delta_cusp(4).body
    mul(body, body)  # fills the kernel's private view slot
    for obj, name in [(delta_cusp(4), "body"), (delta_cusp(4), "prefactor"),
                      (body, "vars"), (body, "terms"), (body, "_views")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert delta_cusp(4).body is body
    assert delta_cusp(4).body.terms and delta_cusp(4).prefactor["q"] == 1


@pytest.mark.parametrize("vars, key, c", [
    pytest.param([V("q")], (1, 2), 3, id="too-long"),
    pytest.param([V("q"), V("s")], (1,), 3, id="too-short"),
    # the length is checked before a zero coefficient is skipped
    pytest.param([V("q")], (1, 2), 0, id="too-long-zero"),
])
def test_exponent_keys_must_match_the_variables(vars, key, c):
    with pytest.raises(DomainError, match="does not match"):
        S(vars, {key: c})
    d = to_json_dict(S(vars, {(0,) * len(vars): 1}))
    d["terms"][0]["exp"] = [str(k) for k in key]
    d["terms"][0]["re"] = str(c)
    with pytest.raises(DomainError, match="does not match"):
        from_json_dict(d)


def test_exponent_given_twice_is_refused():
    with pytest.raises(DomainError, match="given twice"):
        MultiSeries((V("q", den=2, order=3),), {("1/2",): 1, (F(1, 2),): 2})


def test_rename_onto_existing_variable_is_refused():
    f = S([V("q1", order=3), V("q2", order=3)], {(1, 0): 1, (0, 1): 2})
    with pytest.raises(DomainError, match="duplicate"):
        f.rename_vars({"q1": "q2"})


@pytest.mark.parametrize("build", [
    pytest.param(lambda: S([V("q"), V("q")], {}), id="init"),
    pytest.param(lambda: MultiSeries.zero((V("q"), V("q", order=2))), id="zero"),
    pytest.param(lambda: r_to_u(S([V("r", min_exp=-1), V("u")], {(-1, 0): 1, (1, 0): 1})),
                 id="r_to_u-with-u"),
])
def test_new_variable_names_must_be_distinct(build):
    # the constructors that introduce names check them; the internal _of
    # trusts names taken from operands
    with pytest.raises(DomainError, match="duplicate"):
        build()
