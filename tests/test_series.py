import copy
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

import twoloop
from twoloop.errors import (
    AsymmetryError,
    DomainError,
    InternalError,
    NonNilpotentExponent,
    NotAUnit,
    TruncationUnderflow,
    UnknownCoefficient,
)
from twoloop.series import (
    UNBOUNDED,
    MultiSeries,
    PrefSeries,
    VarSpec,
    add,
    assert_equal_on_joint_validity,
    coeff,
    equal_on_joint_validity,
    exp_series,
    from_json_dict,
    mul,
    negate,
    pow_int,
    q_log_deriv,
    r_to_u,
    scalar_mul,
    shift_var,
    substitute,
    to_json_dict,
)

from twoloop import elliptic, series, sewing, siegel
from twoloop.elliptic import dedekind_eta, delta_cusp
from twoloop.sewing import period_matrix
from twoloop.siegel import delta10, psi4_theta_candidate

from conftest import V, limit_var_zero, random_series, random_unit, set_var_one


F = Fraction


def S(vars, terms):
    return MultiSeries(tuple(vars), {tuple(map(F, k)): v for k, v in terms.items()})


coeffs = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3]))


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
    assert coeff(out, {"q": 1}) == 2
    assert coeff(out, {"q": 0}) == 0
    assert len(out) == 1


def test_add_drops_terms_beyond_joint_validity():
    a = S([V("q", order=4), V("s", order=3)], {(0, 0): 1, (3, 0): 5, (0, 2): 7})
    b = S([V("q", order=2)], {(1,): 2})
    out = add(a, b)
    assert [(v.name, v.valid) for v in out.vars] == [("q", 2), ("s", 3)]
    assert dict(out.terms) == {(0, 0): 1, (1, 0): 2, (0, 2): 7}
    assert dict(add(b, b).terms) == {(1,): 4}


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
    assert coeff(out, {"q": 1, "s": 1}) == 576
    assert coeff(out, {"q": 1}) == -24
    assert coeff(out, {"s": 1}) == -24
    assert coeff(out, {}) == 1


def _naive_product(a, b, vars):
    # the operands may hold different variable sets: align exponents by name
    terms = {}
    for k1, c1 in a.iter_terms():
        e1 = dict(zip((v.name for v in a.vars), k1))
        for k2, c2 in b.iter_terms():
            e2 = dict(zip((v.name for v in b.vars), k2))
            key = tuple(e1.get(v.name, 0) + e2.get(v.name, 0) for v in vars)
            terms[key] = terms.get(key, 0) + c1 * c2
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
            terms[key] = terms.get(key, 0) + c
    return MultiSeries(vars, terms)


def _ordered_product(a, b, vars):
    # the kernel's terms in its order, ascending key order: every left term
    # against the right terms in sorted key order (up to the first that
    # overflows the first variable), pairs outside the validity box skipped
    ta, tb = a._aligned_to(vars), sorted(b._aligned_to(vars).items())
    kmaxes = [v.kmax() for v in vars]
    terms = {}
    for k1, c1 in ta.items():
        for k2, c2 in tb:
            key = tuple(map(int.__add__, k1, k2))
            if key[0] > kmaxes[0]:
                break
            if all(map(int.__le__, key, kmaxes)):
                terms[key] = terms.get(key, 0) + c1 * c2
    return sorted((k, c) for k, c in terms.items() if c)


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
    # the period_matrix shape: q1 and q2 fit, but every eps-exponent is 3
    # and every product lands at eps^6 > kmax = 4
    kernel_case("one-var-beyond-box", [V("q1", order=4), V("eps", order=5)],
                [V("q2", order=4), V("eps", order=5)], floor={"eps": 3}),
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


def test_mul_beyond_the_box_packs_nothing():
    # lowest exponents that sum past kmax in one variable (eps: 2 + 3 > 4)
    # end the product before either operand's terms are packed or indexed
    a = S([V("q1", order=4), V("eps", order=5)], {(0, 2): 1, (1, 3): 2})
    b = S([V("q2", order=4), V("eps", order=5)], {(0, 3): 3, (2, 4): 1})
    out = mul(a, b)
    assert not out.terms
    assert out.vars == _reference_merge(a.vars, b.vars, mul)
    layout = tuple((v.name, v.den) for v in out.vars)
    for s in (a, b):
        view = s._views[layout]
        assert not view._right


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


@pytest.mark.parametrize("build, count", [
    pytest.param(lambda: period_matrix(8, 6), 472, id="period_matrix-8-6"),
    # three ladders of three squarings (Theta[1/2, 0; 0]^8 is a mirror) and
    # the weight-4 reference data's one product
    pytest.param(lambda: psi4_theta_candidate(4, 4), 10, id="psi4_theta_candidate-4-4"),
])
def test_mul_keeps_term_order_on_library_products(build, count, monkeypatch):
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
    assert len(products) == count
    for a, b, out in products:
        assert list(out.terms.items()) == _ordered_product(a, b, out.vars)


def _grid_series(draw, vars, far):
    """A nonempty series whose exponents in each variable lie on one grid
    ``offset + step*t``: steps 1, 2, 4 or 8, offsets below 0 where the floor
    allows, and sometimes one exponent only (no gap, gcd 0).  With ``far``,
    two more terms lie 1000 steps and one out in the last (unbounded)
    variable, so that its grid steps by 1 over some thousand exponents."""
    grids = []
    for v in vars:
        step = draw(st.sampled_from([1, 2, 4, 8]))
        offset = draw(st.integers(v.kmin(), v.kmin() + 4))
        grids.append((offset, step, draw(st.sampled_from([0, 3]))))
    key = st.tuples(*(st.integers(0, tmax).map(lambda t, o=o, s=s: o + s * t)
                      for o, s, tmax in grids))
    terms = draw(st.dictionaries(key, coeffs.filter(bool), min_size=1, max_size=6))
    if far:
        offset, step, _ = grids[-1]
        for k in (offset + 1000 * step, offset + 1000 * step + 1):
            terms[tuple(o for o, _, _ in grids[:-1]) + (k,)] = 1
    return MultiSeries(vars, {tuple(F(k, v.den) for k, v in zip(key, vars)): c
                              for key, c in terms.items()})


def _dense_by_rule(a, b, vars):
    # the grid of a product, as its rule is stated: per variable from the
    # sum of the lowest held exponents, by the gcd of both operands' gaps,
    # to the lower of kmax and the sum of the highest; the dense list is
    # used when the grid's volume is at most the pair count
    ta, tb = a._aligned_to(vars), b._aligned_to(vars)
    volume = 1
    for i, v in enumerate(vars):
        ha, hb = {k[i] for k in ta}, {k[i] for k in tb}
        step = gcd(*(k - min(ha) for k in ha), *(k - min(hb) for k in hb)) or 1
        volume *= (min(v.kmax(), max(ha) + max(hb)) - min(ha) - min(hb)) // step + 1
    return volume <= len(a.terms) * len(b.terms)


@pytest.mark.parametrize("far", [False, True], ids=["grid", "far-term"])
@kernel_properties
@given(data=st.data())
def test_mul_on_exponent_grids_matches_naive_in_ascending_order(far, data):
    # both accumulators give the naive product in ascending key order: the
    # dense list where the grid is small next to the pair count, else the
    # dict (always with the far terms)
    # q keeps every drawn exponent (at most 4 + 8*3 < 32) and cuts their sums
    q, r = V("q", den=2, order=16), V("r", min_exp=-8)
    a = _grid_series(data.draw, (q, r), far)
    b = a if data.draw(st.booleans()) else _grid_series(data.draw, (q, r), False)
    dense = []
    product = series.product
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "product", lambda *ranges: dense.append(1) or product(*ranges))
        out = mul(a, b)
    assert list(out.terms.items()) == sorted(_naive_product(a, b, out.vars).terms.items())
    if out.terms:
        assert bool(dense) == _dense_by_rule(a, b, out.vars)
        assert not (far and dense)


def test_mul_of_a_gapped_square_keeps_to_the_dict():
    # (1 + x + x^(10^6))^2 spans two million grid steps for 9 pairs
    x = V("x")
    a = S([x], {(0,): 1, (1,): 1, (10**6,): 1})
    dense = []
    product = series.product
    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "product", lambda *ranges: dense.append(1) or product(*ranges))
            out = mul(a, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not dense and peak < 1 << 20
    assert dict(out.terms) == {(0,): 1, (1,): 2, (2,): 1, (10**6,): 2,
                               (10**6 + 1,): 2, (2 * 10**6,): 1}
    assert list(out.terms) == sorted(out.terms)


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
        ai = MultiSeries(a.vars, {k: c.numerator for k, c in a.iter_terms()})
        bi = MultiSeries(b.vars, {k: c.numerator for k, c in b.iter_terms()})
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
    assert coeff(out, {"q": 2}) == 5
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
    assert coeff(f, {"q": 0}) == 0  # known zero
    with pytest.raises(UnknownCoefficient):
        coeff(f, {"q": 2})  # unknown, despite nothing stored
    # a name the series lacks, misspelt or from the other form, is no zero
    d = delta10(3, 3)
    with pytest.raises(DomainError):
        coeff(d.fourier_u, {"q": 1, "S": 1, "u": 1})
    with pytest.raises(DomainError):
        coeff(d.fourier, {"q": 1, "s": 1, "u": 1})


def test_prefseries_coeff_reads_prefactor_variables_the_body_lacks():
    # body constant in t: only t^(1/2), the prefactor itself, is nonzero
    f = PrefSeries(S([V("q", valid=2)], {(1,): 3}), {"t": F(1, 2)})
    assert f.coeff({"q": 1, "t": F(1, 2)}) == 3
    assert f.coeff({"q": 1, "t": 1}) == 0
    with pytest.raises(UnknownCoefficient):
        f.coeff({"q": 2, "t": 1})  # beyond validity in q, whatever t reads
    with pytest.raises(DomainError):
        f.coeff({"q": 1, "s": 0})


@pytest.mark.parametrize("zero_first", [True, False], ids=["zero+one", "one+zero"])
def test_prefseries_add_keeps_a_zero_operands_validity(zero_first):
    # a zero known only below q^2 says nothing at q^2, so neither does the sum
    zero = PrefSeries(MultiSeries.zero((VarSpec("q", valid=2),)))
    one = PrefSeries(MultiSeries.constant(1, (VarSpec("q"),)))
    out = zero.add(one) if zero_first else one.add(zero)
    assert out.body.vars == (VarSpec("q", valid=2),)
    assert out.coeff({"q": 0}) == 1
    with pytest.raises(UnknownCoefficient):
        out.coeff({"q": 2})


def test_q_log_deriv_without_the_variable_is_zero():
    f = PrefSeries(S([V("s", valid=3)], {(0,): 2, (1,): 5}), {"q": F(1, 24)})
    out = f.q_log_deriv("q")
    assert out.prefactor == {"q": F(1, 24)}
    assert out.body.vars == f.body.vars
    assert out.coeff({"q": F(1, 24), "s": 1}) == F(5, 24)
    assert q_log_deriv(f.body, "q").is_zero()


def test_mismatch_report_names_the_first_differing_coefficient():
    # both valid below q^3 under a q^(1/24) prefactor; the q^1 body
    # coefficients differ, the q^3 ones lie beyond the joint validity
    vars = (VarSpec("q", valid=3),)
    a = PrefSeries(MultiSeries(vars, {(0,): 1, (1,): 2}), {"q": F(1, 24)})
    b = PrefSeries(MultiSeries(vars, {(0,): 1, (1,): 3}), {"q": F(1, 24)})
    assert equal_on_joint_validity(a, b) == (False, "q^25/24: 2 != 3")
    wide = (VarSpec("q", valid=4),)
    c = PrefSeries(MultiSeries(wide, {(0,): 1, (1,): 2, (3,): 7}), {"q": F(1, 24)})
    assert equal_on_joint_validity(a, c) == (True, None)
    # the library's self-checks raise it as one of its own errors
    with pytest.raises(InternalError, match=r"routes at q\^25/24: 2 != 3"):
        assert_equal_on_joint_validity(a, b, "routes")


def test_fractions_print_as_p_over_q():
    # repr(Fraction(5, 2)) is "Fraction(5, 2)": reports and reprs use p/q
    vars = (VarSpec("q", valid=3),)
    a = MultiSeries(vars, {(0,): 1, (1,): F(5, 2)})
    b = MultiSeries(vars, {(0,): 1, (1,): F(-1, 3)})
    assert equal_on_joint_validity(a, b) == (False, "q^1: 5/2 != -1/3")
    assert repr(a) == "<MultiSeries 1 + 5/2*q^1>"


@pytest.mark.parametrize("bad", [0.5, 2.0, 1j, complex(1, 0), "1", None],
                         ids=["float", "integral-float", "complex", "real-complex", "str", "none"])
def test_coefficients_must_be_ints_or_fractions(bad):
    q = VarSpec("q", valid=3)
    one = MultiSeries((q,), {(1,): 1})
    with pytest.raises(TypeError):
        MultiSeries((q,), {(1,): bad})
    with pytest.raises(TypeError):
        MultiSeries.constant(bad, (q,))
    with pytest.raises(TypeError):
        series.scalar_mul(bad, one)
    with pytest.raises(TypeError):
        PrefSeries.coerce(bad)
    with pytest.raises(TypeError):
        PrefSeries(one).scalar(bad)


def test_coefficient_arithmetic_stays_exact():
    # a product term the common scale divides is an int, any other a Fraction
    q = VarSpec("q", valid=4)
    half = MultiSeries((q,), {(1,): F(1, 2), (2,): F(1, 3)})
    out = mul(half, MultiSeries((q,), {(1,): 2}))
    assert type(coeff(out, {"q": 2})) is int and coeff(out, {"q": 2}) == 1
    assert type(coeff(out, {"q": 3})) is F and coeff(out, {"q": 3}) == F(2, 3)
    # inverting an int constant term divides as a Fraction, never a float
    inv = PrefSeries(MultiSeries((q,), {(0,): 2, (1,): 1})).invert()
    assert len(inv.body) == 4 and all(type(c) in (int, F) for c in inv.body.terms.values())
    assert inv.coeff({"q": 0}) == F(1, 2) and inv.coeff({"q": 3}) == F(-1, 16)


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


def _geometric_inverse(f):
    # sum x^k / c0 with x = 1 - body/c0, one power at a time until a power
    # truncates to zero; its terms in ascending key order
    body = f.body
    c0 = body.constant_term()
    x = add(MultiSeries.constant(1, body.vars), scalar_mul(-F(1, c0), body))
    total = power = MultiSeries.constant(1, body.vars)
    while not (power := mul(power, x)).is_zero():
        total = add(total, power)
    total = scalar_mul(F(1, c0), total)
    return (PrefSeries(total, {n: -e for n, e in f.prefactor.items()}),
            sorted(total.terms.items()))


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda n=n: elliptic.dedekind_eta(n), id=f"eta-{n}") for n in (8, 40, 81)),
    *(pytest.param(lambda n=n: elliptic.delta_cusp(n), id=f"delta-{n}") for n in (8, 40, 81)),
    # r = exp(w12) in (q1, q2, eps)
    pytest.param(lambda: PrefSeries(exp_series(period_matrix(4, 5).w12)), id="rhat-4-5"),
])
def test_invert_matches_the_geometric_series(build):
    # the product of 1 + x^(2^i) is the sum of x^k: the same variables and
    # terms, in ascending key order, and a unit times its inverse is 1
    f = build()
    inv = f.invert()
    ref, ordered = _geometric_inverse(f)
    assert inv.prefactor == ref.prefactor
    assert inv.body.vars == ref.body.vars
    assert list(inv.body.terms.items()) == ordered
    one = PrefSeries(MultiSeries.constant(1, f.body.vars))
    ok, why = equal_on_joint_validity(f.mul(inv), one)
    assert ok, why


def test_invert_squares_instead_of_summing_powers(monkeypatch):
    # Delta^-1 to q^81: x is squared 7 times, the last square truncating
    # to zero, and 6 of the partial products need forming
    calls = []

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    delta = elliptic.delta_cusp(81)
    monkeypatch.setattr(series, "mul", counted)
    delta.invert()
    assert len(calls) == 13


def test_fourier_params_keep_their_canonical_json():
    params = sewing.fourier_params(period_matrix(12, 6))
    data = json.dumps({name: to_json_dict(getattr(params, name))
                       for name in ("qhat", "shat", "uhat")}, sort_keys=True)
    assert hashlib.sha256(data.encode()).hexdigest() == (
        "dc615067c124bb2df9b3ed6a9fa9f6c38948e1780c9045a22fa959e74a92de7e")


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
    assert exp_series(zero).constant_term() == 1
    f = S([e], {(1,): -1})
    out = exp_series(f)
    assert coeff(out, {"eps": 2}) == F(1, 2)
    assert coeff(out, {"eps": 3}) == F(-1, 6)


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
    h = MultiSeries((t,), {(F(1),): 1, (F(2),): F(1, 2)})
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
    assert out.coeff({"t": 1}) == 3
    with pytest.raises(UnknownCoefficient):
        out.coeff({"t": 2})


def test_substitute_squares_leading_exponent():
    # q -> t^2 pushes the validity cap to 4
    q = V("q", order=10, valid=2)
    f = S([q], {(1,): 1})
    g = PrefSeries(MultiSeries((V("t", order=UNBOUNDED),), {(2,): 1}))
    out = substitute(f, "q", g)
    assert out.coeff({"t": 2}) == 1
    assert out.coeff({"t": 3}) == 0
    with pytest.raises(UnknownCoefficient):
        out.coeff({"t": 4})


def test_substitute_cap_counts_laurent_floor_of_remaining_var():
    # f = e^-1 + q e^-1 is known below q^2 only: its unknown q^2 e^-1 term
    # lands on e^1, so e is known below e^1, not below e^2
    q, e = V("q", valid=2), V("e", min_exp=-1)
    f = S([q, e], {(0, -1): 1, (1, -1): 1})
    g = PrefSeries(MultiSeries((V("e"),), {(1,): 1}))
    out = substitute(f, "q", g)
    assert out.coeff({"e": -1}) == 1
    assert out.coeff({"e": 0}) == 1
    with pytest.raises(UnknownCoefficient):
        out.coeff({"e": 1})
    # the same f known one order further has e^1 coefficient 1, not 0
    longer = S([V("q", valid=3), e], {(0, -1): 1, (1, -1): 1, (2, -1): 1})
    assert substitute(longer, "q", g).coeff({"e": 1}) == 1


T6, W6 = V("t", min_exp=1, order=6), V("w", order=6)


@substitute_properties
@given(series_over([V("q", order=8)], 5, 5), series_over([T6, W6], 3, 2))
def test_substitute_validity_soundness_random(f, g_ms):
    # truncating f's validity before substitution must never change a
    # coefficient the result still claims to know
    g_terms = dict(g_ms.iter_terms())
    g_terms[(F(1), F(0))] = 1
    g = PrefSeries(MultiSeries((T6, W6), g_terms))
    full = substitute(f, "q", g)
    cut = substitute(f.with_validity(q=3), "q", g)
    for exps, c in cut.body.iter_terms():
        point = {v.name: e + cut.prefactor.get(v.name, F(0))
                 for v, e in zip(cut.body.vars, exps)}
        assert full.coeff(point) == c, point


@pytest.mark.parametrize("f, ahead", [
    pytest.param(S([V("q", min_exp=-1, order=4)], {(-1,): 1, (1,): 3}), None,
                 id="negative-power"),
    pytest.param(PrefSeries(S([V("q", order=4)], {(0,): 1, (1,): 3}), {"q": 2}), None,
                 id="prefactor"),
    pytest.param(PrefSeries(S([V("q", order=4), V("s")], {(1, 1): 1}), {"s": 1}),
                 ({"s": {"t": F(1)}}, {"t": F(4)}), id="prefactor-later-step"),
])
def test_substitute_refuses_what_the_body_cannot_carry(f, ahead):
    # the variable is substituted at nonnegative integer powers of the body
    # only, and a step told what follows reads the later powers off the body
    g = PrefSeries(S([V("t", order=6)], {(0,): 1, (1,): F(1, 2)}), {"t": 1})
    with pytest.raises(DomainError):
        substitute(f, "q", g, ahead)


def test_substitute_rejects_unorderable():
    q = V("q", order=4, valid=2)
    f = S([q], {(1,): 1})
    g = PrefSeries(S([V("t", min_exp=-1, order=3)], {(-1,): 1}))
    with pytest.raises(TruncationUnderflow):
        substitute(f, "q", g)


@pytest.mark.parametrize("g", [
    pytest.param(PrefSeries(S([V("t", order=3), V("s")], {(1, 0): 1, (1, 1): 2})), id="body"),
    pytest.param(PrefSeries(S([V("t", order=3)], {(0,): 1}), {"s": F(1)}), id="prefactor"),
])
def test_substitute_refuses_a_series_holding_a_later_variable(g):
    # the raise reads a product term's s-power as the coefficient's: a g
    # holding s would move it
    f = S([V("q", order=3), V("s")], {(1, 1): 1, (2, 0): 3})
    ahead = {"s": {"t": F(1)}}, {"t": F(4)}
    with pytest.raises(DomainError, match="later step"):
        substitute(f, "q", g, ahead)
    assert substitute(f, "q", PrefSeries(S([V("t", order=3)], {(1,): 1})), ahead).body.terms


def test_add_moves_a_body_onto_the_finer_grid_of_its_prefactor():
    # eta + eta^2: the common prefactor is q^(1/24), so eta^2's body moves
    # up by q^(1/24), which shift_var puts on the grid of q^(1/24)
    eta = dedekind_eta(4)
    total = eta.add(eta.pow_int(2))

    def absolute(s):
        shift = s.prefactor.get("q", 0)
        return {e + shift: c for (e,), c in s.body.iter_terms()}

    want = absolute(eta)
    for e, c in absolute(eta.pow_int(2)).items():
        want[e] = want.get(e, 0) + c
    bound = total.body.spec("q").valid + total.prefactor["q"]
    assert bound == 4 + F(1, 24)
    assert absolute(total) == {e: c for e, c in want.items() if c and e < bound}
    assert total.body.spec("q").den == 24


def test_limit_and_set_one():
    q = V("q", den=2, order=4)
    r = V("r", min_exp=-2)
    f = S([q, r], {(0, 1): 2, (0, -1): 2, (F(1, 2), 0): 5, (1, 2): 1})
    lim = limit_var_zero(f, "q")
    assert coeff(lim, {"r": 1}) == 2
    assert not lim.has_var("q")
    one = set_var_one(f, "r")
    assert coeff(one, {"q": 0}) == 4
    assert coeff(one, {"q": 1}) == 1


def test_r_to_u_definitions():
    r = V("r", min_exp=-3)
    f = S([r], {(1,): 1, (-1,): 1})
    out = r_to_u(f)
    assert coeff(out, {"u": 1}) == 1
    assert coeff(out, {"u": 0}) == 2
    f2 = S([r], {(2,): 1, (-2,): 1})
    out2 = r_to_u(f2)
    # r^2 + r^-2 = u^2 + 4u + 2
    assert coeff(out2, {"u": 2}) == 1
    assert coeff(out2, {"u": 1}) == 4
    assert coeff(out2, {"u": 0}) == 2


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
            sym_terms[(eq, er)] = sym_terms.get((eq, er), 0) + c
            sym_terms[(eq, -er)] = sym_terms.get((eq, -er), 0) + c
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
    assert out.coeff({"q": -1}) == 1
    assert out.coeff({"q": 0}) == 744


_HASHSEED_PROBE = """
import json
from twoloop.series import MultiSeries, PrefSeries
out = []
for pa, pb in (({"q1": 1, "q2": 2, "eps": 1}, {"eps": 3, "q2": 1, "q1": 2}),
               ({"q1": 1, "q2": 2, "eps": 1}, {})):
    s = PrefSeries(MultiSeries.constant(2), pa).add(PrefSeries(MultiSeries.constant(3), pb))
    out.append([list(s.prefactor), [v.name for v in s.body.vars]])
print(json.dumps(out))
"""


def test_prefseries_add_orders_names_without_string_hashing():
    # the common prefactor takes the first operand's names in order, then
    # the second's new ones, and the excess goes into each body in that
    # order: the same under every PYTHONHASHSEED
    src = str(Path(twoloop.__file__).parents[1])
    seen = set()
    for seed in ("0", "1", "2", "3", "4", "5"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", _HASHSEED_PROBE], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        seen.add(proc.stdout)
    assert len(seen) == 1, seen
    assert json.loads(seen.pop()) == [[["q1", "q2", "eps"], ["q2", "q1", "eps"]],
                                      [[], ["q1", "q2", "eps"]]]


def test_prefseries_fractional_prefactor():
    q = V("q", order=3)
    eta_like = PrefSeries(S([q], {(0,): 1, (1,): -1}), {"q": F(1, 24)})
    p24 = eta_like.pow_int(24)
    assert p24.prefactor["q"] == 1
    assert p24.coeff({"q": 1}) == 1
    assert p24.coeff({"q": 2}) == -24


def test_q_log_deriv():
    q = V("q", den=2, order=4)
    f = S([q], {(F(1, 2),): 4, (2,): 3})
    out = q_log_deriv(f, "q")
    assert coeff(out, {"q": F(1, 2)}) == 2
    assert coeff(out, {"q": 2}) == 6


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


@kernel_properties
@given(data=st.data())
def test_adding_a_variable_matches_the_product_route(data):
    # shift_var and cap_absolute_valid give a series a variable it lacks by
    # zero-extending its keys: the same variables and terms as multiplying
    # by the constant 1 on that variable.  Each route keeps its own term
    # order (term order feeds the float sums of verify.eval_series):
    # zero-extension the input's, the product route ascending key order
    q, r = V("q", den=2, min_exp=-1, order=3), V("r", den=3, min_exp=-2, valid=F(5, 3))
    vars = data.draw(st.sampled_from([(), (q,), (q, r)]))
    a = (MultiSeries.zero(vars) if data.draw(st.booleans())
         else data.draw(box_series(vars, {}, max_terms=8)))
    den = data.draw(st.sampled_from([1, 2, 3]))
    amount = F(data.draw(st.integers(-4, 4).filter(bool)), den)

    def via_product(s, den):
        return mul(s, MultiSeries.constant(1, (VarSpec("eps", den),)))

    def assert_same_terms(direct, reference):
        assert direct.vars == reference.vars
        assert direct.terms == reference.terms
        # eps is the new last variable; either every term survives or none
        assert [k[:-1] for k in direct.terms] == (list(a.terms) if direct.terms else [])
        assert list(reference.terms) == sorted(reference.terms)

    assert_same_terms(shift_var(a, "eps", amount),
                      shift_var(via_product(a, amount.denominator), "eps", amount))
    bound, pref = F(data.draw(st.integers(-3, 8)), den), {"eps": amount, "q": F(1, 2)}
    direct = PrefSeries(a, pref).cap_absolute_valid("eps", bound)
    reference = PrefSeries(via_product(a, 1), pref).cap_absolute_valid("eps", bound)
    assert direct.prefactor == reference.prefactor
    assert_same_terms(direct.body, reference.body)


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
    # "im" is always "0": a coefficient is a rational
    pytest.param(lambda d: _set_term(d, "im", "1"), id="im-nonzero"),
    pytest.param(lambda d: _set_term(d, "im", "-1/2"), id="im-fraction"),
    pytest.param(lambda d: _set_term(d, "im", 0), id="im-int"),
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
    assert back.body.terms == {(1,): 2} and back.prefactor == {"eps": -2}
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
    assert coeff(g, {"q": F(1, 2)}) == 1


def test_cached_series_are_read_only():
    d = delta10(3, 3)
    key = tuple({"q": 1, "s": 1, "u": 1}[v.name] * v.den for v in d.fourier_u.vars)
    with pytest.raises(TypeError):
        d.fourier_u.terms[key] = 999
    with pytest.raises(TypeError):
        delta_cusp(4).prefactor["q"] = F(2)
    assert coeff(delta10(3, 3).fourier_u, {"q": 1, "s": 1, "u": 1}) == 1
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
