import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from twoloop.elliptic import eisenstein
from twoloop.errors import DomainError, InternalError, NotPositiveDefinite, OddLattice
from twoloop.lattice import (
    _BLOCK_ROWS,
    Lattice,
    _pair_histogram,
    _representatives,
    builtin_lattice,
    enumerate_shells,
    theta_g1,
    theta_g2,
)
from twoloop.partition import t1_selfdual
from twoloop.series import (
    GaussRat,
    coeff,
    equal_on_joint_validity,
    limit_var_zero,
    mul,
    r_to_u,
    set_var_one,
)

from conftest import assert_refines

F = Fraction


def test_e8_gram_is_valid():
    e8 = builtin_lattice("E8")
    assert e8.is_even
    assert e8.is_unimodular
    assert e8.determinant() == 1


def test_e8_shell_counts():
    table = enumerate_shells(builtin_lattice("E8"), 6)
    assert table.count(0) == 1
    assert table.count(2) == 240
    assert table.count(4) == 2160
    assert table.count(6) == 6720
    # counts for positive norms are even (alpha -> -alpha symmetry)
    for norm, vecs in table.shells.items():
        if norm:
            assert len(vecs) % 2 == 0


def test_enumerate_rejects_indefinite():
    # indefinite, and semidefinite with leading minor M_2 or M_3 = 0: refused
    # when the lattice is built, before any enumeration
    for gram in (((2, 3), (3, 2)), ((2, 2), (2, 2)), ((2, -1, 1), (-1, 2, 1), (1, 1, 2))):
        with pytest.raises(NotPositiveDefinite):
            Lattice("bad", len(gram), gram)


@pytest.mark.parametrize("rank, gram", [
    pytest.param(1, ((F(5, 2),),), id="fraction-entry"),
    pytest.param(1, ((2.0,),), id="float-entry"),
    pytest.param(2, ((2, True), (True, 2)), id="bool-entry"),
    pytest.param(2.0, ((2, -1), (-1, 2)), id="float-rank"),
])
def test_lattice_construction_refuses_non_integers(rank, gram):
    # Fraction(5, 2) was once read as determinant 2, its vectors +-1 filed
    # under norm 2
    with pytest.raises(DomainError, match="must be integers"):
        Lattice("bad", rank, gram)


def test_lattice_from_list_rows_is_the_tuple_lattice():
    # rows are stored as tuples: a list-built lattice equals and hashes like
    # the tuple-built one, so the enumerate_shells cache takes it
    lists = Lattice("A2", 2, [[2, -1], [-1, 2]])
    tuples = Lattice("A2", 2, ((2, -1), (-1, 2)))
    assert lists == tuples and hash(lists) == hash(tuples)
    assert enumerate_shells(lists, 2).count(2) == 6


def test_theta_g1_e8_equals_e4():
    th = theta_g1(builtin_lattice("E8"), 4)
    e4 = eisenstein(4, 4).body
    ok, why = equal_on_joint_validity(th, e4)
    assert ok, why


def test_theta_g1_rejects_odd():
    odd = Lattice("Z", 1, ((1,),))
    with pytest.raises(OddLattice):
        theta_g1(odd, 3)


def test_theta_g1_direct_sum_factorizes():
    e8 = builtin_lattice("E8")
    th1 = theta_g1(e8, 3)
    th2 = theta_g1(e8.direct_sum(e8), 3)
    ok, why = equal_on_joint_validity(th2, mul(th1, th1))
    assert ok, why


def test_theta_g2_e8_key_coefficients():
    th = theta_g2(builtin_lattice("E8"), 3, 3)
    assert coeff(th, {"q": 0, "r": 0, "s": 0}) == GaussRat(1)
    # alpha = beta over the 240 roots
    assert coeff(th, {"q": 1, "r": 2, "s": 1}) == GaussRat(240)
    u = r_to_u(th)
    assert coeff(u, {"q": 1, "s": 1, "u": 1}) == GaussRat(14400)  # 240^2/4
    assert coeff(u, {"q": 1, "s": 1, "u": 2}) == GaussRat(240)


def test_theta_g2_support_condition():
    th = theta_g2(builtin_lattice("E8"), 3, 3)
    for (a, b, c), coefficient in th.iter_terms():
        assert a >= 0 and c >= 0
        assert b * b <= 4 * a * c, (a, b, c)


def test_theta_g2_degenerations():
    e8 = builtin_lattice("E8")
    th = theta_g2(e8, 3, 3)
    g1 = theta_g1(e8, 3)
    lim = limit_var_zero(th, "q")
    ok, why = equal_on_joint_validity(lim, g1.rename_vars({"q": "s"}))
    assert ok, why
    at_one = set_var_one(th, "r")
    prod = mul(g1, g1.rename_vars({"q": "s"}))
    ok, why = equal_on_joint_validity(at_one, prod)
    assert ok, why


def _unique_histogram(gram, va, vb):
    vals, counts = np.unique(va @ gram @ vb.T, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}


def test_pair_histogram_matches_unique():
    e8 = builtin_lattice("E8")
    table = enumerate_shells(e8, 4)
    gram = np.array(e8.gram, dtype=np.int64)
    rows = {n: np.array(v, dtype=np.int64) for n, v in table.shells.items()}
    # 240 and 2160 rows: more than one block, and not a whole number of blocks
    assert len(rows[2]) > _BLOCK_ROWS and len(rows[4]) > _BLOCK_ROWS
    assert len(rows[2]) % _BLOCK_ROWS and len(rows[4]) % _BLOCK_ROWS
    for na, nc in [(0, 4), (2, 2), (2, 4), (4, 2), (4, 4)]:
        va, vb = rows[na], rows[nc]
        assert _pair_histogram(gram, va, vb) == _unique_histogram(gram, va, vb), (na, nc)


def test_pair_histogram_refuses_inexact_products():
    # bound = 2**31 * 2**30: float64 could round the products
    gram = np.array([[2]], dtype=np.int64)
    big = np.array([[2**30]], dtype=np.int64)
    with pytest.raises(DomainError):
        _pair_histogram(gram, big, big)


_EVEN_GRAMS = {
    "E8": builtin_lattice("E8").gram,
    "A2": ((2, -1), (-1, 2)),
    "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    # even and not unimodular (determinant 7), with no vector of norm 6
    "det7": ((2, 1), (1, 4)),
}


@pytest.mark.parametrize("q_order,s_order", [(3, 2), (2, 3)])
@pytest.mark.parametrize("name", list(_EVEN_GRAMS))
def test_theta_g2_unequal_orders(name, q_order, s_order):
    # oracle: histograms of every full pair of shells, no x -> -x reduction
    lat = Lattice(name, len(_EVEN_GRAMS[name]), _EVEN_GRAMS[name])
    gram = np.array(lat.gram, dtype=np.int64)
    rows = {n: np.array(v, dtype=np.int64)
            for n, v in enumerate_shells(lat, 4).shells.items()}
    expected = {}
    for na in range(0, 2 * q_order, 2):
        for nc in range(0, 2 * s_order, 2):
            if na in rows and nc in rows:
                for b, count in _unique_histogram(gram, rows[na], rows[nc]).items():
                    expected[(F(na, 2), F(b), F(nc, 2))] = GaussRat(count)
    th = theta_g2(lat, q_order, s_order)
    assert dict(th.iter_terms()) == expected


@pytest.mark.parametrize("rows", [
    [(0, 1), (1, 0)],    # two representatives of two rows
    [(-1, 0), (0, 1)],   # half are representatives, but not closed under x -> -x
    [(-1, 0), (0, 0), (1, 0)],  # closed, but with a zero row
], ids=["no-negatives", "half-not-closed", "zero-row"])
def test_representatives_refuse_rows_not_closed_under_negation(rows):
    with pytest.raises(InternalError):
        _representatives(np.array(rows, dtype=np.int64))


def _box_shells(gram, max_norm):
    """Brute-force shells: every x in the box |x_i| <= sqrt(N (G^-1)_ii) + 1."""
    g = np.array(gram, dtype=np.int64)
    inv = np.linalg.inv(g.astype(float))
    radii = [math.isqrt(int(max_norm * inv[i][i])) + 1 for i in range(len(gram))]
    shells = {}
    for x in itertools.product(*(range(-r, r + 1) for r in radii)):
        norm = int(np.array(x) @ g @ np.array(x))
        if norm <= max_norm:
            shells.setdefault(norm, []).append(x)
    return {k: tuple(sorted(v)) for k, v in sorted(shells.items())}


_ORACLE_GRAMS = {
    "A2": ((2, -1), (-1, 2)),
    "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    # L has denominators 3 and 4, D has 1, 3 and 2
    "odd3": ((3, 1, 1), (1, 3, 1), (1, 1, 5)),
    # Z^2 in the basis (-24, -5), (5, 1): two shears by +-5
    "sheared": ((601, -125), (-125, 26)),
}
# (max_norm on a shell, max_norm strictly between shells)
_ORACLE_NORMS = {"A2": (6, 4), "D4": (4, 5), "odd3": (9, 7), "sheared": (5, 3)}


@pytest.mark.parametrize("where", ["zero", "on-shell", "between-shells"])
@pytest.mark.parametrize("name", sorted(_ORACLE_GRAMS))
def test_enumerate_shells_matches_box_search(name, where):
    gram = _ORACLE_GRAMS[name]
    on, between = _ORACLE_NORMS[name]
    max_norm = {"zero": 0, "on-shell": on, "between-shells": between}[where]
    expected = _box_shells(gram, max_norm)
    if where == "on-shell":
        assert max_norm in expected  # vectors on the boundary of the ellipsoid
    if where == "between-shells":
        assert max_norm not in expected and max(expected) < max_norm
    table = enumerate_shells(Lattice(name, len(gram), gram), max_norm)
    assert dict(table.shells) == expected


_DET_GRAMS = {
    **{f"even-{k}": g for k, g in _EVEN_GRAMS.items()},
    **{f"oracle-{k}": g for k, g in _ORACLE_GRAMS.items()},
    "E8+E8": builtin_lattice("E8").direct_sum(builtin_lattice("E8")).gram,
    "E8x3": builtin_lattice("E8x3").gram,
}


@pytest.mark.parametrize("name", sorted(_DET_GRAMS))
def test_determinant_matches_exact_reference(name):
    gram = _DET_GRAMS[name]
    assert Lattice(name, len(gram), gram).determinant() == sympy.Matrix(gram).det()


def test_negative_max_norm_has_no_vectors():
    for gram in _ORACLE_GRAMS.values():
        assert dict(enumerate_shells(Lattice("x", len(gram), gram), -1).shells) == {}


def test_cached_shells_are_read_only():
    table = enumerate_shells(builtin_lattice("E8"), 2)
    with pytest.raises(TypeError):
        table.shells[2] = ()
    with pytest.raises(TypeError):
        del table.shells[0]
    assert enumerate_shells(builtin_lattice("E8"), 2).count(2) == 240


def test_leech_theta_values():
    # the Leech theta series is Delta * (J + 24), with no enumeration
    th = t1_selfdual(24, 3).body
    assert coeff(th, {"q": 0}) == GaussRat(1)
    assert coeff(th, {"q": 1}) == GaussRat(0)
    assert coeff(th, {"q": 2}) == GaussRat(196560)


def test_even_non_unimodular_lattice():
    # the D4 root lattice: even, determinant 4, 24 roots; theta series are
    # computable for any even positive definite lattice
    d4 = Lattice("D4", 4, (
        (2, -1, 0, 0),
        (-1, 2, -1, -1),
        (0, -1, 2, 0),
        (0, -1, 0, 2),
    ))
    assert d4.is_even
    assert not d4.is_unimodular
    assert d4.determinant() == 4
    table = enumerate_shells(d4, 4)
    assert table.count(2) == 24
    th = theta_g1(d4, 3)
    assert coeff(th, {"q": 1}) == GaussRat(24)
    assert coeff(th, {"q": 2}) == GaussRat(24)


def test_lattice_json_roundtrip(tmp_path):
    e8 = builtin_lattice("E8")
    p = tmp_path / "e8.json"
    p.write_text(__import__("json").dumps(e8.to_json_dict()))
    back = Lattice.from_file(str(p))
    assert back == e8


def test_builtin_e8x3():
    lat = builtin_lattice("E8x3")
    assert lat.rank == 24
    assert lat.is_unimodular


def test_unknown_builtin():
    with pytest.raises(DomainError):
        builtin_lattice("Leech")


def test_theta_g2_refines_with_order():
    e8 = builtin_lattice("E8")
    assert_refines(theta_g2(e8, 2, 2), theta_g2(e8, 4, 4))
