import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from twoloop import cli
from twoloop.elliptic import eisenstein
from twoloop import lattice as lattice_module
from twoloop.errors import DomainError, InternalError, NotPositiveDefinite, OddLattice
from twoloop.lattice import (
    Lattice,
    _weyl_orbits,
    builtin_lattice,
    enumerate_shells,
    shell_counts,
    theta_g1,
    theta_g2,
)
from twoloop.partition import t1_selfdual
from twoloop.series import (
    VarSpec,
    coeff,
    equal_on_joint_validity,
    mul,
    pow_int,
    r_to_u,
)

from conftest import assert_refines, lattice_json, limit_var_zero, set_var_one

F = Fraction


def test_e8_gram_is_valid():
    e8 = builtin_lattice("E8")
    assert e8.is_even
    assert e8.is_unimodular
    assert e8.determinant() == 1


def test_e8_shell_counts():
    table = enumerate_shells(builtin_lattice("E8"), 8)
    assert table.count(0) == 1
    assert table.count(2) == 240
    assert table.count(4) == 2160
    assert table.count(6) == 6720
    assert table.count(8) == 17520
    # a shell of positive norm stores one vector of each pair {x, -x}
    for norm, vecs in table.shells.items():
        if norm:
            assert table.count(norm) == 2 * len(vecs)


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


@pytest.mark.parametrize("rank, gram", [
    pytest.param(2, ((2, -1), (-1,)), id="short-row"),
    pytest.param(3, ((2, -1), (-1, 2)), id="rank-above-rows"),
])
def test_lattice_construction_refuses_a_gram_that_is_not_square(rank, gram):
    with pytest.raises(DomainError, match=f"is not {rank}x{rank}"):
        Lattice("bad", rank, gram)


def test_lattice_construction_refuses_a_gram_that_is_not_symmetric():
    # positive definite, so only the symmetry check refuses it
    with pytest.raises(DomainError, match="not symmetric"):
        Lattice("bad", 2, ((2, -1), (0, 2)))


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
    assert coeff(th, {"q": 0, "r": 0, "s": 0}) == 1
    # alpha = beta over the 240 roots
    assert coeff(th, {"q": 1, "r": 2, "s": 1}) == 240
    u = r_to_u(th)
    assert coeff(u, {"q": 1, "s": 1, "u": 1}) == 14400  # 240^2/4
    assert coeff(u, {"q": 1, "s": 1, "u": 2}) == 240


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


def _reflection_closure(gram, y, roots, w):
    """The orbit of y under the reflections x -> x - <x, r> r in ``roots``,
    by breadth-first search, as the keys x @ w of its vectors."""
    n = len(gram)
    g, r = np.array(gram, dtype=np.int64), np.array(roots, dtype=np.int64).reshape(-1, n)
    frontier = np.array([y], dtype=np.int64)
    seen = frontier @ w
    while len(frontier):
        ip = frontier @ g @ r.T
        images = (frontier[:, None, :] - ip[:, :, None] * r[None, :, :]).reshape(-1, n)
        keys, first = np.unique(images @ w, return_index=True)
        fresh = ~np.isin(keys, seen)
        frontier, seen = images[first[fresh]], np.concatenate([seen, keys[fresh]])
    return seen


def test_theta_g2_matches_stored_row_histograms():
    # H[b] = m (h[b] + h[-b]) over the stored rows of each shell: m = 2 for
    # two shells of positive norm (x -> -x on both sides), 1 with the zero
    # shell, which is its own negation
    e8 = builtin_lattice("E8")
    table = enumerate_shells(e8, 6)
    gram = np.array(e8.gram, dtype=np.int64)
    rows = {n: np.array(v, dtype=np.int64) for n, v in table.shells.items()}
    th = theta_g2(e8, 4, 4)
    for na, nc in [(0, 6), (2, 6), (4, 4), (4, 6)]:
        h = _unique_histogram(gram, rows[na], rows[nc])
        m = 2 if na and nc else 1
        expected = {b: m * (h.get(b, 0) + h.get(-b, 0)) for b in {b for v in h for b in (v, -v)}}
        got = {int(k[1]): c for k, c in th.terms.items() if k[0] == F(na, 2) and k[2] == F(nc, 2)}
        assert got == expected, (na, nc)


@pytest.mark.parametrize("e8_orders", [{120: 2 * 696729600}, {}], ids=["wrong-order", "no-type"])
def test_weyl_orbit_guard_raises(monkeypatch, e8_orders):
    # a wrong |W(E8)| makes the orbits overfill their shells; with no E8
    # entry, (rank 8, 120 positive roots) has no type
    monkeypatch.setitem(lattice_module._E_ORDERS, 8, e8_orders)
    with pytest.raises(InternalError):
        theta_g2(builtin_lattice("E8"), 3, 3)


_EVEN_GRAMS = {
    "E8": builtin_lattice("E8").gram,
    "A2": ((2, -1), (-1, 2)),
    "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    # even and not unimodular (determinant 7), with no vector of norm 6
    "det7": ((2, 1), (1, 4)),
    # no roots: W is trivial, and each orbit is one vector
    "rootless": ((4, 2), (2, 4)),
    # W = (Z/2)^4 is abelian
    "A1x4": tuple(tuple(2 * (i == j) for j in range(4)) for i in range(4)),
}


# (Gram matrix, max_norm): every _EVEN_GRAMS entry to norm 8, E8x3 to its roots
_ORBIT_CASES = {**{name: (gram, 8) for name, gram in _EVEN_GRAMS.items()},
                "E8x3": (builtin_lattice("E8x3").gram, 2)}


@pytest.mark.parametrize("name", list(_ORBIT_CASES))
def test_weyl_orbits_match_reflection_closure(name):
    gram, max_norm = _ORBIT_CASES[name]
    table = enumerate_shells(Lattice(name, len(gram), gram), max_norm)
    orbits = _weyl_orbits(gram, table)
    roots = table.shells.get(2, ())
    # reflections keep each shell, on which the key x @ w is checked to be
    # one-to-one, so keys tell the vectors of an orbit apart exactly
    w = np.random.default_rng(0).integers(-2**62, 2**62, len(gram))
    for norm, vecs in table.shells.items():
        if not norm:
            continue
        half = np.array(vecs, dtype=np.int64)
        full = np.concatenate([half, -half]) @ w
        assert len(np.unique(full)) == len(full)
        found = [_reflection_closure(gram, y, roots, w) for y, _ in orbits[norm]]
        assert [len(o) for o in found] == [size for _, size in orbits[norm]], norm
        assert np.array_equal(np.sort(np.concatenate(found)), np.sort(full)), norm
    sizes = {norm: sorted(size for _, size in orbs) for norm, orbs in orbits.items()}
    if name == "E8":
        assert sizes[8] == [240, 17280]
    if name == "D4":
        assert sizes[4] == [8, 8, 8]
    if name == "E8x3":
        assert sizes[2] == [240, 240, 240]


@pytest.mark.parametrize("q_order,s_order", [(3, 2), (2, 3)])
@pytest.mark.parametrize("name", list(_EVEN_GRAMS))
def test_theta_g2_unequal_orders(name, q_order, s_order):
    # oracle: histograms of every full pair of shells, no x -> -x reduction;
    # a full shell of positive norm is its stored rows and their negations
    lat = Lattice(name, len(_EVEN_GRAMS[name]), _EVEN_GRAMS[name])
    gram = np.array(lat.gram, dtype=np.int64)
    rows = {}
    for n, v in enumerate_shells(lat, 4).shells.items():
        half = np.array(v, dtype=np.int64)
        rows[n] = np.concatenate([half, -half]) if n else half
    expected = {}
    for na in range(0, 2 * q_order, 2):
        for nc in range(0, 2 * s_order, 2):
            if na in rows and nc in rows:
                for b, count in _unique_histogram(gram, rows[na], rows[nc]).items():
                    expected[(F(na, 2), F(b), F(nc, 2))] = count
    th = theta_g2(lat, q_order, s_order)
    assert dict(th.iter_terms()) == expected


def _box_shells(gram, max_norm):
    """Brute-force shells: every x in the box |x_i| <= sqrt(N (G^-1)_ii) + 1."""
    g = np.array(gram, dtype=np.int64)
    inv = np.linalg.inv(g.astype(float))
    radii = [math.isqrt(int(max(max_norm, 0) * inv[i][i])) + 1 for i in range(len(gram))]
    shells = {}
    for x in itertools.product(*(range(-r, r + 1) for r in radii)):
        norm = int(np.array(x) @ g @ np.array(x))
        if norm <= max_norm:
            shells.setdefault(norm, []).append(x)
    return {k: tuple(sorted(v)) for k, v in sorted(shells.items())}


def _stored_half(shells):
    """The rows a ShellTable keeps of full shells: the vectors whose last
    nonzero coordinate is positive, and the zero vector alone."""
    def kept(x):
        nonzero = [xi for xi in x if xi]
        return not nonzero or nonzero[-1] > 0
    return {k: tuple(filter(kept, v)) for k, v in shells.items()}


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


@pytest.mark.parametrize("where", ["negative", "zero", "on-shell", "between-shells"])
@pytest.mark.parametrize("name", sorted(_ORACLE_GRAMS))
def test_enumerate_shells_matches_box_search(name, where):
    gram = _ORACLE_GRAMS[name]
    on, between = _ORACLE_NORMS[name]
    max_norm = {"negative": -1, "zero": 0, "on-shell": on, "between-shells": between}[where]
    full = _box_shells(gram, max_norm)
    if where == "on-shell":
        assert max_norm in full  # vectors on the boundary of the ellipsoid
    if where == "between-shells":
        assert max_norm not in full and max(full) < max_norm
    lat = Lattice(name, len(gram), gram)
    table = enumerate_shells(lat, max_norm)
    assert dict(table.shells) == _stored_half(full)
    # each lattice here is one block, so shell_counts counts in the search
    # itself, storing no vector
    assert [f.rank for f in lattice_module._factors(lat)] == [len(gram)]
    counts = [(norm, table.count(norm)) for norm in table.shells]
    assert list(shell_counts(lat, max_norm).items()) == counts
    # the stored rows and their negations make up each full shell, no overlap
    for norm, vecs in table.shells.items():
        negated = {tuple(-xi for xi in x) for x in vecs} if norm else set()
        assert not negated & set(vecs)
        assert sorted(negated | set(vecs)) == list(full[norm])
        assert table.count(norm) == len(full[norm])


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
        expected = _stored_half(_box_shells(gram, -1))
        assert dict(enumerate_shells(Lattice("x", len(gram), gram), -1).shells) == expected == {}


def _interleaved(order, *blocks):
    """The Gram matrix of the orthogonal sum of ``blocks`` in the basis
    permuted by ``order``: basis vector k is the sum's vector order[k]."""
    n = sum(map(len, blocks))
    full, at = [[0] * n for _ in range(n)], 0
    for block in blocks:
        for i, row in enumerate(block):
            full[at + i][at:at + len(row)] = row
        at += len(block)
    return tuple(tuple(full[i][j] for j in order) for i in order)


# orthogonal sums with their blocks interleaved in the basis; Z+A2 is odd
_SUM_GRAMS = {
    "A2+A2": _interleaved((0, 2, 1, 3), _ORACLE_GRAMS["A2"], _ORACLE_GRAMS["A2"]),
    "A2+D4": _interleaved((2, 0, 3, 4, 1, 5), _ORACLE_GRAMS["A2"], _ORACLE_GRAMS["D4"]),
    "Z+A2": _interleaved((1, 0, 2), ((1,),), _ORACLE_GRAMS["A2"]),
}
# (largest max_norm checked, ranks of the blocks in the order of their first
# basis vectors)
_SUM_CASES = {"A2+A2": (6, [2, 2]), "A2+D4": (4, [4, 2]), "Z+A2": (7, [2, 1])}


@pytest.mark.parametrize("name", sorted(_SUM_GRAMS))
def test_shell_counts_of_an_orthogonal_sum_match_box_search(name):
    gram = _SUM_GRAMS[name]
    lat = Lattice(name, len(gram), gram)
    top, ranks = _SUM_CASES[name]
    assert [f.rank for f in lattice_module._factors(lat)] == ranks
    for max_norm in range(-1, top + 1):
        expected = {n: len(v) for n, v in _box_shells(gram, max_norm).items()}
        assert list(shell_counts(lat, max_norm).items()) == list(expected.items()), max_norm
    assert dict(shell_counts(lat, -1)) == {}
    if name == "Z+A2":
        assert {1, 3, 7} <= set(shell_counts(lat, 7))


@pytest.mark.parametrize("q_order,s_order", [(3, 2), (2, 3)])
@pytest.mark.parametrize("name", ["A2+A2", "A2+D4"])
def test_theta_of_an_orthogonal_sum_matches_full_pairs(name, q_order, s_order):
    # the product of the blocks' series against every pair of full shells
    # of the whole lattice, found by box search
    gram = _SUM_GRAMS[name]
    lat = Lattice(name, len(gram), gram)
    rows = {n: np.array(v, dtype=np.int64) for n, v in _box_shells(gram, 4).items()}
    g = np.array(gram, dtype=np.int64)
    expected = {}
    for na in range(0, 2 * q_order, 2):
        for nc in range(0, 2 * s_order, 2):
            if na in rows and nc in rows:
                for b, count in _unique_histogram(g, rows[na], rows[nc]).items():
                    expected[(F(na, 2), F(b), F(nc, 2))] = count
    th = theta_g2(lat, q_order, s_order)
    assert dict(th.iter_terms()) == expected
    assert th.spec("r").min_exp == min(k[1] for k in expected)
    g1 = {(F(n, 2),): len(v) for n, v in rows.items() if n < 2 * q_order}
    assert dict(theta_g1(lat, q_order).iter_terms()) == g1


_E8_G2_TERMS = [((0, 0, 0), 1), ((0, 0, 1), 240), ((1, 0, 0), 240), ((1, -2, 1), 240),
                ((1, -1, 1), 13440), ((1, 0, 1), 30240), ((1, 1, 1), 13440), ((1, 2, 1), 240)]
_E8X3_G2_TERMS = [((0, 0, 0), 1), ((0, 0, 1), 720), ((1, 0, 0), 720), ((1, -2, 1), 720),
                  ((1, -1, 1), 40320), ((1, 0, 1), 436320), ((1, 1, 1), 40320),
                  ((1, 2, 1), 720)]


@pytest.mark.parametrize("name, terms", [("E8", _E8_G2_TERMS), ("E8x3", _E8X3_G2_TERMS)])
def test_theta_g2_is_pinned(name, terms):
    # the product of E8x3's three blocks keeps the variables, the r floor
    # held by the data (not the summed floor -6), the (q, s, r) term order
    # and the coefficient type of the single-block series
    th = theta_g2(builtin_lattice(name), 2, 2)
    assert th.vars == (VarSpec("q", valid=2), VarSpec("r", 1, -2), VarSpec("s", valid=2))
    assert list(th.terms.items()) == terms
    assert all(type(c) is lattice_module._PairCount for c in th.terms.values())


def test_sums_of_e8_enumerate_only_their_blocks(monkeypatch, capsys):
    # shell sizes of E8x3 come from searches of its rank-8 blocks: no
    # rank-24 vector is visited (to norm 6, E8x3 has about 17 million)
    ranks = []
    real = lattice_module._search

    def spy(lattice, max_norm, leaf):
        ranks.append(lattice.rank)
        return real(lattice, max_norm, leaf)

    monkeypatch.setattr(lattice_module, "_search", spy)
    shell_counts.cache_clear()
    builtin_lattice.cache_clear()
    e8x3 = builtin_lattice("E8x3")
    th = theta_g1(e8x3, 4)
    assert cli.main(["lattice-info", "--lattice", "E8x3", "--max-norm", "4"]) == 0
    assert '"4": 179280' in capsys.readouterr().out
    assert ranks and set(ranks) == {8}
    cube = pow_int(theta_g1(builtin_lattice("E8"), 4), 3)
    assert th.vars == cube.vars and list(th.terms.items()) == list(cube.terms.items())


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
    assert coeff(th, {"q": 0}) == 1
    assert coeff(th, {"q": 1}) == 0
    assert coeff(th, {"q": 2}) == 196560


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
    assert coeff(th, {"q": 1}) == 24
    assert coeff(th, {"q": 2}) == 24


def test_lattice_json_roundtrip(tmp_path):
    e8 = builtin_lattice("E8")
    p = tmp_path / "e8.json"
    p.write_text(__import__("json").dumps(lattice_json(e8)))
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
