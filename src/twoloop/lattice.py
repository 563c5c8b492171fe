"""Integral lattices: ingestion, exact vector enumeration, theta series.

Each Gram matrix is eliminated once, fraction-free, when its lattice is
built: the leading principal minors give the determinant and positive
definiteness, and with the integers below the diagonal they bound every
coordinate of the search in integer arithmetic, so no boundary vector is
ever missed.
A Gram matrix splits into the connected components of its nonzero
off-diagonal entries, and the lattice is the orthogonal sum of these
blocks: its shell sizes are the convolution of theirs, and its theta
series, at genus one and two, the product of theirs (Conway and Sloane,
*Sphere Packings, Lattices and Groups*, ch. 4).  Only the blocks are
enumerated, each distinct block Gram once.
Genus-two theta series of a block count pairs of shells over Weyl orbits,
in exact integers: the reflections in the roots (norm-2 vectors) of an
even lattice are automorphisms, so each orbit of one shell needs the inner
products of one vector only, against the stored rows of the other.

Both use the symmetry x -> -x of every shell of positive norm: the search
visits, and a :class:`ShellTable` stores, one vector of each pair {x, -x}.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul as times, sub
from types import MappingProxyType

from .errors import DomainError, InternalError, NotPositiveDefinite, OddLattice
from .series import MultiSeries, VarSpec, mul

F = Fraction


@dataclass(frozen=True)
class Lattice:
    """A positive definite integral lattice given by its Gram matrix.

    ``_elim`` holds the :func:`_elimination` of the Gram matrix, run once at
    construction, which raises :class:`NotPositiveDefinite` for a matrix
    that is not positive definite."""

    name: str
    rank: int
    gram: tuple[tuple[int, ...], ...]
    _elim: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # rows are stored as tuples, so a lattice built from lists hashes
        # (and is a cache key) like one built from tuples
        g = tuple(map(tuple, self.gram))
        object.__setattr__(self, "gram", g)
        # type(x) is int: a bool, float or Fraction is refused, not coerced
        if type(self.rank) is not int or not all(type(x) is int for row in g for x in row):
            raise DomainError(f"rank and Gram entries of {self.name} must be integers")
        if len(g) != self.rank or any(len(row) != self.rank for row in g):
            raise DomainError(f"Gram matrix of {self.name} is not {self.rank}x{self.rank}")
        if any(g[i][j] != g[j][i] for i in range(self.rank) for j in range(i)):
            raise DomainError(f"Gram matrix of {self.name} is not symmetric")
        object.__setattr__(self, "_elim", _elimination(g))

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def determinant(self) -> int:
        return self._elim[0][-1]

    @property
    def is_unimodular(self) -> bool:
        return self.determinant() == 1

    def direct_sum(self, other: "Lattice", name: str | None = None) -> "Lattice":
        n, m = self.rank, other.rank
        gram = [row + (0,) * m for row in self.gram]
        gram += [(0,) * n + row for row in other.gram]
        return Lattice(name or f"{self.name}+{other.name}", n + m, gram)

    @staticmethod
    def from_json_dict(d: dict) -> "Lattice":
        """Refuses JSON that is not an object with a ``gram`` list of rows;
        the constructor refuses a ``rank`` or entry that is no JSON integer."""
        if not isinstance(d, dict):
            raise DomainError("lattice JSON must be an object")
        rows = d.get("gram")
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise DomainError("lattice JSON needs 'gram', a list of rows of integers")
        return Lattice(str(d.get("name", "lattice")), d.get("rank"), rows)

    @staticmethod
    def from_file(path: str) -> "Lattice":
        with open(path) as fh:
            return Lattice.from_json_dict(json.load(fh))


def _elimination(gram) -> tuple[tuple[int, ...], tuple]:
    """Fraction-free elimination of a symmetric integer matrix G without
    pivoting (Bareiss, *Math. Comp.* 22, 1968).

    Returns the leading principal minors (M_0 = 1, M_1, ..., M_n) and, per
    column i, the pairs (j, a_ji) of nonzero integers left below the
    diagonal, so that <x,x> = sum_i (M_{i+1} x_i + sum_{j>i} a_ji x_j)^2 /
    (M_i M_{i+1}): LDL^T with its denominators cleared.  By Sylvester's
    criterion G is positive definite exactly when every M_k > 0; the first
    M_k <= 0 raises :class:`NotPositiveDefinite`, before any division by it.
    """
    a = [list(row) for row in gram]
    n = len(a)
    minors, below = [1], []
    for k in range(n):
        pivot, prev = a[k][k], minors[-1]
        if pivot <= 0:
            raise NotPositiveDefinite("Gram matrix is not positive definite")
        below.append(tuple((j, a[j][k]) for j in range(k + 1, n) if a[j][k]))
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        minors.append(pivot)
    return tuple(minors), tuple(below)


@dataclass(frozen=True)
class ShellTable:
    """Vectors of a lattice grouped by norm, up to ``max_norm`` inclusive.

    ``shells[n]`` holds one vector of each pair {x, -x} of norm n, the one
    whose last nonzero coordinate is positive; ``shells[0]`` holds the zero
    vector alone.  :meth:`count` gives the size of the full shell.
    ``shells`` is read-only: tables are cached and shared between callers.
    """

    max_norm: int
    shells: Mapping[int, tuple[tuple[int, ...], ...]]

    def count(self, norm: int) -> int:
        if norm > self.max_norm:
            raise DomainError(f"shells only enumerated to norm {self.max_norm}")
        rows = len(self.shells.get(norm, ()))
        return 2 * rows if norm else rows


def _search(lattice: Lattice, max_norm: int, leaf) -> None:
    """Call ``leaf(norm, x)`` once for each vector x with <x,x> <= max_norm,
    one of each pair {x, -x}: the one whose last nonzero coordinate is
    positive, and the zero vector.  ``x`` is the search's own list, so a leaf
    that keeps it copies it.

    Depth-first search with exact integer bounds from the lattice's
    :func:`_elimination`.  With ``scale`` the lcm of the M_i M_{i+1},
    ``scale <x,x>`` is the sum of ``w_i (M_{i+1} x_i + c_i)^2`` for the
    integer weights ``w_i = scale / (M_i M_{i+1})``, so every bound and every
    remaining budget in the search is an integer.  Shells are closed under
    x -> -x, so the search keeps the last nonzero coordinate positive: half
    the search tree.
    """
    n, (minors, below) = lattice.rank, lattice._elim
    scale = math.lcm(*(minors[i] * minors[i + 1] for i in range(n)))
    # levels[i]: (multiplier M_{i+1}, weight w_i, pairs (j, a_ji) of column i)
    levels = [(minors[i + 1], scale // (minors[i] * minors[i + 1]), below[i])
              for i in range(n)]
    top = scale * max_norm
    x = [0] * n

    def descend(i: int, budget: int, lead: bool):
        # lead: every coordinate above i is 0, so c = 0, the range of x_i is
        # symmetric and only x_i >= 0 is searched
        if i < 0:
            leaf((top - budget) // scale, x)
            return
        mult, weight, col = levels[i]
        c = sum(a * x[j] for j, a in col)
        # weight (mult x_i + c)^2 <= budget  <=>  |mult x_i + c| <= isqrt(budget // weight)
        s = math.isqrt(budget // weight)
        for xi in range(0 if lead else -((s + c) // mult), (s - c) // mult + 1):
            y = mult * xi + c
            x[i] = xi
            descend(i - 1, budget - weight * y * y, lead and not xi)
        x[i] = 0

    if max_norm >= 0:
        descend(n - 1, top, True)


@lru_cache(maxsize=None)
def enumerate_shells(lattice: Lattice, max_norm: int) -> ShellTable:
    """The vectors with <x,x> <= max_norm, one of each pair {x, -x}, as
    :func:`_search` finds them, each shell sorted."""
    shells: dict[int, list[tuple[int, ...]]] = {}

    def keep(norm: int, x: list[int]):
        shells.setdefault(norm, []).append(tuple(x))

    _search(lattice, max_norm, keep)
    return ShellTable(max_norm, MappingProxyType(
        {k: tuple(sorted(v)) for k, v in sorted(shells.items())}))


def _factors(lattice: Lattice) -> list[Lattice]:
    """The orthogonal blocks of ``lattice``, one per connected component of
    its nonzero off-diagonal Gram entries, in the order of their first basis
    vectors.  Blocks with equal Grams are equal lattices, so the caches
    enumerate each distinct block once; a lattice of one block is its own
    factor."""
    g, left, blocks = lattice.gram, set(range(lattice.rank)), []
    while left:
        block, grow = set(), {min(left)}
        while grow:
            block |= grow
            left -= grow
            grow = {j for i in grow for j in left if g[i][j]}
        blocks.append(sorted(block))
    if len(blocks) < 2:
        return [lattice]
    return [Lattice(f"{lattice.name} block", len(b), tuple(tuple(g[i][j] for j in b) for i in b))
            for b in blocks]


@lru_cache(maxsize=None)
def shell_counts(lattice: Lattice, max_norm: int) -> Mapping[int, int]:
    """The size of every nonempty full shell of norm <= ``max_norm``, in
    ascending norm.  A lattice of one block counts the vectors
    :func:`_search` visits, storing none; a lattice of several convolves the
    cached counts of its :func:`_factors`.  Read-only: counts are cached and
    shared."""
    factors = _factors(lattice)
    if len(factors) == 1:
        rows = Counter()

        def tally(norm: int, x: list[int]):
            rows[norm] += 1

        _search(lattice, max_norm, tally)
        # the search visits one vector of each pair {x, -x}
        counts = {n: 2 * c if n else c for n, c in rows.items()}
    else:
        counts = {0: 1}
        for factor in factors:
            block, sums = shell_counts(factor, max_norm), Counter()
            for n, c in counts.items():
                for m, d in block.items():
                    if n + m <= max_norm:
                        sums[n + m] += c * d
            counts = sums
    return MappingProxyType(dict(sorted(counts.items())))


def theta_g1(lattice: Lattice, q_order: int) -> MultiSeries:
    """Genus-one lattice theta series sum_alpha q^(<a,a>/2)."""
    if not lattice.is_even:
        raise OddLattice(f"{lattice.name} is not even")
    counts = shell_counts(lattice, 2 * (q_order - 1))
    return MultiSeries((VarSpec("q", valid=q_order),),
                       {(F(norm, 2),): c for norm, c in counts.items()})


#: |W| of type E by rank and number of positive roots (A, D: by formula)
_E_ORDERS = {6: {36: 51840}, 7: {63: 2903040}, 8: {120: 696729600}}


def _dot(x, y) -> int:
    return sum(map(times, x, y))


def _weyl_orbits(gram, table: ShellTable) -> dict[int, list[tuple[tuple[int, ...], int]]]:
    """Per positive norm of ``table``, the Weyl orbits of the full shell as
    pairs (dominant y, |W| / |W_J|), the stored roots taken as positive.  W_J,
    the stabiliser of y, is generated by the simple roots J orthogonal to y
    (Humphreys, *Reflection Groups and Coxeter Groups*, 1990, §1.12); each
    component of J is typed A, D or E by its rank and positive roots."""
    rg = {r: tuple(_dot(row, r) for row in gram) for r in table.shells.get(2, ())}
    simple = []
    for r in sorted(rg, key=lambda x: x[::-1]):
        if not any(tuple(map(sub, r, a)) in rg for a in simple):
            simple.append(r)
    sg = [rg[a] for a in simple]
    touch = {r: {i for i, a in enumerate(sg) if _dot(r, a)} for r in rg}

    def stabiliser(y) -> int:
        left = {i for i, a in enumerate(sg) if not _dot(y, a)}
        fixed = [touch[r] for r, g in rg.items() if not _dot(y, g)]
        order = 1
        while left:
            comp, grow = set(), {left.pop()}
            while grow:
                comp |= grow
                grow = {j for j in left if touch[simple[j]] & grow}
                left -= grow
            n, pos = len(comp), sum(1 for t in fixed if t & comp)
            types = {n * (n + 1) // 2: math.factorial(n + 1),
                     n * (n - 1): 2 ** (n - 1) * math.factorial(n), **_E_ORDERS.get(n, {})}
            if pos not in types:
                raise InternalError(f"no root system of rank {n} has {pos} positive roots")
            order *= types[pos]
        return order

    group = stabiliser((0,) * len(gram))
    orbits = {}
    for norm, rows in table.shells.items():
        if not norm:
            continue
        orbits[norm] = kept = []
        for x in rows:
            # x is dominant when no <x, a> is negative and -x when none is
            # positive: stop at the first sign against the first nonzero one
            sign = 0
            for a in sg:
                d = _dot(x, a)
                if d * sign < 0:
                    break
                sign = sign or d
            else:
                size = group // stabiliser(x)  # W_{-x} = W_x
                if sign >= 0:
                    kept.append((x, size))
                if sign <= 0:
                    kept.append((tuple(-v for v in x), size))
    if any(sum(size for _, size in orbits[n]) != table.count(n) for n in orbits):
        raise InternalError("the Weyl orbits of a shell do not fill it")
    return orbits


class _PairCount(int):
    """A pair count as :func:`theta_g2` stores it: an int that also reads as
    ``.re``, the name the pair counter of ``perfbench/tracer.py`` reads
    from each coefficient of a ``theta_g2`` result."""

    __slots__ = ()
    re = property(int)


def theta_g2(lattice: Lattice, q_order: int, s_order: int) -> MultiSeries:
    """Genus-two lattice theta series.

    Coefficient of q^a s^c r^b counts pairs (alpha, beta) with norms 2a, 2c
    and inner product b.  Laurent in r; the support automatically satisfies
    b^2 <= 4ac.  The series is the product of its :func:`_factors`' series,
    each distinct block's counted once; the r floor is the lowest r exponent
    held, not the sum of the blocks' floors, and the terms come in
    ascending (q, s, r) order.
    """
    if not lattice.is_even:
        raise OddLattice(f"{lattice.name} is not even")
    factors = _factors(lattice)
    blocks = {f: _block_theta_g2(f, q_order, s_order) for f in set(factors)}
    product = reduce(mul, [blocks[f] for f in factors])
    keys = sorted(product.terms, key=lambda k: (k[0], k[2], k[1]))
    ordered = MultiSeries._of(product.vars, {k: _PairCount(product.terms[k]) for k in keys})
    return ordered.with_min_floor("r", min((k[1] for k in keys), default=0))


def _block_theta_g2(lattice: Lattice, q_order: int, s_order: int) -> MultiSeries:
    """:func:`theta_g2` of one block, counted over the Weyl orbits of its
    roots; the r floor is the lowest r exponent held."""
    table = enumerate_shells(lattice, 2 * (max(q_order, s_order) - 1))
    orbits = _weyl_orbits(lattice.gram, table)
    norms_q = [nm for nm in table.shells if nm % 2 == 0 and nm // 2 < q_order]
    norms_s = [nm for nm in table.shells if nm % 2 == 0 and nm // 2 < s_order]
    # <a,c> = <c,a>: the histogram of (na, nc) is that of (nc, na)
    hists: dict[tuple[int, int], dict[int, int]] = {}
    terms = {}
    for na in norms_q:
        for nc in norms_s:
            key = (min(na, nc), max(na, nc))
            if key not in hists and not key[0]:  # the zero shell is one vector, and <0, c> = 0
                hists[key] = {0: table.count(key[1])}
            elif key not in hists:
                # W preserves both shells: H[b] = sum_y |O_y| #{stored x : <x, y> = +-b}
                h = Counter()
                for y, size in orbits[key[1]]:
                    yg = tuple(_dot(row, y) for row in lattice.gram)
                    for v, k in Counter(_dot(x, yg) for x in table.shells[key[0]]).items():
                        h[v] += size * k
                        h[-v] += size * k
                hists[key] = dict(sorted(h.items()))
            for b, count in hists[key].items():
                terms[(na // 2, b, nc // 2)] = count
    rs = VarSpec("r", 1, min((k[1] for k in terms), default=0))
    return MultiSeries._of((VarSpec("q", valid=q_order), rs, VarSpec("s", valid=s_order)), terms)


# -- built-in Gram matrices -------------------------------------------------

_E8_GRAM = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)


@lru_cache(maxsize=None)
def builtin_lattice(name: str) -> Lattice:
    """E8 and E8^3, validated (even, unimodular, correct root count) before
    first use."""
    key = name.upper().replace("^", "X")
    if key == "E8":
        lat = Lattice("E8", 8, _E8_GRAM)
        _validate_even_unimodular(lat, expected_roots=240)
        return lat
    if key in ("E8X3", "E83", "3E8"):
        e8 = builtin_lattice("E8")
        lat = e8.direct_sum(e8).direct_sum(e8, name="E8x3")
        _validate_even_unimodular(lat, expected_roots=720)
        return lat
    raise DomainError(f"unknown built-in lattice {name!r} (have: E8, E8x3)")


def _validate_even_unimodular(lat: Lattice, expected_roots: int) -> None:
    if not lat.is_even:
        raise DomainError(f"built-in {lat.name} failed the evenness check")
    if not lat.is_unimodular:
        raise DomainError(f"built-in {lat.name} failed the unimodularity check")
    roots = shell_counts(lat, 2).get(2, 0)
    if roots != expected_roots:
        raise DomainError(
            f"built-in {lat.name} has {roots} roots, expected {expected_roots}"
        )
