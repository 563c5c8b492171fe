"""Integral lattices: ingestion, exact vector enumeration, theta series.

Each Gram matrix is eliminated once, fraction-free, when its lattice is
built: the leading principal minors give the determinant and positive
definiteness, and with the integers below the diagonal they bound every
coordinate of the search in integer arithmetic, so no boundary vector is
ever missed.
Genus-two theta series are assembled from inner-product histograms of shell
pairs rather than raw vector pairs: the products are taken in blocks of rows
(exact float64 BLAS products of integer matrices) and counted with an offset
``np.bincount``, which keeps memory flat.

Both use the symmetry x -> -x of every shell of positive norm.  The search
visits one vector of each pair {x, -x} and adds the other at the leaf, and
a pair of shells is histogrammed on one representative of each pair only,
since <sa, tb> = st <a, b> for signs s, t: a quarter of the inner products.

Only the histogram path of :func:`theta_g2` needs numpy, and imports it
where it runs.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import DomainError, InternalError, NotPositiveDefinite, OddLattice
from .series import GaussRat, MultiSeries, VarSpec

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

    def to_json_dict(self) -> dict:
        return {"name": self.name, "rank": self.rank,
                "gram": [list(row) for row in self.gram]}

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

    ``shells`` is read-only: tables are cached and shared between callers.
    """

    max_norm: int
    shells: Mapping[int, tuple[tuple[int, ...], ...]]

    def count(self, norm: int) -> int:
        if norm > self.max_norm:
            raise DomainError(f"shells only enumerated to norm {self.max_norm}")
        return len(self.shells.get(norm, ()))


@lru_cache(maxsize=None)
def enumerate_shells(lattice: Lattice, max_norm: int) -> ShellTable:
    """All vectors with <x,x> <= max_norm, by depth-first search with exact
    integer bounds from the lattice's :func:`_elimination`.

    With ``scale`` the lcm of the M_i M_{i+1}, ``scale <x,x>`` is the sum of
    ``w_i (M_{i+1} x_i + c_i)^2`` for the integer weights
    ``w_i = scale / (M_i M_{i+1})``, so every bound and every remaining
    budget in the search is an integer.  Shells are closed under
    x -> -x, so the search keeps the last nonzero coordinate positive and
    adds each vector's negation at the leaf: half the search tree.
    """
    n, (minors, below) = lattice.rank, lattice._elim
    scale = math.lcm(*(minors[i] * minors[i + 1] for i in range(n)))
    # levels[i]: (multiplier M_{i+1}, weight w_i, pairs (j, a_ji) of column i)
    levels = [(minors[i + 1], scale // (minors[i] * minors[i + 1]), below[i])
              for i in range(n)]
    top = scale * max_norm
    shells: dict[int, list[tuple[int, ...]]] = {}
    x = [0] * n

    def descend(i: int, budget: int, lead: bool):
        # lead: every coordinate above i is 0, so c = 0, the range of x_i is
        # symmetric and only x_i >= 0 is searched; a leaf adds -x as well
        if i < 0:
            shell = shells.setdefault((top - budget) // scale, [])
            shell.append(tuple(x))
            if not lead:
                shell.append(tuple([-xi for xi in x]))
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
    return ShellTable(max_norm, MappingProxyType(
        {k: tuple(sorted(v)) for k, v in sorted(shells.items())}))


def theta_g1(lattice: Lattice, q_order: int) -> MultiSeries:
    """Genus-one lattice theta series sum_alpha q^(<a,a>/2)."""
    if not lattice.is_even:
        raise OddLattice(f"{lattice.name} is not even")
    table = enumerate_shells(lattice, 2 * (q_order - 1))
    spec = VarSpec("q", valid=q_order)
    terms = {}
    for norm, vecs in table.shells.items():
        if norm % 2 == 0 and norm // 2 < q_order:
            terms[(F(norm, 2),)] = GaussRat(len(vecs))
    return MultiSeries((spec,), terms)


#: Rows of ``va`` per block of inner products in ``_pair_histogram``.
_BLOCK_ROWS = 128


def _pair_histogram(gram_np, va, vb) -> dict[int, int]:
    """Counts of the inner products <a, b> over rows a of ``va``, b of ``vb``.

    Float64 (BLAS) products of blocks of rows are exact: every partial sum is
    an integer of size at most ``bound`` = max_a |aG|_1 * max|vb| < 2**53.  By
    Cauchy-Schwarz, |<a, b>| <= ``reach``, the offset of the ``np.bincount``.
    """
    import numpy as np

    ag = va @ gram_np
    bound = int(np.abs(ag).sum(axis=1).max(initial=0)) * int(np.abs(vb).max(initial=0))
    if bound >= 2**53:
        raise DomainError("lattice inner products too large for exact float64 products")
    reach = math.isqrt(int((ag * va).sum(axis=1).max(initial=0))
                       * int(((vb @ gram_np) * vb).sum(axis=1).max(initial=0)))
    width = 2 * reach + 1
    counts = np.zeros(width, dtype=np.int64)
    agf, bt = ag.astype(np.float64), vb.T.astype(np.float64)
    for i in range(0, len(agf), _BLOCK_ROWS):
        block = (agf[i:i + _BLOCK_ROWS] @ bt + reach).astype(np.intp)
        counts += np.bincount(block.ravel(), minlength=width)
    return {int(v) - reach: int(counts[v]) for v in np.flatnonzero(counts)}


def _representatives(rows):
    """One row of each pair {x, -x} of a shell of positive norm: the rows
    whose first nonzero entry is positive.

    ``rows`` come sorted, as in a :class:`ShellTable`.  A shell is closed
    under x -> -x and holds no zero row, so negation reverses its sorted
    order and exactly half its rows are representatives; anything else
    raises :class:`InternalError`.
    """
    import numpy as np

    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    reps = rows[lead > 0]
    if 2 * len(reps) != len(rows) or not np.array_equal(rows, -rows[::-1]):
        raise InternalError("shell rows are not closed under x -> -x")
    return reps


def _signed_histogram(gram_np, ra, rc) -> dict[int, int]:
    """Inner-product histogram of two full shells of positive norm, from
    representatives ``ra``, ``rc`` of their pairs {x, -x}, in ascending
    order of the inner product.

    Each representative pair (a, c) stands for (sa, tc) over signs s, t,
    and <sa, tc> = st <a, c>, so ``H[b] = 2 (h[b] + h[-b])``.
    """
    h = _pair_histogram(gram_np, ra, rc)
    return {b: 2 * (h.get(b, 0) + h.get(-b, 0))
            for b in sorted({b for v in h for b in (v, -v)})}


def theta_g2(lattice: Lattice, q_order: int, s_order: int) -> MultiSeries:
    """Genus-two lattice theta series.

    Coefficient of q^a s^c r^b counts pairs (alpha, beta) with norms 2a, 2c
    and inner product b.  Laurent in r; the support automatically satisfies
    b^2 <= 4ac.
    """
    if not lattice.is_even:
        raise OddLattice(f"{lattice.name} is not even")
    import numpy as np

    table = enumerate_shells(lattice, 2 * (max(q_order, s_order) - 1))
    gram_np = np.array(lattice.gram, dtype=np.int64)
    size = {norm: len(vecs) for norm, vecs in table.shells.items()}
    reps = {norm: _representatives(np.array(vecs, dtype=np.int64))
            for norm, vecs in table.shells.items() if norm}
    norms_q = [nm for nm in size if nm % 2 == 0 and nm // 2 < q_order]
    norms_s = [nm for nm in size if nm % 2 == 0 and nm // 2 < s_order]
    # <a,c> = <c,a>: the histogram of (na, nc) is that of (nc, na)
    hists: dict[tuple[int, int], dict[int, int]] = {}
    terms = {}
    bmin = F(0)
    for na in norms_q:
        for nc in norms_s:
            key = (min(na, nc), max(na, nc))
            if key not in hists:  # with the zero shell, every <a, c> is 0
                hists[key] = (_signed_histogram(gram_np, reps[key[0]], reps[key[1]])
                              if key[0] else {0: size[key[0]] * size[key[1]]})
            a, c = F(na, 2), F(nc, 2)
            for b, count in hists[key].items():
                terms[(a, F(b), c)] = GaussRat(count)
                bmin = min(bmin, F(b))
    qs = VarSpec("q", valid=q_order)
    rs = VarSpec("r", 1, bmin)
    ss = VarSpec("s", valid=s_order)
    return MultiSeries((qs, rs, ss), terms)


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
    roots = enumerate_shells(lat, 2).count(2)
    if roots != expected_roots:
        raise DomainError(
            f"built-in {lat.name} has {roots} roots, expected {expected_roots}"
        )
