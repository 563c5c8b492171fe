"""Exact sparse arithmetic for truncated multivariate Laurent series.

Coefficients are exact rationals, each an ``int`` or a ``Fraction``: every
series the library builds (period matrix with 2*pi*i stripped, genus-one
and Siegel forms, lattice thetas, partition functions) has rational
coefficients, and a float or complex one is refused.  A series carries an
ordered list of variables and, per variable:

* ``den``     -- exponents are integer multiples of ``1/den``,
* ``min_exp`` -- a guaranteed Laurent floor,
* ``valid``   -- the validity bound (exclusive).

A coefficient is *known* when its exponent lies below ``valid`` in every
variable simultaneously; it is then either stored or exactly zero.  Anything
at or beyond ``valid`` in some variable is *unknown* -- as opposed to zero --
and asking for it raises :class:`~twoloop.errors.UnknownCoefficient`.  The
distinction matters for series ingested from reference tables that are only
printed to a finite order: arithmetic propagates the validity region so that
no operation fabricates a coefficient its operands cannot justify.

``valid`` is the one bound: terms at or beyond it are never stored.  An
exact construction sets it to the sentinel :data:`UNBOUNDED`, which behaves
like infinity at every realistic working order and stays exact: every bound
at or past ``10**8`` is stored as ``UNBOUNDED`` itself, so adding a finite
Laurent floor to it in a product gives ``UNBOUNDED`` back.

Series and coefficients are immutable (read-only mappings, attributes that
refuse assignment), so a result served from a cache cannot be corrupted by
a caller.  ``MultiSeries(vars, terms)`` validates unscaled exponent keys; the
operations here build their results through the internal constructor
``MultiSeries._of``, which freezes a dict of already scaled terms.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from math import ceil, floor, gcd, lcm
from operator import floordiv, getitem, gt, mul as times, sub
from types import MappingProxyType

from .errors import (
    AsymmetryError,
    DomainError,
    FractionalExponentUnsupported,
    InternalError,
    NonNilpotentExponent,
    NotAUnit,
    TruncationUnderflow,
    UnknownCoefficient,
)

#: Sentinel validity bound that behaves like +infinity; any bound at or past
#: the threshold is stored as exactly this value.
UNBOUNDED = Fraction(10**9)
_UNBOUNDED_THRESHOLD = Fraction(10**8)
_LOWEST_FLOOR = -_UNBOUNDED_THRESHOLD


def is_unbounded(x: Fraction) -> bool:
    return x >= _UNBOUNDED_THRESHOLD


_ZERO = Fraction(0)


def fmt_rat(x: int | Fraction) -> str:
    """Format a rational as ``"p"`` or ``"p/q"``."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


_RAT = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def parse_rat(s: str) -> Fraction:
    """Read a rational written by :func:`fmt_rat`, ``"p"`` or ``"p/q"``;
    anything else (a JSON number or boolean, a decimal) is refused."""
    if type(s) is not str or not _RAT.fullmatch(s):
        raise DomainError(f"expected a rational string 'p' or 'p/q', got {s!r}")
    return Fraction(s)


def _exact(c):
    """``c`` itself if it is an exact coefficient, an ``int`` or a
    ``Fraction``; anything else (a float, a complex, a string) is refused."""
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError(f"a coefficient is an int or a Fraction, not {type(c).__name__}")


def _ratio(x: int, d: int):
    """``x/d`` for ``d > 0``: an int when ``d`` divides ``x``, else a Fraction."""
    return Fraction(x, d) if x % d else x // d


def _read_only(self, name, *value):
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


@dataclass(frozen=True)
class VarSpec:
    """Grading data for one series variable.

    Exponents of this variable are integer multiples of ``1/den`` no lower
    than ``min_exp``; those below ``valid`` are exactly determined and no
    others are stored.  A ``valid`` at or past the unbounded threshold is
    stored as exactly :data:`UNBOUNDED`.  The integer bounds, the equality
    key and the hash are computed once, at construction.
    """

    name: str
    den: int = 1
    min_exp: Fraction = _ZERO
    valid: Fraction = UNBOUNDED

    def __post_init__(self):
        den = self.den
        if type(den) is not int or den < 1:
            raise DomainError(f"den must be an int >= 1, got {den!r}")
        min_exp, valid = self.min_exp, self.valid
        if type(min_exp) is not Fraction:
            min_exp = Fraction(min_exp)
            object.__setattr__(self, "min_exp", min_exp)
        if type(valid) is not Fraction:
            valid = Fraction(valid)
        if valid >= _UNBOUNDED_THRESHOLD:
            valid = UNBOUNDED
        if valid is not self.valid:
            object.__setattr__(self, "valid", valid)
        if not (_LOWEST_FLOOR < min_exp <= valid):
            if is_unbounded(-min_exp):
                # a product adds the floor to the other operand's bound,
                # which would cancel an unbounded bound against it
                raise DomainError(f"{self.name}: Laurent floor {min_exp} is unbounded")
            raise DomainError(
                f"{self.name}: need min_exp <= valid, got {min_exp}, {valid}"
            )
        (m, md), (v, vd) = min_exp.as_integer_ratio(), valid.as_integer_ratio()
        object.__setattr__(self, "_kmin", -((-m * den) // md))
        object.__setattr__(self, "_kmax", (v * den - 1) // vd)
        object.__setattr__(self, "_key", (self.name, den, m, md, v, vd))
        # the value the field-tuple hash of a frozen dataclass would give
        object.__setattr__(self, "_hash", hash((self.name, den, min_exp, valid)))

    def __eq__(self, other):
        if type(other) is not VarSpec:
            return NotImplemented
        return self is other or self._key == other._key

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt through the constructor: a string's hash differs per process
        return VarSpec, (self.name, self.den, self.min_exp, self.valid)

    def kmax(self) -> int:
        """Largest scaled exponent that is still valid (inclusive)."""
        return self._kmax

    def kmin(self) -> int:
        """Smallest scaled exponent allowed by the Laurent floor."""
        return self._kmin


def _distinct(vars: tuple[VarSpec, ...]) -> tuple[VarSpec, ...]:
    """``vars`` itself, once their names are checked to be distinct."""
    names = [v.name for v in vars]
    if len(set(names)) != len(names):
        raise DomainError(f"duplicate variable names: {names}")
    return vars


def _scale_exp(e, den: int) -> int:
    e = e if isinstance(e, Fraction) else Fraction(e)
    k = e * den
    if k.denominator != 1:
        raise FractionalExponentUnsupported(
            f"exponent {e} is not a multiple of 1/{den}"
        )
    return k.numerator


class MultiSeries:
    """Sparse truncated multivariate Laurent series.

    ``terms`` is a read-only mapping from tuples of scaled integer exponents
    (one per variable, in ``vars`` order, scaled by each variable's ``den``)
    to nonzero ``int`` or ``Fraction`` coefficients.  ``MultiSeries(vars, terms)``
    takes unscaled exponents and validates them; :meth:`_of` is the internal
    constructor for terms that are already scaled.
    """

    __slots__ = ("vars", "terms", "_views")

    def __init__(self, vars: tuple[VarSpec, ...], terms: dict | None = None):
        vars = _distinct(tuple(vars))
        store: dict[tuple[int, ...], int | Fraction] = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != len(vars):
                    raise DomainError(
                        f"exponent key {exps} does not match {len(vars)} variables"
                    )
                c = _exact(c)
                if not c:
                    continue
                key = tuple(_scale_exp(e, v.den) for e, v in zip(exps, vars))
                for k, v in zip(key, vars):
                    if k < v.kmin():
                        raise DomainError(
                            f"exponent below Laurent floor of {v.name}: {Fraction(k, v.den)} < {v.min_exp}"
                        )
                if all(k <= v.kmax() for k, v in zip(key, vars)):
                    if key in store:
                        # distinct keys that parse to one exponent, e.g. "1/2" and 1/2
                        raise DomainError(f"exponent {exps} is given twice")
                    store[key] = c
        self._freeze(vars, store)

    # -- construction helpers -------------------------------------------

    @classmethod
    def _of(cls, vars: tuple[VarSpec, ...], terms) -> "MultiSeries":
        """Build-and-freeze: ``terms`` must hold scaled, nonzero keys inside
        the validity box, and ``vars`` distinct names (every caller takes
        them from operands, drops some, or checks new ones with
        :func:`_distinct`).  A dict is wrapped without a copy, so the caller
        must not keep writing to it; a frozen mapping is shared."""
        out = cls.__new__(cls)
        out._freeze(tuple(vars), terms)
        return out

    def _freeze(self, vars: tuple[VarSpec, ...], terms) -> None:
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms if type(terms) is MappingProxyType
                           else MappingProxyType(terms))

    __setattr__ = __delattr__ = _read_only

    @staticmethod
    def zero(vars: tuple[VarSpec, ...] = ()) -> "MultiSeries":
        return MultiSeries._of(_distinct(tuple(vars)), {})

    @staticmethod
    def constant(c, vars: tuple[VarSpec, ...] = ()) -> "MultiSeries":
        zero_key = (Fraction(0),) * len(vars)
        return MultiSeries(vars, {zero_key: c})

    def spec(self, name: str) -> VarSpec:
        return self.vars[self.var_index(name)]

    def has_var(self, name: str) -> bool:
        return any(v.name == name for v in self.vars)

    def var_index(self, name: str) -> int:
        for i, v in enumerate(self.vars):
            if v.name == name:
                return i
        raise KeyError(name)

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def iter_terms(self):
        """Yield ``(exponent_tuple_of_Fractions, coefficient)`` pairs."""
        dens = [v.den for v in self.vars]
        for key, c in self.terms.items():
            yield tuple(Fraction(k, d) for k, d in zip(key, dens)), c

    def constant_term(self) -> int | Fraction:
        key = (0,) * len(self.vars)
        return self.terms.get(key, 0)

    # -- metadata manipulation ------------------------------------------

    def with_min_floor(self, name: str, floor) -> "MultiSeries":
        """Raise the declared Laurent floor of one variable.

        Stored terms are checked against the new floor; the caller asserts
        that the (unknowable) truncated tail also respects it.
        """
        floor = Fraction(floor)
        i = self.var_index(name)
        v = self.vars[i]
        if floor <= v.min_exp:
            return self
        for k in self.terms:
            if Fraction(k[i], v.den) < floor:
                raise DomainError(
                    f"stored {name}-exponent {Fraction(k[i], v.den)} below "
                    f"requested floor {floor}"
                )
        new_vars = list(self.vars)
        new_vars[i] = replace(v, min_exp=floor)
        return MultiSeries._of(tuple(new_vars), self.terms)

    def with_validity(self, **bounds) -> "MultiSeries":
        """Lower validity bounds; prunes now-unknown terms."""
        new_vars = []
        for v in self.vars:
            if v.name in bounds:
                b = Fraction(bounds[v.name])
                if b > v.valid:
                    raise DomainError(f"cannot raise validity of {v.name}")
                v = replace(v, valid=max(b, v.min_exp))
            new_vars.append(v)
        kmaxes = [v.kmax() for v in new_vars]
        return MultiSeries._of(tuple(new_vars), {
            k: c for k, c in self.terms.items() if all(ki <= m for ki, m in zip(k, kmaxes))})

    def rename_vars(self, mapping: dict[str, str]) -> "MultiSeries":
        new_vars = tuple(replace(v, name=mapping.get(v.name, v.name)) for v in self.vars)
        return MultiSeries._of(_distinct(new_vars), self.terms)

    def with_den(self, name: str, den: int) -> "MultiSeries":
        """Re-grid one variable to a denominator divisible by all current
        exponent denominators."""
        i = self.var_index(name)
        old = self.vars[i]
        if den % old.den and any(k[i] * den % old.den for k in self.terms):
            raise FractionalExponentUnsupported(
                f"cannot re-grid {name} from den {old.den} to {den}"
            )
        new_vars = list(self.vars)
        new_vars[i] = replace(old, den=den)
        # exact: every k[i] * den is a multiple of old.den (checked above)
        return MultiSeries._of(tuple(new_vars), {
            k[:i] + (k[i] * den // old.den,) + k[i + 1:]: c for k, c in self.terms.items()
        })

    def simplify_dens(self) -> "MultiSeries":
        """Shrink each variable's den to the smallest grid supporting the
        stored terms (useful before serialization)."""
        out = self
        for i, v in enumerate(list(self.vars)):
            if v.den == 1:
                continue
            g = v.den
            for k in out.terms:
                g = gcd(g, k[i])
                if g == 1:
                    break
            if g > 1:
                out = out.with_den(v.name, v.den // g)
        return out

    # -- alignment -------------------------------------------------------

    def _aligned_to(self, merged: tuple[VarSpec, ...]) -> dict[tuple[int, ...], int | Fraction]:
        """Re-key terms onto a merged variable list (missing vars -> 0).

        When the keys already fit ``merged``, returns ``self.terms`` itself:
        callers only read the result.
        """
        return _realign(self.terms, _alignment(self.vars, merged))

    def _kernel_view(self, layout: tuple, align) -> "_KernelView":
        """This series' :class:`_KernelView` on a merged ``layout`` (its
        ``(name, den)`` per variable), re-keyed by ``align``
        (:func:`_alignment`), built on first use and kept for every later
        product on that layout."""
        try:
            views = self._views
        except AttributeError:
            views = {}
            object.__setattr__(self, "_views", views)
        view = views.get(layout)
        if view is None:
            view = views[layout] = _KernelView(_realign(self.terms, align))
        return view

    def __repr__(self):
        parts = []
        for exps, c in sorted(self.iter_terms())[:6]:
            mono = "*".join(
                f"{v.name}^{fmt_rat(e)}" for v, e in zip(self.vars, exps) if e
            )
            parts.append(fmt_rat(c) + (f"*{mono}" if mono else ""))
        more = "" if len(self.terms) <= 6 else f" + ... ({len(self.terms)} terms)"
        body = " + ".join(parts) if parts else "0"
        return f"<MultiSeries {body}{more}>"


def _alignment(vars: tuple[VarSpec, ...], merged: tuple[VarSpec, ...]):
    """How keys on ``vars`` are re-keyed onto ``merged``: ``None`` when they
    already fit, else the merged length and, per variable of ``vars``, its
    merged position and den multiplier."""
    if [(v.name, v.den) for v in vars] == [(v.name, v.den) for v in merged]:
        return None
    pos = {v.name: i for i, v in enumerate(merged)}
    return len(merged), tuple((pos[v.name], merged[pos[v.name]].den // v.den) for v in vars)


def _realign(terms, align) -> dict[tuple[int, ...], int | Fraction]:
    """``terms`` re-keyed by an :func:`_alignment` (``terms`` itself for
    ``None``)."""
    if align is None:
        return terms
    n, moves = align
    out = {}
    for k, c in terms.items():
        key = [0] * n
        for ki, (i, m) in zip(k, moves):
            key[i] = ki * m
        out[tuple(key)] = c
    return out


def _merged_vars(a_vars: tuple[VarSpec, ...], b_vars: tuple[VarSpec, ...],
                 bounds) -> tuple[VarSpec, ...]:
    """The variables of a result of series on ``a_vars`` and ``b_vars``,
    ``a_vars``' first: dens merge by lcm, and ``bounds(u, v)`` gives the
    floor and validity bound from the operands' specs.  An operand lacking
    a variable holds it at exponent 0: floor 0, fully known."""
    a_by = {v.name: v for v in a_vars}
    b_by = {v.name: v for v in b_vars}
    merged = []
    for n in [v.name for v in a_vars] + [v.name for v in b_vars if v.name not in a_by]:
        u = a_by.get(n) or VarSpec(n, b_by[n].den)
        v = b_by.get(n) or VarSpec(n, u.den)
        merged.append(VarSpec(n, lcm(u.den, v.den), *bounds(u, v)))
    return tuple(merged)


@lru_cache(maxsize=None)
def _merge_vars_add(a_vars: tuple[VarSpec, ...], b_vars: tuple[VarSpec, ...]) -> tuple:
    """The plan of a sum of series on ``a_vars`` and ``b_vars``: the
    :func:`_merged_vars` (the lower floor and bound), each operand's
    :func:`_alignment`, the merged ``kmax`` per variable, and whether an
    operand can hold a key beyond the merged box."""
    merged = _merged_vars(a_vars, b_vars, lambda u, v: (min(u.min_exp, v.min_exp),
                                                        min(u.valid, v.valid)))
    kmaxes = tuple(v.kmax() for v in merged)
    prune = False
    for vars in (a_vars, b_vars):
        own = {v.name: v for v in vars}
        for m, kmax in zip(merged, kmaxes):
            v = own.get(m.name)
            prune |= (0 if v is None else v.kmax() * (m.den // v.den)) > kmax
    return merged, _alignment(a_vars, merged), _alignment(b_vars, merged), kmaxes, prune


@lru_cache(maxsize=None)
def _merge_vars_mul(a_vars: tuple[VarSpec, ...], b_vars: tuple[VarSpec, ...]) -> tuple:
    """The plan of a product of series on ``a_vars`` and ``b_vars``: the
    :func:`_merged_vars` (floors add; each bound is the lower of one
    operand's bound plus the other's floor), their ``(name, den)`` layout
    (the key of the kernel views), each operand's :func:`_alignment` and
    the merged ``kmax`` per variable."""
    merged = _merged_vars(a_vars, b_vars, lambda u, v: (
        u.min_exp + v.min_exp, min(u.valid + v.min_exp, v.valid + u.min_exp)))
    return (merged, tuple((v.name, v.den) for v in merged), _alignment(a_vars, merged),
            _alignment(b_vars, merged), tuple(v.kmax() for v in merged))


def add(a: MultiSeries, b: MultiSeries) -> MultiSeries:
    """Coefficientwise sum; validity is the pointwise minimum.  The result is
    scanned for keys beyond the merged box only when the cached plan of the
    two operand layouts (:func:`_merge_vars_add`) says one can be there."""
    merged, align_a, align_b, kmaxes, prune = _merge_vars_add(a.vars, b.vars)
    res = _realign(a.terms, align_a) if align_a else a.terms.copy()
    for k, c in _realign(b.terms, align_b).items():
        cur = res.get(k)
        s = c if cur is None else cur + c
        if not s:
            res.pop(k, None)
        else:
            res[k] = s
    if prune and any(map(gt, map(max, zip(*res)), kmaxes)):
        res = {k: c for k, c in res.items() if not any(map(gt, k, kmaxes))}
    return MultiSeries._of(merged, res)


def negate(a: MultiSeries) -> MultiSeries:
    return MultiSeries._of(a.vars, {k: -c for k, c in a.terms.items()})


def scalar_mul(c, a: MultiSeries) -> MultiSeries:
    c = _exact(c)
    return MultiSeries._of(a.vars, {k: c * v for k, v in a.terms.items()} if c else {})


def _scaled(c: int | Fraction, l: int) -> int:
    """``l*c`` as an int, for ``l`` a multiple of its denominator."""
    return c.numerator * (l // c.denominator)


class _KernelView:
    """A series' terms as :func:`mul` reads them on one merged variable
    layout: the aligned terms, the lcm of their denominators, the sorted
    exponents held per variable (so also the minima and maxima) and, per
    variable, the gcd of the gaps between them (0 where one is held).  Per
    packing (grid steps and strides) it keeps, built on first use, the trie
    of the series as a right operand and its collected rooms."""

    __slots__ = ("terms", "lcm", "held", "gaps", "_right")

    def __init__(self, terms):
        self.terms = terms
        self.lcm = lcm(*{c.denominator for c in terms.values()})
        self.held = [sorted(set(col)) for col in zip(*terms)]
        self.gaps = [gcd(*map(sub, h[1:], h[:-1])) for h in self.held]
        self._right: dict[tuple, tuple] = {}

    def right(self, packing: tuple) -> tuple[tuple, dict]:
        """``(trie, rooms)``: the terms as a trie, a ``(sorted exponents,
        children)`` pair per level whose last level's children are the packed
        ``(packed key, a)`` terms, and a dict from rounded room to the flat
        list of terms it selects, filled by :func:`mul`.  ``packing`` is
        ``(steps, strides)``: a key packs as the sum of ``(k // step) *
        stride``, and the coefficient ``a`` is scaled to an int by ``lcm``."""
        right = self._right.get(packing)
        if right is None:
            l, terms, (steps, strides) = self.lcm, self.terms, packing
            trie = ([], [])
            for k in sorted(terms):
                keys, kids = trie
                for ki in k[:-1]:
                    if not keys or keys[-1] != ki:
                        keys.append(ki)
                        kids.append(([], []))
                    keys, kids = kids[-1]
                keys.append(k[-1])
                kids.append((sum(map(times, map(floordiv, k, steps), strides)),
                             _scaled(terms[k], l)))
            right = self._right[packing] = (trie, {})
        return right


def mul(a: MultiSeries, b: MultiSeries) -> MultiSeries:
    """Truncated Cauchy product with validity propagation; the terms come
    out in ascending key order.

    Each operand is scaled by the lcm of its denominators first, so the inner
    loop works on ints with exponent tuples packed into single ints; a
    result term comes out an int when the scale divides it, else a reduced
    ``Fraction``.  Each variable packs onto a grid that spans the sums of
    held exponents: it starts at the sum of the operands' lowest held
    exponents, steps by the gcd of both operands' gaps between held
    exponents (theta series step by 4 or 8 in q and s) and ends at the
    lower of ``kmax`` and the sum of the highest.  When the grid's volume is
    at most the pair count, the pairs accumulate into a dense list read
    back in grid order; otherwise (a gapped operand such as ``1 + x +
    x^(10^6)``) into a dict read back in sorted packed order.  Both orders
    are ascending key order.

    Pairs are pruned against the result's validity box before any product
    is formed, and a product whose lowest exponents already sum past
    ``kmax`` in some variable returns empty before anything is packed: in
    the Neumann series of ``period_matrix`` most products land wholly above
    the ``eps`` truncation (339 of 472 at (12, 6)).  The right operand is
    indexed as a trie with one sorted level per variable, so a left term's
    room (``kmax - k``) selects a bisected prefix at every level.  Rooms are
    rounded down, per variable, to an exponent the right operand holds (so
    none exceeds its maximum); left terms with equal rounded rooms select
    the same right terms, so each rounded room's candidates are collected
    into one flat list.

    Each operand keeps its aligned terms per merged layout, and a right
    operand its trie and room lists per packing (:class:`_KernelView`),
    reused by every later product that packs the same way, as the repeated
    products of the Neumann series do; terms are immutable, so a kept view
    never goes stale.  The left operand is packed afresh in each product.
    The merged variables come from the cached plan of the two operand
    layouts (:func:`_merge_vars_mul`).
    """
    merged, layout, align_a, align_b, kmaxes = _merge_vars_mul(a.vars, b.vars)
    if a.is_zero() or b.is_zero():
        return MultiSeries._of(merged, {})
    if not merged:
        (ca,), (cb,) = a.terms.values(), b.terms.values()
        c = ca * cb
        return MultiSeries._of(merged, {(): c} if c else {})
    va, vb = a._kernel_view(layout, align_a), b._kernel_view(layout, align_b)
    if any(ha[0] + hb[0] > m for m, ha, hb in zip(kmaxes, va.held, vb.held)):
        return MultiSeries._of(merged, {})
    steps = tuple(gcd(ga, gb) or 1 for ga, gb in zip(va.gaps, vb.gaps))
    ranges = [range(ha[0] + hb[0], min(m, ha[-1] + hb[-1]) + 1, g)
              for m, ha, hb, g in zip(kmaxes, va.held, vb.held, steps)]
    strides = [1] * len(ranges)
    for i in range(len(ranges) - 1, 0, -1):
        strides[i - 1] = strides[i] * len(ranges[i])
    volume = strides[0] * len(ranges[0])
    packing = steps, tuple(strides)
    # a's exponents and b's are each one residue mod g, so a pair's packed
    # keys sum to its grid cell plus this origin
    off = sum((ha[0] // g + hb[0] // g) * st
              for ha, hb, g, st in zip(va.held, vb.held, steps, strides))
    trie, rooms = vb.right(packing)

    # a left exponent's room in each variable, rounded down to the nearest
    # exponent the right operand holds there (or to one below them all):
    # left terms with equal rounded rooms select the same right terms
    rounded = []
    for m, held_a, held_b in zip(kmaxes, va.held, vb.held):
        held = [held_b[0] - 1, *held_b]
        rounded.append({ka: held[max(bisect_right(held, m - ka), 1) - 1] for ka in held_a})
    dense = volume <= len(a.terms) * len(b.terms)
    acc = [0] * volume if dense else defaultdict(int)
    la = va.lcm
    for k, c in va.terms.items():
        room = tuple(map(getitem, rounded, k))
        items = rooms.get(room)
        if items is None:
            items = [trie]
            for r in room:
                items = [kid for keys, kids in items for kid in kids[:bisect_right(keys, r)]]
            rooms[room] = items
        p1 = sum(map(times, map(floordiv, k, steps), strides)) - off
        a1 = _scaled(c, la)
        for p2, a2 in items:
            acc[p1 + p2] += a1 * a2
    if dense:
        cells = zip(product(*ranges), acc)
    else:
        decode = [(r, st, len(r)) for r, st in zip(ranges, strides)]
        cells = [(tuple([r[p // st % n] for r, st, n in decode]), acc[p]) for p in sorted(acc)]
    scale = va.lcm * vb.lcm
    return MultiSeries._of(merged, {key: _ratio(x, scale) for key, x in cells if x})


def pow_int(a: MultiSeries, n: int) -> MultiSeries:
    """``a**n`` for integer ``n >= 0`` (binary powering, truncation kept)."""
    if n < 0:
        raise DomainError("negative powers need PrefSeries.invert")
    result = None
    base = a
    while n:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    if result is None:
        return MultiSeries.constant(1, a.vars)
    return result


def _check_nilpotent(a: MultiSeries) -> None:
    zero_key = (0,) * len(a.vars)
    for k in a.terms:
        if k == zero_key:
            raise NonNilpotentExponent("constant term must vanish")
        if any(ki < 0 for ki in k):
            raise NonNilpotentExponent("negative exponents are not nilpotent")
    for i, v in enumerate(a.vars):
        if any(k[i] for k in a.terms) and is_unbounded(v.valid):
            raise TruncationUnderflow(
                f"exp/inversion in {v.name} needs a finite validity bound"
            )


def exp_series(a: MultiSeries) -> MultiSeries:
    """``sum a^k / k!`` for a series with vanishing constant term, term by
    term until a power truncates to zero."""
    _check_nilpotent(a)
    result = term = MultiSeries.constant(1, a.vars)
    k = 0
    while True:
        k += 1
        term = scalar_mul(Fraction(1, k), mul(term, a))
        if term.is_zero():
            return result
        result = add(result, term)


def coeff(a: MultiSeries, exps: dict) -> int | Fraction:
    """Coefficient at the given exponents (a variable left out of ``exps``
    is read at exponent 0).

    Raises :class:`UnknownCoefficient` outside the validity region and
    :class:`DomainError` for a name that is not a variable of the series.
    """
    unknown = set(exps).difference(v.name for v in a.vars)
    if unknown:
        raise DomainError(f"no variable {sorted(unknown)} in a series on "
                          f"{[v.name for v in a.vars]}")
    key = []
    for v in a.vars:
        e = Fraction(exps.get(v.name, 0))
        if e >= v.valid:
            raise UnknownCoefficient(
                f"{v.name}^{e} is at or beyond validity {fmt_rat(v.valid)}"
            )
        k = e * v.den
        key.append(k.numerator if k.denominator == 1 else None)
    if None in key:
        return 0  # off-grid exponent inside the validity region
    return a.terms.get(tuple(key), 0)


def _symmetric_power_polys(bmax: int) -> list[list[int]]:
    """Coefficient lists (in u) of r^b + r^-b, via the three-term recursion
    p_{b+1} = (u+2) p_b - p_{b-1} with p_0 = 2, p_1 = u + 2."""
    polys = [[2], [2, 1]]
    while len(polys) <= bmax:
        prev, cur = polys[-2], polys[-1]
        nxt = [0] * (len(cur) + 1)
        for j, c in enumerate(cur):
            nxt[j] += 2 * c
            nxt[j + 1] += c
        for j, c in enumerate(prev):
            nxt[j] -= c
        polys.append(nxt)
    return polys


def r_to_u(a: MultiSeries) -> MultiSeries:
    """Rewrite a series symmetric under ``r <-> 1/r`` as a polynomial in
    ``u = r + 1/r - 2``."""
    i = a.var_index("r")
    v = a.vars[i]
    if not is_unbounded(v.valid):
        raise UnknownCoefficient("r->u rewriting needs every r-coefficient")
    groups: dict[tuple[int, ...], dict[int, int | Fraction]] = {}
    for k, c in a.terms.items():
        if k[i] % v.den:
            raise FractionalExponentUnsupported(
                f"r-exponent {Fraction(k[i], v.den)} is not an integer"
            )
        rest = k[:i] + k[i + 1:]
        groups.setdefault(rest, {})[k[i] // v.den] = c
    bmax = 0
    for rest, slots in groups.items():
        for b, c in slots.items():
            if slots.get(-b, 0) != c:
                raise AsymmetryError(
                    f"coefficient mismatch between r^{b} and r^{-b}"
                )
            bmax = max(bmax, abs(b))
    polys = _symmetric_power_polys(bmax)
    res: dict[tuple[int, ...], int | Fraction] = {}
    for rest, slots in groups.items():
        ucoeffs: dict[int, int | Fraction] = {}
        for b, c in slots.items():
            if b < 0:
                continue
            poly = polys[b]
            scale = c if b else c * Fraction(1, 2)
            for j, pc in enumerate(poly):
                if pc:
                    ucoeffs[j] = ucoeffs.get(j, 0) + scale * pc
        for j, c in ucoeffs.items():
            if c:
                res[rest + (j,)] = c
    return MultiSeries._of(_distinct(a.vars[:i] + a.vars[i + 1:] + (VarSpec("u"),)), res)


def _with_var(a: MultiSeries, name: str, den: int) -> MultiSeries:
    """``a`` on one more variable, ``name`` (absent from ``a``), held at
    exponent 0: floor 0 and fully known, as a product would merge it."""
    return MultiSeries._of(a.vars + (VarSpec(name, den),),
                           {k + (0,): c for k, c in a.terms.items()})


def shift_var(a: MultiSeries, name: str, amount) -> MultiSeries:
    """Multiply by the exact monomial ``name**amount`` (bounds shift along)."""
    amount = Fraction(amount)
    if not amount:
        return a
    if not a.has_var(name):
        a = _with_var(a, name, amount.denominator)
    i = a.var_index(name)
    v = a.vars[i]
    den = lcm(v.den, amount.denominator)
    if den != v.den:
        a = a.with_den(name, den)
        v = a.vars[i]
    dk = int(amount * v.den)
    new_vars = list(a.vars)
    new_vars[i] = VarSpec(v.name, v.den, v.min_exp + amount, v.valid + amount)
    return MultiSeries._of(
        tuple(new_vars), {k[:i] + (k[i] + dk,) + k[i + 1:]: c for k, c in a.terms.items()}
    )


def q_log_deriv(a: MultiSeries, name: str) -> MultiSeries:
    """``x d/dx`` applied to the series (exponents are unchanged); zero for
    a series without x."""
    if not a.has_var(name):
        return MultiSeries.zero(a.vars)
    i = a.var_index(name)
    den = a.vars[i].den
    return MultiSeries._of(a.vars, {
        k: c * Fraction(k[i], den) for k, c in a.terms.items() if k[i]
    })


# ---------------------------------------------------------------------------
# PrefSeries


class PrefSeries:
    """A :class:`MultiSeries` times an exact monomial prefactor.

    The prefactor holds one rational exponent per variable (for factors such
    as ``eps**(-C/12)`` or ``q**(1/24)``), so the body can stay on a coarse
    exponent grid and, for units, keep an invertible constant term.
    """

    __slots__ = ("prefactor", "body")

    def __init__(self, body: MultiSeries, prefactor: dict[str, Fraction] | None = None):
        pref = {}
        for name, e in (prefactor or {}).items():
            e = Fraction(e)
            if e:
                pref[name] = e
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "prefactor", MappingProxyType(pref))

    __setattr__ = __delattr__ = _read_only

    @staticmethod
    def coerce(x) -> "PrefSeries":
        if isinstance(x, PrefSeries):
            return x
        if isinstance(x, MultiSeries):
            return PrefSeries(x)
        return PrefSeries(MultiSeries.constant(x))

    def __repr__(self):
        pref = "*".join(f"{n}^{fmt_rat(e)}" for n, e in sorted(self.prefactor.items()))
        return f"<PrefSeries {pref or '1'} * {self.body!r}>"

    # -- arithmetic ------------------------------------------------------

    def mul(self, other) -> "PrefSeries":
        other = PrefSeries.coerce(other)
        pref = dict(self.prefactor)
        for n, e in other.prefactor.items():
            pref[n] = pref.get(n, _ZERO) + e
        return PrefSeries(mul(self.body, other.body), pref)

    def scalar(self, c) -> "PrefSeries":
        return PrefSeries(scalar_mul(c, self.body), self.prefactor)

    def shift(self, name: str, amount) -> "PrefSeries":
        """Multiply by the monomial ``name**amount`` (prefactor only)."""
        amount = Fraction(amount)
        pref = dict(self.prefactor)
        pref[name] = pref.get(name, _ZERO) + amount
        return PrefSeries(self.body, pref)

    def _aligned_bodies(self, other: "PrefSeries") -> tuple[dict, MultiSeries, MultiSeries]:
        """``(common, body_a, body_b)``: the two series over one common
        prefactor (the per-variable minimum), the excess of each pushed into
        its body.  The names come in ``self``'s order, then ``other``'s new
        ones, so neither order depends on string hashing."""
        names = [*self.prefactor, *(n for n in other.prefactor if n not in self.prefactor)]
        common = {n: min(self.prefactor.get(n, _ZERO), other.prefactor.get(n, _ZERO))
                  for n in names}
        bodies = []
        for s in (self, other):
            body = s.body
            for n, e in common.items():
                body = shift_var(body, n, s.prefactor.get(n, _ZERO) - e)
            bodies.append(body)
        return common, *bodies

    def add(self, other) -> "PrefSeries":
        common, a, b = self._aligned_bodies(PrefSeries.coerce(other))
        return PrefSeries(add(a, b), common)

    def invert(self) -> "PrefSeries":
        """Geometric-series inversion; the prefactor is negated.

        With ``x = 1 - body/c0`` the inverse is ``sum x^k / c0``, summed as
        the product of ``1 + x^(2^i)``: ``x`` is squared until the square
        truncates to zero, so ``Delta^-1`` to ``q^81`` takes 13 products
        instead of 81.
        """
        c0 = self.body.constant_term()
        if not c0 or any(k < 0 for key in self.body.terms for k in key):
            raise NotAUnit("body has no invertible constant term")
        inverse = Fraction(1, c0)
        x = add(MultiSeries.constant(1, self.body.vars), scalar_mul(-inverse, self.body))
        _check_nilpotent(x)
        result = add(MultiSeries.constant(1, x.vars), x)
        while True:
            x = mul(x, x)
            if x.is_zero():
                break
            result = mul(result, add(MultiSeries.constant(1, x.vars), x))
        return PrefSeries(scalar_mul(inverse, result),
                          {n: -e for n, e in self.prefactor.items()})

    def pow_int(self, n: int) -> "PrefSeries":
        if n < 0:
            return self.invert().pow_int(-n)
        pref = {k: e * n for k, e in self.prefactor.items()}
        return PrefSeries(pow_int(self.body, n), pref)

    # -- queries ---------------------------------------------------------

    def coeff(self, exps: dict) -> int | Fraction:
        """Coefficient at absolute exponents (prefactor included)."""
        body = self.body
        rel = dict(exps)
        for n, e in self.prefactor.items():
            if not body.has_var(n):
                body = _with_var(body, n, 1)
            rel[n] = Fraction(rel.get(n, 0)) - e
        return coeff(body, rel)

    def leading_exponents(self) -> dict[str, Fraction]:
        """Sound per-variable lower bounds on the exponents this series can
        contain: prefactor plus min(lowest stored exponent, validity bound).

        Variables along which the series provably has no content are omitted.
        """
        lead = dict(self.prefactor)
        for i, v in enumerate(self.body.vars):
            # a stored exponent lies below the validity bound
            stored = [k[i] for k in self.body.terms]
            floor = Fraction(min(stored), v.den) if stored else v.valid
            if not is_unbounded(floor):
                lead[v.name] = lead.get(v.name, _ZERO) + floor
        return lead

    def rename_vars(self, mapping: dict[str, str]) -> "PrefSeries":
        return PrefSeries(
            self.body.rename_vars(mapping),
            {mapping.get(n, n): e for n, e in self.prefactor.items()},
        )

    def q_log_deriv(self, name: str) -> "PrefSeries":
        """``x d/dx`` including the prefactor exponent."""
        p = self.prefactor.get(name)
        body = q_log_deriv(self.body, name)
        if p:
            body = add(body, scalar_mul(p, self.body))
        return PrefSeries(body, self.prefactor)

    def cap_absolute_valid(self, name: str, bound: Fraction) -> "PrefSeries":
        """Lower the validity of one variable, measured in absolute
        (prefactor-included) exponents."""
        rel = bound - self.prefactor.get(name, _ZERO)
        body = self.body
        if not body.has_var(name):
            body = _with_var(body, name, 1)
        if rel < body.spec(name).valid:
            body = body.with_validity(**{name: rel})
        return PrefSeries(body, self.prefactor)


def substituted_validity(valid: Fraction, lead: Fraction, floor: Fraction) -> Fraction:
    """Absolute validity in a variable y left by substituting g for x in f
    when f is known only below x^valid.

    The unknown tail x^k (k >= valid) becomes g^k, whose y-exponents are at
    least ``valid*lead`` (``lead``, g's leading y-exponent, is positive),
    times a coefficient of f whose y-exponents are at least ``floor``, the
    Laurent floor of y in f's remaining body (0 where y is absent).
    """
    return valid * lead + min(_ZERO, floor)


def substitute(f: MultiSeries | PrefSeries, var: str, g: PrefSeries,
               ahead: tuple[dict, dict] | None = None) -> PrefSeries:
    """Homomorphic substitution of a series for one variable.

    ``var`` must occur in the body of ``f`` only, at nonnegative integer
    powers: a negative power of it, or a prefactor holding it, raises
    :class:`DomainError`, and a fractional power
    :class:`FractionalExponentUnsupported`.  The prefactor exponents of the
    other variables pass through, as do the remaining body variables.
    If ``f`` has finite validity in ``var``, the unknown tail must be ordered
    away: every leading exponent of ``g`` must be nonnegative with at least
    one strictly positive, and the result's validity is capped accordingly
    (:func:`substituted_validity`).

    ``ahead = (weights, bounds)`` makes this a step of a chain wanted only
    below the absolute ``bounds[y]``; ``weights[x][y]`` is the least
    y-exponent that the later step for x adds per unit of x's power (its
    hat's leads); neither g nor the prefactor of f may hold such an x
    (:class:`DomainError`).  Each term of c_e is raised in y by
    what the later steps add past the room below ``bounds[y]``, :func:`mul`
    prunes the pairs past its box (Brent and Kung, J. ACM 25, 1978) and the
    keys are lowered back.  A term with no pair left keeps one, times c0^e
    (c0 g's constant term), so that later steps see every power, variable
    and prefactor of the plain chain; g^e is not formed for such terms
    alone.  They and the pruned pairs land past the bounds, where the last
    step (its f holds no x) caps its result: the chain is the plain chain
    below the bounds.
    """
    f = PrefSeries.coerce(f)
    if var in f.prefactor:
        raise DomainError(f"the prefactor holds {var}, which is substituted in the body only")
    body = f.body
    if not body.has_var(var):
        return f
    g = PrefSeries.coerce(g)
    lead = g.leading_exponents()
    i = body.var_index(var)
    v = body.vars[i]
    rest_vars = body.vars[:i] + body.vars[i + 1:]
    groups: dict[int, dict] = {}
    for k, c in body.terms.items():
        if k[i] % v.den:
            raise FractionalExponentUnsupported(
                f"{var}-exponent {Fraction(k[i], v.den)} is not an integer"
            )
        if k[i] < 0:
            raise DomainError(f"{var}^{k[i] // v.den} is a negative power")
        groups.setdefault(k[i] // v.den, {})[k[:i] + k[i + 1:]] = c
    finite_tail = not is_unbounded(v.valid)
    if finite_tail:
        if any(e < 0 for e in lead.values()) or not any(e > 0 for e in lead.values()):
            raise TruncationUnderflow(
                f"substitution for {var} cannot be ordered away: leading "
                f"exponents {lead} against validity {fmt_rat(v.valid)}"
            )
    power_cache: dict[int, PrefSeries] = {0: PrefSeries.coerce(1)}

    def g_power(e: int) -> PrefSeries:
        if e not in power_cache:
            power_cache[e] = g_power(e - 1).mul(g)
        return power_cache[e]

    if ahead is not None:
        weights, bounds = ahead
        if any(g.body.has_var(x) or x in g.prefactor or x in f.prefactor for x in weights):
            raise DomainError(f"the series for {var} or the prefactor of the series it is "
                              "substituted in holds a variable that a later step replaces")
        names = [v.name for v in rest_vars]
        # per later variable the coefficients hold: position, den, weights
        later = [(names.index(x), rest_vars[names.index(x)].den, w)
                 for x, w in weights.items() if x in names]

    def product(e: int) -> PrefSeries:
        """g**e * c_e; with the look-ahead of ``ahead`` where g**e has a
        constant term c0 for the dead terms and some term is raised."""
        c0 = g.body.constant_term() ** e
        if ahead is None or not c0:
            return g_power(e).mul(PrefSeries(MultiSeries._of(rest_vars, groups[e])))
        # the variables of g**e, formed or not
        g_vars = reduce(lambda vs, _: _merge_vars_mul(vs, g.body.vars)[0], range(e), ())
        pref = {n: x * e for n, x in g.prefactor.items()}
        # c_e also on the bounded variables only g**e holds, at exponent 0:
        # the product's variables are still the plain product's
        c_vars = rest_vars + tuple(VarSpec(v.name, v.den) for v in g_vars
                                   if v.name in bounds and v.name not in names)
        merged, _, _, align, kmaxes = _merge_vars_mul(g_vars, c_vars)
        at = {v.name: j for j, v in enumerate(merged)}
        low = {v.name: v.kmin() * merged[at[v.name]].den // v.den for v in g_vars}
        # per bounded y: its positions, den ratio, the raise as a linear form
        # in the later powers, and the top raised key that keeps a pair
        ys, num = [], lambda x: _ratio(*x.as_integer_ratio())  # noqa: E731
        for i, v in enumerate(c_vars):
            if (y := v.name) in bounds:
                j, den = at[y], merged[at[y]].den
                room = bounds[y] - f.prefactor.get(y, _ZERO) - pref.get(y, _ZERO)
                ys.append((i, j, den // v.den, [num(w.get(y, _ZERO) * den / d) for _, d, w in later],
                           kmaxes[j] + 1 - ceil(room * den), kmaxes[j] - low.get(y, 0)))
        if all(base <= 0 and not any(lift) for *_, lift, base, _ in ys):  # nothing to raise
            return g_power(e).mul(PrefSeries(MultiSeries._of(rest_vars, groups[e])))
        ups: dict[tuple, tuple] = {}  # the raise per y, per later powers
        xs = [i for i, *_ in later]
        pad = (0,) * (len(c_vars) - len(rest_vars))
        live, dead = {}, {}
        for k, x in groups[e].items():
            powers = tuple(map(k.__getitem__, xs))
            if powers not in ups:
                ups[powers] = tuple(max(floor(sum(map(times, lift, powers), base)), 0) // m
                                    for _, _, m, lift, base, _ in ys)
            key = [*k, *pad]
            for r, (i, *_) in zip(ups[powers], ys):
                key[i] += r
            if all(key[i] * m <= top for i, _, m, *_, top in ys):
                live[tuple(key)] = x
            else:
                dead[k + pad] = x
        out = mul(g_power(e).body, MultiSeries._of(c_vars, live)) if live else None
        if not dead and not any(map(any, ups.values())):
            return PrefSeries(out, pref)
        body = {}
        xs = [at[names[i]] for i in xs]
        for key, x in out.terms.items() if out else ():
            key = list(key)
            for r, (_, j, m, *_) in zip(ups[tuple(map(key.__getitem__, xs))], ys):
                key[j] -= r * m
            body[tuple(key)] = x
        for key, x in _realign(dead, align).items() if later else ():
            if all(k <= m for k, m in zip(key, kmaxes)):
                body[key] = x * c0
        return PrefSeries(MultiSeries._of(merged, dict(sorted(body.items()))), pref)

    # summed term by term, so only one new term is held at a time
    terms = (product(e) for e in sorted(groups))
    result = (reduce(PrefSeries.add, terms) if groups
              else PrefSeries(MultiSeries.zero(rest_vars)))
    if finite_tail:
        floors = {v.name: v.min_exp for v in rest_vars}
        for name, le in lead.items():
            if le > 0:
                bound = substituted_validity(v.valid, le, floors.get(name, _ZERO))
                result = result.cap_absolute_valid(name, bound)
    for name, e in f.prefactor.items():
        result = result.shift(name, e)
    for y in [y for y in bounds if result.body.has_var(y)] if ahead and not later else ():
        result = result.cap_absolute_valid(y, bounds[y])
    return result


# ---------------------------------------------------------------------------
# comparison helpers


def equal_on_joint_validity(a, b) -> tuple[bool, str | None]:
    """Compare two series on the intersection of their validity regions.

    Returns ``(True, None)`` or ``(False, description_of_first_mismatch)``.
    """
    common, ba, bb = PrefSeries.coerce(a)._aligned_bodies(PrefSeries.coerce(b))
    merged, align_a, align_b, kmaxes, _ = _merge_vars_add(ba.vars, bb.vars)
    ta = _realign(ba.terms, align_a)
    tb = _realign(bb.terms, align_b)
    for key in sorted(set(ta) | set(tb)):
        if any(k > m for k, m in zip(key, kmaxes)):
            continue
        ca = ta.get(key, 0)
        cb = tb.get(key, 0)
        if ca != cb:
            mono = "*".join(
                f"{v.name}^{fmt_rat(Fraction(k, v.den) + common.get(v.name, _ZERO))}"
                for v, k in zip(merged, key)
            )
            return False, f"{mono or '1'}: {fmt_rat(ca)} != {fmt_rat(cb)}"
    return True, None


def assert_equal_on_joint_validity(a, b, context: str) -> None:
    ok, mismatch = equal_on_joint_validity(a, b)
    if not ok:
        raise InternalError(f"{context} at {mismatch}")


# ---------------------------------------------------------------------------
# canonical serialization


def _var_to_json(v: VarSpec) -> dict:
    # the format keeps the retired truncation bound "order", equal to "valid"
    return {
        "name": v.name,
        "den": v.den,
        "order": fmt_rat(v.valid),
        "valid": fmt_rat(v.valid),
        "min": fmt_rat(v.min_exp),
    }


def _field(d: dict, key: str, kind: type = object):
    try:
        value = d[key]
    except (KeyError, TypeError):
        raise DomainError(f"series JSON lacks {key!r}") from None
    if not isinstance(value, kind):
        raise DomainError(f"series JSON: {key!r} must be a {kind.__name__}, got {value!r}")
    return value


def _var_from_json(d: dict) -> VarSpec:
    name, valid = _field(d, "name"), parse_rat(_field(d, "valid"))
    if valid > parse_rat(_field(d, "order")):
        raise DomainError(f"{name}: valid {d['valid']} exceeds order {d['order']}")
    return VarSpec(name, _field(d, "den"), parse_rat(_field(d, "min")), valid)


def to_json_dict(s) -> dict:
    """Canonical JSON form: terms sorted by exponent tuple, rationals as
    decimal strings."""
    s = PrefSeries.coerce(s)
    body = s.body
    terms = []
    for key in sorted(body.terms):
        c = body.terms[key]
        # the format keeps the retired imaginary part "im", always "0"
        terms.append({
            "exp": [str(k) if v.den == 1 else fmt_rat(Fraction(k, v.den))
                    for k, v in zip(key, body.vars)],
            "re": fmt_rat(c),
            "im": "0",
        })
    return {
        "vars": [_var_to_json(v) for v in body.vars],
        "prefactor": {n: fmt_rat(e) for n, e in sorted(s.prefactor.items())},
        "terms": terms,
    }


def from_json_dict(d: dict) -> PrefSeries:
    """The series that :func:`to_json_dict` wrote; every key it writes is
    required, and an exponent given twice is refused."""
    vars = tuple(_var_from_json(v) for v in _field(d, "vars", list))
    terms = {}
    for t in _field(d, "terms", list):
        exps = _field(t, "exp", list)
        key = tuple(map(parse_rat, exps))
        if key in terms:
            raise DomainError(f"series JSON: exponent {exps} is given twice")
        c, im = parse_rat(_field(t, "re")), parse_rat(_field(t, "im"))
        if im:
            raise DomainError(f"series JSON: coefficient at {exps} is not real")
        terms[key] = c
    pref = {n: parse_rat(e) for n, e in _field(d, "prefactor", dict).items()}
    return PrefSeries(MultiSeries(vars, terms), pref)
