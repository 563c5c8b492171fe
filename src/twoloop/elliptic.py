"""Genus-one building blocks.

Bernoulli numbers, the Eisenstein series E_2k and their rescalings
Ehat_2k = -(B_2k/(2k)!) E_2k, the Dedekind eta product and the cusp form
Delta = eta^24, the weight-raising covariant derivative
D = q d/dq + k*Ehat_2, the three Jacobi theta series, the weight-12 theta
combination f12, and the normalized modular invariant
J = q^-1 + 0 + 196884 q + ...

Every form here is a plain :class:`~twoloop.series.PrefSeries` built once,
in the variable ``q``; a modular weight is not stored with it but passed
where it is used (:func:`covariant_derivative`).  Genus-two code gets its
two torus factors f(q1) f(q2) by renaming, through
:func:`twoloop.sewing.torus_pair`, rather than by building f twice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt

from .errors import DomainError, ValidationFailed
from .series import (
    GaussRat,
    MultiSeries,
    PrefSeries,
    VarSpec,
    add,
    is_unbounded,
    pow_int,
    scalar_mul,
)

F = Fraction
HALF = F(1, 2)


@lru_cache(maxsize=None)
def _bernoulli_upto(n: int) -> tuple[Fraction, ...]:
    # invert sum_{k>=0} t^k/(k+1)!  (the generating function of t/(e^t - 1))
    inv = [F(0)] * (n + 1)
    inv[0] = F(1)
    for m in range(1, n + 1):
        acc = F(0)
        for j in range(1, m + 1):
            acc += inv[m - j] * F(1, factorial(j + 1))
        inv[m] = -acc
    return tuple(inv[k] * factorial(k) for k in range(n + 1))


def bernoulli(n: int) -> Fraction:
    """The n-th Bernoulli number for even n >= 0."""
    if n < 0 or n % 2:
        raise DomainError(f"Bernoulli number requested for odd/negative {n}")
    return _bernoulli_upto(n)[n]


def sigma(power: int, n: int) -> int:
    """Divisor power sum sigma_power(n), by direct divisor enumeration."""
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**power
            e = n // d
            if e != d:
                total += e**power
        d += 1
    return total


@lru_cache(maxsize=None)
def eisenstein(k2: int, q_order: int) -> PrefSeries:
    """E_2k = 1 - (4k/B_2k) * sum sigma_{2k-1}(n) q^n, for k2 = 2k >= 2."""
    if k2 < 2 or k2 % 2:
        raise DomainError(f"Eisenstein weight must be even and >= 2, got {k2}")
    b = bernoulli(k2)
    terms = {(F(0),): GaussRat(1)}
    for n in range(1, q_order):
        terms[(F(n),)] = GaussRat(-F(2 * k2, 1) / b * sigma(k2 - 1, n))
    body = MultiSeries((VarSpec("q", valid=q_order),), terms)
    return PrefSeries(body)


@lru_cache(maxsize=None)
def eisenstein_hat(k2: int, q_order: int) -> PrefSeries:
    """Ehat_2k = -(B_2k/(2k)!) E_2k; constant term -B_2k/(2k)!."""
    return eisenstein(k2, q_order).scalar(-bernoulli(k2) / factorial(k2))


def euler_product(q_order: int) -> MultiSeries:
    """prod_{n>=1} (1 - q^n) below q^q_order, by Euler's pentagonal number
    theorem: the sum over k in Z of (-1)^k q^(k(3k-1)/2)."""
    terms = {(0,): GaussRat(1)}
    k = 1
    while (e := k * (3 * k - 1) // 2) < q_order:
        sign = GaussRat(-1 if k % 2 else 1)
        terms[(e,)] = sign
        if e + k < q_order:  # -k gives k(3k+1)/2
            terms[(e + k,)] = sign
        k += 1
    return MultiSeries._of((VarSpec("q", valid=q_order),), terms)


@lru_cache(maxsize=None)
def dedekind_eta(q_order: int) -> PrefSeries:
    """eta = q^(1/24) * prod (1 - q^n)."""
    return PrefSeries(euler_product(q_order), {"q": F(1, 24)})


@lru_cache(maxsize=None)
def delta_cusp(q_order: int) -> PrefSeries:
    """Delta = eta^24, with prefactor q^1 and unit body."""
    return dedekind_eta(q_order).pow_int(24)


@lru_cache(maxsize=None)
def j_function(q_order: int) -> PrefSeries:
    """J = E_4^3/Delta - 744 = q^-1 + 0 + 196884 q + ...

    Built from the ring generators rather than a table; the construction is
    only exposed after its constant term and q-coefficient are checked.
    """
    if q_order < 2:
        raise DomainError("J needs q_order >= 2 for its validation")
    inner = q_order + 1
    num = eisenstein(4, inner).pow_int(3)
    j = num.mul(delta_cusp(inner).invert())
    j = j.add(PrefSeries.coerce(-744))
    if j.coeff({"q": 0}) != GaussRat(0) or j.coeff({"q": 1}) != GaussRat(196884):
        raise ValidationFailed(
            "J construction failed its expansion check: "
            f"const={j.coeff({'q': 0})!r}, q={j.coeff({'q': 1})!r}"
        )
    return j


def covariant_derivative(f: PrefSeries, weight: int) -> PrefSeries:
    """D f = q df/dq + k Ehat_2 f for f of weight k: a form of weight k + 2."""
    out = f.q_log_deriv("q")
    body = f.body
    if weight and not body.is_zero():
        if not body.has_var("q") or is_unbounded(body.spec("q").valid):
            raise DomainError("covariant derivative needs a truncated q-series")
        e2 = eisenstein_hat(2, int(body.spec("q").valid))
        out = out.add(e2.mul(f).scalar(weight))
    return out


#: exp(2*pi*i*k/4) for k = 0, 1, 2, 3: the only phases theta series carry.
_QUARTER_PHASES = (GaussRat(1), GaussRat(0, 1), GaussRat(-1), GaussRat(0, -1))


def _phase(x: Fraction) -> GaussRat:
    """exp(2*pi*i*x) for x a multiple of 1/4."""
    k = 4 * x
    if k.denominator != 1:
        raise DomainError(f"phase exponent {x} is not a multiple of 1/4")
    return _QUARTER_PHASES[k.numerator % 4]


def _theta_exponents(a: Fraction, order: int) -> list[Fraction]:
    """x = n + a over the integers n with x^2/2 < order, in the order
    n = 0, -1, 1, -2, ...: the exponents of a theta series truncated below
    q^order.  For a in [0, 1), |x| < sqrt(2*order) keeps n within
    -isqrt(2*order) - 1 <= n <= isqrt(2*order)."""
    reach = isqrt(2 * order)
    xs = (m + a for n in range(reach + 1) for m in (n, -n - 1))
    return [x for x in xs if x * x < 2 * order]


def theta_jacobi(a, b, q_order: int) -> PrefSeries:
    """theta[a;b](q) = sum_n q^((n+a)^2/2) exp(2*pi*i*(n+a)*b).

    The odd characteristic a = b = 1/2 cancels in pairs and yields the zero
    series.
    """
    a, b = Fraction(a), Fraction(b)
    if a not in (F(0), HALF) or b not in (F(0), HALF):
        raise DomainError("characteristics must lie in {0, 1/2}")
    terms: dict[tuple[Fraction, ...], GaussRat] = {}
    for x in _theta_exponents(a, q_order):
        key = (x * x / 2,)
        terms[key] = terms.get(key, GaussRat(0)) + _phase(x * b)
    return PrefSeries(MultiSeries((VarSpec("q", 8, F(0), q_order),), terms))


EVEN_JACOBI_CHARS = ((F(0), F(0)), (F(0), HALF), (HALF, F(0)))


def f12_elliptic(q_order: int) -> MultiSeries:
    """f12 = (1/2) * sum of the 24th powers of the three even theta series
    = 1 + 1104 q + ..."""
    total = None
    for a, b in EVEN_JACOBI_CHARS:
        th = theta_jacobi(a, b, q_order)
        p = pow_int(th.body, 24)
        total = p if total is None else add(total, p)
    half = scalar_mul(F(1, 2), total)
    return half.simplify_dens()
