"""Genus-two Siegel modular forms as exact Fourier expansions.

The weight-10 cusp form is the Maass lift of the index-1 Jacobi cusp form
phi_{10,1} = eta^18 theta_1^2 (see :func:`_maass_lift`); its coefficients
are divisor sums of the coefficients of one genus-one series, with no
genus-two product.  The ten even half-integral characteristic theta
series generate the weight-12 form (a quarter of the sum of their 24th
powers) and a validated weight-4 candidate (a quarter of the sum of their
8th powers), and, as 2^-12 times the product of their squares, the
independent route to the weight-10 form that the acceptance suite checks
the lift against.  The theta powers come from one generator that raises
only the four Theta[a; 0] to the n-th power: Theta[a; b] is Theta[a; 0]
under Omega -> Omega + B (see :func:`_translate`), so each of the other six
powers is an exact coefficientwise translate, checked against the ten theta
series themselves.  One finishing step then checks each form's
coefficients and Fourier support and rewrites it in u.

The genus-two Eisenstein series of weights 4 and 6 are ingested from their
reference Fourier data, which is only known on the box of q- and
s-exponents <= 1; the validity machinery of :mod:`twoloop.series` keeps that
limitation attached to every derived quantity.

V-symmetric forms are canonically stored as polynomials in u = r + 1/r - 2.
A builder returns the series its callers read: a theta series its r-form,
the reference data, the weight-12 combination and the Fourier template their
u-forms, and the forms that one finishing step checks in both (Delta10, F12
and the weight-4 candidate) a :class:`SiegelForm` holding the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, isqrt, lcm
from operator import mul as times

from .elliptic import (
    _QUARTER_PHASES,
    _phase,
    _theta_exponents,
    covariant_derivative,
    dedekind_eta,
    eisenstein,
    eisenstein_hat,
)
from .errors import DomainError, InternalError, NotAUnit, ValidationFailed
from .series import (
    GR_ZERO,
    GaussRat,
    MultiSeries,
    PrefSeries,
    VarSpec,
    add,
    equal_on_joint_validity,
    is_unbounded,
    mul,
    pow_int,
    r_to_u,
    scalar_mul,
    shift_var,
)
from .sewing import eps2_bracket, torus_pair

F = Fraction
HALF = F(1, 2)

QVAR, RVAR, SVAR, UVAR = "q", "r", "s", "u"


@dataclass(frozen=True)
class Characteristic:
    """Half-integral theta characteristic [a; b], entries in {0, 1/2}."""

    a: tuple[Fraction, Fraction]
    b: tuple[Fraction, Fraction]

    def __post_init__(self):
        for x in self.a + self.b:
            if x not in (F(0), HALF):
                raise DomainError(f"characteristic entry {x} not in {{0, 1/2}}")

    @property
    def is_even(self) -> bool:
        parity = 4 * (self.a[0] * self.b[0] + self.a[1] * self.b[1])
        return parity % 2 == 0

    def label(self) -> str:
        fmt = lambda x: "0" if x == 0 else "1/2"  # noqa: E731
        return (f"[{fmt(self.a[0])},{fmt(self.a[1])};"
                f"{fmt(self.b[0])},{fmt(self.b[1])}]")


def all_characteristics() -> tuple[Characteristic, ...]:
    vals = (F(0), HALF)
    return tuple(
        Characteristic((a1, a2), (b1, b2))
        for a1 in vals for a2 in vals for b1 in vals for b2 in vals
    )


def even_characteristics() -> tuple[Characteristic, ...]:
    evens = tuple(c for c in all_characteristics() if c.is_even)
    if len(evens) != 10:
        raise InternalError(f"expected 10 even characteristics, got {len(evens)}")
    return evens


@dataclass(frozen=True)
class SiegelForm:
    """A V-symmetric Siegel modular form given by truncated Fourier data:
    ``fourier`` in (q, r, s) and ``fourier_u`` its rewriting in (q, s, u)."""

    fourier: MultiSeries
    fourier_u: MultiSeries


@lru_cache(maxsize=None)
def theta_char(char: Characteristic, q_order: int, s_order: int) -> MultiSeries:
    """Theta series with characteristic: the lattice sum over n in Z^2 of

        q^((n1+a1)^2/2) * r^((n1+a1)(n2+a2)) * s^((n2+a2)^2/2)
          * exp(2*pi*i*((n1+a1)b1 + (n2+a2)b2)).

    Odd characteristics cancel in pairs and return the zero series.
    """
    a1, a2 = char.a
    b1, b2 = char.b
    ys = _theta_exponents(a2, s_order)
    terms: dict[tuple[Fraction, ...], GaussRat] = {}
    for x in _theta_exponents(a1, q_order):
        for y in ys:
            key = (x * x / 2, x * y, y * y / 2)
            terms[key] = terms.get(key, GaussRat(0)) + _phase(x * b1 + y * b2)
    rmin = min((k[1] for k, c in terms.items() if c), default=F(0))
    vars = (
        VarSpec(QVAR, 8, F(0), q_order),
        VarSpec(RVAR, 4, min(rmin, F(0))),
        VarSpec(SVAR, 8, F(0), s_order),
    )
    return MultiSeries(vars, terms)


def assert_support_condition(ms: MultiSeries) -> None:
    """Fourier support of a full modular group Siegel form: the coefficient
    of q^a r^b s^c can be nonzero only if a, c >= 0 and b^2 <= 4ac.  A
    u-form, one in (q, s, u), is checked with its u-exponent for b.  On the
    scaled keys ka/dq, kb/db, kc/ds that is kb^2 dq ds <= 4 ka kc db^2."""
    iq, ib, ic = (ms.var_index(v) for v in (QVAR, UVAR if ms.has_var(UVAR) else RVAR, SVAR))
    dq, db, ds = (ms.vars[i].den for i in (iq, ib, ic))
    for key in ms.terms:
        ka, kb, kc = key[iq], key[ib], key[ic]
        if ka < 0 or kc < 0 or kb * kb * dq * ds > 4 * ka * kc * db * db:
            raise InternalError(f"support condition violated at {_exponents(ms, key)}")


def _exponents(ms: MultiSeries, key: tuple[int, ...]) -> tuple[Fraction, ...]:
    return tuple(F(k, v.den) for k, v in zip(key, ms.vars))


def _translate(ms: MultiSeries, b: tuple[Fraction, Fraction]) -> MultiSeries:
    """The series in (q, r, s) under Omega -> Omega + B, for the integer
    matrix B = [[2 b1, 4 b1 b2], [4 b1 b2, 2 b2]] of a characteristic's b.

    The coefficient of q^eq r^er s^es is multiplied by
    exp(2*pi*i*(B11 eq + B12 er + B22 es)), which must be a power of i.
    The map keeps every exponent and is a ring homomorphism, so it takes
    Theta[a; 0]^n to Theta[a; b]^n for every even characteristic [a; b].
    On the scaled keys, with L the lcm of the dens, four times the phase
    exponent is (weights . key) / L for integer weights.
    """
    b1, b2 = b
    shift = {QVAR: 2 * b1, RVAR: 4 * b1 * b2, SVAR: 2 * b2}
    big = lcm(*(v.den for v in ms.vars))
    weights = [int(4 * shift[v.name] * (big // v.den)) for v in ms.vars]
    terms = {}
    for key, c in ms.terms.items():
        quarters, rest = divmod(sum(map(times, weights, key)), big)
        if rest:
            raise DomainError(f"translate phase at {key} is not a multiple of 1/4")
        terms[key] = c * _QUARTER_PHASES[quarters % 4]
    return MultiSeries._of(ms.vars, terms)


def _even_theta_powers(n: int, q_order: int, s_order: int):
    """Yield Theta[a; b]^n for the ten even characteristics, in
    :func:`even_characteristics` order.

    That order groups the characteristics by a, with b = 0 first, so only
    the four Theta[a; 0] are raised to the n-th power; every other power is
    the translate of its Theta[a; 0]^n by the b of its characteristic.
    That the same translate takes Theta[a; 0] exactly to Theta[a; b] is
    checked for each of the six b != 0.
    """
    for char in even_characteristics():
        theta = theta_char(char, q_order, s_order)
        if not any(char.b):
            top, base, power = char, theta, pow_int(theta, n)
            yield power
            continue
        got = _translate(base, char.b)
        if got.vars != theta.vars or got.terms != theta.terms:
            raise InternalError(
                f"Theta{char.label()} is not the translate of Theta{top.label()}")
        yield _translate(power, char.b)


def _theta_form(label: str, scale: Fraction, series: MultiSeries) -> SiegelForm:
    """The form ``scale * series``, exposed only once its coefficients are
    real integers and its r-form and u-form both meet the support
    condition."""
    rform = scalar_mul(scale, series)
    dens = [v.den for v in rform.vars]
    for key, (_, y, _) in rform.terms.items():
        if y or any(k % d for k, d in zip(key, dens)):
            what = "residual imaginary part" if y else "fractional exponent"
            raise InternalError(f"{label}: {what} at {_exponents(rform, key)}")
    rform = rform.simplify_dens()
    assert_support_condition(rform)
    uform = r_to_u(rform)
    assert_support_condition(uform)
    return SiegelForm(rform, uform)


def _phi10_1(q_valid: int) -> MultiSeries:
    """The Jacobi cusp form phi_{10,1} = eta^18 theta_1^2 of weight 10 and
    index 1 in (q, r), r standing for zeta = exp(2*pi*i*z), known below
    q^(q_valid + 3/4): q (r - 2 + 1/r) + O(q^2).

    theta_1(tau, z) is taken as the sum over x in Z + 1/2 of
    (-1)^(x - 1/2) q^(x^2/2) r^x = q^(1/8) (r^(1/2) - r^(-1/2)) + ...
    """
    theta = {(x * x / 2, x): -1 if (x - HALF) % 2 else 1
             for x in _theta_exponents(HALF, q_valid)}
    rmin = min(x for _, x in theta)
    theta = MultiSeries((VarSpec(QVAR, 8, F(0), q_valid), VarSpec(RVAR, 2, rmin)), theta)
    eta18 = dedekind_eta(q_valid).pow_int(18)
    phi = mul(mul(theta, theta), eta18.body)
    return shift_var(phi, QVAR, eta18.prefactor[QVAR]).simplify_dens()


def _maass_lift(c: MultiSeries, weight: int, q_order: int, s_order: int) -> MultiSeries:
    """The Maass lift of an index-1 Jacobi cusp form of weight k, given as
    its (q, r) series ``c`` with integer exponents: the Siegel form whose
    coefficient of q^n r^r s^m is the sum over d | gcd(n, r, m) of
    d^(k-1) c((4nm - r^2)/d^2) (Eichler and Zagier, *The Theory of Jacobi
    Forms*, 1985, section 6), in (q, r, s) below q^q_order s^s_order and
    exact in r.

    c(D) is read from ``c`` at 4n - r^2 = D for every D up to
    Dmax = 4 (q_order - 1)(s_order - 1), so ``c`` must be known through
    q^(Dmax/4).  Raises :class:`InternalError` if a coefficient of ``c``
    is not a function of 4n - r^2 on that range, or is nonzero at some
    4n - r^2 <= 0.
    """
    top = (q_order - 1) * (s_order - 1)
    if ([(v.name, v.den) for v in c.vars] != [(QVAR, 1), (RVAR, 1)]
            or c.vars[0].valid <= top or not is_unbounded(c.vars[1].valid)):
        raise InternalError(f"Maass lift needs c(n, r) on integers, known through q^{top}")
    terms = c.terms
    if any(4 * n - r * r <= 0 for n, r in terms):
        raise InternalError("Maass lift of a form that is not a Jacobi cusp form")
    cd = {}
    for n in range(1, top + 1):
        reach = isqrt(4 * n - 1)
        for r in range(-reach, reach + 1):
            got = terms.get((n, r), GR_ZERO)
            if cd.setdefault(4 * n - r * r, got) != got:
                raise InternalError(f"c({n}, {r}) is not a function of 4n - r^2")
    out = {}
    for n in range(1, q_order):
        for m in range(1, s_order):
            reach = isqrt(4 * n * m)
            for r in range(-reach, reach + 1):
                g, disc = gcd(n, r, m), 4 * n * m - r * r
                a = sum((d ** (weight - 1) * cd.get(disc // (d * d), GR_ZERO)
                         for d in range(1, g + 1) if not g % d), GR_ZERO)
                if a:
                    out[(n, r, m)] = a
    rmin = min((r for _, r, _ in out), default=0)
    return MultiSeries._of(
        (VarSpec(QVAR, 1, F(0), q_order), VarSpec(RVAR, 1, rmin), VarSpec(SVAR, 1, F(0), s_order)),
        out)


@lru_cache(maxsize=None)
def delta10(q_order: int, s_order: int) -> SiegelForm:
    """The weight-10 cusp form: the Maass lift of phi_{10,1} = eta^18
    theta_1^2 (Eichler and Zagier, *The Theory of Jacobi Forms*, 1985,
    section 6), equal to 2^-12 times the product of the squares of the ten
    even theta series.  The declared Laurent floor of r is the lowest
    stored r-exponent: r is exact, so every coefficient in the (q, s) box
    is known."""
    if q_order < 2 or s_order < 2:
        raise DomainError("delta10 needs orders >= 2")
    phi = _phi10_1((q_order - 1) * (s_order - 1))
    return _theta_form("Delta_10", F(1), _maass_lift(phi, 10, q_order, s_order))


@lru_cache(maxsize=None)
def f12_siegel(q_order: int, s_order: int) -> SiegelForm:
    """The weight-12 form: a quarter of the sum of the 24th powers of the
    ten even theta series."""
    if q_order < 2 or s_order < 2:
        raise DomainError("f12 needs orders >= 2")
    return _theta_form("F_12", F(1, 4),
                       reduce(add, _even_theta_powers(24, q_order, s_order)))


@lru_cache(maxsize=None)
def psi_reference(k2: int) -> MultiSeries:
    """Reference Fourier data for the genus-two Eisenstein series of weight
    4 or 6, as its u-form.

    The data is E_2k(q) E_2k(s) plus the corrections 14400*q*s*u +
    240*q*s*u^2 (weight 4) or 42336*q*s*u - 504*q*s*u^2 (weight 6), and is
    valid only on the box of q- and s-exponents <= 1; everything outside
    that box is recorded as unknown, not zero.
    """
    if k2 == 4:
        cu, cu2 = 14400, 240
    elif k2 == 6:
        cu, cu2 = 42336, -504
    else:
        raise DomainError("reference data exists for weights 4 and 6 only")
    eq = eisenstein(k2, 2).body
    base = mul(eq, eq.rename_vars({QVAR: SVAR}))
    corr = MultiSeries(
        (VarSpec(QVAR, valid=2), VarSpec(SVAR, valid=2), VarSpec(UVAR)),
        {(F(1), F(1), F(1)): cu, (F(1), F(1), F(2)): cu2},
    )
    return add(base, corr)


@lru_cache(maxsize=None)
def psi4_theta_candidate(q_order: int, s_order: int) -> SiegelForm:
    """Weight-4 candidate: a quarter of the sum of the 8th powers of the ten
    even theta series.

    Exposed only after it reproduces the weight-4 reference data on the
    reference's entire validity region (including the 240*q*s*u^2 term that
    older published tables omitted).
    """
    form = _theta_form("psi_4_theta", F(1, 4),
                       reduce(add, _even_theta_powers(8, q_order, s_order)))
    ok, mismatch = equal_on_joint_validity(form.fourier_u, psi_reference(4))
    if not ok:
        raise ValidationFailed(f"theta candidate for psi_4 disagrees at {mismatch}")
    return form


def t2_coefficients(k: int) -> tuple[Fraction, Fraction]:
    """The exact rational weights (c1, c2) of the weight-12 combination for
    a self-dual theory with N1 = 24k weight-one states."""
    c1 = F(1927 + 6 * k - k * k, 1152)
    c2 = F(1457 - 78 * k + k * k, 6336)
    return c1, c2


@lru_cache(maxsize=None)
def t2_selfdual(k: int) -> MultiSeries:
    """c1 psi_4^3 + c2 psi_6^2 + (1 - c1 - c2) F_12 for dual Coxeter number
    k >= 0, as its u-form.  It is known only where the reference data is,
    on the box of q- and s-exponents <= 1, so F_12 enters at orders (2, 2)."""
    if k < 0:
        raise DomainError("k must be a nonnegative integer")
    c1, c2 = t2_coefficients(k)
    return add(
        add(scalar_mul(c1, pow_int(psi_reference(4), 3)),
            scalar_mul(c2, pow_int(psi_reference(6), 2))),
        scalar_mul(1 - c1 - c2, f12_siegel(2, 2).fourier_u),
    )


ALLOWED_PATTERN_WEIGHTS = (4, 6, 8, 12)


def fk_fourier_pattern(a, weight: int) -> MultiSeries:
    """The observed Fourier template, as a u-form, for a weight-k Siegel form
    that factorizes into f_k(q1) f_k(q2) with f_k = 1 + a q + O(q^2):

        (1 + a q)(1 + a s) + (a^2/k) q s u + a q s u^2 + O(q^2, s^2).
    """
    if weight not in ALLOWED_PATTERN_WEIGHTS:
        raise DomainError(f"pattern stated for weights {ALLOWED_PATTERN_WEIGHTS}")
    a = F(a)
    vars = (VarSpec(QVAR, valid=2), VarSpec(SVAR, valid=2), VarSpec(UVAR))
    terms = {
        (F(0), F(0), F(0)): GaussRat(1),
        (F(1), F(0), F(0)): GaussRat(a),
        (F(0), F(1), F(0)): GaussRat(a),
        (F(1), F(1), F(0)): GaussRat(a * a),
        (F(1), F(1), F(1)): GaussRat(a * a / weight),
        (F(1), F(1), F(2)): GaussRat(a),
    }
    return MultiSeries(vars, terms)


def fk_eps_expansion(f: PrefSeries, weight: int) -> PrefSeries:
    """The pinching-parameter expansion of the weight-k Siegel form that
    degenerates to f_k(q1) f_k(q2), for f = f_k of weight k:

        f(q1) f(q2) (1 + ((1/k)(Df/f)(q1)(Df/f)(q2)
                          - k Ehat_2(q1) Ehat_2(q2)) eps^2 + O(eps^4)),

    with D the weight-raising covariant derivative.  Odd eps powers vanish
    by the eps -> -eps reflection, so the series is returned valid through
    eps^3."""
    if weight <= 0:
        raise DomainError("weight must be positive")
    if f.body.constant_term().is_zero() or f.prefactor:
        raise NotAUnit("f_k must be a unit q-series")
    order = int(min(v.valid for v in f.body.vars))
    lf = covariant_derivative(f, weight).mul(f.invert())
    ee = torus_pair(eisenstein_hat(2, order))
    term = torus_pair(lf).scalar(F(1, weight)) - ee.scalar(weight)
    bracket = eps2_bracket(1, term)
    return torus_pair(f).mul(bracket)
