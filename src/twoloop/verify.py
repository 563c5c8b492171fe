"""Numeric evaluation of the exact series and modular transformation checks.

Everything exact lives upstream; this module reinstates the 2*pi*i
normalizations, evaluates truncated series at complex points of the moduli
space, and verifies:

* the action of a symplectic matrix on the period matrix,
* the anomalous S-transformation of Ehat_2,
* the S1 covariance of the sewn period matrix,
* the (conjectured) S1 weight laws for the 24-boson genus-two partition
  function and the holomorphic correction, plus translation/reflection
  invariances.

Tolerances are derived, not fixed: each check estimates the first truncated
term from the series' own validity bounds and the magnitudes |q|, |eps| at
the evaluation point.  One verdict rule serves every check: the reported
bound is ten times that estimate, the check passes when the residual is
below it, and a check whose reported bound reaches the scale of what it
compares cannot fail, so it raises :class:`DomainError` instead of passing.
A variable that the evaluation point leaves out is 0 throughout: a
positive power of it vanishes, any other is a pole.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from .elliptic import eisenstein_hat
from .errors import DomainError, SingularDenominator
from .partition import CBoson, g2_correction, z2
from .series import PrefSeries, is_unbounded
from .sewing import SewingExpansion, fourier_params, fourier_to_sewing, period_matrix
from .siegel import delta10

TWO_PI_I = 2j * cmath.pi

#: A 2x2 complex matrix as rows, such as the period matrix Omega.
Mat2 = tuple[tuple[complex, complex], tuple[complex, complex]]

#: The generator S1 of Sp4(Z) as 4x4 integer rows, the one that
#: :func:`check_period_s1` acts with.
S1 = ((0, 0, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1))


def act(gamma, omega: Mat2) -> Mat2:
    """gamma[Omega] = (A Omega + B)(C Omega + D)^-1 on the Siegel half plane,
    for a 4x4 gamma and a 2x2 Omega given as rows."""
    def affine(r):  # rows r, r + 1 of gamma on Omega: A Omega + B or C Omega + D
        return [[row[0] * omega[0][j] + row[1] * omega[1][j] + row[2 + j] for j in (0, 1)]
                for row in gamma[r:r + 2]]

    (n11, n12), (n21, n22) = affine(0)
    (d11, d12), (d21, d22) = affine(2)
    det = d11 * d22 - d12 * d21
    if abs(det) < 1e-14:
        raise SingularDenominator("det(C*Omega + D) vanishes at this point")
    return (((n11 * d22 - n12 * d21) / det, (n12 * d11 - n11 * d12) / det),
            ((n21 * d22 - n22 * d21) / det, (n22 * d11 - n21 * d12) / det))


@dataclass(frozen=True)
class EvalContext:
    """A point of the pinching moduli space: Im(tau) > 0 and |eps| < 1."""

    tau1: complex
    tau2: complex
    eps: complex

    def __post_init__(self):
        if self.tau1.imag <= 0 or self.tau2.imag <= 0:
            raise DomainError("need Im(tau) > 0")
        if abs(self.eps) >= 1:
            raise DomainError("need |eps| < 1")

    def valuation(self) -> dict[str, complex]:
        """Map variable name -> log of its value.  q-type variables get the
        branch-free log 2*pi*i*tau; eps gets the principal log."""
        out = {"q1": TWO_PI_I * self.tau1, "q2": TWO_PI_I * self.tau2}
        if self.eps:
            out["eps"] = cmath.log(self.eps)
        return out

    def transformed_s1(self) -> "EvalContext":
        """The S1 rule on pinching parameters: tau1 -> -1/tau1,
        eps -> -eps/tau1 (tau2 fixed)."""
        return EvalContext(-1 / self.tau1, self.tau2, -self.eps / self.tau1)


def tau_valuation(tau: complex) -> dict[str, complex]:
    return {"q": TWO_PI_I * tau}


def _at_zero(name: str, power) -> None:
    """The rule for a variable missing from the logs: it is 0, so a positive
    ``power`` of it vanishes (the caller drops it) and any other is a pole."""
    if power <= 0:
        raise DomainError(f"pole: {name}^{power} evaluated at 0")


def eval_series(series, logs: dict[str, complex]) -> complex:
    """Evaluate at the point given by per-variable logs (x^e = exp(e*log));
    a variable missing from ``logs`` is 0 (:func:`_at_zero`)."""
    s = PrefSeries.coerce(series)
    body = s.body
    total = 0.0 + 0.0j
    # the exponent is k / den; int / int is correctly rounded, the same
    # float as float(Fraction(k, den))
    for key, c in body.terms.items():
        arg = 0.0 + 0.0j
        for v, k in zip(body.vars, key):
            if not k:
                continue
            lg = logs.get(v.name)
            if lg is None:
                _at_zero(v.name, Fraction(k, v.den))
                break
            arg += k / v.den * lg
        else:
            total += complex(c) * cmath.exp(arg)
    arg = _prefactor_log(s.prefactor, logs)
    return 0.0 + 0.0j if arg is None else total * cmath.exp(arg)


def _prefactor_log(prefactor, logs: dict[str, complex]) -> complex | None:
    """Log of a prefactor at the point, or ``None`` where it vanishes."""
    arg = 0.0 + 0.0j
    for name, e in prefactor.items():
        lg = logs.get(name)
        if lg is None:
            _at_zero(name, e)
            return None
        arg += float(e) * lg
    return arg


def truncation_bound(series, logs: dict[str, complex]) -> float:
    """Estimate of the first truncated contribution: for each variable with
    a finite validity bound v, (L1 norm of the top stored slice) * |x|^v.
    A variable missing from ``logs`` is 0: its tail x^v vanishes there
    (:func:`_at_zero`)."""
    s = PrefSeries.coerce(series)
    arg = _prefactor_log(s.prefactor, logs)
    if arg is None:
        return 0.0
    scale = abs(cmath.exp(arg))
    bound = 0.0
    for i, v in enumerate(s.body.vars):
        if is_unbounded(v.valid):
            continue
        if v.name not in logs:
            _at_zero(v.name, v.valid)
            continue
        x = abs(cmath.exp(logs[v.name]))
        slice_norm = 0.0
        top = max((k[i] for k in s.body.terms), default=0)
        for k, c in s.body.terms.items():
            if k[i] == top:
                slice_norm += abs(complex(c))
        bound += max(1.0, slice_norm) * x ** float(v.valid) * scale
    return 2.0 * bound


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    bound: float
    point: dict
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.residual < self.bound

    def as_json_dict(self) -> dict:
        return {
            "check": self.name,
            "passed": self.passed,
            "residual": float(self.residual),
            "derived_bound": float(self.bound),
            "point": {k: str(v) for k, v in self.point.items()},
            **{k: (str(v) if isinstance(v, complex) else v) for k, v in self.extra.items()},
        }


def _verdict(name: str, orders: str, residual: float, estimate: float, scale: float,
             point: dict, extra: dict | None = None) -> CheckResult:
    """Every check's result, by the verdict rule of the module docstring:
    ``estimate`` is the truncation estimate, ``scale`` the size of what is
    compared and ``orders`` names the truncation in a refusal."""
    bound = 10 * estimate
    if bound >= scale:
        raise DomainError(f"{name} check cannot fail at {orders}: bound {bound:.3g}")
    return CheckResult(name, residual, bound, point, extra or {})


def check_ehat_anomaly(tau: complex, q_order: int) -> CheckResult:
    """Ehat_2 at -1/tau against tau^2 (Ehat_2(q) - 1/(2*pi*i*tau)), on the
    scale max(|lhs|, |rhs|)."""
    if tau.imag <= 0:
        raise DomainError("need Im(tau) > 0")
    e2 = eisenstein_hat(2, q_order)
    lhs = eval_series(e2, tau_valuation(-1 / tau))
    rhs = tau * tau * (eval_series(e2, tau_valuation(tau)) - 1 / (TWO_PI_I * tau))
    estimate = (truncation_bound(e2, tau_valuation(-1 / tau))
                + abs(tau) ** 2 * truncation_bound(e2, tau_valuation(tau))
                + 1e-13 * max(1.0, abs(lhs)))
    return _verdict("ehat-anomaly", f"q-order {q_order}", abs(lhs - rhs), estimate,
                    max(abs(lhs), abs(rhs)), {"tau": tau}, {"lhs": lhs, "rhs": rhs})


def omega_at(sewing: SewingExpansion, ctx: EvalContext) -> Mat2:
    """Numeric period matrix from the sewing expansion (2*pi*i restored)."""
    logs = ctx.valuation()
    o11 = ctx.tau1 + eval_series(sewing.w11, logs) / TWO_PI_I
    o12 = eval_series(sewing.w12, logs) / TWO_PI_I
    o22 = ctx.tau2 + eval_series(sewing.w22, logs) / TWO_PI_I
    return ((o11, o12), (o12, o22))


def check_period_s1(ctx: EvalContext, q_order: int, eps_order: int) -> CheckResult:
    """The S1 rule on pinching parameters must induce the action of the
    generator S1 on the period matrix: Omega11 -> -1/Omega11,
    Omega12 -> -Omega12/Omega11, Omega22 -> Omega22 - Omega12^2/Omega11.
    The scale is 1."""
    sew = period_matrix(q_order, eps_order)
    omega = omega_at(sew, ctx)
    ctx2 = ctx.transformed_s1()
    omega2 = omega_at(sew, ctx2)
    res = [[abs(x - y) for x, y in zip(row2, row)]
           for row2, row in zip(omega2, act(S1, omega))]
    epsmax = max(abs(ctx.eps), abs(ctx2.eps))
    logs1, logs2 = ctx.valuation(), ctx2.valuation()
    qtail = sum(
        abs(cmath.exp(lg)) ** q_order for lg in
        (logs1["q1"], logs1["q2"], logs2["q1"])
    )
    return _verdict(
        "period-s1", f"q-order {q_order}, eps-order {eps_order}", max(map(max, res)),
        4.0 * epsmax ** (eps_order + 1) + 8.0 * qtail + 1e-13, 1.0,
        {"tau1": ctx.tau1, "tau2": ctx.tau2, "eps": ctx.eps},
        {"residual_11": res[0][0], "residual_12": res[0][1], "residual_22": res[1][1]},
    )


def _delta10_sewing(q_order: int, eps_order: int) -> PrefSeries:
    d = delta10(max(4, min(q_order, 6)), max(4, min(q_order, 6)))
    return fourier_to_sewing(d.fourier_u, fourier_params(period_matrix(q_order, eps_order)))


#: target -> (its series at (q_order, eps_order), its S1 law: the value of
#: f(transformed)/f(original) through Omega11 and tau1)
WEIGHT_TARGETS = MappingProxyType({
    "z24": (lambda q_order, eps_order: z2(CBoson(24), q_order).pref,
            lambda o11, tau1: tau1**2 / o11**12),
    "g2": (lambda q_order, eps_order: PrefSeries(g2_correction(q_order)),
           lambda o11, tau1: (o11 / tau1) ** 2),
    "delta10-sewing": (_delta10_sewing, lambda o11, tau1: o11**10),
})

#: generator -> the moved point, for the exact invariances of the
#: pinching-parameter series
INVARIANCES = MappingProxyType({
    "T1": lambda c: EvalContext(c.tau1 + 1, c.tau2, c.eps),
    "T2": lambda c: EvalContext(c.tau1, c.tau2 + 1, c.eps),
    "V": lambda c: EvalContext(c.tau1, c.tau2, -c.eps),
})


def _relative_residual(lhs: complex, rhs: complex) -> float:
    scale = max(abs(lhs), abs(rhs))
    if not scale:
        raise DomainError("target vanishes at this point; relative residual undefined")
    return float(abs(lhs - rhs) / scale)


def check_weight(target: str, gamma: str, ctx: EvalContext,
                 q_order: int, eps_order: int) -> CheckResult:
    """Transformation law of a genus-two object under one generator, as a
    relative residual on the scale 1.

    S1 uses the conjectured/derived laws of :data:`WEIGHT_TARGETS` through
    Omega11; the generators of :data:`INVARIANCES` are exact invariances of
    the pinching-parameter series.
    """
    series = _weight_target(target, q_order, eps_order)
    return _weight_residual(target, series, gamma, ctx, q_order, eps_order)


def _weight_target(target: str, q_order: int, eps_order: int) -> PrefSeries:
    """The series of a :data:`WEIGHT_TARGETS` entry at these orders."""
    if target not in WEIGHT_TARGETS:
        raise DomainError(f"unknown weight-check target {target!r}")
    return WEIGHT_TARGETS[target][0](q_order, eps_order)


def _weight_residual(target: str, series: PrefSeries, gamma: str, ctx: EvalContext,
                     q_order: int, eps_order: int) -> CheckResult:
    """:func:`check_weight` on the target's series, built once by the caller."""
    s1_law = WEIGHT_TARGETS[target][1]
    logs = ctx.valuation()
    base = eval_series(series, logs)
    if gamma == "S1":
        ctx2 = ctx.transformed_s1()
        lhs = eval_series(series, ctx2.valuation())
        sew = period_matrix(q_order, eps_order)
        o11 = omega_at(sew, ctx)[0][0]
        rhs = s1_law(o11, ctx.tau1) * base
        residual = _relative_residual(lhs, rhs)
        epsmax = max(abs(ctx.eps), abs(ctx2.eps))
        ev = min(float(v.valid) for v in series.body.vars if v.name == "eps")
        qv = min(float(v.valid) for v in series.body.vars if v.name in ("q1", "q2"))
        qmag = max(abs(cmath.exp(lg)) for lg in
                   (ctx2.valuation()["q1"], logs["q1"], logs["q2"]))
        estimate = 4.0 * epsmax ** ev + 24.0 * qmag ** qv + 1e-12
    elif gamma in INVARIANCES:
        lhs = eval_series(series, INVARIANCES[gamma](ctx).valuation())
        residual = _relative_residual(lhs, base)
        estimate = 1e-12
    else:
        raise DomainError(
            f"no finite-order law available for {target!r} under {gamma!r}"
        )
    return _verdict(f"weight-{target}-{gamma}", f"q-order {q_order}, eps-order {eps_order}",
                    residual, estimate, 1.0,
                    {"tau1": ctx.tau1, "tau2": ctx.tau2, "eps": ctx.eps})


def residual_scaling(target: str, ctx: EvalContext, q_order: int,
                     eps_order: int) -> tuple[float, CheckResult, CheckResult]:
    """Halving eps must reduce the S1 residual by roughly 2^4 = 16: the
    residual is dominated by the first missing eps order of the data.  The
    target's series is built once and evaluated at both points."""
    series = _weight_target(target, q_order, eps_order)
    big = _weight_residual(target, series, "S1", ctx, q_order, eps_order)
    half_ctx = EvalContext(ctx.tau1, ctx.tau2, ctx.eps / 2)
    small = _weight_residual(target, series, "S1", half_ctx, q_order, eps_order)
    ratio = big.residual / small.residual if small.residual else float("inf")
    return ratio, big, small
