"""Numeric evaluation of the exact series and modular transformation checks.

Everything exact lives upstream; this module reinstates the 2*pi*i
normalizations, evaluates truncated series at complex points of the moduli
space, and verifies:

* the symplectic generator matrices and their action on the period matrix,
* the anomalous S-transformation of Ehat_2,
* the S1 covariance of the sewn period matrix,
* the (conjectured) S1 weight laws for the 24-boson genus-two partition
  function and the holomorphic correction, plus translation/reflection
  invariances.

Tolerances are derived, not fixed: each check estimates the first truncated
term from the series' own validity bounds and the magnitudes |q|, |eps| at
the evaluation point, and passes when the residual is below ten times that
estimate (and below any hard threshold the caller supplies).
"""

from __future__ import annotations

import cmath
from collections.abc import Mapping
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

# read-only: generators() hands out this table, and check_period_s1 uses it
_GENS = MappingProxyType({
    "S1": ((0, 0, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1)),
    "S2": ((1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0)),
    "T1": ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    "T2": ((1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1)),
    "U": ((1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    "V": ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1)),
})


def generators() -> Mapping[str, tuple[tuple[int, ...], ...]]:
    """The generator matrices S1, S2, T1, T2, U plus the reflection V, as
    4x4 integer rows."""
    return _GENS


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


def eval_series(series, logs: dict[str, complex]) -> complex:
    """Evaluate at the point given by per-variable logs (x^e = exp(e*log)).

    A variable missing from ``logs`` is evaluated at 0: terms with positive
    exponent drop out, negative exponents are a pole.
    """
    s = PrefSeries.coerce(series)
    body = s.body
    total = 0.0 + 0.0j
    # the exponent is k / den; int / int is correctly rounded, the same
    # float as float(Fraction(k, den))
    for key, c in body.terms.items():
        arg = 0.0 + 0.0j
        at_zero = False
        for v, k in zip(body.vars, key):
            if not k:
                continue
            lg = logs.get(v.name)
            if lg is None:
                if k < 0:
                    raise DomainError(f"pole: {v.name}^{Fraction(k, v.den)} evaluated at 0")
                at_zero = True
                break
            arg += k / v.den * lg
        if at_zero:
            continue
        total += complex(c) * cmath.exp(arg)
    arg = _prefactor_log(s.prefactor, logs)
    return 0.0 + 0.0j if arg is None else total * cmath.exp(arg)


def _prefactor_log(prefactor, logs: dict[str, complex]) -> complex | None:
    """Log of a prefactor at the point, or ``None`` where it vanishes (a
    missing variable is 0, as in :func:`eval_series`)."""
    arg = 0.0 + 0.0j
    for name, e in prefactor.items():
        lg = logs.get(name)
        if lg is None:
            if e > 0:
                return None
            raise DomainError(f"pole: {name}^{e} evaluated at 0")
        arg += float(e) * lg
    return arg


def truncation_bound(series, logs: dict[str, complex]) -> float:
    """Estimate of the first truncated contribution: for each variable with
    a finite validity bound v, (L1 norm of the top stored slice) * |x|^v.

    A variable missing from ``logs`` is 0, as in :func:`eval_series`: its
    truncated tail vanishes there if v > 0 and is a pole otherwise.
    """
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
            if v.valid > 0:
                continue
            raise DomainError(f"pole: the {v.name}-tail from {v.valid} on evaluated at 0")
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
    passed: bool
    residual: float
    bound: float
    point: dict
    extra: dict = field(default_factory=dict)

    def as_json_dict(self) -> dict:
        return {
            "check": self.name,
            "passed": bool(self.passed),
            "residual": float(self.residual),
            "derived_bound": float(self.bound),
            "point": {k: str(v) for k, v in self.point.items()},
            **{k: (str(v) if isinstance(v, complex) else v) for k, v in self.extra.items()},
        }


def check_ehat_anomaly(tau: complex, q_order: int) -> CheckResult:
    """Ehat_2 at -1/tau against tau^2 (Ehat_2(q) - 1/(2*pi*i*tau))."""
    if tau.imag <= 0:
        raise DomainError("need Im(tau) > 0")
    e2 = eisenstein_hat(2, q_order)
    lhs = eval_series(e2, tau_valuation(-1 / tau))
    rhs = tau * tau * (eval_series(e2, tau_valuation(tau)) - 1 / (TWO_PI_I * tau))
    residual = abs(lhs - rhs)
    bound = (truncation_bound(e2, tau_valuation(-1 / tau))
             + abs(tau) ** 2 * truncation_bound(e2, tau_valuation(tau))
             + 1e-13 * max(1.0, abs(lhs)))
    return CheckResult(
        "ehat-anomaly", residual < 10 * bound, residual, 10 * bound,
        {"tau": tau}, {"lhs": lhs, "rhs": rhs},
    )


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
    Omega12 -> -Omega12/Omega11, Omega22 -> Omega22 - Omega12^2/Omega11."""
    sew = period_matrix(q_order, eps_order)
    omega = omega_at(sew, ctx)
    ctx2 = ctx.transformed_s1()
    omega2 = omega_at(sew, ctx2)
    res = [[abs(x - y) for x, y in zip(row2, row)]
           for row2, row in zip(omega2, act(_GENS["S1"], omega))]
    residual = max(map(max, res))
    epsmax = max(abs(ctx.eps), abs(ctx2.eps))
    logs1, logs2 = ctx.valuation(), ctx2.valuation()
    qtail = sum(
        abs(cmath.exp(lg)) ** q_order for lg in
        (logs1["q1"], logs1["q2"], logs2["q1"])
    )
    bound = 4.0 * epsmax ** (eps_order + 1) + 8.0 * qtail + 1e-13
    return CheckResult(
        "period-s1", residual < 10 * bound, residual, 10 * bound,
        {"tau1": ctx.tau1, "tau2": ctx.tau2, "eps": ctx.eps},
        {"residual_11": res[0][0], "residual_12": res[0][1], "residual_22": res[1][1]},
    )


def _weight_target(target: str, q_order: int, eps_order: int):
    if target == "z24":
        return z2(CBoson(24), q_order).pref
    if target == "g2":
        return PrefSeries(g2_correction(q_order))
    if target == "delta10-sewing":
        d = delta10(max(4, min(q_order, 6)), max(4, min(q_order, 6)))
        return fourier_to_sewing(d.fourier_u, fourier_params(period_matrix(q_order, eps_order)))
    raise DomainError(f"unknown weight-check target {target!r}")


# (target, generator) -> exponent law: value of f(transformed)/f(original)
# under S1 expressed through Omega11 and tau1
_S1_LAWS = {
    "z24": lambda o11, tau1: tau1**2 / o11**12,
    "g2": lambda o11, tau1: (o11 / tau1) ** 2,
    "delta10-sewing": lambda o11, tau1: o11**10,
}


# generator -> the moved point, for the exact invariances of the
# pinching-parameter series
_INVARIANCES = {
    "T1": lambda c: EvalContext(c.tau1 + 1, c.tau2, c.eps),
    "T2": lambda c: EvalContext(c.tau1, c.tau2 + 1, c.eps),
    "V": lambda c: EvalContext(c.tau1, c.tau2, -c.eps),
}


def _relative_residual(lhs: complex, rhs: complex) -> float:
    scale = max(abs(lhs), abs(rhs))
    if not scale:
        raise DomainError("target vanishes at this point; relative residual undefined")
    return float(abs(lhs - rhs) / scale)


def check_weight(target: str, gamma: str, ctx: EvalContext,
                 q_order: int, eps_order: int) -> CheckResult:
    """Transformation law of a genus-two object under one generator.

    S1 uses the conjectured/derived laws through Omega11; T1, T2 and V are
    exact invariances of the pinching-parameter series.
    """
    series = _weight_target(target, q_order, eps_order)
    logs = ctx.valuation()
    base = eval_series(series, logs)
    if gamma == "S1":
        ctx2 = ctx.transformed_s1()
        lhs = eval_series(series, ctx2.valuation())
        sew = period_matrix(q_order, eps_order)
        o11 = omega_at(sew, ctx)[0][0]
        rhs = _S1_LAWS[target](o11, ctx.tau1) * base
        residual = _relative_residual(lhs, rhs)
        epsmax = max(abs(ctx.eps), abs(ctx2.eps))
        ev = min(float(v.valid) for v in series.body.vars if v.name == "eps")
        qv = min(float(v.valid) for v in series.body.vars if v.name in ("q1", "q2"))
        qmag = max(abs(cmath.exp(lg)) for lg in
                   (ctx2.valuation()["q1"], logs["q1"], logs["q2"]))
        bound = 4.0 * epsmax ** ev + 24.0 * qmag ** qv + 1e-12
    elif gamma in _INVARIANCES:
        lhs = eval_series(series, _INVARIANCES[gamma](ctx).valuation())
        residual = _relative_residual(lhs, base)
        bound = 1e-12
    else:
        raise DomainError(
            f"no finite-order law available for {target!r} under {gamma!r}"
        )
    return CheckResult(
        f"weight-{target}-{gamma}", residual < 10 * bound, residual, 10 * bound,
        {"tau1": ctx.tau1, "tau2": ctx.tau2, "eps": ctx.eps},
    )


def residual_scaling(target: str, ctx: EvalContext, q_order: int,
                     eps_order: int) -> tuple[float, CheckResult, CheckResult]:
    """Halving eps must reduce the S1 residual by roughly 2^4 = 16: the
    residual is dominated by the first missing eps order of the data."""
    big = check_weight(target, "S1", ctx, q_order, eps_order)
    half_ctx = EvalContext(ctx.tau1, ctx.tau2, ctx.eps / 2)
    small = check_weight(target, "S1", half_ctx, q_order, eps_order)
    ratio = big.residual / small.residual if small.residual else float("inf")
    return ratio, big, small
