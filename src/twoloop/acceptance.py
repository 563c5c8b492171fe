"""The acceptance suite: every headline identity, run end to end.

Each criterion is a standalone callable returning a :class:`CriterionResult`;
:func:`run_all` executes them in order.  Exact criteria compare rationals,
numeric criteria carry both a derived tolerance and the hard threshold they
must beat.  Three verifications that cannot be reproduced at this scale are
reported explicitly as ``not_checked`` rather than silently skipped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .elliptic import delta_cusp, eisenstein, j_function
from .errors import TwoLoopError
from .lattice import builtin_lattice, enumerate_shells, theta_g1, theta_g2
from .partition import CBoson, g2_correction, t1_selfdual, z2
from .sewing import (
    ehat2_bracket,
    fk_eps_expansion,
    fourier_params,
    fourier_to_sewing,
    period_matrix,
    torus_pair,
)
from .series import (
    MultiSeries,
    PrefSeries,
    coeff,
    equal_on_joint_validity,
    fmt_rat,
    mul,
    scalar_mul,
)
from .siegel import (
    _even_theta_powers,
    assert_support_condition,
    delta10,
    f12_siegel,
    psi4_theta_candidate,
    psi_reference,
    t2_selfdual,
)
from .verify import EvalContext, check_ehat_anomaly, check_period_s1, residual_scaling

F = Fraction

PASS, FAIL, NOT_CHECKED = "pass", "fail", "not checked"


@dataclass(frozen=True)
class CriterionResult:
    ident: str
    name: str
    status: str
    detail: str = ""
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def line(self) -> str:
        mark = {PASS: "PASS", FAIL: "FAIL", NOT_CHECKED: "NOT CHECKED"}[self.status]
        tail = f"  [{self.detail}]" if self.detail and self.status != PASS else ""
        return f"[{mark:>11}] {self.ident}: {self.name}{tail}"

    def as_json_dict(self) -> dict:
        return {"id": self.ident, "name": self.name, "status": self.status,
                "detail": self.detail, "seconds": round(self.seconds, 3)}


def _expect(uform: MultiSeries, table: dict) -> str | None:
    """Compare the coefficients of ``uform`` with ``table``, which maps
    (q, s, u) exponents to expected values."""
    for key, want in table.items():
        value = coeff(uform, dict(zip("qsu", key)))
        if value != want:
            return f"{key}: expected {want}, got {fmt_rat(value)}"
    return None


def c01_delta10_table() -> str | None:
    d = delta10(3, 3)
    table = {
        (1, 1, 1): 1, (2, 1, 1): -24, (1, 2, 1): -24, (2, 2, 1): 576,
        (2, 1, 2): -2, (1, 2, 2): -2, (2, 2, 2): 144, (2, 2, 3): -16,
    }
    bad = _expect(d.fourier_u, table)
    if bad:
        return bad
    # the Maass lift against the independent theta route
    theta = scalar_mul(F(1, 2**12), reduce(mul, _even_theta_powers(2, 3, 3)))
    ok, why = equal_on_joint_validity(d.fourier, theta)
    return None if ok else f"Maass lift != theta product at {why}"


def c02_f12_table() -> str | None:
    f = f12_siegel(2, 2).fourier_u
    table = {(1, 0, 0): 1104, (0, 1, 0): 1104, (1, 1, 1): 101568, (1, 1, 2): 1104}
    bad = _expect(f, table)
    if bad:
        return bad
    if coeff(f, {"q": 1, "s": 1, "u": 1}) != F(1104**2, 12):
        return "101568 != 1104^2/12"
    return None


def c03_psi4_candidate() -> str | None:
    # the builder compares the candidate with psi_reference(4) and raises
    # ValidationFailed on a mismatch
    cand = psi4_theta_candidate(3, 3).fourier_u
    if coeff(cand, {"q": 1, "s": 1, "u": 2}) != 240:
        return "corrected q*s*u^2 coefficient is wrong"
    return None


def c04_eisenstein_observations() -> str | None:
    p4, p6 = psi_reference(4), psi_reference(6)
    a4, a6 = coeff(p4, {"q": 1}), coeff(p6, {"q": 1})
    qsu = {"q": 1, "s": 1, "u": 1}
    if coeff(p4, qsu) != F(a4 * a4, 4):
        return "weight 4: q*s*u coefficient is not a^2/4"
    if coeff(p6, qsu) != F(a6 * a6, 6):
        return "weight 6: q*s*u coefficient is not a^2/6"
    return None


def c05_sewing_factorization() -> str | None:
    d = delta10(4, 4)
    params = fourier_params(period_matrix(4, 5))
    lhs = fourier_to_sewing(d.fourier_u, params)
    rhs = torus_pair(delta_cusp(4)).mul(ehat2_bracket(-10, 4)).shift("eps", 2)
    ok, why = equal_on_joint_validity(lhs, rhs)
    return None if ok else why


def _g2_identity(q_order: int, eps_order: int) -> str | None:
    """Delta10(sewing) * G2 * Z2(24-boson) = 1 + O(eps^4), exactly.  G2 is
    conjectural (through the ghost), so the identity is too.

    The sewing data is computed one order beyond ``eps_order`` so that the
    product's propagated validity reaches eps_order itself; eps_order = 4
    then verifies every coefficient below eps^4 against 1.
    """
    params = fourier_params(period_matrix(q_order, eps_order + 1))
    d10 = fourier_to_sewing(delta10(q_order, q_order).fourier_u, params)
    product = d10.mul(PrefSeries(g2_correction(q_order))).mul(z2(CBoson(24), q_order).pref)
    if product.prefactor:
        return f"vacuum exponents did not cancel: {dict(product.prefactor)}"
    ok, why = equal_on_joint_validity(product, PrefSeries.coerce(1))
    if not ok:
        return why
    eps_valid = min((v.valid for v in product.body.vars if v.name == "eps"), default=F(0))
    if eps_valid < eps_order:
        return f"identity only verified below eps^{eps_valid}"
    return None


def c06_g2_consistency() -> str | None:
    return _g2_identity(4, 4)


def c07_t2_moonshine() -> str | None:
    table = {(0, 0, 0): 1, (1, 0, 0): -24, (0, 1, 0): -24, (1, 1, 0): 576,
             (1, 1, 1): 48, (1, 1, 2): -24}
    return _expect(t2_selfdual(0), table)


def c08_t2_leech() -> str | None:
    return _expect(t2_selfdual(1), {(1, 0, 0): 0, (1, 1, 1): 0})


def c09_fk_cross_oracle() -> str | None:
    order = 3
    params = fourier_params(period_matrix(order, 2))
    # weight 4: theta-constant route against the torus-data route
    cand = psi4_theta_candidate(order, order)
    theta8 = PrefSeries(theta_g1(builtin_lattice("E8"), order))
    ok, why = equal_on_joint_validity(
        fourier_to_sewing(cand.fourier_u, params), fk_eps_expansion(theta8, 4))
    if not ok:
        return f"weight 4: {why}"
    # weight 12: the Leech combination against Delta*(J+24)
    params2 = fourier_params(period_matrix(2, 2))
    ok, why = equal_on_joint_validity(
        fourier_to_sewing(t2_selfdual(1), params2),
        fk_eps_expansion(t1_selfdual(24, 2), 12))
    if not ok:
        return f"weight 12: {why}"
    return None


def c10_lattice_oracle() -> str | None:
    e8 = builtin_lattice("E8")
    shells = enumerate_shells(e8, 4)
    e4 = eisenstein(4, 3)
    if shells.count(2) != 240 or e4.coeff({"q": 1}) != 240:
        return "norm-2 shell does not match the weight-4 q coefficient"
    if shells.count(4) != 2160 or e4.coeff({"q": 2}) != 2160:
        return "norm-4 shell does not match the weight-4 q^2 coefficient"
    th = theta_g2(e8, 3, 3)
    if coeff(th, {"q": 1, "r": 2, "s": 1}) != 240:
        return "q*s*r^2 coefficient of the lattice theta is not 240"
    try:
        assert_support_condition(th)
        assert_support_condition(delta10(3, 3).fourier)
        assert_support_condition(f12_siegel(2, 2).fourier)
        assert_support_condition(psi4_theta_candidate(3, 3).fourier)
    except TwoLoopError as exc:
        return str(exc)
    return None


def c11_partition_identities() -> str | None:
    # z2 checks its state sum against the closed form for every boson
    # dimension; the tensor law then ties the dimensions together
    zs = {c: z2(CBoson(c), 3).pref for c in (1, 2, 8, 24, 26)}
    for c in (2, 8, 24, 26):
        ok, why = equal_on_joint_validity(zs[1].pow_int(c), zs[c])
        if not ok:
            return f"tensor law fails for C={c}: {why}"
    return None


def c12_j_validation() -> str | None:
    j = j_function(2)
    if j.coeff({"q": 0}) != 0:
        return "constant term is not 0"
    if j.coeff({"q": 1}) != 196884:
        return "q coefficient is not 196884"
    return None


def c13_numeric_checks() -> str | None:
    res = check_ehat_anomaly(0.2 + 1.1j, 40)
    if not res.passed or res.residual >= 1e-9:
        return f"anomaly residual {res.residual:.2e} (bound {res.bound:.2e})"
    ctx = EvalContext(0.3 + 1.2j, 1.7j, 0.05)
    res = check_period_s1(ctx, q_order=12, eps_order=6)
    if not res.passed or res.residual >= 1e-6:
        return f"period residual {res.residual:.2e} (bound {res.bound:.2e})"
    zctx = EvalContext(0.3 + 1.2j, 1.7j, 0.03)
    ratio, big, small = residual_scaling("z24", zctx, q_order=12, eps_order=6)
    if not big.passed or big.residual >= 1e-5:
        return f"S1 weight-law residual {big.residual:.2e}"
    if not (10 < ratio < 24):
        return f"residual does not scale like eps^4: ratio {ratio:.2f}"
    return None


NOT_CHECKED_ITEMS = (
    ("14a", "partition-function covariance beyond second order in the "
            "cylinder parameter (reported elsewhere to sixth order)",
     "genus-two state data here stops at the square of the cylinder parameter"),
    ("14b", "direct coset-pair summation for the genus-two Eisenstein series",
     "the weight 4 and 6 series enter through reference Fourier data and the "
     "validated theta-constant candidate instead"),
    ("14c", "invariance of the genus-two partition function under the "
            "off-diagonal period translation",
     "no finite-order handle exists in the pinching-parameter data"),
)

_CRITERIA = (
    ("1", "weight-10 cusp form Fourier table", c01_delta10_table),
    ("2", "weight-12 form Fourier table and square relation", c02_f12_table),
    ("3", "weight-4 theta candidate reproduces reference data", c03_psi4_candidate),
    ("4", "Fourier coefficient square observations (a^2/k)", c04_eisenstein_observations),
    ("5", "cusp form factorizes through the sewing map", c05_sewing_factorization),
    ("6", "cusp form x correction x 24-boson = 1 (conjectural)", c06_g2_consistency),
    ("7", "weight-12 combination, N1 = 0 table", c07_t2_moonshine),
    ("8", "weight-12 combination, N1 = 24 vanishings", c08_t2_leech),
    ("9", "pinching expansion cross-oracle (weights 4 and 12)", c09_fk_cross_oracle),
    ("10", "lattice enumeration oracle and support condition", c10_lattice_oracle),
    ("11", "partition-function product and tensor laws", c11_partition_identities),
    ("12", "modular invariant J expansion", c12_j_validation),
    ("13", "numeric modular checks (anomaly, S1, weight law, scaling)", c13_numeric_checks),
)


def run_criterion(ident: str, name: str, fn) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        detail = fn()
    except TwoLoopError as exc:
        detail = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    status = PASS if detail is None else FAIL
    return CriterionResult(ident, name, status, detail or "", dt)


def run_all() -> list[CriterionResult]:
    results = [run_criterion(i, n, f) for i, n, f in _CRITERIA]
    for ident, name, reason in NOT_CHECKED_ITEMS:
        results.append(CriterionResult(ident, name, NOT_CHECKED, reason))
    return results
