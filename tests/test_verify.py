import cmath
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from twoloop import verify
from twoloop.cli import main
from twoloop.errors import DomainError
from twoloop.verify import (
    EvalContext,
    _s1_image,
    _verdict,
    check_ehat_anomaly,
    check_period_s1,
    check_weight,
    eval_series,
    omega_at,
    residual_scaling,
    tau_valuation,
    truncation_bound,
)
from twoloop.elliptic import delta_cusp, eisenstein_hat
from twoloop.series import MultiSeries, PrefSeries, VarSpec
from twoloop.sewing import period_matrix

# numpy reference algebra for Sp(4, Z) acting on the Siegel half plane

XI = np.block([[np.zeros((2, 2), dtype=np.int64), np.eye(2, dtype=np.int64)],
               [-np.eye(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)]])


#: the generators S1, S2, T1, T2, U and the reflection V
GENS = {
    "S1": ((0, 0, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1)),
    "S2": ((1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0)),
    "T1": ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    "T2": ((1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1)),
    "U": ((1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    "V": ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1)),
}


def np_generators() -> dict[str, np.ndarray]:
    return {name: np.array(rows, dtype=np.int64) for name, rows in GENS.items()}


def is_symplectic(gamma) -> bool:
    g = np.array(gamma, dtype=np.int64)
    return bool(np.array_equal(g.T @ XI @ g, XI))


def blocks(gamma):
    g = np.asarray(gamma)
    return g[:2, :2], g[:2, 2:], g[2:, :2], g[2:, 2:]


def np_act(gamma, omega) -> np.ndarray:
    a, b, c, d = blocks(gamma)
    omega = np.asarray(omega, dtype=complex)
    return (a @ omega + b) @ np.linalg.inv(c @ omega + d)


OMEGA = ((0.2 + 1.1j, 0.1 + 0.04j), (0.1 + 0.04j, -0.3 + 1.5j))


def test_generators_are_symplectic():
    for name, g in GENS.items():
        assert all(type(x) is int for row in g for x in row), name
        assert is_symplectic(g), name


def test_s1_squared_is_reflection():
    g = np_generators()
    assert np.array_equal(g["S1"] @ g["S1"], g["V"])
    assert np.array_equal(g["S2"] @ g["S2"], -g["V"])


def test_random_words_stay_symplectic():
    gens = list(np_generators().values())
    rng = random.Random(7)
    for _ in range(50):
        word = np.eye(4, dtype=np.int64)
        for _ in range(rng.randint(1, 6)):
            word = word @ rng.choice(gens)
        assert is_symplectic(word)


def random_siegel_point(rng) -> tuple:
    """Omega = X + iY with X real symmetric and Y positive definite."""
    x11, x12, x22 = (rng.uniform(-1, 1) for _ in range(3))
    a = np.array([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)])
    y = a @ a.T + 0.3 * np.eye(2)
    omega = np.array([[x11, x12], [x12, x22]]) + 1j * y
    return tuple(tuple(complex(z) for z in row) for row in omega)


def test_act_matches_numpy_reference():
    # the library's closed-form S1 against the matrix action of its generator
    rng = random.Random(3)
    for omega in [OMEGA] + [random_siegel_point(rng) for _ in range(30)]:
        got = np.array(_s1_image(omega))
        assert got.shape == (2, 2)
        assert np.abs(got - np_act(GENS["S1"], omega)).max() < 1e-12


def test_act_matches_translation_laws():
    omega = ((0.3 + 1.2j, 0.05j), (0.05j, 1.7j))
    t1 = np_act(GENS["T1"], omega)
    assert abs(t1[0][0] - (omega[0][0] + 1)) < 1e-14
    assert abs(t1[1][1] - omega[1][1]) < 1e-14
    u = np_act(GENS["U"], omega)
    assert abs(u[0][1] - (omega[0][1] + 1)) < 1e-14
    v = np_act(GENS["V"], omega)
    assert abs(v[0][1] + omega[0][1]) < 1e-14
    s1 = _s1_image(omega)
    assert abs(s1[0][0] + 1 / omega[0][0]) < 1e-14
    assert s1[0][1] == s1[1][0]
    assert abs(s1[0][1] + omega[0][1] / omega[0][0]) < 1e-14
    assert abs(s1[1][1] - (omega[1][1] - omega[0][1] ** 2 / omega[0][0])) < 1e-14


def test_eval_constant_and_leading():
    one = delta_cusp(6)
    # at large Im(tau), Delta ~ q
    tau = 6j
    val = eval_series(one, tau_valuation(tau))
    q = complex(np.exp(2j * np.pi * tau))
    assert abs(val - q) / abs(q) < 1e-6


def test_eval_ehat2_fixed_point():
    # at tau = i the anomaly forces Ehat_2(e^-2pi) = -1/(4 pi)
    e2 = eisenstein_hat(2, 40)
    val = eval_series(e2, tau_valuation(1j))
    assert abs(val - (-1 / (4 * np.pi))) < 1e-12


def test_eval_series_matches_fraction_reference_bit_for_bit():
    # Laurent in q with den 8, and den 3 in s, whose exponents are not dyadic
    rng = random.Random(5)
    qs = VarSpec("q", 8, Fraction(-5, 8), 3)
    ss = VarSpec("s", 3, 0, 2)
    terms = {(Fraction(kq, 8), Fraction(ks, 3)): Fraction(rng.randint(-9, 9), 7)
             for kq in range(-5, 24) for ks in range(6)}
    series = MultiSeries((qs, ss), terms)
    logs = {"q": 0.3 - 2.1j, "s": -0.7 + 0.45j}

    total = 0.0 + 0.0j
    for exps, c in series.iter_terms():
        arg = 0.0 + 0.0j
        for v, e in zip(series.vars, exps):
            if e:
                arg += float(e) * logs[v.name]
        total += complex(c) * cmath.exp(arg)
    expected = total * cmath.exp(0.0 + 0.0j)  # the empty prefactor, as eval_series applies it

    got = eval_series(series, logs)
    assert (got.real.hex(), got.imag.hex()) == (expected.real.hex(), expected.imag.hex())


def test_truncation_bound_treats_a_missing_variable_as_zero():
    # at eps = 0 the valuation has no eps, and the eps-tail vanishes there
    ctx = EvalContext(0.1 + 1j, 0.2 + 1.3j, 0)
    w11 = period_matrix(4, 2).w11
    logs = ctx.valuation()
    assert "eps" not in logs
    eval_series(w11, logs)
    bound = truncation_bound(w11, logs)
    assert 0 < bound < truncation_bound(w11, EvalContext(0.1 + 1j, 0.2 + 1.3j, 0.01).valuation())
    # a prefactor variable at 0 follows eval_series: a zero, or a pole
    assert truncation_bound(PrefSeries(w11, {"z": Fraction(1)}), logs) == 0.0
    assert eval_series(PrefSeries(w11, {"z": Fraction(1)}), logs) == 0
    for fn in (eval_series, truncation_bound):
        with pytest.raises(DomainError, match="pole"):
            fn(PrefSeries(w11, {"z": Fraction(-1)}), logs)


def test_a_tail_from_the_zeroth_power_is_not_zero_at_zero():
    # the truncated eps-tail starts at eps^0, which does not vanish at eps = 0
    series = MultiSeries((VarSpec("eps", valid=Fraction(0)),), {})
    with pytest.raises(DomainError, match="pole"):
        truncation_bound(series, {})


def test_ehat_anomaly_points():
    for tau in (0.2 + 1.1j, 1j, 2j):
        res = check_ehat_anomaly(tau, 40)
        assert res.passed, (tau, res.residual, res.bound)
        assert res.residual < 1e-9
    # S-dual pair evaluated both ways
    res = check_ehat_anomaly(0.5j, 40)
    assert res.residual < 1e-9


def test_period_s1_covariance():
    ctx = EvalContext(0.3 + 1.2j, 1.7j, 0.05)
    res = check_period_s1(ctx, q_order=12, eps_order=6)
    assert res.passed, (res.residual, res.bound)
    assert res.residual < 1e-6


def test_period_s1_check_that_cannot_fail_is_refused():
    # at eps = 0.5 and eps-order 1 the eps term alone lifts the bound past 1
    ctx = EvalContext(0.3 + 1.2j, 1.7j, 0.5)
    with pytest.raises(DomainError, match="cannot fail"):
        check_period_s1(ctx, q_order=2, eps_order=1)


def test_ehat_anomaly_check_that_cannot_fail_is_refused():
    # at q-order 1 Ehat_2 is its constant term, and the bound exceeds |lhs|
    with pytest.raises(DomainError, match="cannot fail"):
        check_ehat_anomaly(0.2 + 1.1j, 1)
    assert check_ehat_anomaly(0.2 + 1.1j, 2).passed


def test_period_s1_eps_zero_diagonal():
    ctx = EvalContext(0.3 + 1.2j, 1.7j, 0.0)
    sew = period_matrix(8, 4)
    omega = omega_at(sew, ctx)
    assert abs(omega[0][1]) < 1e-15
    assert abs(omega[0][0] - ctx.tau1) < 1e-15


def test_eps_reflection_flips_omega12():
    sew = period_matrix(8, 5)
    ctx = EvalContext(0.3 + 1.2j, 1.7j, 0.05)
    flip = EvalContext(0.3 + 1.2j, 1.7j, -0.05)
    om, om2 = omega_at(sew, ctx), omega_at(sew, flip)
    assert abs(om2[0][1] + om[0][1]) < 1e-15
    assert abs(om2[0][0] - om[0][0]) < 1e-15
    assert abs(om2[1][1] - om[1][1]) < 1e-15


def test_weight_z24_translations_and_reflection():
    ctx = EvalContext(0.3 + 1.2j, 1.7j, 0.03)
    for gamma in ("T1", "T2", "V"):
        res = check_weight("z24", gamma, ctx, q_order=12, eps_order=4)
        assert res.passed and res.residual == 0 and res.bound == 1, (gamma, res.residual)


@pytest.mark.parametrize("gamma, var, shift", [("T1", "q1", Fraction(1, 24)),
                                               ("V", "eps", Fraction(1, 6)),
                                               ("V", "eps", Fraction(1))],
                         ids=["T1-q1^(1/24)", "V-eps^(1/6)", "V-eps"])
def test_an_invariance_fails_when_the_prefactor_moves_an_exponent(gamma, var, shift,
                                                                  monkeypatch):
    # the exact check reads each absolute exponent, prefactor included; it
    # evaluates nothing, so eps = 0, where sewn Delta10 vanishes, is fine
    ctx = EvalContext(0.3 + 1.2j, 1.7j, 0)
    assert check_weight("delta10-sewing", gamma, ctx, q_order=6, eps_order=4).residual == 0
    build, law = verify.WEIGHT_TARGETS["delta10-sewing"]
    monkeypatch.setattr(verify, "WEIGHT_TARGETS",
                        {"moved": (lambda *orders: build(*orders).shift(var, shift), law)})
    res = check_weight("moved", gamma, ctx, q_order=6, eps_order=4)
    assert not res.passed
    assert res.residual == len(build(6, 4).body.terms)


def test_weight_z24_s1_conjecture():
    ctx = EvalContext(0.3 + 1.2j, 1.7j, 0.03)
    res = check_weight("z24", "S1", ctx, q_order=16, eps_order=6)
    assert res.passed, (res.residual, res.bound)
    assert res.residual < 1e-5


def test_weight_g2_s1_conjecture():
    ctx = EvalContext(0.3 + 1.2j, 1.7j, 0.03)
    res = check_weight("g2", "S1", ctx, q_order=12, eps_order=6)
    assert res.passed, (res.residual, res.bound)
    assert res.residual < 1e-5


@pytest.mark.parametrize("target", verify.WEIGHT_TARGETS)
def test_every_weight_target_body_is_a_unit(target):
    # the S1 bound reads the body's validity as the relative truncation
    # order, which holds only when the prefactor is the leading monomial
    build = verify.WEIGHT_TARGETS[target][0]
    assert build(12, 6).body.constant_term() != 0


def test_weight_delta10_s1():
    ctx = EvalContext(0.3 + 1.2j, 1.7j, 0.05)
    res = check_weight("delta10-sewing", "S1", ctx, q_order=8, eps_order=6)
    assert res.passed, (res.residual, res.bound)


def test_weight_check_that_cannot_fail_is_refused():
    # at q-order 2 the q-tail term alone lifts the bound on a relative
    # residual past 1
    ctx = EvalContext(0.3 + 1.2j, 1.7j, 0.03)
    with pytest.raises(DomainError, match="cannot fail"):
        check_weight("delta10-sewing", "S1", ctx, q_order=2, eps_order=2)


@pytest.mark.parametrize("gamma", ["S1"])
def test_weight_where_the_target_vanishes_is_a_domain_error(gamma):
    # sewn Delta10 starts at eps^2: at eps = 0 both sides are 0
    ctx = EvalContext(0.3 + 1.2j, 1.7j, 0)
    with pytest.raises(DomainError, match="target vanishes"):
        check_weight("delta10-sewing", gamma, ctx, q_order=6, eps_order=4)


TARGETS, GAMMAS = ("z24", "g2", "delta10-sewing"), ("S1", "T1", "T2", "V")


@pytest.mark.parametrize("argv", [["ehat-anomaly"], ["period-s1"]] + [
    ["weight", "--target", target, "--gamma", gamma] for target in TARGETS for gamma in GAMMAS
], ids=lambda argv: "-".join(argv[::2]))
def test_every_check_row_passes_exactly_below_its_bound(argv, capsys):
    # each row at the CLI default point: the verdict and the exit code
    # follow residual < derived_bound
    code = main(["check", *argv])
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is (out["residual"] < out["derived_bound"])
    assert code == (0 if out["passed"] else 1)


def test_check_help_lists_the_targets_and_generators_in_order(capsys):
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    out = capsys.readouterr().out
    assert "{%s}" % ",".join(TARGETS) in out and "{%s}" % ",".join(GAMMAS) in out


def test_a_bound_that_reaches_the_scale_is_refused():
    # 10 * 0.25 is exactly the scale 2.5: such a check cannot fail
    with pytest.raises(DomainError, match="cannot fail at q-order 1"):
        _verdict("x", "q-order 1", 0.0, 0.25, 2.5, {})
    assert _verdict("x", "q-order 1", 2.0, 0.25, 2.6, {}).passed
    assert not _verdict("x", "q-order 1", 2.5, 0.25, 2.6, {}).passed


def test_residual_scaling_is_eps4():
    ctx = EvalContext(0.3 + 1.2j, 1.7j, 0.03)
    ratio, big, small = residual_scaling("z24", ctx, q_order=16, eps_order=6)
    assert big.passed and small.passed
    assert 10 < ratio < 24, ratio


@pytest.mark.parametrize("target, builder", [("z24", "z2"),
                                              ("delta10-sewing", "fourier_to_sewing")])
def test_residual_scaling_builds_its_target_once(target, builder, monkeypatch):
    # one series serves both points, and each result is bit for bit the
    # one check_weight gives at that point
    ctx = EvalContext(0.3 + 1.2j, 1.7j, 0.03)
    half = EvalContext(ctx.tau1, ctx.tau2, ctx.eps / 2)
    want = [check_weight(target, "S1", c, q_order=12, eps_order=6) for c in (ctx, half)]
    calls = []
    build = getattr(verify, builder)
    monkeypatch.setattr(verify, builder, lambda *a: calls.append(1) or build(*a))
    ratio, big, small = residual_scaling(target, ctx, q_order=12, eps_order=6)
    assert len(calls) == 1
    assert [big, small] == want
    assert ratio == want[0].residual / want[1].residual


@pytest.mark.parametrize("form,weight", [("E4", 4), ("E6", 6), ("Delta", 12), ("DE4", 6)])
def test_elliptic_weight_laws_numeric(form, weight):
    # f(-1/tau) = tau^k f(tau) for declared-weight forms; the covariant
    # derivative of the weight-4 series must transform with weight 6
    from twoloop.elliptic import covariant_derivative, eisenstein

    order = 40
    series = {
        "E4": lambda: eisenstein(4, order),
        "E6": lambda: eisenstein(6, order),
        "Delta": lambda: delta_cusp(order),
        "DE4": lambda: covariant_derivative(eisenstein(4, order), 4),
    }[form]()
    tau = 0.2 + 1.1j
    lhs = eval_series(series, tau_valuation(-1 / tau))
    rhs = tau**weight * eval_series(series, tau_valuation(tau))
    assert abs(lhs - rhs) / abs(rhs) < 1e-9


def test_context_validation():
    with pytest.raises(DomainError):
        EvalContext(0.3 - 1.2j, 1.7j, 0.0)
    with pytest.raises(DomainError):
        EvalContext(1j, 1j, 1.5)
