import random
from dataclasses import replace
from fractions import Fraction

import pytest

from twoloop.errors import DomainError, UnknownCoefficient
from twoloop.series import (
    UNBOUNDED,
    MultiSeries,
    PrefSeries,
    VarSpec,
    equal_on_joint_validity,
    is_unbounded,
)


def V(name, den=1, min_exp=0, order=UNBOUNDED, valid=None):
    """A VarSpec whose one bound is ``valid`` if given, else ``order``."""
    return VarSpec(name, den, Fraction(min_exp), Fraction(order if valid is None else valid))


def random_coeff(rng):
    return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))


def random_series(rng, vars, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = []
        for v in vars:
            lo = int(v.min_exp * v.den)
            hi = max_exp * v.den
            exps.append(Fraction(rng.randint(lo, hi), v.den))
        c = random_coeff(rng)
        if c:
            terms[tuple(exps)] = c
    return MultiSeries(tuple(vars), terms)


def random_unit(rng, vars, max_terms=4, max_exp=2):
    s = random_series(rng, vars, max_terms, max_exp)
    zero_key = (Fraction(0),) * len(vars)
    terms = dict(zip([e for e, _ in s.iter_terms()], [c for _, c in s.iter_terms()]))
    terms = {e: c for e, c in terms.items() if any(x > 0 for x in e) or all(x == 0 for x in e)}
    terms[zero_key] = Fraction(rng.choice([1, -1, 2]), rng.choice([1, 2]))
    return MultiSeries(tuple(vars), terms)


def limit_var_zero(a, name):
    """The limit of the series as one variable goes to zero."""
    i = a.var_index(name)
    v = a.vars[i]
    if v.valid <= 0:
        raise UnknownCoefficient(f"{name}^0 is outside the validity region")
    if any(k[i] < 0 for k in a.terms):
        raise DomainError(f"limit {name}->0 across a pole")
    return MultiSeries._of(
        a.vars[:i] + a.vars[i + 1:],
        {k[:i] + k[i + 1:]: c for k, c in a.terms.items() if k[i] == 0},
    )


def lattice_json(lattice):
    """The JSON object that ``Lattice.from_json_dict`` reads back."""
    return {"name": lattice.name, "rank": lattice.rank,
            "gram": [list(row) for row in lattice.gram]}


def set_var_one(a, name):
    """``a`` with one variable evaluated at 1, which needs every
    coefficient in it: an unbounded validity bound."""
    i = a.var_index(name)
    if a.vars[i].valid != UNBOUNDED:
        raise UnknownCoefficient(f"setting {name}=1 needs every {name}-coefficient")
    terms = {}
    for k, c in a.iter_terms():
        rest = k[:i] + k[i + 1:]
        terms[rest] = terms.get(rest, 0) + c
    return MultiSeries(a.vars[:i] + a.vars[i + 1:], terms)


def assert_refines(lo, hi):
    """Refinement oracle: ``lo``, computed at a lower order, agrees with
    ``hi`` wherever both are valid and claims no validity ``hi`` lacks.
    Two ``PrefSeries`` must have equal prefactors; their bodies are then
    compared."""
    if isinstance(lo, PrefSeries):
        assert lo.prefactor == hi.prefactor
        lo, hi = lo.body, hi.body
    assert lo.terms
    ok, why = equal_on_joint_validity(lo, hi)
    assert ok, why
    for v in lo.vars:
        assert v.valid <= hi.spec(v.name).valid, v.name


def perturb_tail(s, rng, by=2, count=4):
    """``s`` as one of the series it stands for: each finite validity bound
    raised by ``by`` and up to ``count`` random terms added where ``s`` knew
    nothing, at or past its old bound in some variable and inside the new
    box, on each variable's grid and above its floor.  A result computed
    from ``s`` must agree with the same result from the perturbed ``s`` on
    every coefficient it claims."""
    if isinstance(s, PrefSeries):
        return PrefSeries(perturb_tail(s.body, rng, by, count), s.prefactor)
    finite = [i for i, v in enumerate(s.vars) if not is_unbounded(v.valid)]
    if not finite:
        return s
    vars = tuple(v if is_unbounded(v.valid) else replace(v, valid=v.valid + by) for v in s.vars)
    terms = dict(s.terms)
    for _ in range(rng.randint(1, count)):
        past = rng.choice(finite)
        key = []
        for j, (old, new) in enumerate(zip(s.vars, vars)):
            top = new.kmax() if j in finite else max([old.kmin(), *(k[j] for k in s.terms)]) + 2
            key.append(rng.randint(old.kmax() + 1 if j == past else old.kmin(), top))
        terms[tuple(key)] = random_coeff(rng) or 1
    return MultiSeries._of(vars, terms)


@pytest.fixture
def rng():
    return random.Random(20260809)
