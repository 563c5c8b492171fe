"""Chiral partition functions on the torus and on the sewn genus-two surface.

Supported theories: the C-dimensional chiral boson (1/eta^C), even-rank
lattice compactifications (theta/eta^C), self-dual central charge 24
theories (J + N1), and the central charge -26 ghost system (eta^2 at genus
one; its genus-two form is conjectural and is quarantined behind a
``conjectural`` flag on every derived output).

The genus-two partition function is assembled from torus data through the
state sum truncated at the cylinder-parameter square:

    Z2 = eps^(-C/12) (Z(q1) Z(q2) + (2/C) Zw(q1) Zw(q2) eps^2 + O(eps^4)),

where Zw = q d/dq Z is the one-point function of the shifted Virasoro
state and 2/C is the inverse of its two-point normalization C/2.  Higher
orders would need one-point functions of weight-four states that no closed
expression is available for, so eps_order = 2 is a hard API bound.

eta^-C is built once, by the C-boson's cached ``z1``, and lattice theories
reuse it.  For the C-boson, ``z2`` checks its state sum against the closed
form Z(q1) Z(q2) (1 + (C/2) Ehat2(q1) Ehat2(q2) eps^2) on its own Z(q1) Z(q2).
The ghost has no one-point data; ``z2`` returns its conjectural form
eps^(1/6) eta^2(q1) eta^2(q2) (1 - 3 Ehat2(q1) Ehat2(q2) eps^2), flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .elliptic import (
    covariant_derivative,
    dedekind_eta,
    delta_cusp,
    eisenstein_hat,
    j_function,
)
from .errors import DomainError, InternalError, Unsupported, ValidationFailed
from .lattice import Lattice, builtin_lattice, theta_g1
from .series import (
    MultiSeries,
    PrefSeries,
    assert_equal_on_joint_validity,
    equal_on_joint_validity,
)
from .sewing import ehat2_bracket, eps2_bracket, torus_pair

F = Fraction


@dataclass(frozen=True)
class CBoson:
    c: int

    def __post_init__(self):
        if self.c < 1:
            raise DomainError("the chiral boson needs a positive dimension")

    @property
    def central_charge(self) -> int:
        return self.c

    def label(self) -> str:
        return f"boson:{self.c}"


@dataclass(frozen=True)
class LatticeTheory:
    lattice: Lattice

    def __post_init__(self):
        if self.lattice.rank % 2:
            raise DomainError("lattice theories need even rank")

    @property
    def central_charge(self) -> int:
        return self.lattice.rank

    def label(self) -> str:
        return f"lattice:{self.lattice.name}"


@dataclass(frozen=True)
class SelfDual:
    n1: int

    def __post_init__(self):
        if self.n1 < 0:
            raise DomainError("N1 counts states; it cannot be negative")

    @property
    def central_charge(self) -> int:
        return 24

    def label(self) -> str:
        return f"selfdual:{self.n1}"


@dataclass(frozen=True)
class Ghost:
    @property
    def central_charge(self) -> int:
        return -26

    def label(self) -> str:
        return "ghost"


TheoryDescriptor = CBoson | LatticeTheory | SelfDual | Ghost


def parse_theory(text: str) -> TheoryDescriptor:
    """Parse 'boson:C', 'lattice:NAME_or_FILE', 'selfdual:N1' or 'ghost'."""
    kind, _, arg = text.partition(":")
    kind = kind.strip().lower()
    if kind == "boson":
        return CBoson(int(arg))
    if kind == "lattice":
        try:
            return LatticeTheory(builtin_lattice(arg))
        except DomainError:
            return LatticeTheory(Lattice.from_file(arg))
    if kind == "selfdual":
        return SelfDual(int(arg))
    if kind == "ghost":
        return Ghost()
    raise DomainError(f"unknown theory {text!r}")


def t1_selfdual(n1: int, q_order: int) -> PrefSeries:
    """The weight-12 numerator Delta * (J + N1) = 1 + (N1 - 24) q + ..."""
    return delta_cusp(q_order).mul(j_function(q_order).add(n1))


@lru_cache(maxsize=None)
def z1(theory: TheoryDescriptor, q_order: int) -> PrefSeries:
    """Genus-one partition function of the theory."""
    if isinstance(theory, CBoson):
        return dedekind_eta(q_order).pow_int(-theory.c)
    if isinstance(theory, LatticeTheory):
        theta = PrefSeries(theta_g1(theory.lattice, q_order))
        return theta.mul(z1(CBoson(theory.central_charge), q_order))
    if isinstance(theory, SelfDual):
        return j_function(q_order).add(theory.n1)
    if isinstance(theory, Ghost):
        return dedekind_eta(q_order).pow_int(2)
    raise DomainError(f"unknown theory {theory!r}")


@lru_cache(maxsize=None)
def z1_omega(theory: TheoryDescriptor, q_order: int) -> PrefSeries:
    """Torus one-point function of the shifted Virasoro state:
    q d/dq of the partition function.

    Computed both directly and through the covariant-derivative closed form
    for the theory; the two must agree exactly.
    """
    if isinstance(theory, Ghost):
        raise Unsupported("no one-point data for the ghost system")
    z = z1(theory, q_order)
    direct = z.q_log_deriv("q")
    if isinstance(theory, CBoson):
        e2 = eisenstein_hat(2, q_order)
        closed = e2.scalar(F(theory.c, 2)).mul(z)
    elif isinstance(theory, LatticeTheory):
        c = theory.central_charge
        theta = PrefSeries(theta_g1(theory.lattice, q_order))
        closed = covariant_derivative(theta, c // 2).mul(z1(CBoson(c), q_order))
    else:
        t1 = t1_selfdual(theory.n1, q_order)
        closed = covariant_derivative(t1, 12).mul(delta_cusp(q_order).invert())
    assert_equal_on_joint_validity(direct, closed,
                                   f"one-point routes for {theory.label()}")
    return closed


@dataclass(frozen=True)
class GenusTwoZ:
    """Genus-two partition function to second order in the cylinder
    parameter.

    ``pref`` carries the vacuum exponents exactly: eps^(-C/12) and the
    q1, q2 Laurent floors sit in the prefactor, so the body is a unit-style
    series in (q1, q2, eps), symmetric under q1 <-> q2 and even in eps.
    """

    pref: PrefSeries
    conjectural: bool


def z2(theory: TheoryDescriptor, q_order: int) -> GenusTwoZ:
    """Genus-two partition function of the theory, exact through eps^2:
    beyond it the state sum would need one-point functions of weight-four
    states that are not available here.  For the ghost it is the
    conjectural eps^(1/6) eta^2(q1) eta^2(q2) (1 - 3 Ehat2 Ehat2 eps^2 +
    O(eps^4)), flagged ``conjectural``.
    """
    zz = torus_pair(z1(theory, q_order))
    if isinstance(theory, Ghost):
        return GenusTwoZ(zz.mul(ehat2_bracket(-3, q_order)).shift("eps", F(1, 6)),
                         conjectural=True)
    c = theory.central_charge
    ww = torus_pair(z1_omega(theory, q_order))
    body = eps2_bracket(zz, ww.scalar(F(2, c)))
    if isinstance(theory, CBoson):
        closed = zz.mul(ehat2_bracket(F(c, 2), q_order))
        assert_equal_on_joint_validity(body, closed,
                                       "boson state sum disagrees with closed form")
    return GenusTwoZ(body.shift("eps", F(-c, 12)), conjectural=False)


def g2_correction(q_order: int) -> MultiSeries:
    """The universal holomorphic correction: ghost times two-boson genus-two
    partition functions.  Conjectural (it inherits the ghost conjecture).

    The eps^(1/6) and eps^(-1/6) vacuum exponents cancel exactly and the
    product collapses to 1 - 2 Ehat2(q1) Ehat2(q2) eps^2 + O(eps^4); that
    cancellation is asserted here.
    """
    prod = z2(Ghost(), q_order).pref.mul(z2(CBoson(2), q_order).pref)
    if prod.prefactor:
        raise InternalError(f"vacuum exponents did not cancel: {dict(prod.prefactor)}")
    ok, why = equal_on_joint_validity(prod, ehat2_bracket(-2, q_order))
    if not ok:
        raise ValidationFailed(f"ghost-boson product has wrong eps^2 term at {why}")
    return prod.body


def t2_ratio(theory: TheoryDescriptor, q_order: int) -> PrefSeries:
    """The genus-two partition function divided by the C-boson one: the
    weight-C/2 Siegel form attached to the theory, in pinching parameters."""
    if not isinstance(theory, (SelfDual, LatticeTheory)):
        raise DomainError("the ratio is defined for lattice and self-dual theories")
    num = z2(theory, q_order)
    den = z2(CBoson(theory.central_charge), q_order)
    return num.pref.mul(den.pref.invert())
