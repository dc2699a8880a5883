"""Sums of squares in the S-integer rings O[1/m].

An element of O[1/m] is written gamma / m^(2j): squares of m-power
denominators always have even exponent, and any candidate decomposition
can be brought to a common even-exponent denominator, so this loses
nothing.  The representability question then escalates: gamma / m^(2j) is
a sum of squares of elements with denominator exponent j' >= j exactly
when m^(2(j'-j)) * gamma is a sum of squares in O.

For odd m with 2 ramified, the mod-2*O square class of the numerator is
invariant under escalation (m^2 is an odd unit mod 2*O), so a numerator
that is not a square mod 2*O is permanently obstructed: that is a
certificate, not a search outcome.  Otherwise the decision procedure
searches a finite ladder of escalation levels and returns Unknown when the
ladder runs out -- representability at some higher level is never ruled
out by a failed finite search.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .decompose import (
    DEFAULT_NODE_BUDGET,
    VerdictKind,
    decompose_sos,
)
from .errors import BadModulus, NotTotallyPositive
from .quadfield import DyadicClass, QuadInt, RingContext
from .residues import Residue2, is_square_mod_two, residue_mod_two, squares_mod_two


@dataclass(frozen=True)
class SElement:
    """gamma / m^(2j) in canonical form (j minimal for this numerator)."""

    numerator: QuadInt
    j: int
    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or self.m <= 1:
            raise BadModulus(f"modulus must be an integer > 1, got {self.m!r}")
        if self.j < 0:
            raise ValueError(f"denominator exponent must be >= 0, got {self.j}")
        gamma, j, m2 = self.numerator, self.j, self.m * self.m
        while j > 0 and gamma.u % m2 == 0 and gamma.v % m2 == 0:
            gamma = gamma.ctx.element(gamma.u // m2, gamma.v // m2)
            j -= 1
        object.__setattr__(self, "numerator", gamma)
        object.__setattr__(self, "j", j)

    @property
    def ctx(self) -> RingContext:
        return self.numerator.ctx

    def __str__(self) -> str:
        if self.j == 0:
            return str(self.numerator)
        return f"({self.numerator})/{self.m}^{2 * self.j}"


@dataclass(frozen=True)
class ObstructionCert:
    """Why gamma / m^(2j) can never be a sum of squares in O[1/m].

    Valid exactly when all three ingredients hold: m odd, 2 ramified, and
    the numerator's class mod 2*O not a square.  Then every escalation
    m^(2k) * gamma stays in the same non-square class, while any sum of
    squares would have to land in a square class.
    """

    ctx: RingContext
    m_odd: bool
    ramified: bool
    residue: Residue2
    reason: str

    def is_valid(self) -> bool:
        return (
            self.m_odd
            and self.ramified
            and self.residue not in squares_mod_two(self.ctx)
        )


class SKind(enum.Enum):
    REPRESENTABLE = "representable"
    OBSTRUCTED = "obstructed"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SVerdict:
    """Decision for one S-integer element.

    Representable carries numerators of the representing squares (each to
    be read over denominator m^j_used) and is re-verified on construction;
    Obstructed carries a certificate; Unknown records the level where the
    escalation ladder was abandoned.
    """

    kind: SKind
    element: SElement
    terms: tuple[QuadInt, ...] | None = None
    j_used: int | None = None
    certificate: ObstructionCert | None = None
    gave_up_at_j: int | None = None
    nodes: int = 0

    def __post_init__(self) -> None:
        if self.kind is SKind.REPRESENTABLE:
            if self.terms is None or self.j_used is None:
                raise ValueError("a representable verdict needs terms and j_used")
            if self.j_used < self.element.j:
                raise ValueError(
                    f"j_used={self.j_used} is below the element's exponent {self.element.j}"
                )
            scale = self.element.m ** (2 * (self.j_used - self.element.j))
            total = self.element.ctx.zero
            for term in self.terms:
                total = total + term.square()
            if total != self.element.numerator * scale:
                raise ValueError("S-integer decomposition does not verify")
        elif self.kind is SKind.OBSTRUCTED:
            if self.certificate is None or not self.certificate.is_valid():
                raise ValueError("an obstructed verdict needs a valid certificate")


def s_element(gamma: QuadInt, j: int, m: int) -> SElement:
    return SElement(gamma, j, m)


def s_obstruction(xi: SElement) -> ObstructionCert | None:
    """Permanent local obstruction certificate, if one exists."""
    ctx = xi.ctx
    m_odd = xi.m % 2 == 1
    ramified = ctx.dyadic is DyadicClass.RAMIFIED
    residue = residue_mod_two(xi.numerator)
    if m_odd and ramified and not is_square_mod_two(xi.numerator):
        cert = ObstructionCert(
            ctx,
            m_odd,
            ramified,
            residue,
            reason=(
                f"m={xi.m} is odd, so denominators are units mod 2*O and "
                f"escalation by m^2 fixes the residue {tuple(residue)}; that "
                "class is not a square mod 2*O, but any sum of squares lies "
                "in a square class"
            ),
        )
        assert cert.is_valid()
        return cert
    return None


def s_is_sum_of_squares(
    xi: SElement, j_budget: int = 4, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> SVerdict:
    """Three-way decision for xi = gamma / m^(2j) in O[1/m].

    Tries escalation levels j' = j .. j + j_budget; at each level a
    five-term search runs before the unbounded one, since five squares
    suffice whenever any number does (in practice the cap only speeds up
    hits).  Unknown means the ladder (or a node budget) ran out: it is
    never evidence of non-representability.
    """
    if not xi.numerator.is_totally_positive():
        raise NotTotallyPositive(
            f"numerator {xi.numerator} is not totally positive"
        )
    cert = s_obstruction(xi)
    if cert is not None:
        return SVerdict(SKind.OBSTRUCTED, xi, certificate=cert)
    nodes = 0
    m2 = xi.m * xi.m
    target = xi.numerator
    for level in range(xi.j, xi.j + j_budget + 1):
        # A five-term cap first (hits are fast and short), then the
        # unbounded search, which alone settles this level.
        for cap in (5, None):
            verdict = decompose_sos(target, max_terms=cap, node_budget=node_budget)
            nodes += verdict.nodes
            if verdict.found:
                assert verdict.decomposition is not None
                return SVerdict(
                    SKind.REPRESENTABLE,
                    xi,
                    terms=verdict.decomposition.terms,
                    j_used=level,
                    nodes=nodes,
                )
            if verdict.kind is VerdictKind.BUDGET_EXCEEDED:
                return SVerdict(SKind.UNKNOWN, xi, gave_up_at_j=level, nodes=nodes)
        target = target * m2
    return SVerdict(SKind.UNKNOWN, xi, gave_up_at_j=xi.j + j_budget, nodes=nodes)


class PythagorasBound(NamedTuple):
    """An upper bound together with where it comes from."""

    value: int
    note: str


def s_pythagoras_upper(ctx: RingContext, m: int) -> PythagorasBound:
    """Trusted upper bound for the Pythagoras number of O[1/m].

    Classical background, not computed here: any sum of squares in a real
    quadratic ring of integers is a sum of five, and clearing denominators
    transports that bound to every O[1/m].  The scan harness uses it only
    to cap reported term counts.
    """
    if not isinstance(m, int) or m <= 1:
        raise BadModulus(f"modulus must be an integer > 1, got {m!r}")
    return PythagorasBound(
        5,
        "five squares suffice in the ring of integers of any real quadratic "
        "field (classical); denominators of exponent j clear by scaling "
        "with m^(2j), preserving the count",
    )
