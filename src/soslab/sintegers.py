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
certificate, not a search outcome.  Every other numerator is decided by
climbing the escalation ladder with one search per level, capped at
`PYTHAGORAS_CAP` squares.  The ladder ends by itself: the norm grows by
m^4 per level, and once it passes Peters' bound (`peters_guaranteed`) the
level is a sum of five squares, so the capped search there must succeed.
A capped miss below that level only moves up the ladder, it never
refutes; a miss at or above it contradicts Peters and raises.  Only a
node budget can leave a verdict Unknown.
"""

from __future__ import annotations

import enum
from itertools import count

from ._record import Record
from .criteria import peters_guaranteed
from .decompose import (
    DEFAULT_NODE_BUDGET,
    VerdictKind,
    decompose_sos,
)
from .errors import BadModulus, NotTotallyPositive
from .quadfield import DyadicClass, QuadInt, RingContext, squares_sum_to
from .residues import Residue2, is_square_mod_two, residue_mod_two

# Any sum of squares in the ring of integers of a real quadratic field is a
# sum of five (classical, not computed here); denominators of exponent j
# clear by scaling with m^(2j), preserving the count.  Each escalation
# search is capped here, and the `pythagoras` claim checks the same bound;
# nothing refutes with it.
PYTHAGORAS_CAP = 5


class SElement(Record):
    """gamma / m^(2j) in canonical form (j minimal for this numerator)."""

    __slots__ = ("numerator", "j", "m")
    numerator: QuadInt
    j: int
    m: int

    def __init__(self, numerator: QuadInt, j: int, m: int) -> None:
        if not isinstance(m, int) or m <= 1:
            raise BadModulus(f"modulus must be an integer > 1, got {m!r}")
        if j < 0:
            raise ValueError(f"denominator exponent must be >= 0, got {j}")
        gamma, m2 = numerator, m * m
        while j > 0 and gamma.u % m2 == 0 and gamma.v % m2 == 0:
            gamma = gamma.ctx.element(gamma.u // m2, gamma.v // m2)
            j -= 1
        self._set("numerator", gamma)
        self._set("j", j)
        self._set("m", m)

    @property
    def ctx(self) -> RingContext:
        return self.numerator.ctx

    def __str__(self) -> str:
        if self.j == 0:
            return str(self.numerator)
        return f"({self.numerator})/{self.m}^{2 * self.j}"


class ObstructionCert(Record):
    """Why gamma / m^(2j) can never be a sum of squares in O[1/m].

    `s_obstruction` builds one only when m is odd, 2 ramifies, and the
    numerator's class mod 2*O, `residue`, is not a square.  Then every
    escalation m^(2k) * gamma stays in that non-square class, while any sum
    of squares would have to land in a square class.
    """

    __slots__ = ("ctx", "residue", "reason")
    ctx: RingContext
    residue: Residue2
    reason: str

    def __init__(self, ctx: RingContext, residue: Residue2, reason: str) -> None:
        self._set("ctx", ctx)
        self._set("residue", residue)
        self._set("reason", reason)


class SKind(enum.Enum):
    REPRESENTABLE = "representable"
    OBSTRUCTED = "obstructed"
    UNKNOWN = "unknown"


class SVerdict(Record):
    """Decision for one S-integer element.

    Representable carries numerators of the representing squares (each to
    be read over denominator m^j_used) and is re-verified on construction;
    Obstructed carries the element's own certificate (one of another
    element proves nothing here); Unknown records the level where the
    node budget ran out.
    """

    __slots__ = ("kind", "element", "terms", "j_used", "certificate", "gave_up_at_j", "nodes")
    kind: SKind
    element: SElement
    terms: tuple[QuadInt, ...] | None
    j_used: int | None
    certificate: ObstructionCert | None
    gave_up_at_j: int | None
    nodes: int

    def __init__(
        self,
        kind: SKind,
        element: SElement,
        terms: tuple[QuadInt, ...] | None = None,
        j_used: int | None = None,
        certificate: ObstructionCert | None = None,
        gave_up_at_j: int | None = None,
        nodes: int = 0,
    ) -> None:
        self._set("kind", kind)
        self._set("element", element)
        self._set("terms", terms)
        self._set("j_used", j_used)
        self._set("certificate", certificate)
        self._set("gave_up_at_j", gave_up_at_j)
        self._set("nodes", nodes)
        if self.kind is SKind.REPRESENTABLE:
            if self.terms is None or self.j_used is None:
                raise ValueError("a representable verdict needs terms and j_used")
            if self.j_used < self.element.j:
                raise ValueError(
                    f"j_used={self.j_used} is below the element's exponent {self.element.j}"
                )
            scale = self.element.m ** (2 * (self.j_used - self.element.j))
            big_a, big_b = self.element.numerator.half_coords
            if not squares_sum_to(self.element.ctx, self.terms, scale * big_a, scale * big_b):
                raise ValueError("S-integer decomposition does not verify")
        elif self.kind is SKind.OBSTRUCTED:
            if self.certificate is None or self.certificate != s_obstruction(self.element):
                raise ValueError("an obstructed verdict needs the element's own certificate")


def s_element(gamma: QuadInt, j: int, m: int) -> SElement:
    return SElement(gamma, j, m)


def s_obstruction(xi: SElement) -> ObstructionCert | None:
    """Permanent local obstruction certificate, if one exists."""
    ctx = xi.ctx
    residue = residue_mod_two(xi.numerator)
    ramified = ctx.dyadic is DyadicClass.RAMIFIED
    if xi.m % 2 == 1 and ramified and not is_square_mod_two(xi.numerator):
        return ObstructionCert(
            ctx,
            residue,
            reason=(
                f"m={xi.m} is odd, so denominators are units mod 2*O and "
                f"escalation by m^2 fixes the residue {tuple(residue)}; that "
                "class is not a square mod 2*O, but any sum of squares lies "
                "in a square class"
            ),
        )
    return None


def s_is_sum_of_squares(
    xi: SElement, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> SVerdict:
    """Decision for xi = gamma / m^(2j) in O[1/m].

    Climbs the levels j' = j, j+1, ... with one search per level, capped at
    `PYTHAGORAS_CAP` squares.  After a capped miss, a level that passes
    `peters_guaranteed` is a sum of five squares, so the miss is a bug and
    raises RuntimeError; any other level moves up.  The ladder ends: an
    obstructed numerator never reaches it, every other numerator has an
    even sqrt(D)-coefficient from level j+1 on when 2 ramifies, and the
    norm grows by m^4 per level.  The node budget bounds the whole ladder;
    Unknown means only that it ran out, and is never evidence of
    non-representability.
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
    for level in count(xi.j):
        verdict = decompose_sos(
            target, max_terms=PYTHAGORAS_CAP, node_budget=node_budget - nodes
        )
        nodes += verdict.nodes
        if verdict.decomposition is not None:
            return SVerdict(
                SKind.REPRESENTABLE,
                xi,
                terms=verdict.decomposition.terms,
                j_used=level,
                nodes=nodes,
            )
        if verdict.kind is VerdictKind.BUDGET_EXCEEDED:
            return SVerdict(SKind.UNKNOWN, xi, gave_up_at_j=level, nodes=nodes)
        if peters_guaranteed(target):
            raise RuntimeError(
                f"no sum of {PYTHAGORAS_CAP} squares found for {xi} at level "
                f"{level}, where Peters' criterion guarantees one"
            )
        target = target * m2
