"""Residue classes modulo 2*O and the local sum-of-squares criterion.

O/2O has exactly four classes, represented by coordinate parities
(u mod 2, v mod 2).  Which classes are squares is decided by enumerating
the four representatives and squaring them in the ring -- the enumeration
itself is the proof, there is no case formula to trust.

The local criterion: a totally positive element is a sum of r >= 5 squares
at every completion of O if and only if it is congruent to a square mod
2*O.  (At the two real places total positivity settles it; at odd primes
there is no obstruction; at even primes sums of squares collapse to single
squares modulo 2*O because cross terms vanish.)
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import NamedTuple

from .errors import NotRamified, ZeroElement
from .quadfield import DyadicClass, QuadInt, RingContext


class Residue2(NamedTuple):
    """A class of O/2O, named by coordinate parities."""

    e0: int
    e1: int


class ValuationClass(enum.Enum):
    """Position of an element relative to the ramified prime p over 2."""

    UNIT = "unit"  # valuation 0
    IN_P_NOT_P2 = "in_p_not_p2"  # valuation exactly 1
    IN_P2 = "in_p2"  # valuation >= 2
    NOT_APPLICABLE = "not_applicable"  # 2 does not ramify


def residue_mod_two(alpha: QuadInt) -> Residue2:
    return Residue2(alpha.u & 1, alpha.v & 1)


@lru_cache(maxsize=None)
def squares_mod_two(ctx: RingContext) -> frozenset[Residue2]:
    """The set of classes of O/2O that are squares, by direct enumeration."""
    return frozenset(
        residue_mod_two(ctx.element(u, v).square()) for u in (0, 1) for v in (0, 1)
    )


@lru_cache(maxsize=None)
def _maximal_ideal_residues(ctx: RingContext) -> frozenset[Residue2]:
    """Classes of O/2O lying in the ramified prime p = (2, w0).

    w0 = sqrt(D) for even D, 1 + sqrt(D) for odd D.  Enumerates w0 * O
    modulo 2*O and adjoins the zero class; only meaningful when 2 ramifies.
    """
    if ctx.dyadic is not DyadicClass.RAMIFIED:
        raise NotRamified(f"2 does not ramify for D={ctx.D}")
    w0 = ctx.sqrt_d if ctx.D % 2 == 0 else ctx.one + ctx.sqrt_d
    classes = {Residue2(0, 0)}
    for u in (0, 1):
        for v in (0, 1):
            classes.add(residue_mod_two(w0 * ctx.element(u, v)))
    return frozenset(classes)


def is_square_mod_two(alpha: QuadInt) -> bool:
    return residue_mod_two(alpha) in squares_mod_two(alpha.ctx)


def dyadic_valuation(alpha: QuadInt) -> int:
    """Valuation of alpha at the ramified prime p over 2 (p^2 = 2*O).

    Strips powers of 2 (worth 2 each since p^2 = 2*O), then checks one
    residue for the leftover factor of p.
    """
    if alpha.ctx.dyadic is not DyadicClass.RAMIFIED:
        raise NotRamified(f"2 does not ramify for D={alpha.ctx.D}")
    if not alpha:
        raise ZeroElement("the zero element has no finite valuation")
    u, v, t = alpha.u, alpha.v, 0
    while u % 2 == 0 and v % 2 == 0:
        u //= 2
        v //= 2
        t += 1
    in_p = Residue2(u & 1, v & 1) in _maximal_ideal_residues(alpha.ctx)
    return 2 * t + (1 if in_p else 0)


def dyadic_valuation_class(alpha: QuadInt) -> ValuationClass:
    """Coarse dyadic position: unit, exactly once in p, or in p^2 = 2*O."""
    if alpha.ctx.dyadic is not DyadicClass.RAMIFIED:
        return ValuationClass.NOT_APPLICABLE
    if not alpha:
        raise ZeroElement("the zero element has no valuation class")
    val = dyadic_valuation(alpha)
    if val == 0:
        return ValuationClass.UNIT
    if val == 1:
        return ValuationClass.IN_P_NOT_P2
    return ValuationClass.IN_P2
