"""Residue classes modulo 2*O and the local sum-of-squares criterion.

O/2O has exactly four classes, represented by coordinate parities
(u mod 2, v mod 2).  Which are squares is one closed form on the stored
pair (A, B), proved in `is_square_mod_two`; `squares_mod_two` squares the
four representatives in the ring, the reference the tests hold it to.
Where 2 ramifies (kappa = 2), `dyadic_valuation` gives an element's
valuation at the prime p over 2.

The local criterion: a totally positive element is a sum of r >= 5 squares
at every completion of O if and only if it is congruent to a square mod
2*O.  (At the two real places total positivity settles it; at odd primes
there is no obstruction; at even primes sums of squares collapse to single
squares modulo 2*O because cross terms vanish.)
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotRamified, ZeroElement
from .quadfield import QuadInt, RingContext


class Residue2(NamedTuple):
    """A class of O/2O, named by coordinate parities."""

    e0: int
    e1: int


def residue_mod_two(alpha: QuadInt) -> Residue2:
    return Residue2(alpha.u & 1, alpha.v & 1)


def squares_mod_two(ctx: RingContext) -> frozenset[Residue2]:
    """The set of classes of O/2O that are squares, by direct enumeration."""
    return frozenset(
        residue_mod_two(ctx.element(u, v).square()) for u in (0, 1) for v in (0, 1)
    )


def is_square_mod_two(alpha: QuadInt) -> bool:
    """Whether alpha is a square mod 2*O: always when 2 is unramified, else
    exactly when B = 0 (mod 4), i.e. v is even.

    When 2 ramifies (w = sqrt(D), B = 2v), (u + v*sqrt(D))^2 = u^2 + D*v^2
    (mod 2*O), a rational class; 0 = 0^2 and 1 = 1^2, so the squares are
    exactly the classes with v even.  Otherwise O/2O is reduced of
    characteristic 2 (2*O is a product of distinct primes), where squaring
    is additive and injective, hence bijective: every class is a square.
    """
    return alpha.ctx.kappa == 1 or alpha.half_coords[1] % 4 == 0


def dyadic_valuation(alpha: QuadInt) -> int:
    """Valuation of alpha at the prime p over 2 where 2 ramifies (kappa = 2,
    p^2 = 2*O); NotRamified where kappa = 1, ZeroElement for 0.

    Strips powers of 2 (worth 2 each) while A = B = 0 (mod 4); what is left
    lies in p exactly when its norm is even, as p is the only prime over 2
    and N(p) = 2.
    """
    if alpha.ctx.kappa == 1:
        raise NotRamified(f"2 does not ramify for D={alpha.ctx.D}")
    if not alpha:
        raise ZeroElement("the zero element has no finite valuation")
    big_a, big_b = alpha.half_coords
    t = 0
    while big_a % 4 == 0 and big_b % 4 == 0:
        big_a //= 2
        big_b //= 2
        t += 1
    norm = (big_a * big_a - alpha.ctx.D * big_b * big_b) // 4
    return 2 * t + (1 if norm % 2 == 0 else 0)
