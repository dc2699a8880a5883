"""Closed-form representability criteria and explicit witness elements.

Peters' five-square criterion reduces "is alpha a sum of five squares" to
the existence of an integer in an explicit interval with radical
endpoints.  For D = 1 (mod 4) the criterion is an equivalence; for
D = 2, 3 (mod 4) the stated direction is sufficiency (interval hit implies
five squares), and it only speaks to elements whose sqrt(D)-coefficient is
even -- an odd coefficient already fails the mod-2*O square test, so such
elements are not sums of squares at all.

The interval's scale, center, radicand and parity are written once, in
`_interval`, and every test here reads them.  "n is in [(c - sqrt(R))/s,
(c + sqrt(R))/s]" is the integer inequality (s*n - c)^2 <= R, and the
admissible n are read off in closed form as a `range` (`PetersInterval`
prints them), so a hit costs the same at any norm.  Along a row of one
trace A the center is fixed and only the radicand moves, with B, so the
test is one bound per row, D*B^2 <= A^2 - (kappa*delta)^2, delta the
distance from the center to the nearest admissible point (`_row_bound`,
which `peters_five_squares` reads).  A radicand of at least D^2 always
leaves a point, whatever the center (`_radicand_hits`, where it is
proved); `peters_guaranteed` reads that bound on one element.
`multiple_misses` decides the test for the even multiples 2m*beta of many
betas, m = 1..m_max, in one pass over the betas from two integers per
beta read once, its trace and norm: 2m*beta's radicand grows with m, so
each walk stops at the first m that reaches the bound, the admissible
range is computed only below it, and the table of multipliers stops where
every beta reaches it (`tabled_multipliers`): ceil(D/4) - 1 entries when
D = 1 (mod 4), ceil(D/2) - 1 otherwise.

The witness constructions pick concrete elements that certify negative
results: the doubling witness k + sqrt(D) (minimal k making it totally
positive) whose double is a sum of squares only for D in {2, 3, 5}; odd
multiples of it that stay obstructed mod 2*O when 2 ramifies; and a
totally positive element of valuation exactly 1 at the ramified prime,
which obstructs sums of squares in S-integer rings with odd denominators.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator

from ._record import Record
from .errors import NotOdd, NotRamified, NotTotallyPositive
from .quadfield import QuadInt, RingContext
from .residues import is_square_mod_two


class PetersInterval(Record):
    """Exact record of one interval test.

    The admissible integers are the n with (scale*n - center)^2 <= radicand
    (and the required parity, when the ring imposes one), and `n in
    interval.admissible` tests one of them; the real interval
    [(center - sqrt(radicand))/scale, (center + sqrt(radicand))/scale] is
    recoverable from the fields, closed endpoints included.
    """

    __slots__ = ("scale", "center", "radicand", "parity_required")
    scale: int
    center: int
    radicand: int
    parity_required: int | None

    @property
    def admissible(self) -> range:
        """The admissible integers in closed form, at no cost however many."""
        return _admissible_points(self.scale, self.center, self.radicand, self.parity_required)


def _admissible_points(scale: int, center: int, radicand: int, parity: int | None) -> range:
    # (scale*n - center)^2 <= radicand exactly when |scale*n - center| <=
    # isqrt(radicand), so the admissible n run from ceil((center - root) /
    # scale) to floor((center + root) / scale).
    root = isqrt(radicand)
    lo = -((root - center) // scale)
    hi = (center + root) // scale
    if parity is None:
        return range(lo, hi + 1)
    return range(lo + (lo - parity) % 2, hi + 1, 2)


def _interval(alpha: QuadInt) -> tuple[int, int, int, int | None] | None:
    """(scale, center, radicand, parity) of alpha's interval test, read off
    its pair (A, B), or None where it does not apply: alpha is no square mod
    2*O, so no sum of squares.  Requires alpha totally positive."""
    ctx = alpha.ctx
    big_a, big_b = alpha.half_coords
    radicand = big_a * big_a - ctx.D * big_b * big_b
    if big_a <= 0 or radicand <= 0:
        raise NotTotallyPositive(f"{alpha} is not totally positive")
    if ctx.kappa == 1:
        return ctx.D, big_a, radicand, big_b % 2
    if not is_square_mod_two(alpha):
        return None
    return 2 * ctx.D, big_a // 2, radicand // 4, None


def peters_interval(alpha: QuadInt) -> PetersInterval | None:
    """The interval whose integer points certify "sum of five squares".

    Returns None for the inapplicable case (D = 2, 3 mod 4 with odd
    sqrt(D)-coefficient), where alpha is not a sum of squares anyway.
    Requires alpha totally positive.
    """
    shape = _interval(alpha)
    return None if shape is None else PetersInterval(*shape)


def _row_bound(ctx: RingContext, big_a: int) -> int:
    """The interval test along the row of trace A, as one bound on B: a
    totally positive (A + B*sqrt(D))/2 where the test applies hits exactly
    when D*B^2 <= _row_bound(ctx, A).

    In both shapes of `_interval` the center is A/kappa, the admissible
    scale*n are the integers of one class mod 2D (D*A's when kappa = 1,
    where n must have the parity of B, hence of A; 0 when kappa = 2, where
    A is even), and kappa^2 times the radicand is A^2 - D*B^2.  So with
    delta the distance from the center to that class, the test hits
    exactly when delta^2 <= radicand, that is D*B^2 <= A^2 - (kappa*delta)^2.
    """
    two_d = 2 * ctx.D
    offset = (big_a // ctx.kappa - ctx.D * (big_a % 2)) % two_d
    delta = ctx.kappa * min(offset, two_d - offset)
    return big_a * big_a - delta * delta


def peters_five_squares(alpha: QuadInt) -> bool:
    """Interval test for "alpha is a sum of five squares in O", read off
    the bound of alpha's row (`_row_bound`) where the test applies."""
    if _interval(alpha) is None:
        return False
    big_a, big_b = alpha.half_coords
    return alpha.ctx.D * big_b * big_b <= _row_bound(alpha.ctx, big_a)


def _radicand_hits(ctx: RingContext, radicand: int) -> bool:
    """Whether an interval test of ctx with this radicand has an admissible
    integer whatever its center: the radicand is at least D^2.

    The admissible n fill |scale*n - center| <= r = isqrt(radicand), a real
    interval of length 2*r/scale, and r >= D exactly when radicand >= D^2.
    For D = 1 (mod 4) the scale is D, so the length is then at least 2 and
    holds an n of either parity.  Otherwise the scale is 2D with no parity,
    so the length is at least 1 and holds an integer.
    """
    return radicand >= ctx.D * ctx.D


def peters_guaranteed(alpha: QuadInt) -> bool:
    """Whether the norm of alpha alone guarantees an interval hit: the test
    applies and its radicand is at least D^2 (`_radicand_hits`).

    For D = 1 (mod 4) that reads 4*N(alpha) >= D^2; otherwise it reads
    N(alpha) >= D^2, with an even sqrt(D)-coefficient.  Requires alpha
    totally positive.
    """
    shape = _interval(alpha)
    return shape is not None and _radicand_hits(alpha.ctx, shape[2])


def tabled_multipliers(ctx: RingContext, m_max: int) -> int:
    """How many multipliers `multiple_misses` tables: m = 1, 2, ... up to
    min(m_max, ceil(kappa*D/4) - 1).

    1's radicand is 4/kappa^2 in units of its interval (`_interval(1)`), so
    2m's is (4m/kappa)^2, which reaches D^2 exactly when m >= kappa*D/4.
    From there on every 2m*beta hits (`_radicand_hits`), as N(beta) >= 1.
    """
    return min(m_max, -(-ctx.kappa * ctx.D // 4) - 1)


def multiple_misses(
    ctx: RingContext, betas: list[QuadInt], m_max: int
) -> Iterator[tuple[int, int]]:
    """Every (index, m) with 1 <= m <= m_max such that the interval test
    rejects 2*m*beta, in index order and, within one index, in increasing m.

    2*m*beta lies in 2*O, so it is a square mod 2*O and the test applies;
    where D = 1 (mod 4) requires a parity, that parity is even.  Its center
    is 2m*tr(beta)/2 and its radicand 4m^2*N(beta), each in units of 1's
    (`_interval(1)`), so each beta is read once, as its trace and norm, and
    no multiple is built.  Where the radicand reaches D^2 the test hits
    (`_radicand_hits`), and it grows with m, so each beta's walk stops at
    the first m whose reach, the least norm at which it gets there, is at
    most N(beta).  The table of multipliers stops before the first m whose
    reach is 1, since every beta has N(beta) >= 1 (`tabled_multipliers`),
    whatever m_max.

    At a fixed trace, a larger N(beta) only widens each interval, so a
    caller that asks where each m first misses along rows of one trace
    needs only each row's least-norm beta (`verify.estimate_stable_multiplier`
    hands it one per row).
    """
    scale, unit_center, unit_radicand, parity = _interval(ctx.one)
    bound = ctx.D * ctx.D
    # In m order: m, its reach, and the center and radicand per unit of
    # tr(beta) and N(beta).
    table = []
    for m in range(1, tabled_multipliers(ctx, m_max) + 1):
        radicand = 4 * m * m * unit_radicand
        table.append((m, -(-bound // radicand), m * unit_center, radicand))
    for i, beta in enumerate(betas):
        trace, norm = beta.trace, beta.norm
        for m, reach, center, radicand in table:
            if norm >= reach:
                break
            if not _admissible_points(scale, center * trace, radicand * norm, parity):
                yield i, m


def doubling_witness(ctx: RingContext) -> QuadInt:
    """The smallest totally positive k + sqrt(D) (resp. k + w), k integer.

    Doubling this element produces the critical test case for whether all
    of 2*O+ consists of sums of squares; that holds only for D in {2,3,5}.
    """
    root = isqrt(ctx.D)
    if ctx.kappa == 1:
        # k + (1 - sqrt(D))/2 > 0 first holds at k = floor((1 + sqrt(D))/2).
        return ctx.element((1 + root) // 2, 1)
    return ctx.element(root + 1, 1)


def ramified_obstruction_witness(ctx: RingContext) -> QuadInt:
    """A totally positive element of valuation exactly 1 at the prime over 2.

    Built as sqrt(D) (even D) or 1 + sqrt(D) (odd D) plus the least even
    rational integer s >= 0 making it totally positive: with t = D mod 2,
    t + s + sqrt(D) is totally positive exactly when t + s > sqrt(D), that
    is t + s > isqrt(D), as D is no square.  Such an element is not a
    square mod 2*O, which blocks sums of squares even after inverting any
    odd modulus.
    """
    if ctx.kappa == 1:
        raise NotRamified(f"2 does not ramify for D={ctx.D}")
    base = ctx.sqrt_d if ctx.D % 2 == 0 else ctx.one + ctx.sqrt_d
    shift = isqrt(ctx.D) + 1 - ctx.D % 2  # at least 1, as D >= 2
    return base + shift + shift % 2


def small_multiplier_obstructed(ctx: RingContext, m: int) -> bool:
    """Whether 16*m^2 < kappa^2*D, the regime where m*(doubling witness)
    is provably not a sum of squares (so m*O+ is not contained in them)."""
    if m < 1:
        raise ValueError(f"multiplier must be >= 1, got {m}")
    return 16 * m * m < ctx.kappa * ctx.kappa * ctx.D


def large_multiplier_guaranteed(ctx: RingContext, m: int) -> bool:
    """Whether every element of kappa*m*O+ passes the interval test, hence
    is a sum of five squares; true exactly when 2*m >= D.

    Each such element is kappa*m*beta with N(beta) >= 1, so its norm is at
    least that of the rational integer kappa*m, and for kappa = 2 its
    sqrt(D)-coefficient is even: `peters_guaranteed` on kappa*m covers
    them all.
    """
    if m < 1:
        raise ValueError(f"multiplier must be >= 1, got {m}")
    return peters_guaranteed(ctx.from_int(ctx.kappa * m))


def odd_multiple_witness(ctx: RingContext, m: int) -> QuadInt:
    """m times the doubling witness, for odd m in a ramified ring.

    The product keeps an odd sqrt(D)-coefficient, hence is not a square
    mod 2*O and not a sum of squares -- for every odd m, however large.
    """
    if ctx.kappa == 1:
        raise NotRamified(f"2 does not ramify for D={ctx.D}")
    if m % 2 == 0:
        raise NotOdd(f"multiplier must be odd, got {m}")
    if m < 1:
        raise ValueError(f"multiplier must be >= 1, got {m}")
    return doubling_witness(ctx) * m
