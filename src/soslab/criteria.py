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
admissible n are read off in closed form as a `range`, so a hit costs the
same at any norm.  A radicand of at least D^2 always leaves one, whatever
the center (`_radicand_hits`, where it is proved); `peters_guaranteed`
reads that bound on one element.  `multiple_misses` decides the test for
the multiples k*beta of many betas and increasing k in one beta-major
pass, from three integers per beta read once: k*beta's radicand grows with
k, so the walk over k stops at the first k that reaches the bound, and the
admissible range is computed only below it.

The witness constructions pick concrete elements that certify negative
results: the doubling witness k + sqrt(D) (minimal k making it totally
positive) whose double is a sum of squares only for D in {2, 3, 5}; odd
multiples of it that stay obstructed mod 2*O when 2 ramifies; and a
totally positive element of valuation exactly 1 at the ramified prime,
which obstructs sums of squares in S-integer rings with odd denominators.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, Iterator

from ._record import Record
from .errors import NotOdd, NotRamified, NotTotallyPositive
from .quadfield import DyadicClass, QuadInt, RingContext
from .residues import is_square_mod_two


class PetersInterval(Record):
    """Exact record of one interval test.

    The admissible integers are the n with (scale*n - center)^2 <= radicand
    (and the required parity, when the ring imposes one); the real interval
    [(center - sqrt(radicand))/scale, (center + sqrt(radicand))/scale] is
    recoverable from the fields, closed endpoints included.
    """

    __slots__ = ("scale", "center", "radicand", "parity_required")
    scale: int
    center: int
    radicand: int
    parity_required: int | None

    def __init__(
        self, scale: int, center: int, radicand: int, parity_required: int | None
    ) -> None:
        self._set("scale", scale)
        self._set("center", center)
        self._set("radicand", radicand)
        self._set("parity_required", parity_required)

    def contains(self, n: int) -> bool:
        return n in self.admissible

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


def peters_five_squares(alpha: QuadInt) -> bool:
    """Interval test for "alpha is a sum of five squares in O"."""
    shape = _interval(alpha)
    return shape is not None and bool(_admissible_points(*shape))


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


def multiple_keys(beta: QuadInt) -> tuple[int, int, int]:
    """What `multiple_misses` reads of beta: its trace A, the parity of v (B's
    for D = 1 mod 4, else whether beta is no square mod 2*O), and its norm."""
    big_a, big_b = beta.half_coords
    norm = (big_a * big_a - beta.ctx.D * big_b * big_b) // 4
    return big_a, int(big_b % 2 or not is_square_mod_two(beta)), norm


def multiple_misses(
    ctx: RingContext, keys: list[tuple[int, int, int]], ks: Iterable[int]
) -> Iterator[tuple[int, int]]:
    """Every (index, k) such that the interval test rejects k*beta, for the
    betas given by their `multiple_keys` and the increasing multipliers ks
    (each k >= 1), in index order.  Within one index come first the k the
    test does not apply to, then the rejected k in increasing order.

    k*beta's interval has center c*tr(beta)/2 and radicand r*N(beta), c and r
    being the integer k's, 1's times k and k^2.  It applies unless k*beta is no square mod 2*O:
    as k*beta = beta (mod 2*O) for odd k and 0 for even k, that is odd k and v
    odd when kappa = 2 (the class of w).  Its parity, where one is required,
    is that of k*v.  No k*beta, nor k, is built.  Where the test does not
    apply, k*beta misses whatever N(beta).  The pass is beta-major: it reads
    each beta's keys once and walks the k the test applies to in increasing
    order.  Where r*N(beta) >= D^2 the test hits (`_radicand_hits`), and r
    grows with k, so the walk stops at the first k that reaches that bound:
    every later k*beta hits as well.  The bound is read as
    N(beta) >= ceil(D^2/r), one comparison per k, and the admissible range
    is computed only below it.
    """
    scale, unit_center, unit_radicand, parity = _interval(ctx.one)
    odd_squares = is_square_mod_two(ctx.omega)
    bound = ctx.D * ctx.D
    # Per v parity: the k the test does not apply to; and, in k order, each
    # k it applies to with its center, radicand and parity, and its reach,
    # the least N(beta) at which radicand*N(beta) >= D^2.
    untested: tuple[list[int], list[int]] = ([], [])
    tested: tuple[list, list] = ([], [])
    last = 0
    for k in ks:
        if k < 1:
            raise ValueError(f"multiplier must be >= 1, got {k}")
        if k <= last:
            raise ValueError(f"multipliers must increase, got {k} after {last}")
        last = k
        center, radicand = k * unit_center, k * k * unit_radicand
        reach = -(-bound // radicand)
        tested[0].append((k, reach, center, radicand, parity))
        if k % 2 and not odd_squares:
            untested[1].append(k)
        else:
            tested[1].append((k, reach, center, radicand, None if parity is None else k % 2))
    for i, (trace, v_parity, norm) in enumerate(keys):
        for k in untested[v_parity]:
            yield i, k
        for k, reach, center, radicand, parity in tested[v_parity]:
            if norm >= reach:
                break
            if not _admissible_points(scale, center * trace // 2, radicand * norm, parity):
                yield i, k


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
    if ctx.dyadic is not DyadicClass.RAMIFIED:
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
    if ctx.dyadic is not DyadicClass.RAMIFIED:
        raise NotRamified(f"2 does not ramify for D={ctx.D}")
    if m % 2 == 0:
        raise NotOdd(f"multiplier must be odd, got {m}")
    if m < 1:
        raise ValueError(f"multiplier must be >= 1, got {m}")
    return doubling_witness(ctx) * m
