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
same at any norm; `peters_guaranteed` is the radicand bound above which
there always is one.  `multiple_misses` decides the test for the
multiples k*beta of many betas, from three integers per beta.

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
from .quadfield import DyadicClass, QuadInt, RingContext


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
    """(scale, center, radicand, parity) of alpha's interval test, or None
    where the test does not apply (D = 2, 3 mod 4 with odd
    sqrt(D)-coefficient).  Requires alpha totally positive."""
    if not alpha.is_totally_positive():
        raise NotTotallyPositive(f"{alpha} is not totally positive")
    ctx = alpha.ctx
    if ctx.kappa == 1:
        # alpha = a0 + a1*w: integer n with n = a1 (mod 2) in
        # [(2*a0 + a1 - 2*sqrt(N))/D, (2*a0 + a1 + 2*sqrt(N))/D].
        return ctx.D, alpha.trace, 4 * alpha.norm, alpha.v % 2
    if alpha.v % 2:
        return None
    # alpha = a0 + 2*a1*sqrt(D): integer n in
    # [(a0 - sqrt(N))/(2D), (a0 + sqrt(N))/(2D)].
    return 2 * ctx.D, alpha.u, alpha.norm, None


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


def peters_guaranteed(alpha: QuadInt) -> bool:
    """Whether the norm of alpha alone guarantees an interval hit: the test
    applies and its radicand is at least D^2.

    The admissible n fill |scale*n - center| <= r = isqrt(radicand), a real
    interval of length 2*r/scale, and r >= D exactly when radicand >= D^2.
    For D = 1 (mod 4) the scale is D, so the length is then at least 2 and
    holds an n of the required parity; here that reads 4*N(alpha) >= D^2.
    Otherwise the scale is 2D with no parity, so the length is at least 1
    and holds an integer; that reads N(alpha) >= D^2, with an even
    sqrt(D)-coefficient.  Requires alpha totally positive.
    """
    shape = _interval(alpha)
    return shape is not None and shape[2] >= alpha.ctx.D * alpha.ctx.D


def multiple_keys(beta: QuadInt) -> tuple[int, int, int]:
    """What `multiple_misses` reads of beta: its trace, the parity of its
    second coordinate, and its norm."""
    return beta.trace, beta.v % 2, beta.norm


def multiple_misses(
    ctx: RingContext, keys: list[tuple[int, int, int]], k: int
) -> Iterator[int]:
    """The index, in order, of every beta, given by its `multiple_keys`,
    whose multiple k*beta (k >= 1) the interval test rejects.

    k*beta's interval has center c*tr(beta)/2 and radicand r*N(beta), c and
    r being those of the integer k; whether it applies, and its parity,
    follow k*v, so they are those of k (v even) or of k times the doubling
    witness, whose v is 1 (v odd).  `_interval` is read on those two
    elements once per k, and no k*beta is built.
    """
    if k < 1:
        raise ValueError(f"multiplier must be >= 1, got {k}")
    unit = _interval(ctx.from_int(k))
    by_v_parity = (unit, _interval(k * doubling_witness(ctx)))
    scale, center, radicand, _ = unit
    for i, (trace, v_parity, norm) in enumerate(keys):
        shape = by_v_parity[v_parity]
        if shape is None or not _admissible_points(
            scale, center * trace // 2, radicand * norm, shape[3]
        ):
            yield i


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
    rational integer making it totally positive.  Such an element is not a
    square mod 2*O, which blocks sums of squares even after inverting any
    odd modulus.
    """
    if ctx.dyadic is not DyadicClass.RAMIFIED:
        raise NotRamified(f"2 does not ramify for D={ctx.D}")
    base = ctx.sqrt_d if ctx.D % 2 == 0 else ctx.one + ctx.sqrt_d
    shift = 0
    while not (base + shift).is_totally_positive():
        shift += 2
    return base + shift


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
