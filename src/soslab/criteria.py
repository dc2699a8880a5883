"""Closed-form representability criteria and explicit witness elements.

Peters' five-square criterion reduces "is alpha a sum of five squares" to
the existence of an integer in an explicit interval with radical
endpoints.  For D = 1 (mod 4) the criterion is an equivalence; for
D = 2, 3 (mod 4) the stated direction is sufficiency (interval hit implies
five squares), and it only speaks to elements whose sqrt(D)-coefficient is
even -- an odd coefficient already fails the mod-2*O square test, so such
elements are not sums of squares at all.

Interval membership is decided exactly: "n is in [(c - sqrt(R))/s,
(c + sqrt(R))/s]" is the integer inequality (s*n - c)^2 <= R.  The
admissible integers are read off in closed form as a `range`, so deciding
a hit costs the same for an element of any norm; `peters_guaranteed` is
the norm bound above which the interval always holds one.
`first_even_multiple_miss` decides the test for every even multiple
k*beta of a list of betas from two integers per beta, their center
coordinate and norm, without building k*beta.

The witness constructions pick concrete elements that certify negative
results: the doubling witness k + sqrt(D) (minimal k making it totally
positive) whose double is a sum of squares only for D in {2, 3, 5}; odd
multiples of it that stay obstructed mod 2*O when 2 ramifies; and a
totally positive element of valuation exactly 1 at the ramified prime,
which obstructs sums of squares in S-integer rings with odd denominators.
"""

from __future__ import annotations

from math import isqrt

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
        if self.parity_required is not None and n % 2 != self.parity_required:
            return False
        t = self.scale * n - self.center
        return t * t <= self.radicand

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


def peters_interval(alpha: QuadInt) -> PetersInterval | None:
    """The interval whose integer points certify "sum of five squares".

    Returns None for the inapplicable case (D = 2, 3 mod 4 with odd
    sqrt(D)-coefficient), where alpha is not a sum of squares anyway.
    Requires alpha totally positive.
    """
    if not alpha.is_totally_positive():
        raise NotTotallyPositive(f"{alpha} is not totally positive")
    ctx = alpha.ctx
    if ctx.kappa == 1:
        # alpha = a0 + a1*w: integer n with n = a1 (mod 2) in
        # [(2*a0 + a1 - 2*sqrt(N))/D, (2*a0 + a1 + 2*sqrt(N))/D].
        scale, center = ctx.D, alpha.trace
        radicand = 4 * alpha.norm
        parity = alpha.v % 2
    else:
        if alpha.v % 2:
            return None
        # alpha = a0 + 2*a1*sqrt(D): integer n in
        # [(a0 - sqrt(N))/(2D), (a0 + sqrt(N))/(2D)].
        scale, center = 2 * ctx.D, alpha.u
        radicand = alpha.norm
        parity = None
    return PetersInterval(scale, center, radicand, parity)


def peters_five_squares(alpha: QuadInt) -> bool:
    """Interval test for "alpha is a sum of five squares in O"."""
    interval = peters_interval(alpha)
    return interval is not None and bool(interval.admissible)


def peters_guaranteed(alpha: QuadInt) -> bool:
    """Whether the norm of alpha alone guarantees an interval hit.

    The admissible n fill |scale*n - center| <= isqrt(radicand), a closed
    interval of length 2*isqrt(radicand)/scale.  For D = 1 (mod 4) that is
    2*isqrt(4N)/D with parity step 2, which holds a point of each parity
    once isqrt(4N) >= D, i.e. 4*N(alpha) >= D^2.  Otherwise it is
    isqrt(N)/D with no parity, which holds a point once N(alpha) >= D^2,
    provided the interval applies at all (even sqrt(D)-coefficient).
    Requires alpha totally positive.
    """
    if not alpha.is_totally_positive():
        raise NotTotallyPositive(f"{alpha} is not totally positive")
    ctx = alpha.ctx
    if ctx.kappa == 1:
        return 4 * alpha.norm >= ctx.D * ctx.D
    return alpha.v % 2 == 0 and alpha.norm >= ctx.D * ctx.D


def multiple_keys(beta: QuadInt) -> tuple[int, int]:
    """The two integers of beta that decide the interval test of every even
    multiple k*beta (`first_even_multiple_miss`): the interval's center
    coordinate (the trace when D = 1 mod 4, u otherwise) and the norm."""
    return (beta.trace if beta.ctx.kappa == 1 else beta.u), beta.norm


def first_even_multiple_miss(
    ctx: RingContext, keys: list[tuple[int, int]], k: int
) -> int | None:
    """Index of the first beta, given by its `multiple_keys`, whose multiple
    k*beta the interval test rejects, or None when the test accepts them all.

    For even k >= 2 and totally positive beta, k*beta has an even
    sqrt(D)-coefficient, so the interval always applies: for D = 1 (mod 4)
    scale D, center k*tr(beta), radicand 4*k^2*N(beta) and even n;
    otherwise scale 2D, center k*u, radicand k^2*N(beta).  A beta whose
    radicand reaches D^2 meets `peters_guaranteed`'s bound and is skipped.
    """
    if k < 2 or k % 2:
        raise ValueError(f"multiplier must be even and >= 2, got {k}")
    if ctx.kappa == 1:
        scale, factor, parity = ctx.D, 4 * k * k, 0
    else:
        scale, factor, parity = 2 * ctx.D, k * k, None
    # radicand = factor*N >= D^2 exactly when N >= ceil(D^2 / factor).
    guaranteed = -(-ctx.D * ctx.D // factor)
    for i, (center, norm) in enumerate(keys):
        if norm < guaranteed and not _admissible_points(
            scale, k * center, factor * norm, parity
        ):
            return i
    return None


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
