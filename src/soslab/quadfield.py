"""Exact arithmetic in the ring of integers of a real quadratic field.

For squarefree D >= 2 the ring of integers of Q(sqrt(D)) is Z[w] with

    w = sqrt(D)           when D = 2, 3 (mod 4),
    w = (1 + sqrt(D))/2   when D = 1 (mod 4).

Elements are stored as integer coordinate pairs (u, v) meaning u + v*w.
Every question about the two real embeddings (signs, total positivity,
comparisons against sqrt(D)) is answered by integer sign tests; no
floating point is used anywhere.
"""

from __future__ import annotations

import enum
from math import isqrt
from typing import TYPE_CHECKING, Iterator, Union

from ._record import Record
from .errors import ContextMismatch, NotSquarefree, TooSmall

if TYPE_CHECKING:
    # Annotations only: fractions imports decimal, which no caller needs.
    from fractions import Fraction

    Rational = Union[int, Fraction]


class DyadicClass(enum.Enum):
    """Splitting behaviour of the rational prime 2 in the ring."""

    RAMIFIED = "ramified"  # D = 2, 3 (mod 4): 2*O = p^2
    SPLIT = "split"  # D = 1 (mod 8)
    INERT = "inert"  # D = 5 (mod 8)


def _sign(x: Rational) -> int:
    return (x > 0) - (x < 0)


def square_factor(d: int) -> int | None:
    """The smallest prime p with p^2 | d, or None when d >= 1 is squarefree.

    Divides out the primes up to the cube root of what is left; at that
    point the cofactor has at most two prime factors, so it is divisible by
    a square exactly when it is a perfect square.  Exact, in O(d^(1/3)).
    """
    n, p = d, 2
    while p * p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return p
        p += 1 if p == 2 else 2
    root = isqrt(n)
    return root if root > 1 and root * root == n else None


class RingContext(Record):
    """Validated container for everything derived from a squarefree D >= 2.

    Construction checks that D is squarefree (see `square_factor`), so
    holding a context is proof the parameters are coherent.  `kappa` and
    `dyadic` follow from D, so two contexts are equal when their D are.
    """

    __slots__ = ("D", "kappa", "dyadic")
    D: int
    kappa: int
    dyadic: DyadicClass

    def __init__(self, D: int) -> None:
        self._set("D", D)
        self.__post_init__()

    def __post_init__(self) -> None:
        # Validates D and derives the other fields; a hook of its own, so
        # that a caller can count the contexts built (perfbench does).
        d = self.D
        if not isinstance(d, int) or d < 2:
            raise TooSmall(f"D must be an integer >= 2, got {d!r}")
        p = square_factor(d)
        if p is not None:
            raise NotSquarefree(d, p)
        mod4 = d % 4
        if mod4 != 1:
            dyadic = DyadicClass.RAMIFIED
        elif d % 8 == 1:
            dyadic = DyadicClass.SPLIT
        else:
            dyadic = DyadicClass.INERT
        self._set("kappa", 1 if mod4 == 1 else 2)
        self._set("dyadic", dyadic)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is RingContext:
            return self.D == other.D  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.D)

    # -- element constructors ------------------------------------------------

    def element(self, u: int, v: int = 0) -> QuadInt:
        return QuadInt(self, u, v)

    def from_int(self, n: int) -> QuadInt:
        return QuadInt(self, n, 0)

    def from_sqrt_pair(self, a: int, b: int) -> QuadInt:
        """Element a + b*sqrt(D) with integer a, b."""
        if self.kappa == 1:
            return QuadInt(self, a - b, 2 * b)
        return QuadInt(self, a, b)

    def from_half_pair(self, big_a: int, big_b: int) -> QuadInt:
        """Element (A + B*sqrt(D))/2 from doubled coordinates (A, B).

        The pair must satisfy the integrality rule of the ring: A = B (mod 2)
        when D = 1 (mod 4), both even otherwise.
        """
        if self.kappa == 1:
            if (big_a - big_b) % 2:
                raise ValueError(
                    f"({big_a}+{big_b}*sqrt{self.D})/2 is not integral: "
                    "coordinates differ mod 2"
                )
            return QuadInt(self, (big_a - big_b) // 2, big_b)
        if big_a % 2 or big_b % 2:
            raise ValueError(
                f"({big_a}+{big_b}*sqrt{self.D})/2 is not integral for "
                f"D={self.D}: coordinates must be even"
            )
        return QuadInt(self, big_a // 2, big_b // 2)

    # -- distinguished elements ----------------------------------------------

    @property
    def zero(self) -> QuadInt:
        return QuadInt(self, 0, 0)

    @property
    def one(self) -> QuadInt:
        return QuadInt(self, 1, 0)

    @property
    def omega(self) -> QuadInt:
        return QuadInt(self, 0, 1)

    @property
    def sqrt_d(self) -> QuadInt:
        """sqrt(D) as a ring element (equals 2w - 1 when D = 1 mod 4)."""
        if self.kappa == 1:
            return QuadInt(self, -1, 2)
        return QuadInt(self, 0, 1)

    def __repr__(self) -> str:
        return f"RingContext(D={self.D})"


def real_sign(ctx: RingContext, p: Rational, q: Rational) -> int:
    """Exact sign of p + q*sqrt(D) for rational p, q.

    Resolved by case analysis on the signs of p and q plus one comparison
    of p^2 against q^2*D; since D is squarefree (hence never a rational
    square) the value is zero only for p = q = 0.
    """
    if q == 0:
        return _sign(p)
    if p == 0:
        return _sign(q)
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    t = _sign(p * p - q * q * ctx.D)
    return t if p > 0 else -t


class QuadInt(Record):
    """Immutable element u + v*w of the ring of integers of Q(sqrt(D))."""

    __slots__ = ("ctx", "u", "v")
    ctx: RingContext
    u: int
    v: int

    def __init__(self, ctx: RingContext, u: int, v: int) -> None:
        self._set("ctx", ctx)
        self._set("u", u)
        self._set("v", v)

    # -- coordinate views ----------------------------------------------------

    @property
    def half_coords(self) -> tuple[int, int]:
        """Doubled sqrt-basis coordinates (A, B) with self = (A + B*sqrt(D))/2.

        Always integral, for both shapes of w; most sign work happens here.
        """
        if self.ctx.kappa == 1:
            return 2 * self.u + self.v, self.v
        return 2 * self.u, 2 * self.v

    @property
    def trace(self) -> int:
        return self.half_coords[0]

    @property
    def norm(self) -> int:
        if self.ctx.kappa == 1:
            return self.u * self.u + self.u * self.v - self.v * self.v * (
                (self.ctx.D - 1) // 4
            )
        return self.u * self.u - self.ctx.D * self.v * self.v

    def conjugate(self) -> QuadInt:
        """Image under the nontrivial field automorphism sqrt(D) -> -sqrt(D)."""
        if self.ctx.kappa == 1:
            return QuadInt(self.ctx, self.u + self.v, -self.v)
        return QuadInt(self.ctx, self.u, -self.v)

    # -- embeddings ----------------------------------------------------------

    def is_totally_positive(self) -> bool:
        big_a, big_b = self.half_coords
        return (
            real_sign(self.ctx, big_a, big_b) > 0
            and real_sign(self.ctx, big_a, -big_b) > 0
        )

    def is_totally_nonnegative(self) -> bool:
        big_a, big_b = self.half_coords
        return (
            real_sign(self.ctx, big_a, big_b) >= 0
            and real_sign(self.ctx, big_a, -big_b) >= 0
        )

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other: QuadInt | int) -> QuadInt:
        if isinstance(other, int):
            return QuadInt(self.ctx, other, 0)
        if isinstance(other, QuadInt):
            if other.ctx != self.ctx:
                raise ContextMismatch(
                    f"mixing D={self.ctx.D} and D={other.ctx.D} elements"
                )
            return other
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: QuadInt | int) -> QuadInt:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadInt(self.ctx, self.u + other.u, self.v + other.v)

    __radd__ = __add__

    def __sub__(self, other: QuadInt | int) -> QuadInt:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadInt(self.ctx, self.u - other.u, self.v - other.v)

    def __rsub__(self, other: QuadInt | int) -> QuadInt:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> QuadInt:
        return QuadInt(self.ctx, -self.u, -self.v)

    def __mul__(self, other: QuadInt | int) -> QuadInt:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        u1, v1, u2, v2 = self.u, self.v, other.u, other.v
        if self.ctx.kappa == 1:
            # w^2 = (D-1)/4 + w
            c = (self.ctx.D - 1) // 4
            return QuadInt(self.ctx, u1 * u2 + c * v1 * v2, u1 * v2 + v1 * u2 + v1 * v2)
        return QuadInt(self.ctx, u1 * u2 + self.ctx.D * v1 * v2, u1 * v2 + v1 * u2)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QuadInt:
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = self.ctx.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def square(self) -> QuadInt:
        return self * self

    def __bool__(self) -> bool:
        return bool(self.u or self.v)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.v == 0 and self.u == other
        if isinstance(other, QuadInt):
            return self.ctx == other.ctx and self.u == other.u and self.v == other.v
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ctx.D, self.u, self.v))

    # -- canonical presentation ----------------------------------------------

    def canonical(self) -> QuadInt:
        """The sign representative with a > 0, or a = 0 and b > 0 (0 maps to 0)."""
        big_a, big_b = self.half_coords
        if big_a > 0 or (big_a == 0 and big_b > 0):
            return self
        return -self

    def __str__(self) -> str:
        unit = "w" if self.ctx.kappa == 1 else f"sqrt{self.ctx.D}"
        if self.v == 0:
            return str(self.u)
        coeff = "" if abs(self.v) == 1 else str(abs(self.v))
        tail = f"{coeff}{unit}"
        if self.u == 0:
            return tail if self.v > 0 else f"-{tail}"
        op = "+" if self.v > 0 else "-"
        return f"{self.u}{op}{tail}"

    def __repr__(self) -> str:
        return f"QuadInt(D={self.ctx.D}, u={self.u}, v={self.v})"


# -- the box of totally positive elements ---------------------------------------


def _box_rows(ctx: RingContext, trace_bound: int) -> Iterator[tuple[int, range]]:
    """Each trace A <= trace_bound with the B that complete it, ascending,
    in doubled coordinates: (A + B*sqrt(D))/2 is totally positive exactly
    when A > 0 and D*B^2 < A^2, and integral exactly when A = B (mod 2),
    both even unless D = 1 (mod 4).  The one statement of that rule."""
    step = 1 if ctx.kappa == 1 else 2
    for big_a in range(step, trace_bound + 1, step):
        b_max = isqrt((big_a * big_a - 1) // ctx.D)
        b_max -= (b_max - big_a) % 2
        yield big_a, range(-b_max, b_max + 1, 2)


def scan_totally_positive(ctx: RingContext, trace_bound: int) -> Iterator[QuadInt]:
    """Every totally positive element with trace <= trace_bound, exactly once,
    in (trace, a, b) lexicographic order."""
    for big_a, row in _box_rows(ctx, trace_bound):
        for big_b in row:
            yield ctx.from_half_pair(big_a, big_b)


def count_totally_positive(ctx: RingContext, trace_bound: int, limit: int) -> int:
    """How many elements `scan_totally_positive` yields, or, once the count
    passes `limit`, some number above it: every even trace holds an element,
    so it reads at most 2*(limit + 1) rows, whatever the trace bound."""
    total = 0
    for _, row in _box_rows(ctx, trace_bound):
        total += len(row)
        if total > limit:
            break
    return total
