"""Exact arithmetic in the ring of integers of a real quadratic field.

For squarefree D >= 2 the ring of integers of Q(sqrt(D)) is Z[w] with

    w = sqrt(D)           when D = 2, 3 (mod 4),
    w = (1 + sqrt(D))/2   when D = 1 (mod 4).

An element is stored as its doubled pair (A, B), meaning (A + B*sqrt(D))/2,
which is integral exactly when A = B (mod 2), both even unless D = 1 (mod 4)
(`RingContext.is_integral`, the one statement of that rule).
In that pair the trace is A, the norm (A^2 - D*B^2)/4 and the conjugate
(A, -B), and total positivity is the integer test A > 0, A^2 > D*B^2, so
the arithmetic reads the same for both shapes of w.  The coordinates (u, v)
of u + v*w are a read-only view, for construction and display.  No floating
point is used anywhere.
"""

from __future__ import annotations

from math import isqrt
from typing import TYPE_CHECKING, Iterator, Union

from ._record import Record
from .errors import ContextMismatch, NotSquarefree, TooSmall, charge

if TYPE_CHECKING:
    # Annotations only: fractions imports decimal, which no caller needs.
    from fractions import Fraction

    Rational = Union[int, Fraction]


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


def cube_root(n: int) -> int:
    """floor(n^(1/3)) for n >= 0, exactly: integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // 3)
    while x * x * x > n:
        x = (2 * x + n // (x * x)) // 3
    return x


def charge_square_factor(d: int, node_budget: int) -> None:
    """Charges square_factor(d)'s trial division, the cube root of d, to the
    budget (`errors.charge`), naming the squarefree test of d."""
    charge(cube_root(max(d, 0)), node_budget, f"the squarefree test of D={d}")


class RingContext(Record):
    """Validated container for everything derived from a squarefree D >= 2.

    Construction checks that D is squarefree (see `square_factor`), so
    holding a context is proof the parameters are coherent.  `kappa` is 1
    when D = 1 (mod 4) and 2 otherwise, so w = (2 - kappa + kappa*sqrt(D))/2,
    and it is the one statement of whether 2 ramifies: exactly when kappa
    is 2, where 2*O = p^2.  Whether an unramified 2 splits or stays inert
    (D mod 8) decides no verdict, so it is not kept.  `kappa` follows from
    D, so two contexts are equal when their D are.
    """

    __slots__ = ("D", "kappa")
    D: int
    kappa: int

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
        self._set("kappa", 1 if d % 4 == 1 else 2)

    # Record's tuple compare here made `queries` 14 % slower (6,448 calls per 1,500 requests).
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
        return _from_pair(self, 2 * n, 0)

    def from_sqrt_pair(self, a: int, b: int) -> QuadInt:
        """Element a + b*sqrt(D) with integer a, b."""
        return _from_pair(self, 2 * a, 2 * b)

    def is_integral(self, big_a: int, big_b: int) -> bool:
        """Whether (A + B*sqrt(D))/2 lies in the ring: A = B (mod 2), and B a
        multiple of kappa, so both are even unless D = 1 (mod 4)."""
        return (big_a - big_b) % 2 == 0 and big_b % self.kappa == 0

    def from_half_pair(self, big_a: int, big_b: int) -> QuadInt:
        """Element (A + B*sqrt(D))/2 from doubled coordinates (A, B), which
        must pass `is_integral`."""
        if not self.is_integral(big_a, big_b):
            raise ValueError(
                f"({big_a}+{big_b}*sqrt{self.D})/2 is not integral for D={self.D}: "
                "coordinates must agree mod 2, and be even unless D = 1 (mod 4)"
            )
        return _from_pair(self, big_a, big_b)

    # -- distinguished elements ----------------------------------------------

    @property
    def zero(self) -> QuadInt:
        return _from_pair(self, 0, 0)

    @property
    def one(self) -> QuadInt:
        return _from_pair(self, 2, 0)

    @property
    def omega(self) -> QuadInt:
        return QuadInt(self, 0, 1)

    @property
    def sqrt_d(self) -> QuadInt:
        """sqrt(D) as a ring element (equals 2w - 1 when D = 1 mod 4)."""
        return _from_pair(self, 0, 2)

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
    """Immutable element (A + B*sqrt(D))/2 of the ring of integers of
    Q(sqrt(D)), built from and shown as u + v*w."""

    __slots__ = ("ctx", "_a", "_b")
    ctx: RingContext
    _a: int
    _b: int

    def __init__(self, ctx: RingContext, u: int, v: int) -> None:
        # Set by hand, as in every per-search record: the shared loop cost 7.6 % of `queries`.
        # w = (t + kappa*sqrt(D))/2, where its trace t = 2 - kappa.
        self._set("ctx", ctx)
        self._set("_a", 2 * u + (2 - ctx.kappa) * v)
        self._set("_b", ctx.kappa * v)

    # -- coordinate views ----------------------------------------------------

    @property
    def u(self) -> int:
        return (self._a - (2 - self.ctx.kappa) * self.v) // 2

    @property
    def v(self) -> int:
        return self._b // self.ctx.kappa

    @property
    def half_coords(self) -> tuple[int, int]:
        """The stored pair (A, B), with self = (A + B*sqrt(D))/2."""
        return self._a, self._b

    @property
    def trace(self) -> int:
        return self._a

    @property
    def norm(self) -> int:
        return (self._a * self._a - self.ctx.D * self._b * self._b) // 4

    def conjugate(self) -> QuadInt:
        """Image under the nontrivial field automorphism sqrt(D) -> -sqrt(D)."""
        return _from_pair(self.ctx, self._a, -self._b)

    # -- embeddings ----------------------------------------------------------

    def is_totally_positive(self) -> bool:
        big_a = self._a
        return big_a > 0 and big_a * big_a > self.ctx.D * self._b * self._b

    def is_totally_nonnegative(self) -> bool:
        big_a = self._a
        return big_a >= 0 and big_a * big_a >= self.ctx.D * self._b * self._b

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other: QuadInt | int) -> QuadInt:
        if isinstance(other, int):
            return _from_pair(self.ctx, 2 * other, 0)
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
        return _from_pair(self.ctx, self._a + other._a, self._b + other._b)

    __radd__ = __add__

    def __sub__(self, other: QuadInt | int) -> QuadInt:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _from_pair(self.ctx, self._a - other._a, self._b - other._b)

    def __rsub__(self, other: QuadInt | int) -> QuadInt:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> QuadInt:
        return _from_pair(self.ctx, -self._a, -self._b)

    def __mul__(self, other: QuadInt | int) -> QuadInt:
        if isinstance(other, int):
            # Scaling by an integer needs no element for it.
            return _from_pair(self.ctx, other * self._a, other * self._b)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _from_pair(
            self.ctx, (a1 * a2 + self.ctx.D * b1 * b2) // 2, (a1 * b2 + b1 * a2) // 2
        )

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
        return bool(self._a or self._b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._b == 0 and self._a == 2 * other
        if isinstance(other, QuadInt):
            # An integer is one number in every ring, as its hash says, so only
            # elements with B != 0 need equal rings.
            return (
                self._a == other._a
                and self._b == other._b
                and (not self._b or self.ctx == other.ctx)
            )
        return NotImplemented

    def __hash__(self) -> int:
        # Equal to the int A/2 when B = 0 (A is then even), so hashed as it.
        if not self._b:
            return hash(self._a // 2)
        return hash((self.ctx.D, self._a, self._b))

    def __str__(self) -> str:
        unit = "w" if self.ctx.kappa == 1 else f"sqrt{self.ctx.D}"
        u, v = self.u, self.v
        if v == 0:
            return str(u)
        coeff = "" if abs(v) == 1 else str(abs(v))
        tail = f"{coeff}{unit}"
        if u == 0:
            return tail if v > 0 else f"-{tail}"
        op = "+" if v > 0 else "-"
        return f"{u}{op}{tail}"

    def __repr__(self) -> str:
        return f"QuadInt(D={self.ctx.D}, u={self.u}, v={self.v})"


def _from_pair(ctx: RingContext, big_a: int, big_b: int) -> QuadInt:
    """The element (A + B*sqrt(D))/2, unchecked: the one constructor for
    pairs that are integral by construction (see `from_half_pair`)."""
    alpha = object.__new__(QuadInt)
    alpha._set("ctx", ctx)
    alpha._set("_a", big_a)
    alpha._set("_b", big_b)
    return alpha


def squares_sum_to(
    ctx: RingContext, terms: tuple[QuadInt, ...], big_a: int, big_b: int
) -> bool:
    """Whether the squares of terms sum to (A + B*sqrt(D))/2 in ctx's ring.

    In doubled coordinates a term (a + b*sqrt(D))/2 squares to
    (a^2 + D*b^2 + 2*a*b*sqrt(D))/4, so the identity is the integer pair
    sum(a^2 + D*b^2) = 2*A and sum(a*b) = B; no element is built.  Raises
    ContextMismatch on a term of another ring.
    """
    d = ctx.D
    rational = cross = 0
    for term in terms:
        if term.ctx != ctx:
            raise ContextMismatch(f"mixing D={d} and D={term.ctx.D} elements")
        a, b = term._a, term._b
        rational += a * a + d * b * b
        cross += a * b
    return rational == 2 * big_a and cross == big_b


# -- the ring's lattice: the box of totally positive elements, and the roots ---

# A canonical nonzero root (A, B), A > 0 or A = 0 < B, and its square's (SA, SB).
Root = tuple[int, int, int, int]


def _partners(x: int, lo: int, hi: int) -> range:
    """The y in [lo, hi] with y = x (mod 2): for x a multiple of kappa, those
    that make (x, y) and (y, x) integral (`RingContext.is_integral`)."""
    return range(lo + (lo - x) % 2, hi + 1, 2)


def _count(rows: Iterator[tuple[int, range]], limit: int) -> int:
    """How many pairs the rows hold, or, once the count passes `limit`, that
    count, some number above it, at the end of the row that passed it."""
    total = 0
    for _, row in rows:
        # Not len(), which fails beyond sys.maxsize: a `_partners` row has lo <= hi + 1.
        total += (row.stop - row.start + 1) // 2
        if total > limit:
            break
    return total


def _box_rows(ctx: RingContext, trace_bound: int) -> Iterator[tuple[int, range]]:
    """Each trace A <= trace_bound with the B that complete it, ascending,
    in doubled coordinates: (A + B*sqrt(D))/2 is totally positive exactly
    when A > 0 and D*B^2 < A^2, and integral (`RingContext.is_integral`)
    exactly when A is a multiple of kappa and B = A (mod 2)."""
    for big_a in range(ctx.kappa, trace_bound + 1, ctx.kappa):
        b_max = isqrt((big_a * big_a - 1) // ctx.D)
        yield big_a, _partners(big_a, -b_max, b_max)


def _root_rows(ctx: RingContext, trace_bound: int) -> Iterator[tuple[int, range]]:
    """Each B, a multiple of kappa, with the A of the canonical roots
    (A + B*sqrt(D))/2 whose square has trace SA <= trace_bound, ascending:
    SA = (A^2 + D*B^2)/2 bounds |B| by isqrt(2T // D) and A by
    isqrt(2T - D*B^2)."""
    b_max = isqrt(2 * trace_bound // ctx.D)
    for b in range(-b_max + b_max % ctx.kappa, b_max + 1, ctx.kappa):
        yield b, _partners(b, 0 if b > 0 else 1, isqrt(2 * trace_bound - b * b * ctx.D))


def _roots(ctx: RingContext, trace_bound: int) -> Iterator[Root]:
    """Every canonical nonzero root whose square has trace <= trace_bound,
    row by row: sorted by (B, A)."""
    for b, row in _root_rows(ctx, trace_bound):
        bbd = b * b * ctx.D
        for a in row:
            yield a, b, (a * a + bbd) // 2, a * b


def count_roots(ctx: RingContext, trace_bound: int, limit: int) -> int:
    """How many canonical nonzero roots square to a trace <= trace_bound,
    counted row by row without listing one, with `_count`'s early exit."""
    return _count(_root_rows(ctx, trace_bound), limit)


def list_roots(ctx: RingContext, trace_bound: int) -> list[Root]:
    """Every canonical nonzero root whose square has trace <= trace_bound,
    sorted by (SA, B, A)."""
    # Listed by (B, A), so a stable sort by SA leaves them in (SA, B, A) order.
    return sorted(_roots(ctx, trace_bound), key=lambda root: root[2])


def scan_totally_positive(ctx: RingContext, trace_bound: int) -> Iterator[QuadInt]:
    """Every totally positive element with trace <= trace_bound, exactly once,
    in (trace, a, b) lexicographic order."""
    for big_a, row in _box_rows(ctx, trace_bound):
        for big_b in row:
            yield _from_pair(ctx, big_a, big_b)


def count_totally_positive(ctx: RingContext, trace_bound: int, limit: int) -> int:
    """How many elements `scan_totally_positive` yields, with `_count`'s
    early exit: every even trace holds an element, so it reads at most
    2*(limit + 1) rows, whatever the trace bound."""
    return _count(_box_rows(ctx, trace_bound), limit)


def charge_scan(ctx: RingContext, trace_bound: int, node_budget: int) -> None:
    """Charges `scan_totally_positive`'s box, one unit per element counted
    with an early exit (`count_totally_positive`), to the budget."""
    count = count_totally_positive(ctx, trace_bound, node_budget)
    charge(count, node_budget, f"the scan of D={ctx.D} to trace {trace_bound}")
