"""Exception types shared across the package."""

from __future__ import annotations


class SoslabError(Exception):
    """Base class for every error raised by this package."""


class TooSmall(SoslabError):
    """Field discriminant parameter below the supported range (D >= 2)."""


class NotSquarefree(SoslabError):
    """D is divisible by the square of a prime; no ring context exists."""

    def __init__(self, d: int, p: int) -> None:
        self.d = d
        self.p = p
        super().__init__(f"D={d} is not squarefree: divisible by {p}^2")


class ContextMismatch(SoslabError):
    """Arithmetic attempted between elements of different ring contexts."""


class ZeroElement(SoslabError):
    """Operation undefined for the zero element (e.g. a valuation)."""


class NotTotallyPositive(SoslabError):
    """Element is not totally positive where total positivity is required."""


class NotRamified(SoslabError):
    """Operation needs the rational prime 2 to ramify (D = 2, 3 mod 4)."""


class NotOdd(SoslabError):
    """Multiplier must be odd."""


class BadModulus(SoslabError):
    """S-integer modulus must be an integer greater than 1."""


class WrongField(SoslabError):
    """Verification claim is specific to other discriminants."""


# Search nodes a verdict may cost unless the caller says otherwise; kept
# here so that the CLI's parser reads it without importing the search.
DEFAULT_NODE_BUDGET = 10**8


class BudgetExceeded(SoslabError):
    """Search node budget ran out before a definite verdict was reached."""

    def __init__(self, nodes: int, budget: int, scope: str | None = None) -> None:
        self.nodes = nodes
        self.budget = budget
        # scope names what ran out of budget, when the message should say.
        where = f" for {scope}" if scope else ""
        super().__init__(
            f"no verdict{where} within the node budget of {budget} ({nodes} nodes searched)"
        )


def charge(work: int, budget: int, scope: str | None = None) -> None:
    """The one pre-work guard: raises BudgetExceeded (0 nodes, naming `scope`)
    when `work`, counted before any of it runs, is over `budget`."""
    if work > budget:
        raise BudgetExceeded(0, budget, scope)


class ParseError(SoslabError):
    """Element string does not match the accepted grammar."""

    def __init__(self, message: str, position: int) -> None:
        self.position = position
        super().__init__(f"{message} (at position {position})")


class BasisMismatch(SoslabError):
    """Element string names a radical that disagrees with the context's D."""
