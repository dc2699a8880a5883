"""Sum-of-squares decompositions: exhaustive search with certificates.

`decompose_sos` is the ground-truth oracle of the package.  It either
produces a decomposition (re-verified on construction), proves that none
exists within the term bound (a completed exhaustive traversal), or gives
up with a budget verdict -- it never guesses, and it never prunes with a
representability theorem, so its negative answers are unconditional.

One obstruction is settled at the root instead of by walking the
traversal: the mod-2*O square rule (`residues.is_square_mod_two`).  Cross
terms vanish mod 2*O, (x + y)^2 = x^2 + y^2 (mod 2*O), so any sum of
squares is a square there; a target that is not one (2 ramified, odd
sqrt(D)-coefficient) can never be reached, and the traversal would
exhaust.  The search returns that exhausted verdict with 0 nodes.

The traversal itself is `_pysearch.run_search`, in arbitrary-precision
Python integers; `sweep.Sweep` is the independent breadth-first engine the
tests compare it with.  Shortest decompositions (`shortest_decomposition`,
which `decompose --shortest` prints, and its length `pythagoras_length`)
come from one run of the same traversal as branch and bound: candidates
are generated once, and each hit lowers the term cap below its own length.  `nodes` counts the
nodes of that one traversal, and the node budget bounds them; a budget
overrun after a hit, before shorter sums are ruled out, is a budget
verdict, never a length that might not be minimal.
"""

from __future__ import annotations

import enum

from . import _pysearch
from ._record import Record
from .errors import DEFAULT_NODE_BUDGET, BudgetExceeded, ContextMismatch
from .quadfield import QuadInt, squares_sum_to
from .residues import is_square_mod_two

# No compiled kernel exists; perfbench still reads this attribute to report
# which kernel ran.
_compiled = None


class VerdictKind(enum.Enum):
    FOUND = "found"
    EXHAUSTED_NONE = "exhausted_none"
    BUDGET_EXCEEDED = "budget_exceeded"


class Decomposition(Record):
    """A verified equation target = sum(term^2 for term in terms).

    The identity is re-checked on construction, in integers
    (`quadfield.squares_sum_to`), so holding an instance is holding a
    proof.  Terms are kept as given once that check passes and they number
    at most trace/2 (each nonzero square has trace >= 2), a bound that
    also refuses zero padding.  The search gives nonzero canonical sign
    representatives (a > 0, or a = 0 and b > 0) in non-increasing
    `half_coords` (A, B) order (`_pysearch.run_search`).
    """

    __slots__ = ("target", "terms")
    target: QuadInt
    terms: tuple[QuadInt, ...]

    def __init__(self, target: QuadInt, terms: tuple[QuadInt, ...]) -> None:
        ctx = target.ctx
        terms = tuple(terms)
        try:
            verified = squares_sum_to(ctx, terms, *target.half_coords)
        except ContextMismatch:
            raise ValueError("terms and target live in different rings") from None
        if not verified:
            total = sum((t.square() for t in terms), ctx.zero)
            raise ValueError(
                f"decomposition does not verify: sum of squares is {total}, "
                f"target is {target}"
            )
        if len(terms) > max(target.trace, 0) // 2:
            raise ValueError("more terms than the trace of the target allows")
        self._set("target", target)
        self._set("terms", terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return f"{self.target} = 0 (empty sum)"
        squares = " + ".join(f"({t})^2" for t in self.terms)
        return f"{self.target} = {squares}"


class SearchVerdict(Record):
    """Outcome of one exhaustive search, with the node count that backs it."""

    __slots__ = ("kind", "decomposition", "nodes")
    kind: VerdictKind
    decomposition: Decomposition | None
    nodes: int

    def __init__(
        self, kind: VerdictKind, decomposition: Decomposition | None, nodes: int
    ) -> None:
        self._set("kind", kind)
        self._set("decomposition", decomposition)
        self._set("nodes", nodes)


def _search(
    alpha: QuadInt, max_terms: int | None, node_budget: int, shortest: bool
) -> SearchVerdict:
    """One traversal: the first decomposition found, or with `shortest` a
    decomposition of least length (see `_pysearch.run_search`)."""
    ctx = alpha.ctx
    if not alpha.is_totally_nonnegative():
        # No sum of squares has a negative embedding; nothing to search.
        return SearchVerdict(VerdictKind.EXHAUSTED_NONE, None, 0)
    if not is_square_mod_two(alpha):
        return SearchVerdict(VerdictKind.EXHAUSTED_NONE, None, 0)
    big_a, big_b = alpha.half_coords
    depth_cap = big_a // 2
    if max_terms is not None:
        depth_cap = min(depth_cap, max(max_terms, 0))
    try:
        cands = _pysearch.generate_candidates(ctx, big_a, big_b, node_budget)
    except BudgetExceeded:
        # Candidate generation alone outran the budget.
        return SearchVerdict(VerdictKind.BUDGET_EXCEEDED, None, 0)
    status, nodes, raw_terms = _pysearch.run_search(
        ctx.D, big_a, big_b, cands, depth_cap, node_budget, shortest
    )
    if status == _pysearch.STATUS_FOUND:
        terms = tuple(ctx.from_half_pair(a, b) for a, b in raw_terms)
        return SearchVerdict(VerdictKind.FOUND, Decomposition(alpha, terms), nodes)
    if status == _pysearch.STATUS_BUDGET:
        return SearchVerdict(VerdictKind.BUDGET_EXCEEDED, None, nodes)
    return SearchVerdict(VerdictKind.EXHAUSTED_NONE, None, nodes)


def decompose_sos(
    alpha: QuadInt,
    max_terms: int | None = None,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchVerdict:
    """Decide whether alpha is a sum of (at most max_terms) squares in O.

    Found verdicts carry a re-verified decomposition; exhausted verdicts
    are proofs of non-representability within the term bound (for the
    default unbounded search, non-representability outright); budget
    verdicts carry no claim.  A target that is no square mod 2*O is
    exhausted at the root, with 0 nodes (see the module docstring).
    """
    return _search(alpha, max_terms, node_budget, shortest=False)


def is_sum_of_squares(alpha: QuadInt, *, node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True/False with proof either way; raises BudgetExceeded when unsure."""
    verdict = decompose_sos(alpha, node_budget=node_budget)
    if verdict.kind is VerdictKind.BUDGET_EXCEEDED:
        raise BudgetExceeded(verdict.nodes, node_budget)
    return verdict.kind is VerdictKind.FOUND


def shortest_decomposition(
    alpha: QuadInt, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> SearchVerdict:
    """The verdict for a shortest decomposition of alpha, from one
    branch-and-bound traversal.

    A found verdict carries a decomposition of least length; a budget
    verdict may follow a hit whose minimality was not yet proven, and then
    claims nothing.
    """
    return _search(alpha, None, node_budget, shortest=True)


def pythagoras_length(alpha: QuadInt, *, node_budget: int = DEFAULT_NODE_BUDGET) -> int | None:
    """Length of the shortest sum-of-squares representation, or None.

    None is a proven negative (exhausted search), never a shrug; running
    out of node budget raises instead.
    """
    verdict = shortest_decomposition(alpha, node_budget=node_budget)
    if verdict.kind is VerdictKind.BUDGET_EXCEEDED:
        raise BudgetExceeded(verdict.nodes, node_budget)
    return None if verdict.decomposition is None else len(verdict.decomposition)
