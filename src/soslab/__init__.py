"""Sums of squares in real quadratic rings of integers and S-integer rings.

Exact decision procedures with certificates: an exhaustive search oracle
(`decompose_sos`), local tests modulo 2*O, the five-square interval
criterion, explicit witness elements, S-integer escalation, and a scan
harness producing reproducible JSONL reports.  All arithmetic is exact.
"""

from .criteria import (
    PetersInterval,
    doubling_witness,
    large_multiplier_guaranteed,
    odd_multiple_witness,
    peters_five_squares,
    peters_guaranteed,
    peters_interval,
    ramified_obstruction_witness,
    small_multiplier_obstructed,
)
from .decompose import (
    DEFAULT_NODE_BUDGET,
    Decomposition,
    SearchVerdict,
    VerdictKind,
    candidate_roots,
    decompose_sos,
    is_sum_of_squares,
    pythagoras_length,
    shortest_decomposition,
)
from .errors import (
    BadModulus,
    BasisMismatch,
    BudgetExceeded,
    ContextMismatch,
    NotOdd,
    NotRamified,
    NotSquarefree,
    NotTotallyNonneg,
    NotTotallyPositive,
    ParseError,
    SoslabError,
    TooSmall,
    WrongField,
    ZeroElement,
)
from .quadfield import DyadicClass, QuadInt, RingContext, real_sign
from .residues import (
    Residue2,
    ValuationClass,
    dyadic_valuation,
    dyadic_valuation_class,
    is_square_mod_two,
    residue_mod_two,
    squares_mod_two,
)
from .sintegers import (
    ObstructionCert,
    SElement,
    SKind,
    SVerdict,
    s_element,
    s_is_sum_of_squares,
    s_obstruction,
)
from .sweep import Sweep
from .verify import (
    Report,
    ScanSpec,
    reports_to_jsonl,
    run_claims,
    scan_totally_positive,
)

__version__ = "0.1.0"

__all__ = [
    "BadModulus",
    "BasisMismatch",
    "BudgetExceeded",
    "ContextMismatch",
    "DEFAULT_NODE_BUDGET",
    "Decomposition",
    "DyadicClass",
    "NotOdd",
    "NotRamified",
    "NotSquarefree",
    "NotTotallyNonneg",
    "NotTotallyPositive",
    "ObstructionCert",
    "ParseError",
    "PetersInterval",
    "QuadInt",
    "Report",
    "Residue2",
    "RingContext",
    "SElement",
    "SKind",
    "SVerdict",
    "ScanSpec",
    "SearchVerdict",
    "SoslabError",
    "Sweep",
    "TooSmall",
    "ValuationClass",
    "VerdictKind",
    "WrongField",
    "ZeroElement",
    "candidate_roots",
    "decompose_sos",
    "doubling_witness",
    "dyadic_valuation",
    "dyadic_valuation_class",
    "is_square_mod_two",
    "is_sum_of_squares",
    "large_multiplier_guaranteed",
    "odd_multiple_witness",
    "peters_five_squares",
    "peters_guaranteed",
    "peters_interval",
    "pythagoras_length",
    "ramified_obstruction_witness",
    "real_sign",
    "reports_to_jsonl",
    "residue_mod_two",
    "run_claims",
    "s_element",
    "s_is_sum_of_squares",
    "s_obstruction",
    "scan_totally_positive",
    "shortest_decomposition",
    "small_multiplier_obstructed",
    "squares_mod_two",
]
