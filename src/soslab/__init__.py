"""Sums of squares in real quadratic rings of integers and S-integer rings.

Exact decision procedures with certificates: an exhaustive search oracle
(`decompose_sos`), local tests modulo 2*O, the five-square interval
criterion, explicit witness elements, S-integer escalation, and a scan
harness producing reproducible JSONL reports.  All arithmetic is exact.

Importing the package imports none of its modules.  Each name below is
imported from its module on first use (PEP 562), so `python -m soslab.cli
check` loads only what `check` calls; `soslab.verify` and the other
module names resolve the same way.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "criteria": (
            "PetersInterval",
            "doubling_witness",
            "large_multiplier_guaranteed",
            "odd_multiple_witness",
            "peters_five_squares",
            "peters_guaranteed",
            "peters_interval",
            "ramified_obstruction_witness",
            "small_multiplier_obstructed",
        ),
        "decompose": (
            "Decomposition",
            "SearchVerdict",
            "VerdictKind",
            "decompose_sos",
            "is_sum_of_squares",
            "pythagoras_length",
            "shortest_decomposition",
        ),
        "errors": (
            "BadModulus",
            "BasisMismatch",
            "BudgetExceeded",
            "ContextMismatch",
            "DEFAULT_NODE_BUDGET",
            "NotOdd",
            "NotRamified",
            "NotSquarefree",
            "NotTotallyPositive",
            "ParseError",
            "SoslabError",
            "TooSmall",
            "WrongField",
            "ZeroElement",
        ),
        "quadfield": (
            "QuadInt",
            "RingContext",
            "real_sign",
            "scan_totally_positive",
        ),
        "residues": (
            "Residue2",
            "dyadic_valuation",
            "is_square_mod_two",
            "residue_mod_two",
            "squares_mod_two",
        ),
        "sintegers": (
            "ObstructionCert",
            "SElement",
            "SKind",
            "SVerdict",
            "s_element",
            "s_is_sum_of_squares",
            "s_obstruction",
        ),
        "sweep": ("Sweep",),
        "verify": (
            "Report",
            "ScanSpec",
            "reports_to_jsonl",
            "run_claims",
        ),
    }.items()
    for name in names
}

_MODULES = frozenset({"_pysearch", "_record", "cli", *_EXPORTS.values()})

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _MODULES:
        # Importing a submodule binds it on the package.
        return import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
