"""Exact computation with lower previsions and exact functionals.

The library works over finite possibility spaces with exact rational
arithmetic throughout, so every check of coherence, exactness,
n-monotonicity or comonotone additivity is a decision, never a
tolerance, and every negative verdict ships a witness that re-checks
by substitution.

Names load on first use (PEP 562): ``import lowerprev`` loads no
submodule, and ``lowerprev.<name>`` imports the name's home module in
``_HOMES`` with what that module imports.
Module loads: ``consistency`` imports ``simplex`` and never ``choquet``
or ``monotone``; ``choquet`` imports ``consistency`` only inside the two
functions that value comonotone sums; the library modules import
``assessment`` and ``gambles``.
"""

import importlib

__version__ = "0.1.0"

# Each public name's home module, in ``__all__`` order.
_HOMES = {
    "assessment": (
        "Assessment", "ExactDecomposition", "LowerEnvelope", "MassFunctional", "conjugate",
    ),
    "choquet": (
        "AdditivityGap", "ChoquetResult", "DecreasingDistribution", "choquet_integral",
        "decreasing_distribution", "is_comonotone_additive",
    ),
    "consistency": (
        "CoherenceGap", "NormIntervalGap", "SureLossWitness", "UnattainableGamble",
        "avoids_sure_loss", "decompose", "find_attaining", "is_coherent", "is_exact",
        "natural_extension_exact", "natural_extension_prevision", "norm",
    ),
    "errors": (
        "ClosureBudgetError", "DomainError", "InfeasibleTotalError", "NotExactError",
        "SpaceMismatchError", "SureLossError",
    ),
    "gambles": (
        "Event", "Gamble", "HomomorphismTable", "Space", "WedgeWitness",
        "check_wedge_homomorphism", "is_comonotone", "is_lattice_closed", "join",
        "lattice_closure", "meet", "sort_gambles",
    ),
    "monotone": (
        "MinPreservationGap", "MobiusTransform", "MonotonicityReport", "MonotonicityViolation",
        "compose_homomorphism", "inner_extension", "inner_set_function",
        "is_completely_monotone", "is_n_alternating", "is_n_monotone",
        "minimum_preserving_check", "minimum_table", "mobius", "powerset_inner", "vacuous",
    ),
    "rational": ("format_rational", "parse_rational"),
    "simplex": ("Constraint", "LinearProgram", "LPOutcome", "LPStatus", "Relation", "solve"),
    "verdict": ("Verdict",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
