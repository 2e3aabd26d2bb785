"""Actual causation, responsibility, and blame over finite structural causal models.

The package decides whether a conjunction of events actually caused an
outcome (in the counterfactual, contingency-based sense, optionally refined
by a normality order over worlds), grades causes by degree of responsibility
and degree of blame, and runs a naive sufficient-set test for comparison.
Models, queries, and epistemic states have a small text syntax and a CLI.
"""

from .attribution import (
    EpistemicState,
    Responsibility,
    ScoringStrategy,
    degree_of_blame,
    degree_of_responsibility,
)
from .formula import (
    AndF,
    Atom,
    CausalFormula,
    EngineStats,
    EventFormula,
    NotF,
    OrF,
    PrimitiveEvent,
    atom,
    conj,
    disj,
    holds,
    valid,
)
from .hp import (
    CandidateCause,
    CapExceededError,
    CauseVerdict,
    Witness,
    check_ac2,
    find_all_causes,
    is_actual_cause,
    ways_fraction,
)
from .model import (
    Assignment,
    CausalModel,
    Context,
    CycleError,
    Equation,
    Intervention,
    ModelError,
    RangeViolationError,
    Signature,
    TotalityError,
    UnknownVariableError,
    World,
)
from .ness import is_ness_cause
from .normality import ExtendedModel, NormalityOrder

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "AndF",
    "Atom",
    "CandidateCause",
    "CapExceededError",
    "CausalFormula",
    "CausalModel",
    "CauseVerdict",
    "Context",
    "CycleError",
    "EngineStats",
    "EpistemicState",
    "Equation",
    "EventFormula",
    "ExtendedModel",
    "Intervention",
    "ModelError",
    "NormalityOrder",
    "NotF",
    "OrF",
    "PrimitiveEvent",
    "RangeViolationError",
    "Responsibility",
    "ScoringStrategy",
    "Signature",
    "TotalityError",
    "UnknownVariableError",
    "Witness",
    "World",
    "atom",
    "check_ac2",
    "conj",
    "degree_of_blame",
    "degree_of_responsibility",
    "disj",
    "find_all_causes",
    "holds",
    "is_actual_cause",
    "is_ness_cause",
    "valid",
    "ways_fraction",
]
