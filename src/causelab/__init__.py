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
    EngineOptions,
    EngineStats,
    Witness,
    check_ac1,
    check_ac2,
    find_all_causes,
    is_actual_cause,
    ways_fraction,
    witness_world,
)
from .model import (
    Assignment,
    CausalModel,
    Context,
    CycleError,
    Equation,
    Intervention,
    ModelError,
    Signature,
    TotalityError,
    World,
    enumerate_contexts,
    intervene,
    solve,
)
from .ness import SufficientSet, is_ness_cause, is_sufficient
from .normality import (
    ExtendedModel,
    NormalityOrder,
    at_least_as_normal,
    close,
)

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
    "EngineOptions",
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
    "Responsibility",
    "ScoringStrategy",
    "Signature",
    "SufficientSet",
    "TotalityError",
    "Witness",
    "World",
    "at_least_as_normal",
    "atom",
    "check_ac1",
    "check_ac2",
    "close",
    "conj",
    "degree_of_blame",
    "degree_of_responsibility",
    "disj",
    "enumerate_contexts",
    "find_all_causes",
    "holds",
    "intervene",
    "is_actual_cause",
    "is_ness_cause",
    "is_sufficient",
    "solve",
    "valid",
    "ways_fraction",
    "witness_world",
]
