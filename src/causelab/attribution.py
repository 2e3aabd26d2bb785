"""Graded attribution: degree of responsibility and degree of blame.

Responsibility refines the all-or-nothing cause verdict: a non-cause scores 0,
and a cause scores by how far the contingency certifying it had to move from
the actual world.  The default score is 1/(k+1) where k is the minimal number
of contingency variables set away from their actual values; exponential,
weighted, and ways-fraction variants are provided.

Blame is the expected responsibility of an action over an epistemic state: a
probability distribution over (extended model, context) situations the agent
considers possible before acting.  Each situation contributes the action's
responsibility for the outcome in the post-action model; situations in which
the action's event does not actually hold contribute zero.

All scores are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .formula import EventFormula
from .hp import (
    CandidateCause,
    EngineOptions,
    EngineStats,
    Witness,
    is_actual_cause,
    ways_fraction,
)
from .model import Assignment, Context, Intervention
from .normality import ExtendedModel

_KINDS = ("reciprocal", "exponential", "weighted", "ways")


@dataclass(frozen=True)
class ScoringStrategy:
    """How a minimal contingency is turned into a score."""

    kind: str = "reciprocal"
    weights: tuple[tuple[str, Fraction], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown scoring strategy {self.kind!r}")
        if self.kind == "weighted":
            if not self.weights:
                raise ValueError("weighted strategy requires per-variable weights")
            for name, w in self.weights:
                if w <= 0:
                    raise ValueError(f"weight for {name!r} must be positive")
        elif self.weights is not None:
            raise ValueError(f"strategy {self.kind!r} takes no weights")

    @classmethod
    def reciprocal(cls) -> ScoringStrategy:
        return cls("reciprocal")

    @classmethod
    def exponential(cls) -> ScoringStrategy:
        return cls("exponential")

    @classmethod
    def weighted(cls, weights) -> ScoringStrategy:
        items = tuple(sorted((str(k), Fraction(v)) for k, v in dict(weights).items()))
        return cls("weighted", items)

    @classmethod
    def ways_fraction(cls) -> ScoringStrategy:
        return cls("ways")

    def weight_map(self) -> dict[str, Fraction] | None:
        """The search measure: per-variable weights, or None to count changes."""
        return dict(self.weights) if self.weights is not None else None


@dataclass(frozen=True)
class Responsibility:
    """An exact score in [0, 1]; zero exactly for non-causes."""

    value: Fraction
    achieving_witness: Witness | None = None
    sampled: bool = False  # from a sampled verdict, so not necessarily exact


@dataclass(frozen=True)
class EpistemicState:
    """Situations an agent considers possible, with exact probabilities."""

    situations: tuple[tuple[ExtendedModel, Context], ...]
    probabilities: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.situations) != len(self.probabilities):
            raise ValueError("one probability per situation is required")
        if not self.situations:
            raise ValueError("epistemic state must contain at least one situation")
        if any(p < 0 for p in self.probabilities):
            raise ValueError("probabilities must be nonnegative")
        if sum(self.probabilities, Fraction(0)) != 1:
            raise ValueError("probabilities must sum exactly to 1")


def degree_of_responsibility(
    ext: ExtendedModel,
    context: Context,
    cause: CandidateCause,
    outcome: EventFormula,
    strategy: ScoringStrategy = ScoringStrategy(),
    options: EngineOptions = EngineOptions(),
    stats: EngineStats | None = None,
) -> Responsibility:
    """Score the cause by its minimal admissible contingency; for the weighted
    strategy that is the one of least summed weight, not of fewest changes."""
    stats = stats if stats is not None else EngineStats()
    verdict = is_actual_cause(
        ext, context, cause, outcome, options, stats, strategy.weight_map()
    )
    if not verdict.is_cause:
        return Responsibility(Fraction(0), None, verdict.sampled)
    best = verdict.witnesses[0]
    if strategy.kind == "exponential":
        value = Fraction(1, 2**best.changes)
    elif strategy.kind == "ways":
        value = ways_fraction(ext, context, cause, outcome, stats)
    else:  # reciprocal: the measure counts changes; weighted: it sums weights
        value = Fraction(1) / (1 + verdict.measure)
    return Responsibility(value, best, verdict.sampled)


def degree_of_blame(
    state: EpistemicState,
    action: Intervention,
    outcome: EventFormula,
    strategy: ScoringStrategy = ScoringStrategy(),
    options: EngineOptions = EngineOptions(),
    stats: EngineStats | None = None,
) -> Fraction:
    """Expected responsibility of the action across the epistemic state.

    For each situation the action is performed by intervention and its
    responsibility for the outcome is assessed in the resulting model; a
    situation in which the action's event did not actually hold contributes
    zero (performing the action there cannot make it retroactively culpable,
    and this is what keeps the expectation consistent with the per-situation
    scores the definition is meant to average).
    """
    stats = stats if stats is not None else EngineStats()
    cause = CandidateCause(Assignment(action))
    total = Fraction(0)
    for (ext, context), prob in zip(state.situations, state.probabilities):
        try:
            cause.validate(ext.model)
            outcome.validate(ext.model)
        except ValueError as exc:
            raise ValueError(f"signature mismatch across situations: {exc}") from exc
        pre_world = ext.model.solve(context)
        if any(pre_world[v] != x for v, x in action.items()):
            continue
        post = ext.with_model(ext.model.intervene(action))
        resp = degree_of_responsibility(
            post, context, cause, outcome, strategy, options, stats
        )
        total += prob * resp.value
    return total
