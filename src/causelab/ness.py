"""A naive necessary-element-of-a-sufficient-set test, for comparison runs.

An event is a NESS cause of an outcome when it belongs to a set of actually
occurring primitive events that is sufficient for the outcome and stops being
sufficient once the event is removed.  Sufficiency is formalized here as
interventional validity: the set, applied as an intervention, forces the
outcome in every context.  This is an interpretation (the prose notion leaves
sufficiency undefined); it is the most natural model-theoretic reading and the
one under which the classic counterexamples to the test are reproducible.

Candidate sets contain primitive events only, and with finite ranges an event
`X = x` already expresses any "negative" event, so no separate treatment is
needed for those.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .formula import CausalFormula, EventFormula, PrimitiveEvent, valid
from .model import CausalModel, Context, Intervention

if TYPE_CHECKING:
    from .hp import EngineStats


@dataclass(frozen=True)
class SufficientSet:
    """A consistent set of primitive events (at most one per variable)."""

    events: tuple[PrimitiveEvent, ...]

    def __post_init__(self) -> None:
        by_var: dict[str, int] = {}
        for ev in self.events:
            if by_var.setdefault(ev.variable, ev.value) != ev.value:
                raise ValueError(
                    f"inconsistent set: {ev.variable!r} set to both"
                    f" {by_var[ev.variable]} and {ev.value}"
                )

    def as_intervention(self) -> Intervention:
        return Intervention({ev.variable: ev.value for ev in self.events})

    def without(self, event: PrimitiveEvent) -> SufficientSet:
        return SufficientSet(tuple(ev for ev in self.events if ev != event))


def is_sufficient(
    model: CausalModel, s: SufficientSet, outcome: EventFormula, stats: EngineStats | None = None
) -> bool:
    """Whether forcing the set by intervention yields the outcome in every context."""
    return valid(model, CausalFormula(s.as_intervention(), outcome), stats)


def is_ness_cause(
    model: CausalModel,
    context: Context,
    event: PrimitiveEvent,
    outcome: EventFormula,
    stats: EngineStats | None = None,
) -> SufficientSet | None:
    """Search for a certifying set, smallest first; None when there is none.

    The search space is every consistent set of primitive events true in the
    solved world that contains the queried event.  `stats` counts the solves
    made: the actual world's and each validity check's, one per context of
    the exogenous variables the pinned outcome still reads (see `valid`).
    """
    outcome.validate(model)
    model.signature.check_endogenous("event variable", event.variable, event.value)
    world = model.solve(context)
    if stats is not None:
        stats.solves += 1
    if world[event.variable] != event.value:
        return None  # only actually occurring events qualify
    others = [
        PrimitiveEvent(v, world[v])
        for v in model.signature.endogenous_names
        if v != event.variable
    ]
    cache: dict[frozenset[PrimitiveEvent], bool] = {}

    def sufficient(events: tuple[PrimitiveEvent, ...]) -> bool:
        key = frozenset(events)
        if key not in cache:
            cache[key] = is_sufficient(model, SufficientSet(events), outcome, stats)
        return cache[key]

    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            with_event = (event,) + combo
            if sufficient(with_event) and not sufficient(combo):
                return SufficientSet(with_event)
    return None
