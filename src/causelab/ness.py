"""A naive necessary-element-of-a-sufficient-set test, for comparison runs.

An event is a NESS cause of an outcome when it belongs to a set of actually
occurring primitive events that is sufficient for the outcome and stops being
sufficient once the event is removed.  Sufficiency is formalized here as
interventional validity: a set is sufficient when `valid` holds for the
causal formula `[set] outcome`, that is, when the set, applied as an
intervention, forces the outcome in every context.  This is an interpretation
(the prose notion leaves sufficiency undefined); it is the most natural
model-theoretic reading and the one under which the classic counterexamples
to the test are reproducible.

Candidate sets contain primitive events only, one per variable, so each is an
intervention.  With finite ranges an event `X = x` already expresses any
"negative" event, so no separate treatment is needed for those.
"""

from __future__ import annotations

import itertools

from .formula import EngineStats, EventFormula, PrimitiveEvent, valid_unchecked
from .model import CausalModel, Context, Intervention


def is_ness_cause(
    model: CausalModel,
    context: Context,
    event: PrimitiveEvent,
    outcome: EventFormula,
    stats: EngineStats | None = None,
) -> Intervention | None:
    """Search for a certifying set, smallest first; None when there is none.

    The search space is every set of primitive events true in the solved
    world that contains the queried event; the set found is returned as an
    intervention, the queried event first.  The context, outcome and event
    are checked once, here; the sets come from the solved world, so
    `valid_unchecked` decides each.  Every solve made, the actual world's
    and those of each check, is counted in `stats`, or in a fresh
    `EngineStats` when none is given.
    """
    stats = stats if stats is not None else EngineStats()
    sig = model.signature
    sig.check_context(context)
    outcome.validate(model)
    sig.check_endogenous("event variable", event.variable, event.value)
    world = model.solve_unchecked(sig.context_values(context), sig.pin_values(None))
    stats.solves += 1
    if world[sig.endogenous_index[event.variable]] != event.value:
        return None  # only actually occurring events qualify
    others = [(v, x) for v, x in zip(sig.endogenous_names, world) if v != event.variable]
    matrix, variables = outcome.predicate(sig.endogenous_index), outcome.variables()

    def sufficient(events: tuple[tuple[str, int], ...]) -> bool:
        return valid_unchecked(model, dict(events), matrix, variables, stats)

    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            with_event = ((event.variable, event.value), *combo)
            if sufficient(with_event) and not sufficient(combo):
                return Intervention(with_event)
    return None
