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
`Intervention`.  With finite ranges an event `X = x` already expresses any
"negative" event, so no separate treatment is needed for those.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from .formula import CausalFormula, EventFormula, PrimitiveEvent, valid
from .model import CausalModel, Context, Intervention

if TYPE_CHECKING:
    from .hp import EngineStats


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
    intervention, the queried event first.  `stats` counts the solves made:
    the actual world's and each validity check's, one per context of the
    exogenous variables the pinned outcome still reads (see `valid`).
    """
    outcome.validate(model)
    model.signature.check_endogenous("event variable", event.variable, event.value)
    world = model.solve(context)
    if stats is not None:
        stats.solves += 1
    if world[event.variable] != event.value:
        return None  # only actually occurring events qualify
    others = [(v, world[v]) for v in model.signature.endogenous_names if v != event.variable]

    def sufficient(s: Intervention) -> bool:
        return valid(model, CausalFormula(s, outcome), stats)

    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            with_event = Intervention(((event.variable, event.value),) + combo)
            if sufficient(with_event) and not sufficient(Intervention(combo)):
                return with_event
    return None
