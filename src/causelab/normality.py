"""Partial preorders on worlds and extended causal models.

A normality order declares that some worlds are at least as normal as others,
either through ordered pattern pairs or through integer ranks on patterns
(lower rank = more normal).  A pattern is a partial assignment to endogenous
variables and stands for every world that agrees with it; a `World` entry is
the one-world pattern.  In a pair, a variable mentioned on neither side takes
equal values in both worlds it relates, and a variable mentioned on one side
only is free on the other.  Queries run against the reflexive-transitive
closure of the pair-induced and rank-induced relations.  Antisymmetry is
deliberately not enforced: two distinct worlds may each be at least as normal
as the other.

The closure is never materialised.  The worlds at least as normal as a world
`t` form a union of patterns, found by searching backwards from `t` over the
declared patterns (never over worlds) and memoised per `t`.

With no order declared, an extended model falls back to the flat order under
which every world is as normal as every other; the extended cause definition
then coincides with the preliminary one.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field

from .model import Assignment, CausalModel, ModelError, Signature, World


@dataclass(frozen=True)
class NormalityOrder:
    """Declared pattern pairs (more normal, less normal) and ranked patterns."""

    pairs: tuple[tuple[Assignment, Assignment], ...] = ()
    ranks: tuple[tuple[Assignment, int], ...] = ()
    _upsets: dict[World, tuple[dict[str, int], ...]] | None = field(default=None, compare=False, repr=False)

    @property
    def is_closed(self) -> bool:
        return self._upsets is not None

    @property
    def is_empty(self) -> bool:
        return not self.pairs and not self.ranks

    def at_least_as_normal(self, s: World, t: World) -> bool:
        """Membership test s >= t in the closed relation."""
        if self._upsets is None:
            raise ModelError("order must be closed before querying")
        if s == t:
            return True
        # The memo caches a pure function of t: threads racing to fill an
        # entry store equal values, so a shared order stays safe to query.
        up = self._upsets.get(t)
        if up is None:
            up = self._upsets[t] = _up_set(self, t)
        return any(_subsumes(p, s) for p in up)


def _consistent(p: Mapping[str, int], q: Mapping[str, int]) -> bool:
    """Whether some world matches both patterns."""
    return all(p.get(k, v) == v for k, v in q.items())


def _subsumes(general: Mapping[str, int], specific: Mapping[str, int]) -> bool:
    """Whether every world matching `specific` matches `general`."""
    return all(specific.get(k) == v for k, v in general.items())


def _up_set(order: NormalityOrder, t: World) -> tuple[dict[str, int], ...]:
    """Patterns whose union is the set of worlds at least as normal as t.

    Backward search from t.  Under a pair L >= R, the worlds at least as
    normal as some world of pattern Q form the pattern L plus Q's values on
    the variables neither side mentions; it exists only when Q and R are
    consistent.  Under ranks, they are the ranked patterns whose rank is at
    most the highest rank of a ranked pattern consistent with Q.  Both steps
    are monotone, so a pattern covered by one already found adds nothing.
    """
    pairs = [(left.as_dict(), right.as_dict(), set(left) | set(right)) for left, right in order.pairs]
    ranks = [(p.as_dict(), r) for p, r in order.ranks]
    found: list[dict[str, int]] = []
    frontier = [t.as_dict()]
    reached = None  # highest rank whose ranked patterns are all queued
    while frontier:
        q = frontier.pop()
        if any(_subsumes(p, q) for p in found):
            continue
        found = [p for p in found if not _subsumes(q, p)]
        found.append(q)
        for left, right, mentioned in pairs:
            if _consistent(q, right):
                pred = dict(left)
                pred.update((k, v) for k, v in q.items() if k not in mentioned)
                frontier.append(pred)
        top = max((r for p, r in ranks if _consistent(q, p)), default=None)
        if top is not None and (reached is None or top > reached):
            reached = top
            frontier.extend(dict(p) for p, r in ranks if r <= top)
    return tuple(found)


def _check_pattern(sig: Signature, pattern: Assignment) -> None:
    if isinstance(pattern, World):
        sig.check_world(pattern)
        return
    for name, value in pattern.items_sorted():
        if not sig.is_endogenous(name):
            raise ModelError(f"pattern variable {name!r} is not endogenous")
        sig.check_value(name, value)


def close(order: NormalityOrder, model: CausalModel) -> NormalityOrder:
    """Validate the declared patterns against the model, ready for queries.

    A `World` entry must be total; any other entry is a pattern over
    endogenous variables.  Two ranked patterns with different ranks must not
    share a world.  Idempotent: closing a closed order returns an equal order.
    """
    sig = model.signature
    for left, right in order.pairs:
        _check_pattern(sig, left)
        _check_pattern(sig, right)
    for pattern, _ in order.ranks:
        _check_pattern(sig, pattern)
    for (p, rp), (q, rq) in itertools.combinations(order.ranks, 2):
        if rp != rq and _consistent(p, q):
            merged = {**p, **q}
            shared = World(merged) if len(merged) == len(sig.endogenous) else Assignment(merged)
            raise ModelError(f"world ranked twice with different ranks: {shared!r}")
    return NormalityOrder(order.pairs, order.ranks, {})


class ExtendedModel:
    """A causal model together with a (possibly flat) normality order."""

    __slots__ = ("model", "order")

    def __init__(self, model: CausalModel, order: NormalityOrder | None = None):
        self.model = model
        if order is None:
            self.order = None  # flat: every world as normal as every other
        else:
            self.order = order if order.is_closed else close(order, model)

    @property
    def is_flat(self) -> bool:
        return self.order is None

    def at_least_as_normal(self, s: World, t: World) -> bool:
        if self.order is None:
            return True
        return self.order.at_least_as_normal(s, t)

    def with_model(self, model: CausalModel) -> ExtendedModel:
        """Same order over a modified model (signature must be unchanged)."""
        if model.signature != self.model.signature:
            raise ModelError("cannot carry a normality order across signatures")
        out = ExtendedModel.__new__(ExtendedModel)
        out.model = model
        out.order = self.order
        return out

    def flattened(self) -> ExtendedModel:
        return ExtendedModel(self.model, None)


def at_least_as_normal(ext: ExtendedModel, s: World, t: World) -> bool:
    """Whether world s is at least as normal as world t."""
    return ext.at_least_as_normal(s, t)
