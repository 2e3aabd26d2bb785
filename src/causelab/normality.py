"""Partial preorders on worlds and extended causal models.

A normality order declares that some worlds of a signature are at least as
normal as others, either through ordered pattern pairs or through integer
ranks on patterns (lower rank = more normal).  It is validated against its
signature when it is built, so every order can be queried, and an extended
model pairs it only with a model of the same signature.  A pattern is a
partial assignment to endogenous variables and stands for every world that
agrees with it; a `World` entry is the one-world pattern.  In a pair, a
variable mentioned on neither side takes equal values in both worlds it
relates, and a variable mentioned on one side only is free on the other.
Queries run against the reflexive-transitive closure of the pair-induced and
rank-induced relations.  Antisymmetry is deliberately not enforced: two
distinct worlds may each be at least as normal as the other.

The closure is never materialised.  The worlds at least as normal as a world
`t` form a union of patterns, found by searching backwards from `t` over the
declared patterns (never over worlds) and memoised per `t`
(`NormalityOrder.up_set`).

With no order declared, an extended model falls back to the flat order under
which every world is as normal as every other; the extended cause definition
then coincides with the preliminary one.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field

from .model import Assignment, CausalModel, ModelError, RangeViolationError, Signature, UnknownVariableError, World


@dataclass(frozen=True)
class NormalityOrder:
    """Declared pattern pairs (more normal, less normal) and ranked patterns
    over the worlds of one signature, validated on construction.

    A `World` entry must be total; any other entry is a pattern over
    endogenous variables.  Two ranked patterns with different ranks must not
    share a world.
    """

    signature: Signature
    pairs: tuple[tuple[Assignment, Assignment], ...] = ()
    ranks: tuple[tuple[Assignment, int], ...] = ()
    _upsets: dict[World, tuple[dict[str, int], ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        sig = self.signature
        for i, (left, right) in enumerate(self.pairs):
            _check_pattern(sig, left, ("pairs", i, 0))
            _check_pattern(sig, right, ("pairs", i, 1))
        for i, (pattern, _) in enumerate(self.ranks):
            _check_pattern(sig, pattern, ("ranks", i, 0))
        for (_, (p, rp)), (j, (q, rq)) in itertools.combinations(enumerate(self.ranks), 2):
            if rp != rq and _consistent(p, q):
                merged = {**p, **q}
                shared = World(merged) if len(merged) == len(sig.endogenous) else Assignment(merged)
                raise RankConflictError(f"world ranked twice with different ranks: {shared!r}", j)

    def up_set(self, t: World) -> tuple[dict[str, int], ...]:
        """Patterns whose union is the set of worlds at least as normal as t;
        one of them always matches t itself."""
        # The memo caches a pure function of t: threads racing to fill an
        # entry store equal values, so a shared order stays safe to query.
        up = self._upsets.get(t)
        if up is None:
            up = self._upsets[t] = _up_set(self, t)
        return up


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


class RankConflictError(ModelError):
    """Two ranked patterns with different ranks share a world; `index` is the
    position of the later of the two in the order's ranks."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _check_pattern(sig: Signature, pattern: Assignment, where: tuple[str, int, int]) -> None:
    """Check the entries of the pattern at `where` in the order they were given."""
    if isinstance(pattern, World):
        sig.check_world(pattern)
        return
    for name, value in pattern.as_dict().items():
        if not sig.is_endogenous(name):
            raise UnknownVariableError(
                f"pattern variable {name!r} is not a declared endogenous variable", name, where
            )
        if value not in sig.ranges[name]:
            raise RangeViolationError(f"value {value} is outside the range of {name!r}", name, where)


class ExtendedModel:
    """A causal model together with a (possibly flat) normality order over
    the worlds of its signature."""

    __slots__ = ("model", "order")

    def __init__(self, model: CausalModel, order: NormalityOrder | None = None):
        # None is the flat order.
        if order is not None and order.signature != model.signature:
            raise ModelError("cannot carry a normality order across signatures")
        self.model = model
        self.order = order

    @property
    def is_flat(self) -> bool:
        return self.order is None

    def at_least_as_normal(self, s: World, t: World) -> bool:
        """Membership test s >= t in the reflexive-transitive closure."""
        if self.order is None:
            return True
        return any(_subsumes(p, s) for p in self.order.up_set(t))
