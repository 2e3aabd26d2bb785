"""Causal formulas and their satisfaction relation.

A causal formula is a Boolean combination of primitive events (`X = x` over
endogenous variables), optionally under an intervention prefix; `holds`
evaluates it in a model and context by solving the intervened model.

`EngineStats`, a query's work counters, lives here, next to
`valid_unchecked`, the lowest function that counts into it.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import reduce

from .model import CausalModel, Context, Intervention

# A formula compiled against a model's endogenous declaration order: it reads
# a tuple of endogenous values, as `CausalModel.solve_unchecked` returns.
Predicate = Callable[[tuple[int, ...]], bool]


@dataclass
class EngineStats:
    """Work counters for one query; wall time is tracked by callers.  The
    CLI's `stats` report is these fields, by name."""

    solves: int = 0
    subset_checks: int = 0


@dataclass(frozen=True)
class PrimitiveEvent:
    """The event `variable = value`."""

    variable: str
    value: int

    def __str__(self) -> str:
        return f"{self.variable}={self.value}"


class EventFormula:
    """Boolean combination of primitive events."""

    __slots__ = ()

    def predicate(self, index: Mapping[str, int]) -> Predicate:
        """The formula's truth over value tuples, as `CausalModel.solve_unchecked`
        returns them; `index` maps names to positions."""
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        return frozenset(a.variable for a in self.atoms())

    def validate(self, model: CausalModel) -> None:
        for atom in self.atoms():
            model.signature.check_endogenous("formula variable", atom.variable, atom.value)

    def atoms(self) -> tuple[PrimitiveEvent, ...]:
        raise NotImplementedError


@dataclass(frozen=True)
class Atom(EventFormula):
    event: PrimitiveEvent

    def predicate(self, index: Mapping[str, int]) -> Predicate:
        i, value = index[self.event.variable], self.event.value
        return lambda values: values[i] == value

    def atoms(self) -> tuple[PrimitiveEvent, ...]:
        return (self.event,)


@dataclass(frozen=True)
class NotF(EventFormula):
    child: EventFormula

    def predicate(self, index: Mapping[str, int]) -> Predicate:
        child = self.child.predicate(index)
        return lambda values: not child(values)

    def atoms(self) -> tuple[PrimitiveEvent, ...]:
        return self.child.atoms()


@dataclass(frozen=True)
class AndF(EventFormula):
    left: EventFormula
    right: EventFormula

    def predicate(self, index: Mapping[str, int]) -> Predicate:
        left, right = self.left.predicate(index), self.right.predicate(index)
        return lambda values: left(values) and right(values)

    def atoms(self) -> tuple[PrimitiveEvent, ...]:
        return self.left.atoms() + self.right.atoms()


@dataclass(frozen=True)
class OrF(EventFormula):
    left: EventFormula
    right: EventFormula

    def predicate(self, index: Mapping[str, int]) -> Predicate:
        left, right = self.left.predicate(index), self.right.predicate(index)
        return lambda values: left(values) or right(values)

    def atoms(self) -> tuple[PrimitiveEvent, ...]:
        return self.left.atoms() + self.right.atoms()


def atom(variable: str, value: int) -> Atom:
    return Atom(PrimitiveEvent(variable, value))


def conj(*parts: EventFormula) -> EventFormula:
    """Right-fold a nonempty sequence into nested binary conjunctions."""
    if not parts:
        raise ValueError("empty conjunction")
    return reduce(lambda acc, p: AndF(p, acc), reversed(parts[:-1]), parts[-1])


def disj(*parts: EventFormula) -> EventFormula:
    if not parts:
        raise ValueError("empty disjunction")
    return reduce(lambda acc, p: OrF(p, acc), reversed(parts[:-1]), parts[-1])


@dataclass(frozen=True)
class CausalFormula:
    """`[prefix] matrix`: the matrix evaluated after applying the prefix."""

    prefix: Intervention
    matrix: EventFormula

    def validate(self, model: CausalModel) -> None:
        model.signature.check_intervention(self.prefix)
        self.matrix.validate(model)


def holds(
    model: CausalModel, context: Context, f: CausalFormula | EventFormula, stats: EngineStats | None = None
) -> bool:
    """Truth of a causal formula in (model, context); the context is checked
    first.  Its one solve is counted in `stats`, or in a fresh counter."""
    if isinstance(f, EventFormula):
        f = CausalFormula(Intervention(), f)
    stats = stats if stats is not None else EngineStats()
    sig = model.signature
    sig.check_context(context)
    f.validate(model)
    stats.solves += 1
    values = model.solve_unchecked(sig.context_values(context), sig.pin_values(f.prefix))
    return f.matrix.predicate(sig.endogenous_index)(values)


def valid(model: CausalModel, f: CausalFormula | EventFormula) -> bool:
    """Truth of a causal formula in every context of the model; checked here, decided by `valid_unchecked`."""
    if isinstance(f, EventFormula):
        f = CausalFormula(Intervention(), f)
    f.validate(model)
    matrix = f.matrix.predicate(model.signature.endogenous_index)
    return valid_unchecked(model, f.prefix, matrix, f.matrix.variables(), EngineStats())


def valid_unchecked(
    model: CausalModel, prefix: Mapping[str, int], matrix: Predicate, variables: frozenset[str], stats: EngineStats
) -> bool:
    """`valid` of `[prefix] matrix`, for a matrix compiled over `variables`;
    nothing is checked, since callers check both once, at the query boundary.
    The first context, every exogenous variable at its first value, is
    solved first: a set that fails there is decided without folding.  Else
    only the exogenous variables the matrix still reads once the prefix is
    folded in (`model.canonical`, walked by `CausalModel.reads`) are ranged
    over, and the others keep their first value.  The first context leads
    that product too, so it is not solved again.  Every solve made is
    counted in `stats`.
    """
    sig = model.signature
    pins = sig.pin_values(prefix)
    first = tuple(values[0] for _, values in sig.exogenous)
    stats.solves += 1
    if not matrix(model.solve_unchecked(first, pins)):
        return False
    read = set(model.reads(variables, prefix))
    ranges = [values if name in read else values[:1] for name, values in sig.exogenous]
    for u in itertools.islice(itertools.product(*ranges), 1, None):
        stats.solves += 1
        if not matrix(model.solve_unchecked(u, pins)):
            return False
    return True
