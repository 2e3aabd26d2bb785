"""Causal formulas and their satisfaction relation.

A causal formula is a Boolean combination of primitive events (`X = x` over
endogenous variables), optionally under an intervention prefix; `holds`
evaluates it in a model and context by solving the intervened model.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import reduce

from .model import CausalModel, Context, Intervention, World

# A formula compiled against a model's endogenous declaration order: it reads
# a tuple of endogenous values, as `CausalModel.solve_unchecked` returns.
Predicate = Callable[[tuple[int, ...]], bool]


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

    def satisfied_by(self, world: World) -> bool:
        raise NotImplementedError

    def predicate(self, index: Mapping[str, int]) -> Predicate:
        """`satisfied_by` over value tuples; `index` maps names to positions."""
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        raise NotImplementedError

    def validate(self, model: CausalModel) -> None:
        for atom in self.atoms():
            if not model.signature.is_endogenous(atom.variable):
                raise ValueError(f"formula variable {atom.variable!r} is not endogenous")
            model.signature.check_value(atom.variable, atom.value)

    def atoms(self) -> tuple[PrimitiveEvent, ...]:
        raise NotImplementedError


@dataclass(frozen=True)
class Atom(EventFormula):
    event: PrimitiveEvent

    def satisfied_by(self, world: World) -> bool:
        return world[self.event.variable] == self.event.value

    def predicate(self, index: Mapping[str, int]) -> Predicate:
        i, value = index[self.event.variable], self.event.value
        return lambda values: values[i] == value

    def variables(self) -> frozenset[str]:
        return frozenset((self.event.variable,))

    def atoms(self) -> tuple[PrimitiveEvent, ...]:
        return (self.event,)


@dataclass(frozen=True)
class NotF(EventFormula):
    child: EventFormula

    def satisfied_by(self, world: World) -> bool:
        return not self.child.satisfied_by(world)

    def predicate(self, index: Mapping[str, int]) -> Predicate:
        child = self.child.predicate(index)
        return lambda values: not child(values)

    def variables(self) -> frozenset[str]:
        return self.child.variables()

    def atoms(self) -> tuple[PrimitiveEvent, ...]:
        return self.child.atoms()


@dataclass(frozen=True)
class AndF(EventFormula):
    left: EventFormula
    right: EventFormula

    def satisfied_by(self, world: World) -> bool:
        return self.left.satisfied_by(world) and self.right.satisfied_by(world)

    def predicate(self, index: Mapping[str, int]) -> Predicate:
        left, right = self.left.predicate(index), self.right.predicate(index)
        return lambda values: left(values) and right(values)

    def variables(self) -> frozenset[str]:
        return self.left.variables() | self.right.variables()

    def atoms(self) -> tuple[PrimitiveEvent, ...]:
        return self.left.atoms() + self.right.atoms()


@dataclass(frozen=True)
class OrF(EventFormula):
    left: EventFormula
    right: EventFormula

    def satisfied_by(self, world: World) -> bool:
        return self.left.satisfied_by(world) or self.right.satisfied_by(world)

    def predicate(self, index: Mapping[str, int]) -> Predicate:
        left, right = self.left.predicate(index), self.right.predicate(index)
        return lambda values: left(values) or right(values)

    def variables(self) -> frozenset[str]:
        return self.left.variables() | self.right.variables()

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


def holds(model: CausalModel, context: Context, f: CausalFormula | EventFormula) -> bool:
    """Truth of a causal formula in (model, context)."""
    if isinstance(f, EventFormula):
        f = CausalFormula(Intervention(), f)
    f.validate(model)
    sig = model.signature
    sig.check_context(context)
    values = model.solve_unchecked(sig.context_values(context), sig.pin_values(f.prefix))
    return f.matrix.predicate(sig.endogenous_index)(values)


def valid(model: CausalModel, f: CausalFormula | EventFormula) -> bool:
    """Truth of a causal formula in every context of the model."""
    if isinstance(f, EventFormula):
        f = CausalFormula(Intervention(), f)
    f.validate(model)
    sig = model.signature
    pins = sig.pin_values(f.prefix)
    matrix = f.matrix.predicate(sig.endogenous_index)
    contexts = itertools.product(*(values for _, values in sig.exogenous))
    return all(matrix(model.solve_unchecked(u, pins)) for u in contexts)
