"""Finite structural causal models: signatures, equations, solving, interventions.

A model pairs a signature (variables with finite integer ranges, split into
exogenous and endogenous) with one total structural equation per endogenous
variable.  Models are validated eagerly at construction: names must resolve,
the endogenous dependency graph must be acyclic, and every equation body must
evaluate into its target's range for every combination of referenced values.

All values here are immutable after construction; every operation is pure.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter


class ModelError(ValueError):
    """Raised when a model, context, or intervention is ill-formed."""


class CycleError(ModelError):
    """The endogenous dependency graph contains a cycle."""

    def __init__(self, message: str, cycle: tuple[str, ...] = ()):
        super().__init__(message)
        self.cycle = cycle


class TotalityError(ModelError):
    """An equation body can evaluate outside its target's range."""


# ---------------------------------------------------------------------------
# Expression trees for equation bodies
# ---------------------------------------------------------------------------

_ARITH_OPS = {"+", "-", "*"}
_CMP_OPS = {"==", "!=", "<", "<="}
_BOOL_OPS = {"&&", "||"}


class Expr:
    """Integer-valued expression node."""

    __slots__ = ()

    def references(self) -> frozenset[str]:
        raise NotImplementedError


class Cond:
    """Boolean-valued expression node (only legal under If or other Conds)."""

    __slots__ = ()

    def references(self) -> frozenset[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Lit(Expr):
    value: int

    def references(self) -> frozenset[str]:
        return frozenset()


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def references(self) -> frozenset[str]:
        return frozenset((self.name,))


@dataclass(frozen=True)
class Arith(Expr):
    op: str  # one of + - *
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _ARITH_OPS:
            raise ModelError(f"unknown arithmetic operator {self.op!r}")

    def references(self) -> frozenset[str]:
        return self.left.references() | self.right.references()


@dataclass(frozen=True)
class MinMax(Expr):
    which: str  # "min" or "max"
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.which not in ("min", "max"):
            raise ModelError(f"unknown function {self.which!r}")

    def references(self) -> frozenset[str]:
        return self.left.references() | self.right.references()


@dataclass(frozen=True)
class If(Expr):
    cond: Cond
    then: Expr
    other: Expr

    def references(self) -> frozenset[str]:
        return self.cond.references() | self.then.references() | self.other.references()


@dataclass(frozen=True)
class Cmp(Cond):
    op: str  # one of == != < <=
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _CMP_OPS:
            raise ModelError(f"unknown comparison operator {self.op!r}")

    def references(self) -> frozenset[str]:
        return self.left.references() | self.right.references()


@dataclass(frozen=True)
class BoolOp(Cond):
    op: str  # "&&" or "||"
    left: Cond
    right: Cond

    def __post_init__(self) -> None:
        if self.op not in _BOOL_OPS:
            raise ModelError(f"unknown boolean operator {self.op!r}")

    def references(self) -> frozenset[str]:
        return self.left.references() | self.right.references()


@dataclass(frozen=True)
class Not(Cond):
    inner: Cond

    def references(self) -> frozenset[str]:
        return self.inner.references()


def _emit(node: Expr | Cond, key) -> str:
    """Render a node as a Python expression over an environment `e`.

    `key` maps a variable name to its key in `e`.
    """
    if isinstance(node, Lit):
        return repr(node.value)
    if isinstance(node, Var):
        return f"e[{key(node.name)!r}]"
    if isinstance(node, Arith):
        return f"({_emit(node.left, key)} {node.op} {_emit(node.right, key)})"
    if isinstance(node, MinMax):
        return f"{node.which}({_emit(node.left, key)}, {_emit(node.right, key)})"
    if isinstance(node, If):
        return f"({_emit(node.then, key)} if {_emit(node.cond, key)} else {_emit(node.other, key)})"
    if isinstance(node, Cmp):
        return f"({_emit(node.left, key)} {node.op} {_emit(node.right, key)})"
    if isinstance(node, BoolOp):
        py = "and" if node.op == "&&" else "or"
        return f"({_emit(node.left, key)} {py} {_emit(node.right, key)})"
    if isinstance(node, Not):
        return f"(not {_emit(node.inner, key)})"
    raise ModelError(f"unknown expression node {node!r}")


def compile_body(body: Expr, positions: Mapping[str, int] | None = None):
    """Compile an expression tree to a fast callable env -> int.

    Without `positions` the environment is a dict keyed by variable name;
    with it, a sequence indexed by `positions[name]`.
    """
    key = (lambda name: name) if positions is None else positions.__getitem__
    if isinstance(body, Lit):
        value = body.value
        return lambda e: value
    if isinstance(body, Var):
        return itemgetter(key(body.name))
    source = f"lambda e: {_emit(body, key)}"
    return eval(source, {"__builtins__": {}, "min": min, "max": max})


# ---------------------------------------------------------------------------
# Assignments: contexts, worlds, interventions
# ---------------------------------------------------------------------------


class Assignment(Mapping):
    """Immutable, hashable mapping from variable names to integer values."""

    __slots__ = ("_data", "_items", "_hash")

    def __init__(self, data: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        d = dict(data)
        object.__setattr__(self, "_data", d)
        object.__setattr__(self, "_items", tuple(sorted(d.items())))
        object.__setattr__(self, "_hash", hash((type(self).__name__, self._items)))

    def __getitem__(self, key: str) -> int:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return (name for name, _ in self._items)

    def __len__(self) -> int:
        return len(self._data)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Assignment):
            return type(self) is type(other) and self._items == other._items
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self._items)
        return f"{type(self).__name__}({inner})"

    def items_sorted(self) -> tuple[tuple[str, int], ...]:
        return self._items

    def as_dict(self) -> dict[str, int]:
        return dict(self._data)


class Context(Assignment):
    """Total assignment to the exogenous variables."""


class World(Assignment):
    """Total assignment to the endogenous variables.

    Worlds are plain assignments: they need not satisfy the model's equations
    (normality orders may mention off-equation worlds on purpose).
    """


class Intervention(Assignment):
    """Partial assignment pinning endogenous variables to constants."""


# ---------------------------------------------------------------------------
# Signature and equations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    """Variable declarations: ordered (name, finite range) pairs."""

    exogenous: tuple[tuple[str, tuple[int, ...]], ...]
    endogenous: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for name, values in self.exogenous + self.endogenous:
            if name in seen:
                raise ModelError(f"duplicate variable name {name!r}")
            seen.add(name)
            if not values:
                raise ModelError(f"variable {name!r} has an empty range")
            if tuple(sorted(set(values))) != values:
                raise ModelError(f"range of {name!r} must be sorted and duplicate-free")

    @cached_property
    def ranges(self) -> dict[str, tuple[int, ...]]:
        out = dict(self.exogenous)
        out.update(self.endogenous)
        return out

    @cached_property
    def exogenous_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.exogenous)

    @cached_property
    def endogenous_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.endogenous)

    @cached_property
    def _exogenous_set(self) -> frozenset[str]:
        return frozenset(self.exogenous_names)

    @cached_property
    def endogenous_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.endogenous_names)}

    @cached_property
    def positions(self) -> dict[str, int]:
        """Index of each variable in a solving environment: exogenous
        variables first, then endogenous ones, each in declaration order."""
        return {name: i for i, name in enumerate(self.exogenous_names + self.endogenous_names)}

    def is_endogenous(self, name: str) -> bool:
        return name in self.endogenous_index

    def check_value(self, name: str, value: int) -> None:
        values = self.ranges.get(name)
        if values is None:
            raise ModelError(f"unknown variable {name!r}")
        if value not in values:
            raise ModelError(f"value {value} outside the range of {name!r}")

    def check_intervention(self, iv: Mapping[str, int]) -> None:
        for name, value in iv.items():
            if not self.is_endogenous(name):
                raise ModelError(f"intervention target {name!r} is not endogenous")
            self.check_value(name, value)

    def check_context(self, context: Mapping[str, int]) -> None:
        for name in self.exogenous_names:
            if name not in context:
                raise ModelError(f"context is missing exogenous variable {name!r}")
            self.check_value(name, context[name])
        exogenous = self._exogenous_set
        for name in context:
            if name not in exogenous:
                raise ModelError(f"context assigns non-exogenous variable {name!r}")

    # -- positional form ----------------------------------------------------
    # Inside a query, contexts and worlds are tuples in declaration order and
    # pins are tuples over the endogenous variables with None for "unpinned".
    # These conversions do not validate: check at the query boundary first.

    def context_values(self, context: Mapping[str, int]) -> tuple[int, ...]:
        return tuple(context[name] for name in self.exogenous_names)

    def pin_values(self, pins: Mapping[str, int] | None) -> tuple[int | None, ...]:
        if not pins:
            return (None,) * len(self.endogenous)
        return tuple(pins.get(name) for name in self.endogenous_names)

    def world(self, values: Iterable[int]) -> World:
        return World(zip(self.endogenous_names, values))

    def check_world(self, world: Mapping[str, int]) -> None:
        for name in self.endogenous_names:
            if name not in world:
                raise ModelError(f"world is missing endogenous variable {name!r}")
            self.check_value(name, world[name])
        for name in world:
            if not self.is_endogenous(name):
                raise ModelError(f"world assigns non-endogenous variable {name!r}")


@dataclass(frozen=True)
class Equation:
    """One structural equation: target := body."""

    target: str
    body: Expr

    def references(self) -> frozenset[str]:
        return self.body.references()


class CausalModel:
    """A recursive (acyclic) structural causal model over a finite signature."""

    __slots__ = (
        "signature",
        "equations",
        "name",
        "_steps",
        "_topo_order",
        "__weakref__",
    )

    def __init__(
        self,
        signature: Signature,
        equations: Iterable[Equation],
        name: str = "model",
        _validated: bool = False,
    ):
        eq_map = {eq.target: eq for eq in equations}
        self.signature = signature
        self.equations: dict[str, Equation] = {
            v: eq_map[v] for v in signature.endogenous_names if v in eq_map
        }
        self.name = name
        if set(eq_map) != set(signature.endogenous_names):
            missing = set(signature.endogenous_names) - set(eq_map)
            extra = set(eq_map) - set(signature.endogenous_names)
            if missing:
                raise ModelError(f"missing equation for {sorted(missing)}")
            raise ModelError(f"equation for non-endogenous variable {sorted(extra)}")
        self._check_references()
        self._topo_order = self._toposort()
        # One (environment position, compiled body) step per endogenous
        # variable, in solve order; bodies read the positional environment.
        positions = signature.positions
        self._steps = tuple(
            (positions[v], compile_body(self.equations[v].body, positions)) for v in self._topo_order
        )
        if not _validated:
            self._check_totality()

    # -- validation --------------------------------------------------------

    def _check_references(self) -> None:
        known = set(self.signature.ranges)
        for eq in self.equations.values():
            for ref in eq.references():
                if ref not in known:
                    raise ModelError(
                        f"equation for {eq.target!r} references unknown variable {ref!r}"
                    )
                if ref == eq.target:
                    raise ModelError(f"equation for {eq.target!r} references itself")

    def _toposort(self) -> tuple[str, ...]:
        """Topological order of endogenous variables, declaration order as tie-break."""
        names = self.signature.endogenous_names
        deps = {
            v: [r for r in sorted(self.equations[v].references()) if r in self.signature.endogenous_index]
            for v in names
        }
        order: list[str] = []
        placed: set[str] = set()
        remaining = list(names)
        while remaining:
            progressed = False
            for v in list(remaining):
                if all(d in placed for d in deps[v]):
                    order.append(v)
                    placed.add(v)
                    remaining.remove(v)
                    progressed = True
                    break
            if not progressed:
                cycle = self._find_cycle(deps, remaining)
                raise CycleError(f"cyclic equations: {' -> '.join(cycle)}", tuple(cycle))
        return tuple(order)

    @staticmethod
    def _find_cycle(deps: Mapping[str, list[str]], remaining: list[str]) -> list[str]:
        start = remaining[0]
        seen: list[str] = []
        v = start
        while v not in seen:
            seen.append(v)
            v = next(d for d in deps[v] if d in remaining)
        cycle = seen[seen.index(v):]
        return cycle + [v]

    def _check_totality(self) -> None:
        # Enumerate the referenced variables' range product; a body that can
        # step outside its target range is a construction error, never a
        # runtime surprise.
        ranges = self.signature.ranges
        positions = self.signature.positions
        compiled = {v: fn for v, (_, fn) in zip(self._topo_order, self._steps)}
        env = [0] * len(positions)
        for v, eq in self.equations.items():
            refs = sorted(eq.references())
            slots = [positions[r] for r in refs]
            target_range = ranges[v]
            fn = compiled[v]
            for combo in itertools.product(*(ranges[r] for r in refs)):
                for slot, ref_value in zip(slots, combo):
                    env[slot] = ref_value
                value = fn(env)
                if value not in target_range:
                    binding = ", ".join(f"{r}={c}" for r, c in zip(refs, combo))
                    raise TotalityError(
                        f"equation for {v!r} yields {value} outside its range"
                        f" at {binding or 'the empty binding'}"
                    )

    # -- core operations ----------------------------------------------------

    def solve(self, context: Context) -> World:
        """Unique solution of all equations in the given context."""
        return self.solve_pinned(context, None)

    def solve_pinned(self, context: Mapping[str, int], pins: Mapping[str, int] | None) -> World:
        """Solve with some endogenous variables pinned to constants.

        Equivalent to intervening with `pins` and solving, without building
        the intervened model.
        """
        sig = self.signature
        sig.check_context(context)
        if pins:
            sig.check_intervention(pins)
        return sig.world(self.solve_unchecked(sig.context_values(context), sig.pin_values(pins)))

    def solve_unchecked(
        self, context: tuple[int, ...], pins: tuple[int | None, ...]
    ) -> tuple[int, ...]:
        """Endogenous values, in declaration order, with the pinned ones fixed.

        `context` holds the exogenous values in declaration order and `pins`
        one entry per endogenous variable, None where unpinned.  Nothing is
        validated: callers check both once, at the query boundary.
        """
        env = [*context, *pins]
        for pos, fn in self._steps:
            if env[pos] is None:
                env[pos] = fn(env)
        return tuple(env[len(context):])

    def intervene(self, iv: Mapping[str, int]) -> CausalModel:
        """Replace each targeted variable's equation by the assigned constant."""
        self.signature.check_intervention(iv)
        # Bodies are unchanged or constant, so references, acyclicity, and
        # totality all carry over; the original solve order stays topological
        # because intervening only removes dependency edges.
        out = object.__new__(CausalModel)
        out.signature = self.signature
        out.equations = {
            v: Equation(v, Lit(iv[v])) if v in iv else eq
            for v, eq in self.equations.items()
        }
        out.name = self.name
        out._topo_order = self._topo_order
        out._steps = tuple(
            (pos, compile_body(Lit(iv[v])) if v in iv else fn)
            for v, (pos, fn) in zip(self._topo_order, self._steps)
        )
        return out

    def enumerate_contexts(self) -> Iterator[Context]:
        """All total exogenous assignments, lexicographic by declaration order."""
        names = self.signature.exogenous_names
        ranges = [self.signature.ranges[n] for n in names]
        for combo in itertools.product(*ranges):
            yield Context(dict(zip(names, combo)))

    def world_space(self) -> Iterator[World]:
        """All endogenous assignments (not only solutions)."""
        names = self.signature.endogenous_names
        ranges = [self.signature.ranges[n] for n in names]
        for combo in itertools.product(*ranges):
            yield World(dict(zip(names, combo)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CausalModel):
            return NotImplemented
        return self.signature == other.signature and self.equations == other.equations

    def __hash__(self) -> int:
        return hash((self.signature, tuple(sorted(self.equations.items(), key=lambda kv: kv[0]))))

    def __repr__(self) -> str:
        return f"CausalModel({self.name!r}, {len(self.signature.exogenous)} exo, {len(self.signature.endogenous)} endo)"


# Module-level aliases for the operation names used throughout the package.


def solve(model: CausalModel, context: Context) -> World:
    """Solve the model's equations in a context."""
    return model.solve(context)


def intervene(model: CausalModel, iv: Intervention | Mapping[str, int]) -> CausalModel:
    """Apply an intervention, yielding the modified model."""
    return model.intervene(iv)


def enumerate_contexts(model: CausalModel) -> Iterator[Context]:
    """Yield every context exactly once, in deterministic order."""
    return model.enumerate_contexts()
