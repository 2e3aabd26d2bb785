"""Finite structural causal models: signatures, equations, solving, interventions.

A model pairs a signature (variables with finite integer ranges, split into
exogenous and endogenous) with one total structural equation per endogenous
variable.  Models are validated eagerly at construction: names must resolve,
the endogenous dependency graph must be acyclic, and every equation body must
evaluate into its target's range for every combination of referenced values.
Totality is proved by interval bounds on the body where they fit the range,
and by evaluating the body on every such combination where they do not.

All values here are immutable after construction; every operation is pure.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter


class ModelError(ValueError):
    """Raised when a model, context, or intervention is ill-formed.

    `category` is the diagnostic category the error is reported under.
    `variable` names the variable it is about, where there is one: an
    equation's target, a variable declared twice, an undeclared variable an
    equation reads, or a normality pattern's variable.  `pattern` locates
    that pattern by its path among a `NormalityOrder`'s fields:
    `("pairs", i, side)` or `("ranks", i, 0)`.
    """

    category = "semantic"

    def __init__(self, message: str, variable: str | None = None, pattern: tuple[str, int, int] | None = None):
        super().__init__(message)
        self.variable = variable
        self.pattern = pattern


class DuplicateVariableError(ModelError):
    """A variable declared twice; reported where it is declared again."""

    category = "syntax"


class UnknownVariableError(ModelError):
    """A variable that is not declared, or not of the kind required."""

    category = "unknown variable"


class RangeViolationError(ModelError):
    """A value outside its variable's range, or an ill-formed range."""

    category = "range violation"


class CycleError(ModelError):
    """The endogenous dependency graph contains a cycle."""

    category = "cycle"

    def __init__(self, message: str, cycle: tuple[str, ...] = ()):
        super().__init__(message, cycle[0] if cycle else None)
        self.cycle = cycle


class TotalityError(ModelError):
    """An equation body can evaluate outside its target's range."""

    category = "non-total equation"


# ---------------------------------------------------------------------------
# Expression trees for equation bodies
# ---------------------------------------------------------------------------

_ARITH_OPS = {"+", "-", "*"}
_CMP_OPS = {"==", "!=", "<", "<="}
_BOOL_OPS = {"&&", "||"}


class Expr:
    """Integer-valued expression node."""

    __slots__ = ()


class Cond:
    """Boolean-valued expression node (only legal under If or other Conds)."""

    __slots__ = ()


@dataclass(frozen=True)
class Lit(Expr):
    value: int


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Arith(Expr):
    op: str  # one of + - *
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _ARITH_OPS:
            raise ModelError(f"unknown arithmetic operator {self.op!r}")


@dataclass(frozen=True)
class MinMax(Expr):
    op: str  # "min" or "max"
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ("min", "max"):
            raise ModelError(f"unknown function {self.op!r}")


@dataclass(frozen=True)
class If(Expr):
    cond: Cond
    then: Expr
    other: Expr


@dataclass(frozen=True)
class Cmp(Cond):
    op: str  # one of == != < <=
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _CMP_OPS:
            raise ModelError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class BoolOp(Cond):
    op: str  # "&&" or "||"
    left: Cond
    right: Cond

    def __post_init__(self) -> None:
        if self.op not in _BOOL_OPS:
            raise ModelError(f"unknown boolean operator {self.op!r}")


@dataclass(frozen=True)
class Not(Cond):
    inner: Cond


_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "min": min,
    "max": max,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
}


# Operators whose operands may be reordered, and those of them whose nested
# applications may also be flattened into one.
_COMMUTATIVE = {"+", "*", "min", "max", "&&", "||", "==", "!="}
_ASSOCIATIVE = {"+", "*", "min", "max", "&&", "||"}


def canonical(node: Expr | Cond, known: Mapping[str, int]) -> tuple:
    """The node with the `known` values folded in, as a hashable normal form.

    A known variable or a literal is the constant `("#", value)`, and an
    unknown variable is `("v", name)`.  Folding takes an `If` with a constant
    condition to its branch, absorbs `&&` and `||` with a constant side, and
    evaluates `Not`, `Cmp`, `Arith` and `MinMax` over constant operands.
    Any other node is its operator followed by its operands' forms, so the
    variables in the form (`_variables`) are the ones the folded node still
    references.  The operands of `+ * min max && ||` are flattened through
    nested uses of the same operator, and those operators' operands and the
    two of `==` and `!=` are sorted.  Equal forms denote equal functions, so
    comparing forms can miss an equivalence but never invents one.

    Each node class has its fold function in `_FOLDS`, and each fold
    function folds the node's operands through the same table.
    """
    return _FOLDS[node.__class__](node, known)


def _fold_var(node: Var, known: Mapping[str, int]) -> tuple:
    value = known.get(node.name)
    return ("v", node.name) if value is None else ("#", value)


def _fold_if(node: If, known: Mapping[str, int]) -> tuple:
    cond = _FOLDS[node.cond.__class__](node.cond, known)
    if cond[0] == "#":
        branch = node.then if cond[1] else node.other
        return _FOLDS[branch.__class__](branch, known)
    then, other = node.then, node.other
    return ("if", cond, _FOLDS[then.__class__](then, known), _FOLDS[other.__class__](other, known))


def _fold_not(node: Not, known: Mapping[str, int]) -> tuple:
    inner = _FOLDS[node.inner.__class__](node.inner, known)
    return ("#", not inner[1]) if inner[0] == "#" else ("!", inner)


def _fold_bool(node: BoolOp, known: Mapping[str, int]) -> tuple:
    left, right = node.left, node.right
    left, right = _FOLDS[left.__class__](left, known), _FOLDS[right.__class__](right, known)
    absorbing = node.op == "||"  # true decides ||, false decides &&
    for side, other in ((left, right), (right, left)):
        if side[0] == "#":
            return ("#", absorbing) if side[1] == absorbing else other
    return _combine(node.op, left, right)


def _fold_pair(node: Arith | MinMax | Cmp, known: Mapping[str, int]) -> tuple:
    left, right = node.left, node.right
    left, right = _FOLDS[left.__class__](left, known), _FOLDS[right.__class__](right, known)
    if left[0] == "#" and right[0] == "#":
        return ("#", _BINARY[node.op](left[1], right[1]))
    return _combine(node.op, left, right)


def _combine(op: str, left: tuple, right: tuple) -> tuple:
    """The form of `op` over the forms `left` and `right`, not both constant."""
    if op not in _COMMUTATIVE:
        return (op, left, right)
    operands: list[tuple] = []
    for side in (left, right):
        if side[0] == op and op in _ASSOCIATIVE:
            operands.extend(side[1:])
        else:
            operands.append(side)
    return (op, *sorted(operands))


# The fold function of each node class (`canonical`).
_FOLDS: dict[type, Callable[[Expr | Cond, Mapping[str, int]], tuple]] = {
    Lit: lambda node, known: ("#", node.value),
    Var: _fold_var,
    If: _fold_if,
    Not: _fold_not,
    BoolOp: _fold_bool,
    Arith: _fold_pair,
    Cmp: _fold_pair,
    MinMax: _fold_pair,
}


def _variables(form: tuple) -> frozenset[str]:
    """The variables that occur in the normal form `form` (`canonical`)."""
    out = set()
    stack = [form]
    while stack:
        node = stack.pop()
        tag = node[0]
        if tag == "v":
            out.add(node[1])
        elif tag != "#":
            stack.extend(node[1:])
    return frozenset(out)


def _sites(form: tuple) -> dict[str, tuple | None]:
    """Each variable's site in the normal form `form` (`canonical`): the
    path to the lowest node N whose operands hold another variable, paired
    with N's operand T that holds this one, its name blanked.  None when N is
    not commutative or the variable also occurs outside T.  Swapping two
    variables with equal sites swaps two operands of N, so fixes `form`.
    """
    sites: dict[str, tuple | None] = {}
    if form[0] not in ("v", "#"):
        _sole(form, (), sites)
    return sites


def _sole(node: tuple, path: tuple[int, ...], sites: dict[str, tuple | None]) -> tuple:
    """(v, `node` with v's name blanked) when v is the one variable under the
    inner `node` at `path`; (None, `node`) when there is none; (True, None)
    when there are several, after putting in `sites` the site of each
    variable that is the one variable of an operand.  Leaves are read in place."""
    below = [
        (child[1], ("v",)) if child[0] == "v" else (None, child) if child[0] == "#" else _sole(child, (*path, k), sites)
        for k, child in enumerate(node[1:])
    ]
    held = {v for v, _ in below}
    held.discard(None)
    if len(held) < 2 and True not in held:
        return (held.pop() if held else None), (node[0], *(blank for _, blank in below))
    for v, blank in below:
        if v is not None and v is not True:
            # A second T, or operands that do not commute, leave no site.
            sites[v] = None if v in sites or node[0] not in _COMMUTATIVE else (path, blank)
    return True, None


def _split(parts: Iterable[list[str]], key: Callable[[str], object]) -> list[list[str]]:
    """The parts of two or more variables with one `key`, other than None,
    into which `key` splits each of `parts`; in order of first member."""
    out = []
    for part in parts:
        by_key: dict[object, list[str]] = {}
        for v in part:
            k = key(v)
            if k is not None:
                by_key.setdefault(k, []).append(v)
        out += [members for members in by_key.values() if len(members) > 1]
    return out


def _covers(values: tuple[int, ...], lo: int, hi: int) -> bool:
    """Whether the sorted, duplicate-free `values` hold every integer in
    `[lo, hi]`: ranges may have gaps, so matching end points is not enough."""
    i = bisect_left(values, lo)
    j = i + hi - lo
    return j < len(values) and values[i] == lo and values[j] == hi


# Closures for the inner nodes of a body (Feeley and Lapalme, "Using closures
# for code generation", Computer Languages 12(1), 1987).  A node reads each
# leaf operand in place, as a position in the environment `e` ("v") or as a
# constant ("#"), and calls the closure of any other operand ("f").  Operands
# are bound as default arguments: closure cells would be further objects for
# the garbage collector to track in every model kept.
_PAIR_STEPS = {
    ("v", "v"): lambda f, l, r: lambda e, f=f, l=l, r=r: f(e[l], e[r]),
    ("v", "#"): lambda f, l, r: lambda e, f=f, l=l, r=r: f(e[l], r),
    ("v", "f"): lambda f, l, r: lambda e, f=f, l=l, r=r: f(e[l], r(e)),
    ("#", "v"): lambda f, l, r: lambda e, f=f, l=l, r=r: f(l, e[r]),
    ("#", "#"): lambda f, l, r: lambda e, f=f, l=l, r=r: f(l, r),
    ("#", "f"): lambda f, l, r: lambda e, f=f, l=l, r=r: f(l, r(e)),
    ("f", "v"): lambda f, l, r: lambda e, f=f, l=l, r=r: f(l(e), e[r]),
    ("f", "#"): lambda f, l, r: lambda e, f=f, l=l, r=r: f(l(e), r),
    ("f", "f"): lambda f, l, r: lambda e, f=f, l=l, r=r: f(l(e), r(e)),
}
_IF_STEPS = {
    ("v", "v"): lambda c, t, o: lambda e, c=c, t=t, o=o: e[t] if c(e) else e[o],
    ("v", "#"): lambda c, t, o: lambda e, c=c, t=t, o=o: e[t] if c(e) else o,
    ("v", "f"): lambda c, t, o: lambda e, c=c, t=t, o=o: e[t] if c(e) else o(e),
    ("#", "v"): lambda c, t, o: lambda e, c=c, t=t, o=o: t if c(e) else e[o],
    ("#", "#"): lambda c, t, o: lambda e, c=c, t=t, o=o: t if c(e) else o,
    ("#", "f"): lambda c, t, o: lambda e, c=c, t=t, o=o: t if c(e) else o(e),
    ("f", "v"): lambda c, t, o: lambda e, c=c, t=t, o=o: t(e) if c(e) else e[o],
    ("f", "#"): lambda c, t, o: lambda e, c=c, t=t, o=o: t(e) if c(e) else o,
    ("f", "f"): lambda c, t, o: lambda e, c=c, t=t, o=o: t(e) if c(e) else o(e),
}


def _bounded(
    node: Expr | Cond,
    positions: Mapping[str, int],
    ranges: Mapping[str, tuple[int, ...]],
    read: Callable[[str], object],
) -> tuple[str, object, int, int]:
    """How a parent reads `node`: ("v", its position in `e`) for a variable,
    ("#", its value) for a literal, ("f", its closure) for any other node;
    and an interval holding every value it takes when each variable ranges
    over its (sorted) range in `ranges`.  One walk, in the order the surface
    syntax writes the operands (an `If`'s condition before its branches),
    that also calls `read` with each variable it reads, repeats included.

    Interval arithmetic (Cousot & Cousot, POPL 1977): `+`, `-` and `*`
    combine end points, `min` and `max` apply end-wise, and an `If` takes the
    hull of its branches whatever its condition.  A condition is read as 0
    or 1.  Sound, not exact.
    """
    cls = node.__class__
    if cls is Var:
        name = node.name
        read(name)
        values = ranges[name]
        return "v", positions[name], values[0], values[-1]
    if cls is Lit:
        return "#", node.value, node.value, node.value
    if cls is If:
        cond = _bounded(node.cond, positions, ranges, read)[1]
        tk, then, a, b = _bounded(node.then, positions, ranges, read)
        ok, other, c, d = _bounded(node.other, positions, ranges, read)
        return "f", _IF_STEPS[tk, ok](cond, then, other), min(a, c), max(b, d)
    if cls is Not:
        inner = _bounded(node.inner, positions, ranges, read)[1]
        return "f", lambda e, c=inner: not c(e), 0, 1
    if cls is BoolOp:
        left = _bounded(node.left, positions, ranges, read)[1]
        right = _bounded(node.right, positions, ranges, read)[1]
        if node.op == "&&":
            return "f", lambda e, l=left, r=right: l(e) and r(e), 0, 1
        return "f", lambda e, l=left, r=right: l(e) or r(e), 0, 1
    if cls is not Arith and cls is not MinMax and cls is not Cmp:
        raise ModelError(f"unknown expression node {node!r}")
    lk, left, a, b = _bounded(node.left, positions, ranges, read)
    rk, right, c, d = _bounded(node.right, positions, ranges, read)
    fn = _PAIR_STEPS[lk, rk](_BINARY[node.op], left, right)
    if cls is Cmp:
        return "f", fn, 0, 1
    if cls is MinMax:
        pick = _BINARY[node.op]
        return "f", fn, pick(a, c), pick(b, d)
    if node.op == "+":
        return "f", fn, a + c, b + d
    if node.op == "-":
        return "f", fn, a - d, b - c
    products = (a * c, a * d, b * c, b * d)
    return "f", fn, min(products), max(products)


def _step(kind: str, value):
    """The callable env -> value of an operand read as `kind` (`_bounded`)."""
    if kind == "v":
        return itemgetter(value)
    if kind == "#":
        return lambda e: value
    return value


def compile_body(
    body: Expr, positions: Mapping[str, int], ranges: Mapping[str, tuple[int, ...]]
) -> tuple[Callable[[list[int]], int], tuple[int, int], list[str]]:
    """Build an expression tree, once, into a callable env -> int: a closure
    per inner node, each reading its leaf operands in place.  The
    environment is a sequence, indexed by `positions[name]`.  Also returns
    an interval `(lo, hi)` holding every value the body takes when each
    variable ranges over its (sorted) range in `ranges`, and the variables
    the body reads, in the order they are written, repeats included: all
    from one walk (`_bounded`).

    Raises `UnknownVariableError` for the first variable written that
    `ranges` or `positions` does not hold.
    """
    reads: list[str] = []
    try:
        kind, fn, lo, hi = _bounded(body, positions, ranges, reads.append)
    except KeyError:  # the last variable read is not declared
        raise UnknownVariableError(f"undeclared variable {reads[-1]!r}", reads[-1]) from None
    return _step(kind, fn), (lo, hi), reads


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

    # Faster than `Mapping`'s `in` and `get`, which call `__getitem__` under try/except.
    def __contains__(self, key: object) -> bool:
        return key in self._data

    def get(self, key: str, default: int | None = None) -> int | None:
        return self._data.get(key, default)

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
                raise DuplicateVariableError(f"duplicate variable {name!r}", name)
            seen.add(name)
            if not values:
                raise RangeViolationError(f"variable {name!r} has an empty range")
            if any(map(operator.ge, values, values[1:])):  # not strictly increasing
                raise RangeViolationError(f"range of {name!r} must be sorted and duplicate-free")
        # Derived here, once, and not as cached properties: building a model
        # reads most of them.  `positions` indexes each variable in a solving
        # environment: exogenous variables first, then endogenous ones, each
        # in declaration order.
        exo = tuple(name for name, _ in self.exogenous)
        endo = tuple(name for name, _ in self.endogenous)
        ranges = dict(self.exogenous)
        ranges.update(self.endogenous)
        derive = object.__setattr__  # the dataclass is frozen
        derive(self, "ranges", ranges)
        derive(self, "exogenous_names", exo)
        derive(self, "endogenous_names", endo)
        derive(self, "_exogenous_set", frozenset(exo))
        derive(self, "endogenous_index", {name: i for i, name in enumerate(endo)})
        derive(self, "positions", {name: i for i, name in enumerate(exo + endo)})

    def is_endogenous(self, name: str) -> bool:
        return name in self.endogenous_index

    def check_value(self, name: str, value: int) -> None:
        values = self.ranges.get(name)
        if values is None:
            raise UnknownVariableError(f"unknown variable {name!r}")
        if value not in values:
            raise RangeViolationError(f"value {value} outside the range of {name!r}")

    def check_endogenous(self, role: str, name: str, value: int) -> None:
        """Check `name = value` for an endogenous variable; `role` names it in the error."""
        if not self.is_endogenous(name):
            raise UnknownVariableError(f"{role} {name!r} is not endogenous")
        self.check_value(name, value)

    def check_intervention(self, iv: Mapping[str, int]) -> None:
        for name, value in iv.items():
            self.check_endogenous("intervention target", name, value)

    def check_weights(self, weights: Mapping[str, Fraction]) -> None:
        """Check a weighted measure: one positive weight per endogenous
        variable, and none for any other name, which is checked first."""
        for name in weights:
            if not self.is_endogenous(name):
                raise UnknownVariableError(f"weight variable {name!r} is not endogenous")
        if missing := [name for name in self.endogenous_names if name not in weights]:
            raise ValueError(f"missing weights for {missing}")
        for name in self.endogenous_names:
            if weights[name] <= 0:
                raise ModelError(f"weight for {name!r} must be positive")

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
    # These conversions check nothing: the public entry that takes a query's
    # input checks it first, once (see `_Search`, `formula.valid_unchecked`).

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


class CausalModel:
    """A recursive (acyclic) structural causal model over a finite signature.

    `references` maps each endogenous variable to the set of variables its
    equation reads, as the walk that compiled the body found them.
    """

    __slots__ = (
        "signature",
        "equations",
        "name",
        "references",
        "_steps",
        "_topo_order",
        "_readers",
        "_folds",
        "__weakref__",
    )

    def __init__(
        self,
        signature: Signature,
        equations: Iterable[Equation],
        name: str = "model",
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
        # One walk per body, in declaration order, compiles it, bounds it
        # and lists what it reads; the first undeclared variable written in
        # the first body that has one is reported.
        positions, ranges = signature.positions, signature.ranges
        compiled, bounds, self.references = {}, {}, {}
        for v, eq in self.equations.items():
            try:
                compiled[v], bounds[v], reads = compile_body(eq.body, positions, ranges)
            except UnknownVariableError as exc:
                ref = exc.variable
                raise UnknownVariableError(f"equation for {v!r} references undeclared variable {ref!r}", ref) from None
            self.references[v] = frozenset(reads)
        for v, names in self.references.items():
            if v in names:
                raise CycleError(f"equation for {v!r} references itself", (v, v))
        self._topo_order, self._readers = self._toposort()
        self._folds: dict[tuple[int, ...], dict[str, tuple[tuple, frozenset[str]]]] = {}  # see `folds`
        # One (environment position, compiled body) step per endogenous
        # variable, in solve order; bodies read the positional environment.
        self._steps = tuple((positions[v], compiled[v]) for v in self._topo_order)
        self._check_totality(compiled, bounds)

    # -- validation --------------------------------------------------------

    def _toposort(self) -> tuple[tuple[str, ...], dict[str, list[str]]]:
        """Topological order of endogenous variables, declaration order as
        tie-break; and for each one, the endogenous variables whose equations
        mention it, in declaration order.  Kahn's algorithm: a heap keyed by
        declaration index gives the first-declared variable whose inputs are
        all placed."""
        names = self.signature.endogenous_names
        index = self.signature.endogenous_index
        deps = {v: [r for r in sorted(self.references[v]) if r in index] for v in names}
        readers: dict[str, list[str]] = {v: [] for v in names}
        for v in names:
            for d in deps[v]:
                readers[d].append(v)
        unplaced = {v: len(deps[v]) for v in names}  # -> its inputs not yet placed
        ready = [i for i, v in enumerate(names) if not deps[v]]  # sorted, so a heap
        order: list[str] = []
        while ready:
            v = names[heapq.heappop(ready)]
            order.append(v)
            del unplaced[v]
            for r in readers[v]:
                unplaced[r] -= 1
                if not unplaced[r]:
                    heapq.heappush(ready, index[r])
        if unplaced:
            cycle = self._find_cycle(deps, unplaced)
            raise CycleError(f"cyclic equations: {' -> '.join(cycle)}", tuple(cycle))
        return tuple(order), readers

    @staticmethod
    def _find_cycle(deps: Mapping[str, list[str]], unplaced: Mapping[str, object]) -> list[str]:
        """A cycle among the `unplaced` variables, each of which has an
        unplaced input: from the first one, follow each variable's first
        unplaced input until a variable comes round again."""
        seen: dict[str, int] = {}  # -> its index on the walk
        v = next(iter(unplaced))
        while v not in seen:
            seen[v] = len(seen)
            v = next(d for d in deps[v] if d in unplaced)
        return [*itertools.islice(seen, seen[v], None), v]

    def _check_totality(
        self, compiled: Mapping[str, Callable[[list[int]], int]], bounds: Mapping[str, tuple[int, int]]
    ) -> None:
        # A body that can step outside its target range is a construction
        # error, never a runtime surprise.  A body whose interval `bounds`
        # fit the range is total; any other is evaluated on the product of
        # its referenced ranges, so a non-total one is reported at its first
        # bad binding.
        ranges = self.signature.ranges
        positions = self.signature.positions
        env = [0] * len(positions)
        for v in self.equations:
            target_range = ranges[v]
            if _covers(target_range, *bounds[v]):
                continue
            names = sorted(self.references[v])
            slots = [positions[r] for r in names]
            fn = compiled[v]
            for combo in itertools.product(*(ranges[r] for r in names)):
                for slot, ref_value in zip(slots, combo):
                    env[slot] = ref_value
                value = fn(env)
                if value not in target_range:
                    binding = ", ".join(f"{r}={c}" for r, c in zip(names, combo))
                    raise TotalityError(
                        f"equation for {v!r} yields {value} outside its range"
                        f" at {binding or 'the empty binding'}",
                        v,
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

    def reads(
        self,
        start: Iterable[str],
        known: Mapping[str, int],
        memo: dict[str, tuple[tuple, frozenset[str]]] | None = None,
    ) -> Iterator[str]:
        """The `start` variables and every variable they read, directly or
        through other equations, once the `known` values are folded into the
        equation bodies (`canonical`); each once, lazily, so a caller may stop
        early.  A known or exogenous variable reads nothing.  `memo` keeps
        each folded equation across walks with the same `known` (`_folded`).
        """
        memo = {} if memo is None else memo
        seen = set(start)
        stack = list(seen)
        while stack:
            name = stack.pop()
            yield name
            if name in known or name not in self.equations:
                continue
            entry = memo.get(name)
            if entry is None:
                entry = self._folded(name, known, memo)
            for ref in entry[1]:
                if ref not in seen:
                    seen.add(ref)
                    stack.append(ref)

    def folds(self, context: tuple[int, ...]) -> dict[str, tuple[tuple, frozenset[str]]]:
        """The `_folded` memo for the exogenous values `context`, in
        declaration order: kept with the model, so the queries on one model
        under one context fold each equation once.  Equality and hashing
        ignore it."""
        return self._folds.setdefault(context, {})

    def _folded(
        self, name: str, known: Mapping[str, int], memo: dict[str, tuple[tuple, frozenset[str]]]
    ) -> tuple[tuple, frozenset[str]]:
        """The normal form of the equation of endogenous `name` once the
        `known` values are folded in (`canonical`), and the variables it
        still references; memoised in `memo`."""
        entry = memo.get(name)
        if entry is None:
            form = canonical(self.equations[name].body, known)
            entry = memo[name] = (form, _variables(form))
        return entry

    def interchangeable(
        self,
        groups: Iterable[list[str]],
        known: Mapping[str, int],
        memo: dict[str, tuple[tuple, frozenset[str]]],
    ) -> list[list[str]]:
        """Split each group of endogenous variables into classes of two or
        more, any two of which can be exchanged: swapping them maps the
        equations, with the `known` values folded in, onto themselves.  The
        classes are the parts of two or more that the keys leave, in order
        of first member.

        Variables are split by equal keys, cheapest first, all read from the
        folded equations in `memo` (`_folded`, shared with `reads`): their
        references, their readers, the normal form of their own equation and
        their site in each reader's (`_sites`).  With equal references neither
        reads the other, so the swap maps one's equation onto the other's and,
        with equal sites, fixes every reader.  The test can miss a symmetry,
        never invent one.
        """
        sites: dict[str, dict[str, tuple | None]] = {}  # reader -> `_sites` of its form

        def refs(v: str) -> frozenset[str]:
            return self._folded(v, known, memo)[1]

        def readers(v: str) -> tuple[str, ...]:
            return tuple(r for r in self._readers[v] if v in refs(r))

        def form(v: str) -> tuple:
            return self._folded(v, known, memo)[0]

        def places(v: str) -> tuple | None:  # None at the first reader without a site
            out = []
            for r in readers(v):
                if r not in sites:
                    sites[r] = _sites(form(r))
                out.append(sites[r].get(v))
                if out[-1] is None:
                    return None
            return tuple(out)

        parts = list(groups)  # each key is computed only where a pair is left
        for key in (refs, readers, form, places):
            parts = _split(parts, key)
        return parts

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
        out.references = {**self.references, **dict.fromkeys(iv, frozenset())}  # constants read nothing
        out._topo_order = self._topo_order
        out._readers = self._readers  # a superset
        out._folds = {}  # the bodies differ, so their folds do
        out._steps = tuple(
            (pos, _step("#", iv[v]) if v in iv else fn) for v, (pos, fn) in zip(self._topo_order, self._steps)
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
