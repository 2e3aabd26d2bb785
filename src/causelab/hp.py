"""Actual-cause decisions with certifying witnesses.

A candidate cause is a true conjunction of primitive events; it is an actual
cause of an outcome when three conditions hold:

  AC1  the conjunction and the outcome both hold in the solved world;
  AC2  some contingency certifies counterfactual dependence: partition the
       endogenous variables into Z (containing the candidate X) and W, and
       find settings x' of X and w of W such that
         (a) the outcome is false under [X <- x', W <- w], and the resulting
             witness world is at least as normal as the actual world, and
         (b) the outcome stays true under [X <- x, W' <- w, Z' <- z*] for
             every W' subset of W and every Z' subset of Z minus X, where z*
             are the actual solved values;
  AC3  no strict nonempty sub-conjunction satisfies AC1 and AC2.

The search enumerates contingencies by increasing measure (the number of W
variables whose setting differs from the actual world, or their summed
weights), so the witnesses it reports are exactly the minimal ones that
responsibility scoring needs.

A query over more endogenous variables than the cap (`max_vars`) raises
`CapExceededError` after solving the actual world and before any search.

Every shortcut below is exact: verdicts, witnesses and reported AC2(b)
failures are those of the plain enumeration.  Only the work counters
(`EngineStats`) differ, and not always downwards.

- Solve results are memoized per intervention, and pins of variables that
  never deviate from their actual values are skipped (pinning a variable at
  the value it already takes cannot change any solution, so such pins are
  no-ops both in the witness search and inside the AC2(b) subset sweep).
- Non-causes are decided by context folding.  The context is substituted
  into the equation bodies and constant-folded (`model.canonical`), and the
  search walks back from the outcome's variables over the references that
  remain (`CausalModel.reads`).  Each equation is folded once per model and
  context (`CausalModel.folds`), for this walk and the orbit keys below
  alike, and across the queries on that model.  If no
  cause variable is reached, no witness exists: pins only replace equations
  by constants, so the outcome under [x', w] equals the outcome under
  [x, w], and AC2(a) then contradicts AC2(b) at W' = W, Z' = {}.  Such a
  search stops at once.
- Scoring reads only the first minimal witness and its measure, and the
  first witness found is minimal because the order is by measure, so
  `is_actual_cause(first_witness=True)` stops there.
- Change sets are generated lazily in the order of (measure, size,
  positions): for the change count, `_first_members` yields each count's
  sets in position order, as `itertools.combinations` does without
  classes; for weights, a heap pops them best first.  With no negative
  weight every successor of a change set comes after it in that order, so
  the pops are exactly the sorted sequence, and a search that ends at
  measure m never builds a change set beyond it.  The heap adds integers,
  the weights scaled by the least common multiple of their denominators: a
  positive scale keeps every order and tie.
- Normality admissibility is decided from the pins, before any solve.  The
  worlds at least as normal as the actual world are exactly those matching
  some pattern of its up-set (`NormalityOrder.up_set`), which always covers
  the actual world itself, and a world solved under pins takes the pinned
  values.  So a pin set that contradicts every up-set pattern admits no
  normal world: an alternative x' that does is dropped (with none left
  there is no witness), change sets range only over the variables that some
  pattern consistent with a remaining x' lets leave their actual values,
  and a change assignment whose pins contradict every pattern is skipped
  before its relevance fixpoint.  None of these contingencies could reach
  AC2(b), so no witness or reported failure is lost.  Flat models skip all
  of this.
- AC2(b) is decided once per change assignment.  Split W into C (the
  variables set off their actual values, to c) and E (those pinned at their
  actual values).  The AC2(b) instances pin C' subset of C to c and E' and
  Z' at actual values, and E' | Z' ranges over every subset of the variables
  outside the cause and C.  So the verdict depends on (C, c) alone, not on E
  or x', and is kept by the pin tuple that sets the cause at its actual
  values and C to c.  Those pins identify the cause too, so the memo is
  shared by `for_cause` copies.  A verdict comes from the verdicts of its
  one-smaller sub-assignments, whose instances include every C' short of C:
  it fails when the outcome fails with some C' subset of C pinned and nothing
  else (an instance with E' | Z' empty); it holds when every one-smaller
  sub-assignment holds and the outcome holds under (C, c) plus every
  actual-value pin set over the unpinned variables (the C' = C instances,
  pruned by the relevance fixpoint); otherwise, as when a sub-assignment
  fails only under a pin of the variable it leaves out, the per-W' sweep
  (`ac2b`) decides it.  This is the search's only AC2(b) test.
- Each orbit of interchangeable variables is decided once.  Two variables
  outside the cause and the outcome are interchangeable when they share
  their range, their actual value and their value in each of the actual
  world's up-set patterns, which makes swapping them map each pattern onto
  itself, and have equal keys in the equations folded under the context,
  which makes it map those equations onto themselves
  (`CausalModel.interchangeable`).  Weights play no part: each member is
  enumerated at its own measure.  Such a swap maps every solution, AC2
  verdict and witness onto its image, so the solve and AC2(b) memos are
  keyed by the representative of the orbit of their pins
  (`_Search._canonical`).  Without weights the search walks orbits, not
  their members (`_Search._levels`), by one rule over each class in
  position order: a member is changed only together with the member before
  it (`_first_members`), and at no smaller value (`_Search._orbits`).  Of
  each orbit exactly one change assignment passes, its first member: per
  class a count and a sorted multiset of values, given in increasing order
  to the class's first members.  It decides the first member, and a swap
  maps its decision to every member: with no witness the orbit is skipped
  whole; with one, every member has one under the same x'.  When that
  witness has E empty, which every order tries first, each member's witness
  is its image (`_Search._orbit_witnesses`), whose world pins the member's
  change variables and gives a class's other members their common unpinned
  value, without a solve.  Like every witness inside the search, an image
  is positional: its W positions and its world's value tuple, read off the
  first member's solved tuple, with no name, `Assignment` or `World` built
  (a `Witness` names them when its fields are first read).  Otherwise which
  E comes first depends on the positions, so each member is decided on its
  own.  A full search then
  sorts the level's witnesses back into search order, and an
  `existence_only` search stops at the first orbit with a witness, where
  the member walk stopped.  So no solve moves.  Where the members' orders
  differ, in the weighted order, whose members have measures of their own,
  the walk takes the members one by one as `_Search._change_sets` orders
  them; the failure pass below walks the change counts with no classes, so
  the rule passes every member.  Both skip only the orbits that no
  contingency reaches (`_Search._orbit`, `_Search._unreached`).  Classes
  are found when the enumeration first goes past the empty change set;
  without a class the orbit walk is the member walk.  `ways_fraction`
  evaluates each orbit of side settings once, weighted by its multinomial
  size.  A ways responsibility reads the verdict's search, and with it its
  solve memo (`ways_verdict`).

AC2(b) failures explain a verdict and do not decide it, so they are not the
search's work, and they are recorded only on request
(`is_actual_cause(record_failures=True)`, the CLI's `cause --failures`).
Then, after an AC2 verdict, a pass of their own
(`_Search.find_ac2b_failures`) walks the contingencies in the search's
order, through the same enumeration (`_Search._levels`, `_Search._reached`)
with no classes, so over every member of every orbit.  It names the first
failing instance (`ac2b`) of each contingency that passes AC2(a) and the
normality gate, until it has `_AC2B_FAILURE_CAP` of them.  Without the
request, and in every search that scoring, blame or `find_all_causes` runs,
no such pass is made.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import math
import operator
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property

from .formula import EngineStats, EventFormula, atom, conj
from .model import Assignment, CausalModel, Context, Signature, World
from .normality import ExtendedModel

DEFAULT_MAX_VARS = 12


class CapExceededError(RuntimeError):
    """Raised when a model exceeds the variable cap."""

    category = "resource-cap"


@dataclass(frozen=True)
class CandidateCause:
    """A nonempty conjunction of primitive events over distinct variables."""

    settings: Assignment

    def __post_init__(self) -> None:
        if len(self.settings) == 0:
            raise ValueError("candidate cause must be nonempty")

    @classmethod
    def of(cls, mapping: Mapping[str, int]) -> CandidateCause:
        return cls(Assignment(mapping))

    def validate(self, model: CausalModel) -> None:
        for name, value in self.settings.items():
            model.signature.check_endogenous("cause variable", name, value)

    def variables(self) -> frozenset[str]:
        return frozenset(self.settings)

    def event_formula(self) -> EventFormula:
        return conj(*(atom(name, value) for name, value in self.settings.items_sorted()))

    def strict_subsets(self) -> Iterator[CandidateCause]:
        items = self.settings.items_sorted()
        for r in range(1, len(items)):
            for combo in itertools.combinations(items, r):
                yield CandidateCause(Assignment(dict(combo)))


class Witness:
    """A contingency the search found certifying AC2 for a candidate cause:
    the set W, its setting, the cause's alternative setting x' and
    `changes`, the number of W variables set off their actual values, with
    `world`, the world the search solved for it.

    It is kept by position over the model's signature: W in the order the
    search set it, the cause's variables, and the solved world's values,
    which hold W's setting and x' since both are pinned.  Its named fields
    are built when first read, and `settings` formats plain dicts from the
    positions without building them.  Witnesses compare and hash by W, its
    setting, x' and `changes`.
    """

    def __init__(self, sig: Signature, w: tuple[int, ...], x: tuple[int, ...], changes: int, values: tuple[int, ...]):
        """The witness that pins the positions `w` and then the cause's
        positions `x` to their `values`, the solved world."""
        vars(self).update(changes=changes, _sig=sig, _w=w, _x=x, _values=values)

    @cached_property
    def w_set(self) -> frozenset[str]:
        names = self._sig.endogenous_names
        return frozenset([names[i] for i in self._w])

    @cached_property
    def w_setting(self) -> Assignment:
        return Assignment(self.settings()[0])

    @cached_property
    def x_prime(self) -> Assignment:
        return Assignment(self.settings()[1])

    @cached_property
    def world(self) -> World:
        return self._sig.world(self._values)

    def settings(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """W's setting, x' and `world` as new plain dicts, straight from the
        positions, with W in the order the search set it and the world in
        declaration order."""
        names, values = self._sig.endogenous_names, self._values
        return {names[i]: values[i] for i in self._w}, {names[i]: values[i] for i in self._x}, dict(zip(names, values))

    def _key(self) -> tuple:
        return self.w_set, self.w_setting, self.x_prime, self.changes

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Witness(w_set={self.w_set!r}, w_setting={self.w_setting!r},"
            f" x_prime={self.x_prime!r}, changes={self.changes!r})"
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


@dataclass(frozen=True)
class Ac2bFailure:
    """An AC2(a)-passing attempt rejected by a specific AC2(b) instance."""

    w_set: frozenset[str]
    w_setting: Assignment
    x_prime: Assignment
    w_prime: frozenset[str]
    z_prime: frozenset[str]


@dataclass(frozen=True)
class CauseVerdict:
    is_cause: bool
    witnesses: tuple[Witness, ...] = ()
    failed_condition: str | None = None  # "AC1" | "AC2" | "AC3" when not a cause
    ac2b_failures: tuple[Ac2bFailure, ...] = ()
    measure: Fraction | int | None = None  # the witnesses' measure, for a cause


_AC2B_FAILURE_CAP = 32

# Shared AC2(b) decisions of change assignments (see `_Search._ac2b_state`):
# the verdict holds, fails by an instance that pins only cause and change
# variables, or fails otherwise.
_HOLDS, _FAILS_BARE, _FAILS = "holds", "fails bare", "fails"


def _orbit_size(values: tuple[int, ...]) -> int:
    """The number of arrangements of the sorted `values`: a multinomial."""
    size = math.factorial(len(values))
    for _, run in itertools.groupby(values):
        size //= math.factorial(len(list(run)))
    return size


def _subsets(items: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All subsets, increasing size, lexicographic by position within size."""
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def _first_members(movable: Sequence[int], before: Mapping[int, int], k: int) -> Iterator[tuple[int, ...]]:
    """The k-subsets of the increasing positions `movable`, in lexicographic
    order, that take a class member only together with the member `before`
    it: each class's members taken are its first ones."""
    if not before:
        return itertools.combinations(movable, k)

    def grow(taken: tuple[int, ...], start: int) -> Iterator[tuple[int, ...]]:
        if len(taken) == k:
            yield taken
            return
        for j in range(start, len(movable) - k + len(taken) + 1):
            i = movable[j]
            if i not in before or before[i] in taken:
                yield from grow(taken + (i,), j + 1)

    return grow((), 0)


def _placements(positions: Sequence[int], values: Sequence[int]) -> Iterator[dict[int, int]]:
    """Each way to give the sorted, nonempty `values` to distinct
    `positions`, once per distinct arrangement, as {position: value} maps."""
    run = values.count(values[0])  # sorted, so the first value's run
    for chosen in itertools.combinations(positions, run):
        placed = dict.fromkeys(chosen, values[0])
        if run == len(values):
            yield placed
        else:
            rest = [i for i in positions if i not in chosen]
            for more in _placements(rest, values[run:]):
                yield {**placed, **more}


class _Search:
    """Witness search for one (extended model, context, cause, outcome).

    The context, cause and outcome are checked once, here, in that order, for
    each public entry that searches; the search itself solves unchecked.
    Inside it every variable is its endogenous declaration position, pins are
    tuples with None for "unpinned" and solutions are value tuples.  A witness
    is (W, values): the positions of C then E, and the solved world, which
    holds W's setting and x'.  The `Witness` that reports it builds its named
    fields when they are first read.  Names and `World`s appear only there, in
    the reported AC2(b) failures and in the one up-set lookup of a non-flat
    order, whose patterns are kept by position.  `for_cause` reuses all
    cause-independent state, the memos and the patterns included.  A search
    made without a cause only solves the actual world, and is aimed at each
    cause by `for_cause`.  Every solve and AC2(b) instance is counted in
    `stats`, the caller's `EngineStats` or a fresh one: the public entries
    pass theirs through, and `for_cause` copies share it.
    """

    def __init__(
        self,
        ext: ExtendedModel,
        context: Context,
        cause: CandidateCause | None,
        outcome: EventFormula,
        stats: EngineStats | None = None,
    ):
        self.model = ext.model
        sig = self.model.signature
        sig.check_context(context)
        if cause is not None:
            cause.validate(self.model)
        outcome.validate(self.model)
        self.context = sig.context_values(context)
        self.holds = outcome.predicate(sig.endogenous_index)
        self.outcome_vars = outcome.variables()
        self.stats = stats if stats is not None else EngineStats()
        self.names = sig.endogenous_names
        self.n = len(self.names)
        self._cache: dict[tuple[int | None, ...], tuple[int, ...]] = {}
        self._exogenous = dict(zip(sig.exogenous_names, self.context))
        self._folded = self.model.folds(self.context)
        self._ac2b_states: dict[tuple[int | None, ...], str] = {}  # change assignment pins -> state
        self.classes: tuple[tuple[int, ...], ...] | None = None  # set by `_find_classes`
        self.actual = self._solve((None,) * self.n)
        # The actual world's up-set as {position: value} patterns; None when flat.
        self._patterns = None if ext.is_flat else tuple(
            {sig.endogenous_index[v]: value for v, value in pattern.items()}
            for pattern in ext.order.up_set(sig.world(self.actual))
        )
        if cause is not None:
            self._aim(cause)

    def _aim(self, cause: CandidateCause) -> None:
        cause_ix = {self.model.signature.endogenous_index[v] for v in cause.variables()}
        self.x_vars = tuple(sorted(cause_ix))
        self.others = [i for i in range(self.n) if i not in cause_ix]
        self.x_actual = tuple(cause.settings[self.names[i]] for i in self.x_vars)
        self.classes = None
        self._unreached: set[tuple] = set()  # (x', `_orbit` key) of each orbit no contingency reaches

    def for_cause(self, cause: CandidateCause) -> _Search:
        """This search aimed at another cause; the shallow copy shares the
        memos, whose keys are full pin tuples of the same model and context."""
        search = copy.copy(self)
        search._aim(cause)
        return search

    # -- interchangeable variables -------------------------------------------

    def _find_classes(self) -> None:
        """Set `classes`: the classes of two or more interchangeable
        variables outside the cause and the outcome, as increasing positions.

        Exchanging two variables of one class maps the folded equations
        (`CausalModel.interchangeable`), the actual world's up-set patterns,
        the cause and the outcome onto themselves, so it maps each solution,
        verdict and witness onto its image.
        """
        self.classes = self._interchangeable_classes()
        if self.classes:
            # A class member is led by the class's first member, any other
            # variable by itself.
            self._lead = list(range(self.n))
            for cls in self.classes:
                for i in cls:
                    self._lead[i] = cls[0]

    def _orbit(self, c_vars: Sequence[int], c: Sequence[int]) -> tuple:
        """A key naming the orbit of the change assignment that sets the
        positions `c_vars` to `c`: its (lead, value) pairs, sorted."""
        return tuple(sorted(zip(map(self._lead.__getitem__, c_vars), c)))

    def _interchangeable_classes(self) -> tuple[tuple[int, ...], ...]:
        # Exchangeable variables share their range, their actual value and
        # their value (or absence) in each of the actual world's up-set
        # patterns, so that exchanging them maps each pattern onto itself.
        ranges = self.model.signature.ranges
        groups: dict[tuple, list[str]] = {}
        for i in self.others:
            v = self.names[i]
            if v not in self.outcome_vars:
                key = (ranges[v], self.actual[i], tuple(p.get(i) for p in self._patterns or ()))
                groups.setdefault(key, []).append(v)
        groups = [group for group in groups.values() if len(group) > 1]
        if not groups:
            return ()
        index = self.model.signature.endogenous_index
        classes = self.model.interchangeable(groups, self._exogenous, self._folded)
        return tuple(tuple(sorted(index[v] for v in cls)) for cls in classes)

    def _canonical(self, pins: tuple[int | None, ...]) -> tuple[int | None, ...]:
        """The representative of the orbit of `pins`: within each class, the
        unpinned members first, then the pinned values in increasing order.
        `pins` itself when it is its own representative."""
        out = None
        for cls in self.classes:
            values = [pins[i] for i in cls]
            free = values.count(None)
            if free == len(values):
                continue
            ordered = [None] * free + sorted(v for v in values if v is not None)
            if ordered != values:
                out = list(pins) if out is None else out
                for i, v in zip(cls, ordered):
                    out[i] = v
        return pins if out is None else tuple(out)

    def check_cap(self, max_vars: int) -> None:
        """Raise `CapExceededError` when the model is over the variable cap;
        by then only the actual world has been solved."""
        if self.n > max_vars:
            raise CapExceededError(
                f"model has {self.n} endogenous variables, above the variable cap of"
                f" {max_vars}; raise --max-vars"
            )

    def ac1(self) -> bool:
        """AC1 on the solved actual world: the cause and the outcome both hold."""
        actual = self.actual
        return all(actual[i] == x for i, x in zip(self.x_vars, self.x_actual)) and self.holds(actual)

    def outcome_reaches_cause(self) -> bool:
        """Whether some outcome variable depends on a cause variable once the
        context is folded into the equations.  When none does, AC2 fails (see
        the module docstring).  Folds only the equations the walk reaches."""
        cause = {self.names[i] for i in self.x_vars}
        return any(v in cause for v in self.model.reads(self.outcome_vars, self._exogenous, self._folded))

    # -- solving ------------------------------------------------------------

    def _solve(self, pins: tuple[int | None, ...]) -> tuple[int, ...]:
        values = self._cache.get(pins)
        if values is None:
            canon = self._canonical(pins) if self.classes else pins
            if canon is pins:
                values = self._cache[pins] = self.model.solve_unchecked(self.context, pins)
                self.stats.solves += 1
            else:
                # A pinned variable takes its pin, and the unpinned members of
                # a class share one value, which the representative gives its
                # first member.
                values = self._solve(canon)
                values = self._cache[pins] = tuple(
                    values[lead] if pin is None else pin for pin, lead in zip(pins, self._lead)
                )
        return values

    def _pins(self, *settings: Iterable[tuple[int, int]]) -> list[int | None]:
        """A pin list (None = unpinned) from (index, value) pairs."""
        pins: list[int | None] = [None] * self.n
        for pairs in settings:
            for i, value in pairs:
                pins[i] = value
        return pins

    def _normal(self, values: tuple[int, ...]) -> bool:
        """Whether the world is at least as normal as the actual one."""
        if self._patterns is None:
            return True
        return any(all(values[i] == v for i, v in p.items()) for p in self._patterns)

    def _admits(self, pins: Sequence[tuple[int, int]]) -> bool:
        """Whether some world at least as normal as the actual one takes the
        pinned (position, value) pairs, i.e. some up-set pattern is consistent
        with them.  When not, no world solved under these pins, or under more,
        passes `_normal`.  Only called on a non-flat order."""
        return any(all(p.get(i, v) == v for i, v in pins) for p in self._patterns)

    def _named(self, pairs: Iterable[tuple[int, int]]) -> Assignment:
        return Assignment({self.names[i]: value for i, value in pairs})

    def _named_contingency(self, w_setting: Mapping[int, int], x_prime: tuple[int, ...]):
        """(W, its setting, x') by name; the keys of `w_setting` are W."""
        w_set = frozenset(self.names[i] for i in w_setting)
        return w_set, self._named(w_setting.items()), self._named(zip(self.x_vars, x_prime))

    # -- pruning helper -----------------------------------------------------

    def _relevant_fixpoint(self, base: list[int | None], candidates: list[int]) -> list[int]:
        """Variables whose actual-value pins can matter on top of `base`.

        A candidate enters the set once it deviates from its actual value in
        any world reachable by pinning a subset of the set so far; pins of
        never-deviating variables are provably no-ops.
        """
        actual = self.actual
        relevant: list[int] = []
        while True:
            new: set[int] = set()
            for sub in _subsets(relevant):
                pins = base.copy()
                for i in sub:
                    pins[i] = actual[i]
                values = self._solve(tuple(pins))
                for i in candidates:
                    if values[i] != actual[i] and i not in relevant:
                        new.add(i)
            if not new:
                return relevant
            relevant = sorted(set(relevant) | new)

    def _pin_sets(
        self, base: list[int | None], candidates: list[int]
    ) -> Iterator[tuple[tuple[int, ...], tuple[int | None, ...]]]:
        """(S, pins) for each subset S of the `candidates` whose actual-value
        pins can matter on top of `base` (`_relevant_fixpoint`), in `_subsets`
        order: `pins` is `base` with S pinned at its actual values."""
        actual = self.actual
        relevant = self._relevant_fixpoint(base, candidates)
        for r in range(len(relevant) + 1):  # `_subsets`, inlined in this innermost loop
            for sub in itertools.combinations(relevant, r):
                pins = base.copy()
                for i in sub:
                    pins[i] = actual[i]
                yield sub, tuple(pins)

    # -- AC2 ----------------------------------------------------------------

    def ac2b(self, w_set: Sequence[int], w_setting: Mapping[int, int]):
        """Check AC2(b); return None if it holds, else the first failing (W', Z').

        `w_set` lists positions in increasing order.
        """
        z_minus_x = [i for i in self.others if i not in w_set]
        x_pins = self._pins(zip(self.x_vars, self.x_actual))
        for w_prime in _subsets(w_set):
            base = x_pins.copy()
            for i in w_prime:
                base[i] = w_setting[i]
            for z_prime, pins in self._pin_sets(base, z_minus_x):
                self.stats.subset_checks += 1
                if not self.holds(self._solve(pins)):
                    return w_prime, z_prime
        return None

    def _ac2b_state(self, pins: tuple[int | None, ...], c_vars: Sequence[int]) -> str:
        """AC2(b) for the change assignment that `pins` sets: the cause at its
        actual values and the increasing positions `c_vars` off theirs.  The
        same for every E and x' (see the module docstring), and for every
        member of its orbit, so it is kept by the orbit's representative."""
        key = self._canonical(pins) if self.classes else pins
        state = self._ac2b_states.get(key)
        if state is None:
            state = self._decide_ac2b(pins, c_vars)
            if state is None:  # the sweep with W = C decides; its W' lies inside C
                failure = self.ac2b(c_vars, {i: pins[i] for i in c_vars})
                state = _HOLDS if failure is None else _FAILS if failure[1] else _FAILS_BARE
            self._ac2b_states[key] = state
        return state

    def _decide_ac2b(self, pins: tuple[int | None, ...], c_vars: Sequence[int]) -> str | None:
        """The state from the one-smaller sub-assignments, or None when they
        leave it open.  Depth first, so a failing instance is found at the
        smallest C' the sub-assignments reach."""
        for k, i in enumerate(c_vars):
            sub = list(pins)
            sub[i] = None
            state = self._ac2b_state(tuple(sub), c_vars[:k] + c_vars[k + 1:])
            if state is not _HOLDS:
                return state if state is _FAILS_BARE else None
        # Every instance with C' short of C holds; the C' = C ones are left.
        self.stats.subset_checks += 1
        if not self.holds(self._solve(pins)):
            return _FAILS_BARE
        for z_prime, pins_z in self._pin_sets(list(pins), [i for i in range(self.n) if pins[i] is None]):
            if not z_prime:
                continue  # the bare instance, checked above
            self.stats.subset_checks += 1
            if not self.holds(self._solve(pins_z)):
                return _FAILS
        return _HOLDS

    def check_witness(self, w_set: list[int], w_setting: dict[int, int], x_prime: tuple[int, ...]):
        """Full AC2 check of an explicit witness; returns (ok, ac2b_failure).

        `w_set` lists positions in increasing order and `x_prime` follows
        `x_vars`; the settings must already be valid for the model.
        """
        values = self._solve(tuple(self._pins(zip(self.x_vars, x_prime), w_setting.items())))
        if self.holds(values):
            return False, None  # AC2(a) fails
        if not self._normal(values):
            return False, None  # witness world is not admissible
        failure = self.ac2b(w_set, w_setting)
        return failure is None, failure

    # -- witness enumeration --------------------------------------------------

    def _x_alternatives(self) -> list[tuple[int, ...]]:
        """Settings of the cause variables, in position order, other than the actual one."""
        ranges = self.model.signature.ranges
        return [
            combo
            for combo in itertools.product(*(ranges[self.names[i]] for i in self.x_vars))
            if combo != self.x_actual
        ]

    def _change_sets(self, weights: Mapping[str, Fraction], movable: Sequence[int]) -> Iterator[tuple]:
        """(measure, C) for every change set C of the `movable` positions,
        sorted by summed weight, then size, then position, and generated
        lazily."""
        # Best first over the variables sorted by (weight, position); a set is
        # the increasing indices it takes from that list, and its successors
        # append the next index or replace its last index by the next one.
        # The heap adds integers: the weights scaled by the least common
        # multiple of their denominators, a positive scale that keeps every
        # order and tie.  Each measure is a `Fraction` again once, when the
        # pops first reach it.
        order = sorted(movable, key=lambda i: (weights[self.names[i]], i))
        exact = [Fraction(weights[self.names[i]]) for i in order]
        scale = math.lcm(*(x.denominator for x in exact))
        w = [int(x * scale) for x in exact]
        heap: list[tuple] = [(0, 0, (), ())]
        last, fraction = None, None
        while heap:
            measure, size, c_vars, taken = heapq.heappop(heap)
            if measure != last:
                last, fraction = measure, Fraction(measure, scale)
            yield fraction, c_vars
            nxt = taken[-1] + 1 if taken else 0
            if nxt == len(order):
                continue
            grown = taken + (nxt,)
            heapq.heappush(heap, (measure + w[nxt], size + 1, self._sorted_at(order, grown), grown))
            if taken:
                moved = taken[:-1] + (nxt,)
                swapped = measure - w[taken[-1]] + w[nxt]
                heapq.heappush(heap, (swapped, size, self._sorted_at(order, moved), moved))

    @staticmethod
    def _sorted_at(order: list[int], taken: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sorted(order[k] for k in taken))

    def _levels(self, weights: Mapping[str, Fraction] | None, members: bool = False) -> Iterator[tuple]:
        """(measure, classes, level) for each measure in increasing order,
        where `level` yields (C, c, alternatives) in search order; its x'
        come from `_alternatives`.  Without weights the measure is the
        change count, and `level` holds the first member of each orbit of
        `classes`, the classes inside the movable variables
        (`_first_members`, `_orbits`); with `members` there are none, so it
        holds every change assignment.  With weights it holds every change
        assignment, in the order of `_change_sets`, and `classes` is empty."""
        x_alts = self._x_alternatives()
        movable = self.others
        if self._patterns is not None:
            x_alts = [x for x in x_alts if self._admits(tuple(zip(self.x_vars, x)))]
            if not x_alts:
                return  # every contingency fails the normality gate
            movable = self._movable(x_alts)
        if weights is None:
            measure = 0
        else:
            changes = self._change_sets(weights, movable)
            measure, _ = next(changes)  # the empty change set, alone at its measure
        yield measure, (), [((), (), self._alternatives((), (), x_alts))]
        if not movable:
            return
        # Resumed only for a search that goes on past the empty change set,
        # the first with an orbit to share.
        if self.classes is None:
            self._find_classes()
        ranges = self.model.signature.ranges
        offs = {i: [val for val in ranges[self.names[i]] if val != self.actual[i]] for i in movable}
        if weights is not None:
            for measure, group in itertools.groupby(changes, key=operator.itemgetter(0)):
                yield measure, (), self._orbits((c_vars for _, c_vars in group), offs, {}, x_alts)
            return
        # A class lies inside `movable` or outside it: a swap that maps the
        # up-set patterns onto themselves maps an admitted pin to another.
        classes = () if members else tuple(cls for cls in self.classes if cls[0] in offs)
        before = {b: a for cls in classes for a, b in zip(cls, cls[1:])}  # each member's predecessor
        for k in range(1, len(movable) + 1):
            yield k, classes, self._orbits(_first_members(movable, before, k), offs, before, x_alts)

    def _orbits(self, c_sets: Iterable[tuple[int, ...]], offs, before, x_alts):
        """(C, c, alternatives) for each C of `c_sets` and each setting c of
        its variables off their actual values (`offs`), in product order.

        No member takes a smaller value than the class member `before` it,
        so of the change assignments of first members (`_levels`), one per
        orbit passes: per class, a count and a multiset of values, given in
        increasing order to the class's first members.  With `before` empty
        every change assignment passes.
        """
        for c_vars in c_sets:
            settings = itertools.product(*map(offs.__getitem__, c_vars))
            if before:
                rises = [(c_vars.index(before[i]), j) for j, i in enumerate(c_vars) if i in before]
                settings = (c for c in settings if all(c[a] <= c[b] for a, b in rises))
            for c in settings:
                yield c_vars, c, self._alternatives(c_vars, c, x_alts)

    def _alternatives(self, c_vars: tuple[int, ...], c: tuple[int, ...], x_alts: list[tuple[int, ...]]):
        """(x', orbit) for each x' of `x_alts`, in position order, that some
        normal world takes with C set to c, except those of an orbit in
        `_unreached`.  `orbit` (`_orbit`, under x') is None while there are
        no classes."""
        for x_prime in x_alts:
            if self._patterns is not None and not self._admits((*zip(self.x_vars, x_prime), *zip(c_vars, c))):
                continue  # no normal world takes these pins
            orbit = (x_prime, self._orbit(c_vars, c)) if self.classes else None
            if orbit not in self._unreached:
                yield x_prime, orbit

    def _reached(self, c_vars: tuple[int, ...], c: tuple[int, ...], x_prime: tuple[int, ...], orbit):
        """(W, solved values) for each contingency of a change assignment
        and x' that passes AC2(a) and the normality gate: W is C plus E, the
        variables pinned at their actual values, smallest E first
        (`_pin_sets`), and the values hold W's setting.  When there is none,
        the orbit joins `_unreached`."""
        base = self._pins(zip(self.x_vars, x_prime), zip(c_vars, c))
        reached = False
        for e_sub, pins in self._pin_sets(base, [i for i in self.others if i not in c_vars]):
            values = self._solve(pins)
            if self.holds(values) or not self._normal(values):
                continue  # AC2(a) fails for this W, or its world is inadmissible
            reached = True
            yield c_vars + e_sub, values
        if orbit is not None and not reached:
            self._unreached.add(orbit)

    def find_minimal_witnesses(
        self,
        weights: Mapping[str, Fraction] | None = None,
        existence_only: bool = False,
    ):
        """Minimal-measure admissible witnesses, one per change assignment,
        in search order.

        Returns (measure, witnesses); (None, ()) when AC2 is unsatisfiable.
        Without weights the measure is the change count k.  An
        `existence_only` search stops at the first witness.
        """
        if not self.outcome_reaches_cause():
            return None, ()  # no witness exists (see the module docstring)
        for measure, classes, level in self._levels(weights):
            found: list[tuple] = []  # ((C, c), W, values)
            for c_vars, c, alternatives in level:
                for x_prime, orbit in alternatives:
                    witness = self._first_witness_for(c_vars, c, x_prime, orbit)
                    if witness is not None:
                        if existence_only:
                            return measure, (self._witness(c_vars, *witness),)
                        if classes:
                            found += self._orbit_witnesses(classes, c_vars, c, x_prime, orbit, witness)
                        else:
                            found.append(((c_vars, c), *witness))
                        break  # one canonical witness per change assignment
            if found:
                if classes:
                    # The members of orbits back into search order: (C, c)
                    # order within one change count.
                    found.sort(key=operator.itemgetter(0))
                return measure, tuple(self._witness(c_vars, w, values) for (c_vars, _), w, values in found)
        return None, ()

    def _witness(self, c_vars: tuple[int, ...], w: tuple[int, ...], values: tuple[int, ...]) -> Witness:
        """The witness that sets the change variables `c_vars`, with W and
        solved values as `_reached` gives them."""
        return Witness(self.model.signature, w, self.x_vars, len(c_vars), values)

    def _orbit_witnesses(self, classes, c_vars, c, x_prime, orbit, witness: tuple) -> list[tuple]:
        """((C, c), W, values) for each member of the orbit of `classes`
        whose first member sets `c_vars` to `c` and has `witness`, a (W,
        values) pair, under x'.

        Every member has a witness under x' and none under an earlier
        alternative.  When the witness has E empty, so has each member's: it
        is the witness's image, whose world pins the member's change
        variables and gives the others of each class their common unpinned
        value.  Otherwise the smallest E follows the positions, so each
        member is decided on its own.
        """
        first = dict(zip(c_vars, c))
        moved = [cls for cls in classes if cls[0] in first]
        in_class = {i for cls in moved for i in cls}
        fixed = {i: v for i, v in first.items() if i not in in_class}
        w, values = witness
        at_empty_e = len(w) == len(c_vars)
        if at_empty_e:
            # The witness's world with each moved class at its unpinned value,
            # which its last member takes unless the whole class is pinned.
            unpinned = list(values)
            for cls in moved:
                for i in cls:
                    unpinned[i] = unpinned[cls[-1]]
        found = []
        for placed in itertools.product(*(_placements(cls, [first[i] for i in cls if i in first]) for cls in moved)):
            setting = dict(fixed)
            for pins in placed:
                setting.update(pins)
            m_vars = tuple(sorted(setting))
            m_c = tuple(map(setting.__getitem__, m_vars))
            if m_vars == c_vars and m_c == c:
                member = witness
            elif at_empty_e:
                world = unpinned.copy()
                for i, value in setting.items():
                    world[i] = value
                member = tuple(setting), tuple(world)
            else:
                member = self._first_witness_for(m_vars, m_c, x_prime, orbit)
            found.append(((m_vars, m_c), *member))
        return found

    def _movable(self, x_alts: list[tuple[int, ...]]) -> list[int]:
        """The variables of `others` that a normal contingency under some
        alternative in `x_alts` can set off their actual values."""
        ranges = self.model.signature.ranges
        movable = []
        for i in self.others:
            offs = [v for v in ranges[self.names[i]] if v != self.actual[i]]
            if any(self._admits((*zip(self.x_vars, x), (i, v))) for x in x_alts for v in offs):
                movable.append(i)
        return movable

    def _first_witness_for(
        self, c_vars: tuple[int, ...], c: tuple[int, ...], x_prime: tuple[int, ...], orbit
    ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """Smallest-W witness for a fixed change assignment and x', as (W,
        solved values) (`_reached`), or None.  AC2(b) is the shared decision
        of (C, c)."""
        pins = tuple(self._pins(zip(self.x_vars, self.x_actual), zip(c_vars, c)))
        if self._ac2b_states.get(self._canonical(pins) if self.classes else pins, _HOLDS) is not _HOLDS:
            return None  # AC2(b) fails for every W with this change assignment
        for witness in self._reached(c_vars, c, x_prime, orbit):
            if self._ac2b_state(pins, c_vars) is not _HOLDS:
                return None  # the same verdict for every W
            return witness
        return None

    def find_ac2b_failures(self, weights: Mapping[str, Fraction] | None) -> tuple[Ac2bFailure, ...]:
        """The AC2(b) failures recorded on request once AC2 has failed:
        for each contingency that passes AC2(a) and the normality gate, in
        search order, its first failing instance (`ac2b`), up to
        `_AC2B_FAILURE_CAP` of them.  With no witness, every such
        contingency has one."""
        failures: list[Ac2bFailure] = []
        for _, _, level in self._levels(weights, members=True):
            for c_vars, c, alternatives in level:
                for x_prime, orbit in alternatives:
                    for w, values in self._reached(c_vars, c, x_prime, orbit):
                        w_setting = {i: values[i] for i in w}
                        w_prime, z_prime = self.ac2b(sorted(w), w_setting)
                        failures.append(
                            Ac2bFailure(
                                *self._named_contingency(w_setting, x_prime),
                                w_prime=frozenset(self.names[i] for i in w_prime),
                                z_prime=frozenset(self.names[i] for i in z_prime),
                            )
                        )
                        if len(failures) == _AC2B_FAILURE_CAP:
                            return tuple(failures)
        return tuple(failures)

    def ways_fraction(self) -> Fraction:
        """`ways_fraction` for this search's cause and outcome."""
        if self.classes is None:
            self._find_classes()
        side = [i for i in self.others if self.names[i] not in self.outcome_vars]
        ranges = self.model.signature.ranges
        total = math.prod(len(ranges[self.names[i]]) for i in side) - 1
        if not total:
            return Fraction(1)
        # A class of interchangeable side variables takes each multiset of values
        # once, standing for the settings in its orbit; every other side variable
        # is a block of one.  The actual setting is its own orbit.
        in_class = {i for cls in self.classes for i in cls}
        blocks = [*self.classes, *((i,) for i in side if i not in in_class)]
        positions = [i for block in blocks for i in block]
        actual = tuple(self.actual[i] for i in positions)

        def holds_with(combo: tuple[int, ...], x: tuple[int, ...]) -> bool:
            return self.holds(self._solve(tuple(self._pins(zip(positions, combo), zip(self.x_vars, x)))))

        x_alts = self._x_alternatives()
        multisets = [
            itertools.combinations_with_replacement(ranges[self.names[block[0]]], len(block)) for block in blocks
        ]
        critical = 0
        for choice in itertools.product(*multisets):
            combo = sum(choice, ())
            if combo != actual and holds_with(combo, self.x_actual) and not all(holds_with(combo, x) for x in x_alts):
                critical += math.prod(map(_orbit_size, choice))
        return Fraction(critical, total)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def check_ac2(
    ext: ExtendedModel,
    context: Context,
    cause: CandidateCause,
    outcome: EventFormula,
    w_setting: Mapping[str, int],
    x_prime: Mapping[str, int],
    stats: EngineStats | None = None,
) -> bool:
    """Re-verify AC2 (both clauses plus the normality gate) for the
    contingency that sets W, the keys of `w_setting`, to its values and the
    cause's variables to `x_prime`.  Its shape is checked against the cause
    first, since that reads no model: W does not overlap the cause, and x'
    sets exactly the cause variables."""
    if cause.variables().intersection(w_setting):
        raise ValueError("witness W set overlaps the candidate cause")
    if set(x_prime) != cause.variables():
        raise ValueError("witness x' must set exactly the cause variables")
    search = _Search(ext, context, cause, outcome, stats)
    sig = ext.model.signature
    sig.check_intervention({**x_prime, **w_setting})  # the search solves unchecked
    w_set = sorted(sig.endogenous_index[v] for v in w_setting)
    ok, _ = search.check_witness(
        w_set,
        {i: w_setting[search.names[i]] for i in w_set},
        tuple(x_prime[search.names[i]] for i in search.x_vars),
    )
    return ok


def is_actual_cause(
    ext: ExtendedModel,
    context: Context,
    cause: CandidateCause,
    outcome: EventFormula,
    max_vars: int = DEFAULT_MAX_VARS,
    stats: EngineStats | None = None,
    weights: Mapping[str, Fraction] | None = None,
    first_witness: bool = False,
    record_failures: bool = False,
) -> CauseVerdict:
    """Decide actual causation, reporting minimal-measure witnesses.

    The measure is the change count, or with `weights` (one positive weight
    per endogenous variable, and none for any other name) the summed weights
    of the changed contingency variables.  With `first_witness`, a cause
    reports only its first minimal witness: all that scoring reads.  With
    `record_failures`, an AC2 non-cause names up to `_AC2B_FAILURE_CAP`
    AC2(b) failures; otherwise `ac2b_failures` is empty.
    """
    search = _Search(ext, context, cause, outcome, stats)
    if weights is not None:
        search.model.signature.check_weights(weights)
    return _verdict(search, cause, max_vars, weights, first_witness, record_failures)


def _verdict(
    search: _Search,
    cause: CandidateCause,
    max_vars: int,
    weights: Mapping[str, Fraction] | None = None,
    first_witness: bool = False,
    record_failures: bool = False,
) -> CauseVerdict:
    """`is_actual_cause` on a search aimed at `cause`."""
    search.check_cap(max_vars)
    if not search.ac1():
        return CauseVerdict(False, failed_condition="AC1")

    measure, witnesses = search.find_minimal_witnesses(weights, existence_only=first_witness)
    if measure is None:
        failures = search.find_ac2b_failures(weights) if record_failures else ()
        return CauseVerdict(False, failed_condition="AC2", ac2b_failures=failures)

    # AC3: a strict nonempty sub-conjunction passing AC1 and AC2 disqualifies
    # the candidate.  AC1 holds for every sub-conjunction whenever it holds
    # for the whole, so only AC2 needs searching, and the measure does not
    # matter for existence.
    for sub in cause.strict_subsets():
        sub_measure, _ = search.for_cause(sub).find_minimal_witnesses(existence_only=True)
        if sub_measure is not None:
            return CauseVerdict(False, failed_condition="AC3")

    return CauseVerdict(True, witnesses=witnesses, measure=measure)


def ways_fraction(
    ext: ExtendedModel,
    context: Context,
    cause: CandidateCause,
    outcome: EventFormula,
    max_vars: int = DEFAULT_MAX_VARS,
    stats: EngineStats | None = None,
) -> Fraction:
    """Fraction of non-actual settings of the side variables under which the
    cause alone is critical: the outcome holds with the cause pinned at its
    actual value and fails for some alternative.

    Side variables are the endogenous variables outside the cause and outside
    the outcome; the actual setting itself is not counted as a change.  Above
    the variable cap it raises `CapExceededError`, as `is_actual_cause` does.
    """
    search = _Search(ext, context, cause, outcome, stats)
    search.check_cap(max_vars)
    return search.ways_fraction()


def ways_verdict(
    ext: ExtendedModel,
    context: Context,
    cause: CandidateCause,
    outcome: EventFormula,
    max_vars: int = DEFAULT_MAX_VARS,
    stats: EngineStats | None = None,
) -> tuple[CauseVerdict, Fraction | None]:
    """`is_actual_cause` with `first_witness`, and for a cause its
    `ways_fraction` (None otherwise), from one search: the inputs are
    checked and the actual world solved once, and the fraction reads the
    verdict's solve memo."""
    search = _Search(ext, context, cause, outcome, stats)
    verdict = _verdict(search, cause, max_vars, first_witness=True)
    return verdict, search.ways_fraction() if verdict.is_cause else None


def find_all_causes(
    ext: ExtendedModel,
    context: Context,
    outcome: EventFormula,
    max_conjuncts: int = 1,
    max_vars: int = DEFAULT_MAX_VARS,
    stats: EngineStats | None = None,
) -> list[tuple[CandidateCause, CauseVerdict]]:
    """Test every true conjunction of up to max_conjuncts primitive events.

    Candidates sharing a variable with the outcome are skipped: with finite
    ranges any true event trivially certifies itself, which the sweep is not
    meant to report.  All candidates share one search, and with it the solve
    and AC2(b) memos; the candidates are read off its actual world.
    """
    if max_conjuncts < 1:
        raise ValueError("max_conjuncts must be at least 1")
    search = _Search(ext, context, None, outcome, stats)
    events = [(v, x) for v, x in zip(search.names, search.actual) if v not in search.outcome_vars]
    results: list[tuple[CandidateCause, CauseVerdict]] = []
    for r in range(1, max_conjuncts + 1):
        for combo in itertools.combinations(events, r):
            cand = CandidateCause(Assignment(dict(combo)))
            search = search.for_cause(cand)
            results.append((cand, _verdict(search, cand, max_vars)))
    return results
