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

Two pruning devices keep desk-scale queries fast without giving up exactness:
solve results are memoized per intervention, and pins of variables that never
deviate from their actual values are skipped (pinning a variable at the value
it already takes cannot change any solution, so such pins are no-ops both in
the witness search and inside the AC2(b) subset sweep).
"""

from __future__ import annotations

import copy
import itertools
import random
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .formula import AndF, Atom, EventFormula, PrimitiveEvent
from .model import Assignment, CausalModel, Context, World
from .normality import ExtendedModel

DEFAULT_MAX_VARS = 12


class CapExceededError(RuntimeError):
    """Raised in exact mode when a model exceeds the variable cap."""


@dataclass
class EngineStats:
    """Work counters for one query; wall time is tracked by callers."""

    solves: int = 0
    subset_checks: int = 0


@dataclass(frozen=True)
class EngineOptions:
    max_vars: int = DEFAULT_MAX_VARS
    sampled: bool = False
    seed: int = 0
    samples: int = 5000


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
            if not model.signature.is_endogenous(name):
                raise ValueError(f"cause variable {name!r} is not endogenous")
            model.signature.check_value(name, value)

    def variables(self) -> frozenset[str]:
        return frozenset(self.settings)

    def event_formula(self) -> EventFormula:
        items = self.settings.items_sorted()
        node: EventFormula = Atom(PrimitiveEvent(*items[-1]))
        for name, value in reversed(items[:-1]):
            node = AndF(Atom(PrimitiveEvent(name, value)), node)
        return node

    def strict_subsets(self) -> Iterator[CandidateCause]:
        items = self.settings.items_sorted()
        for r in range(1, len(items)):
            for combo in itertools.combinations(items, r):
                yield CandidateCause(Assignment(dict(combo)))


@dataclass(frozen=True)
class Witness:
    """A contingency certifying AC2 for a candidate cause."""

    w_set: frozenset[str]
    w_setting: Assignment
    x_prime: Assignment
    changes: int


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
    sampled: bool = False
    measure: Fraction | int | None = None  # the witnesses' measure, for a cause


_AC2B_FAILURE_CAP = 32


def _subsets(items: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All subsets, increasing size, lexicographic by position within size."""
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


class _Search:
    """Witness search for one (extended model, context, cause, outcome).

    The cause, outcome and context are validated once, here, since the
    search solves unchecked; inside it every variable is its endogenous
    declaration position, pins are tuples with None for "unpinned" and
    solutions are value tuples.  Names and `World`s appear only for a
    non-flat normality lookup and in reported results.  `for_cause` reuses
    all cause-independent state, the memo included.
    """

    def __init__(
        self,
        ext: ExtendedModel,
        context: Context,
        cause: CandidateCause,
        outcome: EventFormula,
        stats: EngineStats,
    ):
        self.ext = ext
        self.model = ext.model
        sig = self.model.signature
        cause.validate(self.model)
        outcome.validate(self.model)
        sig.check_context(context)
        self.context = sig.context_values(context)
        self.holds = outcome.predicate(sig.endogenous_index)
        self.stats = stats
        self.names = sig.endogenous_names
        self.n = len(self.names)
        self._cache: dict[tuple[int | None, ...], tuple[int, ...]] = {}
        self.actual = self._solve((None,) * self.n)
        self._actual_world = None if ext.is_flat else sig.world(self.actual)
        self._aim(cause)

    def _aim(self, cause: CandidateCause) -> None:
        cause_ix = {self.model.signature.endogenous_index[v] for v in cause.variables()}
        self.x_vars = sorted(cause_ix)
        self.others = [i for i in range(self.n) if i not in cause_ix]
        self.x_actual = tuple(cause.settings[self.names[i]] for i in self.x_vars)
        self.ac2b_failures: list[Ac2bFailure] = []

    def for_cause(self, cause: CandidateCause) -> _Search:
        """This search aimed at another cause; the shallow copy shares the memo,
        whose keys are full pin tuples of the same model and context."""
        search = copy.copy(self)
        search._aim(cause)
        return search

    def ac1(self) -> bool:
        """AC1 on the solved actual world: the cause and the outcome both hold."""
        actual = self.actual
        return all(actual[i] == x for i, x in zip(self.x_vars, self.x_actual)) and self.holds(actual)

    # -- solving ------------------------------------------------------------

    def _solve(self, pins: tuple[int | None, ...]) -> tuple[int, ...]:
        values = self._cache.get(pins)
        if values is None:
            values = self.model.solve_unchecked(self.context, pins)
            self._cache[pins] = values
            self.stats.solves += 1
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
        if self.ext.is_flat:
            return True
        return self.ext.at_least_as_normal(self.model.signature.world(values), self._actual_world)

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

    # -- AC2 ----------------------------------------------------------------

    def ac2b(self, w_set: Sequence[int], w_setting: Mapping[int, int]):
        """Check AC2(b); return None if it holds, else the first failing (W', Z').

        `w_set` lists positions in increasing order.
        """
        actual = self.actual
        z_minus_x = [i for i in self.others if i not in w_set]
        x_pins = self._pins(zip(self.x_vars, self.x_actual))
        for w_prime in _subsets(w_set):
            base = x_pins.copy()
            for i in w_prime:
                base[i] = w_setting[i]
            relevant = self._relevant_fixpoint(base, z_minus_x)
            for z_prime in _subsets(relevant):
                pins = base.copy()
                for i in z_prime:
                    pins[i] = actual[i]
                self.stats.subset_checks += 1
                if not self.holds(self._solve(tuple(pins))):
                    return w_prime, z_prime
        return None

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

    def _measure(self, changed: Sequence[int], weights: Mapping[str, Fraction] | None):
        """The change count, or the summed weights of the changed variables."""
        if weights is None:
            return len(changed)
        return sum((weights[self.names[i]] for i in changed), Fraction(0))

    def _change_assignments(self, weights: Mapping[str, Fraction] | None):
        """(measure, C, c) triples sorted by measure, then size, then position."""
        ranges = self.model.signature.ranges
        triples = []
        for c_vars in _subsets(self.others):
            alt_values = [
                [val for val in ranges[self.names[i]] if val != self.actual[i]] for i in c_vars
            ]
            triples.append(((self._measure(c_vars, weights), len(c_vars), c_vars), alt_values))
        triples.sort(key=lambda t: t[0])
        for (measure, _, c_vars), alt_values in triples:
            for combo in itertools.product(*alt_values):
                yield measure, c_vars, combo

    def find_minimal_witnesses(
        self,
        weights: Mapping[str, Fraction] | None = None,
        existence_only: bool = False,
        record_failures: bool = False,
    ):
        """Minimal-measure admissible witnesses.

        Returns (measure, witnesses); (None, ()) when AC2 is unsatisfiable.
        Without weights the measure is the change count k.
        """
        x_alts = self._x_alternatives()
        found: list[Witness] = []
        found_measure = None
        for measure, c_vars, c in self._change_assignments(weights):
            if found_measure is not None and measure > found_measure:
                break
            for x_prime in x_alts:
                witness = self._first_witness_for(c_vars, c, x_prime, record_failures)
                if witness is not None:
                    found.append(witness)
                    found_measure = measure
                    if existence_only:
                        return found_measure, tuple(found)
                    break  # one canonical witness per change assignment
        return found_measure, tuple(found)

    def _first_witness_for(
        self,
        c_vars: tuple[int, ...],
        c: tuple[int, ...],
        x_prime: tuple[int, ...],
        record_failures: bool,
    ) -> Witness | None:
        """Smallest-W witness for a fixed change assignment, or None."""
        actual = self.actual
        base = self._pins(zip(self.x_vars, x_prime), zip(c_vars, c))
        e_candidates = [i for i in self.others if i not in c_vars]
        relevant = self._relevant_fixpoint(base, e_candidates)
        for e_sub in _subsets(relevant):
            pins = base.copy()
            for i in e_sub:
                pins[i] = actual[i]
            values = self._solve(tuple(pins))
            if self.holds(values):
                continue  # AC2(a) fails for this W
            if not self._normal(values):
                continue  # inadmissible contingency under the normality order
            w_setting = dict(zip(c_vars, c))
            for i in e_sub:
                w_setting[i] = actual[i]
            failure = self.ac2b(sorted(w_setting), w_setting)
            if failure is None:
                return Witness(*self._named_contingency(w_setting, x_prime), len(c_vars))
            if record_failures and len(self.ac2b_failures) < _AC2B_FAILURE_CAP:
                w_prime, z_prime = failure
                self.ac2b_failures.append(
                    Ac2bFailure(
                        *self._named_contingency(w_setting, x_prime),
                        w_prime=frozenset(self.names[i] for i in w_prime),
                        z_prime=frozenset(self.names[i] for i in z_prime),
                    )
                )
        return None

    def sampled_witnesses(self, options: EngineOptions, weights: Mapping[str, Fraction] | None = None):
        """Randomized witness sampling for models above the cap.

        Keeps the best sample by the measure.  Unsound: a miss does not prove
        there is no witness, and the best sample need not be minimal.  Found
        witnesses are still fully verified.
        """
        rng = random.Random(options.seed)
        ranges = self.model.signature.ranges
        x_alts = self._x_alternatives()
        if not x_alts:
            return None, ()
        best: Witness | None = None
        best_measure = None
        for _ in range(options.samples):
            w_vars = [i for i in self.others if rng.random() < 0.5]
            w_setting = {i: rng.choice(ranges[self.names[i]]) for i in w_vars}
            x_prime = rng.choice(x_alts)
            ok, _failure = self.check_witness(w_vars, w_setting, x_prime)
            if ok:
                changed = [i for i in w_vars if w_setting[i] != self.actual[i]]
                measure = self._measure(changed, weights)
                if best_measure is None or measure < best_measure:
                    best_measure = measure
                    best = Witness(*self._named_contingency(w_setting, x_prime), len(changed))
        if best is None:
            return None, ()
        return best_measure, (best,)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def check_ac1(
    model: CausalModel,
    context: Context,
    cause: CandidateCause,
    outcome: EventFormula,
) -> bool:
    """AC1: the candidate conjunction and the outcome both actually hold."""
    return _Search(ExtendedModel(model, None), context, cause, outcome, EngineStats()).ac1()


def check_ac2(
    ext: ExtendedModel,
    context: Context,
    cause: CandidateCause,
    outcome: EventFormula,
    witness: Witness,
    stats: EngineStats | None = None,
) -> bool:
    """Re-verify AC2 (both clauses plus the normality gate) for a witness."""
    if witness.w_set & cause.variables():
        raise ValueError("witness W set overlaps the candidate cause")
    if not witness.w_set <= set(witness.w_setting):
        raise ValueError("witness setting must cover its W set")
    if set(witness.x_prime) != cause.variables():
        raise ValueError("witness x' must set exactly the cause variables")
    search = _Search(ext, context, cause, outcome, stats or EngineStats())
    pins = witness.x_prime.as_dict()
    pins.update({v: witness.w_setting[v] for v in witness.w_set})
    ext.model.signature.check_intervention(pins)  # the search solves unchecked
    w_set = sorted(ext.model.signature.endogenous_index[v] for v in witness.w_set)
    ok, _ = search.check_witness(
        w_set,
        {i: witness.w_setting[search.names[i]] for i in w_set},
        tuple(witness.x_prime[search.names[i]] for i in search.x_vars),
    )
    return ok


def is_actual_cause(
    ext: ExtendedModel,
    context: Context,
    cause: CandidateCause,
    outcome: EventFormula,
    options: EngineOptions = EngineOptions(),
    stats: EngineStats | None = None,
    weights: Mapping[str, Fraction] | None = None,
) -> CauseVerdict:
    """Decide actual causation, reporting minimal-measure witnesses.

    The measure is the change count, or with `weights` (one per endogenous
    variable) the summed weights of the changed contingency variables.
    """
    search = _Search(ext, context, cause, outcome, stats or EngineStats())
    names = search.names
    if weights is not None and (missing := [v for v in names if v not in weights]):
        raise ValueError(f"missing weights for {missing}")
    over_cap = len(names) > options.max_vars
    if over_cap and not options.sampled:
        raise CapExceededError(
            f"model has {len(names)} endogenous variables, above the exact-mode cap of"
            f" {options.max_vars}; raise --max-vars or use sampled mode"
        )

    if not search.ac1():
        return CauseVerdict(False, failed_condition="AC1", sampled=over_cap)

    if over_cap:
        measure, witnesses = search.sampled_witnesses(options, weights)
    else:
        measure, witnesses = search.find_minimal_witnesses(weights, record_failures=True)
    if measure is None:
        return CauseVerdict(
            False,
            failed_condition="AC2",
            ac2b_failures=tuple(search.ac2b_failures),
            sampled=over_cap,
        )

    # AC3: a strict nonempty sub-conjunction passing AC1 and AC2 disqualifies
    # the candidate.  AC1 holds for every sub-conjunction whenever it holds
    # for the whole, so only AC2 needs searching, and the measure does not
    # matter for existence.
    for sub in cause.strict_subsets():
        sub_search = search.for_cause(sub)
        if over_cap:
            sub_measure, _ = sub_search.sampled_witnesses(options)
        else:
            sub_measure, _ = sub_search.find_minimal_witnesses(existence_only=True)
        if sub_measure is not None:
            return CauseVerdict(False, failed_condition="AC3", sampled=over_cap)

    return CauseVerdict(True, witnesses=witnesses, sampled=over_cap, measure=measure)


def ways_fraction(
    ext: ExtendedModel,
    context: Context,
    cause: CandidateCause,
    outcome: EventFormula,
    stats: EngineStats | None = None,
) -> Fraction:
    """Fraction of non-actual settings of the side variables under which the
    cause alone is critical: the outcome holds with the cause pinned at its
    actual value and fails for some alternative.

    Side variables are the endogenous variables outside the cause and outside
    the outcome; the actual setting itself is not counted as a change.
    """
    search = _Search(ext, context, cause, outcome, stats or EngineStats())
    side = [i for i in search.others if search.names[i] not in outcome.variables()]
    ranges = ext.model.signature.ranges
    combos = list(itertools.product(*(ranges[search.names[i]] for i in side)))
    combos.remove(tuple(search.actual[i] for i in side))
    if not combos:
        return Fraction(1)

    def holds_with(combo: tuple[int, ...], x: tuple[int, ...]) -> bool:
        pins = search._pins(zip(side, combo), zip(search.x_vars, x))
        return search.holds(search._solve(tuple(pins)))

    x_alts = search._x_alternatives()
    critical = sum(
        holds_with(combo, search.x_actual) and not all(holds_with(combo, x) for x in x_alts)
        for combo in combos
    )
    return Fraction(critical, len(combos))


def find_all_causes(
    ext: ExtendedModel,
    context: Context,
    outcome: EventFormula,
    max_conjuncts: int = 1,
    options: EngineOptions = EngineOptions(),
    stats: EngineStats | None = None,
) -> list[tuple[CandidateCause, CauseVerdict]]:
    """Test every true conjunction of up to max_conjuncts primitive events.

    Candidates sharing a variable with the outcome are skipped: with finite
    ranges any true event trivially certifies itself, which the sweep is not
    meant to report.
    """
    if max_conjuncts < 1:
        raise ValueError("max_conjuncts must be at least 1")
    outcome.validate(ext.model)
    world = ext.model.solve(context)
    skip = outcome.variables()
    events = [
        (v, world[v])
        for v in ext.model.signature.endogenous_names
        if v not in skip
    ]
    results: list[tuple[CandidateCause, CauseVerdict]] = []
    for r in range(1, max_conjuncts + 1):
        for combo in itertools.combinations(events, r):
            cand = CandidateCause(Assignment(dict(combo)))
            verdict = is_actual_cause(ext, context, cand, outcome, options, stats)
            results.append((cand, verdict))
    return results


def witness_world(
    ext: ExtendedModel, context: Context, cause: CandidateCause, witness: Witness
) -> World:
    """The world the witness contingency determines."""
    pins = witness.x_prime.as_dict()
    pins.update(witness.w_setting.as_dict())
    return ext.model.solve_pinned(context, pins)
