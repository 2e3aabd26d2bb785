"""Unpruned brute-force reference implementations, for tests only.

These re-derive cause verdicts and responsibility scores by enumerating every
partition, every setting, and every subset pair literally, with no memoization
and no search-order shortcuts.  The normality relation is re-derived the same
way: every declared pattern is expanded over the world space and the result is
closed under reflexivity and transitivity.  They share only the model and
formula layers with the main engine, so agreement between the two is evidence
rather than tautology.

A hard guard keeps the enumeration at toy scale.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from fractions import Fraction

from .formula import CausalFormula, EventFormula, NotF, holds
from .hp import CandidateCause
from .model import CausalModel, Context, Intervention, ModelError, World
from .normality import ExtendedModel, NormalityOrder

ORACLE_MAX_VARS = 5


class OracleGuardError(RuntimeError):
    """Raised when a model is too large for literal enumeration."""


@dataclass(frozen=True)
class OracleWitness:
    w_set: frozenset[str]
    w_setting: tuple[tuple[str, int], ...]
    x_prime: tuple[tuple[str, int], ...]
    changes: int


@dataclass(frozen=True)
class OracleVerdict:
    is_cause: bool
    min_changes: int | None
    witnesses: tuple[OracleWitness, ...]
    failed_condition: str | None = None


def _matches(world: World, pattern: Mapping[str, int]) -> bool:
    return all(world[k] == v for k, v in pattern.items())


def reference_normality(
    model: CausalModel, order: NormalityOrder | None
) -> Callable[[World, World], bool]:
    """The relation s >= t of an order, built over the whole world space.

    A pair L >= R relates every world matching L to every world matching R
    that agrees with it on the variables neither side mentions; ranked worlds
    are related by rank (lower is more normal).  The reflexive-transitive
    closure is taken over bitsets indexed by world.  No order is the flat one.
    """
    if order is None:
        return lambda s, t: True
    worlds = list(model.world_space())
    index = {w: i for i, w in enumerate(worlds)}
    below = [1 << i for i in range(len(worlds))]  # bit j of below[i]: worlds[i] >= worlds[j]
    endo = model.signature.endogenous_names
    for left, right in order.pairs:
        shared = [v for v in endo if v not in left and v not in right]
        by_shared: dict[tuple[int, ...], int] = {}
        for t in worlds:
            if _matches(t, right):
                key = tuple(t[v] for v in shared)
                by_shared[key] = by_shared.get(key, 0) | 1 << index[t]
        for s in worlds:
            if _matches(s, left):
                below[index[s]] |= by_shared.get(tuple(s[v] for v in shared), 0)
    rank: dict[World, int] = {}
    for pattern, r in order.ranks:
        for w in worlds:
            if _matches(w, pattern) and rank.setdefault(w, r) != r:
                raise ModelError(f"world ranked twice with different ranks: {w!r}")
    for s, rs in rank.items():
        for t, rt in rank.items():
            if rs <= rt:
                below[index[s]] |= 1 << index[t]
    for k in range(len(worlds)):
        for i in range(len(worlds)):
            if below[i] >> k & 1:
                below[i] |= below[k]
    return lambda s, t: bool(below[index[s]] >> index[t] & 1)


def _ac1(ext: ExtendedModel, context: Context, cause: CandidateCause, outcome: EventFormula) -> bool:
    model = ext.model
    empty = Intervention()
    return holds(model, context, CausalFormula(empty, cause.event_formula())) and holds(
        model, context, CausalFormula(empty, outcome)
    )


def _all_witnesses(
    ext: ExtendedModel,
    context: Context,
    cause: CandidateCause,
    outcome: EventFormula,
    at_least_as_normal: Callable[[World, World], bool],
) -> list[OracleWitness]:
    model = ext.model
    ranges = model.signature.ranges
    endo = model.signature.endogenous_names
    x_vars = [v for v in endo if v in cause.variables()]
    rest = [v for v in endo if v not in cause.variables()]
    actual = model.solve(context)
    not_outcome = NotF(outcome)
    x_actual = {v: cause.settings[v] for v in x_vars}

    found: list[OracleWitness] = []
    for r in range(len(rest) + 1):
        for w_vars in itertools.combinations(rest, r):
            z_minus_x = [v for v in rest if v not in w_vars]
            for w_combo in itertools.product(*(ranges[v] for v in w_vars)):
                w = dict(zip(w_vars, w_combo))
                for x_combo in itertools.product(*(ranges[v] for v in x_vars)):
                    xp = dict(zip(x_vars, x_combo))
                    pins_a = Intervention({**xp, **w})
                    if not holds(model, context, CausalFormula(pins_a, not_outcome)):
                        continue
                    world = model.intervene(pins_a).solve(context)
                    if not at_least_as_normal(world, actual):
                        continue
                    ok = True
                    for wr in range(len(w_vars) + 1):
                        for w_prime in itertools.combinations(w_vars, wr):
                            for zr in range(len(z_minus_x) + 1):
                                for z_prime in itertools.combinations(z_minus_x, zr):
                                    pins_b = dict(x_actual)
                                    pins_b.update({v: w[v] for v in w_prime})
                                    pins_b.update({v: actual[v] for v in z_prime})
                                    f = CausalFormula(Intervention(pins_b), outcome)
                                    if not holds(model, context, f):
                                        ok = False
                                        break
                                if not ok:
                                    break
                            if not ok:
                                break
                        if not ok:
                            break
                    if ok:
                        changes = sum(1 for v in w_vars if w[v] != actual[v])
                        found.append(
                            OracleWitness(
                                frozenset(w_vars),
                                tuple(sorted(w.items())),
                                tuple(sorted(xp.items())),
                                changes,
                            )
                        )
    found.sort(key=lambda wt: (wt.changes, sorted(wt.w_set), wt.w_setting, wt.x_prime))
    return found


def _guard(ext: ExtendedModel, max_vars: int) -> None:
    n = len(ext.model.signature.endogenous_names)
    if n > max_vars:
        raise OracleGuardError(f"{n} endogenous variables exceed the oracle guard of {max_vars}")


def oracle_cause(
    ext: ExtendedModel,
    context: Context,
    cause: CandidateCause,
    outcome: EventFormula,
    max_vars: int = ORACLE_MAX_VARS,
) -> OracleVerdict:
    """Literal cause decision by full enumeration."""
    _guard(ext, max_vars)
    cause.validate(ext.model)
    outcome.validate(ext.model)
    if not _ac1(ext, context, cause, outcome):
        return OracleVerdict(False, None, (), "AC1")
    normal = reference_normality(ext.model, ext.order)
    witnesses = _all_witnesses(ext, context, cause, outcome, normal)
    if not witnesses:
        return OracleVerdict(False, None, (), "AC2")
    for sub in cause.strict_subsets():
        if _ac1(ext, context, sub, outcome) and _all_witnesses(ext, context, sub, outcome, normal):
            return OracleVerdict(False, None, (), "AC3")
    return OracleVerdict(True, witnesses[0].changes, tuple(witnesses))


def oracle_responsibility(
    ext: ExtendedModel,
    context: Context,
    cause: CandidateCause,
    outcome: EventFormula,
    max_vars: int = ORACLE_MAX_VARS,
) -> Fraction:
    """Literal 1/(k+1) responsibility by exhaustive minimization of k."""
    verdict = oracle_cause(ext, context, cause, outcome, max_vars)
    if not verdict.is_cause:
        return Fraction(0)
    assert verdict.min_changes is not None
    return Fraction(1, verdict.min_changes + 1)


def oracle_weighted_responsibility(
    ext: ExtendedModel,
    context: Context,
    cause: CandidateCause,
    outcome: EventFormula,
    weights: Mapping[str, Fraction],
    max_vars: int = ORACLE_MAX_VARS,
) -> Fraction:
    """Literal 1/(1 + w) responsibility, where w is the least summed weight of
    the W variables set off their actual values over every witness."""
    verdict = oracle_cause(ext, context, cause, outcome, max_vars)
    if not verdict.is_cause:
        return Fraction(0)
    actual = ext.model.solve(context)
    least = min(
        sum((weights[v] for v, x in wt.w_setting if x != actual[v]), Fraction(0))
        for wt in verdict.witnesses
    )
    return Fraction(1) / (1 + least)


def oracle_ways_fraction(
    ext: ExtendedModel,
    context: Context,
    cause: CandidateCause,
    outcome: EventFormula,
    max_vars: int = ORACLE_MAX_VARS,
) -> Fraction:
    """Literal ways fraction: over every non-actual setting of the variables
    outside the cause and the outcome, the share under which the outcome holds
    with the cause at its actual value and fails for some other cause setting.
    With no such setting the fraction is 1."""
    _guard(ext, max_vars)
    model = ext.model
    ranges = model.signature.ranges
    actual = model.solve(context)
    x_vars = sorted(cause.variables())
    side = [
        v
        for v in model.signature.endogenous_names
        if v not in cause.variables() and v not in outcome.variables()
    ]
    total = critical = 0
    for combo in itertools.product(*(ranges[v] for v in side)):
        setting = dict(zip(side, combo))
        if all(actual[v] == x for v, x in setting.items()):
            continue
        total += 1
        with_cause = Intervention({**setting, **cause.settings.as_dict()})
        if not holds(model, context, CausalFormula(with_cause, outcome)):
            continue
        for x_combo in itertools.product(*(ranges[v] for v in x_vars)):
            xp = dict(zip(x_vars, x_combo))
            if xp == cause.settings.as_dict():
                continue
            f = CausalFormula(Intervention({**setting, **xp}), NotF(outcome))
            if holds(model, context, f):
                critical += 1
                break
    return Fraction(critical, total) if total else Fraction(1)
