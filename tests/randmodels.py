"""Seeded random model/formula generators shared by the property suites.

Generated equation bodies are total by construction: every arithmetic node is
clamped into the target's contiguous range, and conditionals only choose
between in-range subtrees.  Trees keep arithmetic operands atomic so that the
surface printer can always render them.
"""

from __future__ import annotations

import random

from causelab.formula import AndF, Atom, EventFormula, NotF, OrF, PrimitiveEvent
from causelab.model import (
    Arith,
    Assignment,
    CausalModel,
    Cmp,
    Cond,
    Context,
    Equation,
    Expr,
    If,
    Lit,
    MinMax,
    BoolOp,
    Not,
    Signature,
    Var,
)
from causelab.normality import NormalityOrder


def _clamp(expr: Expr, lo: int, hi: int) -> Expr:
    return MinMax("min", MinMax("max", expr, Lit(lo)), Lit(hi))


def _atom_expr(rng: random.Random, parents: list[tuple[str, tuple[int, ...]]], lo: int, hi: int) -> Expr:
    if parents and rng.random() < 0.6:
        name, prange = rng.choice(parents)
        expr: Expr = Var(name)
        if prange[0] < lo or prange[-1] > hi:
            expr = _clamp(expr, lo, hi)
        return expr
    return Lit(rng.randint(lo, hi))


def _raw_atom(rng: random.Random, parents: list[tuple[str, tuple[int, ...]]]) -> Expr:
    if parents and rng.random() < 0.6:
        return Var(rng.choice(parents)[0])
    return Lit(rng.randint(0, 2))


def _cond(rng: random.Random, parents: list[tuple[str, tuple[int, ...]]], depth: int) -> Cond:
    if depth <= 0 or rng.random() < 0.5:
        return Cmp(
            rng.choice(["==", "!=", "<", "<="]),
            _raw_atom(rng, parents),
            _raw_atom(rng, parents),
        )
    if rng.random() < 0.3:
        return Not(_cond(rng, parents, depth - 1))
    op = rng.choice(["&&", "||"])
    return BoolOp(op, _cond(rng, parents, depth - 1), _cond(rng, parents, depth - 1))


def _body(rng: random.Random, parents: list[tuple[str, tuple[int, ...]]], lo: int, hi: int, depth: int) -> Expr:
    if depth <= 0 or not parents:
        return _atom_expr(rng, parents, lo, hi)
    pick = rng.random()
    if pick < 0.3:
        return If(
            _cond(rng, parents, depth - 1),
            _body(rng, parents, lo, hi, depth - 1),
            _body(rng, parents, lo, hi, depth - 1),
        )
    if pick < 0.55:
        return MinMax(
            rng.choice(["min", "max"]),
            _body(rng, parents, lo, hi, depth - 1),
            _body(rng, parents, lo, hi, depth - 1),
        )
    if pick < 0.8:
        op = rng.choice(["+", "-", "*"])
        left = _atom_expr(rng, parents, lo, hi)
        right = _atom_expr(rng, parents, lo, hi)
        return _clamp(Arith(op, left, right), lo, hi)
    return _atom_expr(rng, parents, lo, hi)


def random_model(
    rng: random.Random,
    max_endo: int = 4,
    max_exo: int = 3,
    allow_ternary: bool = False,
    name: str = "random_model",
    min_endo: int = 2,
) -> CausalModel:
    n_exo = rng.randint(1, max_exo)
    n_endo = rng.randint(min_endo, max_endo)

    def rand_range() -> tuple[int, ...]:
        if allow_ternary and rng.random() < 0.3:
            return (0, 1, 2)
        return (0, 1)

    exo = tuple((f"U{i}", rand_range()) for i in range(n_exo))
    endo = tuple((f"X{i}", rand_range()) for i in range(n_endo))
    signature = Signature(exo, endo)
    equations = []
    available = list(exo)
    for var, values in endo:
        body = _body(rng, available, values[0], values[-1], depth=2)
        equations.append(Equation(var, body))
        available.append((var, values))
    return CausalModel(signature, equations, name=name)


def random_threshold_model(rng: random.Random, name: str = "threshold") -> CausalModel:
    """Votes V1..Vn (n of 3 or 4) and an outcome O = 1 iff at least t votes are 1.

    Each vote copies its own exogenous variable or, sometimes, an earlier
    vote.  A vote is then often a cause only under a contingency of several
    flips, with several equally short ones to choose from: the cases in which
    a weighted measure and the change count pick different witnesses.
    """
    n = rng.randint(3, 4)
    exo = tuple((f"U{i}", (0, 1)) for i in range(1, n + 1))
    endo = tuple((f"V{i}", (0, 1)) for i in range(1, n + 1)) + (("O", (0, 1)),)
    equations = []
    for i in range(1, n + 1):
        source = f"V{rng.randint(1, i - 1)}" if i > 1 and rng.random() < 0.25 else f"U{i}"
        equations.append(Equation(f"V{i}", Var(source)))
    total: Expr = Var("V1")
    for i in range(2, n + 1):
        total = Arith("+", total, Var(f"V{i}"))
    threshold = rng.randint(1, n)
    equations.append(Equation("O", If(Cmp("<", total, Lit(threshold)), Lit(0), Lit(1))))
    return CausalModel(Signature(exo, endo), equations, name=name)


def random_context(rng: random.Random, model: CausalModel) -> Context:
    return Context(
        {name: rng.choice(values) for name, values in model.signature.exogenous}
    )


def random_event_formula(rng: random.Random, model: CausalModel, depth: int = 2) -> EventFormula:
    endo = model.signature.endogenous
    if depth <= 0 or rng.random() < 0.4:
        name, values = rng.choice(endo)
        return Atom(PrimitiveEvent(name, rng.choice(values)))
    pick = rng.random()
    if pick < 0.3:
        return NotF(random_event_formula(rng, model, depth - 1))
    node = AndF if pick < 0.65 else OrF
    return node(
        random_event_formula(rng, model, depth - 1),
        random_event_formula(rng, model, depth - 1),
    )


def random_pattern(rng: random.Random, model: CausalModel) -> Assignment:
    """A partial assignment to one or more endogenous variables."""
    endo = model.signature.endogenous
    chosen = rng.sample(endo, rng.randint(1, len(endo)))
    return Assignment({name: rng.choice(values) for name, values in chosen})


def random_pattern_order(
    rng: random.Random,
    model: CausalModel,
    max_pairs: int = 4,
    max_ranks: int = 3,
    allow_conflicts: bool = False,
) -> NormalityOrder:
    """Random pattern pairs, with one-sided variables wherever the two sides
    mention different variables, plus overlapping rank patterns.

    Unless conflicts are allowed, a rank pattern that shares a world with an
    earlier one takes that one's rank, and one that would need two different
    ranks is dropped, so no world is ranked twice with different ranks.
    """
    pairs = tuple(
        (random_pattern(rng, model), random_pattern(rng, model))
        for _ in range(rng.randint(0, max_pairs))
    )
    ranks: list[tuple[Assignment, int]] = []
    for _ in range(rng.randint(0, max_ranks)):
        pattern, rank = random_pattern(rng, model), rng.randint(0, 2)
        if not allow_conflicts:
            shared = {r for p, r in ranks if all(p.get(k, v) == v for k, v in pattern.items())}
            if len(shared) > 1:
                continue
            rank = shared.pop() if shared else rank
        ranks.append((pattern, rank))
    return NormalityOrder(pairs, tuple(ranks))
