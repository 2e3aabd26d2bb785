"""Seeded random model/formula generators shared by the property suites.

Generated equation bodies are total by construction: every arithmetic node is
clamped into the target's contiguous range, and conditionals only choose
between in-range subtrees.  Trees keep arithmetic operands atomic so that the
surface printer can always render them.
"""

from __future__ import annotations

import itertools
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

# Lexable pieces of source text: every token class, blanks and comments.
# The lexer's property test joins them into sources; the diagnostic goldens
# put each in place of a token.
LEXER_PIECES = [
    "x", "Ab_1", "_", "model", "42", "0", "<=", "<-", "==", "!=", ">=", "&&", "||",
    "{", "}", "(", ")", "[", "]", ",", ";", ":", "=", "<", "!", "+", "-", "*", "/", "&", "|",
    " ", "  ", "\t", "\r", "\n", "# note é > ²\n", "#\n",
]


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


def random_threshold_model(rng: random.Random, name: str = "threshold", max_votes: int = 4) -> CausalModel:
    """Votes V1..Vn (n from 3 to `max_votes`) and an outcome O = 1 iff at
    least t votes are 1.

    Each vote copies its own exogenous variable or, sometimes, an earlier
    vote.  A vote is then often a cause only under a contingency of several
    flips, with several equally short ones to choose from: the cases in which
    a weighted measure and the change count pick different witnesses.
    """
    n = rng.randint(3, max_votes)
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


def random_selector_model(rng: random.Random, name: str = "selector") -> CausalModel:
    """A context decides which parent matters, as the live rifle does in the
    firing squad: an exogenous selector S picks the parent P1..Pk (k of 2 or
    3) that the outcome O follows, so under any one context the other
    parents are cut off from O once S is folded in.

    Each parent copies its own exogenous variable or, sometimes, an earlier
    parent; O is a conditional chain over S or a disjunction of
    `S == i && Pi == 1` terms.  At most 4 endogenous variables.
    """
    k = rng.randint(2, 3)
    exo = (("S", tuple(range(k))),) + tuple((f"U{i}", (0, 1)) for i in range(1, k + 1))
    parents = [f"P{i}" for i in range(1, k + 1)]
    endo = tuple((p, (0, 1)) for p in parents) + (("O", (0, 1)),)
    equations = []
    for i, p in enumerate(parents, start=1):
        source = rng.choice(parents[: i - 1]) if i > 1 and rng.random() < 0.3 else f"U{i}"
        equations.append(Equation(p, Var(source)))
    if rng.random() < 0.5:
        body: Expr = Var(parents[-1])
        for i in reversed(range(k - 1)):
            body = If(Cmp("==", Var("S"), Lit(i)), Var(parents[i]), body)
    else:
        terms = [
            BoolOp("&&", Cmp("==", Var("S"), Lit(i)), Cmp("==", Var(p), Lit(1)))
            for i, p in enumerate(parents)
        ]
        cond: Cond = terms[0]
        for term in terms[1:]:
            cond = BoolOp("||", cond, term)
        body = If(cond, Lit(1), Lit(0))
    equations.append(Equation("O", body))
    return CausalModel(Signature(exo, endo), equations, name=name)


def random_dangling_model(rng: random.Random, name: str = "dangling") -> CausalModel:
    """A random model of 2 or 3 endogenous variables plus 1 or 2 binary
    dangling ones, declared at random positions, that read the others but
    that no equation reads.  Outcomes over the first variables cannot depend on
    them, so as causes they are decided without a search."""
    core = random_model(rng, max_endo=3, max_exo=2, allow_ternary=True, name=name)
    endo = list(core.signature.endogenous)
    equations = list(core.equations.values())
    available = list(core.signature.exogenous) + endo
    for j in range(rng.randint(1, 2)):
        values = (0, 1)
        var = f"D{j}"
        equations.append(Equation(var, _body(rng, available, values[0], values[-1], depth=2)))
        endo.insert(rng.randint(0, len(endo)), (var, values))
    return CausalModel(Signature(core.signature.exogenous, tuple(endo)), equations, name=name)


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


def random_declarations(
    rng: random.Random,
    model: CausalModel,
    max_pairs: int = 4,
    max_ranks: int = 3,
    allow_conflicts: bool = False,
) -> tuple[tuple[tuple[Assignment, Assignment], ...], tuple[tuple[Assignment, int], ...]]:
    """Random pattern pairs, with one-sided variables wherever the two sides
    mention different variables, plus overlapping rank patterns, as raw
    (pairs, ranks) declarations.

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
    return pairs, tuple(ranks)


def random_pattern_order(
    rng: random.Random, model: CausalModel, max_pairs: int = 4, max_ranks: int = 3
) -> NormalityOrder:
    """A valid order over `random_declarations` without rank conflicts."""
    return NormalityOrder(model.signature, *random_declarations(rng, model, max_pairs, max_ranks))


def random_doctors_model(rng: random.Random, name: str = "doctors") -> tuple[CausalModel, NormalityOrder]:
    """The five-doctors story with n doctors (n of 2 to 4): S = 1 until some
    doctor treats, and a typicality chain per assigned doctor (nobody
    assigned or treating; i assigned and treating; i assigned, nobody
    treating; i assigned, another doctor treating).  Each declared pair is
    kept with probability 0.8, so chains are sometimes broken."""
    n = rng.randint(2, 4)
    a = [f"A{i}" for i in range(1, n + 1)]
    t = [f"T{i}" for i in range(1, n + 1)]
    exo = tuple((f"U{v}", (0, 1)) for v in a + t)
    endo = tuple((v, (0, 1)) for v in a + t) + (("S", (0, 1)),)
    equations = [Equation(v, Var(f"U{v}")) for v in a + t]
    treated: Expr = Var(t[-1])
    for v in reversed(t[:-1]):
        treated = MinMax("max", Var(v), treated)
    equations.append(Equation("S", Arith("-", Lit(1), treated)))
    zeros = {v: 0 for v in a + t}
    pairs = [
        (Assignment({**zeros, "S": 1}), Assignment({**zeros, a[i]: 1, t[i]: 1, "S": 0}))
        for i in range(n)
    ]
    pairs += [(Assignment({a[i]: 1, t[i]: 1, "S": 0}), Assignment({a[i]: 1, t[i]: 0, "S": 1})) for i in range(n)]
    pairs += [
        (Assignment({a[i]: 1, t[j]: 0, "S": 1}), Assignment({a[i]: 1, t[j]: 1, "S": 0}))
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    kept = tuple(pair for pair in pairs if rng.random() < 0.8)
    signature = Signature(exo, endo)
    return CausalModel(signature, equations, name=name), NormalityOrder(signature, pairs=kept)


def random_block_model(rng: random.Random, name: str = "block") -> tuple[CausalModel, NormalityOrder | None]:
    """A block of 3 or 4 members B1..Bn, each copying its own exogenous
    variable, and an outcome O that treats them alike: a threshold vote
    (O = 1 iff at least t members are on), a disjunctive squad (any member
    on) or a conjunctive squad (every member on), each written as a sum, a
    chain of `||` or `&&` tests, or a `max` or `min` chain, with the
    members in a random order.

    Under a context, members with equal values are interchangeable unless
    something breaks the symmetry, which each of these does now and then:
    one member ranges over {0,1,2}, one member copies another instead of
    its exogenous variable, or (in two models of five) the model carries a
    random pattern order.
    Otherwise a third of the models are flat and the rest carry an order
    that treats the members alike (every pair is declared under every
    permutation of the members).  At most 5 endogenous variables, within the oracle's
    reach.
    """
    n = rng.randint(3, 4)
    members = [f"B{i}" for i in range(1, n + 1)]
    ranges = {b: (0, 1) for b in members}
    if rng.random() < 0.25:
        ranges[rng.choice(members)] = (0, 1, 2)
    exo = tuple((f"U{i}", ranges[b]) for i, b in enumerate(members, start=1))
    endo = tuple((b, ranges[b]) for b in members) + (("O", (0, 1)),)
    sources = {b: f"U{i}" for i, b in enumerate(members, start=1)}
    if rng.random() < 0.2:
        copier, copied = rng.sample([b for b in members if ranges[b] == (0, 1)], 2)
        sources[copier] = copied
    equations = [Equation(b, Var(sources[b])) for b in members]
    shuffled = rng.sample(members, n)
    kind = rng.choice(["vote", "any", "all"])
    on = [Cmp("<", Lit(0), Var(b)) for b in shuffled]
    if kind == "vote":
        total: Expr = Var(shuffled[0])
        for b in shuffled[1:]:
            total = Arith("+", total, Var(b))
        body: Expr = If(Cmp("<", total, Lit(rng.randint(1, n))), Lit(0), Lit(1))
    elif rng.random() < 0.5:
        cond: Cond = on[0]
        for test in on[1:]:
            cond = BoolOp("||" if kind == "any" else "&&", cond, test)
        body = If(cond, Lit(1), Lit(0))
    else:
        chain: Expr = Var(shuffled[0])
        for b in shuffled[1:]:
            chain = MinMax("max" if kind == "any" else "min", chain, Var(b))
        body = MinMax("min", chain, Lit(1))
    equations.append(Equation("O", body))
    model = CausalModel(Signature(exo, endo), equations, name=name)
    pick = rng.random()
    if pick < 0.4:
        return model, random_pattern_order(rng, model)
    if pick < 0.6 or len(set(ranges.values())) > 1:
        return model, None
    pairs = set()
    for _ in range(rng.randint(1, 2)):
        left, right = random_pattern(rng, model), random_pattern(rng, model)
        for perm in itertools.permutations(members):
            rename = dict(zip(members, perm))
            pairs.add(tuple(Assignment({rename.get(v, v): x for v, x in p.items()}) for p in (left, right)))
    return model, NormalityOrder(model.signature, pairs=tuple(sorted(pairs, key=repr)))
