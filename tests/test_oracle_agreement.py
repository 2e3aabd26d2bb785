"""Engine-versus-oracle equivalence on corpus models and random batches.

The oracle enumerates the definition literally with no pruning, so agreement
here certifies that the engine's search shortcuts are lossless.
"""

import random
from fractions import Fraction

from causelab.attribution import ScoringStrategy, degree_of_responsibility
from causelab.formula import atom
from causelab.hp import CandidateCause, is_actual_cause, ways_fraction
from causelab.model import (
    Arith,
    CausalModel,
    Cmp,
    Context,
    Equation,
    If,
    Lit,
    Signature,
    Var,
)
from causelab.normality import ExtendedModel
from causelab.oracle import (
    oracle_cause,
    oracle_responsibility,
    oracle_ways_fraction,
    oracle_weighted_responsibility,
)
from randmodels import random_context, random_model, random_pattern_order, random_threshold_model

# (model name, context, fixed outcome variable) corpus probes; every
# endogenous variable other than the outcome is tried as a singleton cause
# at its actual value.
CORPUS_PROBES = [
    ("forest_fire", {"U1": 1, "U2": 1, "U3": 1}, "F"),
    ("forest_fire", {"U1": 1, "U2": 1, "U3": 2}, "F"),
    ("forest_fire", {"U1": 1, "U2": 0, "U3": 1}, "F"),
    ("forest_fire", {"U1": 1, "U2": 1, "U3": 0}, "F"),
    ("forest_fire_disj", {"U1": 1, "U2": 1}, "F"),
    ("forest_fire_disj", {"U1": 0, "U2": 1}, "F"),
    ("suzy_billy_coarse", {"US": 1, "UB": 1}, "BS"),
    ("suzy_billy", {"US": 1, "UB": 1}, "BS"),
    ("suzy_billy", {"US": 0, "UB": 1}, "BS"),
    ("doctors", {"UM": 1}, "BMC"),
    ("doctors", {"UM": 0}, "BMC"),
    ("assassin", {"UA": 1, "UB": 1}, "VS"),
    ("assassin", {"UA": 0, "UB": 1}, "VS"),
    ("poisoned_tea", {"UC": 1, "UD": 1, "UR": 1}, "PD"),
    ("poisoned_tea", {"UC": 1, "UD": 0, "UR": 1}, "PD"),
    ("discharge_switch", {"UD1": 15, "UD2": 13}, "I"),
    ("discharge_units", {"UD1": 15, "UD2": 13}, "I"),
    ("vote_blocks", {"UV1": 8, "UV2": 3}, "WIN"),
]


def agree_on(ext: ExtendedModel, context: Context, cause: CandidateCause, outcome) -> None:
    engine = is_actual_cause(ext, context, cause, outcome)
    oracle = oracle_cause(ext, context, cause, outcome)
    assert engine.is_cause == oracle.is_cause, (ext.model.name, cause, context)
    if engine.is_cause:
        assert engine.witnesses[0].changes == oracle.min_changes, (ext.model.name, cause)
    engine_resp = degree_of_responsibility(ext, context, cause, outcome).value
    assert engine_resp == oracle_responsibility(ext, context, cause, outcome)


def run_corpus_agreement(corpus) -> int:
    checked = 0
    for name, ctx, outcome_var in CORPUS_PROBES:
        model, order = corpus["models"][name]
        ext = ExtendedModel(model, order)
        context = Context(ctx)
        world = model.solve(context)
        outcome = atom(outcome_var, world[outcome_var])
        for var in model.signature.endogenous_names:
            if var == outcome_var:
                continue
            agree_on(ext, context, CandidateCause.of({var: world[var]}), outcome)
            checked += 1
    return checked


def run_random_agreement(n_models: int = 200, seed: int = 91) -> int:
    rng = random.Random(seed)
    checked = 0
    for i in range(n_models):
        model = random_model(rng, max_endo=4, max_exo=2, name=f"batch{i}")
        ext = ExtendedModel(model, None)
        context = random_context(rng, model)
        world = model.solve(context)
        endo = model.signature.endogenous_names
        outcome_var = rng.choice(endo)
        outcome = atom(outcome_var, world[outcome_var])
        candidates = [v for v in endo if v != outcome_var]
        for var in rng.sample(candidates, min(2, len(candidates))):
            agree_on(ext, context, CandidateCause.of({var: world[var]}), outcome)
            checked += 1
    return checked


def run_random_extended_agreement(n_models: int = 120, seed: int = 17) -> int:
    """Random normality orders exercise the admissibility gate on both sides."""
    from causelab.normality import NormalityOrder

    rng = random.Random(seed)
    checked = 0
    for i in range(n_models):
        model = random_model(rng, max_endo=3, max_exo=2, name=f"ext{i}")
        worlds = list(model.world_space())
        pairs = tuple(
            (rng.choice(worlds), rng.choice(worlds)) for _ in range(rng.randint(1, 6))
        )
        ranked = rng.sample(worlds, k=min(len(worlds), rng.randint(0, 3)))
        ranks = tuple((w, rng.randint(0, 2)) for w in ranked)
        ext = ExtendedModel(model, NormalityOrder(pairs=pairs, ranks=ranks))
        context = random_context(rng, model)
        world = model.solve(context)
        endo = model.signature.endogenous_names
        outcome_var = rng.choice(endo)
        outcome = atom(outcome_var, world[outcome_var])
        for var in endo:
            if var == outcome_var:
                continue
            agree_on(ext, context, CandidateCause.of({var: world[var]}), outcome)
            checked += 1
    # Pattern orders: partial and one-sided pairs chained with overlapping ranks.
    for i in range(n_models):
        model = random_model(rng, max_endo=4, max_exo=2, allow_ternary=True, name=f"patt{i}")
        ext = ExtendedModel(model, random_pattern_order(rng, model))
        context = random_context(rng, model)
        world = model.solve(context)
        endo = model.signature.endogenous_names
        outcome_var = endo[-1]
        outcome = atom(outcome_var, world[outcome_var])
        for var in endo[:-1]:
            agree_on(ext, context, CandidateCause.of({var: world[var]}), outcome)
            checked += 1
    return checked


def run_random_pair_agreement(n_models: int = 80, seed: int = 23) -> int:
    """Two-conjunct candidates drive the AC3 sub-search on both sides."""
    rng = random.Random(seed)
    checked = 0
    for i in range(n_models):
        model = random_model(rng, max_endo=4, max_exo=2, allow_ternary=True, name=f"pair{i}", min_endo=3)
        ext = ExtendedModel(model, None)
        context = random_context(rng, model)
        world = model.solve(context)
        endo = model.signature.endogenous_names
        outcome_var = endo[-1]
        outcome = atom(outcome_var, world[outcome_var])
        pool = [v for v in endo if v != outcome_var]
        pair = rng.sample(pool, 2)
        cause = CandidateCause.of({v: world[v] for v in pair})
        agree_on(ext, context, cause, outcome)
        checked += 1
    return checked


def test_corpus_models_agree(corpus):
    assert run_corpus_agreement(corpus) >= 45


def test_random_extended_batch_agrees():
    assert run_random_extended_agreement() >= 400


def test_random_pair_batch_agrees():
    assert run_random_pair_agreement() >= 70


def test_random_batch_agrees():
    assert run_random_agreement() >= 200


def test_gun_loading_subset_discrimination():
    # D fires iff A loaded the gun and B pulled the trigger, or C did both.
    # With A=1, B=0, C=1 actual, C=1 is a cause but A=1 must not be: the
    # contingency B=1, C=0 passes AC2(a) yet fails AC2(b) at W'={C}.
    sig = Signature(
        exogenous=(("UA", (0, 1)), ("UB", (0, 1)), ("UC", (0, 1))),
        endogenous=(("A", (0, 1)), ("B", (0, 1)), ("C", (0, 1)), ("D", (0, 1))),
    )
    eqs = [
        Equation("A", Var("UA")),
        Equation("B", Var("UB")),
        Equation("C", Var("UC")),
        Equation(
            "D",
            If(
                Cmp("==", Arith("+", Arith("*", Var("A"), Var("B")), Var("C")), Lit(0)),
                Lit(0),
                Lit(1),
            ),
        ),
    ]
    model = CausalModel(sig, eqs, name="gun_loading")
    ext = ExtendedModel(model, None)
    u = Context({"UA": 1, "UB": 0, "UC": 1})
    death = atom("D", 1)
    agree_on(ext, u, CandidateCause.of({"C": 1}), death)
    agree_on(ext, u, CandidateCause.of({"A": 1}), death)
    assert is_actual_cause(ext, u, CandidateCause.of({"C": 1}), death).is_cause
    verdict = is_actual_cause(ext, u, CandidateCause.of({"A": 1}), death)
    assert not verdict.is_cause and verdict.failed_condition == "AC2"
    assert any(
        f.w_prime == frozenset({"C"}) or f.z_prime == frozenset({"C"})
        for f in verdict.ac2b_failures
    )


def test_scaled_vote_oracle_value():
    # Five voters, majority of five: two other votes must flip before one
    # vote is critical, so responsibility is 1/3 by the margin arithmetic.
    sig = Signature(
        exogenous=tuple((f"U{i}", (0, 1)) for i in range(1, 6)),
        endogenous=tuple((f"V{i}", (0, 1)) for i in range(1, 6)) + (("W", (0, 1)),),
    )
    eqs = [Equation(f"V{i}", Var(f"U{i}")) for i in range(1, 6)]
    total = Var("V1")
    for i in range(2, 6):
        total = Arith("+", total, Var(f"V{i}"))
    eqs.append(Equation("W", If(Cmp("<=", total, Lit(2)), Lit(0), Lit(1))))
    model = CausalModel(sig, eqs, name="vote5")
    ext = ExtendedModel(model, None)
    u = Context({f"U{i}": 0 for i in range(1, 6)})
    cause = CandidateCause.of({"V1": 0})
    # 6 endogenous variables: raise the guard explicitly for this one probe.
    value = oracle_responsibility(ext, u, cause, atom("W", 0), max_vars=6)
    assert value == Fraction(1, 3)
    assert degree_of_responsibility(ext, u, cause, atom("W", 0)).value == value


def test_oracle_guard_trips(corpus):
    import pytest

    from causelab.oracle import OracleGuardError

    model, _ = corpus["models"]["vote11"]
    ext = ExtendedModel(model, None)
    u = Context({f"UV{i}": 0 for i in range(1, 12)})
    with pytest.raises(OracleGuardError):
        oracle_cause(ext, u, CandidateCause.of({"V1": 0}), atom("W", 0))


def agree_on_scoring(ext: ExtendedModel, context: Context, cause: CandidateCause, outcome, weights) -> None:
    """Weighted and ways scores against their literal oracle definitions."""
    oracle_weighted = oracle_weighted_responsibility(ext, context, cause, outcome, weights)
    weighted = ScoringStrategy.weighted(weights)
    engine_weighted = degree_of_responsibility(ext, context, cause, outcome, weighted).value
    assert engine_weighted == oracle_weighted, (ext.model.name, cause)
    ways = oracle_ways_fraction(ext, context, cause, outcome)
    assert ways_fraction(ext, context, cause, outcome) == ways, (ext.model.name, cause)
    # A weighted score is 0 exactly for a non-cause, which scores 0 here too.
    scored = degree_of_responsibility(ext, context, cause, outcome, ScoringStrategy.ways_fraction())
    assert scored.value == (ways if oracle_weighted else 0), (ext.model.name, cause)


def run_random_scoring_agreement(n_models: int = 140, seed: int = 41) -> int:
    """Random positive rational weights, so that the least-weight contingency
    can differ from the fewest-change one.  Threshold models supply causes
    that need contingencies; general random models add pattern orders and
    two-conjunct candidates."""
    rng = random.Random(seed)
    checked = 0
    for i in range(n_models):
        if i % 2 == 0:
            model = random_threshold_model(rng, name=f"vote{i}")
            ext = ExtendedModel(model, None)
        else:
            model = random_model(rng, max_endo=4, max_exo=2, allow_ternary=True, name=f"score{i}", min_endo=3)
            ext = ExtendedModel(model, random_pattern_order(rng, model) if i % 4 == 1 else None)
        context = random_context(rng, model)
        world = model.solve(context)
        endo = model.signature.endogenous_names
        outcome = atom(endo[-1], world[endo[-1]])
        weights = {v: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for v in endo}
        pool = endo[:-1]
        causes = [CandidateCause.of({v: world[v]}) for v in pool]
        causes.append(CandidateCause.of({v: world[v] for v in rng.sample(pool, 2)}))
        for cause in causes:
            agree_on_scoring(ext, context, cause, outcome, weights)
            checked += 1
    return checked


def test_random_scoring_batch_agrees():
    assert run_random_scoring_agreement() >= 520
