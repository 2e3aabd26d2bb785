"""Engine-versus-oracle equivalence on corpus models and random batches.

The oracle enumerates the definition literally with no pruning, so agreement
here certifies that the engine's search shortcuts are lossless.
"""

import itertools
import random
from fractions import Fraction
from unittest import mock

from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from causelab.attribution import EpistemicState, ScoringStrategy, degree_of_blame, degree_of_responsibility
from causelab.dsl import print_model
from causelab.formula import atom
from causelab.hp import (
    _AC2B_FAILURE_CAP,
    _HOLDS,
    CandidateCause,
    EngineStats,
    _Search,
    _subsets,
    check_ac2,
    is_actual_cause,
    ways_fraction,
)
from causelab.model import (
    Arith,
    CausalModel,
    Cmp,
    Context,
    Equation,
    If,
    Intervention,
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
from randmodels import (
    random_block_model,
    random_context,
    random_dangling_model,
    random_doctors_model,
    random_model,
    random_pattern_order,
    random_selector_model,
    random_threshold_model,
)

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
        ext = ExtendedModel(model, NormalityOrder(model.signature, pairs, ranks))
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
    verdict = is_actual_cause(ext, u, CandidateCause.of({"A": 1}), death, record_failures=True)
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
    scored = degree_of_responsibility(ext, context, cause, outcome, ScoringStrategy("ways"))
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


# -- Selector and dangling families ------------------------------------------
# Both make many candidates that the outcome cannot reach once the context is
# folded into the equations, which the engine decides without a search.


def agree_on_ac2b_failures(ext: ExtendedModel, context: Context, cause: CandidateCause, outcome) -> None:
    """A cut-short search reports the AC2(b) failures of the full one."""
    verdict = is_actual_cause(ext, context, cause, outcome, record_failures=True)
    with mock.patch.object(_Search, "outcome_reaches_cause", return_value=True):
        full = is_actual_cause(ext, context, cause, outcome, record_failures=True)
    assert verdict == full, (ext.model.name, cause)


def oracle_blame(state: EpistemicState, action: Intervention, outcome, weights=None) -> Fraction:
    """Expected responsibility by the literal definition, situation by situation."""
    total = Fraction(0)
    for (ext, context), prob in zip(state.situations, state.probabilities):
        if any(ext.model.solve(context)[v] != x for v, x in action.items()):
            continue
        post = ExtendedModel(ext.model.intervene(action), ext.order)
        cause = CandidateCause.of(action)
        if weights is None:
            total += prob * oracle_responsibility(post, context, cause, outcome)
        else:
            total += prob * oracle_weighted_responsibility(post, context, cause, outcome, weights)
    return total


def family_model(rng: random.Random, family: str, name: str):
    """(extended model, outcome variable) of the selector or dangling family;
    a quarter of them carry a random pattern order."""
    if family == "selector":
        model, outcome_var = random_selector_model(rng, name=name), "O"
    else:
        model = random_dangling_model(rng, name=name)
        outcome_var = rng.choice([v for v in model.signature.endogenous_names if v.startswith("X")])
    order = random_pattern_order(rng, model) if rng.random() < 0.25 else None
    return ExtendedModel(model, order), outcome_var


def check_family_model(rng: random.Random, ext: ExtendedModel, outcome_var: str) -> tuple[int, int]:
    """Cause verdicts, reciprocal and weighted responsibility and blame against
    the oracle for every singleton cause and one pair; returns (candidates
    checked, candidates the outcome cannot reach)."""
    model = ext.model
    context = random_context(rng, model)
    world = model.solve(context)
    outcome = atom(outcome_var, world[outcome_var])
    endo = model.signature.endogenous_names
    weights = {v: Fraction(rng.randint(1, 6), rng.randint(1, 3)) for v in endo}
    weighted = ScoringStrategy.weighted(weights)
    pool = [v for v in endo if v != outcome_var]
    causes = [CandidateCause.of({v: world[v]}) for v in pool]
    if len(pool) >= 2:
        causes.append(CandidateCause.of({v: world[v] for v in rng.sample(pool, 2)}))
    checked = hopeless = 0
    for cause in causes:
        agree_on(ext, context, cause, outcome)
        oracle_weighted = oracle_weighted_responsibility(ext, context, cause, outcome, weights)
        assert degree_of_responsibility(ext, context, cause, outcome, weighted).value == oracle_weighted
        if not _Search(ext, context, cause, outcome, EngineStats()).outcome_reaches_cause():
            agree_on_ac2b_failures(ext, context, cause, outcome)
            hopeless += 1
        checked += 1
    # Blame over every context that keeps the other exogenous values: for a
    # selector model, every choice of the parent that matters.
    free = model.signature.exogenous[0]
    contexts = [Context({**context.as_dict(), free[0]: value}) for value in free[1]]
    share = Fraction(1, len(contexts))
    state = EpistemicState(tuple((ext, u) for u in contexts), (share,) * len(contexts))
    var = rng.choice(pool)
    action = Intervention({var: world[var]})
    if rng.random() < 0.5:
        assert degree_of_blame(state, action, outcome) == oracle_blame(state, action, outcome)
    else:
        assert degree_of_blame(state, action, outcome, weighted) == oracle_blame(state, action, outcome, weights)
    return checked, hopeless


def run_family_agreement(family: str, n_models: int, seed: int = 53) -> tuple[int, int]:
    rng = random.Random(f"{family}:{seed}")
    checked = hopeless = 0
    for i in range(n_models):
        ext, outcome_var = family_model(rng, family, f"{family}{i}")
        c, h = check_family_model(rng, ext, outcome_var)
        checked += c
        hopeless += h
    return checked, hopeless


def test_random_selector_batch_agrees():
    checked, hopeless = run_family_agreement("selector", 60)
    assert checked >= 180 and hopeless >= 60


def test_random_dangling_batch_agrees():
    checked, hopeless = run_family_agreement("dangling", 30)
    assert checked >= 110 and hopeless >= 90


# Hypothesis drives the same generators through its own random source, so a
# disagreement shrinks to a minimal model.  Derandomized: tier-1 stays
# deterministic and writes no example database.
_SHRINKING = settings(
    derandomize=True,
    database=None,
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_SHRINKING
@given(rng=st.randoms(use_true_random=False), family=st.sampled_from(["selector", "dangling"]))
def test_shrinking_family_agreement(rng, family):
    ext, outcome_var = family_model(rng, family, family)
    note(print_model(ext.model, ext.order))
    check_family_model(rng, ext, outcome_var)


@_SHRINKING
@given(rng=st.randoms(use_true_random=False))
def test_shrinking_random_model_agreement(rng):
    model = random_model(rng, max_endo=4, max_exo=2, allow_ternary=True, name="shrink", min_endo=3)
    ext = ExtendedModel(model, random_pattern_order(rng, model) if rng.random() < 0.25 else None)
    note(print_model(model, ext.order))
    check_family_model(rng, ext, model.signature.endogenous_names[-1])


# -- Normality decided from the pins -----------------------------------------
# The engine drops alternatives, change variables and change assignments whose
# pins no world at least as normal as the actual one takes.  With every pin
# set admitted, only the solved-world gate rejects, and the verdicts of the
# three query shapes must be exactly the same.


def agree_unpruned(ext: ExtendedModel, context: Context, cause: CandidateCause, outcome, weights) -> bool:
    """Pruned and unpruned verdicts agree; returns whether pruning saved a solve."""
    pruned_stats, full_stats = EngineStats(), EngineStats()

    def verdicts(stats: EngineStats):
        return (
            is_actual_cause(ext, context, cause, outcome, stats=stats, record_failures=True),
            is_actual_cause(ext, context, cause, outcome, stats=stats, first_witness=True),
            is_actual_cause(ext, context, cause, outcome, stats=stats, weights=weights, record_failures=True),
        )

    pruned = verdicts(pruned_stats)
    with mock.patch.object(_Search, "_admits", return_value=True):
        full = verdicts(full_stats)
    assert pruned == full, (ext.model.name, cause)
    assert pruned_stats.solves <= full_stats.solves, (ext.model.name, cause)
    return pruned_stats.solves < full_stats.solves


def covers(ext: ExtendedModel, world) -> bool:
    return any(all(world[k] == v for k, v in p.items()) for p in ext.order.up_set(world))


def run_pin_pruning_agreement(n_models: int = 60, seed: int = 71) -> tuple[int, int]:
    """Pattern orders (pairs and ranks) on random and threshold models, and
    doctors-style chains; every singleton cause and one pair, for `cause`, first-witness
    and weighted queries.  Returns (candidates checked, candidates whose
    search the pins cut short)."""
    rng = random.Random(seed)
    checked = cut = 0
    for i in range(n_models):
        if i % 3 == 0:
            model, order = random_doctors_model(rng, name=f"doctors{i}")
        else:
            if i % 3 == 1:
                model = random_model(rng, max_endo=4, max_exo=2, allow_ternary=True, name=f"pins{i}", min_endo=3)
            else:
                model = random_threshold_model(rng, name=f"pins{i}")
            order = random_pattern_order(rng, model, max_pairs=5, max_ranks=4)
        outcome_var = model.signature.endogenous_names[-1]
        ext = ExtendedModel(model, order)
        if len(model.signature.endogenous) <= 4:
            assert all(covers(ext, t) for t in model.world_space()), model.name
        context = random_context(rng, model)
        world = model.solve(context)
        assert covers(ext, world), model.name
        outcome = atom(outcome_var, world[outcome_var])
        endo = model.signature.endogenous_names
        weights = {v: Fraction(rng.randint(1, 6), rng.randint(1, 3)) for v in endo}
        pool = [v for v in endo if v != outcome_var]
        causes = [CandidateCause.of({v: world[v]}) for v in pool]
        causes.append(CandidateCause.of({v: world[v] for v in rng.sample(pool, 2)}))
        for cause in causes:
            cut += agree_unpruned(ext, context, cause, outcome, weights)
            checked += 1
    return checked, cut


def test_pin_pruning_batch_agrees():
    checked, cut = run_pin_pruning_agreement()
    assert checked >= 250 and cut >= 200


# -- AC2(b) decided once per change assignment --------------------------------
# The engine decides AC2(b) once per change assignment (C, c), from the
# verdicts of its one-smaller sub-assignments, and shares the verdict across
# the E and x' of every contingency that extends it.  With the shared decision
# left undecided, the per-W' sweep decides every change assignment, and the
# three query shapes must give exactly the same verdicts.


def agree_undecided(ext: ExtendedModel, context: Context, cause: CandidateCause, outcome, weights) -> bool:
    """Shared and swept verdicts agree; returns whether the `cause` query
    searched (its outcome reaches the cause) and filled its failure report."""

    def verdicts():
        return (
            is_actual_cause(ext, context, cause, outcome, record_failures=True),
            is_actual_cause(ext, context, cause, outcome, first_witness=True),
            is_actual_cause(ext, context, cause, outcome, weights=weights, record_failures=True),
        )

    shared = verdicts()
    with mock.patch.object(_Search, "_decide_ac2b", return_value=None):
        swept = verdicts()
    assert shared == swept, (ext.model.name, cause)
    reaches = _Search(ext, context, cause, outcome, EngineStats()).outcome_reaches_cause()
    return reaches and len(shared[0].ac2b_failures) == _AC2B_FAILURE_CAP


def run_shared_ac2b_agreement(corpus, n_models: int = 60, seed: int = 83) -> tuple[int, int]:
    """The corpus probe models, then threshold models of up to 7 votes (whose
    non-causes fill the failure record), selector and pattern-order models;
    every singleton cause and one pair (every pair on corpus models), so that
    the AC3 sub-searches share the memo.  Returns (candidates checked,
    candidates that filled the failure record)."""
    rng = random.Random(seed)
    checked = filled = 0
    for name, ctx, outcome_var in CORPUS_PROBES:
        model, order = corpus["models"][name]
        ext, context = ExtendedModel(model, order), Context(ctx)
        world = model.solve(context)
        pool = [v for v in model.signature.endogenous_names if v != outcome_var]
        weights = {v: Fraction(rng.randint(1, 6), rng.randint(1, 3)) for v in model.signature.endogenous_names}
        for vs in itertools.chain(itertools.combinations(pool, 1), itertools.combinations(pool, 2)):
            cause = CandidateCause.of({v: world[v] for v in vs})
            filled += agree_undecided(ext, context, cause, atom(outcome_var, world[outcome_var]), weights)
            checked += 1
    for i in range(n_models):
        if i % 3 == 0:
            model, outcome_var, order = random_threshold_model(rng, f"shared{i}", max_votes=7), None, None
        elif i % 3 == 1:
            model, outcome_var, order = random_selector_model(rng, name=f"shared{i}"), "O", None
        else:
            model = random_model(rng, max_endo=4, max_exo=2, allow_ternary=True, name=f"shared{i}", min_endo=3)
            outcome_var, order = None, random_pattern_order(rng, model)
        endo = model.signature.endogenous_names
        outcome_var = outcome_var or endo[-1]
        ext = ExtendedModel(model, order)
        context = random_context(rng, model)
        world = model.solve(context)
        outcome = atom(outcome_var, world[outcome_var])
        weights = {v: Fraction(rng.randint(1, 6), rng.randint(1, 3)) for v in endo}
        pool = [v for v in endo if v != outcome_var]
        causes = [CandidateCause.of({v: world[v]}) for v in pool]
        causes.append(CandidateCause.of({v: world[v] for v in rng.sample(pool, 2)}))
        for cause in causes:
            filled += agree_undecided(ext, context, cause, outcome, weights)
            checked += 1
    return checked, filled


def test_shared_ac2b_batch_agrees(corpus):
    checked, filled = run_shared_ac2b_agreement(corpus)
    assert checked >= 330 and filled >= 20


def check_verdict_lemma(ext: ExtendedModel, context: Context, cause: CandidateCause, outcome) -> None:
    """For each change assignment (C, c), the sweep's verdict is the same for
    every E outside the cause and C, every witness check under any x' that
    passes AC2(a) and normality reports that verdict, and the shared
    decision returns it."""
    search = _Search(ext, context, cause, outcome, EngineStats())
    if not search.ac1():
        return
    ranges, names = ext.model.signature.ranges, search.names
    for c_vars in _subsets(search.others):
        rest = [i for i in search.others if i not in c_vars]
        offs = [[v for v in ranges[names[i]] if v != search.actual[i]] for i in c_vars]
        for c in itertools.product(*offs):
            verdicts = set()
            for e_vars in _subsets(rest):
                w_setting = dict(zip(c_vars, c)) | {i: search.actual[i] for i in e_vars}
                w_set = sorted(w_setting)
                verdict = search.ac2b(w_set, w_setting) is None
                verdicts.add(verdict)
                for x_prime in search._x_alternatives():
                    ok, failure = search.check_witness(w_set, w_setting, x_prime)
                    if ok or failure is not None:  # AC2(a) and normality passed
                        assert ok == verdict
            assert len(verdicts) == 1, (ext.model.name, cause, c_vars, c)
            key = tuple(search._pins(zip(search.x_vars, search.x_actual), zip(c_vars, c)))
            assert (search._ac2b_state(key, c_vars) == _HOLDS) == verdicts.pop(), (ext.model.name, cause, c_vars, c)


def test_verdict_lemma_on_corpus_models(corpus):
    for name, ctx, outcome_var in CORPUS_PROBES:
        model, order = corpus["models"][name]
        ext, context = ExtendedModel(model, order), Context(ctx)
        world = model.solve(context)
        outcome = atom(outcome_var, world[outcome_var])
        for var in model.signature.endogenous_names:
            if var != outcome_var:
                check_verdict_lemma(ext, context, CandidateCause.of({var: world[var]}), outcome)


@_SHRINKING
@given(rng=st.randoms(use_true_random=False))
def test_verdict_lemma_on_random_models(rng):
    model = random_model(rng, max_endo=4, max_exo=2, allow_ternary=True, name="lemma", min_endo=3)
    ext = ExtendedModel(model, random_pattern_order(rng, model) if rng.random() < 0.25 else None)
    note(print_model(model, ext.order))
    context = random_context(rng, model)
    world = model.solve(context)
    endo = model.signature.endogenous_names
    check_verdict_lemma(ext, context, CandidateCause.of({endo[0]: world[endo[0]]}), atom(endo[-1], world[endo[-1]]))


# -- Interchangeable blocks ---------------------------------------------------
# Threshold votes and disjunctive and conjunctive squads whose members the
# engine finds interchangeable under the context, with and without orders and
# weights.  Each orbit of change assignments is decided once, and its members
# get the image of that decision; an engine that finds no classes decides
# every member itself, and must give exactly the same answers.


def change_assignments(witnesses, actual) -> set:
    """The (variable, value) pairs that each witness sets off the actual world."""
    return {frozenset((v, x) for v, x in items if x != actual[v]) for items in witnesses}


def agree_on_block(ext: ExtendedModel, context: Context, cause: CandidateCause, outcome, weights) -> bool:
    """Verdicts, witnesses, failures and scores of the engine against the
    oracle and against the same engine without classes; returns whether the
    search found a class."""
    stats = EngineStats()
    verdicts = (
        is_actual_cause(ext, context, cause, outcome, stats=stats, record_failures=True),
        is_actual_cause(ext, context, cause, outcome, stats=stats, first_witness=True),
        is_actual_cause(ext, context, cause, outcome, stats=stats, weights=weights, record_failures=True),
    )
    ways = ways_fraction(ext, context, cause, outcome, stats=stats)
    direct_stats = EngineStats()
    with mock.patch.object(_Search, "_interchangeable_classes", return_value=()):
        direct = (
            is_actual_cause(ext, context, cause, outcome, stats=direct_stats, record_failures=True),
            is_actual_cause(ext, context, cause, outcome, stats=direct_stats, first_witness=True),
            is_actual_cause(ext, context, cause, outcome, stats=direct_stats, weights=weights, record_failures=True),
        )
        assert ways_fraction(ext, context, cause, outcome, stats=direct_stats) == ways, (ext.model.name, cause)
    assert verdicts == direct, (ext.model.name, cause)
    for mapped, decided in zip(verdicts, direct):
        assert [w.world for w in mapped.witnesses] == [w.world for w in decided.witnesses], (ext.model.name, cause)
    assert stats.solves <= direct_stats.solves, (ext.model.name, cause)
    assert stats.subset_checks <= direct_stats.subset_checks, (ext.model.name, cause)

    oracle = oracle_cause(ext, context, cause, outcome)
    assert verdicts[0].is_cause == oracle.is_cause, (ext.model.name, cause)
    assert ways == oracle_ways_fraction(ext, context, cause, outcome), (ext.model.name, cause)
    if oracle.is_cause:
        assert verdicts[0].measure == oracle.min_changes, (ext.model.name, cause)
        actual = ext.model.solve(context)
        minimal = [wt.w_setting for wt in oracle.witnesses if wt.changes == oracle.min_changes]
        reported = [w.w_setting.items_sorted() for w in verdicts[0].witnesses]
        assert change_assignments(reported, actual) == change_assignments(minimal, actual), (ext.model.name, cause)
        assert all(check_ac2(ext, context, cause, outcome, w.w_setting, w.x_prime) for w in verdicts[0].witnesses)
        least = min(
            sum((weights[v] for v, x in wt.w_setting if x != actual[v]), Fraction(0)) for wt in oracle.witnesses
        )
        assert verdicts[2].measure == least, (ext.model.name, cause)
    search = _Search(ext, context, cause, outcome, EngineStats())
    search._find_classes()
    return bool(search.classes)


def run_block_agreement(n_models: int, seed: int = 97) -> tuple[int, int]:
    """Every singleton cause and one pair per block model, in a context that
    mostly gives the members one value, half of them with one weight for
    every member; returns (candidates checked, candidates whose search found
    a class)."""
    rng = random.Random(seed)
    checked = symmetric = 0
    for i in range(n_models):
        model, order = random_block_model(rng, name=f"block{i}")
        ext = ExtendedModel(model, order)
        common = rng.choice((0, 1))
        context = Context(
            {u: common if rng.random() < 0.75 else rng.choice(values) for u, values in model.signature.exogenous}
        )
        world = model.solve(context)
        endo = model.signature.endogenous_names
        same = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        weights = {v: same if i % 2 and v != "O" else Fraction(rng.randint(1, 6), rng.randint(1, 3)) for v in endo}
        outcome = atom("O", world["O"])
        pool = [v for v in endo if v != "O"]
        causes = [CandidateCause.of({v: world[v]}) for v in pool]
        causes.append(CandidateCause.of({v: world[v] for v in rng.sample(pool, 2)}))
        for cause in causes:
            symmetric += agree_on_block(ext, context, cause, outcome, weights)
            checked += 1
    return checked, symmetric


def test_random_block_batch_agrees():
    checked, symmetric = run_block_agreement(50)
    assert checked >= 210 and symmetric >= 80
