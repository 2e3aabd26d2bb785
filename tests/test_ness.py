import functools
import itertools
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from causelab.dsl import parse_model, parse_query, print_model
from causelab.formula import CausalFormula, EngineStats, PrimitiveEvent, atom, valid, valid_unchecked
from causelab.hp import CandidateCause, is_actual_cause
from causelab.model import CausalModel, Context, Intervention, ModelError, RangeViolationError, UnknownVariableError
from causelab.ness import is_ness_cause
from causelab.normality import ExtendedModel
from bodyeval import references, satisfies
from randmodels import (
    random_context,
    random_event_formula,
    random_model,
    random_selector_model,
    random_threshold_model,
)


def sufficient(model, outcome, **events) -> bool:
    """A set is sufficient when, applied as an intervention, it forces the
    outcome in every context."""
    return valid(model, CausalFormula(Intervention(events), outcome))


class TestSufficiency:
    def test_single_source_suffices_in_disjunctive_model(self, corpus):
        model, _ = corpus["models"]["forest_fire_disj"]
        assert sufficient(model, atom("F", 1), L=1)

    def test_empty_set_for_contingent_outcome(self, corpus):
        model, _ = corpus["models"]["forest_fire_disj"]
        assert not sufficient(model, atom("F", 1))

    def test_poison_plus_drink_sufficient_despite_shot(self, corpus):
        model, _ = corpus["models"]["poisoned_tea"]
        assert sufficient(model, atom("PD", 1), CP=1, DR=1)

    def test_sufficiency_is_not_monotone(self, corpus):
        # Pinning an intermediate variable can break a sufficient set: the
        # thrower alone suffices, but adding his rock's actual non-hit kills it.
        model, _ = corpus["models"]["suzy_billy"]
        assert sufficient(model, atom("BS", 1), BT=1)
        assert not sufficient(model, atom("BS", 1), BT=1, BH=0)


class TestNessCause:
    def test_disjunctive_fire_single_sources(self, corpus):
        model, _ = corpus["models"]["forest_fire_disj"]
        u = Context({"U1": 1, "U2": 1})
        found = is_ness_cause(model, u, PrimitiveEvent("L", 1), atom("F", 1))
        assert found == Intervention({"L": 1})

    def test_false_event_is_never_a_cause(self, corpus):
        model, _ = corpus["models"]["forest_fire_disj"]
        u = Context({"U1": 0, "U2": 1})
        assert is_ness_cause(model, u, PrimitiveEvent("L", 1), atom("F", 1)) is None

    def test_poisoning_diverges_from_counterfactual_verdict(self, corpus):
        model, _ = corpus["models"]["poisoned_tea"]
        u = Context({"UC": 1, "UD": 1, "UR": 1})
        found = is_ness_cause(model, u, PrimitiveEvent("CP", 1), atom("PD", 1))
        assert found == Intervention({"CP": 1, "DR": 1})
        hp_verdict = is_actual_cause(
            ExtendedModel(model, None), u, CandidateCause.of({"CP": 1}), atom("PD", 1)
        )
        assert not hp_verdict.is_cause

    def test_certifying_set_implies_outcome_holds(self, corpus):
        model, _ = corpus["models"]["poisoned_tea"]
        for u in model.enumerate_contexts():
            world = model.solve(u)
            found = is_ness_cause(model, u, PrimitiveEvent("DS", world["DS"]), atom("PD", 1))
            if found is not None:
                assert world["PD"] == 1

    def test_discharge_range_sensitivity(self, corpus):
        switch, _ = corpus["models"]["discharge_switch"]
        units, _ = corpus["models"]["discharge_units"]
        injury = atom("I", 1)
        event = PrimitiveEvent("D2", 13)
        u_switch = Context({"UD1": 15, "UD2": 13})
        assert is_ness_cause(switch, u_switch, event, injury) is None
        found = is_ness_cause(units, u_switch, event, injury)
        assert found == Intervention({"D2": 13, "A1": 1})
        assert list(found.as_dict()) == ["D2", "A1"]  # the queried event first
        # and the counterfactual engine flips on the same pair of models
        assert not is_actual_cause(
            ExtendedModel(switch, None), u_switch, CandidateCause.of({"D2": 13}), injury
        ).is_cause
        assert is_actual_cause(
            ExtendedModel(units, None), u_switch, CandidateCause.of({"D2": 13}), injury
        ).is_cause


class TestNessErrors:
    """Each faulty input raises from `is_ness_cause`, which checks the
    context, the outcome and the event once, on entry."""

    U = Context({"U1": 1, "U2": 1})

    def test_event_variable_not_endogenous(self, corpus):
        model, _ = corpus["models"]["forest_fire_disj"]
        with pytest.raises(UnknownVariableError, match="event variable 'U1' is not endogenous"):
            is_ness_cause(model, self.U, PrimitiveEvent("U1", 1), atom("F", 1))

    def test_event_value_out_of_range(self, corpus):
        model, _ = corpus["models"]["forest_fire_disj"]
        with pytest.raises(RangeViolationError, match="value 2 outside the range of 'L'"):
            is_ness_cause(model, self.U, PrimitiveEvent("L", 2), atom("F", 1))

    def test_outcome_over_unknown_variable(self, corpus):
        model, _ = corpus["models"]["forest_fire_disj"]
        with pytest.raises(UnknownVariableError, match="formula variable 'NOPE' is not endogenous"):
            is_ness_cause(model, self.U, PrimitiveEvent("L", 1), atom("NOPE", 1))

    def test_context_missing_an_exogenous_variable(self, corpus):
        model, _ = corpus["models"]["forest_fire_disj"]
        with pytest.raises(ModelError, match="context is missing exogenous variable 'U2'") as info:
            is_ness_cause(model, Context({"U1": 1}), PrimitiveEvent("L", 1), atom("F", 1))
        assert info.value.category == "semantic"


# Solves per corpus `ness` query: the actual world's, then one per context
# that each checked set's pinned outcome still reads.
CORPUS_NESS_SOLVES = {
    ("forest_fire_disj", "ness L=1 of F=1 in ctx(U1=1,U2=1)"): 4,
    ("forest_fire_disj", "ness ML=1 of F=1 in ctx(U1=1,U2=1)"): 4,
    ("poisoned_tea", "ness CP=1 of PD=1 in ctx(UC=1,UD=1,UR=1)"): 7,
    ("poisoned_tea", "ness DS=1 of PD=1 in ctx(UC=1,UD=1,UR=1)"): 3,
    ("discharge_switch", "ness D2=13 of I=1 in ctx(UD1=15,UD2=13)"): 9,
    ("discharge_units", "ness D2=13 of I=1 in ctx(UD1=15,UD2=13)"): 6,
}


def test_corpus_ness_solves(corpus):
    solves = {}
    for name, text in CORPUS_NESS_SOLVES:
        model, _ = corpus["models"][name]
        query = parse_query(text)
        stats = EngineStats()
        is_ness_cause(model, Context(dict(query.context)), query.event, query.outcome, stats)
        solves[name, text] = stats.solves
    assert solves == CORPUS_NESS_SOLVES


# -- Sufficiency over the contexts the pinned outcome still reads -------------
# `valid` ranges only over the exogenous variables that the matrix reads once
# the prefix's pins are folded into the equations.  The referee is the plain
# definition: every context of the full product, each solved afresh.


def brute_valid(model, pins: dict[str, int], matrix) -> bool:
    return all(satisfies(model.solve(u, pins), matrix) for u in model.enumerate_contexts())


def brute_ness(model, context, event, outcome) -> Intervention | None:
    """`is_ness_cause`'s search, smallest set first, over brute-force sufficiency."""
    world = model.solve(context)
    if world[event.variable] != event.value:
        return None
    others = [PrimitiveEvent(v, world[v]) for v in model.signature.endogenous_names if v != event.variable]

    def brute_sufficient(events) -> bool:
        return brute_valid(model, {e.variable: e.value for e in events}, outcome)

    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            if brute_sufficient((event,) + combo) and not brute_sufficient(combo):
                return Intervention({e.variable: e.value for e in (event,) + combo})
    return None


def cut_model(rng: random.Random, i: int, name: str):
    if i % 3 == 0:
        return random_model(rng, max_endo=4, max_exo=3, allow_ternary=True, name=name)
    if i % 3 == 1:
        return random_threshold_model(rng, name=name)
    return random_selector_model(rng, name=name)


def check_cut(rng: random.Random, model) -> int:
    """Six random pin sets and outcomes against the full product, then one
    NESS query against the brute-force search; returns how many of the six
    checks range over fewer exogenous variables than the model has."""
    sig = model.signature
    names = sig.endogenous_names
    dropped = 0
    for _ in range(6):
        pins = {v: rng.choice(sig.ranges[v]) for v in names if rng.random() < 0.4}
        if rng.random() < 0.5:
            matrix = atom(names[-1], rng.choice(sig.ranges[names[-1]]))
        else:
            matrix = random_event_formula(rng, model)
        got = valid(model, CausalFormula(Intervention(pins), matrix))
        assert got == brute_valid(model, pins, matrix), (model.name, pins, matrix)
        read = set(model.reads(matrix.variables(), pins))
        dropped += any(u not in read for u in sig.exogenous_names)
    u = random_context(rng, model)
    world = model.solve(u)
    event_var = rng.choice(names[:-1])
    event = PrimitiveEvent(event_var, world[event_var])
    outcome = atom(names[-1], world[names[-1]])
    assert is_ness_cause(model, u, event, outcome) == brute_ness(model, u, event, outcome), (model.name, event)
    return dropped


def fire_model(n: int):
    """Conjunctive fire: F = min(L1, ..., Ln), each Li = Ui."""
    sources = "".join(f"exogenous U{i} : {{0,1}}; endogenous L{i} : {{0,1}} = U{i};" for i in range(1, n + 1))
    body = functools.reduce(lambda acc, i: f"min(L{i}, {acc})", range(n - 1, 0, -1), f"L{n}")
    return parse_model(f"model fire{n} {{ {sources} endogenous F : {{0,1}} = {body}; }}")[0]


def counted_valid(model, pins: dict, outcome, stats: EngineStats) -> bool:
    """`valid` of `[pins] outcome`, counting its solves in `stats`."""
    matrix = outcome.predicate(model.signature.endogenous_index)
    return valid_unchecked(model, pins, matrix, outcome.variables(), stats)


def test_a_set_failing_the_first_context_folds_nothing():
    # The first context sets every source to 0, so a set that leaves one
    # source unpinned fails there, before any equation is walked.
    model, fire = fire_model(4), atom("F", 1)
    stats = EngineStats()
    with mock.patch.object(CausalModel, "reads", side_effect=AssertionError("walked an equation")):
        assert counted_valid(model, {"L1": 1, "L3": 1}, fire, stats) is False
    assert stats.solves == 1
    # A set that passes there folds once, then ranges over what F still reads.
    stats = EngineStats()
    with mock.patch.object(CausalModel, "reads", autospec=True, side_effect=CausalModel.reads) as spy:
        assert counted_valid(model, {f"L{i}": 1 for i in range(1, 5)}, fire, stats) is True
    assert spy.call_count == 1 and stats.solves == 1
    # `F = 0` holds at the first context with one source pinned, and fails
    # only where every other source is 1: the 8th context of U2, U3, U4.
    stats = EngineStats()
    assert counted_valid(model, {"L1": 1}, atom("F", 0), stats) is False
    assert stats.solves == 8


def test_cut_batch_matches_the_full_product():
    rng = random.Random(131)
    dropped = sum(check_cut(rng, cut_model(rng, i, f"cut{i}")) for i in range(150))
    assert dropped >= 600  # of 900 checks


@settings(
    derandomize=True,
    database=None,
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rng=st.randoms(use_true_random=False), family=st.integers(0, 2))
def test_shrinking_cut_matches_the_full_product(rng, family):
    model = cut_model(rng, family, "shrink")
    note(print_model(model, None))
    check_cut(rng, model)


# -- An event whose body reads no variable ------------------------------------
# Pinning it changes nothing in any context, so `is_ness_cause` answers None
# after the actual solve.  The referee is the enumeration that runs without
# that cut: every set of other actual events, smallest first.


def enumerated_ness(model, context, event, outcome) -> Intervention | None:
    sig = model.signature
    world = model.solve_unchecked(sig.context_values(context), sig.pin_values(None))
    if world[sig.endogenous_index[event.variable]] != event.value:
        return None
    others = [(v, x) for v, x in zip(sig.endogenous_names, world) if v != event.variable]
    matrix, variables = outcome.predicate(sig.endogenous_index), outcome.variables()

    def sufficient(events) -> bool:
        return valid_unchecked(model, dict(events), matrix, variables, EngineStats())

    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            with_event = ((event.variable, event.value), *combo)
            if sufficient(with_event) and not sufficient(combo):
                return Intervention(with_event)
    return None


@pytest.mark.parametrize("i", range(1, 11))
def test_a_firing_squad_member_is_answered_after_the_actual_solve(corpus, i):
    model, _ = corpus["models"]["firing_squad"]
    query = parse_query(f"ness M{i}=1 of D=1 in ctx(UL={i})")
    context = Context(dict(query.context))
    stats = EngineStats()
    got = is_ness_cause(model, context, query.event, query.outcome, stats)
    assert stats.solves == 1
    assert got is None and enumerated_ness(model, context, query.event, query.outcome) is None


def test_events_whose_bodies_read_nothing_match_the_enumeration():
    rng = random.Random(3217)
    checked = 0
    for i in range(400):
        model = random_model(rng, max_endo=4, max_exo=2, allow_ternary=True, name=f"k{i}")
        constant = [v for v, eq in model.equations.items() if not references(eq.body)]
        if not constant:
            continue
        context = random_context(rng, model)
        world = model.solve(context)
        outcome = random_event_formula(rng, model)
        for v in constant:
            event = PrimitiveEvent(v, world[v])
            stats = EngineStats()
            assert is_ness_cause(model, context, event, outcome, stats) == enumerated_ness(model, context, event, outcome)
            assert stats.solves == 1
            checked += 1
    assert checked >= 100
