"""Randomized property suites; the acceptance module reruns these by name.

Each suite sweeps at least 200 seeded random small models and returns how
many checks it made (assertions fire inside on any violation).
"""

import random
from fractions import Fraction

from causelab.attribution import EpistemicState, degree_of_blame, degree_of_responsibility
from causelab.dsl import parse_model, print_model
from causelab.formula import NotF, atom, holds
from causelab.hp import CandidateCause, Witness, check_ac2, is_actual_cause
from causelab.model import Assignment, Context, Intervention
from causelab.normality import ExtendedModel, NormalityOrder
from bodyeval import evaluate
from randmodels import random_context, random_event_formula, random_model


def run_fixed_point_suite(n: int = 200, seed: int = 11) -> int:
    rng = random.Random(seed)
    checks = 0
    for i in range(n):
        model = random_model(rng, allow_ternary=True, name=f"fp{i}")
        for _ in range(2):
            context = random_context(rng, model)
            world = model.solve(context)
            env = dict(context)
            env.update(world)
            for var, eq in model.equations.items():
                assert evaluate(eq.body, env) == world[var]
                checks += 1
    return checks


def run_intervention_suite(n: int = 200, seed: int = 22) -> int:
    rng = random.Random(seed)
    checks = 0
    for i in range(n):
        model = random_model(rng, allow_ternary=True, name=f"iv{i}")
        context = random_context(rng, model)
        endo = list(model.signature.endogenous_names)
        rng.shuffle(endo)
        half = max(1, len(endo) // 2)
        a = {v: rng.choice(model.signature.ranges[v]) for v in endo[:half]}
        b = {v: rng.choice(model.signature.ranges[v]) for v in endo[half:]}
        # pinning
        world = model.intervene(a).solve(context)
        assert all(world[k] == v for k, v in a.items())
        # commutation of disjoint interventions
        if b:
            ab = model.intervene(a).intervene(b)
            ba = model.intervene(b).intervene(a)
            assert ab == ba
            assert ab.solve(context) == ba.solve(context)
        # self-consistency
        solved = model.solve(context)
        assert model.intervene(solved.as_dict()).solve(context) == solved
        checks += 1
    return checks


def run_ac1_subsumption_suite(n: int = 200, seed: int = 33) -> int:
    rng = random.Random(seed)
    checks = 0
    causes_seen = 0
    for i in range(n):
        model = random_model(rng, max_endo=4, name=f"ac1_{i}")
        ext = ExtendedModel(model, None)
        context = random_context(rng, model)
        world = model.solve(context)
        endo = model.signature.endogenous_names
        outcome_var = rng.choice(endo)
        outcome = atom(outcome_var, world[outcome_var])
        var = rng.choice([v for v in endo if v != outcome_var])
        cause = CandidateCause.of({var: world[var]})
        verdict = is_actual_cause(ext, context, cause, outcome)
        if verdict.is_cause:
            causes_seen += 1
            assert holds(model, context, cause.event_formula())
            assert holds(model, context, outcome)
        checks += 1
    assert causes_seen >= 20  # the implication must not hold vacuously
    return checks


def run_but_for_suite(n: int = 200, seed: int = 44) -> int:
    rng = random.Random(seed)
    checks = 0
    hits = 0
    for i in range(n):
        model = random_model(rng, max_endo=4, name=f"bf{i}")
        ext = ExtendedModel(model, None)
        context = random_context(rng, model)
        world = model.solve(context)
        endo = model.signature.endogenous_names
        outcome_var = rng.choice(endo)
        outcome = atom(outcome_var, world[outcome_var])
        for var in endo:
            if var == outcome_var:
                continue
            x = world[var]
            but_for = any(
                not outcome.satisfied_by(model.solve_pinned(context, {var: alt}))
                for alt in model.signature.ranges[var]
                if alt != x
            )
            checks += 1
            if but_for:
                hits += 1
                cause = CandidateCause.of({var: x})
                resp = degree_of_responsibility(ext, context, cause, outcome)
                assert resp.value == Fraction(1), (model.name, var)
                # the empty-W zero-change witness must itself verify
                flip = next(
                    alt
                    for alt in model.signature.ranges[var]
                    if alt != x
                    and not outcome.satisfied_by(model.solve_pinned(context, {var: alt}))
                )
                empty_w = Witness(
                    w_set=frozenset(),
                    w_setting=Assignment({}),
                    x_prime=Assignment({var: flip}),
                    changes=0,
                )
                assert check_ac2(ext, context, cause, outcome, empty_w)
    assert hits >= 20
    return checks


def run_flat_equivalence_suite(n: int = 200, seed: int = 55) -> int:
    rng = random.Random(seed)
    checks = 0
    for i in range(n):
        model = random_model(rng, max_endo=3, max_exo=2, name=f"flat{i}")
        worlds = list(model.world_space())
        all_pairs = tuple((s, t) for s in worlds for t in worlds if s != t)
        explicit_flat = ExtendedModel(model, NormalityOrder(model.signature, pairs=all_pairs))
        preliminary = ExtendedModel(model, None)
        context = random_context(rng, model)
        world = model.solve(context)
        endo = model.signature.endogenous_names
        outcome_var = rng.choice(endo)
        outcome = atom(outcome_var, world[outcome_var])
        for var in endo:
            if var == outcome_var:
                continue
            cause = CandidateCause.of({var: world[var]})
            a = is_actual_cause(explicit_flat, context, cause, outcome)
            b = is_actual_cause(preliminary, context, cause, outcome)
            assert a.is_cause == b.is_cause
            if a.is_cause:
                assert a.witnesses[0].changes == b.witnesses[0].changes
            checks += 1
    return checks


def run_blame_linearity_suite(n: int = 200, seed: int = 66) -> int:
    rng = random.Random(seed)
    checks = 0
    for i in range(n):
        model = random_model(rng, max_endo=3, max_exo=2, name=f"bl{i}")
        ext = ExtendedModel(model, None)
        contexts = [random_context(rng, model) for _ in range(3)]
        endo = model.signature.endogenous_names
        action_var = rng.choice(endo)
        action = Intervention({action_var: rng.choice(model.signature.ranges[action_var])})
        outcome = random_event_formula(rng, model, depth=1)
        s1 = EpistemicState(((ext, contexts[0]), (ext, contexts[1])), (Fraction(1, 2), Fraction(1, 2)))
        s2 = EpistemicState(((ext, contexts[2]),), (Fraction(1),))
        alpha = Fraction(rng.randint(1, 4), 5)
        mixed = EpistemicState(
            s1.situations + s2.situations,
            tuple(alpha * p for p in s1.probabilities)
            + tuple((1 - alpha) * p for p in s2.probabilities),
        )
        b1 = degree_of_blame(s1, action, outcome)
        b2 = degree_of_blame(s2, action, outcome)
        bm = degree_of_blame(mixed, action, outcome)
        assert bm == alpha * b1 + (1 - alpha) * b2
        assert 0 <= b1 <= 1 and 0 <= b2 <= 1 and 0 <= bm <= 1
        checks += 1
    return checks


def run_parser_roundtrip_suite(n: int = 200, seed: int = 77) -> int:
    rng = random.Random(seed)
    checks = 0
    for i in range(n):
        model = random_model(rng, allow_ternary=True, name=f"rt{i}")
        printed = print_model(model)
        reparsed, order = parse_model(printed)
        assert reparsed == model and order is None
        assert print_model(reparsed) == printed
        checks += 1
    return checks


def run_verdict_determinism_suite(n: int = 100, seed: int = 88) -> int:
    rng = random.Random(seed)
    checks = 0
    for i in range(n):
        model = random_model(rng, max_endo=4, name=f"det{i}")
        ext = ExtendedModel(model, None)
        context = random_context(rng, model)
        world = model.solve(context)
        endo = model.signature.endogenous_names
        outcome = atom(endo[-1], world[endo[-1]])
        cause = CandidateCause.of({endo[0]: world[endo[0]]})
        first = is_actual_cause(ext, context, cause, outcome)
        second = is_actual_cause(ext, context, cause, outcome)
        assert first == second
        checks += 1
    return checks


def test_solver_fixed_point():
    assert run_fixed_point_suite() >= 200


def test_intervention_pinning_and_commutation():
    assert run_intervention_suite() >= 200


def test_ac1_subsumption():
    assert run_ac1_subsumption_suite() >= 200


def test_but_for_implies_full_responsibility():
    assert run_but_for_suite() >= 200


def test_flat_order_matches_preliminary():
    assert run_flat_equivalence_suite() >= 200


def test_blame_linearity():
    assert run_blame_linearity_suite() >= 200


def test_parser_round_trip():
    assert run_parser_roundtrip_suite() >= 200


def test_verdict_determinism():
    assert run_verdict_determinism_suite() >= 100
