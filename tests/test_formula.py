import itertools
import random

import pytest

from causelab.formula import (
    AndF,
    Atom,
    CausalFormula,
    NotF,
    OrF,
    PrimitiveEvent,
    atom,
    conj,
    disj,
    holds,
    valid,
)
from causelab.model import Context, Intervention
from bodyeval import evaluate
from randmodels import random_context, random_event_formula, random_model
from test_model import forest_fire


def cf(prefix, matrix):
    return CausalFormula(Intervention(prefix), matrix)


class TestHolds:
    def test_fire_survives_match_removal(self):
        model = forest_fire()
        u = Context({"U1": 1, "U2": 1, "U3": 1})
        assert holds(model, u, cf({"ML": 0}, atom("F", 1)))

    def test_no_sources_no_fire(self):
        model = forest_fire()
        u = Context({"U1": 1, "U2": 1, "U3": 1})
        assert holds(model, u, cf({"L": 0, "ML": 0}, atom("F", 0)))

    def test_empty_prefix_is_plain_evaluation(self):
        model = forest_fire()
        for u in model.enumerate_contexts():
            world = model.solve(u)
            for value in (0, 1):
                expected = world["F"] == value
                assert holds(model, u, cf({}, atom("F", value))) == expected
                assert holds(model, u, atom("F", value)) == expected

    def test_conjunctive_mode_needs_the_match(self):
        # Derived by hand from the equations: with U3=2 the fire needs both
        # sources, so pinning ML to 0 forces F = min(L, 0) = 0.
        model = forest_fire()
        u = Context({"U1": 1, "U2": 1, "U3": 2})
        assert holds(model, u, cf({"ML": 0}, atom("F", 0)))
        assert not holds(model, u, cf({"ML": 0}, atom("F", 1)))

    def test_unknown_variable_rejected(self):
        model = forest_fire()
        u = Context({"U1": 1, "U2": 1, "U3": 1})
        with pytest.raises(ValueError):
            holds(model, u, atom("NOPE", 1))
        with pytest.raises(ValueError):
            holds(model, u, atom("F", 9))


class TestValid:
    def test_both_sources_pinned_forces_fire_everywhere(self):
        # Independent enumeration: with L and ML pinned to 1, the ignition
        # rule yields fire for U3 in {0,1,2} alike.
        expected = all(
            (1 if u3 == 0 else (max(1, 1) if u3 == 1 else min(1, 1))) == 1
            for u3 in (0, 1, 2)
        )
        assert expected is True
        model = forest_fire()
        assert valid(model, cf({"L": 1, "ML": 1}, atom("F", 1))) is True

    def test_tautology_and_contradiction(self):
        model = forest_fire()
        taut = OrF(atom("F", 0), NotF(atom("F", 0)))
        contra = AndF(atom("F", 0), NotF(atom("F", 0)))
        assert valid(model, taut)
        assert not valid(model, contra)

    def test_unpinned_fire_is_not_valid(self):
        assert not valid(forest_fire(), atom("F", 1))


class TestBooleanLaws:
    def test_de_morgan_and_double_negation(self):
        rng = random.Random(1234)
        for _ in range(200):
            model = random_model(rng)
            u = random_context(rng, model)
            f = random_event_formula(rng, model)
            g = random_event_formula(rng, model)
            world = model.solve(u)
            assert NotF(NotF(f)).satisfied_by(world) == f.satisfied_by(world)
            assert NotF(AndF(f, g)).satisfied_by(world) == OrF(NotF(f), NotF(g)).satisfied_by(world)
            assert NotF(OrF(f, g)).satisfied_by(world) == AndF(NotF(f), NotF(g)).satisfied_by(world)

    def test_negated_primitive_equals_value_disjunction(self):
        rng = random.Random(99)
        for _ in range(200):
            model = random_model(rng, allow_ternary=True)
            u = random_context(rng, model)
            world = model.solve(u)
            name, values = rng.choice(model.signature.endogenous)
            value = rng.choice(values)
            negated = NotF(atom(name, value))
            others = [atom(name, v) for v in values if v != value]
            if others:
                assert negated.satisfied_by(world) == disj(*others).satisfied_by(world)


class TestSemanticsFactoring:
    def test_against_direct_substitution(self):
        # Independent route: evaluate each equation in declaration order,
        # overriding pinned variables, without building an intervened model.
        rng = random.Random(4321)
        for _ in range(200):
            model = random_model(rng)
            u = random_context(rng, model)
            endo = model.signature.endogenous_names
            pins = {
                v: rng.choice(model.signature.ranges[v]) for v in endo if rng.random() < 0.5
            }
            matrix = random_event_formula(rng, model)
            env = dict(u)
            for var in model._topo_order:
                if var in pins:
                    env[var] = pins[var]
                else:
                    env[var] = evaluate(model.equations[var].body, env)
            expected = matrix.satisfied_by(
                type(model.solve(u))({v: env[v] for v in endo})
            )
            assert holds(model, u, cf(pins, matrix)) == expected


class TestHelpers:
    def test_conj_disj_fold_right(self):
        a, b, c = atom("F", 1), atom("L", 0), atom("ML", 1)
        assert conj(a, b, c) == AndF(a, AndF(b, c))
        assert disj(a, b, c) == OrF(a, OrF(b, c))
        with pytest.raises(ValueError):
            conj()
