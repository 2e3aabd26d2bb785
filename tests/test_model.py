import itertools
import random

import pytest

from causelab.model import (
    Arith,
    CausalModel,
    Context,
    CycleError,
    Equation,
    If,
    Cmp,
    Intervention,
    Lit,
    MinMax,
    ModelError,
    Signature,
    TotalityError,
    Var,
    World,
)
from randmodels import random_context, random_model


def forest_fire() -> CausalModel:
    sig = Signature(
        exogenous=(("U1", (0, 1)), ("U2", (0, 1)), ("U3", (0, 1, 2))),
        endogenous=(("L", (0, 1)), ("ML", (0, 1)), ("F", (0, 1))),
    )
    eqs = [
        Equation("L", Var("U1")),
        Equation("ML", Var("U2")),
        Equation(
            "F",
            If(
                Cmp("==", Var("U3"), Lit(0)),
                Lit(1),
                If(
                    Cmp("==", Var("U3"), Lit(1)),
                    MinMax("max", Var("L"), Var("ML")),
                    MinMax("min", Var("L"), Var("ML")),
                ),
            ),
        ),
    ]
    return CausalModel(sig, eqs, name="forest_fire")


class TestSolve:
    def test_lightning_context(self):
        world = forest_fire().solve(Context({"U1": 1, "U2": 1, "U3": 1}))
        assert world.as_dict() == {"L": 1, "ML": 1, "F": 1}

    def test_conjunctive_without_match(self):
        world = forest_fire().solve(Context({"U1": 1, "U2": 0, "U3": 2}))
        assert world.as_dict() == {"L": 1, "ML": 0, "F": 0}

    def test_no_fire_source(self):
        world = forest_fire().solve(Context({"U1": 0, "U2": 0, "U3": 1}))
        assert world.as_dict() == {"L": 0, "ML": 0, "F": 0}

    def test_solve_is_pure(self):
        model = forest_fire()
        u = Context({"U1": 1, "U2": 1, "U3": 2})
        assert model.solve(u) == model.solve(u)

    def test_context_validation(self):
        with pytest.raises(ModelError):
            forest_fire().solve(Context({"U1": 1, "U2": 1}))
        with pytest.raises(ModelError):
            forest_fire().solve(Context({"U1": 1, "U2": 1, "U3": 7}))


class TestIntervene:
    def test_pins_equation_to_constant(self):
        model = forest_fire().intervene({"ML": 0})
        assert model.equations["ML"].body == Lit(0)
        world = model.solve(Context({"U1": 1, "U2": 1, "U3": 1}))
        assert world["ML"] == 0 and world["F"] == 1

    def test_empty_intervention_is_identity(self):
        model = forest_fire()
        assert model.intervene({}) == model

    def test_idempotent(self):
        model = forest_fire()
        once = model.intervene({"ML": 0})
        assert once.intervene({"ML": 0}) == once

    def test_unknown_and_out_of_range(self):
        model = forest_fire()
        with pytest.raises(ModelError):
            model.intervene({"XX": 0})
        with pytest.raises(ModelError):
            model.intervene({"ML": 9})
        with pytest.raises(ModelError):
            model.intervene({"U1": 0})  # exogenous targets are rejected


class TestEnumerateContexts:
    def test_forest_fire_has_twelve(self):
        contexts = list(forest_fire().enumerate_contexts())
        assert len(contexts) == 12
        assert len(set(contexts)) == 12
        # lexicographic by declaration order: U3 spins fastest
        assert contexts[0].as_dict() == {"U1": 0, "U2": 0, "U3": 0}
        assert contexts[1].as_dict() == {"U1": 0, "U2": 0, "U3": 1}
        assert contexts[-1].as_dict() == {"U1": 1, "U2": 1, "U3": 2}

    def test_single_binary_exogenous(self):
        sig = Signature(exogenous=(("U", (0, 1)),), endogenous=(("X", (0, 1)),))
        model = CausalModel(sig, [Equation("X", Var("U"))])
        assert [c.as_dict() for c in model.enumerate_contexts()] == [{"U": 0}, {"U": 1}]

    def test_zero_exogenous_yields_empty_context(self):
        sig = Signature(exogenous=(), endogenous=(("X", (0, 1)),))
        model = CausalModel(sig, [Equation("X", Lit(1))])
        contexts = list(model.enumerate_contexts())
        assert contexts == [Context({})]
        assert model.solve(contexts[0])["X"] == 1


class TestValidation:
    def test_cycle_detected(self):
        sig = Signature(exogenous=(("U", (0, 1)),), endogenous=(("X", (0, 1)), ("Y", (0, 1))))
        with pytest.raises(CycleError):
            CausalModel(sig, [Equation("X", Var("Y")), Equation("Y", Var("X"))])

    def test_self_reference_is_a_cycle_or_error(self):
        sig = Signature(exogenous=(("U", (0, 1)),), endogenous=(("X", (0, 1)),))
        with pytest.raises(ModelError):
            CausalModel(sig, [Equation("X", Var("X"))])

    def test_non_total_equation_rejected(self):
        sig = Signature(exogenous=(("U", (0, 1)),), endogenous=(("X", (0, 1)),))
        with pytest.raises(TotalityError):
            CausalModel(sig, [Equation("X", Arith("+", Var("U"), Lit(1)))])

    def test_unknown_reference_rejected(self):
        sig = Signature(exogenous=(("U", (0, 1)),), endogenous=(("X", (0, 1)),))
        with pytest.raises(ModelError):
            CausalModel(sig, [Equation("X", Var("Z"))])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ModelError):
            Signature(exogenous=(("U", (0, 1)),), endogenous=(("U", (0, 1)),))

    def test_empty_range_rejected(self):
        with pytest.raises(ModelError):
            Signature(exogenous=(("U", ()),), endogenous=())


class TestInvariants:
    """Spec invariants, spot-checked on the desk model and random models."""

    def _fixed_point(self, model: CausalModel, context: Context):
        world = model.solve(context)
        env = dict(context)
        env.update(world)
        for var, eq in model.equations.items():
            from causelab.model import compile_body

            assert compile_body(eq.body)(env) == world[var]

    def test_fixed_point_forest_fire(self):
        model = forest_fire()
        for context in model.enumerate_contexts():
            self._fixed_point(model, context)

    def test_intervention_pins_values(self):
        model = forest_fire()
        u = Context({"U1": 1, "U2": 1, "U3": 1})
        for iv in ({"ML": 0}, {"L": 0, "F": 0}, {"F": 1}):
            world = model.intervene(iv).solve(u)
            assert all(world[k] == v for k, v in iv.items())

    def test_disjoint_interventions_commute(self):
        model = forest_fire()
        a, b = {"L": 0}, {"ML": 1}
        assert model.intervene(a).intervene(b) == model.intervene(b).intervene(a)

    def test_self_consistency(self):
        model = forest_fire()
        for u in model.enumerate_contexts():
            world = model.solve(u)
            assert model.intervene(world.as_dict()).solve(u) == world

    def test_solve_pinned_matches_intervene_then_solve(self):
        rng = random.Random(7)
        for _ in range(50):
            model = random_model(rng)
            u = random_context(rng, model)
            endo = model.signature.endogenous_names
            pins = {
                v: rng.choice(model.signature.ranges[v])
                for v in endo
                if rng.random() < 0.4
            }
            assert model.solve_pinned(u, pins) == model.intervene(pins).solve(u)


class TestPositionalSolve:
    """The unchecked positional solve against the validated public ones."""

    @staticmethod
    def _random_pins(rng: random.Random, model: CausalModel, p: float) -> dict[str, int]:
        sig = model.signature
        return {v: rng.choice(sig.ranges[v]) for v in sig.endogenous_names if rng.random() < p}

    def test_matches_solve_pinned_and_intervene(self):
        rng = random.Random(3)
        checks = 0
        for i in range(200):
            model = random_model(rng, max_endo=5, allow_ternary=True, name=f"pos{i}")
            sig = model.signature
            endo = sig.endogenous_names
            u = random_context(rng, model)
            ctx = sig.context_values(u)
            for inner_pins in ({}, self._random_pins(rng, model, 0.3)):
                # pins applied to an intervened model stack on its own pins
                inner = model.intervene(inner_pins)
                pins = self._random_pins(rng, model, 0.4)
                values = inner.solve_unchecked(ctx, sig.pin_values(pins))
                world = inner.solve_pinned(u, pins)
                assert values == tuple(world[v] for v in endo)
                assert sig.world(values) == world
                assert world == inner.intervene(pins).solve(u)
                assert world == model.intervene({**inner_pins, **pins}).solve(u)
                checks += 1
        assert checks == 400

    def test_unpinned_solve_is_plain_solve(self):
        model = forest_fire()
        sig = model.signature
        for u in model.enumerate_contexts():
            values = model.solve_unchecked(sig.context_values(u), sig.pin_values(None))
            assert sig.world(values) == model.solve(u)

    def test_intervention_reuses_compiled_bodies(self):
        model = forest_fire()
        pinned = model.intervene({"ML": 0})
        for v, (pos, fn), (parent_pos, parent_fn) in zip(model._topo_order, pinned._steps, model._steps):
            assert pos == parent_pos
            assert (fn is parent_fn) == (v != "ML")
