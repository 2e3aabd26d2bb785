import random

import pytest

from causelab.model import Assignment, Context, ModelError, World
from causelab.normality import (
    ExtendedModel,
    NormalityOrder,
    close,
)
from causelab.oracle import reference_normality
from randmodels import random_model, random_pattern_order
from test_model import forest_fire


def w(**kwargs) -> World:
    return World(kwargs)


def p(**kwargs) -> Assignment:
    return Assignment(kwargs)


def strict_pairs(model, order) -> set[tuple[World, World]]:
    """Every (s, t) with s != t and s at least as normal as t."""
    ext = ExtendedModel(model, order)
    worlds = list(model.world_space())
    return {(s, t) for s in worlds for t in worlds if s != t and ext.at_least_as_normal(s, t)}


class TestClose:
    def test_empty_declarations_give_identity(self):
        model = forest_fire()
        order = close(NormalityOrder(), model)
        a = w(L=1, ML=1, F=1)
        b = w(L=0, ML=0, F=0)
        assert order.at_least_as_normal(a, a)
        assert not order.at_least_as_normal(a, b)
        assert not order.at_least_as_normal(b, a)

    def test_transitive_chain(self):
        model = forest_fire()
        a, b, c = w(L=1, ML=1, F=1), w(L=1, ML=0, F=1), w(L=0, ML=0, F=0)
        order = close(NormalityOrder(pairs=((a, b), (b, c))), model)
        assert order.at_least_as_normal(a, c)
        assert not order.at_least_as_normal(c, a)

    def test_idempotent(self):
        model = forest_fire()
        a, b = w(L=1, ML=1, F=1), w(L=0, ML=0, F=0)
        once = close(NormalityOrder(pairs=((a, b),)), model)
        twice = close(once, model)
        assert once.pairs == twice.pairs and once.ranks == twice.ranks
        for s in model.world_space():
            for t in (a, b):
                assert once.at_least_as_normal(s, t) == twice.at_least_as_normal(s, t)

    def test_invalid_world_rejected(self):
        model = forest_fire()
        bad = World({"L": 1, "ML": 1})  # missing F
        with pytest.raises(ModelError):
            close(NormalityOrder(pairs=((bad, bad),)), model)
        out_of_range = World({"L": 1, "ML": 1, "F": 9})
        with pytest.raises(ModelError):
            close(NormalityOrder(pairs=((out_of_range, out_of_range),)), model)

    def test_antisymmetry_not_enforced(self):
        model = forest_fire()
        a, b = w(L=1, ML=1, F=1), w(L=0, ML=0, F=0)
        order = close(NormalityOrder(pairs=((a, b), (b, a))), model)
        assert order.at_least_as_normal(a, b)
        assert order.at_least_as_normal(b, a)

    def test_rank_consistency(self):
        model = forest_fire()
        a, b, c = w(L=1, ML=1, F=1), w(L=1, ML=0, F=1), w(L=0, ML=0, F=0)
        order = close(NormalityOrder(ranks=((a, 0), (b, 1), (c, 1))), model)
        assert order.at_least_as_normal(a, b)
        assert not order.at_least_as_normal(b, a)
        assert order.at_least_as_normal(b, c) and order.at_least_as_normal(c, b)

    def test_ranks_and_pairs_close_together(self):
        model = forest_fire()
        a, b, c = w(L=1, ML=1, F=1), w(L=1, ML=0, F=1), w(L=0, ML=0, F=0)
        order = close(NormalityOrder(pairs=((a, b),), ranks=((b, 0), (c, 5))), model)
        # a >= b declared, b >= c by rank, so a >= c transitively.
        assert order.at_least_as_normal(a, c)

    def test_unclosed_query_rejected(self):
        a = w(L=1, ML=1, F=1)
        with pytest.raises(ModelError):
            NormalityOrder(pairs=((a, a),)).at_least_as_normal(a, a)


class TestExtendedModel:
    def test_flat_order_compares_everything(self):
        ext = ExtendedModel(forest_fire(), None)
        a, b = w(L=1, ML=1, F=1), w(L=0, ML=0, F=0)
        assert ext.at_least_as_normal(a, b) and ext.at_least_as_normal(b, a)

    def test_reflexive(self):
        model = forest_fire()
        a, b = w(L=1, ML=1, F=1), w(L=0, ML=0, F=0)
        ext = ExtendedModel(model, NormalityOrder(pairs=((a, b),)))
        for s in model.world_space():
            assert ext.at_least_as_normal(s, s)

    def test_assassin_corner_worlds_incomparable(self, corpus):
        model, order = corpus["models"]["assassin"]
        ext = ExtendedModel(model, order)
        actual = w(A=1, B=1, VS=1)
        witness = w(A=0, B=0, VS=0)
        assert not ext.at_least_as_normal(witness, actual)
        assert not ext.at_least_as_normal(actual, witness)

    def test_five_doctors_chain(self, corpus):
        model, order = corpus["models"]["five_doctors"]
        ext = ExtendedModel(model, order)
        zeros = {f"A{i}": 0 for i in range(1, 6)}
        zeros.update({f"T{i}": 0 for i in range(1, 6)})
        nobody = World({**zeros, "S": 1})
        treats = World({**zeros, "A1": 1, "T1": 1, "S": 0})
        untreated = World({**zeros, "A1": 1, "S": 1})
        wrong_doctor = World({**zeros, "A1": 1, "T2": 1, "S": 0})
        assert ext.at_least_as_normal(nobody, treats)
        assert ext.at_least_as_normal(treats, untreated)
        assert ext.at_least_as_normal(untreated, wrong_doctor)
        assert ext.at_least_as_normal(nobody, wrong_doctor)  # transitive
        assert not ext.at_least_as_normal(wrong_doctor, untreated)

    def test_order_survives_intervention_carry(self):
        model = forest_fire()
        a, b = w(L=1, ML=1, F=1), w(L=0, ML=0, F=0)
        ext = ExtendedModel(model, NormalityOrder(pairs=((a, b),)))
        carried = ext.with_model(model.intervene({"ML": 0}))
        assert carried.at_least_as_normal(a, b)


class TestPatternExpansion:
    """Which world pairs a declared pattern stands for, read off the relation."""

    def test_symmetric_patterns_agree_on_omitted(self):
        model = forest_fire()
        order = NormalityOrder(pairs=((p(L=1, ML=0), p(L=1, ML=1)),))
        # F is mentioned on neither side, so it agrees across each related pair.
        assert strict_pairs(model, order) == {
            (w(L=1, ML=0, F=f), w(L=1, ML=1, F=f)) for f in (0, 1)
        }

    def test_full_patterns_expand_to_single_pair(self):
        model = forest_fire()
        order = NormalityOrder(pairs=((p(L=1, ML=1, F=1), p(L=0, ML=0, F=0)),))
        assert strict_pairs(model, order) == {(w(L=1, ML=1, F=1), w(L=0, ML=0, F=0))}

    def test_one_sided_variable_is_free_on_the_other(self):
        model = forest_fire()
        order = NormalityOrder(pairs=((p(L=1, ML=1, F=1), p(F=0)),))
        # The right side is free over L and ML.
        assert strict_pairs(model, order) == {
            (w(L=1, ML=1, F=1), w(L=l, ML=ml, F=0)) for l in (0, 1) for ml in (0, 1)
        }

    def test_bad_pattern_rejected(self):
        model = forest_fire()
        with pytest.raises(ModelError):
            close(NormalityOrder(pairs=((p(NOPE=1), p(F=0)),)), model)
        with pytest.raises(ModelError):
            close(NormalityOrder(pairs=((p(F=7), p(F=0)),)), model)
        with pytest.raises(ModelError):
            close(NormalityOrder(ranks=((p(L=2), 0),)), model)

    def test_rank_pattern_covers_every_matching_world(self):
        model = forest_fire()
        order = NormalityOrder(ranks=((p(F=0), 0), (p(F=1), 1)))
        assert strict_pairs(model, order) == {
            (s, t) for s in model.world_space() for t in model.world_space()
            if s != t and s["F"] <= t["F"]
        }

    def test_overlapping_rank_patterns_conflict_only_on_different_ranks(self):
        model = forest_fire()
        close(NormalityOrder(ranks=((p(L=1), 2), (p(ML=0), 2))), model)
        close(NormalityOrder(ranks=((p(L=1, F=1), 0), (p(L=0), 3))), model)
        with pytest.raises(ModelError, match="ranked twice"):
            close(NormalityOrder(ranks=((p(L=1), 0), (p(ML=0), 1))), model)

    def test_rank_step_then_pair_step(self):
        model = forest_fire()
        order = NormalityOrder(pairs=((p(L=0), p(L=1)),), ranks=((p(ML=1), 0), (p(L=0, ML=0), 1)))
        ext = ExtendedModel(model, order)
        s, x, t = w(L=1, ML=1, F=0), w(L=0, ML=0, F=1), w(L=1, ML=0, F=1)
        assert ext.at_least_as_normal(s, x)  # by rank
        assert ext.at_least_as_normal(x, t)  # by the pair, ML and F agreeing
        assert ext.at_least_as_normal(s, t)  # only through x
        assert not ext.at_least_as_normal(t, s)


def run_relation_batch(n_models: int = 90, seed: int = 31) -> tuple[int, int]:
    """The pattern search against the oracle's expanded closure, on every
    world pair of random models with random pattern orders.  Returns the
    number of orders compared and the number rejected by both sides."""
    rng = random.Random(seed)
    compared = rejected = 0
    for i in range(n_models):
        model = random_model(rng, max_endo=4, max_exo=1, allow_ternary=True, name=f"rel{i}")
        order = random_pattern_order(rng, model, allow_conflicts=True)
        try:
            reference = reference_normality(model, order)
        except ModelError:
            with pytest.raises(ModelError, match="ranked twice"):
                ExtendedModel(model, order)
            rejected += 1
            continue
        ext = ExtendedModel(model, order)
        worlds = list(model.world_space())
        for t in worlds:
            for s in worlds:
                assert ext.at_least_as_normal(s, t) == reference(s, t), (order, s, t)
        compared += 1
    return compared, rejected


def test_random_relation_batch_matches_oracle_closure():
    compared, rejected = run_relation_batch()
    assert compared >= 60 and rejected >= 5
