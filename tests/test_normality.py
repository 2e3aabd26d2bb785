import random

import pytest

from causelab.model import Assignment, CausalModel, Equation, ModelError, Signature, Var, World
from causelab.normality import ExtendedModel, NormalityOrder, RankConflictError
from causelab.oracle import reference_normality
from randmodels import random_declarations, random_model
from test_model import forest_fire

FF = forest_fire().signature


def w(**kwargs) -> World:
    return World(kwargs)


def p(**kwargs) -> Assignment:
    return Assignment(kwargs)


def order_of(**declared) -> NormalityOrder:
    return NormalityOrder(FF, **declared)


def at_least_as_normal(order: NormalityOrder, s: World, t: World) -> bool:
    return ExtendedModel(forest_fire(), order).at_least_as_normal(s, t)


def strict_pairs(model, order) -> set[tuple[World, World]]:
    """Every (s, t) with s != t and s at least as normal as t."""
    ext = ExtendedModel(model, order)
    worlds = list(model.world_space())
    return {(s, t) for s in worlds for t in worlds if s != t and ext.at_least_as_normal(s, t)}


class TestClose:
    """The reflexive-transitive closure of what an order declares."""

    def test_empty_declarations_give_identity(self):
        order = order_of()
        a = w(L=1, ML=1, F=1)
        b = w(L=0, ML=0, F=0)
        assert at_least_as_normal(order, a, a)
        assert not at_least_as_normal(order, a, b)
        assert not at_least_as_normal(order, b, a)

    def test_transitive_chain(self):
        a, b, c = w(L=1, ML=1, F=1), w(L=1, ML=0, F=1), w(L=0, ML=0, F=0)
        order = order_of(pairs=((a, b), (b, c)))
        assert at_least_as_normal(order, a, c)
        assert not at_least_as_normal(order, c, a)

    def test_idempotent(self):
        # An order rebuilt from its own declarations is equal and answers alike.
        model = forest_fire()
        a, b = w(L=1, ML=1, F=1), w(L=0, ML=0, F=0)
        once = order_of(pairs=((a, b),))
        again = NormalityOrder(once.signature, once.pairs, once.ranks)
        assert once == again and once is not again
        for s in model.world_space():
            for t in (a, b):
                assert at_least_as_normal(once, s, t) == at_least_as_normal(again, s, t)

    def test_invalid_world_rejected(self):
        bad = World({"L": 1, "ML": 1})  # missing F
        with pytest.raises(ModelError):
            order_of(pairs=((bad, bad),))
        out_of_range = World({"L": 1, "ML": 1, "F": 9})
        with pytest.raises(ModelError):
            order_of(pairs=((out_of_range, out_of_range),))

    def test_antisymmetry_not_enforced(self):
        a, b = w(L=1, ML=1, F=1), w(L=0, ML=0, F=0)
        order = order_of(pairs=((a, b), (b, a)))
        assert at_least_as_normal(order, a, b)
        assert at_least_as_normal(order, b, a)

    def test_rank_consistency(self):
        a, b, c = w(L=1, ML=1, F=1), w(L=1, ML=0, F=1), w(L=0, ML=0, F=0)
        order = order_of(ranks=((a, 0), (b, 1), (c, 1)))
        assert at_least_as_normal(order, a, b)
        assert not at_least_as_normal(order, b, a)
        assert at_least_as_normal(order, b, c) and at_least_as_normal(order, c, b)

    def test_ranks_and_pairs_close_together(self):
        a, b, c = w(L=1, ML=1, F=1), w(L=1, ML=0, F=1), w(L=0, ML=0, F=0)
        order = order_of(pairs=((a, b),), ranks=((b, 0), (c, 5)))
        # a >= b declared, b >= c by rank, so a >= c transitively.
        assert at_least_as_normal(order, a, c)

    def test_conflicting_ranks_rejected_by_the_constructor(self):
        ranks = ((p(L=1), 0), (p(L=0, ML=1), 2), (p(ML=0), 1))
        with pytest.raises(RankConflictError, match="ranked twice") as info:
            NormalityOrder(FF, ranks=ranks)
        assert info.value.index == 2  # (ML=0, 1) shares L=1, ML=0 worlds with (L=1, 0)
        assert info.value.category == "semantic"


class TestExtendedModel:
    def test_flat_order_compares_everything(self):
        ext = ExtendedModel(forest_fire(), None)
        a, b = w(L=1, ML=1, F=1), w(L=0, ML=0, F=0)
        assert ext.at_least_as_normal(a, b) and ext.at_least_as_normal(b, a)

    def test_reflexive(self):
        model = forest_fire()
        a, b = w(L=1, ML=1, F=1), w(L=0, ML=0, F=0)
        ext = ExtendedModel(model, order_of(pairs=((a, b),)))
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
        ext = ExtendedModel(model, order_of(pairs=((a, b),)))
        carried = ExtendedModel(model.intervene({"ML": 0}), ext.order)
        assert carried.at_least_as_normal(a, b)

    def test_directly_built_order_is_kept_and_its_memo_shared(self):
        model = forest_fire()
        a, b = w(L=1, ML=1, F=1), w(L=0, ML=0, F=0)
        order = order_of(pairs=((a, b),))
        one, other = ExtendedModel(model, order), ExtendedModel(model, order)
        assert one.order is order and other.order is order
        assert one.at_least_as_normal(a, b)
        assert b in other.order._upsets  # filled through `one`

    def test_order_over_another_signature_rejected(self):
        other = CausalModel(Signature((("U", (0, 1)),), (("L", (0, 1)),)), [Equation("L", Var("U"))])
        with pytest.raises(ModelError, match="cannot carry a normality order across signatures"):
            ExtendedModel(other, order_of(ranks=((p(L=1), 0),)))


class TestPatternExpansion:
    """Which world pairs a declared pattern stands for, read off the relation."""

    def test_symmetric_patterns_agree_on_omitted(self):
        model = forest_fire()
        order = order_of(pairs=((p(L=1, ML=0), p(L=1, ML=1)),))
        # F is mentioned on neither side, so it agrees across each related pair.
        assert strict_pairs(model, order) == {
            (w(L=1, ML=0, F=f), w(L=1, ML=1, F=f)) for f in (0, 1)
        }

    def test_full_patterns_expand_to_single_pair(self):
        model = forest_fire()
        order = order_of(pairs=((p(L=1, ML=1, F=1), p(L=0, ML=0, F=0)),))
        assert strict_pairs(model, order) == {(w(L=1, ML=1, F=1), w(L=0, ML=0, F=0))}

    def test_one_sided_variable_is_free_on_the_other(self):
        model = forest_fire()
        order = order_of(pairs=((p(L=1, ML=1, F=1), p(F=0)),))
        # The right side is free over L and ML.
        assert strict_pairs(model, order) == {
            (w(L=1, ML=1, F=1), w(L=l, ML=ml, F=0)) for l in (0, 1) for ml in (0, 1)
        }

    def test_bad_pattern_rejected(self):
        with pytest.raises(ModelError):
            order_of(pairs=((p(NOPE=1), p(F=0)),))
        with pytest.raises(ModelError):
            order_of(pairs=((p(F=7), p(F=0)),))
        with pytest.raises(ModelError):
            order_of(ranks=((p(L=2), 0),))

    def test_rank_pattern_covers_every_matching_world(self):
        model = forest_fire()
        order = order_of(ranks=((p(F=0), 0), (p(F=1), 1)))
        assert strict_pairs(model, order) == {
            (s, t) for s in model.world_space() for t in model.world_space()
            if s != t and s["F"] <= t["F"]
        }

    def test_overlapping_rank_patterns_conflict_only_on_different_ranks(self):
        order_of(ranks=((p(L=1), 2), (p(ML=0), 2)))
        order_of(ranks=((p(L=1, F=1), 0), (p(L=0), 3)))
        with pytest.raises(ModelError, match="ranked twice"):
            order_of(ranks=((p(L=1), 0), (p(ML=0), 1)))

    def test_rank_step_then_pair_step(self):
        model = forest_fire()
        order = order_of(pairs=((p(L=0), p(L=1)),), ranks=((p(ML=1), 0), (p(L=0, ML=0), 1)))
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
        pairs, ranks = random_declarations(rng, model, allow_conflicts=True)
        try:
            reference = reference_normality(model, pairs, ranks)
        except ModelError:
            with pytest.raises(RankConflictError, match="ranked twice"):
                NormalityOrder(model.signature, pairs, ranks)
            rejected += 1
            continue
        order = NormalityOrder(model.signature, pairs, ranks)
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
