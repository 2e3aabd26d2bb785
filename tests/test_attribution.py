import json
from fractions import Fraction
from unittest import mock

import pytest

from causelab.attribution import (
    EpistemicState,
    ScoringStrategy,
    degree_of_blame,
    degree_of_responsibility,
)
from causelab.cli import corpus_dir, run_corpus_entry
from causelab.dsl import parse_model, print_model
from causelab.formula import atom
from causelab.hp import CandidateCause
from causelab.model import CausalModel, Context, Intervention, UnknownVariableError
from causelab.normality import ExtendedModel
from test_model import forest_fire


def ctx(mapping) -> Context:
    return Context(mapping)


def resp(ext, u, cause, outcome, strategy=ScoringStrategy()):
    return degree_of_responsibility(ext, u, CandidateCause.of(cause), outcome, strategy)


@pytest.fixture(scope="module")
def ff_ext():
    return ExtendedModel(forest_fire(), None)


class TestResponsibility:
    def test_landslide_vote_one_sixth(self, corpus):
        model, _ = corpus["models"]["vote11"]
        ext = ExtendedModel(model, None)
        u = ctx({f"UV{i}": 0 for i in range(1, 12)})
        for voter in ("V1", "V5", "V11"):
            assert resp(ext, u, {voter: 0}, atom("W", 0)).value == Fraction(1, 6)

    def test_narrow_vote_full_responsibility(self, corpus):
        model, _ = corpus["models"]["vote11"]
        ext = ExtendedModel(model, None)
        u = ctx({f"UV{i}": 0 for i in range(1, 7)} | {f"UV{i}": 1 for i in range(7, 12)})
        assert resp(ext, u, {"V1": 0}, atom("W", 0)).value == Fraction(1)

    def test_forest_fire_values(self, ff_ext):
        assert resp(ff_ext, ctx({"U1": 1, "U2": 1, "U3": 1}), {"L": 1}, atom("F", 1)).value == Fraction(1, 2)
        assert resp(ff_ext, ctx({"U1": 1, "U2": 1, "U3": 1}), {"ML": 1}, atom("F", 1)).value == Fraction(1, 2)
        assert resp(ff_ext, ctx({"U1": 1, "U2": 1, "U3": 2}), {"L": 1}, atom("F", 1)).value == Fraction(1)

    def test_non_cause_scores_zero(self, ff_ext):
        scored = resp(ff_ext, ctx({"U1": 1, "U2": 1, "U3": 0}), {"L": 1}, atom("F", 1))
        assert scored.value == 0 and scored.achieving_witness is None

    def test_suzy_admissibility_split(self, corpus):
        permissive, _ = corpus["models"]["suzy_blame"]
        restrictive, order = corpus["models"]["suzy_blame_restrictive"]
        u = ctx({"UB": 1, "US": 1})
        assert resp(ExtendedModel(permissive, None), u, {"ST": 1}, atom("BS", 1)).value == Fraction(1)
        assert (
            resp(ExtendedModel(restrictive, order), u, {"ST": 1}, atom("BS", 1)).value
            == Fraction(1, 2)
        )

    def test_achieving_witness_has_minimal_changes(self, ff_ext):
        scored = resp(ff_ext, ctx({"U1": 1, "U2": 1, "U3": 1}), {"L": 1}, atom("F", 1))
        assert scored.achieving_witness is not None
        assert scored.achieving_witness.changes == 1


class TestStrategies:
    def test_exponential(self, corpus):
        model, _ = corpus["models"]["vote11"]
        ext = ExtendedModel(model, None)
        u = ctx({f"UV{i}": 0 for i in range(1, 12)})
        scored = resp(ext, u, {"V1": 0}, atom("W", 0), ScoringStrategy("exponential"))
        assert scored.value == Fraction(1, 32)  # five changes

    def test_weighted_minimizes_weight_not_count(self):
        # Derived example: with ML cheap and F expensive, the minimal-weight
        # contingency for L=1 is still the single ML flip.
        ext = ExtendedModel(forest_fire(), None)
        weights = {"L": Fraction(1), "ML": Fraction(1, 3), "F": Fraction(5)}
        scored = resp(
            ext,
            ctx({"U1": 1, "U2": 1, "U3": 1}),
            {"L": 1},
            atom("F", 1),
            ScoringStrategy.weighted(weights),
        )
        assert scored.value == Fraction(1) / (1 + Fraction(1, 3))
        assert scored.value == Fraction(3, 4)

    def test_weighted_requires_full_weights(self):
        ext = ExtendedModel(forest_fire(), None)
        with pytest.raises(ValueError):
            resp(
                ext,
                ctx({"U1": 1, "U2": 1, "U3": 1}),
                {"L": 1},
                atom("F", 1),
                ScoringStrategy.weighted({"ML": Fraction(1)}),
            )

    def test_ways_fraction_vote_blocks(self, corpus):
        model, _ = corpus["models"]["vote_blocks"]
        ext = ExtendedModel(model, None)
        u = ctx({"UV1": 8, "UV2": 3})
        # Independent count over the eight non-actual settings of the other
        # block: the small block is critical at V1 in {3, 4, 5}.
        critical = [v1 for v1 in range(8) if v1 + 3 >= 6 and v1 + 0 < 6]
        assert len(critical) == 3
        ways = ScoringStrategy("ways")
        assert resp(ext, u, {"V2": 3}, atom("WIN", 1), ways).value == Fraction(3, 8)
        assert resp(ext, u, {"V1": 8}, atom("WIN", 1), ways).value == Fraction(1)

    def test_ways_fraction_zero_for_non_cause(self, ff_ext):
        scored = resp(
            ff_ext, ctx({"U1": 1, "U2": 1, "U3": 0}), {"L": 1}, atom("F", 1),
            ScoringStrategy("ways"),
        )
        assert scored.value == 0

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            ScoringStrategy("nonsense")
        with pytest.raises(ValueError):
            ScoringStrategy("weighted")
        with pytest.raises(ValueError):
            ScoringStrategy.weighted({"V": Fraction(-1)})
        with pytest.raises(ValueError, match="strategy 'reciprocal' takes no weights"):
            ScoringStrategy("reciprocal", (("V", Fraction(1)),))


class TestEpistemicState:
    def test_probabilities_must_sum_to_one(self, ff_ext):
        u = ctx({"U1": 1, "U2": 1, "U3": 1})
        with pytest.raises(ValueError):
            EpistemicState(((ff_ext, u),), (Fraction(1, 2),))
        with pytest.raises(ValueError, match="probabilities must be nonnegative"):
            EpistemicState(((ff_ext, u), (ff_ext, u)), (Fraction(3, 2), Fraction(-1, 2)))

    def test_at_least_one_situation(self):
        with pytest.raises(ValueError, match="epistemic state must contain at least one situation"):
            EpistemicState((), ())

    def test_situation_probability_pairing(self, ff_ext):
        u = ctx({"U1": 1, "U2": 1, "U3": 1})
        with pytest.raises(ValueError):
            EpistemicState(((ff_ext, u),), (Fraction(1, 2), Fraction(1, 2)))


class TestBlame:
    def test_forest_fire_half(self, ff_ext):
        state = EpistemicState(
            (
                (ff_ext, ctx({"U1": 1, "U2": 0, "U3": 1})),
                (ff_ext, ctx({"U1": 1, "U2": 1, "U3": 1})),
                (ff_ext, ctx({"U1": 1, "U2": 1, "U3": 2})),
            ),
            (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
        )
        assert degree_of_blame(state, Intervention({"ML": 1}), atom("F", 1)) == Fraction(1, 2)

    def test_firing_squad_tenth(self, corpus):
        model, _ = corpus["models"]["firing_squad"]
        ext = ExtendedModel(model, None)
        state = EpistemicState(
            tuple((ext, ctx({"UL": i})) for i in range(1, 11)),
            tuple(Fraction(1, 10) for _ in range(10)),
        )
        assert degree_of_blame(state, Intervention({"M1": 1}), atom("D", 1)) == Fraction(1, 10)

    def test_suzy_four_situations(self, corpus):
        permissive, _ = corpus["models"]["suzy_blame"]
        restrictive, order = corpus["models"]["suzy_blame_restrictive"]
        quarters = tuple(Fraction(1, 4) for _ in range(4))
        contexts = [ctx({"UB": b, "US": 1}) for b in (3, 2, 1, 0)]
        perm = EpistemicState(
            tuple((ExtendedModel(permissive, None), u) for u in contexts), quarters
        )
        restr = EpistemicState(
            tuple((ExtendedModel(restrictive, order), u) for u in contexts), quarters
        )
        action = Intervention({"ST": 1})
        assert degree_of_blame(perm, action, atom("BS", 1)) == Fraction(5, 8)
        assert degree_of_blame(restr, action, atom("BS", 1)) == Fraction(1, 2)

    def test_singleton_state_degenerates_to_responsibility(self, ff_ext):
        u = ctx({"U1": 1, "U2": 1, "U3": 1})
        state = EpistemicState(((ff_ext, u),), (Fraction(1),))
        blame = degree_of_blame(state, Intervention({"ML": 1}), atom("F", 1))
        post = ExtendedModel(ff_ext.model.intervene({"ML": 1}), ff_ext.order)
        direct = degree_of_responsibility(
            post, u, CandidateCause.of({"ML": 1}), atom("F", 1)
        )
        assert blame == direct.value == Fraction(1, 2)

    def test_unperformed_action_contributes_zero(self, ff_ext):
        # The match is not dropped in this context, so intervening cannot
        # make the agent culpable there.
        state = EpistemicState(
            ((ff_ext, ctx({"U1": 1, "U2": 0, "U3": 1})),), (Fraction(1),)
        )
        assert degree_of_blame(state, Intervention({"ML": 1}), atom("F", 1)) == 0

    def test_one_intervention_per_model(self):
        # The corpus state gives each of its ten situations its own extended
        # model over one parsed model, so blame intervenes once.
        entry = next(e for e in json.loads((corpus_dir() / "expected.json").read_text())
                     if e["id"] == "firing_squad/blame_tenth")
        with mock.patch.object(CausalModel, "intervene", autospec=True, side_effect=CausalModel.intervene) as spy:
            ok, message, result, _ = run_corpus_entry(entry, corpus_dir())
        assert ok, message
        assert result["score"] == "1/10" and spy.call_count == 1

    def test_two_models_intervene_twice_and_add_their_situations(self, corpus):
        squad, _ = corpus["models"]["firing_squad"]
        twin, _ = parse_model(print_model(squad, None))  # equal, but another object
        situations = [(ExtendedModel(m, None), ctx({"UL": i})) for m in (squad, twin) for i in (1, 2, 3)]
        probs = [Fraction(k, 21) for k in range(1, 7)]
        action, death = Intervention({"M1": 1}), atom("D", 1)
        with mock.patch.object(CausalModel, "intervene", autospec=True, side_effect=CausalModel.intervene) as spy:
            total = degree_of_blame(EpistemicState(tuple(situations), tuple(probs)), action, death)
        assert spy.call_count == 2
        alone = [degree_of_blame(EpistemicState((sit,), (Fraction(1),)), action, death) for sit in situations]
        assert total == sum(p * b for p, b in zip(probs, alone)) == Fraction(1 + 4, 21)

    def test_signature_mismatch_rejected(self, ff_ext, corpus):
        model, _ = corpus["models"]["doctors"]
        state = EpistemicState(
            ((ff_ext, ctx({"U1": 1, "U2": 1, "U3": 1})), (ExtendedModel(model, None), ctx({"UM": 1}))),
            (Fraction(1, 2), Fraction(1, 2)),
        )
        # the wrapper keeps the class, and so the category, of the error it wraps
        with pytest.raises(UnknownVariableError, match="signature mismatch across situations: cause variable"):
            degree_of_blame(state, Intervention({"ML": 1}), atom("F", 1))
