import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest

from causelab.attribution import ScoringStrategy, degree_of_responsibility
from causelab.cli import load_corpus_entries
from causelab.dsl import CauseQuery, RespQuery, parse_query
from causelab.formula import CausalFormula, atom, disj, holds, valid
from causelab.hp import (
    CandidateCause,
    CapExceededError,
    CauseVerdict,
    EngineStats,
    Witness,
    _first_members,
    _Search,
    check_ac2,
    find_all_causes,
    is_actual_cause,
    ways_fraction,
    witness_world,
)
from causelab.model import (
    Arith,
    Assignment,
    CausalModel,
    Cmp,
    Context,
    Equation,
    If,
    Intervention,
    Lit,
    MinMax,
    ModelError,
    BoolOp,
    Not,
    RangeViolationError,
    Signature,
    UnknownVariableError,
    Var,
    _variables,
    canonical,
)
from causelab.normality import ExtendedModel
from bodyeval import evaluate, references
from randmodels import (
    random_context,
    random_dangling_model,
    random_model,
    random_pattern_order,
    random_selector_model,
    random_threshold_model,
)
from test_model import forest_fire
from test_symmetry import vote_n


def ext_of(model) -> ExtendedModel:
    return ExtendedModel(model, None)


def u_ff(u1, u2, u3) -> Context:
    return Context({"U1": u1, "U2": u2, "U3": u3})


def ac1(model, context, cause, outcome) -> bool:
    return _Search(ext_of(model), context, cause, outcome, EngineStats()).ac1()


class TestAc1:
    def test_lightning_and_fire_hold(self):
        assert ac1(forest_fire(), u_ff(1, 1, 1), CandidateCause.of({"L": 1}), atom("F", 1))

    def test_match_fails_when_not_dropped(self):
        assert not ac1(forest_fire(), u_ff(1, 0, 2), CandidateCause.of({"ML": 1}), atom("F", 1))

    def test_value_disagreeing_with_solution_fails(self):
        assert not ac1(forest_fire(), u_ff(1, 1, 1), CandidateCause.of({"L": 0}), atom("F", 1))


class TestCheckAc2:
    def test_forest_fire_witness(self):
        witness = Witness(
            w_set=frozenset({"ML"}),
            w_setting=Assignment({"ML": 0}),
            x_prime=Assignment({"L": 0}),
            changes=1,
        )
        ok = check_ac2(
            ext_of(forest_fire()), u_ff(1, 1, 1), CandidateCause.of({"L": 1}), atom("F", 1), witness
        )
        assert ok

    def test_suzy_billy_symmetric_witness_fails_ac2b(self, corpus):
        model, _ = corpus["models"]["suzy_billy"]
        witness = Witness(
            w_set=frozenset({"ST"}),
            w_setting=Assignment({"ST": 0}),
            x_prime=Assignment({"BT": 0}),
            changes=1,
        )
        ok = check_ac2(
            ext_of(model),
            Context({"US": 1, "UB": 1}),
            CandidateCause.of({"BT": 1}),
            atom("BS", 1),
            witness,
        )
        assert not ok

    def test_flat_order_never_blocks_normality(self):
        # Any witness admissible under a nontrivial order stays admissible
        # under the flat one; spot-check with the assassin pair.
        witness = Witness(
            w_set=frozenset({"ML"}),
            w_setting=Assignment({"ML": 1}),
            x_prime=Assignment({"L": 0}),
            changes=0,
        )
        assert check_ac2(
            ext_of(forest_fire()), u_ff(1, 1, 2), CandidateCause.of({"L": 1}), atom("F", 1), witness
        )

    def test_overlapping_witness_rejected(self):
        witness = Witness(
            w_set=frozenset({"L"}),
            w_setting=Assignment({"L": 0}),
            x_prime=Assignment({"L": 0}),
            changes=1,
        )
        with pytest.raises(ValueError):
            check_ac2(
                ext_of(forest_fire()), u_ff(1, 1, 1), CandidateCause.of({"L": 1}), atom("F", 1), witness
            )


class TestBoundaryValidation:
    """The search solves without checks, so bad input must fail at entry."""

    def _check(self, witness: Witness) -> bool:
        return check_ac2(
            ext_of(forest_fire()), u_ff(1, 1, 1), CandidateCause.of({"L": 1}), atom("F", 1), witness
        )

    def test_out_of_range_w_setting_rejected(self):
        witness = Witness(
            w_set=frozenset({"ML"}),
            w_setting=Assignment({"ML": 5}),
            x_prime=Assignment({"L": 0}),
            changes=1,
        )
        with pytest.raises(RangeViolationError, match="outside the range"):
            self._check(witness)

    def test_non_endogenous_w_variable_rejected(self):
        witness = Witness(
            w_set=frozenset({"U1"}),
            w_setting=Assignment({"U1": 0}),
            x_prime=Assignment({"L": 0}),
            changes=1,
        )
        with pytest.raises(UnknownVariableError, match="not endogenous"):
            self._check(witness)

    def test_out_of_range_x_prime_rejected(self):
        witness = Witness(
            w_set=frozenset({"ML"}),
            w_setting=Assignment({"ML": 0}),
            x_prime=Assignment({"L": 2}),
            changes=1,
        )
        with pytest.raises(RangeViolationError, match="outside the range"):
            self._check(witness)

    def test_non_endogenous_outcome_rejected(self):
        witness = Witness(
            w_set=frozenset({"ML"}),
            w_setting=Assignment({"ML": 0}),
            x_prime=Assignment({"L": 0}),
            changes=1,
        )
        with pytest.raises(UnknownVariableError, match="not endogenous"):
            check_ac2(
                ext_of(forest_fire()), u_ff(1, 1, 1), CandidateCause.of({"L": 1}), atom("U1", 1), witness
            )

    def test_out_of_range_prefix_rejected_by_holds_and_valid(self):
        formula = CausalFormula(Intervention({"ML": 3}), atom("F", 1))
        with pytest.raises(RangeViolationError, match="outside the range"):
            holds(forest_fire(), u_ff(1, 1, 1), formula)
        with pytest.raises(RangeViolationError, match="outside the range"):
            valid(forest_fire(), formula)

    def test_bad_context_rejected_by_search_entry(self):
        with pytest.raises(RangeViolationError, match="outside the range"):
            is_actual_cause(ext_of(forest_fire()), u_ff(1, 1, 7), CandidateCause.of({"L": 1}), atom("F", 1))


class TestErrorClasses:
    """The class of an input error carries its diagnostic category."""

    def _cause(self, cause, outcome, u=None, **kwargs):
        return is_actual_cause(ext_of(forest_fire()), u or u_ff(1, 1, 1), CandidateCause.of(cause), outcome, **kwargs)

    def test_non_endogenous_or_out_of_range_cause(self):
        with pytest.raises(UnknownVariableError, match="cause variable 'U1' is not endogenous"):
            self._cause({"U1": 1}, atom("F", 1))
        with pytest.raises(RangeViolationError, match="value 2 outside the range of 'L'"):
            self._cause({"L": 2}, atom("F", 1))

    def test_missing_context_variable_is_semantic(self):
        with pytest.raises(ModelError) as exc_info:
            self._cause({"L": 1}, atom("F", 1), Context({"U1": 1, "U2": 1}))
        assert exc_info.value.category == "semantic"

    def test_query_shape_errors_are_plain_value_errors(self):
        with pytest.raises(ValueError, match="missing weights") as exc_info:
            self._cause({"L": 1}, atom("F", 1), weights={"L": 1})
        assert not isinstance(exc_info.value, ModelError)
        witness = Witness(frozenset({"L"}), Assignment({"L": 0}), Assignment({"L": 0}), 1)
        with pytest.raises(ValueError, match="overlaps") as exc_info:
            check_ac2(ext_of(forest_fire()), u_ff(1, 1, 1), CandidateCause.of({"L": 1}), atom("F", 1), witness)
        assert not isinstance(exc_info.value, ModelError)


class TestIsActualCause:
    def test_forest_fire_disjunctive_both_causes(self):
        ext = ext_of(forest_fire())
        for var in ("L", "ML"):
            verdict = is_actual_cause(ext, u_ff(1, 1, 1), CandidateCause.of({var: 1}), atom("F", 1))
            assert verdict.is_cause and verdict.witnesses[0].changes == 1

    def test_suzy_preempts_billy(self, corpus):
        model, _ = corpus["models"]["suzy_billy"]
        ext = ext_of(model)
        u = Context({"US": 1, "UB": 1})
        assert is_actual_cause(ext, u, CandidateCause.of({"ST": 1}), atom("BS", 1)).is_cause
        verdict = is_actual_cause(ext, u, CandidateCause.of({"BT": 1}), atom("BS", 1))
        assert not verdict.is_cause and verdict.failed_condition == "AC2"

    def test_doctors_chain(self, corpus):
        model, _ = corpus["models"]["doctors"]
        ext = ext_of(model)
        u = Context({"UM": 1})
        alive = disj(atom("BMC", 0), atom("BMC", 1), atom("BMC", 2))
        assert is_actual_cause(ext, u, CandidateCause.of({"MT": 1}), atom("BMC", 0)).is_cause
        assert is_actual_cause(ext, u, CandidateCause.of({"MT": 1}), atom("TT", 0)).is_cause
        assert not is_actual_cause(ext, u, CandidateCause.of({"MT": 1}), alive).is_cause

    def test_assassin_normality_gate(self, corpus):
        model, order = corpus["models"]["assassin"]
        u = Context({"UA": 1, "UB": 1})
        cause = CandidateCause.of({"B": 1})
        assert not is_actual_cause(ExtendedModel(model, order), u, cause, atom("VS", 1)).is_cause
        assert is_actual_cause(ExtendedModel(model, None), u, cause, atom("VS", 1)).is_cause

    def test_five_doctors_only_assigned_omission(self, corpus):
        model, order = corpus["models"]["five_doctors"]
        ext = ExtendedModel(model, order)
        ctx = {f"UA{i}": 0 for i in range(1, 6)}
        ctx.update({f"UT{i}": 0 for i in range(1, 6)})
        ctx["UA1"] = 1
        u = Context(ctx)
        assert is_actual_cause(ext, u, CandidateCause.of({"T1": 0}), atom("S", 1)).is_cause
        for j in (2, 3, 4, 5):
            assert not is_actual_cause(ext, u, CandidateCause.of({f"T{j}": 0}), atom("S", 1)).is_cause

    def test_reported_witnesses_reverify(self, corpus):
        model, _ = corpus["models"]["vote11"]
        ext = ext_of(model)
        u = Context({f"UV{i}": 0 for i in range(1, 12)})
        cause = CandidateCause.of({"V1": 0})
        verdict = is_actual_cause(ext, u, cause, atom("W", 0))
        assert verdict.is_cause and verdict.witnesses
        assert {w.changes for w in verdict.witnesses} == {5}
        for witness in verdict.witnesses[:5]:
            assert check_ac2(ext, u, cause, atom("W", 0), witness)


class TestMultiConjunct:
    """Voter A follows B, a scanner C mirrors min(A, B), and the candidate
    wins if B votes for her or A's vote matches a reading scanner.  The pair
    A=1 and C=1 is a cause of the win even though neither conjunct alone is."""

    @staticmethod
    def scanner_vote() -> CausalModel:
        sig = Signature(
            exogenous=(("UB", (0, 1)),),
            endogenous=(("B", (0, 1)), ("A", (0, 1)), ("C", (0, 1)), ("WIN", (0, 1))),
        )
        eqs = [
            Equation("B", Var("UB")),
            Equation("A", Var("B")),
            Equation("C", MinMax("min", Var("A"), Var("B"))),
            Equation(
                "WIN",
                If(
                    BoolOp(
                        "||",
                        Cmp("==", Var("B"), Lit(1)),
                        BoolOp("&&", Cmp("==", Var("A"), Lit(1)), Cmp("==", Var("C"), Lit(1))),
                    ),
                    Lit(1),
                    Lit(0),
                ),
            ),
        ]
        return CausalModel(sig, eqs, name="scanner_vote")

    def test_pair_is_cause_but_conjuncts_are_not(self):
        ext = ext_of(self.scanner_vote())
        u = Context({"UB": 1})
        win = atom("WIN", 1)
        assert is_actual_cause(ext, u, CandidateCause.of({"A": 1, "C": 1}), win).is_cause
        for single in ({"A": 1}, {"C": 1}):
            verdict = is_actual_cause(ext, u, CandidateCause.of(single), win)
            assert not verdict.is_cause

    def test_ac3_prunes_padded_cause(self):
        # Padding a working singleton cause with an irrelevant true conjunct
        # must fail minimality.
        ext = ext_of(forest_fire())
        verdict = is_actual_cause(
            ext, u_ff(1, 1, 1), CandidateCause.of({"L": 1, "ML": 1}), atom("F", 1)
        )
        assert not verdict.is_cause and verdict.failed_condition == "AC3"


class TestFindAllCauses:
    def test_spontaneous_fire_has_no_causes(self):
        results = find_all_causes(ext_of(forest_fire()), u_ff(1, 1, 0), atom("F", 1), 2)
        assert results and not any(v.is_cause for _, v in results)

    def test_disjunctive_fire_causes(self):
        results = find_all_causes(ext_of(forest_fire()), u_ff(1, 1, 1), atom("F", 1), 1)
        causes = {tuple(c.settings.items_sorted()) for c, v in results if v.is_cause}
        assert causes == {(("L", 1),), (("ML", 1),)}

    def test_false_outcome_yields_no_causes(self):
        results = find_all_causes(ext_of(forest_fire()), u_ff(0, 0, 1), atom("F", 1), 2)
        assert not any(v.is_cause for _, v in results)

    def test_rejects_silly_bounds(self):
        with pytest.raises(ValueError):
            find_all_causes(ext_of(forest_fire()), u_ff(1, 1, 1), atom("F", 1), 0)

    def test_checks_the_context_before_the_outcome(self):
        # As every other entry does: a bad context is reported over a bad outcome.
        with pytest.raises(RangeViolationError, match="value 7 outside the range of 'U3'"):
            find_all_causes(ext_of(forest_fire()), u_ff(1, 1, 7), atom("U1", 1))
        with pytest.raises(UnknownVariableError, match="not endogenous"):
            find_all_causes(ext_of(forest_fire()), u_ff(1, 1, 1), atom("U1", 1))

    def test_solves_the_actual_world_once(self, monkeypatch):
        # The candidates come from the search's own actual world: no second
        # solve of it through the checked entry.
        def no_solve(self, context):
            raise AssertionError("the actual world solved apart from the search")

        monkeypatch.setattr(CausalModel, "solve", no_solve)
        results = find_all_causes(ext_of(forest_fire()), u_ff(1, 1, 1), atom("F", 1), 2)
        assert [c.settings.as_dict() for c, v in results if v.is_cause] == [{"L": 1}, {"ML": 1}]

    def test_candidates_share_one_search(self):
        # Seven voters, four for G: each of the four is a cause of G's win
        # and no pair is.  One search serves every candidate, so verdicts are
        # those of separate queries and the shared memos save solves.
        votes = [1, 1, 0, 1, 0, 1, 0]
        model = CausalModel(
            Signature(
                exogenous=tuple((f"U{i}", (0, 1)) for i in range(1, 8)),
                endogenous=tuple((f"V{i}", (0, 1)) for i in range(1, 8)) + (("W", (0, 1)),),
            ),
            [Equation(f"V{i}", Var(f"U{i}")) for i in range(1, 8)]
            + [Equation("W", If(Cmp("<=", _sum([Var(f"V{i}") for i in range(1, 8)]), Lit(3)), Lit(0), Lit(1)))],
            name="vote7",
        )
        ext, u, outcome = ext_of(model), Context({f"U{i}": v for i, v in enumerate(votes, 1)}), atom("W", 1)
        shared = EngineStats()
        results = find_all_causes(ext, u, outcome, 2, stats=shared)
        separate = EngineStats()
        for cause, verdict in results:
            assert is_actual_cause(ext, u, cause, outcome, stats=separate) == verdict, cause
        assert [c.settings.as_dict() for c, v in results if v.is_cause] == [{"V1": 1}, {"V2": 1}, {"V4": 1}, {"V6": 1}]
        assert shared.solves < separate.solves


def _sum(terms):
    total = terms[0]
    for term in terms[1:]:
        total = Arith("+", total, term)
    return total


class TestCap:
    def test_exact_mode_raises_above_cap(self, corpus):
        model, _ = corpus["models"]["vote11"]
        u = Context({f"UV{i}": 0 for i in range(1, 12)})
        with pytest.raises(CapExceededError):
            is_actual_cause(
                ext_of(model),
                u,
                CandidateCause.of({"V1": 0}),
                atom("W", 0),
                max_vars=5,
            )

    def test_ways_resp_raises_above_cap_after_the_actual_world(self, corpus):
        # Only the actual world is solved: above the cap, `ways` no longer
        # counts over the settings of the side variables.
        model, _ = corpus["models"]["vote11"]
        u = Context({f"UV{i}": 0 for i in range(1, 7)} | {f"UV{i}": 1 for i in range(7, 12)})
        stats = EngineStats()
        with pytest.raises(CapExceededError):
            degree_of_responsibility(
                ext_of(model), u, CandidateCause.of({"V1": 0}), atom("W", 0),
                ScoringStrategy("ways"), max_vars=5, stats=stats,
            )
        assert stats.solves == 1

    def test_witness_world_matches_report(self):
        ext = ext_of(forest_fire())
        u = u_ff(1, 1, 1)
        cause = CandidateCause.of({"L": 1})
        verdict = is_actual_cause(ext, u, cause, atom("F", 1))
        world = witness_world(ext, u, cause, verdict.witnesses[0])
        assert world["F"] == 0 and world["L"] == 0 and world["ML"] == 0

    def test_ways_fraction_raises_above_cap_after_the_actual_world(self, corpus):
        model, _ = corpus["models"]["vote11"]
        u = Context({f"UV{i}": 0 for i in range(1, 7)} | {f"UV{i}": 1 for i in range(7, 12)})
        cause, outcome = CandidateCause.of({"V1": 0}), atom("W", 0)
        stats = EngineStats()
        with pytest.raises(CapExceededError):
            ways_fraction(ext_of(model), u, cause, outcome, max_vars=5, stats=stats)
        assert stats.solves == 1
        assert ways_fraction(ext_of(model), u, cause, outcome) == Fraction(251, 1023)


def check_witness_worlds(ext: ExtendedModel, context: Context, cause: CandidateCause, outcome) -> int:
    """Every witness of a `cause` and of a first-witness query carries the
    world `witness_world` solves afresh; returns how many were checked."""
    checked = 0
    for first in (False, True):
        for w in is_actual_cause(ext, context, cause, outcome, first_witness=first).witnesses:
            assert w.world is not None
            assert w.world == witness_world(ext, context, cause, w), (ext.model.name, cause, w)
            checked += 1
    return checked


class TestWitnessWorld:
    def test_hand_built_witness_needs_no_world(self):
        ext, u = ext_of(forest_fire()), u_ff(1, 1, 1)
        cause = CandidateCause.of({"L": 1})
        [found] = is_actual_cause(ext, u, cause, atom("F", 1)).witnesses
        built = Witness(found.w_set, found.w_setting, found.x_prime, found.changes)
        assert built.world is None and built == found and hash(built) == hash(found)
        assert witness_world(ext, u, cause, built) == found.world

    @pytest.mark.parametrize("witness, message", [
        # A setting beyond W used to fail `check_ac2`, which pinned W only,
        # while `witness_world` pinned it and solved the W = {ML} world.
        (Witness(frozenset(), Assignment({"ML": 0}), Assignment({"L": 0}), 0), "setting must set exactly its W set"),
        (Witness(frozenset({"ML"}), Assignment({}), Assignment({"L": 0}), 1), "setting must set exactly its W set"),
        (Witness(frozenset({"L"}), Assignment({"L": 0}), Assignment({"L": 0}), 1), "W set overlaps the candidate cause"),
        (Witness(frozenset(), Assignment({}), Assignment({"ML": 0}), 0), "x' must set exactly the cause variables"),
    ], ids=["setting beyond W", "W unset", "W overlapping the cause", "x' off the cause"])
    def test_both_entries_check_a_hand_built_witness_alike(self, witness, message):
        ext, u = ext_of(forest_fire()), u_ff(1, 1, 1)
        cause = CandidateCause.of({"L": 1})
        for check in (
            lambda: check_ac2(ext, u, cause, atom("F", 1), witness),
            lambda: witness_world(ext, u, cause, witness),
        ):
            with pytest.raises(ValueError, match=message) as exc_info:
                check()
            assert type(exc_info.value) is ValueError

    def test_found_and_hand_built_reprs(self):
        [found] = is_actual_cause(ext_of(forest_fire()), u_ff(1, 1, 1), CandidateCause.of({"L": 1}), atom("F", 1)).witnesses
        built = Witness(frozenset({"ML"}), Assignment({"ML": 0}), Assignment({"L": 0}), 1)
        text = "Witness(w_set=frozenset({'ML'}), w_setting=Assignment(ML=0), x_prime=Assignment(L=0), changes=1)"
        assert repr(found) == repr(built) == text

    def test_found_witness_with_e_equals_its_hand_built_twin(self, corpus):
        # Suzy's throw is a cause once Billy's hit is pinned at its actual 0:
        # W = E = {BH}, with no change.
        model, _ = corpus["models"]["suzy_billy"]
        context, cause = Context({"US": 1, "UB": 1}), CandidateCause.of({"ST": 1})
        [found] = is_actual_cause(ext_of(model), context, cause, atom("BS", 1)).witnesses
        built = Witness(frozenset({"BH"}), Assignment({"BH": 0}), Assignment({"ST": 0}), 0)
        assert found == built and built == found and hash(found) == hash(built)
        assert found != Witness(built.w_set, built.w_setting, built.x_prime, 1)
        assert found.world == witness_world(ext_of(model), context, cause, built)

    def test_orbit_images_equal_their_hand_built_twins(self):
        # The 20 witnesses of one vote in a 7-0 landslide are the images of
        # the first, which sets V2, V3 and V4.
        ext = vote_n(7)
        context = Context({f"UV{i}": 0 for i in range(1, 8)})
        cause = CandidateCause.of({"V1": 0})
        found = is_actual_cause(ext, context, cause, atom("W", 0)).witnesses
        built = [
            Witness(frozenset(names), Assignment(dict.fromkeys(names, 1)), Assignment({"V1": 1}), 3)
            for names in itertools.combinations([f"V{i}" for i in range(2, 8)], 3)
        ]
        assert list(found) == built and list(map(hash, found)) == list(map(hash, built))
        assert len(set(found) | set(built)) == 20
        for w in found:
            assert w.world == witness_world(ext, context, cause, w)

    def test_vote11_landslide_witness_worlds(self, corpus):
        model, order = corpus["models"]["vote11"]
        ext = ExtendedModel(model, order)
        context = Context({f"UV{i}": 0 for i in range(1, 12)})
        cause = CandidateCause.of({"V1": 0})
        verdict = is_actual_cause(ext, context, cause, atom("W", 0))
        assert verdict.is_cause and verdict.measure == 5 and len(verdict.witnesses) == 252
        assert len(set(verdict.witnesses)) == 252
        for w in verdict.witnesses:
            assert w.changes == 5 and w.world == witness_world(ext, context, cause, w)

    def test_corpus_verdicts(self, corpus):
        checked = 0
        for entry in load_corpus_entries():
            query = parse_query(entry["query"])
            if not isinstance(query, (CauseQuery, RespQuery)):
                continue
            model, order = corpus["models"][entry["models"][0].removesuffix(".cm")]
            preliminary = entry.get("options", {}).get("mode") == "preliminary"
            ext = ExtendedModel(model, None if preliminary else order)
            cause = CandidateCause.of(dict(query.cause))
            checked += check_witness_worlds(ext, Context(dict(query.context)), cause, query.outcome)
        assert checked >= 500

    def test_seeded_batch(self):
        rng = random.Random(97)
        checked = 0
        for i in range(90):
            family = (random_model, random_threshold_model, random_selector_model)[i % 3]
            model = family(rng, name=f"worlds{i}")
            order = random_pattern_order(rng, model) if rng.random() < 0.3 else None
            ext = ExtendedModel(model, order)
            u = random_context(rng, model)
            world = model.solve(u)
            outcome_var = model.signature.endogenous_names[-1]
            outcome = atom(outcome_var, world[outcome_var])
            for v in model.signature.endogenous_names[:-1]:
                checked += check_witness_worlds(ext, u, CandidateCause.of({v: world[v]}), outcome)
        assert checked >= 200


class TestStats:
    def test_counters_accumulate(self):
        stats = EngineStats()
        is_actual_cause(
            ext_of(forest_fire()), u_ff(1, 1, 1), CandidateCause.of({"L": 1}), atom("F", 1),
            stats=stats,
        )
        assert stats.solves > 0 and stats.subset_checks > 0


def _vote3() -> CausalModel:
    sig = Signature(
        exogenous=tuple((f"U{i}", (0, 1)) for i in range(1, 4)),
        endogenous=tuple((f"V{i}", (0, 1)) for i in range(1, 4)) + (("W", (0, 1)),),
    )
    eqs = [Equation(f"V{i}", Var(f"U{i}")) for i in range(1, 4)]
    total = Arith("+", Arith("+", Var("V1"), Var("V2")), Var("V3"))
    eqs.append(Equation("W", If(Cmp("<=", total, Lit(1)), Lit(0), Lit(1))))
    return CausalModel(sig, eqs, name="vote3")


class TestWeights:
    def test_non_positive_weight_rejected(self):
        # The measure would read -5 for a contingency flipping V2, and the
        # lazy change-set order assumes no weight is negative.
        u = Context({"U1": 1, "U2": 1, "U3": 0})
        for bad in (Fraction(-5), Fraction(0)):
            weights = {"V1": Fraction(1), "V2": bad, "V3": Fraction(1), "W": Fraction(1)}
            with pytest.raises(ModelError, match="weight for 'V2' must be positive") as info:
                is_actual_cause(ext_of(_vote3()), u, CandidateCause.of({"V1": 1}), atom("W", 1), weights=weights)
            assert info.value.category == "semantic"

    def test_change_sets_follow_the_sorted_order(self):
        # The count walk and the lazy weighted enumeration must equal sorting
        # every change set by (measure, size, positions), ties in weight
        # included.
        rng = random.Random(5)
        model = random_model(rng, max_endo=7, max_exo=1, min_endo=7, name="order")
        u = random_context(rng, model)
        world = model.solve(u)
        names = model.signature.endogenous_names
        cause = CandidateCause.of({names[0]: world[names[0]]})
        search = _Search(ext_of(model), u, cause, atom(names[-1], world[names[-1]]), EngineStats())
        subsets = [c for r in range(len(search.others) + 1) for c in itertools.combinations(search.others, r)]
        counted = sorted((len(c), len(c), c) for c in subsets)
        walked = [(k, c) for k in range(len(search.others) + 1) for c in _first_members(search.others, {}, k)]
        assert walked == [(m, c) for m, _, c in counted]
        for _ in range(20):
            weights = {v: Fraction(rng.randint(1, 3), rng.choice([1, 2])) for v in names}
            keyed = sorted((sum((weights[names[i]] for i in c), Fraction(0)), len(c), c) for c in subsets)
            assert list(search._change_sets(weights, search.others)) == [(m, c) for m, _, c in keyed]


def folded(node, known) -> int | bool | frozenset[str]:
    """The value `node` folds to under `known` (`canonical`), or else the
    references it keeps."""
    form = canonical(node, known)
    return form[1] if form[0] == "#" else _variables(form)


class TestContextFold:
    def test_live_rifle_alone_reaches_death(self, corpus):
        model, _ = corpus["models"]["firing_squad"]
        body = model.equations["D"].body
        assert folded(body, {"UL": 2}) == frozenset({"M2"})
        assert folded(body, {"UL": 1}) == frozenset({"M1"})

    def test_constant_condition_picks_its_branch(self):
        node = If(Cmp("==", Var("U"), Lit(1)), Var("A"), MinMax("max", Var("B"), Lit(0)))
        assert folded(node, {"U": 1}) == frozenset({"A"})
        assert folded(node, {"U": 0}) == frozenset({"B"})
        live = If(Cmp("==", Var("A"), Var("U")), Lit(0), Var("B"))
        assert folded(live, {"U": 0}) == frozenset({"A", "B"})

    def test_and_or_absorb(self):
        u_is_1 = Cmp("==", Var("U"), Lit(1))
        a_is_1 = Cmp("==", Var("A"), Lit(1))
        assert folded(BoolOp("&&", u_is_1, a_is_1), {"U": 0}) is False
        assert folded(BoolOp("&&", a_is_1, u_is_1), {"U": 0}) is False
        assert folded(BoolOp("&&", u_is_1, a_is_1), {"U": 1}) == frozenset({"A"})
        assert folded(BoolOp("||", a_is_1, u_is_1), {"U": 1}) is True
        assert folded(BoolOp("||", u_is_1, a_is_1), {"U": 0}) == frozenset({"A"})
        assert folded(Not(BoolOp("||", u_is_1, a_is_1)), {"U": 1}) is False

    def test_constant_operands_evaluate(self):
        assert folded(Arith("*", Arith("-", Var("U"), Lit(3)), Lit(2)), {"U": 1}) == -4
        assert folded(MinMax("min", Var("U"), Lit(0)), {"U": 1}) == 0
        assert folded(Cmp("<=", Var("U"), Lit(0)), {"U": 1}) is False
        assert folded(Arith("+", Var("U"), Var("A")), {"U": 1}) == frozenset({"A"})

    def test_non_cause_is_decided_without_a_search(self, corpus):
        model, _ = corpus["models"]["firing_squad"]
        u = Context({"UL": 2})
        cause, death = CandidateCause.of({"M1": 1}), atom("D", 1)
        stats = EngineStats()
        verdict = is_actual_cause(ext_of(model), u, cause, death, stats=stats, first_witness=True)
        assert verdict == is_actual_cause(ext_of(model), u, cause, death, first_witness=True)
        assert not verdict.is_cause and verdict.failed_condition == "AC2"
        assert stats.solves == 1 and stats.subset_checks == 0  # the actual world only

    def test_folds_are_kept_per_model_and_context(self):
        # The same query again on the model under its context folds nothing;
        # another context, or a model from `intervene`, folds afresh.  The
        # memo plays no part in equality or hashing.
        model, fresh = forest_fire(), forest_fire()
        fire = atom("F", 1)
        with mock.patch("causelab.model.canonical", side_effect=canonical) as spy:
            def folds(m, u, cause):
                before = spy.call_count
                is_actual_cause(ext_of(m), u, CandidateCause.of(cause), fire)
                return spy.call_count - before

            first = folds(model, u_ff(1, 1, 1), {"L": 1})
            assert first > 0
            assert folds(model, u_ff(1, 1, 1), {"L": 1}) == 0
            assert folds(model, u_ff(1, 1, 2), {"L": 1}) > 0
            assert folds(model.intervene({}), u_ff(1, 1, 1), {"L": 1}) == first
        assert model == fresh and hash(model) == hash(fresh)

    def test_cause_query_stops_once_its_failures_are_recorded(self, corpus):
        # The verdict costs the actual world alone and records no failures;
        # the failure report, on request, is a pass of its own after it, and
        # stops at its 32nd failure.
        model, _ = corpus["models"]["firing_squad"]
        u = Context({"UL": 2})
        cause, death = CandidateCause.of({"M1": 1}), atom("D", 1)
        first, report = EngineStats(), EngineStats()
        default = is_actual_cause(ext_of(model), u, cause, death, stats=first)
        verdict = is_actual_cause(ext_of(model), u, cause, death, stats=report, record_failures=True)
        with mock.patch.object(_Search, "outcome_reaches_cause", return_value=True):
            exhaustive = is_actual_cause(ext_of(model), u, cause, death, record_failures=True)
        assert (first.solves, first.subset_checks) == (1, 0)
        assert default == CauseVerdict(False, failed_condition="AC2")
        assert len(verdict.ac2b_failures) == 32
        assert verdict == exhaustive
        # 103 solves when the report ran without the classes of
        # interchangeable rifles, whose orbits share their solves.
        assert report.solves == 19


def run_fold_soundness(n_models: int = 150, seed: int = 61) -> int:
    """Pins of a variable the outcome cannot reach once the context is folded
    in never change the outcome's variables, whatever else is pinned."""
    rng = random.Random(seed)
    unreached = 0
    for i in range(n_models):
        kind = i % 3
        if kind == 0:
            model = random_model(rng, max_endo=5, max_exo=2, allow_ternary=True, name=f"fold{i}")
        elif kind == 1:
            model = random_selector_model(rng, name=f"fold{i}")
        else:
            model = random_dangling_model(rng, name=f"fold{i}")
        sig = model.signature
        names = sig.endogenous_names
        u = random_context(rng, model)
        world = model.solve(u)
        outcome_var = rng.choice(names)
        outcome = atom(outcome_var, world[outcome_var])
        search = _Search(ext_of(model), u, CandidateCause.of({names[0]: world[names[0]]}), outcome, EngineStats())
        for v in names:  # the copies share the search's folded references
            if search.for_cause(CandidateCause.of({v: world[v]})).outcome_reaches_cause():
                continue
            unreached += 1
            for _ in range(4):
                pins = {w: rng.choice(sig.ranges[w]) for w in names if w != v and rng.random() < 0.4}
                seen = {
                    model.solve_pinned(u, {**pins, v: value})[outcome_var] for value in sig.ranges[v]
                }
                seen.add(model.solve_pinned(u, pins)[outcome_var])
                assert len(seen) == 1, (model.name, v, pins)
    return unreached


def test_fold_soundness_batch():
    assert run_fold_soundness() >= 250


def run_equation_fold_soundness(n_models: int = 150, seed: int = 67) -> tuple[int, int]:
    """Each equation folded under a context (`canonical`) against the
    body's values (`bodyeval.evaluate`): a constant form is the body's value
    under every setting of the endogenous variables, and any other form's
    references are all the body reads, so changing another endogenous
    variable never changes it.
    Returns the number of (constant, non-constant) forms checked."""
    rng = random.Random(seed)
    counts = [0, 0]
    for i in range(n_models):
        kind = i % 3
        if kind == 0:
            model = random_model(rng, max_endo=5, max_exo=2, allow_ternary=True, name=f"eqfold{i}")
        elif kind == 1:
            model = random_selector_model(rng, name=f"eqfold{i}")
        else:
            model = random_dangling_model(rng, name=f"eqfold{i}")
        ranges = model.signature.ranges
        u = random_context(rng, model)
        for v, eq in model.equations.items():
            result = folded(eq.body, u)
            live = isinstance(result, frozenset)
            counts[live] += 1
            endo = sorted(r for r in set(references(eq.body)) if r not in u)
            assert not live or result <= set(endo), (model.name, v, result)
            for combo in itertools.product(*(ranges[r] for r in endo)):
                env = {**u, **dict(zip(endo, combo))}
                value = evaluate(eq.body, env)
                if not live:
                    assert value == result, (model.name, v, env, result)
                    continue
                for r in endo:
                    if r not in result:
                        for other in ranges[r]:
                            assert evaluate(eq.body, {**env, r: other}) == value, (model.name, v, env, r, result)
    return counts[0], counts[1]


def test_equation_fold_soundness_batch():
    constant, live = run_equation_fold_soundness()
    assert constant >= 200 and live >= 200
