import pytest

from causelab.formula import CausalFormula, atom, disj, holds, valid
from causelab.hp import (
    CandidateCause,
    CapExceededError,
    EngineOptions,
    EngineStats,
    Witness,
    check_ac1,
    check_ac2,
    find_all_causes,
    is_actual_cause,
    witness_world,
)
from causelab.model import (
    Assignment,
    CausalModel,
    Cmp,
    Context,
    Equation,
    If,
    Intervention,
    Lit,
    MinMax,
    BoolOp,
    Signature,
    Var,
)
from causelab.normality import ExtendedModel
from test_model import forest_fire


def ext_of(model) -> ExtendedModel:
    return ExtendedModel(model, None)


def u_ff(u1, u2, u3) -> Context:
    return Context({"U1": u1, "U2": u2, "U3": u3})


class TestAc1:
    def test_lightning_and_fire_hold(self):
        assert check_ac1(forest_fire(), u_ff(1, 1, 1), CandidateCause.of({"L": 1}), atom("F", 1))

    def test_match_fails_when_not_dropped(self):
        assert not check_ac1(forest_fire(), u_ff(1, 0, 2), CandidateCause.of({"ML": 1}), atom("F", 1))

    def test_value_disagreeing_with_solution_fails(self):
        assert not check_ac1(forest_fire(), u_ff(1, 1, 1), CandidateCause.of({"L": 0}), atom("F", 1))


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
        with pytest.raises(ValueError, match="outside the range"):
            self._check(witness)

    def test_non_endogenous_w_variable_rejected(self):
        witness = Witness(
            w_set=frozenset({"U1"}),
            w_setting=Assignment({"U1": 0}),
            x_prime=Assignment({"L": 0}),
            changes=1,
        )
        with pytest.raises(ValueError, match="not endogenous"):
            self._check(witness)

    def test_out_of_range_x_prime_rejected(self):
        witness = Witness(
            w_set=frozenset({"ML"}),
            w_setting=Assignment({"ML": 0}),
            x_prime=Assignment({"L": 2}),
            changes=1,
        )
        with pytest.raises(ValueError, match="outside the range"):
            self._check(witness)

    def test_non_endogenous_outcome_rejected(self):
        witness = Witness(
            w_set=frozenset({"ML"}),
            w_setting=Assignment({"ML": 0}),
            x_prime=Assignment({"L": 0}),
            changes=1,
        )
        with pytest.raises(ValueError, match="not endogenous"):
            check_ac2(
                ext_of(forest_fire()), u_ff(1, 1, 1), CandidateCause.of({"L": 1}), atom("U1", 1), witness
            )

    def test_out_of_range_prefix_rejected_by_holds_and_valid(self):
        formula = CausalFormula(Intervention({"ML": 3}), atom("F", 1))
        with pytest.raises(ValueError, match="outside the range"):
            holds(forest_fire(), u_ff(1, 1, 1), formula)
        with pytest.raises(ValueError, match="outside the range"):
            valid(forest_fire(), formula)

    def test_bad_context_rejected_by_search_entry(self):
        with pytest.raises(ValueError, match="outside the range"):
            is_actual_cause(ext_of(forest_fire()), u_ff(1, 1, 7), CandidateCause.of({"L": 1}), atom("F", 1))


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
                EngineOptions(max_vars=5),
            )

    def test_sampled_mode_is_marked_and_verified(self, corpus):
        model, _ = corpus["models"]["vote11"]
        ext = ext_of(model)
        u = Context({f"UV{i}": 0 for i in range(1, 7)} | {f"UV{i}": 1 for i in range(7, 12)})
        cause = CandidateCause.of({"V1": 0})
        verdict = is_actual_cause(
            ext, u, cause, atom("W", 0), EngineOptions(max_vars=5, sampled=True, seed=3, samples=400)
        )
        assert verdict.sampled
        # In the 6-5 context the cause is but-for critical, which sampling
        # finds easily; every reported witness must re-verify exactly.
        assert verdict.is_cause
        for witness in verdict.witnesses:
            assert check_ac2(ext, u, cause, atom("W", 0), witness)

    def test_witness_world_matches_report(self):
        ext = ext_of(forest_fire())
        u = u_ff(1, 1, 1)
        cause = CandidateCause.of({"L": 1})
        verdict = is_actual_cause(ext, u, cause, atom("F", 1))
        world = witness_world(ext, u, cause, verdict.witnesses[0])
        assert world["F"] == 0 and world["L"] == 0 and world["ML"] == 0


class TestStats:
    def test_counters_accumulate(self):
        stats = EngineStats()
        is_actual_cause(
            ext_of(forest_fire()), u_ff(1, 1, 1), CandidateCause.of({"L": 1}), atom("F", 1),
            EngineOptions(), stats,
        )
        assert stats.solves > 0 and stats.subset_checks > 0
