"""Acceptance suite: one test per criterion, exact rational comparisons only.

The conftest terminal-summary hook prints one PASS/FAIL line per criterion
after the run.  Query timings are asserted against the one-second budget on
the bundled corpus.
"""

import time
from fractions import Fraction

from causelab.attribution import (
    EpistemicState,
    ScoringStrategy,
    degree_of_blame,
    degree_of_responsibility,
)
from causelab.cli import corpus_dir, load_corpus_entries, run_corpus_entry
from causelab.dsl import parse_model
from causelab.formula import PrimitiveEvent, atom, disj
from causelab.hp import CandidateCause, is_actual_cause
from causelab.model import Context, Intervention
from causelab.ness import is_ness_cause
from causelab.normality import ExtendedModel
from test_oracle_agreement import (
    run_corpus_agreement,
    run_random_agreement,
    run_random_extended_agreement,
)
from test_properties import (
    run_ac1_subsumption_suite,
    run_blame_linearity_suite,
    run_but_for_suite,
    run_fixed_point_suite,
    run_flat_equivalence_suite,
    run_intervention_suite,
    run_parser_roundtrip_suite,
)


def ext_flat(corpus, name):
    model, _ = corpus["models"][name]
    return model, ExtendedModel(model, None)


def ext_declared(corpus, name):
    model, order = corpus["models"][name]
    return model, ExtendedModel(model, order)


def cause_of(ext, u, cause, outcome, **options):
    return is_actual_cause(ext, Context(u), CandidateCause.of(cause), outcome, **options)


def failure_rows(verdict):
    """Each reported AC2(b) failure as (W's setting, x', W', Z'), in order;
    W is the variables of the setting."""
    assert all(f.w_set == set(f.w_setting) for f in verdict.ac2b_failures)
    return [
        (f.w_setting.as_dict(), f.x_prime.as_dict(), sorted(f.w_prime), sorted(f.z_prime))
        for f in verdict.ac2b_failures
    ]


def resp_of(ext, u, cause, outcome, strategy=ScoringStrategy()):
    return degree_of_responsibility(
        ext, Context(u), CandidateCause.of(cause), outcome, strategy
    ).value


def test_criterion_1_forest_fire(corpus):
    _, ext = ext_flat(corpus, "forest_fire")
    fire = atom("F", 1)
    either = {"U1": 1, "U2": 1, "U3": 1}
    assert cause_of(ext, either, {"L": 1}, fire).is_cause
    assert cause_of(ext, either, {"ML": 1}, fire).is_cause
    both = {"U1": 1, "U2": 1, "U3": 2}
    assert cause_of(ext, both, {"L": 1}, fire).is_cause
    assert cause_of(ext, both, {"ML": 1}, fire).is_cause
    no_match = cause_of(ext, {"U1": 1, "U2": 0, "U3": 2}, {"ML": 1}, fire)
    assert not no_match.is_cause and no_match.failed_condition == "AC1"
    spontaneous = {"U1": 1, "U2": 1, "U3": 0}
    for var in ("L", "ML"):
        verdict = cause_of(ext, spontaneous, {var: 1}, fire)
        assert not verdict.is_cause and verdict.failed_condition == "AC2"


def test_criterion_2_suzy_billy(corpus):
    _, coarse = ext_flat(corpus, "suzy_billy_coarse")
    u = {"US": 1, "UB": 1}
    shatter = atom("BS", 1)
    assert cause_of(coarse, u, {"ST": 1}, shatter).is_cause
    assert cause_of(coarse, u, {"BT": 1}, shatter).is_cause

    _, refined = ext_flat(corpus, "suzy_billy")
    assert cause_of(refined, u, {"ST": 1}, shatter).is_cause
    verdict = cause_of(refined, u, {"BT": 1}, shatter, record_failures=True)
    assert not verdict.is_cause and verdict.failed_condition == "AC2"
    # The report names AC2(b) failing at Z' = {BH} for the symmetric attempt
    # that keeps Suzy out of the picture, first of all its failures in search
    # order.
    assert failure_rows(verdict) == [
        ({"ST": 0}, {"BT": 0}, ["ST"], ["BH"]),
        ({"SH": 0}, {"BT": 0}, ["SH"], ["BH"]),
        ({"BS": 0}, {"BT": 0}, ["BS"], []),
        ({"SH": 0, "ST": 0}, {"BT": 0}, ["ST"], ["BH"]),
        ({"BS": 0, "ST": 0}, {"BT": 0}, ["ST"], ["BH"]),
        ({"BS": 0, "SH": 1, "ST": 0}, {"BT": 0}, ["ST"], ["BH"]),
        ({"BS": 0, "SH": 0}, {"BT": 0}, ["SH"], ["BH"]),
        ({"BH": 1, "BS": 0}, {"BT": 0}, ["BS"], []),
        ({"BS": 0, "SH": 0, "ST": 0}, {"BT": 0}, ["ST"], ["BH"]),
        ({"BH": 1, "BS": 0, "ST": 0}, {"BT": 0}, ["BS"], []),
        ({"BH": 1, "BS": 0, "SH": 1, "ST": 0}, {"BT": 0}, ["BS"], []),
        ({"BH": 1, "BS": 0, "SH": 0}, {"BT": 0}, ["BS"], []),
        ({"BH": 1, "BS": 0, "SH": 0, "ST": 0}, {"BT": 0}, ["BS"], []),
    ]


def test_criterion_3_doctors_non_transitivity(corpus):
    _, ext = ext_flat(corpus, "doctors")
    u = {"UM": 1}
    alive = disj(atom("BMC", 0), atom("BMC", 1), atom("BMC", 2))
    assert cause_of(ext, u, {"MT": 1}, atom("BMC", 0)).is_cause
    assert cause_of(ext, u, {"MT": 1}, atom("TT", 0)).is_cause
    assert cause_of(ext, u, {"TT": 0}, alive).is_cause
    verdict = cause_of(ext, u, {"MT": 1}, alive, record_failures=True)
    assert not verdict.is_cause and verdict.failed_condition == "AC2"
    assert failure_rows(verdict) == [
        ({"BMC": 3}, {"MT": 0}, ["BMC"], []),
        ({"BMC": 3, "TT": 0}, {"MT": 0}, ["BMC"], []),
        ({"BMC": 3, "TT": 1}, {"MT": 0}, ["TT"], []),
    ]


def test_criterion_4_responsibility(corpus):
    _, vote = ext_flat(corpus, "vote11")
    landslide = {f"UV{i}": 0 for i in range(1, 12)}
    for voter in ("V1", "V4", "V11"):
        assert resp_of(vote, landslide, {voter: 0}, atom("W", 0)) == Fraction(1, 6)
    narrow = {f"UV{i}": 0 for i in range(1, 7)} | {f"UV{i}": 1 for i in range(7, 12)}
    for voter in ("V1", "V6"):
        assert resp_of(vote, narrow, {voter: 0}, atom("W", 0)) == Fraction(1)

    _, fire = ext_flat(corpus, "forest_fire")
    either = {"U1": 1, "U2": 1, "U3": 1}
    assert resp_of(fire, either, {"L": 1}, atom("F", 1)) == Fraction(1, 2)
    assert resp_of(fire, either, {"ML": 1}, atom("F", 1)) == Fraction(1, 2)
    both = {"U1": 1, "U2": 1, "U3": 2}
    assert resp_of(fire, both, {"L": 1}, atom("F", 1)) == Fraction(1)
    assert resp_of(fire, both, {"ML": 1}, atom("F", 1)) == Fraction(1)

    _, blocks = ext_flat(corpus, "vote_blocks")
    ways = ScoringStrategy("ways")
    assert resp_of(blocks, {"UV1": 8, "UV2": 3}, {"V2": 3}, atom("WIN", 1), ways) == Fraction(3, 8)


def test_criterion_5_blame(corpus):
    model, ext = ext_flat(corpus, "forest_fire")
    thirds = tuple(Fraction(1, 3) for _ in range(3))
    state = EpistemicState(
        tuple(
            (ext, Context({"U1": 1, "U2": u2, "U3": u3}))
            for u2, u3 in ((0, 1), (1, 1), (1, 2))
        ),
        thirds,
    )
    assert degree_of_blame(state, Intervention({"ML": 1}), atom("F", 1)) == Fraction(1, 2)

    _, squad = ext_flat(corpus, "firing_squad")
    squad_state = EpistemicState(
        tuple((squad, Context({"UL": i})) for i in range(1, 11)),
        tuple(Fraction(1, 10) for _ in range(10)),
    )
    assert degree_of_blame(squad_state, Intervention({"M1": 1}), atom("D", 1)) == Fraction(1, 10)

    _, permissive = ext_flat(corpus, "suzy_blame")
    _, restrictive = ext_declared(corpus, "suzy_blame_restrictive")
    contexts = [Context({"UB": b, "US": 1}) for b in (3, 2, 1, 0)]
    quarters = tuple(Fraction(1, 4) for _ in range(4))
    throw = Intervention({"ST": 1})
    perm_state = EpistemicState(tuple((permissive, u) for u in contexts), quarters)
    restr_state = EpistemicState(tuple((restrictive, u) for u in contexts), quarters)
    assert degree_of_blame(perm_state, throw, atom("BS", 1)) == Fraction(5, 8)
    assert degree_of_blame(restr_state, throw, atom("BS", 1)) == Fraction(1, 2)


def test_criterion_6_normality(corpus):
    model, extended = ext_declared(corpus, "assassin")
    flat = ExtendedModel(model, None)
    u = {"UA": 1, "UB": 1}
    assert not cause_of(extended, u, {"B": 1}, atom("VS", 1)).is_cause
    assert cause_of(flat, u, {"B": 1}, atom("VS", 1)).is_cause

    _, doctors = ext_declared(corpus, "five_doctors")
    ctx = {f"UA{i}": 0 for i in range(1, 6)} | {f"UT{i}": 0 for i in range(1, 6)}
    ctx["UA1"] = 1
    sick = atom("S", 1)
    assert cause_of(doctors, ctx, {"T1": 0}, sick).is_cause
    for j in (2, 3, 4, 5):
        assert not cause_of(doctors, ctx, {f"T{j}": 0}, sick).is_cause


def test_criterion_7_ness_divergence(corpus):
    tea, _ = corpus["models"]["poisoned_tea"]
    u = Context({"UC": 1, "UD": 1, "UR": 1})
    death = atom("PD", 1)
    assert is_ness_cause(tea, u, PrimitiveEvent("CP", 1), death) is not None
    assert not is_actual_cause(
        ExtendedModel(tea, None), u, CandidateCause.of({"CP": 1}), death
    ).is_cause

    switch, _ = corpus["models"]["discharge_switch"]
    units, _ = corpus["models"]["discharge_units"]
    injury = atom("I", 1)
    u_d = Context({"UD1": 15, "UD2": 13})
    event = PrimitiveEvent("D2", 13)
    cause = CandidateCause.of({"D2": 13})
    # both engines flip in the same direction across the two variants
    assert is_ness_cause(switch, u_d, event, injury) is None
    assert not is_actual_cause(ExtendedModel(switch, None), u_d, cause, injury).is_cause
    assert is_ness_cause(units, u_d, event, injury) is not None
    assert is_actual_cause(ExtendedModel(units, None), u_d, cause, injury).is_cause


def test_criterion_8_property_suites():
    assert run_fixed_point_suite() >= 200
    assert run_intervention_suite() >= 200
    assert run_ac1_subsumption_suite() >= 200
    assert run_but_for_suite() >= 200
    assert run_flat_equivalence_suite() >= 200
    assert run_blame_linearity_suite() >= 200
    assert run_parser_roundtrip_suite() >= 200


def test_criterion_9_oracle_equivalence(corpus):
    assert run_corpus_agreement(corpus) >= 45
    assert run_random_agreement(200) >= 200
    assert run_random_extended_agreement(120) >= 120


def test_corpus_queries_within_time_budget():
    base = corpus_dir()
    entries = load_corpus_entries(base)
    assert entries
    for entry in entries:
        ok, message, _result, wall_ms = run_corpus_entry(entry, base)
        assert ok, f"{entry['id']}: {message}"
        assert wall_ms < 1000.0, f"{entry['id']} took {wall_ms:.1f} ms"


def test_wide_max_chain_parses_within_time_budget():
    # Totality of a body over n binary parents costs 2**n evaluations
    # (1.6 s at n = 18); interval bounds prove this one without any.
    n = 24
    exo = "".join(f"  exogenous U{i} : {{0,1}};\n" for i in range(n))
    body = "U0"
    for i in range(1, n):
        body = f"max({body}, U{i})"
    text = f"model wide {{\n{exo}  endogenous Y : {{0,1}} = {body};\n}}\n"
    start = time.perf_counter()
    model, _ = parse_model(text)
    elapsed = time.perf_counter() - start
    assert model.signature.endogenous_names == ("Y",)
    assert elapsed < 1.0, f"parsing took {elapsed:.2f} s"
