"""Interchangeable variables: the canonicaliser, the sites that key them,
the classes a search finds, the work they save, and the renaming and
idle-variable relations that check the engine against itself on models of
any size.
"""

import dataclasses
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest

from causelab import hp
from causelab import model as model_module
from causelab.attribution import EpistemicState, ScoringStrategy, degree_of_blame, degree_of_responsibility
from causelab.dsl import parse_model, print_model
from causelab.formula import PrimitiveEvent, atom
from causelab.hp import CandidateCause, EngineStats, _Search, check_ac2, is_actual_cause, ways_fraction
from causelab.model import (
    Arith,
    Assignment,
    BoolOp,
    CausalModel,
    Cmp,
    Cond,
    Context,
    Equation,
    Expr,
    If,
    Intervention,
    Lit,
    MinMax,
    Not,
    Signature,
    Var,
    World,
    _sites,
    canonical,
)
from causelab.ness import is_ness_cause
from causelab.normality import ExtendedModel, NormalityOrder
from causelab.oracle import oracle_cause, oracle_ways_fraction
from randmodels import (
    random_block_model,
    random_context,
    random_dangling_model,
    random_model,
    random_pattern_order,
    random_selector_model,
    random_threshold_model,
)

A, B, C = Var("A"), Var("B"), Var("C")

# Operands for the normal-form table: true and false constant conditions and
# three conditions over the variables A, B and C.
_TRUE, _FALSE = Cmp("==", Lit(1), Lit(1)), Cmp("==", Lit(1), Lit(0))
_CA, _CB, _CC = Cmp("==", A, Lit(1)), Cmp("<", B, Lit(2)), Cmp("<=", C, Lit(0))
_FA, _FB, _FC = ("==", ("#", 1), ("v", "A")), ("<", ("v", "B"), ("#", 2)), ("<=", ("v", "C"), ("#", 0))


def _chains(make, op: str, one_two: int) -> list:
    """Left- and right-nested chains of one flattened operator, with
    constants at different depths; `one_two` is the operator over 1 and 2."""
    v = ("v", "A")
    return [
        (make(make(A, Lit(1)), Lit(2)), {}, (op, ("#", 1), ("#", 2), v)),  # (x+1)+2
        (make(make(Lit(1), Lit(2)), A), {}, (op, ("#", one_two), v)),  # (1+2)+x
        (make(Lit(1), make(A, Lit(2))), {}, (op, ("#", 1), ("#", 2), v)),  # 1+(x+2)
        (make(make(C, B), A), {}, (op, v, ("v", "B"), ("v", "C"))),
        (make(C, make(B, A)), {}, (op, v, ("v", "B"), ("v", "C"))),
    ]


def _bool_chains(op: str) -> list:
    """`&&` or `||` chains, and a constant on each side that decides the
    operator (absorbing) or drops out (non-absorbing)."""
    make = lambda l, r: BoolOp(op, l, r)  # noqa: E731
    decides, drops = (_TRUE, _FALSE) if op == "||" else (_FALSE, _TRUE)
    decided = ("#", op == "||")
    return [
        (make(make(_CA, _CB), _CC), {}, (op, _FB, _FC, _FA)),
        (make(_CA, make(_CB, _CC)), {}, (op, _FB, _FC, _FA)),
        (make(make(_CA, drops), _CB), {}, (op, _FB, _FA)),
        (make(_CA, make(decides, _CB)), {}, decided),
        (make(decides, _CA), {}, decided),
        (make(_CA, decides), {}, decided),
        (make(drops, _CA), {}, _FA),
        (make(_CA, drops), {}, _FA),
    ]


# (node, known values, normal form) for every node class.
NORMAL_FORMS = [
    (Lit(3), {}, ("#", 3)),
    (A, {}, ("v", "A")),
    (A, {"A": 2}, ("#", 2)),
    (Arith("-", A, Lit(1)), {}, ("-", ("v", "A"), ("#", 1))),
    (Arith("-", A, B), {"A": 5, "B": 2}, ("#", 3)),
    (Arith("+", A, Lit(3)), {"A": 4}, ("#", 7)),
    (MinMax("min", A, Lit(3)), {"A": 4}, ("#", 3)),
    (Cmp("<", Lit(2), A), {}, ("<", ("#", 2), ("v", "A"))),
    (Cmp("<=", A, B), {"A": 1}, ("<=", ("#", 1), ("v", "B"))),
    (Cmp("<", A, Lit(1)), {"A": 0}, ("#", True)),
    *_chains(lambda l, r: Arith("+", l, r), "+", 3),
    *_chains(lambda l, r: Arith("*", l, r), "*", 2),
    *_chains(lambda l, r: MinMax("min", l, r), "min", 1),
    *_chains(lambda l, r: MinMax("max", l, r), "max", 2),
    *_bool_chains("&&"),
    *_bool_chains("||"),
    (If(_TRUE, A, B), {}, ("v", "A")),
    (If(_FALSE, A, B), {}, ("v", "B")),
    (If(_CA, A, Lit(0)), {}, ("if", _FA, ("v", "A"), ("#", 0))),
    (If(_CA, A, Lit(0)), {"A": 1}, ("#", 1)),
    (If(_CA, B, Lit(0)), {"A": 2}, ("#", 0)),
    (Not(_TRUE), {}, ("#", False)),
    (Not(_FALSE), {}, ("#", True)),
    (Not(_CA), {}, ("!", _FA)),
    (Not(_CA), {"A": 1}, ("#", False)),
    (Cmp("==", B, A), {}, ("==", ("v", "A"), ("v", "B"))),
    (Cmp("!=", B, A), {}, ("!=", ("v", "A"), ("v", "B"))),
    (Cmp("==", A, Lit(1)), {}, ("==", ("#", 1), ("v", "A"))),
    (Cmp("!=", Lit(1), A), {}, ("!=", ("#", 1), ("v", "A"))),
    (Cmp("==", B, A), {"B": 1}, ("==", ("#", 1), ("v", "A"))),
]


@pytest.mark.parametrize("node, known, form", NORMAL_FORMS)
def test_normal_form(node, known, form):
    # repr tells a folded truth value (True) from the integer 1.
    assert repr(canonical(node, known)) == repr(form)


def test_normal_forms_and_the_fold_table_cover_every_node_class():
    nodes = {
        cls for cls in vars(model_module).values()
        if isinstance(cls, type) and issubclass(cls, (Expr, Cond)) and cls not in (Expr, Cond)
    }
    assert nodes == {Lit, Var, Arith, MinMax, If, Cmp, BoolOp, Not}
    assert {type(node) for node, _, _ in NORMAL_FORMS} == nodes
    assert set(model_module._FOLDS) == nodes


class TestCanonical:
    def test_commutative_operands_are_flattened_and_sorted(self):
        assert canonical(Arith("+", A, Arith("+", B, C)), {}) == canonical(Arith("+", Arith("+", C, A), B), {})
        assert canonical(MinMax("max", A, MinMax("max", B, C)), {}) == ("max", ("v", "A"), ("v", "B"), ("v", "C"))
        both = BoolOp("&&", Cmp("==", A, B), Cmp("<", A, C))
        assert canonical(both, {}) == canonical(BoolOp("&&", Cmp("<", A, C), Cmp("==", B, A)), {})

    def test_other_operators_keep_their_operand_order(self):
        assert canonical(Arith("-", A, B), {}) != canonical(Arith("-", B, A), {})
        assert canonical(Cmp("<", A, B), {}) != canonical(Cmp("<", B, A), {})
        # A nested use of another operator is not flattened into its parent.
        assert canonical(Arith("+", A, Arith("*", B, C)), {}) == ("+", ("*", ("v", "B"), ("v", "C")), ("v", "A"))

    def test_known_values_fold_as_fold_does(self):
        live = BoolOp("||", BoolOp("&&", Cmp("==", Var("U"), Lit(1)), Cmp("==", A, Lit(1))),
                      BoolOp("&&", Cmp("==", Var("U"), Lit(2)), Cmp("==", B, Lit(1))))
        assert canonical(If(live, Lit(1), Lit(0)), {"U": 2}) == ("if", ("==", ("#", 1), ("v", "B")), ("#", 1), ("#", 0))
        assert canonical(Arith("+", Var("U"), Lit(2)), {"U": 1}) == ("#", 3)
        assert canonical(Not(Cmp("<", Var("U"), A)), {"U": 0}) == ("!", ("<", ("#", 0), ("v", "A")))


class TestSites:
    def test_direct_operands_share_their_site(self):
        sites = _sites(canonical(Arith("+", Arith("+", A, B), Lit(2)), {}))
        assert sites == {"A": ((), ("v",)), "B": ((), ("v",))}

    def test_equality_tests_under_one_or(self):
        body = BoolOp("||", Cmp("==", A, Lit(1)), Cmp("==", Lit(1), B))
        sites = _sites(canonical(body, {}))
        assert sites["A"] == sites["B"] == ((), ("==", ("#", 1), ("v",)))

    def test_a_second_occurrence_voids_the_site(self):
        # A is an operand of `+` and of `*`; B's lowest node is the `*`.
        sites = _sites(canonical(Arith("+", A, Arith("*", A, B)), {}))
        assert sites == {"A": None, "B": ((0,), ("v",))}

    def test_a_non_commutative_node_gives_no_site(self):
        assert _sites(canonical(Arith("-", A, B), {})) == {"A": None, "B": None}
        assert _sites(canonical(Cmp("<", A, B), {})) == {"A": None, "B": None}

    def test_two_nodes_give_two_sites(self):
        D = Var("D")
        sites = _sites(canonical(Arith("+", Arith("*", A, B), Arith("*", C, D)), {}))
        assert sites["A"] == sites["B"] == ((0,), ("v",))
        assert sites["C"] == sites["D"] == ((1,), ("v",))
        # A variable alone in the whole form has no site.
        assert _sites(canonical(Arith("*", A, Lit(2)), {})) == {}


def vote_model(ranges: dict[str, tuple[int, ...]] | None = None) -> CausalModel:
    """Five voters V1..V5 and W = 1 iff at least three vote 1."""
    ranges = ranges or {}
    voters = [f"V{i}" for i in range(1, 6)]
    sig = Signature(
        tuple((f"U{i}", ranges.get(v, (0, 1))) for i, v in enumerate(voters, start=1)),
        tuple((v, ranges.get(v, (0, 1))) for v in voters) + (("W", (0, 1)),),
    )
    total: Expr = Var("V1")
    for v in voters[1:]:
        total = Arith("+", total, Var(v))
    eqs = [Equation(v, Var(f"U{i}")) for i, v in enumerate(voters, start=1)]
    eqs.append(Equation("W", If(Cmp("<", total, Lit(3)), Lit(0), Lit(1))))
    return CausalModel(sig, eqs, name="vote5")


ZEROS = Context({f"U{i}": 0 for i in range(1, 6)})


def classes_of(ext, context, cause, outcome) -> list[set[str]]:
    search = _Search(ext, context, CandidateCause.of(cause), outcome, EngineStats())
    search._find_classes()
    return [{search.names[i] for i in cls} for cls in search.classes]


class TestInterchangeable:
    def test_vote_members_outside_cause_and_outcome(self):
        ext = ExtendedModel(vote_model())
        assert classes_of(ext, ZEROS, {"V1": 0}, atom("W", 0)) == [{"V2", "V3", "V4", "V5"}]
        # Members split by their actual values.
        mixed = Context({"U1": 0, "U2": 1, "U3": 0, "U4": 1, "U5": 1})
        assert classes_of(ext, mixed, {"V1": 0}, atom("W", 1)) == [{"V2", "V4", "V5"}]

    def test_ranges_must_match(self):
        ext = ExtendedModel(vote_model({"V3": (0, 1, 2)}))
        assert classes_of(ext, ZEROS, {"V1": 0}, atom("W", 0)) == [{"V2", "V4", "V5"}]

    def test_weights_do_not_split_classes(self):
        # Each member is enumerated at its own measure, so voters of different
        # weights stay one class and the cheapest pairs are still each reported.
        ext = ExtendedModel(vote_model())
        weights = {"V1": Fraction(1), "V2": Fraction(2), "V3": Fraction(2), "V4": Fraction(3), "V5": Fraction(2),
                   "W": Fraction(1)}
        found = []
        find_classes = _Search._find_classes

        def spy(search):
            find_classes(search)
            found.append([{search.names[i] for i in cls} for cls in search.classes])

        with mock.patch.object(_Search, "_find_classes", spy):
            verdict = is_actual_cause(ext, ZEROS, CandidateCause.of({"V1": 0}), atom("W", 0), weights=weights)
        assert found == [[{"V2", "V3", "V4", "V5"}]]
        assert verdict.measure == 4
        assert witnessed(verdict, vote_model().solve(ZEROS)) == {
            frozenset({(a, 1), (b, 1)}) for a, b in (("V2", "V3"), ("V2", "V5"), ("V3", "V5"))
        }

    def test_up_set_patterns_must_map_onto_themselves(self):
        model = vote_model()
        # The worlds at least as normal as the all-zero one keep V2 at 0.
        order = NormalityOrder(model.signature, ranks=((Assignment({"V2": 0}), 0), (Assignment({"V2": 1}), 1)))
        assert classes_of(ExtendedModel(model, order), ZEROS, {"V1": 0}, atom("W", 0)) == [{"V3", "V4", "V5"}]
        # An order that treats the voters alike keeps them together.
        alike = NormalityOrder(model.signature, ranks=tuple((Assignment({v: 1}), 1) for v in ("V2", "V3", "V4", "V5")))
        assert classes_of(ExtendedModel(model, alike), ZEROS, {"V1": 0}, atom("W", 0)) == [{"V2", "V3", "V4", "V5"}]

    # Each order lets V2 and V3 leave 0 alike, so swapping them maps the
    # all-zero world's up-set onto itself; but one pattern has V2 alone at 1
    # and another V3 alone, so their keys differ and they join no class.  The
    # last two orders also let V1 and W rise together, which makes V1 a cause,
    # or, with V2 and V3 never both at 1, a non-cause with AC2(b) failures.
    @pytest.mark.parametrize(
        "pairs, v1_is_cause, v1_failures",
        [
            ((({"V2": 1}, {"V2": 0}), ({"V3": 1}, {"V3": 0})), False, 0),
            ((({"V2": 1}, {"V2": 0}), ({"V3": 1}, {"V3": 0}), ({"V1": 1, "W": 1}, {"V1": 0, "W": 0})), True, 0),
            (
                (({"V2": 1, "V3": 0}, {"V2": 0, "V3": 0}), ({"V3": 1, "V2": 0}, {"V3": 0, "V2": 0}),
                 ({"V1": 1, "W": 1}, {"V1": 0, "W": 0})),
                False,
                3,
            ),
        ],
        ids=["flips", "flips-and-V1-W", "either-flip-and-V1-W"],
    )
    def test_swapped_patterns_with_unequal_values_split(self, pairs, v1_is_cause, v1_failures):
        model = vote_model()
        order = NormalityOrder(model.signature, pairs=tuple((Assignment(a), Assignment(b)) for a, b in pairs))
        ext = ExtendedModel(model, order)
        outcome = atom("W", 0)
        assert classes_of(ext, ZEROS, {"V1": 0}, outcome) == [{"V4", "V5"}]
        weights = {v: Fraction(i) for i, v in enumerate(model.signature.endogenous_names, start=1)}
        actual = model.solve(ZEROS)
        for v in ("V1", "V2", "V4"):
            cause = CandidateCause.of({v: 0})

            def answers():
                return (
                    is_actual_cause(ext, ZEROS, cause, outcome, record_failures=True),
                    is_actual_cause(ext, ZEROS, cause, outcome, weights=weights, record_failures=True),
                    ways_fraction(ext, ZEROS, cause, outcome),
                )

            found = answers()
            with mock.patch.object(_Search, "_interchangeable_classes", return_value=()):
                direct = answers()
            assert found == direct, v
            assert [[w.world for w in verdict.witnesses] for verdict in found[:2]] == [
                [w.world for w in verdict.witnesses] for verdict in direct[:2]
            ], v
            oracle = oracle_cause(ext, ZEROS, cause, outcome, max_vars=6)
            assert found[0].is_cause == oracle.is_cause, v
            if oracle.is_cause:
                assert found[0].measure == oracle.min_changes, v

                def changed(pairs):
                    return frozenset((u, x) for u, x in pairs if x != actual[u])

                minimal = {changed(wt.w_setting) for wt in oracle.witnesses if wt.changes == oracle.min_changes}
                assert {changed(w.w_setting.items_sorted()) for w in found[0].witnesses} == minimal, v
            assert found[2] == oracle_ways_fraction(ext, ZEROS, cause, outcome, max_vars=6), v
            if v == "V1":
                assert (found[0].is_cause, len(found[0].ac2b_failures)) == (v1_is_cause, v1_failures)

    def test_equations_must_map_onto_themselves(self):
        # V2 also reads V3, and W subtracts V4: neither can be exchanged.
        sig = Signature((("U", (0, 1)),), tuple((v, (0, 1)) for v in ("V1", "V2", "V3", "V4", "V5", "W")))
        eqs = [Equation("V1", Var("U")), Equation("V2", MinMax("min", Var("U"), Var("V3"))),
               Equation("V3", Var("U")), Equation("V4", Var("U")), Equation("V5", Var("U"))]
        total = Arith("+", Arith("+", Arith("+", Var("V1"), Var("V2")), Var("V3")), Var("V5"))
        eqs.append(Equation("W", MinMax("max", MinMax("min", Arith("-", total, Var("V4")), Lit(1)), Lit(0))))
        model = CausalModel(sig, eqs, name="lopsided")
        ext = ExtendedModel(model)
        assert classes_of(ext, Context({"U": 0}), {"V1": 0}, atom("W", 0)) == []
        assert classes_of(ext, Context({"U": 0}), {"V2": 0}, atom("W", 0)) == [{"V1", "V5"}]


# Solves of the symmetric vote11 queries (all votes 0, V1=0 for W=0): 1,916,
# 598, 598 and 2,259 before each orbit of interchangeable voters was decided
# once.  The weighted query's distinct weights leave no class (314 solves).
# The ways score reads the verdict's search (35 solves with a search of its own).
VOTE11_SOLVES = {
    ("cause", "reciprocal"): 20,
    ("resp", "reciprocal"): 19,
    ("resp", "exponential"): 19,
    ("resp", "ways"): 34,
}


def test_vote11_solves(corpus):
    model, order = corpus["models"]["vote11"]
    ext = ExtendedModel(model, order)
    context = Context({f"UV{i}": 0 for i in range(1, 12)})
    cause, outcome = CandidateCause.of({"V1": 0}), atom("W", 0)
    solves = {}
    for kind, strategy in VOTE11_SOLVES:
        stats = EngineStats()
        if kind == "cause":
            is_actual_cause(ext, context, cause, outcome, stats=stats)
        else:
            degree_of_responsibility(ext, context, cause, outcome, ScoringStrategy(strategy), stats=stats)
        solves[kind, strategy] = stats.solves
    assert solves == VOTE11_SOLVES


# -- Renaming relation --------------------------------------------------------
# Renaming every variable and permuting the declarations, then printing the
# model and parsing it back, must map every verdict, every set of witnessed
# change assignments and every score onto its renamed image.  Which witness a
# change assignment reports, and which AC2(b) failure comes first, follow the
# declaration order, so those are checked for validity, not compared.

MAX_VARS = 16


def renamed_expr(node, names: dict[str, str]):
    if isinstance(node, Var):
        return Var(names[node.name])
    if isinstance(node, Lit):
        return node
    return type(node)(*(
        renamed_expr(value, names) if isinstance(value, (Expr, Cond)) else value
        for value in (getattr(node, f.name) for f in dataclasses.fields(node))
    ))


def renamed(rng: random.Random, ext: ExtendedModel) -> tuple[ExtendedModel, dict[str, str]]:
    """The model with fresh names in shuffled declarations, printed and
    parsed back, and the renaming."""
    model, sig = ext.model, ext.model.signature
    old = list(sig.ranges)
    names = dict(zip(old, (f"R{k}" for k in rng.sample(range(len(old)), len(old)))))
    exo = [(names[v], values) for v, values in sig.exogenous]
    endo = [(names[v], values) for v, values in sig.endogenous]
    rng.shuffle(exo)
    rng.shuffle(endo)
    equations = [Equation(names[v], renamed_expr(eq.body, names)) for v, eq in model.equations.items()]
    moved = CausalModel(Signature(tuple(exo), tuple(endo)), equations, name=model.name)
    order = None
    if ext.order is not None:
        def rename(p):
            return type(p)({names[v]: x for v, x in p.items()})
        order = NormalityOrder(
            moved.signature,
            tuple((rename(left), rename(right)) for left, right in ext.order.pairs),
            tuple((rename(p), r) for p, r in ext.order.ranks),
        )
    parsed, parsed_order = parse_model(print_model(moved, order))
    return ExtendedModel(parsed, parsed_order), names


def witnessed(verdict, actual, names=None) -> set:
    names = names or {}
    return {
        frozenset((names.get(v, v), x) for v, x in w.w_setting.items_sorted() if x != actual[v])
        for w in verdict.witnesses
    }


def check_renaming(rng, ext, context, cause, outcome, weights) -> None:
    image, names = renamed(rng, ext)
    context2 = Context({names[u]: x for u, x in context.items()})
    cause2 = CandidateCause.of({names[v]: x for v, x in cause.settings.items()})
    outcome2 = atom(names[outcome.event.variable], outcome.event.value)
    weights2 = {names[v]: w for v, w in weights.items()}
    before = is_actual_cause(ext, context, cause, outcome, MAX_VARS, record_failures=True)
    after = is_actual_cause(image, context2, cause2, outcome2, MAX_VARS, record_failures=True)
    where = (ext.model.name, cause)
    assert (before.is_cause, before.failed_condition, before.measure) == (
        after.is_cause, after.failed_condition, after.measure), where
    actual, actual2 = ext.model.solve(context), image.model.solve(context2)
    assert witnessed(before, actual, names) == witnessed(after, actual2), where
    assert all(check_ac2(image, context2, cause2, outcome2, w.w_setting, w.x_prime) for w in after.witnesses), where
    assert all(w.world == image.model.solve(context2, {**w.x_prime, **w.w_setting}) for w in after.witnesses)
    if not before.is_cause:  # a cause records no failures; a non-cause names them in position order
        assert bool(before.ac2b_failures) == bool(after.ac2b_failures), where
    for strategy, strategy2 in (
        (ScoringStrategy(), ScoringStrategy()),
        (ScoringStrategy("ways"), ScoringStrategy("ways")),
        (ScoringStrategy.weighted(weights), ScoringStrategy.weighted(weights2)),
    ):
        assert degree_of_responsibility(ext, context, cause, outcome, strategy, MAX_VARS).value == (
            degree_of_responsibility(image, context2, cause2, outcome2, strategy2, MAX_VARS).value), where


def random_weights(rng: random.Random, model: CausalModel) -> dict[str, Fraction]:
    return {v: Fraction(rng.randint(1, 4), rng.randint(1, 2)) for v in model.signature.endogenous_names}


def test_renaming_vote11(corpus):
    rng = random.Random("vote11")
    model, order = corpus["models"]["vote11"]
    ext = ExtendedModel(model, order)
    weights = {v: Fraction(1) for v in model.signature.endogenous_names}
    for votes in ((0,) * 11, (0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0)):
        context = Context({f"UV{i}": x for i, x in enumerate(votes, start=1)})
        world = model.solve(context)
        for var in ("V1", "V2"):
            check_renaming(rng, ext, context, CandidateCause.of({var: world[var]}), atom("W", world["W"]), weights)


def test_renaming_firing_squad(corpus):
    rng = random.Random("firing")
    model, order = corpus["models"]["firing_squad"]
    ext = ExtendedModel(model, order)
    weights = random_weights(rng, model)
    for live in (1, 4):
        context = Context({"UL": live})
        for var in ("M1", "M4", "M7"):
            check_renaming(rng, ext, context, CandidateCause.of({var: 1}), atom("D", 1), weights)
    # Blame over the uniform state maps too.
    image, names = renamed(rng, ext)
    action = {"M1": 1}
    situations = [Context({"UL": live}) for live in range(1, 11)]
    share = (Fraction(1, 10),) * 10
    state = EpistemicState(tuple((ext, u) for u in situations), share)
    state2 = EpistemicState(tuple((image, Context({names["UL"]: u["UL"]})) for u in situations), share)
    blame = degree_of_blame(state, Intervention(action), atom("D", 1), max_vars=MAX_VARS)
    blame2 = degree_of_blame(state2, Intervention({names["M1"]: 1}), atom(names["D"], 1), max_vars=MAX_VARS)
    assert blame == blame2 == Fraction(1, 10)


FAMILIES = {
    "threshold": lambda rng, name: (random_threshold_model(rng, name=name), None),
    "selector": lambda rng, name: (random_selector_model(rng, name=name), None),
    "dangling": lambda rng, name: (random_dangling_model(rng, name=name), None),
    "block": lambda rng, name: random_block_model(rng, name=name),
    "ordered": lambda rng, name: (lambda m: (m, random_pattern_order(rng, m)))(
        random_model(rng, max_endo=4, max_exo=2, allow_ternary=True, name=name, min_endo=3)
    ),
}


def family_cases(rng: random.Random, family: str):
    """(extended model, context, cause, outcome, weights) over 12 models of the family:
    every singleton cause and one pair, drawn lazily from `rng`."""
    for i in range(12):
        model, order = FAMILIES[family](rng, f"{family}{i}")
        ext = ExtendedModel(model, order)
        context = random_context(rng, model)
        world = model.solve(context)
        endo = model.signature.endogenous_names
        outcome_var = endo[-1] if family != "dangling" else next(v for v in endo if v.startswith("X"))
        outcome = atom(outcome_var, world[outcome_var])
        weights = random_weights(rng, model)
        pool = [v for v in endo if v != outcome_var]
        causes = [CandidateCause.of({v: world[v]}) for v in pool]
        causes.append(CandidateCause.of({v: world[v] for v in rng.sample(pool, 2)}))
        for cause in causes:
            yield ext, context, cause, outcome, weights


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_renaming_random_families(family):
    rng = random.Random(f"renaming:{family}")
    checked = 0
    for case in family_cases(rng, family):
        check_renaming(rng, *case)
        checked += 1
    assert checked >= 40


# -- Idle-variable relation ---------------------------------------------------
# An added endogenous variable that nothing reads, and that the order leaves
# free, must leave every verdict, measure, set of witnessed change assignments
# and score unchanged; the `ways` fraction counts it as one more side
# variable.  It reads two of the model's variables, so it changes their
# readers and, through them, the classes a search finds.

IDLE = "IDLE"


def with_idle(rng: random.Random, ext: ExtendedModel) -> ExtendedModel:
    """The model with `IDLE` = 1 iff two of its variables pass a comparison,
    declared at a random position; the order constrains `IDLE` nowhere."""
    model, sig = ext.model, ext.model.signature
    a, b = rng.sample(sig.endogenous_names, 2)
    body = If(Cmp(rng.choice(("<", "==", "!=")), Var(a), Var(b)), Lit(1), Lit(0))
    endo = list(sig.endogenous)
    endo.insert(rng.randint(0, len(endo)), (IDLE, (0, 1)))
    grown = CausalModel(Signature(sig.exogenous, tuple(endo)), [*model.equations.values(), Equation(IDLE, body)],
                        name=model.name)
    order = None
    if ext.order is not None:
        # A pair relates worlds with equal values of a variable it does not
        # mention, so `IDLE` is declared on both sides under every value.
        def setting(p, z):
            return type(p)({**p, IDLE: z})

        order = NormalityOrder(
            grown.signature,
            tuple((setting(left, x), setting(right, y)) for left, right in ext.order.pairs
                  for x, y in itertools.product((0, 1), repeat=2)),
            tuple((Assignment(p) if isinstance(p, World) else p, r) for p, r in ext.order.ranks),
        )
    return ExtendedModel(grown, order)


def idle_ways(ext, context, cause, outcome, ways: Fraction) -> Fraction:
    """The `ways` fraction once a binary side variable that nothing reads
    joins: each other side setting counts twice, and the actual one once."""
    model = ext.model
    ranges = model.signature.ranges
    side = [v for v in model.signature.endogenous_names if v not in cause.settings and v != outcome.event.variable]
    total = math.prod(len(ranges[v]) for v in side) - 1
    actual = model.solve(context)

    def holds_with(x) -> bool:
        world = model.solve(context, {**{v: actual[v] for v in side}, **x})
        return world[outcome.event.variable] == outcome.event.value

    names, x = sorted(cause.settings), dict(cause.settings)
    alternatives = [dict(zip(names, combo)) for combo in itertools.product(*(ranges[v] for v in names))]
    critical_actual = holds_with(x) and not all(holds_with(alt) for alt in alternatives if alt != x)
    return Fraction(2 * ways * total + critical_actual, 2 * total + 1)


def check_idle(rng, ext, context, cause, outcome, weights) -> None:
    image = with_idle(rng, ext)
    before = is_actual_cause(ext, context, cause, outcome, MAX_VARS, record_failures=True)
    after = is_actual_cause(image, context, cause, outcome, MAX_VARS, record_failures=True)
    where = (ext.model.name, cause, image.model.equations[IDLE].body)
    assert (before.is_cause, before.failed_condition, before.measure) == (
        after.is_cause, after.failed_condition, after.measure), where
    assert witnessed(before, ext.model.solve(context)) == witnessed(after, image.model.solve(context)), where
    for w in after.witnesses:
        assert w.world == image.model.solve(context, {**w.x_prime, **w.w_setting}), where
    if not before.is_cause:
        assert bool(before.ac2b_failures) == bool(after.ac2b_failures), where
    weights2 = {**weights, IDLE: Fraction(rng.randint(1, 4))}
    for strategy, strategy2 in (
        (ScoringStrategy(), ScoringStrategy()),
        (ScoringStrategy("exponential"), ScoringStrategy("exponential")),
        (ScoringStrategy.weighted(weights), ScoringStrategy.weighted(weights2)),
    ):
        assert degree_of_responsibility(ext, context, cause, outcome, strategy, MAX_VARS).value == (
            degree_of_responsibility(image, context, cause, outcome, strategy2, MAX_VARS).value), where
    ways = ways_fraction(ext, context, cause, outcome, MAX_VARS)
    grown = ways_fraction(image, context, cause, outcome, MAX_VARS)
    assert grown == idle_ways(ext, context, cause, outcome, ways), where


def test_idle_vote11(corpus):
    rng = random.Random("idle:vote11")
    model, order = corpus["models"]["vote11"]
    ext = ExtendedModel(model, order)
    weights = {v: Fraction(rng.randint(1, 3)) for v in model.signature.endogenous_names}
    for votes in ((0,) * 11, (0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0)):
        context = Context({f"UV{i}": x for i, x in enumerate(votes, start=1)})
        world = model.solve(context)
        for var in ("V1", "V2"):
            check_idle(rng, ext, context, CandidateCause.of({var: world[var]}), atom("W", world["W"]), weights)


def test_idle_firing_squad(corpus):
    rng = random.Random("idle:firing")
    model, order = corpus["models"]["firing_squad"]
    ext = ExtendedModel(model, order)
    weights = random_weights(rng, model)
    for live in (1, 4):
        context = Context({"UL": live})
        for var in ("M1", "M4", "M7"):
            check_idle(rng, ext, context, CandidateCause.of({var: 1}), atom("D", 1), weights)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_idle_random_families(family):
    rng = random.Random(f"idle:{family}")
    checked = 0
    for case in family_cases(rng, family):
        check_idle(rng, *case)
        checked += 1
    assert checked >= 36


# -- Classes-off referee ------------------------------------------------------
# Without classes the search visits every change assignment and decides each
# one itself.  The orbit walk must report exactly what that walk reports:
# the same verdict, measure and AC2(b) failures, and the same witnesses in
# the same order, with the same worlds, in no more solves.


def vote_n(n: int) -> ExtendedModel:
    """n voters and W = 0 while at most (n - 1) / 2 of them vote 1."""
    voters = [f"V{i}" for i in range(1, n + 1)]
    sig = Signature(tuple((f"U{v}", (0, 1)) for v in voters), tuple((v, (0, 1)) for v in voters) + (("W", (0, 1)),))
    total: Expr = Var(voters[0])
    for v in voters[1:]:
        total = Arith("+", total, Var(v))
    eqs = [Equation(v, Var(f"U{v}")) for v in voters]
    eqs.append(Equation("W", If(Cmp("<=", total, Lit((n - 1) // 2)), Lit(0), Lit(1))))
    return ExtendedModel(CausalModel(sig, eqs, name=f"vote{n}"))


def vote_cases(ext: ExtendedModel):
    """(context, cause, outcome) in the landslide context (every vote 0) and
    the narrow one (a majority of one), for a voter of each side and a pair."""
    voters = [v for v in ext.model.signature.endogenous_names if v != "W"]
    n = len(voters)
    for ones in (0, n // 2):
        context = Context({f"U{v}": int(k >= n - ones) for k, v in enumerate(voters)})
        world = ext.model.solve(context)
        outcome = atom("W", world["W"])
        for names in (("V1",), (voters[-1],), ("V1", "V2")):
            yield context, CandidateCause.of({v: world[v] for v in names}), outcome


def no_classes(search: _Search) -> None:
    search.classes = ()


def check_classes_off(ext, context, cause, outcome, weights) -> None:
    where = (ext.model.name, dict(context), cause)
    for options in ({"record_failures": True}, {"first_witness": True}, {"weights": weights, "record_failures": True}):
        shipped_stats, plain_stats = EngineStats(), EngineStats()
        shipped = is_actual_cause(ext, context, cause, outcome, MAX_VARS, shipped_stats, **options)
        with mock.patch.object(_Search, "_find_classes", no_classes):
            plain = is_actual_cause(ext, context, cause, outcome, MAX_VARS, plain_stats, **options)
        assert shipped == plain, (where, options)
        assert [w.world for w in shipped.witnesses] == [w.world for w in plain.witnesses], (where, options)
        assert shipped_stats.solves <= plain_stats.solves, (where, options)


@pytest.mark.parametrize("n", (7, 9, 11))
def test_classes_off_vote(n):
    ext = vote_n(n)
    weights = {v: Fraction(1 + i % 3) for i, v in enumerate(ext.model.signature.endogenous_names)}
    for case in vote_cases(ext):
        check_classes_off(ext, *case, weights)


def test_classes_off_firing_squad(corpus):
    rng = random.Random("classes-off:firing")
    model, order = corpus["models"]["firing_squad"]
    ext = ExtendedModel(model, order)
    weights = random_weights(rng, model)
    for live in (1, 4):
        for var in ("M1", "M4", "M7"):
            check_classes_off(ext, Context({"UL": live}), CandidateCause.of({var: 1}), atom("D", 1), weights)


# Orbit shapes that the families above rarely draw, each with its cause.
ORBIT_SHAPES = {
    # Two interleaved classes: at one change count, the members of an orbit
    # (one A and one B) are not generated in search order.
    "interleaved": (
        """model interleaved {
  exogenous U : {0,1};
  endogenous X : {0,1} = U;
  endogenous A1 : {0,1} = 0; endogenous B1 : {0,1} = 0;
  endogenous A2 : {0,1} = 0; endogenous B2 : {0,1} = 0;
  endogenous A3 : {0,1} = 0; endogenous B3 : {0,1} = 0;
  endogenous S : {0,1,2,3} = B1 + B2 + B3;
  endogenous O : {0,1} = if X + A1 + A2 + A3 + 2 * S <= 3 then 0 else 1;
}""",
        "O",
    ),
    # Ternary voters, whose orbits take two distinct values.
    "ternary": (
        """model ternary {
  exogenous U : {0,1};
  endogenous X : {0,1} = U;
  endogenous V1 : {0,1,2} = 0; endogenous V2 : {0,1,2} = 0;
  endogenous V3 : {0,1,2} = 0; endogenous V4 : {0,1,2} = 0;
  endogenous O : {0,1} = if X + V1 + V2 + V3 + V4 <= 3 then 0 else 1;
}""",
        "O",
    ),
    # Setting one B off also turns Q on, so each witness pins Q: E is not empty.
    "pinned": (
        """model pinned {
  exogenous U : {0,1};
  endogenous X : {0,1} = U;
  endogenous B1 : {0,1} = 1; endogenous B2 : {0,1} = 1; endogenous B3 : {0,1} = 1;
  endogenous P : {0,1} = min(B1, min(B2, B3));
  endogenous Q : {0,1} = if B1 + B2 + B3 <= 2 then 1 else 0;
  endogenous O : {0,1} = max(X, max(P, Q));
}""",
        "O",
    ),
}


@pytest.mark.parametrize("shape", sorted(ORBIT_SHAPES))
def test_classes_off_orbit_shapes(shape):
    text, outcome_var = ORBIT_SHAPES[shape]
    ext = ExtendedModel(*parse_model(text))
    weights = {v: Fraction(1) for v in ext.model.signature.endogenous_names}
    most = 0
    for u in (0, 1):
        context = Context({"U": u})
        world = ext.model.solve(context)
        cause, outcome = CandidateCause.of({"X": world["X"]}), atom(outcome_var, world[outcome_var])
        check_classes_off(ext, context, cause, outcome, weights)
        most = max(most, len(is_actual_cause(ext, context, cause, outcome).witnesses))
    assert most >= 4, shape  # some witness orbit has three members or more


def test_weighted_ties_keep_the_heap_order():
    # A and B are a class.  At measure 2 the weighted order takes {Y}
    # (weight 2) before {A, B} (weights 1 + 1): the smaller set first, though
    # its position comes later.
    ext = ExtendedModel(*parse_model("""model tie {
  exogenous U : {0,1};
  endogenous X : {0,1} = U;
  endogenous A : {0,1} = 1; endogenous B : {0,1} = 1;
  endogenous Y : {0,1} = max(A, B);
  endogenous O : {0,1} = max(X, Y);
}"""))
    weights = {"X": Fraction(1), "A": Fraction(1), "B": Fraction(1), "Y": Fraction(2), "O": Fraction(1)}
    context, cause, outcome = Context({"U": 1}), CandidateCause.of({"X": 1}), atom("O", 1)
    verdict = is_actual_cause(ext, context, cause, outcome, weights=weights)
    assert [dict(w.w_setting) for w in verdict.witnesses] == [{"Y": 0}, {"A": 0, "B": 0}]
    check_classes_off(ext, context, cause, outcome, weights)


def pairs_model(n: int) -> ExtendedModel:
    """n classes of two, A_i and B_i, each feeding its own P_i; setting S
    off alone makes X a cause of O, so every witness has one change."""
    lines = ["model pairs {", "  exogenous U : {0,1}; exogenous V : {0,1};", "  endogenous X : {0,1} = V;",
             "  endogenous S : {0,1} = V;"]
    outcome = "S"
    for i in range(1, n + 1):
        lines.append(f"  endogenous A{i} : {{0,1}} = U; endogenous B{i} : {{0,1}} = U;")
        lines.append(f"  endogenous P{i} : {{0,1}} = min(A{i}, B{i});")
        outcome = f"max({outcome}, P{i})"
    lines += [f"  endogenous O : {{0,1}} = max(X, {outcome});", "}"]
    return ExtendedModel(*parse_model("\n".join(lines)))


def test_many_classes_stop_at_the_first_change_count():
    # Twenty classes of two have 3**20 count vectors.  A search that ends at
    # one change may ask only for the first members' sets of one change.
    ext = pairs_model(20)
    context, cause, outcome = Context({"U": 0, "V": 1}), CandidateCause.of({"X": 1}), atom("O", 1)
    asked = []
    first_members = hp._first_members

    def spy(movable, before, k):
        asked.append((len(before), k))
        return first_members(movable, before, k)

    for options in ({}, {"first_witness": True}):
        shipped_stats, plain_stats = EngineStats(), EngineStats()
        with mock.patch.object(hp, "_first_members", spy):
            shipped = is_actual_cause(ext, context, cause, outcome, 100, shipped_stats, **options)
        with mock.patch.object(_Search, "_find_classes", no_classes):
            plain = is_actual_cause(ext, context, cause, outcome, 100, plain_stats, **options)
        assert shipped == plain and [dict(w.w_setting) for w in shipped.witnesses] == [{"S": 0}], options
        assert shipped_stats.solves <= plain_stats.solves, options
    assert {k for classes, k in asked if classes == 20} == {1}


def class_layouts(rng: random.Random):
    """(movable, classes) pairs: increasing positions, and classes of two or
    more of them, as increasing positions, laid out in adjacent runs,
    interleaved, or not at all."""
    for _ in range(30):
        movable = sorted(rng.sample(range(14), rng.randint(0, 9)))
        yield movable, []
        runs, start = [], 0
        while start < len(movable):
            size = rng.randint(1, 4)
            runs.append(movable[start:start + size])
            start += size
        yield movable, [run for run in runs if len(run) > 1]
        shuffled = rng.sample(movable, len(movable))
        interleaved = []
        while len(shuffled) >= 2 and rng.random() < 0.8:
            size = rng.randint(2, len(shuffled))
            interleaved.append(sorted(shuffled[:size]))
            del shuffled[:size]
        yield movable, interleaved


def test_first_members_take_each_class_as_a_prefix():
    # For every k, the first members' change sets are the k-subsets of the
    # movable positions, in lexicographic order, that take of each class
    # its first members.
    checked = 0
    for movable, classes in class_layouts(random.Random("first-members")):
        before = {b: a for cls in classes for a, b in zip(cls, cls[1:])}
        for k in range(len(movable) + 1):
            want = [
                c for c in itertools.combinations(movable, k)
                if all(cls[:len(set(cls) & set(c))] == [i for i in cls if i in c] for cls in classes)
            ]
            assert list(hp._first_members(movable, before, k)) == want, (movable, classes, k)
            checked += bool(classes) and 0 < k < len(movable)
    assert checked >= 100


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_classes_off_random_families(family):
    rng = random.Random(f"classes-off:{family}")
    checked = 0
    for case in family_cases(rng, family):
        check_classes_off(*case)
        checked += 1
    assert checked >= 36


# -- Print/parse relation -----------------------------------------------------
# Printing a model and parsing it back, with no renaming, gives the same
# model: every answer and every work counter stays the same.


def reprinted(ext: ExtendedModel) -> ExtendedModel:
    return ExtendedModel(*parse_model(print_model(ext.model, ext.order)))


def answers(ext, context, cause, outcome, weights) -> list:
    """(answer, (solves, subset checks)) for a `cause` query and the
    responsibility strategies, each from a fresh search."""
    calls = [
        lambda stats: is_actual_cause(ext, context, cause, outcome, MAX_VARS, stats),
        *(
            lambda stats, strategy=strategy: degree_of_responsibility(ext, context, cause, outcome, strategy, MAX_VARS,
                                                                      stats)
            for strategy in (ScoringStrategy(), ScoringStrategy("ways"), ScoringStrategy.weighted(weights))
        ),
    ]
    out = []
    for call in calls:
        stats = EngineStats()
        answer = call(stats)
        worlds = [w.world for w in getattr(answer, "witnesses", ())]
        out.append((answer, worlds, (stats.solves, stats.subset_checks)))
    return out


def check_reprint(ext, context, cause, outcome, weights) -> None:
    image = reprinted(ext)
    assert image.model == ext.model, ext.model.name
    assert answers(ext, context, cause, outcome, weights) == answers(image, context, cause, outcome, weights), (
        ext.model.name, cause)


def test_reprint_vote11(corpus):
    model, order = corpus["models"]["vote11"]
    ext = ExtendedModel(model, order)
    weights = {v: Fraction(1 + i % 3) for i, v in enumerate(model.signature.endogenous_names)}
    for votes in ((0,) * 11, (0,) * 6 + (1,) * 5):
        context = Context({f"UV{i}": x for i, x in enumerate(votes, start=1)})
        world = model.solve(context)
        for var in ("V1", "V11"):
            check_reprint(ext, context, CandidateCause.of({var: world[var]}), atom("W", world["W"]), weights)


def test_reprint_firing_squad(corpus):
    rng = random.Random("reprint:firing")
    model, order = corpus["models"]["firing_squad"]
    ext = ExtendedModel(model, order)
    weights = random_weights(rng, model)
    for live in (1, 4):
        for var in ("M1", "M4"):
            check_reprint(ext, Context({"UL": live}), CandidateCause.of({var: 1}), atom("D", 1), weights)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_reprint_random_families(family):
    rng = random.Random(f"reprint:{family}")
    checked = 0
    for case in family_cases(rng, family):
        check_reprint(*case)
        checked += 1
    assert checked >= 36


# -- Equivalent-body relation -------------------------------------------------
# Replacing a body by an equal function changes no answer: no verdict,
# witness list, score or NESS set.  Every body is first clamped to its range
# with `min` and `max`, which it already lies in, so that every model has
# both; then each `min(a, b)` is written `if a <= b then a else b` and each
# `max(a, b)` `if a <= b then b else a`.  The work counters are not
# compared: the forms fold differently, so a search can find other classes.


def clamped(ext: ExtendedModel) -> ExtendedModel:
    model, sig = ext.model, ext.model.signature
    equations = [
        Equation(v, MinMax("min", MinMax("max", model.equations[v].body, Lit(values[0])), Lit(values[-1])))
        for v, values in sig.endogenous
    ]
    return ExtendedModel(CausalModel(sig, equations, name=model.name), ext.order)


def unfolded_expr(node):
    """`node` with each `min` and `max` written as an `if`."""
    if isinstance(node, (Var, Lit)):
        return node
    parts = [
        unfolded_expr(value) if isinstance(value, (Expr, Cond)) else value
        for value in (getattr(node, f.name) for f in dataclasses.fields(node))
    ]
    if isinstance(node, MinMax):
        _op, a, b = parts
        return If(Cmp("<=", a, b), a, b) if node.op == "min" else If(Cmp("<=", a, b), b, a)
    return type(node)(*parts)


def unfolded(ext: ExtendedModel) -> ExtendedModel:
    model = ext.model
    equations = [Equation(eq.target, unfolded_expr(eq.body)) for eq in model.equations.values()]
    return ExtendedModel(CausalModel(model.signature, equations, name=model.name), ext.order)


def body_answers(ext, context, cause, outcome, weights) -> list:
    """The `cause` answer and the responsibility scores, with their witness
    worlds, and for a single-event cause its NESS set."""
    out: list = [(answer, worlds) for answer, worlds, _work in answers(ext, context, cause, outcome, weights)]
    if len(cause.settings) == 1:
        [(v, x)] = cause.settings.items()
        out.append(is_ness_cause(ext.model, context, PrimitiveEvent(v, x), outcome))
    return out


def check_equivalent_bodies(ext, context, cause, outcome, weights) -> None:
    image = clamped(ext)
    want = body_answers(ext, context, cause, outcome, weights)
    for other in (image, unfolded(image)):
        assert body_answers(other, context, cause, outcome, weights) == want, (ext.model.name, cause)


def test_equivalent_bodies_vote11(corpus):
    model, order = corpus["models"]["vote11"]
    ext = ExtendedModel(model, order)
    weights = {v: Fraction(1 + i % 3) for i, v in enumerate(model.signature.endogenous_names)}
    for votes in ((0,) * 11, (0,) * 6 + (1,) * 5):
        context = Context({f"UV{i}": x for i, x in enumerate(votes, start=1)})
        world = model.solve(context)
        check_equivalent_bodies(ext, context, CandidateCause.of({"V1": world["V1"]}), atom("W", world["W"]), weights)


def test_equivalent_bodies_firing_squad(corpus):
    rng = random.Random("bodies:firing")
    model, order = corpus["models"]["firing_squad"]
    ext = ExtendedModel(model, order)
    weights = random_weights(rng, model)
    for live, var in ((1, "M1"), (4, "M1")):  # a cause, and a cut-off rifle
        check_equivalent_bodies(ext, Context({"UL": live}), CandidateCause.of({var: 1}), atom("D", 1), weights)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_equivalent_bodies_random_families(family):
    rng = random.Random(f"bodies:{family}")
    checked = 0
    for case in family_cases(rng, family):
        check_equivalent_bodies(*case)
        checked += 1
    assert checked >= 36


# -- Intervention relation ----------------------------------------------------
# A blame situation's post-action model (`CausalModel.intervene`) shares its
# parent's solve order and reader lists and starts a fold memo of its own.
# Queries on it give the same verdicts, witnesses, scores, NESS sets and
# `stats` as on a model built afresh from the intervened equations, each
# action variable's body a `Lit`.  The parent answers the same queries first,
# as in a batch, so that a memo it shared would be full.


def rebuilt(model: CausalModel, action: dict[str, int]) -> CausalModel:
    equations = [Equation(v, Lit(action[v])) if v in action else eq for v, eq in model.equations.items()]
    return CausalModel(model.signature, equations, name=model.name)


def situation_answers(ext, context, outcome_var, weights) -> list:
    """For each event of the solved world outside the outcome, as a cause of
    the outcome's solved value: the `cause` answer with its failures and
    witness worlds, the responsibility scores and, on models of at most six
    endogenous variables, the NESS set, each with its `stats`.  (A NESS
    search over firing_squad's eleven takes about 0.1 s.)"""
    world = ext.model.solve(context)
    outcome = atom(outcome_var, world[outcome_var])
    strategies = (ScoringStrategy(), ScoringStrategy("ways"), ScoringStrategy.weighted(weights))
    out = []
    for v in ext.model.signature.endogenous_names:
        if v == outcome_var:
            continue
        cause = CandidateCause.of({v: world[v]})
        calls = [
            lambda stats: is_actual_cause(ext, context, cause, outcome, MAX_VARS, stats, record_failures=True),
            *(lambda stats, s=s: degree_of_responsibility(ext, context, cause, outcome, s, MAX_VARS, stats)
              for s in strategies),
        ]
        if len(world) <= 6:
            calls.append(lambda stats: is_ness_cause(ext.model, context, PrimitiveEvent(v, world[v]), outcome, stats))
        for call in calls:
            stats = EngineStats()
            answer = call(stats)
            worlds = [w.world for w in getattr(answer, "witnesses", ())]
            out.append((v, answer, worlds, dataclasses.asdict(stats)))
    return out


def check_intervened(situations, action: dict[str, int], outcome_var: str, weights) -> None:
    """The relation on each (extended model, context) of `situations`; one
    post-action model per model, as `degree_of_blame` builds it."""
    for ext, context in situations:
        situation_answers(ext, context, outcome_var, weights)
    posts = {}
    for ext, context in situations:
        if id(ext.model) not in posts:
            posts[id(ext.model)] = (
                ExtendedModel(ext.model.intervene(action), ext.order),
                ExtendedModel(rebuilt(ext.model, action), ext.order),
            )
        post, fresh = posts[id(ext.model)]
        assert situation_answers(post, context, outcome_var, weights) == (
            situation_answers(fresh, context, outcome_var, weights)), (ext.model.name, action, context)


def state_situations(corpus, name: str) -> list:
    models = corpus["models"]
    exts = {}
    for decl in corpus["states"][name].situations:
        if decl.model_name not in exts:
            exts[decl.model_name] = ExtendedModel(*models[decl.model_name])
    return [(exts[decl.model_name], Context(dict(decl.context))) for decl in corpus["states"][name].situations]


# Firing_uniform's first three situations: the action's rifle live, and two
# others; its seven more differ from the last two only by the live rifle.
@pytest.mark.parametrize("state, outcome_var, action_var, count", [
    ("firing_uniform", "D", "M1", 3),
    ("suzy_prior_permissive", "BS", "ST", 4),
    ("suzy_prior_restrictive", "BS", "ST", 4),
])
def test_intervened_blame_states(corpus, state, outcome_var, action_var, count):
    situations = state_situations(corpus, state)[:count]
    model = situations[0][0].model
    weights = random_weights(random.Random(f"intervened:{state}"), model)
    for value in model.signature.ranges[action_var]:
        check_intervened(situations, {action_var: value}, outcome_var, weights)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_intervened_random_families(family):
    rng = random.Random(f"intervened:{family}")
    for i in range(4):
        model, order = FAMILIES[family](rng, f"{family}{i}")
        ext = ExtendedModel(model, order)
        endo = model.signature.endogenous_names
        outcome_var = endo[-1] if family != "dangling" else next(v for v in endo if v.startswith("X"))
        targets = rng.sample([v for v in endo if v != outcome_var], 1 + i % 2)
        action = {v: rng.choice(model.signature.ranges[v]) for v in targets}
        situations = [(ext, random_context(rng, model)) for _ in range(2)]
        check_intervened(situations, action, outcome_var, random_weights(rng, model))
