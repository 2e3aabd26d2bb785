import itertools
import random

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from causelab.dsl import MAX_BODY_DEPTH, parse_model, print_model
from causelab.model import (
    Arith,
    BoolOp,
    CausalModel,
    Cond,
    Context,
    CycleError,
    Equation,
    Expr,
    If,
    Cmp,
    Intervention,
    Lit,
    MinMax,
    ModelError,
    Not,
    RangeViolationError,
    Signature,
    TotalityError,
    UnknownVariableError,
    Var,
    World,
    _covers,
    compile_body,
)
from bodyeval import evaluate, references
from randmodels import (
    random_context,
    random_dangling_model,
    random_model,
    random_selector_model,
    random_threshold_model,
)


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
        with pytest.raises(ModelError, match="missing exogenous variable 'U3'") as exc_info:
            forest_fire().solve(Context({"U1": 1, "U2": 1}))
        assert exc_info.value.category == "semantic"
        with pytest.raises(RangeViolationError):
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
        with pytest.raises(UnknownVariableError):
            model.intervene({"XX": 0})
        with pytest.raises(RangeViolationError):
            model.intervene({"ML": 9})
        with pytest.raises(UnknownVariableError, match="'U1' is not endogenous"):
            model.intervene({"U1": 0})  # exogenous targets are rejected


class TestAssignmentMapping:
    """`in` and `get` on each kind of assignment, as a read-only mapping."""

    @pytest.mark.parametrize("kind", [Context, World, Intervention])
    def test_membership_and_get(self, kind):
        a = kind({"X": 1, "Y": 0})
        assert "X" in a and "Y" in a
        assert "Z" not in a and 1 not in a
        assert a.get("X") == 1 and a.get("Y", 7) == 0
        assert a.get("Z") is None and a.get("Z", 7) == 7
        assert "X" not in kind()

    @pytest.mark.parametrize("kind", [Context, World, Intervention])
    def test_unhashable_key_raises(self, kind):
        a = kind({"X": 1})
        with pytest.raises(TypeError):
            [] in a  # noqa: B015
        with pytest.raises(TypeError):
            a.get([])
        with pytest.raises(TypeError):
            a.get({}, 0)


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


def _rescan_order(model: CausalModel) -> tuple[str, ...]:
    """The topological order by rescanning: at each step, the first-declared
    variable whose inputs are all placed."""
    names = model.signature.endogenous_names
    inputs = {v: set(references(model.equations[v].body)) & set(names) for v in names}
    order, placed, remaining = [], set(), list(names)
    while remaining:
        v = next(v for v in remaining if inputs[v] <= placed)
        order.append(v)
        placed.add(v)
        remaining.remove(v)
    return tuple(order)


def _dag_model(rng: random.Random, n: int) -> CausalModel:
    """`n` variables, each reading up to three before it in a hidden order,
    declared in another random order."""
    hidden = [f"X{i}" for i in range(n)]
    rng.shuffle(hidden)
    equations = []
    for k, v in enumerate(hidden):
        body: Expr = Var("U")
        for name in rng.sample(hidden[:k], min(k, rng.randint(0, 3))):
            body = MinMax("max", body, Var(name))
        equations.append(Equation(v, body))
    declared = rng.sample(hidden, n)
    return CausalModel(Signature((("U", (0, 1)),), tuple((v, (0, 1)) for v in declared)), equations)


def _cyclic_model_equations(rng: random.Random, n: int) -> tuple[Signature, list[Equation]]:
    """`n` variables, each reading up to three others, never itself; the
    first- and last-declared ones read each other, so there is a cycle."""
    names = [f"X{i}" for i in range(n)]
    rng.shuffle(names)
    equations = []
    for k, v in enumerate(names):
        others = [r for r in names if r != v]
        body: Expr = Var(names[-1 - k]) if k in (0, n - 1) else Var("U")
        for name in rng.sample(others, min(len(others), rng.randint(0, 3))):
            body = MinMax("max", body, Var(name))
        equations.append(Equation(v, body))
    return Signature((("U", (0, 1)),), tuple((v, (0, 1)) for v in names)), equations


def _reference_cycle(names: tuple[str, ...], equations: list[Equation]) -> list[str]:
    """The cycle a rescan leaves: place the first-declared variable whose
    inputs are all placed until none is left, then from the first unplaced
    variable follow each one's first unplaced input, by name, until a
    variable comes round again."""
    inputs = {eq.target: sorted(set(references(eq.body)) & set(names)) for eq in equations}
    placed, remaining = set(), list(names)
    while ready := [v for v in remaining if set(inputs[v]) <= placed]:
        placed.add(ready[0])
        remaining.remove(ready[0])
    seen = []
    v = remaining[0]
    while v not in seen:
        seen.append(v)
        v = next(d for d in inputs[v] if d in remaining)
    return seen[seen.index(v):] + [v]


class TestValidation:
    def test_cycle_detected(self):
        sig = Signature(exogenous=(("U", (0, 1)),), endogenous=(("X", (0, 1)), ("Y", (0, 1))))
        with pytest.raises(CycleError) as exc_info:
            CausalModel(sig, [Equation("X", Var("Y")), Equation("Y", Var("X"))])
        assert exc_info.value.cycle == ("X", "Y", "X")
        assert exc_info.value.variable == "X"

    def test_self_reference_is_a_cycle_or_error(self):
        sig = Signature(exogenous=(("U", (0, 1)),), endogenous=(("X", (0, 1)),))
        with pytest.raises(CycleError, match="equation for 'X' references itself") as exc_info:
            CausalModel(sig, [Equation("X", Var("X"))])
        assert exc_info.value.cycle == ("X", "X")
        assert exc_info.value.variable == "X"

    @pytest.mark.parametrize("seed", range(40))
    def test_topological_order_is_the_rescan_order_on_random_dags(self, seed):
        rng = random.Random(seed)
        model = _dag_model(rng, rng.randint(1, 30))
        assert model._topo_order == _rescan_order(model)

    def test_topological_order_of_a_reversed_chain(self):
        # X1 = X2, ..., X500 = U: the rescan places the last-declared first.
        n = 500
        names = [f"X{i}" for i in range(1, n + 1)]
        sig = Signature((("U", (0, 1)),), tuple((v, (0, 1)) for v in names))
        model = CausalModel(sig, [Equation(v, Var(r)) for v, r in zip(names, names[1:] + ["U"])])
        assert model._topo_order == _rescan_order(model) == tuple(reversed(names))

    @pytest.mark.parametrize("seed", range(40))
    def test_cycle_reported_is_the_rescan_walks_on_random_graphs(self, seed):
        rng = random.Random(seed)
        sig, equations = _cyclic_model_equations(rng, rng.randint(2, 30))
        expected = _reference_cycle(sig.endogenous_names, equations)
        with pytest.raises(CycleError) as exc_info:
            CausalModel(sig, equations)
        assert str(exc_info.value) == f"cyclic equations: {' -> '.join(expected)}"
        assert exc_info.value.cycle == tuple(expected)

    def test_non_total_equation_rejected(self):
        sig = Signature(exogenous=(("U", (0, 1)),), endogenous=(("X", (0, 1)), ("Y", (0, 1))))
        with pytest.raises(TotalityError) as exc_info:
            CausalModel(sig, [Equation("X", Var("U")), Equation("Y", Arith("+", Var("X"), Lit(1)))])
        assert exc_info.value.variable == "Y"

    def test_unknown_reference_rejected(self):
        sig = Signature(exogenous=(("U", (0, 1)),), endogenous=(("X", (0, 1)),))
        with pytest.raises(UnknownVariableError):
            CausalModel(sig, [Equation("X", Var("Z"))])
        # compile_body names the first one written, the condition's first
        with pytest.raises(UnknownVariableError, match="^undeclared variable 'Z'$") as exc_info:
            compile_body(If(Cmp("==", Var("Z"), Var("U")), Var("W"), Lit(0)), sig.positions, sig.ranges)
        assert exc_info.value.variable == "Z"

    def test_equations_must_match_the_endogenous_variables(self):
        sig = Signature(exogenous=(("U", (0, 1)),), endogenous=(("X", (0, 1)), ("Y", (0, 1))))
        with pytest.raises(ModelError, match=r"missing equation for \['Y'\]"):
            CausalModel(sig, [Equation("X", Var("U"))])
        with pytest.raises(ModelError, match=r"equation for non-endogenous variable \['U'\]"):
            CausalModel(sig, [Equation("X", Var("U")), Equation("Y", Var("U")), Equation("U", Lit(0))])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ModelError):
            Signature(exogenous=(("U", (0, 1)),), endogenous=(("U", (0, 1)),))

    def test_empty_range_rejected(self):
        with pytest.raises(RangeViolationError):
            Signature(exogenous=(("U", ()),), endogenous=())


def _one_body(body, target_range, exo_range=(0, 1)):
    sig = Signature(exogenous=(("U", exo_range),), endogenous=(("X", target_range),))
    return CausalModel(sig, [Equation("X", body)])


def _bounds(body, ranges):
    """The interval `compile_body` bounds `body` by over `ranges`."""
    return compile_body(body, dict.fromkeys(ranges, 0), ranges)[1]


class TestTotalityPaths:
    """Interval bounds prove a body total without evaluating it; a body they
    do not prove is evaluated on every binding, as before."""

    def test_bounds_of_each_node(self):
        ranges = {"U": (0, 1, 2), "N": (1, 5)}
        u, n = Var("U"), Var("N")
        assert _bounds(Lit(3), ranges) == (3, 3)
        assert _bounds(u, ranges) == (0, 2)
        assert _bounds(Arith("+", u, n), ranges) == (1, 7)
        assert _bounds(Arith("-", u, n), ranges) == (-5, 1)
        assert _bounds(Arith("*", Arith("-", u, n), n), ranges) == (-25, 5)
        assert _bounds(MinMax("min", u, n), ranges) == (0, 2)
        assert _bounds(MinMax("max", u, n), ranges) == (1, 5)
        # the condition does not narrow it: the hull of both branches
        assert _bounds(If(Cmp("==", u, Lit(0)), Lit(7), n), ranges) == (1, 7)

    def test_covers_is_interval_inside_range(self):
        assert _covers((0, 1, 2), 0, 2) and _covers((0, 1, 3), 1, 1) and _covers((0, 1, 3), 3, 3)
        assert not _covers((0, 2), 0, 2)  # a gap
        assert not _covers((0, 1), -1, 0) and not _covers((0, 1), 1, 2) and not _covers((0, 1), 2, 2)

    def test_gapped_range_total_by_enumeration(self):
        body = If(Cmp("==", Var("U"), Lit(0)), Lit(0), Lit(2))
        assert not _covers((0, 2), *_bounds(body, {"U": (0, 1)}))
        model = _one_body(body, (0, 2))
        assert [model.solve(u)["X"] for u in model.enumerate_contexts()] == [0, 2]

    def test_mixed_sign_product_total_by_enumeration(self):
        uu = Arith("*", Var("U"), Var("U"))
        body = Arith("-", uu, uu)
        assert _bounds(body, {"U": (0, 1, 2)}) == (-4, 4)
        model = _one_body(body, (0,), exo_range=(0, 1, 2))
        assert {model.solve(u)["X"] for u in model.enumerate_contexts()} == {0}


_FAMILIES = {
    "random": lambda rng: random_model(rng, max_endo=5, allow_ternary=True),
    "threshold": random_threshold_model,
    "selector": random_selector_model,
    "dangling": random_dangling_model,
}
_DERANDOMIZED = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def _assert_bounds_sound(body, ranges):
    """The bounds `compile_body` gives hold every value of the body, and the
    variables it lists are the body's, as written."""
    _, (lo, hi), reads = compile_body(body, {name: i for i, name in enumerate(ranges)}, ranges)
    assert reads == references(body)
    refs = sorted(set(reads))
    for combo in itertools.product(*(ranges[r] for r in refs)):
        assert lo <= evaluate(body, dict(zip(refs, combo))) <= hi, combo


@_DERANDOMIZED
@given(rng=st.randoms(use_true_random=False), family=st.sampled_from(sorted(_FAMILIES)))
def test_bounds_hold_every_value_of_generated_equations(rng, family):
    model = _FAMILIES[family](rng)
    ranges = model.signature.ranges
    for eq in model.equations.values():
        note(repr(eq))
        _assert_bounds_sound(eq.body, ranges)


# Unclamped trees over ranges with negative values and gaps: sums,
# differences and products of mixed sign.
_BOUND_RANGES = {"A": (0, 1), "B": (-2, 0, 3), "C": (-1, 4)}
_EXPRS = st.recursive(
    st.one_of(st.builds(Lit, st.integers(-3, 3)), st.builds(Var, st.sampled_from(sorted(_BOUND_RANGES)))),
    lambda sub: st.one_of(
        st.builds(Arith, st.sampled_from(["+", "-", "*"]), sub, sub),
        st.builds(MinMax, st.sampled_from(["min", "max"]), sub, sub),
        st.builds(If, st.builds(Cmp, st.sampled_from(["==", "<"]), sub, sub), sub, sub),
    ),
    max_leaves=8,
)


@_DERANDOMIZED
@given(body=_EXPRS)
def test_bounds_hold_every_value_of_arbitrary_bodies(body):
    _assert_bounds_sound(body, _BOUND_RANGES)


def _assert_compiled_as_evaluated(body, ranges, positions):
    """`compile_body` agrees with the tree walk on every binding of the
    body's references, and lists them as written.  Slots the body does not
    read hold None, so reading a wrong slot fails."""
    compiled, _, reads = compile_body(body, positions, ranges)
    assert reads == references(body)
    refs = sorted(set(reads))
    env = [None] * len(positions)
    for combo in itertools.product(*(ranges[r] for r in refs)):
        binding = dict(zip(refs, combo))
        for r, value in binding.items():
            env[positions[r]] = value
        assert compiled(env) == evaluate(body, binding), (body, binding)


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_compiled_bodies_of_generated_models_match_the_evaluator(family):
    rng = random.Random(f"compiled:{family}")
    for _ in range(40):
        model = _FAMILIES[family](rng)
        sig = model.signature
        for eq in model.equations.values():
            _assert_compiled_as_evaluated(eq.body, sig.ranges, sig.positions)


def test_model_references_are_what_each_body_reads(corpus):
    """`CausalModel.references` on the corpus, the generated families and
    models with some equations intervened on, which read nothing."""
    rng = random.Random("references")
    models = [model for model, _ in corpus["models"].values()]
    models += [_FAMILIES[family](rng) for family in sorted(_FAMILIES) for _ in range(20)]
    for model in models:
        names = model.signature.endogenous_names
        world = model.solve(next(model.enumerate_contexts()))
        iv = {v: world[v] for v in rng.sample(names, rng.randint(1, len(names)))}
        intervened = model.intervene(iv)
        for m in (model, intervened):
            assert m.references == {v: frozenset(references(eq.body)) for v, eq in m.equations.items()}, m.name
        assert all(intervened.references[v] == frozenset() for v in iv)


@_DERANDOMIZED
@given(body=_EXPRS)
def test_compiled_arbitrary_bodies_match_the_evaluator(body):
    positions = {name: i for i, name in enumerate(reversed(sorted(_BOUND_RANGES)))}
    _assert_compiled_as_evaluated(body, _BOUND_RANGES, positions)


def _depth(node) -> int:
    children = [c for c in vars(node).values() if isinstance(c, (Expr, Cond))]
    return 1 + max(map(_depth, children), default=0)


def test_compiled_body_at_the_depth_bound_matches_the_evaluator():
    # Every node kind, each wrapped once around the body built so far, until
    # the tree is exactly as deep as the parser accepts.
    u, v = Var("U"), Var("V")
    wraps = [  # each adds 1, 2, 2, 4, 2 or 1 levels; printed, each reparses as built
        lambda e: MinMax("max", Lit(0), e),
        lambda e: Arith("-", MinMax("min", e, u), v),
        lambda e: If(Cmp("<", e, Lit(2)), v, Lit(1)),
        lambda e: If(Not(BoolOp("&&", Cmp("==", u, Lit(1)), Cmp("<=", e, v))), Lit(2), u),
        lambda e: Arith("*", MinMax("max", e, v), Lit(2)),
        lambda e: If(BoolOp("||", Cmp("!=", v, Lit(0)), Cmp("<", u, v)), e, u),
    ]
    body, i = u, 0
    while _depth(body) + 5 <= MAX_BODY_DEPTH:  # leaves room for a last max(0, _)
        body, i = wraps[i % len(wraps)](body), i + 1
    while _depth(body) < MAX_BODY_DEPTH:
        body = wraps[0](body)
    assert _depth(body) == MAX_BODY_DEPTH
    ranges = {"U": (0, 1, 2), "V": (0, 1, 3)}
    values = {evaluate(body, dict(zip(ranges, combo))) for combo in itertools.product(*ranges.values())}
    sig = Signature(exogenous=tuple(ranges.items()), endogenous=(("X", tuple(sorted(values))),))
    model = CausalModel(sig, [Equation("X", body)], name="deep")
    reparsed, _order = parse_model(print_model(model))  # within the parser's bound
    assert reparsed == model
    _assert_compiled_as_evaluated(body, ranges, sig.positions)


class TestErrorClasses:
    """Each raise site picks the class, and so the diagnostic category."""

    def test_categories(self):
        assert ModelError.category == "semantic"
        assert UnknownVariableError.category == "unknown variable"
        assert RangeViolationError.category == "range violation"
        assert CycleError.category == "cycle"
        assert TotalityError.category == "non-total equation"

    def test_check_value(self):
        sig = forest_fire().signature
        with pytest.raises(UnknownVariableError, match="unknown variable 'XX'"):
            sig.check_value("XX", 0)
        with pytest.raises(RangeViolationError, match="outside the range of 'U3'"):
            sig.check_value("U3", 3)

    def test_unsorted_range(self):
        with pytest.raises(RangeViolationError, match="must be sorted"):
            Signature(exogenous=(("U", (1, 0)),), endogenous=())


class TestInvariants:
    """Spec invariants, spot-checked on the desk model and random models."""

    def _fixed_point(self, model: CausalModel, context: Context):
        world = model.solve(context)
        env = dict(context)
        env.update(world)
        for var, eq in model.equations.items():
            assert evaluate(eq.body, env) == world[var]

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
            assert model.solve(u, pins) == model.intervene(pins).solve(u)


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
                world = inner.solve(u, pins)
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
