import itertools
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causelab import dsl
from causelab.cli import corpus_dir
from causelab.dsl import (
    BlameQuery,
    CauseQuery,
    DslError,
    EvalQuery,
    NessQuery,
    RespQuery,
    _Parser,
    _render_expr,
    parse_model,
    parse_query,
    parse_states,
    print_model,
    print_query,
    print_states,
)
from causelab.formula import AndF, Atom, CausalFormula, NotF, OrF, atom, conj, disj
from causelab.model import (
    Arith,
    Assignment,
    BoolOp,
    CausalModel,
    Cmp,
    Cond,
    Equation,
    Expr,
    If,
    Intervention,
    Lit,
    MinMax,
    ModelError,
    Signature,
    Var,
)
from causelab.normality import NormalityOrder
from bodyeval import references
from randmodels import (
    LEXER_PIECES,
    random_block_model,
    random_context,
    random_dangling_model,
    random_doctors_model,
    random_event_formula,
    random_model,
    random_pattern_order,
    random_selector_model,
    random_threshold_model,
)

GOOD_MODEL = """
model demo {
  exogenous U : {0,1};
  endogenous X : {0,1} = U;
  endogenous Y : {0,1,2} = if X == 1 then 2 else 0;
}
"""


class TestParseModel:
    def test_forest_fire_shape(self, corpus):
        model, order = corpus["models"]["forest_fire"]
        assert model.signature.exogenous_names == ("U1", "U2", "U3")
        assert model.signature.endogenous_names == ("L", "ML", "F")
        assert order is None

    def test_basic_model(self):
        model, order = parse_model(GOOD_MODEL)
        assert model.name == "demo"
        assert order is None
        assert model.solve_pinned({"U": 1}, None).as_dict() == {"X": 1, "Y": 2}

    def test_normality_block_parsed(self, corpus):
        _, order = corpus["models"]["assassin"]
        assert order is not None and order.pairs

    def test_comments_and_whitespace_insensitivity(self):
        text = "model m{exogenous U:{0,1};# trailing\nendogenous X:{0,1}=U;}"
        model, _ = parse_model(text)
        assert model.name == "m"


def _single_diag(text):
    with pytest.raises(DslError) as exc_info:
        parse_model(text)
    diags = exc_info.value.diagnostics
    assert len(diags) >= 1
    return diags[0]


class TestModelDiagnostics:
    def test_unknown_variable_with_location(self):
        text = "model m {\n  exogenous U : {0,1};\n  endogenous X : {0,1} = Z;\n}"
        diag = _single_diag(text)
        assert diag.category == "unknown variable"
        assert diag.line == 3
        # points inside the offending token `Z`
        assert text.splitlines()[diag.line - 1][diag.col - 1] == "Z"

    @pytest.mark.parametrize(
        "body",
        [
            "if Z == 0 then W else Q",  # an `if` condition
            "if Z < W then 1 else 0",  # a comparison's left operand
            "if !(Z == 1) then W else 0",  # under `!`
            "min(Z, W)",  # `min`'s first argument
            "if Z == 1 && W == 1 then 1 else 0",  # the left side of `&&`
        ],
    )
    def test_the_first_undeclared_variable_written_is_named(self, body):
        text = f"model m {{\n  exogenous U : {{0,1}};\n  endogenous X : {{0,1}} = {body};\n}}"
        diag = _single_diag(text)
        assert (diag.category, diag.line, diag.col) == ("unknown variable", 3, 26 + body.index("Z"))
        assert diag.message == "equation for 'X' references undeclared variable 'Z'"

    def test_cycle_named(self):
        text = (
            "model m {\n  exogenous U : {0,1};\n"
            "  endogenous X : {0,1} = Y;\n  endogenous Y : {0,1} = X;\n}"
        )
        diag = _single_diag(text)
        assert diag.category == "cycle"
        assert "X" in diag.message and "Y" in diag.message

    def test_self_reference_is_a_cycle_at_its_target(self):
        text = "model m {\n  exogenous U : {0,1};\n  endogenous X : {0,1} = X;\n}"
        diag = _single_diag(text)
        assert (diag.category, diag.line, diag.col) == ("cycle", 3, 14)
        assert text.splitlines()[diag.line - 1][diag.col - 1] == "X"

    def test_non_total_equation(self):
        text = "model m {\n  exogenous U : {0,1};\n  endogenous X : {0,1} = U + 1;\n}"
        diag = _single_diag(text)
        assert diag.category == "non-total equation"
        assert diag.line == 3

    def test_non_total_body_is_reported_at_its_target(self):
        # Interval bounds cannot prove U - 1 total, so it is evaluated, and
        # the first binding out of range is named.
        text = "model m {\n  exogenous U : {0,1};\n  endogenous X : {0,1} = U - 1;\n}"
        diag = _single_diag(text)
        assert (diag.category, diag.line, diag.col, diag.message) == (
            "non-total equation", 3, 14, "equation for 'X' yields -1 outside its range at U=0"
        )

    def test_syntax_error_at_bracket(self):
        text = "model m {\n  exogenous U : {0,1;\n}"
        diag = _single_diag(text)
        assert diag.category == "syntax"
        # points at the offending `;` where `,` or `}` was required
        assert (diag.line, diag.col) == (2, 21)
        assert text.splitlines()[1][diag.col - 1] == ";"

    def test_carriage_returns_are_one_column_each(self):
        # Files are read with universal newlines; text handed to the parser
        # directly keeps its '\r's, each a whitespace column.
        text = "model m {\r\n  exogenous U : {0,1};\r\n  endogenous X : {0,1} = Z;\r\n}\r\n"
        diag = _single_diag(text)
        assert (diag.category, diag.line, diag.col) == ("unknown variable", 3, 26)
        diag = _single_diag("model m {\r\n  exogenous U : {0,1};\r\r\r >")
        assert (diag.category, diag.line, diag.col, diag.message) == (
            "syntax", 2, 27, "unexpected character '>'"
        )

    def test_pattern_range_violation(self):
        text = (
            "model m {\n  exogenous U : {0,1};\n  endogenous X : {0,1} = U;\n"
            "  normality {\n    [X=7] >= [X=0];\n  }\n}"
        )
        diag = _single_diag(text)
        assert diag.category == "range violation"
        assert diag.line == 5
        assert text.splitlines()[diag.line - 1][diag.col - 1] == "7"

    def test_pattern_unknown_variable(self):
        text = (
            "model m {\n  exogenous U : {0,1};\n  endogenous X : {0,1} = U;\n"
            "  normality {\n    [QQ=1] >= [X=0];\n  }\n}"
        )
        diag = _single_diag(text)
        assert diag.category == "unknown variable" and diag.line == 5

    def test_duplicate_variable(self):
        text = "model m {\n  exogenous U : {0,1};\n  endogenous U : {0,1} = 0;\n}"
        diag = _single_diag(text)
        assert diag.category == "syntax" and diag.line == 3

    def test_mutation_corpus_locations_inside_tokens(self, corpus):
        # Mutate a good source in several ways; each diagnostic must point
        # inside the line it blames.
        mutations = [
            GOOD_MODEL.replace("= U;", "= W;", 1),
            GOOD_MODEL.replace("{0,1};", "{0,1}", 1),
            GOOD_MODEL.replace("endogenous Y", "endogenous X", 1),
            GOOD_MODEL.replace("then 2", "then 7", 1),
            GOOD_MODEL.replace("model demo", "model", 1),
        ]
        for text in mutations:
            with pytest.raises(DslError) as exc_info:
                parse_model(text)
            for diag in exc_info.value.diagnostics:
                lines = text.splitlines()
                assert 1 <= diag.line <= len(lines)
                assert 1 <= diag.col <= max(len(lines[diag.line - 1]), 1) + 1


# -- fault placement ---------------------------------------------------------
# A model is taken apart into plain declarations, one fault is injected, and
# the text rendered from them must get exactly one diagnostic: the error the
# model layer raises for the same declarations, placed on the token its
# message names.


def _declarations(model, order):
    sig = model.signature
    endo = [(name, values, model.equations[name].body) for name, values in sig.endogenous]
    return list(sig.exogenous), endo, list(order.pairs if order else ()), list(order.ranks if order else ())


def _render(exo, endo, pairs, ranks) -> str:
    """Model text for declarations that need not be valid; pattern entries
    in the order they were given."""

    def values(vs):
        return "{" + ",".join(map(str, vs)) + "}"

    def world(pattern):
        return "[" + ", ".join(f"{k}={v}" for k, v in pattern.as_dict().items()) + "]"

    lines = ["model m {"]
    lines += [f"  exogenous {name} : {values(vs)};" for name, vs in exo]
    lines += [f"  endogenous {name} : {values(vs)} = {_render_expr(body)};" for name, vs, body in endo]
    if pairs or ranks:
        lines.append("  normality {")
        lines += [f"    rank {world(p)} = {r};" for p, r in ranks]
        lines += [f"    {world(left)} >= {world(right)};" for left, right in pairs]
        lines.append("  }")
    return "\n".join(lines + ["}"]) + "\n"


def _model_layer_error(exo, endo, pairs, ranks) -> tuple[str, str]:
    """(category, message) of the error building the declarations directly raises."""
    try:
        sig = Signature(tuple(exo), tuple((name, vs) for name, vs, _ in endo))
        CausalModel(sig, [Equation(name, body) for name, _, body in endo])
        NormalityOrder(sig, tuple(pairs), tuple(ranks))
    except ModelError as exc:
        return exc.category, str(exc)
    raise AssertionError("the declarations hold no fault")


def _rename(node, old: str, new: str):
    """`node` with every reference to `old` renamed to `new`."""
    if isinstance(node, Var):
        return Var(new) if node.name == old else node
    children = {f.name: getattr(node, f.name) for f in fields(node)}
    return replace(node, **{k: _rename(v, old, new) for k, v in children.items() if isinstance(v, (Expr, Cond))})


def _inject(rng: random.Random, kind: str, exo, endo, pairs, ranks) -> tuple[str, str, int]:
    """Inject one fault of `kind` in place; returns how to find the token it
    is placed on: ("declaration", name, n) for the n-th declaration of
    `name`, or ("first", text, 0) for the first token with that text."""
    if kind == "duplicate":
        name, _ = rng.choice(exo + [(n, vs) for n, vs, _ in endo])
        after = next((i + 1 for i, (n, _, _) in enumerate(endo) if n == name), 0)
        endo.insert(rng.randint(after, len(endo)), (name, (0, 1), Lit(0)))
        return "declaration", name, 1
    if kind in ("undeclared", "self-reference"):
        i = rng.randrange(len(endo))
        target, vs, body = endo[i]
        new = "ZZ" if kind == "undeclared" else target
        refs = sorted(set(references(body)))
        # A body that reads nothing becomes the reference.
        endo[i] = (target, vs, _rename(body, rng.choice(refs), new) if refs else Var(new))
        return ("first", new, 0) if kind == "undeclared" else ("declaration", target, 0)
    name, vs, _ = rng.choice(endo)
    bad = ("QQ", 1) if kind == "pattern variable" else (name, 97)
    entries = [(n, rng.choice(v)) for n, v, _ in rng.sample(endo, rng.randint(0, len(endo)))]
    entries = [e for e in entries if e[0] != bad[0]]
    entries.insert(rng.randint(0, len(entries)), bad)
    pattern = Assignment(entries)
    where = rng.choice(["left", "right", "rank"])
    if where == "rank":
        ranks.insert(rng.randint(0, len(ranks)), (pattern, 0))
    else:
        other = Assignment({name: vs[0]})
        pairs.insert(rng.randint(0, len(pairs)), (pattern, other) if where == "left" else (other, pattern))
    return "first", str(bad[0] if kind == "pattern variable" else bad[1]), 0


_FAULT_KINDS = ("duplicate", "undeclared", "self-reference", "pattern variable", "pattern value")


# A reference placer, apart from the parser's reader: each token of a text
# without characters outside the token classes, with its 1-based line and
# column, found line by line once the line's comment is cut off.
_REFERENCE_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|<=|<-|==|!=|>=|&&|\|\||[^ \t\r]")


def _placed(text: str) -> list[tuple[str, int, int]]:
    return [
        (m.group(), line_no, m.start() + 1)
        for line_no, line in enumerate(text.split("\n"), start=1)
        for m in _REFERENCE_TOKEN.finditer(line.split("#", 1)[0])
    ]


def _fault_models(corpus):
    rng = random.Random(1709)
    models = list(corpus["models"].values())
    for i in range(15):
        model = random_model(rng, allow_ternary=True, name=f"r{i}")
        models.append((model, random_pattern_order(rng, model)))
    models += [random_doctors_model(rng, name=f"d{i}") for i in range(5)]
    return models


class TestFaultPlacement:
    @pytest.mark.parametrize("kind", _FAULT_KINDS)
    def test_one_fault_is_placed_on_the_token_it_names(self, corpus, kind):
        rng = random.Random(kind)
        for model, order in _fault_models(corpus):
            decls = _declarations(model, order)
            assert not {"ZZ", "QQ"} & set(model.signature.ranges)
            how, text, n = _inject(rng, kind, *decls)
            source = _render(*decls)
            with pytest.raises(DslError) as exc_info:
                parse_model(source)
            [diag] = exc_info.value.diagnostics
            assert (diag.category, diag.message) == _model_layer_error(*decls)
            tokens = _placed(source)
            if how == "declaration":
                declared = [b for a, b in zip(tokens, tokens[1:]) if a[0] in ("exogenous", "endogenous")]
                expected = [tok for tok in declared if tok[0] == text][n]
            else:
                expected = next(tok for tok in tokens if tok[0] == text)
            assert (text, diag.line, diag.col) == expected, source
            assert f"'{text}'" in diag.message or diag.message.startswith(f"value {text} ")

    def test_several_faults_report_the_first_kind(self):
        # Fixing the reported fault each time walks through the kinds in
        # their order, whatever the order of the text.
        texts = [_MULTI_FAULT.format(**{**_FIXED, **dict(_FAULTS[k:])}) for k in range(len(_FAULTS))]
        reported = []
        for text in texts:
            with pytest.raises(DslError) as exc_info:
                parse_model(text)
            reported.append([diag.message for diag in exc_info.value.diagnostics])
        assert reported == [[message] for message in _FAULT_MESSAGES]

    def test_the_reported_fault_does_not_depend_on_the_hash_seed(self):
        # The undeclared names of `Y` are a set in the model layer; the first
        # one written is reported under every hash seed.
        script = (
            "import json, sys\n"
            "from causelab.dsl import DslError, parse_model\n"
            "out = []\n"
            "for text in json.load(sys.stdin):\n"
            "    try:\n"
            "        parse_model(text)\n"
            "    except DslError as exc:\n"
            "        out.append([str(d) for d in exc.diagnostics])\n"
            "print(json.dumps(out))\n"
        )
        texts = [_MULTI_FAULT.format(**{**_FIXED, **dict(_FAULTS[k:])}) for k in (0, 1)]
        outputs = []
        for seed in ("0", "1", "2"):
            env = {"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": seed}
            if "PYTHONPATH" in os.environ:  # the package may be importable only from src/
                env["PYTHONPATH"] = os.environ["PYTHONPATH"]
            proc = subprocess.run(
                [sys.executable, "-c", script], input=json.dumps(texts), capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0] == [
            ["<model>:9:14: syntax: duplicate variable 'U'"],
            ["<model>:4:26: unknown variable: equation for 'Y' references undeclared variable 'Z'"],
        ]


# One model holding a fault of every kind the model layer checks, each in a
# slot that `_FIXED` fills harmlessly; `_FAULTS` lists them in the order they
# are reported, which is not the order of the text.
_MULTI_FAULT = """model m {{
  exogenous U : {{0,1}};
  endogenous X : {{0,1}} = {self_reference};
  endogenous Y : {{0,1}} = {undeclared};
  endogenous A : {{0,1}} = {cycle};
  endogenous B : {{0,1}} = A;
  endogenous T : {{0,1}} = {non_total};
  endogenous R : {{0,1}} = 0;
  endogenous {duplicate} : {{0,1}} = 0;
  normality {{
    [{pattern}] >= [X=0];
    rank [R=1] = 0;
    rank [R=1] = {rank};
  }}
}}
"""
_FIXED = dict(
    self_reference="U", undeclared="U", cycle="U", non_total="U", duplicate="V", pattern="X=1", rank="0"
)
_FAULTS = [
    ("duplicate", "U"),
    ("undeclared", "Z * W + Q + S + Z"),
    ("self_reference", "X"),
    ("cycle", "B"),
    ("non_total", "U + 1"),
    ("pattern", "X=7, QQ=1"),
    ("rank", "1"),
]
_FAULT_MESSAGES = [
    "duplicate variable 'U'",
    "equation for 'Y' references undeclared variable 'Z'",
    "equation for 'X' references itself",
    "cyclic equations: A -> B -> A",
    "equation for 'T' yields 2 outside its range at U=1",
    "value 7 is outside the range of 'X'",
    "world ranked twice with different ranks: Assignment(R=1)",
]


# Bodies over U and V, printable or not: arithmetic on either side of
# arithmetic and of an `if`.
_TREES = st.recursive(
    st.one_of(st.builds(Lit, st.integers(0, 3)), st.builds(Var, st.sampled_from(["U", "V"]))),
    lambda sub: st.one_of(
        st.builds(Arith, st.sampled_from(["+", "-", "*"]), sub, sub),
        st.builds(MinMax, st.sampled_from(["min", "max"]), sub, sub),
        st.builds(If, st.builds(Cmp, st.sampled_from(["==", "<"]), sub, sub), sub, sub),
    ),
    max_leaves=10,
)


class TestRoundTrip:
    def test_corpus_files_round_trip(self, corpus):
        for name, (model, order) in corpus["models"].items():
            printed = print_model(model, order)
            model2, order2 = parse_model(printed, origin=f"printed:{name}")
            assert model2 == model, name
            if order is None:
                assert order2 is None
            else:
                assert order2 is not None
                assert set(order2.pairs) == set(order.pairs)
                assert set(order2.ranks) == set(order.ranks)

    def test_an_empty_normality_block_round_trips(self):
        # It declares the order that relates each world only to itself, which
        # is not the flat order of a model without a block.
        model, order = parse_model("model t { exogenous U : {0,1}; endogenous A : {0,1} = U; normality { } }")
        assert order is not None and not order.pairs and not order.ranks
        assert parse_model(print_model(model, order)) == (model, order)
        assert parse_model(print_model(model)) == (model, None)

    @pytest.mark.parametrize("exo, endo", [((-1, 0), (0, 1)), ((0, 1), (-1, 0))])
    def test_a_range_with_negative_values_is_not_printed(self, exo, endo):
        # The surface grammar has no negative integers: the text could not be read back.
        model = CausalModel(Signature((("U", exo),), (("X", endo),)), [Equation("X", Lit(0))], name="neg")
        with pytest.raises(ValueError, match="negative range values"):
            print_model(model)

    def test_random_models_round_trip(self):
        rng = random.Random(2024)
        for i in range(200):
            model = random_model(rng, allow_ternary=True, name=f"rt{i}")
            printed = print_model(model)
            model2, _ = parse_model(printed)
            assert model2 == model
            assert print_model(model2) == printed

    @pytest.mark.parametrize("last", ["U", "if U == 1 then U else 0"])
    def test_mixed_chains_print_as_parsed(self, last):
        # Every chain of up to four `+ - *`, its last factor a variable or
        # an `if`, whose `else` branch takes in nothing after it.
        for n in range(1, 5):
            for ops in itertools.product("+-*", repeat=n):
                body = "".join(f"U {op} " for op in ops) + last
                for text in (body, f"if {body} == 1 then 1 else 0", f"min(max({body}, 0), 1)"):
                    source = f"model c {{ exogenous U : {{0,1}}; endogenous X : {{0,1}} = min(max({text}, 0), 1); }}"
                    model, _ = parse_model(source)
                    printed = print_model(model)
                    assert f"= min(max({text}, 0), 1);" in printed
                    assert parse_model(printed) == (model, None)

    def test_generated_families_round_trip(self):
        rng = random.Random("families")
        for i in range(40):
            for model, order in [
                (random_threshold_model(rng, name=f"t{i}"), None),
                (random_selector_model(rng, name=f"s{i}"), None),
                (random_dangling_model(rng, name=f"g{i}"), None),
                random_doctors_model(rng, name=f"d{i}"),
                random_block_model(rng, name=f"b{i}"),
            ]:
                printed = print_model(model, order)
                model2, order2 = parse_model(printed)
                assert model2 == model
                assert print_model(model2, order2) == printed

    @staticmethod
    def _assert_printed_as_itself_or_not_at_all(body):
        clamped = MinMax("min", MinMax("max", body, Lit(0)), Lit(1))
        model = CausalModel(Signature((("U", (0, 1)), ("V", (0, 2))), (("X", (0, 1)),)), [Equation("X", clamped)])
        try:
            printed = print_model(model)
        except ValueError as exc:
            assert "restructure the tree" in str(exc)
            return
        assert parse_model(printed) == (model, None), printed

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(body=_TREES)
    def test_a_tree_prints_as_itself_or_not_at_all(self, body):
        self._assert_printed_as_itself_or_not_at_all(body)

    def test_every_small_tree_prints_as_itself_or_not_at_all(self):
        # Every tree of up to three `+ - *` or `if` nodes over U and 1.
        trees = [[Var("U"), Lit(1)]]
        cond = Cmp("==", Var("U"), Lit(0))
        for n in range(1, 4):
            trees.append([
                node
                for k in range(n)
                for left, right in itertools.product(trees[k], trees[n - 1 - k])
                for node in (*(Arith(op, left, right) for op in "+-*"), If(cond, left, right))
            ])
        for body in itertools.chain(*trees):
            self._assert_printed_as_itself_or_not_at_all(body)
        assert sum(map(len, trees)) == 5394

    def test_query_round_trip(self):
        texts = [
            "cause L=1 of F=1 in ctx(U1=1,U2=1,U3=1)",
            "resp V1=0 of W=0 in ctx(UV1=0)",
            "eval [X<-0,Y<-1](F=1 & !(L=0)) in ctx(U=1)",
            "blame action ML<-1 of F=1 over state forest_uncertain",
            "ness CP=1 of PD=1 in ctx(UC=1,UD=1,UR=1)",
            "cause A=1 & C=1 of WIN=1 in ctx(UB=1)",
            "eval F=1 | L=1 & ML=1 in ctx()",
        ]
        for text in texts:
            query = parse_query(text)
            assert parse_query(print_query(query)) == query

    def test_state_round_trip(self, corpus):
        base = corpus_dir()
        for entry in sorted(base.iterdir(), key=lambda p: p.name):
            if not entry.name.endswith(".ce"):
                continue
            states = parse_states(entry.read_text(), origin=entry.name)
            assert parse_states(print_states(states)) == states

    def test_corpus_query_files_parse_and_match_expectations(self):
        import json

        base = corpus_dir()
        queries_by_file = {}
        for entry in sorted(base.iterdir(), key=lambda p: p.name):
            if not entry.name.endswith(".cq"):
                continue
            lines = [
                line.strip()
                for line in entry.read_text().splitlines()
                if line.strip() and not line.strip().startswith("#")
            ]
            for line in lines:
                parsed = parse_query(line, origin=entry.name)
                assert parse_query(print_query(parsed)) == parsed
            queries_by_file[entry.name] = set(lines)
        expected = json.loads((base / "expected.json").read_text())
        for item in expected:
            cq_name = item["models"][0].replace(".cm", ".cq")
            assert item["query"] in queries_by_file[cq_name], item["id"]


class TestParseQuery:
    def test_cause_query(self):
        query = parse_query("cause L=1 of F=1 in ctx(U1=1,U2=1,U3=1)")
        assert isinstance(query, CauseQuery)
        assert query.cause == (("L", 1),)
        assert query.context == (("U1", 1), ("U2", 1), ("U3", 1))

    def test_blame_query(self):
        query = parse_query("blame action ML<-1 of F=1 over state forest_uncertain")
        assert isinstance(query, BlameQuery)
        assert query.action == (("ML", 1),) and query.state_name == "forest_uncertain"

    def test_eval_formula_surface(self):
        query = parse_query("eval [X<-0, Y<-1](F=1 & !(L=0)) in ctx(U=1)")
        assert isinstance(query, EvalQuery)
        assert query.formula.prefix.as_dict() == {"X": 0, "Y": 1}
        matrix = query.formula.matrix
        assert isinstance(matrix, AndF) and isinstance(matrix.right, NotF)

    def test_precedence_and_binds_tighter_than_or(self):
        query = parse_query("eval A=1 | B=1 & C=1 in ctx()")
        assert isinstance(query.formula.matrix, OrF)
        assert isinstance(query.formula.matrix.right, AndF)

    def test_unmatched_bracket_is_a_syntax_error(self):
        with pytest.raises(DslError) as exc_info:
            parse_query("eval [X<-0 (F=1) in ctx(U=1)")
        assert exc_info.value.diagnostics[0].category == "syntax"

    def test_ness_and_resp(self):
        assert isinstance(parse_query("ness CP=1 of PD=1 in ctx(UC=1)"), NessQuery)
        assert isinstance(parse_query("resp V1=0 of W=0 in ctx(UV1=0)"), RespQuery)

    def test_duplicate_conjunct_rejected(self):
        with pytest.raises(DslError):
            parse_query("cause L=1 & L=0 of F=1 in ctx(U1=1)")

    def test_chains_fold_leftward(self):
        a, b, c = atom("A", 1), atom("B", 1), atom("C", 1)
        assert _matrix("eval A=1 & B=1 & C=1 in ctx()") == AndF(AndF(a, b), c)
        assert _matrix("eval A=1 | B=1 | C=1 in ctx()") == OrF(OrF(a, b), c)


def _matrix(text: str):
    return parse_query(text).formula.matrix


_U = Var("U")
_UU = Arith("*", _U, _U)


def _eq(name: str) -> Cmp:
    return Cmp("==", Var(name), Lit(1))


def _ev(name: str):
    return atom(name, 1)


# Mixed chains: each operator folds leftward with its own precedence, and
# a tighter one binds its neighbours first.
MIXED_CHAINS = [
    ("body", "U + U * U - U", Arith("-", Arith("+", _U, _UU), _U)),
    ("body", "U * U + U * U", Arith("+", _UU, _UU)),
    ("body", "U - U * U * U + U", Arith("+", Arith("-", _U, Arith("*", _UU, _U)), _U)),
    ("body", "if a == 1 || b == 1 && c == 1 || d == 1 then 1 else 0",
     If(BoolOp("||", BoolOp("||", _eq("a"), BoolOp("&&", _eq("b"), _eq("c"))), _eq("d")), Lit(1), Lit(0))),
    ("body", "if a == 1 && b == 1 || c == 1 && d == 1 then 1 else 0",
     If(BoolOp("||", BoolOp("&&", _eq("a"), _eq("b")), BoolOp("&&", _eq("c"), _eq("d"))), Lit(1), Lit(0))),
    ("query", "A=1 | B=1 & C=1 | D=1", OrF(OrF(_ev("A"), AndF(_ev("B"), _ev("C"))), _ev("D"))),
    ("query", "A=1 & B=1 | C=1 & D=1", OrF(AndF(_ev("A"), _ev("B")), AndF(_ev("C"), _ev("D")))),
    ("query", "A=1 | B=1 & C=1 & D=1", OrF(_ev("A"), AndF(AndF(_ev("B"), _ev("C")), _ev("D")))),
]


@pytest.mark.parametrize("where, text, tree", MIXED_CHAINS, ids=[row[1] for row in MIXED_CHAINS])
def test_mixed_chains_parse_by_precedence(where, text, tree):
    if where == "body":
        p = _Parser(text, "<t>")
        assert dsl._ExprParser(p).parse_expr() == tree
        assert not p.toks[p.pos]
    else:
        assert _matrix(f"eval {text} in ctx()") == tree


def _printed(formula) -> str:
    return print_query(EvalQuery(CausalFormula(Intervention({}), formula), ()))


def _doubled_parentheses(text: str) -> bool:
    """Whether a pair of parentheses directly encloses another pair, as in
    `((F=1 | L=1)) & ML=1`.  A `((` alone may be needed: `A=1 & ((B=1 |
    C=1) & D=1)` is a right-nested `&` whose left operand is an `|`."""
    opened, pairs = [], {}
    for i, char in enumerate(text):
        if char == "(":
            opened.append(i)
        elif char == ")":
            pairs[opened.pop()] = i
    return any(pairs.get(start + 1) == end - 1 for start, end in pairs.items())


# Event formulas as the parser builds them, from texts with explicit
# parentheses, and as trees built directly, by `conj`/`disj` among others.
_FORMULA_TEXTS = st.recursive(
    st.sampled_from(["A=0", "A=1", "B=1", "C=2"]),
    lambda inner: st.one_of(
        inner.map(lambda text: f"!{text}"),
        inner.map(lambda text: f"({text})"),
        st.tuples(inner, st.sampled_from([" & ", " | "]), inner).map("".join),
    ),
    max_leaves=12,
)
_FORMULA_TREES = st.recursive(
    st.builds(atom, st.sampled_from("ABC"), st.integers(0, 2)),
    lambda inner: st.one_of(
        st.builds(NotF, inner),
        st.builds(AndF, inner, inner),
        st.builds(OrF, inner, inner),
        st.lists(inner, min_size=2, max_size=4).map(lambda parts: conj(*parts)),
        st.lists(inner, min_size=2, max_size=4).map(lambda parts: disj(*parts)),
    ),
    max_leaves=12,
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(formula=st.one_of(_FORMULA_TEXTS.map(lambda text: _matrix(f"eval {text} in ctx()")), _FORMULA_TREES))
def test_event_formulas_round_trip_without_doubled_parentheses(formula):
    text = _printed(formula)
    assert _matrix(text) == formula
    assert _printed(_matrix(text)) == text
    assert not _doubled_parentheses(text)


def test_an_or_under_an_and_is_wrapped_once():
    text = "eval (F=1 | L=1) & ML=1 in ctx()"
    assert print_query(parse_query(text)) == text


class TestParseStates:
    def test_probabilities_are_exact(self, corpus):
        decl = corpus["states"]["forest_uncertain"]
        assert [s.probability for s in decl.situations] == [Fraction(1, 3)] * 3

    def test_zero_denominator_rejected(self):
        with pytest.raises(DslError):
            parse_states("state s { situation model=m ctx(U=1) prob=1/0; }")

    def test_empty_state_rejected(self):
        with pytest.raises(DslError):
            parse_states("state s { }")


# Lexer faithfulness: sources built from lexable pieces, so every run of
# characters that is not whitespace or a comment is some token's text.
_PIECES = LEXER_PIECES
_SOURCES = st.builds(
    lambda pieces, tail: "".join(pieces) + tail,
    st.lists(st.sampled_from(_PIECES), max_size=40),
    st.sampled_from(["", "# trailing", "\n"]),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(text=_SOURCES)
def test_lexer_tokens_are_the_source_without_blanks(text):
    p = _Parser(text, "<t>")
    assert p.toks[-1] == ""
    assert "".join(p.toks) == re.sub(r"#[^\n]*|[ \t\r\n]", "", text)
    lines = text.split("\n")
    places = [p.error(at, "syntax", "").diagnostics[0] for at in range(len(p.toks))]
    for tok, diag in zip(p.toks, places):
        assert lines[diag.line - 1][diag.col - 1:diag.col - 1 + len(tok)] == tok
    # The end of input is placed at a trailing comment's '#', or past the text.
    last = lines[-1]
    assert (places[-1].line, places[-1].col) == (len(lines), last.index("#") + 1 if "#" in last else len(last) + 1)


def test_parsing_without_a_fault_places_no_token(monkeypatch):
    # Tokens are placed only for a diagnostic: every document below parses
    # with the placer out of reach.
    rng = random.Random(2310)
    models = [random_model(rng, allow_ternary=True, name=f"p{i}") for i in range(30)]
    texts = [print_model(model, random_pattern_order(rng, model)) for model in models]
    texts += [print_model(*random_doctors_model(rng, name=f"d{i}")) for i in range(5)]
    queries = [
        print_query(EvalQuery(
            CausalFormula(Intervention({}), random_event_formula(rng, model)),
            tuple(random_context(rng, model).items()),
        ))
        for model in models
    ]

    def no_placing(self, at, category, message):
        raise AssertionError(f"token {at} placed for {self.origin}, which parses")

    monkeypatch.setattr(_Parser, "error", no_placing)
    base = corpus_dir()
    for path in sorted(base.iterdir()):
        if path.suffix == ".cm":
            dsl.parse_model_file(path)
        elif path.suffix == ".ce":
            dsl.parse_state_file(path)
        elif path.suffix == ".cq":
            assert dsl.parse_query_file(path)
    for text in texts:
        parse_model(text)
    for text in queries:
        parse_query(text)
