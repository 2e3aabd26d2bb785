"""Text formats for models, queries, and epistemic states.

Three file kinds share one lexer:

  .cm  model files        model NAME { exogenous U : {0,1}; endogenous X : {0,1} = U; ... }
  .cq  query files        one query per line (eval / cause / resp / blame / ness)
  .ce  epistemic states   state NAME { situation model=NAME ctx(...) prob=1/3; ... }

Model files may declare a normality block of rank entries and world-pattern
pairs.  A pattern constrains only the variables it mentions; in a pair, any
variable mentioned on neither side takes equal values in both worlds it
relates.  Patterns are kept as declared, never expanded into worlds.

Parsers report diagnostics with 1-based line and column positions and one of
the categories: syntax, unknown variable, range violation, cycle, non-total
equation.  `#` starts a line comment; whitespace is insignificant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .formula import (
    AndF,
    Atom,
    CausalFormula,
    EventFormula,
    NotF,
    OrF,
    PrimitiveEvent,
)
from .model import (
    Arith,
    Assignment,
    CausalModel,
    Cmp,
    Cond,
    CycleError,
    Equation,
    Expr,
    If,
    Intervention,
    Lit,
    MinMax,
    ModelError,
    BoolOp,
    Not,
    Signature,
    TotalityError,
    Var,
)
from .normality import NormalityOrder


@dataclass(frozen=True)
class Diagnostic:
    category: str  # syntax | unknown variable | range violation | cycle | non-total equation
    message: str
    line: int
    col: int
    origin: str = "<input>"

    def __str__(self) -> str:
        return f"{self.origin}:{self.line}:{self.col}: {self.category}: {self.message}"


class DslError(Exception):
    """Parse or validation failure carrying structured diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_PUNCT = (
    "<=", "<-", "==", "!=", ">=", "&&", "||",
    "{", "}", "(", ")", "[", "]", ",", ";", ":", "=", "<", "!", "+", "-", "*", "/", "&", "|",
)


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | punct | eof
    text: str
    line: int
    col: int


def _lex(text: str, origin: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            tokens.append(Token("int", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("ident", text[start:i], line, col))
            col += i - start
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise DslError(
                [Diagnostic("syntax", f"unexpected character {ch!r}", line, col, origin)]
            )
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser core
# ---------------------------------------------------------------------------


class _SyntaxFail(Exception):
    def __init__(self, diag: Diagnostic):
        self.diag = diag


class _Parser:
    def __init__(self, text: str, origin: str):
        self.origin = origin
        self.tokens = _lex(text, origin)
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, tok: Token, message: str):
        raise _SyntaxFail(Diagnostic("syntax", message, tok.line, tok.col, self.origin))

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != text:
            self.fail(tok, f"expected {text!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def expect_int(self) -> tuple[int, Token]:
        tok = self.peek()
        if tok.kind != "int":
            self.fail(tok, f"expected an integer, found {tok.text or 'end of input'!r}")
        self.advance()
        return int(tok.text), tok

    def expect_ident(self, what: str = "an identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(tok, f"expected {what}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text != word:
            self.fail(tok, f"expected {word!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def at_end(self) -> bool:
        return self.peek().kind == "eof"


# ---------------------------------------------------------------------------
# Expression / condition parsing (model equation bodies)
# ---------------------------------------------------------------------------


class _ExprParser:
    """Equation-body grammar; records variable references with positions."""

    def __init__(self, parser: _Parser):
        self.p = parser
        self.refs: list[tuple[str, Token]] = []

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.p.at_punct("+") or self.p.at_punct("-"):
            op = self.p.advance().text
            node = Arith(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.p.at_punct("*"):
            self.p.advance()
            node = Arith("*", node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        tok = self.p.peek()
        if tok.kind == "int":
            self.p.advance()
            return Lit(int(tok.text))
        if tok.kind == "ident" and tok.text in ("min", "max"):
            self.p.advance()
            self.p.expect_punct("(")
            left = self.parse_expr()
            self.p.expect_punct(",")
            right = self.parse_expr()
            self.p.expect_punct(")")
            return MinMax(tok.text, left, right)
        if tok.kind == "ident" and tok.text == "if":
            self.p.advance()
            cond = self.parse_cond()
            self.p.expect_keyword("then")
            then = self.parse_expr()
            self.p.expect_keyword("else")
            other = self.parse_expr()
            return If(cond, then, other)
        if tok.kind == "ident":
            self.p.advance()
            self.refs.append((tok.text, tok))
            return Var(tok.text)
        self.p.fail(tok, f"expected an expression, found {tok.text or 'end of input'!r}")

    def parse_cond(self) -> Cond:
        node = self.parse_cond_and()
        while self.p.at_punct("||"):
            self.p.advance()
            node = BoolOp("||", node, self.parse_cond_and())
        return node

    def parse_cond_and(self) -> Cond:
        node = self.parse_cond_not()
        while self.p.at_punct("&&"):
            self.p.advance()
            node = BoolOp("&&", node, self.parse_cond_not())
        return node

    def parse_cond_not(self) -> Cond:
        if self.p.at_punct("!"):
            self.p.advance()
            return Not(self.parse_cond_not())
        if self.p.at_punct("("):
            self.p.advance()
            node = self.parse_cond()
            self.p.expect_punct(")")
            return node
        left = self.parse_expr()
        tok = self.p.peek()
        if tok.kind != "punct" or tok.text not in ("==", "!=", "<", "<="):
            self.p.fail(tok, f"expected a comparison operator, found {tok.text or 'end of input'!r}")
        self.p.advance()
        right = self.parse_expr()
        return Cmp(tok.text, left, right)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


@dataclass
class _RawPattern:
    entries: list[tuple[str, int, Token, Token]]  # name, value, name tok, value tok

    def as_dict(self) -> dict[str, int]:
        return {name: value for name, value, _, _ in self.entries}


@dataclass
class _RawModel:
    name: str
    exo: list[tuple[str, tuple[int, ...], Token]] = field(default_factory=list)
    endo: list[tuple[str, tuple[int, ...], Token, Expr, list[tuple[str, Token]]]] = field(default_factory=list)
    pair_decls: list[tuple[_RawPattern, _RawPattern]] = field(default_factory=list)
    rank_decls: list[tuple[_RawPattern, int, Token]] = field(default_factory=list)


def _parse_range(p: _Parser) -> tuple[int, ...]:
    p.expect_punct("{")
    values = [p.expect_int()[0]]
    while p.at_punct(","):
        p.advance()
        values.append(p.expect_int()[0])
    p.expect_punct("}")
    return tuple(sorted(set(values)))


def _parse_world_pattern(p: _Parser) -> _RawPattern:
    p.expect_punct("[")
    entries = []
    while True:
        name_tok = p.expect_ident("a variable name")
        p.expect_punct("=")
        value, value_tok = p.expect_int()
        entries.append((name_tok.text, value, name_tok, value_tok))
        if p.at_punct(","):
            p.advance()
            continue
        break
    p.expect_punct("]")
    return _RawPattern(entries)


def _parse_raw_model(p: _Parser) -> _RawModel:
    p.expect_keyword("model")
    name = p.expect_ident("a model name").text
    p.expect_punct("{")
    raw = _RawModel(name)
    while not p.at_punct("}"):
        tok = p.peek()
        if p.at_keyword("exogenous"):
            p.advance()
            name_tok = p.expect_ident("a variable name")
            p.expect_punct(":")
            values = _parse_range(p)
            p.expect_punct(";")
            raw.exo.append((name_tok.text, values, name_tok))
        elif p.at_keyword("endogenous"):
            p.advance()
            name_tok = p.expect_ident("a variable name")
            p.expect_punct(":")
            values = _parse_range(p)
            p.expect_punct("=")
            ep = _ExprParser(p)
            body = ep.parse_expr()
            p.expect_punct(";")
            raw.endo.append((name_tok.text, values, name_tok, body, ep.refs))
        elif p.at_keyword("normality"):
            p.advance()
            p.expect_punct("{")
            while not p.at_punct("}"):
                if p.at_keyword("rank"):
                    rank_tok = p.advance()
                    patt = _parse_world_pattern(p)
                    p.expect_punct("=")
                    rank, _ = p.expect_int()
                    p.expect_punct(";")
                    raw.rank_decls.append((patt, rank, rank_tok))
                elif p.at_punct("["):
                    left = _parse_world_pattern(p)
                    p.expect_punct(">=")
                    right = _parse_world_pattern(p)
                    p.expect_punct(";")
                    raw.pair_decls.append((left, right))
                else:
                    p.fail(p.peek(), "expected a rank or pair declaration")
            p.expect_punct("}")
        else:
            p.fail(tok, "expected 'exogenous', 'endogenous', or 'normality'")
    p.expect_punct("}")
    return raw


def _validate_pattern(
    patt: _RawPattern, sig: Signature, origin: str, diags: list[Diagnostic]
) -> bool:
    ok = True
    for name, value, name_tok, value_tok in patt.entries:
        if not sig.is_endogenous(name):
            diags.append(
                Diagnostic(
                    "unknown variable",
                    f"pattern variable {name!r} is not a declared endogenous variable",
                    name_tok.line,
                    name_tok.col,
                    origin,
                )
            )
            ok = False
        elif value not in sig.ranges[name]:
            diags.append(
                Diagnostic(
                    "range violation",
                    f"value {value} is outside the range of {name!r}",
                    value_tok.line,
                    value_tok.col,
                    origin,
                )
            )
            ok = False
    return ok


def parse_model(text: str, origin: str = "<model>") -> tuple[CausalModel, NormalityOrder | None]:
    """Parse a .cm document; raises DslError on any diagnostic."""
    p = _Parser(text, origin)
    diags: list[Diagnostic] = []
    try:
        raw = _parse_raw_model(p)
        if not p.at_end():
            p.fail(p.peek(), "trailing input after the model block")
    except _SyntaxFail as sf:
        raise DslError([sf.diag]) from None

    names: dict[str, Token] = {}
    for name, _, tok in raw.exo:
        if name in names:
            diags.append(Diagnostic("syntax", f"duplicate variable {name!r}", tok.line, tok.col, origin))
        names[name] = tok
    for name, _, tok, _, _ in raw.endo:
        if name in names:
            diags.append(Diagnostic("syntax", f"duplicate variable {name!r}", tok.line, tok.col, origin))
        names[name] = tok
    if diags:
        raise DslError(diags)

    signature = Signature(
        exogenous=tuple((name, values) for name, values, _ in raw.exo),
        endogenous=tuple((name, values) for name, values, _, _, _ in raw.endo),
    )
    known = set(signature.ranges)
    for name, _, _, _, refs in raw.endo:
        for ref, tok in refs:
            if ref not in known:
                diags.append(
                    Diagnostic(
                        "unknown variable",
                        f"equation for {name!r} references undeclared variable {ref!r}",
                        tok.line,
                        tok.col,
                        origin,
                    )
                )
    if diags:
        raise DslError(diags)

    equations = [Equation(name, body) for name, _, _, body, _ in raw.endo]
    target_tok = {name: tok for name, _, tok, _, _ in raw.endo}
    try:
        model = CausalModel(signature, equations, name=raw.name)
    except CycleError as exc:
        tok = target_tok.get(exc.cycle[0] if exc.cycle else "", p.tokens[0])
        raise DslError([Diagnostic("cycle", str(exc), tok.line, tok.col, origin)]) from None
    except TotalityError as exc:
        bad = next((v for v in signature.endogenous_names if f"{v!r}" in str(exc)), None)
        tok = target_tok.get(bad, p.tokens[0])
        raise DslError([Diagnostic("non-total equation", str(exc), tok.line, tok.col, origin)]) from None
    except ModelError as exc:
        raise DslError([Diagnostic("syntax", str(exc), 1, 1, origin)]) from None

    if not raw.pair_decls and not raw.rank_decls:
        return model, None

    pairs = []
    ranks = []
    for left, right in raw.pair_decls:
        if _validate_pattern(left, signature, origin, diags) and _validate_pattern(
            right, signature, origin, diags
        ):
            pairs.append((Assignment(left.as_dict()), Assignment(right.as_dict())))
    for patt, rank, _tok in raw.rank_decls:
        if _validate_pattern(patt, signature, origin, diags):
            ranks.append((Assignment(patt.as_dict()), rank))
    if diags:
        raise DslError(diags)
    return model, NormalityOrder(tuple(pairs), tuple(ranks))


def parse_model_file(path) -> tuple[CausalModel, NormalityOrder | None]:
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read(), origin=str(path))


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalQuery:
    kind = "eval"
    formula: CausalFormula
    context: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class CauseQuery:
    kind = "cause"
    cause: tuple[tuple[str, int], ...]
    outcome: EventFormula
    context: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class RespQuery:
    kind = "resp"
    cause: tuple[tuple[str, int], ...]
    outcome: EventFormula
    context: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class BlameQuery:
    kind = "blame"
    action: tuple[tuple[str, int], ...]
    outcome: EventFormula
    state_name: str


@dataclass(frozen=True)
class NessQuery:
    kind = "ness"
    event: PrimitiveEvent
    outcome: EventFormula
    context: tuple[tuple[str, int], ...]


Query = EvalQuery | CauseQuery | RespQuery | BlameQuery | NessQuery


def _parse_primitive(p: _Parser) -> PrimitiveEvent:
    name = p.expect_ident("a variable name").text
    p.expect_punct("=")
    value, _ = p.expect_int()
    return PrimitiveEvent(name, value)


def _parse_event_formula(p: _Parser) -> EventFormula:
    # n-ary chains fold rightward: a & b & c parses as a & (b & c)
    def parse_or() -> EventFormula:
        parts = [parse_and()]
        while p.at_punct("|"):
            p.advance()
            parts.append(parse_and())
        node = parts[-1]
        for part in reversed(parts[:-1]):
            node = OrF(part, node)
        return node

    def parse_and() -> EventFormula:
        parts = [parse_not()]
        while p.at_punct("&"):
            p.advance()
            parts.append(parse_not())
        node = parts[-1]
        for part in reversed(parts[:-1]):
            node = AndF(part, node)
        return node

    def parse_not() -> EventFormula:
        if p.at_punct("!"):
            p.advance()
            return NotF(parse_not())
        if p.at_punct("("):
            p.advance()
            node = parse_or()
            p.expect_punct(")")
            return node
        return Atom(_parse_primitive(p))

    return parse_or()


def _parse_assigns(p: _Parser, sep: str) -> list[tuple[str, int]]:
    out = []
    while True:
        name = p.expect_ident("a variable name").text
        p.expect_punct(sep)
        value, _ = p.expect_int()
        out.append((name, value))
        if p.at_punct(","):
            p.advance()
            continue
        break
    return out


def _parse_ctx(p: _Parser) -> tuple[tuple[str, int], ...]:
    p.expect_keyword("ctx")
    p.expect_punct("(")
    if p.at_punct(")"):
        p.advance()
        return ()
    assigns = _parse_assigns(p, "=")
    p.expect_punct(")")
    return tuple(assigns)


def _parse_conj(p: _Parser) -> tuple[tuple[str, int], ...]:
    events = [_parse_primitive(p)]
    while p.at_punct("&"):
        p.advance()
        events.append(_parse_primitive(p))
    seen: dict[str, int] = {}
    for ev in events:
        if seen.setdefault(ev.variable, ev.value) != ev.value:
            tok = p.peek()
            raise _SyntaxFail(
                Diagnostic(
                    "syntax",
                    f"conjunction assigns {ev.variable!r} twice",
                    tok.line,
                    tok.col,
                    p.origin,
                )
            )
    return tuple((ev.variable, ev.value) for ev in events)


def _parse_causal_formula(p: _Parser) -> CausalFormula:
    prefix: dict[str, int] = {}
    if p.at_punct("["):
        p.advance()
        for name, value in _parse_assigns(p, "<-"):
            if name in prefix:
                tok = p.peek()
                raise _SyntaxFail(
                    Diagnostic("syntax", f"prefix assigns {name!r} twice", tok.line, tok.col, p.origin)
                )
            prefix[name] = value
        p.expect_punct("]")
    matrix = _parse_event_formula(p)
    return CausalFormula(Intervention(prefix), matrix)


def parse_query(text: str, origin: str = "<query>") -> Query:
    """Parse one query; raises DslError on failure."""
    p = _Parser(text, origin)
    try:
        tok = p.peek()
        if p.at_keyword("eval"):
            p.advance()
            formula = _parse_causal_formula(p)
            p.expect_keyword("in")
            ctx = _parse_ctx(p)
            query: Query = EvalQuery(formula, ctx)
        elif p.at_keyword("cause") or p.at_keyword("resp"):
            kind = p.advance().text
            conj = _parse_conj(p)
            p.expect_keyword("of")
            outcome = _parse_event_formula(p)
            p.expect_keyword("in")
            ctx = _parse_ctx(p)
            query = (CauseQuery if kind == "cause" else RespQuery)(conj, outcome, ctx)
        elif p.at_keyword("blame"):
            p.advance()
            p.expect_keyword("action")
            action = tuple(_parse_assigns(p, "<-"))
            p.expect_keyword("of")
            outcome = _parse_event_formula(p)
            p.expect_keyword("over")
            p.expect_keyword("state")
            state_name = p.expect_ident("a state name").text
            query = BlameQuery(action, outcome, state_name)
        elif p.at_keyword("ness"):
            p.advance()
            event = _parse_primitive(p)
            p.expect_keyword("of")
            outcome = _parse_event_formula(p)
            p.expect_keyword("in")
            ctx = _parse_ctx(p)
            query = NessQuery(event, outcome, ctx)
        else:
            p.fail(tok, "expected one of: eval, cause, resp, blame, ness")
        if not p.at_end():
            p.fail(p.peek(), "trailing input after the query")
        return query
    except _SyntaxFail as sf:
        raise DslError([sf.diag]) from None


def parse_query_file(path) -> list[Query]:
    """One query per non-empty, non-comment line."""
    queries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            queries.append(parse_query(stripped, origin=f"{path}:{lineno}"))
    return queries


# ---------------------------------------------------------------------------
# Epistemic states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SituationDecl:
    model_name: str
    context: tuple[tuple[str, int], ...]
    probability: Fraction


@dataclass(frozen=True)
class StateDecl:
    name: str
    situations: tuple[SituationDecl, ...]


def _parse_rational(p: _Parser) -> Fraction:
    num, tok = p.expect_int()
    if p.at_punct("/"):
        p.advance()
        den, den_tok = p.expect_int()
        if den == 0:
            raise _SyntaxFail(
                Diagnostic("syntax", "zero denominator", den_tok.line, den_tok.col, p.origin)
            )
        return Fraction(num, den)
    return Fraction(num)


def parse_states(text: str, origin: str = "<state>") -> list[StateDecl]:
    """Parse a .ce document holding one or more state blocks."""
    p = _Parser(text, origin)
    states: list[StateDecl] = []
    try:
        while not p.at_end():
            p.expect_keyword("state")
            name = p.expect_ident("a state name").text
            p.expect_punct("{")
            situations: list[SituationDecl] = []
            while not p.at_punct("}"):
                p.expect_keyword("situation")
                p.expect_keyword("model")
                p.expect_punct("=")
                model_name = p.expect_ident("a model name").text
                ctx = _parse_ctx(p)
                p.expect_keyword("prob")
                p.expect_punct("=")
                prob = _parse_rational(p)
                p.expect_punct(";")
                situations.append(SituationDecl(model_name, ctx, prob))
            p.expect_punct("}")
            if not situations:
                p.fail(p.peek(), "state must declare at least one situation")
            states.append(StateDecl(name, tuple(situations)))
        return states
    except _SyntaxFail as sf:
        raise DslError([sf.diag]) from None


def parse_state_file(path) -> list[StateDecl]:
    with open(path, encoding="utf-8") as fh:
        return parse_states(fh.read(), origin=str(path))


# ---------------------------------------------------------------------------
# Printers (canonical form; round-trips through the parsers)
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2}


def _render_expr(node: Expr) -> str:
    if isinstance(node, Lit):
        if node.value < 0:
            raise ValueError("negative literals are not expressible in the surface syntax")
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, MinMax):
        return f"{node.which}({_render_expr(node.left)}, {_render_expr(node.right)})"
    if isinstance(node, If):
        return (
            f"if {_render_cond(node.cond)} then {_render_expr(node.then)}"
            f" else {_render_expr(node.other)}"
        )
    if isinstance(node, Arith):
        # The surface grammar has no expression parentheses, so only trees
        # whose shape survives left-associative reparsing are printable.
        left, right = node.left, node.right
        if isinstance(right, (Arith, If)):
            raise ValueError("arithmetic right operand would reassociate; restructure the tree")
        if isinstance(left, Arith) and _PREC[left.op] < _PREC[node.op]:
            raise ValueError("arithmetic left operand would reassociate; restructure the tree")
        if isinstance(left, If):
            raise ValueError("conditional under arithmetic is not printable; restructure the tree")
        return f"{_render_expr(left)} {node.op} {_render_expr(right)}"
    raise ValueError(f"unknown expression node {node!r}")


def _render_cond(node: Cond, parent: str | None = None) -> str:
    if isinstance(node, Cmp):
        return f"{_render_expr(node.left)} {node.op} {_render_expr(node.right)}"
    if isinstance(node, Not):
        inner = _render_cond(node.inner, "!")
        return f"!({inner})" if isinstance(node.inner, (BoolOp, Cmp)) else f"!{inner}"
    if isinstance(node, BoolOp):
        left = _render_cond(node.left, node.op)
        right = _render_cond(node.right, node.op)
        if isinstance(node.left, BoolOp) and node.left.op != node.op:
            left = f"({left})"
        if isinstance(node.right, BoolOp):
            right = f"({right})"
        return f"{left} {node.op} {right}"
    raise ValueError(f"unknown condition node {node!r}")


def _render_range(values: tuple[int, ...]) -> str:
    return "{" + ",".join(str(v) for v in values) + "}"


def _render_world_items(items) -> str:
    return "[" + ",".join(f"{k}={v}" for k, v in items) + "]"


def print_model(model: CausalModel, order: NormalityOrder | None = None) -> str:
    lines = [f"model {model.name} {{"]
    for name, values in model.signature.exogenous:
        lines.append(f"  exogenous {name} : {_render_range(values)};")
    for name, values in model.signature.endogenous:
        body = _render_expr(model.equations[name].body)
        lines.append(f"  endogenous {name} : {_render_range(values)} = {body};")
    if order is not None and not order.is_empty:
        lines.append("  normality {")
        for pattern, rank in order.ranks:
            lines.append(f"    rank {_render_world_items(pattern.items_sorted())} = {rank};")
        for left, right in order.pairs:
            lines.append(
                f"    {_render_world_items(left.items_sorted())} >="
                f" {_render_world_items(right.items_sorted())};"
            )
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_event_formula(node: EventFormula, parent: str | None = None) -> str:
    if isinstance(node, Atom):
        return f"{node.event.variable}={node.event.value}"
    if isinstance(node, NotF):
        inner = _render_event_formula(node.child, "!")
        return f"!({inner})" if isinstance(node.child, (AndF, OrF)) else f"!{inner}"
    if isinstance(node, AndF):
        parts = []
        for child in (node.left, node.right):
            text = _render_event_formula(child, "&")
            if isinstance(child, OrF):
                text = f"({text})"
            parts.append(text)
        return " & ".join(parts)
    if isinstance(node, OrF):
        text = f"{_render_event_formula(node.left, '|')} | {_render_event_formula(node.right, '|')}"
        return f"({text})" if parent == "&" else text
    raise ValueError(f"unknown formula node {node!r}")


def _render_ctx(context) -> str:
    return "ctx(" + ",".join(f"{k}={v}" for k, v in context) + ")"


def print_query(query: Query) -> str:
    if isinstance(query, EvalQuery):
        prefix = ""
        if len(query.formula.prefix):
            inner = ",".join(f"{k}<-{v}" for k, v in query.formula.prefix.items())
            prefix = f"[{inner}]"
        matrix = _render_event_formula(query.formula.matrix)
        return f"eval {prefix}{matrix} in {_render_ctx(query.context)}"
    if isinstance(query, (CauseQuery, RespQuery)):
        conj = " & ".join(f"{k}={v}" for k, v in query.cause)
        return (
            f"{query.kind} {conj} of {_render_event_formula(query.outcome)}"
            f" in {_render_ctx(query.context)}"
        )
    if isinstance(query, BlameQuery):
        action = ",".join(f"{k}<-{v}" for k, v in query.action)
        return (
            f"blame action {action} of {_render_event_formula(query.outcome)}"
            f" over state {query.state_name}"
        )
    if isinstance(query, NessQuery):
        return (
            f"ness {query.event.variable}={query.event.value}"
            f" of {_render_event_formula(query.outcome)} in {_render_ctx(query.context)}"
        )
    raise ValueError(f"unknown query {query!r}")


def print_states(states: list[StateDecl]) -> str:
    lines = []
    for state in states:
        lines.append(f"state {state.name} {{")
        for sit in state.situations:
            prob = f"{sit.probability.numerator}/{sit.probability.denominator}"
            lines.append(
                f"  situation model={sit.model_name} {_render_ctx(sit.context)} prob={prob};"
            )
        lines.append("}")
    return "\n".join(lines) + "\n"
