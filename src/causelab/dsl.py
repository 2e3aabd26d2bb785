"""Text formats for models, queries, and epistemic states.

Three file kinds, and the context of `solve --ctx`, share one lexer:

  .cm  model files        model NAME { exogenous U : {0,1}; endogenous X : {0,1} = U; ... }
  .cq  query files        one query per line (eval / cause / resp / blame / ness)
  .ce  epistemic states   state NAME { situation model=NAME ctx(...) prob=1/3; ... }

Model files may declare a normality block of rank entries and world-pattern
pairs.  A pattern constrains only the variables it mentions; in a pair, any
variable mentioned on neither side takes equal values in both worlds it
relates.  Patterns are kept as declared, never expanded into worlds.  A model
without a block has the flat order, and an empty block declares the order
that relates each world to itself only, so `print_model` writes every order
it is given, an empty one included.

The parser checks only the grammar.  Every rule about what a model file
declares (no duplicate, every reference declared, no cycle, total equations,
pattern entries over endogenous variables and inside their ranges, no world
ranked twice) is checked by the model layer as it builds the signature, the
model and the order.  Its error names what it is about, and the parser turns
it into one diagnostic placed at that token.

The lexer is one compiled regular expression with an alternative per token
class.  Identifiers are ASCII (`[A-Za-z_][A-Za-z0-9_]*`) and integer literals
are ASCII digits; a non-ASCII letter or digit is a syntax error at that
character.  A syntax error ends parsing at once, and a variable assigned
twice in a context, an intervention prefix, a blame action or a normality
pattern, or twice with different values in a conjunction, is reported at its
second assignment.  So every document reports one diagnostic, for its first
fault, with a 1-based line and column and the category its error carries:
syntax, unknown variable, range violation, cycle, non-total equation, or
semantic for conflicting ranks.  A query file's diagnostics carry the file's
line and column.  `#` starts a line comment; whitespace is insignificant, and
a tab or a carriage return is one column.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple, NoReturn, TypeVar

from .formula import (
    AndF,
    Atom,
    CausalFormula,
    EventFormula,
    NotF,
    OrF,
    PrimitiveEvent,
    conj,
    disj,
)
from .model import (
    Arith,
    Assignment,
    CausalModel,
    Cmp,
    Cond,
    DuplicateVariableError,
    Equation,
    Expr,
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
)
from .normality import NormalityOrder, RankConflictError

T = TypeVar("T")


@dataclass(frozen=True)
class Diagnostic:
    # syntax | unknown variable | range violation | cycle | non-total equation, or
    # semantic for conflicting ranks, from the parsers; the CLI adds semantic and
    # resource-cap for query-time errors
    category: str
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

# One alternative per token class, tried in this order at each position.
# Classes are ASCII: `[0-9]` rejects '²' and '٣', which str.isdigit accepts,
# and `[A-Za-z_]` rejects 'é'.  Punctuation is listed longest first, so '<='
# is one token; a lone '>' falls through to `other`.
_TOKEN_RE = re.compile(
    r"(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<comment>#[^\n]*)"
    r"|(?P<int>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct><=|<-|==|!=|>=|&&|\|\||[{}()\[\],;:=<!+\-*/&|])"
    r"|(?P<other>.)"
)


class Token(NamedTuple):
    kind: str  # ident | int | punct | eof
    text: str
    line: int
    col: int


# Assignments as written: each variable's name and value tokens, in order.
_Assigns = dict[str, tuple[Token, Token]]


def _lex(text: str, origin: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    m = None
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind in ("ident", "punct", "int"):
            tokens.append(Token(kind, m.group(), line, m.start() - line_start + 1))
        elif kind == "newline":
            line += 1
            line_start = m.end()
        elif kind == "other":
            raise DslError([Diagnostic(
                "syntax", f"unexpected character {m.group()!r}", line, m.start() - line_start + 1, origin
            )])
    # A trailing comment does not advance the column: end of input is
    # reported at its '#'.
    end = m.start() if m is not None and m.lastgroup == "comment" else len(text)
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser core
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, origin: str):
        self.origin = origin
        self.tokens = _lex(text, origin)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, tok: Token, message: str) -> NoReturn:
        raise DslError([Diagnostic("syntax", message, tok.line, tok.col, self.origin)])

    def sep_by(self, item: Callable[[], T], sep: str = ",") -> list[T]:
        """`item (sep item)*`: one or more items, separated by `sep`."""
        items = [item()]
        while self.at_punct(sep):
            self.advance()
            items.append(item())
        return items

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


# The deepest expression tree an equation body may have.  Evaluation,
# folding and compilation recurse over the tree, and Python's compiler
# accepts at most 200 nested parentheses.
MAX_BODY_DEPTH = 100


class _ExprParser:
    """Equation-body grammar; records variable references with positions.

    Rejects a body whose tree is deeper than `MAX_BODY_DEPTH`, at the token
    of the first node that crosses the bound: an operator of a long chain,
    or a nested `min`, `max`, `if`, `!` or `(` while it is still descending.
    """

    def __init__(self, parser: _Parser):
        self.p = parser
        self.refs: list[Token] = []
        self.depths: dict[int, int] = {}  # id of an inner node -> its depth
        self.nesting = 0  # enclosing nodes of the one being parsed

    def node(self, tok: Token, node: Expr | Cond, *children: Expr | Cond) -> Expr | Cond:
        """`node`, built at `tok` over `children`, once its depth is checked."""
        depth = 1 + max(self.depths.get(id(child), 1) for child in children)
        if depth > MAX_BODY_DEPTH:
            self.p.fail(tok, f"expression nested deeper than {MAX_BODY_DEPTH} levels")
        self.depths[id(node)] = depth
        return node

    def descend(self, tok: Token) -> None:
        """Enter a node opened at `tok`: its tree has at least one level more."""
        self.nesting += 1
        if self.nesting >= MAX_BODY_DEPTH:
            self.p.fail(tok, f"expression nested deeper than {MAX_BODY_DEPTH} levels")

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.p.at_punct("+") or self.p.at_punct("-"):
            tok = self.p.advance()
            right = self.parse_term()
            node = self.node(tok, Arith(tok.text, node, right), node, right)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.p.at_punct("*"):
            tok = self.p.advance()
            right = self.parse_factor()
            node = self.node(tok, Arith("*", node, right), node, right)
        return node

    def parse_factor(self) -> Expr:
        tok = self.p.peek()
        if tok.kind == "int":
            self.p.advance()
            return Lit(int(tok.text))
        if tok.kind == "ident" and tok.text in ("min", "max"):
            self.p.advance()
            self.descend(tok)
            self.p.expect_punct("(")
            left = self.parse_expr()
            self.p.expect_punct(",")
            right = self.parse_expr()
            self.p.expect_punct(")")
            self.nesting -= 1
            return self.node(tok, MinMax(tok.text, left, right), left, right)
        if tok.kind == "ident" and tok.text == "if":
            self.p.advance()
            self.descend(tok)
            cond = self.parse_cond()
            self.p.expect_keyword("then")
            then = self.parse_expr()
            self.p.expect_keyword("else")
            other = self.parse_expr()
            self.nesting -= 1
            return self.node(tok, If(cond, then, other), cond, then, other)
        if tok.kind == "ident":
            self.p.advance()
            self.refs.append(tok)
            return Var(tok.text)
        self.p.fail(tok, f"expected an expression, found {tok.text or 'end of input'!r}")

    def parse_cond(self) -> Cond:
        node = self.parse_cond_and()
        while self.p.at_punct("||"):
            tok = self.p.advance()
            right = self.parse_cond_and()
            node = self.node(tok, BoolOp("||", node, right), node, right)
        return node

    def parse_cond_and(self) -> Cond:
        node = self.parse_cond_not()
        while self.p.at_punct("&&"):
            tok = self.p.advance()
            right = self.parse_cond_not()
            node = self.node(tok, BoolOp("&&", node, right), node, right)
        return node

    def parse_cond_not(self) -> Cond:
        tok = self.p.peek()
        if self.p.at_punct("!"):
            self.p.advance()
            self.descend(tok)
            inner = self.parse_cond_not()
            self.nesting -= 1
            return self.node(tok, Not(inner), inner)
        if self.p.at_punct("("):
            self.p.advance()
            self.descend(tok)
            node = self.parse_cond()
            self.p.expect_punct(")")
            self.nesting -= 1
            return node
        left = self.parse_expr()
        tok = self.p.peek()
        if tok.kind != "punct" or tok.text not in ("==", "!=", "<", "<="):
            self.p.fail(tok, f"expected a comparison operator, found {tok.text or 'end of input'!r}")
        self.p.advance()
        right = self.parse_expr()
        return self.node(tok, Cmp(tok.text, left, right), left, right)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


@dataclass
class _RawModel:
    name: str
    exo: list[tuple[Token, tuple[int, ...]]] = field(default_factory=list)
    endo: list[tuple[Token, tuple[int, ...], Expr, list[Token]]] = field(default_factory=list)
    # Shaped like `NormalityOrder.pairs` and `NormalityOrder.ranks`, so that
    # `ModelError.pattern` is a path into them too.
    pairs: list[tuple[_Assigns, _Assigns]] = field(default_factory=list)
    ranks: list[tuple[_Assigns, int, Token]] = field(default_factory=list)
    ordered: bool = False  # a normality block was declared, even an empty one


def _parse_range(p: _Parser) -> tuple[int, ...]:
    p.expect_punct("{")
    values = p.sep_by(lambda: p.expect_int()[0])
    p.expect_punct("}")
    return tuple(sorted(set(values)))


def _parse_world_pattern(p: _Parser) -> _Assigns:
    p.expect_punct("[")
    entries = _parse_assigns(p, "=", "pattern")
    p.expect_punct("]")
    return entries


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
            raw.exo.append((name_tok, values))
        elif p.at_keyword("endogenous"):
            p.advance()
            name_tok = p.expect_ident("a variable name")
            p.expect_punct(":")
            values = _parse_range(p)
            p.expect_punct("=")
            ep = _ExprParser(p)
            body = ep.parse_expr()
            p.expect_punct(";")
            raw.endo.append((name_tok, values, body, ep.refs))
        elif p.at_keyword("normality"):
            p.advance()
            p.expect_punct("{")
            raw.ordered = True
            while not p.at_punct("}"):
                if p.at_keyword("rank"):
                    rank_tok = p.advance()
                    patt = _parse_world_pattern(p)
                    p.expect_punct("=")
                    rank, _ = p.expect_int()
                    p.expect_punct(";")
                    raw.ranks.append((patt, rank, rank_tok))
                elif p.at_punct("["):
                    left = _parse_world_pattern(p)
                    p.expect_punct(">=")
                    right = _parse_world_pattern(p)
                    p.expect_punct(";")
                    raw.pairs.append((left, right))
                else:
                    p.fail(p.peek(), "expected a rank or pair declaration")
            p.expect_punct("}")
        else:
            p.fail(tok, "expected 'exogenous', 'endogenous', or 'normality'")
    p.expect_punct("}")
    return raw


def _error_token(raw: _RawModel, exc: ModelError) -> Token:
    """The token a model-layer error is about, found from its typed fields."""
    if isinstance(exc, RankConflictError):
        return raw.ranks[exc.index][2]
    if exc.pattern is not None:
        kind, i, side = exc.pattern
        name_tok, value_tok = getattr(raw, kind)[i][side][exc.variable]
        return value_tok if isinstance(exc, RangeViolationError) else name_tok
    if isinstance(exc, DuplicateVariableError):  # its second declaration
        return [tok for tok, *_ in raw.exo + raw.endo if tok.text == exc.variable][1]
    if isinstance(exc, UnknownVariableError):  # its first reference
        return next(tok for *_, refs in raw.endo for tok in refs if tok.text == exc.variable)
    return next(tok for tok, *_ in raw.endo if tok.text == exc.variable)  # the equation's target


def parse_model(text: str, origin: str = "<model>") -> tuple[CausalModel, NormalityOrder | None]:
    """Parse a .cm document; raises DslError with one diagnostic, for its
    first fault.

    After a syntax error, the first fault is the one the model layer finds
    first while it builds the signature, the model and the order: a
    duplicate variable, an undeclared reference, a self-reference or cycle,
    a non-total equation, a bad pattern entry, a rank conflict.  The error
    names what it is about, and the diagnostic is placed at that token.
    """
    p = _Parser(text, origin)
    raw = _parse_raw_model(p)
    if not p.at_end():
        p.fail(p.peek(), "trailing input after the model block")
    try:
        signature = Signature(
            exogenous=tuple((tok.text, values) for tok, values in raw.exo),
            endogenous=tuple((tok.text, values) for tok, values, _, _ in raw.endo),
        )
        model = CausalModel(signature, [Equation(tok.text, body) for tok, _, body, _ in raw.endo], name=raw.name)
        if not raw.ordered:
            return model, None
        return model, NormalityOrder(
            signature,
            tuple((Assignment(_values(left)), Assignment(_values(right))) for left, right in raw.pairs),
            tuple((Assignment(_values(patt)), rank) for patt, rank, _ in raw.ranks),
        )
    except ModelError as exc:
        tok = _error_token(raw, exc)
        raise DslError([Diagnostic(exc.category, str(exc), tok.line, tok.col, origin)]) from None


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
        return disj(*p.sep_by(parse_and, "|"))

    def parse_and() -> EventFormula:
        return conj(*p.sep_by(parse_not, "&"))

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


def _parse_assign(p: _Parser, sep: str) -> tuple[Token, Token]:
    name_tok = p.expect_ident("a variable name")
    p.expect_punct(sep)
    return name_tok, p.expect_int()[1]


def _parse_assigns(p: _Parser, sep: str, what: str) -> _Assigns:
    """Comma-separated assignments, in order, as name and value tokens; a
    repeated variable is reported there as `what` assigning it twice."""
    assigns: _Assigns = {}
    for name_tok, value_tok in p.sep_by(lambda: _parse_assign(p, sep)):
        if name_tok.text in assigns:
            p.fail(name_tok, f"{what} assigns {name_tok.text!r} twice")
        assigns[name_tok.text] = (name_tok, value_tok)
    return assigns


def _values(assigns: _Assigns) -> dict[str, int]:
    return {name: int(value_tok.text) for name, (_, value_tok) in assigns.items()}


def _parse_context_items(p: _Parser) -> tuple[tuple[str, int], ...]:
    return tuple(_values(_parse_assigns(p, "=", "context")).items())


def _parse_ctx(p: _Parser) -> tuple[tuple[str, int], ...]:
    p.expect_keyword("ctx")
    p.expect_punct("(")
    assigns = () if p.at_punct(")") else _parse_context_items(p)
    p.expect_punct(")")
    return assigns


def parse_context(text: str, origin: str = "<context>") -> tuple[tuple[str, int], ...]:
    """Parse what `ctx(...)` holds, as `solve --ctx` takes it: assignments
    such as `U1=1,U2=0`, or nothing.  Raises DslError on failure."""
    p = _Parser(text, origin)
    assigns = () if p.at_end() else _parse_context_items(p)
    if not p.at_end():
        p.fail(p.peek(), "trailing input after the context")
    return assigns


def _parse_conj(p: _Parser) -> tuple[tuple[str, int], ...]:
    events = p.sep_by(lambda: (p.peek(), _parse_primitive(p)), "&")
    seen: dict[str, int] = {}
    for tok, ev in events:
        if seen.setdefault(ev.variable, ev.value) != ev.value:
            p.fail(tok, f"conjunction assigns {ev.variable!r} twice")
    return tuple((ev.variable, ev.value) for _, ev in events)


def _parse_causal_formula(p: _Parser) -> CausalFormula:
    prefix: dict[str, int] = {}
    if p.at_punct("["):
        p.advance()
        prefix = _values(_parse_assigns(p, "<-", "prefix"))
        p.expect_punct("]")
    matrix = _parse_event_formula(p)
    return CausalFormula(Intervention(prefix), matrix)


def parse_query(text: str, origin: str = "<query>") -> Query:
    """Parse one query; raises DslError on failure."""
    p = _Parser(text, origin)
    tok = p.peek()
    if p.at_keyword("eval"):
        p.advance()
        formula = _parse_causal_formula(p)
        p.expect_keyword("in")
        ctx = _parse_ctx(p)
        query: Query = EvalQuery(formula, ctx)
    elif p.at_keyword("cause") or p.at_keyword("resp"):
        kind = p.advance().text
        cause = _parse_conj(p)
        p.expect_keyword("of")
        outcome = _parse_event_formula(p)
        p.expect_keyword("in")
        ctx = _parse_ctx(p)
        query = (CauseQuery if kind == "cause" else RespQuery)(cause, outcome, ctx)
    elif p.at_keyword("blame"):
        p.advance()
        p.expect_keyword("action")
        action = tuple(_values(_parse_assigns(p, "<-", "action")).items())
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


def parse_query_file(path) -> list[Query]:
    """One query per non-empty, non-comment line.  Diagnostics carry the
    file's path as origin and the line and column within the file."""
    queries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                queries.append(parse_query(line.rstrip("\n"), origin=str(path)))
            except DslError as exc:
                raise DslError([replace(d, line=lineno) for d in exc.diagnostics]) from None
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
            p.fail(den_tok, "zero denominator")
        return Fraction(num, den)
    return Fraction(num)


def parse_states(text: str, origin: str = "<state>") -> list[StateDecl]:
    """Parse a .ce document holding one or more state blocks."""
    p = _Parser(text, origin)
    states: list[StateDecl] = []
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


def _render_cond(node: Cond) -> str:
    if isinstance(node, Cmp):
        return f"{_render_expr(node.left)} {node.op} {_render_expr(node.right)}"
    if isinstance(node, Not):
        inner = _render_cond(node.inner)
        return f"!({inner})" if isinstance(node.inner, (BoolOp, Cmp)) else f"!{inner}"
    if isinstance(node, BoolOp):
        left = _render_cond(node.left)
        right = _render_cond(node.right)
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
    if order is not None:
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


def print_context(context: tuple[tuple[str, int], ...]) -> str:
    return "ctx(" + ",".join(f"{k}={v}" for k, v in context) + ")"


def print_query(query: Query) -> str:
    if isinstance(query, EvalQuery):
        prefix = ""
        if len(query.formula.prefix):
            inner = ",".join(f"{k}<-{v}" for k, v in query.formula.prefix.items())
            prefix = f"[{inner}]"
        matrix = _render_event_formula(query.formula.matrix)
        return f"eval {prefix}{matrix} in {print_context(query.context)}"
    if isinstance(query, (CauseQuery, RespQuery)):
        cause = " & ".join(f"{k}={v}" for k, v in query.cause)
        return (
            f"{query.kind} {cause} of {_render_event_formula(query.outcome)}"
            f" in {print_context(query.context)}"
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
            f" of {_render_event_formula(query.outcome)} in {print_context(query.context)}"
        )
    raise ValueError(f"unknown query {query!r}")


def print_states(states: list[StateDecl]) -> str:
    lines = []
    for state in states:
        lines.append(f"state {state.name} {{")
        for sit in state.situations:
            prob = f"{sit.probability.numerator}/{sit.probability.denominator}"
            lines.append(
                f"  situation model={sit.model_name} {print_context(sit.context)} prob={prob};"
            )
        lines.append("}")
    return "\n".join(lines) + "\n"
