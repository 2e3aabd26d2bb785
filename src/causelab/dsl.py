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

Binary operators are parsed by precedence climbing, one loop per sort over
its own precedence table: `+ - *` in expressions, `|| &&` in conditions.  A
query's event formula is parsed by the condition rules of equation bodies,
with `|`, `&` and a primitive event `X=x` in place of `||`, `&&` and a
comparison.  So both fold a chain leftward, and `MAX_BODY_DEPTH` bounds both.
Assignment lists and ranges are read in one loop over the token texts.

The parser checks only the grammar.  Every rule about what a model file
declares (no duplicate, every reference declared, no cycle, total equations,
pattern entries over endogenous variables and inside their ranges, no world
ranked twice) is checked by the model layer as it builds the signature, the
model and the order.  Its error names what it is about, and the parser turns
it into one diagnostic placed at that token.

The parser reads token texts, which one `findall` gives; a text's first
character gives its kind.  Identifiers are ASCII (`[A-Za-z_][A-Za-z0-9_]*`)
and integer literals are ASCII digits.  A character in no token class, such
as 'é', '²' or a lone '>', is a syntax error there, reported before any
grammar fault.  Lines and columns are worked out only to place a diagnostic,
from the reader's own match of the token it is about.  A syntax error ends
parsing at once, and a variable assigned twice in a context, an intervention
prefix, a blame action or a normality pattern, or twice with different
values in a conjunction, is reported at its second assignment.  So every
document reports one diagnostic, for its first fault, with a 1-based line
and column and the category its error carries: syntax, unknown variable,
range violation, cycle, non-total equation, or semantic for conflicting
ranks.  A query file's diagnostics carry the file's line and column.  `#` starts a
line comment; whitespace is insignificant, and a tab or a carriage return
is one column.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NoReturn

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


@dataclass(frozen=True)
class Diagnostic:
    # syntax | unknown variable | range violation | cycle | non-total equation, or
    # semantic for conflicting ranks, from the parsers; at query time the CLI
    # takes the category of the library error (semantic for a plain ValueError,
    # resource-cap for the variable cap)
    category: str
    message: str
    line: int
    col: int
    origin: str = "<input>"

    def __str__(self) -> str:
        return f"{self.origin}:{self.line}:{self.col}: {self.category}: {self.message}"


class DslError(Exception):
    """A failure carrying structured diagnostics: a parse or validation
    failure of model, query or state text, and, in the CLI, any failure to
    load a file or answer a query."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# The token classes, identifiers, integers and punctuation, most frequent
# first, each with first characters of its own.  They are ASCII: `[0-9]`
# rejects '²' and '٣', which str.isdigit accepts, and `[A-Za-z_]` rejects 'é'.
# Punctuation is longest first, so '<=' is one token; a lone '>' is in none.
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|<=|<-|==|!=|>=|&&|\|\||[{}()\[\],;:=<!+\-*/&|]")

# The parser's reader: each token's text, after the blanks and comments
# before it, then "" for the end of input.  The skip is greedy and the group
# always matches, so nothing backtracks.  A character outside the classes
# takes the rest of the input as its text, the last before the end.  The
# start of a match's group is where its token stands in the text.
_TEXTS_RE = re.compile(r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*(" + _TOKEN_RE.pattern + r"|(?s:.+)|\Z)")


# ---------------------------------------------------------------------------
# Parser core
# ---------------------------------------------------------------------------


class _Parser:
    """Reads the token texts of one document; `pos` indexes the next one.

    A text is stepped past only once matched, and the end "" matches
    nothing, so `pos` never passes it.  A fault is placed at its index by
    `error`, which reads the text again only then.
    """

    def __init__(self, text: str, origin: str):
        self.text, self.origin = text, origin
        self.toks = toks = _TEXTS_RE.findall(text)
        if len(toks) > 1 and not toks[-2]:
            toks.pop()  # blanks before the end: matched with it, and the end again
        if len(toks) > 1 and not _TOKEN_RE.fullmatch(toks[-2]):
            # the rest of the input, from its first character in no class
            raise self.error(len(toks) - 2, "syntax", f"unexpected character {toks[-2][0]!r}")
        self.pos = 0

    def error(self, at: int, category: str, message: str) -> DslError:
        """A diagnostic at token `at`: the start of the reader's `at`-th
        match, with the lines before it counted.  The end of input after a
        trailing comment is placed at the comment's '#'."""
        text = self.text
        m = next(itertools.islice(_TEXTS_RE.finditer(text), at, None))
        start = m.start(1)
        line_start = text.rfind("\n", 0, start) + 1
        if not m.group(1) and (comment := text.find("#", max(m.start(), line_start), start)) >= 0:
            start = comment
        line = text.count("\n", 0, start) + 1
        return DslError([Diagnostic(category, message, line, start - line_start + 1, self.origin)])

    def fail(self, message: str, at: int | None = None) -> NoReturn:
        """A syntax error at token `at`, by default the next one."""
        raise self.error(self.pos if at is None else at, "syntax", message)

    def expected(self, what: str, at: int | None = None) -> NoReturn:
        """A syntax error at token `at`, by default the next one, which is not `what`."""
        at = self.pos if at is None else at
        self.fail(f"expected {what}, found {self.toks[at] or 'end of input'!r}", at)

    def expect(self, text: str) -> None:
        """Step past `text`, a keyword or punctuation."""
        if self.toks[self.pos] != text:
            self.expected(repr(text))
        self.pos += 1

    def expect_int(self) -> int:
        tok = self.toks[self.pos]
        if not tok.isdigit():
            self.expected("an integer")
        self.pos += 1
        return int(tok)

    def expect_ident(self, what: str = "an identifier") -> str:
        tok = self.toks[self.pos]
        if not tok.isidentifier():  # every text is ASCII here
            self.expected(what)
        self.pos += 1
        return tok


# ---------------------------------------------------------------------------
# Expression / condition parsing (equation bodies and query formulas)
# ---------------------------------------------------------------------------


# The deepest expression tree an equation body or a query formula may have.
# Folding a body, building its closures and calling them, and compiling and
# printing a formula, each recurse once per level, so the bound keeps every
# such walk far inside Python's recursion limit.
MAX_BODY_DEPTH = 100

# Arithmetic precedence, for the parser and the printer: higher binds tighter.
_PREC = {"+": 1, "-": 1, "*": 2}


class _ExprParser:
    """Equation-body grammar; records each variable reference's token index.

    Binary operators are parsed by precedence climbing (Pratt, POPL 1973;
    Norvell, 1999): one loop per sort over its precedence table, `_PREC` for
    `+ - *` in `parse_expr` and the class's `CONDS` in `parse_cond`, so an
    operand costs one call, not one per precedence level.

    Rejects a body whose tree is deeper than `MAX_BODY_DEPTH`, at the token
    of the first node that crosses the bound: an operator of a long chain,
    or a nested `min`, `max`, `if`, `!` or `(` while it is still descending.
    The condition rules read their table, nodes and leaf from the class, so
    `_EventParser` parses a query's event formula with them.
    """

    CONDS = {"||": 1, "&&": 2}  # precedence; a higher one binds tighter
    NOT = Not
    bool_op = BoolOp  # (op, left, right) -> node

    def __init__(self, parser: _Parser):
        self.p = parser
        self.refs: list[int] = []
        self.depths: dict[int, int] = {}  # id of an inner node -> its depth
        self.nesting = 0  # enclosing nodes of the one being parsed

    def node(self, at: int, node: Expr | Cond, *children: Expr | Cond) -> Expr | Cond:
        """`node`, built at token `at` over `children`, once its depth is checked."""
        get = self.depths.get
        depth = 1
        for child in children:
            below = get(id(child), 1)
            if below > depth:
                depth = below
        depth += 1
        if depth > MAX_BODY_DEPTH:
            self.p.fail(f"expression nested deeper than {MAX_BODY_DEPTH} levels", at)
        self.depths[id(node)] = depth
        return node

    def descend(self, at: int) -> None:
        """Step past token `at`, which opens a node: its tree has at least one
        level more."""
        self.p.pos = at + 1
        self.nesting += 1
        if self.nesting >= MAX_BODY_DEPTH:
            self.p.fail(f"expression nested deeper than {MAX_BODY_DEPTH} levels", at)

    def parse_expr(self, least: int = 1, node: Expr | None = None) -> Expr:
        """`factor (op factor)*` over the operators of precedence `least` or
        more, after `node` if given: a chain folds leftward, and an operator's
        right operand takes in each later operator that binds tighter."""
        p = self.p
        toks = p.toks
        if node is None:
            node = self.parse_factor()
        while (prec := _PREC.get(op := toks[p.pos], 0)) >= least:
            at = p.pos
            p.pos = at + 1
            right = self.parse_factor()
            while _PREC.get(toks[p.pos], 0) > prec:
                right = self.parse_expr(prec + 1, right)
            node = self.node(at, Arith(op, node, right), node, right)
        return node

    def parse_factor(self) -> Expr:
        p = self.p
        at = p.pos
        tok = p.toks[at]
        if tok.isdigit():
            p.pos += 1
            return Lit(int(tok))
        if tok == "min" or tok == "max":
            self.descend(at)
            p.expect("(")
            left = self.parse_expr()
            p.expect(",")
            right = self.parse_expr()
            p.expect(")")
            self.nesting -= 1
            return self.node(at, MinMax(tok, left, right), left, right)
        if tok == "if":
            self.descend(at)
            cond = self.parse_cond()
            p.expect("then")
            then = self.parse_expr()
            p.expect("else")
            other = self.parse_expr()
            self.nesting -= 1
            return self.node(at, If(cond, then, other), cond, then, other)
        if tok.isidentifier():
            p.pos += 1
            self.refs.append(at)
            return Var(tok)
        p.expected("an expression")

    def parse_cond(self, least: int = 1, node: Cond | None = None) -> Cond:
        """`parse_expr`'s loop over `CONDS`, with `parse_cond_not` operands."""
        p = self.p
        toks = p.toks
        table = self.CONDS
        if node is None:
            node = self.parse_cond_not()
        while (prec := table.get(op := toks[p.pos], 0)) >= least:
            at = p.pos
            p.pos = at + 1
            right = self.parse_cond_not()
            while table.get(toks[p.pos], 0) > prec:
                right = self.parse_cond(prec + 1, right)
            node = self.node(at, self.bool_op(op, node, right), node, right)
        return node

    def parse_cond_not(self) -> Cond:
        p = self.p
        at = p.pos
        tok = p.toks[at]
        if tok == "!":
            self.descend(at)
            inner = self.parse_cond_not()
            self.nesting -= 1
            return self.node(at, self.NOT(inner), inner)
        if tok == "(":
            self.descend(at)
            node = self.parse_cond()
            p.expect(")")
            self.nesting -= 1
            return node
        return self.parse_leaf()

    def parse_leaf(self) -> Cond:  # a comparison
        p = self.p
        left = self.parse_expr()
        at = p.pos
        op = p.toks[at]
        if op not in ("==", "!=", "<", "<="):
            p.expected("a comparison operator")
        p.pos += 1
        right = self.parse_expr()
        return self.node(at, Cmp(op, left, right), left, right)


class _EventParser(_ExprParser):
    """A query's event formula, by the condition rules: `|`, `&` and `!`
    build `OrF`, `AndF` and `NotF`, and a leaf is a primitive event."""

    CONDS = {"|": 1, "&": 2}
    NOT = NotF
    bool_op = staticmethod(lambda op, left, right: (OrF if op == "|" else AndF)(left, right))

    def parse_leaf(self) -> EventFormula:
        return Atom(_parse_primitive(self.p))


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


# Assignments as written: each variable's name token index and value, in
# order.  The value's token is two on, past the '=' or '<-'.
_Assigns = dict[str, tuple[int, int]]


@dataclass
class _RawModel:
    name: str
    # Declarations, each by the token index of its variable's name.
    exo: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    endo: list[tuple[int, tuple[int, ...], Expr, list[int]]] = field(default_factory=list)
    # Shaped like `NormalityOrder.pairs` and `NormalityOrder.ranks`, so that
    # `ModelError.pattern` is a path into them too.
    pairs: list[tuple[_Assigns, _Assigns]] = field(default_factory=list)
    ranks: list[tuple[_Assigns, int, int]] = field(default_factory=list)  # and the index of `rank`
    ordered: bool = False  # a normality block was declared, even an empty one


def _parse_range(p: _Parser) -> tuple[int, ...]:
    p.expect("{")
    values = [p.expect_int()]
    while p.toks[p.pos] == ",":
        p.pos += 1
        values.append(p.expect_int())
    p.expect("}")
    return tuple(sorted(set(values)))


def _parse_world_pattern(p: _Parser) -> _Assigns:
    p.expect("[")
    entries = _parse_assigns(p, "=", "pattern")
    p.expect("]")
    return entries


def _parse_raw_model(p: _Parser) -> _RawModel:
    toks = p.toks
    p.expect("model")
    raw = _RawModel(p.expect_ident("a model name"))
    p.expect("{")
    while (tok := toks[p.pos]) != "}":
        if tok == "exogenous" or tok == "endogenous":
            p.pos += 1
            at = p.pos
            p.expect_ident("a variable name")
            p.expect(":")
            values = _parse_range(p)
            if tok == "exogenous":
                raw.exo.append((at, values))
            else:
                p.expect("=")
                ep = _ExprParser(p)
                raw.endo.append((at, values, ep.parse_expr(), ep.refs))
            p.expect(";")
        elif tok == "normality":
            p.pos += 1
            p.expect("{")
            raw.ordered = True
            while (tok := toks[p.pos]) != "}":
                if tok == "rank":
                    at = p.pos
                    p.pos += 1
                    patt = _parse_world_pattern(p)
                    p.expect("=")
                    rank = p.expect_int()
                    p.expect(";")
                    raw.ranks.append((patt, rank, at))
                elif tok == "[":
                    left = _parse_world_pattern(p)
                    p.expect(">=")
                    right = _parse_world_pattern(p)
                    p.expect(";")
                    raw.pairs.append((left, right))
                else:
                    p.fail("expected a rank or pair declaration")
            p.expect("}")
        else:
            p.fail("expected 'exogenous', 'endogenous', or 'normality'")
    p.expect("}")
    return raw


def _error_token(raw: _RawModel, toks: list[str], exc: ModelError) -> int:
    """The index of the token a model-layer error is about, from its typed fields."""
    if isinstance(exc, RankConflictError):
        return raw.ranks[exc.index][2]
    if exc.pattern is not None:
        kind, i, side = exc.pattern
        at, _ = getattr(raw, kind)[i][side][exc.variable]
        return at + 2 if isinstance(exc, RangeViolationError) else at
    if isinstance(exc, DuplicateVariableError):  # its second declaration
        return [at for at, *_ in raw.exo + raw.endo if toks[at] == exc.variable][1]
    if isinstance(exc, UnknownVariableError):  # its first reference
        return next(at for *_, refs in raw.endo for at in refs if toks[at] == exc.variable)
    return next(at for at, *_ in raw.endo if toks[at] == exc.variable)  # the equation's target


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
    toks = p.toks
    if toks[p.pos]:
        p.fail("trailing input after the model block")
    try:
        signature = Signature(
            exogenous=tuple((toks[at], values) for at, values in raw.exo),
            endogenous=tuple((toks[at], values) for at, values, _, _ in raw.endo),
        )
        model = CausalModel(signature, [Equation(toks[at], body) for at, _, body, _ in raw.endo], name=raw.name)
        if not raw.ordered:
            return model, None
        return model, NormalityOrder(
            signature,
            tuple((Assignment(_values(left)), Assignment(_values(right))) for left, right in raw.pairs),
            tuple((Assignment(_values(patt)), rank) for patt, rank, _ in raw.ranks),
        )
    except ModelError as exc:
        raise p.error(_error_token(raw, toks, exc), exc.category, str(exc)) from None


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
    name = p.expect_ident("a variable name")
    p.expect("=")
    return PrimitiveEvent(name, p.expect_int())


def _assign_items(p: _Parser, sep: str, delim: str = ",") -> list[tuple[int, str, int]]:
    """`name sep int (delim name sep int)*`, read in one loop over the token
    texts: each item's name index, name and value, in order."""
    toks = p.toks
    at = p.pos
    items = []
    while True:
        name = toks[at]
        if not name.isidentifier():  # every text is ASCII here
            p.expected("a variable name", at)
        if toks[at + 1] != sep:
            p.expected(repr(sep), at + 1)
        if not (value := toks[at + 2]).isdigit():
            p.expected("an integer", at + 2)
        items.append((at, name, int(value)))
        if toks[at + 3] != delim:
            p.pos = at + 3
            return items
        at += 4


def _parse_assigns(p: _Parser, sep: str, what: str) -> _Assigns:
    """Comma-separated assignments, in order; a repeated variable is
    reported there as `what` assigning it twice, once the list is read."""
    assigns: _Assigns = {}
    for at, name, value in _assign_items(p, sep):
        if name in assigns:
            p.fail(f"{what} assigns {name!r} twice", at)
        assigns[name] = (at, value)
    return assigns


def _values(assigns: _Assigns) -> dict[str, int]:
    return {name: value for name, (_, value) in assigns.items()}


def _parse_context_items(p: _Parser) -> tuple[tuple[str, int], ...]:
    return tuple(_values(_parse_assigns(p, "=", "context")).items())


def _parse_ctx(p: _Parser) -> tuple[tuple[str, int], ...]:
    p.expect("ctx")
    p.expect("(")
    assigns = () if p.toks[p.pos] == ")" else _parse_context_items(p)
    p.expect(")")
    return assigns


def parse_context(text: str, origin: str = "<context>") -> tuple[tuple[str, int], ...]:
    """Parse what `ctx(...)` holds, as `solve --ctx` takes it: assignments
    such as `U1=1,U2=0`, or nothing.  Raises DslError on failure."""
    p = _Parser(text, origin)
    assigns = _parse_context_items(p) if p.toks[0] else ()
    if p.toks[p.pos]:
        p.fail("trailing input after the context")
    return assigns


def _parse_conj(p: _Parser) -> tuple[tuple[str, int], ...]:
    events = _assign_items(p, "=", "&")
    seen: dict[str, int] = {}
    for at, name, value in events:
        if seen.setdefault(name, value) != value:
            p.fail(f"conjunction assigns {name!r} twice", at)
    return tuple((name, value) for _, name, value in events)


def _parse_causal_formula(p: _Parser) -> CausalFormula:
    prefix: dict[str, int] = {}
    if p.toks[p.pos] == "[":
        p.pos += 1
        prefix = _values(_parse_assigns(p, "<-", "prefix"))
        p.expect("]")
    matrix = _EventParser(p).parse_cond()
    return CausalFormula(Intervention(prefix), matrix)


def parse_query(text: str, origin: str = "<query>") -> Query:
    """Parse one query; raises DslError on failure."""
    p = _Parser(text, origin)
    kind = p.toks[0]
    if kind not in ("eval", "cause", "resp", "blame", "ness"):
        p.fail("expected one of: eval, cause, resp, blame, ness")
    p.pos = 1
    if kind == "eval":
        formula = _parse_causal_formula(p)
        p.expect("in")
        query: Query = EvalQuery(formula, _parse_ctx(p))
    elif kind == "cause" or kind == "resp":
        cause = _parse_conj(p)
        p.expect("of")
        outcome = _EventParser(p).parse_cond()
        p.expect("in")
        query = (CauseQuery if kind == "cause" else RespQuery)(cause, outcome, _parse_ctx(p))
    elif kind == "blame":
        p.expect("action")
        action = tuple(_values(_parse_assigns(p, "<-", "action")).items())
        p.expect("of")
        outcome = _EventParser(p).parse_cond()
        p.expect("over")
        p.expect("state")
        query = BlameQuery(action, outcome, p.expect_ident("a state name"))
    else:
        event = _parse_primitive(p)
        p.expect("of")
        outcome = _EventParser(p).parse_cond()
        p.expect("in")
        query = NessQuery(event, outcome, _parse_ctx(p))
    if p.toks[p.pos]:
        p.fail("trailing input after the query")
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
    num = p.expect_int()
    if p.toks[p.pos] != "/":
        return Fraction(num)
    p.pos += 1
    at = p.pos
    den = p.expect_int()
    if den == 0:
        p.fail("zero denominator", at)
    return Fraction(num, den)


def parse_states(text: str, origin: str = "<state>") -> list[StateDecl]:
    """Parse a .ce document holding one or more state blocks."""
    p = _Parser(text, origin)
    states: list[StateDecl] = []
    while p.toks[p.pos]:
        p.expect("state")
        name = p.expect_ident("a state name")
        p.expect("{")
        situations: list[SituationDecl] = []
        while p.toks[p.pos] != "}":
            p.expect("situation")
            p.expect("model")
            p.expect("=")
            model_name = p.expect_ident("a model name")
            ctx = _parse_ctx(p)
            p.expect("prob")
            p.expect("=")
            prob = _parse_rational(p)
            p.expect(";")
            situations.append(SituationDecl(model_name, ctx, prob))
        p.expect("}")
        if not situations:
            p.fail("state must declare at least one situation")
        states.append(StateDecl(name, tuple(situations)))
    return states


def parse_state_file(path) -> list[StateDecl]:
    with open(path, encoding="utf-8") as fh:
        return parse_states(fh.read(), origin=str(path))


# ---------------------------------------------------------------------------
# Printers (canonical form; round-trips through the parsers)
# ---------------------------------------------------------------------------

def _render_expr(node: Expr, tail: bool = False) -> str:
    """`node` as the parser reads it back; `tail` says whether a `+ - *`
    follows it."""
    if isinstance(node, Lit):
        if node.value < 0:
            raise ValueError("negative literals are not expressible in the surface syntax")
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, MinMax):
        return f"{node.op}({_render_expr(node.left)}, {_render_expr(node.right)})"
    if isinstance(node, If):
        return (
            f"if {_render_cond(node.cond)} then {_render_expr(node.then)}"
            f" else {_render_expr(node.other)}"
        )
    if isinstance(node, Arith):
        # The surface grammar has no expression parentheses, so only trees
        # whose shape survives reparsing are printable: a right operand that
        # binds tighter than its parent, and an `if` (whose `else` branch
        # takes in every `+ - *` after it) only where none follows.
        left, right = node.left, node.right
        if isinstance(right, Arith) and _PREC[right.op] <= _PREC[node.op] or isinstance(right, If) and tail:
            raise ValueError("arithmetic right operand would reassociate; restructure the tree")
        if isinstance(left, Arith) and _PREC[left.op] < _PREC[node.op]:
            raise ValueError("arithmetic left operand would reassociate; restructure the tree")
        if isinstance(left, If):
            raise ValueError("conditional under arithmetic is not printable; restructure the tree")
        return f"{_render_expr(left, True)} {node.op} {_render_expr(right, tail)}"
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
    if values[0] < 0:  # ranges are sorted
        raise ValueError("negative range values are not expressible in the surface syntax")
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


def _render_event_formula(node: EventFormula) -> str:
    """An `|` under an `&` is wrapped, and so is a right operand of its own
    kind: the parser's left folds and `conj`/`disj`'s right folds read back."""
    if isinstance(node, Atom):
        return f"{node.event.variable}={node.event.value}"
    if isinstance(node, NotF):
        inner = _render_event_formula(node.child)
        return f"!({inner})" if isinstance(node.child, (AndF, OrF)) else f"!{inner}"
    if isinstance(node, (AndF, OrF)):
        under_and = isinstance(node, AndF)
        left, right = _render_event_formula(node.left), _render_event_formula(node.right)
        if under_and and isinstance(node.left, OrF):
            left = f"({left})"
        if under_and and isinstance(node.right, OrF) or isinstance(node.right, type(node)):
            right = f"({right})"
        return f"{left} {'&' if under_and else '|'} {right}"
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
