"""Workload inputs for the causelab benchmark, as text plus reference answers.

A workload is a list of entries. Each entry names the model and state texts
it loads, one query, the options a user would pass for it, and the answer it
must produce. The answers never come from the engine under test:

* corpus entries carry the corpus's own ``expected.json``;
* the scaled families (vote-n, firing-squad-n, doctors-n, fire-n) carry
  closed forms derived from the story each family tells;
* ``small`` entries are refereed by the brute-force oracle, which is run here,
  before any measurement, and never timed.

Everything is a pure function of the seed: the same seed yields the same
texts, queries and references.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path

WORKLOADS = ("normality", "search", "small")


@dataclass(frozen=True)
class Entry:
    """One query against a bundle of loaded texts, with its reference answer."""

    id: str
    models: tuple[str, ...]  # keys into Workload.texts, target model first
    query: str
    expect: dict
    states: tuple[str, ...] = ()
    mode: str = "extended"
    strategy: str = "reciprocal"
    weights: tuple[tuple[str, Fraction], ...] = ()


@dataclass
class Workload:
    name: str
    texts: dict[str, str] = field(default_factory=dict)  # file name -> .cm/.ce text
    entries: list[Entry] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

_ORDER_BLOCK = re.compile(r"\bnormality\s*\{")


def declares_order(model_text: str) -> bool:
    """Whether a .cm text has a normality block (comments stripped first)."""
    code = "\n".join(line.split("#", 1)[0] for line in model_text.splitlines())
    return _ORDER_BLOCK.search(code) is not None


def corpus_entries(corpus_dir: Path, want_order: bool) -> tuple[dict[str, str], list[Entry]]:
    """Corpus entries that load an ordered model (or none), with their texts.

    An entry belongs to the normality side when any model it loads declares
    an order, since parsing that model expands the order's patterns.
    """
    expected = json.loads((corpus_dir / "expected.json").read_text(encoding="utf-8"))
    texts: dict[str, str] = {}
    entries: list[Entry] = []
    for raw in expected:
        files = list(raw.get("models", [])) + list(raw.get("states", []))
        loaded = {name: (corpus_dir / name).read_text(encoding="utf-8") for name in files}
        ordered = any(declares_order(loaded[m]) for m in raw.get("models", []))
        if ordered != want_order:
            continue
        texts.update(loaded)
        opts = raw.get("options", {})
        entries.append(
            Entry(
                id=f"corpus:{raw['id']}",
                models=tuple(raw.get("models", [])),
                states=tuple(raw.get("states", [])),
                query=raw["query"],
                expect=dict(raw["expect"]),
                mode=opts.get("mode", "extended"),
                strategy=opts.get("strategy", "reciprocal"),
            )
        )
    return texts, entries


# ---------------------------------------------------------------------------
# Scaled families with closed-form answers
# ---------------------------------------------------------------------------


def _nested(fn: str, args: list[str]) -> str:
    """fn(a, fn(b, fn(c, d))) for two or more arguments."""
    out = args[-1]
    for arg in reversed(args[:-1]):
        out = f"{fn}({arg}, {out})"
    return out


def _ctx(assigns: dict[str, int]) -> str:
    return "ctx(" + ",".join(f"{k}={v}" for k, v in assigns.items()) + ")"


def vote_text(n: int) -> str:
    """n voters, Vi=0 votes for B; W=0 when B holds a majority."""
    lines = [f"model vote{n} {{"]
    lines += [f"  exogenous UV{i} : {{0,1}};" for i in range(1, n + 1)]
    lines += [f"  endogenous V{i} : {{0,1}} = UV{i};" for i in range(1, n + 1)]
    total = " + ".join(f"V{i}" for i in range(1, n + 1))
    lines.append(f"  endogenous W : {{0,1}} = if {total} <= {(n - 1) // 2} then 0 else 1;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def vote_entries(n: int) -> list[Entry]:
    """V1=0 for W=0 when every vote is 0; (n-1)/2 flips are needed."""
    k = (n - 1) // 2
    model = f"vote{n}.cm"
    ctx = _ctx({f"UV{i}": 0 for i in range(1, n + 1)})
    body = f"V1=0 of W=0 in {ctx}"
    weights = tuple((f"V{i}", Fraction(i)) for i in range(1, n + 1)) + (("W", Fraction(1)),)
    # weight(Vi) = i: the cheapest k flips are V2..V(k+1)
    weighted = Fraction(1, 1 + sum(range(2, k + 2)))
    ways = Fraction(comb(n - 1, k), 2 ** (n - 1) - 1)
    return [
        Entry(f"vote{n}/cause", (model,), f"cause {body}", {"verdict": True, "min_changes": k}),
        Entry(f"vote{n}/reciprocal", (model,), f"resp {body}", {"score": str(Fraction(2, n + 1))}),
        Entry(
            f"vote{n}/exponential", (model,), f"resp {body}", {"score": str(Fraction(1, 2**k))},
            strategy="exponential",
        ),
        Entry(
            f"vote{n}/weighted", (model,), f"resp {body}", {"score": str(weighted)},
            strategy="weighted", weights=weights,
        ),
        Entry(f"vote{n}/ways", (model,), f"resp {body}", {"score": str(ways)}, strategy="ways"),
    ]


def firing_squad_text(n: int) -> str:
    """n marksmen all fire; UL picks whose rifle is live."""
    lines = [f"model firing{n} {{"]
    lines.append("  exogenous UL : {" + ",".join(str(i) for i in range(1, n + 1)) + "};")
    lines += [f"  endogenous M{i} : {{0,1}} = 1;" for i in range(1, n + 1)]
    live = " || ".join(f"(UL == {i} && M{i} == 1)" for i in range(1, n + 1))
    lines.append(f"  endogenous D : {{0,1}} = if {live} then 1 else 0;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def firing_squad_state(n: int) -> str:
    lines = [f"state firing{n}_uniform {{"]
    lines += [f"  situation model=firing{n} ctx(UL={i}) prob=1/{n};" for i in range(1, n + 1)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def firing_squad_entry(n: int) -> Entry:
    """M1 is fully responsible in the one situation where its rifle is live."""
    return Entry(
        f"firing{n}/blame",
        (f"firing{n}.cm",),
        f"blame action M1<-1 of D=1 over state firing{n}_uniform",
        {"score": str(Fraction(1, n))},
        states=(f"firing{n}.ce",),
    )


def fire_text(n: int) -> str:
    """Conjunctive fire: F needs all n sources L1..Ln."""
    lines = [f"model fire{n} {{"]
    lines += [f"  exogenous U{i} : {{0,1}};" for i in range(1, n + 1)]
    lines += [f"  endogenous L{i} : {{0,1}} = U{i};" for i in range(1, n + 1)]
    lines.append(f"  endogenous F : {{0,1}} = {_nested('min', [f'L{i}' for i in range(1, n + 1)])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def fire_entry(n: int, i: int) -> Entry:
    """Only the set of all sources is sufficient, and it needs Li."""
    ctx = _ctx({f"U{j}": 1 for j in range(1, n + 1)})
    return Entry(
        f"fire{n}/ness_L{i}",
        (f"fire{n}.cm",),
        f"ness L{i}=1 of F=1 in {ctx}",
        {"verdict": True, "sufficient_set": {f"L{j}": 1 for j in range(1, n + 1)}},
    )


def doctors_text(n: int) -> str:
    """The five_doctors story with n doctors and the same pair patterns."""
    a = [f"A{i}" for i in range(1, n + 1)]
    t = [f"T{i}" for i in range(1, n + 1)]
    lines = [f"model doctors{n} {{"]
    lines += [f"  exogenous U{v} : {{0,1}};" for v in a + t]
    lines += [f"  endogenous {v} : {{0,1}} = U{v};" for v in a + t]
    lines.append(f"  endogenous S : {{0,1}} = 1 - {_nested('max', t)};")
    lines.append("  normality {")

    def pattern(assigns: dict[str, int]) -> str:
        return "[" + ",".join(f"{k}={v}" for k, v in assigns.items()) + "]"

    nobody = {**{v: 0 for v in a + t}, "S": 1}
    for i in range(n):
        treated = {**{v: 0 for v in a + t}, a[i]: 1, t[i]: 1, "S": 0}
        lines.append(f"    {pattern(nobody)} >= {pattern(treated)};")
    for i in range(n):
        lines.append(f"    [{a[i]}=1,{t[i]}=1,S=0] >= [{a[i]}=1,{t[i]}=0,S=1];")
    for i in range(n):
        for j in range(n):
            if i != j:
                lines.append(f"    [{a[i]}=1,{t[j]}=0,S=1] >= [{a[i]}=1,{t[j]}=1,S=0];")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def doctors_entries(n: int, assigned: int) -> list[Entry]:
    """The assigned doctor's omission is a cause; no other omission is, nor
    is the assignment itself (both fail AC2 under the order)."""
    ctx = {f"UA{i}": int(i == assigned) for i in range(1, n + 1)}
    ctx.update({f"UT{i}": 0 for i in range(1, n + 1)})
    where = f"of S=1 in {_ctx(ctx)}"
    model = (f"doctors{n}.cm",)
    not_cause = {"verdict": False, "failed_condition": "AC2"}
    out = [
        Entry(
            f"doctors{n}/T{assigned}_cause", model, f"cause T{assigned}=0 {where}",
            {"verdict": True, "min_changes": 0},
        ),
        Entry(f"doctors{n}/A{assigned}_not_cause", model, f"cause A{assigned}=1 {where}", not_cause),
    ]
    for j in range(1, n + 1):
        if j != assigned:
            out.append(Entry(f"doctors{n}/T{j}_not_cause", model, f"cause T{j}=0 {where}", not_cause))
    return out


# ---------------------------------------------------------------------------
# Small random models
# ---------------------------------------------------------------------------
#
# Bodies are kept as tuples so this file can both render them as text and
# evaluate them, without asking the program under test for either:
#   ("lit", v) ("var", name) ("mm", "min"|"max", a, b) ("ar", op, a, b)
#   ("if", cond, a, b); conditions ("cmp", op, a, b) ("bool", op, c, d)
#   ("not", c). Arithmetic takes atoms only and is clamped by min/max.


def _render(node) -> str:
    kind = node[0]
    if kind == "lit":
        return str(node[1])
    if kind == "var":
        return node[1]
    if kind == "mm":
        return f"{node[1]}({_render(node[2])}, {_render(node[3])})"
    if kind == "ar":
        return f"{_render(node[2])} {node[1]} {_render(node[3])}"
    if kind == "if":
        return f"if {_render_cond(node[1])} then {_render(node[2])} else {_render(node[3])}"
    raise ValueError(node)


def _render_cond(node) -> str:
    kind = node[0]
    if kind == "cmp":
        return f"{_render(node[2])} {node[1]} {_render(node[3])}"
    if kind == "bool":
        return f"({_render_cond(node[2])}) {node[1]} ({_render_cond(node[3])})"
    if kind == "not":
        return f"!({_render_cond(node[1])})"
    raise ValueError(node)


_ARITH = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y}
_CMP = {
    "==": lambda x, y: x == y,
    "!=": lambda x, y: x != y,
    "<": lambda x, y: x < y,
    "<=": lambda x, y: x <= y,
}


def _eval(node, env: dict[str, int]) -> int:
    kind = node[0]
    if kind == "lit":
        return node[1]
    if kind == "var":
        return env[node[1]]
    if kind == "mm":
        fn = min if node[1] == "min" else max
        return fn(_eval(node[2], env), _eval(node[3], env))
    if kind == "ar":
        return _ARITH[node[1]](_eval(node[2], env), _eval(node[3], env))
    if kind == "if":
        return _eval(node[2], env) if _eval_cond(node[1], env) else _eval(node[3], env)
    raise ValueError(node)


def _eval_cond(node, env: dict[str, int]) -> bool:
    kind = node[0]
    if kind == "cmp":
        return _CMP[node[1]](_eval(node[2], env), _eval(node[3], env))
    if kind == "bool":
        left = _eval_cond(node[2], env)
        return (left and _eval_cond(node[3], env)) if node[1] == "&&" else (left or _eval_cond(node[3], env))
    if kind == "not":
        return not _eval_cond(node[1], env)
    raise ValueError(node)


def _atom(rng: random.Random, parents: list[tuple[str, int]], hi: int):
    """An in-range atom: a parent clamped to [0, hi], or a literal."""
    if parents and rng.random() < 0.7:
        # favour the most recent parents so chains form
        name, phi = parents[-1 - min(int(rng.expovariate(0.7)), len(parents) - 1)]
        return ("var", name) if phi <= hi else ("mm", "min", ("var", name), ("lit", hi))
    return ("lit", rng.randint(0, hi))


def _cond(rng: random.Random, parents, depth: int):
    if depth <= 0 or rng.random() < 0.55:
        return ("cmp", rng.choice(["==", "!=", "<", "<="]), _atom(rng, parents, 2), _atom(rng, parents, 2))
    if rng.random() < 0.25:
        return ("not", _cond(rng, parents, depth - 1))
    return ("bool", rng.choice(["&&", "||"]), _cond(rng, parents, depth - 1), _cond(rng, parents, depth - 1))


def _body(rng: random.Random, parents, hi: int, depth: int):
    pick = rng.random()
    if depth <= 0 or pick < 0.2:
        return _atom(rng, parents, hi)
    if pick < 0.5:
        return ("if", _cond(rng, parents, 1), _body(rng, parents, hi, depth - 1), _body(rng, parents, hi, depth - 1))
    if pick < 0.8:
        return ("mm", rng.choice(["min", "max"]), _body(rng, parents, hi, depth - 1), _body(rng, parents, hi, depth - 1))
    arith = ("ar", rng.choice(["+", "-", "*"]), _atom(rng, parents, hi), _atom(rng, parents, hi))
    return ("mm", "min", ("mm", "max", arith, ("lit", 0)), ("lit", hi))


@dataclass
class SmallModel:
    name: str
    exo: list[tuple[str, int]]  # (name, highest value); ranges are {0..hi}
    endo: list[tuple[str, int, tuple]]  # (name, hi, body)
    pairs: list[tuple[dict[str, int], dict[str, int]]]

    def text(self) -> str:
        lines = [f"model {self.name} {{"]
        lines += [f"  exogenous {v} : {{{','.join(map(str, range(hi + 1)))}}};" for v, hi in self.exo]
        lines += [
            f"  endogenous {v} : {{{','.join(map(str, range(hi + 1)))}}} = {_render(body)};"
            for v, hi, body in self.endo
        ]
        if self.pairs:
            lines.append("  normality {")
            for left, right in self.pairs:
                lw = ",".join(f"{k}={x}" for k, x in left.items())
                rw = ",".join(f"{k}={x}" for k, x in right.items())
                lines.append(f"    [{lw}] >= [{rw}];")
            lines.append("  }")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def solve(self, context: dict[str, int]) -> dict[str, int]:
        env = dict(context)
        for v, _hi, body in self.endo:
            env[v] = _eval(body, env)
        return env


def random_small_model(
    rng: random.Random, name: str, n_endo: int, n_ternary: int, ordered: bool
) -> SmallModel:
    """n_endo endogenous variables (at most 5), n_ternary of them with range
    {0,1,2}, and 1 to 3 random pattern pairs when ordered."""
    ternary = set(rng.sample(range(n_endo), n_ternary))
    exo = [(f"U{i}", 2 if rng.random() < 0.3 else 1) for i in range(rng.randint(1, 3))]
    parents: list[tuple[str, int]] = list(exo)
    endo = []
    for i in range(n_endo):
        h = 2 if i in ternary else 1
        endo.append((f"X{i}", h, _body(rng, parents, h, depth=2)))
        parents.append((f"X{i}", h))
    pairs = []
    if ordered:
        for _ in range(rng.randint(1, 3)):
            sides = []
            for _side in range(2):
                chosen = rng.sample(endo, rng.randint(1, 2))
                sides.append({v: rng.randint(0, h) for v, h, _ in sorted(chosen)})
            pairs.append((sides[0], sides[1]))
    return SmallModel(name, exo, endo, pairs)


def small_shape(k: int) -> dict:
    """The k-th model's shape. Shapes cycle through a fixed schedule of 75,
    so every seed draws the same mix of sizes, ternary counts and orders,
    and only the equations, orders and queries vary with the seed. Models
    with 5 endogenous variables are a fifth of the mix: each costs about
    three times a 4-variable model to query and to referee."""
    return {"n_endo": (3, 4, 3, 4, 5)[k % 5], "n_ternary": (k // 5) % 3, "ordered": (k // 15) % 5 < 2}


def small_queries(rng: random.Random, m: SmallModel) -> list[tuple[str, str]]:
    """A few (kind, query text) pairs over one context, every event true."""
    ctx = {v: rng.randint(0, h) for v, h in m.exo}
    world = m.solve(ctx)
    names = [v for v, _h, _b in m.endo]
    out_var = names[-1]
    outcome = f"{out_var}={world[out_var]}"
    where = f"of {outcome} in {_ctx(ctx)}"
    causes = rng.sample(names[:-1], min(2, len(names) - 1))
    queries = [("cause", f"cause {v}={world[v]} {where}") for v in causes]
    if len(causes) == 2:
        a, b = sorted(causes)
        queries.append(("cause", f"cause {a}={world[a]} & {b}={world[b]} {where}"))
    queries.append(("resp", f"resp {causes[0]}={world[causes[0]]} {where}"))
    return queries


def _oracle_expects(mods, model_text: str, queries: list[tuple[str, str]]) -> list[dict]:
    """The oracle's answers to one model's small queries, in the CLI's
    result keys. A `resp` query asks about a cause that a `cause` query
    already asked about, so its score is derived from the same oracle
    verdict, exactly as ``oracle_responsibility`` derives it: 0 for a
    non-cause, else 1/(k+1)."""
    dsl, oracle = mods["dsl"], mods["oracle"]
    model, order = dsl.parse_model(model_text)
    ext = mods["normality"].ExtendedModel(model, order)
    verdicts = {}
    out = []
    for kind, text in queries:
        about = text.split(" ", 1)[1]
        if about not in verdicts:
            query = dsl.parse_query(text)
            context = mods["model"].Context(dict(query.context))
            cause = mods["hp"].CandidateCause.of(dict(query.cause))
            verdicts[about] = oracle.oracle_cause(ext, context, cause, query.outcome)
        verdict = verdicts[about]
        if kind == "resp":
            score = Fraction(1, verdict.min_changes + 1) if verdict.is_cause else Fraction(0)
            out.append({"score": str(score)})
        else:
            out.append(
                {
                    "verdict": verdict.is_cause,
                    "failed_condition": verdict.failed_condition,
                    "min_changes": verdict.min_changes,
                }
            )
    return out


# ---------------------------------------------------------------------------
# Workload assembly
# ---------------------------------------------------------------------------

SMALL_MODELS = 300  # four passes over the schedule of small_shape


def build(name: str, seed: int, corpus_dir: Path, mods=None) -> Workload:
    """The inputs of one workload. ``mods`` (causelab's modules by short
    name) is needed only for ``small``, whose references come from the
    oracle."""
    rng = random.Random(f"{name}:{seed}")
    wl = Workload(name)
    if name == "normality":
        wl.texts, wl.entries = corpus_entries(corpus_dir, want_order=True)
        for n in (3, 4, 5):
            wl.texts[f"doctors{n}.cm"] = doctors_text(n)
            wl.entries += doctors_entries(n, assigned=rng.randint(1, n))
    elif name == "search":
        wl.texts, wl.entries = corpus_entries(corpus_dir, want_order=False)
        for n in (7, 9, 11):
            wl.texts[f"vote{n}.cm"] = vote_text(n)
            wl.entries += vote_entries(n)
        for n in (6, 8, 10):
            wl.texts[f"firing{n}.cm"] = firing_squad_text(n)
            wl.texts[f"firing{n}.ce"] = firing_squad_state(n)
            wl.entries.append(firing_squad_entry(n))
        for n in (5, 6, 7):
            wl.texts[f"fire{n}.cm"] = fire_text(n)
            wl.entries.append(fire_entry(n, rng.randint(1, n)))
    elif name == "small":
        for k in range(SMALL_MODELS):
            m = random_small_model(rng, f"s{k}", **small_shape(k))
            text = m.text()
            wl.texts[f"{m.name}.cm"] = text
            queries = small_queries(rng, m)
            for q, ((_kind, query), expect) in enumerate(zip(queries, _oracle_expects(mods, text, queries))):
                wl.entries.append(Entry(f"{m.name}/q{q}", (f"{m.name}.cm",), query, expect))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return wl
