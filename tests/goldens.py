"""Answer and diagnostic goldens: digests of every benchmark entry's answer
and counters, and of what parsing seeded documents and their mutants gives.

For each seed in `SEEDS`, `golden/seed-<seed>.json` maps the id of every
entry of the benchmark's `normality`, `search` and `small` workloads (all
corpus entries among them) to the first 16 hex digits of the SHA-256 of the
entry's report outside `timing`: the printed query (`dsl.print_query`), the
hash of each model the query used (`cli.model_hash`), the options, and the
result and `stats` that `cli.run_query` returns.  Each `cause`
entry is also run with `--failures`, under the id `<id> --failures`.  The
`small` entries are built as the benchmark builds them, without its oracle
references, which the digests do not need.

    PYTHONPATH=src python tests/goldens.py           # check; exit 1 on a difference
    PYTHONPATH=src python tests/goldens.py --write   # rewrite; print the changed ids

A change that alters answers, `stats`, the printed query or models, or a
diagnostic on purpose rewrites the files and names the changed ids.

Diagnostic goldens: for each seed, `golden/diagnostics-seed-<seed>.json`
maps the id of every document to a digest of what parsing it and its
mutants gives.  The documents are each corpus `.cm` and `.ce` file, each
query line of the corpus `.cq` files, models and queries drawn from
`randmodels` at the seed, lists that assign a variable twice, and long and
deep mixed `+ - *`, `|| &&` and `| &` chains on both sides of
`dsl.MAX_BODY_DEPTH`.  A mutant is the document cut before one token, with
one token deleted, or with one token replaced by one of the lexer pieces
(`randmodels.LEXER_PIECES`, `test_dsl`'s `_PIECES`).  Each document but the
chains gets `MUTANTS` of those, drawn by the seed (all of them when it has
fewer): every mutant of every corpus document takes over a minute to
parse, so `diagnostic_sweep.py` makes them all, outside the test suite.
An outcome is the diagnostic (category, message, line and column), the
printed model, states or query when parsing succeeds (its repr with the
printer's message where the printer refuses it), or the type and message
of any other exception.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import random
import sys
from dataclasses import asdict, replace
from pathlib import Path

from causelab import cli, dsl
from causelab.formula import CausalFormula, PrimitiveEvent
from causelab.model import Intervention
from randmodels import (
    LEXER_PIECES,
    random_block_model,
    random_context,
    random_doctors_model,
    random_event_formula,
    random_model,
    random_pattern_order,
)

SEEDS = (1, 7919)
MUTANTS = 96  # mutants digested per document and seed, chains and nests aside
GOLDEN_DIR = Path(__file__).parent / "golden"
_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    """The benchmark's `workloads` module, loaded from its file."""
    if "workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("workloads", _BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["workloads"] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules["workloads"]


def _workload(workloads, name: str, seed: int):
    """One workload's texts and entries; `small` with the benchmark's own
    draws, but without its oracle references."""
    if name != "small":
        return workloads.build(name, seed, cli.corpus_dir())
    rng = random.Random(f"{name}:{seed}")
    wl = workloads.Workload(name)
    for k in range(workloads.SMALL_MODELS):
        m = workloads.random_small_model(rng, f"s{k}", **workloads.small_shape(k))
        wl.texts[f"{m.name}.cm"] = m.text()
        for q, (_kind, query) in enumerate(workloads.small_queries(rng, m)):
            wl.entries.append(workloads.Entry(f"{m.name}/q{q}", (f"{m.name}.cm",), query, {}))
    return wl


def _digest(query, loaded: cli.LoadedSet, options: cli.RunOptions) -> str:
    result, stats, used = cli.run_query(query, loaded, options)
    payload = {
        "query": dsl.print_query(query),
        "models": {name: cli.model_hash(*loaded.models[name]) for name in used if name in loaded.models},
        "options": options.as_report_dict(),
        "result": result,
        "stats": asdict(stats),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def digests(seed: int) -> dict[str, str]:
    """Each entry id's digest at `seed`, with the options the benchmark
    runs it with."""
    workloads = _load_workloads()
    out: dict[str, str] = {}
    for name in workloads.WORKLOADS:
        wl = _workload(workloads, name, seed)
        parsed = {
            file: dsl.parse_model(text, origin=file) if file.endswith(".cm") else dsl.parse_states(text, origin=file)
            for file, text in wl.texts.items()
        }
        for entry in wl.entries:
            loaded = cli.LoadedSet()
            for file in entry.models:
                loaded.add_model(*parsed[file])
            for file in entry.states:
                for decl in parsed[file]:
                    loaded.states[decl.name] = decl
            query = dsl.parse_query(entry.query, origin=entry.id)
            options = cli.RunOptions(mode=entry.mode, strategy=entry.strategy, weights=dict(entry.weights))
            if loaded.models and not isinstance(query, dsl.BlameQuery):
                options.model_name = next(iter(loaded.models))  # target model is listed first
            runs = {entry.id: options}
            if isinstance(query, dsl.CauseQuery):
                runs[f"{entry.id} --failures"] = replace(options, failures=True)
            for key, run_options in runs.items():
                if key in out:
                    raise ValueError(f"entry id {key!r} occurs twice")
                out[key] = _digest(query, loaded, run_options)
    return out


_PARSE_AND_PRINT = {
    "cm": (dsl.parse_model, lambda parsed: dsl.print_model(*parsed)),
    "ce": (dsl.parse_states, dsl.print_states),
    "q": (dsl.parse_query, dsl.print_query),
}


def _outcome(kind: str, text: str) -> list:
    """What parsing `text` as a `kind` document gives: its diagnostic, or
    the printed result, or the result's repr where the printer refuses it."""
    parse, render = _PARSE_AND_PRINT[kind]
    try:
        parsed = parse(text)
    except dsl.DslError as exc:
        [d] = exc.diagnostics
        return [d.category, d.message, d.line, d.col]
    except Exception as exc:  # noqa: BLE001 - a crash is an outcome too
        return [type(exc).__name__, str(exc)]
    try:
        return [render(parsed)]
    except ValueError as exc:
        return [str(exc), repr(parsed[0].equations if kind == "cm" else parsed)]


def _chain(ops: tuple[str, ...], n: int, leaf: str) -> str:
    """`n` leaves joined by the operators of `ops`, in turn."""
    return leaf + "".join(f" {ops[k % len(ops)]} {leaf}" for k in range(n - 1))


def _nest(ops: tuple[str, str], n: int, leaf: str) -> str:
    """`n` leaves, each but the last before an operator and a parenthesis."""
    text = leaf
    for k in range(n - 1):
        text = f"{leaf} {ops[k % 2]} ({text})"
    return text


_MODEL = "model c {\n  exogenous U : {0,1};\n  endogenous X : {0,1} = %s;\n}\n"
_CLAMPED = _MODEL % "min(max(%s, 0), 1)"
_IF = _MODEL % "if %s then 1 else 0"

# Chains and nests by (kind, template, operators, leaf, lengths): the
# longest that the depth bound lets through, the shortest it rejects, and
# one far beyond, which crosses the bound inside the chain.
_CHAINS = [
    ("cm", _CLAMPED, ("+", "*", "-", "*"), "U", (193, 194, 400)),
    ("cm", _CLAMPED, ("*", "+", "*", "-"), "U", (194, 195, 400)),
    ("cm", _CLAMPED, ("-", "*"), "U", (193, 194, 400)),
    ("cm", _CLAMPED, ("+", "-", "*"), "U", (146, 147, 300)),
    ("cm", _IF, ("||", "&&"), "U == 1", (193, 194, 400)),
    ("cm", _IF, ("&&", "||", "&&"), "U + U * U == 1", (281, 282, 600)),
    ("q", "eval %s in ctx(U=1)", ("|", "&", "&"), "X=1", (292, 293, 600)),
    ("q", "eval %s in ctx(U=1)", ("&", "|"), "X=1", (198, 199, 400)),
]
_NESTS = [
    ("cm", _IF, ("||", "&&"), "U + U * U == 1", (96, 97, 150)),
    ("q", "ness X=1 of %s in ctx(U=1)", ("|", "&"), "X=1", (100, 101, 150)),
]

# Lists that assign a variable twice, before a later item.
_REPEATS = [
    ("cm", "model r {\n  exogenous U : {0,1};\n  endogenous X : {0,1} = U;\n  endogenous Y : {0,1} = X;\n"
           "  normality {\n    rank [X=1, Y=0, X=1, Y=1] = 0;\n    [X=1, X=0, Y=1] >= [Y=0];\n  }\n}\n"),
    ("ce", "state s {\n  situation model=m ctx(U=1,V=0,U=1,W=0) prob=1/2;\n}\n"),
    ("q", "eval [X<-1,Y<-0,X<-0,Z<-1] A=1 in ctx(U=1,V=0,U=1,W=0)"),
    ("q", "cause A=1 & B=0 & A=0 & C=1 of A=1 in ctx(U=1)"),
    ("q", "blame action A<-1, B<-0, A<-1, C<-1 of A=1 | B=0 over state s"),
]


def fixed_documents() -> list[tuple[str, str, str]]:
    """The id, kind and text of each document drawn at no seed: every
    corpus `.cm` and `.ce` file and every query line of the `.cq` files,
    then the lists that assign a variable twice."""
    docs = []
    for path in sorted(cli.corpus_dir().iterdir()):
        if path.suffix in (".cm", ".ce"):
            docs.append((f"corpus/{path.name}", path.suffix[1:], path.read_text(encoding="utf-8")))
        elif path.suffix == ".cq":
            for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
                if line.strip() and not line.strip().startswith("#"):
                    docs.append((f"corpus/{path.name}:{lineno}", "q", line))
    return docs + [(f"repeat/{k}", kind, text) for k, (kind, text) in enumerate(_REPEATS)]


def _documents(seed: int) -> list[tuple[str, str, str]]:
    """Each document's id, kind and text at `seed`: the fixed ones first,
    the chains and nests last."""
    docs = fixed_documents()
    rng = random.Random(f"diagnostics:{seed}")
    for k in range(4):
        model = random_model(rng, max_endo=4, allow_ternary=True, name=f"r{k}")
        docs.append((f"random/model {k}", "cm", dsl.print_model(model, random_pattern_order(rng, model))))
        endo = model.signature.endogenous
        (x, xs), (y, ys) = rng.choice(endo), rng.choice(endo)
        formula = random_event_formula(rng, model, depth=3)
        ctx = tuple(random_context(rng, model).items())
        queries = (
            dsl.EvalQuery(CausalFormula(Intervention({x: xs[-1]}), formula), ctx),
            dsl.CauseQuery(((x, xs[0]), (y, ys[-1])), formula, ctx),
            dsl.BlameQuery(((x, xs[0]),), formula, "s"),
            dsl.NessQuery(PrimitiveEvent(y, ys[0]), formula, ctx),
        )
        docs += [(f"random/query {k}.{q}", "q", dsl.print_query(query)) for q, query in enumerate(queries)]
    for k in range(2):
        docs.append((f"random/doctors {k}", "cm", dsl.print_model(*random_doctors_model(rng, name=f"d{k}"))))
        docs.append((f"random/block {k}", "cm", dsl.print_model(*random_block_model(rng, name=f"b{k}"))))
    for kind, template, ops, leaf, lengths in _CHAINS:
        docs += [(f"chain/{' '.join(ops)} {n}", kind, template % _chain(ops, n, leaf)) for n in lengths]
    for kind, template, ops, leaf, lengths in _NESTS:
        docs += [(f"nest/{' '.join(ops)} {n}", kind, template % _nest(ops, n, leaf)) for n in lengths]
    return docs


EDITS = 2 + len(LEXER_PIECES)  # the mutants of one token: a cut, a deletion, each piece


def token_spans(text: str) -> list[tuple[int, int]]:
    """The span of each token of `text`, the end of input aside."""
    return [m.span(1) for m in dsl._TEXTS_RE.finditer(text)][:-1]


def mutant(text: str, span: tuple[int, int], edit: int) -> str:
    """`text` cut before the token at `span` (`edit` 0), with it deleted
    (1), or with it replaced by lexer piece `edit - 2`."""
    start, end = span
    tail = "" if edit == 0 else text[end:] if edit == 1 else LEXER_PIECES[edit - 2] + text[end:]
    return text[:start] + tail


def diagnostic_digests(seed: int) -> dict[str, str]:
    """Each document's digest at `seed`: its outcome as written, then each
    drawn mutant's edit and outcome.  Chains and nests, up to thousands of
    tokens each, are digested as written only."""
    out: dict[str, str] = {}
    for doc_id, kind, text in _documents(seed):
        spans = token_spans(text)
        edits = [(at, edit) for at in range(len(spans)) for edit in range(EDITS)]
        if doc_id.startswith(("chain/", "nest/")):
            edits = []
        elif len(edits) > MUTANTS:
            edits = sorted(random.Random(f"{seed}:{doc_id}").sample(edits, MUTANTS))
        outcomes = [_outcome(kind, text)]
        for at, edit in edits:
            outcomes.append([at, edit, _outcome(kind, mutant(text, spans[at], edit))])
        if doc_id in out:
            raise ValueError(f"document id {doc_id!r} occurs twice")
        out[doc_id] = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()[:16]
    return out


def golden_path(seed: int, kind: str = "seed") -> Path:
    """The golden file of `kind`: `seed` for answers, `diagnostics-seed`."""
    return GOLDEN_DIR / f"{kind}-{seed}.json"


_KINDS = {"seed": digests, "diagnostics-seed": diagnostic_digests}


def changed_ids(seed: int, current: dict[str, str] | None = None, kind: str = "seed") -> list[str]:
    """The ids whose digest differs from the golden file, or that only one
    of the two holds."""
    current = _KINDS[kind](seed) if current is None else current
    path = golden_path(seed, kind)
    golden = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    return sorted(key for key in golden.keys() | current.keys() if golden.get(key) != current.get(key))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the golden files; print the changed ids")
    args = parser.parse_args(argv)
    status = 0
    for kind, compute in _KINDS.items():
        for seed in SEEDS:
            current = compute(seed)
            changed = changed_ids(seed, current, kind)
            for key in changed:
                print(f"{kind} {seed}: {key}")
            if args.write:
                GOLDEN_DIR.mkdir(exist_ok=True)
                golden_path(seed, kind).write_text(json.dumps(current, indent=0, sort_keys=True) + "\n", encoding="utf-8")
            elif changed:
                status = 1
            print(f"{kind} {seed}: {len(current)} digests, {len(changed)} changed", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
