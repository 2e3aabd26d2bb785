"""Command-line front end.

Subcommands: solve, eval, cause, resp, blame, ness, corpus.  Each query is
answered with a single machine-readable JSON object on stdout (a readable
table with --pretty); wall-clock timings live in a dedicated "timing" field
so that the rest of the output is byte-reproducible.  Errors are reported as
structured diagnostics, never stack traces.

Exit codes: 0 the query was answered (whatever the verdict), 1 diagnostics
were produced, 2 the exact-mode variable cap was hit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from . import attribution, dsl, hp, ness
from .dsl import (
    BlameQuery,
    CauseQuery,
    Diagnostic,
    DslError,
    EvalQuery,
    NessQuery,
    Query,
    RespQuery,
    StateDecl,
    parse_model,
    parse_query,
    parse_states,
    print_model,
)
from .formula import holds
from .hp import CandidateCause, CapExceededError, EngineOptions, EngineStats
from .model import CausalModel, Context, Intervention, ModelError
from .normality import ExtendedModel, NormalityOrder

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_CAP = 2


class RunError(Exception):
    def __init__(self, diagnostics: list[Diagnostic], exit_code: int = EXIT_DIAGNOSTICS):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics
        self.exit_code = exit_code


@dataclass
class RunOptions:
    mode: str = "extended"  # or "preliminary"
    strategy: str = "reciprocal"
    weights: dict[str, Fraction] = field(default_factory=dict)
    max_vars: int = hp.DEFAULT_MAX_VARS
    sampled: bool = False
    seed: int = 0
    samples: int = 5000
    model_name: str | None = None

    def engine(self) -> EngineOptions:
        return EngineOptions(
            max_vars=self.max_vars,
            sampled=self.sampled,
            seed=self.seed,
            samples=self.samples,
        )

    def scoring(self) -> attribution.ScoringStrategy:
        if self.strategy == "weighted":
            return attribution.ScoringStrategy.weighted(self.weights)
        if self.strategy == "ways":
            return attribution.ScoringStrategy.ways_fraction()
        return attribution.ScoringStrategy(self.strategy)

    def as_report_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "strategy": self.strategy,
            "max_vars": self.max_vars,
            "sampled": self.sampled,
        }
        if self.sampled:
            out["seed"] = self.seed
            out["samples"] = self.samples
        if self.weights:
            out["weights"] = {k: str(v) for k, v in sorted(self.weights.items())}
        return out


@dataclass
class LoadedSet:
    """Models and epistemic states available to one invocation."""

    models: dict[str, tuple[CausalModel, NormalityOrder | None]] = field(default_factory=dict)
    states: dict[str, StateDecl] = field(default_factory=dict)

    def add_model(self, model: CausalModel, order: NormalityOrder | None) -> None:
        self.models[model.name] = (model, order)

    def pick_model(self, name: str | None) -> tuple[CausalModel, NormalityOrder | None]:
        if not self.models:
            raise RunError([_plain_diag("syntax", "no model loaded; pass -m <file>")])
        if name is None:
            if len(self.models) > 1:
                raise RunError(
                    [_plain_diag("syntax", "several models loaded; pick one with --model-name")]
                )
            return next(iter(self.models.values()))
        if name not in self.models:
            raise RunError([_plain_diag("unknown variable", f"no loaded model named {name!r}")])
        return self.models[name]


def _plain_diag(category: str, message: str) -> Diagnostic:
    return Diagnostic(category, message, 1, 1, "<run>")


def _classify_model_error(exc: Exception) -> Diagnostic:
    text = str(exc)
    category = "semantic"
    if "unknown variable" in text or "not endogenous" in text or "undeclared" in text:
        category = "unknown variable"
    elif "range" in text:
        category = "range violation"
    return _plain_diag(category, text)


def _extended(model: CausalModel, order: NormalityOrder | None, options: RunOptions) -> ExtendedModel:
    if options.mode == "preliminary" or order is None:
        return ExtendedModel(model, None)
    return ExtendedModel(model, order)


def _context(model: CausalModel, assigns) -> Context:
    ctx = Context(dict(assigns))
    model.signature.check_context(ctx)
    return ctx


def _witness_dict(ext: ExtendedModel, context: Context, cause: CandidateCause, w: hp.Witness) -> dict:
    world = hp.witness_world(ext, context, cause, w)
    return {
        "w_set": sorted(w.w_set),
        "w_setting": w.w_setting.as_dict(),
        "x_prime": w.x_prime.as_dict(),
        "changes": w.changes,
        "witness_world": world.as_dict(),
    }


def _cause_result(ext, context, cause, verdict: hp.CauseVerdict) -> dict:
    result = {
        "verdict": verdict.is_cause,
        "failed_condition": verdict.failed_condition,
        "min_changes": verdict.witnesses[0].changes if verdict.witnesses else None,
        "witnesses": [_witness_dict(ext, context, cause, w) for w in verdict.witnesses],
        "ac2b_failures": [
            {
                "w_set": sorted(f.w_set),
                "w_setting": f.w_setting.as_dict(),
                "x_prime": f.x_prime.as_dict(),
                "w_prime": sorted(f.w_prime),
                "z_prime": sorted(f.z_prime),
            }
            for f in verdict.ac2b_failures
        ],
    }
    if verdict.sampled:
        result["sampled_unsound"] = True
    return result


def _resolve_state(loaded: LoadedSet, name: str, options: RunOptions) -> attribution.EpistemicState:
    if name not in loaded.states:
        raise RunError([_plain_diag("unknown variable", f"no loaded state named {name!r}")])
    decl = loaded.states[name]
    situations = []
    probabilities = []
    for sit in decl.situations:
        if sit.model_name not in loaded.models:
            raise RunError(
                [_plain_diag("unknown variable", f"state {name!r} references unloaded model {sit.model_name!r}")]
            )
        model, order = loaded.models[sit.model_name]
        ext = _extended(model, order, options)
        try:
            context = _context(model, sit.context)
        except ModelError as exc:
            raise RunError([_classify_model_error(exc)]) from None
        situations.append((ext, context))
        probabilities.append(sit.probability)
    try:
        return attribution.EpistemicState(tuple(situations), tuple(probabilities))
    except ValueError as exc:
        raise RunError([_plain_diag("semantic", str(exc))]) from None


def run_query(query: Query, loaded: LoadedSet, options: RunOptions) -> tuple[dict, EngineStats, list[str]]:
    """Execute one parsed query; returns (result, stats, model names used)."""
    stats = EngineStats()
    try:
        if isinstance(query, EvalQuery):
            model, _ = loaded.pick_model(options.model_name)
            context = _context(model, query.context)
            return {"kind": "eval", "holds": holds(model, context, query.formula)}, stats, [model.name]

        if isinstance(query, (CauseQuery, RespQuery)):
            model, order = loaded.pick_model(options.model_name)
            ext = _extended(model, order, options)
            context = _context(model, query.context)
            cause = CandidateCause.of(dict(query.cause))
            if isinstance(query, CauseQuery):
                verdict = hp.is_actual_cause(ext, context, cause, query.outcome, options.engine(), stats)
                return {"kind": "cause", **_cause_result(ext, context, cause, verdict)}, stats, [model.name]
            resp = attribution.degree_of_responsibility(
                ext, context, cause, query.outcome, options.scoring(), options.engine(), stats
            )
            result = {
                "kind": "resp",
                "score": str(resp.value),
                "strategy": options.strategy,
                "witness": (
                    _witness_dict(ext, context, cause, resp.achieving_witness)
                    if resp.achieving_witness is not None
                    else None
                ),
            }
            if resp.sampled:
                result["sampled_unsound"] = True
            return result, stats, [model.name]

        if isinstance(query, BlameQuery):
            state = _resolve_state(loaded, query.state_name, options)
            action = Intervention(dict(query.action))
            score = attribution.degree_of_blame(
                state, action, query.outcome, options.scoring(), options.engine(), stats
            )
            used = sorted({ext.model.name for ext, _ in state.situations})
            return {"kind": "blame", "score": str(score), "state": query.state_name}, stats, used

        if isinstance(query, NessQuery):
            model, _ = loaded.pick_model(options.model_name)
            context = _context(model, query.context)
            found = ness.is_ness_cause(model, context, query.event, query.outcome)
            result = {
                "kind": "ness",
                "verdict": found is not None,
                "sufficient_set": (
                    {ev.variable: ev.value for ev in found.events} if found is not None else None
                ),
            }
            return result, stats, [model.name]
    except CapExceededError as exc:
        raise RunError([_plain_diag("resource-cap", str(exc))], EXIT_CAP) from None
    except (ModelError, ValueError) as exc:
        raise RunError([_classify_model_error(exc)]) from None
    raise RunError([_plain_diag("syntax", f"unsupported query {query!r}")])


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def model_hash(model: CausalModel, order: NormalityOrder | None = None) -> str:
    return hashlib.sha256(print_model(model, order).encode()).hexdigest()[:16]


def _report(query_text: str, result: dict, stats: EngineStats, hashes: dict[str, str], options: RunOptions, wall_ms: float) -> dict:
    return {
        "query": query_text,
        "models": hashes,
        "options": options.as_report_dict(),
        "result": result,
        "stats": {"solves": stats.solves, "subset_checks": stats.subset_checks},
        "timing": {"wall_ms": round(wall_ms, 3)},
    }


def _emit(report: dict, pretty: bool, out) -> None:
    if not pretty:
        print(json.dumps(report, sort_keys=True), file=out)
        return
    result = report["result"]
    print(f"query    {report['query']}", file=out)
    for key in sorted(result):
        if key == "witnesses":
            continue
        print(f"{key:<12} {result[key]}", file=out)
    for i, w in enumerate(result.get("witnesses", [])):
        print(
            f"witness[{i}]  W={','.join(w['w_set']) or '(empty)'}"
            f" w={w['w_setting']} x'={w['x_prime']} changes={w['changes']}",
            file=out,
        )
    print(f"stats        {report['stats']}  timing {report['timing']}", file=out)


def _emit_diagnostics(diags: list[Diagnostic], pretty: bool, out) -> None:
    payload = {
        "diagnostics": [
            {
                "category": d.category,
                "message": d.message,
                "line": d.line,
                "col": d.col,
                "origin": d.origin,
            }
            for d in diags
        ]
    }
    if pretty:
        for d in diags:
            print(str(d), file=out)
    else:
        print(json.dumps(payload, sort_keys=True), file=out)


# ---------------------------------------------------------------------------
# Corpus runner
# ---------------------------------------------------------------------------


def corpus_dir():
    return resources.files("causelab").joinpath("corpus")


def _load_files(model_files, state_files) -> LoadedSet:
    loaded = LoadedSet()
    for path in model_files or []:
        with open(path, encoding="utf-8") as fh:
            model, order = parse_model(fh.read(), origin=str(path))
        loaded.add_model(model, order)
    for path in state_files or []:
        with open(path, encoding="utf-8") as fh:
            for decl in parse_states(fh.read(), origin=str(path)):
                loaded.states[decl.name] = decl
    return loaded


def run_corpus_entry(entry: dict, base) -> tuple[bool, str, dict, float]:
    """Run one expected.json entry; returns (ok, message, report, wall_ms)."""
    loaded = _load_files(
        [base / m for m in entry.get("models", [])],
        [base / s for s in entry.get("states", [])],
    )
    opts = entry.get("options", {})
    options = RunOptions(
        mode=opts.get("mode", "extended"),
        strategy=opts.get("strategy", "reciprocal"),
    )
    query = parse_query(entry["query"], origin=entry["id"])
    if loaded.models and not isinstance(query, BlameQuery):
        # entries list the target model first
        options.model_name = next(iter(loaded.models))
    start = time.perf_counter()
    result, stats, _used = run_query(query, loaded, options)
    wall_ms = (time.perf_counter() - start) * 1000.0
    mismatches = []
    for key, want in entry["expect"].items():
        got = result.get(key)
        if got != want:
            mismatches.append(f"{key}: expected {want!r}, got {got!r}")
    ok = not mismatches
    message = "; ".join(mismatches)
    return ok, message, result, wall_ms


def load_corpus_entries(base=None) -> list[dict]:
    base = base or corpus_dir()
    with (base / "expected.json").open(encoding="utf-8") as fh:
        return json.load(fh)


def _cmd_corpus(args, out) -> int:
    base = args.dir or corpus_dir()
    if not isinstance(base, type(corpus_dir())):
        from pathlib import Path

        base = Path(base)
    entries = load_corpus_entries(base)
    if args.action == "list":
        for entry in entries:
            print(entry["id"], file=out)
        return EXIT_OK
    failures = 0
    for entry in entries:
        try:
            ok, message, _result, wall_ms = run_corpus_entry(entry, base)
        except (RunError, DslError) as exc:
            ok, message, wall_ms = False, str(exc), 0.0
        status = "PASS" if ok else "FAIL"
        suffix = "" if ok else f"  ({message})"
        print(f"{status} {entry['id']}  [{wall_ms:.1f} ms]{suffix}", file=out)
        failures += 0 if ok else 1
    print(f"{len(entries) - failures}/{len(entries)} corpus expectations hold", file=out)
    return EXIT_OK if failures == 0 else EXIT_DIAGNOSTICS


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


def _parse_weights(text: str) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        if not name or not value:
            raise argparse.ArgumentTypeError("weights look like 'V1=1/2,V2=3'")
        out[name.strip()] = Fraction(value.strip())
    return out


def _default_max_vars() -> int:
    env = os.environ.get("CAUSELAB_MAX_VARS")
    if env:
        try:
            return int(env)
        except ValueError:
            pass
    return hp.DEFAULT_MAX_VARS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causelab",
        description="Actual-cause, responsibility, blame, and sufficiency queries over finite structural causal models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-m", "--model", action="append", dest="models", metavar="FILE", help="model file (.cm); repeatable")
    common.add_argument("-s", "--state", action="append", dest="states", metavar="FILE", help="epistemic state file (.ce); repeatable")
    common.add_argument("--model-name", help="target model when several are loaded")
    common.add_argument("--preliminary", action="store_true", help="ignore normality declarations")
    common.add_argument("--extended", action="store_true", help="use normality declarations (default)")
    common.add_argument("--strategy", choices=["reciprocal", "exponential", "weighted", "ways"], default="reciprocal")
    common.add_argument("--weights", type=_parse_weights, default={}, help="per-variable weights for --strategy weighted")
    common.add_argument("--max-vars", type=int, default=_default_max_vars(), help="exact-mode endogenous variable cap")
    common.add_argument("--sampled", action="store_true", help="sample witnesses above the cap (unsound)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--samples", type=int, default=5000)
    common.add_argument("--pretty", action="store_true", help="human-readable output")

    query_like = argparse.ArgumentParser(add_help=False, parents=[common])
    group = query_like.add_mutually_exclusive_group(required=True)
    group.add_argument("-q", "--query", help="query text")
    group.add_argument("-Q", "--query-file", help="file with one query per line")

    for name, desc in (
        ("eval", "evaluate a causal formula in a context"),
        ("cause", "decide actual causation"),
        ("resp", "degree of responsibility"),
        ("blame", "degree of blame over an epistemic state"),
        ("ness", "naive sufficient-set causation test"),
    ):
        sub.add_parser(name, parents=[query_like], help=desc)

    solve = sub.add_parser("solve", parents=[common], help="solve the equations in a context")
    solve.add_argument("--ctx", required=True, help="context like 'U1=1,U2=0'")

    corpus = sub.add_parser("corpus", help="run or list bundled example expectations")
    corpus.add_argument("action", choices=["run", "list"])
    corpus.add_argument("--dir", help="corpus directory (defaults to the bundled one)")
    return parser


_KIND_BY_COMMAND = {
    "eval": EvalQuery,
    "cause": CauseQuery,
    "resp": RespQuery,
    "blame": BlameQuery,
    "ness": NessQuery,
}


def _options_from_args(args) -> RunOptions:
    return RunOptions(
        mode="preliminary" if args.preliminary else "extended",
        strategy=args.strategy,
        weights=dict(args.weights),
        max_vars=args.max_vars,
        sampled=args.sampled,
        seed=args.seed,
        samples=args.samples,
        model_name=args.model_name,
    )


def _hashes_for(loaded: LoadedSet, used: list[str]) -> dict[str, str]:
    return {name: model_hash(*loaded.models[name]) for name in used if name in loaded.models}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)

    if args.command == "corpus":
        return _cmd_corpus(args, out)

    try:
        loaded = _load_files(args.models, args.states)
    except DslError as exc:
        _emit_diagnostics(exc.diagnostics, args.pretty, out)
        return EXIT_DIAGNOSTICS
    except OSError as exc:
        _emit_diagnostics([_plain_diag("syntax", str(exc))], args.pretty, out)
        return EXIT_DIAGNOSTICS
    options = _options_from_args(args)

    if args.command == "solve":
        try:
            model, _order = loaded.pick_model(options.model_name)
            assigns = [
                (name.strip(), int(value))
                for name, _, value in (part.partition("=") for part in args.ctx.split(","))
            ]
            context = _context(model, assigns)
            start = time.perf_counter()
            world = model.solve(context)
            wall = (time.perf_counter() - start) * 1000.0
            report = _report(
                f"solve ctx({args.ctx})",
                {"kind": "solve", "world": world.as_dict()},
                EngineStats(),
                _hashes_for(loaded, [model.name]),
                options,
                wall,
            )
            _emit(report, args.pretty, out)
            return EXIT_OK
        except RunError as exc:
            _emit_diagnostics(exc.diagnostics, args.pretty, out)
            return exc.exit_code
        except (ModelError, ValueError) as exc:
            _emit_diagnostics([_classify_model_error(exc)], args.pretty, out)
            return EXIT_DIAGNOSTICS

    # query-bearing subcommands
    try:
        if args.query is not None:
            queries = [parse_query(args.query)]
        else:
            queries = dsl.parse_query_file(args.query_file)
    except DslError as exc:
        _emit_diagnostics(exc.diagnostics, args.pretty, out)
        return EXIT_DIAGNOSTICS

    expected_kind = _KIND_BY_COMMAND[args.command]
    exit_code = EXIT_OK
    for query in queries:
        if not isinstance(query, expected_kind):
            _emit_diagnostics(
                [_plain_diag("syntax", f"subcommand {args.command!r} got a {query.kind!r} query")],
                args.pretty,
                out,
            )
            exit_code = max(exit_code, EXIT_DIAGNOSTICS)
            continue
        try:
            start = time.perf_counter()
            result, stats, used = run_query(query, loaded, options)
            wall = (time.perf_counter() - start) * 1000.0
            report = _report(
                dsl.print_query(query), result, stats, _hashes_for(loaded, used), options, wall
            )
            _emit(report, args.pretty, out)
        except RunError as exc:
            _emit_diagnostics(exc.diagnostics, args.pretty, out)
            exit_code = max(exit_code, exc.exit_code)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
