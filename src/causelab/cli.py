"""Command-line front end.

Subcommands: solve, eval, cause, resp, blame, ness, corpus.  Each query is
answered with a single machine-readable JSON object on stdout (a readable
table with --pretty); wall-clock timings live in a dedicated "timing" field
so that the rest of the output is byte-reproducible.  Errors are reported as
structured diagnostics, never stack traces: every failure, whether found
while loading, parsing or answering a query, is one `dsl.DslError`, and a
library error gets the category its class carries.

A `cause` result carries the AC2(b) failures of a non-cause
(`ac2b_failures`) only with `cause --failures`: naming them takes a pass of
its own, and without the flag the key is absent, for causes and non-causes
alike.

Exit codes: 0 the query was answered (whatever the verdict), 2 a usage error
(argparse); otherwise the code follows the diagnostic's category, 3 for
`resource-cap` (the variable cap was hit) and 1 for any other.  A `-Q` batch
exits with the highest code of its lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

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
    parse_query,
    print_model,
)
from .formula import EngineStats, holds
from .hp import CandidateCause, CapExceededError
from .model import CausalModel, Context, Intervention
from .normality import ExtendedModel, NormalityOrder

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_CAP = 3


@dataclass
class RunOptions:
    mode: str = "extended"  # or "preliminary"
    strategy: str = "reciprocal"
    weights: dict[str, Fraction] = field(default_factory=dict)
    max_vars: int = hp.DEFAULT_MAX_VARS
    model_name: str | None = None
    failures: bool = False  # `cause --failures`: record AC2(b) failures

    def scoring(self) -> attribution.ScoringStrategy:
        if self.strategy == "weighted":
            return attribution.ScoringStrategy.weighted(self.weights)
        return attribution.ScoringStrategy(self.strategy, tuple(self.weights.items()) or None)

    def as_report_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "strategy": self.strategy,
            "max_vars": self.max_vars,
        }
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
            raise DslError([_plain_diag("syntax", "no model loaded; pass -m <file>")])
        if name is None:
            if len(self.models) > 1:
                raise DslError([_plain_diag("syntax", "several models loaded; pick one with --model-name")])
            return next(iter(self.models.values()))
        if name not in self.models:
            raise DslError([_plain_diag("unknown variable", f"no loaded model named {name!r}")])
        return self.models[name]


def _plain_diag(category: str, message: str) -> Diagnostic:
    return Diagnostic(category, message, 1, 1, "<run>")


def _error_diag(exc: CapExceededError | ValueError) -> Diagnostic:
    """A library error carries its category (`ModelError.category`,
    `CapExceededError.category`); any other ValueError is semantic."""
    return _plain_diag(getattr(exc, "category", "semantic"), str(exc))


def _extended(model: CausalModel, order: NormalityOrder | None, options: RunOptions) -> ExtendedModel:
    return ExtendedModel(model, None if options.mode == "preliminary" else order)


def _witness_dict(w: hp.Witness) -> dict:
    """A witness the search returned, with the world it solved for it,
    formatted from its positions (`hp.Witness.settings`); W is the keys of
    its setting."""
    w_setting, x_prime, world = w.settings()
    return {
        "w_set": sorted(w_setting),
        "w_setting": w_setting,
        "x_prime": x_prime,
        "changes": w.changes,
        "witness_world": world,
    }


def _cause_result(verdict: hp.CauseVerdict, failures: bool) -> dict:
    """The `cause` result; `ac2b_failures` only when they were recorded, since
    an empty list would read as "no failures"."""
    result = {
        "verdict": verdict.is_cause,
        "failed_condition": verdict.failed_condition,
        "min_changes": verdict.witnesses[0].changes if verdict.witnesses else None,
        "witnesses": [_witness_dict(w) for w in verdict.witnesses],
    }
    if failures:
        result["ac2b_failures"] = [
            {
                "w_set": sorted(f.w_set),
                "w_setting": f.w_setting.as_dict(),
                "x_prime": f.x_prime.as_dict(),
                "w_prime": sorted(f.w_prime),
                "z_prime": sorted(f.z_prime),
            }
            for f in verdict.ac2b_failures
        ]
    return result


def _resolve_state(loaded: LoadedSet, name: str, options: RunOptions) -> attribution.EpistemicState:
    if name not in loaded.states:
        raise DslError([_plain_diag("unknown variable", f"no loaded state named {name!r}")])
    decl = loaded.states[name]
    situations = []
    for sit in decl.situations:
        if sit.model_name not in loaded.models:
            raise DslError(
                [_plain_diag("unknown variable", f"state {name!r} references unloaded model {sit.model_name!r}")]
            )
        model, order = loaded.models[sit.model_name]
        situations.append((_extended(model, order, options), Context(sit.context)))
    return attribution.EpistemicState(tuple(situations), tuple(sit.probability for sit in decl.situations))


def run_query(query: Query, loaded: LoadedSet, options: RunOptions) -> tuple[dict, EngineStats, list[str]]:
    """Execute one parsed query; returns (result, stats, model names used)."""
    stats = EngineStats()
    try:
        if isinstance(query, EvalQuery):
            model, _ = loaded.pick_model(options.model_name)
            result = {"kind": "eval", "holds": holds(model, Context(query.context), query.formula)}
            used = [model.name]

        elif isinstance(query, (CauseQuery, RespQuery)):
            model, order = loaded.pick_model(options.model_name)
            ext = _extended(model, order, options)
            context = Context(query.context)
            cause = CandidateCause.of(dict(query.cause))
            if isinstance(query, CauseQuery):
                verdict = hp.is_actual_cause(
                    ext, context, cause, query.outcome, options.max_vars, stats, record_failures=options.failures
                )
                result = {"kind": "cause", **_cause_result(verdict, options.failures)}
            else:
                resp = attribution.degree_of_responsibility(
                    ext, context, cause, query.outcome, options.scoring(), options.max_vars, stats
                )
                result = {
                    "kind": "resp",
                    "score": str(resp.value),
                    "strategy": options.strategy,
                    "witness": (
                        _witness_dict(resp.achieving_witness) if resp.achieving_witness is not None else None
                    ),
                }
            used = [model.name]

        elif isinstance(query, BlameQuery):
            state = _resolve_state(loaded, query.state_name, options)
            action = Intervention(dict(query.action))
            score = attribution.degree_of_blame(
                state, action, query.outcome, options.scoring(), options.max_vars, stats
            )
            result = {"kind": "blame", "score": str(score), "state": query.state_name}
            used = sorted({ext.model.name for ext, _ in state.situations})

        elif isinstance(query, NessQuery):
            model, _ = loaded.pick_model(options.model_name)
            found = ness.is_ness_cause(model, Context(query.context), query.event, query.outcome, stats)
            result = {
                "kind": "ness",
                "verdict": found is not None,
                "sufficient_set": found.as_dict() if found is not None else None,
            }
            used = [model.name]

        else:
            raise DslError([_plain_diag("syntax", f"unsupported query {query!r}")])
    except (CapExceededError, ValueError) as exc:
        raise DslError([_error_diag(exc)]) from None
    return result, stats, used


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
        "stats": asdict(stats),
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


def _emit_diagnostics(diags: list[Diagnostic], pretty: bool, out) -> int:
    """Print the diagnostics; returns the exit code, which follows their
    category: 3 for `resource-cap`, 1 for any other."""
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
    return EXIT_CAP if any(d.category == "resource-cap" for d in diags) else EXIT_DIAGNOSTICS


# ---------------------------------------------------------------------------
# Corpus runner
# ---------------------------------------------------------------------------


def corpus_dir():
    return resources.files("causelab").joinpath("corpus")


def _file_diag(path, exc: OSError | ValueError) -> Diagnostic:
    """The diagnostic for a file that cannot be read, is not UTF-8, or is
    not the JSON it should be."""
    if isinstance(exc, OSError):
        return _plain_diag("syntax", str(exc))
    if isinstance(exc, UnicodeDecodeError):
        return _plain_diag("syntax", f"{path}: not valid UTF-8")
    return _plain_diag("syntax", f"{path}: {exc}")


def _read(parse, path):
    """`parse(path)`, raising a `DslError` when the file cannot be read or is
    not UTF-8."""
    try:
        return parse(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise DslError([_file_diag(path, exc)]) from None


def _load_files(model_files, state_files) -> LoadedSet:
    loaded = LoadedSet()
    for path in model_files or []:
        loaded.add_model(*_read(dsl.parse_model_file, path))
    for path in state_files or []:
        for decl in _read(dsl.parse_state_file, path):
            loaded.states[decl.name] = decl
    return loaded


def run_corpus_entry(entry: dict, base) -> tuple[bool, str, dict, float]:
    """Run one expected.json entry; returns (ok, message, report, wall_ms)."""
    loaded = _load_files(
        [base / m for m in entry.get("models", [])],
        [base / s for s in entry.get("states", [])],
    )
    opts = entry.get("options", {})
    for key in opts:
        if key not in ("mode", "strategy"):
            raise DslError([_plain_diag("semantic", f"unknown option {key!r}")])
    options = RunOptions(
        mode=opts.get("mode", "extended"),
        strategy=opts.get("strategy", "reciprocal"),
    )
    if options.mode not in ("extended", "preliminary"):
        raise DslError([_plain_diag("semantic", f"unknown mode {options.mode!r}")])
    if options.strategy not in attribution.STRATEGY_KINDS:
        raise DslError([_plain_diag("semantic", f"unknown strategy {options.strategy!r}")])
    query = parse_query(entry["query"], origin=entry["id"])
    if "strategy" in opts and not isinstance(query, (RespQuery, BlameQuery)):
        raise DslError([_plain_diag("semantic", f"unknown option 'strategy' for a {query.kind} query")])
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


# The fields of an expected.json entry and their JSON types; the first three
# are required.
_ENTRY_FIELDS = {"id": str, "query": str, "expect": dict, "models": list, "states": list, "options": dict}


def _is_entry(entry) -> bool:
    return (
        isinstance(entry, dict)
        and all(name in entry for name in ("id", "query", "expect"))
        and all(isinstance(entry[name], kind) for name, kind in _ENTRY_FIELDS.items() if name in entry)
        and all(isinstance(path, str) for name in ("models", "states") for path in entry.get(name, []))
    )


def load_corpus_entries(base=None) -> list[dict]:
    """The entries of `base/expected.json`; raises ValueError when the file
    is not JSON or not a list of entries."""
    base = base or corpus_dir()
    with (base / "expected.json").open(encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, list):
        raise ValueError("not a list of entries")
    for i, entry in enumerate(entries):
        if not _is_entry(entry):
            raise ValueError(
                f"entry {i} is not an object with a string 'id', a string 'query' and an object"
                " 'expect', and, where given, lists of file names 'models' and 'states' and an"
                " object 'options'"
            )
    return entries


def _cmd_corpus(args, out) -> int:
    base = Path(args.dir) if args.dir else corpus_dir()
    try:
        entries = load_corpus_entries(base)
    except (OSError, ValueError) as exc:  # missing, not UTF-8, not JSON, or misshapen
        return _emit_diagnostics([_file_diag(base / "expected.json", exc)], False, out)
    if args.action == "list":
        for entry in entries:
            print(entry["id"], file=out)
        return EXIT_OK
    failures = 0
    for entry in entries:
        try:
            ok, message, _result, wall_ms = run_corpus_entry(entry, base)
        except DslError as exc:
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
        name = name.strip()
        if not name or not value:
            raise argparse.ArgumentTypeError("weights look like 'V1=1/2,V2=3'")
        if name in out:
            raise argparse.ArgumentTypeError(f"weight for {name!r} given twice")
        try:
            out[name] = Fraction(value.strip())
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(f"weight {part!r} divides by zero") from None
        except ValueError:
            raise argparse.ArgumentTypeError(f"weight {part!r} is not a number") from None
    return out


def _parse_cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"the variable cap must be 0 or more, not {cap}")
    return cap


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
    mode = common.add_mutually_exclusive_group()
    mode.add_argument("--preliminary", action="store_true", help="ignore normality declarations")
    mode.add_argument("--extended", action="store_true", help="use normality declarations (default)")
    # argparse converts a string default with `type`, so a bad value fails as `--max-vars` would
    max_vars = os.environ.get("CAUSELAB_MAX_VARS") or hp.DEFAULT_MAX_VARS
    common.add_argument("--max-vars", type=_parse_cap, default=max_vars, help="endogenous variable cap")
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
        command = sub.add_parser(name, parents=[query_like], help=desc)
        if name == "cause":
            command.add_argument(
                "--failures", action="store_true", help="name the AC2(b) failures of a non-cause (a pass of its own)"
            )
        if name in ("resp", "blame"):  # the commands that score
            command.add_argument("--strategy", choices=attribution.STRATEGY_KINDS, default="reciprocal")
            command.add_argument(
                "--weights", type=_parse_weights, default={}, help="per-variable weights for --strategy weighted"
            )

    solve = sub.add_parser("solve", parents=[common], help="solve the equations in a context")
    solve.add_argument("--ctx", required=True, help="context like 'U1=1,U2=0'")

    corpus = sub.add_parser("corpus", help="run or list bundled example expectations")
    corpus.add_argument("action", choices=["run", "list"])
    corpus.add_argument("--dir", help="corpus directory (defaults to the bundled one)")
    return parser


def _options_from_args(args) -> RunOptions:
    return RunOptions(
        mode="preliminary" if args.preliminary else "extended",
        strategy=getattr(args, "strategy", "reciprocal"),  # only `resp` and `blame` have the flags
        weights=dict(getattr(args, "weights", {})),
        max_vars=args.max_vars,
        model_name=args.model_name,
        failures=getattr(args, "failures", False),  # only `cause` has the flag
    )


def _hashes_for(loaded: LoadedSet, used: list[str], memo: dict[str, str]) -> dict[str, str]:
    """The hash of each loaded model in `used`; `memo` keeps each one made,
    so a model is hashed once per invocation."""
    for name in used:
        if name in loaded.models and name not in memo:
            memo[name] = model_hash(*loaded.models[name])
    return {name: memo[name] for name in used if name in memo}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)

    if args.command == "corpus":
        return _cmd_corpus(args, out)

    try:  # set-up: files, options, the `solve` subcommand, the queries
        loaded = _load_files(args.models, args.states)
        options = _options_from_args(args)
        if args.command == "solve":
            model, order = loaded.pick_model(options.model_name)
            assigns = dsl.parse_context(args.ctx)
            start = time.perf_counter()
            world = model.solve(Context(assigns))
            wall = (time.perf_counter() - start) * 1000.0
            result = {"kind": "solve", "world": world.as_dict()}
            hashes = {model.name: model_hash(model, order)}
            report = _report(f"solve {dsl.print_context(assigns)}", result, EngineStats(), hashes, options, wall)
            _emit(report, args.pretty, out)
            return EXIT_OK
        if args.query is not None:
            queries = [parse_query(args.query)]
        else:
            queries = _read(dsl.parse_query_file, args.query_file)
    except (DslError, ValueError) as exc:
        diags = exc.diagnostics if isinstance(exc, DslError) else [_error_diag(exc)]
        return _emit_diagnostics(diags, args.pretty, out)

    exit_code = EXIT_OK
    memo: dict[str, str] = {}
    for query in queries:
        try:
            if query.kind != args.command:
                raise DslError([_plain_diag("syntax", f"subcommand {args.command!r} got a {query.kind!r} query")])
            start = time.perf_counter()
            result, stats, used = run_query(query, loaded, options)
            wall = (time.perf_counter() - start) * 1000.0
            report = _report(dsl.print_query(query), result, stats, _hashes_for(loaded, used, memo), options, wall)
            _emit(report, args.pretty, out)
        except DslError as exc:
            exit_code = max(exit_code, _emit_diagnostics(exc.diagnostics, args.pretty, out))
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
