"""Answer goldens: a digest of every benchmark entry's answer and counters.

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

A change that alters answers, `stats` or the printed query or models on
purpose rewrites the files and names the changed ids.
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

SEEDS = (1, 7919)
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


def golden_path(seed: int) -> Path:
    return GOLDEN_DIR / f"seed-{seed}.json"


def changed_ids(seed: int, current: dict[str, str] | None = None) -> list[str]:
    """The ids whose digest differs from the golden file, or that only one
    of the two holds."""
    current = digests(seed) if current is None else current
    path = golden_path(seed)
    golden = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    return sorted(key for key in golden.keys() | current.keys() if golden.get(key) != current.get(key))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the golden files; print the changed ids")
    args = parser.parse_args(argv)
    status = 0
    for seed in SEEDS:
        current = digests(seed)
        changed = changed_ids(seed, current)
        for key in changed:
            print(f"seed {seed}: {key}")
        if args.write:
            GOLDEN_DIR.mkdir(exist_ok=True)
            golden_path(seed).write_text(json.dumps(current, indent=0, sort_keys=True) + "\n", encoding="utf-8")
        elif changed:
            status = 1
        print(f"seed {seed}: {len(current)} digests, {len(changed)} changed", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
