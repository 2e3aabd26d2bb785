"""Checks on the benchmark itself.

Run from the repository root with ``python3 -m pytest bench -q``. The
determinism check starts short traced runs of every workload, so it takes
about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

# Per-layer metrics that count work rather than time it.
COUNT_SUFFIXES = (".calls",)
COUNT_NAMES = (
    "hp.solves",
    "hp.subset_checks",
    "normality.expand.pairs",
    "normality.closure_edges",
    "attribution.situations",
)


def _run(workload: str, seed: int, hash_seed: str, cwd: Path = ROOT, trace: int = 1):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=180,
    )


def _metrics(proc) -> dict[str, float]:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


def _declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_count_metrics_repeat_across_runs_and_hash_seeds(workload):
    first = _metrics(_run(workload, 5, "0"))
    second = _metrics(_run(workload, 5, "1"))
    assert set(first) == _declared("per_layer")
    counts = [n for n in first if n.endswith(COUNT_SUFFIXES) or n in COUNT_NAMES]
    assert len(counts) == len(COUNT_NAMES) + 8
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert all(float(first[n]).is_integer() for n in counts)


def test_end_to_end_metrics_are_the_declared_ones():
    metrics = _metrics(_run("search", 1, "0", trace=0))
    assert set(metrics) == _declared("end_to_end")
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", ["normality", "search"])
def test_inputs_are_a_function_of_the_seed(workload):
    corpus = ROOT / "src" / "causelab" / "corpus"
    a = workloads.build(workload, 3, corpus)
    b = workloads.build(workload, 3, corpus)
    assert a.texts == b.texts and a.entries == b.entries


def test_corpus_is_split_between_normality_and_search():
    corpus = ROOT / "src" / "causelab" / "corpus"
    expected = json.loads((corpus / "expected.json").read_text(encoding="utf-8"))
    _, ordered = workloads.corpus_entries(corpus, want_order=True)
    _, flat = workloads.corpus_entries(corpus, want_order=False)
    assert len(ordered) + len(flat) == len(expected)
    assert {e.models[0] for e in ordered} >= {"five_doctors.cm", "assassin.cm"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("search", 1, "0", cwd=tmp_path, trace=0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
