"""causelab benchmark: closed-loop per-query latency on generated workloads.

Usage (from the repository root):

    python3 bench/run.py --workload normality|search|small|all \
        --seed N --seconds S --trace 0|1

One query is outstanding at a time, as for a CLI user or a ``-Q`` batch. A
round parses the workload's text afresh (the set-up) and then runs every
query once, in a seed-shuffled order; rounds repeat until the time is used.
Each call to ``cli.run_query`` is timed and its answer checked against a
reference that does not come from the engine (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced phase (see ``spans.py``) that follows an untraced one.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

MODULES = ("cli", "dsl", "model", "normality", "hp", "attribution", "ness", "formula", "oracle")

# Each run keeps going until at least this many samples lie beyond p90.
MIN_BEYOND_P90 = 10

END_TO_END_UNITS = {
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "queries_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "correct_ratio": "fraction",
}

# Spans whose self time is reported, and spans whose call count is.
TIMED_LAYERS = (
    "dsl.parse_model",
    "dsl.parse_query",
    "model.construct",
    "normality.expand",
    "normality.close",
    "model.solve_pinned",
    "model.intervene",
    "hp.is_actual_cause",
    "attribution.degree_of_responsibility",
    "attribution.degree_of_blame",
    "ness.is_ness_cause",
    "cli.run_query",
)
COUNTED_LAYERS = (
    "normality.close",
    "normality.at_least_as_normal",
    "model.solve_pinned",
    "model.intervene",
    "hp.is_actual_cause",
    "ness.is_ness_cause",
    "formula.valid",
    "cli.run_query",
)


def load_program():
    """Import causelab from this checkout's src/, never from elsewhere."""
    if not (SRC / "causelab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure at {SRC / 'causelab'}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"causelab.{name}") for name in MODULES}
    where = Path(mods["cli"].__file__).resolve().parent
    if where != (SRC / "causelab").resolve():
        raise SystemExit(f"bench: causelab was imported from {where}, not from {SRC}")
    return mods


class SpeedGauge:
    """Scales measured durations to a reference host speed.

    The host this runs on is shared, and its speed drifts by tens of percent
    over seconds to minutes. The gauge times a fixed piece of interpreter
    work (dicts, tuples, frozensets, sorting and integer arithmetic) between
    queries, never inside a timed span, and multiplies each duration by
    REFERENCE_S / (that work's current time). A change to causelab leaves the
    reference work untouched, so it moves the scaled times exactly as it
    moves the raw ones, while a slower host moves both.
    """

    REFERENCE_S = 0.0005  # the reference work's time on an unloaded host
    INTERVAL_S = 0.025  # re-measure after this much measured time

    def __init__(self) -> None:
        self.scale = 1.0
        self._since = 0.0

    @staticmethod
    def _reference_work(n: int = 400) -> int:
        table = {}
        for i in range(n):
            key = frozenset(((i % 7, "a"), (i % 11, "b")))
            table[key] = tuple(sorted({"x": i, "y": i % 3, "z": -i}.items()))
        total = 0
        for i in range(n * 4):
            total += (i * i) % 7
        return len(table) + total

    def calibrate(self) -> None:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._reference_work()
            times.append(time.perf_counter() - start)
        self.scale = self.REFERENCE_S / statistics.median(times)
        self._since = 0.0

    def calibrate_if_due(self) -> None:
        if self._since >= self.INTERVAL_S:
            self.calibrate()

    def scaled(self, seconds: float) -> float:
        self._since += seconds
        return seconds * self.scale


@dataclass
class Round:
    setup_s: float  # scaled to the reference host speed
    setup_raw_s: float
    samples: list[float] = field(default_factory=list)  # scaled seconds per query
    raw: list[float] = field(default_factory=list)  # wall seconds per query
    failures: list[str] = field(default_factory=list)
    solves: int = 0
    subset_checks: int = 0


class Runner:
    """Set-up and query loop over one workload's prepared text."""

    def __init__(self, mods, workload, seed: int):
        self.m = mods
        self.workload = workload
        self.rng = random.Random(f"order:{workload.name}:{seed}")
        self.gauge = SpeedGauge()
        self.tracer = None
        self._unit = 0

    def _next_unit(self) -> None:
        self._unit += 1
        if self.tracer is not None:
            self.tracer.current_unit = self._unit
            self.tracer.scale = self.gauge.scale

    def setup(self):
        """Parse every text and query: the work a CLI invocation does first."""
        dsl, cli = self.m["dsl"], self.m["cli"]
        self._next_unit()
        start = time.perf_counter()
        parsed = {}
        for name, text in self.workload.texts.items():
            if name.endswith(".cm"):
                parsed[name] = dsl.parse_model(text, origin=name)
            else:
                parsed[name] = dsl.parse_states(text, origin=name)
        prepared = []
        for entry in self.workload.entries:
            loaded = cli.LoadedSet()
            for name in entry.models:
                loaded.add_model(*parsed[name])
            for name in entry.states:
                for decl in parsed[name]:
                    loaded.states[decl.name] = decl
            query = dsl.parse_query(entry.query, origin=entry.id)
            options = cli.RunOptions(mode=entry.mode, strategy=entry.strategy, weights=dict(entry.weights))
            if loaded.models and not isinstance(query, dsl.BlameQuery):
                options.model_name = next(iter(loaded.models))  # target model is listed first
            prepared.append((entry, query, loaded, options))
        return prepared, time.perf_counter() - start

    def round(self) -> Round:
        self.gauge.calibrate()
        prepared, setup_s = self.setup()
        rnd = Round(self.gauge.scaled(setup_s), setup_s)
        self.rng.shuffle(prepared)
        cli = self.m["cli"]
        for entry, query, loaded, options in prepared:
            self.gauge.calibrate_if_due()
            self._next_unit()
            start = time.perf_counter()
            try:
                result, stats, _used = cli.run_query(query, loaded, options)
            except Exception as exc:  # a failed query is counted, not fatal
                result, stats = None, None
                rnd.failures.append(f"{entry.id}: raised {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
            rnd.raw.append(elapsed)
            rnd.samples.append(self.gauge.scaled(elapsed))
            if result is None:
                continue
            rnd.solves += stats.solves
            rnd.subset_checks += stats.subset_checks
            wrong = {k: (v, result.get(k)) for k, v in entry.expect.items() if result.get(k) != v}
            if wrong:
                rnd.failures.append(f"{entry.id}: expected/got {wrong}")
        return rnd


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300

    def guard(v: float) -> float:
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        for num in (
            m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2)),
        ):
            d = 1.0 / guard(1.0 + num * d)
            c = guard(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta-weighted average of the order statistics near rank p*n instead of
    a single one. Where neighbouring queries in the mix differ a lot in cost,
    a single order statistic jumps between them from run to run; the
    weighted average moves smoothly. Weights beyond 12 standard deviations of
    the Beta distribution are below 1e-20 and skipped.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    sd = math.sqrt(p * (1 - p) / n)
    lo, hi = max(0, int((p - 12 * sd) * n)), min(n, int((p + 12 * sd) * n) + 1)
    total, prev = 0.0, beta_cdf(a, b, lo / n)
    for i in range(lo, hi):
        cur = beta_cdf(a, b, (i + 1) / n)
        total += (cur - prev) * xs[i]
        prev = cur
    return total


def beyond_p90(samples: list[float]) -> int:
    cut = quantile(samples, 0.9)
    return sum(s > cut for s in samples)


def measure(runner: Runner, seconds: float, min_beyond_p90: int = MIN_BEYOND_P90) -> list[Round]:
    """Whole rounds while they fit in ``seconds``; at least enough rounds
    for ``min_beyond_p90`` samples above the 90th percentile."""
    rounds: list[Round] = []
    samples: list[float] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        rnd = runner.round()
        rounds.append(rnd)
        samples += rnd.samples
        elapsed = time.perf_counter() - start
        enough = min_beyond_p90 == 0 or (
            len(samples) >= 2 and beyond_p90(samples) >= min_beyond_p90
        )
        if enough and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def queries_per_s(samples: list[float]) -> float:
    return len(samples) / sum(samples)


def end_to_end(rounds: list[Round], raw: bool = False) -> dict[str, float]:
    """The end-to-end metrics, from scaled times or (``raw``) wall times."""
    samples = [s for r in rounds for s in (r.raw if raw else r.samples)]
    failed = sum(len(r.failures) for r in rounds)
    return {
        "query_ms_p50": quantile(samples, 0.5) * 1000.0,
        "query_ms_p90": quantile(samples, 0.9) * 1000.0,
        "queries_per_s": queries_per_s(samples),
        "setup_s": statistics.median(r.setup_raw_s if raw else r.setup_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "correct_ratio": 1.0 - failed / len(samples),
    }


def per_layer(tracer, traced: list[Round], plain: list[Round]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per round: one set-up plus one pass over the mix."""
    n = len(traced)
    out: dict[str, tuple[float, str]] = {}
    for name in TIMED_LAYERS:
        out[f"{name}.self_ms"] = (tracer.self_ns.get(name, 0) / 1e6 / n, "ms")
    for name in COUNTED_LAYERS:
        out[f"{name}.calls"] = (tracer.calls.get(name, 0) / n, "count")
    for name in ("normality.expand.pairs", "normality.closure_edges", "attribution.situations"):
        out[name] = (tracer.counts.get(name, 0) / n, "count")
    edges = tracer.counts.get("normality.closure_edges", 0)
    lookups = tracer.counts.get("normality.lookups", 0)
    out["normality.lookups_per_edge"] = (lookups / edges if edges else 0.0, "ratio")
    out["hp.solves"] = (sum(r.solves for r in traced) / n, "count")
    out["hp.subset_checks"] = (sum(r.subset_checks for r in traced) / n, "count")
    plain_qps = queries_per_s([s for r in plain for s in r.samples])
    traced_qps = queries_per_s([s for r in traced for s in r.samples])
    out["trace.overhead_ratio"] = (plain_qps / traced_qps, "ratio")
    return out


def run_workload(args) -> int:
    mods = load_program()
    sys.path.insert(0, str(BENCH_DIR))
    import spans
    import workloads

    built = time.perf_counter()
    wl = workloads.build(args.workload, args.seed, SRC / "causelab" / "corpus", mods)
    built = time.perf_counter() - built
    runner = Runner(mods, wl, args.seed)

    if args.trace:
        plain = measure(runner, args.seconds / 2, min_beyond_p90=0)
        tracer = spans.Tracer()
        tracer.install(spans.wrap_points(mods))
        runner.tracer = tracer
        try:
            traced = measure(runner, args.seconds / 2, min_beyond_p90=0)
        finally:
            tracer.uninstall()
            runner.tracer = None
        rounds = plain + traced
        metrics = per_layer(tracer, traced, plain)
        out = RESULTS / f"spans-{args.workload}.tsv"
        tracer.write(out)
        print(f"spans: {len(tracer.span_id)} written to {out.relative_to(ROOT)}")
        for name in tracer.missing:
            print(f"warning: {name} not found; its layer metrics read 0", file=sys.stderr)
    else:
        rounds = measure(runner, args.seconds)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(rounds).items()}

    attempted = sum(len(r.samples) for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    print(
        f"workload={args.workload} seed={args.seed} entries={len(wl.entries)} rounds={len(rounds)}"
        f" samples={attempted} build_s={built:.2f}"
    )
    if not args.trace:
        print(f"  {'error_ratio':<44} {len(failures) / attempted:>14.6g} fraction")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    if not args.trace:
        raw = end_to_end(rounds, raw=True)
        print("  unscaled wall time: " + ", ".join(f"{k} {raw[k]:.6g}" for k in list(raw)[:4]))
    for failure in sorted(set(failures))[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    correct = not failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, then one summary table."""
    import workloads

    status = 0
    table: dict[str, dict] = {}
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
        if lines and lines[-1].startswith("{"):
            table[name] = json.loads(lines[-1])
    names = list(table)
    metric_names = list(dict.fromkeys(m for r in table.values() for m in r["metrics"]))
    print(f"{'metric':<44} {'unit':<9}" + "".join(f" {n:>12}" for n in names))
    if not args.trace:
        ratios = "".join(f" {table[n]['failed'] / table[n]['attempted']:>12.6g}" for n in names)
        print(f"{'error_ratio':<44} {'fraction':<9}" + ratios)
    for metric in metric_names:
        unit = next(r["metrics"][metric]["unit"] for r in table.values() if metric in r["metrics"])
        cells = "".join(
            f" {table[n]['metrics'][metric]['value']:>12.6g}" if metric in table[n]["metrics"] else f" {'-':>12}"
            for n in names
        )
        print(f"{metric:<44} {unit:<9}" + cells)
    print(f"{'correct':<44} {'':<9}" + "".join(f" {str(table[n]['correct']):>12}" for n in names))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["normality", "search", "small", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        sys.path.insert(0, str(BENCH_DIR))
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
