"""Layer spans recorded from outside the program.

The tracer rebinds public functions of the causelab modules at the place
where callers look them up (a module global, or a class attribute for
methods) and records one span per call: name, start, end, parent span and
the id of the query (or set-up) it belongs to. Self time is a span's
duration minus the durations of its direct children, which never overlap
because every call runs on one thread.

Spans stay in memory until ``write`` is called after the measurement ends.
The wrappers are installed only for the traced phase and removed after it.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from pathlib import Path


def _pairs(tracer, args, kwargs, result) -> None:
    tracer.counts["normality.expand.pairs"] += len(result)


def _closure_edges(tracer, args, kwargs, result) -> None:
    closure = getattr(result, "_closure", None) or {}
    tracer.counts["normality.closure_edges"] += sum(len(down) for down in closure.values())


def _lookups(tracer, args, kwargs, result) -> None:
    if getattr(args[0], "order", None) is not None:
        tracer.counts["normality.lookups"] += 1


def _situations(tracer, args, kwargs, result) -> None:
    state = args[0] if args else kwargs["state"]
    tracer.counts["attribution.situations"] += len(state.situations)


def wrap_points(mods) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, counter) for every traced call site.

    ``mods`` maps a module's short name to the imported causelab module.
    A function imported by name into another module is rebound there too.
    """
    dsl, model, normality, hp = mods["dsl"], mods["model"], mods["normality"], mods["hp"]
    attribution, ness, formula, cli = mods["attribution"], mods["ness"], mods["formula"], mods["cli"]
    return [
        (dsl, "parse_model", "dsl.parse_model", None),
        (dsl, "parse_query", "dsl.parse_query", None),
        (dsl, "parse_states", "dsl.parse_states", None),
        (model.CausalModel, "__init__", "model.construct", None),
        (dsl, "expand_pattern_pair", "normality.expand", _pairs),
        (dsl, "expand_rank_pattern", "normality.expand", _pairs),
        (normality, "close", "normality.close", _closure_edges),
        (normality.ExtendedModel, "at_least_as_normal", "normality.at_least_as_normal", _lookups),
        (model.CausalModel, "solve_pinned", "model.solve_pinned", None),
        (model.CausalModel, "intervene", "model.intervene", None),
        (hp, "is_actual_cause", "hp.is_actual_cause", None),
        (attribution, "is_actual_cause", "hp.is_actual_cause", None),
        (attribution, "degree_of_responsibility", "attribution.degree_of_responsibility", None),
        (attribution, "degree_of_blame", "attribution.degree_of_blame", _situations),
        (ness, "is_ness_cause", "ness.is_ness_cause", None),
        (formula, "valid", "formula.valid", None),
        (ness, "valid", "formula.valid", None),
        (cli, "run_query", "cli.run_query", None),
    ]


class Tracer:
    """In-memory span recorder with per-name call counts and self time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.unit = array("q")
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.current_unit = 0  # id shared by all spans of one query or set-up
        self.scale = 1.0  # host-speed scale for self times, set between queries
        self.missing: list[str] = []
        self._stack: list[list[int]] = []  # [span id, summed child ns]
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        if name not in self._name_ix:
            self._name_ix[name] = len(self.names)
            self.names.append(name)
        ix = self._name_ix[name]
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_ns[name] += (duration - frame[1]) * self.scale
                self.span_id.append(sid)
                self.parent.append(parent)
                self.unit.append(self.current_unit)
                self.name.append(ix)
                self.start.append(start)
                self.end.append(end)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self, points) -> None:
        for owner, attr, name, counter in points:
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines, times in perf_counter nanoseconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span\tparent\tunit\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_id)):
                fh.write(
                    f"{self.span_id[i]}\t{self.parent[i]}\t{self.unit[i]}\t"
                    f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\n"
                )
