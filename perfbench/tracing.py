"""Spans and counters recorded around calls into acsql's layers.

The traced run rebinds the layers' public functions inside the benchmark
process. A function imported by name into other modules (for example
`run_query` into `agents` and `evalkit`) is rebound at every module of the
package that holds it, so each call is seen whichever module makes it.
Nothing in the package itself changes.

A span records name, start, end, the enclosing span on the same thread
and the task id of the enclosing `run_ac_loop` call. Spans are kept in
memory and written out once at the end. A span's self time is its
duration minus the part of its interval that its child spans cover.
"""

import itertools
import json
import os
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    task: str | None
    thread: int


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.span_id: (span.end - span.start)
        - covered_length(children.get(span.span_id, []), span.start, span.end)
        for span in spans
    }


class Tracer:
    def __init__(self, golds: set[str] = frozenset()):
        self.golds = golds  # gold SQL texts, to count gold executions
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.values: dict[str, list[float]] = defaultdict(list)
        self.gold_keys: set[tuple[str, str]] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def record(self, key: str, value: float) -> None:
        with self._lock:
            self.values[key].append(value)

    def call(self, name: str, fn, args, kwargs, task: str | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        task = task if task is not None else parent[1]
        stack.append((span_id, task))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, parent[0], name, start, end, task, threading.get_ident())
            )

    # -- per-layer observations -----------------------------------------------

    def _wrapper(self, name: str, fn):
        tracer = self
        if name == "theory.expected_prob":  # ~10^4 calls per grid: count only

            def counted(*args, **kwargs):
                tracer.count(name)
                return fn(*args, **kwargs)

            return counted
        if name == "mc_sim.simulate":

            def simulate(*args, **kwargs):
                tracemalloc.start()
                try:
                    return tracer.call(name, fn, args, kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.record("mc_sim.simulate.peak_alloc_mb", peak / 2**20)

            return simulate
        if name == "engine.run_ac_loop":

            def run_ac_loop(*args, **kwargs):
                task = kwargs.get("task", args[2] if len(args) > 2 else None)
                trace = tracer.call(name, fn, args, kwargs, getattr(task, "task_id", None))
                tracer.record("engine.iterations", len(trace.iterations))
                return trace

            return run_ac_loop
        if name == "engine.read_traces":

            def read_traces(*args, **kwargs):
                path = kwargs.get("path", args[0] if args else None)
                tracer.count("engine.trace_bytes", os.path.getsize(path))
                return tracer.call(name, fn, args, kwargs)

            return read_traces
        if name in ("agents.execution_critic", "agents.LLMJudge.judge"):

            def critic(*args, **kwargs):
                verdict = tracer.call(name, fn, args, kwargs)
                tracer.count(f"verdicts.{verdict.source}")
                tracer.count(f"accepted.{verdict.source}", bool(verdict.accepted))
                return verdict

            return critic
        if name == "sqlexec.run_query":

            def run_query(*args, **kwargs):
                database = kwargs.get("database", args[0] if args else None)
                sql = kwargs.get("sql", args[1] if len(args) > 1 else None)
                if sql in tracer.golds:
                    tracer.count("gold_runs")
                    db = str(database) if isinstance(database, (str, os.PathLike)) else ""
                    with tracer._lock:
                        tracer.gold_keys.add((db, sql))
                return tracer.call(name, fn, args, kwargs)

            return run_query

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return traced

    # -- rebinding -------------------------------------------------------------

    def install(self, hooks: list[str]) -> list[str]:
        """Rebind each 'module.attr' or 'module.Class.method' in acsql.

        Returns the hooks that do not exist in this version of the package,
        so their metrics read zero instead of breaking the run.
        """
        missing = []
        package = [m for n, m in sys.modules.items() if n == "acsql" or n.startswith("acsql.")]
        for hook in hooks:
            module_name, _, attr = hook.partition(".")
            module = sys.modules.get(f"acsql.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = getattr(owner, "__dict__", {}).get(method)
                if original is None:
                    missing.append(hook)
                    continue
                self._restore.append((owner, method, original))
                setattr(owner, method, self._wrapper(hook, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                missing.append(hook)
                continue
            wrapper = self._wrapper(hook, original)
            for mod in package:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapper)
        return missing

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- summaries -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (summed duration), self_s."""
        selfs = self_times(self.spans)
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for span in self.spans:
            row = out[span.name]
            row["calls"] += 1
            row["busy_s"] += span.end - span.start
            row["self_s"] += selfs[span.span_id]
        return out

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def write_spans(self, path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                row = s._asdict()
                row["self"] = selfs[s.span_id]
                f.write(json.dumps(row) + "\n")
