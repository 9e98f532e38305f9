"""Execution-accuracy scoring, run reports, ablations, and rate estimation.

A prediction scores correct when its result set matches the gold SQL's
result set on the task database: compared as multisets unless the gold
query orders its output at the top level, in which case row order
matters. Text, integers and NULLs must match exactly; floating values
match within 1e-6 relative tolerance.

evaluate_run and estimate_pqs share one scoring loop and each score
their traces in one pass: traces are taken grouped by db_id (EX does not
depend on their order), one read-only connection is open at a time, each
(db_id, gold) runs once and each (db_id, gold, sql) verdict is memoised.
Nothing is kept after the call returns, and its connection is closed
also when it raises. A trace log that holds a task_id twice is refused
with TraceFormatError rather than scored twice.
execution_accuracy scores one pair with the same comparison code.
"""

import re
import sqlite3
import threading
from contextlib import closing
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .agents import Actor, Critic
from .engine import (
    ACConfig, ACTrace, ActorError, TraceFormatError, read_traces, run_ac_loop, write_trace
)
from .spider_data import SpiderTask, SchemaIndex, database_path, schema_to_ddl
from .sqlexec import DatabaseUnavailable, QueryFailure, open_readonly, run_query

FLOAT_RTOL = 1e-6


class GoldExecutionError(Exception):
    """The gold SQL itself failed; the task cannot be scored."""


# ---------------------------------------------------------------------------
# Result-set comparison
# ---------------------------------------------------------------------------


def _mask_quoted_and_nested(sql: str) -> str:
    """Blank out quoted literals and parenthesized regions, keeping offsets."""
    out = []
    depth = 0
    quote: str | None = None
    for ch in sql:
        if quote is not None:
            out.append(" ")
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            out.append(" ")
            quote = ch
        elif ch == "(":
            depth += 1
            out.append(" ")
        elif ch == ")":
            depth = max(0, depth - 1)
            out.append(" ")
        else:
            out.append(ch if depth == 0 else " ")
    return "".join(out)


def has_top_level_order_by(sql: str) -> bool:
    return re.search(r"\border\s+by\b", _mask_quoted_and_nested(sql), re.IGNORECASE) is not None


def _cell_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
    b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
    if a_num and b_num and (isinstance(a, float) or isinstance(b, float)):
        if a == b:
            return True
        return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b))
    return type(a) is type(b) and a == b


def _sort_key(row: Sequence) -> tuple:
    key = []
    for cell in row:
        if cell is None:
            key.append((0, ""))
        elif isinstance(cell, (int, float)) and not isinstance(cell, bool):
            key.append((1, float(cell)))
        elif isinstance(cell, bytes):
            key.append((2, cell.hex()))
        else:
            key.append((3, str(cell)))
    return tuple(key)


def result_sets_match(
    predicted_rows: list[tuple], gold_rows: list[tuple], ordered: bool
) -> bool:
    if len(predicted_rows) != len(gold_rows):
        return False
    if not ordered:
        predicted_rows = sorted(predicted_rows, key=_sort_key)
        gold_rows = sorted(gold_rows, key=_sort_key)
    return all(
        len(p) == len(g) and all(_cell_equal(a, b) for a, b in zip(p, g))
        for p, g in zip(predicted_rows, gold_rows)
    )


def _run_gold(conn: sqlite3.Connection, gold_sql: str, timeout: float) -> tuple[list[tuple], int]:
    try:
        return run_query(conn, gold_sql, timeout=timeout)
    except QueryFailure as exc:
        raise GoldExecutionError(f"gold SQL failed: {exc}") from exc


def _prediction_matches(
    conn: sqlite3.Connection,
    predicted_sql: str,
    gold_sql: str,
    gold: tuple[list[tuple], int],
    timeout: float,
) -> bool:
    try:
        predicted_rows, predicted_cols = run_query(conn, predicted_sql, timeout=timeout)
    except QueryFailure:
        return False
    gold_rows, gold_cols = gold
    if predicted_cols != gold_cols:
        return False
    return result_sets_match(predicted_rows, gold_rows, has_top_level_order_by(gold_sql))


def execution_accuracy(
    predicted_sql: str,
    gold_sql: str,
    database: str | Path,
    timeout: float = 30.0,
) -> bool:
    """Score one prediction against the gold SQL by executing both.

    A failing or timed-out prediction scores False; a failing gold query
    raises GoldExecutionError so the caller can exclude the task.
    """
    with closing(open_readonly(database)) as conn:
        gold = _run_gold(conn, gold_sql, timeout)
        return _prediction_matches(conn, predicted_sql, gold_sql, gold, timeout)


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    dataset_name: str
    mode: str
    n_tasks: int
    ex: float | None  # None when no task was scored
    n_excluded: int = 0
    baseline_ex: float | None = None

    @property
    def error_rate(self) -> float | None:
        return None if self.ex is None else 1.0 - self.ex

    @property
    def abs_improvement(self) -> float | None:
        if self.ex is None or self.baseline_ex is None:
            return None
        return self.ex - self.baseline_ex

    @property
    def rel_error_reduction(self) -> float | None:
        if self.ex is None or self.baseline_ex is None or self.baseline_ex >= 1.0:
            return None
        return (self.ex - self.baseline_ex) / (1.0 - self.baseline_ex)

    def to_json_dict(self) -> dict:
        return {
            "dataset": self.dataset_name,
            "mode": self.mode,
            "n_tasks": self.n_tasks,
            "n_excluded": self.n_excluded,
            "ex": self.ex,
            "error_rate": self.error_rate,
            "baseline_ex": self.baseline_ex,
            "abs_improvement": self.abs_improvement,
            "rel_error_reduction": self.rel_error_reduction,
        }


def format_reports(reports: Sequence[EvalReport]) -> str:
    """Aligned text table, one row per report."""

    def pct(value: float | None) -> str:
        return "-" if value is None else f"{100.0 * value:.1f}"

    headers = ["dataset", "mode", "n", "EX(%)", "Abs(%)", "Rel(%)"]
    rows = [
        [
            r.dataset_name or "-",
            r.mode,
            str(r.n_tasks),
            pct(r.ex),
            pct(r.abs_improvement),
            pct(r.rel_error_reduction),
        ]
        for r in reports
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


class _ScoringPass:
    """The scoring state of one evaluate_run or estimate_pqs call.

    Keeps at most one connection open, to the database scored last, so
    callers feed it traces grouped by db_id. Each (db_id, gold) runs once
    and its result, or its failure message, is kept for the pass; each
    (db_id, gold, sql) verdict is memoised. Nothing outlives the pass:
    close() closes the connection.
    """

    def __init__(self, db_dir: str | Path, timeout: float):
        self.db_dir = Path(db_dir)
        self.timeout = timeout
        self._db_id: str | None = None
        self._conn: sqlite3.Connection | None = None
        # a failing gold keeps its message, not the exception: re-raising
        # one instance grows its traceback and keeps the pass's frames alive
        self._golds: dict[tuple[str, str], tuple[list[tuple], int] | str] = {}
        self._verdicts: dict[tuple[str, str, str], bool] = {}

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
        self._db_id, self._conn = None, None

    def _connection(self, db_id: str) -> sqlite3.Connection:
        if db_id != self._db_id:
            self.close()
            self._conn = open_readonly(database_path(self.db_dir, db_id))
            self._db_id = db_id
        return self._conn

    def _gold(self, db_id: str, gold_sql: str | None) -> tuple[list[tuple], int]:
        if gold_sql is None:
            raise GoldExecutionError("task has no gold SQL")
        key = (db_id, gold_sql)
        if key not in self._golds:
            try:
                self._golds[key] = _run_gold(self._connection(db_id), gold_sql, self.timeout)
            except GoldExecutionError as exc:
                self._golds[key] = str(exc)
        gold = self._golds[key]
        if isinstance(gold, str):
            raise GoldExecutionError(gold)
        return gold

    def score(self, sql: str, gold_sql: str | None, db_id: str) -> bool:
        key = (db_id, gold_sql, sql)
        if key not in self._verdicts:
            gold = self._gold(db_id, gold_sql)
            self._verdicts[key] = _prediction_matches(
                self._connection(db_id), sql, gold_sql, gold, self.timeout
            )
        return self._verdicts[key]


def _scored_traces(
    traces: Iterable[ACTrace],
    db_dir: str | Path,
    timeout: float,
    candidates: Callable[[ACTrace], list[str]],
) -> Iterator[tuple[ACTrace, list[bool] | None]]:
    """Yield (trace, verdict per candidate SQL) in one scoring pass.

    Traces are taken grouped by db_id. The verdicts are None for a task
    that cannot be scored: it has no gold, its gold fails, or its
    database is missing. A task_id seen twice raises TraceFormatError.
    """
    seen: set[str] = set()
    with closing(_ScoringPass(db_dir, timeout)) as scoring:
        for trace in sorted(traces, key=lambda trace: trace.task.db_id):
            task = trace.task
            if task.task_id in seen:
                raise TraceFormatError(f"task_id {task.task_id!r} appears twice in the trace log")
            seen.add(task.task_id)
            try:
                verdicts = [
                    scoring.score(sql, task.gold_sql, task.db_id) for sql in candidates(trace)
                ]
            except (GoldExecutionError, DatabaseUnavailable):
                verdicts = None
            yield trace, verdicts


def evaluate_run(
    traces: Iterable[ACTrace],
    db_dir: str | Path,
    dataset_name: str = "",
    baseline_ex: float | None = None,
    timeout: float = 30.0,
) -> EvalReport:
    """Score final SQL of every trace; order of traces does not matter.

    Tasks without gold SQL or whose gold fails to execute are excluded
    from the denominator and counted in n_excluded; with no task scored,
    EX is None. A task_id seen twice raises TraceFormatError.
    """
    results = list(_scored_traces(traces, db_dir, timeout, lambda trace: [trace.final_sql]))
    modes = {trace.config.critic_mode for trace, _ in results}
    finals = [verdicts[0] for _, verdicts in results if verdicts is not None]
    return EvalReport(
        dataset_name=dataset_name,
        mode=modes.pop() if len(modes) == 1 else ("mixed" if modes else ""),
        n_tasks=len(finals),
        ex=sum(finals) / len(finals) if finals else None,
        n_excluded=len(results) - len(finals),
        baseline_ex=baseline_ex,
    )


# ---------------------------------------------------------------------------
# (p, q, s) estimation from traces
# ---------------------------------------------------------------------------


@dataclass
class PQSCounts:
    first_pass_correct: int = 0
    first_pass_total: int = 0
    wrong_checked: int = 0
    wrong_accepted: int = 0
    correct_checked: int = 0
    correct_rejected: int = 0


@dataclass(frozen=True)
class PQSEstimate:
    p_hat: float | None
    q_hat: float | None
    s_hat: float | None
    counts: PQSCounts
    n_excluded: int = 0

    def to_json_dict(self) -> dict:
        return {
            "p_hat": self.p_hat,
            "q_hat": self.q_hat,
            "s_hat": self.s_hat,
            "counts": self.counts.__dict__,
            "n_excluded": self.n_excluded,
        }


def estimate_pqs(
    traces: Iterable[ACTrace], db_dir: str | Path, timeout: float = 30.0
) -> PQSEstimate:
    """Estimate actor and critic rates from traces with gold SQL.

    p from first-iteration generations; q and s pooled over every
    critic-checked generation, scoring each generation by execution
    accuracy and reading the iteration's overall verdict. Estimates with
    empty denominators are reported as None, never as zero. A task_id
    seen twice raises TraceFormatError.
    """
    counts = PQSCounts()
    excluded = 0
    for trace, per_iteration in _scored_traces(
        traces, db_dir, timeout, lambda trace: [r.generated_sql for r in trace.iterations]
    ):
        if per_iteration is None:
            excluded += 1
            continue
        counts.first_pass_total += 1
        counts.first_pass_correct += per_iteration[0]
        for record, is_correct in zip(trace.iterations, per_iteration):
            if not record.verdicts:
                continue
            accepted = record.overall_accepted
            if is_correct:
                counts.correct_checked += 1
                counts.correct_rejected += not accepted
            else:
                counts.wrong_checked += 1
                counts.wrong_accepted += accepted

    def ratio(num: int, den: int) -> float | None:
        return num / den if den else None

    return PQSEstimate(
        p_hat=ratio(counts.first_pass_correct, counts.first_pass_total),
        q_hat=ratio(counts.wrong_accepted, counts.wrong_checked),
        s_hat=ratio(counts.correct_rejected, counts.correct_checked),
        counts=counts,
        n_excluded=excluded,
    )


# ---------------------------------------------------------------------------
# Batch running and ablation
# ---------------------------------------------------------------------------

ActorFactory = Callable[[SpiderTask], Actor]
CriticFactory = Callable[[SpiderTask], Critic | None]


@dataclass
class RunSummary:
    written: int = 0
    resumed: int = 0
    failed: list[tuple[str, str]] = field(default_factory=list)


def run_tasks(
    tasks: Sequence[SpiderTask],
    schemas: SchemaIndex,
    actor_factory: ActorFactory,
    critic_factory: CriticFactory,
    config: ACConfig,
    out_path: str | Path,
    concurrency: int = 4,
) -> RunSummary:
    """Run the loop over tasks, appending traces as JSON Lines.

    Tasks whose task_id already appears in out_path are skipped so an
    interrupted run can be re-issued with the same command; a last line
    cut short by a crash is dropped first, so its task runs again and
    the next trace starts on a fresh line. Actor or database failures
    are recorded per task and do not abort the batch.
    """
    out_path = Path(out_path)
    summary = RunSummary()
    done: set[str] = set()
    if out_path.exists():
        _drop_partial_last_line(out_path)
        done = {t.task.task_id for t in read_traces(out_path)}
    pending = [t for t in tasks if t.task_id not in done]
    summary.resumed = len(tasks) - len(pending)

    write_lock = threading.Lock()
    ddls = {
        db_id: schema_to_ddl(schemas, db_id)
        for db_id in {t.db_id for t in pending}
        if db_id in schemas
    }

    def run_one(task: SpiderTask) -> ACTrace:
        # an unknown db_id has no entry; schema_to_ddl raises the task's KeyError
        ddl = ddls[task.db_id] if task.db_id in ddls else schema_to_ddl(schemas, task.db_id)
        critic = None if config.critic_mode == "none" else critic_factory(task)
        return run_ac_loop(actor_factory(task), critic, task, config, ddl)

    with open(out_path, "a", encoding="utf-8") as out:
        with ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool:
            futures = {pool.submit(run_one, task): task for task in pending}
            for future in as_completed(futures):
                task = futures[future]
                try:
                    trace = future.result()
                except (ActorError, DatabaseUnavailable, KeyError) as exc:
                    summary.failed.append((task.task_id, str(exc)))
                    continue
                with write_lock:
                    write_trace(trace, out)
                    out.flush()
                    summary.written += 1
    return summary


def _drop_partial_last_line(path: Path) -> None:
    with open(path, "rb+") as f:
        f.truncate(f.read().rfind(b"\n") + 1)


def run_ablation(
    run_mode: Callable[[str, Path], object],
    modes: Sequence[str],
    out_dir: str | Path,
    db_dir: str | Path,
    dataset_name: str = "",
) -> list[EvalReport]:
    """Run and score one pass per critic mode.

    run_mode(mode, trace_path) writes the mode's traces, which land in
    <out_dir>/traces_<mode>.jsonl; each report is named after its mode.
    When "none" is among the modes and scored a task, its EX becomes the
    baseline for the other rows. Report order follows the requested mode
    order.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    for mode in modes:
        out_path = out_dir / f"traces_{mode}.jsonl"
        run_mode(mode, out_path)
        report = evaluate_run(read_traces(out_path), db_dir, dataset_name=dataset_name)
        reports.append(replace(report, mode=mode))
    baseline = reports[modes.index("none")].ex if "none" in modes else None
    if baseline is None:
        return reports
    return [
        r if mode == "none" else replace(r, baseline_ex=baseline)
        for mode, r in zip(modes, reports)
    ]
