"""Execution-accuracy scoring, run reports, batch runs, and rate estimation.

A prediction scores correct when its result set matches the gold SQL's
result set on the task database: compared as multisets unless the gold
has an ORDER BY outside quotes, bracketed or backticked identifiers,
parentheses and comments (sqlexec.NOT_CODE), in which case row order
matters. Text, integers and NULLs must match exactly; floating values
match within 1e-6 relative tolerance. Unordered rows are paired by
sorting each side on its non-numeric cells first and its numbers last,
so rows whose numbers differ within the tolerance still pair. A row of
two or more numbers can still miss a pairing that exists when some of
its numbers differ within the tolerance.

All candidate and gold SQL runs through `sqlexec.statement`. A gold
runs to its end; a prediction is stepped only until its verdict is
decided. Its column count is read before any row, when the prediction
is prepared wrapped as `SELECT * FROM (<prediction>) LIMIT 0`: a count
other than the gold's scores it wrong and it is not run. A wrapped form
that does not prepare decides nothing, and the prediction runs; the
probe and the run share one timeout. One row past the gold's row count
also scores it wrong, and an error in a later row could only score it
wrong too, so it is not stepped further.

evaluate_run and estimate_pqs share one scoring loop and each score
their traces in one pass: the traces are grouped by db_id and each
database is scored inside one block that holds its read-only connection,
the result of each gold (None when the gold fails) and the verdict of
each (gold, sql) pair. A candidate whose text is its own gold, which
ran successfully, scores correct and is not run; for SQL without
nondeterministic functions such as random() or date('now'), a query's
result depends only on its text, so a run would give the same verdict.
The databases are scored on a thread pool, up to min(databases, CPU
count) at once, each on its own handle (sqlite3 releases the GIL while
a statement steps). Each block closes its connection when it ends or
raises, so all are closed before the call returns, and the results are
read in db_id order, so reports do not depend on thread scheduling. A
trace log that holds a task_id twice is refused when it is read
(engine.read_traces), so no task is scored twice. execution_accuracy
scores one pair with the same comparison code.

pending_tasks is the resume check of a trace log; run_tasks appends one
trace per task it is handed. An ablation scores one log per mode
(ablation_log) and with_baseline makes the "none" row's EX the baseline.
"""

import io
import itertools
import math
import os
import re
import sqlite3
import time
from contextlib import closing
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .agents import Actor, CriticComponent
from .engine import ACConfig, ACTrace, ActorError, read_trace_lines, run_ac_loop, write_trace
from .spider_data import SpiderTask, SchemaIndex, database_path, schema_to_ddl
from .sqlexec import NOT_CODE, DatabaseUnavailable, QueryFailure, open_readonly, run_query, statement

FLOAT_RTOL = 1e-6


class GoldExecutionError(Exception):
    """The gold SQL itself failed; the task cannot be scored."""


# ---------------------------------------------------------------------------
# Result-set comparison
# ---------------------------------------------------------------------------


_INNERMOST_PARENS = re.compile(r"\([^()]*\)")


def has_top_level_order_by(sql: str) -> bool:
    """Whether ORDER BY appears outside quotes, identifiers, parentheses and comments."""
    text = NOT_CODE.sub(" ", sql)
    while _INNERMOST_PARENS.search(text):
        text = _INNERMOST_PARENS.sub(" ", text)
    text = text.partition("(")[0].replace(")", " ")  # an unclosed ( runs to the end
    return re.search(r"\border\s+by\b", text, re.IGNORECASE) is not None


def _cell_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
    b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
    if a_num and b_num and (isinstance(a, float) or isinstance(b, float)):
        return math.isclose(a, b, rel_tol=FLOAT_RTOL)
    return type(a) is type(b) and a == b


def _sort_key(row: Sequence) -> tuple:
    """The row's cells with each number masked, then its numbers: numbers
    equal within the tolerance can sort either way, so they go last."""
    cells, numbers = [], []
    for cell in row:
        if cell is None:
            cells.append((0, ""))
        elif isinstance(cell, (int, float)) and not isinstance(cell, bool):
            cells.append((1, 0.0))
            numbers.append(float(cell))
        elif isinstance(cell, bytes):
            cells.append((2, cell.hex()))
        else:
            cells.append((3, str(cell)))
    return tuple(cells), tuple(numbers)


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


class _Gold(NamedTuple):
    rows: list[tuple]
    columns: int
    ordered: bool  # the gold orders its output at the top level


def _run_gold(conn: sqlite3.Connection, gold_sql: str, timeout: float) -> _Gold:
    rows, columns = run_query(conn, gold_sql, timeout=timeout)
    return _Gold(rows, columns, has_top_level_order_by(gold_sql))


def _prepared_columns(conn: sqlite3.Connection, sql: str, timeout: float) -> int | None:
    """The column count of sql, read without stepping it; None when its
    wrapped form does not prepare (not a single query, say).

    LIMIT 0 ends the wrapper before its first row, and a query that runs
    has the columns of its wrapped form. One trailing `;` is dropped, as
    an actor's reply often ends with one.
    """
    query = sql.rstrip().removesuffix(";")
    try:
        with statement(conn, f"SELECT * FROM (\n{query}\n) LIMIT 0", timeout) as cursor:
            return len(cursor.description)
    except QueryFailure:
        return None


def _prediction_matches(
    conn: sqlite3.Connection,
    predicted_sql: str,
    gold_sql: str,
    gold: _Gold,
    timeout: float,
) -> bool:
    """Score one prediction, stepping it only until its verdict is decided.

    A prediction whose text is its gold's, which already ran, is not run.
    Its column count is read when its wrapped form is prepared, before
    any row: one other than the gold's scores it wrong unrun. A wrapped
    form that does not prepare decides nothing. The probe and the run
    share one deadline: the run gets what the probe left of timeout.
    """
    if predicted_sql == gold_sql:
        return True
    deadline = time.monotonic() + timeout
    if _prepared_columns(conn, predicted_sql, timeout) not in (None, gold.columns):
        return False
    try:
        with statement(conn, predicted_sql, deadline - time.monotonic()) as cursor:
            if len(cursor.description) != gold.columns:
                return False
            # one row past the gold's count already makes the prediction wrong
            rows = cursor.fetchmany(len(gold.rows) + 1)
    except QueryFailure:
        return False
    return result_sets_match(rows, gold.rows, gold.ordered)


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
        try:
            gold = _run_gold(conn, gold_sql, timeout)
        except QueryFailure as exc:
            raise GoldExecutionError(f"gold SQL failed: {exc}") from exc
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


def _scored_traces(
    traces: Iterable[ACTrace],
    db_dir: str | Path,
    timeout: float,
    candidates: Callable[[ACTrace], list[str]],
) -> list[tuple[ACTrace, list[bool] | None]]:
    """(trace, verdict per candidate SQL) for every trace, in db_id order.

    The verdicts are None for a task that cannot be scored: it has no
    gold, its gold fails, or its database is missing.
    """

    def score(group: list[ACTrace]) -> list[tuple[ACTrace, list[bool] | None]]:
        try:
            conn = open_readonly(database_path(db_dir, group[0].task.db_id))
        except DatabaseUnavailable:
            return [(trace, None) for trace in group]
        scored = []
        with closing(conn):
            golds: dict[str, _Gold | None] = {}
            matches: dict[tuple[str, str], bool] = {}
            for trace in group:
                gold_sql = trace.task.gold_sql
                if gold_sql is not None and gold_sql not in golds:
                    try:
                        golds[gold_sql] = _run_gold(conn, gold_sql, timeout)
                    except QueryFailure:
                        golds[gold_sql] = None
                gold = golds.get(gold_sql)
                if gold is None:
                    scored.append((trace, None))
                    continue
                verdicts = []
                for sql in candidates(trace):
                    if (gold_sql, sql) not in matches:
                        matches[gold_sql, sql] = _prediction_matches(
                            conn, sql, gold_sql, gold, timeout
                        )
                    verdicts.append(matches[gold_sql, sql])
                scored.append((trace, verdicts))
        return scored

    db_id = attrgetter("task.db_id")
    groups = [list(group) for _, group in itertools.groupby(sorted(traces, key=db_id), key=db_id)]
    # A database that raises, or a Ctrl-C, cancels those not yet started;
    # leaving the block joins the rest, so no thread or handle outlives the call.
    with ThreadPoolExecutor(max(1, min(len(groups), os.cpu_count() or 1))) as pool:
        return [pair for scored in pool.map(score, groups) for pair in scored]


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
    EX is None.
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
    empty denominators are reported as None, never as zero.
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
CriticFactory = Callable[[SpiderTask], Sequence[CriticComponent]]


@dataclass
class RunSummary:
    written: int = 0
    failed: list[tuple[str, str]] = field(default_factory=list)


def pending_tasks(
    tasks: Sequence[SpiderTask], config: ACConfig, out_path: str | Path
) -> list[SpiderTask]:
    """The resume check: the tasks not yet traced in out_path, in input order.

    The log is read once. A trace in out_path with another
    config, or with another task under one of these task ids, raises
    ValueError, and a log that read_traces(strict=True) refuses, a bad
    complete line included, raises TraceFormatError; either way out_path
    is not written. (A bad line kept would stay in the log for good,
    beside its task's rerun.) A last line that a crash cut short (it
    lacks its newline) is not read: once the checks pass the log is cut
    at its last newline, so its task runs again and the next trace starts
    on a fresh line; a log that ends in a newline is not written. A
    missing out_path has no traces.
    """
    out_path = Path(out_path)
    if not out_path.exists():
        return list(tasks)
    with open(out_path, "rb") as f:
        data = f.read()
    size = data.rfind(b"\n") + 1  # only the last line can lack its newline
    # lines keep their newline, as read_traces reads them, so an error names the same position
    traces = read_trace_lines(io.BytesIO(data[:size]), out_path, strict=True)
    if traces and traces[0].config != config:  # read_trace_lines allows one config per log
        first = traces[0]
        raise ValueError(f"{out_path} holds task {first.task.task_id!r} run with {first.config}, "
                         f"not {config}; resume with the same settings or start a new log")
    by_id = {task.task_id: task for task in tasks}
    done = set()
    for trace in traces:
        task_id = trace.task.task_id
        if by_id.get(task_id, trace.task) != trace.task:
            raise ValueError(f"{out_path} holds task {task_id!r} with another db_id, "
                             "question or gold than the tasks file; start a new log")
        done.add(task_id)
    if size < len(data):
        os.truncate(out_path, size)
    return [task for task in tasks if task.task_id not in done]


def run_tasks(
    tasks: Sequence[SpiderTask],
    schemas: SchemaIndex,
    actor_factory: ActorFactory,
    critic_factory: CriticFactory,
    config: ACConfig,
    out_path: str | Path,
    concurrency: int = 4,
) -> RunSummary:
    """Run the loop over every task, appending one trace per task as JSON Lines.

    To resume, pass the tasks pending_tasks returns for out_path. Actor or
    database failures are recorded per task and do not abort the batch;
    any other error stops it and cancels the tasks not yet started.
    """
    summary = RunSummary()

    def run_one(task: SpiderTask) -> ACTrace:
        ddl = schema_to_ddl(schemas, task.db_id)
        return run_ac_loop(actor_factory(task), critic_factory(task), task, config, ddl)

    with open(out_path, "a", encoding="utf-8") as out:
        pool = ThreadPoolExecutor(max_workers=concurrency)
        try:
            futures = {pool.submit(run_one, task): task for task in tasks}
            for future in as_completed(futures):
                task = futures[future]
                try:
                    trace = future.result()
                except (ActorError, DatabaseUnavailable, KeyError) as exc:
                    summary.failed.append((task.task_id, str(exc)))
                    continue
                write_trace(trace, out)
                out.flush()
                summary.written += 1
        finally:
            pool.shutdown(cancel_futures=True)
    return summary


def ablation_log(out_dir: str | Path, mode: str) -> Path:
    """The trace log of one critic mode in an ablation's output directory."""
    return Path(out_dir) / f"traces_{mode}.jsonl"


def with_baseline(reports: Sequence[EvalReport]) -> list[EvalReport]:
    """The reports in order, the "none" row's EX (if it scored a task) the others' baseline."""
    baseline = next((r.ex for r in reports if r.mode == "none"), None)
    if baseline is None:
        return list(reports)
    return [r if r.mode == "none" else replace(r, baseline_ex=baseline) for r in reports]
