"""The generate-and-verify iteration loop and its trace log.

One run: the actor answers the schema+question prompt; at every
iteration except the last the critic's components review the extracted
SQL in order until one rejects. An iteration every component accepted
ends the run; a reject appends the previous reply plus a regeneration
request to the dialogue and tries again. The final iteration's SQL is
emitted without review, so a budget of z means at most z generations
and at most z-1 critic consultations.

Traces serialize to JSON Lines, one task per line, with stable field
names so downstream scoring and parameter estimation can replay them.
The derived fields final_sql, stopped_by and each iteration's index
are written for readers and checked against the iterations when read;
the reader also checks each field's JSON type and refuses a log whose
records differ in config or that holds a task_id twice.
"""

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

from .agents import (
    CRITIC_MODES,
    Actor,
    CriticComponent,
    Verdict,
    build_actor_prompt,
    build_regeneration_prompt,
    extract_sql,
)
from .llm_client import ChatMessage
from .spider_data import SpiderTask
from .theory import check_int


class ActorError(Exception):
    """The actor failed outright (transport/parse); distinct from a reject."""


class TraceFormatError(Exception):
    """A trace line could not be decoded (strict mode)."""


class TraceWarning(UserWarning):
    """A trace line was skipped during tolerant reading."""


@dataclass(frozen=True)
class ACConfig:
    max_iterations: int = 5
    critic_mode: str = "both"

    def __post_init__(self) -> None:
        check_int(self.max_iterations, "max_iterations")
        if not isinstance(self.critic_mode, str) or self.critic_mode not in CRITIC_MODES:
            raise ValueError(
                f"critic_mode must be one of {tuple(CRITIC_MODES)}, got {self.critic_mode!r}"
            )

    @property
    def budget(self) -> int:
        """Most generations one run makes; a mode with no critic component emits its first draft."""
        return self.max_iterations if CRITIC_MODES[self.critic_mode] else 1


@dataclass(frozen=True)
class IterationRecord:
    generated_sql: str
    verdicts: tuple[Verdict, ...]
    actor_raw_output: str

    @property
    def overall_accepted(self) -> bool:
        return bool(self.verdicts) and all(v.accepted for v in self.verdicts)


@dataclass(frozen=True)
class ACTrace:
    task: SpiderTask
    config: ACConfig
    iterations: tuple[IterationRecord, ...]

    @property
    def final_sql(self) -> str:
        return self.iterations[-1].generated_sql

    @property
    def stopped_by(self) -> str:
        return "accepted" if self.iterations[-1].overall_accepted else "budget_exhausted"


def run_ac_loop(
    actor: Actor,
    critic: Sequence[CriticComponent],
    task: SpiderTask,
    config: ACConfig,
    schema_ddl: str,
) -> ACTrace:
    """Drive one task through the loop and record everything.

    After a reject no later critic component runs, so in mode "both" the
    LLM is not asked about SQL that failed to execute; an iteration
    records the verdicts that ran. In a mode with no critic component
    exactly one generation runs and is emitted unreviewed (the bare-actor
    baseline); another mode given no component is a ValueError before the
    actor is called. Actor exceptions become ActorError; critic transport
    problems are the critic's own concern (LLMJudge turns them into
    reject verdicts).
    """
    budget = config.budget
    if budget > 1 and not critic:
        raise ValueError(f"critic required for mode {config.critic_mode!r}")
    messages = build_actor_prompt(schema_ddl, task.question)
    iterations: list[IterationRecord] = []

    for index in range(1, budget + 1):
        try:
            raw = actor.respond(messages)
        except Exception as exc:
            raise ActorError(f"actor failed at iteration {index}: {exc}") from exc
        sql = extract_sql(raw)

        verdicts: list[Verdict] = []
        if index < budget:
            for component in critic:
                verdicts.append(component(sql, schema_ddl, task.question))
                if not verdicts[-1].accepted:
                    break
        record = IterationRecord(generated_sql=sql, verdicts=tuple(verdicts), actor_raw_output=raw)
        iterations.append(record)

        if record.overall_accepted:
            break
        if index < budget:
            messages.extend([
                ChatMessage("assistant", raw),
                ChatMessage("user", build_regeneration_prompt(task.question)),
            ])

    return ACTrace(task=task, config=config, iterations=tuple(iterations))


# ---------------------------------------------------------------------------
# Trace persistence (JSON Lines)
# ---------------------------------------------------------------------------


def trace_to_dict(trace: ACTrace) -> dict:
    return {
        "task_id": trace.task.task_id,
        "db_id": trace.task.db_id,
        "question": trace.task.question,
        "gold_sql": trace.task.gold_sql,
        "config": {
            "max_iterations": trace.config.max_iterations,
            "critic_mode": trace.config.critic_mode,
        },
        "iterations": [
            {
                "index": index,
                "sql": record.generated_sql,
                "actor_raw": record.actor_raw_output,
                "verdicts": [
                    {"source": v.source, "accepted": v.accepted, "detail": v.detail}
                    for v in record.verdicts
                ],
            }
            for index, record in enumerate(trace.iterations, start=1)
        ],
        "final_sql": trace.final_sql,
        "stopped_by": trace.stopped_by,
    }


_MISSING = object()
_JSON_TYPES = {str: "a string", (str, type(None)): "a string or null", int: "an integer",
               bool: "true or false", dict: "an object", list: "a list"}


def _typed(obj, key: str, kind, default=_MISSING):
    """obj[key] if it has the JSON type kind (a bool is no integer); default if absent."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object holding {key!r}, got {obj!r}")
    value = obj.get(key, default)
    if value is _MISSING:
        raise ValueError(f"missing {key!r}")
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{key!r} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def trace_from_dict(payload: dict) -> ACTrace:
    try:
        task = SpiderTask(
            task_id=_typed(payload, "task_id", str),
            db_id=_typed(payload, "db_id", str),
            question=_typed(payload, "question", str),
            gold_sql=_typed(payload, "gold_sql", (str, type(None)), None),
        )
        config = _typed(payload, "config", dict)
        config = ACConfig(
            _typed(config, "max_iterations", int), _typed(config, "critic_mode", str)
        )
        items = _typed(payload, "iterations", list)
        iterations = tuple(
            IterationRecord(
                generated_sql=_typed(item, "sql", str),
                verdicts=tuple(
                    Verdict(
                        accepted=_typed(v, "accepted", bool),
                        source=_typed(v, "source", str),
                        detail=_typed(v, "detail", str, ""),
                    )
                    for v in _typed(item, "verdicts", list)
                ),
                actor_raw_output=_typed(item, "actor_raw", str),
            )
            for item in items
        )
        # Refuse what run_ac_loop cannot produce: it makes 1 to budget
        # iterations numbered from 1 and stops at the first accept.
        if not 1 <= len(iterations) <= config.budget:
            raise ValueError(f"{len(iterations)} iterations, but mode {config.critic_mode!r} with "
                             f"max_iterations {config.max_iterations} allows 1 to {config.budget}")
        if [_typed(item, "index", int) for item in items] != list(range(1, len(items) + 1)):
            raise ValueError("iteration indices are not 1..n in order")
        if any(record.overall_accepted for record in iterations[:-1]):
            raise ValueError("an iteration before the last was accepted")
        trace = ACTrace(task=task, config=config, iterations=iterations)
        if _typed(payload, "final_sql", str) != trace.final_sql:
            raise ValueError("'final_sql' is not the last iteration's sql")
        if _typed(payload, "stopped_by", str) != trace.stopped_by:
            raise ValueError(f"'stopped_by' must be {trace.stopped_by!r}, as the iterations say")
        return trace
    except ValueError as exc:
        raise TraceFormatError(f"invalid trace record: {exc}") from exc


def write_trace(trace: ACTrace, out: IO[str]) -> None:
    """Append one trace as a single JSON line."""
    out.write(json.dumps(trace_to_dict(trace), ensure_ascii=False) + "\n")


def read_traces(path: str | Path, strict: bool = False) -> list[ACTrace]:
    """Read a JSON Lines trace log.

    Malformed lines, a line that is not UTF-8 among them, raise
    TraceFormatError with their line number when strict, otherwise emit
    a TraceWarning and are skipped. A config that differs from the first
    record's, or a task_id that an earlier record holds, raises
    TraceFormatError either way.
    """
    with open(path, "rb") as f:
        return read_trace_lines(f, path, strict)


def read_trace_lines(lines: Iterable[bytes], path: str | Path, strict: bool = False) -> list[ACTrace]:
    """Parse lines read from path as read_traces does; errors name path and the line's position."""
    traces: list[ACTrace] = []
    seen: set[str] = set()
    for line_no, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            trace = trace_from_dict(json.loads(line))
        except (ValueError, TraceFormatError) as exc:
            if strict:
                raise TraceFormatError(f"{path}:{line_no}: {exc}") from exc
            warnings.warn(f"{path}:{line_no}: skipping bad trace line: {exc}", TraceWarning)
            continue
        if traces and trace.config != traces[0].config:
            raise TraceFormatError(f"{path}:{line_no}: {trace.config} differs from the first "
                                   f"record's {traces[0].config}; a log holds one config")
        if trace.task.task_id in seen:
            raise TraceFormatError(f"{path}:{line_no}: task_id {trace.task.task_id!r} appears "
                                   "twice; a log holds one trace per task")
        seen.add(trace.task.task_id)
        traces.append(trace)
    return traces
