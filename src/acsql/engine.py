"""The generate-and-verify iteration loop and its trace log.

One run: the actor answers the schema+question prompt; at every
iteration except the last the critic reviews the extracted SQL, an
accept verdict ends the run, a reject appends the previous reply plus a
regeneration request to the dialogue and tries again. The final
iteration's SQL is emitted without review, so a budget of z means at
most z generations and at most z-1 critic consultations.

Traces serialize to JSON Lines, one run per line, with stable field
names so downstream scoring and parameter estimation can replay them.
"""

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO

from .agents import (
    CRITIC_MODES,
    Actor,
    Critic,
    Verdict,
    build_actor_prompt,
    build_regeneration_prompt,
    extract_sql,
)
from .llm_client import ChatMessage
from .spider_data import SpiderTask


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
        if not isinstance(self.max_iterations, int) or self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations!r}")
        if self.critic_mode not in CRITIC_MODES:
            raise ValueError(
                f"critic_mode must be one of {tuple(CRITIC_MODES)}, got {self.critic_mode!r}"
            )

    @property
    def budget(self) -> int:
        """Most generations one run makes; "none" emits its first draft unreviewed."""
        return 1 if self.critic_mode == "none" else self.max_iterations


@dataclass(frozen=True)
class IterationRecord:
    index: int  # 1-based
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
    final_sql: str
    stopped_by: str  # accepted | budget_exhausted


def run_ac_loop(
    actor: Actor,
    critic: Critic | None,
    task: SpiderTask,
    config: ACConfig,
    schema_ddl: str,
) -> ACTrace:
    """Drive one task through the loop and record everything.

    With critic_mode "none" exactly one generation runs and is emitted
    unreviewed (the bare-actor baseline). Actor exceptions become
    ActorError; critic transport problems are the critic's own concern
    (the composite critic converts them to reject verdicts).
    """
    budget = config.budget
    messages = build_actor_prompt(schema_ddl, task.question)
    iterations: list[IterationRecord] = []
    stopped_by = "budget_exhausted"

    for index in range(1, budget + 1):
        try:
            raw = actor.respond(messages)
        except Exception as exc:
            raise ActorError(f"actor failed at iteration {index}: {exc}") from exc
        sql = extract_sql(raw)

        verdicts: tuple[Verdict, ...] = ()
        if index < budget:
            if critic is None:
                raise ValueError(f"critic required for mode {config.critic_mode!r}")
            verdicts = tuple(
                critic.review(sql, schema_ddl=schema_ddl, question=task.question)
            )
        record = IterationRecord(
            index=index, generated_sql=sql, verdicts=verdicts, actor_raw_output=raw
        )
        iterations.append(record)

        if record.overall_accepted:
            stopped_by = "accepted"
            break
        if index < budget:
            messages = messages + [
                ChatMessage("assistant", raw),
                ChatMessage("user", build_regeneration_prompt(task.question)),
            ]

    return ACTrace(
        task=task,
        config=config,
        iterations=tuple(iterations),
        final_sql=iterations[-1].generated_sql,
        stopped_by=stopped_by,
    )


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
                "index": record.index,
                "sql": record.generated_sql,
                "actor_raw": record.actor_raw_output,
                "verdicts": [
                    {"source": v.source, "accepted": v.accepted, "detail": v.detail}
                    for v in record.verdicts
                ],
            }
            for record in trace.iterations
        ],
        "final_sql": trace.final_sql,
        "stopped_by": trace.stopped_by,
    }


def trace_from_dict(payload: dict) -> ACTrace:
    try:
        task = SpiderTask(
            task_id=payload["task_id"],
            db_id=payload["db_id"],
            question=payload["question"],
            gold_sql=payload.get("gold_sql"),
        )
        config = ACConfig(
            max_iterations=payload["config"]["max_iterations"],
            critic_mode=payload["config"]["critic_mode"],
        )
        iterations = tuple(
            IterationRecord(
                index=item["index"],
                generated_sql=item["sql"],
                verdicts=tuple(
                    Verdict(
                        accepted=v["accepted"],
                        source=v["source"],
                        detail=v.get("detail", ""),
                    )
                    for v in item["verdicts"]
                ),
                actor_raw_output=item["actor_raw"],
            )
            for item in payload["iterations"]
        )
        if not iterations:
            raise ValueError("a trace needs at least one iteration")
        if any(not isinstance(v.accepted, bool) for record in iterations for v in record.verdicts):
            raise ValueError("a verdict's 'accepted' must be true or false")
        # Refuse what run_ac_loop cannot produce: it numbers iterations from
        # 1, stops at the first accept and never exceeds its budget.
        if [record.index for record in iterations] != list(range(1, len(iterations) + 1)):
            raise ValueError("iteration indices are not 1..n in order")
        if any(record.overall_accepted for record in iterations[:-1]):
            raise ValueError("an iteration before the last was accepted")
        if len(iterations) > config.budget:
            raise ValueError(
                f"{len(iterations)} iterations exceed the budget of {config.budget} "
                f"(mode {config.critic_mode!r})"
            )
        last = iterations[-1]
        if payload["final_sql"] != last.generated_sql:
            raise ValueError("'final_sql' is not the last iteration's sql")
        stopped_by = "accepted" if last.overall_accepted else "budget_exhausted"
        if payload["stopped_by"] != stopped_by:
            raise ValueError(
                f"'stopped_by' is {payload['stopped_by']!r} but the last iteration "
                f"says {stopped_by!r}"
            )
        return ACTrace(
            task=task,
            config=config,
            iterations=iterations,
            final_sql=last.generated_sql,
            stopped_by=stopped_by,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"invalid trace record: {exc}") from exc


def write_trace(trace: ACTrace, out: IO[str]) -> None:
    """Append one trace as a single JSON line."""
    out.write(json.dumps(trace_to_dict(trace), ensure_ascii=False) + "\n")


def read_traces(path: str | Path, strict: bool = False) -> list[ACTrace]:
    """Read a JSON Lines trace log.

    Malformed lines raise TraceFormatError with their line number when
    strict, otherwise emit a TraceWarning and are skipped.
    """
    traces: list[ACTrace] = []
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
                traces.append(trace_from_dict(payload))
            except (ValueError, TraceFormatError) as exc:
                if strict:
                    raise TraceFormatError(f"{path}:{line_no}: {exc}") from exc
                warnings.warn(f"{path}:{line_no}: skipping bad trace line: {exc}", TraceWarning)
    return traces
