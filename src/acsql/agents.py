"""Actors and critics: prompt construction, reply parsing, and the critic modes.

The actor prompt puts the schema DDL first and then a one-line
instruction with the question; the critic prompt reuses the schema and
asks for a bare True/False on a candidate. Both are deliberately plain
so they transfer across models. The execution critic accepts any
candidate that runs to completion on a read-only connection, which makes
it a syntax (not semantics) check; the LLM critic covers the rest.
"""

import logging
import random
import re
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

from .llm_client import ChatMessage, EndpointConfig, TransportError, complete
from .sqlexec import QueryFailure, run_query
from .theory import check_prob

logger = logging.getLogger(__name__)

ACTOR_INSTRUCTION = (
    "Create a SQL query only for the given questions using database schema "
    "above without explanation:"
)
REGENERATION_INSTRUCTION = (
    "Please provide a new SQL query to the question only without explanation:"
)
CRITIC_INSTRUCTION = (
    "Answer True if the SQL query is correct and False if incorrect without "
    "explanation."
)

# Tokens emitted by the coin-flip actor; both are valid standalone SQL so
# they survive extraction and execute anywhere.
CORRECT_SQL = "SELECT 'correct'"
WRONG_SQL = "SELECT 'wrong'"


@dataclass(frozen=True)
class Verdict:
    """One critic decision with its source and raw evidence."""

    accepted: bool
    source: str  # execution | llm | scripted | stochastic
    detail: str = ""


@dataclass(frozen=True)
class PromptBundle:
    """Schema preamble plus the instruction turn, in that order."""

    system_or_preamble: str
    user_turn: str

    def render(self) -> str:
        return f"{self.system_or_preamble}\n\n{self.user_turn}"

    def as_messages(self) -> list[ChatMessage]:
        return [ChatMessage("user", self.render())]


class Actor(Protocol):
    def respond(self, messages: list[ChatMessage]) -> str: ...


class Critic(Protocol):
    def review(
        self, candidate_sql: str, *, schema_ddl: str, question: str
    ) -> list[Verdict]: ...


# ---------------------------------------------------------------------------
# Prompt builders
# ---------------------------------------------------------------------------


def build_actor_prompt(schema_ddl: str, question: str) -> PromptBundle:
    if not schema_ddl.strip():
        raise ValueError("schema DDL must be non-empty")
    if not question.strip():
        raise ValueError("question must be non-empty")
    return PromptBundle(
        system_or_preamble=schema_ddl,
        user_turn=f"{ACTOR_INSTRUCTION} {question}",
    )


def build_regeneration_prompt(question: str) -> str:
    if not question.strip():
        raise ValueError("question must be non-empty")
    return f"{REGENERATION_INSTRUCTION} {question}"


def build_critic_prompt(schema_ddl: str, question: str, candidate_sql: str) -> PromptBundle:
    if not schema_ddl.strip():
        raise ValueError("schema DDL must be non-empty")
    if not question.strip():
        raise ValueError("question must be non-empty")
    if not candidate_sql.strip():
        raise ValueError("candidate SQL must be non-empty")
    return PromptBundle(
        system_or_preamble=schema_ddl,
        user_turn=f"{CRITIC_INSTRUCTION} Question: {question} SQL: {candidate_sql}",
    )


# ---------------------------------------------------------------------------
# Reply parsing
# ---------------------------------------------------------------------------

_FENCED_BLOCK = re.compile(r"```[a-zA-Z0-9_+-]*\n?(.*?)```", re.DOTALL)
_SQL_KEYWORD = re.compile(r"\b(select|with|insert|update|delete|create)\b", re.IGNORECASE)


def _first_unquoted_semicolon(text: str, start: int) -> int:
    quote: str | None = None
    for i in range(start, len(text)):
        ch = text[i]
        if quote is not None:
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
        elif ch == ";":
            return i
    return -1


def extract_sql(actor_raw_output: str) -> str:
    """Pull the SQL statement out of a possibly chatty actor reply.

    Unwraps a fenced code block if present, then returns the text from
    the first SQL keyword through the first unquoted semicolon (or end
    of text). Falls back to the trimmed input when no keyword is found;
    never raises.
    """
    text = actor_raw_output.strip()
    fenced = _FENCED_BLOCK.search(text)
    if fenced:
        text = fenced.group(1).strip()
    match = _SQL_KEYWORD.search(text)
    if not match:
        return text
    start = match.start()
    end = _first_unquoted_semicolon(text, start)
    if end == -1:
        return text[start:].strip()
    return text[start : end + 1].strip()


def parse_verdict(llm_reply: str) -> bool:
    """Map a critic reply to accept/reject.

    Accepts only when the reply contains "true" and not "false"
    (case-insensitive); anything ambiguous rejects, since a spurious
    regeneration is recoverable and a wrongly emitted SQL is not.
    """
    text = llm_reply.lower()
    has_true = "true" in text
    has_false = "false" in text
    return has_true and not has_false


# ---------------------------------------------------------------------------
# Critics
# ---------------------------------------------------------------------------


def execution_critic(
    candidate_sql: str,
    database: str | Path | sqlite3.Connection,
    timeout: float = 5.0,
) -> Verdict:
    """Accept iff the candidate executes without error on a read-only handle.

    An empty result set still accepts; syntax errors, unknown
    tables/columns, any statement but a query (writes, temp tables,
    ATTACH and PRAGMA, refused by run_query on any handle), runtime
    errors, and timeouts all reject with the error text as evidence.
    Database-open failures propagate as DatabaseUnavailable.
    """
    try:
        run_query(database, candidate_sql, timeout=timeout)
    except QueryFailure as exc:
        return Verdict(accepted=False, source="execution", detail=str(exc))
    return Verdict(accepted=True, source="execution", detail="")


class LLMJudge:
    """LLM-backed critic component: asks for a bare True/False."""

    def __init__(self, endpoint: EndpointConfig):
        self.endpoint = endpoint

    def judge(self, schema_ddl: str, question: str, candidate_sql: str) -> Verdict:
        bundle = build_critic_prompt(schema_ddl, question, candidate_sql)
        try:
            reply = complete(self.endpoint, bundle.as_messages())
        except TransportError as exc:
            # Unreachable critic must not let an unverified candidate out
            # early; a reject just costs one regeneration.
            logger.warning("LLM critic unavailable, rejecting candidate: %s", exc)
            return Verdict(accepted=False, source="llm", detail=f"transport failure: {exc}")
        return Verdict(accepted=parse_verdict(reply), source="llm", detail=reply)


# Critic components each mode runs, in review order; "none" runs no critic.
CRITIC_MODES: dict[str, tuple[str, ...]] = {
    "none": (),
    "llm_only": ("llm",),
    "execution_only": ("execution",),
    "both": ("execution", "llm"),
}


class CompositeCritic:
    """Runs one mode's critic components in table order for one task.

    A reject short-circuits, so with mode "both" the LLM is not consulted
    on SQL that failed to execute; overall acceptance means every
    returned verdict accepted.
    """

    def __init__(
        self,
        mode: str,
        database: str | Path | sqlite3.Connection | None = None,
        llm_judge: LLMJudge | None = None,
        timeout: float = 5.0,
    ):
        components = CRITIC_MODES.get(mode)
        if not components:
            raise ValueError(f"no critic runs in mode {mode!r}")
        if "execution" in components and database is None:
            raise ValueError(f"{mode} mode requires a database")
        if "llm" in components and llm_judge is None:
            raise ValueError(f"{mode} mode requires an LLM judge")
        self.components = components
        self.database = database
        self.llm_judge = llm_judge
        self.timeout = timeout

    def review(self, candidate_sql: str, *, schema_ddl: str, question: str) -> list[Verdict]:
        verdicts = []
        for component in self.components:
            if component == "execution":
                verdict = execution_critic(candidate_sql, self.database, self.timeout)
            else:
                verdict = self.llm_judge.judge(schema_ddl, question, candidate_sql)
            verdicts.append(verdict)
            if not verdict.accepted:
                break
        return verdicts


# ---------------------------------------------------------------------------
# Actors
# ---------------------------------------------------------------------------


class LLMActor:
    """Actor backed by a chat endpoint; transport errors propagate."""

    def __init__(self, endpoint: EndpointConfig):
        self.endpoint = endpoint

    def respond(self, messages: list[ChatMessage]) -> str:
        return complete(self.endpoint, messages)


class BernoulliActor:
    """Emits a correctness-tagged token: correct with probability p."""

    def __init__(self, p: float, rng: random.Random):
        check_prob(p, "p")
        self.p = p
        self.rng = rng

    def respond(self, messages: list[ChatMessage]) -> str:
        return CORRECT_SQL if self.rng.random() < self.p else WRONG_SQL


class StochasticCritic:
    """Coin-flip critic driven by the token's tag.

    Accepts a wrong candidate with probability q (false negative) and
    rejects a correct one with probability s (false positive).
    """

    def __init__(self, q: float, s: float, rng: random.Random):
        check_prob(q, "q")
        check_prob(s, "s")
        self.q = q
        self.s = s
        self.rng = rng

    def review(self, candidate_sql: str, *, schema_ddl: str, question: str) -> list[Verdict]:
        draw = self.rng.random()
        if candidate_sql == CORRECT_SQL:
            accepted = draw >= self.s
        else:
            accepted = draw < self.q
        return [Verdict(accepted=accepted, source="stochastic")]
