"""Actors and critics: prompt construction, reply parsing, and the critic modes.

The actor prompt is one user turn, the schema DDL and then a one-line
instruction with the question; the critic prompt reuses the schema and
asks for a bare True/False on a candidate. Both are deliberately plain
so they transfer across models, and their builders never raise: a blank
candidate is just a wrong draft. The execution critic accepts any
candidate that runs a query to completion on a read-only connection,
which makes it a syntax (not semantics) check; the LLM critic covers the rest.

A critic is the ordered tuple of its components, each a callable
(candidate_sql, schema_ddl, question) -> Verdict: LLMJudge.judge and
StochasticCritic.judge are components, and the CLI wraps
execution_critic in another. The CLI builds a mode's tuple in
CRITIC_MODES order; engine.run_ac_loop runs it in that order and stops
at the first reject.

LLMActor and LLMJudge send each request with the send they are given:
llm_client.complete, or, from the CLI, the complete of a ReplyTable, one
per task, which the modes of one CLI command share: a mode's n-th send of a
request is answered from the table when an earlier mode of the task got
an n-th reply to it, and goes out otherwise. Only successful replies are
recorded, and at temperature > 0 the sharing pairs the modes.

extract_sql cuts the SQL out of an actor reply with sqlexec's lexer
(COMMENT, NOT_CODE), the one that scoring reads ORDER BY with.
"""

import logging
import random
import re
from collections import Counter
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol

from .llm_client import ChatMessage, EndpointConfig, TransportError, complete
from .sqlexec import COMMENT, NOT_CODE, QueryFailure, open_readonly, run_query
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
    source: str  # the component that decided: execution | llm | scripted | stochastic
    detail: str = ""


class Actor(Protocol):
    def respond(self, messages: list[ChatMessage]) -> str:
        """The raw reply to the conversation so far.

        The loop appends to messages after the call returns, so the list
        is only valid during the call; an actor that keeps it copies it.
        """


# One check of a critic: (candidate_sql, schema_ddl, question) -> Verdict.
CriticComponent = Callable[[str, str, str], Verdict]

# What an LLM agent sends a request with: llm_client.complete's signature.
Send = Callable[[EndpointConfig, list[ChatMessage]], str]


# ---------------------------------------------------------------------------
# Prompt builders
# ---------------------------------------------------------------------------


def build_actor_prompt(schema_ddl: str, question: str) -> list[ChatMessage]:
    return [ChatMessage("user", f"{schema_ddl}\n\n{ACTOR_INSTRUCTION} {question}")]


def build_regeneration_prompt(question: str) -> str:
    return f"{REGENERATION_INSTRUCTION} {question}"


def build_critic_prompt(schema_ddl: str, question: str, candidate_sql: str) -> list[ChatMessage]:
    turn = f"{CRITIC_INSTRUCTION} Question: {question} SQL: {candidate_sql}"
    return [ChatMessage("user", f"{schema_ddl}\n\n{turn}")]


# ---------------------------------------------------------------------------
# Reply parsing
# ---------------------------------------------------------------------------

_FENCED_BLOCK = re.compile(r"```[a-zA-Z0-9_+-]*\n?(.*?)```", re.DOTALL)
_SQL_KEYWORD = re.compile(r"\b(select|with|insert|update|delete|create)\b", re.IGNORECASE)


def extract_sql(actor_raw_output: str) -> str:
    """Pull the SQL statement out of a possibly chatty actor reply.

    Unwraps a fenced code block if present, then returns the text from
    the first SQL keyword outside comments through the first semicolon
    outside literals, identifiers and comments (or end of text). Quotes
    are read only from the keyword on, so an apostrophe in the prose
    before it opens no literal. Falls back to the trimmed input when no
    keyword is found; never raises.
    """
    text = actor_raw_output.strip()
    fenced = _FENCED_BLOCK.search(text)
    if fenced:
        text = fenced.group(1).strip()
    match = _SQL_KEYWORD.search(COMMENT.sub(_as_spaces, text))
    if not match:
        return text
    sql = text[match.start() :]
    end = NOT_CODE.sub(_as_spaces, sql).find(";")
    return (sql if end < 0 else sql[: end + 1]).strip()


def _as_spaces(span: re.Match) -> str:
    """As many spaces as span is long, so blanked text keeps its offsets."""
    return " " * len(span.group())


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


def execution_critic(candidate_sql: str, database: str | Path, timeout: float = 5.0) -> Verdict:
    """Accept iff the candidate executes without error on a read-only handle.

    The candidate runs to its end on a handle opened for it and closed
    after it; none of its rows are kept.
    An empty result set still accepts; syntax errors, unknown
    tables/columns, any statement but a query (writes, temp tables,
    ATTACH and PRAGMA, refused by the open_readonly handle), blank or
    comment-only text ("not a query"), runtime errors, and timeouts all
    reject with the error text as evidence.
    Database-open failures propagate as DatabaseUnavailable.
    """
    with closing(open_readonly(database)) as conn:
        try:
            run_query(conn, candidate_sql, timeout=timeout, max_rows=0)
        except QueryFailure as exc:
            return Verdict(accepted=False, source="execution", detail=str(exc))
    return Verdict(accepted=True, source="execution", detail="")


class ReplyTable:
    """The successful replies to one task's chat requests, shared by the task's modes.

    A request is its EndpointConfig and its messages. A mode's n-th send of
    a request gets the n-th reply that an earlier mode got to it; if there
    is none, the request goes out and its reply is recorded. A failed
    request raises and records nothing, so the next mode sends it again. A
    mode is never served a reply it recorded itself, so within a mode every
    request goes out and the trace is a draw from its own loop. Against an
    endpoint whose reply is a function of the request nothing changes; at
    temperature > 0 the modes become paired along their common prefix.

    A task's modes run one after another, and a task in one thread at a
    time, so no two threads use a table at once.
    """

    def __init__(self) -> None:
        self._replies: dict[tuple, list[str]] = {}
        self._sent: dict[str, Counter] = {}  # mode -> its sends of each request

    def complete(self, mode: str, endpoint: EndpointConfig, messages: list[ChatMessage]) -> str:
        """llm_client.complete for one mode of the task, served from the table where it can be."""
        key = (endpoint, tuple(messages))
        replies = self._replies.setdefault(key, [])
        sent = self._sent.setdefault(mode, Counter())
        n = sent[key]
        if n == len(replies):
            replies.append(complete(endpoint, messages))
        sent[key] = n + 1
        return replies[n]


class LLMJudge:
    """LLM-backed critic component: asks for a bare True/False.

    send sends the request: llm_client.complete, or a ReplyTable's
    complete bound to a mode, as the CLI passes.
    """

    def __init__(self, endpoint: EndpointConfig, send: Send):
        self.endpoint = endpoint
        self.send = send

    def judge(self, candidate_sql: str, schema_ddl: str, question: str) -> Verdict:
        messages = build_critic_prompt(schema_ddl, question, candidate_sql)
        try:
            reply = self.send(self.endpoint, messages)
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


# ---------------------------------------------------------------------------
# Actors
# ---------------------------------------------------------------------------


class LLMActor:
    """Actor backed by a chat endpoint; transport errors propagate.

    send sends the request, as in LLMJudge.
    """

    def __init__(self, endpoint: EndpointConfig, send: Send):
        self.endpoint = endpoint
        self.send = send

    def respond(self, messages: list[ChatMessage]) -> str:
        return self.send(self.endpoint, messages)


class BernoulliActor:
    """Emits a correctness-tagged token: correct with probability p."""

    def __init__(self, p: float, rng: random.Random):
        check_prob(p, "p")
        self.p = p
        self.rng = rng

    def respond(self, messages: list[ChatMessage]) -> str:
        return CORRECT_SQL if self.rng.random() < self.p else WRONG_SQL


class StochasticCritic:
    """Coin-flip critic component driven by the token's tag.

    Accepts a wrong candidate with probability q (false negative) and
    rejects a correct one with probability s (false positive).
    """

    def __init__(self, q: float, s: float, rng: random.Random):
        check_prob(q, "q")
        check_prob(s, "s")
        self.q = q
        self.s = s
        self.rng = rng

    def judge(self, candidate_sql: str, schema_ddl: str, question: str) -> Verdict:
        draw = self.rng.random()
        if candidate_sql == CORRECT_SQL:
            accepted = draw >= self.s
        else:
            accepted = draw < self.q
        return Verdict(accepted=accepted, source="stochastic")
