"""Scripted actor and critic that replay fixed replies and decisions."""

from typing import Sequence

from acsql.agents import Verdict
from acsql.llm_client import ChatMessage


class ScriptedActor:
    """Replays fixed raw outputs in order; records every prompt it received."""

    def __init__(self, replies: Sequence[str], cycle_last: bool = False):
        self.replies = list(replies)
        self.cycle_last = cycle_last
        self.received: list[list[ChatMessage]] = []
        self._next = 0

    def respond(self, messages: list[ChatMessage]) -> str:
        self.received.append(list(messages))
        if self._next >= len(self.replies):
            if self.cycle_last and self.replies:
                return self.replies[-1]
            raise RuntimeError("scripted actor has no more replies")
        reply = self.replies[self._next]
        self._next += 1
        return reply


class ScriptedCritic:
    """Critic component (its judge method) replaying fixed accept/reject decisions in order."""

    def __init__(self, decisions: Sequence[bool]):
        self.decisions = list(decisions)
        self.reviewed: list[str] = []
        self._next = 0

    def judge(self, candidate_sql: str, schema_ddl: str, question: str) -> Verdict:
        self.reviewed.append(candidate_sql)
        if self._next >= len(self.decisions):
            raise RuntimeError("scripted critic has no more decisions")
        decision = self.decisions[self._next]
        self._next += 1
        return Verdict(accepted=decision, source="scripted")
