"""Tests for prompt builders, reply parsing, critics, and test doubles."""

import hashlib
import random
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acsql.agents import (
    CORRECT_SQL,
    WRONG_SQL,
    BernoulliActor,
    CompositeCritic,
    StochasticCritic,
    Verdict,
    build_actor_prompt,
    build_critic_prompt,
    build_regeneration_prompt,
    execution_critic,
    extract_sql,
    parse_verdict,
)
from acsql.sqlexec import DatabaseUnavailable
from doubles import ScriptedActor, ScriptedCritic

TONNAGE_QUESTION = (
    "What are the death and injury situations caused by the ship with tonnage 't ' ?"
)

CONTINENTS_DDL = (
    "CREATE TABLE continents(ContId int primary key ,Continent text ,"
    "foreign key(ContId) references countries(Continent));"
    "CREATE TABLE countries (CountryId int primary key ,CountryName text ,"
    "Continent int ,foreign key(Continent) references continents(ContId));"
)

# The published single-prompt form this layout replicates, with the
# question glued to the instruction by typesetting.
CONTINENTS_PROMPT = (
    CONTINENTS_DDL
    + "\n\nCreate a SQL query only for the given questions using database schema "
    "above without explanation:How many continents are there?"
)


def squash(text: str) -> str:
    """Collapse all whitespace; equality modulo whitespace normalization."""
    return "".join(text.split())


class TestPromptBuilders:
    def test_actor_prompt_layout(self):
        bundle = build_actor_prompt(CONTINENTS_DDL, "How many continents are there?")
        assert bundle.system_or_preamble == CONTINENTS_DDL
        assert bundle.render().index(CONTINENTS_DDL) < bundle.render().index("Create a SQL")
        assert squash(bundle.render()) == squash(CONTINENTS_PROMPT)

    def test_actor_prompt_first_turn(self, battle_ddl):
        bundle = build_actor_prompt(battle_ddl, TONNAGE_QUESTION)
        expected_turn = (
            "Create a SQL query only for the given questions using database schema "
            "above without explanation: " + TONNAGE_QUESTION
        )
        assert bundle.user_turn == expected_turn
        messages = bundle.as_messages()
        assert len(messages) == 1 and messages[0].role == "user"

    def test_actor_prompt_rejects_empty(self):
        with pytest.raises(ValueError):
            build_actor_prompt("", "q")
        with pytest.raises(ValueError):
            build_actor_prompt("CREATE TABLE t ( a INT );", "  ")

    def test_regeneration_prompt_exact(self):
        assert build_regeneration_prompt(TONNAGE_QUESTION) == (
            "Please provide a new SQL query to the question only without "
            "explanation: " + TONNAGE_QUESTION
        )

    def test_regeneration_prompt_varies_only_in_question(self):
        a = build_regeneration_prompt("first question?")
        b = build_regeneration_prompt("second question?")
        prefix = "Please provide a new SQL query to the question only without explanation: "
        assert a == prefix + "first question?"
        assert b == prefix + "second question?"

    def test_regeneration_prompt_rejects_empty(self):
        with pytest.raises(ValueError):
            build_regeneration_prompt("")

    def test_critic_prompt_layout(self, battle_ddl):
        sql = "SELECT killed, injured FROM death WHERE caused_by_ship"
        bundle = build_critic_prompt(battle_ddl, TONNAGE_QUESTION, sql)
        assert bundle.system_or_preamble == battle_ddl
        assert bundle.user_turn == (
            "Answer True if the SQL query is correct and False if incorrect "
            f"without explanation. Question: {TONNAGE_QUESTION} SQL: {sql}"
        )

    def test_critic_prompt_embeds_multiline_sql(self, battle_ddl):
        sql = "SELECT killed\nFROM death\nWHERE id = 1"
        bundle = build_critic_prompt(battle_ddl, "q?", sql)
        assert sql in bundle.user_turn

    def test_critic_prompt_rejects_empty_sql(self, battle_ddl):
        with pytest.raises(ValueError):
            build_critic_prompt(battle_ddl, "q?", "")

    @given(st.text(min_size=1), st.text(min_size=1))
    @settings(max_examples=50)
    def test_builders_are_pure(self, schema, question):
        if not schema.strip() or not question.strip():
            return
        assert build_actor_prompt(schema, question) == build_actor_prompt(schema, question)
        assert build_regeneration_prompt(question) == build_regeneration_prompt(question)


class TestExtractSql:
    def test_strips_code_fence(self):
        assert extract_sql("```sql\nSELECT 1;\n```") == "SELECT 1;"
        assert extract_sql("```\nSELECT 1;\n```") == "SELECT 1;"

    def test_keyword_to_semicolon(self):
        assert extract_sql("Sure! SELECT a FROM t; hope that helps") == "SELECT a FROM t;"

    def test_plain_sql_unchanged(self):
        sql = (
            "SELECT T1.killed , T1.injured FROM death AS T1 JOIN ship AS t2 "
            "ON T1.caused_by_ship_id = T2.id WHERE T2.tonnage = 't'"
        )
        assert extract_sql(sql) == sql

    def test_quoted_semicolon_not_a_terminator(self):
        sql = "SELECT * FROM t WHERE note = 'stop; go' LIMIT 1;"
        assert extract_sql("answer: " + sql) == sql

    def test_no_keyword_returns_trimmed_input(self):
        assert extract_sql("  I cannot answer that.  ") == "I cannot answer that."

    def test_keyword_requires_word_boundary(self):
        assert extract_sql("their selection was narrow") == "their selection was narrow"

    @given(st.text(max_size=500))
    @settings(max_examples=100)
    def test_never_raises(self, raw):
        out = extract_sql(raw)
        assert isinstance(out, str)


class TestParseVerdict:
    @pytest.mark.parametrize(
        "reply,expected",
        [
            ("True", True),
            ("true.", True),
            ("  TRUE\n", True),
            ("False", False),
            ("false.", False),
            ("The answer is True, not False.", False),  # both tokens: reject
            ("I cannot determine", False),
            ("", False),
        ],
    )
    def test_cases(self, reply, expected):
        assert parse_verdict(reply) is expected


class TestExecutionCritic:
    def test_accepts_valid_query(self, battle_db):
        verdict = execution_critic("SELECT killed FROM death", battle_db)
        assert verdict.accepted and verdict.source == "execution" and verdict.detail == ""

    def test_accepts_empty_result(self, battle_db):
        verdict = execution_critic("SELECT * FROM ship WHERE tonnage = 'zzz'", battle_db)
        assert verdict.accepted

    def test_rejects_unknown_table(self, battle_db):
        verdict = execution_critic("SELECT killed FROM deth", battle_db)
        assert not verdict.accepted
        assert "deth" in verdict.detail

    def test_rejects_unknown_column(self, battle_db):
        # Unquoted `t` parses as a column reference and fails.
        verdict = execution_critic(
            "SELECT killed, injured FROM death WHERE caused_by_ship_id = t", battle_db
        )
        assert not verdict.accepted
        assert "t" in verdict.detail

    def test_rejects_write_statements(self, battle_db):
        # by path, and on a caller's own read-only handle
        bare = sqlite3.connect(f"file:{battle_db}?mode=ro", uri=True)
        try:
            for database in (battle_db, bare):
                for sql in (
                    "INSERT INTO battle VALUES (9, 'x', '9', 'a', 'b', 'c')",
                    "DELETE FROM death",
                    "UPDATE ship SET tonnage = '0'",
                    "DROP TABLE battle",
                    # read-only mode alone lets these change the connection
                    "CREATE TEMP TABLE item AS SELECT 99 AS x",
                    "ATTACH ':memory:' AS m",
                    "PRAGMA query_only=0",
                ):
                    verdict = execution_critic(sql, database)
                    assert not verdict.accepted, (database, sql)
        finally:
            bare.close()

    def test_rejects_on_timeout(self, battle_db):
        verdict = execution_critic(
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c) "
            "SELECT count(*) FROM c",
            battle_db,
            timeout=0.2,
        )
        assert not verdict.accepted
        assert "timeout" in verdict.detail

    def test_never_mutates(self, battle_db):
        before = hashlib.sha256(battle_db.read_bytes()).hexdigest()
        for sql in (
            "SELECT * FROM death",
            "INSERT INTO battle VALUES (9, 'x', '9', 'a', 'b', 'c')",
            "DELETE FROM death",
            "nonsense",
        ):
            execution_critic(sql, battle_db)
        assert hashlib.sha256(battle_db.read_bytes()).hexdigest() == before

    def test_missing_database_is_task_error(self, tmp_path):
        with pytest.raises(DatabaseUnavailable):
            execution_critic("SELECT 1", tmp_path / "missing.sqlite")

    def test_accepts_connection_handle(self, battle_db):
        conn = sqlite3.connect(f"file:{battle_db}?mode=ro", uri=True)
        try:
            assert execution_critic("SELECT 1", conn).accepted
            assert not execution_critic("SELECT nope FROM death", conn).accepted
        finally:
            conn.close()


class _FixedJudge:
    """LLM-judge stand-in returning scripted verdicts."""

    def __init__(self, decisions):
        self.decisions = list(decisions)
        self.calls = []

    def judge(self, schema_ddl, question, candidate_sql):
        self.calls.append(candidate_sql)
        return Verdict(accepted=self.decisions.pop(0), source="llm", detail="scripted")


class TestCompositeCritic:
    def test_execution_reject_short_circuits(self, battle_db, battle_ddl):
        judge = _FixedJudge([True])
        verdicts = CompositeCritic("both", database=battle_db, llm_judge=judge).review(
            "SELECT nope FROM death", schema_ddl=battle_ddl, question="q?"
        )
        assert len(verdicts) == 1
        assert verdicts[0].source == "execution" and not verdicts[0].accepted
        assert judge.calls == []

    def test_conjunction(self, battle_db, battle_ddl):
        judge = _FixedJudge([False])
        verdicts = CompositeCritic("both", database=battle_db, llm_judge=judge).review(
            "SELECT killed FROM death", schema_ddl=battle_ddl, question="q?"
        )
        assert [v.source for v in verdicts] == ["execution", "llm"]
        assert verdicts[0].accepted and not verdicts[1].accepted

    def test_both_accept(self, battle_db, battle_ddl):
        judge = _FixedJudge([True])
        verdicts = CompositeCritic("both", database=battle_db, llm_judge=judge).review(
            "SELECT killed FROM death", schema_ddl=battle_ddl, question="q?"
        )
        assert all(v.accepted for v in verdicts) and len(verdicts) == 2

    def test_single_critic_modes(self, battle_db, battle_ddl):
        only_exec = CompositeCritic("execution_only", database=battle_db).review(
            "SELECT killed FROM death", schema_ddl=battle_ddl, question="q?"
        )
        assert [v.source for v in only_exec] == ["execution"]
        only_llm = CompositeCritic("llm_only", llm_judge=_FixedJudge([True])).review(
            "SELECT anything", schema_ddl=battle_ddl, question="q?"
        )
        assert [v.source for v in only_llm] == ["llm"]

    def test_accept_implies_execution_accept(self, battle_db, battle_ddl):
        critic = CompositeCritic("both", database=battle_db, llm_judge=_FixedJudge([True] * 50))
        for sql in ("SELECT killed FROM death", "SELECT bogus FROM death", "junk"):
            verdicts = critic.review(sql, schema_ddl=battle_ddl, question="q?")
            if all(v.accepted for v in verdicts):
                assert verdicts[0].source == "execution" and verdicts[0].accepted

    def test_missing_components_rejected(self):
        with pytest.raises(ValueError):
            CompositeCritic("both")
        with pytest.raises(ValueError):
            CompositeCritic("none")


class TestDoubles:
    def test_bernoulli_extremes(self):
        always = BernoulliActor(1.0, random.Random(1))
        never = BernoulliActor(0.0, random.Random(1))
        assert all(always.respond([]) == CORRECT_SQL for _ in range(50))
        assert all(never.respond([]) == WRONG_SQL for _ in range(50))

    def test_perfect_stochastic_critic(self):
        critic = StochasticCritic(q=0.0, s=0.0, rng=random.Random(2))
        for _ in range(50):
            assert critic.review(CORRECT_SQL, schema_ddl="d", question="q")[0].accepted
            assert not critic.review(WRONG_SQL, schema_ddl="d", question="q")[0].accepted

    def test_seeded_reproducibility(self):
        a = [BernoulliActor(0.5, random.Random(7)).respond([]) for _ in range(100)]
        b = [BernoulliActor(0.5, random.Random(7)).respond([]) for _ in range(100)]
        # same seed, fresh generator each draw: identical streams
        assert a == b
        actor1, actor2 = BernoulliActor(0.5, random.Random(9)), BernoulliActor(0.5, random.Random(9))
        assert [actor1.respond([]) for _ in range(100)] == [actor2.respond([]) for _ in range(100)]

    def test_empirical_rates(self):
        n = 100_000
        rng = random.Random(123)
        actor = BernoulliActor(0.3774, rng)
        hits = sum(actor.respond([]) == CORRECT_SQL for _ in range(n))
        sigma = (0.3774 * (1 - 0.3774) / n) ** 0.5
        assert abs(hits / n - 0.3774) <= 3 * sigma

        critic = StochasticCritic(q=0.2541, s=0.1973, rng=random.Random(321))
        wrong_accepts = sum(
            critic.review(WRONG_SQL, schema_ddl="d", question="q")[0].accepted
            for _ in range(n)
        )
        correct_rejects = sum(
            not critic.review(CORRECT_SQL, schema_ddl="d", question="q")[0].accepted
            for _ in range(n)
        )
        sigma_q = (0.2541 * (1 - 0.2541) / n) ** 0.5
        sigma_s = (0.1973 * (1 - 0.1973) / n) ** 0.5
        assert abs(wrong_accepts / n - 0.2541) <= 3 * sigma_q
        assert abs(correct_rejects / n - 0.1973) <= 3 * sigma_s

    def test_scripted_actor_records_prompts(self):
        actor = ScriptedActor(["one", "two"])
        assert actor.respond([]) == "one"
        assert actor.respond([]) == "two"
        with pytest.raises(RuntimeError):
            actor.respond([])
        assert len(actor.received) == 3

    def test_scripted_critic_sequence(self):
        critic = ScriptedCritic([False, True])
        first = critic.review("a", schema_ddl="d", question="q")
        second = critic.review("b", schema_ddl="d", question="q")
        assert not first[0].accepted and second[0].accepted
        with pytest.raises(RuntimeError):
            critic.review("c", schema_ddl="d", question="q")
