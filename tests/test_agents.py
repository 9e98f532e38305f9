"""Tests for prompt builders, reply parsing, critics, and test doubles."""

import hashlib
import logging
import random
import sqlite3
from contextlib import closing

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from acsql import agents
from acsql.agents import (
    CORRECT_SQL,
    WRONG_SQL,
    BernoulliActor,
    LLMJudge,
    StochasticCritic,
    Verdict,
    build_actor_prompt,
    build_critic_prompt,
    build_regeneration_prompt,
    execution_critic,
    extract_sql,
    parse_verdict,
)
from acsql.engine import ACConfig, run_ac_loop
from acsql.llm_client import EndpointConfig, complete
from acsql.spider_data import SpiderTask, database_path
from acsql.sqlexec import DatabaseUnavailable, open_readonly, run_query
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
        [message] = build_actor_prompt(CONTINENTS_DDL, "How many continents are there?")
        assert message.content.startswith(CONTINENTS_DDL + "\n\n")
        assert message.content.index(CONTINENTS_DDL) < message.content.index("Create a SQL")
        assert squash(message.content) == squash(CONTINENTS_PROMPT)

    def test_actor_prompt_first_turn(self, battle_ddl):
        [message] = build_actor_prompt(battle_ddl, TONNAGE_QUESTION)
        expected_turn = (
            "Create a SQL query only for the given questions using database schema "
            "above without explanation: " + TONNAGE_QUESTION
        )
        assert message.role == "user"
        assert message.content == f"{battle_ddl}\n\n{expected_turn}"

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

    def test_critic_prompt_layout(self, battle_ddl):
        sql = "SELECT killed, injured FROM death WHERE caused_by_ship"
        [message] = build_critic_prompt(battle_ddl, TONNAGE_QUESTION, sql)
        assert message.role == "user"
        assert message.content == battle_ddl + "\n\n" + (
            "Answer True if the SQL query is correct and False if incorrect "
            f"without explanation. Question: {TONNAGE_QUESTION} SQL: {sql}"
        )

    def test_critic_prompt_embeds_multiline_sql(self, battle_ddl):
        sql = "SELECT killed\nFROM death\nWHERE id = 1"
        [message] = build_critic_prompt(battle_ddl, "q?", sql)
        assert message.content.endswith(f" SQL: {sql}")

    def test_critic_prompt_formats_blank_sql(self, battle_ddl):
        # a blank draft is a candidate like any other, for the critics to judge
        [message] = build_critic_prompt(battle_ddl, "q?", "")
        assert message.content.endswith(" Question: q? SQL: ")

    @given(st.text(), st.text())
    @settings(max_examples=50)
    def test_builders_are_pure(self, schema, question):
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

    @pytest.mark.parametrize(
        "raw,expected",
        [
            # a ; that is not code does not end the statement
            ("SELECT a FROM t -- x; y\nWHERE a > 1; ok", "SELECT a FROM t -- x; y\nWHERE a > 1;"),
            ("SELECT a /* x; y */ FROM t; ok", "SELECT a /* x; y */ FROM t;"),
            ("SELECT [a;b] FROM t; ok", "SELECT [a;b] FROM t;"),
            ("SELECT `a;b` FROM t; ok", "SELECT `a;b` FROM t;"),
            # a quote inside a comment opens no literal
            ("SELECT a FROM t -- don't\nWHERE a > 1; that is it", "SELECT a FROM t -- don't\nWHERE a > 1;"),
            # a keyword inside a leading comment does not start the statement
            ("-- Select all singers\nSELECT * FROM singer;", "SELECT * FROM singer;"),
            ("/* select rows */ SELECT 1;", "SELECT 1;"),
            ("```sql\n-- Select all singers\nSELECT * FROM singer;\n```", "SELECT * FROM singer;"),
            # quotes are read from the keyword on: prose apostrophes open nothing
            ("Here's the query: SELECT a FROM t; Done.", "SELECT a FROM t;"),
            # but comments are read from the start: a -- in quoted prose hides its line
            ("Don't type '--' here: SELECT 1;\nSELECT 2;", "SELECT 2;"),
        ],
    )
    def test_cut_reads_literals_identifiers_and_comments(self, raw, expected):
        assert extract_sql(raw) == expected

    @staticmethod
    def _through_first_code_semicolon(text):
        """Reference scan: text through its first ; outside literals,
        identifiers and comments, or all of it."""
        closer = None
        i = 0
        while i < len(text):
            if closer is not None:
                if text.startswith(closer, i):
                    i += len(closer)
                    closer = None
                    continue
            elif text[i] in "'\"`":
                closer = text[i]
            elif text[i] == "[":
                closer = "]"
            elif text.startswith("--", i):
                closer = "\n"
            elif text.startswith("/*", i):
                closer = "*/"
                i += 1  # the * of /* does not close it
            elif text[i] == ";":
                return text[: i + 1]
            i += 1
        return text

    @given(st.text(alphabet="ab \n;'\"[]-/*`", max_size=60))
    @settings(max_examples=500)
    def test_cut_matches_reference_scan(self, text):
        assume("```" not in text)  # a fence would be unwrapped first
        sql = "SELECT " + text
        assert extract_sql(sql) == self._through_first_code_semicolon(sql).strip()


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


WRITE_STATEMENTS = (
    "INSERT INTO battle VALUES (9, 'x', '9', 'a', 'b', 'c')",
    "DELETE FROM death",
    "UPDATE ship SET tonnage = '0'",
    "DROP TABLE battle",
    # read-only mode alone lets these change the connection
    "CREATE TEMP TABLE item AS SELECT 99 AS x",
    "ATTACH ':memory:' AS m",
    "PRAGMA query_only=0",
)


class TestExecutionCritic:
    def test_accepts_valid_query(self, battle_db):
        verdict = execution_critic("SELECT killed FROM death", battle_db)
        assert verdict.accepted and verdict.source == "execution" and verdict.detail == ""

    def test_accepts_empty_result(self, battle_db):
        verdict = execution_critic("SELECT * FROM ship WHERE tonnage = 'zzz'", battle_db)
        assert verdict.accepted

    @pytest.mark.parametrize("sql", ["", "   \n", "-- SELECT 1", "/* nothing */ ;"])
    def test_rejects_blank_sql(self, battle_db, sql):
        verdict = execution_critic(sql, battle_db)
        assert (verdict.accepted, verdict.detail) == (False, "not a query")

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
        for sql in WRITE_STATEMENTS:
            assert not execution_critic(sql, battle_db).accepted, sql

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

    def test_non_database_file_is_task_error(self, tmp_path, monkeypatch):
        text = tmp_path / "text.sqlite"
        text.write_text("not a database\n")
        opened = []
        connect = sqlite3.connect

        def spy(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(sqlite3, "connect", spy)
        with pytest.raises(DatabaseUnavailable, match="file is not a database"):
            execution_critic("SELECT name FROM sqlite_master", text)
        assert len(opened) == 1
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            opened[0].execute("SELECT 1")  # the failed open left no handle behind

    def test_empty_file_opens_as_empty_database(self, tmp_path):
        empty = tmp_path / "empty.sqlite"
        empty.touch()
        assert execution_critic("SELECT name FROM sqlite_master", empty).accepted



class TestReadonlyHandle:
    def test_refuses_writes_from_the_first_statement(self, battle_db):
        before = hashlib.sha256(battle_db.read_bytes()).hexdigest()
        with closing(open_readonly(battle_db)) as conn:
            rows = run_query(conn, "SELECT * FROM death")
            for sql in WRITE_STATEMENTS:
                with pytest.raises(sqlite3.DatabaseError):
                    conn.execute(sql)
            assert run_query(conn, "SELECT * FROM death") == rows
        assert hashlib.sha256(battle_db.read_bytes()).hexdigest() == before

    @pytest.mark.parametrize("name", ["a#b", "c?e", "f%41g"])
    def test_opens_the_file_it_was_given(self, tmp_path, battle_db, name):
        # In a bare "file:" URI, '#' and '?' would end the path and '%' escape it.
        db_dir = tmp_path / "database"
        path = database_path(db_dir, name)
        path.parent.mkdir(parents=True)
        path.write_bytes(battle_db.read_bytes())
        files = sorted(db_dir.rglob("*"))
        with closing(open_readonly(path)) as conn:
            assert run_query(conn, "SELECT killed FROM death") == ([(12,), (7,), (3,), (12,)], 1)
            with pytest.raises(sqlite3.DatabaseError):
                conn.execute("DELETE FROM death")
        assert sorted(db_dir.rglob("*")) == files


class _FixedJudge:
    """LLM-judge stand-in returning scripted verdicts."""

    def __init__(self, decisions):
        self.decisions = list(decisions)
        self.calls = []

    def judge(self, candidate_sql, schema_ddl, question):
        self.calls.append(candidate_sql)
        return Verdict(accepted=self.decisions.pop(0), source="llm", detail="scripted")


def _execution(database):
    """The execution critic as a component, as the CLI builds it."""
    return lambda candidate_sql, schema_ddl, question: execution_critic(candidate_sql, database)


def _first_verdicts(critic, sql, ddl):
    """The verdicts run_ac_loop records when critic reviews sql as a first draft."""
    actor = ScriptedActor([sql], cycle_last=True)
    task = SpiderTask("t00000", "battle_death", "q?")
    trace = run_ac_loop(actor, critic, task, ACConfig(max_iterations=2), ddl)
    return trace.iterations[0].verdicts


class TestCompositeCritic:
    """A critic's components, run in order by run_ac_loop, stopping at the first reject."""

    def test_execution_reject_short_circuits(self, battle_db, battle_ddl):
        judge = _FixedJudge([True])
        verdicts = _first_verdicts(
            (_execution(battle_db), judge.judge), "SELECT nope FROM death", battle_ddl
        )
        assert len(verdicts) == 1
        assert verdicts[0].source == "execution" and not verdicts[0].accepted
        assert judge.calls == []

    def test_conjunction(self, battle_db, battle_ddl):
        judge = _FixedJudge([False])
        verdicts = _first_verdicts(
            (_execution(battle_db), judge.judge), "SELECT killed FROM death", battle_ddl
        )
        assert [v.source for v in verdicts] == ["execution", "llm"]
        assert verdicts[0].accepted and not verdicts[1].accepted

    def test_both_accept(self, battle_db, battle_ddl):
        judge = _FixedJudge([True])
        verdicts = _first_verdicts(
            (_execution(battle_db), judge.judge), "SELECT killed FROM death", battle_ddl
        )
        assert all(v.accepted for v in verdicts) and len(verdicts) == 2

    def test_single_critic_modes(self, battle_db, battle_ddl):
        only_exec = _first_verdicts((_execution(battle_db),), "SELECT killed FROM death", battle_ddl)
        assert [v.source for v in only_exec] == ["execution"]
        only_llm = _first_verdicts((_FixedJudge([True]).judge,), "SELECT anything", battle_ddl)
        assert [v.source for v in only_llm] == ["llm"]

    def test_accept_implies_execution_accept(self, battle_db, battle_ddl):
        judge = _FixedJudge([True] * 50)
        critic = (_execution(battle_db), judge.judge)
        for sql in ("SELECT killed FROM death", "SELECT bogus FROM death", "junk"):
            verdicts = _first_verdicts(critic, sql, battle_ddl)
            if all(v.accepted for v in verdicts):
                assert verdicts[0].source == "execution" and verdicts[0].accepted


class TestLLMJudge:
    def test_unreachable_endpoint_rejects_with_a_warning(self, monkeypatch, caplog):
        # No proxy may carry the request elsewhere; nothing listens on this port.
        for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        judge = LLMJudge(
            EndpointConfig(base_url="http://127.0.0.2:9/v1", model="m", max_retries=0, timeout=5.0),
            complete,
        )
        with caplog.at_level(logging.WARNING, logger="acsql.agents"):
            verdict = judge.judge("SELECT 1", "CREATE TABLE t(x)", "q?")
        assert (verdict.accepted, verdict.source) == (False, "llm")
        assert verdict.detail.startswith("transport failure:")
        assert [r.levelno for r in caplog.records] == [logging.WARNING]


class TestDoubles:
    def test_rejects_bool_probabilities(self):
        with pytest.raises(ValueError):
            BernoulliActor(True, random.Random(1))
        with pytest.raises(ValueError):
            StochasticCritic(q=0.0, s=False, rng=random.Random(1))

    def test_bernoulli_extremes(self):
        always = BernoulliActor(1.0, random.Random(1))
        never = BernoulliActor(0.0, random.Random(1))
        assert all(always.respond([]) == CORRECT_SQL for _ in range(50))
        assert all(never.respond([]) == WRONG_SQL for _ in range(50))

    def test_perfect_stochastic_critic(self):
        critic = StochasticCritic(q=0.0, s=0.0, rng=random.Random(2))
        for _ in range(50):
            assert critic.judge(CORRECT_SQL, "d", "q").accepted
            assert not critic.judge(WRONG_SQL, "d", "q").accepted

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
        wrong_accepts = sum(critic.judge(WRONG_SQL, "d", "q").accepted for _ in range(n))
        correct_rejects = sum(not critic.judge(CORRECT_SQL, "d", "q").accepted for _ in range(n))
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
        first = critic.judge("a", "d", "q")
        second = critic.judge("b", "d", "q")
        assert not first.accepted and second.accepted
        with pytest.raises(RuntimeError):
            critic.judge("c", "d", "q")
