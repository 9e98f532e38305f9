"""Tests for execution-accuracy scoring, reports, estimation, and batch runs."""

import errno
import itertools
import os
import random
import shutil
import sqlite3
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from contextlib import closing
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acsql.agents import (
    CORRECT_SQL,
    BernoulliActor,
    StochasticCritic,
    Verdict,
    build_actor_prompt,
    execution_critic,
)
from acsql.engine import (
    ACConfig,
    ACTrace,
    IterationRecord,
    TraceFormatError,
    TraceWarning,
    read_traces,
    run_ac_loop,
)
from acsql import evalkit
from acsql.evalkit import (
    EvalReport,
    GoldExecutionError,
    PQSCounts,
    estimate_pqs,
    evaluate_run,
    execution_accuracy,
    format_reports,
    ablation_log,
    has_top_level_order_by,
    pending_tasks,
    result_sets_match,
    run_tasks,
    with_baseline,
)
from acsql.spider_data import SpiderTask, database_path
from acsql.sqlexec import QueryFailure, open_readonly, run_query
from conftest import _parsed_schemas
from doubles import ScriptedActor

# (predicted, gold, expected) fixtures; expectations hand-computed against
# the seeded rows in conftest.BATTLE_ROWS by executing both queries by hand.
SCORED_PAIRS = [
    # identity
    ("SELECT killed, injured FROM death", "SELECT killed, injured FROM death", True),
    # qualified column name, same results
    ("SELECT ship.name FROM ship", "SELECT name FROM ship", True),
    # duplicates matter under multiset comparison: death has (12,5) twice
    ("SELECT DISTINCT killed FROM death", "SELECT killed FROM death", False),
    # gold orders at top level: order must match
    (
        "SELECT killed FROM death ORDER BY killed DESC",
        "SELECT killed FROM death ORDER BY killed",
        False,
    ),
    # gold unordered: any row order is fine
    ("SELECT killed FROM death ORDER BY killed DESC", "SELECT killed FROM death", True),
    # predicted fails to parse
    ("SELEC killed FROM death", "SELECT killed FROM death", False),
    # predicted references a missing column
    ("SELECT kiled FROM death", "SELECT killed FROM death", False),
    # column count mismatch
    ("SELECT killed FROM death", "SELECT killed, injured FROM death", False),
    # explicit vs implicit join, equal multisets
    (
        "SELECT killed, injured FROM death, ship "
        "WHERE death.caused_by_ship_id = ship.id AND ship.tonnage = 't'",
        "SELECT T1.killed , T1.injured FROM death AS T1 JOIN ship AS T2 "
        "ON T1.caused_by_ship_id = T2.id WHERE T2.tonnage = 't'",
        True,
    ),
    # float equality within 1e-6 relative tolerance
    ("SELECT 0.1 + 0.2", "SELECT 0.3", True),
    ("SELECT 0.3001", "SELECT 0.3", False),
    # int vs float representations of the same value
    ("SELECT 3.0", "SELECT 3", True),
    # empty results on both sides still compare (and match)
    (
        "SELECT name FROM ship WHERE tonnage = 'yyy'",
        "SELECT name FROM ship WHERE tonnage = 'zzz'",
        True,
    ),
    # text is compared exactly, case included
    (
        "SELECT LOWER(disposition_of_ship) FROM ship WHERE id = 1",
        "SELECT disposition_of_ship FROM ship WHERE id = 1",
        False,
    ),
    # NULL matches only NULL
    ("SELECT NULL", "SELECT NULL", True),
    ("SELECT 0", "SELECT NULL", False),
    # aggregate computed two ways
    ("SELECT SUM(killed) * 1.0 / COUNT(*) FROM death", "SELECT AVG(killed) FROM death", True),
    # BLOB cells sort among themselves and beside text when order is free
    ("SELECT x'00' UNION ALL SELECT x'01'", "SELECT x'01' UNION ALL SELECT x'00'", True),
    ("SELECT 'a' UNION ALL SELECT x'00'", "SELECT x'00' UNION ALL SELECT 'a'", True),
    ("SELECT x'00' UNION ALL SELECT 'a'", "SELECT 'a' UNION ALL SELECT x'00'", True),
    # a BLOB never equals text, even with the same bytes
    ("SELECT 'a'", "SELECT x'61'", False),
    # REAL overflow gives ±inf, which equals only the same infinity
    ("SELECT 1e999", "SELECT COUNT(*) FROM ship", False),
    ("SELECT -1e999", "SELECT 1e999", False),
    ("SELECT 9e308 * 10", "SELECT 1e999", True),
    # rows pair across numbers equal within the tolerance, whatever their exact order
    (
        "SELECT 1.0, 'a' UNION ALL SELECT 1.0000001, 'b'",
        "SELECT 1.0, 'b' UNION ALL SELECT 1.0000001, 'a'",
        True,
    ),
    ("SELECT 1, 'x' UNION ALL SELECT 'x', 1", "SELECT 'x', 1 UNION ALL SELECT 1, 'x'", True),
    # keyword case, whitespace and aliases, with or without AS, compile alike
    ("select killed , injured from death", "SELECT killed, injured FROM death", True),
    ("SELECT T1.name FROM ship T1", "SELECT name FROM ship", True),
    ("SELECT T1.name FROM ship AS T1", "SELECT T1.name FROM ship T1", True),
    # EXPLAIN prints each pair's literals alike, yet the results differ
    ("SELECT 1 / (0.10000000000000002 - 0.1)", "SELECT 1 / (0.1 - 0.1)", False),
    ("SELECT x'00AA'", "SELECT x'00BB'", False),
]


class TestExecutionAccuracy:
    @pytest.mark.parametrize("predicted,gold,expected", SCORED_PAIRS)
    def test_scored_pairs(self, battle_db, predicted, gold, expected):
        assert execution_accuracy(predicted, gold, battle_db) is expected

    def test_reflexive_for_executable_sql(self, battle_db):
        for sql in ("SELECT killed FROM death", "SELECT name FROM ship ORDER BY id"):
            assert execution_accuracy(sql, sql, battle_db)

    def test_symmetric_under_multiset_rule(self, battle_db):
        a = "SELECT killed FROM death"
        b = "SELECT killed FROM death ORDER BY killed DESC"
        # neither direction has a top-level ORDER BY on the *gold* side only;
        # when gold is the unordered one, both orders agree
        assert execution_accuracy(b, a, battle_db) == execution_accuracy(
            "SELECT killed FROM death", a, battle_db
        )

    def test_gold_failure_raises(self, battle_db):
        with pytest.raises(GoldExecutionError):
            execution_accuracy("SELECT 1", "SELECT nope FROM death", battle_db)

    def test_predicted_timeout_scores_false(self, battle_db):
        slow = (
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c) "
            "SELECT count(*) FROM c"
        )
        assert execution_accuracy(slow, "SELECT 1", battle_db, timeout=0.2) is False

    def test_probe_and_run_share_one_deadline(self, battle_db):
        # SQLite materializes a CTE named twice when the probe prepares it,
        # so the probe alone runs until the timeout
        runaway = (
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c) "
            "SELECT a.x FROM c a JOIN c b ON a.x = b.x"
        )
        started = time.monotonic()
        assert execution_accuracy(runaway, "SELECT 2", battle_db, timeout=0.3) is False
        assert time.monotonic() - started < 0.45


def _counting(last: int, column: str = "x") -> str:
    return (
        f"WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c WHERE x < {last}) "
        f"SELECT {column} FROM c"
    )


class TestRowLimit:
    """Callers keep only the rows they compare, yet every statement runs to its end."""

    LONG = _counting(200_000)
    # 999 rows, then "integer overflow" once x reaches 1000
    FAILS_LATE = _counting(2000, "abs(-9223372036854775807 - (x >= 1000))")

    def test_long_result_is_not_kept(self, battle_db):
        tracemalloc.start()
        try:
            accepted = execution_critic(self.LONG, battle_db).accepted
            scored = execution_accuracy(self.LONG, "SELECT killed FROM death", battle_db)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (accepted, scored) == (True, False)
        assert peak < 5 * 2**20

    def test_error_past_the_kept_rows_still_fails(self, battle_db):
        with closing(open_readonly(battle_db)) as conn:
            for max_rows in (0, 5, None):
                with pytest.raises(QueryFailure, match="integer overflow"):
                    run_query(conn, self.FAILS_LATE, max_rows=max_rows)
        verdict = execution_critic(self.FAILS_LATE, battle_db)
        assert (verdict.accepted, verdict.detail) == (False, "integer overflow")
        assert execution_accuracy(self.FAILS_LATE, "SELECT killed FROM death", battle_db) is False


class TestOrderByDetection:
    @pytest.mark.parametrize(
        "sql,expected",
        [
            ("SELECT a FROM t ORDER BY a", True),
            ("SELECT a FROM t order   by a DESC", True),
            ("SELECT a FROM t", False),
            ("SELECT * FROM (SELECT a FROM t ORDER BY a)", False),
            ("SELECT a FROM t WHERE note = 'order by'", False),
            ("SELECT a, (SELECT max(b) FROM u ORDER BY b) FROM t", False),
            ("SELECT a FROM t -- ORDER BY a", False),
            ("SELECT a FROM t -- don't\nORDER BY a", True),
            ("SELECT a FROM t /* ORDER BY a */", False),
            ("SELECT a FROM t /* it's */ ORDER BY a", True),
            ("SELECT a FROM t /* ORDER BY a", False),
            ("SELECT a FROM t WHERE b = '--' ORDER BY a", True),
            ("SELECT a FROM (SELECT a FROM t ORDER BY a", False),
            ("SELECT a) FROM t ORDER BY a", True),
            ("SELECT a FROM t WHERE b = 'x ORDER BY a", False),
            ("SELECT a FROM t WHERE b = 'it''s' ORDER BY a", True),
            ("SELECT a FROM t WHERE b = '(' ORDER BY a", True),
            ("SELECT a FROM t ORDER\nBY a", True),
            ("SELECT 1 AS [order by]", False),
            ("SELECT 1 AS `order by`", False),
            ("SELECT [a(] FROM t ORDER BY 1", True),
            ("SELECT `a``b` FROM t ORDER BY 1", True),
            ("SELECT a FROM t WHERE b = '[' ORDER BY a", True),
            ('SELECT a FROM t WHERE b = "[" ORDER BY a', True),
        ],
    )
    def test_cases(self, sql, expected):
        assert has_top_level_order_by(sql) is expected


class TestEvalReport:
    def test_improvement_arithmetic(self):
        report = EvalReport(dataset_name="dev", mode="both", n_tasks=1034, ex=0.704, baseline_ex=0.588)
        assert report.abs_improvement == pytest.approx(0.116, abs=1e-12)
        assert report.rel_error_reduction == pytest.approx(0.116 / 0.412, abs=1e-12)
        assert report.error_rate == pytest.approx(0.296, abs=1e-12)

    def test_no_improvement(self):
        report = EvalReport(dataset_name="", mode="none", n_tasks=10, ex=0.5, baseline_ex=0.5)
        assert report.abs_improvement == 0.0
        assert report.rel_error_reduction == 0.0

    def test_full_sweep_from_zero(self):
        report = EvalReport(dataset_name="", mode="both", n_tasks=10, ex=1.0, baseline_ex=0.0)
        assert report.abs_improvement == 1.0
        assert report.rel_error_reduction == 1.0

    def test_rel_undefined_at_perfect_baseline(self):
        report = EvalReport(dataset_name="", mode="both", n_tasks=10, ex=1.0, baseline_ex=1.0)
        assert report.rel_error_reduction is None

    def test_text_table(self):
        reports = [
            EvalReport(dataset_name="micro", mode="none", n_tasks=5, ex=0.2),
            EvalReport(dataset_name="micro", mode="both", n_tasks=5, ex=1.0, baseline_ex=0.2),
        ]
        table = format_reports(reports)
        lines = table.splitlines()
        assert len(lines) == 3
        assert "EX(%)" in lines[0]
        assert "20.0" in lines[1]
        assert "100.0" in lines[2] and "80.0" in lines[2]


def _trace(task_id, sqls, verdict_specs, gold, z, db_id="battle_death"):
    """Build a trace; verdict_specs[i] is None (unchecked) or bool (accept)."""
    iterations = tuple(
        IterationRecord(
            generated_sql=sql,
            verdicts=(
                (Verdict(accepted=spec, source="scripted"),) if spec is not None else ()
            ),
            actor_raw_output=sql,
        )
        for sql, spec in zip(sqls, verdict_specs)
    )
    return ACTrace(
        task=SpiderTask(task_id=task_id, db_id=db_id, question="q?", gold_sql=gold),
        config=ACConfig(max_iterations=z, critic_mode="both"),
        iterations=iterations,
    )


class TestEvaluateRun:
    def test_counts_and_order_independence(self, spider_layout):
        gold = "SELECT count(*) FROM battle"
        traces = [
            _trace("t1", ["SELECT 2"], [True], gold, 3),  # literal matches count
            _trace("t2", ["SELECT 99"], [True], gold, 3),  # wrong value
            _trace("t3", ["SELECT x FROM"], [None], gold, 1),  # broken SQL
        ]
        report = evaluate_run(traces, spider_layout["db_dir"], dataset_name="micro")
        assert report.n_tasks == 3
        assert report.ex == pytest.approx(1 / 3)
        shuffled = evaluate_run(traces[::-1], spider_layout["db_dir"], dataset_name="micro")
        assert shuffled.ex == report.ex

    def test_missing_gold_excluded(self, spider_layout):
        traces = [
            _trace("t1", ["SELECT 1"], [True], "SELECT 1", 2),
            _trace("t2", ["SELECT 1"], [True], None, 2),
        ]
        report = evaluate_run(traces, spider_layout["db_dir"])
        assert report.n_tasks == 1 and report.n_excluded == 1

    def test_failing_gold_excluded(self, spider_layout):
        traces = [
            _trace("t1", ["SELECT 1"], [True], "SELECT bogus FROM death", 2),
            _trace("t2", ["SELECT 1"], [True], "SELECT 1", 2),
        ]
        report = evaluate_run(traces, spider_layout["db_dir"])
        assert report.n_tasks == 1 and report.n_excluded == 1
        assert report.ex == 1.0


class TestEstimatePqs:
    def test_hand_counted_fixture(self, spider_layout):
        correct = "SELECT count(*) FROM battle"  # evaluates to 2
        wrong = "SELECT 99"
        gold = "SELECT 2"
        z3 = 3
        traces = [
            # first-pass correct: 5 of 10
            _trace("t01", [correct], [True], gold, z3),
            _trace("t02", [correct], [True], gold, z3),
            _trace("t03", [correct, correct], [False, True], gold, z3),
            _trace("t04", [correct, wrong], [False, True], gold, z3),
            _trace("t05", [correct, wrong, wrong], [False, False, None], gold, z3),
            _trace("t06", [wrong], [True], gold, z3),
            _trace("t07", [wrong, wrong, correct], [False, False, None], gold, z3),
            _trace("t08", [wrong, wrong, wrong], [False, False, None], gold, z3),
            _trace("t09", [wrong, wrong], [False, None], gold, 2),
            _trace("t10", [wrong], [None], gold, 1),
        ]
        estimate = estimate_pqs(traces, spider_layout["db_dir"])
        assert estimate.counts.first_pass_total == 10
        assert estimate.counts.first_pass_correct == 5
        assert estimate.counts.wrong_checked == 8
        assert estimate.counts.wrong_accepted == 2
        assert estimate.counts.correct_checked == 6
        assert estimate.counts.correct_rejected == 3
        assert (estimate.p_hat, estimate.q_hat, estimate.s_hat) == (0.5, 0.25, 0.5)

    def test_undefined_rates_are_none(self, spider_layout):
        gold = "SELECT 1"
        traces = [_trace("t1", ["SELECT 1"], [True], gold, 3)]
        estimate = estimate_pqs(traces, spider_layout["db_dir"])
        assert estimate.p_hat == 1.0
        assert estimate.s_hat == 0.0
        assert estimate.q_hat is None  # no wrong generation was ever checked
        # an empty log scores no database and has no rate at all
        empty = estimate_pqs([], spider_layout["db_dir"])
        assert (empty.p_hat, empty.q_hat, empty.s_hat, empty.n_excluded) == (None, None, None, 0)
        assert evaluate_run([], spider_layout["db_dir"]).ex is None

    def test_recovers_rates_from_stochastic_doubles(self, spider_layout):
        p, q, s, z = 0.4, 0.25, 0.3, 3
        n = 10_000
        rng = random.Random(77)
        actor = BernoulliActor(p, rng)
        critic = StochasticCritic(q, s, rng)
        config = ACConfig(max_iterations=z)
        ddl = "CREATE TABLE t ( a INT );"
        traces = []
        for i in range(n):
            task = SpiderTask(
                task_id=f"t{i:05d}",
                db_id="battle_death",
                question="q?",
                gold_sql=CORRECT_SQL,
            )
            traces.append(run_ac_loop(actor, (critic.judge,), task, config, ddl))
        estimate = estimate_pqs(traces, spider_layout["db_dir"])

        def sigma(rate, count):
            return (rate * (1 - rate) / count) ** 0.5

        counts = estimate.counts
        assert abs(estimate.p_hat - p) <= 3 * sigma(p, counts.first_pass_total)
        assert abs(estimate.q_hat - q) <= 3 * sigma(q, counts.wrong_checked)
        assert abs(estimate.s_hat - s) <= 3 * sigma(s, counts.correct_checked)


def _add_database(db_dir, db_id):
    """Copy the fixture database into db_dir under another db_id."""
    source = database_path(db_dir, "battle_death")
    (db_dir / db_id).mkdir()
    shutil.copyfile(source, database_path(db_dir, db_id))


def _reference_scores(traces, db_dir):
    """EX, exclusions and (p, q, s) counts from one execution_accuracy call per pair."""
    counts = dict.fromkeys(PQSCounts().__dict__, 0)
    correct = scored = excluded = 0
    for trace in traces:
        task = trace.task
        try:
            if task.gold_sql is None:
                raise GoldExecutionError("no gold")
            database = database_path(db_dir, task.db_id)
            final = execution_accuracy(trace.final_sql, task.gold_sql, database)
            per_iteration = [
                execution_accuracy(r.generated_sql, task.gold_sql, database)
                for r in trace.iterations
            ]
        except GoldExecutionError:
            excluded += 1
            continue
        scored += 1
        correct += final
        counts["first_pass_total"] += 1
        counts["first_pass_correct"] += per_iteration[0]
        for record, ok in zip(trace.iterations, per_iteration):
            if not record.verdicts:
                continue
            if ok:
                counts["correct_checked"] += 1
                counts["correct_rejected"] += not record.overall_accepted
            else:
                counts["wrong_checked"] += 1
                counts["wrong_accepted"] += record.overall_accepted
    return correct / scored, excluded, counts


class TestScoringPass:
    GOLD = "SELECT killed FROM death"
    SAME_ROWS = "SELECT killed FROM death ORDER BY killed DESC"

    @pytest.fixture()
    def opened(self, monkeypatch):
        """Every connection the scoring code opens, in order."""
        connections = []
        lock = threading.Lock()  # databases open on worker threads
        real_open = evalkit.open_readonly

        def open_readonly(path):
            conn = real_open(path)
            with lock:
                connections.append((path.parent.name, conn))
            return conn

        monkeypatch.setattr(evalkit, "open_readonly", open_readonly)
        return connections

    @pytest.fixture()
    def sql_runs(self, monkeypatch):
        """How often the scoring code ran each SQL text, through either primitive."""
        runs = Counter()
        lock = threading.Lock()  # Counter's += is not atomic across worker threads
        real_run_query = evalkit.run_query
        real_statement = evalkit.statement

        def run_query(conn, sql, timeout, max_rows=None):
            with lock:
                runs[sql] += 1
            return real_run_query(conn, sql, timeout=timeout, max_rows=max_rows)

        def statement(conn, sql, timeout):
            with lock:
                runs[sql] += 1
            return real_statement(conn, sql, timeout)

        monkeypatch.setattr(evalkit, "run_query", run_query)
        monkeypatch.setattr(evalkit, "statement", statement)
        return runs

    @staticmethod
    def _assert_all_closed(opened):
        for _, conn in opened:
            with pytest.raises(sqlite3.ProgrammingError):
                conn.execute("SELECT 1")

    def _interleaved(self):
        """Traces alternating between two databases, golds repeated."""
        other_gold = "SELECT count(*) FROM battle"
        return [
            _trace("t1", ["SELECT 1", self.SAME_ROWS], [False, True], self.GOLD, 3),
            _trace("t2", ["SELECT 2"], [True], other_gold, 3, db_id="copy"),
            _trace("t3", [self.SAME_ROWS], [True], self.GOLD, 3),
            _trace("t4", ["SELECT 3", "SELECT 2"], [False, True], other_gold, 3, db_id="copy"),
            _trace("t5", [self.SAME_ROWS], [True], self.GOLD, 3, db_id="copy"),
        ]

    def test_gold_runs_and_database_opens_once_per_pass(self, spider_layout, opened, sql_runs):
        db_dir = spider_layout["db_dir"]
        _add_database(db_dir, "copy")
        traces = self._interleaved()
        golds = {t.task.gold_sql for t in traces}
        for score in (
            lambda: evaluate_run(traces, db_dir),
            lambda: estimate_pqs(traces, db_dir),
        ):
            sql_runs.clear()
            opened.clear()
            score()
            # GOLD is scored on both databases, the count gold on "copy" only
            assert {sql: sql_runs[sql] for sql in golds} == {
                self.GOLD: 2,
                "SELECT count(*) FROM battle": 1,
            }
            assert sorted(db_id for db_id, _ in opened) == ["battle_death", "copy"]
            self._assert_all_closed(opened)

    def test_gold_text_candidate_runs_no_statement(self, spider_layout, sql_runs):
        other_gold = "SELECT count(*) FROM battle"  # = 2
        traces = [
            _trace("t1", [self.GOLD], [True], self.GOLD, 2),
            _trace("t2", ["SELECT 2", self.GOLD], [False, True], other_gold, 3),
            _trace("t3", [other_gold], [True], "SELECT 2", 2),
        ]
        db_dir = spider_layout["db_dir"]
        sql_runs.clear()
        report = evaluate_run(traces, db_dir)
        assert (report.n_tasks, report.ex) == (3, pytest.approx(2 / 3))
        assert (sql_runs[self.GOLD], sql_runs[other_gold]) == (2, 2)
        sql_runs.clear()
        counts = estimate_pqs(traces, db_dir).counts
        assert (counts.first_pass_correct, counts.correct_checked, counts.wrong_checked) == (3, 3, 1)
        # each gold's text ran once as its gold and once as another task's
        # candidate; as its own task's candidate it added no run
        assert (sql_runs[self.GOLD], sql_runs[other_gold]) == (2, 2)

    def test_formatting_only_candidate_is_not_run(self, spider_layout, sql_runs):
        formatted, aliased = "select killed  from death", "SELECT d.killed FROM death AS d"
        traces = [
            _trace("t1", ["SELECT 1", formatted], [False, True], self.GOLD, 3),
            _trace("t2", [aliased], [True], self.GOLD, 3),
        ]
        db_dir = spider_layout["db_dir"]
        sql_runs.clear()
        report = evaluate_run(traces, db_dir)
        assert (report.n_tasks, report.ex) == (2, 1.0)
        counts = estimate_pqs(traces, db_dir).counts
        assert (counts.first_pass_correct, counts.correct_checked, counts.wrong_checked) == (1, 2, 1)
        # their listings equal the gold's, so neither text is stepped
        assert (sql_runs[formatted], sql_runs[aliased]) == (0, 0)
        assert sql_runs[f"EXPLAIN {formatted}"] == 2  # final in both passes
        assert sql_runs["SELECT 1"] == 1  # another listing: it runs

    def test_gold_listing_is_read_once_per_pass(self, spider_layout, sql_runs):
        variants = [
            "select killed from death",
            "SELECT killed FROM death;",
            "SELECT d.killed FROM death d",
            "SELECT killed FROM death WHERE 0",
            "SELECT injured FROM death",
        ]
        traces = [
            _trace("t1", variants[:3], [False, False, True], self.GOLD, 3),
            _trace("t2", variants[3:], [False, True], self.GOLD, 3),
            _trace("t3", variants[::-1], [False, False, False, False, True], self.GOLD, 5),
        ]
        db_dir = spider_layout["db_dir"]
        for score in (evaluate_run, estimate_pqs):
            sql_runs.clear()
            score(traces, db_dir)
            assert sql_runs[f"EXPLAIN {self.GOLD}"] == 1

    def test_gold_listing_is_not_read_unless_needed(self, spider_layout, sql_runs):
        wider = "SELECT killed, injured FROM death"
        traces = [
            _trace("t1", [wider, self.GOLD], [False, True], self.GOLD, 3),
            _trace("t2", ["SELECT 1, 2", self.GOLD], [False, True], self.GOLD, 3),
        ]
        db_dir = spider_layout["db_dir"]
        sql_runs.clear()
        assert evaluate_run(traces, db_dir).ex == 1.0
        assert estimate_pqs(traces, db_dir).counts.wrong_checked == 2
        assert not [sql for sql in sql_runs if sql.startswith("EXPLAIN")]

    def test_listing_must_match_to_its_end(self, battle_db):
        with closing(open_readonly(battle_db)) as conn:
            program = evalkit._trusted_program(conn, self.GOLD, 5)
            assert evalkit._compiles_to(conn, self.GOLD.lower(), program, 5)
            for other in (program[:-1], program + program[-1:]):
                assert not evalkit._compiles_to(conn, self.GOLD.lower(), other, 5)

    def test_lossy_listing_candidate_is_run(self, spider_layout, sql_runs):
        pairs = [
            ("SELECT 1 / (0.10000000000000002 - 0.1)", "SELECT 1 / (0.1 - 0.1)"),
            ("SELECT x'00AA'", "SELECT x'00BB'"),
        ]
        traces = [
            _trace(f"t{i}", [candidate], [True], gold, 1) for i, (candidate, gold) in enumerate(pairs)
        ]
        sql_runs.clear()
        report = evaluate_run(traces, spider_layout["db_dir"])
        assert (report.n_tasks, report.ex) == (2, 0.0)
        assert [sql_runs[candidate] for candidate, _ in pairs] == [1, 1]

    def test_connection_closed_when_scoring_raises(self, spider_layout, monkeypatch, opened):
        db_dir = spider_layout["db_dir"]
        _add_database(db_dir, "copy")
        _add_database(db_dir, "third")
        traces = self._interleaved()
        traces.append(_trace("t6", [self.SAME_ROWS], [True], self.GOLD, 3, db_id="third"))
        spy = evalkit.open_readonly

        def open_readonly(path):
            if path.parent.name == "copy":
                # the one worker is busy here while the first database's failure
                # reaches the caller, which then cancels the third
                time.sleep(0.2)
            return spy(path)

        error = None

        def explode(*args):
            raise error

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(evalkit, "open_readonly", open_readonly)
        monkeypatch.setattr(evalkit, "result_sets_match", explode)
        for error, score in itertools.product(
            (RuntimeError("comparison failed"), KeyboardInterrupt()), (evaluate_run, estimate_pqs)
        ):
            opened.clear()
            with pytest.raises(type(error)) as raised:
                score(traces, db_dir)
            assert raised.value is error
            assert opened
            self._assert_all_closed(opened)
            # the failure cancels the databases not yet started
            assert "third" not in [db_id for db_id, _ in opened]

    def test_databases_are_scored_concurrently(self, spider_layout, monkeypatch):
        db_dir = spider_layout["db_dir"]
        _add_database(db_dir, "copy")
        traces = [
            _trace("t1", [self.SAME_ROWS], [True], self.GOLD, 2),
            _trace("t2", ["SELECT 1", self.SAME_ROWS], [False, True], self.GOLD, 3, db_id="copy"),
        ]
        # each database's one gold run waits for the other's: a serial pass breaks the barrier
        barrier = threading.Barrier(2, timeout=5)
        real_run_gold = evalkit._run_gold

        def run_gold(conn, gold_sql, timeout):
            barrier.wait()
            return real_run_gold(conn, gold_sql, timeout)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(evalkit, "_run_gold", run_gold)
        report = evaluate_run(traces, db_dir)
        assert (report.n_tasks, report.ex) == (2, 1.0)
        counts = estimate_pqs(traces, db_dir).counts
        assert (counts.first_pass_correct, counts.first_pass_total) == (1, 2)
        assert (counts.correct_checked, counts.wrong_checked) == (2, 1)

    def test_statement_cannot_change_what_later_ones_see(self, spider_layout):
        shadow = "CREATE TEMP TABLE death AS SELECT 1 AS killed"
        traces = [
            _trace("t1", [shadow, self.SAME_ROWS], [False, True], self.GOLD, 3),
            _trace("t2", [shadow], [None], self.GOLD, 1),
            _trace("t3", [self.SAME_ROWS], [True], self.GOLD, 3),
        ]
        report = evaluate_run(traces, spider_layout["db_dir"])
        assert (report.n_tasks, report.ex) == (3, pytest.approx(2 / 3))
        estimate = estimate_pqs(traces, spider_layout["db_dir"])
        assert estimate.counts.first_pass_correct == 1
        assert estimate.counts.correct_checked == 2 and estimate.counts.correct_rejected == 0

    def test_connection_usable_after_timeout(self, spider_layout):
        slow = (
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c) "
            "SELECT count(*) FROM c"
        )
        traces = [
            _trace("t1", [slow, self.SAME_ROWS], [True, True], self.GOLD, 3),
            _trace("t2", [slow], [None], self.GOLD, 1),
            _trace("t3", [self.SAME_ROWS], [True], self.GOLD, 3),
        ]
        report = evaluate_run(traces, spider_layout["db_dir"], timeout=0.2)
        assert report.ex == pytest.approx(2 / 3)
        estimate = estimate_pqs(traces, spider_layout["db_dir"], timeout=0.2)
        assert estimate.counts.first_pass_correct == 1
        assert estimate.counts.wrong_accepted == 1 and estimate.counts.correct_checked == 2

    def test_failing_gold_excluded_for_every_trace(self, spider_layout, sql_runs):
        bad_gold = "SELECT nope FROM death"
        traces = [
            _trace("t1", ["SELECT 1"], [True], bad_gold, 2),
            _trace("t2", [self.SAME_ROWS], [True], self.GOLD, 2),
            _trace("t3", ["SELECT 2", "SELECT 3"], [False, True], bad_gold, 2),
            _trace("t4", [bad_gold], [True], bad_gold, 2),
        ]
        report = evaluate_run(traces, spider_layout["db_dir"])
        assert (report.n_tasks, report.n_excluded, report.ex) == (1, 3, 1.0)
        assert sql_runs[bad_gold] == 1
        estimate = estimate_pqs(traces, spider_layout["db_dir"])
        assert estimate.n_excluded == 3 and estimate.counts.first_pass_total == 1

    def test_missing_database_excluded(self, spider_layout, opened):
        db_dir = spider_layout["db_dir"]
        traces = [
            _trace("t1", [self.SAME_ROWS], [True], self.GOLD, 2, db_id="gone"),
            _trace("t2", ["SELECT 1", self.SAME_ROWS], [False, True], self.GOLD, 3),
            _trace("t3", [self.SAME_ROWS], [True], self.GOLD, 2, db_id="gone"),
        ]
        report = evaluate_run(traces, db_dir)
        assert (report.n_tasks, report.n_excluded, report.ex) == (1, 2, 1.0)
        estimate = estimate_pqs(traces, db_dir)
        assert estimate.n_excluded == 2 and estimate.counts.first_pass_total == 1
        assert estimate.counts.correct_checked == 1 and estimate.counts.wrong_checked == 1
        assert [db_id for db_id, _ in opened] == ["battle_death", "battle_death"]
        self._assert_all_closed(opened)

    def test_non_database_file_excluded_without_running_its_gold(
        self, spider_layout, opened, sql_runs
    ):
        db_dir = spider_layout["db_dir"]
        (db_dir / "text").mkdir()
        (db_dir / "text" / "text.sqlite").write_text("not a database\n")
        text_gold = "SELECT name FROM sqlite_master"
        traces = [
            _trace("t1", [text_gold], [True], text_gold, 2, db_id="text"),
            _trace("t2", [self.SAME_ROWS], [True], self.GOLD, 2),
        ]
        report = evaluate_run(traces, db_dir)
        assert (report.n_tasks, report.n_excluded, report.ex) == (1, 1, 1.0)
        estimate = estimate_pqs(traces, db_dir)
        assert estimate.n_excluded == 1 and estimate.counts.first_pass_total == 1
        # the file never opens, so its task is a missing database, not a failing gold
        assert text_gold not in sql_runs
        assert [db_id for db_id, _ in opened] == ["battle_death", "battle_death"]

    def test_equals_per_pair_scoring_in_every_order(self, spider_layout, monkeypatch):
        db_dir = spider_layout["db_dir"]
        _add_database(db_dir, "copy")
        correct, wrong, gold = "SELECT count(*) FROM battle", "SELECT 99", "SELECT 2"
        traces = [
            _trace("h1", [correct, wrong], [False, True], gold, 3),
            _trace("h2", [wrong, wrong, correct], [False, False, None], gold, 3, db_id="copy"),
            _trace("h3", [wrong], [True], gold, 3),
            _trace("h4", [correct, correct], [False, True], gold, 3, db_id="copy"),
            _trace("h5", ["SELECT 1"], [True], "SELECT nope FROM death", 2),
            _trace("h6", ["SELECT 1"], [True], None, 2, db_id="copy"),
        ] + [
            _trace(f"p{i:02d}", [predicted], [True], pair_gold, 1, db_id=("battle_death", "copy")[i % 2])
            for i, (predicted, pair_gold, _) in enumerate(SCORED_PAIRS)
        ]
        ex, excluded, counts = _reference_scores(traces, db_dir)
        rng = random.Random(5)
        orders = [traces, traces[::-1]] + [rng.sample(traces, len(traces)) for _ in range(20)]
        orders += [list(p) + traces[6:] for p in itertools.permutations(traces[:6])]
        # every CPU count scores a third of the orders: 1, 2 and 8 workers
        # give one result however the threads interleave
        for order, cpus in zip(orders, itertools.cycle((1, 2, 8))):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            report = evaluate_run(order, db_dir)
            estimate = estimate_pqs(order, db_dir)
            assert (report.ex, report.n_excluded) == (ex, excluded)
            assert estimate.counts.__dict__ == counts
            assert estimate.n_excluded == excluded


def _fails_from(k: int) -> str:
    """A column of _counting that raises "integer overflow" once x reaches k."""
    return f"abs(-9223372036854775807 - (x >= {k}))"


def _full_run_verdict(conn, candidate, gold_sql):
    """The reference: run both statements to their end and compare every row.

    None when the gold fails, as the scoring code excludes such a task.
    """
    try:
        gold_rows, gold_columns = run_query(conn, gold_sql, max_rows=None)
    except QueryFailure:
        return None
    try:
        rows, columns = run_query(conn, candidate, max_rows=None)
    except QueryFailure:
        return False
    return columns == gold_columns and result_sets_match(
        rows, gold_rows, has_top_level_order_by(gold_sql)
    )


class TestStepsOnlyToTheVerdict:
    """A prediction is stepped only until its verdict is decided, and its
    gold's text is not run again; every verdict is the one a full run gives."""

    GOLD = "SELECT killed FROM death"  # 12, 7, 3, 12
    ORDERED_GOLD = "SELECT killed FROM death ORDER BY killed"
    FAILING_GOLD = "SELECT nope FROM death"
    LATE_FAILING_GOLD = _counting(20, _fails_from(5))
    TEN = _counting(10)
    CASES = {
        "wrong column count, late error": (_counting(2000, "x, " + _fails_from(1000)), GOLD),
        "more rows, late error": (_counting(2000, _fails_from(1000)), GOLD),
        "fewer rows, then an error": (_counting(20, _fails_from(3)), TEN),
        "the gold's rows, then an error": (_counting(20, _fails_from(11)), TEN),
        "the gold's rows": (_counting(20) + " WHERE x <= 10", TEN),
        "the gold's rows, then one more": (_counting(11), TEN),
        "own gold text": (GOLD, GOLD),
        "own ordered gold text": (ORDERED_GOLD, ORDERED_GOLD),
        "another gold, same rows": ("SELECT count(*) FROM battle", "SELECT 2"),
        "another gold, same multiset": (ORDERED_GOLD, GOLD),
        "another gold, other order": (GOLD, ORDERED_GOLD),
        "another gold, other rows": (GOLD, "SELECT 2"),
        "another gold, other columns": ("SELECT killed, injured FROM death", GOLD),
        "failing gold text": (FAILING_GOLD, GOLD),
        "late failing gold text": (LATE_FAILING_GOLD, _counting(4)),
        "other text, same rows": ("SELECT killed FROM death ORDER BY killed DESC", GOLD),
        "other text, same order": ("SELECT killed FROM death ORDER BY 1", ORDERED_GOLD),
        "other text, other order": ("SELECT killed FROM death ORDER BY killed DESC", ORDERED_GOLD),
        "blank": ("", GOLD),
        "comment only": ("  -- nothing here", GOLD),
        "two statements": ("SELECT 1; SELECT 1", "SELECT 1"),
        "temp table": ("CREATE TEMP TABLE death AS SELECT 1 AS killed", GOLD),
        "write": ("DELETE FROM death", GOLD),
        "wrong columns, semicolon": ("SELECT killed, injured FROM death;", GOLD),
        "right columns, semicolon": ("SELECT killed FROM death ;\n", GOLD),
        "trailing line comment": ("SELECT killed FROM death -- all of them", GOLD),
        "comment left open": ("SELECT killed FROM death /* all of them", GOLD),
        "explain": ("EXPLAIN SELECT 1", "SELECT 1"),
        "prepares only when wrapped": ("SELECT a FROM (SELECT 1 a) t) , (SELECT 2 b", "SELECT 1, 2"),
        "the gold's columns, overflows": ("SELECT abs(-9223372036854775807 - 1)", "SELECT 2"),
    }
    # Each gold runs on the handle before a target's candidate is scored.
    PRIMED = (
        GOLD, ORDERED_GOLD, "SELECT 2", "SELECT killed, injured FROM death",
        "SELECT count(*) FROM battle", FAILING_GOLD, LATE_FAILING_GOLD,
    )

    @pytest.mark.parametrize("case", CASES)
    def test_verdict_equals_a_full_run(self, spider_layout, case):
        candidate, gold = self.CASES[case]
        db_dir = spider_layout["db_dir"]
        database = database_path(db_dir, "battle_death")
        traces = [
            _trace(f"g{i}", ["SELECT 1"], [True], primed, 2) for i, primed in enumerate(self.PRIMED)
        ] + [_trace("target", [candidate], [True], gold, 2)]
        with closing(open_readonly(database)) as conn:
            expected = [_full_run_verdict(conn, t.final_sql, t.task.gold_sql) for t in traces]
        assert expected[-1] is not None
        scored = [v for v in expected if v is not None]
        report = evaluate_run(traces, db_dir)
        assert (report.ex, report.n_excluded) == (sum(scored) / len(scored), len(traces) - len(scored))
        estimate = estimate_pqs(traces, db_dir)
        assert estimate.counts.__dict__ == {
            "first_pass_correct": sum(scored),
            "first_pass_total": len(scored),
            "wrong_checked": len(scored) - sum(scored),
            "wrong_accepted": len(scored) - sum(scored),
            "correct_checked": sum(scored),
            "correct_rejected": 0,
        }
        assert execution_accuracy(candidate, gold, database) is expected[-1]

    def test_cases_reach_both_verdicts(self, battle_db):
        with closing(open_readonly(battle_db)) as conn:
            verdicts = {_full_run_verdict(conn, *pair) for pair in self.CASES.values()}
        assert verdicts == {True, False}

    # Fragments that open or close quotes, identifiers, parentheses,
    # comments and statements, so that some candidates prepare only
    # alone, some only wrapped, and some both ways.
    WITHS = ("", "WITH w(k) AS (VALUES (12), (3)) ", "WITH w AS (SELECT killed AS k FROM death) ")
    HEADS = (
        "SELECT killed FROM death", "SELECT killed, injured FROM death", "SELECT * FROM death",
        "SELECT [killed] FROM death", "SELECT `note`, 1 FROM death", "SELECT 'a;b' FROM death",
        'SELECT "killed" FROM death', "SELECT * FROM (SELECT killed FROM death", "SELECT k FROM w",
        "SELECT * FROM w", "VALUES (12), (7)", "EXPLAIN SELECT 1",
    )
    CLAUSES = (
        " WHERE killed > 5", " UNION ALL SELECT 3", " UNION ALL VALUES (3, 4)", " ORDER BY 1", " LIMIT 2",
    )
    ENDS = (
        "", ";", " ;\n", " -- c", " /* c", " */", ")", "'", "]", "`", "; SELECT 1", ") , (SELECT 2 b",
    )
    GOLDS = (GOLD, ORDERED_GOLD, "SELECT killed, injured FROM death", "SELECT 12 UNION ALL SELECT 7")

    @given(
        with_=st.sampled_from(WITHS),
        head=st.sampled_from(HEADS),
        clauses=st.lists(st.sampled_from(CLAUSES), max_size=2),
        end=st.sampled_from(ENDS),
        gold=st.sampled_from(GOLDS),
    )
    @settings(max_examples=300, deadline=None)
    def test_fragment_candidates_score_as_a_full_run(self, battle_db, with_, head, clauses, end, gold):
        candidate = with_ + head + "".join(clauses) + end
        with closing(open_readonly(battle_db)) as conn:
            expected = _full_run_verdict(conn, candidate, gold)
        assert execution_accuracy(candidate, gold, battle_db) is expected

    def test_a_decided_prediction_is_not_stepped_further(self, spider_layout, monkeypatch):
        ticks = []
        real_open = evalkit.open_readonly

        def open_readonly(path):
            conn = real_open(path)
            conn.create_function("tick", 1, lambda x: ticks.append(x) or x)
            return conn

        monkeypatch.setattr(evalkit, "open_readonly", open_readonly)
        db_dir = spider_layout["db_dir"]
        database = database_path(db_dir, "battle_death")
        gold = "SELECT 2"
        wrong_columns = _counting(100_000, "tick(x), x")
        too_many_rows = _counting(100_000, "tick(x)")
        # a wrong column count is read when the candidate is prepared, before any row
        steps = {
            wrong_columns: range(0, 1),
            wrong_columns + ";": range(0, 1),
            wrong_columns + " -- two columns": range(0, 1),
            too_many_rows: range(1, 10),
        }
        for candidate, allowed in steps.items():
            traces = [_trace("t1", [candidate], [True], gold, 2)]
            for score in (
                lambda: evaluate_run(traces, db_dir).ex,
                lambda: estimate_pqs(traces, db_dir).p_hat,
                lambda: execution_accuracy(candidate, gold, database),
            ):
                ticks.clear()
                assert score() == 0
                assert len(ticks) in allowed


INVALID_SQL = "SELECT x FROM"
VALID_WRONG = "SELECT 99"
CORRECT = "SELECT count(*) FROM battle"  # = 2
GOLD = "SELECT 2"


def _micro_tasks():
    return [
        SpiderTask("t00000", "battle_death", "task A?", GOLD),
        SpiderTask("t00001", "battle_death", "task B?", GOLD),
        SpiderTask("t00002", "battle_death", "task C?", GOLD),
    ]


_SCRIPTS = {
    "t00000": [INVALID_SQL, CORRECT],
    "t00001": [VALID_WRONG, CORRECT],
    "t00002": [CORRECT, CORRECT],
}


def _resume(tasks, schemas, actor_factory, config, out, **kwargs):
    """Run the tasks not yet traced in out as `eval run` does; return (summary, resumed)."""
    pending = pending_tasks(tasks, config, out)
    summary = run_tasks(pending, schemas, actor_factory, lambda t: (), config, out, **kwargs)
    return summary, len(tasks) - len(pending)


class TestRunTasks:
    def test_resumable(self, spider_layout, tmp_path):
        schemas = _parsed_schemas()
        tasks = _micro_tasks()
        out = tmp_path / "traces.jsonl"
        calls = []

        def actor_factory(task):
            calls.append(task.task_id)
            return ScriptedActor([CORRECT])

        config = ACConfig(max_iterations=3, critic_mode="none")
        first, resumed = _resume(tasks[:2], schemas, actor_factory, config, out)
        assert first.written == 2 and resumed == 0
        second, resumed = _resume(tasks, schemas, actor_factory, config, out)
        assert second.written == 1 and resumed == 2
        assert sorted(calls) == ["t00000", "t00001", "t00002"]
        ids = [t.task.task_id for t in read_traces(out)]
        assert sorted(ids) == ["t00000", "t00001", "t00002"]

    def test_resume_refuses_another_runs_log(self, spider_layout, tmp_path):
        schemas = _parsed_schemas()
        tasks = _micro_tasks()
        out = tmp_path / "traces.jsonl"
        config = ACConfig(max_iterations=3, critic_mode="none")
        calls = []

        def actor_factory(task):
            calls.append(task.task_id)
            return ScriptedActor([CORRECT])

        _resume(tasks[:2], schemas, actor_factory, config, out)
        logged = out.read_bytes()
        reworded = [tasks[0], replace(tasks[1], question="task B, reworded?"), tasks[2]]
        for other_tasks, other_config, match in [
            (tasks, ACConfig(max_iterations=4, critic_mode="none"), "task 't0000[01]' run with"),
            (tasks, ACConfig(max_iterations=3, critic_mode="both"), "task 't0000[01]' run with"),
            (reworded, config, "task 't00001' with another db_id, question or gold"),
        ]:
            calls.clear()
            with pytest.raises(ValueError, match=match):
                _resume(other_tasks, schemas, actor_factory, other_config, out)
            assert calls == [] and out.read_bytes() == logged

    def test_resume_after_crash_mid_line(self, spider_layout, tmp_path):
        schemas = _parsed_schemas()
        tasks = _micro_tasks() + [SpiderTask("t00003", "battle_death", "task D?", GOLD)]
        out = tmp_path / "traces.jsonl"
        config = ACConfig(critic_mode="none")

        def actor_factory(task):
            return ScriptedActor([CORRECT])

        _resume(tasks[:2], schemas, actor_factory, config, out, concurrency=1)
        first, second = out.read_bytes().splitlines(keepends=True)
        # what a crash while writing the second trace can leave behind: half a
        # line, a whole record short of its newline, a 10 kB tail; and what a
        # crash while writing the first leaves: a partial line with no newline
        for kept, tail in [
            (first, second[: len(second) // 2]),
            (first, second.rstrip(b"\n")),
            (first, b'{"' + b"x" * 10_000),
            (b"", first[: len(first) // 2]),
        ]:
            out.write_bytes(kept + tail)
            with warnings.catch_warnings():
                warnings.simplefilter("error", TraceWarning)
                summary, resumed = _resume(tasks, schemas, actor_factory, config, out)
                ids = sorted(t.task.task_id for t in read_traces(out))
            assert resumed == kept.count(b"\n") and summary.written == len(tasks) - resumed
            assert ids == ["t00000", "t00001", "t00002", "t00003"]

    def test_refused_resume_keeps_the_log(self, spider_layout, tmp_path):
        tasks = _micro_tasks()
        out = tmp_path / "traces.jsonl"
        config = ACConfig(max_iterations=3, critic_mode="none")
        _resume(tasks, _parsed_schemas(), lambda task: ScriptedActor([CORRECT]), config, out,
                concurrency=1)
        out.write_bytes(out.read_bytes()[:-40])  # a crash cut the last trace short
        os.utime(out, ns=(10**18, 10**18))
        logged = out.read_bytes()
        reworded = [tasks[0], replace(tasks[1], question="task B, reworded?"), tasks[2]]
        for other_tasks, other_config in [
            (tasks, ACConfig(max_iterations=5, critic_mode="none")),
            (reworded, config),
        ]:
            with pytest.raises(ValueError):
                pending_tasks(other_tasks, other_config, out)
            assert out.read_bytes() == logged and out.stat().st_mtime_ns == 10**18
        # a raw \r is JSON whitespace, not a line end: the log is refused at
        # its bad line 2, and the torn tail is not cut before the checks pass
        first, *_, torn = logged.split(b"\n")
        first = first.replace(b", ", b",\r ", 1)
        assert b"\r" in first and torn
        out.write_bytes(first + b"\n{broken\n" + torn)
        os.utime(out, ns=(10**18, 10**18))
        logged = out.read_bytes()
        with pytest.raises(TraceFormatError, match=":2:"):
            pending_tasks(tasks, config, out)
        assert out.read_bytes() == logged and out.stat().st_mtime_ns == 10**18

    def test_resume_of_a_complete_log_writes_nothing(self, spider_layout, tmp_path, monkeypatch):
        tasks = _micro_tasks()
        out = tmp_path / "traces.jsonl"
        config = ACConfig(max_iterations=3, critic_mode="none")
        _resume(tasks[:2], _parsed_schemas(), lambda task: ScriptedActor([CORRECT]), config, out)
        os.utime(out, ns=(10**18, 10**18))
        opened = []

        def spy_open(file, mode="r", *args, **kwargs):
            opened.append((file, mode))
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(evalkit, "open", spy_open, raising=False)
        assert pending_tasks(tasks, config, out) == tasks[2:]
        assert opened == [(out, "rb")]  # once, read-only
        assert out.stat().st_mtime_ns == 10**18

    @pytest.mark.parametrize(
        "error", [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()],
        ids=["disk_full", "interrupt"],
    )
    def test_error_while_writing_cancels_the_queued_tasks(
        self, spider_layout, tmp_path, monkeypatch, error
    ):
        tasks = [SpiderTask(f"t{i:05d}", "battle_death", f"task {i}?", GOLD) for i in range(100)]
        calls = []

        class SlowActor:
            def respond(self, messages):
                calls.append(1)
                time.sleep(0.02)
                return CORRECT

        def write_trace(trace, out):
            raise error

        monkeypatch.setattr(evalkit, "write_trace", write_trace)
        with pytest.raises(type(error)):
            run_tasks(
                tasks, _parsed_schemas(), lambda task: SlowActor(), lambda task: (),
                ACConfig(critic_mode="none"), tmp_path / "traces.jsonl", concurrency=2,
            )
        # the two tasks running when the write failed may finish, and no queued one starts
        assert len(calls) <= 4

    def test_actor_failures_recorded_not_fatal(self, spider_layout, tmp_path):
        schemas = _parsed_schemas()
        tasks = _micro_tasks()

        class Boom:
            def respond(self, messages):
                raise ConnectionError("down")

        def actor_factory(task):
            return Boom() if task.task_id == "t00001" else ScriptedActor([CORRECT])

        out = tmp_path / "traces.jsonl"
        summary = run_tasks(
            tasks, schemas, actor_factory, lambda t: (),
            ACConfig(critic_mode="none"), out, concurrency=2,
        )
        assert summary.written == 2
        assert [task_id for task_id, _ in summary.failed] == ["t00001"]

    def test_worker_count_below_one_is_refused(self, spider_layout, tmp_path):
        calls = []

        def actor_factory(task):
            calls.append(task.task_id)
            return ScriptedActor([CORRECT])

        out = tmp_path / "traces.jsonl"
        with pytest.raises(ValueError):
            run_tasks(_micro_tasks(), _parsed_schemas(), actor_factory, lambda t: (),
                      ACConfig(critic_mode="none"), out, concurrency=0)
        assert calls == [] and read_traces(out) == []


    def test_schema_ddl_once_per_database(self, spider_layout, tmp_path):
        schemas = {
            "battle_death": _parsed_schemas()["battle_death"],
            "copy": "CREATE TABLE copy ( a INT );",
        }
        tasks = [
            SpiderTask(f"t{i:05d}", db_id, f"task {i}?", GOLD)
            for i, db_id in enumerate(["battle_death", "copy", "battle_death", "nowhere", "copy"])
        ]
        actors = {}

        def actor_factory(task):
            actors[task.task_id] = ScriptedActor([CORRECT])
            return actors[task.task_id]

        summary = run_tasks(
            tasks, schemas, actor_factory, lambda t: (),
            ACConfig(critic_mode="none"), tmp_path / "traces.jsonl", concurrency=2,
        )
        # each prompt carries the DDL of the task's own database
        for task in tasks:
            if task.db_id in schemas:
                prompt = build_actor_prompt(schemas[task.db_id], task.question)
                assert actors[task.task_id].received[0] == prompt
        assert summary.written == 4
        assert summary.failed == [("t00003", "\"unknown db_id 'nowhere'\"")]


def _ablate(runs, out_dir, db_dir, max_iterations, dataset_name=""):
    """Run and score each mode as `eval ablation` does; runs maps mode -> factories."""
    out_dir.mkdir()
    reports = []
    for mode, (actor_factory, critic_factory) in runs.items():
        out_path = ablation_log(out_dir, mode)
        run_tasks(
            _micro_tasks(), _parsed_schemas(), actor_factory, critic_factory,
            ACConfig(max_iterations=max_iterations, critic_mode=mode), out_path, concurrency=1,
        )
        report = evaluate_run(read_traces(out_path), db_dir, dataset_name=dataset_name)
        reports.append(replace(report, mode=mode))
    return with_baseline(reports)


class TestRunAblation:
    @staticmethod
    def _scripted(task):
        return ScriptedActor(_SCRIPTS[task.task_id], cycle_last=True)

    @staticmethod
    def _execution_critic(db_dir):
        def critic_factory(task):
            database = database_path(db_dir, task.db_id)
            return (lambda sql, ddl, question: execution_critic(sql, database),)

        return critic_factory

    def test_mode_dependent_ex(self, spider_layout, tmp_path):
        db_dir = spider_layout["db_dir"]
        reports = _ablate(
            {
                "none": (self._scripted, lambda task: ()),
                "execution_only": (self._scripted, self._execution_critic(db_dir)),
            },
            tmp_path / "ablation", db_dir, max_iterations=2, dataset_name="micro",
        )
        # Hand-computed with z=2: baseline emits the first reply of each
        # script (only task C correct -> 1/3); the execution critic fixes
        # the invalid first attempt of task A but accepts task B's
        # valid-but-wrong SQL (-> 2/3).
        assert [r.mode for r in reports] == ["none", "execution_only"]
        assert reports[0].ex == pytest.approx(1 / 3)
        assert reports[1].ex == pytest.approx(2 / 3)
        assert reports[1].baseline_ex == pytest.approx(1 / 3)
        assert reports[1].abs_improvement == pytest.approx(1 / 3)
        assert reports[1].rel_error_reduction == pytest.approx(0.5)
        assert (tmp_path / "ablation" / "traces_none.jsonl").exists()
        assert (tmp_path / "ablation" / "traces_execution_only.jsonl").exists()

    def test_single_mode_equals_baseline_eval(self, spider_layout, tmp_path):
        reports = _ablate(
            {"none": (self._scripted, lambda task: ())},
            tmp_path / "solo", spider_layout["db_dir"], max_iterations=5,
        )
        assert len(reports) == 1
        assert reports[0].mode == "none"
        assert reports[0].ex == pytest.approx(1 / 3)
        assert reports[0].baseline_ex is None

    def test_mode_without_scored_task_has_no_ex(self, spider_layout, tmp_path):
        db_dir = spider_layout["db_dir"]

        class Down:
            def respond(self, messages):
                raise ConnectionError("endpoint refused")

        reports = _ablate(
            {
                "none": (lambda task: Down(), lambda task: ()),
                "execution_only": (self._scripted, self._execution_critic(db_dir)),
            },
            tmp_path / "ab", db_dir, max_iterations=2,
        )
        none, execution = reports
        assert (none.mode, none.n_tasks, none.ex) == ("none", 0, None)
        assert none.to_json_dict()["ex"] is None and none.error_rate is None
        assert execution.ex == pytest.approx(2 / 3)
        assert execution.baseline_ex is None
        assert execution.abs_improvement is None and execution.rel_error_reduction is None
        none_row = format_reports(reports).splitlines()[1].split()
        assert none_row == ["-", "none", "0", "-", "-", "-"]
