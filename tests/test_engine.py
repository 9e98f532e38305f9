"""Tests for the iteration loop and trace persistence."""

import json
import random
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acsql.agents import (
    CORRECT_SQL,
    CRITIC_MODES,
    BernoulliActor,
    StochasticCritic,
    Verdict,
)
from acsql.engine import (
    ACConfig,
    ACTrace,
    ActorError,
    IterationRecord,
    TraceFormatError,
    TraceWarning,
    read_traces,
    run_ac_loop,
    trace_from_dict,
    trace_to_dict,
)
from acsql.spider_data import SpiderTask
from acsql.theory import ACParams, expected_prob
from conftest import write_traces
from doubles import ScriptedActor, ScriptedCritic

TONNAGE_QUESTION = (
    "What are the death and injury situations caused by the ship with tonnage 't ' ?"
)
FIRST_TRY_SQL = "SELECT killed, injured FROM death WHERE caused_by_ship_id = t;"
JOIN_SQL = (
    "SELECT T1.killed , T1.injured FROM death AS T1 JOIN ship AS t2 "
    "ON T1.caused_by_ship_id = T2.id WHERE T2.tonnage = 't'"
)


def _task(question=TONNAGE_QUESTION, gold=None):
    return SpiderTask(task_id="t00000", db_id="battle_death", question=question, gold_sql=gold)


class TestRunAcLoop:
    def test_reject_then_accept(self, battle_ddl):
        actor = ScriptedActor([FIRST_TRY_SQL, JOIN_SQL])
        critic = ScriptedCritic([False, True])
        trace = run_ac_loop(actor, (critic.judge,), _task(), ACConfig(max_iterations=5), battle_ddl)

        assert len(trace.iterations) == 2
        assert trace.stopped_by == "accepted"
        assert trace.final_sql == JOIN_SQL
        assert trace.iterations[0].generated_sql == FIRST_TRY_SQL
        assert not trace.iterations[0].verdicts[0].accepted
        assert trace.iterations[1].verdicts[0].accepted
        # Second actor call sees its own prior answer and the exact
        # regeneration request appended to the dialogue.
        second_call = actor.received[1]
        assert [m.role for m in second_call] == ["user", "assistant", "user"]
        assert second_call[1].content == FIRST_TRY_SQL
        assert second_call[2].content == (
            "Please provide a new SQL query to the question only without "
            "explanation: " + TONNAGE_QUESTION
        )

    def test_budget_exhaustion_leaves_final_unchecked(self, battle_ddl):
        actor = ScriptedActor([FIRST_TRY_SQL], cycle_last=True)
        critic = ScriptedCritic([False, False])
        trace = run_ac_loop(actor, (critic.judge,), _task(), ACConfig(max_iterations=3), battle_ddl)

        assert len(trace.iterations) == 3
        assert trace.stopped_by == "budget_exhausted"
        assert trace.final_sql == FIRST_TRY_SQL
        assert trace.iterations[2].verdicts == ()
        assert len(critic.reviewed) == 2  # consultations <= z - 1

    def test_mode_none_runs_single_unchecked_iteration(self, battle_ddl):
        actor = ScriptedActor([FIRST_TRY_SQL])
        config = ACConfig(max_iterations=5, critic_mode="none")
        trace = run_ac_loop(actor, (), _task(), config, battle_ddl)
        assert len(trace.iterations) == 1
        assert trace.iterations[0].verdicts == ()
        assert trace.final_sql == FIRST_TRY_SQL
        assert trace.stopped_by == "budget_exhausted"

    def test_extracts_sql_from_chatty_reply(self, battle_ddl):
        actor = ScriptedActor(["```sql\nSELECT 1;\n```"])
        config = ACConfig(critic_mode="none")
        trace = run_ac_loop(actor, (), _task(), config, battle_ddl)
        assert trace.final_sql == "SELECT 1;"
        assert trace.iterations[0].actor_raw_output == "```sql\nSELECT 1;\n```"

    def test_iteration_indices_increase_from_one(self, battle_ddl):
        actor = ScriptedActor(["SELECT 1"], cycle_last=True)
        critic = ScriptedCritic([False] * 4)
        trace = run_ac_loop(actor, (critic.judge,), _task(), ACConfig(max_iterations=5), battle_ddl)
        assert [r["index"] for r in trace_to_dict(trace)["iterations"]] == [1, 2, 3, 4, 5]

    def test_actor_failure_aborts_with_typed_error(self, battle_ddl):
        class FailingActor:
            def respond(self, messages):
                raise ConnectionError("endpoint unreachable")

        with pytest.raises(ActorError):
            run_ac_loop(FailingActor(), (ScriptedCritic([]).judge,), _task(), ACConfig(), battle_ddl)

    def test_reviewed_mode_without_components_calls_no_actor(self, battle_ddl):
        actor = ScriptedActor([FIRST_TRY_SQL])
        with pytest.raises(ValueError, match="critic required"):
            run_ac_loop(actor, (), _task(), ACConfig(critic_mode="both"), battle_ddl)
        assert actor.received == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ACConfig(max_iterations=0)
        with pytest.raises(ValueError):
            ACConfig(critic_mode="sometimes")
        with pytest.raises(ValueError):
            ACConfig(max_iterations=True)
        with pytest.raises(ValueError):
            ACConfig(critic_mode=["both"])

    @pytest.mark.parametrize("mode", CRITIC_MODES)
    def test_budget_is_one_exactly_for_a_mode_without_components(self, mode):
        budget = ACConfig(max_iterations=4, critic_mode=mode).budget
        assert budget == (4 if CRITIC_MODES[mode] else 1)

    def test_stochastic_loop_tracks_closed_form(self, battle_ddl):
        p, q, s, z = 0.4, 0.3, 0.2, 4
        n = 20_000
        rng = random.Random(2024)
        actor = BernoulliActor(p, rng)
        critic = StochasticCritic(q, s, rng)
        config = ACConfig(max_iterations=z)
        hits = 0
        for i in range(n):
            task = SpiderTask(task_id=f"t{i:05d}", db_id="x", question="q?")
            trace = run_ac_loop(actor, (critic.judge,), task, config, battle_ddl)
            hits += trace.final_sql == CORRECT_SQL
        prob = expected_prob(ACParams(p, q, s, z))
        sigma = (prob * (1 - prob) / n) ** 0.5
        assert abs(hits / n - prob) <= 3 * sigma


# ---------------------------------------------------------------------------
# Trace persistence
# ---------------------------------------------------------------------------


def _sample_trace(task_id="t00042"):
    task = SpiderTask(task_id=task_id, db_id="battle_death", question="q?", gold_sql="SELECT 1")
    return ACTrace(
        task=task,
        config=ACConfig(max_iterations=3, critic_mode="both"),
        iterations=(
            IterationRecord(
                generated_sql="SELECT 2",
                verdicts=(
                    Verdict(accepted=True, source="execution"),
                    Verdict(accepted=False, source="llm", detail="False"),
                ),
                actor_raw_output="SELECT 2",
            ),
            IterationRecord(
                generated_sql="SELECT 1",
                verdicts=(
                    Verdict(accepted=True, source="execution"),
                    Verdict(accepted=True, source="llm", detail="True"),
                ),
                actor_raw_output="sure: SELECT 1",
            ),
        ),
    )


# a line that opens with a UTF-16 byte-order mark
NOT_UTF8 = b'\xff\xfe{"task_id": "x"}'


def _line_bytes(line: str | bytes) -> bytes:
    return (line if isinstance(line, bytes) else line.encode("utf-8")) + b"\n"


def _unscorable_lines():
    """Well-formed JSON records that scoring could not use."""
    no_iterations = trace_to_dict(_sample_trace("t00009"))
    no_iterations["iterations"] = []
    string_verdict = trace_to_dict(_sample_trace("t00009"))
    string_verdict["iterations"][0]["verdicts"][1]["accepted"] = "false"
    early_accept = trace_to_dict(_sample_trace("t00009"))
    early_accept["iterations"][0]["verdicts"][1]["accepted"] = True
    index_gap = trace_to_dict(_sample_trace("t00009"))
    index_gap["iterations"][1]["index"] = 7
    over_budget = trace_to_dict(_sample_trace("t00009"))
    over_budget["config"]["max_iterations"] = 1
    one_shot_mode = trace_to_dict(_sample_trace("t00009"))
    one_shot_mode["config"]["critic_mode"] = "none"
    wrong_types = [trace_to_dict(_sample_trace("t00009")) for _ in range(9)]
    wrong_types[0]["gold_sql"] = 5
    wrong_types[1]["iterations"][0]["index"] = "1"
    wrong_types[2]["iterations"][0]["index"] = True
    wrong_types[3]["config"]["max_iterations"] = True
    wrong_types[4]["iterations"][0]["verdicts"][1]["detail"] = 5
    wrong_types[5]["iterations"][0]["verdicts"] = {}
    wrong_types[6]["config"] = []
    wrong_types[7]["question"] = None
    wrong_types[8]["iterations"][0] = "SELECT 1"
    not_an_object = [trace_to_dict(_sample_trace("t00009"))]
    return [
        json.dumps(record)
        for record in (
            no_iterations,
            string_verdict,
            early_accept,
            index_gap,
            over_budget,
            one_shot_mode,
            *wrong_types,
            not_an_object,
        )
    ]


class TestTracePersistence:
    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        original = [_sample_trace("t00001"), _sample_trace("t00002")]
        assert write_traces(original, path) == 2
        assert read_traces(path) == original

    def test_dict_field_names(self):
        payload = trace_to_dict(_sample_trace())
        assert set(payload) == {
            "task_id",
            "db_id",
            "question",
            "gold_sql",
            "config",
            "iterations",
            "final_sql",
            "stopped_by",
        }
        assert set(payload["config"]) == {"max_iterations", "critic_mode"}
        assert set(payload["iterations"][0]) == {"index", "sql", "actor_raw", "verdicts"}
        assert set(payload["iterations"][0]["verdicts"][0]) == {
            "source",
            "accepted",
            "detail",
        }

    def test_empty_file_reads_empty(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        path.write_text("")
        assert read_traces(path) == []
        # blank lines are no records, so neither mode warns about them
        write_traces([_sample_trace("t00001")], path)
        with open(path, "a", encoding="utf-8") as f:
            f.write("\n \t\n")
        write_traces([_sample_trace("t00002")], path, append=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for strict in (False, True):
                assert [t.task.task_id for t in read_traces(path, strict)] == ["t00001", "t00002"]

    def test_corrupt_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        for bad_line in ["{broken json", *_unscorable_lines(), NOT_UTF8]:
            write_traces([_sample_trace("t00001")], path)
            with open(path, "ab") as f:
                f.write(_line_bytes(bad_line))
            write_traces([_sample_trace("t00002")], path, append=True)

            with pytest.warns(TraceWarning) as warned:
                traces = read_traces(path, strict=False)
            assert len(traces) == 2, bad_line
            assert len(warned) == 1, bad_line
            assert ":2:" in str(warned[0].message)

    def test_corrupt_line_strict_aborts(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        for bad_line in ['{"task_id": "x"}', *_unscorable_lines(), NOT_UTF8]:
            path.write_bytes(_line_bytes(bad_line))
            with pytest.raises(TraceFormatError) as err:
                read_traces(path, strict=True)
            assert ":1:" in str(err.value), bad_line

    def test_repeated_task_id_refused(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        write_traces([_sample_trace("t00001"), _sample_trace("t00002"), _sample_trace("t00001")],
                     path)
        for strict in (False, True):
            with pytest.raises(TraceFormatError, match=":3: task_id 't00001' appears twice"):
                read_traces(path, strict=strict)

    def test_config_bytes_pinned(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        write_traces([_sample_trace()], path)
        assert '"config": {"max_iterations": 3, "critic_mode": "both"}, ' in path.read_text()

    def test_readme_example_loads(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("## Trace format"):]
        start = section.index("```json\n") + len("```json\n")
        payload = json.loads(section[start:section.index("```", start)])
        assert trace_to_dict(trace_from_dict(payload)) == payload

    def test_outcome_disagreeing_with_iterations_refused(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        good = trace_to_dict(_sample_trace("t00001"))
        bad_records = [
            {**good, "final_sql": "SELECT 2"},
            {**good, "stopped_by": "budget_exhausted"},
            {**good, "iterations": good["iterations"][:1], "final_sql": "SELECT 2"},
        ]
        for bad in bad_records:
            with pytest.raises(TraceFormatError):
                trace_from_dict(bad)
            path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
            with pytest.warns(TraceWarning, match=":2:"):
                assert read_traces(path) == [_sample_trace("t00001")]
            with pytest.raises(TraceFormatError, match=":2:"):
                read_traces(path, strict=True)

    @given(
        question=st.text(min_size=1, max_size=80),
        sqls=st.lists(st.text(min_size=1, max_size=120), min_size=1, max_size=4),
        gold=st.none() | st.text(max_size=60),
        accepted_last=st.booleans(),
    )
    @settings(max_examples=60)
    def test_round_trip_arbitrary_content(self, question, sqls, gold, accepted_last, tmp_path_factory):
        iterations = tuple(
            IterationRecord(
                generated_sql=sql,
                verdicts=(
                    (Verdict(accepted=(i == len(sqls) - 1 and accepted_last), source="scripted"),)
                    if i < len(sqls) - 1 or accepted_last
                    else ()
                ),
                actor_raw_output=sql + " ",
            )
            for i, sql in enumerate(sqls)
        )
        trace = ACTrace(
            task=SpiderTask("t0", "db", question, gold),
            config=ACConfig(max_iterations=max(len(sqls), 1), critic_mode="llm_only"),
            iterations=iterations,
        )
        assert trace_from_dict(trace_to_dict(trace)) == trace
