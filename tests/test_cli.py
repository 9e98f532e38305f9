"""CLI tests: flag parsing, output contracts, exit codes, reproducibility."""

import argparse
import hashlib
import json
import os
import re
from collections import Counter, defaultdict
from dataclasses import fields
from pathlib import Path

import pytest

from acsql import evalkit, mc_sim
from acsql.agents import (
    CORRECT_SQL, CRITIC_MODES, WRONG_SQL, ReplyTable, Verdict, build_critic_prompt,
)
from acsql.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, RunConfig, _build_factories, build_parser, main
from acsql.engine import ACConfig, ACTrace, IterationRecord, TraceWarning, read_traces
from acsql.llm_client import ChatMessage
from acsql.mc_sim import SimulationConfig
from acsql.spider_data import SpiderTask, database_path
from acsql.theory import ACParams
from conftest import BATTLE_TABLES_ENTRY, write_traces
from stub_llm import StubLLMServer


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTheoryCommands:
    def test_prob(self, capsys):
        code, out, _ = run_cli(
            capsys, "theory", "prob", "--p", "0.25", "--q", "0.25", "--s", "0.25", "--z", "5"
        )
        assert code == EXIT_OK
        assert float(out) == pytest.approx(0.46185, abs=5e-6)

    def test_prob_single_generation(self, capsys):
        code, out, _ = run_cli(
            capsys, "theory", "prob", "--p", "0.37", "--q", "0.9", "--s", "0.8", "--z", "1"
        )
        assert code == EXIT_OK
        assert float(out) == 0.37

    def test_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "theory", "limit", "--p", "0.5", "--q", "0", "--s", "0.5"
        )
        assert code == EXIT_OK
        assert float(out) == pytest.approx(1.0, abs=1e-12)

    def test_limit_singular_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "theory", "limit", "--p", "0", "--q", "0", "--s", "0.5"
        )
        assert code == EXIT_USAGE
        assert "error" in err

    def test_contour_csv(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, out, _ = run_cli(
            capsys,
            "theory", "contour",
            "--p", "0.25", "--z", "5", "--resolution", "101", "--out", str(out_path),
        )
        assert code == EXIT_OK
        assert "10201" in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == "q,s,prob"
        assert len(lines) == 10202

    def test_contour_to_stdout_is_the_file(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        argv = ["theory", "contour", "--p", "0.75", "--z", "3", "--resolution", "11"]
        code, out, _ = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == EXIT_OK
        assert out == f"wrote 121 rows to {out_path}\n"
        code, out, _ = run_cli(capsys, *argv, "--out", "-")
        assert code == EXIT_OK
        assert out.encode() == out_path.read_bytes()

    def test_out_of_range_probability_rejected(self, capsys, tmp_path):
        # the trace log does not exist: a baseline is refused before the log is read
        report = ["eval", "report", "--traces", str(tmp_path / "none.jsonl"),
                  "--db-dir", str(tmp_path)]
        for argv, name in (
            (["theory", "prob", "--p", "1.5", "--q", "0", "--s", "0", "--z", "2"], "p"),
            (["theory", "limit", "--p", "1.5", "--q", "0", "--s", "0"], "p"),
            (["theory", "contour", "--p", "1.5", "--z", "2", "--resolution", "3"], "p"),
            (["simulate", "--p", "1.5", "--q", "0", "--s", "0", "--z", "2", "--trials", "10"], "p"),
            *(([*report, "--baseline-ex", value], "baseline-ex") for value in ("2", "-1", "nan")),
            ([*report, "--json", "--baseline-ex", "nan"], "baseline-ex"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == EXIT_USAGE, argv
            assert f"error: {name} must be" in err and out == "", argv


class TestSimulateCommand:
    def test_json_shape_and_determinism(self, capsys):
        argv = [
            "simulate",
            "--p", "0.75", "--q", "0.25", "--s", "0.25", "--z", "3",
            "--trials", "20000", "--repeats", "3", "--seed", "11",
        ]
        code, first, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        payload = json.loads(first)
        assert payload["trials"] == 20000
        assert payload["params"]["z"] == 3
        assert abs(payload["estimated_accuracy"] - payload["theory_prob"]) == payload[
            "abs_difference"
        ]
        code, second, _ = run_cli(capsys, *argv)
        assert second == first

    def test_zero_trials_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--p", "0.5", "--q", "0.5", "--s", "0.5", "--z", "2", "--trials", "0"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert "error: trials must be an integer >= 1, got 0" in err

    def test_flags_not_given_take_simulation_config_defaults(self, capsys, monkeypatch):
        configs = []

        class Report:
            def to_json(self):
                return "{}"

        def simulate(config):
            configs.append(config)
            return Report()

        monkeypatch.setattr(mc_sim, "simulate", simulate)
        model = ["--p", "0.75", "--q", "0.25", "--s", "0.25", "--z", "3"]
        for flags in ([], ["--repeats", "2"], ["--trials", "7", "--repeats", "2", "--seed", "5"]):
            assert run_cli(capsys, "simulate", *model, *flags) == (EXIT_OK, "{}\n", "")
        params = ACParams(p=0.75, q=0.25, s=0.25, z=3)
        assert configs == [
            SimulationConfig(params),
            SimulationConfig(params, repeats=2),
            SimulationConfig(params, trials=7, repeats=2, seed=5),
        ]
        assert (configs[0].trials, configs[0].repeats, configs[0].seed) == (10**6, 100, 0)


# Integer flags the parser reads as int; the settings object that holds each refuses it.
_REFUSED_INTEGER_FLAGS = {
    "prob-z": (["theory", "prob", "--p", "0.5", "--q", "0.5", "--s", "0.5", "--z", "0"], "z", 1),
    "contour-z": (["theory", "contour", "--p", "0.5", "--z", "0"], "z", 1),
    "contour-resolution": (
        ["theory", "contour", "--p", "0.5", "--z", "2", "--resolution", "1"], "resolution", 2
    ),
    "simulate-z": (["simulate", "--p", "0.5", "--q", "0.5", "--s", "0.5", "--z", "0"], "z", 1),
    "simulate-repeats": (
        ["simulate", "--p", "0.5", "--q", "0.5", "--s", "0.5", "--z", "2", "--repeats", "0"],
        "repeats", 1,
    ),
}


@pytest.mark.parametrize(
    "argv, name, least", list(_REFUSED_INTEGER_FLAGS.values()), ids=list(_REFUSED_INTEGER_FLAGS)
)
def test_refused_integer_flag_is_usage_error(capsys, argv, name, least):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert f"error: {name} must be an integer >= {least}, got " in err


@pytest.fixture
def micro_dataset(spider_layout):
    tasks = [
        {"question": f"question {i}?", "db_id": "battle_death", "query": CORRECT_SQL}
        for i in range(4)
    ]
    tasks_path = spider_layout["root"] / "tasks.json"
    tasks_path.write_text(json.dumps(tasks))
    return {
        "tasks": str(tasks_path),
        "tables": str(spider_layout["tables"]),
        "db_dir": str(spider_layout["db_dir"]),
        "root": spider_layout["root"],
    }


def _is_critic_request(body):
    return "Answer True if the SQL query is correct" in body["messages"][-1]["content"]


# connection refused locally, retried without waiting
_DEAD_ENDPOINT = {"base_url": "http://127.0.0.1:9/v1", "retry_backoff": [0.01]}

# Config overrides on top of _bernoulli_config plus "seed": 3, each with the
# mode to run; None stands for a config file that holds a list.
_BAD_SETTINGS = {
    "critic-kind-typo": ({"critic": {"kind": "stochastc"}}, "execution_only"),
    "critic-kind-typo-llm": ({"critic": {"kind": "stochastc"}}, "llm_only"),
    "bernoulli-without-p": ({"actor": {"kind": "bernoulli"}}, "both"),
    "stochastic-without-q": ({"critic": {"kind": "stochastic", "s": 0.0}}, "both"),
    "p-out-of-range": ({"actor": {"kind": "bernoulli", "p": 1.5}}, "both"),
    "p-quoted": ({"actor": {"kind": "bernoulli", "p": "0.5"}}, "both"),
    "max-iterations-quoted": ({"max_iterations": "5"}, "both"),
    "max-iterations-bool": ({"max_iterations": True}, "both"),
    "concurrency-quoted": ({"concurrency": "2"}, "both"),
    "concurrency-zero": ({"concurrency": 0}, "both"),
    "unknown-config-key": ({"max_iteration": 5}, "none"),
    # attributes of every object, not settings
    "class-config-key": ({"__class__": 5}, "none"),
    "doc-config-key": ({"__doc__": "x"}, "none"),
    "tasks-missing": ({"tasks": ""}, "none"),
    "llm-actor-without-base-url": ({"actor": {"kind": "llm", "model": "m"}}, "none"),
    "unknown-actor-key": ({"actor": {**_DEAD_ENDPOINT, "max_retry": 0}}, "none"),
    "bad-endpoint": ({"actor": {**_DEAD_ENDPOINT, "temperature": -1}}, "none"),
    "actor-not-an-object": ({"actor": [_DEAD_ENDPOINT["base_url"]]}, "none"),
    "config-not-an-object": (None, "none"),
    "stochastic-without-seed": ({"actor": _DEAD_ENDPOINT, "seed": None}, "execution_only"),
    "timeout-quoted": ({"actor": {**_DEAD_ENDPOINT, "timeout": "60"}}, "none"),
    "timeout-zero": ({"actor": {**_DEAD_ENDPOINT, "timeout": 0}}, "none"),
    "temperature-bool": ({"actor": {**_DEAD_ENDPOINT, "temperature": True}}, "none"),
    "max-tokens-quoted": ({"actor": {**_DEAD_ENDPOINT, "max_tokens": "512"}}, "none"),
    "max-retries-bool": ({"actor": {**_DEAD_ENDPOINT, "max_retries": False}}, "none"),
    "backoff-not-a-list": ({"actor": {**_DEAD_ENDPOINT, "retry_backoff": 0.5}}, "none"),
    "backoff-empty": ({"actor": {**_DEAD_ENDPOINT, "retry_backoff": []}}, "none"),
    "api-key-env-not-a-string": ({"actor": {**_DEAD_ENDPOINT, "api_key_env": 5}}, "none"),
    "critic-negative-backoff": (
        {"actor": _DEAD_ENDPOINT, "critic": {"retry_backoff": [-1]}}, "llm_only"
    ),
    "exec-timeout-quoted": ({"exec_timeout": "5"}, "execution_only"),
    "exec-timeout-negative": ({"exec_timeout": -1}, "both"),
    "tasks-not-a-string": ({"tasks": 5}, "none"),
    "out-not-a-string": ({"out": ["traces.jsonl"]}, "none"),
    "p-bool": ({"actor": {"kind": "bernoulli", "p": True}}, "both"),
    "s-bool": ({"critic": {"kind": "stochastic", "q": 0.0, "s": False}}, "both"),
    "seed-bool": ({"seed": True}, "both"),
    "seed-quoted": ({"seed": "abc"}, "both"),
    "seed-fraction": ({"seed": 3.5}, "none"),
    # a bernoulli actor lends the LLM critic no endpoint
    "llm-critic-without-endpoint": ({"critic": {"kind": "llm"}}, "llm_only"),
    "llm-critic-without-endpoint-both": ({"critic": {"kind": "llm"}}, "both"),
}


def _bernoulli_config(micro_dataset, out_name, p=1.0):
    config = {
        "tasks": micro_dataset["tasks"],
        "tables": micro_dataset["tables"],
        "db_dir": micro_dataset["db_dir"],
        "out": str(micro_dataset["root"] / out_name),
        "actor": {"kind": "bernoulli", "p": p},
        "critic": {"kind": "stochastic", "q": 0.0, "s": 0.0},
    }
    path = micro_dataset["root"] / "config.json"
    path.write_text(json.dumps(config))
    return path, config["out"]


class TestEvalCommands:
    def test_run_then_report(self, capsys, micro_dataset):
        config_path, out_path = _bernoulli_config(micro_dataset, "traces.jsonl")
        code, out, _ = run_cli(
            capsys,
            "eval", "run",
            "--config", str(config_path), "--mode", "none", "--seed", "3",
        )
        assert code == EXIT_OK
        assert "traces written: 4" in out
        traces = read_traces(out_path)
        assert len(traces) == 4
        assert all(t.final_sql == CORRECT_SQL for t in traces)

        code, out, _ = run_cli(
            capsys,
            "eval", "report",
            "--traces", out_path, "--db-dir", micro_dataset["db_dir"], "--json",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["ex"] == 1.0
        assert report["n_tasks"] == 4
        assert report["mode"] == "none"

    def test_report_prints_the_table(self, capsys, micro_dataset):
        config_path, out_path = _bernoulli_config(micro_dataset, "traces.jsonl", p=0.5)
        run_cli(capsys, "eval", "run", "--config", str(config_path), "--mode", "both",
                "--seed", "3")
        code, out, _ = run_cli(
            capsys, "eval", "report", "--traces", out_path, "--db-dir", micro_dataset["db_dir"]
        )
        assert code == EXIT_OK
        report = evalkit.evaluate_run(read_traces(out_path), micro_dataset["db_dir"])
        assert out == evalkit.format_reports([report]) + "\n"

    def test_run_lists_tasks_without_a_database_and_runs_the_rest(self, capsys, micro_dataset):
        # lost_db is in the tables file, but its .sqlite file was never made
        lost_entry = {**BATTLE_TABLES_ENTRY, "db_id": "lost_db"}
        lost_task = {"question": "lost?", "db_id": "lost_db", "query": "SELECT 1"}
        Path(micro_dataset["tables"]).write_text(json.dumps([BATTLE_TABLES_ENTRY, lost_entry]))
        tasks = Path(micro_dataset["tasks"])
        tasks.write_text(json.dumps([*json.loads(tasks.read_text()), lost_task]))
        config_path, out_path = _bernoulli_config(micro_dataset, "traces.jsonl")
        code, out, err = run_cli(
            capsys, "eval", "run", "--config", str(config_path), "--mode", "none", "--seed", "3"
        )
        assert code == EXIT_OK
        assert out == "traces written: 4, resumed: 0, failed: 0\n"
        missing = database_path(micro_dataset["db_dir"], "lost_db")
        assert "tasks unloadable: 1" in err
        assert f"  t00004: database file missing: {missing}" in err.splitlines()
        assert {t.task.db_id for t in read_traces(out_path)} == {"battle_death"}

    def test_run_resumes(self, capsys, micro_dataset):
        config_path, out_path = _bernoulli_config(micro_dataset, "resume.jsonl")
        argv = ["eval", "run", "--config", str(config_path), "--mode", "none", "--seed", "3"]
        run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert "traces written: 0" in out
        assert "resumed: 4" in out
        assert len(read_traces(out_path)) == 4

    def test_seeded_run_is_reproducible(self, capsys, micro_dataset):
        config_path, out_path = _bernoulli_config(micro_dataset, "a.jsonl", p=0.5)
        argv = ["eval", "run", "--config", str(config_path), "--mode", "both", "--seed", "42"]
        run_cli(capsys, *argv)
        first = {t.task.task_id: t.final_sql for t in read_traces(out_path)}
        # fresh output path, same seed
        config_path2, out_path2 = _bernoulli_config(micro_dataset, "b.jsonl", p=0.5)
        run_cli(capsys, "eval", "run", "--config", str(config_path2), "--mode", "both", "--seed", "42")
        second = {t.task.task_id: t.final_sql for t in read_traces(out_path2)}
        assert first == second

    def test_seeded_ablation_traces_are_pinned(self, capsys, micro_dataset):
        # Seeded coin-flip agents make every trace line a fixed function of
        # the code that runs the loop and records verdicts; this digest of
        # each mode's sorted lines changes only when that behaviour does.
        config_path, _ = _bernoulli_config(micro_dataset, "unused.jsonl", p=0.4)
        config = json.loads(config_path.read_text())
        config["critic"] = {"kind": "stochastic", "q": 0.3, "s": 0.2}
        config_path.write_text(json.dumps(config))
        out_dir = micro_dataset["root"] / "pinned"
        code, _, _ = run_cli(capsys, "eval", "ablation", "--config", str(config_path),
                             "--seed", "3", "--out-dir", str(out_dir))
        assert code == EXIT_OK
        digest = hashlib.sha256()
        for mode in CRITIC_MODES:
            digest.update(b"".join(sorted(
                (out_dir / f"traces_{mode}.jsonl").read_bytes().splitlines(keepends=True)
            )))
        assert digest.hexdigest() == "c942ff0b86d46b3ce25166ec16505c8aae50b14f6dd923640b95bed8281ab382"

    def test_llm_mode_without_endpoint_is_usage_error(self, capsys, micro_dataset):
        code, _, err = run_cli(
            capsys,
            "eval", "run",
            "--tasks", micro_dataset["tasks"],
            "--tables", micro_dataset["tables"],
            "--db-dir", micro_dataset["db_dir"],
            "--mode", "both",
        )
        assert code == EXIT_USAGE
        assert "error" in err

    def test_missing_traces_is_io_error(self, capsys, micro_dataset):
        code, _, err = run_cli(
            capsys,
            "eval", "report",
            "--traces", str(micro_dataset["root"] / "nope.jsonl"),
            "--db-dir", micro_dataset["db_dir"],
        )
        assert code == EXIT_IO

    def test_estimate_pqs_output(self, capsys, micro_dataset):
        config_path, out_path = _bernoulli_config(micro_dataset, "pqs.jsonl", p=0.5)
        run_cli(capsys, "eval", "run", "--config", str(config_path), "--mode", "both", "--seed", "9")
        code, out, _ = run_cli(
            capsys,
            "eval", "estimate-pqs",
            "--traces", out_path, "--db-dir", micro_dataset["db_dir"],
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert set(payload) >= {"p_hat", "q_hat", "s_hat", "counts"}
        assert payload["counts"]["first_pass_total"] == 4

    def test_repeated_task_id_is_io_error(self, capsys, micro_dataset):
        config_path, out_path = _bernoulli_config(micro_dataset, "twice.jsonl")
        run_cli(capsys, "eval", "run", "--config", str(config_path), "--mode", "none", "--seed", "3")
        with open(out_path, encoding="utf-8") as f:
            first = f.readline()
        with open(out_path, "a", encoding="utf-8") as f:
            f.write(first)
        task_id = json.loads(first)["task_id"]
        for command in ("report", "estimate-pqs"):
            code, out, err = run_cli(
                capsys,
                "eval", command,
                "--traces", out_path, "--db-dir", micro_dataset["db_dir"],
            )
            assert code == EXIT_IO, command
            assert task_id in err and out == "", command

    def test_repeated_task_id_stops_ablation_before_any_mode(self, capsys, micro_dataset):
        config_path, _ = _bernoulli_config(micro_dataset, "unused.jsonl")
        out_dir = micro_dataset["root"] / "ablation"
        argv = ["eval", "ablation", "--config", str(config_path), "--seed", "3",
                "--out-dir", str(out_dir)]
        assert run_cli(capsys, *argv, "--modes", "both")[0] == EXIT_OK
        log = out_dir / "traces_both.jsonl"
        first, _, *rest = log.read_text(encoding="utf-8").splitlines(keepends=True)
        log.write_text(first + "".join(rest) + first, encoding="utf-8")  # one task pending
        logged = log.read_bytes()
        code, out, err = run_cli(capsys, *argv, "--modes", "none,both")
        # no mode ran: no actor wrote the "none" log or the pending task's trace
        assert not (out_dir / "traces_none.jsonl").exists()
        assert log.read_bytes() == logged
        assert (code, out) == (EXIT_IO, "")
        assert f"{log}:4: task_id {json.loads(first)['task_id']!r} appears twice" in err

    def test_unreachable_endpoint_exits_transport(self, capsys, micro_dataset):
        config = {
            "tasks": micro_dataset["tasks"],
            "tables": micro_dataset["tables"],
            "db_dir": micro_dataset["db_dir"],
            "out": str(micro_dataset["root"] / "dead.jsonl"),
            "mode": "none",
            "concurrency": 2,
            # connection refused locally; fail fast without retries
            "actor": {"base_url": "http://127.0.0.1:9/v1", "model": "m",
                      "max_retries": 0, "retry_backoff": [0.01]},
        }
        config_path = micro_dataset["root"] / "dead.json"
        config_path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "eval", "run", "--config", str(config_path))
        assert code == 4
        assert "failed: 4" in out
        assert all(f"t0000{i}:" in err for i in range(4))

        code, out, err = run_cli(
            capsys,
            "eval", "ablation",
            "--config", str(config_path),
            "--modes", "none",
            "--out-dir", str(micro_dataset["root"] / "dead_ablation"),
        )
        assert code == 4
        assert all(f"t0000{i}:" in err for i in range(4))

    def test_critic_without_base_url_keeps_its_own_keys(self, capsys, micro_dataset):
        def handler(body):
            return "True" if _is_critic_request(body) else CORRECT_SQL

        server = StubLLMServer(handler=handler).start()
        try:
            code, _, err = run_cli(
                capsys,
                "eval", "run",
                "--tasks", micro_dataset["tasks"],
                "--tables", micro_dataset["tables"],
                "--db-dir", micro_dataset["db_dir"],
                "--mode", "llm_only",
                "--out", str(micro_dataset["root"] / "judged.jsonl"),
                "--actor-base-url", server.base_url, "--actor-model", "actor-m",
                "--critic-model", "judge-m",
            )
        finally:
            server.stop()
        assert code == EXIT_OK, err
        sent = {(_is_critic_request(r["body"]), r["body"]["model"]) for r in server.requests}
        assert sent == {(False, "actor-m"), (True, "judge-m")}

    def test_malformed_tables_entry_is_io_error(self, capsys, micro_dataset):
        tables_path = micro_dataset["root"] / "tables.json"
        entry = json.loads(tables_path.read_text())[0]
        del entry["column_types"]
        tables_path.write_text(json.dumps([entry]))
        config_path, _ = _bernoulli_config(micro_dataset, "never.jsonl")
        code, out, err = run_cli(
            capsys, "eval", "run", "--config", str(config_path), "--mode", "none", "--seed", "3"
        )
        assert code == EXIT_IO
        assert out == ""
        assert "database entry 0 (db_id 'battle_death')" in err

    def test_trace_outcome_mismatch_skipped_or_strict_io_error(self, capsys, micro_dataset):
        config_path, out_path = _bernoulli_config(micro_dataset, "tampered.jsonl")
        run_cli(capsys, "eval", "run", "--config", str(config_path), "--mode", "none", "--seed", "3")
        with open(out_path, encoding="utf-8") as f:
            records = [json.loads(line) for line in f]
        records[0]["stopped_by"] = "accepted"
        with open(out_path, "w", encoding="utf-8") as f:
            f.writelines(json.dumps(record) + "\n" for record in records)
        argv = ["eval", "report", "--traces", out_path, "--db-dir", micro_dataset["db_dir"]]
        with pytest.warns(TraceWarning, match=":1:"):
            code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == EXIT_OK
        assert json.loads(out)["n_tasks"] == 3
        code, out, err = run_cli(capsys, *argv, "--strict")
        assert code == EXIT_IO
        assert out == "" and "stopped_by" in err

    def test_trace_field_of_wrong_type_skipped_or_strict_io_error(self, capsys, micro_dataset):
        config_path, out_path = _bernoulli_config(micro_dataset, "typed.jsonl")
        run_cli(capsys, "eval", "run", "--config", str(config_path), "--mode", "none", "--seed", "3")
        with open(out_path, encoding="utf-8") as f:
            records = [json.loads(line) for line in f]
        records[0]["gold_sql"] = 5
        with open(out_path, "w", encoding="utf-8") as f:
            f.writelines(json.dumps(record) + "\n" for record in records)
        argv = ["eval", "report", "--traces", out_path, "--db-dir", micro_dataset["db_dir"]]
        with pytest.warns(TraceWarning, match=":1:.*'gold_sql' must be a string or null"):
            code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == EXIT_OK
        assert json.loads(out)["n_tasks"] == 3
        code, out, err = run_cli(capsys, *argv, "--strict")
        assert (code, out) == (EXIT_IO, "")
        assert "'gold_sql' must be a string or null, got 5" in err

    def test_resume_onto_another_runs_log_exits_before_any_task(self, capsys, micro_dataset):
        config_path, out_path = _bernoulli_config(micro_dataset, "resume.jsonl", p=0.5)
        argv = ["eval", "run", "--config", str(config_path), "--seed", "3"]
        code, _, _ = run_cli(capsys, *argv, "--mode", "llm_only", "--max-iterations", "3")
        assert code == EXIT_OK
        logged = Path(out_path).read_bytes()
        Path(micro_dataset["tasks"]).write_text(json.dumps([
            {"question": f"other question {i}?", "db_id": "battle_death", "query": "SELECT 1"}
            for i in range(6)
        ]))
        code, out, err = run_cli(capsys, *argv, "--mode", "both", "--max-iterations", "5")
        assert (code, out) == (EXIT_USAGE, "")
        assert "holds task 't0000" in err
        assert "run with ACConfig(max_iterations=3, critic_mode='llm_only'), not" in err
        assert Path(out_path).read_bytes() == logged

    def test_resume_reads_each_log_once_before_the_first_task(
        self, capsys, micro_dataset, monkeypatch
    ):
        config_path, out_path = _bernoulli_config(micro_dataset, "once.jsonl", p=0.5)
        out_dir = micro_dataset["root"] / "ablation"
        run = ["eval", "run", "--config", str(config_path), "--mode", "both", "--seed", "3"]
        ablation = ["eval", "ablation", "--config", str(config_path), "--seed", "3",
                    "--modes", "none,both", "--out-dir", str(out_dir)]
        logs = {"run": [Path(out_path)],
                "ablation": [out_dir / "traces_none.jsonl", out_dir / "traces_both.jsonl"]}
        for argv in (run, ablation):
            assert run_cli(capsys, *argv)[0] == EXIT_OK
        events = []
        read_trace_lines, run_tasks = evalkit.read_trace_lines, evalkit.run_tasks

        def read_spy(lines, path, *args, **kwargs):
            events.append(("read", Path(path)))
            return read_trace_lines(lines, path, *args, **kwargs)

        def run_spy(tasks, *args, **kwargs):
            events.append(("run", len(tasks)))
            return run_tasks(tasks, *args, **kwargs)

        monkeypatch.setattr(evalkit, "read_trace_lines", read_spy)
        monkeypatch.setattr(evalkit, "run_tasks", run_spy)
        for argv, command in ((run, "run"), (ablation, "ablation")):
            events.clear()
            assert run_cli(capsys, *argv)[0] == EXIT_OK, command
            reads = [("read", path) for path in logs[command]]
            assert events == reads + [("run", 0)] * len(reads), command

    def test_ablation_checks_every_log_before_the_first_mode(self, capsys, micro_dataset):
        config_path, _ = _bernoulli_config(micro_dataset, "unused.jsonl", p=0.4)
        config = json.loads(config_path.read_text())
        config["critic"] = {"kind": "stochastic", "q": 0.2, "s": 0.1}
        config_path.write_text(json.dumps(config))
        out_dir = micro_dataset["root"] / "ablation"
        argv = ["eval", "ablation", "--config", str(config_path), "--seed", "1",
                "--out-dir", str(out_dir)]
        code, _, _ = run_cli(capsys, *argv, "--modes", "both", "--max-iterations", "3")
        assert code == EXIT_OK
        logged = (out_dir / "traces_both.jsonl").read_bytes()
        code, out, err = run_cli(capsys, *argv, "--modes", "none,both", "--max-iterations", "5")
        assert (code, out) == (EXIT_USAGE, "")
        assert "traces_both.jsonl holds task" in err
        assert not (out_dir / "traces_none.jsonl").exists()
        assert (out_dir / "traces_both.jsonl").read_bytes() == logged

    def test_resume_over_a_bad_complete_line_exits_before_any_task(self, capsys, micro_dataset):
        config_path, out_path = _bernoulli_config(micro_dataset, "bad.jsonl", p=0.5)
        out_dir = micro_dataset["root"] / "ablation"
        run = ["eval", "run", "--config", str(config_path), "--mode", "both", "--seed", "3"]
        ablation = ["eval", "ablation", "--config", str(config_path), "--seed", "3",
                    "--out-dir", str(out_dir)]
        assert run_cli(capsys, *run)[0] == EXIT_OK
        assert run_cli(capsys, *ablation, "--modes", "both")[0] == EXIT_OK
        for log, argv in ((Path(out_path), run),
                          (out_dir / "traces_both.jsonl", [*ablation, "--modes", "none,both"])):
            lines = log.read_bytes().splitlines(keepends=True)
            lines[1] = b'{"task_id": "t00001", broken\n'
            log.write_bytes(b"".join(lines))
            os.utime(log, ns=(10**18, 10**18))
            logged = log.read_bytes()
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (EXIT_IO, ""), argv
            assert f"{log}:2:" in err
            assert log.read_bytes() == logged and log.stat().st_mtime_ns == 10**18
        assert not (out_dir / "traces_none.jsonl").exists()

    def test_log_of_two_runs_is_io_error(self, capsys, micro_dataset):
        config_path, out_path = _bernoulli_config(micro_dataset, "mixed.jsonl", p=0.5)
        for mode, z in (("llm_only", "3"), ("both", "5")):
            part = micro_dataset["root"] / f"{mode}.jsonl"
            run_cli(
                capsys,
                "eval", "run", "--config", str(config_path), "--seed", "3",
                "--mode", mode, "--max-iterations", z, "--out", str(part),
            )
            with open(out_path, "a", encoding="utf-8") as f:
                f.write(part.read_text(encoding="utf-8"))
        for command in ("report", "estimate-pqs"):
            for strict in ([], ["--strict"]):
                code, out, err = run_cli(
                    capsys,
                    "eval", command, "--traces", out_path, "--db-dir", micro_dataset["db_dir"],
                    *strict,
                )
                assert (code, out) == (EXIT_IO, ""), (command, strict)
                assert f"{out_path}:5: ACConfig(max_iterations=5, critic_mode='both')" in err
                assert "ACConfig(max_iterations=3, critic_mode='llm_only')" in err

    def test_ablation_bad_mode_rejected(self, capsys, micro_dataset):
        config_path, _ = _bernoulli_config(micro_dataset, "x.jsonl")
        for modes in (["none,sideways"], ["none,none", "--seed", "3"], [",", "--seed", "3"]):
            code, _, err = run_cli(
                capsys,
                "eval", "ablation",
                "--config", str(config_path),
                "--modes", *modes,
                "--out-dir", str(micro_dataset["root"] / "ablation"),
            )
            assert code == EXIT_USAGE, modes

    @pytest.mark.parametrize(
        "overrides, mode", list(_BAD_SETTINGS.values()), ids=list(_BAD_SETTINGS)
    )
    def test_bad_setting_exits_before_any_task(self, capsys, micro_dataset, overrides, mode):
        config_path, _ = _bernoulli_config(micro_dataset, "never.jsonl")
        out_path = micro_dataset["root"] / "missing" / "never.jsonl"  # a run would create "missing"
        config = {**json.loads(config_path.read_text()), "seed": 3, "out": str(out_path)}
        config = [config] if overrides is None else {**config, **overrides}
        config_path.write_text(json.dumps(config))
        out_dir = micro_dataset["root"] / "never"
        for argv in (
            ["eval", "run", "--config", str(config_path), "--mode", mode],
            ["eval", "ablation", "--config", str(config_path), "--modes", mode,
             "--out-dir", str(out_dir)],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (EXIT_USAGE, ""), argv
            assert err.startswith("error: "), argv
            assert not out_path.parent.exists() and not out_dir.exists(), argv

    @pytest.mark.parametrize("text", [None, "{not json"], ids=["unreadable", "malformed"])
    def test_config_file_it_cannot_read_is_io_error(self, capsys, micro_dataset, text):
        config_path = micro_dataset["root"] / "config.json"
        if text is not None:
            config_path.write_text(text)
        code, out, err = run_cli(capsys, "eval", "run", "--config", str(config_path))
        assert (code, out) == (EXIT_IO, "")
        what = "cannot read" if text is None else "malformed JSON in"
        assert err.startswith(f"error: {what} {config_path}: ")

    def test_config_mode_not_a_string_exits_before_any_task(self, capsys, micro_dataset):
        config_path, out_path = _bernoulli_config(micro_dataset, "never.jsonl")
        config = {**json.loads(config_path.read_text()), "mode": ["both"]}
        config_path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "eval", "run", "--config", str(config_path), "--seed", "3")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and "['both']" in err
        assert not Path(out_path).exists()

    def test_run_makes_the_parent_directory_of_out(self, capsys, micro_dataset):
        config_path, _ = _bernoulli_config(micro_dataset, "unused.jsonl")
        out_path = micro_dataset["root"] / "new" / "deeper" / "x.jsonl"
        code, out, _ = run_cli(
            capsys, "eval", "run", "--config", str(config_path), "--mode", "none", "--seed", "3",
            "--out", str(out_path),
        )
        assert code == EXIT_OK
        assert "traces written: 4" in out
        assert len(read_traces(out_path)) == 4

    @pytest.mark.parametrize("db_id", ["a#b", "c?e"])
    def test_report_scores_a_database_whose_path_holds_uri_characters(
        self, capsys, micro_dataset, db_id
    ):
        db_dir = Path(micro_dataset["db_dir"])
        source = database_path(db_dir, "battle_death")
        target = database_path(db_dir, db_id)
        target.parent.mkdir()
        target.write_bytes(source.read_bytes())
        files = sorted(db_dir.rglob("*"))
        iteration = IterationRecord(CORRECT_SQL, (), CORRECT_SQL)
        task = SpiderTask("t00000", db_id, "q?", CORRECT_SQL)
        out_path = micro_dataset["root"] / "uri.jsonl"
        write_traces([ACTrace(task, ACConfig(critic_mode="none"), (iteration,))], out_path)
        code, out, _ = run_cli(
            capsys, "eval", "report", "--traces", str(out_path), "--db-dir", str(db_dir), "--json"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert (report["n_tasks"], report["n_excluded"], report["ex"]) == (1, 0, 1.0)
        assert sorted(db_dir.rglob("*")) == files


    @pytest.mark.parametrize("command", ["report", "estimate-pqs"])
    def test_exec_timeout_must_be_positive(self, capsys, micro_dataset, command):
        config_path, out_path = _bernoulli_config(micro_dataset, "timed.jsonl")
        run_cli(capsys, "eval", "run", "--config", str(config_path), "--mode", "none", "--seed", "3")
        for value in ("0", "-1", "nan", "inf"):
            code, out, err = run_cli(
                capsys,
                "eval", command,
                "--traces", out_path, "--db-dir", micro_dataset["db_dir"],
                f"--exec-timeout={value}",
            )
            assert (code, out) == (EXIT_USAGE, ""), value
            assert "exec-timeout must be a finite number > 0" in err, value

    @pytest.mark.parametrize("question", ["", 5], ids=["empty", "not_a_string"])
    def test_malformed_task_exits_before_any_trace(self, capsys, micro_dataset, question):
        tasks_path = Path(micro_dataset["tasks"])
        tasks = json.loads(tasks_path.read_text())
        tasks[1]["question"] = question
        tasks_path.write_text(json.dumps(tasks))
        config_path, out_path = _bernoulli_config(micro_dataset, "never.jsonl")
        code, out, err = run_cli(
            capsys, "eval", "run", "--config", str(config_path), "--mode", "both", "--seed", "3"
        )
        assert (code, out) == (EXIT_IO, "")
        assert "task 1 needs" in err
        assert not Path(out_path).exists()


@pytest.mark.parametrize("mode", list(CRITIC_MODES))
def test_blank_actor_reply_is_a_wrong_draft(capsys, micro_dataset, mode):
    def handler(body):
        if _is_critic_request(body):
            return "True"
        return "   " if "question 2?" in body["messages"][0]["content"] else CORRECT_SQL

    out_path = micro_dataset["root"] / "blank.jsonl"
    server = StubLLMServer(handler=handler).start()
    try:
        code, out, err = run_cli(
            capsys,
            "eval", "run",
            "--tasks", micro_dataset["tasks"],
            "--tables", micro_dataset["tables"],
            "--db-dir", micro_dataset["db_dir"],
            "--mode", mode, "--max-iterations", "2", "--concurrency", "2",
            "--out", str(out_path),
            "--actor-base-url", server.base_url,
        )
    finally:
        server.stop()
    assert code == EXIT_OK, err
    assert "traces written: 4, resumed: 0, failed: 0" in out
    traces = {t.task.question: t for t in read_traces(out_path)}
    assert len(traces) == 4
    blank = traces["question 2?"]
    assert blank.final_sql == ""
    first_verdicts = [(v.source, v.accepted, v.detail) for v in blank.iterations[0].verdicts]
    expected = {
        "none": [],
        "llm_only": [("llm", True, "True")],
        # the execution critic rejects a blank draft; in "both" the LLM is not asked
        "execution_only": [("execution", False, "not a query")],
        "both": [("execution", False, "not a query")],
    }
    assert first_verdicts == expected[mode]


def _subparser(parser, *names):
    for name in names:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return parser


@pytest.mark.parametrize("command", ["run", "ablation"])
def test_every_run_flag_names_a_setting(command):
    # _load_run_config reads flags by their dest, so one naming no setting would be dropped
    settings = {f.name for f in fields(RunConfig)}
    endpoint_keys = {f"{role}_{key}" for role in ("actor", "critic")
                     for key in ("base_url", "model", "api_key_env")}
    known = {"help", "config"} | settings | endpoint_keys
    if command == "ablation":
        known |= {"modes", "out_dir"}
    dests = {action.dest for action in _subparser(build_parser(), "eval", command)._actions}
    assert dests <= known
    if command == "run":
        assert settings - {"actor", "critic"} <= dests


@pytest.mark.parametrize("mode", list(CRITIC_MODES))
def test_critic_mode_table_drives_cli(capsys, micro_dataset, mode):
    run_parser = _subparser(build_parser(), "eval", "run")
    mode_flag = next(a for a in run_parser._actions if a.dest == "mode")
    assert tuple(mode_flag.choices) == tuple(CRITIC_MODES)

    config_path, _ = _bernoulli_config(micro_dataset, "unused.jsonl")
    code, out, _ = run_cli(
        capsys,
        "eval", "ablation",
        "--config", str(config_path), "--seed", "1",
        "--modes", mode,
        "--out-dir", str(micro_dataset["root"] / "table"),
    )
    assert code == EXIT_OK
    assert [r["mode"] for r in json.loads(out[out.index("\n[") + 1:])] == [mode]

    server = StubLLMServer(lambda body: "True").start()
    try:
        config = RunConfig(db_dir=micro_dataset["db_dir"], actor={"base_url": server.base_url})
        _, _, critic_factory = _build_factories(config, mode, defaultdict(ReplyTable))
        critic = critic_factory(SpiderTask("t00000", "battle_death", "q?", CORRECT_SQL))
        if not CRITIC_MODES[mode]:
            assert critic == ()
            return
        # CORRECT_SQL executes, so every component accepts, in table order
        verdicts = [component(CORRECT_SQL, "", "q?") for component in critic]
    finally:
        server.stop()
    assert isinstance(critic, tuple)
    assert [v.source for v in verdicts] == list(CRITIC_MODES[mode])
    assert all(v.accepted for v in verdicts)
    # the judge gets the candidate, schema and question in component order
    prompt = build_critic_prompt("", "q?", CORRECT_SQL)[-1].content
    assert [r["body"]["messages"][-1]["content"] for r in server.requests] == (
        [prompt] * CRITIC_MODES[mode].count("llm")
    )


# ---------------------------------------------------------------------------
# The modes of one command share the replies to identical requests
# ---------------------------------------------------------------------------


def _is_first_draft(body):
    return not _is_critic_request(body) and len(body["messages"]) == 1


def _question(body):
    """The micro_dataset question a request is about, such as "question 2?"."""
    return re.search(r"question \d\?", body["messages"][0]["content"]).group(0)


def _eval_against(capsys, micro_dataset, server, command, *argv):
    """`acsql eval <command>` over micro_dataset, both LLM agents on server, no retries."""
    config = {
        "tasks": micro_dataset["tasks"],
        "tables": micro_dataset["tables"],
        "db_dir": micro_dataset["db_dir"],
        "concurrency": 2,
        "actor": {"base_url": server.base_url, "max_retries": 0},
    }
    path = micro_dataset["root"] / "llm.json"
    path.write_text(json.dumps(config))
    return run_cli(capsys, "eval", command, "--config", str(path), *argv)


def test_ablation_sends_each_first_draft_request_once(capsys, micro_dataset):
    server = StubLLMServer(
        lambda body: "True" if _is_critic_request(body) else CORRECT_SQL
    ).start()
    out_dir = micro_dataset["root"] / "shared"
    try:
        code, _, err = _eval_against(capsys, micro_dataset, server, "ablation",
                                     "--modes", "none,llm_only", "--out-dir", str(out_dir))
    finally:
        server.stop()
    assert code == EXIT_OK, err
    drafts = [_question(r["body"]) for r in server.requests if _is_first_draft(r["body"])]
    assert sorted(drafts) == [f"question {i}?" for i in range(4)]
    assert len(server.requests) == 8  # four first drafts, four critic requests
    for mode in ("none", "llm_only"):
        traces = read_traces(evalkit.ablation_log(out_dir, mode))
        assert [t.final_sql for t in traces] == [CORRECT_SQL] * 4, mode


def test_a_mode_sends_a_repeated_request_each_time(capsys, micro_dataset):
    # The actor repeats its SQL and the critic always rejects it: llm_only
    # sends one critic request at each of the 3 reviewed iterations, and
    # "both" is then served those 3 replies in order, sending none.
    server = StubLLMServer(
        lambda body: "False" if _is_critic_request(body) else CORRECT_SQL
    ).start()
    out_dir = micro_dataset["root"] / "repeated"
    try:
        code, _, err = _eval_against(capsys, micro_dataset, server, "ablation",
                                     "--modes", "llm_only,both", "--max-iterations", "4",
                                     "--out-dir", str(out_dir))
    finally:
        server.stop()
    assert code == EXIT_OK, err
    critic = Counter(json.dumps(r["body"]) for r in server.requests
                     if _is_critic_request(r["body"]))
    assert sorted(critic.values()) == [3] * 4
    actor = Counter(_question(r["body"]) for r in server.requests
                    if not _is_critic_request(r["body"]))
    assert actor == {f"question {i}?": 4 for i in range(4)}  # each dialogue once
    for trace in read_traces(evalkit.ablation_log(out_dir, "both")):
        verdicts = [[(v.source, v.accepted) for v in it.verdicts] for it in trace.iterations]
        assert verdicts == [[("execution", True), ("llm", False)]] * 3 + [[]]


@pytest.mark.parametrize("role, modes", [("actor", "none,llm_only"), ("critic", "llm_only,both")])
def test_a_failed_request_is_sent_again_by_the_next_mode(capsys, micro_dataset, role, modes):
    failing = _is_critic_request if role == "critic" else _is_first_draft
    failed = set()

    def handler(body):
        request = json.dumps(body)
        if failing(body) and request not in failed:
            failed.add(request)
            return 500, "overloaded"
        return "True" if _is_critic_request(body) else CORRECT_SQL

    server = StubLLMServer(handler).start()
    out_dir = micro_dataset["root"] / "failed"
    try:
        code, _, err = _eval_against(capsys, micro_dataset, server, "ablation",
                                     "--modes", modes, "--max-iterations", "2",
                                     "--out-dir", str(out_dir))
    finally:
        server.stop()
    sent = Counter(_question(r["body"]) for r in server.requests if failing(r["body"]))
    assert sent == {f"question {i}?": 2 for i in range(4)}
    first, second = modes.split(",")
    second_traces = read_traces(evalkit.ablation_log(out_dir, second))
    assert [t.final_sql for t in second_traces] == [CORRECT_SQL] * 4
    if role == "actor":  # every first draft failed in "none", so it wrote no trace
        assert code == 4
        assert not read_traces(evalkit.ablation_log(out_dir, first))
    else:
        assert code == EXIT_OK, err
        for trace in read_traces(evalkit.ablation_log(out_dir, first)):
            assert trace.iterations[0].verdicts[0].detail.startswith("transport failure")
        for trace in second_traces:
            assert trace.iterations[0].verdicts[-1] == Verdict(True, "llm", "True")


def test_ablations_in_one_process_share_no_replies(capsys, micro_dataset):
    server = StubLLMServer(lambda body: CORRECT_SQL).start()
    try:
        for out_dir in ("first", "second"):
            code, _, err = _eval_against(capsys, micro_dataset, server, "ablation",
                                         "--modes", "none",
                                         "--out-dir", str(micro_dataset["root"] / out_dir))
            assert code == EXIT_OK, err
    finally:
        server.stop()
    drafts = Counter(_question(r["body"]) for r in server.requests)
    assert drafts == {f"question {i}?": 2 for i in range(4)}


def _scripted_reply(body):
    """A reply that is a function of the request, varying by task and turn."""
    draw = hashlib.sha256(json.dumps(body["messages"]).encode()).digest()[0]
    if _is_critic_request(body):
        return "True" if draw % 2 else "False"
    return [CORRECT_SQL, WRONG_SQL, "SELECT nope FROM battle"][draw % 3]


def test_ablation_equals_separate_runs_against_a_deterministic_endpoint(capsys, micro_dataset):
    modes = ["none", "llm_only", "both"]
    root = micro_dataset["root"]
    server = StubLLMServer(_scripted_reply).start()
    try:
        code, out, err = _eval_against(capsys, micro_dataset, server, "ablation",
                                       "--modes", ",".join(modes), "--max-iterations", "3",
                                       "--out-dir", str(root / "ablation"))
        assert code == EXIT_OK, err
        ablation_ex = {r["mode"]: r["ex"] for r in json.loads(out[out.index("\n[") + 1:])}
        shared_requests = len(server.requests)
        run_ex = {}
        for mode in modes:
            code, _, err = _eval_against(capsys, micro_dataset, server, "run", "--mode", mode,
                                         "--max-iterations", "3",
                                         "--out", str(root / f"{mode}.jsonl"))
            assert code == EXIT_OK, err
            code, out, _ = run_cli(capsys, "eval", "report", "--traces", str(root / f"{mode}.jsonl"),
                                   "--db-dir", micro_dataset["db_dir"], "--json")
            run_ex[mode] = json.loads(out)["ex"]
    finally:
        server.stop()
    for mode in modes:
        shared = evalkit.ablation_log(root / "ablation", mode).read_bytes()
        alone = (root / f"{mode}.jsonl").read_bytes()
        assert sorted(shared.splitlines()) == sorted(alone.splitlines()), mode
    assert ablation_ex == run_ex
    # the runs sent every request the ablation sent, and the ablation fewer
    bodies = [json.dumps(r["body"], sort_keys=True) for r in server.requests]
    assert set(bodies[:shared_requests]) == set(bodies[shared_requests:])
    assert shared_requests < len(bodies) - shared_requests
    assert any(len(t.iterations) > 1 for t in read_traces(root / "both.jsonl"))


@pytest.mark.parametrize("actor, critic, expected", [
    ({}, {}, (0.7, 0.0)),
    ({}, {"temperature": 0.4}, (0.7, 0.4)),
    # a critic with no base_url takes the actor's block under its own keys
    ({"temperature": 0.2}, {}, (0.2, 0.2)),
    ({"temperature": 0.2}, {"own_endpoint": True}, (0.2, 0.0)),
])
def test_each_role_samples_at_its_temperature(micro_dataset, actor, critic, expected):
    server = StubLLMServer(lambda body: "True").start()
    try:
        if critic.pop("own_endpoint", False):
            critic = {"base_url": server.base_url}
        config = RunConfig(db_dir=micro_dataset["db_dir"],
                           actor={"base_url": server.base_url, **actor}, critic=critic)
        _, actor_factory, critic_factory = _build_factories(config, "llm_only", defaultdict(ReplyTable))
        task = SpiderTask("t00000", "battle_death", "q?", CORRECT_SQL)
        actor_factory(task).respond([ChatMessage("user", "q?")])
        (judge,) = critic_factory(task)
        judge(CORRECT_SQL, "", "q?")
    finally:
        server.stop()
    assert tuple(r["body"]["temperature"] for r in server.requests) == expected
