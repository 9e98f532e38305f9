"""CLI tests: flag parsing, output contracts, exit codes, reproducibility."""

import argparse
import json

import pytest

from acsql.agents import CORRECT_SQL, CRITIC_MODES, CompositeCritic
from acsql.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, RunConfig, _build_factories, build_parser, main
from acsql.engine import read_traces
from acsql.spider_data import SpiderTask


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

    def test_out_of_range_probability_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["theory", "prob", "--p", "1.5", "--q", "0", "--s", "0", "--z", "2"])
        assert exc.value.code == 2


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

    def test_zero_trials_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--p", "0.5", "--q", "0.5", "--s", "0.5", "--z", "2", "--trials", "0"])
        assert exc.value.code == 2


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

    def test_ablation_bad_mode_rejected(self, capsys, micro_dataset):
        config_path, _ = _bernoulli_config(micro_dataset, "x.jsonl")
        code, _, err = run_cli(
            capsys,
            "eval", "ablation",
            "--config", str(config_path),
            "--modes", "none,sideways",
            "--out-dir", str(micro_dataset["root"] / "ablation"),
        )
        assert code == EXIT_USAGE


def _subparser(parser, *names):
    for name in names:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return parser


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

    config = RunConfig(
        db_dir=micro_dataset["db_dir"], actor={"base_url": "http://127.0.0.1:9/v1"}
    )
    _, critic_factory = _build_factories(config, mode)
    critic = critic_factory(SpiderTask("t00000", "battle_death", "q?", CORRECT_SQL))
    components = CRITIC_MODES[mode]
    if not components:
        assert critic is None
        return
    assert isinstance(critic, CompositeCritic)
    assert critic.components == components
    assert (critic.database is not None) == ("execution" in components)
    assert (critic.llm_judge is not None) == ("llm" in components)
