"""Acceptance suite: one test per release criterion, each printing PASS.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The slowest test is the full-size Monte-Carlo agreement run
(criterion 3), which draws 10^7 samples per parameter cell.
"""

import hashlib
import json
import random
import time

import pytest

from acsql.agents import (
    CORRECT_SQL,
    BernoulliActor,
    StochasticCritic,
)
from acsql.cli import main as cli_main
from acsql.engine import ACConfig, run_ac_loop, trace_to_dict
from acsql.evalkit import execution_accuracy
from acsql.mc_sim import SimulationConfig, simulate
from acsql.spider_data import SpiderTask
from acsql.theory import ACParams, contour_grid, enumerate_prob, expected_prob

from doubles import ScriptedActor, ScriptedCritic
from test_evalkit import SCORED_PAIRS
from test_theory import REFERENCE_CELLS
from stub_llm import StubLLMServer


def _announce(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number} ({description}): PASS")


def test_criterion_01_closed_form_reference_grid():
    checked = 0
    start = time.perf_counter()
    for (p, q, s), expected_by_z in REFERENCE_CELLS.items():
        for z, expected in enumerate(expected_by_z, start=1):
            got = expected_prob(ACParams(p=p, q=q, s=s, z=z))
            assert abs(got - expected) <= 5e-6, (p, q, s, z, got, expected)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 40
    assert elapsed < 1.0, f"closed form too slow: {elapsed:.3f}s"
    _announce(1, "closed form matches all 40 reference cells within 5e-6, < 1s")


def test_criterion_02_oracle_equivalence():
    rng = random.Random(20240601)
    checked = 0
    for _ in range(100):
        p, q, s = rng.random(), rng.random(), rng.random()
        for z in range(1, 11):
            params = ACParams(p=p, q=q, s=s, z=z)
            assert abs(expected_prob(params) - enumerate_prob(params)) <= 1e-12
            checked += 1
    assert checked == 1000
    _announce(2, "enumeration oracle equals closed form within 1e-12 on 1000 points")


def test_criterion_03_simulation_reference_grid():
    for (p, q, s), expected_by_z in REFERENCE_CELLS.items():
        for z, expected in enumerate(expected_by_z, start=1):
            report = simulate(
                SimulationConfig(
                    params=ACParams(p=p, q=q, s=s, z=z),
                    trials=1_000_000,
                    repeats=10,
                    seed=90_000 + z,
                )
            )
            assert abs(report.estimated_accuracy - expected) <= 2e-3, (
                p, q, s, z, report.estimated_accuracy, expected,
            )
    _announce(3, "10^7-sample simulation matches all 40 reference cells within 2e-3")


def test_criterion_04_estimated_operating_point_anchor():
    got = expected_prob(ACParams(p=0.3774, q=0.2541, s=0.1973, z=5))
    assert abs(got - 0.6334) <= 1e-4, got
    _announce(4, "closed form at the measured (p, q, s) operating point is 0.6334 +- 1e-4")


def test_criterion_05_gain_boundary_lattice():
    resolution = 101
    for p in (0.25, 0.75):
        for z in (2, 5):
            grid = contour_grid(p=p, z=z, resolution=resolution)
            for i in range(resolution):
                for j in range(resolution):
                    prob = grid.prob[i][j]
                    index_sum = i + j
                    if index_sum == resolution - 1:  # q + s = 1 exactly
                        assert abs(prob - p) <= 1e-9, (p, z, i, j, prob)
                    elif index_sum < resolution - 1:  # gain region
                        assert prob >= p - 1e-12, (p, z, i, j, prob)
                    else:  # loss region
                        assert prob <= p + 1e-12, (p, z, i, j, prob)
    _announce(5, "101x101 lattice: boundary carries p within 1e-9, gain/loss sides ordered")


BRIDGE_TRIPLES = [
    (0.25, 0.25, 0.25, 5),
    (0.75, 0.25, 0.25, 3),
    (0.3774, 0.2541, 0.1973, 5),
    (0.6, 0.8, 0.5, 4),
    (0.5, 0.5, 0.5, 2),
]


def _bridge_run(p: float, q: float, s: float, z: int, n: int, seed: int):
    """Run the loop n times with coin-flip agents; returns (hit rate, digest)."""
    rng = random.Random(seed)
    actor = BernoulliActor(p, rng)
    critic = StochasticCritic(q, s, rng)
    config = ACConfig(max_iterations=z)
    ddl = "CREATE TABLE t ( a INT );"
    hits = 0
    digest = hashlib.sha256()
    for i in range(n):
        task = SpiderTask(task_id=f"t{i:06d}", db_id="synthetic", question="q?")
        trace = run_ac_loop(actor, (critic.judge,), task, config, ddl)
        hits += trace.final_sql == CORRECT_SQL
        digest.update(json.dumps(trace_to_dict(trace), sort_keys=True).encode())
    return hits / n, digest.hexdigest()


def test_criterion_06_engine_theory_bridge():
    n = 100_000
    for k, (p, q, s, z) in enumerate(BRIDGE_TRIPLES):
        rate, _ = _bridge_run(p, q, s, z, n, seed=6000 + k)
        prob = expected_prob(ACParams(p=p, q=q, s=s, z=z))
        sigma = (prob * (1 - prob) / n) ** 0.5
        assert abs(rate - prob) <= 3 * sigma, (p, q, s, z, rate, prob)
    _announce(6, "loop with coin-flip agents matches closed form within 3 sigma x5 triples")


TONNAGE_QUESTION = (
    "What are the death and injury situations caused by the ship with tonnage 't ' ?"
)
FIRST_TRY_SQL = "SELECT killed, injured FROM death WHERE caused_by_ship_id = t;"
JOIN_SQL = (
    "SELECT T1.killed , T1.injured FROM death AS T1 JOIN ship AS t2 "
    "ON T1.caused_by_ship_id = T2.id WHERE T2.tonnage = 't'"
)
REGEN_PROMPT = (
    "Please provide a new SQL query to the question only without explanation: "
    + TONNAGE_QUESTION
)


def test_criterion_07_scripted_dialogue_replay(battle_ddl):
    task = SpiderTask("t00000", "battle_death", TONNAGE_QUESTION, None)

    # Rejected first attempt, accepted rework.
    actor = ScriptedActor([FIRST_TRY_SQL, JOIN_SQL])
    critic = ScriptedCritic([False, True])
    trace = run_ac_loop(actor, (critic.judge,), task, ACConfig(max_iterations=5), battle_ddl)
    assert len(trace.iterations) == 2
    assert trace.stopped_by == "accepted"
    assert trace.iterations[0].generated_sql == FIRST_TRY_SQL
    assert trace.iterations[1].generated_sql == JOIN_SQL
    assert trace.final_sql == JOIN_SQL
    assert [v.accepted for v in trace.iterations[0].verdicts] == [False]
    assert [v.accepted for v in trace.iterations[1].verdicts] == [True]
    regen_turn = actor.received[1][-1]
    assert regen_turn.role == "user"
    assert regen_turn.content == REGEN_PROMPT

    # Stuck actor: every verdict rejects, budget runs out, the final
    # generation is emitted without review.
    actor = ScriptedActor([FIRST_TRY_SQL], cycle_last=True)
    critic = ScriptedCritic([False, False])
    trace = run_ac_loop(actor, (critic.judge,), task, ACConfig(max_iterations=3), battle_ddl)
    assert len(trace.iterations) == 3
    assert trace.stopped_by == "budget_exhausted"
    assert trace.final_sql == FIRST_TRY_SQL
    assert trace.iterations[2].verdicts == ()
    assert all(r.generated_sql == FIRST_TRY_SQL for r in trace.iterations)
    for call in actor.received[1:]:
        assert call[-1].content == REGEN_PROMPT
    _announce(7, "scripted dialogues replay byte-exactly incl. the regeneration prompt")


def test_criterion_08_execution_accuracy_fixtures(battle_db):
    assert len(SCORED_PAIRS) >= 10
    for predicted, gold, expected in SCORED_PAIRS:
        assert execution_accuracy(predicted, gold, battle_db) is expected, (predicted, gold)
    _announce(8, f"{len(SCORED_PAIRS)} hand-scored (predicted, gold) pairs all agree")


# ---------------------------------------------------------------------------
# Criterion 9: offline end-to-end smoke over a scripted stub endpoint.
# Absolute benchmark numbers from full-size LLM runs are out of desk-scale
# reach (they need specific checkpoints and paid APIs); this replaces them
# with a deterministic micro-benchmark whose EX per critic mode is known by
# hand: none 1/5, llm_only 4/5, execution_only 3/5, both 5/5.
# ---------------------------------------------------------------------------

GOLD = "SELECT count(*) FROM battle"  # evaluates to (2,) on the fixture db
CORRECT = GOLD
SMOKE_TASKS = {
    "question one?": [CORRECT],
    "question two?": ["SELECT missing FROM death", CORRECT],
    "question three?": ["SELECT 93", CORRECT],
    "question four?": ["SELECT missing FROM ship", CORRECT],
    "question five?": ["SELECT missing FROM battle", "SELECT 95", CORRECT],
}
LLM_VERDICTS = {
    CORRECT: "True",
    "SELECT missing FROM death": "False",
    "SELECT missing FROM ship": "True",  # fooled by an invalid candidate
    "SELECT missing FROM battle": "False",
    "SELECT 93": "False",
    "SELECT 95": "False",
}
EXPECTED_EX = {"none": 0.2, "llm_only": 0.8, "execution_only": 0.6, "both": 1.0}


def _smoke_handler(body: dict):
    messages = body["messages"]
    last = messages[-1]["content"]
    if "Answer True if the SQL query is correct" in last:
        candidate = last.split(" SQL: ", 1)[1]
        return LLM_VERDICTS[candidate]
    for question, script in SMOKE_TASKS.items():
        if question in last:
            attempt = sum(1 for m in messages if m["role"] == "assistant")
            return script[min(attempt, len(script) - 1)]
    raise AssertionError(f"unrecognized request: {last[:120]}")


def test_criterion_09_offline_end_to_end_smoke(spider_layout, tmp_path, capsys):
    tasks = [
        {"question": question, "db_id": "battle_death", "query": GOLD}
        for question in SMOKE_TASKS
    ]
    tasks_path = spider_layout["root"] / "smoke_tasks.json"
    tasks_path.write_text(json.dumps(tasks))
    out_dir = tmp_path / "smoke_ablation"

    server = StubLLMServer(handler=_smoke_handler).start()
    try:
        code = cli_main(
            [
                "eval", "ablation",
                "--tasks", str(tasks_path),
                "--tables", str(spider_layout["tables"]),
                "--db-dir", str(spider_layout["db_dir"]),
                "--modes", "none,llm_only,execution_only,both",
                "--out-dir", str(out_dir),
                "--max-iterations", "5",
                "--concurrency", "2",
                "--actor-base-url", server.base_url,
                "--actor-model", "scripted",
            ]
        )
    finally:
        server.stop()
    captured = capsys.readouterr()
    assert code == 0, captured.err
    payload = json.loads(captured.out[captured.out.index("[") :])
    assert [r["mode"] for r in payload] == ["none", "llm_only", "execution_only", "both"]
    for row in payload:
        assert row["n_tasks"] == 5
        assert row["ex"] == pytest.approx(EXPECTED_EX[row["mode"]], abs=1e-12), row
    baseline = payload[0]["ex"]
    assert payload[3]["abs_improvement"] == pytest.approx(1.0 - baseline, abs=1e-12)
    _announce(9, "stub-endpoint smoke run reproduces hand-computed EX in all 4 modes")


def test_criterion_10_determinism():
    config = SimulationConfig(
        params=ACParams(0.75, 0.25, 0.25, 4), trials=200_000, repeats=5, seed=31337
    )
    first, second = simulate(config), simulate(config)
    assert first == second
    assert first.to_json() == second.to_json()

    rate_a, digest_a = _bridge_run(0.4, 0.3, 0.2, 4, n=10_000, seed=777)
    rate_b, digest_b = _bridge_run(0.4, 0.3, 0.2, 4, n=10_000, seed=777)
    assert rate_a == rate_b
    assert digest_a == digest_b
    _announce(10, "seeded simulation and loop runs are bit-identical")
