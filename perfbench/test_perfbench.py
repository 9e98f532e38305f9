"""Tests of the benchmark's own parts: stub, generator, tracing.

Run from the repository root: python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys
from pathlib import Path

import pytest
import requests

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402
from calib import busy_slowdown  # noqa: E402
from stub import ChatStub  # noqa: E402
from tracing import Span, Tracer, covered_length, self_times  # noqa: E402

GOLD = "SELECT count(*) FROM item WHERE val > 10"
QUESTION = "How many item rows have val above 10 (request 0)"


def actor_body(question: str, history: int = 0) -> dict:
    messages = [{"role": "user", "content": f"schema\n\nCreate a SQL query: {question}"}]
    for i in range(history):
        messages += [
            {"role": "assistant", "content": f"draft {i}"},
            {"role": "user", "content": f"Please provide a new SQL query: {question}"},
        ]
    return {"model": gen.STUB["actor_model"], "messages": messages}


def critic_body(question: str, sql: str) -> dict:
    content = f"schema\n\nAnswer True or False. Question: {question} SQL: {sql}"
    return {"model": gen.STUB["critic_model"], "messages": [{"role": "user", "content": content}]}


def served(stub: ChatStub, body: dict) -> tuple[int, str]:
    """Reply as the client sees it: a 503 is retried once."""
    status, content = stub.reply(body)
    return stub.reply(body) if status == 503 else (status, content)


def test_stub_replies_are_a_function_of_the_request():
    answers = [(f"q{i} (request {i})", f"{GOLD} AND id > {i}") for i in range(200)]
    bodies = [actor_body(q, h) for q, _ in answers for h in (0, 1)]
    bodies += [critic_body(q, sql) for q, gold in answers for sql in (gold, gold + " )")]
    first = [served(ChatStub(answers, gen.STUB), b) for b in bodies]
    again = ChatStub(answers, gen.STUB)
    assert [served(again, b) for b in reversed(bodies)] == first[::-1]
    assert all(status == 200 for status, _ in first)


def test_stub_reply_mix_follows_the_rates():
    answers = [(f"q{i} (request {i})", f"{GOLD} AND id > {i}") for i in range(3000)]
    stub = ChatStub(answers, gen.STUB)
    gold_share = sum(
        served(stub, actor_body(q))[1] in (gold, f"```sql\n{gold}\n```")
        for q, gold in answers
    ) / len(answers)
    reject_correct = sum(
        served(stub, critic_body(q, gold))[1] == "False" for q, gold in answers
    ) / len(answers)
    accept_wrong = sum(
        served(stub, critic_body(q, gen.wrong_sql(gold, 1)))[1] == "True"
        for q, gold in answers
    ) / len(answers)
    assert abs(gold_share - gen.STUB["p_gold"]) < 0.04
    assert abs(reject_correct - gen.STUB["s"]) < 0.04
    assert abs(accept_wrong - gen.STUB["q"]) < 0.04
    assert 0 < stub.unavailable < 0.1 * 3 * len(answers)  # 503s among first attempts


def test_stub_answers_503_once_then_serves_the_retry():
    answers = [(f"q{i} (request {i})", GOLD) for i in range(400)]
    stub = ChatStub(answers, gen.STUB)
    statuses = [stub.reply(actor_body(q))[0] for q, _ in answers]
    unavailable = [q for (q, _), status in zip(answers, statuses) if status == 503]
    assert unavailable and len(unavailable) < 0.15 * len(answers)
    assert all(stub.reply(actor_body(q))[0] == 200 for q in unavailable)


def test_stub_counts_requests_and_keep_alive_connections():
    stub = ChatStub([(QUESTION, GOLD)], {**gen.STUB, "retry_share": 0.0, "delay_s": 0.0}).start()
    try:
        url = f"{stub.base_url}/chat/completions"
        with requests.Session() as session:
            for _ in range(3):
                resp = session.post(url, json=actor_body(QUESTION), timeout=10)
                assert resp.status_code == 200
        requests.post(url, json=critic_body(QUESTION, GOLD), timeout=10)
        assert stub.stats() == {"requests": 4, "connections": 2, "unavailable": 0}
    finally:
        stub.stop()


def test_generator_is_seeded(tmp_path):
    first = gen.generate_score(5, tmp_path / "a")
    second = gen.generate_score(5, tmp_path / "b")
    assert first["expected"] == second["expected"]
    assert first["properties"] == second["properties"]
    assert Path(first["traces"]).read_bytes() == Path(second["traces"]).read_bytes()
    other = gen.generate_score(6, tmp_path / "c")
    assert Path(other["traces"]).read_bytes() != Path(first["traces"]).read_bytes()


def test_score_log_lines_are_unique_tasks(tmp_path):
    manifest = gen.generate_score(3, tmp_path)
    lines = [json.loads(x) for x in Path(manifest["traces"]).read_text().splitlines()]
    assert len({line["task_id"] for line in lines}) == len(lines) == manifest["n_traces"]


def span(span_id, parent, start, end):
    return Span(span_id, parent, f"s{span_id}", start, end, None, 0)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 4), (8, 12)], 0, 10) == 5
    assert covered_length([], 0, 10) == 0
    assert covered_length([(0, 10), (2, 3)], 0, 10) == 10


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 2, 1.5, 3.5),  # grandchild: counts against span 2 only
        span(4, 1, 6.0, 7.0),
    ]
    assert self_times(spans) == {1: 6.0, 2: 1.0, 3: 2.0, 4: 1.0}


def test_busy_slowdown_scales_only_the_computing_share():
    assert busy_slowdown(1.5, 1.0) == 1.5
    assert busy_slowdown(1.5, 0.0) == 1.0
    assert busy_slowdown(2.0, 0.5) == 1 / 0.75


def test_tracer_rebinds_every_importer_and_restores():
    from acsql import agents, evalkit, sqlexec

    original = sqlexec.run_query
    tracer = Tracer()
    missing = tracer.install(["sqlexec.run_query", "agents.LLMActor.respond", "nosuch.thing"])
    try:
        assert missing == ["nosuch.thing"]
        assert sqlexec.run_query is agents.run_query is evalkit.run_query
        assert sqlexec.run_query is not original
        assert agents.LLMActor.__dict__["respond"].__name__ == "traced"
    finally:
        tracer.uninstall()
    assert sqlexec.run_query is agents.run_query is evalkit.run_query is original


def test_tracer_nests_spans_per_thread():
    tracer = Tracer()

    def inner():
        return tracer.call("inner", lambda: 1, (), {})

    tracer.call("outer", inner, (), {}, task="t1")
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].span_id
    assert by_name["inner"].task == "t1"
    assert tracer.summary()["outer"]["calls"] == 1


@pytest.mark.parametrize("z", gen.MODEL_Z)
def test_model_pool_cells_sit_within_the_agreement_bound(z):
    from acsql import mc_sim, theory

    for cell in gen.model_cell_pool()[z]:
        config = mc_sim.SimulationConfig(
            theory.ACParams(cell["p"], cell["q"], cell["s"], z),
            trials=gen.MODEL_TRIALS,
            repeats=gen.MODEL_REPEATS,
            seed=cell["seed"],
        )
        report = mc_sim.simulate(config)
        bound = mc_sim.agreement_bound(report.theory_prob, gen.MODEL_TRIALS, gen.MODEL_REPEATS)
        assert report.abs_difference <= bound, cell
