"""Seeded input generator for the benchmark workloads.

Everything the program under test reads is written here from the run
seed: the same seed gives byte-identical task, schema and trace files and
databases with identical rows. Alongside the inputs the generator returns
a manifest holding what the checks need (the planted answers) and the
input properties an optimisation may depend on.
"""

import json
import random
import sqlite3
from pathlib import Path

# --------------------------------------------------------------------------
# model workload
# --------------------------------------------------------------------------

MODEL_Z = (1, 2, 3, 5, 8, 12, 16, 20)
MODEL_TRIALS = 250_000
MODEL_REPEATS = 2
GRID_RESOLUTION = 101
GRID_PAIRS = 4
_POOL_PER_Z = 6


def model_cell_pool() -> dict[int, list[dict]]:
    """Fixed pool of (p, q, s, z, seed) cells, six per budget z.

    The cells are fixed rather than drawn from the run seed for two
    reasons. The check is a 3-sigma bound, which a fresh draw misses by
    chance on about one cell in 370, so some run seeds would fail through
    no fault of the simulator; every pool cell was checked against the
    bound at MODEL_TRIALS x MODEL_REPEATS (test_perfbench.py checks them
    again). And a cell's cost depends on (p, q, s) by up to 30%, so a
    seeded pick of cells would make the rate depend on the seed.
    """
    rng = random.Random(2410)
    pool: dict[int, list[dict]] = {}
    for z in MODEL_Z:
        pool[z] = []
        for k in range(_POOL_PER_Z):
            p, q, s = (round(rng.uniform(0.05, 0.95), 2) for _ in range(3))
            pool[z].append({"p": p, "q": q, "s": s, "z": z, "seed": 100 * z + k})
    return pool


def generate_model(seed: int, work: Path) -> dict:
    """Pass k simulates cell (offset + k) mod 6 of every z, so each run
    sweeps the whole pool in turn; the seed picks the offset and the four
    contour (p, z) pairs."""
    rng = random.Random(seed)
    pool = model_cell_pool()
    grids = [
        {"p": round(rng.uniform(0.05, 0.95), 2), "z": rng.randint(1, 20)}
        for _ in range(GRID_PAIRS)
    ]
    return {
        "pool": [pool[z] for z in MODEL_Z],
        "offset": rng.randrange(_POOL_PER_Z),
        "trials": MODEL_TRIALS,
        "repeats": MODEL_REPEATS,
        "grids": grids,
        "resolution": GRID_RESOLUTION,
        "properties": {
            "pool_cells": len(MODEL_Z) * _POOL_PER_Z,
            "cells_per_pass": len(MODEL_Z),
            "max_z": max(MODEL_Z),
            "trials": MODEL_TRIALS,
            "repeats": MODEL_REPEATS,
            "grid_points_per_pass": GRID_PAIRS * GRID_RESOLUTION**2,
        },
    }


# --------------------------------------------------------------------------
# Spider-format databases and gold SQL
# --------------------------------------------------------------------------

TABLES = ("item", "shop", "sale")
COLUMNS = (
    ("id", "number", "INTEGER PRIMARY KEY"),
    ("name", "text", "TEXT"),
    ("cat", "text", "TEXT"),
    ("val", "number", "INTEGER"),
    ("price", "number", "REAL"),
    ("ref", "number", "INTEGER"),
)
CATEGORIES = ("red", "green", "blue", "amber", "teal")


GOLD_KINDS = 8


def _gold_candidate(rng: random.Random, kind: int) -> tuple[str, str]:
    """One (question stem, gold SQL) pair of the given kind; no colon in the stem.

    Parameter ranges are narrow so that golds of one kind cost about the
    same on every seed.
    """
    i = rng.randrange(len(TABLES))
    t, t2 = TABLES[i], TABLES[(i + 1) % len(TABLES)]
    c = rng.choice(CATEGORIES)
    k = rng.randrange(100, 900)
    if kind == 0:
        return f"How many {t} rows have val above {k}", f"SELECT count(*) FROM {t} WHERE val > {k}"
    if kind == 1:
        n = rng.randrange(3, 12)
        return (
            f"List the {n} priciest {c} {t} rows",
            f"SELECT name, price FROM {t} WHERE cat = '{c}' ORDER BY price DESC, id LIMIT {n}",
        )
    if kind == 2:
        return f"Average {t} price per category", f"SELECT cat, avg(price) FROM {t} GROUP BY cat"
    if kind == 3:
        width = rng.randrange(40, 60)
        return (
            f"Names and values of {t} rows with val between {k} and {k + width}",
            f"SELECT name, val FROM {t} WHERE val BETWEEN {k} AND {k + width}",
        )
    if kind == 4:
        k = rng.randrange(40, 60)
        return (
            f"{t} names with the price of their {t2} where val is below {k}",
            f"SELECT T1.name, T2.price FROM {t} AS T1 JOIN {t2} AS T2 ON T1.ref = T2.id "
            f"WHERE T1.val < {k}",
        )
    if kind == 5:
        return (
            f"{t} row counts per category, most common first",
            f"SELECT cat, count(*) FROM {t} GROUP BY cat ORDER BY count(*) DESC, cat",
        )
    if kind == 6:
        return (
            f"Highest price and lowest val among {c} {t} rows",
            f"SELECT max(price), min(val) FROM {t} WHERE cat = '{c}'",
        )
    return (
        f"Total {t} price over rows whose {t2} has val above {k}",
        f"SELECT sum(price) FROM {t} WHERE ref IN (SELECT id FROM {t2} WHERE val > {k})",
    )


def _write_database(path: Path, rng: random.Random, rows: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(path)
    try:
        for t in TABLES:
            cols = ", ".join(f"{name} {decl}" for name, _, decl in COLUMNS)
            conn.execute(f"CREATE TABLE {t} ({cols})")
            conn.executemany(
                f"INSERT INTO {t} VALUES (?, ?, ?, ?, ?, ?)",
                [
                    (
                        i,
                        f"n{rng.randrange(10**6)}",
                        rng.choice(CATEGORIES),
                        rng.randrange(1000),
                        rng.uniform(1.0, 500.0),
                        rng.randrange(1, rows + 1),
                    )
                    for i in range(1, rows + 1)
                ],
            )
        conn.commit()
    finally:
        conn.close()


def _tables_entry(db_id: str) -> dict:
    names = [[-1, "*"]]
    types = ["text"]
    primary, foreign = [], []
    for ti, _ in enumerate(TABLES):
        for name, kind, _ in COLUMNS:
            names.append([ti, name])
            types.append(kind)
    per_table = len(COLUMNS)
    for ti in range(len(TABLES)):
        id_col = 1 + ti * per_table
        ref_col = id_col + per_table - 1
        next_id = 1 + ((ti + 1) % len(TABLES)) * per_table
        primary.append(id_col)
        foreign.append([ref_col, next_id])
    return {
        "db_id": db_id,
        "table_names_original": list(TABLES),
        "table_names": list(TABLES),
        "column_names_original": names,
        "column_names": names,
        "column_types": types,
        "primary_keys": primary,
        "foreign_keys": foreign,
    }


def _build_databases(
    rng: random.Random, db_dir: Path, n_dbs: int, rows: int, golds_per_db: int
) -> dict[str, list[tuple[str, str]]]:
    """Write the databases; return each one's pool of (stem, gold) pairs.

    Each pool cycles through the gold kinds, so every seed has the same
    mix. Every gold returns at least one row, so an empty result always
    scores wrong and the planted answers stay exact.
    """
    pools: dict[str, list[tuple[str, str]]] = {}
    for d in range(n_dbs):
        db_id = f"shop_{d:02d}"
        path = db_dir / db_id / f"{db_id}.sqlite"
        _write_database(path, rng, rows)
        conn = sqlite3.connect(path)
        pool: list[tuple[str, str]] = []
        try:
            while len(pool) < golds_per_db:
                stem, gold = _gold_candidate(rng, len(pool) % GOLD_KINDS)
                if any(g == gold for _, g in pool):
                    continue
                if conn.execute(gold).fetchall():
                    pool.append((stem, gold))
        finally:
            conn.close()
        pools[db_id] = pool
    return pools


# --------------------------------------------------------------------------
# Candidate SQL variants (shared with the stub endpoint)
# --------------------------------------------------------------------------


def wrong_sql(gold: str, k: int) -> str:
    """An executable query whose result never matches the gold's."""
    if k == 0:
        return f"SELECT * FROM ({gold}) WHERE 0"
    return f"SELECT {k}, * FROM ({gold})"


def broken_sql(gold: str) -> str:
    """A syntax-error variant: the unmatched parenthesis never parses."""
    return f"{gold} )"


def equivalent_sql(gold: str) -> str:
    """Different text, same result: lower-cased leading keyword."""
    return "select" + gold[len("SELECT"):]


def actor_raw(sql: str, fenced: bool) -> str:
    return f"```sql\n{sql}\n```" if fenced else sql


# --------------------------------------------------------------------------
# ablation workload
# --------------------------------------------------------------------------

ABLATION_DBS = 4
ABLATION_GOLDS_PER_DB = GOLD_KINDS
ABLATION_TASKS_PER_DB = 10
ABLATION_ROWS = 60
ABLATION_MODES = ("none", "llm_only", "execution_only", "both")
ABLATION_CONCURRENCY = 2
MAX_ITERATIONS = 5

# Stub endpoint behaviour: actor reply mix, critic error rates, injected
# latency and the share of first attempts answered with HTTP 503.
STUB = {
    "p_gold": 0.55,
    "p_wrong": 0.25,
    "q": 0.2,
    "s": 0.15,
    "retry_share": 0.05,
    "delay_s": 0.003,
    "actor_model": "bench-actor",
    "critic_model": "bench-critic",
}


def _cycled(rng: random.Random, pool: list, n: int) -> list:
    """n picks that use every pool entry equally often, in seeded order."""
    picks = [pool[i % len(pool)] for i in range(n)]
    rng.shuffle(picks)
    return picks


def generate_ablation(seed: int, work: Path) -> dict:
    rng = random.Random(seed)
    db_dir = work / "database"
    pools = _build_databases(rng, db_dir, ABLATION_DBS, ABLATION_ROWS, ABLATION_GOLDS_PER_DB)
    tasks = []
    for db_id, pool in pools.items():
        for stem, gold in _cycled(rng, pool, ABLATION_TASKS_PER_DB):
            question = f"{stem} (request {len(tasks)})"
            tasks.append({"db_id": db_id, "question": question, "query": gold})
    (work / "tables.json").write_text(
        json.dumps([_tables_entry(db_id) for db_id in pools], indent=1), encoding="utf-8"
    )
    (work / "tasks.json").write_text(json.dumps(tasks, indent=1), encoding="utf-8")
    golds = [t["query"] for t in tasks]
    return {
        "tasks": str(work / "tasks.json"),
        "tables": str(work / "tables.json"),
        "db_dir": str(db_dir),
        "modes": list(ABLATION_MODES),
        "n_tasks": len(tasks),
        "max_iterations": MAX_ITERATIONS,
        "concurrency": ABLATION_CONCURRENCY,
        "stub": STUB,
        "answers": [[t["question"], t["query"]] for t in tasks],
        "properties": {
            "databases": len(pools),
            "tasks_per_database": ABLATION_TASKS_PER_DB,
            "rows_per_table": ABLATION_ROWS,
            "order_by_gold_share": sum("ORDER BY" in g for g in golds) / len(golds),
            "injected_delay_ms": 1000 * STUB["delay_s"],
            "concurrency": ABLATION_CONCURRENCY,
        },
    }


# --------------------------------------------------------------------------
# score workload: a planted trace log
# --------------------------------------------------------------------------

SCORE_DBS = 6
SCORE_ROWS = 4000
SCORE_GOLDS_PER_DB = 2 * GOLD_KINDS
SCORE_TRACES_PER_DB = 80
SCORE_EXCLUDED_SHARE = 0.03  # half without gold SQL, half with a failing gold
SCORE_RATES = {"p": 0.5, "q": 0.25, "s": 0.2}
# The loop outcomes (how many iterations, which are right, what the critic
# said) come from this fixed seed and the run seed supplies the data, so
# every seed plants the same amount of scoring work.
OUTCOME_SEED = 2410


def _planted_trace(rng: random.Random, gold: str) -> tuple[list[dict], list[bool], str]:
    """Play the loop with mode "both"; return iterations, correctness, stop reason."""
    p, q, s = SCORE_RATES["p"], SCORE_RATES["q"], SCORE_RATES["s"]
    iterations, correct = [], []
    stopped_by = "budget_exhausted"
    for index in range(1, MAX_ITERATIONS + 1):
        u = rng.random()
        if u < p:
            sql, ok, runs = (gold if rng.random() < 0.8 else equivalent_sql(gold)), True, True
        elif u < p + (1 - p) * 0.7:
            sql, ok, runs = wrong_sql(gold, rng.randrange(6)), False, True
        else:
            sql, ok, runs = broken_sql(gold), False, False
        verdicts = []
        if index < MAX_ITERATIONS:
            if not runs:
                verdicts = [{"source": "execution", "accepted": False, "detail": "syntax error"}]
            else:
                v = rng.random()
                llm_ok = v >= s if ok else v < q
                verdicts = [
                    {"source": "execution", "accepted": True, "detail": ""},
                    {"source": "llm", "accepted": llm_ok, "detail": "True" if llm_ok else "False"},
                ]
        iterations.append(
            {"index": index, "sql": sql, "actor_raw": actor_raw(sql, rng.random() < 0.5),
             "verdicts": verdicts}
        )
        correct.append(ok)
        if verdicts and all(v["accepted"] for v in verdicts):
            stopped_by = "accepted"
            break
    return iterations, correct, stopped_by


def generate_score(seed: int, work: Path) -> dict:
    rng = random.Random(seed)
    outcomes = random.Random(OUTCOME_SEED)
    pools = _build_databases(rng, work / "database", SCORE_DBS, SCORE_ROWS, SCORE_GOLDS_PER_DB)
    counts = dict.fromkeys(
        ("first_pass_correct", "first_pass_total", "wrong_checked", "wrong_accepted",
         "correct_checked", "correct_rejected"),
        0,
    )
    lines, triples = [], []
    excluded = final_correct = scored = n_iterations = 0
    for db_id, pool in pools.items():
        for stem, gold in _cycled(rng, pool, SCORE_TRACES_PER_DB):
            iterations, correct, stopped_by = _planted_trace(outcomes, gold)
            n_iterations += len(iterations)
            if outcomes.random() < SCORE_EXCLUDED_SHARE:
                excluded += 1
                gold = None if outcomes.random() < 0.5 else "SELECT missing_column FROM item"
            else:
                scored += 1
                final_correct += correct[-1]
                counts["first_pass_total"] += 1
                counts["first_pass_correct"] += correct[0]
                for it, ok in zip(iterations, correct):
                    if not it["verdicts"]:
                        continue
                    accepted = all(v["accepted"] for v in it["verdicts"])
                    if ok:
                        counts["correct_checked"] += 1
                        counts["correct_rejected"] += not accepted
                    else:
                        counts["wrong_checked"] += 1
                        counts["wrong_accepted"] += accepted
                # report scores the final SQL, estimate-pqs every iteration
                triples.append((db_id, gold, iterations[-1]["sql"]))
                triples.extend((db_id, gold, it["sql"]) for it in iterations)
            lines.append(
                {
                    "task_id": f"s{len(lines):05d}",
                    "db_id": db_id,
                    "question": f"{stem} (request {len(lines)})",
                    "gold_sql": gold,
                    "config": {"max_iterations": MAX_ITERATIONS, "critic_mode": "both"},
                    "iterations": iterations,
                    "final_sql": iterations[-1]["sql"],
                    "stopped_by": stopped_by,
                }
            )
    traces = work / "traces.jsonl"
    with open(traces, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(json.dumps(line, ensure_ascii=False) + "\n")
    golds = [line["gold_sql"] for line in lines if line["gold_sql"]]
    return {
        "traces": str(traces),
        "db_dir": str(work / "database"),
        "n_traces": len(lines),
        "golds": sorted(set(golds)),
        "expected": {
            "n_tasks": scored,
            "ex": final_correct / scored,
            "n_excluded": excluded,
            "counts": counts,
        },
        "properties": {
            "databases": len(pools),
            "tasks_per_database": SCORE_TRACES_PER_DB,
            "rows_per_table": SCORE_ROWS,
            "mean_iterations_per_trace": n_iterations / len(lines),
            "repeated_triple_share": 1 - len(set(triples)) / len(triples),
            "order_by_gold_share": sum("ORDER BY" in g for g in golds) / len(golds),
            "trace_bytes": traces.stat().st_size,
        },
    }


GENERATORS = {"model": generate_model, "ablation": generate_ablation, "score": generate_score}
