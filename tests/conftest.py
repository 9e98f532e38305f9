"""Shared fixtures: a small three-table benchmark database and its schema."""

import json
import os
import sqlite3

import pytest

from acsql.engine import write_trace
from acsql.spider_data import parse_tables_json, schema_to_ddl

# Spider-format schema entry for the fixture database.
BATTLE_TABLES_ENTRY = {
    "db_id": "battle_death",
    "table_names_original": ["battle", "death", "ship"],
    "table_names": ["battle", "death", "ship"],
    "column_names_original": [
        [-1, "*"],
        [0, "id"],
        [0, "name"],
        [0, "date"],
        [0, "bulgarian_commander"],
        [0, "latin_commander"],
        [0, "result"],
        [1, "caused_by_ship_id"],
        [1, "id"],
        [1, "note"],
        [1, "killed"],
        [1, "injured"],
        [2, "lost_in_battle"],
        [2, "id"],
        [2, "name"],
        [2, "tonnage"],
        [2, "ship_type"],
        [2, "location"],
        [2, "disposition_of_ship"],
    ],
    "column_types": [
        "text",
        "number",
        "text",
        "text",
        "text",
        "text",
        "text",
        "number",
        "number",
        "text",
        "number",
        "number",
        "number",
        "number",
        "text",
        "text",
        "text",
        "text",
        "text",
    ],
    "primary_keys": [1, 8, 13],
    "foreign_keys": [[7, 13], [12, 1]],
}

BATTLE_ROWS = {
    "battle": [
        (1, "Pliska", "811", "Krum", "Nicephorus I", "Bulgarian victory"),
        (2, "Versinikia", "813", "Krum", "Michael I", "Bulgarian victory"),
    ],
    "ship": [
        (1, 1, "Lesnaya", "t", "Brig", "Baltic Sea", "Sunk"),
        (2, 2, "Amenable", "1060", "Sloop", "English Channel", "Captured"),
        (1, 3, "Implacable", "t", "Frigate", "North Sea", "Wrecked"),
    ],
    "death": [
        (1, 1, "storm", 12, 5),
        (3, 2, "fire", 7, 0),
        (2, 3, "collision", 3, 1),
        (1, 4, "boiler explosion", 12, 5),  # duplicates (12, 5) on purpose
    ],
}


def build_battle_db(path) -> None:
    """Create the fixture database file with seeded rows."""
    conn = sqlite3.connect(path)
    try:
        schemas = {"battle_death": _parsed_schemas()["battle_death"]}
        conn.executescript(schema_to_ddl(schemas, "battle_death"))
        conn.executemany("INSERT INTO battle VALUES (?,?,?,?,?,?)", BATTLE_ROWS["battle"])
        conn.executemany("INSERT INTO ship VALUES (?,?,?,?,?,?,?)", BATTLE_ROWS["ship"])
        conn.executemany("INSERT INTO death VALUES (?,?,?,?,?)", BATTLE_ROWS["death"])
        conn.commit()
    finally:
        conn.close()


_SCHEMA_CACHE = {}


def _parsed_schemas():
    if "index" not in _SCHEMA_CACHE:
        import tempfile

        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump([BATTLE_TABLES_ENTRY], f)
            name = f.name
        try:
            _SCHEMA_CACHE["index"] = parse_tables_json(name)
        finally:
            os.unlink(name)
    return _SCHEMA_CACHE["index"]


@pytest.fixture(scope="session")
def battle_schemas():
    return _parsed_schemas()


@pytest.fixture(scope="session")
def battle_ddl(battle_schemas):
    return schema_to_ddl(battle_schemas, "battle_death")


@pytest.fixture(scope="session")
def battle_db(tmp_path_factory):
    """Path to a read-only-use fixture database."""
    path = tmp_path_factory.mktemp("fixturedb") / "battle_death.sqlite"
    build_battle_db(path)
    return path


@pytest.fixture()
def spider_layout(tmp_path, battle_db):
    """A minimal Spider-style on-disk layout around the fixture database."""
    db_dir = tmp_path / "database"
    (db_dir / "battle_death").mkdir(parents=True)
    target = db_dir / "battle_death" / "battle_death.sqlite"
    target.write_bytes(battle_db.read_bytes())
    tables_path = tmp_path / "tables.json"
    tables_path.write_text(json.dumps([BATTLE_TABLES_ENTRY]))
    return {"db_dir": db_dir, "tables": tables_path, "root": tmp_path}


def write_traces(traces, path, append=False) -> int:
    """Write traces to a JSON Lines log, appending when asked; returns the count."""
    with open(path, "a" if append else "w", encoding="utf-8") as f:
        for trace in traces:
            write_trace(trace, f)
    return len(traces)
