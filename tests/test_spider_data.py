"""Tests for dataset loading and schema-to-DDL serialization."""

import json
import sqlite3

import pytest

from acsql.spider_data import (
    DatasetFormatError,
    SpiderTask,
    database_path,
    load_dataset,
    parse_tables_json,
    schema_to_ddl,
)
from conftest import BATTLE_TABLES_ENTRY

EXPECTED_BATTLE_DDL = (
    "CREATE TABLE battle ( id INT, name TEXT, date TEXT, bulgarian_commander TEXT, "
    "latin_commander TEXT, result TEXT, PRIMARY KEY ( id ) );"
    "\n\n"
    "CREATE TABLE death ( caused_by_ship_id INT, id INT, note TEXT, killed INT, "
    "injured INT, PRIMARY KEY ( id ), "
    "FOREIGN KEY ( caused_by_ship_id ) REFERENCES ship (id) );"
    "\n\n"
    "CREATE TABLE ship ( lost_in_battle INT, id INT, name TEXT, tonnage TEXT, "
    "ship_type TEXT, location TEXT, disposition_of_ship TEXT, PRIMARY KEY ( id ), "
    "FOREIGN KEY ( lost_in_battle ) REFERENCES battle (id) );"
)


def _write_tasks(path, items):
    path.write_text(json.dumps(items))
    return path


class TestSchemaToDdl:
    def test_battle_schema_surface(self, battle_schemas):
        assert schema_to_ddl(battle_schemas, "battle_death") == EXPECTED_BATTLE_DDL

    def test_table_without_keys(self, tmp_path):
        entry = {
            "db_id": "tiny",
            "table_names_original": ["notes"],
            "column_names_original": [[-1, "*"], [0, "body"], [0, "stars"]],
            "column_types": ["text", "text", "number"],
            "primary_keys": [],
            "foreign_keys": [],
        }
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps([entry]))
        ddl = schema_to_ddl(parse_tables_json(tables), "tiny")
        assert ddl == "CREATE TABLE notes ( body TEXT, stars INT );"

    def test_deterministic(self, battle_schemas):
        assert schema_to_ddl(battle_schemas, "battle_death") == schema_to_ddl(
            battle_schemas, "battle_death"
        )

    def test_unknown_db_id(self, battle_schemas):
        with pytest.raises(KeyError):
            schema_to_ddl(battle_schemas, "nope")

    def test_ddl_round_trips_through_sqlite(self, battle_schemas, tmp_path):
        conn = sqlite3.connect(tmp_path / "fresh.sqlite")
        try:
            conn.executescript(schema_to_ddl(battle_schemas, "battle_death"))
            tables = {
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
        finally:
            conn.close()
        assert tables == {"battle", "death", "ship"}


class TestParseTables:
    def test_dangling_foreign_key_rejected(self, tmp_path):
        entry = dict(BATTLE_TABLES_ENTRY)
        entry["foreign_keys"] = [[7, 99]]
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps([entry]))
        with pytest.raises(DatasetFormatError):
            parse_tables_json(tables)

    @pytest.mark.parametrize(
        "make_entry",
        [
            lambda e: {k: v for k, v in e.items() if k != "column_types"},
            lambda e: {**e, "column_names_original": [*e["column_names_original"], [3, "extra"]]},
            lambda e: ["battle_death", e["table_names_original"]],
            lambda e: {**e, "column_names_original": [*e["column_names_original"], [-3, "stars"]]},
            lambda e: {**e, "db_id": 5},
            lambda e: {**e, "foreign_keys": [[7, 99]]},
            lambda e: {**e, "table_names_original": [], "column_names_original": [[-1, "*"]],
                       "column_types": ["text"], "primary_keys": [], "foreign_keys": []},
        ],
        ids=[
            "missing_key",
            "table_index_out_of_range",
            "not_an_object",
            "negative_table_index",
            "db_id_not_a_string",
            "dangling_foreign_key",
            "no_tables",
        ],
    )
    def test_malformed_entry_names_the_entry(self, tmp_path, make_entry):
        tables = tmp_path / "tables.json"
        tables.write_text(json.dumps([BATTLE_TABLES_ENTRY, make_entry(BATTLE_TABLES_ENTRY)]))
        with pytest.raises(DatasetFormatError) as err:
            parse_tables_json(tables)
        assert "tables.json: database entry 1" in str(err.value)

    def test_malformed_json_names_path(self, tmp_path):
        tables = tmp_path / "tables.json"
        tables.write_text("{not json")
        with pytest.raises(DatasetFormatError) as err:
            parse_tables_json(tables)
        assert "tables.json" in str(err.value)


class TestLoadDataset:
    def test_loads_tasks_with_resolvable_databases(self, spider_layout):
        tasks_path = _write_tasks(
            spider_layout["root"] / "tasks.json",
            [
                {
                    "question": "How many battles are there?",
                    "db_id": "battle_death",
                    "query": "SELECT count(*) FROM battle",
                },
                {
                    "question": "List ship names.",
                    "db_id": "battle_death",
                    "query": "SELECT name FROM ship",
                },
            ],
        )
        dataset = load_dataset(tasks_path, spider_layout["tables"], spider_layout["db_dir"])
        assert len(dataset.tasks) == 2
        assert dataset.unloadable == []
        assert [t.task_id for t in dataset.tasks] == ["t00000", "t00001"]
        assert dataset.tasks[0].gold_sql == "SELECT count(*) FROM battle"
        # stable ordering across loads
        again = load_dataset(tasks_path, spider_layout["tables"], spider_layout["db_dir"])
        assert again.tasks == dataset.tasks

    def test_missing_database_flagged(self, spider_layout):
        tasks_path = _write_tasks(
            spider_layout["root"] / "tasks.json",
            [
                {"question": "q1", "db_id": "battle_death", "query": "SELECT 1"},
                {"question": "q2", "db_id": "ghost_db", "query": "SELECT 1"},
            ],
        )
        dataset = load_dataset(tasks_path, spider_layout["tables"], spider_layout["db_dir"])
        assert len(dataset.tasks) == 1
        assert len(dataset.unloadable) == 1
        assert dataset.unloadable[0][0] == "t00001"
        assert "ghost_db" in dataset.unloadable[0][1]
        assert "unloadable: 1" in dataset.load_report()

    def test_missing_database_file_flagged(self, spider_layout):
        # lost_db is in the tables file, but its .sqlite file was never made
        spider_layout["tables"].write_text(
            json.dumps([BATTLE_TABLES_ENTRY, {**BATTLE_TABLES_ENTRY, "db_id": "lost_db"}])
        )
        tasks_path = _write_tasks(
            spider_layout["root"] / "tasks.json",
            [
                {"question": "q1", "db_id": "lost_db", "query": "SELECT 1"},
                {"question": "q2", "db_id": "battle_death", "query": "SELECT 1"},
            ],
        )
        dataset = load_dataset(tasks_path, spider_layout["tables"], spider_layout["db_dir"])
        assert [t.task_id for t in dataset.tasks] == ["t00001"]
        missing = database_path(spider_layout["db_dir"], "lost_db")
        assert dataset.unloadable == [("t00000", f"database file missing: {missing}")]
        assert set(dataset.schemas) == {"battle_death", "lost_db"}

    def test_empty_task_array(self, spider_layout):
        tasks_path = _write_tasks(spider_layout["root"] / "tasks.json", [])
        dataset = load_dataset(tasks_path, spider_layout["tables"], spider_layout["db_dir"])
        assert dataset.tasks == []
        assert "tasks loaded: 0" in dataset.load_report()

    def test_gold_sql_optional(self, spider_layout):
        tasks_path = _write_tasks(
            spider_layout["root"] / "tasks.json",
            [{"question": "q", "db_id": "battle_death"}],
        )
        dataset = load_dataset(tasks_path, spider_layout["tables"], spider_layout["db_dir"])
        assert dataset.tasks[0].gold_sql is None

    def test_malformed_tasks_hard_error(self, spider_layout):
        bad = spider_layout["root"] / "tasks.json"
        bad.write_text("[{]")
        with pytest.raises(DatasetFormatError):
            load_dataset(bad, spider_layout["tables"], spider_layout["db_dir"])
        # each malformed task is refused by name, after a good one
        good = {"question": "q?", "db_id": "battle_death", "query": None}
        for bad_task in (
            {"question": "", "db_id": "battle_death", "query": "SELECT 1"},
            {"question": "  \n", "db_id": "battle_death", "query": "SELECT 1"},
            {"question": 5, "db_id": "battle_death", "query": "SELECT 1"},
            {"question": "q?", "db_id": "battle_death", "query": ["SELECT 1"]},
            {"question": "q?", "db_id": 5, "query": "SELECT 1"},
            {"db_id": "battle_death", "query": "SELECT 1"},
            ["q?", "battle_death"],
        ):
            _write_tasks(bad, [good, bad_task])
            with pytest.raises(DatasetFormatError, match="tasks.json: task 1 needs"):
                load_dataset(bad, spider_layout["tables"], spider_layout["db_dir"])

    def test_not_an_array_or_unreadable_is_format_error(self, spider_layout):
        tasks, tables, db_dir = (spider_layout["root"] / "tasks.json", spider_layout["tables"],
                                 spider_layout["db_dir"])
        with pytest.raises(DatasetFormatError, match="cannot read .*tasks.json"):
            load_dataset(tasks, tables, db_dir)  # not written yet
        tasks.write_text('{"question": "q?"}')
        with pytest.raises(DatasetFormatError, match="tasks.json: expected a JSON array of tasks"):
            load_dataset(tasks, tables, db_dir)
        tasks.write_text("[]")
        tables.write_text("{}")
        with pytest.raises(DatasetFormatError, match="expected a JSON array of database entries"):
            load_dataset(tasks, tables, db_dir)

    def test_database_path_convention(self):
        assert str(database_path("/data/db", "concert_singer")).endswith(
            "/data/db/concert_singer/concert_singer.sqlite"
        )


def test_spider_task_is_plain_record():
    task = SpiderTask(task_id="t1", db_id="x", question="q")
    assert task.gold_sql is None
