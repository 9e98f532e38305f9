"""Loading Spider-format benchmarks and serializing schemas to prompt DDL.

Inputs are Spider's on-disk conventions: a JSON array of tasks with
question/db_id/query fields, a tables.json describing every database
schema, and one SQLite file per database at <db_dir>/<db_id>/<db_id>.sqlite.
A schema is kept only as its prompt DDL, built once when tables.json is
parsed.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path


class DatasetFormatError(Exception):
    """The tasks or tables file is not in the expected Spider format."""


@dataclass(frozen=True)
class SpiderTask:
    task_id: str
    db_id: str
    question: str
    gold_sql: str | None = None


SchemaIndex = dict[str, str]  # db_id -> prompt DDL

# Spider declares abstract column types; prompts use concrete SQL surface
# types (INT/TEXT being the common case).
_TYPE_SURFACE = {
    "text": "TEXT",
    "number": "INT",
    "time": "TIME",
    "boolean": "BOOLEAN",
}


@dataclass
class LoadedDataset:
    tasks: list[SpiderTask]
    schemas: SchemaIndex
    unloadable: list[tuple[str, str]] = field(default_factory=list)  # (task_id, reason)

    def load_report(self) -> str:
        lines = [
            f"tasks loaded: {len(self.tasks)}",
            f"tasks unloadable: {len(self.unloadable)}",
            f"databases indexed: {len(self.schemas)}",
        ]
        lines.extend(f"  {task_id}: {reason}" for task_id, reason in self.unloadable)
        return "\n".join(lines)


def database_path(db_dir: str | Path, db_id: str) -> Path:
    return Path(db_dir) / db_id / f"{db_id}.sqlite"


def read_json(path: str | Path):
    """Parse one JSON file; an unreadable file or bad JSON raises DatasetFormatError."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise DatasetFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DatasetFormatError(f"malformed JSON in {path}: {exc}") from exc


def parse_tables_json(path: str | Path) -> SchemaIndex:
    """Map each db_id in Spider's tables.json to its prompt DDL.

    One CREATE TABLE statement per table in dataset order, columns
    followed by PRIMARY KEY and FOREIGN KEY clauses; the output is
    deterministic. An entry that is not an object, lacks a required key,
    has a non-string db_id or no tables, or points outside its own tables
    or columns (any negative table index but the -1 of "*") raises
    DatasetFormatError naming the entry.
    """
    raw = read_json(path)
    if not isinstance(raw, list):
        raise DatasetFormatError(f"{path}: expected a JSON array of database entries")
    index: SchemaIndex = {}
    for i, entry in enumerate(raw):
        try:
            index[entry["db_id"]] = _entry_ddl(entry)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            db_id = entry.get("db_id") if isinstance(entry, dict) else None
            raise DatasetFormatError(
                f"{path}: database entry {i} (db_id {db_id!r}) is malformed: {exc!r}"
            ) from exc
    return index


def _entry_ddl(entry: dict) -> str:
    db_id = entry["db_id"]
    if not isinstance(db_id, str):
        raise TypeError(f"db_id must be a string, got {db_id!r}")
    table_names = entry["table_names_original"]
    if not table_names:
        raise ValueError("the entry has no tables, so its prompt would have no schema")
    column_pairs = entry["column_names_original"]
    column_types = entry["column_types"]
    primary_keys = set(entry.get("primary_keys", []))
    foreign_keys = entry.get("foreign_keys", [])

    columns_by_table: list[list[str]] = [[] for _ in table_names]
    pk_by_table: list[list[str]] = [[] for _ in table_names]
    fk_by_table: list[list[str]] = [[] for _ in table_names]

    for col_idx, (table_idx, col_name) in enumerate(column_pairs):
        if table_idx == -1:  # the "*" pseudo-column
            continue
        if table_idx < 0:  # would index the table list from its end
            raise IndexError(f"column {col_idx} has table index {table_idx}")
        declared = column_types[col_idx] if col_idx < len(column_types) else "text"
        surface = _TYPE_SURFACE.get(str(declared).lower(), "TEXT")
        columns_by_table[table_idx].append(f"{col_name} {surface}")
        if col_idx in primary_keys:
            pk_by_table[table_idx].append(col_name)

    for local_idx, foreign_idx in foreign_keys:
        for idx in (local_idx, foreign_idx):
            if not 0 <= idx < len(column_pairs) or column_pairs[idx][0] < 0:
                raise IndexError(f"foreign key references column index {idx} outside the schema")
        local_table, local_col = column_pairs[local_idx]
        foreign_table, foreign_col = column_pairs[foreign_idx]
        fk_by_table[local_table].append(
            f"FOREIGN KEY ( {local_col} ) REFERENCES {table_names[foreign_table]} ({foreign_col})"
        )

    statements = []
    for name, columns, pks, fks in zip(table_names, columns_by_table, pk_by_table, fk_by_table):
        if pks:
            columns.append(f"PRIMARY KEY ( {', '.join(pks)} )")
        statements.append(f"CREATE TABLE {name} ( {', '.join(columns + fks)} );")
    return "\n\n".join(statements)


def schema_to_ddl(schemas: SchemaIndex, db_id: str) -> str:
    """The prompt DDL of one database; an unknown db_id raises KeyError."""
    if db_id not in schemas:
        raise KeyError(f"unknown db_id {db_id!r}")
    return schemas[db_id]


def load_dataset(
    tasks_path: str | Path, tables_path: str | Path, db_dir: str | Path
) -> LoadedDataset:
    """Load tasks and schemas; flag tasks whose database is missing, refuse malformed ones."""
    raw_tasks = read_json(tasks_path)
    if not isinstance(raw_tasks, list):
        raise DatasetFormatError(f"{tasks_path}: expected a JSON array of tasks")
    schemas = parse_tables_json(tables_path)

    tasks: list[SpiderTask] = []
    unloadable: list[tuple[str, str]] = []
    for i, entry in enumerate(raw_tasks):
        item = entry if isinstance(entry, dict) else {}
        task = SpiderTask(f"t{i:05d}", item.get("db_id"), item.get("question"), item.get("query"))
        if not (isinstance(task.db_id, str) and isinstance(task.question, str)
                and task.question.strip() and isinstance(task.gold_sql, (str, type(None)))):
            raise DatasetFormatError(
                f"{tasks_path}: task {i} needs an object with a string db_id, a non-empty "
                f"question and a string or null query; got db_id {task.db_id!r}, "
                f"question {task.question!r}, query {task.gold_sql!r}"
            )
        db_file = database_path(db_dir, task.db_id)
        if task.db_id not in schemas:
            unloadable.append((task.task_id, f"db_id {task.db_id!r} not in tables file"))
        elif not db_file.is_file():
            unloadable.append((task.task_id, f"database file missing: {db_file}"))
        else:
            tasks.append(task)
    return LoadedDataset(tasks=tasks, schemas=schemas, unloadable=unloadable)
