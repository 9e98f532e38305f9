"""Read-only SQLite execution with a wall-clock cutoff.

All candidate and gold SQL in this package runs through `statement`, on
a handle from open_readonly. The handle is opened in read-only mode
(INSERT/UPDATE/... fail at the engine level) and carries, from its first
statement until it closes, an authorizer that allows only reading:
SELECT, reading a column, calling a function and recursive CTEs.
Everything else is refused when the statement is prepared, including
what read-only mode lets through because it changes only the
connection: CREATE TEMP TABLE/VIEW, ATTACH and PRAGMA. So one handle is
safe to reuse across untrusted statements; none can change what a later
one sees. A progress handler interrupts statements that outlive the
timeout, and the handle stays usable after an interrupt.

COMMENT and NOT_CODE are the package's one SQL lexer: the spans of text
that are comments, and those that are not code at all (comments, quoted
literals, bracketed or backticked identifiers).
"""

import itertools
import re
import sqlite3
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


# A span left open runs to the end of the text.
COMMENT = re.compile(r"--[^\n]*|/\*.*?(?:\*/|\Z)", re.DOTALL)
NOT_CODE = re.compile(r"""'[^']*'?|"[^"]*"?|\[[^\]]*\]?|`[^`]*`?|""" + COMMENT.pattern, re.DOTALL)


class DatabaseUnavailable(Exception):
    """The database file cannot be opened; a task-level error, not a verdict."""


class QueryFailure(Exception):
    """The statement did not execute to completion."""


_ALLOWED_ACTIONS = frozenset(
    (sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE)
)


def _authorize(action: int, *_details) -> int:
    return sqlite3.SQLITE_OK if action in _ALLOWED_ACTIONS else sqlite3.SQLITE_DENY


def open_readonly(path: str | Path) -> sqlite3.Connection:
    """Open a read-only handle that refuses every statement but a query.

    The open reads the file's first page, so a file that is not a SQLite
    database raises DatabaseUnavailable here rather than failing each
    query. A 0-byte file still opens, as an empty database: that is
    SQLite's own rule. The path goes into the URI percent-encoded, so a
    `#`, `?` or `%` in it names a file rather than ending or escaping
    the path.
    """
    p = Path(path)
    if not p.is_file():
        raise DatabaseUnavailable(f"database file not found: {p}")
    conn = None
    try:
        conn = sqlite3.connect(f"{p.absolute().as_uri()}?mode=ro", uri=True)
        conn.set_authorizer(_authorize)
        conn.text_factory = lambda b: b.decode("utf-8", errors="replace")
        conn.execute("SELECT count(*) FROM sqlite_master")
    except sqlite3.Error as exc:
        if conn is not None:
            conn.close()
        raise DatabaseUnavailable(f"cannot open {p} read-only: {exc}") from exc
    return conn


@contextmanager
def statement(conn: sqlite3.Connection, sql: str, timeout: float) -> Iterator[sqlite3.Cursor]:
    """Execute one statement on an open_readonly handle and yield its cursor.

    The cursor has stepped to its first row and has a description. An
    execution error, whether it comes from the execute or from a row
    the caller steps to inside the block, raises QueryFailure ("timeout
    after ...s" when the wall-clock cutoff interrupted the statement,
    "not a query" for blank or comment-only text). On exit the cursor
    is closed, which resets a statement the caller did not step to its
    end, and the cutoff is lifted.
    """
    deadline = time.monotonic() + timeout

    def over_deadline():
        return 1 if time.monotonic() > deadline else 0

    conn.set_progress_handler(over_deadline, 10_000)
    cursor = None
    try:
        cursor = conn.execute(sql)
        if cursor.description is None:  # a statement with no columns has no rows
            raise QueryFailure("not a query")
        yield cursor
    except sqlite3.Error as exc:
        timed_out = time.monotonic() > deadline
        raise QueryFailure(f"timeout after {timeout}s" if timed_out else str(exc)) from exc
    except sqlite3.Warning as exc:  # e.g. multiple statements in one string
        raise QueryFailure(str(exc)) from exc
    finally:
        if cursor is not None:
            cursor.close()
        conn.set_progress_handler(None, 0)


def run_query(
    conn: sqlite3.Connection, sql: str, timeout: float = 30.0, max_rows: int | None = None
) -> tuple[list[tuple], int]:
    """Execute one statement on an open_readonly handle, returning (rows, column_count).

    The statement always runs to completion, so an error in any row
    fails it, but only its first max_rows rows are kept (all of them
    when max_rows is None). Raises QueryFailure as `statement` does.
    """
    with statement(conn, sql, timeout) as cursor:
        rows = list(itertools.islice(cursor, max_rows))
        for _ in cursor:  # a row past max_rows can still raise a runtime error
            pass
        return rows, len(cursor.description)
