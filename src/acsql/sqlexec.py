"""Read-only SQLite execution with a wall-clock cutoff.

All candidate and gold SQL in this package runs through run_query, on a
handle from open_readonly (read-only mode: INSERT/UPDATE/... fail at the
engine level) or on a caller's own connection. For each statement
run_query installs an authorizer that allows only reading: SELECT,
reading a column, calling a function and recursive CTEs. Everything else
is refused when the statement is prepared, including what read-only mode
lets through because it changes only the connection: CREATE TEMP
TABLE/VIEW, ATTACH and PRAGMA. So one handle is safe to reuse across
untrusted statements; none can change what a later one sees. A progress
handler interrupts statements that outlive the timeout, and the handle
stays usable after an interrupt.
"""

import sqlite3
import time
from pathlib import Path


class DatabaseUnavailable(Exception):
    """The database file cannot be opened; a task-level error, not a verdict."""


class QueryFailure(Exception):
    """The statement did not execute to completion."""

    def __init__(self, message: str, timed_out: bool = False):
        super().__init__(message)
        self.timed_out = timed_out


_ALLOWED_ACTIONS = frozenset(
    (sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION, sqlite3.SQLITE_RECURSIVE)
)


def _authorize(action: int, *_details) -> int:
    return sqlite3.SQLITE_OK if action in _ALLOWED_ACTIONS else sqlite3.SQLITE_DENY


def open_readonly(path: str | Path) -> sqlite3.Connection:
    """Open a read-only handle; run_query refuses every statement but a query on it."""
    p = Path(path)
    if not p.is_file():
        raise DatabaseUnavailable(f"database file not found: {p}")
    try:
        conn = sqlite3.connect(f"file:{p}?mode=ro", uri=True)
        conn.text_factory = lambda b: b.decode("utf-8", errors="replace")
        conn.execute("SELECT 1")
    except sqlite3.Error as exc:
        raise DatabaseUnavailable(f"cannot open {p} read-only: {exc}") from exc
    return conn


def run_query(
    database: str | Path | sqlite3.Connection, sql: str, timeout: float = 30.0
) -> tuple[list[tuple], int]:
    """Execute one statement, returning (rows, column_count).

    Raises QueryFailure on any execution error, with .timed_out set when
    the wall-clock cutoff interrupted the statement, and
    DatabaseUnavailable when the database itself cannot be opened.
    """
    own_connection = not isinstance(database, sqlite3.Connection)
    conn = open_readonly(database) if own_connection else database
    deadline = time.monotonic() + timeout

    def over_deadline():
        return 1 if time.monotonic() > deadline else 0

    conn.set_authorizer(_authorize)
    conn.set_progress_handler(over_deadline, 10_000)
    try:
        cursor = conn.execute(sql)
        rows = cursor.fetchall()
        n_columns = len(cursor.description) if cursor.description else 0
        return rows, n_columns
    except sqlite3.Error as exc:
        timed_out = time.monotonic() > deadline
        message = f"timeout after {timeout}s" if timed_out else str(exc)
        raise QueryFailure(message, timed_out=timed_out) from exc
    except sqlite3.Warning as exc:  # e.g. multiple statements in one string
        raise QueryFailure(str(exc)) from exc
    finally:
        conn.set_progress_handler(None, 0)
        conn.set_authorizer(None)
        if own_connection:
            conn.close()
