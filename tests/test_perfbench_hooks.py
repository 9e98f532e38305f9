"""Every layer the benchmark traces names a function that exists in acsql.

perfbench reads a hook it cannot find as zero rather than failing, so a
renamed function would silently zero its per-layer metrics. The hook list
is read with ast, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

WORKLOAD = Path(__file__).resolve().parent.parent / "perfbench" / "workload.py"


def _hooks() -> list[str]:
    for node in ast.parse(WORKLOAD.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["HOOKS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{WORKLOAD} assigns no HOOKS list")


def _resolves(hook: str) -> bool:
    """'module.attr' or 'module.Class.method' names a callable in acsql."""
    module, *path = hook.split(".")
    obj = importlib.import_module(f"acsql.{module}")
    for name in path:
        obj = getattr(obj, name, None)
    return callable(obj)


def test_every_hook_resolves():
    hooks = _hooks()
    assert "agents.LLMJudge.judge" in hooks and "agents.execution_critic" in hooks
    assert [hook for hook in hooks if not _resolves(hook)] == []
