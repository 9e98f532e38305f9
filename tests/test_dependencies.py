"""The package imports exactly the third-party modules pyproject.toml declares,
NumPy only where the model computes with arrays, and its source parses as the
oldest Python that pyproject.toml allows."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from acsql.agents import CORRECT_SQL
from stub_llm import StubLLMServer

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "acsql"


def _third_party_imports() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {n for n in names if n != "acsql" and n not in sys.stdlib_module_names}


def _declared_dependencies() -> set[str]:
    # A regex, not tomllib: tomllib is 3.11+ and the package supports 3.10.
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[)", text, re.M | re.S).group(1)
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S).group(1)
    return {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in re.findall(r'"([^"]+)"', block)
    }


def test_imports_match_declared_dependencies():
    assert _third_party_imports() == _declared_dependencies()


def test_source_parses_as_the_oldest_supported_python():
    # Only syntax: a regex that compiles on 3.11 alone is not caught here.
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.M).groups()
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(int(major), int(minor)))


def test_cli_imports_and_completes_without_requests():
    code = (
        "import sys\n"
        "sys.modules['requests'] = None\n"
        "import acsql.cli\n"
        "from acsql.llm_client import ChatMessage, EndpointConfig, complete\n"
        "config = EndpointConfig(base_url=sys.argv[1], model='m', max_retries=0)\n"
        "print(complete(config, [ChatMessage('user', 'x')]))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    stub = StubLLMServer(lambda body: "stdlib only").start()
    try:
        result = subprocess.run(
            [sys.executable, "-c", code, stub.base_url],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
    finally:
        stub.stop()
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "stdlib only"
    assert len(stub.requests) == 1


def _fresh_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60
    )


def test_eval_commands_run_without_numpy(spider_layout):
    # Only the model's array math needs NumPy: theory prob|contour, simulate, estimate-pqs.
    root = spider_layout["root"]
    tasks = [{"question": f"q{i}?", "db_id": "battle_death", "query": CORRECT_SQL}
             for i in range(4)]
    (root / "tasks.json").write_text(json.dumps(tasks))
    settings = {"tasks": str(root / "tasks.json"), "tables": str(spider_layout["tables"]),
                "db_dir": str(spider_layout["db_dir"]), "seed": 3,
                "actor": {"kind": "bernoulli", "p": 0.5}}
    # a stochastic critic for `run`; `ablation` gets the execution critic on the database
    (root / "run.json").write_text(json.dumps(
        {**settings, "critic": {"kind": "stochastic", "q": 0.25, "s": 0.25}}
    ))
    (root / "ablation.json").write_text(json.dumps(settings))
    log, db_dir = str(root / "run.jsonl"), str(spider_layout["db_dir"])
    commands = [
        ["theory", "limit", "--p", "0.5", "--q", "0.25", "--s", "0.25"],
        ["eval", "run", "--config", str(root / "run.json"), "--mode", "both", "--out", log],
        ["eval", "report", "--traces", log, "--db-dir", db_dir, "--json"],
        ["eval", "ablation", "--config", str(root / "ablation.json"),
         "--modes", "none,execution_only", "--out-dir", str(root / "ablation")],
    ]
    code = (
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "import acsql, acsql.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    if acsql.cli.main(argv) != 0:\n"
        "        sys.exit(f'exit status != 0: {argv}')\n"
    )
    result = _fresh_python(code, json.dumps(commands))
    assert result.returncode == 0, result.stderr
    assert '"ex": ' in result.stdout and "traces written: 4" in result.stdout


def test_importing_the_cli_leaves_numpy_unloaded():
    result = _fresh_python("import sys, acsql.cli\nprint('numpy' in sys.modules)")
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr
