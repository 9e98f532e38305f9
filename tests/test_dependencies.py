"""The package imports exactly the third-party modules pyproject.toml declares,
and its source parses as the oldest Python that pyproject.toml allows."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

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
